import json
import math
import zlib

import numpy as np
import pytest

from oracles import BETWEEN_CAPS, NON_SIMPLICIAL_CONES
from portho.cones import cone_contains, dual_cone_contains, ray_cone
from portho.decomp import (
    _dual_split,
    _dual_split_lp,
    coefficient_parts,
    dual_one_orth_decompose,
    embed_to_lp,
    infty_orth_decompose,
    opt_decompose,
    p_aggregate,
)
from portho.cli import parse_space_spec
from portho.errors import InputError
from portho.harness import default_families
from portho.linalg import LpProblem, solve_lp
from portho.ortho import p_orthogonal_exact
from portho.spaces import (
    _form,
    base_space,
    batch_norms,
    dual_norm,
    lp_space,
    norm,
    norming,
    norming_element,
    order_unit_space,
    spectral_space,
    sup_space,
)
from portho.cones import nonneg_orthant

INF = math.inf

SIMPLICIAL = ray_cone(np.eye(4) + 0.2 * np.ones((4, 4)))


class TestOptDecompose:
    def test_base_l1(self):
        sp = base_space(nonneg_orthant(2), [1.0, 1.0])
        d = opt_decompose(sp, [3.0, -2.0], 1.0)
        assert d.status == "optimal"
        assert d.u1 == pytest.approx([3.0, 0.0])
        assert d.u2 == pytest.approx([0.0, 2.0])
        assert d.norm_aggregate == pytest.approx(5.0)

    def test_sup_minimax(self):
        sp = sup_space(2)
        d = opt_decompose(sp, [3.0, -2.0], INF)
        assert d.status == "optimal"
        assert d.norm_aggregate == pytest.approx(3.0)
        assert d.u1 - d.u2 == pytest.approx([3.0, -2.0])

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_invalid_exponent(self, p):
        # the aggregate would read (a^p + b^p)^(1/p): NaN, or no norm at p < 1
        for v in ([3.0, -2.0, 0.0], [1.0, 2.0, 0.5]):
            with pytest.raises(InputError, match="exponent: p must be at least 1"):
                opt_decompose(lp_space(3, 2.0), v, p)

    def test_positive_input_trivial(self):
        sp = lp_space(3, 2.0)
        d = opt_decompose(sp, [1.0, 2.0, 0.5], 2.0)
        assert d.u2 == pytest.approx(np.zeros(3))
        assert d.norm_aggregate == pytest.approx(norm(sp, [1.0, 2.0, 0.5]))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_gradient_reaches_norm(self, p):
        sp = lp_space(5, p)
        rng = np.random.default_rng(20)
        for _ in range(10):
            v = rng.normal(size=5)
            d = opt_decompose(sp, v, p)
            assert d.status in ("optimal", "approximate")
            assert d.u1 - d.u2 == pytest.approx(v, abs=1e-9)
            assert np.all(d.u1 >= -1e-9) and np.all(d.u2 >= -1e-9)
            assert d.norm_aggregate <= norm(sp, v) + 1e-6
            # a decomposition can never beat the norm
            assert d.norm_aggregate >= norm(sp, v) - 1e-9

    def test_spectral_sup(self):
        sp = spectral_space(3)
        rng = np.random.default_rng(21)
        A = rng.normal(size=(3, 3))
        v = (A + A.T).ravel()
        d = opt_decompose(sp, v, INF)
        assert d.status == "optimal"
        assert d.norm_aggregate == pytest.approx(norm(sp, v), abs=1e-9)

    def test_simplicial_order_unit(self):
        e = SIMPLICIAL.generators.sum(axis=0)
        sp = order_unit_space(SIMPLICIAL, e)
        rng = np.random.default_rng(22)
        for _ in range(5):
            v = rng.normal(size=4)
            d = opt_decompose(sp, v, INF)
            assert d.status == "optimal"
            assert d.u1 - d.u2 == pytest.approx(v, abs=1e-8)
            assert cone_contains(SIMPLICIAL, d.u1, tol=1e-8)
            assert cone_contains(SIMPLICIAL, d.u2, tol=1e-8)
            assert d.norm_aggregate == pytest.approx(norm(sp, v), abs=1e-8)

    def test_lp1_over_a_ray_cone_outside_the_orthant_is_unsupported(self):
        # the coefficient split of v is not optimal here: adding w = 0.075 g_2
        # to both parts lowers the aggregate from 2.2775 to 2.2473
        G = np.array([[1.688, -0.389, 0.318], [-0.05, 1.15, -0.151], [1.287, -0.388, 1.158]])
        sp = parse_space_spec(json.dumps({
            "dim": 3, "cone": {"kind": "rays", "generators": G.tolist()},
            "norm": {"kind": "lp", "p": 1.0}, "p_class": 1.0,
        }))
        v = np.array([0.287, 0.619, 0.462])
        u1, u2 = coefficient_parts(sp, v)
        split = norm(sp, u1) + norm(sp, u2)
        w = 0.075 * G[1]
        better = norm(sp, u1 + w) + norm(sp, u2 + w)
        assert cone_contains(sp.cone, u1 + w) and cone_contains(sp.cone, u2 + w)
        assert split == pytest.approx(2.2775, abs=1e-4)
        assert better == pytest.approx(2.2473, abs=1e-4)
        d = opt_decompose(sp, v, 1.0)
        assert d.status == "unsupported" and math.isnan(d.norm_aggregate)


class TestInftyOrthDecompose:
    def test_coordinate_parts(self):
        sp = sup_space(3)
        d = infty_orth_decompose(sp, [3.0, -2.0, 0.0])
        assert d.u1 == pytest.approx([3.0, 0.0, 0.0])
        assert d.u2 == pytest.approx([0.0, 2.0, 0.0])
        assert d.ortho_verdict is not None and d.ortho_verdict.is_orthogonal

    def test_spectral_parts(self):
        sp = spectral_space(2)
        d = infty_orth_decompose(sp, np.diag([1.0, -1.0]).ravel())
        assert d.u1 == pytest.approx(np.diag([1.0, 0.0]).ravel(), abs=1e-12)
        assert d.u2 == pytest.approx(np.diag([0.0, 1.0]).ravel(), abs=1e-12)
        assert d.ortho_verdict.is_orthogonal

    def test_spectral_matrices_are_symmetric_bit_for_bit(self, monkeypatch):
        # the parts (Q^T L) Q and the trace-norm maximizer Q^T diag(s) Q are
        # built symmetric, so `as_matrix` takes its byte-comparison path on each
        import portho.linalg as linalg_module

        sp = default_families()["spectral_4"]
        rng = np.random.default_rng(41)
        for _ in range(20):
            A = rng.normal(size=(4, 4))
            v = (A + A.T).ravel()
            for M in (*coefficient_parts(sp, v), *coefficient_parts(sp, v, dual=True),
                      norming(sp, v, dual=True)):
                M = M.reshape(4, 4)
                assert M.view(np.int64).tolist() == M.T.view(np.int64).tolist()
        slow = []
        monkeypatch.setattr(linalg_module, "symmetric_part",
                            lambda M, part=linalg_module.symmetric_part: slow.append(1) or part(M))
        for M in coefficient_parts(sp, v):
            infty_orth_decompose(sp, M)
        dual_one_orth_decompose(sp, v)
        assert slow == []

    def test_positive_input(self):
        sp = sup_space(2)
        d = infty_orth_decompose(sp, [1.0, 2.0])
        assert d.u2 == pytest.approx([0.0, 0.0])
        assert d.ortho_verdict is None

    def test_simplicial_coefficient_split(self):
        e = SIMPLICIAL.generators.sum(axis=0)
        sp = order_unit_space(SIMPLICIAL, e)
        rng = np.random.default_rng(23)
        for _ in range(10):
            v = SIMPLICIAL.generators.T @ rng.normal(size=4)
            d = infty_orth_decompose(sp, v)
            assert d.u1 - d.u2 == pytest.approx(v, abs=1e-9)
            assert cone_contains(SIMPLICIAL, d.u1, tol=1e-9)
            if d.ortho_verdict is not None:
                assert d.ortho_verdict.is_orthogonal


class TestDualOneOrth:
    def test_sup_dual_split(self):
        sp = sup_space(3)
        d = dual_one_orth_decompose(sp, [2.0, -3.0, 0.0])
        assert d.status == "optimal"
        assert d.u1 == pytest.approx([2.0, 0.0, 0.0], abs=1e-9)
        assert d.u2 == pytest.approx([0.0, 3.0, 0.0], abs=1e-9)
        assert d.norm_aggregate == pytest.approx(5.0)
        assert d.ortho_verdict.is_orthogonal

    def test_positive_functional_trivial_half(self):
        sp = sup_space(2)
        d = dual_one_orth_decompose(sp, [1.0, 2.0])
        assert d.u2 == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_spectral_trace_split(self):
        sp = spectral_space(2)
        d = dual_one_orth_decompose(sp, np.diag([1.0, -1.0]).ravel())
        assert d.status == "optimal"
        assert d.norm_aggregate == pytest.approx(2.0, abs=1e-9)
        assert d.ortho_verdict.is_orthogonal

    def test_rejects_one_smooth_space(self):
        with pytest.raises(InputError):
            dual_one_orth_decompose(lp_space(2, 2.0), [1.0, -1.0])

    def test_a_spectral_split_decomposes_f_once(self, monkeypatch):
        # the halves and the norming element Q^T diag(sign lambda) Q come from
        # one eigendecomposition of f; the cross-check decomposes that element
        # on its own (at the earlier code, f was decomposed twice)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda M: calls.append(M.shape) or eigh(M))
        sp = default_families()["spectral_4"]
        A = np.random.default_rng(47).normal(size=(4, 4))
        d = dual_one_orth_decompose(sp, (A + A.T).ravel())
        assert d.status == "optimal" and min(np.abs(d.u1).max(), np.abs(d.u2).max()) > 0.1
        assert calls == [(4, 4), (4, 4)]
        # the caller's matrix is still validated
        with pytest.raises(InputError, match="not symmetric"):
            dual_one_orth_decompose(sp, A.ravel())

    def test_one_grid_decision_per_decomposition(self, monkeypatch):
        # the norming element is split by its cone coefficients, with no
        # primal decision; only the halves' 1-orthogonality is decided, in
        # the dual norm and exactly, so the grid never runs
        import portho.decomp as decomp_module
        import portho.ortho as ortho_module

        decisions, grid_calls = [], []
        decide, grid = decomp_module.p_orthogonal, ortho_module.verdict_from_norm
        monkeypatch.setattr(
            decomp_module, "p_orthogonal",
            lambda *a, **k: decisions.append(k) or decide(*a, **k),
        )
        monkeypatch.setattr(
            ortho_module, "verdict_from_norm", lambda *a: grid_calls.append(1) or grid(*a)
        )
        sp = default_families()["sup_8"]
        rng = np.random.default_rng(25)
        for _ in range(10):
            f = rng.normal(size=8)
            assert f.min() < 0.0 < f.max()  # both halves nonzero: the cross-check runs
            dec = dual_one_orth_decompose(sp, f)
            assert dec.status == "optimal" and dec.ortho_verdict.method == "exact"
        assert decisions == [{"dual": True}] * 10
        assert grid_calls == []

    @pytest.mark.parametrize(
        "sp",
        [
            sup_space(8),
            order_unit_space(SIMPLICIAL, SIMPLICIAL.generators.sum(axis=0)),
            spectral_space(4),
        ],
        ids=["sup", "order_unit", "spectral"],
    )
    def test_random_functionals_certify(self, sp):
        rng = np.random.default_rng(24)
        for _ in range(30):
            f = rng.normal(size=sp.dim)
            if sp.norm.kind == "spectral":
                d = sp.cone.side
                f = (f.reshape(d, d) + f.reshape(d, d).T).ravel()
            dec = dual_one_orth_decompose(sp, f)
            assert dec.status == "optimal"
            assert dec.u1 - dec.u2 == pytest.approx(f, abs=1e-8)
            assert dual_cone_contains(sp.cone, dec.u1, tol=1e-8)
            assert dual_cone_contains(sp.cone, dec.u2, tol=1e-8)
            assert dec.norm_aggregate == pytest.approx(dual_norm(sp, f), abs=1e-8)

    @pytest.mark.parametrize("name", sorted({*NON_SIMPLICIAL_CONES, "between_caps"}))
    def test_the_split_at_the_norming_vertex(self, monkeypatch, name):
        # random functionals at three scales, and +-g for g inside the dual
        # cone, whose norming element is +-e with every facet active: the
        # halves lie in the dual cone, f1 - f2 = f and (f1 + f2)(e) is the
        # dual norm, the split LP's value; no split falls back to that LP,
        # and on a vertex-form cone none makes an LP at all
        import portho.decomp as decomp_module
        import portho.spaces as spaces_module

        G = BETWEEN_CAPS if name == "between_caps" else NON_SIMPLICIAL_CONES[name]
        sp = order_unit_space(ray_cone(G), G.sum(axis=0))
        H, e = sp.cone.facet_normals, sp.norm.unit
        split_lp, solve, calls = _dual_split_lp, spaces_module.solve_lp, []
        monkeypatch.setattr(decomp_module, "_dual_split_lp", lambda *a: calls.append("split") or split_lp(*a))
        monkeypatch.setattr(spaces_module, "solve_lp", lambda *a, **k: calls.append("lp") or solve(*a, **k))
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        g = rng.uniform(0.2, 1.5, size=(3, len(H))) @ H
        F = np.vstack([rng.normal(size=(8, sp.dim)), g, -g])
        for scale in (1e-12, 1.0, 1e12):
            for i, f in enumerate(scale * F):
                f1, f2 = _dual_split(sp, f)
                nf = dual_norm(sp, f)
                top = np.abs(f).max()
                assert np.all(G @ f1 >= -1e-12 * top) and np.all(G @ f2 >= -1e-12 * top)
                assert np.abs(f1 - f2 - f).max() <= 1e-12 * top
                assert float((f1 + f2) @ e) == pytest.approx(nf, rel=1e-12)
                if i >= 8:  # +-g: the norming element is +-e, one half is 0
                    assert norming_element(sp, f) == pytest.approx(np.sign(f @ e) * e, abs=1e-9)
                    assert not (f2 if f @ e > 0.0 else f1).any()
                g1, g2 = split_lp(sp, f)
                assert float((f1 + f2) @ e) == pytest.approx(float((g1 + g2) @ e), rel=1e-9)
        assert "split" not in calls
        if _form(sp, True).kind != "solver":
            assert calls == []


def _coefficients(emb, x):
    """The least-squares coefficients of x in the embedded set, and the
    residual of their synthesis."""
    alpha = np.linalg.lstsq(emb.matrix, x, rcond=None)[0]
    return alpha, float(np.abs(emb.synthesize(alpha) - x).max())


class TestEmbedding:
    def test_standard_basis_identity(self):
        sp = lp_space(3, 2.0)
        emb = embed_to_lp(sp, list(np.eye(3)), 2.0)
        x = np.array([1.0, -2.0, 3.0])
        alpha, residual = _coefficients(emb, x)
        assert alpha == pytest.approx(x) and residual <= 1e-12
        assert emb.synthesize(x) == pytest.approx(x)

    def test_subset_projection(self):
        sp = lp_space(3, 2.0)
        emb = embed_to_lp(sp, [np.eye(3)[0], np.eye(3)[2]], 2.0)
        v = 2.0 * np.eye(3)[0] - 1.0 * np.eye(3)[2]
        alpha, residual = _coefficients(emb, v)
        assert alpha == pytest.approx([2.0, -1.0]) and residual <= 1e-12
        assert _coefficients(emb, np.array([0.0, 1.0, 0.0]))[1] == pytest.approx(1.0)

    def test_rejects_non_orthonormal(self):
        sp = lp_space(2, 1.0)
        with pytest.raises(InputError):
            embed_to_lp(sp, [np.array([1.0, 0.0]), np.array([0.5, 0.5])], 1.0)

    @pytest.mark.parametrize("p", [1.5, INF])
    def test_one_decision_per_pair(self, p, monkeypatch):
        # unit norms and pairwise orthogonality only: one decision per pair
        import portho.ortho as ortho_module

        decisions = []
        decide = ortho_module.p_orthogonal
        monkeypatch.setattr(
            ortho_module, "p_orthogonal", lambda *a, **k: decisions.append(1) or decide(*a, **k)
        )
        sp = lp_space(8, p)
        U = []
        for s in np.array_split(np.arange(8), 4):
            u = np.zeros(8)
            u[s] = 1.0
            U.append(u / norm(sp, u))
        embed_to_lp(sp, U, p)
        assert 0 < len(decisions) <= 4 * 3 // 2

    def test_rejects_a_vector_off_the_unit_sphere(self):
        with pytest.raises(InputError, match="unit_norm"):
            embed_to_lp(lp_space(3, 2.0), [np.eye(3)[0], 2.0 * np.eye(3)[1]], 2.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, INF])
    def test_isometry_and_order_on_samples(self, p):
        sp = lp_space(8, p)
        rng = np.random.default_rng(25)
        # disjoint-support positive unit vectors form a p-orthonormal set
        supports = np.array_split(rng.permutation(8), 4)
        U = []
        for s in supports:
            u = np.zeros(8)
            u[s] = rng.random(size=len(s)) + 0.1
            U.append(u / norm(sp, u))
        emb = embed_to_lp(sp, U, p)
        subnorm = lp_space(4, p)
        for _ in range(50):
            alpha = rng.normal(size=4)
            x = emb.synthesize(alpha)
            assert norm(sp, x) == pytest.approx(norm(subnorm, alpha), abs=1e-9)
            assert cone_contains(sp.cone, x, tol=1e-12) == bool(np.all(alpha >= 0))

    def test_difference_of_orthogonal_pair_leaves_cone(self):
        # a nontrivial p-orthogonal positive pair never has u1 - u2 positive
        rng = np.random.default_rng(26)
        for p in (1.0, 2.0, 3.0, INF):
            sp = lp_space(6, p)
            for _ in range(50):
                mask = rng.random(size=6) < 0.5
                u1 = np.clip(rng.normal(size=6), 0.0, None) * mask
                u2 = np.clip(rng.normal(size=6), 0.0, None) * ~mask
                if u1.max() == 0.0 or u2.max() == 0.0:
                    continue
                assert p_orthogonal_exact(u1, u2, p)
                assert not cone_contains(sp.cone, u1 - u2, tol=1e-12)


def test_p_aggregate_overflow_is_an_input_error():
    with pytest.raises(InputError, match="overflows"):
        p_aggregate(1e300, 1.0, 1.5)
    with pytest.raises(InputError, match="overflows"):
        p_aggregate(np.float64(1.0), np.float64(1e300), 3.0)
    assert p_aggregate(3.0, 4.0, 2.0) == 5.0
    assert p_aggregate(1e300, 1.0, INF) == 1e300


class TestDecompositionRegressions:
    def test_lp1_at_p_inf_is_the_split_not_a_minimax_over_generators(self):
        # a p = inf minimax LP that scaled each generator by its own norm
        # reported "optimal" with aggregate 5.0 here
        sp = parse_space_spec(
            '{"dim":3,"cone":{"kind":"nonneg"},"norm":{"kind":"lp","p":1.0},"p_class":1.0}'
        )
        d = opt_decompose(sp, [2.0, -1.0, 0.0], INF)
        assert d.status == "optimal"
        assert d.norm_aggregate == pytest.approx(2.0, abs=1e-12)
        assert d.u1 == pytest.approx([2.0, 0.0, 0.0]) and d.u2 == pytest.approx([0.0, 1.0, 0.0])

    def test_lp2_at_another_finite_p_is_optimal(self):
        # a projected gradient ran all its iterations (about 9 s) and
        # reported "failed" here. At p = 1.5 the least aggregate is that of
        # the split, which is above ||v|| = 2.31...: the lp(2) aggregate of
        # disjointly supported parts is their l2 norm only at p = 2
        sp, v = lp_space(4, 2.0), np.array([1.0, -2.0, 0.5, -0.3])
        d = opt_decompose(sp, v, 1.5)
        assert d.status == "optimal"
        split = (norm(sp, np.clip(v, 0.0, None)) ** 1.5 + norm(sp, np.clip(-v, 0.0, None)) ** 1.5) ** (
            1.0 / 1.5
        )
        assert abs(d.norm_aggregate - split) <= 1e-9
        assert d.norm_aggregate > norm(sp, v)
        assert d.u1 - d.u2 == pytest.approx(v, abs=1e-12)


def _aggregates(space, U1, U2, p):
    n1, n2 = batch_norms(space, U1), batch_norms(space, U2)
    return np.maximum(n1, n2) if math.isinf(p) else (n1**p + n2**p) ** (1.0 / p)


def _brute_force_least_aggregate(space, u1, u2, p, rng):
    """Least aggregate over random decompositions (u1 + w, u2 + w), w in the
    cone, at several scales and along each generator: the aggregate is
    convex in w, so if the split were not optimal, small steps from it
    would find a lower value."""
    if space.norm.kind == "spectral":
        d = space.cone.side
        A = rng.normal(size=(600, d, d))
        W = np.einsum("kij,klj->kil", A, A).reshape(600, -1) / d
    else:
        B = space.cone.coefficient_basis[0]
        m = B.shape[1]
        coeffs = rng.exponential(size=(600, m)) * (rng.random(size=(600, m)) < 0.5)
        W = np.vstack([coeffs, np.eye(m)]) @ B.T
    W = np.vstack([s * W for s in (1e-4, 1e-2, 1.0)])
    return float(_aggregates(space, u1 + W, u2 + W, p).min())


def _lp_least_aggregate(space, v, p):
    """Least aggregate at p = 1 or inf by an LP over the cone coefficients,
    for the norms that are on the cone either linear, sum_j ||g_j|| a_j (lp1,
    base), or of max form, max_j ||g_j|| a_j (sup, order unit). Variables
    (a, b, t1, t2) with a - b = B^-1 v and the part norms below t1, t2."""
    B, H = space.cone.coefficient_basis
    m = B.shape[1]
    g = batch_norms(space, B.T)
    Z = np.zeros((m, m))
    if space.norm.kind in ("lp", "base"):
        ineq = np.array([np.r_[g, np.zeros(m), -1.0, 0.0], np.r_[np.zeros(m), g, 0.0, -1.0]])
    else:
        ineq = np.vstack([
            np.hstack([np.diag(g), Z, -np.ones((m, 1)), np.zeros((m, 1))]),
            np.hstack([Z, np.diag(g), np.zeros((m, 1)), -np.ones((m, 1))]),
        ])
    if math.isinf(p):  # minimize t1 with t2 <= t1
        ineq = np.vstack([ineq, np.r_[np.zeros(2 * m), -1.0, 1.0]])
        obj = np.r_[np.zeros(2 * m), -1.0, 0.0]
    else:
        obj = np.r_[np.zeros(2 * m), -1.0, -1.0]
    out = solve_lp(LpProblem(
        objective=obj, eq=np.hstack([np.eye(m), -np.eye(m), np.zeros((m, 2))]), eq_rhs=H @ v,
        ineq=ineq, ineq_rhs=np.zeros(len(ineq)),
    ))
    assert out.status == "optimal"
    return -out.optimum


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF], ids=["1", "1.5", "2", "3", "inf"])
@pytest.mark.parametrize("family", sorted(default_families()))
def test_every_default_family_decomposes_optimally(family, p):
    space = default_families()[family]
    rng = np.random.default_rng([7, int(10 * min(p, 9.0))])
    polyhedral = family in ("lp1_8", "base_8", "sup_8", "polyray_4")
    for _ in range(6):
        v = rng.normal(size=space.dim)
        if family == "spectral_4":
            v = (v.reshape(4, 4) + v.reshape(4, 4).T).ravel()
        d = opt_decompose(space, v, p)
        assert d.status == "optimal"
        scale = 1.0 + np.abs(v).max()
        assert np.abs(d.u1 - d.u2 - v).max() <= 1e-12 * scale
        assert cone_contains(space.cone, d.u1, tol=1e-12 * scale)
        assert cone_contains(space.cone, d.u2, tol=1e-12 * scale)
        assert d.norm_aggregate == pytest.approx(
            float(_aggregates(space, d.u1[None], d.u2[None], p)[0]), abs=1e-12
        )
        if p == space.p_class:  # the split is p-orthogonal at the space's own p
            assert d.norm_aggregate == pytest.approx(norm(space, v), abs=1e-12 * scale)
        best = _brute_force_least_aggregate(space, d.u1, d.u2, p, rng)
        assert d.norm_aggregate <= best + 1e-12 * scale
        if polyhedral and p in (1.0, INF):
            assert d.norm_aggregate == pytest.approx(_lp_least_aggregate(space, v, p), abs=1e-9)
