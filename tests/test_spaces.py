import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import NON_SIMPLICIAL_CONES, PENTAGON, lp_by_vertex_enumeration, restricted_norm
from portho import cones
from portho.cones import cone_contains, nonneg_orthant, ray_cone
from portho.errors import InputError, SpecError
from portho.harness import default_families
from portho.linalg import LpProblem, solve_lp
from portho.spaces import (
    SpaceSpec,
    _dual_ball_lp,
    _form,
    NormKind,
    base_space,
    batch_dual_norms,
    batch_norms,
    conjugate,
    dual_norm,
    lp_space,
    norm,
    norming,
    norming_element,
    order_unit_space,
    restricted_dual_norms,
    spectral_space,
    sup_space,
    validate_space,
)

INF = math.inf

SIMPLICIAL = ray_cone(np.eye(4) + 0.2 * np.ones((4, 4)))
WIDE = ray_cone([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])  # non-simplicial orthant


def test_conjugate_exponent():
    assert conjugate(1.0) == INF
    assert conjugate(INF) == 1.0
    assert conjugate(2.0) == 2.0
    assert conjugate(3.0) == pytest.approx(1.5)
    with pytest.raises(InputError):
        conjugate(0.5)


class TestNorm:
    def test_lp_formula(self):
        sp = lp_space(2, 3.0)
        assert norm(sp, [1.0, 2.0]) == pytest.approx(9.0 ** (1.0 / 3.0))

    def test_order_unit_equals_sup_for_ones(self):
        sp = order_unit_space(nonneg_orthant(2), [1.0, 1.0])
        assert norm(sp, [3.0, -2.0]) == pytest.approx(3.0)

    def test_base_positive_negative_parts(self):
        sp = base_space(nonneg_orthant(2), [1.0, 1.0])
        assert norm(sp, [3.0, -2.0]) == pytest.approx(5.0)

    def test_spectral(self):
        sp = spectral_space(2)
        assert norm(sp, np.diag([1.0, -3.0]).ravel()) == pytest.approx(3.0)

    def test_order_unit_lp_path_matches_closed_form(self):
        # the wide cone in R^2 (a redundant middle generator) with unit e = (2, 2)
        sp = order_unit_space(WIDE, [2.0, 2.0])
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=2)
            # independent evaluation: min k with ke +- x in cone(WIDE) = orthant
            expected = np.abs(x).max() / 2.0
            assert norm(sp, x) == pytest.approx(expected, abs=1e-8)
            assert _dual_ball_lp(sp, x, False)[0] == pytest.approx(expected, abs=1e-8)

    def test_simplicial_order_unit_against_lp(self):
        e = SIMPLICIAL.generators.sum(axis=0)
        sp = order_unit_space(SIMPLICIAL, e)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=4)
            assert norm(sp, x) == pytest.approx(_dual_ball_lp(sp, x, False)[0], abs=1e-8)
            assert dual_norm(sp, x) == pytest.approx(_dual_ball_lp(sp, x, True)[0], abs=1e-8)

    def test_simplicial_base_against_lp(self):
        sp = base_space(SIMPLICIAL, np.ones(4))
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(size=4)
            assert norm(sp, x) == pytest.approx(_dual_ball_lp(sp, x, False)[0], abs=1e-8)


class TestDualNorm:
    def test_euclidean_self_dual(self):
        assert dual_norm(lp_space(2, 2.0), [3.0, 4.0]) == pytest.approx(5.0)

    def test_sup_dual_is_l1(self):
        assert dual_norm(sup_space(3), [1.0, -2.0, 0.5]) == pytest.approx(3.5)

    def test_spectral_dual_is_trace_norm(self):
        sp = spectral_space(2)
        assert dual_norm(sp, np.diag([1.0, -1.0]).ravel()) == pytest.approx(2.0)

    def test_weighted_lp_duality_pairing(self):
        rng = np.random.default_rng(3)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            sp = lp_space(4, p, weights=rng.uniform(0.5, 2.0, size=4))
            for _ in range(125):
                x = rng.normal(size=4)
                f = rng.normal(size=4)
                assert abs(f @ x) <= dual_norm(sp, f) * norm(sp, x) + 1e-9

    @pytest.mark.parametrize(
        "sp",
        [
            sup_space(4),
            base_space(nonneg_orthant(4), [1.0, 2.0, 0.5, 1.0]),
            order_unit_space(SIMPLICIAL, SIMPLICIAL.generators.sum(axis=0)),
            spectral_space(2),
        ],
        ids=["sup", "base", "order_unit", "spectral"],
    )
    def test_norming_element_attains(self, sp):
        rng = np.random.default_rng(4)
        for _ in range(30):
            f = rng.normal(size=sp.dim)
            if sp.norm.kind == "spectral":
                d = sp.cone.side
                f = (f.reshape(d, d) + f.reshape(d, d).T).ravel()
            x = norming_element(sp, f)
            assert norm(sp, x) <= 1.0 + 1e-9
            assert f @ x == pytest.approx(dual_norm(sp, f), abs=1e-8)

    def test_norming_element_lp(self):
        rng = np.random.default_rng(5)
        for p in (1.0, 1.5, 2.0, 3.0, INF):
            sp = lp_space(5, p, weights=rng.uniform(0.5, 2.0, size=5))
            for _ in range(20):
                f = rng.normal(size=5)
                x = norming_element(sp, f)
                assert norm(sp, x) <= 1.0 + 1e-9
                assert f @ x == pytest.approx(dual_norm(sp, f), abs=1e-8)


FAMILIES = {
    "l1": lp_space(5, 1.0),
    "l15": lp_space(5, 1.5),
    "l3": lp_space(5, 3.0),
    "sup": sup_space(5),
    "base": base_space(nonneg_orthant(5), [1.0, 2.0, 0.5, 1.0, 1.5]),
    "order_unit": order_unit_space(SIMPLICIAL, SIMPLICIAL.generators.sum(axis=0)),
    "spectral": spectral_space(3),
}


class TestNormAxioms:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_homogeneity_and_triangle(self, name):
        sp = FAMILIES[name]
        rng = np.random.default_rng(6)
        for _ in range(150):
            x = rng.normal(size=sp.dim)
            y = rng.normal(size=sp.dim)
            if sp.norm.kind == "spectral":
                d = sp.cone.side
                x = (x.reshape(d, d) + x.reshape(d, d).T).ravel()
                y = (y.reshape(d, d) + y.reshape(d, d).T).ravel()
            t = rng.normal()
            nx, ny = norm(sp, x), norm(sp, y)
            assert norm(sp, t * x) == pytest.approx(abs(t) * nx, rel=1e-9, abs=1e-9)
            assert norm(sp, x + y) <= nx + ny + 1e-9

    def test_order_unit_interval_monotone(self):
        # u <= v <= w implies ||v|| <= max(||u||, ||w||)
        sp = order_unit_space(SIMPLICIAL, SIMPLICIAL.generators.sum(axis=0))
        G = SIMPLICIAL.generators
        rng = np.random.default_rng(7)
        for _ in range(300):
            u = rng.normal(size=4)
            a = rng.exponential(size=4)
            b = rng.exponential(size=4)
            v = u + G.T @ a
            w = v + G.T @ b
            assert norm(sp, v) <= max(norm(sp, u), norm(sp, w)) + 1e-9

    def test_base_norm_additive_on_cone(self):
        sp = base_space(nonneg_orthant(5), [1.0, 2.0, 0.5, 1.0, 1.5])
        rng = np.random.default_rng(8)
        for _ in range(300):
            u1 = rng.exponential(size=5)
            u2 = rng.exponential(size=5)
            assert norm(sp, u1 + u2) == pytest.approx(
                norm(sp, u1) + norm(sp, u2), rel=1e-9
            )

    @pytest.mark.parametrize("name", sorted(FAMILIES) + ["base_simplicial"])
    def test_batch_norms_agree_with_scalar(self, name):
        """Rows of batch_norms / batch_dual_norms against scalar references
        computed without the library's closed forms."""
        sp = FAMILIES.get(name) or base_space(SIMPLICIAL, [1.0, 2.0, 0.5, 1.0])
        rng = np.random.default_rng(9)
        # vertex enumeration is slow, so the LP-referenced families get fewer rows
        polyhedral = sp.cone.kind == "rays"
        W = rng.normal(size=(8 if polyhedral else 40, sp.dim))
        if sp.norm.kind == "spectral":
            d = sp.cone.side
            W = np.array([(w.reshape(d, d) + w.reshape(d, d).T).ravel() for w in W])
        got, got_dual = batch_norms(sp, W), batch_dual_norms(sp, W)
        for w, g, gd in zip(W, got, got_dual):
            want, want_dual = _reference_norms(sp, w)
            assert g == pytest.approx(want, rel=1e-9, abs=1e-12)
            assert gd == pytest.approx(want_dual, rel=1e-9, abs=1e-12)

    def test_asymmetric_spectral_row_rejected(self):
        sp = spectral_space(2)
        W = np.array([np.eye(2).ravel(), [1.0, 2.0, 2.0 + 1e-13, 1.0], [1.0, 2.0, 2.1, 1.0]])
        # eigenvalues (1, 1) and (3, -1); entries asymmetric by 1e-13 pass
        for oracle, want in ((batch_norms, [1.0, 3.0]), (batch_dual_norms, [2.0, 4.0])):
            assert oracle(sp, W[:2]) == pytest.approx(want)
            with pytest.raises(InputError, match="not symmetric"):
                oracle(sp, W)
        with pytest.raises(InputError, match="not symmetric"):
            norm(sp, W[2])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_unweighted_lp_equals_unit_weights_bit_for_bit(self, p):
        rng = np.random.default_rng(17)
        W = rng.normal(size=(35, 8)) * 10.0 ** rng.integers(-3, 4, size=(35, 1))
        plain, ones = lp_space(8, p), lp_space(8, p, weights=np.ones(8))
        for oracle in (batch_norms, batch_dual_norms):
            got, want = oracle(plain, W), oracle(ones, W)
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    def test_spectral_norm_near_the_largest_float(self):
        # doubling the entry 1e308 to symmetrize overflowed to a NaN norm
        assert norm(spectral_space(2), [1e308, 1.0, 1.0, 2.0]) == pytest.approx(1e308, rel=1e-12)
        assert dual_norm(spectral_space(2), [1e308, 0.0, 0.0, -2.0]) == pytest.approx(1e308, rel=1e-12)

    def test_rows_of_wrong_width_rejected(self):
        with pytest.raises(InputError):
            batch_norms(lp_space(3, 2.0), np.ones((2, 4)))
        with pytest.raises(InputError):
            batch_dual_norms(lp_space(3, 2.0), np.ones(3))


def _weighted_lp(x, w, p):
    if math.isinf(p):
        return max(abs(v) for v in x)
    return math.fsum(wi * abs(v) ** p for v, wi in zip(x, w)) ** (1.0 / p)


def _reference_norms(sp, x):
    """(norm, dual norm) of one vector by textbook formulas, singular values,
    or vertex enumeration of the defining LPs."""
    nk, n = sp.norm, sp.dim
    if nk.kind in ("lp", "sup") or (nk.kind == "base" and sp.cone.kind == "nonneg"):
        # base norm over the orthant = l1 weighted by phi
        p = {"lp": nk.p, "sup": INF, "base": 1.0}[nk.kind]
        w = nk.phi if nk.kind == "base" else nk.weights
        w = np.ones(n) if w is None else w
        if p == 1.0:
            dual = max(abs(v) / wi for v, wi in zip(x, w))
        elif math.isinf(p):
            dual = math.fsum(abs(v) for v in x)
        else:
            q = p / (p - 1.0)
            dual = math.fsum(wi ** (1.0 - q) * abs(v) ** q for v, wi in zip(x, w)) ** (1.0 / q)
        return _weighted_lp(x, w, p), dual
    if nk.kind == "spectral":
        d = sp.cone.side
        M = x.reshape(d, d)
        return np.linalg.norm(M, 2), np.linalg.norm(M, "nuc")
    G = sp.cone.generators
    m = G.shape[0]
    if nk.kind == "order_unit":
        e = nk.unit
        # norm: min k with k e - x = G^T s, k e + x = G^T t; variables (k, s, t) >= 0
        eq = [(np.concatenate([[e[j]], -G[:, j], np.zeros(m)]), x[j]) for j in range(n)]
        eq += [(np.concatenate([[e[j]], np.zeros(m), -G[:, j]]), -x[j]) for j in range(n)]
        primal = -lp_by_vertex_enumeration(-np.eye(1 + 2 * m)[0], eq=eq)[0]
        # dual norm: max f.y over the order interval e - y = G^T s, e + y = G^T t
        eq = [(np.concatenate([np.eye(n)[j], G[:, j], np.zeros(m)]), e[j]) for j in range(n)]
        eq += [(np.concatenate([-np.eye(n)[j], np.zeros(m), G[:, j]]), e[j]) for j in range(n)]
        obj = np.concatenate([x, np.zeros(2 * m)])
        dual = lp_by_vertex_enumeration(obj, eq=eq, lower_bounds=[None] * n + [0.0] * 2 * m)[0]
        return primal, dual
    # base: x = G^T (s - t), minimize sum (s_i + t_i) phi(g_i); the dual norm
    # maximizes f over that unit ball
    gphi = G @ nk.phi
    eq = [(np.concatenate([G[:, j], -G[:, j]]), x[j]) for j in range(n)]
    primal = -lp_by_vertex_enumeration(-np.concatenate([gphi, gphi]), eq=eq)[0]
    ball = [(np.concatenate([gphi, gphi]), 1.0)]
    dual = lp_by_vertex_enumeration(np.concatenate([G @ x, -(G @ x)]), ineq=ball)[0]
    return primal, dual


def _base_dual_lp(sp, f):
    """max f(x) over the base-norm unit ball, x = G^T (s - t),
    sum_i phi(g_i) (s_i + t_i) <= 1, s, t >= 0."""
    G = sp.cone.generators
    gphi = G @ sp.norm.phi
    objective = np.concatenate([G @ f, -(G @ f)])
    ball = np.concatenate([gphi, gphi])[None]
    return solve_lp(LpProblem(objective=objective, ineq=ball, ineq_rhs=[1.0])).optimum


def _lp_references(sp, x):
    """(norm, dual norm) of x from the simplex solver."""
    if sp.norm.kind == "order_unit":
        return _dual_ball_lp(sp, x, False)[0], _dual_ball_lp(sp, x, True)[0]
    return _dual_ball_lp(sp, x, False)[0], _base_dual_lp(sp, x)


class TestPolyhedralClosedForms:
    @pytest.mark.parametrize("name", sorted(NON_SIMPLICIAL_CONES))
    def test_four_norms_against_lp(self, name):
        G = NON_SIMPLICIAL_CONES[name]
        cone = ray_cone(G)
        assert cone.coefficient_basis is None
        assert cone.facet_normals is not None
        rng = np.random.default_rng(17)
        phi = np.eye(cone.ambient_dim)[-1]
        phi[:-1] = 0.05 * rng.normal(size=cone.ambient_dim - 1)
        spaces = (order_unit_space(cone, G.sum(axis=0)), base_space(cone, phi))
        X = rng.normal(size=(12, cone.ambient_dim))
        X[:4] = rng.exponential(size=(4, len(G))) @ G  # cone elements
        for sp in spaces:
            validate_space(sp)
            rows, dual_rows = batch_norms(sp, X), batch_dual_norms(sp, X)
            for x, r, dr in zip(X, rows, dual_rows):
                want, want_dual = _lp_references(sp, x)
                for got in (r, norm(sp, x)):
                    assert got == pytest.approx(want, rel=1e-9)
                for got in (dr, dual_norm(sp, x)):
                    assert got == pytest.approx(want_dual, rel=1e-9)

    def test_cone_above_the_cap_answers_through_lp(self, monkeypatch):
        # the pentagon with the cap lowered below its 5 facets keeps no table
        e = phi = [0.0, 0.0, 1.0]
        rng = np.random.default_rng(18)
        X = rng.normal(size=(6, 3))
        tabled = (order_unit_space(ray_cone(PENTAGON), e), base_space(ray_cone(PENTAGON), phi))
        want = [(batch_norms(sp, X), batch_dual_norms(sp, X)) for sp in tabled]
        monkeypatch.setattr(cones, "MAX_TABLE_ROWS", 4)
        capped = ray_cone(PENTAGON)
        assert capped.facet_normals is None
        calls = []

        def counted_solve_lp(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)

        monkeypatch.setattr("portho.spaces.solve_lp", counted_solve_lp)
        for sp, (w, wd) in zip((order_unit_space(capped, e), base_space(capped, phi)), want):
            assert batch_norms(sp, X) == pytest.approx(w, rel=1e-9)
            assert batch_dual_norms(sp, X) == pytest.approx(wd, rel=1e-9)
            assert norm(sp, X[0]) == pytest.approx(w[0], rel=1e-9)
        # order-unit norm and dual norm, base norm: one LP per row; the base
        # dual norm is a max over the generators and needs none
        assert len(calls) == 3 * len(X) + 2

    def test_cone_above_the_real_cap_answers_through_lp(self):
        # the cone over 30 points of the moment curve in R^7 (a cyclic
        # polytope) has 5,200 facets, more than the engine holds. By Gale's
        # evenness condition each facet holds point 0 or point 29 and three
        # disjoint pairs of consecutive points
        t = np.linspace(-1.0, 1.0, 30)
        G = t[:, None] ** np.arange(8)
        cone = ray_cone(G)
        assert cone.facet_normals is None
        pairs = [(a, b, c) for a in range(1, 30) for b in range(a + 2, 30) for c in range(b + 2, 30)]
        S = [[0, a, a + 1, b, b + 1, c, c + 1] for a, b, c in pairs if c + 1 < 30]
        S += [[a - 1, a, b - 1, b, c - 1, c, 29] for a, b, c in pairs if c < 29]
        H = np.linalg.svd(G[np.array(S)])[2][:, -1]
        H *= np.sign(H @ G.mean(axis=0))[:, None]
        assert len(H) == 5200 and np.all(H @ G.T >= -1e-12)
        e = G.sum(axis=0)
        sp = order_unit_space(cone, e)
        X = np.random.default_rng(19).normal(size=(3, 8))
        want = np.max(np.abs(X @ H.T) / (H @ e), axis=1)
        assert batch_norms(sp, X) == pytest.approx(want, rel=1e-9)


class TestPowerForm:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the unscaled powers overflow
    def test_rows_out_of_range_are_rescaled(self):
        W = np.array([[3e200, -4e200, 0.0], [3e-200, 4e-200, 0.0], [3.0, 4.0, 0.0],
                      [0.0, 0.0, 0.0], [INF, 1.0, 0.0]])
        sp = lp_space(3, 2.0)
        got = batch_norms(sp, W)
        assert got[:3] == pytest.approx([5e200, 5e-200, 5.0], rel=1e-15)
        assert got[3] == 0.0 and got[4] == INF
        assert batch_dual_norms(sp, W[:3]) == pytest.approx([5e200, 5e-200, 5.0], rel=1e-15)
        assert norm(lp_space(2, 3.0, weights=[8.0, 1.0]), [1e200, 0.0]) == pytest.approx(2e200, rel=1e-15)
        assert dual_norm(lp_space(2, 3.0), [-1e300, 0.0]) == pytest.approx(1e300, rel=1e-15)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the unscaled powers overflow
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_rows_in_range_keep_the_unscaled_bits(self, p):
        rng = np.random.default_rng(21)
        w = rng.uniform(0.5, 2.0, size=6)
        W = rng.normal(size=(40, 6)) * 10.0 ** rng.integers(-30, 30, size=(40, 1))
        W[0] = [1e250, 0.0, 0.0, 0.0, 0.0, 0.0]  # one rescaled row in the batch
        with np.errstate(over="ignore"):
            want = np.sum(np.abs(W) ** p * w, axis=1) ** (1.0 / p)
        got = batch_norms(lp_space(6, p, weights=w), W)
        assert [v.hex() for v in got[1:].tolist()] == [v.hex() for v in want[1:].tolist()]
        assert got[0] == pytest.approx(w[0] ** (1.0 / p) * 1e250, rel=1e-15)


_PENTAGON_E = np.array([0.0, 0.0, 1.0])
_NORMING_SPACES = {
    **default_families(),
    "weighted_lp1": lp_space(5, 1.0, weights=[1.0, 2.0, 0.5, 1.5, 3.0]),
    "weighted_lp15": lp_space(5, 1.5, weights=[1.0, 2.0, 0.5, 1.5, 3.0]),
    "weighted_lp3": lp_space(5, 3.0, weights=[1.0, 2.0, 0.5, 1.5, 3.0]),
    "ou_orthant": order_unit_space(nonneg_orthant(5), [1.0, 2.0, 0.5, 1.5, 3.0]),
    "ou_simplicial": order_unit_space(SIMPLICIAL, SIMPLICIAL.generators.sum(axis=0)),
    "base_simplicial": base_space(SIMPLICIAL, [1.0, 2.0, 0.5, 1.0]),
}
_PENTAGON_NAMES = ("ou_pentagon", "base_pentagon", "ou_pentagon_capped", "base_pentagon_capped")


class TestNorming:
    @pytest.mark.parametrize("dual", [False, True], ids=["norm", "dual"])
    @pytest.mark.parametrize("name", [*sorted(_NORMING_SPACES), *_PENTAGON_NAMES])
    def test_attains_on_the_unit_ball(self, name, dual, monkeypatch):
        """The maximizer of each form, in both directions, attains the norm
        (or dual norm) and lies in the other direction's unit ball."""
        if name.endswith("_capped"):  # the pentagon's 5 facets exceed a cap of 4 rows
            monkeypatch.setattr(cones, "MAX_TABLE_ROWS", 4)
        if name in _PENTAGON_NAMES:
            cone = ray_cone(PENTAGON)
            sp = (order_unit_space if name.startswith("ou") else base_space)(cone, _PENTAGON_E)
            # the base dual norm is a max over the generators on every cone
            capped = name.endswith("_capped") and not (dual and name.startswith("base"))
            assert (_form(sp, dual).kind == "solver") is capped
        else:
            sp = _NORMING_SPACES[name]
        own, other = (dual_norm, norm) if dual else (norm, dual_norm)
        rng = np.random.default_rng(23)
        for i in range(24):
            x = rng.normal(size=sp.dim)
            if sp.norm.kind == "spectral":  # every third one singular
                d = sp.cone.side
                B = x.reshape(d, d)[:, : d - 1 if i % 3 == 0 else d]
                x = (B @ B.T).ravel() * (1.0 if i % 2 else -1.0)
            elif i % 3 == 0:  # zero coordinates
                x[rng.random(size=sp.dim) < 0.4] = 0.0
            if np.abs(x).max() == 0.0:
                continue
            z = norming(sp, x, dual=dual)
            nx = own(sp, x)
            assert float(z @ x) == pytest.approx(nx, rel=1e-9, abs=1e-12)
            assert other(sp, z) <= 1.0 + 1e-9

    @pytest.mark.parametrize("dual", [False, True], ids=["norm", "dual"])
    def test_a_spectral_maximizer_validates_its_matrix_once(self, monkeypatch, dual):
        import portho.linalg as linalg_module

        calls, check = [], linalg_module.check_symmetric
        counted = lambda *a, **k: calls.append(1) or check(*a, **k)  # noqa: E731
        monkeypatch.setattr(cones, "check_symmetric", counted)
        monkeypatch.setattr(linalg_module, "check_symmetric", counted)
        A = np.random.default_rng(29).normal(size=(4, 4))
        norming(default_families()["spectral_4"], (A + A.T).ravel(), dual=dual)
        assert calls == [1]

    def test_zero_has_no_maximizer(self):
        for dual in (False, True):
            with pytest.raises(InputError, match="undefined"):
                norming(sup_space(2), [0.0, 0.0], dual=dual)

    def test_tiebreak_takes_the_least_ratio_among_the_maximizers(self):
        sp = order_unit_space(nonneg_orthant(3), [1.0, 2.0, 1.0])
        x = np.array([1.0, 2.0, 0.5])  # ratios 1, 1, 0.5
        assert norming(sp, x).tolist() == [1.0, 0.0, 0.0]
        # tiebreak ratios 3/1 and 2/2 on the two maximizers
        assert norming(sp, x, tiebreak=[3.0, 2.0, 0.0]).tolist() == [0.0, 0.5, 0.0]

    def test_tiebreak_ranks_the_returned_functionals(self):
        # both -e0 and e1 norm (-1, 1); the tiebreak (1, 0) reads -1 on -e0
        # and 0 on e1, so -e0 is the least, whatever the sign of v_j . t
        assert norming(sup_space(2), [-1.0, 1.0], tiebreak=[1.0, 0.0]).tolist() == [-1.0, 0.0]
        assert norming(sup_space(2), [1.0, -1.0], tiebreak=[0.0, -1.0]).tolist() == [1.0, 0.0]
        sp = order_unit_space(nonneg_orthant(2), [1.0, 2.0])
        assert norming(sp, [-1.0, 2.0], tiebreak=[1.0, 1.0]).tolist() == [-1.0, 0.0]


def _rows_at_scales(sp, rng, n):
    """n normal rows at scales 1e-3 to 1e3, symmetrized as matrices on a
    spectral space."""
    W = rng.normal(size=(n, sp.dim)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
    if sp.norm.kind == "spectral":
        d = sp.cone.side
        M = W.reshape(n, d, d)
        W = (M + np.swapaxes(M, -1, -2)).reshape(n, -1)
    return W


class TestRowCount:
    """A row's norm in a batch against the same row alone."""

    @pytest.mark.parametrize("dual", [False, True], ids=["norm", "dual"])
    @pytest.mark.parametrize("name", sorted(set(default_families()) - {"polyray_4"}))
    def test_coordinate_power_and_eigen_forms_agree_bit_for_bit(self, name, dual):
        sp = default_families()[name]
        assert _form(sp, dual).V is None
        batch, one = (batch_dual_norms, dual_norm) if dual else (batch_norms, norm)
        rng = np.random.default_rng(31)
        for n in (2, 7, 37):
            W = _rows_at_scales(sp, rng, n)
            assert [v.hex() for v in batch(sp, W).tolist()] == [one(sp, w).hex() for w in W]

    @pytest.mark.parametrize("dual", [False, True], ids=["norm", "dual"])
    def test_forms_read_through_a_matrix_agree_within_16_ulps(self, dual):
        # X @ V.T takes one BLAS kernel for one row and another for several,
        # which round apart (up to 4 ulps seen on 2,000 random rows)
        sp = default_families()["polyray_4"]
        assert _form(sp, dual).V is not None
        batch, one = (batch_dual_norms, dual_norm) if dual else (batch_norms, norm)
        rng = np.random.default_rng(37)
        for n in (2, 7, 37, 200):
            W = _rows_at_scales(sp, rng, n)
            got, want = batch(sp, W), np.array([one(sp, w) for w in W])
            assert np.all(np.abs(got - want) <= 16 * np.spacing(want))


class TestRestrictedNorm:
    def test_sup_square(self):
        sp = sup_space(2)
        val = restricted_norm(sp, ([1.0, 0.0], [0.0, 1.0]), (1.0, 1.0))
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_zero_functional(self):
        sp = lp_space(3, 1.5)
        val = restricted_norm(sp, ([1.0, 0.0, 0.0], [0.0, 1.0, 1.0]), (0.0, 0.0))
        assert val == 0.0

    def test_euclidean_plane(self):
        sp = lp_space(2, 2.0)
        val = restricted_norm(sp, ([1.0, 0.0], [0.0, 1.0]), (3.0, 4.0))
        assert val == pytest.approx(5.0, abs=1e-8)

    def test_dependent_basis_rejected(self):
        with pytest.raises(InputError):
            restricted_norm(sup_space(2), ([1.0, 1.0], [2.0, 2.0]), (1.0, 0.0))

    def test_ball_dual_value_matches_restricted_norm(self):
        rng = np.random.default_rng(10)
        for sp in (lp_space(4, 1.0), base_space(nonneg_orthant(4), rng.uniform(0.5, 2.0, size=4))):
            u1, u2 = rng.normal(size=4), rng.normal(size=4)
            C = rng.normal(size=(10, 2))
            want = [restricted_norm(sp, (u1, u2), c) for c in C]
            V = restricted_dual_norms(sp, u1, u2)
            assert np.abs(C @ V.T).max(axis=1) == pytest.approx(want, rel=1e-12)

    def test_vertex_formula_catches_what_a_direction_scan_misses(self):
        # the 720-direction boundary scan the vertex formula replaced falls
        # short of the dual value by more than 1e-8 on this pair
        sp = lp_space(4, 1.0)
        rng = np.random.default_rng(10)
        u1, u2 = rng.normal(size=4), rng.normal(size=4)
        c = rng.normal(size=2)
        theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        W = np.outer(np.cos(theta), u1) + np.outer(np.sin(theta), u2)
        values = np.abs(c[0] * np.cos(theta) + c[1] * np.sin(theta)) / batch_norms(sp, W)
        scan = float(values.max())
        exact = float(np.abs(restricted_dual_norms(sp, u1, u2) @ c).max())
        assert exact - scan > 1e-8
        assert exact == pytest.approx(restricted_norm(sp, (u1, u2), c), rel=1e-12)

    def test_vertex_formula_rejects_other_norms_and_dependent_pairs(self):
        with pytest.raises(InputError, match="weighted l1"):
            restricted_dual_norms(lp_space(2, 2.0), [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(InputError, match="linearly independent"):
            restricted_dual_norms(lp_space(2, 1.0), [1.0, 2.0], [-2.0, -4.0])


class TestValidation:
    def test_valid_families(self):
        for sp in FAMILIES.values():
            validate_space(sp)

    def test_invalid_exponent(self):
        with pytest.raises(SpecError, match="invalid exponent"):
            validate_space(lp_space(2, 0.5))

    def test_unit_not_interior(self):
        sp = SpaceSpec(2, nonneg_orthant(2), NormKind("order_unit", unit=np.array([1.0, 0.0])), INF)
        with pytest.raises(SpecError, match="not interior"):
            validate_space(sp)

    def test_cone_not_proper(self):
        line = ray_cone([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        sp = SpaceSpec(2, line, NormKind("sup"), INF)
        with pytest.raises(SpecError, match="cone not proper"):
            validate_space(sp)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_norm_data_rejected_by_field(self, bad):
        # a non-finite weight, unit or functional once gave nan norms, and a
        # non-simplicial base space failed inside its vertex table
        cone = ray_cone(PENTAGON)
        specs = {
            "weights": lp_space(3, 2.0, weights=[1.0, bad, 1.0]),
            "unit": order_unit_space(cone, [0.0, bad, 1.0]),
            "phi": base_space(cone, [bad, 0.0, 1.0]),
        }
        for name, sp in specs.items():
            with pytest.raises(SpecError, match=f"norm.{name} must be finite"):
                validate_space(sp)


@settings(max_examples=60, deadline=None)
@given(
    x=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
    y=st.lists(st.floats(-100, 100), min_size=3, max_size=3),
    p=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
)
def test_lp_triangle_inequality_hypothesis(x, y, p):
    sp = lp_space(3, p)
    x, y = np.array(x), np.array(y)
    assert norm(sp, x + y) <= norm(sp, x) + norm(sp, y) + 1e-6
