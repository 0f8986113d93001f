import math
import zlib

import numpy as np
import pytest

from oracles import (
    BETWEEN_CAPS,
    PENTAGON,
    additivity_spotcheck,
    exact_linf_by_loop,
    grid_verdict_by_loop,
    identity_residual,
)
from portho import ortho, spaces
from portho.errors import InputError
from portho.harness import build_example_46, default_families, run_suite
from portho.ortho import (
    _BLOCK_ENTRIES,
    K_GRID,
    OrthoVerdict,
    orthonormal_set_verify,
    p_orthogonal,
    p_orthogonal_exact,
    p_orthogonal_numeric,
    verdict_from_norm,
)
from portho.cones import nonneg_orthant, ray_cone
from portho.spaces import (
    NormKind,
    SpaceSpec,
    _form,
    base_space,
    batch_dual_norms,
    batch_norms,
    dual_norm,
    lp_space,
    norm,
    order_unit_space,
    spectral_space,
    sup_space,
)

INF = math.inf


class TestNumericDecider:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_disjoint_supports(self, p):
        sp = lp_space(3, p)
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        assert p_orthogonal_numeric(sp, e1, e2, p).is_orthogonal

    def test_euclidean_inner_product_zero(self):
        sp = lp_space(2, 2.0)
        v = p_orthogonal_numeric(sp, [1.0, 1.0], [1.0, -1.0], 2.0)
        assert v.is_orthogonal

    def test_l1_overlap_witness(self):
        sp = lp_space(3, 1.0)
        v = p_orthogonal_numeric(sp, [1.0, 1.0, 0.0], [0.0, 1.0, 1.0], 1.0)
        assert v.verdict == "not_orthogonal"
        assert v.witness_k == -1.0
        # |2 - 4| scaled by 1 + ||x||_1 + ||y||_1 = 5
        assert v.worst_residual == pytest.approx(0.4)

    def test_zero_argument_convention(self):
        sp = lp_space(2, 3.0)
        assert p_orthogonal_numeric(sp, [0.0, 0.0], [1.0, 2.0], 3.0).is_orthogonal
        assert p_orthogonal_numeric(sp, [1.0, 2.0], [0.0, 0.0], 3.0).is_orthogonal

    def test_invalid_exponent(self):
        # a NaN exponent fails every comparison, p >= 1 included
        sp, x, y = lp_space(3, 2.0), [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]
        for p in (0.5, math.nan, -INF):
            for decide in (
                lambda: p_orthogonal_numeric(sp, x, y, p),
                lambda: p_orthogonal_numeric(sp, x, y, p, dual=True),
                lambda: verdict_from_norm(lambda W: batch_norms(sp, W), x, y, p),
                lambda: p_orthogonal(sp, x, y, p),
                lambda: p_orthogonal_exact(x, y, p),
                lambda: orthonormal_set_verify(sp, [x], p),
            ):
                with pytest.raises(InputError, match="exponent: p must be at least 1"):
                    decide()

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, INF])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # on the exact route (sup at p = inf), on the grid (lp2 at p = 1.5)
        # and in both directions of the grid decider
        x, y = [1.0, 0.0], [0.0, 1.0]
        decisions = (
            lambda: p_orthogonal(sup_space(2), x, y, INF, tol),
            lambda: p_orthogonal(lp_space(2, 2.0), x, y, 1.5, tol),
            lambda: p_orthogonal_numeric(lp_space(2, 2.0), x, y, 2.0, tol),
            lambda: p_orthogonal_numeric(lp_space(2, 2.0), x, y, 2.0, tol, dual=True),
            lambda: orthonormal_set_verify(lp_space(2, 2.0), [x, y], 2.0, tol),
            lambda: run_suite("thm21_lp_characterization", samples=1, tol=tol),
        )
        for decide in decisions:
            with pytest.raises(InputError, match="tol must be finite and nonnegative"):
                decide()

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_input_rejected(self, bad):
        sp = sup_space(2)
        for dual in (False, True):
            with pytest.raises(InputError, match="finite"):
                p_orthogonal_numeric(sp, [bad, 1.0], [1.0, 0.0], INF, dual=dual)
            with pytest.raises(InputError, match="finite"):
                p_orthogonal_numeric(sp, [1.0, 0.0], [0.0, bad], 2.0, dual=dual)

    def test_finite_input_whose_norm_power_overflows_rejected(self):
        # ||x||^p beyond the float range: an InputError naming the overflow,
        # not an OverflowError, and no "orthogonal" for x perp x
        x = [2.0, 1e300, 0.0]
        with pytest.raises(InputError, match="overflows"):
            p_orthogonal_numeric(sup_space(3), x, x, 1.5)
        with pytest.raises(InputError, match="overflows"):
            p_orthogonal(sup_space(3), x, [1.0, 0.0, 0.0], 3.0)


_FAMILIES = default_families()


class TestBatchedDeciderAgainstLoop:
    """The batched grid decider against the per-k scalar loop reference."""

    @staticmethod
    def _check(got, want):
        verdict, worst, witness, k_grid = want
        assert got.verdict == verdict
        assert got.worst_residual == pytest.approx(worst, rel=0.0, abs=1e-14)
        assert got.witness_k == pytest.approx(witness, rel=1e-14, abs=0.0)
        # the p = inf sweep scales with ||x||/||y||, which the row oracle and
        # the scalar norm can round apart by an ulp
        assert got.k_grid == pytest.approx(k_grid, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_generic_pairs(self, family):
        sp = _FAMILIES[family]
        rng = np.random.default_rng(31)
        for p in (1.0, 1.5, 2.0, INF):
            for _ in range(8):
                x, y = rng.normal(size=(2, sp.dim))
                if sp.norm.kind == "spectral":
                    d = sp.cone.side
                    x, y = ((v.reshape(d, d) + v.reshape(d, d).T).ravel() for v in (x, y))
                got = p_orthogonal_numeric(sp, x, y, p)
                self._check(got, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, p, K_GRID))
                got = p_orthogonal_numeric(sp, x, y, p, dual=True)
                self._check(got, grid_verdict_by_loop(lambda v: dual_norm(sp, v), x, y, p, K_GRID))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, inf - inf
    @pytest.mark.parametrize("p", [2.0, INF])
    def test_overflow_at_large_k_is_skipped(self, p):
        sp = lp_space(2, p)
        x, y = np.array([1e200, 0.0]), np.array([0.0, 1e200])
        if p == 2.0:
            # ||x|| = 1e200 is finite, but ||x||^2 is not
            for a, b in ((x, y), (x, x)):
                with pytest.raises(InputError, match="out of range"):
                    p_orthogonal_numeric(sp, a, b, p)
            return
        got = p_orthogonal_numeric(sp, x, y, p)
        assert got.verdict == "orthogonal"
        self._check(got, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, p, K_GRID))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, inf - inf
    def test_rows_overflowing_at_large_k_are_skipped(self):
        # ||x||^2 and ||y||^2 are finite, but at |k| = 256 both sides of the
        # identity overflow: their NaN residual is skipped, not a violation
        sp = lp_space(2, 2.0)
        x, y = np.array([1e153, 0.0]), np.array([0.0, 1e153])
        lhs = batch_norms(sp, np.stack([x + 256.0 * y, x - 256.0 * y]))
        assert np.isfinite(lhs).all() and np.isinf(lhs**2.0).all()
        got = p_orthogonal_numeric(sp, x, y, 2.0)
        assert got.verdict == "orthogonal"
        assert got.worst_residual <= 1e-12

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    def test_equal_norms_sweep_meets_grid(self, family):
        # with ||x|| = ||y|| the p = inf sweep lands on the grid points
        # +-1/16, +-1 and +-2, which appear once in the returned grid
        sp = _FAMILIES[family]
        i, j = (0, sp.dim - 1) if sp.norm.kind == "spectral" else (0, 1)
        x, y = 3.0 * np.eye(sp.dim)[i], 3.0 * np.eye(sp.dim)[j]
        for dual, fn in ((False, norm), (True, dual_norm)):
            want = grid_verdict_by_loop(lambda v: fn(sp, v), x, y, INF, K_GRID)
            got = p_orthogonal_numeric(sp, x, y, INF, dual=dual)
            self._check(got, want)
            if fn(sp, x) == fn(sp, y):
                assert len(got.k_grid) == len(K_GRID) + 2 * 51 - 6

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_zero_argument_returns_the_sorted_distinct_grid(self, p):
        sp = lp_space(2, p)
        want = [k.hex() for k in sorted(set(K_GRID))]
        assert want[len(want) // 2] == (0.0).hex() and len(want) == 35
        for x, y in (([0.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 0.0])):
            for dual in (False, True):
                got = p_orthogonal_numeric(sp, x, y, p, dual=dual)
                assert (got.verdict, got.worst_residual, got.witness_k) == ("orthogonal", 0.0, 0.0)
                assert [k.hex() for k in got.k_grid] == want
            loop = grid_verdict_by_loop(lambda v: norm(sp, v), np.array(x), np.array(y), p, K_GRID)
            assert [k.hex() for k in loop[3]] == want
        if p != INF:  # a nonzero pair scans the same grid (p = inf adds its sweep)
            nonzero = p_orthogonal_numeric(sp, [1.0, 0.0], [0.0, 1.0], p)
            assert [k.hex() for k in nonzero.k_grid] == want

    def test_same_grid_for_a_config_with_another_tol(self):
        # one pair at two tolerances: the verdict follows tol; the grid,
        # the residual and the witness do not
        sp = lp_space(2, 2.0)
        x, y = np.array([1.0, 0.0]), np.array([1e-5, 1.0])
        first = p_orthogonal_numeric(sp, x, y, 2.0)
        self._check(first, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, 2.0, K_GRID))
        got = p_orthogonal_numeric(sp, x, y, 2.0, 1e-3)
        self._check(got, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, 2.0, K_GRID, 1e-3))
        assert (first.verdict, got.verdict) == ("not_orthogonal", "orthogonal")
        assert (got.worst_residual.hex(), got.witness_k.hex()) == (
            first.worst_residual.hex(), first.witness_k.hex())
        assert [k.hex() for k in got.k_grid] == [k.hex() for k in first.k_grid]

    @pytest.mark.parametrize("p", [2.0, INF])
    def test_high_dimension_takes_several_blocks(self, p):
        sp, _, fplus, fminus, g1, _ = build_example_46(2049)
        rows = []

        def oracle(W):
            rows.append(W.shape[0])
            return batch_norms(sp, W)

        for x, y in ((fplus, fminus), (fplus, g1)):
            rows.clear()
            got = verdict_from_norm(oracle, x, y, p)
            assert len(rows) > 2  # the grid in several blocks
            assert max(rows) * sp.dim <= _BLOCK_ENTRIES
            want = grid_verdict_by_loop(lambda v: norm(sp, v), x, y, p, K_GRID)
            self._check(got, want)
        assert got.verdict == "not_orthogonal"
        # above 2^14 entries a row a block is one row, and x and y go
        # together: every call holds at most max(2^15 entries, two rows)
        sp = lp_space(20_000, 2.0)
        x, y = np.random.default_rng(20).normal(size=(2, sp.dim))
        rows.clear()
        got = verdict_from_norm(oracle, x, y, p)
        assert max(rows) * sp.dim == max(_BLOCK_ENTRIES, 2 * sp.dim) and len(rows) > 2
        self._check(got, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, p, K_GRID))

    @pytest.mark.parametrize("p, passes", [(1.0, 1), (1.5, 1), (2.0, 1), (3.0, 1), (INF, 2)])
    @pytest.mark.parametrize("dual", [False, True])
    def test_oracle_passes_per_decision(self, monkeypatch, p, passes, dual):
        # at finite p, x and y ride in the one block of the grid; at p = inf
        # the sweep needs their norms first, so they take a pass of their own
        sp = _FAMILIES["lp15_8"]
        name = "batch_dual_norms" if dual else "batch_norms"
        oracle = getattr(ortho, name)
        rows = []

        def counting(space, W):
            rows.append(W.shape[0])
            return oracle(space, W)

        monkeypatch.setattr(ortho, name, counting)
        x, y = np.random.default_rng(17).normal(size=(2, sp.dim))
        got = p_orthogonal_numeric(sp, x, y, p, dual=dual)
        assert len(rows) == passes
        assert max(rows) * sp.dim <= _BLOCK_ENTRIES
        fn = dual_norm if dual else norm
        self._check(got, grid_verdict_by_loop(lambda v: fn(sp, v), x, y, p, K_GRID))


class TestExactOracle:
    def test_examples(self):
        assert p_orthogonal_exact([1.0, 0.0, 2.0], [0.0, 3.0, 0.0], 1.0)
        assert p_orthogonal_exact([1.0, 1.0], [1.0, -1.0], 2.0)
        assert not p_orthogonal_exact([1.0, 1.0], [1.0, -1.0], 4.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_agreement_with_numeric(self, p):
        sp = lp_space(8, p)
        rng = np.random.default_rng(42)
        for _ in range(300):
            x = rng.normal(size=8) * (rng.random(size=8) < 0.4)
            y = rng.normal(size=8) * (rng.random(size=8) < 0.4)
            if np.abs(x).max() == 0 or np.abs(y).max() == 0:
                continue
            numeric = p_orthogonal_numeric(sp, x, y, p)
            assert numeric.is_orthogonal == p_orthogonal_exact(x, y, p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, INF])
    def test_symmetry_and_scaling(self, p):
        sp = lp_space(6, p)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=6) * (rng.random(size=6) < 0.5)
            y = rng.normal(size=6) * (rng.random(size=6) < 0.5)
            if np.abs(x).max() == 0 or np.abs(y).max() == 0:
                continue
            v = p_orthogonal_numeric(sp, x, y, p).is_orthogonal
            assert p_orthogonal_numeric(sp, y, x, p).is_orthogonal == v
            for a in (-0.5, 3.0):
                for b in (-3.0, 0.5):
                    assert p_orthogonal_numeric(sp, a * x, b * y, p).is_orthogonal == v


def _textured_pair(rng, n, texture):
    """x, y of one texture: disjoint supports, disjoint but for one shared
    coordinate, or overlapping random supports with equal largest entries."""
    if texture == "equal_norms":
        x, y = rng.normal(size=(2, n)) * (rng.random(size=(2, n)) < 0.6)
        x[0], y[-1] = 1.0, -1.0
        return x, y * (np.abs(x).max() / np.abs(y).max())
    mask = rng.random(size=n) < 0.5
    mask[0], mask[-1] = True, False
    x = np.where(mask, rng.normal(size=n), 0.0)
    y = np.where(mask, 0.0, rng.normal(size=n))
    if texture == "shared":
        i = int(rng.integers(n))
        x[i], y[i] = rng.normal(size=2)
    return x, y


# a weighted lp2 norm: the pair below is orthogonal in the weighted inner
# product sum_i w_i x_i y_i = 1*2 + 2*(-1) = 0, not in the plain one
_WEIGHTED_LP2 = lp_space(3, 2.0, weights=[1.0, 2.0, 3.0])
_WEIGHTED_PAIR = (np.array([1.0, 1.0, 0.0]), np.array([2.0, -1.0, 0.0]))
# coordinate forms at their own exponent beyond the coordinate lp families:
# the order-unit norm over the orthant (a weighted sup norm) and an lp norm
# over a ray cone (the cone does not enter the norm)
_EXACT_SPACES = {
    "weighted_lp2": _WEIGHTED_LP2,
    "ou_orthant_6": order_unit_space(nonneg_orthant(6), [1.0, 2.0, 0.5, 1.5, 3.0, 1.0]),
    "lp15_ray_5": SpaceSpec(5, ray_cone(np.eye(5) + 0.2), NormKind("lp", p=1.5), 1.5),
}

# the base norm on a cone between the vertex and table caps is the solver
# form (its dual norm is a max-ratio form over the generators)
_SOLVER_SPACES = {"base_between_caps": base_space(ray_cone(BETWEEN_CAPS), np.eye(6)[-1])}


class TestExactDispatcher:
    @pytest.mark.parametrize("texture", ["disjoint", "shared", "equal_norms"])
    @pytest.mark.parametrize(
        "family", ["lp1_8", "lp15_8", "lp2_8", "lp3_8", "sup_8", "base_8", *_EXACT_SPACES]
    )
    def test_agrees_with_the_grid(self, family, texture):
        sp = _EXACT_SPACES[family] if family in _EXACT_SPACES else _FAMILIES[family]
        rng = np.random.default_rng(7)
        seen = set()
        for _ in range(200):
            x, y = _textured_pair(rng, sp.dim, texture)
            got = p_orthogonal(sp, x, y, sp.p_class)
            assert got.method == "exact"
            assert got.is_orthogonal == p_orthogonal_numeric(sp, x, y, sp.p_class).is_orthogonal
            seen.add(got.verdict)
        if texture == "disjoint":
            assert seen == {"orthogonal"}
        else:
            assert "not_orthogonal" in seen

    @pytest.mark.parametrize("family", ["lp1_8", "sup_8", "base_8", "polyray_4", "base_between_caps"])
    def test_piecewise_linear_forms_are_never_orthogonal_at_1_lt_p_lt_inf(self, family):
        # a max-ratio, l1 or solver form is linear on each side of k = 0, so
        # at 1 < p < inf the identity fails for every nonzero pair; the grid
        # agrees, and the exact verdict's residual is the loop's at its
        # witness. The solver form's grid solves an LP per row: fewer pairs
        sp = _SOLVER_SPACES.get(family) or _FAMILIES[family]
        rng = np.random.default_rng(zlib.crc32(family.encode()))
        for dual in (False, True):
            norm_fn = (lambda w: dual_norm(sp, w)) if dual else (lambda w: norm(sp, w))
            for texture in ("disjoint", "shared", "equal_norms"):
                for _ in range(2 if _form(sp, dual).kind == "solver" else 10):
                    x, y = _textured_pair(rng, sp.dim, texture)
                    for p in (1.5, 2.0, 3.0):
                        got = p_orthogonal(sp, x, y, p, dual=dual)
                        assert (got.verdict, got.method) == ("not_orthogonal", "exact")
                        assert not p_orthogonal_numeric(sp, x, y, p, dual=dual).is_orthogonal
                        want = identity_residual(norm_fn, x, y, p, got.witness_k)
                        assert got.worst_residual == pytest.approx(want, rel=1e-12, abs=1e-15)
                        assert got.worst_residual > 0.0

    @pytest.mark.parametrize("p", [2.0, INF])
    def test_witness_of_a_norm_lost_to_underflow_is_finite(self, p):
        # ||y|| is the least subnormal, so ||x|| / ||y|| overflows; the six
        # scalars fall back to +-{1, 16, 256} rather than +-inf
        sp = _FAMILIES["polyray_4"]
        got = p_orthogonal(sp, [1.0, 0.5, 0.0, 0.0], [5e-324, 0.0, 0.0, 0.0], p)
        assert (got.verdict, got.method) == ("not_orthogonal", "exact")
        assert got.k_grid == (-256.0, -16.0, -1.0, 1.0, 16.0, 256.0)
        assert math.isfinite(got.witness_k) and math.isfinite(got.worst_residual)

    def test_weighted_inner_product(self):
        x, y = _WEIGHTED_PAIR
        assert not p_orthogonal_exact(x, y, 2.0)  # the unscaled oracle misses it
        assert p_orthogonal_numeric(_WEIGHTED_LP2, x, y, 2.0).is_orthogonal
        got = p_orthogonal(_WEIGHTED_LP2, x, y, 2.0)
        assert (got.verdict, got.method) == ("orthogonal", "exact")
        assert not p_orthogonal(_WEIGHTED_LP2, x, [2.0, 1.0, 0.0], 2.0).is_orthogonal

    def test_verdict_fields(self):
        sp = lp_space(3, 1.0)
        got = p_orthogonal(sp, [1.0, 0.0, 2.0], [0.0, 3.0, 0.0], 1.0)
        assert got == OrthoVerdict("orthogonal", 0.0, 0.0, (), "exact")
        # an exact failure reports the largest residual over +-r {1, 16, 256},
        # r = ||x|| / ||y|| = 1: |2 - 4| / 5 at k = -1, where the grid's is too
        x, y = [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]
        got = p_orthogonal(sp, x, y, 1.0)
        assert got == OrthoVerdict(
            "not_orthogonal", 0.4, -1.0, (-256.0, -16.0, -1.0, 1.0, 16.0, 256.0), "exact")
        grid = p_orthogonal_numeric(sp, x, y, 1.0)
        assert (grid.verdict, grid.worst_residual, grid.witness_k) == ("not_orthogonal", 0.4, -1.0)
        # the six scalars scale with r, here 3 / 1.5 = 2
        got = p_orthogonal(sp, [3.0, 0.0, 0.0], [0.5, 0.5, 0.5], 1.0)
        assert got.k_grid == (-512.0, -32.0, -2.0, 2.0, 32.0, 512.0)

    @pytest.mark.parametrize(
        "space, p, method",
        [
            (lp_space(3, 1.0), 1.0, "exact"),
            (lp_space(3, 3.0, weights=[1.0, 2.0, 0.5]), 3.0, "exact"),
            (lp_space(3, INF), INF, "exact"),
            (sup_space(3), INF, "exact"),
            (base_space(nonneg_orthant(3), [1.0, 2.0, 3.0]), 1.0, "exact"),
            (lp_space(3, 1.0), 2.0, "exact"),  # piecewise linear at 1 < p < inf
            (lp_space(3, 2.0), INF, "exact"),  # every norm at p = 1 and inf
            (sup_space(3), 1.0, "exact"),
            (base_space(nonneg_orthant(3), [1.0, 2.0, 3.0]), INF, "exact"),
            (order_unit_space(nonneg_orthant(3), [1.0, 1.0, 1.0]), INF, "exact"),
            (SpaceSpec(3, ray_cone(np.eye(3) + 0.2), NormKind("lp", p=1.0), 1.0), 1.0, "exact"),
            (spectral_space(2), INF, "exact"),
            (lp_space(3, 3.0), 2.0, "grid"),  # a power form away from its own p
        ],
    )
    def test_method_follows_the_routing(self, space, p, method):
        # on every space here the two unit vectors (diag(1, 0) and
        # diag(0, 1) on the spectral one) are p-orthogonal exactly at the
        # space's own exponent
        x, y = np.eye(space.dim)[0], np.eye(space.dim)[-1]
        got = p_orthogonal(space, x, y, p)
        assert got.method == method
        assert got.is_orthogonal == (p == space.p_class)

    def test_zero_argument_and_invalid_input(self):
        sp = lp_space(2, 2.0)
        assert p_orthogonal(sp, [0.0, 0.0], [1.0, 2.0], 2.0).is_orthogonal
        with pytest.raises(InputError, match="finite"):
            p_orthogonal(sp, [math.nan, 1.0], [1.0, 0.0], 2.0)
        with pytest.raises(InputError, match="shape"):
            p_orthogonal(sp, [1.0, 0.0, 0.0], [1.0, 0.0], 2.0)
        for p in (0.5, math.nan):
            with pytest.raises(InputError, match="exponent"):
                p_orthogonal(sp, [1.0, 0.0], [0.0, 1.0], p)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        for name in ("lp1_8", "lp2_8", "sup_8"):
            sp = _FAMILIES[name]
            for texture in ("disjoint", "shared", "equal_norms"):
                x, y = _textured_pair(rng, sp.dim, texture)
                want = p_orthogonal(sp, x, y, sp.p_class).is_orthogonal
                for a, b in ((1e-6, 3.0), (-2.0, 1e5)):
                    assert p_orthogonal(sp, a * x, b * y, sp.p_class).is_orthogonal == want

    def test_sup_kinks_match_the_scalar_loop(self):
        rng = np.random.default_rng(8)
        outcomes = set()
        for texture in ("disjoint", "shared", "equal_norms"):
            for _ in range(200):
                x, y = _textured_pair(rng, 6, texture)
                want = exact_linf_by_loop(x, y, 1e-12)
                assert p_orthogonal_exact(x, y, INF, 1e-12) == want
                outcomes.add(want)
        assert outcomes == {True, False}

    def test_orthonormal_set_verify_decides_exactly(self, monkeypatch):
        import portho.ortho as ortho_module

        calls = []
        monkeypatch.setattr(
            ortho_module, "verdict_from_norm",
            lambda *a, **k: calls.append(1) or verdict_from_norm(*a, **k),
        )
        for p in (1.0, 1.5, 2.0, INF):
            rep = orthonormal_set_verify(lp_space(4, p), list(np.eye(4)), p)
            assert rep.all_ok
        assert calls == []
        orthonormal_set_verify(lp_space(4, 3.0), list(np.eye(4)), 2.0)
        assert calls  # lp3 decided at p = 2 stays on the grid


_RAY4 = _FAMILIES["polyray_4"].cone
_E3 = np.array([0.0, 0.0, 1.0])
# max-ratio, l1 and eigen forms in both directions, among them the
# pentagon's vertex tables (the order-unit dual norm and the base norm)
_SLOPE_SPACES = {
    **{name: _FAMILIES[name] for name in ("lp1_8", "sup_8", "base_8", "spectral_4", "polyray_4")},
    "base_ray4": base_space(_RAY4, np.ones(4)),
    "ou_orthant_6": _EXACT_SPACES["ou_orthant_6"],
    "ou_ray5": order_unit_space(ray_cone(PENTAGON), _E3),
    "base_ray5": base_space(ray_cone(PENTAGON), _E3),
}
# the dense scan: 24,001 scalars k = r sinh(s), |s| <= 10, r = ||x|| / ||y||
_SCAN = np.sinh(np.linspace(-10.0, 10.0, 24001))


def _scan_verdict(norms, x, y, p, tol=1e-9):
    """x perp_p y on the dense scan, at the grid decider's scaled residual
    and tolerance."""
    nx, ny = norms(np.stack([x, y]))
    k = nx / ny * _SCAN
    lhs = norms(x + k[:, None] * y)
    rhs = np.maximum(nx, np.abs(k) * ny) if math.isinf(p) else nx + np.abs(k) * ny
    return bool((np.abs(lhs - rhs) / (1.0 + nx + np.abs(k) * ny)).max() <= tol)


def _isometry(sp, dual, rng):
    """(z, p) with z(t) an isometry from l_inf (p = inf) or l_1 (p = 1) onto
    the space, for the forms whose coordinates are invertible: a max-ratio
    form over the coordinates or a square V, an l1 form (over the
    coordinates or a simplicial cone's one basis), and diagonal matrices in a random orthonormal
    basis for the eigen forms. None for the other forms."""
    form = _form(sp, dual)
    n = sp.dim
    if form.kind == "eigen":
        Q, _ = np.linalg.qr(rng.normal(size=(sp.cone.side, sp.cone.side)))
        return (lambda t: ((Q * t) @ Q.T).ravel()), form.p
    if form.kind in ("max", "l1") and (form.V is None or form.V.shape[0] == n):
        V = np.eye(n) if form.V is None else form.V
        w = np.ones(n) if form.w is None else form.w
        if form.kind == "l1":
            return (lambda t: np.linalg.solve(V, t / w)), 1.0
        return (lambda t: np.linalg.solve(V, w * t)), INF
    return None


def _slope_pairs(sp, dual, rng, draws=4):
    """(x, y, p) triples: `draws` random pairs (p None), pairs orthogonal at
    p by construction and pairs sharing one coordinate (p None). An
    orthogonal pair x perp_p y spans an isometric copy of l_inf^2 (p = inf)
    or l_1^2 (p = 1), so x/||x|| +- y/||y|| is orthogonal at the other
    exponent."""
    norms = batch_dual_norms if dual else batch_norms
    pairs = []
    for _ in range(draws):
        x, y = rng.normal(size=(2, sp.dim))
        if sp.norm.kind == "spectral":
            d = sp.cone.side
            x, y = ((v.reshape(d, d) + v.reshape(d, d).T).ravel() for v in (x, y))
        pairs.append((x, y, None))
    iso = _isometry(sp, dual, rng)
    if iso is not None:
        z, p = iso
        m = sp.cone.side if sp.norm.kind == "spectral" else sp.dim
        for _ in range(3):
            mask = rng.random(size=m) < 0.5
            mask[0], mask[-1] = True, False
            t1 = np.where(mask, rng.normal(size=m), 0.0)
            t2 = np.where(mask, 0.0, rng.normal(size=m))
            pairs.append((z(t1), z(t2), p))
            t2[0] = rng.normal()
            pairs.append((z(t1), z(t2), None))
    else:
        # a non-simplicial ray cone: one direction is a max-ratio form over
        # rows R with weights w = R e (an order-unit norm over the facet
        # normals, or a base dual norm over the generators, e = phi), an
        # order-unit norm over the cone {R z >= 0}. Take u on a facet of
        # that cone. In that direction u perp_inf e - u/||u||; in the other,
        # the positive supports R_j / w_j of u (the largest ratio
        # (R u)_j / w_j) and of e - u/||u|| (a zero ratio) are 1-orthogonal
        base = sp.norm.kind == "base"
        top, e = _form(sp, base), sp.norm.phi if base else sp.norm.unit
        G = sp.cone.generators
        u = sp.cone.facet_normals[0] if base else 0.7 * G[0] + 0.4 * G[1]
        if top is _form(sp, dual):
            pairs.append((u, e - u / norms(sp, u[None])[0], INF))
        else:
            ratios = top.V @ u / top.w
            j, i = np.argmax(ratios), np.argmin(ratios)
            pairs.append((top.V[j] / top.w[j], top.V[i] / top.w[i], 1.0))
    for x, y, p in [pair for pair in pairs if pair[2] is not None]:
        nx, ny = norms(sp, np.stack([x, y]))
        pairs.append((x / nx + y / ny, x / nx - y / ny, 1.0 if math.isinf(p) else INF))
    return pairs


class TestSlopeRule:
    """p_orthogonal (exact for every form at p = 1 and inf, by the norms of
    x/||x|| +- y/||y||), the grid and the dense scan agree, primal and
    dual, on pairs of both verdicts."""

    @pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
    @pytest.mark.parametrize("name", sorted(_SLOPE_SPACES))
    def test_agrees_with_the_grid_and_a_dense_scan(self, name, dual):
        sp = _SLOPE_SPACES[name]
        norms = batch_dual_norms if dual else batch_norms
        rng = np.random.default_rng(zlib.crc32(f"{name}-{dual}".encode()))
        seen = set()
        for x, y, orthogonal_at in _slope_pairs(sp, dual, rng):
            for p in (1.0, INF):
                got = p_orthogonal(sp, x, y, p, dual=dual)
                assert got.method == "exact"
                assert got.is_orthogonal == p_orthogonal_numeric(sp, x, y, p, dual=dual).is_orthogonal
                assert got.is_orthogonal == _scan_verdict(lambda W: norms(sp, W), x, y, p)
                if orthogonal_at == p:
                    assert got.is_orthogonal
                seen.add(got.verdict)
        assert seen == {"orthogonal", "not_orthogonal"}

    @pytest.mark.parametrize(
        "name, dual",
        [("lp15_8", False), ("lp15_8", True), ("lp3_8", False), ("weighted_lp3", True),
         ("base_ray5", False), ("ou_ray5", True), ("base_between_caps", False)],
    )
    def test_power_and_solver_forms_agree_with_the_grid(self, monkeypatch, name, dual):
        # below its 80 vertex candidates the pentagon's least-l1 forms (the
        # base norm, the order-unit dual norm) are the solver form; spaces
        # resolve their forms at first use, so they are built after the patch
        monkeypatch.setattr(spaces, "MAX_VERTEX_CANDIDATES", 79)
        sp = {
            "weighted_lp3": lambda: lp_space(5, 3.0, weights=[1.0, 2.0, 0.5, 1.5, 3.0]),
            "base_ray5": lambda: base_space(ray_cone(PENTAGON), _E3),
            "ou_ray5": lambda: order_unit_space(ray_cone(PENTAGON), _E3),
            "base_between_caps": lambda: _SOLVER_SPACES[name],
        }.get(name, lambda: _FAMILIES[name])()
        kind = _form(sp, dual).kind
        assert kind in ("power", "solver")
        power = kind == "power"
        norm_fn = (lambda w: dual_norm(sp, w)) if dual else (lambda w: norm(sp, w))
        rng = np.random.default_rng(zlib.crc32(f"{name}-{dual}-ends".encode()))
        if power:
            # a power form is strictly convex: at p = 1 and inf only a pair
            # with a zero argument is orthogonal
            pairs = [(*_textured_pair(rng, sp.dim, t), None) for t in ("disjoint", "shared", "equal_norms")]
            pairs += [(x, y, None) for x, y in rng.normal(size=(3, 2, sp.dim))]
            pairs.append((pairs[0][0], np.zeros(sp.dim), None))
        else:
            pairs = _slope_pairs(sp, dual, rng, draws=1 if name == "base_between_caps" else 4)
        seen = set()
        for x, y, orthogonal_at in pairs:
            for p in (1.0, INF):
                got = p_orthogonal(sp, x, y, p, dual=dual)
                assert got.method == "exact"
                assert got.is_orthogonal == p_orthogonal_numeric(sp, x, y, p, dual=dual).is_orthogonal
                if power:
                    assert got.is_orthogonal == (not y.any())
                elif orthogonal_at == p:
                    assert got.is_orthogonal
                if not got.is_orthogonal:
                    want = identity_residual(norm_fn, x, y, p, got.witness_k)
                    assert got.worst_residual == pytest.approx(want, rel=1e-12, abs=1e-15)
                    assert got.worst_residual > 0.0
                seen.add(got.verdict)
        assert seen == {"orthogonal", "not_orthogonal"}


class TestOrthonormalSet:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
    def test_standard_basis(self, p):
        sp = lp_space(4, p)
        rep = orthonormal_set_verify(sp, list(np.eye(4)), p)
        assert rep.all_ok
        assert additivity_spotcheck(sp, list(np.eye(4)), p) == []

    def test_incomplete_basis_not_total(self):
        sp = lp_space(3, 2.0)
        rep = orthonormal_set_verify(sp, [np.eye(3)[0], np.eye(3)[1]], 2.0)
        assert rep.pairwise_ok and rep.unit_norms_ok and not rep.total

    def test_overlapping_supports_fail(self):
        sp = lp_space(2, 1.0)
        u2 = np.array([1.0, 1.0]) / 2.0
        rep = orthonormal_set_verify(sp, [np.array([1.0, 0.0]), u2], 1.0)
        assert not rep.pairwise_ok

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            orthonormal_set_verify(lp_space(2, 1.0), [np.zeros(2)], 1.0)

    def test_orthogonal_set_linearly_independent(self):
        rng = np.random.default_rng(5)
        for p in (1.0, 1.5, 3.0):
            sp = lp_space(8, p)
            # disjoint-support unit vectors are p-orthonormal
            supports = np.array_split(rng.permutation(8), 4)
            U = []
            for s in supports:
                u = np.zeros(8)
                u[s] = rng.normal(size=len(s))
                U.append(u / norm(sp, u))
            rep = orthonormal_set_verify(sp, U, p)
            assert rep.pairwise_ok and rep.unit_norms_ok
            assert np.linalg.matrix_rank(np.stack(U)) == len(U)
