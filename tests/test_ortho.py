import math

import numpy as np
import pytest

from oracles import exact_linf_by_loop, grid_verdict_by_loop
from portho.errors import InputError
from portho.harness import build_example_46, default_families
from portho.ortho import (
    OrthoConfig,
    OrthoVerdict,
    dual_p_orthogonal_numeric,
    infty_positive_test,
    _exact_linf,
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
    base_space,
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
        with pytest.raises(InputError):
            p_orthogonal_numeric(lp_space(2, 2.0), [1.0, 0.0], [0.0, 1.0], 0.5)

    def test_grid_requires_both_signs(self):
        with pytest.raises(InputError):
            OrthoConfig(k_grid=(0.0, 1.0, 2.0))

    @pytest.mark.parametrize(
        "grid", [(0.0, 1.0, -1.0, math.nan), (0.0, 1.0, -1.0, INF), (0.0, 1.0, -INF), (0.0, 1.0, -1.0, "a")]
    )
    def test_grid_rejects_non_finite_scalars(self, grid):
        with pytest.raises(InputError, match="k grid"):
            OrthoConfig(k_grid=grid)

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, INF])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(InputError, match="tol"):
            OrthoConfig(tol=tol)

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_input_rejected(self, bad):
        sp = sup_space(2)
        for decide in (p_orthogonal_numeric, dual_p_orthogonal_numeric):
            with pytest.raises(InputError, match="finite"):
                decide(sp, [bad, 1.0], [1.0, 0.0], INF)
            with pytest.raises(InputError, match="finite"):
                decide(sp, [1.0, 0.0], [0.0, bad], 2.0)

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
        grid = OrthoConfig().k_grid
        for p in (1.0, 1.5, 2.0, INF):
            for _ in range(8):
                x, y = rng.normal(size=(2, sp.dim))
                if sp.norm.kind == "spectral":
                    d = sp.cone.side
                    x, y = ((v.reshape(d, d) + v.reshape(d, d).T).ravel() for v in (x, y))
                got = p_orthogonal_numeric(sp, x, y, p)
                self._check(got, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, p, grid))
                got = dual_p_orthogonal_numeric(sp, x, y, p)
                self._check(got, grid_verdict_by_loop(lambda v: dual_norm(sp, v), x, y, p, grid))

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
        self._check(got, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, p, OrthoConfig().k_grid))

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
        grid = OrthoConfig().k_grid
        for decide, fn in ((p_orthogonal_numeric, norm), (dual_p_orthogonal_numeric, dual_norm)):
            want = grid_verdict_by_loop(lambda v: fn(sp, v), x, y, INF, grid)
            got = decide(sp, x, y, INF)
            self._check(got, want)
            if fn(sp, x) == fn(sp, y):
                assert len(got.k_grid) == len(grid) + 2 * 51 - 6

    @pytest.mark.parametrize("p", [1.5, 2.0, INF])
    def test_custom_grid_unsorted_with_repeats_and_signed_zeros(self, p):
        sp = lp_space(3, p)
        x, y = np.array([1.0, 2.0, 0.0]), np.array([0.5, -1.0, 1.0])
        for grid in ((3.0, -0.0, 1.0, -2.0, 1.0, 0.0, 3.0, -0.5), (0.0, 2.0, -0.0, -2.0, 2.0, 0.25)):
            got = p_orthogonal_numeric(sp, x, y, p, OrthoConfig(k_grid=grid))
            want = grid_verdict_by_loop(lambda v: norm(sp, v), x, y, p, tuple(map(float, grid)))
            self._check(got, want)
            if p != INF:
                assert [k.hex() for k in got.k_grid] == [k.hex() for k in want[3]]
            # of 0.0 and -0.0 the one listed first stays
            zero = next(k for k in got.k_grid if k == 0.0)
            assert math.copysign(1.0, zero) == math.copysign(1.0, next(k for k in grid if k == 0.0))

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_zero_argument_returns_the_sorted_distinct_grid(self, p):
        sp = lp_space(2, p)
        cfg = OrthoConfig(k_grid=(3.0, -0.0, 1.0, -2.0, 1.0, 0.0))
        want = [k.hex() for k in (-2.0, -0.0, 1.0, 3.0)]
        for x, y in (([0.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 0.0])):
            got = p_orthogonal_numeric(sp, x, y, p, cfg)
            assert (got.verdict, got.worst_residual, got.witness_k) == ("orthogonal", 0.0, 0.0)
            assert [k.hex() for k in got.k_grid] == want
            loop = grid_verdict_by_loop(lambda v: norm(sp, v), np.array(x), np.array(y), p, cfg.k_grid)
            assert [k.hex() for k in loop[3]] == want
        if p != INF:  # a nonzero pair scans the same grid (p = inf adds its sweep)
            nonzero = p_orthogonal_numeric(sp, [1.0, 0.0], [0.0, 1.0], p, cfg)
            assert [k.hex() for k in nonzero.k_grid] == want

    def test_same_grid_for_a_config_with_another_tol(self):
        sp = lp_space(2, 2.0)
        x, y = np.array([1.0, 0.0]), np.array([1e-5, 1.0])
        grid = (0.0, 0.5, -0.5, 4.0, -4.0, 0.5)
        strict, loose = OrthoConfig(k_grid=grid), OrthoConfig(k_grid=grid, tol=1e-3)
        first = p_orthogonal_numeric(sp, x, y, 2.0, strict)
        self._check(first, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, 2.0, strict.k_grid, strict.tol))
        got = p_orthogonal_numeric(sp, x, y, 2.0, loose)
        self._check(got, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, 2.0, loose.k_grid, loose.tol))
        assert (first.verdict, got.verdict) == ("not_orthogonal", "orthogonal")
        assert [k.hex() for k in got.k_grid] == [k.hex() for k in first.k_grid]

    @pytest.mark.parametrize("p", [1.0, INF])
    def test_zero_sign_follows_each_grid(self, p):
        # every residual is exactly 0 here, so the witness is the grid's zero;
        # grids that differ only in its sign, decided one after the other,
        # each keep their own
        sp = lp_space(2, p)
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        for grid in ((0.0, 1.0, -1.0), (-0.0, 1.0, -1.0), (0.0, 1.0, -1.0), (-0.0, 0.0, 1.0, -1.0)):
            got = p_orthogonal_numeric(sp, x, y, p, OrthoConfig(k_grid=grid))
            assert got.worst_residual == 0.0
            assert got.witness_k.hex() == grid[0].hex()
            assert [k.hex() for k in got.k_grid if k == 0.0] == [grid[0].hex()]

    @pytest.mark.parametrize("p", [1.5, INF])
    def test_configs_whose_grids_differ_in_the_sign_of_zero_keep_their_own(self, p):
        # the two grids compare equal as tuples, so an order cached by grid
        # value would hand the second config the first one's zero
        sp = lp_space(2, p)
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        plus, minus = OrthoConfig(k_grid=(0.0, 0.5, -0.5)), OrthoConfig(k_grid=(-0.0, 0.5, -0.5))
        assert plus.k_grid == minus.k_grid
        for cfg in (plus, minus, plus, minus):
            zero = cfg.k_grid[0].hex()
            got = p_orthogonal_numeric(sp, x, y, p, cfg)
            assert [k.hex() for k in got.k_grid if k == 0.0] == [zero]
            if p == INF:  # every residual is exactly 0, so the witness is the zero
                assert got.witness_k.hex() == zero
            zero_arg = p_orthogonal_numeric(sp, np.zeros(2), y, p, cfg)
            assert [k.hex() for k in zero_arg.k_grid if k == 0.0] == [zero]

    def test_high_dimension_takes_several_blocks(self):
        sp, _, fplus, fminus, g1, _ = build_example_46(2049)
        rows = []

        def oracle(W):
            rows.append(W.shape[0])
            return batch_norms(sp, W)

        for x, y in ((fplus, fminus), (fplus, g1)):
            rows.clear()
            got = verdict_from_norm(oracle, x, y, INF)
            assert len(rows) > 2  # ||x||, ||y||, then the grid in several blocks
            assert max(rows[1:]) * sp.dim <= 2**15
            want = grid_verdict_by_loop(lambda v: norm(sp, v), x, y, INF, OrthoConfig().k_grid)
            self._check(got, want)
        assert got.verdict == "not_orthogonal"


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
            assert numeric.verdict != "inconclusive"
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
        x, y = [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]
        got = p_orthogonal(sp, x, y, 1.0)
        grid = p_orthogonal_numeric(sp, x, y, 1.0)
        assert (got.verdict, got.method, grid.method) == ("not_orthogonal", "exact", "grid")
        assert (got.worst_residual, got.witness_k, got.k_grid) == (
            grid.worst_residual, grid.witness_k, grid.k_grid)

    @pytest.mark.parametrize(
        "space, p, method",
        [
            (lp_space(3, 1.0), 1.0, "exact"),
            (lp_space(3, 3.0, weights=[1.0, 2.0, 0.5]), 3.0, "exact"),
            (lp_space(3, INF), INF, "exact"),
            (sup_space(3), INF, "exact"),
            (base_space(nonneg_orthant(3), [1.0, 2.0, 3.0]), 1.0, "exact"),
            (lp_space(3, 1.0), 2.0, "grid"),  # lp away from its own p
            (lp_space(3, 2.0), INF, "grid"),
            (sup_space(3), 1.0, "grid"),
            (base_space(nonneg_orthant(3), [1.0, 2.0, 3.0]), INF, "grid"),
            (order_unit_space(nonneg_orthant(3), [1.0, 1.0, 1.0]), INF, "exact"),
            (SpaceSpec(3, ray_cone(np.eye(3) + 0.2), NormKind("lp", p=1.0), 1.0), 1.0, "exact"),
            (spectral_space(2), INF, "grid"),
        ],
    )
    def test_method_follows_the_routing(self, space, p, method):
        x, y = np.eye(space.dim)[0], np.eye(space.dim)[-1]
        assert p_orthogonal(space, x, y, p).method == method

    def test_zero_argument_and_invalid_input(self):
        sp = lp_space(2, 2.0)
        assert p_orthogonal(sp, [0.0, 0.0], [1.0, 2.0], 2.0).is_orthogonal
        with pytest.raises(InputError, match="finite"):
            p_orthogonal(sp, [math.nan, 1.0], [1.0, 0.0], 2.0)
        with pytest.raises(InputError, match="shape"):
            p_orthogonal(sp, [1.0, 0.0, 0.0], [1.0, 0.0], 2.0)
        with pytest.raises(InputError, match="exponent"):
            p_orthogonal(sp, [1.0, 0.0], [0.0, 1.0], 0.5)

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
                assert _exact_linf(x, y, 1e-12) == want
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


class TestInftyPositive:
    def test_disjoint(self):
        sp = sup_space(2)
        assert infty_positive_test(sp, [1.0, 0.0], [0.0, 1.0])

    def test_overlapping(self):
        sp = sup_space(2)
        assert not infty_positive_test(sp, [1.0, 0.5], [0.0, 1.0])

    def test_spectral_diag(self):
        sp = spectral_space(2)
        u1 = np.diag([1.0, 0.0]).ravel()
        u2 = np.diag([0.0, 1.0]).ravel()
        assert infty_positive_test(sp, u1, u2)

    def test_rejects_negative_input(self):
        with pytest.raises(InputError):
            infty_positive_test(sup_space(2), [1.0, -1.0], [0.0, 1.0])

    def test_rejects_zero(self):
        with pytest.raises(InputError):
            infty_positive_test(sup_space(2), [0.0, 0.0], [0.0, 1.0])


class TestOrthonormalSet:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, INF])
    def test_standard_basis(self, p):
        sp = lp_space(4, p)
        rep = orthonormal_set_verify(sp, list(np.eye(4)), p)
        assert rep.all_ok

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
