import math

import numpy as np
import pytest

from oracles import grid_verdict_by_loop
from portho.errors import InputError
from portho.harness import build_example_46, default_families
from portho.ortho import (
    OrthoConfig,
    dual_p_orthogonal_numeric,
    infty_positive_test,
    orthonormal_set_verify,
    p_orthogonal_exact,
    p_orthogonal_numeric,
    verdict_from_norm,
)
from portho.spaces import batch_norms, dual_norm, lp_space, norm, spectral_space, sup_space

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

    @pytest.mark.parametrize("bad", [math.nan, INF, -INF])
    def test_non_finite_input_rejected(self, bad):
        sp = sup_space(2)
        for decide in (p_orthogonal_numeric, dual_p_orthogonal_numeric):
            with pytest.raises(InputError, match="finite"):
                decide(sp, [bad, 1.0], [1.0, 0.0], INF)
            with pytest.raises(InputError, match="finite"):
                decide(sp, [1.0, 0.0], [0.0, bad], 2.0)


_FAMILIES = default_families()


class TestBatchedDeciderAgainstLoop:
    """The batched grid decider against the per-k scalar loop reference."""

    @staticmethod
    def _check(got, want):
        verdict, worst, witness = want
        assert got.verdict == verdict
        assert got.worst_residual == pytest.approx(worst, rel=0.0, abs=1e-14)
        assert got.witness_k == pytest.approx(witness, rel=1e-14, abs=0.0)

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
        got = p_orthogonal_numeric(sp, x, y, p)
        assert got.verdict == "orthogonal"
        self._check(got, grid_verdict_by_loop(lambda v: norm(sp, v), x, y, p, OrthoConfig().k_grid))

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
