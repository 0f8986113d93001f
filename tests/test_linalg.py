import numpy as np
import pytest

from portho.errors import InputError
from portho.linalg import LpProblem, SpectralDecomposition, check_symmetric, eigen_sym, solve_lp

from oracles import char_poly_eigs_3x3, lp_by_vertex_enumeration, reconstruct


class TestSolveLp:
    def test_simplex_face(self):
        out = solve_lp(LpProblem(objective=[1.0, 1.0], ineq=[[1.0, 1.0]], ineq_rhs=[1.0]))
        assert out.status == "optimal"
        assert out.optimum == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self):
        out = solve_lp(LpProblem(objective=[1.0], ineq=[[1.0]], ineq_rhs=[-1.0]))
        assert out.status == "infeasible"

    def test_box_vertex(self):
        # oracle value 7 at (2, 1), frozen from vertex enumeration over the 4 vertices
        prob = LpProblem(
            objective=[2.0, 3.0],
            ineq=[[1.0, 0.0], [0.0, 1.0]],
            ineq_rhs=[2.0, 1.0],
        )
        out = solve_lp(prob)
        assert out.status == "optimal"
        assert out.optimum == pytest.approx(7.0, abs=1e-9)
        assert out.argument == pytest.approx([2.0, 1.0], abs=1e-9)

    def test_unbounded(self):
        out = solve_lp(LpProblem(objective=[1.0, 0.0]))
        assert out.status == "unbounded"

    def test_no_constraints(self):
        # maximize -x1 over x >= 0: optimum 0 at the origin; a free variable
        # with a nonzero cost is unbounded
        out = solve_lp(LpProblem(objective=[-1.0, 0.0]))
        assert (out.status, out.optimum, out.argument.tolist()) == ("optimal", 0.0, [0.0, 0.0])
        assert solve_lp(LpProblem(objective=[-1.0, 0.0], free=[True, False])).status == "unbounded"

    def test_equality_and_free_variables(self):
        # maximize -x2 with x1 + x2 = 3, x1 free, x2 >= 0, x1 <= 1
        prob = LpProblem(
            objective=[0.0, -1.0],
            eq=[[1.0, 1.0]],
            eq_rhs=[3.0],
            ineq=[[1.0, 0.0]],
            ineq_rhs=[1.0],
            free=[True, False],
        )
        out = solve_lp(prob)
        assert out.status == "optimal"
        assert out.argument == pytest.approx([1.0, 2.0], abs=1e-8)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            LpProblem(objective=[1.0, 2.0], ineq=[[1.0]], ineq_rhs=[1.0])

    def test_matches_vertex_enumeration_on_random_lps(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            n = rng.integers(2, 5)
            c = rng.normal(size=n)
            n_ineq = int(rng.integers(1, 5))
            Ab = np.array([[*rng.normal(size=n), rng.uniform(0.5, 3.0)] for _ in range(n_ineq)])
            # cap every coordinate so the region is bounded
            A = np.vstack([Ab[:, :-1], np.eye(n)])
            b = np.concatenate([Ab[:, -1], rng.uniform(1.0, 5.0, size=n)])
            oracle = lp_by_vertex_enumeration(c, ineq=list(zip(A, b)))
            if oracle is None:
                continue
            out = solve_lp(LpProblem(objective=c, ineq=A, ineq_rhs=b))
            assert out.status == "optimal"
            assert out.optimum == pytest.approx(oracle[0], abs=1e-8)
            checked += 1

    def test_feasibility_of_returned_argument(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            c = rng.normal(size=n)
            Ab = np.array([[*rng.normal(size=n), rng.uniform(0.5, 3.0)] for _ in range(3)])
            A = np.vstack([Ab[:, :-1], np.eye(n)])
            b = np.concatenate([Ab[:, -1], np.full(n, 4.0)])
            out = solve_lp(LpProblem(objective=c, ineq=A, ineq_rhs=b))
            if out.status != "optimal":
                continue
            x = out.argument
            assert np.all(x >= -1e-9)
            for row, rhs in zip(A, b):
                assert row @ x <= rhs + 1e-9


class TestLpProblem:
    def test_fields_are_arrays(self):
        prob = LpProblem(objective=[1.0, 2.0], ineq=[[1.0, 1.0]], ineq_rhs=[3.0])
        assert prob.eq.shape == (0, 2) and prob.eq_rhs.shape == (0,)
        assert prob.ineq.shape == (1, 2) and prob.ineq_rhs.tolist() == [3.0]
        assert prob.free.dtype == bool and not prob.free.any()
        assert len(prob.eq) + len(prob.ineq) == 1

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("eq", {"eq": [[1.0, 0.0], [1.0]], "eq_rhs": [1.0, 2.0]}),  # ragged
            ("ineq", {"ineq": [[1.0, 0.0], [1.0]], "ineq_rhs": [1.0, 2.0]}),
            ("eq", {"eq": [1.0, 0.0], "eq_rhs": [1.0]}),  # 1-d
            ("ineq", {"ineq": [1.0, 0.0], "ineq_rhs": [1.0]}),
            ("eq", {"eq": [[1.0, 0.0, 0.0]], "eq_rhs": [1.0]}),  # column count
            ("ineq", {"ineq": [[1.0]], "ineq_rhs": [1.0]}),
            ("eq_rhs", {"eq": [[1.0, 0.0]], "eq_rhs": [1.0, 2.0]}),  # rhs length
            ("eq_rhs", {"eq": [[1.0, 0.0]]}),
            ("ineq_rhs", {"ineq": [[1.0, 0.0], [0.0, 1.0]], "ineq_rhs": [1.0]}),
            ("ineq_rhs", {"ineq_rhs": [1.0]}),
            ("eq", {"eq": [[np.nan, 0.0]], "eq_rhs": [1.0]}),  # non-finite
            ("ineq", {"ineq": [[1.0, np.inf]], "ineq_rhs": [1.0]}),
            ("eq_rhs", {"eq": [[1.0, 0.0]], "eq_rhs": [np.inf]}),
            ("ineq_rhs", {"ineq": [[1.0, 0.0]], "ineq_rhs": [np.nan]}),
            ("free", {"free": [True]}),  # length
            ("free", {"free": [True, False, False]}),
            ("free", {"free": [1, 0]}),  # not a boolean mask
        ],
    )
    def test_malformed_input_names_the_field(self, field, kwargs):
        with pytest.raises(InputError, match=rf"^{field} "):
            LpProblem(objective=[1.0, 2.0], **kwargs)

    def test_free_variable_in_the_middle_matches_vertex_enumeration(self):
        rng = np.random.default_rng(23)
        negative = 0
        for trial in range(100):
            n = int(rng.integers(3, 6))
            j = n // 2  # the free variable, between two bounded ones
            c = rng.normal(size=n)
            A = np.vstack([rng.normal(size=(3, n)), np.eye(n), -np.eye(n)[j]])
            b = np.concatenate([rng.uniform(0.5, 3.0, size=3), rng.uniform(1.0, 4.0, size=n + 1)])
            free = np.arange(n) == j
            out = solve_lp(LpProblem(objective=c, ineq=A, ineq_rhs=b, free=free))
            lower = [None if f else 0.0 for f in free]
            oracle = lp_by_vertex_enumeration(c, ineq=list(zip(A, b)), lower_bounds=lower)
            assert out.status == "optimal", trial
            assert out.optimum == pytest.approx(oracle[0], abs=1e-8), trial
            x = out.argument
            assert np.all(A @ x <= b + 1e-9) and np.all(x[~free] >= -1e-9), trial
            negative += x[j] < -1e-9
        assert negative > 10  # the free column is exercised on both signs


def _counted_symmetric_part(monkeypatch):
    """Patch `linalg.symmetric_part` to record each call; returns the record."""
    import portho.linalg as linalg_module

    calls, part = [], linalg_module.symmetric_part
    monkeypatch.setattr(linalg_module, "symmetric_part", lambda M: calls.append(1) or part(M))
    return calls


class TestCheckSymmetric:
    def test_a_bit_symmetric_stack_comes_back_new_and_equal(self, monkeypatch):
        slow = _counted_symmetric_part(monkeypatch)
        A = np.random.default_rng(7).normal(size=(5, 4, 4))
        S = A + np.swapaxes(A, -1, -2)
        # C-ordered, Fortran-ordered and strided inputs
        for M in (S, S[1], S[1].T, np.swapaxes(S, -1, -2), S[:, ::-1, ::-1]):
            got = check_symmetric(M)
            assert not np.shares_memory(got, M)
            assert got.shape == M.shape and got.tobytes() == np.ascontiguousarray(M).tobytes()
        assert slow == []

    def test_a_signed_zero_mirror_pair_is_symmetrized_to_plus_zero(self, monkeypatch):
        slow = _counted_symmetric_part(monkeypatch)
        for M in ([[1.0, 0.0], [-0.0, 2.0]], [[1.0, -0.0], [0.0, 2.0]]):
            got = check_symmetric(np.array(M))
            assert got.tolist() == [[1.0, 0.0], [0.0, 2.0]] and not np.signbit(got).any()
        assert slow == [1, 1]

    def test_one_asymmetric_matrix_in_a_stack_is_rejected(self):
        A = np.random.default_rng(9).normal(size=(6, 3, 3))
        S = A + np.swapaxes(A, -1, -2)
        S[3, 0, 2] += 1e-6
        with pytest.raises(InputError, match="not symmetric"):
            check_symmetric(S)
        got = check_symmetric(S, rel_tol=1e-5)
        assert got[3, 0, 2] == got[3, 2, 0] and (got[:3] == S[:3]).all()

    def test_nan_is_kept_not_rejected(self):
        nan = np.nan
        # a NaN mirror pair comes back as it is, and a NaN facing a number
        # spreads to both sides
        got = check_symmetric(np.array([[1.0, nan], [nan, 2.0]]))
        assert np.isnan(got[0, 1]) and np.isnan(got[1, 0]) and got[1, 1] == 2.0
        got = check_symmetric(np.array([[1.0, nan], [3.0, 2.0]]))
        assert np.isnan(got[0, 1]) and np.isnan(got[1, 0]) and got[1, 1] == 2.0
        # but hides no other matrix's asymmetry
        with pytest.raises(InputError, match="not symmetric"):
            check_symmetric(np.array([[[1.0, nan], [3.0, 2.0]], [[1.0, 1.0], [3.0, 2.0]]]))


class TestEigenSym:
    def test_identity(self):
        dec = eigen_sym(np.eye(3))
        assert dec.eigenvalues == pytest.approx([1.0, 1.0, 1.0])

    def test_diagonal(self):
        dec = eigen_sym(np.diag([5.0, -2.0]))
        assert dec.eigenvalues == pytest.approx([5.0, -2.0])

    def test_two_by_two(self):
        # roots of lambda^2 - 4 lambda + 3
        dec = eigen_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert dec.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-10)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_symmetric_part_near_the_largest_float(self):
        big = 1.5e308
        # asymmetric within the tolerance: the halves are added, not the entries
        M = np.array([[big, big], [big * (1.0 + 2**-50), big]])
        S = check_symmetric(M)
        assert np.isfinite(S).all()
        assert S[0, 1] == S[1, 0] == pytest.approx(big, rel=1e-15)
        # exactly symmetric: the matrix itself, as a copy
        M = np.array([[big, 1.0], [1.0, -big]])
        S = check_symmetric(M)
        assert S is not M and (S == M).all()
        assert eigen_sym(M).eigenvalues == pytest.approx([big, -big], rel=1e-15)

    def test_symmetric_part_of_a_stack_matches_the_mean_with_its_transpose(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(6, 4, 4))
        S = A + np.swapaxes(A, -1, -2)
        # the last matrix is asymmetric within the tolerance, the rest exactly symmetric
        S[-1, 0, 1] += 1e-14
        got = check_symmetric(S, rel_tol=1e-12)
        want = 0.5 * (S + np.swapaxes(S, -1, -2))
        assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(n, n))
            M = A + A.T
            dec = eigen_sym(M)
            scale = 1.0 + np.abs(M).max()
            assert np.abs(reconstruct(dec) - M).max() <= 1e-9 * scale
            gram = dec.eigenvectors @ dec.eigenvectors.T
            assert np.abs(gram - np.eye(n)).max() <= 1e-9
            assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_trace_and_determinant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 4))
            A = rng.normal(size=(n, n))
            M = A + A.T
            dec = eigen_sym(M)
            assert np.sum(dec.eigenvalues) == pytest.approx(np.trace(M), rel=1e-9, abs=1e-9)
            assert np.prod(dec.eigenvalues) == pytest.approx(
                np.linalg.det(M), rel=1e-8, abs=1e-8
            )

    def test_matches_characteristic_polynomial(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            A = rng.normal(size=(3, 3))
            M = A + A.T
            dec = eigen_sym(M)
            assert dec.eigenvalues == pytest.approx(char_poly_eigs_3x3(M), abs=1e-8)
