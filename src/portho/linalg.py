"""Dense kernels everything else is built on: a two-phase simplex LP solver
with Bland's anti-cycling rule, and the symmetric eigensolver (a validated
wrapper over LAPACK's, via np.linalg.eigh).

The simplex solver is deliberately self-contained; the problems here are tiny
(dim <= ~50) and determinism matters more than speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class LpProblem:
    """maximize objective @ x  subject to

        row @ x == rhs   for (row, rhs) in eq
        row @ x <= rhs   for (row, rhs) in ineq
        x[j] >= lower_bounds[j]   (None entry = free variable)

    lower_bounds=None means every variable is bounded below by 0.
    """

    objective: np.ndarray
    eq: tuple = ()
    ineq: tuple = ()
    lower_bounds: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        n = self.objective.shape[0]
        if self.objective.ndim != 1 or n == 0:
            raise InputError("objective must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.objective)):
            raise InputError("objective entries must be finite")
        eq = tuple((np.asarray(r, dtype=float), float(b)) for r, b in self.eq)
        ineq = tuple((np.asarray(r, dtype=float), float(b)) for r, b in self.ineq)
        for row, b in eq + ineq:
            if row.shape != (n,):
                raise InputError(f"constraint row has length {row.shape}, expected {n}")
            if not (np.all(np.isfinite(row)) and np.isfinite(b)):
                raise InputError("constraint entries must be finite")
        object.__setattr__(self, "eq", eq)
        object.__setattr__(self, "ineq", ineq)
        if self.lower_bounds is not None:
            lb = tuple(None if v is None else float(v) for v in self.lower_bounds)
            if len(lb) != n:
                raise InputError("lower_bounds length mismatch")
            object.__setattr__(self, "lower_bounds", lb)

    @property
    def dim(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpOutcome:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: float | None = None
    argument: np.ndarray | None = None


def _pivot(T: np.ndarray, basis: np.ndarray, r: int, c: int) -> None:
    T[r] /= T[r, c]
    col = T[:, c].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, c] = 0.0
    T[r, c] = 1.0
    basis[r] = c


def _bland_iterate(T: np.ndarray, basis: np.ndarray, cols: np.ndarray, tol: float) -> str:
    """Run simplex pivots (maximization; objective row is the last row holding
    reduced costs z_j - c_j). Returns "optimal" or "unbounded"."""
    m = T.shape[0] - 1
    max_pivots = 50 * (T.shape[0] + T.shape[1]) ** 2
    for _ in range(max_pivots):
        neg = cols[T[-1, cols] < -tol]
        if neg.size == 0:
            return "optimal"
        c = int(neg[0])  # Bland: smallest eligible index
        pos = np.nonzero(T[:m, c] > tol)[0]
        if pos.size == 0:
            return "unbounded"
        ratios = T[pos, -1] / T[pos, c]
        best = ratios.min()
        tied = pos[ratios <= best + tol]
        r = int(tied[np.argmin(basis[tied])])  # Bland tie-break on basis index
        _pivot(T, basis, r, c)
    raise RuntimeError("simplex pivot limit exceeded")


def _to_standard_form(problem: LpProblem):
    """Rewrite as: maximize c @ y, A y = b, y >= 0.

    Returns (A, b, c, recover) where recover(y) yields the original x.
    """
    n = problem.dim
    lb = problem.lower_bounds if problem.lower_bounds is not None else (0.0,) * n

    # column map: var j -> (col_plus, col_minus or None, offset)
    cols = []
    ncols = 0
    for j in range(n):
        if lb[j] is None:
            cols.append((ncols, ncols + 1, 0.0))
            ncols += 2
        else:
            cols.append((ncols, None, lb[j]))
            ncols += 1

    def expand(row: np.ndarray) -> np.ndarray:
        out = np.zeros(ncols)
        for j in range(n):
            cp, cm, _ = cols[j]
            out[cp] = row[j]
            if cm is not None:
                out[cm] = -row[j]
        return out

    offsets = np.array([cols[j][2] for j in range(n)])
    n_eq, n_ineq = len(problem.eq), len(problem.ineq)
    A = np.zeros((n_eq + n_ineq, ncols + n_ineq))
    b = np.zeros(n_eq + n_ineq)
    for i, (row, rhs) in enumerate(problem.eq):
        A[i, :ncols] = expand(row)
        b[i] = rhs - row @ offsets
    for i, (row, rhs) in enumerate(problem.ineq):
        A[n_eq + i, :ncols] = expand(row)
        A[n_eq + i, ncols + i] = 1.0  # slack
        b[n_eq + i] = rhs - row @ offsets

    c = np.zeros(ncols + n_ineq)
    c[:ncols] = expand(problem.objective)

    def recover(y: np.ndarray) -> np.ndarray:
        x = np.empty(n)
        for j in range(n):
            cp, cm, off = cols[j]
            x[j] = off + y[cp] - (y[cm] if cm is not None else 0.0)
        return x

    return A, b, c, recover


def solve_lp(problem: LpProblem, tol: float = DEFAULT_TOL) -> LpOutcome:
    """Two-phase simplex with Bland's rule. Maximization convention."""
    A, b, c, recover = _to_standard_form(problem)
    m, N = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    if m == 0:
        # no constraints at all: optimum 0 at the origin unless c can grow
        if np.any(np.abs(c) > tol):
            return LpOutcome("unbounded")
        x = recover(np.zeros(N))
        return LpOutcome("optimal", float(problem.objective @ x), x)

    # phase 1: artificial basis, maximize -sum(artificials)
    T = np.zeros((m + 1, N + m + 1))
    T[:m, :N] = A
    T[:m, N:N + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(N, N + m)
    T[-1, :] = -T[:m, :].sum(axis=0)  # reduced costs for c_B = -1 on artificials
    T[-1, N:N + m] = 0.0
    struct = np.arange(N)
    _bland_iterate(T, basis, struct, tol)
    feas_tol = tol * (1.0 + np.abs(b).sum())
    if T[-1, -1] < -feas_tol:
        return LpOutcome("infeasible")

    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for r in range(m):
        if basis[r] >= N:
            js = np.nonzero(np.abs(T[r, :N]) > tol)[0]
            if js.size:
                _pivot(T, basis, r, int(js[0]))
                keep.append(r)
            # else: redundant row, drop it
        else:
            keep.append(r)
    rows = keep + [m]
    T = T[rows][:, list(range(N)) + [N + m]]
    basis = basis[keep]
    m2 = len(keep)

    # phase 2: rebuild the objective row for the real cost vector
    T[-1, :-1] = -c
    T[-1, -1] = 0.0
    for i in range(m2):
        T[-1] += c[basis[i]] * T[i]
    status = _bland_iterate(T, basis, struct, tol)
    if status == "unbounded":
        return LpOutcome("unbounded")
    y = np.zeros(N)
    y[basis] = T[:m2, -1]
    x = recover(y)
    return LpOutcome("optimal", float(problem.objective @ x), x)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order; eigenvectors[k] is the unit eigenvector
    for eigenvalues[k] (rows of an orthogonal matrix)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.eigenvectors.T @ np.diag(self.eigenvalues) @ self.eigenvectors


def check_symmetric(M: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Return the symmetric part of a square matrix, or of each matrix in a
    stack along the leading axes; raise InputError when any one is asymmetric
    beyond rel_tol * max(1, its largest entry)."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InputError("matrix must be square")
    Mt = np.swapaxes(M, -1, -2)
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    if np.any(np.abs(M - Mt).max(axis=(-2, -1)) > rel_tol * scale):
        raise InputError("matrix is not symmetric")
    return 0.5 * (M + Mt)


def eigen_sym(M: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    lam, Q = np.linalg.eigh(check_symmetric(M))
    return SpectralDecomposition(lam[::-1], Q.T[::-1])
