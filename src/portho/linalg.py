"""Dense kernels everything else is built on: a two-phase simplex LP solver
with Bland's anti-cycling rule, and the symmetric eigensolver (a validated
wrapper over LAPACK's, via np.linalg.eigh).

The simplex solver is deliberately self-contained; the problems here are tiny
(dim <= ~50) and determinism matters more than speed.

An LP comes in matrix form (`LpProblem`): callers build its constraint
matrices as whole arrays, and their row and column order is the tableau
order Bland's rule sees. The names `eq` and `ineq` are part of the
interface: code outside the solver, such as an LP-size tracer, counts an
LP's constraints as `len(problem.eq) + len(problem.ineq)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

DEFAULT_TOL = 1e-9


def _finite(name: str, value, ndim: int) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} must be a numeric array: {exc}") from exc
    if a.ndim != ndim:
        raise InputError(f"{name} must be {ndim}-d, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{name} entries must be finite")
    return a


@dataclass(frozen=True)
class LpProblem:
    """maximize objective @ x  subject to

        eq @ x == eq_rhs
        ineq @ x <= ineq_rhs
        x[j] >= 0 unless free[j]

    eq and ineq hold one constraint per row (n columns for n variables);
    an omitted kind has no rows, and free=None means no variable is free.
    Keep the names eq and ineq: callers count constraints as
    len(eq) + len(ineq).
    """

    objective: np.ndarray
    eq: np.ndarray | None = None
    eq_rhs: np.ndarray | None = None
    ineq: np.ndarray | None = None
    ineq_rhs: np.ndarray | None = None
    free: np.ndarray | None = None

    def __post_init__(self):
        obj = _finite("objective", self.objective, 1)
        n = obj.shape[0]
        if n == 0:
            raise InputError("objective must be a nonempty 1-d array")
        object.__setattr__(self, "objective", obj)
        for kind in ("eq", "ineq"):
            M, rhs = getattr(self, kind), getattr(self, kind + "_rhs")
            M = np.zeros((0, n)) if M is None else _finite(kind, M, 2)
            rhs = np.zeros(0) if rhs is None else _finite(kind + "_rhs", rhs, 1)
            if M.shape[1] != n:
                raise InputError(f"{kind} has {M.shape[1]} columns, expected {n}")
            if rhs.shape[0] != M.shape[0]:
                raise InputError(f"{kind}_rhs has length {rhs.shape[0]}, expected {M.shape[0]}")
            object.__setattr__(self, kind, M)
            object.__setattr__(self, kind + "_rhs", rhs)
        free = np.zeros(n, dtype=bool) if self.free is None else np.asarray(self.free)
        if free.dtype != bool or free.shape != (n,):
            raise InputError(f"free must be a boolean mask of shape ({n},), got {free.shape}")
        object.__setattr__(self, "free", free)


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

    A free variable x_j becomes y_plus - y_minus, its minus column right
    after its plus column; each inequality gets a slack column after all
    variable columns. Returns (A, b, c, recover) where recover(y) yields
    the original x.
    """
    free = problem.free
    width = 1 + free  # standard-form columns per variable
    src = np.repeat(np.arange(free.size), width)  # variable behind each column
    plus = np.cumsum(width) - width  # first column of each variable
    sign = np.ones(src.size)
    sign[plus[free] + 1] = -1.0
    rows = np.concatenate([problem.eq, problem.ineq])
    slacks = np.eye(len(rows))[:, len(problem.eq):]  # one per inequality row
    A = np.hstack([rows[:, src] * sign, slacks])
    b = np.concatenate([problem.eq_rhs, problem.ineq_rhs])
    c = np.append(problem.objective[src] * sign, np.zeros(slacks.shape[1]))

    def recover(y: np.ndarray) -> np.ndarray:
        x = y[plus]
        x[free] -= y[plus[free] + 1]
        return x

    return A, b, c, recover


def solve_lp(problem: LpProblem, tol: float = DEFAULT_TOL) -> LpOutcome:
    """Two-phase simplex with Bland's rule. Maximization convention."""
    A, b, c, recover = _to_standard_form(problem)
    m, N = A.shape
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

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


def unit_scaled(x: np.ndarray):
    """(x / m, m) with m = max |x_i|, or (x, 1.0) for x = 0. The solver's
    tolerances are absolute, so an LP whose objective or constraint is x
    solves for x / m, and its value, or its solution, is scaled back by m."""
    m = float(np.abs(x).max())
    return (x / m, m) if m > 0.0 else (x, 1.0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in descending order; eigenvectors[k] is the unit eigenvector
    for eigenvalues[k] (rows of an orthogonal matrix)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetric_part(M: np.ndarray) -> np.ndarray:
    """0.5 M + 0.5 M^T of a square matrix, or of each matrix in a stack
    along the leading axes: the halves are added so that entries near the
    largest float do not overflow, and the sum is symmetric bit for bit
    (floating-point addition commutes). A matrix built as (Q^T L) Q is
    symmetric only up to rounding; its symmetric part passes
    `check_symmetric` on the byte-comparison path."""
    return 0.5 * M + 0.5 * np.swapaxes(M, -1, -2)


def check_symmetric(M: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """The symmetric part of a square matrix, or of each in a stack along the
    leading axes, as a new array; InputError when one is asymmetric beyond
    rel_tol * max(1, its largest entry). A stack with the bytes of its C-order
    transpose returns that transpose, any other (0.0 facing -0.0 too) `symmetric_part`."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InputError("matrix must be square")
    Mt = np.swapaxes(M, -1, -2).copy()
    if M.tobytes() == Mt.tobytes():
        return Mt
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1)))
    if np.any(np.abs(M - Mt).max(axis=(-2, -1)) > rel_tol * scale):
        raise InputError("matrix is not symmetric")
    return symmetric_part(M)


def eigen_sym(M: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    return _eigen_checked(check_symmetric(M))


def _eigen_checked(S: np.ndarray) -> SpectralDecomposition:
    """`eigen_sym` of a matrix `check_symmetric` returned, not validated again."""
    lam, Q = np.linalg.eigh(S)
    return SpectralDecomposition(lam[::-1], Q.T[::-1])
