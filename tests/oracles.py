"""Independent brute-force oracles shared by the test modules.

These never call the code paths they are used to check.
"""

import itertools
import math

import numpy as np


def lp_by_vertex_enumeration(objective, eq=(), ineq=(), lower_bounds=None, tol=1e-9):
    """Maximize objective @ x over the polyhedron by enumerating candidate
    vertices (all n-subsets of tight constraints). Returns (optimum, x) or
    None if no feasible vertex exists. Assumes a bounded, full-dimensional
    feasible region so the optimum is attained at a vertex.
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.shape[0]
    rows, rhs, is_eq = [], [], []
    for r, b in eq:
        rows.append(np.asarray(r, dtype=float))
        rhs.append(b)
        is_eq.append(True)
    for r, b in ineq:
        rows.append(np.asarray(r, dtype=float))
        rhs.append(b)
        is_eq.append(False)
    lb = lower_bounds if lower_bounds is not None else [0.0] * n
    for j, l in enumerate(lb):
        if l is not None:
            row = np.zeros(n)
            row[j] = -1.0
            rows.append(row)
            rhs.append(-l)
            is_eq.append(False)
    rows = np.array(rows)
    rhs = np.array(rhs)
    eq_idx = [i for i, e in enumerate(is_eq) if e]

    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        if any(i not in subset for i in eq_idx):
            continue
        A = rows[list(subset)]
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        x = np.linalg.solve(A, rhs[list(subset)])
        viol_eq = max((abs(rows[i] @ x - rhs[i]) for i in eq_idx), default=0.0)
        viol_in = max(
            (rows[i] @ x - rhs[i] for i in range(len(rows)) if i not in eq_idx),
            default=0.0,
        )
        if viol_eq <= tol and viol_in <= tol:
            val = float(objective @ x)
            if best is None or val > best[0]:
                best = (val, x)
    return best


def char_poly_eigs_3x3(M):
    """Eigenvalues of a symmetric matrix of side <= 3 via numpy.roots on the
    characteristic polynomial."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 1:
        return np.array([M[0, 0]])
    if n == 2:
        tr, det = M[0, 0] + M[1, 1], np.linalg.det(M)
        coeffs = [1.0, -tr, det]
    else:
        tr = np.trace(M)
        c2 = 0.5 * (tr**2 - np.trace(M @ M))
        coeffs = [1.0, -tr, c2, -np.linalg.det(M)]
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


def grid_verdict_by_loop(norm_fn, x, y, p, k_grid, tol=1e-9):
    """The numeric p-orthogonality decider as a per-k scalar loop: one
    norm_fn call per scalar k of the grid (plus, for p = inf, the sweep
    around |k| = ||x||/||y||), scanned in (|k|, k) order, the witness being
    the first strict maximum of the residual. Returns (verdict,
    worst_residual, witness_k)."""
    nx, ny = norm_fn(x), norm_fn(y)
    if nx == 0.0 or ny == 0.0:
        return "orthogonal", 0.0, 0.0
    ks = set(k_grid)
    if math.isinf(p):
        r = nx / ny
        for t in np.concatenate([np.linspace(1.0 / 16.0, 2.0, 48), [1.0 - 2**-8, 1.0, 1.0 + 2**-8]]):
            ks.update((r * t, -r * t))
    worst, witness = 0.0, 0.0
    for k in sorted(ks, key=lambda k: (abs(k), k)):
        lhs = norm_fn(x + k * y)
        if math.isinf(p):
            res = abs(lhs - max(nx, abs(k) * ny)) / (1.0 + nx + abs(k) * ny)
        else:
            rhs = nx**p + abs(k) ** p * ny**p
            res = abs(lhs**p - rhs) / (1.0 + rhs)
        if res > worst:
            worst, witness = res, k
    return ("orthogonal" if worst <= tol else "not_orthogonal"), worst, witness
