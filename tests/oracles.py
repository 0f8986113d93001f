"""Independent brute-force oracles shared by the test modules, the
non-simplicial cones the polyhedral table tests share, and helpers that only
the tests need (the duality pairing, eigendecomposition reconstruction,
space-spec serialization, an additivity spot check of orthonormal sets, the
table of basis inverses, the vertices and the least-l1 form over it, the
facet normals by subsets of generators, the l1 decomposition LP, the crust
LP and the two-stage base positive support LP).

These never call the code paths they are used to check. (`restricted_norm`
evaluates ambient norms through portho's norm layer; what it checks is the
vertex formula of `spaces.restricted_dual_norms`, which it does not use.)
"""

import itertools
import json
import math

import numpy as np

from portho.cones import generator_matrix
from portho.errors import InputError
from portho.linalg import LpProblem, solve_lp
from portho.ortho import p_orthogonal
from portho.spaces import batch_norms, norm


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
    worst_residual, witness_k, k_grid), k_grid being the distinct scalars
    scanned, in increasing order (for x or y zero, the distinct scalars of
    the given grid)."""
    nx, ny = norm_fn(x), norm_fn(y)
    if nx == 0.0 or ny == 0.0:
        return "orthogonal", 0.0, 0.0, tuple(sorted(set(k_grid)))
    ks = set(k_grid)
    if math.isinf(p):
        r = nx / ny
        for t in np.concatenate([np.linspace(1.0 / 16.0, 2.0, 48), [1.0 - 2**-8, 1.0, 1.0 + 2**-8]]):
            ks.update((r * t, -r * t))
    worst, witness = 0.0, 0.0
    for k in sorted(ks, key=lambda k: (abs(k), k)):
        res = identity_residual(norm_fn, x, y, p, k, nx, ny)
        if res > worst:
            worst, witness = res, k
    return ("orthogonal" if worst <= tol else "not_orthogonal"), worst, witness, tuple(sorted(ks))


def identity_residual(norm_fn, x, y, p, k, nx=None, ny=None):
    """The grid decider's scaled residual of the identity at one scalar k,
    from scalar norm_fn calls: |lhs - max(nx, |k| ny)| / (1 + nx + |k| ny)
    at p = inf, else |lhs^p - rhs| / (1 + rhs), rhs = nx^p + |k|^p ny^p,
    with lhs = ||x + k y|| and nx, ny the norms of x and y (evaluated when
    not given)."""
    nx = norm_fn(x) if nx is None else nx
    ny = norm_fn(y) if ny is None else ny
    lhs = norm_fn(x + k * y)
    if math.isinf(p):
        return abs(lhs - max(nx, abs(k) * ny)) / (1.0 + nx + abs(k) * ny)
    rhs = nx**p + abs(k) ** p * ny**p
    return abs(lhs**p - rhs) / (1.0 + rhs)


def exact_linf_by_loop(x, y, tol):
    """The sup-norm inf-orthogonality test as a per-scalar loop over the
    kinks: the upper bound at the breakpoints +-A/B (and x_i = 0 where
    |y_i| = B), then the lower bound at each kink of ||x + ky|| in
    [-A/B, A/B], one scalar at a time."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ax, ay = np.abs(x), np.abs(y)
    A, B = ax.max(), ay.max()
    if A == 0.0 or B == 0.0:
        return True
    if np.any((ay >= B * (1.0 - tol)) & (ax > tol * A)):
        return False
    kstar = A / B
    slack = tol * A + 1e-15
    for s in (kstar, -kstar):
        if np.any(np.abs(x + s * y) > A + slack):
            return False
    kinks = [-kstar, kstar]
    nz = ay > 0.0
    cand = -x[nz] / y[nz]
    kinks.extend(cand[np.abs(cand) <= kstar])
    for k in kinks:
        if np.abs(x + k * y).max() < A - slack:
            return False
    return True


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(h, lo, hi, tol=1e-13):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    hc, hd = h(c), h(d)
    while b - a > tol:
        if hc >= hd:
            b, d, hd = d, c, hc
            c = b - _GOLDEN * (b - a)
            hc = h(c)
        else:
            a, c, hc = c, d, hd
            d = a + _GOLDEN * (b - a)
            hd = h(d)
    return max(hc, hd)


def restricted_norm(space, span_basis, g_values, n_dirs=720):
    """Norm of the functional g on W = span{u1, u2}, where g is given by its
    values (g(u1), g(u2)): sup |g(w)| over the unit ball of W in the ambient
    norm. Angular scan plus golden-section refinement; the objective is
    continuous on the direction circle but need not be smooth; at a kink
    the refinement's angular tolerance bounds the error, so it is 1e-13.
    `spaces.restricted_dual_norms` is checked against it.
    """
    u1, u2 = (np.asarray(u, dtype=float) for u in span_basis)
    a1, a2 = float(g_values[0]), float(g_values[1])
    M = np.stack([u1, u2])
    if np.linalg.matrix_rank(M, tol=1e-10) < 2:
        raise InputError("span basis is linearly dependent")
    if a1 == 0.0 and a2 == 0.0:
        return 0.0

    thetas = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
    cs, sn = np.cos(thetas), np.sin(thetas)
    W = np.outer(cs, u1) + np.outer(sn, u2)
    norms = batch_norms(space, W)
    vals = np.abs(a1 * cs + a2 * sn) / norms

    def h(theta: float) -> float:
        c, s = math.cos(theta), math.sin(theta)
        return abs(a1 * c + a2 * s) / norm(space, c * u1 + s * u2)

    step = 2.0 * np.pi / n_dirs
    best = float(vals.max())
    for i in np.argsort(vals)[-3:]:
        t = thetas[int(i)]
        best = max(best, _golden_max(h, t - step, t + step))
    return best


def lifted_generators(m, n, seed):
    """m random generators on the affine hyperplane x_n = 1: a pointed cone,
    generating and non-simplicial for m > n in general position."""
    rng = np.random.default_rng(seed)
    return np.hstack([rng.normal(size=(m, n - 1)), np.ones((m, 1))])


PENTAGON = np.array(
    [[1.0, 0.0, 1.0], [0.3, 1.0, 1.0], [-0.8, 0.6, 1.0], [-0.8, -0.6, 1.0], [0.3, -1.0, 1.0]]
)
_G6 = lifted_generators(6, 3, 15)
_G6B = lifted_generators(6, 4, 16)
# several (m, n); redundant generators (one on the segment between two
# generators, one inside the cone); a duplicated ray; the pentagon
NON_SIMPLICIAL_CONES = {
    "m3n2": lifted_generators(3, 2, 10),
    "m5n3": lifted_generators(5, 3, 11),
    "m8n3": lifted_generators(8, 3, 12),
    "m6n4": lifted_generators(6, 4, 13),
    "m8n5": lifted_generators(8, 5, 14),
    "redundant": np.vstack([_G6, _G6[[0, 3]].sum(axis=0), _G6.sum(axis=0)]),
    "duplicated": np.vstack([_G6B, 3.0 * _G6B[2]]),
    "pentagon": PENTAGON,
}


def basis_table(V):
    """(S, inv): row k of S lists an n-subset of the rows of V of rank n,
    by `np.linalg.matrix_rank` over every n-subset, and
    inv[k] = (V_S^T)^-1, so that for x = V^T c the basic solution on S is
    c_S = inv[k] x. The reference table of `least_l1` and
    `vertices_by_bases`; portho keeps no such table."""
    n = V.shape[1]
    S = np.array(list(itertools.combinations(range(len(V)), n)))
    S = S[np.linalg.matrix_rank(V[S], tol=1e-9) == n]
    return S, np.linalg.inv(V[S].transpose(0, 2, 1))


def distinct_rows(Z, tol=1e-9):
    """The rows of Z, each kept unless it lies within tol times Z's largest
    entry of a row kept before it."""
    kept = np.empty_like(Z)
    k, scale = 0, np.abs(Z).max(initial=0.0)
    for z in Z:
        if k == 0 or np.abs(kept[:k] - z).max(axis=1).min() > tol * scale:
            kept[k], k = z, k + 1
    return kept[:k]


def vertices_by_bases(V, w):
    """The vertices of {z : |V z| <= w}, by the bases of `basis_table`:
    the basic solutions z = inv_k^T (w_S s) over the sign vectors s with
    |V z| <= w (1 + 1e-9), each vertex once (`distinct_rows`; a degenerate
    vertex is the basic solution of several bases)."""
    n = V.shape[1]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    S, inv = basis_table(V)
    Z = np.einsum("kji,ksj->ksi", inv, w[S][:, None, :] * signs).reshape(-1, n)
    return distinct_rows(Z[np.all(np.abs(Z @ V.T) <= w * (1.0 + 1e-9), axis=1)])


def facets_by_subsets(G):
    """The unit facet normals of the cone spanned by the rows of G (which
    span R^n, n >= 2), by a loop over the (n-1)-subsets of G of rank n - 1:
    the unit normal h of the subset's span, signed so that G h >= 0, is a
    facet normal when G h >= -1e-10 |g| holds for every generator g; each
    facet once (`distinct_rows`)."""
    n = G.shape[1]
    found = []
    for rows in itertools.combinations(range(len(G)), n - 1):
        _, s, vt = np.linalg.svd(G[list(rows)])
        if s[-1] <= 1e-10 * s[0]:
            continue
        h = vt[-1]
        P = G @ h
        if P.sum() < 0.0:
            h, P = -h, -P
        if np.all(P >= -1e-10 * np.linalg.norm(G, axis=1)):
            found.append(h)
    return distinct_rows(np.array(found).reshape(-1, n))


def least_l1(X, bases, w):
    """min sum_i w_i |c_i| over V^T c = x, for each row x of X, by brute
    force over the table (S, inv) of V's bases: w > 0, so the LP has an
    optimal basic solution c_S = inv_k x. The base norm (V the generators,
    w = G phi) and the order-unit dual norm (V the facet normals, w = H e)
    are this form; portho evaluates it as the max-ratio form of its dual
    ball's vertices or, above the table cap, by the dual-ball LP."""
    S, inv = bases
    return (np.abs(np.einsum("kij,rj->rki", inv, np.asarray(X, dtype=float))) * w[S]).sum(axis=2).min(axis=1)


# a cone whose tables the subset enumerations portho once used could not
# build: its C(11, 5) = 462 subsets of n - 1 generators gave its 50 facet
# normals, but its C(11, 6) * 2^6 = 29,568 generator vertex candidates (and
# C(50, 6) * 2^6 facet ones) were above their cap, so its base norm and
# order-unit dual norm took one LP per row. The double description engine
# builds its 336 generator and 724 facet vertices. The generators are
# rounded to six decimals, as in tests/data/base_between_caps.json
BETWEEN_CAPS = np.round(lifted_generators(11, 6, 17), 6)


def pairing(f, x) -> float:
    """Duality pairing: the coordinate dot product, which is trace(F X) on
    row-major flattenings of symmetric matrices."""
    return float(np.asarray(f, dtype=float) @ np.asarray(x, dtype=float))


def reconstruct(dec) -> np.ndarray:
    """The matrix Q^T diag(eigenvalues) Q of a `linalg.SpectralDecomposition`."""
    return dec.eigenvectors.T @ np.diag(dec.eigenvalues) @ dec.eigenvectors


def _encode_num(x: float):
    return "inf" if math.isinf(x) else x


def serialize_space_spec(space) -> str:
    """The JSON space spec `cli.parse_space_spec` reads back to space."""
    cone = space.cone
    if cone.kind == "nonneg":
        cobj = {"kind": "nonneg"}
    elif cone.kind == "rays":
        cobj = {"kind": "rays", "generators": cone.generators.tolist()}
    else:
        cobj = {"kind": "psd", "side": cone.side}
    n = space.norm
    if n.kind == "lp":
        nobj = {"kind": "lp", "p": _encode_num(n.p)}
        if n.weights is not None:
            nobj["weights"] = n.weights.tolist()
    elif n.kind == "order_unit":
        nobj = {"kind": "order_unit", "unit": n.unit.tolist()}
    elif n.kind == "base":
        nobj = {"kind": "base", "phi": n.phi.tolist()}
    else:
        nobj = {"kind": n.kind}
    return json.dumps(
        {"dim": space.dim, "cone": cobj, "norm": nobj, "p_class": _encode_num(space.p_class)}
    )


def additivity_spotcheck(space, U, p, samples=25, seed=0) -> list:
    """Falsification of additivity on the span of a p-orthonormal set U: for
    random x in the span of one block of U and y, z in the span of the rest,
    x perp y and x perp z must imply x perp (y + z). Returns the residual and
    witness of each failed sample (empty when U has fewer than two vectors)."""
    vectors = [np.asarray(u, dtype=float) for u in U]
    failures = []
    if len(vectors) < 2:
        return failures
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        cut = int(rng.integers(1, len(vectors)))
        perm = rng.permutation(len(vectors))
        x = sum(rng.normal() * vectors[i] for i in perm[:cut])
        y = sum(rng.normal() * vectors[i] for i in perm[cut:])
        z = sum(rng.normal() * vectors[i] for i in perm[cut:])
        if not (p_orthogonal(space, x, y, p).is_orthogonal and p_orthogonal(space, x, z, p).is_orthogonal):
            continue
        v = p_orthogonal(space, x, y + z, p)
        if not v.is_orthogonal:
            failures.append((v.worst_residual, v.witness_k))
    return failures


def decompose_l1_lp(space, v):
    """u1 = B a, u2 = B b with a, b >= 0 and B (a - b) = v minimizing
    sum_j (a_j + b_j) ||g_j|| (B the generators as columns), solved by the
    simplex: every positive decomposition is (B (c+ + w), B (c- + w)) with
    w >= 0, so its optimum is the coefficient split."""
    B = space.cone.coefficient_basis[0]
    m = B.shape[1]
    cost = batch_norms(space, B.T)
    obj = -np.concatenate([cost, cost])
    out = solve_lp(LpProblem(objective=obj, eq=np.hstack([B, -B]), eq_rhs=v))
    if out.status != "optimal":
        raise InputError("decomposition LP infeasible: v outside the span of the cone")
    return B @ out.argument[:m], B @ out.argument[m:]


def crust_lp(space, u):
    """Maximize f(e) over f in the dual cone with f(u) = 0 and f(e) <= 1: the
    maximizer scaled to f(e) = 1 if the optimum reaches 1, else None."""
    G, e = generator_matrix(space.cone), space.norm.unit
    out = solve_lp(LpProblem(
        objective=e, eq=u[None], eq_rhs=[0.0],
        ineq=np.vstack([-G, e]), ineq_rhs=np.append(np.zeros(len(G)), 1.0),
        free=np.ones(space.dim, bool),
    ))
    if out.status != "optimal" or out.optimum < 1.0 - 1e-9:
        return None
    return out.argument / float(out.argument @ e)


def positive_support_base_two_stage_lp(space, u):
    """Two stages over the positive f with f(g_i) <= phi(g_i) (g_i the
    generators): maximize f(u), then, among those optimizers, minimize the
    total mass on the generators."""
    G, phi = space.cone.generators, space.norm.phi
    m, n = G.shape
    ineq, rhs = np.vstack([G, -G]), np.append(G @ phi, np.zeros(m))
    out = solve_lp(LpProblem(objective=u, ineq=ineq, ineq_rhs=rhs, free=np.ones(n, bool)))
    if out.status != "optimal":
        raise InputError("positive support LP failed")
    out2 = solve_lp(LpProblem(
        objective=-G.sum(axis=0), eq=u[None], eq_rhs=[out.optimum],
        ineq=ineq, ineq_rhs=rhs, free=np.ones(n, bool),
    ))
    return out2.argument if out2.status == "optimal" else out.argument
