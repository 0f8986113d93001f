"""Deciding p-orthogonality.

The defining identity quantifies over every real scalar k, which a norm
oracle cannot certify in general; the numeric decider is a semi-decision
over one geometric grid of scalars, `K_GRID`. Its (|k|, k) order is
computed once, at import, so a decision at finite p sorts nothing; only for
p = inf does a decision pay one lexsort, to merge the sweep around
|k| = ||x||/||y|| (one fixed array of ratios, scaled per decision) into the
grid. At finite p a decision is one pass of the row oracle: x and y ride
in the first block of the grid rows x + k y. At p = inf it is two, since
the sweep needs ||x|| and ||y|| first. The one setting of a decision is
its tolerance `tol`.

Where the geometry gives an exact answer, `p_orthogonal` takes it instead:
at p = 1 and p = inf every norm is decided by `_unit_rule`, which reads
the norms of x/||x|| +- y/||y|| (Theorem 3.3 (1)'s test with both signs),
through `_end_verdict`, which `decomp.dual_one_orth_decompose` calls too
with the norms of x and y scaled to unit largest entry that it has read;
at 1 < p < inf no pair of nonzero vectors is orthogonal in a max-ratio, l1
or solver form, which is piecewise linear; a weighted lp norm at its own
p, scaled to the plain lp norm, is decided by `p_orthogonal_exact`
(disjoint supports, or a zero inner product at p = 2). An exact
"not_orthogonal" reports the largest residual of the identity over six
scalars, +-{1, 16, 256} ||x||/||y||, and runs no grid. The grid decides the
rest: a power form away from its own p and an eigen form at 1 < p < inf.
The verdict's `method` says which route answered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .spaces import (
    L1,
    MAX,
    POWER,
    SOLVER,
    SpaceSpec,
    _check_vec,
    _evaluate,
    _form,
    batch_dual_norms,
    batch_norms,
    check_exponent,
    norm,
    sup_space,
)

INF = math.inf

# entries of one block of the grid x + k y that the grid decider hands the
# row oracle: one block holds the whole grid at small dimension and bounds
# memory at large. A block is at least one row, and the first at finite p
# holds x and y, so an oracle call gets at most max(2^15 entries, two rows)
_BLOCK_ENTRIES = 2**15

# the decider's scalars, sorted: 0 and +-2^j for j = -8..8 (35 scalars)
K_GRID = tuple(sorted({0.0} | {s * 2.0**j for j in range(-8, 9) for s in (1.0, -1.0)}))

# ratios t of the p = inf sweep: the scalars +-t ||x||/||y|| around the
# crossing of the two sides of the max-form identity
_SWEEP = np.concatenate([np.linspace(1.0 / 16.0, 2.0, 48), [1.0 - 2**-8, 1.0, 1.0 + 2**-8]])


def _order_unique(k: np.ndarray) -> np.ndarray:
    """The distinct scalars of k ordered by (|k|, k): small scalars first, so
    the first argmax of the residual is the least-magnitude witness. The
    sort is stable, so of 0.0 and -0.0 the one that comes first in k stays."""
    k = k[np.lexsort((k, np.abs(k)))]
    keep = np.empty(k.size, dtype=bool)
    keep[0] = True
    np.not_equal(k[1:], k[:-1], out=keep[1:])
    return k[keep]


_K_ORDER = _order_unique(np.array(K_GRID))  # K_GRID in (|k|, k) order
_K_ORDER.flags.writeable = False

# the scalars of an exact "not_orthogonal"'s witness, in units of
# ||x||/||y||, in (|k|, k) order
_WITNESS_T = np.array([-1.0, 1.0, -16.0, 16.0, -256.0, 256.0])


def check_tol(tol: float) -> None:
    """Raise InputError unless the tolerance tol is finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"tol must be finite and nonnegative, got {tol}")


@dataclass(frozen=True)
class OrthoVerdict:
    """A decision of x perp_p y at the tolerance tol (finite, nonnegative).

    On the grid route (method "grid") worst_residual is the largest scaled
    residual of the identity over the scalars k_grid (`K_GRID`, plus the
    sweep around |k| = ||x||/||y|| at p = inf), attained at witness_k; it is
    "orthogonal" when that residual is at most tol, which is evidence, not
    proof. On the exact route ("exact": `_unit_rule` at p = 1 and inf, a
    power form at its own p, or a max-ratio, l1 or solver form at
    1 < p < inf; tol is relative to the norms of x and y scaled to unit
    largest entry) the verdict is decided: an "orthogonal" one carries
    residual 0.0, witness 0.0 and an empty k_grid; a "not_orthogonal" one
    carries the largest scaled residual over the six scalars
    k_grid = +-{1, 16, 256} ||x||/||y||, attained at witness_k, with no grid
    run (that residual lies below the tolerance when the violation
    falls between those scalars)."""

    verdict: str  # "orthogonal" | "not_orthogonal"
    worst_residual: float
    witness_k: float
    k_grid: tuple
    method: str = "grid"  # "grid" | "exact"

    @property
    def is_orthogonal(self) -> bool:
        return self.verdict == "orthogonal"


def verdict_from_norm(norms_fn, x, y, p: float, tol: float = 1e-9) -> OrthoVerdict:
    """Grid semi-decision of x perp_p y against a row oracle: norms_fn(W)
    returns the norms of the rows of W as an array. Each oracle call gets
    at most max(`_BLOCK_ENTRIES` entries, two rows): blocks of grid rows
    within `_BLOCK_ENTRIES`, one row each above that many entries a row,
    and x and y together. At finite p the first block holds x and y ahead
    of the first rows x + k y, so one pass reads the norms and the grid; at
    p = inf the sweep scales with ||x||/||y||, so x and y go first on their
    own, then the grid."""
    check_tol(tol)
    check_exponent(p)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputError(f"x and y must be vectors of one length, got {x.shape} and {y.shape}")
    rows = max(1, _BLOCK_ENTRIES // max(1, x.size))
    k = _K_ORDER
    head = 0 if math.isinf(p) else min(k.size, max(0, rows - 2))  # grid rows in the first block
    W = np.empty((2 + head, x.size))
    W[0], W[1] = x, y
    if not np.isfinite(W[:2]).all():
        raise InputError("x and y must have finite entries")
    if head:
        G = W[2:]
        np.multiply(k[:head, None], y, out=G)
        np.add(G, x, out=G)  # x + k y, bit for bit: IEEE addition commutes
    first = norms_fn(W)
    nx, ny = first[:2].tolist()
    if nx == 0.0 or ny == 0.0:
        # the identity holds identically when either argument is zero
        return OrthoVerdict("orthogonal", 0.0, 0.0, K_GRID)
    if math.isinf(p):
        # the two sides of the max-form identity cross at |k| = ||x||/||y||;
        # violations concentrate there, so sweep that neighbourhood too
        r = nx / ny
        k = _order_unique(np.concatenate([_K_ORDER, r * _SWEEP, -r * _SWEEP]))
        grid = tuple(np.sort(k).tolist())
    else:
        grid = K_GRID
    parts = [first[2:]] if head else []
    parts += [norms_fn(x + k[i:i + rows, None] * y) for i in range(head, k.size, rows)]
    lhs = parts[0] if len(parts) == 1 else np.concatenate(parts)
    res = _residuals(lhs, nx, ny, k, p)
    i = int(np.argmax(res))
    worst = float(res[i])
    verdict = "orthogonal" if worst <= tol else "not_orthogonal"
    return OrthoVerdict(verdict, worst, float(k[i]), grid)


def _residuals(lhs: np.ndarray, nx: float, ny: float, k: np.ndarray, p: float) -> np.ndarray:
    """The scaled residuals of the identity at the scalars k, given
    lhs = ||x + k y||, nx = ||x|| and ny = ||y||: at p = inf
    |lhs - max(nx, |k| ny)| / (1 + nx + |k| ny), else |lhs^p - rhs| / (1 + rhs)
    with rhs = nx^p + |k|^p ny^p. The normalizer includes the |k| term so the
    tolerance is scale-stable across the whole scalar grid."""
    ak = np.abs(k)
    if math.isinf(p):
        res = np.abs(lhs - np.maximum(nx, ak * ny)) / (1.0 + nx + ak * ny)
    else:
        try:
            nxp, nyp = nx**p, ny**p
        except OverflowError as exc:
            # an inf here would make the residual at k = 0 NaN, which the
            # skip below reads as no violation, even for x perp x
            raise InputError(
                f"input magnitude out of range: ||x||^p or ||y||^p overflows at p = {p:g}"
            ) from exc
        rhs = nxp + ak**p * nyp
        res = np.abs(lhs**p - rhs) / (1.0 + rhs)
    # a residual lost to overflow (inf - inf at large |k|) shows no violation;
    # argmax would otherwise stop at the NaN
    res[np.isnan(res)] = 0.0
    return res


def p_orthogonal_numeric(
    space: SpaceSpec, x, y, p: float, tol: float = 1e-9, dual: bool = False
) -> OrthoVerdict:
    """Grid semi-decision of x perp_p y in the norm of the space, or in its
    dual norm for dual=True (the row oracle is then batch_dual_norms)."""
    batch = batch_dual_norms if dual else batch_norms
    return verdict_from_norm(lambda W: batch(space, W), x, y, p, tol)


def p_orthogonal(
    space: SpaceSpec, x, y, p: float, tol: float = 1e-9, dual: bool = False
) -> OrthoVerdict:
    """Decide x perp_p y in the norm of the space, or in its dual norm for
    dual=True. Exactly, on x and y scaled to unit largest entry at the
    relative tolerance tol: at p = 1 and inf for every form by `_unit_rule`;
    for a power form at its own p in the lp norm of the coordinates scaled
    by w^(1/p) (`p_orthogonal_exact`); and for a max-ratio, l1 or solver
    form at 1 < p < inf as "not_orthogonal" whenever x, y != 0 (the form is
    piecewise linear: near k = 0, ||x + k y|| = ||x|| + s k on each side,
    and the identity's o(k) right side forces s = 0, after which the left
    side stays ||x||^p while the right side grows). On the grid where none
    applies: a power form away from its own p, an eigen form at
    1 < p < inf. An exact "not_orthogonal" carries `_witness`'s residual."""
    check_tol(tol)
    check_exponent(p)
    form = _form(space, dual)
    power = form.kind == POWER and p == form.p
    ends = p == 1.0 or math.isinf(p)
    kinked = not ends and form.kind in (MAX, L1, SOLVER)
    if not (ends or power or kinked):
        return p_orthogonal_numeric(space, x, y, p, tol, dual)
    x, y = _check_vec(space, x), _check_vec(space, y)
    xy = np.array([x, y])
    if power and form.w is not None:
        xy = xy * form.w ** (1.0 / p)
    m = np.abs(xy).max(axis=1)
    mx, my = m.tolist()  # NaN or inf if an entry is
    if not (math.isfinite(mx) and math.isfinite(my)):
        raise InputError("x and y must have finite entries")
    if mx == 0.0 or my == 0.0:
        orthogonal = True
    elif ends:
        unit = xy / m[:, None]
        return _end_verdict(space, x, y, m, unit, _evaluate(space, unit, dual), p, tol, dual)
    else:
        orthogonal = power and p_orthogonal_exact(xy[0] / mx, xy[1] / my, p, tol)
    if orthogonal:
        return OrthoVerdict("orthogonal", 0.0, 0.0, (), "exact")
    return _witness(space, x, y, p, dual, None)


def _end_verdict(space: SpaceSpec, x, y, m, unit, n, p: float, tol: float, dual: bool) -> OrthoVerdict:
    """`p_orthogonal` at p = 1 or inf of x and y, given m, their largest
    |entries|, unit, the rows x / m[0] and y / m[1], and n, those rows'
    (dual) norms: "orthogonal" where x or y is 0 or `_unit_rule` holds, else
    `_witness` with the norms m * n of x and y (homogeneity)."""
    if 0.0 in m.tolist() or _unit_rule(space, unit / n[:, None], p, tol, dual):
        return OrthoVerdict("orthogonal", 0.0, 0.0, (), "exact")
    return _witness(space, x, y, p, dual, m * n)


def _witness(
    space: SpaceSpec, x: np.ndarray, y: np.ndarray, p: float, dual: bool, nxy: np.ndarray | None
) -> OrthoVerdict:
    """The exact "not_orthogonal" of x, y != 0 with the largest residual of
    the identity (`_residuals`) over the six scalars k = +-r {1, 16, 256},
    r = ||x|| / ||y||, and its witness: the first, in (|k|, k) order, to
    attain it. It evaluates the six rows x + k y (not the scaled or
    weighted copies the exact tests read), and the norms of x and y unless
    the caller passes them as nxy (at p = 1 and inf, the norms of x and y
    scaled to unit largest entry that `_unit_rule` reads, times the scale).
    The residual lies below the tolerance where the violation falls between
    these scalars. Where r is 0 or not finite (a norm lost to underflow or
    overflow), the scalars are +-{1, 16, 256}."""
    if nxy is None:
        nxy = _evaluate(space, np.array([x, y]), dual)
    nx, ny = nxy.tolist()
    r = nx / ny if ny > 0.0 else INF
    k = (r if 0.0 < r < INF else 1.0) * _WITNESS_T
    res = _residuals(_evaluate(space, x + k[:, None] * y, dual), nx, ny, k, p)
    i = int(np.argmax(res))
    return OrthoVerdict("not_orthogonal", float(res[i]), float(k[i]), tuple(np.sort(k).tolist()), "exact")


def _unit_rule(space: SpaceSpec, uv: np.ndarray, p: float, tol: float, dual: bool) -> bool:
    """x perp_p y for x, y != 0, at p = 1 or inf, in any norm, from the rows
    u = x/||x|| and v = y/||y|| of uv: x perp_1 y iff ||u +- v|| = 2 and
    x perp_inf y iff ||u +- v|| = 1, within the relative tolerance tol.
    These are the identity at k = +-r, r = ||x||/||y||, and the convexity of
    g(k) = ||x + k y|| carries them to every k. At p = 1, L(k) = ||x|| +
    |k| ||y|| bounds g above and meets it at +-r, so it bounds g below too:
    for |k| <= r by the triangle inequality from x + k y to x +- r y, beyond
    by convexity (g lies above its secant through 0 and +-r). At p = inf,
    g <= ||x|| on [-r, r] and g(k) + g(-k) >= 2 g(0) give g = ||x|| there,
    and ||y + s x|| on [-1/r, 1/r] gives the rest."""
    c = 2.0 if p == 1.0 else 1.0
    s = _evaluate(space, np.array([uv[0] + uv[1], uv[0] - uv[1]]), dual)
    return bool(np.abs(s - c).max() <= tol * c)


def p_orthogonal_exact(x, y, p: float, tol: float = 1e-12) -> bool:
    """Exact oracle in the standard coordinate lp space: zero inner product
    for p = 2, disjoint supports for finite p != 2, and `p_orthogonal` on
    the sup space for p = inf."""
    check_exponent(p)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError("shape mismatch")
    if p == 2.0:
        scale = 1.0 + np.abs(x).max() * np.abs(y).max()
        return bool(abs(float(x @ y)) <= tol * scale)
    if math.isinf(p):
        return p_orthogonal(sup_space(x.size), x, y, INF, tol).is_orthogonal
    return not bool(np.any((np.abs(x) > tol) & (np.abs(y) > tol)))


@dataclass(frozen=True)
class OrthoSetReport:
    pairwise_ok: bool
    unit_norms_ok: bool
    total: bool
    failures: tuple = field(default_factory=tuple)

    @property
    def all_ok(self) -> bool:
        return self.pairwise_ok and self.unit_norms_ok and self.total


def orthonormal_set_verify(space: SpaceSpec, U, p: float, tol: float = 1e-9) -> OrthoSetReport:
    """Check that U is a p-orthonormal set, deciding every pair through
    `p_orthogonal`. The report's fields:

    unit_norms_ok  every vector has norm one, within tol;
    pairwise_ok    every pair is p-orthogonal;
    total          U spans the space (rank equal to the dimension);
    failures       one entry per failed unit norm or pair.
    """
    check_tol(tol)
    check_exponent(p)  # a set of one vector decides no pair
    vectors = [np.asarray(u, dtype=float) for u in U]
    if not vectors:
        raise InputError("set must be nonempty")
    if any(np.abs(u).max() == 0.0 for u in vectors):
        raise InputError("set must not contain the zero vector")

    failures = []
    unit_ok = True
    for i, u in enumerate(vectors):
        if abs(norm(space, u) - 1.0) > tol:
            unit_ok = False
            failures.append(("unit_norm", i, norm(space, u)))
    pairwise_ok = True
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            v = p_orthogonal(space, vectors[i], vectors[j], p, tol)
            if not v.is_orthogonal:
                pairwise_ok = False
                failures.append(("pairwise", (i, j), v.worst_residual, v.witness_k))
    M = np.stack(vectors)
    total = np.linalg.matrix_rank(M, tol=1e-10) == space.dim
    return OrthoSetReport(pairwise_ok, unit_ok, bool(total), tuple(failures))
