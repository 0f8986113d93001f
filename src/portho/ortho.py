"""Deciding p-orthogonality.

The defining identity quantifies over every real scalar k, which a norm
oracle cannot certify in general; the numeric decider is a semi-decision
over a geometric grid of scalars. Each `OrthoConfig` orders its grid by
(|k|, k) and deduplicates it once, when it is built (the default grid once,
at import), so a decision at finite p sorts nothing; only for p = inf does
a decision pay one lexsort, to merge the sweep around |k| = ||x||/||y||
(one fixed array of ratios, scaled per decision) into the grid.

Where the geometry gives an exact answer, `p_orthogonal` takes it instead:
where the norm's closed form is a coordinate form at its own exponent: a
weighted lp, sup or lp inf norm at its exponent over any cone, and over the
orthant the order-unit norm at p = inf and the base norm (the phi-weighted
l1 norm) at p = 1. Scaling the coordinates (by w^(1/p), or 1/w for the max
form) turns each of them into the plain coordinate lp norm, where
`p_orthogonal_exact` decides structurally:
disjoint supports, a zero inner product for p = 2, and a piecewise-linear
analysis for p = inf. Every other space goes to the grid. The verdict's
`method` says which route answered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError
from .cones import cone_contains
from .spaces import (
    L1,
    MAX,
    POWER,
    SpaceSpec,
    _check_vec,
    _form,
    batch_dual_norms,
    batch_norms,
    norm,
)

INF = math.inf

_DEFAULT_GRID = tuple(
    sorted({0.0} | {s * 2.0**j for j in range(-8, 9) for s in (1.0, -1.0)})
)

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


def _ordered_grid(ks: tuple):
    """The distinct scalars of ks in (|k|, k) order, as a read-only array,
    and sorted, as a tuple."""
    order = _order_unique(np.array(ks))
    order.flags.writeable = False
    return order, tuple(np.sort(order).tolist())


# shared by every config on the default grid
_DEFAULT_ORDERED = _ordered_grid(_DEFAULT_GRID)


@dataclass(frozen=True)
class OrthoConfig:
    """The decider's scalar grid (finite, with 0 and scalars of both signs)
    and its tolerance (finite, nonnegative): on the residual of the grid
    route, relative to the largest entry on the exact route.

    Each instance holds its grid's distinct scalars in (|k|, k) order and
    as a sorted tuple, computed once here, never looked up by grid value:
    grids that differ only in the sign of zero compare equal as tuples."""

    k_grid: tuple = _DEFAULT_GRID
    tol: float = 1e-9
    _order: np.ndarray = field(init=False, repr=False, compare=False)
    _sorted: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k_grid is _DEFAULT_GRID:
            order, grid = _DEFAULT_ORDERED
        else:
            try:
                ks = tuple(map(float, self.k_grid))
            except (TypeError, ValueError) as exc:
                raise InputError(f"k grid must hold real scalars: {exc}") from exc
            if not all(map(math.isfinite, ks)):
                raise InputError("k grid must hold finite scalars")
            if 0.0 not in ks or not any(k > 0 for k in ks) or not any(k < 0 for k in ks):
                raise InputError("k grid must contain 0 and scalars of both signs")
            object.__setattr__(self, "k_grid", ks)
            order, grid = _ordered_grid(ks)
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise InputError(f"tol must be finite and nonnegative, got {self.tol}")
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_sorted", grid)


_DEFAULT_CONFIG = OrthoConfig()


@dataclass(frozen=True)
class OrthoVerdict:
    """A decision of x perp_p y.

    On the grid route (method "grid") worst_residual is the largest scaled
    residual of the identity over the scalars k_grid, attained at witness_k;
    its "orthogonal" is evidence, not proof. On the exact route ("exact")
    the verdict is decided: an "orthogonal" one carries residual 0.0,
    witness 0.0 and an empty k_grid; a "not_orthogonal" one carries the grid
    decider's residual, witness and grid, so only failures pay for the grid
    (that residual lies below the tolerance when the violation falls
    between the grid's scalars)."""

    verdict: str  # "orthogonal" | "not_orthogonal" | "inconclusive"
    worst_residual: float
    witness_k: float
    k_grid: tuple
    method: str = "grid"  # "grid" | "exact"

    @property
    def is_orthogonal(self) -> bool:
        return self.verdict == "orthogonal"


# entries of the k-grid matrix x + k y handed to the row oracle at once: one
# block holds the whole grid at small dimension and bounds memory at large
_BLOCK_ENTRIES = 2**15


def verdict_from_norm(norms_fn, x, y, p: float, cfg: OrthoConfig | None = None) -> OrthoVerdict:
    """Grid semi-decision of x perp_p y against a row oracle: norms_fn(W)
    returns the norms of the rows of W as an array."""
    if p < 1:
        raise InputError("invalid exponent")
    cfg = _DEFAULT_CONFIG if cfg is None else cfg
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputError(f"x and y must be vectors of one length, got {x.shape} and {y.shape}")
    xy = np.stack([x, y])
    if not np.isfinite(xy).all():
        raise InputError("x and y must have finite entries")
    nx, ny = norms_fn(xy).tolist()
    if nx == 0.0 or ny == 0.0:
        # the identity holds identically when either argument is zero
        return OrthoVerdict("orthogonal", 0.0, 0.0, cfg._sorted)
    if math.isinf(p):
        # the two sides of the max-form identity cross at |k| = ||x||/||y||;
        # violations concentrate there, so sweep that neighbourhood too
        r = nx / ny
        k = _order_unique(np.concatenate([cfg._order, r * _SWEEP, -r * _SWEEP]))
        grid = tuple(np.sort(k).tolist())
    else:
        k, grid = cfg._order, cfg._sorted
    rows = max(1, _BLOCK_ENTRIES // x.size)
    lhs = np.concatenate(
        [norms_fn(x + k[i:i + rows, None] * y) for i in range(0, k.size, rows)]
    )
    # the normalizer includes the |k| term so the tolerance is scale-stable
    # across the whole scalar grid
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
    i = int(np.argmax(res))
    worst = float(res[i])
    verdict = "orthogonal" if worst <= cfg.tol else "not_orthogonal"
    return OrthoVerdict(verdict, worst, float(k[i]), grid)


def p_orthogonal_numeric(
    space: SpaceSpec, x, y, p: float, cfg: OrthoConfig | None = None
) -> OrthoVerdict:
    return verdict_from_norm(lambda W: batch_norms(space, W), x, y, p, cfg)


def dual_p_orthogonal_numeric(
    space: SpaceSpec, f, g, p: float, cfg: OrthoConfig | None = None
) -> OrthoVerdict:
    """Same decision taken in the dual: the row oracle is batch_dual_norms."""
    return verdict_from_norm(lambda F: batch_dual_norms(space, F), f, g, p, cfg)


def p_orthogonal(
    space: SpaceSpec, x, y, p: float, cfg: OrthoConfig | None = None
) -> OrthoVerdict:
    """Decide x perp_p y: exactly where `_exact_scale` finds the norm to be
    a coordinate lp norm at exponent p, on the grid elsewhere. The exact
    test runs on x and y scaled to unit largest entry, at the relative
    tolerance cfg.tol."""
    scale = _exact_scale(space, p)
    if scale is None:
        return p_orthogonal_numeric(space, x, y, p, cfg)
    cfg = _DEFAULT_CONFIG if cfg is None else cfg
    sx, sy = scale * _check_vec(space, x), scale * _check_vec(space, y)
    mx, my = np.abs(sx).max(), np.abs(sy).max()  # NaN or inf if an entry is
    if not (math.isfinite(mx) and math.isfinite(my)):
        raise InputError("x and y must have finite entries")
    if mx == 0.0 or my == 0.0 or p_orthogonal_exact(sx / mx, sy / my, p, cfg.tol):
        return OrthoVerdict("orthogonal", 0.0, 0.0, (), "exact")
    v = p_orthogonal_numeric(space, x, y, p, cfg)
    return replace(v, verdict="not_orthogonal", method="exact")


def _exact_scale(space: SpaceSpec, p: float):
    """Coordinate scaling s with ||x|| = ||s x||_p for every x, where the
    norm is a coordinate form at its own exponent p: a max-ratio form at
    p = inf (s = 1/w), a least-l1 form at p = 1 and a power form at its p
    (s = w^(1/p)). The scaling keeps supports, and at p = 2 it turns the
    plain inner product into the weighted one. None for every other form."""
    form = _form(space)
    own = {MAX: INF, L1: 1.0, POWER: form.p}.get(form.kind)
    if own != p or form.V is not None or form.bases is not None:
        return None
    if form.w is None:
        return 1.0
    return 1.0 / form.w if form.kind == MAX else form.w ** (1.0 / p)


def p_orthogonal_exact(x, y, p: float, tol: float = 1e-12) -> bool:
    """Exact oracle in the standard coordinate lp space: zero inner product
    for p = 2, disjoint supports for finite p != 2, and the closed-form
    piecewise-linear analysis for p = inf (where disjoint supports is
    sufficient but not necessary)."""
    if p < 1:
        raise InputError("invalid exponent")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InputError("shape mismatch")
    if p == 2.0:
        scale = 1.0 + np.abs(x).max() * np.abs(y).max()
        return bool(abs(float(x @ y)) <= tol * scale)
    if math.isinf(p):
        return _exact_linf(x, y, tol)
    return not bool(np.any((np.abs(x) > tol) & (np.abs(y) > tol)))


def _exact_linf(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    """x perp_inf y in sup norm. Both sides of the identity are piecewise
    linear in k, so equality for all k reduces to finitely many checks:

    upper bound:  per coordinate, |x_i + k y_i| <= max(A, |k| B) holds for
      every k iff it holds at the breakpoints k = +-A/B and, when |y_i| = B,
      x_i = 0 (otherwise one asymptotic direction overshoots);
    lower bound:  given the upper conditions, ||x + ky|| >= |k| B is
      automatic outside [-A/B, A/B], and on that interval the convex
      piecewise-linear ||x + ky|| must stay >= A, which is checked at its
      kinks and the interval endpoints.
    """
    ax, ay = np.abs(x), np.abs(y)
    A, B = ax.max(), ay.max()
    if A == 0.0 or B == 0.0:
        return True
    if ((ay >= B * (1.0 - tol)) & (ax > tol * A)).any():
        return False
    kstar = A / B
    slack = tol * A + 1e-15
    nz = ay > 0.0
    cand = -x[nz] / y[nz]
    # one row per scalar: the breakpoints +-A/B, then the kinks of
    # ||x + ky|| between them
    k = np.concatenate([[kstar, -kstar], cand[np.abs(cand) <= kstar]])
    V = np.abs(x + k[:, None] * y)
    if V[:2].max() > A + slack:
        return False
    return bool(V.max(axis=1).min() >= A - slack)


def infty_positive_test(space: SpaceSpec, u1, u2, tol: float = 1e-9) -> bool:
    """For u1, u2 in the positive cone of an infinity-smooth space,
    u1 perp_inf u2 iff the normalized sum has norm one; the plus/minus norm
    equality is checked alongside as a consistency condition."""
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if not math.isinf(space.p_class):
        raise InputError("test applies to infinity-smooth spaces only")
    n1, n2 = norm(space, u1), norm(space, u2)
    if n1 == 0.0 or n2 == 0.0:
        raise InputError("arguments must be nonzero")
    if not (cone_contains(space.cone, u1, tol=1e-7 * n1) and cone_contains(space.cone, u2, tol=1e-7 * n2)):
        raise InputError("arguments must lie in the positive cone")
    v1, v2 = u1 / n1, u2 / n2
    plus = norm(space, v1 + v2)
    minus = norm(space, v1 - v2)
    return abs(plus - 1.0) <= tol and abs(plus - minus) <= tol


@dataclass(frozen=True)
class OrthoSetReport:
    pairwise_ok: bool
    unit_norms_ok: bool
    total: bool
    additivity_spotcheck: bool
    failures: tuple = field(default_factory=tuple)

    @property
    def all_ok(self) -> bool:
        return self.pairwise_ok and self.unit_norms_ok and self.total and self.additivity_spotcheck


def orthonormal_set_verify(
    space: SpaceSpec,
    U,
    p: float,
    cfg: OrthoConfig | None = None,
    spotcheck_samples: int = 25,
    seed: int = 0,
) -> OrthoSetReport:
    """Check that U is a p-orthonormal set, deciding every pair through
    `p_orthogonal`. The report's fields:

    unit_norms_ok         every vector has norm one, within cfg.tol;
    pairwise_ok           every pair is p-orthogonal;
    total                 U spans the space (rank equal to the dimension);
    additivity_spotcheck  no falsified additivity: for spotcheck_samples
                          random x in the span of one block of U and y, z
                          in the span of the rest, x perp y and x perp z
                          imply x perp (y + z). The check runs only when
                          spotcheck_samples > 0 and U has two or more
                          vectors, drawing from a generator seeded with
                          seed; otherwise the field reads True;
    failures              one entry per failed unit norm, pair or sample.
    """
    cfg = _DEFAULT_CONFIG if cfg is None else cfg
    vectors = [np.asarray(u, dtype=float) for u in U]
    if not vectors:
        raise InputError("set must be nonempty")
    if any(np.abs(u).max() == 0.0 for u in vectors):
        raise InputError("set must not contain the zero vector")

    failures = []
    unit_ok = True
    for i, u in enumerate(vectors):
        if abs(norm(space, u) - 1.0) > cfg.tol:
            unit_ok = False
            failures.append(("unit_norm", i, norm(space, u)))
    pairwise_ok = True
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            v = p_orthogonal(space, vectors[i], vectors[j], p, cfg)
            if not v.is_orthogonal:
                pairwise_ok = False
                failures.append(("pairwise", (i, j), v.worst_residual, v.witness_k))
    M = np.stack(vectors)
    total = np.linalg.matrix_rank(M, tol=1e-10) == space.dim

    # additivity falsification: x from one block of the set, y, z from the rest
    additivity_ok = True
    if len(vectors) >= 2 and spotcheck_samples > 0:
        rng = np.random.default_rng(seed)
        for _ in range(spotcheck_samples):
            cut = int(rng.integers(1, len(vectors)))
            perm = rng.permutation(len(vectors))
            x = sum(rng.normal() * vectors[i] for i in perm[:cut])
            y = sum(rng.normal() * vectors[i] for i in perm[cut:])
            z = sum(rng.normal() * vectors[i] for i in perm[cut:])
            if not (
                p_orthogonal(space, x, y, p, cfg).is_orthogonal
                and p_orthogonal(space, x, z, p, cfg).is_orthogonal
            ):
                continue
            v = p_orthogonal(space, x, y + z, p, cfg)
            if not v.is_orthogonal:
                additivity_ok = False
                failures.append(("additivity", v.worst_residual, v.witness_k))
    return OrthoSetReport(pairwise_ok, unit_ok, bool(total), additivity_ok, tuple(failures))
