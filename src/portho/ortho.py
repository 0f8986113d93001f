"""Deciding p-orthogonality.

The defining identity quantifies over every real scalar k, which a norm
oracle cannot certify; the numeric decider is a semi-decision over a
geometric grid of scalars. For coordinate lp families there is an exact
structural oracle (disjoint supports; zero inner product for p = 2) that the
grid decider is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .spaces import SpaceSpec, batch_dual_norms, batch_norms, norm

INF = math.inf

_DEFAULT_GRID = tuple(
    sorted({0.0} | {s * 2.0**j for j in range(-8, 9) for s in (1.0, -1.0)})
)


@dataclass(frozen=True)
class OrthoConfig:
    k_grid: tuple = _DEFAULT_GRID
    tol: float = 1e-9

    def __post_init__(self):
        ks = tuple(float(k) for k in self.k_grid)
        if 0.0 not in ks or not any(k > 0 for k in ks) or not any(k < 0 for k in ks):
            raise InputError("k grid must contain 0 and scalars of both signs")
        object.__setattr__(self, "k_grid", ks)


@dataclass(frozen=True)
class OrthoVerdict:
    verdict: str  # "orthogonal" | "not_orthogonal" | "inconclusive"
    worst_residual: float
    witness_k: float
    k_grid: tuple

    @property
    def is_orthogonal(self) -> bool:
        return self.verdict == "orthogonal"


# entries of the k-grid matrix x + k y handed to the row oracle at once: one
# block holds the whole grid at small dimension and bounds memory at large
_BLOCK_ENTRIES = 2**15


def verdict_from_norm(norms_fn, x, y, p: float, cfg: OrthoConfig | None = None) -> OrthoVerdict:
    """Grid semi-decision of x perp_p y against a row oracle: norms_fn(W)
    returns the norms of the rows of W."""
    if p < 1:
        raise InputError("invalid exponent")
    cfg = cfg or OrthoConfig()
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputError(f"x and y must be vectors of one length, got {x.shape} and {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("x and y must have finite entries")
    nx, ny = (float(v) for v in norms_fn(np.stack([x, y])))
    if nx == 0.0 or ny == 0.0:
        # the identity holds identically when either argument is zero
        return OrthoVerdict("orthogonal", 0.0, 0.0, cfg.k_grid)
    ks = set(cfg.k_grid)
    if math.isinf(p):
        # the two sides of the max-form identity cross at |k| = ||x||/||y||;
        # violations concentrate there, so sweep that neighbourhood too
        r = nx / ny
        ts = np.concatenate(
            [np.linspace(1.0 / 16.0, 2.0, 48), [1.0 - 2**-8, 1.0, 1.0 + 2**-8]]
        )
        for t in ts:
            ks.add(r * t)
            ks.add(-r * t)
    # small scalars first, so the first argmax is the least-magnitude witness
    k = np.array(sorted(ks, key=lambda k: (abs(k), k)))
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
        rhs = nx**p + ak**p * ny**p
        res = np.abs(lhs**p - rhs) / (1.0 + rhs)
    # a residual lost to overflow (inf - inf at large |k|) shows no violation;
    # argmax would otherwise stop at the NaN
    res[np.isnan(res)] = 0.0
    i = int(np.argmax(res))
    worst = float(res[i])
    verdict = "orthogonal" if worst <= cfg.tol else "not_orthogonal"
    return OrthoVerdict(verdict, worst, float(k[i]), tuple(sorted(ks)))


def p_orthogonal_numeric(
    space: SpaceSpec, x, y, p: float, cfg: OrthoConfig | None = None
) -> OrthoVerdict:
    return verdict_from_norm(lambda W: batch_norms(space, W), x, y, p, cfg)


def dual_p_orthogonal_numeric(
    space: SpaceSpec, f, g, p: float, cfg: OrthoConfig | None = None
) -> OrthoVerdict:
    """Same decision taken in the dual: the row oracle is batch_dual_norms."""
    return verdict_from_norm(lambda F: batch_dual_norms(space, F), f, g, p, cfg)


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


def infty_positive_test(space: SpaceSpec, u1, u2, tol: float = 1e-9) -> bool:
    """For u1, u2 in the positive cone of an infinity-smooth space,
    u1 perp_inf u2 iff the normalized sum has norm one; the plus/minus norm
    equality is checked alongside as a consistency condition."""
    from .cones import cone_contains

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
    cfg = cfg or OrthoConfig()
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
            v = p_orthogonal_numeric(space, vectors[i], vectors[j], p, cfg)
            if not v.is_orthogonal:
                pairwise_ok = False
                failures.append(("pairwise", (i, j), v.worst_residual, v.witness_k))
    M = np.stack(vectors)
    total = np.linalg.matrix_rank(M, tol=1e-10) == space.dim

    # additivity falsification: x from one block of the set, y, z from the rest
    rng = np.random.default_rng(seed)
    additivity_ok = True
    if len(vectors) >= 2:
        for _ in range(spotcheck_samples):
            cut = int(rng.integers(1, len(vectors)))
            perm = rng.permutation(len(vectors))
            x = sum(rng.normal() * vectors[i] for i in perm[:cut])
            y = sum(rng.normal() * vectors[i] for i in perm[cut:])
            z = sum(rng.normal() * vectors[i] for i in perm[cut:])
            if not (
                p_orthogonal_numeric(space, x, y, p, cfg).is_orthogonal
                and p_orthogonal_numeric(space, x, z, p, cfg).is_orthogonal
            ):
                continue
            v = p_orthogonal_numeric(space, x, y + z, p, cfg)
            if not v.is_orthogonal:
                additivity_ok = False
                failures.append(("additivity", v.worst_residual, v.witness_k))
    return OrthoSetReport(pairwise_ok, unit_ok, bool(total), additivity_ok, tuple(failures))
