"""Seeded random generators per space family and a suite runner that turns
each structural property of p-orthogonality into a pass/fail report.

`SUITES` is the one catalogue: each suite is a row (body, supports,
default_family). `supports(space)` says whether the suite can sample the
space; the default family names an entry of `default_families()`, except
for Example 4.6, which checks its own space `build_example_46(n_grid)`.
A body is a generator `body(space, rng, tol, samples)` that yields one
outcome per sample: None for a pass, or a counterexample dict (`_cx`) with
its location, residual and sampled input. `run_suite` runs the only sample
loop and is the one place that counts samples, passes and counterexamples.

Every suite draws from its own deterministic stream derived from (seed,
suite name), so reports are reproducible and independent of execution order.
Samplers build positive elements from cone coefficients
(`ConeSpec.coefficient_basis`) and the order unit (`spaces.order_unit`); a
sampler that finds no valid sample in _MAX_DRAWS draws raises InputError.
Every orthogonality check decides through `ortho.p_orthogonal`, exactly on
the default families, where no decision runs the grid decider. The checks
on the two-dimensional restricted ball (thm41, rem42) decide in the sup norm of the functionals' values on the
ball's vertices (`spaces.restricted_dual_norms`), an isometric copy of the
restricted dual norm.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import cones as _c
from .decomp import (
    coefficient_parts,
    dual_one_orth_decompose,
    embed_to_lp,
    has_dual_split,
    monotone_norm,
    opt_decompose,
    p_aggregate,
)
from .errors import InputError
from .linalg import symmetric_part
from .ortho import check_tol, p_orthogonal, p_orthogonal_exact
from .spaces import (
    L1,
    LP,
    SPECTRAL,
    SUP,
    SpaceSpec,
    _form,
    base_space,
    conjugate,
    dual_norm,
    lp_space,
    norm,
    norming,
    order_unit,
    order_unit_space,
    restricted_dual_norms,
    spectral_space,
    sup_space,
)
from .support import crust_probe, has_positive_support, positive_support

INF = math.inf
_MAX_DRAWS = 1000  # sampler retries before a space counts as unsampleable


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    space: str
    samples: int
    passes: int
    counterexamples: tuple
    seed: int
    tolerance: float
    elapsed_ms: float

    @property
    def status(self) -> str:
        """"unsupported" when nothing was sampled, else "ok" or "failed"."""
        if self.samples == 0:
            return "unsupported"
        return "failed" if self.counterexamples else "ok"

    @property
    def all_passed(self) -> bool:
        return self.status == "ok"


# ---------------------------------------------------------------------------
# sampling helpers

def sample_cone(space: SpaceSpec, rng: np.random.Generator) -> np.ndarray:
    """A random element of the positive cone: exponential coefficients over
    the generators; a random Gram matrix for the semidefinite cone."""
    cone = space.cone
    if cone.kind == _c.NONNEG:
        return rng.exponential(size=space.dim)
    if cone.kind == _c.RAYS:
        return cone.generators.T @ rng.exponential(size=cone.generators.shape[0])
    d = cone.side
    B = rng.normal(size=(d, d)) / math.sqrt(d)
    return (B @ B.T).ravel()


def sample_vector(space: SpaceSpec, rng: np.random.Generator) -> np.ndarray:
    if space.norm.kind == SPECTRAL:
        d = space.cone.side
        A = rng.normal(size=(d, d))
        return (0.5 * (A + A.T)).ravel()
    return rng.normal(size=space.dim)


def _sample_positive_pair(space: SpaceSpec, rng: np.random.Generator):
    """A positive pair of one of three textures: disjointly supported
    (orthogonal by construction), generic overlapping, or the canonical
    partner e - u/||u|| (orthogonal with overlapping support). A spectral
    pair is symmetric bit for bit (`linalg.symmetric_part`)."""
    mode = int(rng.integers(3))
    if space.norm.kind == SPECTRAL:
        d = space.cone.side
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        if mode == 1:
            return sample_cone(space, rng), sample_cone(space, rng)
        cut = int(rng.integers(1, d))
        lam1 = np.concatenate([rng.uniform(0.2, 1.5, size=cut), np.zeros(d - cut)])
        if mode == 0:
            lam2 = np.concatenate([np.zeros(cut), rng.uniform(0.2, 1.5, size=d - cut)])
            u2 = (Q * lam2) @ Q.T
        else:
            u2 = np.eye(d) - (Q * (lam1 / lam1.max())) @ Q.T
        return symmetric_part((Q * lam1) @ Q.T).ravel(), symmetric_part(u2).ravel()
    B = space.cone.coefficient_basis[0]
    n = B.shape[1]
    if mode == 1:
        a = rng.exponential(size=n) * (rng.random(size=n) < 0.7)
        b = rng.exponential(size=n) * (rng.random(size=n) < 0.7)
        a[int(rng.integers(n))] += 0.5  # force overlap
        b[np.argmax(a)] += 0.5
    else:
        a, b = _split_coefficients(rng, n, disjoint=mode == 0)
    return B @ a, B @ b


def _split_coefficients(rng: np.random.Generator, n: int, disjoint: bool):
    """Coefficients a in [0.1, 1.2) on a random nonempty proper subset of
    the n coordinates (zero elsewhere) and a partner b: drawn the same way on
    the complement if disjoint, else 1 - a / max(a), the coefficients of
    e - u1 / ||u1||."""
    mask = rng.random(size=n) < 0.5
    if not mask.any():
        mask[0] = True
    if mask.all():
        mask[-1] = False
    a = np.where(mask, rng.uniform(0.1, 1.2, size=n), 0.0)
    if disjoint:
        return a, np.where(~mask, rng.uniform(0.1, 1.2, size=n), 0.0)
    return a, 1.0 - a / a.max()


def _orthogonal_positive_pair(space: SpaceSpec, rng: np.random.Generator):
    """An inf-orthogonal positive pair u1, u2 with its norms n1, n2."""
    for _ in range(_MAX_DRAWS):
        u1, u2 = _sample_positive_pair(space, rng)
        n1, n2 = norm(space, u1), norm(space, u2)
        if n1 == 0.0 or n2 == 0.0:
            continue
        if abs(norm(space, u1 / n1 + u2 / n2) - 1.0) <= 1e-9:
            return u1, u2, n1, n2
    raise InputError(
        f"no inf-orthogonal positive pair in {_MAX_DRAWS} draws on {space.describe()}"
    )


def _support_min_cross(space: SpaceSpec, u1, u2):
    """A positive support functional of u1 chosen, among the optimizers, to
    minimize its value on u2. Returns (f, f(u1), f(u2))."""
    if space.norm.kind == SPECTRAL:
        U1 = _c.as_matrix(space.cone, u1)
        U2 = _c.as_matrix(space.cone, u2)
        lam, Q = np.linalg.eigh(U1)
        top = lam >= lam[-1] - 1e-9 * max(lam[-1], 1e-300)
        Qt = Q[:, top]
        _, R = np.linalg.eigh(Qt.T @ U2 @ Qt)
        q = Qt @ R[:, 0]
        f = np.outer(q, q).ravel()
    else:
        f = norming(space, u1, tiebreak=u2)
    return f, float(f @ u1), float(f @ u2)


def _cx(location: str, residual: float, **vectors):
    inputs = {k: np.asarray(v, dtype=float).tolist() for k, v in vectors.items()}
    return {"location": location, "residual": float(residual), "input": inputs}


# ---------------------------------------------------------------------------
# suite bodies: each yields one outcome per sample, None or a counterexample

def _per_sample(check):
    """The body that yields `check(space, rng, tol)` once per sample."""
    return lambda space, rng, tol, samples: (check(space, rng, tol) for _ in range(samples))


def _sample_orthonormal_set(space: SpaceSpec, rng, positive: bool):
    """Disjointly supported unit vectors: p-orthonormal for every p."""
    n = space.dim
    m = int(rng.integers(min(n, 2), min(n, 4) + 1))  # a single vector in dimension one
    parts = np.array_split(rng.permutation(n), m)
    U = []
    for s in parts:
        u = np.zeros(n)
        u[s] = rng.uniform(0.2, 1.2, size=len(s))
        if not positive:
            u[s] *= rng.choice([-1.0, 1.0], size=len(s))
        U.append(u / norm(space, u))
    return U


def _embedded_sets(space: SpaceSpec, rng, samples: int, positive: bool, every: int):
    """Per sample, the embedding of a p-orthonormal set and the lp space of
    its coefficients; a fresh set is drawn every `every` samples."""
    p = space.p_class
    for i in range(samples):
        if i % every == 0:
            U = _sample_orthonormal_set(space, rng, positive)
            emb, sub = embed_to_lp(space, U, p), lp_space(len(U), p)
        yield emb, sub


def _embedding_suite(positive: bool, order_check: bool):
    def run(space, rng, tol, samples):
        for emb, sub in _embedded_sets(space, rng, samples, positive, every=10):
            alpha = rng.normal(size=sub.dim)
            if rng.random() < 0.3:
                alpha = np.abs(alpha)
            x = emb.synthesize(alpha)
            gap = abs(norm(space, x) - norm(sub, alpha))
            if gap > tol * (1.0 + norm(sub, alpha)):
                yield _cx("isometry", gap, alpha=alpha)
            elif order_check and _c.cone_contains(space.cone, x, tol=1e-12) != bool(
                np.all(alpha >= -1e-9)
            ):
                yield _cx("order_isomorphism", float(alpha.min()), alpha=alpha)
            else:
                yield None

    return run


_suite_thm21 = _embedding_suite(positive=False, order_check=False)
_suite_thm26 = _embedding_suite(positive=True, order_check=True)
_suite_thm36 = _embedding_suite(positive=True, order_check=True)


@_per_sample
def _suite_def22_op1(space, rng, tol):
    a = sample_cone(space, rng)
    b = sample_cone(space, rng)
    v = sample_vector(space, rng)
    rhs = p_aggregate(norm(space, v - a), norm(space, v + b), space.p_class)
    gap = norm(space, v) - rhs
    if gap > tol * (1.0 + rhs):
        return _cx("interval_norm_bound", gap, a=a, b=b, v=v)
    return None


@_per_sample
def _suite_def22_op2(space, rng, tol):
    v = sample_vector(space, rng)
    nv = norm(space, v)
    d = opt_decompose(space, v, space.p_class)
    scale = 1.0 + np.abs(v).max()
    if d.status != "optimal":
        return _cx("decomposition_status", math.nan, v=v)
    if np.abs((d.u1 - d.u2) - v).max() > 1e-9 * scale:
        return _cx("reconstruction", float(np.abs(d.u1 - d.u2 - v).max()), v=v)
    if not (
        _c.cone_contains(space.cone, d.u1, tol=1e-7 * scale)
        and _c.cone_contains(space.cone, d.u2, tol=1e-7 * scale)
    ):
        return _cx("positivity", math.nan, v=v)
    if d.norm_aggregate > nv + 1e-6 + tol or d.norm_aggregate < nv - 1e-9:
        return _cx("aggregate", d.norm_aggregate - nv, v=v)
    return None


def _suite_duality(exact: bool):
    @_per_sample
    def run(space, rng, tol):
        f = sample_vector(space, rng)
        f1, f2 = coefficient_parts(space, f, dual=True)
        q = conjugate(space.p_class)
        agg = p_aggregate(dual_norm(space, f1), dual_norm(space, f2), q)
        nf = dual_norm(space, f)
        gap = agg - nf if not exact else abs(agg - nf)
        if gap > tol * (1.0 + nf):
            return _cx("dual_decomposition", gap, f=f)
        return None

    return run


def _suite_prop25(space, rng, tol, samples):
    p = space.p_class
    for emb, sub in _embedded_sets(space, rng, samples, positive=True, every=25):
        a = emb.synthesize(rng.exponential(size=sub.dim))
        b = emb.synthesize(rng.exponential(size=sub.dim))
        alpha = rng.normal(size=sub.dim)
        v = emb.synthesize(alpha)
        nv = norm(space, v)
        # interval norm bound within the span
        rhs = p_aggregate(norm(space, v - a), norm(space, v + b), p)
        if nv - rhs > tol * (1.0 + rhs):
            yield _cx("span_interval_bound", nv - rhs, alpha=alpha)
            continue
        # exact positive decomposition from the coefficient split
        u1 = emb.synthesize(np.clip(alpha, 0.0, None))
        u2 = emb.synthesize(np.clip(-alpha, 0.0, None))
        agg = p_aggregate(norm(space, u1), norm(space, u2), p)
        if abs(agg - nv) > tol * (1.0 + agg):
            yield _cx("span_decomposition", agg - nv, alpha=alpha)
        else:
            yield None


@_per_sample
def _suite_lem27(space, rng, tol):
    u1, u2 = _split_coefficients(rng, space.dim, disjoint=True)
    if not p_orthogonal_exact(u1, u2, space.p_class):
        return _cx("oracle", math.nan, u1=u1, u2=u2)
    if _c.cone_contains(space.cone, u1 - u2, tol=1e-12):
        return _cx("difference_in_cone", 0.0, u1=u1, u2=u2)
    return None


@_per_sample
def _suite_cor35(space, rng, tol):
    u1, u2, _, _ = _orthogonal_positive_pair(space, rng)
    if np.abs(u2).max() < 1e-9:
        return None
    if _c.cone_contains(space.cone, u1 - u2, tol=1e-12):
        return _cx("difference_in_cone", 0.0, u1=u1, u2=u2)
    return None


def _suite_lem28(space, rng, tol, samples):
    for emb, sub in _embedded_sets(space, rng, samples, positive=True, every=25):
        alpha = rng.uniform(0.05, 1.0, size=sub.dim)
        if rng.random() < 0.5:
            flips = rng.random(size=sub.dim) < 0.5
            if not flips.any():
                flips[0] = True
            alpha = np.where(flips, -alpha, alpha)
        inside = _c.cone_contains(space.cone, emb.synthesize(alpha), tol=1e-12)
        if inside != bool(np.all(alpha >= -1e-9)):
            yield _cx("coefficient_sign", float(alpha.min()), alpha=alpha)
        else:
            yield None


@_per_sample
def _suite_prop32(space, rng, tol):
    u = sample_cone(space, rng)
    if np.abs(u).max() == 0.0:
        return None
    res = positive_support(space, u)
    nu = norm(space, u)
    t = max(tol, 1e-8)
    if not _c.dual_cone_contains(space.cone, res.functional, tol=t):
        return _cx("positivity", math.nan, u=u)
    if dual_norm(space, res.functional) > 1.0 + t:
        return _cx("dual_norm_one", dual_norm(space, res.functional) - 1.0, u=u)
    if abs(res.attained_value - nu) > t * (1.0 + nu):
        return _cx("attainment", res.attained_value - nu, u=u)
    return None


def _positive_pair_suite(supports: bool):
    """The body that hands `check(space, tol, u1, u2, n1, n2)` a sampled
    positive pair and its norms, followed by the pair's positive supports
    f1, f2 if `supports`; a pair with a part of norm below 1e-9 passes."""
    def wrap(check):
        @_per_sample
        def run(space, rng, tol):
            u1, u2 = _sample_positive_pair(space, rng)
            n1, n2 = norm(space, u1), norm(space, u2)
            if n1 < 1e-9 or n2 < 1e-9:
                return None
            fs = [positive_support(space, u).functional for u in (u1, u2)] if supports else []
            return check(space, tol, u1, u2, n1, n2, *fs)

        return run

    return wrap


def _thm33_statements(space, u1, u2, n1, n2, tol):
    """Theorem 3.3's statements (1) and (3) for a positive pair of norms n1,
    n2, with the normalized supports of (3); statement (2), u1 perp_inf u2,
    is left to the caller that reads it."""
    v1, v2 = u1 / n1, u2 / n2
    s1 = abs(norm(space, v1 + v2) - 1.0) <= tol
    f1, a1, c12 = _support_min_cross(space, u1, u2)
    f2, a2, c21 = _support_min_cross(space, u2, u1)
    cross = max(abs(c12) / n2, abs(c21) / n1)
    s3 = cross <= tol and s1 and abs(norm(space, v1 - v2) - 1.0) <= tol
    return s1, s3, (f1 / a1 * n1, f2 / a2 * n2)


@_positive_pair_suite(supports=False)
def _suite_thm33(space, tol, u1, u2, n1, n2):
    t = max(tol, 1e-8)
    s1, s3, _ = _thm33_statements(space, u1, u2, n1, n2, t)
    s2 = p_orthogonal(space, u1, u2, INF, tol=t).is_orthogonal
    if not (s1 == s2 == s3):
        return _cx(f"statements_disagree:{int(s1)}{int(s2)}{int(s3)}", math.nan, u1=u1, u2=u2)
    return None


@_per_sample
def _suite_rem34(space, rng, tol):
    u1, u2, n1, n2 = _orthogonal_positive_pair(space, rng)
    t = max(tol, 1e-8)
    _, s3, (f1, f2) = _thm33_statements(space, u1, u2, n1, n2, t)
    if not s3:
        return _cx("expected_orthogonal", math.nan, u1=u1, u2=u2)
    for _ in range(3):
        a1, a2 = rng.normal(size=2)
        val = dual_norm(space, a1 * f1 + a2 * f2)
        want = abs(a1) + abs(a2)
        if abs(val - want) > t * (1.0 + want):
            return _cx("extension_norm", val - want, u1=u1, u2=u2)
    return None


@_positive_pair_suite(supports=False)
def _suite_cor38(space, tol, u1, u2, n1, n2):
    orth = p_orthogonal(space, u1, u2, INF, tol=max(tol, 1e-8)).is_orthogonal
    dominated = _c.cone_contains(space.cone, order_unit(space) - u1 / n1 - u2 / n2, tol=1e-8)
    if orth != dominated:
        return _cx("order_unit_bound", math.nan, u1=u1, u2=u2)
    return None


def _sample_faced_cone_element(space, rng, force_face: bool):
    B = space.cone.coefficient_basis[0]
    n = B.shape[1]
    a = rng.uniform(0.1, 1.2, size=n)
    if force_face:
        k = int(rng.integers(1, n))
        a[rng.permutation(n)[:k]] = 0.0
    return B @ a


@_per_sample
def _suite_cor310(space, rng, tol):
    e = order_unit(space)
    u = _sample_faced_cone_element(space, rng, force_face=rng.random() < 0.5)
    nu = norm(space, u)
    partner = e - u / nu
    # independent existence decision: the canonical partner has norm one
    exists = norm(space, partner) >= 1.0 - 1e-9
    res = crust_probe(space, u)
    if (res is not None) != exists:
        return _cx("crust_existence", math.nan, u=u)
    if res is not None:
        f = res.functional
        ok = (
            _c.dual_cone_contains(space.cone, f, tol=1e-9)
            and abs(f @ u) <= 1e-8 * (1.0 + nu)
            and abs(dual_norm(space, f) - 1.0) <= 1e-8
            and res.partner_orthogonal
        )
        if not ok:
            return _cx("crust_certificate", float(f @ u), u=u)
    return None


@_per_sample
def _suite_rem311(space, rng, tol):
    e = order_unit(space)
    u = _sample_faced_cone_element(space, rng, force_face=True)
    nu = norm(space, u)
    greatest = e - u / nu
    B, H = space.cone.coefficient_basis
    a = H @ u
    face = a <= 1e-12
    if rng.random() < 0.5:
        # a partner below e - u/||u||: coefficients w (s - a/||u||), s = H e,
        # w in [0, 1]; w_j = 1 at one j where a_j = 0 gives it norm one
        w = rng.uniform(0.0, 1.0, size=len(a))
        w[rng.choice(np.flatnonzero(face))] = 1.0
        w = w * (H @ e - a / nu)
    else:
        # a candidate partner, biased toward the face where u vanishes
        w = rng.exponential(size=len(a)) * np.where(face, 1.0, 0.05)
    if w.max() == 0.0:
        return None
    v = B @ w
    v = v / norm(space, v)
    if not p_orthogonal(space, u, v, INF, tol=max(tol, 1e-8)).is_orthogonal:
        return None  # not a partner; nothing to dominate
    if not _c.cone_contains(space.cone, greatest - v, tol=1e-9):
        return _cx("not_dominated", math.nan, u=u, v=v)
    return None


def _restrictions(space, v1, v2, f1, f2):
    """The sup space isometric to the dual norm on span{v1, v2}, and in it
    the restrictions V g1, V g2 of f1, f2: gi the values of fi on v1 and v2,
    V the vertices of the span's unit ball (`spaces.restricted_dual_norms`)."""
    V = restricted_dual_norms(space, v1, v2)
    g1 = V @ np.array([f1 @ v1, f1 @ v2])
    g2 = V @ np.array([f2 @ v1, f2 @ v2])
    return sup_space(len(V)), g1, g2


@_positive_pair_suite(supports=True)
def _suite_thm41(space, tol, u1, u2, n1, n2, f1, f2):
    t = max(tol, 1e-8)
    cross_ok = abs(f1 @ u2) <= t * n2 and abs(f2 @ u1) <= t * n1
    s1 = cross_ok and p_orthogonal(space, u1, u2, 1.0, tol=t).is_orthogonal
    restricted, g1, g2 = _restrictions(space, u1 / n1, u2 / n2, f1, f2)
    s2 = p_orthogonal(restricted, g1, g2, INF, tol=t).is_orthogonal
    if s1 != s2:
        return _cx(f"statements_disagree:{int(s1)}{int(s2)}", math.nan, u1=u1, u2=u2)
    return None


@_positive_pair_suite(supports=True)
def _suite_rem42(space, tol, u1, u2, n1, n2, f1, f2):
    t = max(tol, 1e-8)
    # hypothesis (as used in the proof): the supports' sum has dual norm one
    if dual_norm(space, f1 + f2) > 1.0 + t:
        return None
    restricted, g1, g2 = _restrictions(space, u1 / n1, u2 / n2, f1, f2)
    gap = abs(norm(restricted, g1 + g2) - 1.0)
    if gap > t:
        return _cx("restricted_sum_norm", gap, u1=u1, u2=u2)
    if not p_orthogonal(restricted, g1, g2, INF, tol=t).is_orthogonal:
        return _cx("restricted_orthogonality", math.nan, u1=u1, u2=u2)
    return None


@_positive_pair_suite(supports=True)
def _suite_lem43(space, tol, u1, u2, n1, n2, f1, f2):
    t = max(tol, 1e-8)
    if abs(f1 @ u2) > t * n2 or abs(f2 @ u1) > t * n1:
        return None  # hypothesis not met
    if not p_orthogonal(space, u1, u2, 1.0, tol=t).is_orthogonal:
        return _cx("one_orthogonality", math.nan, u1=u1, u2=u2)
    return None


@_per_sample
def _suite_thm44(space, rng, tol):
    f = sample_vector(space, rng)
    dec = dual_one_orth_decompose(space, f)
    if dec.status != "optimal":
        return _cx(f"decomposition_{dec.status}", math.nan, f=f)
    t = max(tol, 1e-8)
    nf = dual_norm(space, f)
    if abs(dec.norm_aggregate - nf) > t * (1.0 + nf):
        return _cx("additivity", dec.norm_aggregate - nf, f=f)
    if dec.ortho_verdict is not None and not dec.ortho_verdict.is_orthogonal:
        return _cx("dual_orthogonality", dec.ortho_verdict.worst_residual, f=f)
    return None


# ---------------------------------------------------------------------------
# the discretized continuous example

def build_example_46(n: int):
    """Uniform grid on [0, 2pi]; f = cos sampled on it, decomposed two ways:
    positive/negative parts, and the half-angle pair g1 = cos^2(x/2),
    g2 = 1 - g1. Both are inf-orthogonal decompositions of f."""
    if n < 3:
        raise InputError("grid must have at least 3 points")
    x = 2.0 * np.pi * np.arange(n) / (n - 1)
    f = np.cos(x)
    fplus = np.clip(f, 0.0, None)
    fminus = np.clip(-f, 0.0, None)
    g1 = np.cos(0.5 * x) ** 2
    g2 = 1.0 - g1
    space = order_unit_space(_c.nonneg_orthant(n), np.ones(n))
    return space, f, fplus, fminus, g1, g2


def _suite_ex46(space, rng, tol, samples):
    """Example 4.6's eight checks, whatever `samples` asks, on the example's
    own space of dimension n (`build_example_46(n)`)."""
    n = space.dim
    _, f, fplus, fminus, g1, g2 = build_example_46(n)
    t = max(tol, 1e-12)

    def check(name, ok, residual=math.nan):
        return None if ok else {"location": name, "residual": float(residual), "input": {"n": n}}

    yield check("reconstruct_parts", np.abs(f - (fplus - fminus)).max() <= t)
    yield check("reconstruct_halfangle", np.abs(f - (g1 - g2)).max() <= t,
                float(np.abs(f - (g1 - g2)).max()))
    parts_sum = fplus / fplus.max() + fminus / fminus.max()
    yield check("parts_sum_norm_one", norm(space, parts_sum) == 1.0)
    yield check("halfangle_sum_norm_one", norm(space, g1 + g2) == 1.0)
    v1 = p_orthogonal(space, fplus, fminus, INF, tol=t)
    yield check("parts_orthogonal", v1.is_orthogonal, v1.worst_residual)
    v2 = p_orthogonal(space, g1, g2, INF, tol=t)
    yield check("halfangle_orthogonal", v2.is_orthogonal, v2.worst_residual)
    gap = float(np.abs(fplus - g1).max())
    yield check("max_gap_half", abs(gap - 0.5) <= t, gap - 0.5)
    yield check("decompositions_differ", gap > 0.1, gap)


# ---------------------------------------------------------------------------
# catalog

def _is_coordinate(space: SpaceSpec) -> bool:
    return space.cone.kind == _c.NONNEG and space.norm.kind in (LP, SUP)


def _is_lattice(space: SpaceSpec) -> bool:
    """Spectral, or every vector has unique cone coefficients: the
    capability the positive-pair samplers build on."""
    return space.norm.kind == SPECTRAL or space.cone.coefficient_basis is not None


def _is_order_unit_like(space: SpaceSpec) -> bool:
    return math.isinf(space.p_class) and order_unit(space) is not None and _is_lattice(space)


def _is_polyhedral_order_unit(space: SpaceSpec) -> bool:
    return (
        math.isinf(space.p_class)
        and order_unit(space) is not None
        and space.cone.coefficient_basis is not None
    )


def _finite_p_coordinate(space: SpaceSpec) -> bool:
    return _is_coordinate(space) and not math.isinf(space.p_class)


def _disjoint_pair_coordinate(space: SpaceSpec) -> bool:
    """Finite p over coordinates, in dimension two or more: the room for a
    pair of nonzero positive vectors with disjoint supports."""
    return _finite_p_coordinate(space) and space.dim >= 2


def _one_smooth(space: SpaceSpec) -> bool:
    """p_class 1 with a weighted l1 norm over the orthant (lp p = 1 or
    base): the spaces `restricted_dual_norms` covers."""
    return space.p_class == 1.0 and space.cone.kind == _c.NONNEG and _form(space).kind == L1


# suite -> (body, supports, default family); ex46 checks its own space
SUITES = {
    "thm21_lp_characterization": (_suite_thm21, _finite_p_coordinate, "lp15_8"),
    "def22_Op1": (_suite_def22_op1, lambda sp: True, "lp3_8"),
    "def22_Op2": (_suite_def22_op2, monotone_norm, "lp15_8"),
    "thm23_duality": (_suite_duality(exact=False), monotone_norm, "lp3_8"),
    "thm24_OSp2": (_suite_duality(exact=True), monotone_norm, "sup_8"),
    "prop25_span_smooth": (_suite_prop25, _is_coordinate, "lp15_8"),
    "thm26_order_iso": (_suite_thm26, _finite_p_coordinate, "lp1_8"),
    "lem27_positive_pair": (_suite_lem27, _disjoint_pair_coordinate, "lp2_8"),
    "lem28_cone_coeffs": (_suite_lem28, _is_coordinate, "lp3_8"),
    "prop32_supp_nonempty": (_suite_prop32, has_positive_support, "base_8"),
    "thm33_equivalence": (_suite_thm33, _is_order_unit_like, "sup_8"),
    "rem34_extension": (_suite_rem34, _is_order_unit_like, "sup_8"),
    "cor35_infty_pair": (_suite_cor35, _is_order_unit_like, "spectral_4"),
    "thm36_c0": (_suite_thm36, lambda sp: _is_coordinate(sp) and math.isinf(sp.p_class), "sup_8"),
    "cor38_order_unit": (_suite_cor38, _is_order_unit_like, "polyray_4"),
    "cor310_crust": (_suite_cor310, _is_polyhedral_order_unit, "sup_8"),
    "rem311_greatest": (_suite_rem311, _is_polyhedral_order_unit, "sup_8"),
    "thm41_one_orth": (_suite_thm41, _one_smooth, "lp1_8"),
    "rem42_restriction": (_suite_rem42, _one_smooth, "lp1_8"),
    "lem43_base_orth": (_suite_lem43, lambda sp: sp.p_class == 1.0 and _is_lattice(sp), "base_8"),
    "thm44_duality": (
        _suite_thm44, lambda sp: math.isinf(sp.p_class) and has_dual_split(sp), "spectral_4"
    ),
    "ex46_nonuniqueness": (_suite_ex46, lambda sp: True, None),
}

SUITE_IDS = tuple(SUITES)

_RAY4 = _c.ray_cone(np.eye(4) + 0.2 * np.ones((4, 4)))


def default_families() -> dict:
    return {
        "lp1_8": lp_space(8, 1.0),
        "lp15_8": lp_space(8, 1.5),
        "lp2_8": lp_space(8, 2.0),
        "lp3_8": lp_space(8, 3.0),
        "sup_8": sup_space(8),
        "base_8": base_space(_c.nonneg_orthant(8), np.ones(8)),
        "spectral_4": spectral_space(4),
        "polyray_4": order_unit_space(_RAY4, _RAY4.generators.sum(axis=0)),
    }


def run_suite(
    suite: str,
    space: SpaceSpec | None = None,
    samples: int = 200,
    tol: float = 1e-8,
    seed: int = 0,
    n_grid: int = 2049,
) -> SuiteReport:
    """Run `suite` on `space` (its default family if None; Example 4.6 on
    its own grid of n_grid points): one outcome per sample, or no sample at
    all, and status "unsupported", where the suite cannot sample the space."""
    if suite not in SUITES:
        raise InputError(f"unknown suite {suite!r}")
    if samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    check_tol(tol)
    body, supports, family = SUITES[suite]
    if family is None:
        space = build_example_46(n_grid)[0]
    elif space is None:
        space = default_families()[family]
    start = time.perf_counter()
    outcomes = []
    if supports(space):
        rng = np.random.default_rng([seed, zlib.crc32(suite.encode())])
        outcomes = list(body(space, rng, tol, samples))
    cxs = tuple(o for o in outcomes if o is not None)
    elapsed = (time.perf_counter() - start) * 1e3
    return SuiteReport(
        suite, space.describe(), len(outcomes), len(outcomes) - len(cxs), cxs, seed, tol, elapsed
    )
