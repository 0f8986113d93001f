"""Positive decompositions and the coordinate embedding of orthonormal spans.

Three decomposition routes: optimal positive decompositions v = u1 - u2,
inf-orthogonal splits into positive/negative parts, and the dual route that
splits a functional into 1-orthogonal positive halves. Where the norm grows
with the absolute values of unique cone coefficients (`monotone_norm`) all
three are the coefficient split; elsewhere an optimal decomposition is
"unsupported". On a non-simplicial cone the dual route splits over the
facets active at a norming element, and an LP remains only above the
facet cap. A symmetric matrix is validated once and decomposed once per
split. Orthogonality is decided by `ortho.p_orthogonal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones as _c
from .errors import InputError, UnsupportedError
from .linalg import LpProblem, SpectralDecomposition, _eigen_checked, solve_lp, symmetric_part, unit_scaled
from .ortho import OrthoVerdict, orthonormal_set_verify, p_orthogonal
from .spaces import (
    BASE,
    ORDER_UNIT,
    SPECTRAL,
    SpaceSpec,
    _eigen_norming,
    batch_dual_norms,
    check_exponent,
    norm,
    norming_element,
)

INF = math.inf


@dataclass(frozen=True)
class Decomposition:
    u1: np.ndarray
    u2: np.ndarray
    p: float
    norm_aggregate: float
    status: str  # "optimal" | "failed" | "unsupported"
    ortho_verdict: OrthoVerdict | None = None


def p_aggregate(a: float, b: float, p: float) -> float:
    """The lp(2) norm of the pair (a, b): (a^p + b^p)^(1/p), or max at p = inf.
    Raises InputError when a^p + b^p overflows the float range."""
    if math.isinf(p):
        return max(a, b)
    try:
        return (float(a) ** p + float(b) ** p) ** (1.0 / p)
    except OverflowError as exc:
        raise InputError(f"input magnitude out of range: a^p + b^p overflows at p = {p:g}") from exc


def _spectral_parts(dec: SpectralDecomposition):
    """Positive and negative parts of a symmetric matrix by its spectrum
    dec, with eigenvalues below 1e-10 of the spectral radius set to zero;
    each part is symmetric bit for bit (`linalg.symmetric_part`)."""
    cut = 1e-10 * max(abs(dec.eigenvalues[0]), abs(dec.eigenvalues[-1]), 1e-300)
    lam = np.where(np.abs(dec.eigenvalues) <= cut, 0.0, dec.eigenvalues)
    Q = dec.eigenvectors
    v1 = symmetric_part((Q.T * np.clip(lam, 0.0, None)) @ Q)
    v2 = symmetric_part((Q.T * np.clip(-lam, 0.0, None)) @ Q)
    return v1.ravel(), v2.ravel()


def coefficient_parts(space: SpaceSpec, x: np.ndarray, dual: bool = False):
    """Positive and negative parts of x by its unique coefficients (None when
    they are not unique): x = B c as (B c+, B c-), a functional f = H^T c
    (H = B^-1) as (H^T c+, H^T c-), a symmetric matrix by its spectrum."""
    if space.norm.kind == SPECTRAL:
        return _spectral_parts(_eigen_checked(_c.as_matrix(space.cone, x)))
    basis = space.cone.coefficient_basis
    if basis is None:
        return None
    B, H = basis
    if dual:
        B, H = H.T, B.T
    c = H @ x
    return B @ np.clip(c, 0.0, None), B @ np.clip(-c, 0.0, None)


def monotone_norm(space: SpaceSpec) -> bool:
    """Whether the norm grows with the absolute values of unique cone
    coefficients (eigenvalues, for spectral): every norm over the orthant,
    and the order-unit and base norms over a simplicial ray cone. Every
    positive decomposition is (B (c+ + w), B (c- + w)) with w >= 0, so the
    split w = 0 minimizes both part norms at once, at every p."""
    if space.norm.kind == SPECTRAL:
        return True  # A = v + W >= v gives lambda_max(A) >= lambda_max(v) (Weyl)
    if space.cone.coefficient_basis is None:
        return False
    return space.cone.kind == _c.NONNEG or space.norm.kind in (ORDER_UNIT, BASE)


def opt_decompose(space: SpaceSpec, v, p: float) -> Decomposition:
    """A positive decomposition v = u1 - u2 minimizing the lp(2) aggregate of
    the part norms: v itself when it lies in the cone, the coefficient split
    where `monotone_norm` holds, else "unsupported": a non-simplicial cone,
    or an lp or sup norm over a simplicial ray cone, where the split need
    not be optimal."""
    check_exponent(p)
    v = np.asarray(v, dtype=float)
    if _c.cone_contains(space.cone, v, tol=1e-9 * (1.0 + np.abs(v).max())):
        return Decomposition(v, np.zeros_like(v), p, norm(space, v), "optimal")
    if not monotone_norm(space):
        return Decomposition(v, np.zeros_like(v), p, math.nan, "unsupported")
    u1, u2 = coefficient_parts(space, v)
    agg = p_aggregate(norm(space, u1), norm(space, u2), p)
    return Decomposition(u1, u2, p, agg, "optimal")


def infty_orth_decompose(space: SpaceSpec, v) -> Decomposition:
    v = np.asarray(v, dtype=float)
    parts = coefficient_parts(space, v)
    if parts is None:
        return Decomposition(v, np.zeros_like(v), INF, math.nan, "unsupported")
    v1, v2 = parts
    verdict = None
    if math.isinf(space.p_class) and np.abs(v1).max() > 0.0 and np.abs(v2).max() > 0.0:
        verdict = p_orthogonal(space, v1, v2, INF)
    agg = p_aggregate(norm(space, v1), norm(space, v2), INF)
    return Decomposition(v1, v2, INF, agg, "optimal", verdict)


def has_dual_split(space: SpaceSpec) -> bool:
    """Whether `dual_one_orth_decompose` splits the functionals of the
    space: by their coefficients where `monotone_norm` holds, except under
    a base norm (its dual norm is a max, which no split makes additive),
    and over the cone's facet normals under an order-unit norm on any ray
    cone. Elsewhere it answers "unsupported"."""
    kind = space.norm.kind
    return (monotone_norm(space) and kind != BASE) or (kind == ORDER_UNIT and space.cone.kind == _c.RAYS)


def dual_one_orth_decompose(space: SpaceSpec, f) -> Decomposition:
    """Split a functional on an infinity-smooth space into positive halves
    with additive dual norms, then certify the halves are 1-orthogonal and,
    for a coefficient split, vanish crosswise on the orthogonal split of a
    norming element. The halves are the coefficient split (on a spectral
    space, read with the norming element off one eigendecomposition of f);
    for an order-unit norm on a non-simplicial ray cone the split over the
    facets active at a norming element (`_dual_split`), or an LP's.
    "unsupported" where `has_dual_split` fails."""
    f = np.asarray(f, dtype=float)
    if not math.isinf(space.p_class):
        raise InputError("dual decomposition requires an infinity-smooth space")

    if not has_dual_split(space):
        return Decomposition(f, np.zeros_like(f), 1.0, math.nan, "unsupported")
    coefficients = monotone_norm(space)
    dec = _eigen_checked(_c.as_matrix(space.cone, f)) if space.norm.kind == SPECTRAL else None
    if coefficients:
        f1, f2 = coefficient_parts(space, f, dual=True) if dec is None else _spectral_parts(dec)
    else:
        f1, f2 = _dual_split(space, f)

    n1, n2, nf = batch_dual_norms(space, np.array([f1, f2, f])).tolist()
    nagg = n1 + n2
    if abs(nagg - nf) > 1e-8 * (1.0 + nf):
        return Decomposition(f1, f2, 1.0, nagg, "failed")
    verdict = p_orthogonal(space, f1, f2, 1.0, dual=True)
    status = "optimal" if verdict.is_orthogonal else "failed"

    # cross-check a coefficient split against the orthogonal (coefficient)
    # split v1 - v2 of a norming element v: each half must vanish on the
    # opposite part (a spectral v, read off f's spectrum, is decomposed anew)
    if status == "optimal" and coefficients and np.abs(f1).max() > 1e-12 and np.abs(f2).max() > 1e-12:
        v = norming_element(space, f) if dec is None else _eigen_norming(dec, 1.0)
        v1, v2 = coefficient_parts(space, v)
        scale = 1.0 + nf * (1.0 + np.abs(v).max())
        if abs(f1 @ v2) > 1e-8 * scale or abs(f2 @ v1) > 1e-8 * scale:
            status = "failed"
    return Decomposition(f1, f2, 1.0, nagg, status, verdict)


def _dual_split(space: SpaceSpec, f: np.ndarray):
    """f = f1 - f2 with f1, f2 in the dual cone of an order-unit space on a
    ray cone and (f1 + f2)(e) = dual_norm(f). The dual norm is least-l1, the
    least sum_j h_j(e) |c_j| over f = H^T c, and by complementary slackness
    an optimal c lives on the facets active at a norming element z,
    A = {j : |h_j . z| = h_j(e)} (within 1e-9), with the sign s_j of
    h_j . z. So f = (s H_A)^T d, with d solved by least squares; f1 sums the
    rows with s_j = +1 and f2 those with s_j = -1, and then
    (f1 + f2)(e) = sum_A d_j h_j(e) = f(z). Coefficients within 1e-12 of the
    largest in magnitude are rounding and count as zero, so that neither
    half is made of rounding alone. The halves are kept when f1 - f2 = f
    and both lie in the dual cone (within 1e-12 of f's scale); otherwise,
    above the facet cap and at f = 0, where z is undefined, an LP decides.
    Splitting by the signs of c instead fails at degenerate vertices, with
    more than n active facets."""
    H = space.cone.facet_normals
    if H is None or not f.any():
        return _dual_split_lp(space, f)
    r = (H @ norming_element(space, f)) / (H @ space.norm.unit)
    active = np.abs(r) >= 1.0 - 1e-9
    s, HA = np.sign(r[active]), H[active]
    d = np.linalg.lstsq((s[:, None] * HA).T, f, rcond=None)[0]
    d = np.where(np.abs(d) <= 1e-12 * np.abs(d).max(initial=0.0), 0.0, d)
    f1, f2 = d[s > 0] @ HA[s > 0], d[s < 0] @ HA[s < 0]
    G, scale = _c.generator_matrix(space.cone), 1e-12 * np.abs(f).max()
    if np.abs(f1 - f2 - f).max() <= scale and (G @ f1).min() >= -scale and (G @ f2).min() >= -scale:
        return f1, f2
    return _dual_split_lp(space, f)


def _dual_split_lp(space: SpaceSpec, f: np.ndarray):
    """f = f1 - f2 minimizing (f1 + f2)(e) over f1, f2 in the dual cone of
    an order-unit space; the variables are f1 (free), with f2 = f1 - f. The
    LP splits f scaled to unit largest entry, and f1 is scaled back. A half
    within 1e-12 of that scale is rounding and is zeroed, as in
    `_dual_split`."""
    G = _c.generator_matrix(space.cone)
    unit_f, scale = unit_scaled(f)
    out = solve_lp(LpProblem(
        objective=-2.0 * space.norm.unit, ineq=np.vstack([-G, -G]),
        ineq_rhs=np.append(np.zeros(len(G)), -(G @ unit_f)), free=np.ones(space.dim, bool),
    ))
    if out.status != "optimal":
        raise UnsupportedError("dual decomposition LP failed")
    f1 = scale * out.argument
    f2 = f1 - f
    return tuple(np.zeros_like(h) if np.abs(h).max() <= 1e-12 * scale else h for h in (f1, f2))


@dataclass(frozen=True)
class EmbeddingMap:
    matrix: np.ndarray  # columns are the vectors of the set

    def synthesize(self, alpha) -> np.ndarray:
        return self.matrix @ np.asarray(alpha, dtype=float)


def embed_to_lp(space: SpaceSpec, U, p: float) -> EmbeddingMap:
    """The map alpha -> sum_i alpha_i u_i of a p-orthonormal set U into the
    space. Checks that every u_i has norm one and that every pair of U is
    p-orthogonal (`orthonormal_set_verify`), raising InputError otherwise;
    totality is not required."""
    report = orthonormal_set_verify(space, U, p)
    if not (report.pairwise_ok and report.unit_norms_ok):
        raise InputError(f"set is not p-orthonormal: {report.failures}")
    return EmbeddingMap(np.stack([np.asarray(u, dtype=float) for u in U]).T)
