"""Space families and their norm / dual-norm oracles.

A SpaceSpec bundles a dimension, a positive cone, a norm and the smoothness
exponent the space claims. Supported norms: weighted lp, sup, order-unit,
base, and spectral (operator norm on symmetric matrices).

Order-unit and base norms have closed forms when the cone is the orthant or a
simplicial ray cone; the general polyhedral case goes through the LP solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones as _c
from .errors import InputError, SpecError
from .linalg import LpProblem, eigen_sym, solve_lp

INF = math.inf

LP = "lp"
SUP = "sup"
ORDER_UNIT = "order_unit"
BASE = "base"
SPECTRAL = "spectral"


def conjugate(p: float) -> float:
    """Conjugate exponent: 1 <-> inf, else p/(p-1)."""
    if p < 1:
        raise InputError("invalid exponent")
    if p == 1.0:
        return INF
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


@dataclass(frozen=True)
class NormKind:
    kind: str
    p: float | None = None  # lp only; math.inf allowed
    weights: np.ndarray | None = None  # lp only, strictly positive
    unit: np.ndarray | None = None  # order_unit: the unit e
    phi: np.ndarray | None = None  # base: the defining functional

    def __post_init__(self):
        if self.kind not in (LP, SUP, ORDER_UNIT, BASE, SPECTRAL):
            raise SpecError(f"unknown norm kind {self.kind!r}")
        for name in ("weights", "unit", "phi"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.asarray(v, dtype=float))


@dataclass(frozen=True)
class SpaceSpec:
    dim: int
    cone: _c.ConeSpec
    norm: NormKind
    p_class: float

    def describe(self) -> str:
        n = self.norm
        if n.kind == LP:
            return f"lp(p={n.p})^{self.dim}"
        if n.kind == SPECTRAL:
            return f"spectral(d={self.cone.side})"
        return f"{n.kind}^{self.dim}[{self.cone.kind}]"


def validate_space(space: SpaceSpec) -> None:
    """Raise SpecError naming the offending field if the spec is malformed."""
    if space.dim < 1 or space.dim != space.cone.ambient_dim:
        raise SpecError("dimension mismatch between space and cone")
    if not (space.p_class >= 1.0):
        raise SpecError("invalid exponent")
    rep = _c.cone_proper_generating(space.cone)
    if not rep.proper:
        raise SpecError("cone not proper")
    if not rep.generating:
        raise SpecError("cone not generating")
    n = space.norm
    if n.kind == LP:
        if n.p is None or not (n.p >= 1.0):
            raise SpecError("invalid exponent")
        if n.weights is not None:
            if n.weights.shape != (space.dim,) or np.any(n.weights <= 0.0):
                raise SpecError("weights must be strictly positive")
    elif n.kind == ORDER_UNIT:
        if n.unit is None or n.unit.shape != (space.dim,):
            raise SpecError("order unit missing or wrong length")
        _check_unit_interior(space.cone, n.unit)
    elif n.kind == BASE:
        if n.phi is None or n.phi.shape != (space.dim,):
            raise SpecError("base functional missing or wrong length")
        G = _c.generator_matrix(space.cone)
        if np.any(G @ n.phi <= 0.0):
            raise SpecError("base functional not strictly positive on cone")
    elif n.kind == SPECTRAL:
        if space.cone.kind != _c.PSD:
            raise SpecError("spectral norm requires the psd cone")


def _check_unit_interior(cone: _c.ConeSpec, e: np.ndarray) -> None:
    if cone.kind == _c.NONNEG:
        if not np.all(e > 0.0):
            raise SpecError("order unit not interior")
        return
    if cone.kind == _c.PSD:
        M = _c.as_matrix(cone, e)
        if eigen_sym(M).eigenvalues[-1] <= 0.0:
            raise SpecError("order unit not interior")
        return
    G = cone.generators
    s = G.sum(axis=0)
    eps = 1e-6 * (np.linalg.norm(e) / max(np.linalg.norm(s), 1e-300))
    if not _c.cone_contains(cone, e - eps * s):
        raise SpecError("order unit not interior")


# ---------------------------------------------------------------------------
# factories


def lp_space(n: int, p: float, weights=None) -> SpaceSpec:
    return SpaceSpec(n, _c.nonneg_orthant(n), NormKind(LP, p=p, weights=weights), p)


def sup_space(n: int) -> SpaceSpec:
    return SpaceSpec(n, _c.nonneg_orthant(n), NormKind(SUP), INF)


def order_unit_space(cone: _c.ConeSpec, e) -> SpaceSpec:
    return SpaceSpec(cone.ambient_dim, cone, NormKind(ORDER_UNIT, unit=np.asarray(e, dtype=float)), INF)


def base_space(cone: _c.ConeSpec, phi) -> SpaceSpec:
    return SpaceSpec(cone.ambient_dim, cone, NormKind(BASE, phi=np.asarray(phi, dtype=float)), 1.0)


def spectral_space(d: int) -> SpaceSpec:
    return SpaceSpec(d * d, _c.psd_cone(d), NormKind(SPECTRAL), INF)


# ---------------------------------------------------------------------------
# internal helpers


def _weights(space: SpaceSpec) -> np.ndarray:
    w = space.norm.weights
    return w if w is not None else np.ones(space.dim)


def _check_vec(space: SpaceSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (space.dim,):
        raise InputError(f"vector has shape {x.shape}, expected ({space.dim},)")
    return x


def _check_rows(space: SpaceSpec, W) -> np.ndarray:
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != space.dim:
        raise InputError(f"rows have shape {W.shape}, expected (n, {space.dim})")
    return W


def order_unit(space: SpaceSpec) -> np.ndarray | None:
    """The order unit e whose order-unit norm is the space's norm: the given
    unit, ones for the sup norm over the orthant, the identity matrix for the
    spectral norm. None for the other families."""
    kind = space.norm.kind
    if kind == ORDER_UNIT:
        return space.norm.unit
    if kind == SUP and space.cone.kind == _c.NONNEG:
        return np.ones(space.dim)
    if kind == SPECTRAL:
        return np.eye(space.cone.side).ravel()
    return None


# ---------------------------------------------------------------------------
# norm and dual norm: each family's closed form lives in the row oracles
# batch_norms / batch_dual_norms; norm and dual_norm evaluate a single row.
# On a non-simplicial ray cone the order-unit and base norms (and the
# order-unit dual norm) cost one LP per row.


def norm(space: SpaceSpec, x) -> float:
    return float(batch_norms(space, _check_vec(space, x)[None])[0])


def dual_norm(space: SpaceSpec, f) -> float:
    return float(batch_dual_norms(space, _check_vec(space, f)[None])[0])


def batch_norms(space: SpaceSpec, W) -> np.ndarray:
    """Norms of the rows of W."""
    W = _check_rows(space, W)
    nk = space.norm
    cone = space.cone
    if nk.kind == SUP or (nk.kind == LP and math.isinf(nk.p)):
        return np.abs(W).max(axis=1)
    if nk.kind == LP:
        return np.sum(_weights(space) * np.abs(W) ** nk.p, axis=1) ** (1.0 / nk.p)
    if nk.kind == SPECTRAL:
        return np.abs(np.linalg.eigvalsh(_c.as_matrix(cone, W))).max(axis=1)
    if nk.kind == ORDER_UNIT:
        # max_i |a_i(x)| / a_i(e) over the cone coefficients a
        if cone.kind == _c.NONNEG:
            return np.max(np.abs(W) / nk.unit, axis=1)
        if cone.coefficient_basis is not None:
            Binv = cone.coefficient_basis[1]
            return np.max(np.abs(W @ Binv.T) / (Binv @ nk.unit), axis=1)
        return np.array([_order_unit_norm_lp(space, w) for w in W])
    # base: sum_i phi(g_i) |a_i(x)| over the cone coefficients a
    if cone.kind == _c.NONNEG:
        return np.sum(nk.phi * np.abs(W), axis=1)
    if cone.coefficient_basis is not None:
        Binv = cone.coefficient_basis[1]
        return np.sum((cone.generators @ nk.phi) * np.abs(W @ Binv.T), axis=1)
    return np.array([_base_norm_lp(space, w) for w in W])


def batch_dual_norms(space: SpaceSpec, F) -> np.ndarray:
    """Dual norms of the rows of F (functionals act by the dot product)."""
    F = _check_rows(space, F)
    nk = space.norm
    cone = space.cone
    if nk.kind == SUP or (nk.kind == LP and math.isinf(nk.p)):
        return np.sum(np.abs(F), axis=1)
    if nk.kind == LP:
        w = _weights(space)
        if nk.p == 1.0:
            return np.max(np.abs(F) / w, axis=1)
        q = conjugate(nk.p)
        return np.sum(w ** (1.0 - q) * np.abs(F) ** q, axis=1) ** (1.0 / q)
    if nk.kind == SPECTRAL:
        return np.sum(np.abs(np.linalg.eigvalsh(_c.as_matrix(cone, F))), axis=1)
    if nk.kind == BASE:
        # max_i |f(g_i)| / phi(g_i)
        if cone.kind == _c.NONNEG:
            return np.max(np.abs(F) / nk.phi, axis=1)
        G = cone.generators
        return np.max(np.abs(F @ G.T) / (G @ nk.phi), axis=1)
    # order unit: sum_i |f(g_i)| a_i(e)
    if cone.kind == _c.NONNEG:
        return np.sum(np.abs(F) * nk.unit, axis=1)
    if cone.coefficient_basis is not None:
        B, Binv = cone.coefficient_basis
        return np.sum(np.abs(F @ B) * (Binv @ nk.unit), axis=1)
    return np.array([_order_unit_dual_lp(space, f)[0] for f in F])


def _order_unit_norm_lp(space: SpaceSpec, x: np.ndarray) -> float:
    # min k s.t. ke - x = G^T s, ke + x = G^T t, s,t >= 0, k >= 0
    e = space.norm.unit
    G = space.cone.generators
    m, n = G.shape
    nv = 1 + 2 * m  # k, s, t
    obj = np.zeros(nv)
    obj[0] = -1.0
    eq = []
    for j in range(n):
        row = np.zeros(nv)
        row[0] = e[j]
        row[1:1 + m] = -G[:, j]
        eq.append((row, x[j]))
        row2 = np.zeros(nv)
        row2[0] = e[j]
        row2[1 + m:] = -G[:, j]
        eq.append((row2, -x[j]))
    out = solve_lp(LpProblem(objective=obj, eq=eq))
    if out.status != "optimal":
        raise InputError("order unit norm LP failed; unit likely not interior")
    return float(out.argument[0])


def _base_norm_lp(space: SpaceSpec, x: np.ndarray) -> float:
    # min sum_i (s_i + t_i) phi(g_i) s.t. G^T (s - t) = x, s,t >= 0
    G = space.cone.generators
    n = G.shape[1]
    gphi = G @ space.norm.phi
    obj = -np.concatenate([gphi, gphi])
    eq = [(np.concatenate([G[:, j], -G[:, j]]), x[j]) for j in range(n)]
    out = solve_lp(LpProblem(objective=obj, eq=eq))
    if out.status != "optimal":
        raise InputError("base norm LP failed")
    return float(-out.optimum)


def _order_unit_dual_lp(space: SpaceSpec, f: np.ndarray):
    """Returns (dual norm of f, an argmax x on the unit ball)."""
    # max f.x s.t. e - x = G^T s, e + x = G^T t, s,t >= 0, x free
    e = space.norm.unit
    G = space.cone.generators
    m, n = G.shape
    nv = n + 2 * m
    obj = np.zeros(nv)
    obj[:n] = f
    eq = []
    for j in range(n):
        row = np.zeros(nv)
        row[j] = 1.0
        row[n:n + m] = G[:, j]
        eq.append((row, e[j]))
        row2 = np.zeros(nv)
        row2[j] = -1.0
        row2[n + m:] = G[:, j]
        eq.append((row2, e[j]))
    lb = (None,) * n + (0.0,) * (2 * m)
    out = solve_lp(LpProblem(objective=obj, eq=eq, lower_bounds=lb))
    if out.status != "optimal":
        raise InputError("dual norm LP failed")
    return float(out.optimum), out.argument[:n]


def norming_element(space: SpaceSpec, f) -> np.ndarray:
    """A vector x with norm(x) <= 1 attaining f(x) = dual_norm(f). f != 0."""
    f = _check_vec(space, f)
    if np.abs(f).max() == 0.0:
        raise InputError("norming element undefined for the zero functional")
    kind = space.norm.kind
    if kind == LP:
        p = space.norm.p
        w = _weights(space)
        if math.isinf(p):
            s = np.sign(f)
            s[s == 0.0] = 1.0
            return s
        if p == 1.0:
            j = int(np.argmax(np.abs(f) / w))
            x = np.zeros(space.dim)
            x[j] = np.sign(f[j]) / w[j]
            return x
        y = np.sign(f) * (np.abs(f) / w) ** (1.0 / (p - 1.0))
        return y / norm(space, y)
    if kind == SUP:
        s = np.sign(f)
        s[s == 0.0] = 1.0
        return s
    if kind == SPECTRAL:
        dec = eigen_sym(_c.as_matrix(space.cone, f))
        s = np.sign(dec.eigenvalues)
        s[s == 0.0] = 1.0
        X = dec.eigenvectors.T @ np.diag(s) @ dec.eigenvectors
        return X.ravel()
    if kind == BASE:
        G = _c.generator_matrix(space.cone)
        ratios = np.abs(G @ f) / (G @ space.norm.phi)
        j = int(np.argmax(ratios))
        g = G[j]
        return float(np.sign(g @ f)) * g / float(g @ space.norm.phi)
    # order unit: a vertex of the order interval [-e, e]
    e = space.norm.unit
    cone = space.cone
    if cone.kind == _c.NONNEG:
        s = np.sign(f)
        s[s == 0.0] = 1.0
        return s * e
    if cone.coefficient_basis is not None:
        B, Binv = cone.coefficient_basis
        s = np.sign(f @ B)
        s[s == 0.0] = 1.0
        return B @ (s * (Binv @ e))
    return _order_unit_dual_lp(space, f)[1]


# ---------------------------------------------------------------------------
# restricted (two-dimensional subspace) dual norm


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(h, lo: float, hi: float, tol: float = 1e-10) -> float:
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


def restricted_norm(space: SpaceSpec, span_basis, g_values, n_dirs: int = 720) -> float:
    """Norm of the functional g on W = span{u1, u2}, where g is given by its
    values (g(u1), g(u2)): sup |g(w)| over the unit ball of W in the ambient
    norm. Angular scan plus golden-section refinement; the objective is
    continuous on the direction circle but need not be smooth.
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


class RestrictedBall:
    """Precomputed boundary of the unit ball of span{u1, u2}, reused to take
    many restricted-norm evaluations against the same pair cheaply."""

    def __init__(self, space: SpaceSpec, u1, u2, n_dirs: int = 720):
        u1 = np.asarray(u1, dtype=float)
        u2 = np.asarray(u2, dtype=float)
        thetas = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
        cs, sn = np.cos(thetas), np.sin(thetas)
        W = np.outer(cs, u1) + np.outer(sn, u2)
        norms = batch_norms(space, W)
        self.boundary = np.stack([cs, sn], axis=1) / norms[:, None]

    def dual_values(self, C) -> np.ndarray:
        """Row oracle: for each row (alpha1, alpha2) of C,
        sup { |alpha1 l1 + alpha2 l2| : ||l1 u1 + l2 u2|| <= 1 } over the
        scanned boundary (no refinement; adequate for residual checks)."""
        return np.abs(np.asarray(C, dtype=float) @ self.boundary.T).max(axis=1)
