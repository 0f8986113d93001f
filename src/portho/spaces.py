"""Space families and their norm / dual-norm oracles.

A SpaceSpec bundles a dimension, a positive cone, a norm and the smoothness
exponent the space claims. Supported norms: weighted lp, sup, order-unit,
base, and spectral (operator norm on symmetric matrices).

Order-unit and base norms, and their dual norms, have closed forms on every
polyhedral cone, built from the cone's facet-normal and basis tables
(`ConeSpec.facet_normals`, `generator_bases`, `facet_bases`): a max-ratio
kernel for the order-unit norm and the base dual norm, a least-l1 kernel
over bases for the base norm and the order-unit dual norm. A ray cone whose
table would exceed `cones.MAX_TABLE_SUBSETS` subsets goes through the LP
solver instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones as _c
from .errors import InputError, SpecError
from .linalg import LpProblem, eigen_sym, solve_lp

INF = math.inf
_BLOCK_ENTRIES = 2**15  # entries of one block of basic solutions in _least_l1

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
    elif n.kind in (ORDER_UNIT, BASE) and space.cone.kind == _c.PSD:
        # the order-unit norm of e = I is the spectral family's norm
        raise SpecError(f"norm.kind: {n.kind} needs a polyhedral cone, not psd")
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
    unit, ones for the sup (or lp inf) norm over the orthant, the identity
    matrix for the spectral norm. None for the other families."""
    kind = space.norm.kind
    if kind == ORDER_UNIT:
        return space.norm.unit
    if (kind == SUP or (kind == LP and math.isinf(space.norm.p))) and space.cone.kind == _c.NONNEG:
        return np.ones(space.dim)
    if kind == SPECTRAL:
        return np.eye(space.cone.side).ravel()
    return None


# ---------------------------------------------------------------------------
# norm and dual norm: each family's closed form lives in the row oracles
# batch_norms / batch_dual_norms; norm and dual_norm evaluate a single row.
# The order-unit and base families share two kernels (the order-unit/base
# duality): with facet normals H and generators G, the order-unit norm is
# _max_ratio(H, H e), the base dual norm _max_ratio(G, G phi), the base norm
# _least_l1 over the bases of G and the order-unit dual norm _least_l1 over
# the bases of H. Only a cone above the table cap costs one LP per row.


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
        # no weights means weight 1, so the product is skipped, not computed
        A = np.abs(W) ** nk.p
        if nk.weights is not None:
            A *= nk.weights
        return np.sum(A, axis=1) ** (1.0 / nk.p)
    if nk.kind == SPECTRAL:
        return np.abs(np.linalg.eigvalsh(_c.as_matrix(cone, W))).max(axis=1)
    if nk.kind == ORDER_UNIT:
        # least k with k e +- x in the cone = {x : H x >= 0}
        if cone.kind == _c.NONNEG:
            return np.max(np.abs(W) / nk.unit, axis=1)
        H = cone.facet_normals
        if H is not None:
            return _max_ratio(W, H, H @ nk.unit)
        return np.array([_order_unit_norm_lp(space, w) for w in W])
    # base: least sum_i phi(g_i) |c_i| over the representations x = G^T c
    if cone.kind == _c.NONNEG:
        return np.sum(nk.phi * np.abs(W), axis=1)
    bases = cone.generator_bases
    if bases is not None:
        return _least_l1(W, bases, cone.generators @ nk.phi)
    return np.array([_base_norm_lp(space, w) for w in W])


def batch_dual_norms(space: SpaceSpec, F) -> np.ndarray:
    """Dual norms of the rows of F (functionals act by the dot product)."""
    F = _check_rows(space, F)
    nk = space.norm
    cone = space.cone
    if nk.kind == SUP or (nk.kind == LP and math.isinf(nk.p)):
        return np.sum(np.abs(F), axis=1)
    if nk.kind == LP:
        w = nk.weights
        if nk.p == 1.0:
            A = np.abs(F)
            return np.max(A if w is None else A / w, axis=1)
        q = conjugate(nk.p)
        A = np.abs(F) ** q
        if w is not None:
            A *= w ** (1.0 - q)
        return np.sum(A, axis=1) ** (1.0 / q)
    if nk.kind == SPECTRAL:
        return np.sum(np.abs(np.linalg.eigvalsh(_c.as_matrix(cone, F))), axis=1)
    if nk.kind == BASE:
        # max_i |f(g_i)| / phi(g_i)
        if cone.kind == _c.NONNEG:
            return np.max(np.abs(F) / nk.phi, axis=1)
        G = cone.generators
        return _max_ratio(F, G, G @ nk.phi)
    # order unit: least sum_i h_i(e) |c_i| over the representations f = H^T c
    if cone.kind == _c.NONNEG:
        return np.sum(np.abs(F) * nk.unit, axis=1)
    bases = cone.facet_bases
    if bases is not None:
        return _least_l1(F, bases, cone.facet_normals @ nk.unit)
    return np.array([_order_unit_dual_lp(space, f)[0] for f in F])


def _max_ratio(X: np.ndarray, V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """max_i |v_i . x| / w_i for each row x of X."""
    return np.max(np.abs(X @ V.T) / w, axis=1)


def _least_l1(X: np.ndarray, bases, w: np.ndarray) -> np.ndarray:
    """min sum_i w_i |c_i| over V^T c = x, for each row x of X: w > 0, so
    the LP has an optimal basic solution c_S = (V_S^T)^-1 x, and the answer
    is a running minimum over the bases (S, inv) of the table, taken in
    blocks of at most _BLOCK_ENTRIES intermediate entries."""
    S, inv = bases
    rows, n = X.shape
    ws = w[S]
    step = max(1, _BLOCK_ENTRIES // max(1, rows * n))
    best = np.full(rows, np.inf)
    for b in range(0, len(S), step):
        block = inv[b:b + step]
        k = len(block)
        C = (X @ block.reshape(k * n, n).T).reshape(rows, k, n)
        np.minimum(best, np.sum(ws[b:b + step] * np.abs(C), axis=2).min(axis=1), out=best)
    return best


def _order_unit_norm_lp(space: SpaceSpec, x: np.ndarray) -> float:
    # min k s.t. ke - x = G^T s, ke + x = G^T t, s,t >= 0, k >= 0; variables
    # (k, s, t), the two rows of coordinate j adjacent
    e = space.norm.unit[:, None]
    Gt = space.cone.generators.T
    n, m = Gt.shape
    Z = np.zeros((n, m))
    eq = np.stack([np.hstack([e, -Gt, Z]), np.hstack([e, Z, -Gt])], axis=1).reshape(2 * n, -1)
    obj = -np.eye(1 + 2 * m)[0]
    out = solve_lp(LpProblem(objective=obj, eq=eq, eq_rhs=np.stack([x, -x], axis=1).ravel()))
    if out.status != "optimal":
        raise InputError("order unit norm LP failed; unit likely not interior")
    return float(out.argument[0])


def _base_norm_lp(space: SpaceSpec, x: np.ndarray) -> float:
    # min sum_i (s_i + t_i) phi(g_i) s.t. G^T (s - t) = x, s,t >= 0
    G = space.cone.generators
    gphi = G @ space.norm.phi
    obj = -np.concatenate([gphi, gphi])
    out = solve_lp(LpProblem(objective=obj, eq=np.hstack([G.T, -G.T]), eq_rhs=x))
    if out.status != "optimal":
        raise InputError("base norm LP failed")
    return float(-out.optimum)


def _order_unit_dual_lp(space: SpaceSpec, f: np.ndarray):
    """Returns (dual norm of f, an argmax x on the unit ball)."""
    # max f.x s.t. e - x = G^T s, e + x = G^T t, s,t >= 0, x free; variables
    # (x, s, t), the two rows of coordinate j adjacent
    e = space.norm.unit
    Gt = space.cone.generators.T
    n, m = Gt.shape
    I, Z = np.eye(n), np.zeros((n, m))
    eq = np.stack([np.hstack([I, Gt, Z]), np.hstack([-I, Z, Gt])], axis=1).reshape(2 * n, -1)
    obj = np.concatenate([f, np.zeros(2 * m)])
    free = np.arange(n + 2 * m) < n
    out = solve_lp(LpProblem(objective=obj, eq=eq, eq_rhs=np.repeat(e, 2), free=free))
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
    if space.cone.coefficient_basis is not None:
        B, Binv = space.cone.coefficient_basis
        s = np.sign(f @ B)
        s[s == 0.0] = 1.0
        return B @ (s * (Binv @ e))
    return _order_unit_dual_lp(space, f)[1]


# ---------------------------------------------------------------------------
# restricted (two-dimensional subspace) dual norm


def restricted_dual_norms(space: SpaceSpec, u1, u2):
    """Row oracle of the dual norm on span{u1, u2} (linearly independent)
    for a weighted l1 norm: lp p = 1 or base over the orthant. For each row
    (a1, a2) of C it returns sup |a1 l1 + a2 l2| over ||l1 u1 + l2 u2|| <= 1.

    The norm sum_i w_i |l1 u1_i + l2 u2_i| is linear between the lines
    where one coordinate vanishes, so the unit ball in (l1, l2) is a polygon
    whose vertices lie on the directions +-(u2_i, -u1_i); a linear
    functional attains its sup over the polygon at a vertex."""
    nk = space.norm
    if space.cone.kind != _c.NONNEG or not (nk.kind == BASE or (nk.kind == LP and nk.p == 1.0)):
        raise InputError(f"restricted dual norm needs a weighted l1 norm, not {space.describe()}")
    U = np.stack([_check_vec(space, u1), _check_vec(space, u2)])
    D = np.stack([U[1], -U[0]], axis=1)
    D = D[np.abs(D).max(axis=1) > 0.0]
    lengths = batch_norms(space, D @ U)
    if not (lengths.size and lengths.min() > 0.0):
        raise InputError("u1 and u2 must be linearly independent")
    V = D / lengths[:, None]
    return lambda C: np.abs(np.asarray(C, dtype=float) @ V.T).max(axis=1)
