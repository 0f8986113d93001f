"""Space families and their norm / dual-norm oracles.

A SpaceSpec bundles a dimension, a positive cone, a norm and the smoothness
exponent the space claims. Supported norms: weighted lp, sup, order-unit,
base, and spectral (operator norm on symmetric matrices).

Each norm and dual norm resolves once per space (`_form`) to one closed
form: max-ratio max_j |v_j . x| / w_j (sup, the order-unit norm over the
facet normals, the base dual norm over the generators), least-l1 (lp 1, the
base norm and the order-unit dual norm over the cone's basis tables), power
(lp at 1 < p < inf), eigen (spectral) or, for a ray cone whose table would
exceed `cones.MAX_TABLE_SUBSETS` subsets, the solver. `batch_norms` and
`batch_dual_norms` evaluate it on rows; `norming` returns its maximizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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

# the closed forms of a norm or dual norm (see `_Form`)
MAX = "max"  # max_j |v_j . x| / w_j
L1 = "l1"  # min sum_j w_j |c_j| over x = V^T c
POWER = "power"  # (sum_j w_j |x_j|^p)^(1/p)
EIGEN = "eigen"  # max or sum of |eigenvalues|
SOLVER = "solver"  # an LP over the dual ball


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
    # the _Form of the norm (key False) and of the dual norm (True), filled in by _form
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
# closed forms: each norm and dual norm resolves to one _Form, which the norm
# layer evaluates on rows and `norming` maximizes


class _Form(NamedTuple):
    kind: str  # MAX, L1, POWER, EIGEN or SOLVER
    V: np.ndarray | None = None  # max: rows v_j, None for the coordinates
    w: np.ndarray | None = None  # weights, None for weight 1
    bases: tuple | None = None  # l1: basis table (S, inv) of V, None for the coordinates
    p: float | None = None  # power: the exponent; eigen: inf (max) or 1 (sum)


def _form(space: SpaceSpec, dual: bool = False) -> _Form:
    """The closed form of the norm (dual=False) or the dual norm, resolved
    once per space and direction."""
    form = space._forms.get(dual)
    if form is None:
        form = space._forms[dual] = _resolve(space, dual)
    return form


def _resolve(space: SpaceSpec, dual: bool) -> _Form:
    nk, cone = space.norm, space.cone
    if nk.kind == SPECTRAL:
        return _Form(EIGEN, p=1.0 if dual else INF)
    if nk.kind == SUP or (nk.kind == LP and math.isinf(nk.p)):
        return _Form(L1 if dual else MAX)
    if nk.kind == LP:
        if nk.p == 1.0:
            return _Form(MAX if dual else L1, w=nk.weights)
        if not dual:
            return _Form(POWER, w=nk.weights, p=nk.p)
        q = conjugate(nk.p)
        return _Form(POWER, w=None if nk.weights is None else nk.weights ** (1.0 - q), p=q)
    # the order-unit / base duality: the order-unit norm and the base dual
    # norm are max-ratio forms, the base norm and the order-unit dual norm
    # least-l1 forms, over the facet normals H with w = H e, or the
    # generators G with w = G phi
    ou = nk.kind == ORDER_UNIT
    u = nk.unit if ou else nk.phi
    kind = MAX if ou != dual else L1
    if cone.kind == _c.NONNEG:
        return _Form(kind, w=u)
    V = cone.facet_normals if ou else cone.generators
    bases = None if kind == MAX else cone.facet_bases if ou else cone.generator_bases
    if V is None or (kind == L1 and bases is None):
        return _Form(SOLVER)
    return _Form(kind, V=V, w=V @ u, bases=bases)


def norm(space: SpaceSpec, x) -> float:
    return float(batch_norms(space, _check_vec(space, x)[None])[0])


def dual_norm(space: SpaceSpec, f) -> float:
    return float(batch_dual_norms(space, _check_vec(space, f)[None])[0])


def batch_norms(space: SpaceSpec, W) -> np.ndarray:
    """Norms of the rows of W."""
    return _evaluate(space, _check_rows(space, W), False)


def batch_dual_norms(space: SpaceSpec, F) -> np.ndarray:
    """Dual norms of the rows of F (functionals act by the dot product)."""
    return _evaluate(space, _check_rows(space, F), True)


def _evaluate(space: SpaceSpec, X: np.ndarray, dual: bool) -> np.ndarray:
    form = _form(space, dual)
    if form.kind == MAX:
        A = np.abs(X if form.V is None else X @ form.V.T)
        return (A if form.w is None else A / form.w).max(axis=1)
    if form.kind == L1:
        if form.bases is not None:
            return _least_l1(X, form.bases, form.w)
        A = np.abs(X)
        return (A if form.w is None else A * form.w).sum(axis=1)
    if form.kind == POWER:
        return _power(X, form.p, form.w)
    if form.kind == EIGEN:
        A = np.abs(np.linalg.eigvalsh(_c.as_matrix(space.cone, X)))
        return A.max(axis=1) if math.isinf(form.p) else A.sum(axis=1)
    return np.array([_dual_ball_lp(space, x, dual)[0] for x in X])


def _power(X: np.ndarray, p: float, w) -> np.ndarray:
    """(sum_j w_j |x_j|^p)^(1/p) for each row x of X. A row whose sum of
    powers overflows, or underflows to 0 on a nonzero row, is evaluated
    again as m (sum_j w_j (|x_j| / m)^p)^(1/p) with m = max_j |x_j|."""
    A = np.abs(X) ** p
    if w is not None:  # no weights means weight 1: the product is skipped
        A *= w
    s = A.sum(axis=1)
    out = s ** (1.0 / p)
    if not (np.minimum.reduce(s, initial=INF) > 0.0 and np.maximum.reduce(s, initial=0.0) < INF):
        m = np.abs(X).max(axis=1)
        redo = ((s == 0.0) | (s == INF)) & (m > 0.0) & (m < INF)
        A = (np.abs(X[redo]) / m[redo, None]) ** p
        if w is not None:
            A *= w
        out[redo] = m[redo] * A.sum(axis=1) ** (1.0 / p)
    return out


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


def norming(space: SpaceSpec, x, dual: bool = False, tiebreak=None) -> np.ndarray:
    """The maximizer of the form at x != 0: for dual=False a functional f
    with dual_norm(f) <= 1 and f(x) = norm(x) (a support functional of x),
    for dual=True a vector y with norm(y) <= 1 and x(y) = dual_norm(x) (a
    norming element of the functional x). Of a max-ratio form it is
    sign(v_j . x) v_j / w_j at a maximizing j; given `tiebreak`, j is the
    maximizer (within 1e-12 (1 + max)) with the least v_j . tiebreak / w_j.
    A least-l1 form over more than one basis, and the solver form, take the
    maximizer of the dual-ball LP."""
    x = _check_vec(space, x)
    if np.abs(x).max() == 0.0:
        raise InputError(f"{'norming element' if dual else 'support functional'} undefined at 0")
    form = _form(space, dual)
    V, w = form.V, form.w
    if form.kind == MAX:
        r = x if V is None else V @ x
        a = np.abs(r) if w is None else np.abs(r) / w
        j = int(np.argmax(a))
        if tiebreak is not None:
            top = np.flatnonzero(a >= a[j] - 1e-12 * (1.0 + a[j]))
            tiebreak = np.asarray(tiebreak, dtype=float)
            t = tiebreak[top] if V is None else V[top] @ tiebreak
            j = top[np.argmin(t if w is None else t / w[top])]
        v = np.eye(1, space.dim, j)[0] if V is None else V[j]
        return np.sign(r[j]) * v if w is None else np.sign(r[j]) * v / w[j]
    if form.kind == L1 and form.bases is None:
        return np.sign(x) if w is None else w * np.sign(x)
    if form.kind == L1 and len(form.bases[0]) == 1:
        # one basis: the dual solution inv^T (w_S sign(c_S)) at c_S = inv x
        S, inv = form.bases[0][0], form.bases[1][0]
        return inv.T @ (w[S] * np.sign(inv @ x))
    if form.kind == POWER:
        f = np.sign(x) * np.abs(x) ** (form.p - 1.0)
        if w is not None:
            f = w * f
        return f / _evaluate(space, x[None], dual)[0] ** (form.p - 1.0)
    if form.kind == EIGEN:
        dec = eigen_sym(_c.as_matrix(space.cone, x))
        if math.isinf(form.p):  # the top eigenvalue in absolute value
            i = int(np.argmax(np.abs(dec.eigenvalues)))
            vec = dec.eigenvectors[i]
            return float(np.sign(dec.eigenvalues[i])) * np.outer(vec, vec).ravel()
        s = np.sign(dec.eigenvalues)
        return (dec.eigenvectors.T @ np.diag(s) @ dec.eigenvectors).ravel()
    return _dual_ball_lp(space, x, dual)[1]


def norming_element(space: SpaceSpec, f) -> np.ndarray:
    """A vector x with norm(x) <= 1 attaining f(x) = dual_norm(f). f != 0."""
    return norming(space, f, dual=True)


def _dual_ball_lp(space: SpaceSpec, x: np.ndarray, dual: bool):
    """(value, maximizer) of the largest x(z) over the unit ball of the other
    direction, for the order-unit and base norms (dual=False) and the
    order-unit dual norm (the base dual norm is always a max-ratio form),
    with G the generators:
    - base norm: z = f with |G f| <= G phi;
    - order-unit norm: z = f1 - f2 with G f1 >= 0, G f2 >= 0 and
      (f1 + f2)(e) <= 1, variables (f1, f2);
    - order-unit dual norm: z with e - z = G^T s, e + z = G^T t, s, t >= 0,
      variables (z, s, t), the two rows of coordinate j adjacent."""
    G = _c.generator_matrix(space.cone)
    m, n = G.shape
    if not dual and space.norm.kind == BASE:
        gphi = G @ space.norm.phi
        problem = LpProblem(objective=x, ineq=np.vstack([G, -G]),
                            ineq_rhs=np.concatenate([gphi, gphi]), free=np.ones(n, bool))
    elif not dual:
        Z, e = np.zeros_like(G), space.norm.unit
        problem = LpProblem(objective=np.concatenate([x, -x]), ineq=np.block([[-G, Z], [Z, -G], [e, e]]),
                            ineq_rhs=np.append(np.zeros(2 * m), 1.0), free=np.ones(2 * n, bool))
    else:
        I, Z = np.eye(n), np.zeros((n, m))
        eq = np.stack([np.hstack([I, G.T, Z]), np.hstack([-I, Z, G.T])], axis=1).reshape(2 * n, -1)
        problem = LpProblem(objective=np.concatenate([x, np.zeros(2 * m)]), eq=eq,
                            eq_rhs=np.repeat(space.norm.unit, 2), free=np.arange(n + 2 * m) < n)
    out = solve_lp(problem)
    if out.status != "optimal":
        raise InputError(f"{space.norm.kind} {'dual ' if dual else ''}norm LP failed")
    z = out.argument
    return float(out.optimum), (z[:n] - z[n:] if not dual and space.norm.kind == ORDER_UNIT else z[:n])


# ---------------------------------------------------------------------------
# restricted (two-dimensional subspace) dual norm


def restricted_dual_norms(space: SpaceSpec, u1, u2):
    """Row oracle of the dual norm on span{u1, u2} (linearly independent)
    for a weighted l1 norm (a coordinate least-l1 form). For each row
    (a1, a2) of C it returns sup |a1 l1 + a2 l2| over ||l1 u1 + l2 u2|| <= 1.

    The norm sum_i w_i |l1 u1_i + l2 u2_i| is linear between the lines
    where one coordinate vanishes, so the unit ball in (l1, l2) is a polygon
    whose vertices lie on the directions +-(u2_i, -u1_i); a linear
    functional attains its sup over the polygon at a vertex."""
    form = _form(space)
    if form.kind != L1 or form.bases is not None:
        raise InputError(f"restricted dual norm needs a weighted l1 norm, not {space.describe()}")
    U = np.stack([_check_vec(space, u1), _check_vec(space, u2)])
    D = np.stack([U[1], -U[0]], axis=1)
    D = D[np.abs(D).max(axis=1) > 0.0]
    lengths = batch_norms(space, D @ U)
    if not (lengths.size and lengths.min() > 0.0):
        raise InputError("u1 and u2 must be linearly independent")
    V = D / lengths[:, None]
    return lambda C: np.abs(np.asarray(C, dtype=float) @ V.T).max(axis=1)
