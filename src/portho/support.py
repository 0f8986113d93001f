"""Support functionals, positive supports and crusts. A support functional
is the maximizer of the norm's closed form (`spaces.norming`); positive
supports read it too, except that the base norm keeps its own positive
support (no mass off the support of u on a lattice cone; on a
non-simplicial one the least-mass support, half of phi plus a norming
vertex, and one LP only above the vertex cap) and a cone above the table
cap answers through an LP over the dual cone. A crust is a positive
support of its partner; whether the partner is inf-orthogonal to u is
decided by `ortho.p_orthogonal`, exactly for every form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones as _c
from .errors import InputError
from .linalg import LpProblem, solve_lp, unit_scaled
from .ortho import p_orthogonal
from .spaces import BASE, LP, MAX, SOLVER, SpaceSpec, _form, norm, norming, order_unit


@dataclass(frozen=True)
class SupportResult:
    functional: np.ndarray
    attained_value: float
    is_positive: bool


@dataclass(frozen=True)
class CrustResult:
    functional: np.ndarray  # positive, norm one, vanishes on u
    partner: np.ndarray  # e - u/||u||, the greatest inf-orthogonal partner
    partner_orthogonal: bool


def support_functional(space: SpaceSpec, v) -> SupportResult:
    v = np.asarray(v, dtype=float)
    f = norming(space, v)
    return SupportResult(f, float(f @ v), bool(_c.dual_cone_contains(space.cone, f, tol=1e-9)))


def _check_positive(space: SpaceSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.abs(u).max() == 0.0:
        raise InputError("argument must be a nonzero element of the positive cone")
    if not _c.cone_contains(space.cone, u, tol=1e-7 * np.abs(u).max()):
        raise InputError("argument must lie in the positive cone")
    return u


def has_positive_support(space: SpaceSpec) -> bool:
    """Whether `positive_support` serves the space's family: the base and
    lp norms, and every norm that is an order-unit norm (`order_unit`)."""
    return space.norm.kind in (BASE, LP) or order_unit(space) is not None


def positive_support(space: SpaceSpec, u) -> SupportResult:
    """A positive support of u in the cone. An lp norm over a ray cone takes
    the cut support functional, which is_positive reports positive or not:
    it is whenever the cone lies in the orthant."""
    return _positive_support(space, _check_positive(space, u))


def _positive_support(space: SpaceSpec, u: np.ndarray) -> SupportResult:
    """`positive_support` of a nonzero u known to lie in the cone."""
    kind = space.norm.kind
    if not has_positive_support(space):
        raise InputError(f"unsupported family for positive_support: {kind!r}")
    if kind == BASE:
        f = _positive_support_base(space, u)
    elif _form(space).kind == SOLVER:
        f = _positive_support_lp(space, u)
    else:
        # the support functional of u, positive for u in the cone; on the
        # orthant, and for an lp norm, the entries below zero are cut
        f = norming(space, u)
        if kind == LP or space.cone.kind == _c.NONNEG:
            f = np.clip(f, 0.0, None)
    positive = kind != LP or space.cone.kind == _c.NONNEG or _c.dual_cone_contains(space.cone, f, tol=1e-9)
    return SupportResult(f, float(f @ u), bool(positive))


def _positive_support_lp(space: SpaceSpec, u: np.ndarray) -> np.ndarray:
    """Maximize f(u) over f in the dual cone with f(e) = 1, for u scaled to
    unit largest entry."""
    G = _c.generator_matrix(space.cone)
    out = solve_lp(LpProblem(
        objective=unit_scaled(u)[0], eq=order_unit(space)[None], eq_rhs=[1.0], ineq=-G,
        ineq_rhs=np.zeros(len(G)), free=np.ones(space.dim, bool),
    ))
    if out.status != "optimal":
        raise InputError("positive support LP failed")
    return out.argument


def _positive_support_base(space: SpaceSpec, u: np.ndarray) -> np.ndarray:
    """A positive f with f(g_i) <= phi(g_i) supporting u and with no mass off
    u's support, so disjointly supported elements get mutually vanishing
    supports: with unique coefficients c = B^-1 u, phi(g_j) where c_j > 0.
    On a non-simplicial cone, one of least total mass on the generators:
    f -> 2f - phi maps those f onto the dual unit ball {z : |G z| <= G phi},
    so f = (phi + z)/2 with z the norming vertex of u of least 1^T G z
    (`norming` with that tiebreak); above the vertex cap an LP."""
    basis = space.cone.coefficient_basis
    if basis is not None:
        B, H = basis
        c = H @ u
        return H.T @ np.where(c > 1e-12 * np.abs(c).max(), B.T @ space.norm.phi, 0.0)
    if _form(space).kind != MAX:
        return _positive_support_base_lp(space, u)
    return 0.5 * (space.norm.phi + norming(space, u, tiebreak=space.cone.generators.sum(axis=0)))


def _positive_support_base_lp(space: SpaceSpec, u: np.ndarray) -> np.ndarray:
    """Among the positive f with f(g_i) <= phi(g_i) that attain f(u) = phi(u)
    (the most any of them reaches: with u = G^T a, a >= 0, f(u) = a . G f
    <= a . G phi), one of least total mass on the generators; phi itself,
    always such an f, if the LP fails. u is scaled to unit largest entry."""
    G, phi = _c.generator_matrix(space.cone), space.norm.phi
    u = unit_scaled(u)[0]
    out = solve_lp(LpProblem(
        objective=-G.sum(axis=0), eq=u[None], eq_rhs=[float(phi @ u)],
        ineq=np.vstack([G, -G]), ineq_rhs=np.append(G @ phi, np.zeros(len(G))),
        free=np.ones(space.dim, bool),
    ))
    return out.argument if out.status == "optimal" else phi


def crust_probe(space: SpaceSpec, u) -> CrustResult | None:
    """Positive norm-one functional vanishing on u, if one exists; restricted
    to order-unit families where the existence criterion is two-sided. One
    exists iff the partner p = e - u/||u|| has norm one (Corollary 3.10),
    and then it is a positive support of p: a positive f of dual norm one
    has f(e) = 1, so f(p) = 1 forces f(u) = 0. The partner's
    inf-orthogonality to u is decided by `p_orthogonal`, exactly for every
    form."""
    e = order_unit(space)
    if e is None or space.cone.kind == _c.PSD:
        raise InputError("crust probe requires an order-unit family")
    u = _check_positive(space, u)
    partner = e - u / norm(space, u)
    if norm(space, partner) < 1.0 - 1e-9:
        return None
    # the partner lies in the cone (u <= ||u|| e): no membership check
    f = _positive_support(space, partner).functional
    return CrustResult(f, partner, p_orthogonal(space, u, partner, math.inf).is_orthogonal)
