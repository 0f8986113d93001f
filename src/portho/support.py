"""Support functionals, positive supports and crusts. A support functional
is the maximizer of the norm's closed form (`spaces.norming`); positive
supports and crusts read it too, except that the base norm keeps its own
positive support (no mass off the support of u: closed form on a lattice
cone, two LPs on a non-simplicial one) and a cone above the table cap
answers through LPs over the dual cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cones as _c
from .errors import InputError
from .linalg import LpProblem, solve_lp
from .ortho import p_orthogonal
from .spaces import BASE, LP, SOLVER, SpaceSpec, _form, batch_norms, norm, norming, order_unit


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


def positive_support(space: SpaceSpec, u) -> SupportResult:
    """A positive support of u in the cone. An lp norm over a ray cone takes
    the cut support functional, which is_positive reports positive or not:
    it is whenever the cone lies in the orthant."""
    u = _check_positive(space, u)
    kind = space.norm.kind
    if kind == BASE:
        f = _positive_support_base(space, u)
    elif kind != LP and order_unit(space) is None:
        raise InputError(f"unsupported family for positive_support: {kind!r}")
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
    """Maximize f(u) over f in the dual cone with f(e) = 1."""
    G = _c.generator_matrix(space.cone)
    out = solve_lp(LpProblem(
        objective=u, eq=order_unit(space)[None], eq_rhs=[1.0], ineq=-G,
        ineq_rhs=np.zeros(len(G)), free=np.ones(space.dim, bool),
    ))
    if out.status != "optimal":
        raise InputError("positive support LP failed")
    return out.argument


def _positive_support_base(space: SpaceSpec, u: np.ndarray) -> np.ndarray:
    """A positive f with f(g_i) <= phi(g_i) supporting u and with no mass off
    u's support, so disjointly supported elements get mutually vanishing
    supports: with unique coefficients c = B^-1 u, phi(g_j) where c_j > 0."""
    basis = space.cone.coefficient_basis
    if basis is None:
        return _positive_support_base_lp(space, u)
    B, H = basis
    c = H @ u
    return H.T @ np.where(c > 1e-12 * np.abs(c).max(), B.T @ space.norm.phi, 0.0)


def _positive_support_base_lp(space: SpaceSpec, u: np.ndarray) -> np.ndarray:
    """Two stages: maximize f(u) over the positive f with f(g_i) <= phi(g_i),
    then, among those optimizers, minimize the total mass on the generators."""
    G = _c.generator_matrix(space.cone)
    gphi = G @ space.norm.phi
    m, n = G.shape
    ineq, rhs = np.vstack([G, -G]), np.append(gphi, np.zeros(m))
    first = LpProblem(objective=u, ineq=ineq, ineq_rhs=rhs, free=np.ones(n, bool))
    out = solve_lp(first)
    if out.status != "optimal":
        raise InputError("positive support LP failed")
    out2 = solve_lp(replace(first, objective=-G.sum(axis=0), eq=u[None], eq_rhs=[out.optimum]))
    return out2.argument if out2.status == "optimal" else out.argument


def crust_probe(space: SpaceSpec, u) -> CrustResult | None:
    """Positive norm-one functional vanishing on u, if one exists; restricted
    to order-unit families where the existence criterion is two-sided. With
    facet normals H one exists iff some (H u)_j / (H e)_j is zero, i.e. iff
    the partner e - u/||u|| has norm one: its support functional, a facet
    normal scaled by the unit. Above the table cap an LP decides. The
    partner's inf-orthogonality to u is decided by `p_orthogonal`; above the
    cap by Theorem 3.3 (1) on the positive pair, three norm LPs where the
    grid would solve one per grid row."""
    e = order_unit(space)
    if e is None or space.cone.kind == _c.PSD:
        raise InputError("crust probe requires an order-unit family")
    u = _check_positive(space, u)
    nu = norm(space, u)
    partner = e - u / nu
    solver = _form(space).kind == SOLVER
    if solver:
        f = _crust_lp(space, u / nu)
    elif np.abs(partner).max() == 0.0:  # u / ||u|| = e
        return None
    else:
        f = norming(space, partner)
        f = f if f @ partner >= 1.0 - 1e-9 else None
    if f is None:
        return None
    if np.abs(partner).max() <= 1e-12:
        ok = False
    elif solver:  # u perp_inf partner iff ||u/||u|| +- partner/||partner|| || = 1
        a, b = u / nu, partner / norm(space, partner)
        ok = np.abs(batch_norms(space, np.array([a + b, a - b])) - 1.0).max() <= 1e-9
    else:
        ok = p_orthogonal(space, u, partner, math.inf).is_orthogonal
    return CrustResult(f, partner, bool(ok))


def _crust_lp(space: SpaceSpec, u: np.ndarray) -> np.ndarray | None:
    """Maximize f(e) over f in the dual cone with f(u) = 0 and f(e) <= 1: the
    maximizer scaled to f(e) = 1 if the optimum reaches 1, else None."""
    G, e = _c.generator_matrix(space.cone), order_unit(space)
    out = solve_lp(LpProblem(
        objective=e, eq=u[None], eq_rhs=[0.0],
        ineq=np.vstack([-G, e]), ineq_rhs=np.append(np.zeros(len(G)), 1.0),
        free=np.ones(space.dim, bool),
    ))
    if out.status != "optimal" or out.optimum < 1.0 - 1e-9:
        return None
    return out.argument / float(out.argument @ e)
