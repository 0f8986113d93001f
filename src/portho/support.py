"""Support functionals, positive supports and crusts, constructed explicitly
per family: closed forms, built from the cone coefficients
(`ConeSpec.coefficient_basis`) for the sup, order-unit and base norms, and
LPs over the dual ball only for the order-unit and base norms on a
non-simplicial ray cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cones as _c
from .errors import InputError
from .linalg import LpProblem, eigen_sym, solve_lp
from .spaces import (
    BASE,
    LP,
    ORDER_UNIT,
    SPECTRAL,
    SUP,
    SpaceSpec,
    _weights,
    norm,
    order_unit,
)


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
    if np.abs(v).max() == 0.0:
        raise InputError("support functional undefined for v = 0")
    kind = space.norm.kind
    basis = space.cone.coefficient_basis

    if kind == LP and not math.isinf(space.norm.p):
        p = space.norm.p
        w = _weights(space)
        if p == 1.0:
            f = w * np.sign(v)
        else:
            f = w * np.sign(v) * np.abs(v) ** (p - 1.0) / norm(space, v) ** (p - 1.0)
    elif kind == SPECTRAL:
        dec = eigen_sym(_c.as_matrix(space.cone, v))
        i = int(np.argmax(np.abs(dec.eigenvalues)))
        vec = dec.eigenvectors[i]
        f = float(np.sign(dec.eigenvalues[i])) * np.outer(vec, vec).ravel()
    elif kind == BASE and basis is not None:
        # the base norm is sum_j phi(g_j) |c_j| over the cone coefficients c
        B, H = basis
        f = H.T @ ((B.T @ space.norm.phi) * np.sign(H @ v))
    elif kind in (SUP, LP) or basis is not None:  # sup, lp-inf, lattice order unit
        f = facet_support(space, v)
    else:
        f = _support_lp(space, v)
    return SupportResult(f, float(f @ v), bool(_c.dual_cone_contains(space.cone, f, tol=1e-9)))


def facet_support(space: SpaceSpec, x, tiebreak=None) -> np.ndarray:
    """Norming functional sign(r_j) h_j / h_j(e) of x != 0 for a norm of the
    form max_j |r_j|, r = (H x) / (H e): sup and lp-inf (H = I, e = ones), or
    order unit on a cone with unique coefficients (H = B^-1, rows the facet
    normals). j maximizes |r_j|; given `tiebreak`, it is the maximizer
    (within 1e-12 (1 + max)) with the least ratio r_j of `tiebreak`."""
    if space.norm.kind == ORDER_UNIT:
        H = space.cone.coefficient_basis[1]
        s = H @ space.norm.unit
    else:
        H, s = np.eye(space.dim), np.ones(space.dim)
    r = (H @ x) / s
    a = np.abs(r)
    j = int(np.argmax(a))
    if tiebreak is not None:
        top = np.flatnonzero(a >= a[j] - 1e-12 * (1.0 + a[j]))
        j = top[np.argmin((H[top] @ tiebreak) / s[top])]
    return np.sign(r[j]) * H[j] / s[j]


def _support_lp(space: SpaceSpec, v: np.ndarray) -> np.ndarray:
    """Maximize f(v) over the dual unit ball of a base or order-unit norm."""
    n = space.dim
    G = _c.generator_matrix(space.cone)
    if space.norm.kind == BASE:
        gphi = G @ space.norm.phi
        ineq, rhs = np.vstack([G, -G]), np.concatenate([gphi, gphi])
        out = solve_lp(LpProblem(objective=v, ineq=ineq, ineq_rhs=rhs, free=np.ones(n, bool)))
        return out.argument
    # order unit: f = f1 - f2 with f_i in the dual cone, f1(e) + f2(e) <= 1
    e = space.norm.unit
    Z = np.zeros_like(G)
    ineq = np.block([[-G, Z], [Z, -G], [e, e]])
    rhs = np.append(np.zeros(2 * len(G)), 1.0)
    obj = np.concatenate([v, -v])
    out = solve_lp(LpProblem(objective=obj, ineq=ineq, ineq_rhs=rhs, free=np.ones(2 * n, bool)))
    return out.argument[:n] - out.argument[n:]


def _check_positive(space: SpaceSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if np.abs(u).max() == 0.0:
        raise InputError("argument must be a nonzero element of the positive cone")
    if not _c.cone_contains(space.cone, u, tol=1e-7 * np.abs(u).max()):
        raise InputError("argument must lie in the positive cone")
    return u


def positive_support(space: SpaceSpec, u) -> SupportResult:
    u = _check_positive(space, u)
    kind = space.norm.kind

    if kind == LP and not math.isinf(space.norm.p):
        p = space.norm.p
        w = _weights(space)
        if p == 1.0:
            f = np.where(u > 0.0, w, 0.0)
        else:
            f = w * np.clip(u, 0.0, None) ** (p - 1.0) / norm(space, u) ** (p - 1.0)
    elif kind == SPECTRAL:
        dec = eigen_sym(_c.as_matrix(space.cone, u))
        vec = dec.eigenvectors[0]  # top eigenvalue of a PSD element
        f = np.outer(vec, vec).ravel()
    elif kind == BASE:
        f = _positive_support_base(space, u)
    elif order_unit(space) is None:
        raise InputError(f"unsupported family for positive_support: {kind!r}")
    elif space.cone.coefficient_basis is not None:
        f = facet_support(space, u)
    else:
        f = _positive_support_lp(space, u)
    return SupportResult(f, float(f @ u), True)


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
    unique cone coefficients one exists iff some (H u)_j / (H e)_j is zero,
    i.e. iff the partner e - u/||u|| has norm one: its facet support."""
    from .ortho import infty_positive_test

    e = order_unit(space)
    if e is None or space.cone.kind == _c.PSD:
        raise InputError("crust probe requires an order-unit family")
    u = _check_positive(space, u)
    nu = norm(space, u)
    partner = e - u / nu
    if space.cone.coefficient_basis is None:
        f = _crust_lp(space, u / nu)
    else:
        f = facet_support(space, partner)
        f = f if f @ partner >= 1.0 - 1e-9 else None
    if f is None:
        return None
    ok = np.abs(partner).max() > 1e-12 and infty_positive_test(space, u, partner)
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
