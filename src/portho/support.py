"""Support functionals, positive supports and crusts, constructed explicitly
per family (closed forms where available, LPs over the dual ball otherwise).
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
    nv = norm(space, v)

    if kind == LP and not math.isinf(space.norm.p):
        p = space.norm.p
        w = _weights(space)
        if p == 1.0:
            f = w * np.sign(v)
        else:
            f = w * np.sign(v) * np.abs(v) ** (p - 1.0) / nv ** (p - 1.0)
    elif kind == SPECTRAL:
        dec = eigen_sym(_c.as_matrix(space.cone, v))
        i = int(np.argmax(np.abs(dec.eigenvalues)))
        vec = dec.eigenvectors[i]
        f = float(np.sign(dec.eigenvalues[i])) * np.outer(vec, vec).ravel()
    elif kind in (SUP, ORDER_UNIT, BASE) or (kind == LP and math.isinf(space.norm.p)):
        f = _support_lp(space, v)
    else:  # pragma: no cover
        raise InputError(f"unsupported norm kind {kind!r}")
    f = np.asarray(f, dtype=float)
    return SupportResult(f, float(f @ v), bool(_c.dual_cone_contains(space.cone, f, tol=1e-9)))


def _support_lp(space: SpaceSpec, v: np.ndarray) -> np.ndarray:
    """Maximize f(v) over the dual unit ball, described linearly per family."""
    n = space.dim
    kind = space.norm.kind
    if kind in (SUP,) or (kind == LP and math.isinf(space.norm.p)):
        # dual ball is the l1 ball: f = fp - fm, sum(fp + fm) <= 1
        obj = np.concatenate([v, -v])
        out = solve_lp(LpProblem(objective=obj, ineq=np.ones((1, 2 * n)), ineq_rhs=[1.0]))
        return out.argument[:n] - out.argument[n:]
    if kind == BASE:
        G = _c.generator_matrix(space.cone)
        gphi = G @ space.norm.phi
        ineq, rhs = np.vstack([G, -G]), np.concatenate([gphi, gphi])
        out = solve_lp(LpProblem(objective=v, ineq=ineq, ineq_rhs=rhs, free=np.ones(n, bool)))
        return out.argument
    # order unit: f = f1 - f2 with f_i in the dual cone, f1(e) + f2(e) <= 1
    G, e = _c.generator_matrix(space.cone), space.norm.unit
    Z = np.zeros_like(G)
    ineq = np.block([[-G, Z], [Z, -G], [e, e]])
    rhs = np.append(np.zeros(2 * len(G)), 1.0)
    obj = np.concatenate([v, -v])
    out = solve_lp(LpProblem(objective=obj, ineq=ineq, ineq_rhs=rhs, free=np.ones(2 * n, bool)))
    return out.argument[:n] - out.argument[n:]


def positive_support(space: SpaceSpec, u) -> SupportResult:
    u = np.asarray(u, dtype=float)
    if np.abs(u).max() == 0.0:
        raise InputError("positive support undefined for u = 0")
    scale = np.abs(u).max()
    if not _c.cone_contains(space.cone, u, tol=1e-7 * scale):
        raise InputError("argument must lie in the positive cone")
    kind = space.norm.kind
    nu = norm(space, u)

    if kind == LP and not math.isinf(space.norm.p):
        p = space.norm.p
        w = _weights(space)
        if p == 1.0:
            f = np.where(u > 0.0, w, 0.0)
        else:
            f = w * np.clip(u, 0.0, None) ** (p - 1.0) / nu ** (p - 1.0)
    elif kind == SPECTRAL:
        dec = eigen_sym(_c.as_matrix(space.cone, u))
        vec = dec.eigenvectors[0]  # top eigenvalue of a PSD element
        f = np.outer(vec, vec).ravel()
    elif kind == BASE:
        f = _positive_support_base(space, u, nu)
    else:
        e = order_unit(space)
        if e is None:
            raise InputError(f"unsupported family for positive_support: {kind!r}")
        G = _c.generator_matrix(space.cone)
        # maximize f(u) with f in the dual cone and f(e) = 1
        out = solve_lp(LpProblem(
            objective=u, eq=e[None], eq_rhs=[1.0], ineq=-G, ineq_rhs=np.zeros(len(G)),
            free=np.ones(space.dim, bool),
        ))
        if out.status != "optimal":
            raise InputError("positive support LP failed")
        f = out.argument
    f = np.asarray(f, dtype=float)
    return SupportResult(f, float(f @ u), True)


def _positive_support_base(space: SpaceSpec, u: np.ndarray, nu: float) -> np.ndarray:
    """Any positive f with f(g_i) <= phi(g_i) supporting u works; a second
    stage minimizes the off-support mass so disjointly supported elements get
    mutually vanishing supports."""
    if space.cone.kind == _c.NONNEG:
        return np.where(u > 1e-12 * np.abs(u).max(), space.norm.phi, 0.0)
    G = _c.generator_matrix(space.cone)
    gphi = G @ space.norm.phi
    m, n = G.shape
    ineq, rhs = np.vstack([G, -G]), np.append(gphi, np.zeros(m))
    first = LpProblem(objective=u, ineq=ineq, ineq_rhs=rhs, free=np.ones(n, bool))
    out = solve_lp(first)
    if out.status != "optimal":
        raise InputError("positive support LP failed")
    # stage two: among supports of u, minimize total mass on the generators
    out2 = solve_lp(replace(first, objective=-G.sum(axis=0), eq=u[None], eq_rhs=[out.optimum]))
    return out2.argument if out2.status == "optimal" else out.argument


def crust_probe(space: SpaceSpec, u) -> CrustResult | None:
    """Positive norm-one functional vanishing on u, if one exists; restricted
    to order-unit families where the existence criterion is two-sided."""
    from .ortho import infty_positive_test

    e = order_unit(space)
    if e is None or space.cone.kind == _c.PSD:
        raise InputError("crust probe requires an order-unit family")
    u = np.asarray(u, dtype=float)
    if np.abs(u).max() == 0.0:
        raise InputError("crust undefined for u = 0")
    if not _c.cone_contains(space.cone, u, tol=1e-7 * np.abs(u).max()):
        raise InputError("argument must lie in the positive cone")
    G = _c.generator_matrix(space.cone)
    nu = norm(space, u)
    # maximize f(e) subject to f in the dual cone, f(u) = 0, f(e) <= 1;
    # a crust exists iff the optimum reaches 1
    out = solve_lp(LpProblem(
        objective=e, eq=(u / nu)[None], eq_rhs=[0.0],
        ineq=np.vstack([-G, e]), ineq_rhs=np.append(np.zeros(len(G)), 1.0),
        free=np.ones(space.dim, bool),
    ))
    if out.status != "optimal" or out.optimum < 1.0 - 1e-9:
        return None
    f = out.argument / float(out.argument @ e)
    partner = e - u / nu
    ok = np.abs(partner).max() > 1e-12 and infty_positive_test(space, u, partner)
    return CrustResult(f, partner, bool(ok))
