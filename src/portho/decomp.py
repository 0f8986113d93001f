"""Positive decompositions and the coordinate embedding of orthonormal spans.

Three decomposition routes: near-optimal positive decompositions v = u1 - u2
(exact LPs for the polyhedral exponents, projected gradient for the smooth
ones), inf-orthogonal splits into positive/negative parts, and the dual
route that splits a functional into 1-orthogonal positive halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones as _c
from .errors import InputError, UnsupportedError
from .linalg import LpProblem, eigen_sym, solve_lp
from .ortho import (
    OrthoVerdict,
    dual_p_orthogonal_numeric,
    orthonormal_set_verify,
    p_orthogonal_numeric,
)
from .spaces import LP, ORDER_UNIT, SUP, SpaceSpec, dual_norm, norm, norming_element

INF = math.inf


@dataclass(frozen=True)
class Decomposition:
    u1: np.ndarray
    u2: np.ndarray
    p: float
    norm_aggregate: float
    status: str  # "optimal" | "approximate" | "failed" | "unsupported"
    ortho_verdict: OrthoVerdict | None = None


def p_aggregate(a: float, b: float, p: float) -> float:
    """The lp(2) norm of the pair (a, b): (a^p + b^p)^(1/p), or max at p = inf."""
    if math.isinf(p):
        return max(a, b)
    return float((a**p + b**p) ** (1.0 / p))


def _spectral_parts(space: SpaceSpec, v: np.ndarray):
    """Positive and negative parts of a symmetric matrix by its spectrum,
    with eigenvalues below 1e-10 of the spectral radius set to zero."""
    dec = eigen_sym(_c.as_matrix(space.cone, v))
    cut = 1e-10 * max(abs(dec.eigenvalues[0]), abs(dec.eigenvalues[-1]), 1e-300)
    lam = np.where(np.abs(dec.eigenvalues) <= cut, 0.0, dec.eigenvalues)
    Q = dec.eigenvectors
    v1 = (Q.T * np.clip(lam, 0.0, None)) @ Q
    v2 = (Q.T * np.clip(-lam, 0.0, None)) @ Q
    return v1.ravel(), v2.ravel()


def opt_decompose(space: SpaceSpec, v, p: float, epsilon: float = 1e-6) -> Decomposition:
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    v = np.asarray(v, dtype=float)
    nv = norm(space, v)
    if _c.cone_contains(space.cone, v, tol=1e-9 * (1.0 + np.abs(v).max())):
        return Decomposition(v, np.zeros_like(v), p, nv, "optimal")

    if math.isinf(p) and space.norm.kind == "spectral":
        # the spectral split is already optimal: max of the part norms is ||v||
        split = infty_orth_decompose(space, v)
        return Decomposition(split.u1, split.u2, p, split.norm_aggregate, "optimal")
    if p == 1.0 or math.isinf(p):
        return _decompose_lp(space, v, p, nv)
    if space.cone.kind != _c.NONNEG:
        return Decomposition(v, np.zeros_like(v), p, math.nan, "unsupported")
    return _decompose_gradient(space, v, p, nv, epsilon)


def _decompose_lp(space: SpaceSpec, v: np.ndarray, p: float, nv: float) -> Decomposition:
    basis = space.cone.coefficient_basis
    if basis is None:
        return Decomposition(v, np.zeros_like(v), p, math.nan, "unsupported")
    B = basis[0]
    if math.isinf(p) and space.norm.kind not in (SUP, ORDER_UNIT, LP):
        return Decomposition(v, np.zeros_like(v), p, math.nan, "unsupported")
    n, m = B.shape
    # u1 = B a, u2 = B b with a, b >= 0 and B(a - b) = v
    eq = np.hstack([B, -B])
    if p == 1.0:
        # per-generator norm contribution is linear on the cone (the norms in
        # play at p = 1 are additive there)
        cost = np.array([norm(space, B[:, j]) for j in range(m)])
        obj = -np.concatenate([cost, cost])
        out = solve_lp(LpProblem(objective=obj, eq=eq, eq_rhs=v))
        if out.status != "optimal":
            raise InputError("decomposition LP infeasible: v outside the span of the cone")
        a, b = out.argument[:m], out.argument[m:]
    else:
        # minimax: minimize t with every scaled cone coefficient of either
        # part <= t (the norm of B a is max_j a_j * ||g_j|| on these families);
        # variables (a, b, t), the two rows of generator j adjacent
        scale = np.array([norm(space, B[:, j]) for j in range(m)])
        D, Z, t = np.diag(scale), np.zeros((m, m)), -np.ones((m, 1))
        ineq = np.stack([np.hstack([D, Z, t]), np.hstack([Z, D, t])], axis=1).reshape(2 * m, -1)
        obj = -np.eye(2 * m + 1)[-1]
        out = solve_lp(LpProblem(
            objective=obj, eq=np.hstack([eq, np.zeros((n, 1))]), eq_rhs=v,
            ineq=ineq, ineq_rhs=np.zeros(2 * m),
        ))
        if out.status != "optimal":
            raise InputError("decomposition LP infeasible: v outside the span of the cone")
        a, b = out.argument[:m], out.argument[m : 2 * m]
    u1, u2 = B @ a, B @ b
    agg = p_aggregate(norm(space, u1), norm(space, u2), p)
    return Decomposition(u1, u2, p, agg, "optimal")


def _decompose_gradient(
    space: SpaceSpec,
    v: np.ndarray,
    p: float,
    nv: float,
    epsilon: float,
    max_iters: int = 5000,
) -> Decomposition:
    """Projected gradient on the cone coefficients of u1, with a quadratic
    penalty (weight doubled every 50 iterations) pushing u1 - v into the cone."""
    a = np.clip(v, 0.0, None)  # positive part: feasible and usually optimal
    mu = 10.0

    def value(a, mu):
        u2 = a - v
        pen = float(np.minimum(u2, 0.0) @ np.minimum(u2, 0.0))
        return norm(space, a) ** p + norm(space, np.clip(u2, 0.0, None)) ** p + mu * pen

    def grad(a, mu):
        u2 = a - v
        g = p * np.abs(a) ** (p - 1.0) * np.sign(a)
        g += p * np.clip(u2, 0.0, None) ** (p - 1.0)
        g += 2.0 * mu * np.minimum(u2, 0.0)
        return g

    status = "failed"
    for it in range(max_iters):
        if it and it % 50 == 0:
            mu *= 2.0
        g = grad(a, mu)
        step, base = 1.0, value(a, mu)
        for _ in range(40):
            trial = np.clip(a - step * g, 0.0, None)
            if value(trial, mu) < base - 1e-14:
                a = trial
                break
            step *= 0.5
        u2 = np.clip(a - v, 0.0, None)
        if p_aggregate(norm(space, v + u2), norm(space, u2), p) <= nv + epsilon:
            status = "approximate"
            break
    # snap the iterate onto the cone: u2 clipped, u1 = v + u2 (coordinatewise
    # nonnegative because a >= 0), so reconstruction is exact
    u2 = np.clip(a - v, 0.0, None)
    u1 = v + u2
    agg = p_aggregate(norm(space, u1), norm(space, u2), p)
    return Decomposition(u1, u2, p, agg, status)


def infty_orth_decompose(space: SpaceSpec, v) -> Decomposition:
    v = np.asarray(v, dtype=float)
    if space.norm.kind == "spectral":
        v1, v2 = _spectral_parts(space, v)
    else:
        basis = space.cone.coefficient_basis
        if basis is None:
            return Decomposition(v, np.zeros_like(v), INF, math.nan, "unsupported")
        B, Binv = basis
        c = Binv @ v
        v1 = B @ np.clip(c, 0.0, None)
        v2 = B @ np.clip(-c, 0.0, None)
    verdict = None
    if (
        math.isinf(space.p_class)
        and np.abs(v1).max() > 0.0
        and np.abs(v2).max() > 0.0
    ):
        verdict = p_orthogonal_numeric(space, v1, v2, INF)
    agg = p_aggregate(norm(space, v1), norm(space, v2), INF)
    return Decomposition(v1, v2, INF, agg, "optimal", verdict)


def dual_one_orth_decompose(space: SpaceSpec, f) -> Decomposition:
    """Split a functional on an infinity-smooth space into positive halves
    with additive dual norms, then certify the halves are 1-orthogonal and
    vanish crosswise on an orthogonal split of a norming element."""
    f = np.asarray(f, dtype=float)
    if not math.isinf(space.p_class):
        raise InputError("dual decomposition requires an infinity-smooth space")

    if space.norm.kind == "spectral":
        f1, f2 = _spectral_parts(space, f)
    elif space.cone.kind == _c.NONNEG and space.norm.kind in (SUP, LP):
        # dual norm is l1: minimize total mass over f = f1 - f2, f1, f2 >= 0
        n = space.dim
        eq = np.hstack([np.eye(n), -np.eye(n)])
        out = solve_lp(LpProblem(objective=-np.ones(2 * n), eq=eq, eq_rhs=f))
        f1, f2 = out.argument[:n], out.argument[n:]
    elif space.norm.kind == ORDER_UNIT and space.cone.kind == _c.RAYS:
        # variables f1 (free); f2 = f1 - f; minimize (f1 + f2)(e) over the
        # dual-cone constraints G f_i >= 0
        G = space.cone.generators
        out = solve_lp(LpProblem(
            objective=-2.0 * space.norm.unit, ineq=np.vstack([-G, -G]),
            ineq_rhs=np.append(np.zeros(len(G)), -(G @ f)), free=np.ones(space.dim, bool),
        ))
        if out.status != "optimal":
            raise UnsupportedError("dual decomposition LP failed")
        f1 = out.argument
        f2 = f1 - f
    else:
        return Decomposition(f, np.zeros_like(f), 1.0, math.nan, "unsupported")

    nagg = dual_norm(space, f1) + dual_norm(space, f2)
    nf = dual_norm(space, f)
    if abs(nagg - nf) > 1e-8 * (1.0 + nf):
        return Decomposition(f1, f2, 1.0, nagg, "failed")
    verdict = dual_p_orthogonal_numeric(space, f1, f2, 1.0)
    status = "optimal" if verdict.is_orthogonal else "failed"

    # cross-check against an orthogonal split of a norming element: each
    # half must vanish on the opposite part of the split
    if status == "optimal" and np.abs(f1).max() > 1e-12 and np.abs(f2).max() > 1e-12:
        v = norming_element(space, f)
        split = infty_orth_decompose(space, v)
        if split.status == "optimal":
            scale = 1.0 + nf * (1.0 + np.abs(v).max())
            if abs(f1 @ split.u2) > 1e-8 * scale or abs(f2 @ split.u1) > 1e-8 * scale:
                status = "failed"
    return Decomposition(f1, f2, 1.0, nagg, status, verdict)


@dataclass(frozen=True)
class EmbeddingMap:
    basis: tuple
    _solver: np.ndarray  # pseudo-inverse of the basis matrix
    _matrix: np.ndarray

    def coefficients(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        alpha = self._solver @ x
        if np.abs(self._matrix @ alpha - x).max() > 1e-8 * (1.0 + np.abs(x).max()):
            raise InputError("vector is not in the span of the basis")
        return alpha

    def synthesize(self, alpha) -> np.ndarray:
        return self._matrix @ np.asarray(alpha, dtype=float)


def embed_to_lp(space: SpaceSpec, U, p: float) -> EmbeddingMap:
    report = orthonormal_set_verify(space, U, p)
    if not (report.pairwise_ok and report.unit_norms_ok):
        raise InputError(f"set is not p-orthonormal: {report.failures}")
    B = np.stack([np.asarray(u, dtype=float) for u in U]).T
    return EmbeddingMap(tuple(map(tuple, B.T)), np.linalg.pinv(B), B)
