"""Independent geometry for checking the program's answers.

Every norm, dual norm and cone test here is computed from the space-spec JSON
alone, without calling portho. Polyhedral families are handled through their
facet and vertex descriptions (enumerated once per family), so none of it
shares the simplex solver or the closed forms under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TOL = 1e-7


def _facet_normals(G: np.ndarray) -> np.ndarray:
    """Inward unit normals of the facets of the cone generated by the rows of G."""
    m, n = G.shape
    normals = []
    for idx in itertools.combinations(range(m), n - 1):
        S = G[list(idx)]
        _, s, vt = np.linalg.svd(S)
        if s[-1] < 1e-10 * s[0]:
            continue
        a = vt[-1]
        if np.all(G @ a <= 1e-10):
            a = -a
        if np.any(G @ a < -1e-10):
            continue  # the generators lie on both sides: not a facet
        if not any(np.allclose(a, b, atol=1e-10) for b in normals):
            normals.append(a)
    return np.array(normals)


def _vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices of the bounded polytope {x : A x <= b}."""
    n = A.shape[1]
    verts = []
    for idx in itertools.combinations(range(A.shape[0]), n):
        S = A[list(idx)]
        if abs(np.linalg.det(S)) < 1e-12:
            continue
        x = np.linalg.solve(S, b[list(idx)])
        if np.all(A @ x <= b + 1e-9 * (1.0 + np.abs(b).max())):
            verts.append(x)
    return np.array(verts)


def _hull_planes(P: np.ndarray) -> np.ndarray:
    """Rows a with a.x <= 1 for the facets of conv(P), P symmetric about 0."""
    n = P.shape[1]
    planes = []
    for idx in itertools.combinations(range(P.shape[0]), n):
        S = P[list(idx)]
        if abs(np.linalg.det(S)) < 1e-12:
            continue
        a = np.linalg.solve(S, np.ones(n))
        if np.all(P @ a <= 1.0 + 1e-9):
            planes.append(a)
    return np.array(planes)


class Geometry:
    """Norm, dual norm, cone and dual cone of one space spec (a parsed dict)."""

    def __init__(self, spec: dict):
        self.dim = spec["dim"]
        cone, nrm = spec["cone"], spec["norm"]
        self.kind = nrm["kind"]
        self.cone_kind = cone["kind"]
        if self.kind == "lp":
            self.p = math.inf if nrm["p"] == "inf" else float(nrm["p"])
        if self.cone_kind == "psd":
            self.side = cone["side"]
        if self.cone_kind == "rays":
            self.G = np.array(cone["generators"], dtype=float)
            self.N = _facet_normals(self.G)
        if self.kind == "order_unit":
            self.e = np.array(nrm["unit"], dtype=float)
            N = self.N if self.cone_kind == "rays" else np.eye(self.dim)
            # unit ball is the order interval [-e, e] = {x : |N x| <= N e}
            self.ball_N = N / (N @ self.e)[:, None]
            self.ball_vertices = _vertices(np.vstack([self.ball_N, -self.ball_N]), np.ones(2 * len(N)))
        if self.kind == "base":
            phi = np.array(nrm["phi"], dtype=float)
            G = self.G if self.cone_kind == "rays" else np.eye(self.dim)
            # unit ball is conv(+-g / phi(g)) over the generators g
            self.base_points = G / (G @ phi)[:, None]
            self.ball_planes = _hull_planes(np.vstack([self.base_points, -self.base_points]))

    @property
    def unit(self) -> np.ndarray:
        """The order unit of an order-unit-like polyhedral family."""
        return np.ones(self.dim) if self.kind == "sup" else self.e

    def _eig(self, x) -> np.ndarray:
        M = np.asarray(x, dtype=float).reshape(self.side, self.side)
        return np.linalg.eigvalsh(0.5 * (M + M.T))

    def norm(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if self.kind == "sup" or (self.kind == "lp" and math.isinf(self.p)):
            return float(np.abs(x).max())
        if self.kind == "lp":
            return float((np.abs(x) ** self.p).sum() ** (1.0 / self.p))
        if self.kind == "spectral":
            return float(np.abs(self._eig(x)).max())
        if self.kind == "order_unit":
            return float(np.abs(self.ball_N @ x).max())
        return float(max(0.0, (self.ball_planes @ x).max()))

    def dual_norm(self, f) -> float:
        f = np.asarray(f, dtype=float)
        if self.kind == "sup" or (self.kind == "lp" and math.isinf(self.p)):
            return float(np.abs(f).sum())
        if self.kind == "lp":
            if self.p == 1.0:
                return float(np.abs(f).max())
            q = self.p / (self.p - 1.0)
            return float((np.abs(f) ** q).sum() ** (1.0 / q))
        if self.kind == "spectral":
            return float(np.abs(self._eig(f)).sum())
        if self.kind == "order_unit":
            return float((self.ball_vertices @ f).max())
        return float(np.abs(self.base_points @ f).max())

    def in_cone(self, x, tol: float = TOL) -> bool:
        x = np.asarray(x, dtype=float)
        scale = 1.0 + np.abs(x).max()
        if self.cone_kind == "nonneg":
            return bool(np.all(x >= -tol * scale))
        if self.cone_kind == "psd":
            return bool(self._eig(x)[0] >= -tol * scale)
        return bool(np.all(self.N @ x >= -tol * scale))

    def in_dual_cone(self, f, tol: float = TOL) -> bool:
        f = np.asarray(f, dtype=float)
        scale = 1.0 + np.abs(f).max()
        if self.cone_kind == "nonneg":
            return bool(np.all(f >= -tol * scale))
        if self.cone_kind == "psd":
            return bool(self._eig(f)[0] >= -tol * scale)
        return bool(np.all(self.G @ f >= -tol * scale))

    def on_boundary(self, u) -> bool:
        """Whether an element of a polyhedral cone lies on its boundary."""
        u = np.asarray(u, dtype=float)
        N = self.N if self.cone_kind == "rays" else np.eye(self.dim)
        return bool((N @ u).min() <= 1e-9 * np.abs(u).max())


def exact_lp_orthogonal(x, y, p: float, tol: float = 1e-12) -> bool:
    """p-orthogonality in coordinate lp, decided from the structure alone:
    zero inner product for p = 2, disjoint supports for other finite p, and
    for p = inf the identity max|x_i + k y_i| = max(A, |k| B) checked at
    every breakpoint of either side (A = |x|_inf, B = |y|_inf).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if p == 2.0:
        return abs(float(x @ y)) <= tol * (1.0 + np.abs(x).max() * np.abs(y).max())
    if not math.isinf(p):
        return not bool(np.any((np.abs(x) > tol) & (np.abs(y) > tol)))
    A, B = np.abs(x).max(), np.abs(y).max()
    if A == 0.0 or B == 0.0:
        return True
    # Both sides are piecewise linear in k with slope +-B beyond their last
    # breakpoint, so they agree everywhere iff they agree at every breakpoint:
    # +-A/B, the zeros of each |x_i + k y_i|, and the crossings of any two.
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.concatenate(
            [
                -(x[:, None] - x[None, :]) / (y[:, None] - y[None, :]),
                -(x[:, None] + x[None, :]) / (y[:, None] + y[None, :]),
            ]
        ).ravel()
    ks = np.concatenate([[A / B, -A / B, 0.0], cross[np.isfinite(cross)]])
    lhs = np.abs(x[None, :] + ks[:, None] * y[None, :]).max(axis=1)
    rhs = np.maximum(A, np.abs(ks) * B)
    return bool(np.all(np.abs(lhs - rhs) <= tol * (1.0 + A + np.abs(ks) * B)))


def statement_one(geo: Geometry, u1, u2, tol: float = 1e-9) -> bool:
    """Theorem 3.3 statement (1): the normalized sum of two positive elements
    has norm one exactly when they are inf-orthogonal."""
    n1, n2 = geo.norm(u1), geo.norm(u2)
    return abs(geo.norm(np.asarray(u1) / n1 + np.asarray(u2) / n2) - 1.0) <= tol
