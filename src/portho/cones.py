"""Positive cones: nonnegative orthant, finitely generated ray cones, and the
PSD cone (symmetric matrices stored row-major with all d*d entries).

A polyhedral cone carries one lazily built table, its facet normals H (the
cone is {x : H x >= 0}), built by `_extreme_rays`, which builds the spaces'
vertex tables too and gives up above MAX_TABLE_ROWS rays; the property is
then None. Membership reads the cone coefficients or the facet normals, and
an LP decides it only above the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_TOL, LpProblem, check_symmetric, solve_lp

NONNEG = "nonneg"
RAYS = "rays"
PSD = "psd"

MAX_TABLE_ROWS = 4096  # cap on the rays `_extreme_rays` holds, so on a facet or vertex table
RANK_TOL = 1e-10  # the engine's zero on unit rows and rays; 1/RANK_TOL bounds a basis's condition


@dataclass(frozen=True)
class ConeSpec:
    kind: str
    ambient_dim: int
    generators: np.ndarray | None = None  # rays only, shape (m, ambient_dim)
    side: int | None = None  # psd only, ambient_dim == side * side

    def __post_init__(self):
        if self.kind not in (NONNEG, RAYS, PSD):
            raise InputError(f"unknown cone kind {self.kind!r}")
        if self.ambient_dim < 1:
            raise InputError("ambient_dim must be positive")
        if self.kind == RAYS:
            G = np.asarray(self.generators, dtype=float)
            if G.ndim != 2 or G.shape[1] != self.ambient_dim:
                raise InputError("generators must be rows of length ambient_dim")
            if not np.all(np.isfinite(G)):
                raise InputError("generators must be finite")
            if np.any(np.linalg.norm(G, axis=1) < 1e-300):
                raise InputError("generators must be nonzero")
            object.__setattr__(self, "generators", G)
        elif self.kind == PSD:
            if self.side is None or self.side * self.side != self.ambient_dim:
                raise InputError("psd cone requires ambient_dim == side**2")

    @cached_property
    def coefficient_basis(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(B, B^-1) when every vector has unique cone coefficients: x = B a
        with a = B^-1 x, the columns of B being the generators, so x lies in
        the cone iff a >= 0. Defined for the orthant (B = I) and simplicial
        ray cones; None otherwise. Computed once per cone."""
        if self.kind == NONNEG:
            eye = np.eye(self.ambient_dim)
            return eye, eye
        if self.kind == RAYS:
            G = self.generators
            if G.shape[0] == G.shape[1] and abs(np.linalg.det(G)) > 1e-12:
                return G.T, np.linalg.inv(G.T)
        return None

    @cached_property
    def facet_normals(self) -> np.ndarray | None:
        """Rows h_i with the cone = {x : H x >= 0}: the rows of B^-1 when
        coefficient_basis exists; otherwise the unit extreme rays of the dual
        cone {h : G h >= 0}, the cone's facet normals; no rows (shape (0, n))
        for a cone with no facets, the whole space. None for the psd cone,
        for generators that span less than R^n, or above the table cap."""
        if self.coefficient_basis is not None:
            return self.coefficient_basis[1]
        return _extreme_rays(self.generators) if self.kind == RAYS else None


def _extreme_rays(A: np.ndarray) -> np.ndarray | None:
    """The unit extreme rays of the pointed cone {x : A x >= 0}, by double
    description (Fukuda and Prodon 1996): from the simplicial cone of n rows,
    each farthest from the span of those before it, each other row cuts off
    the rays on its negative side and joins each adjacent pair across it; two
    rays are adjacent when no third is tight on every row both are (a value
    within RANK_TOL of 0, on unit rows and rays). None when the rows span
    less than R^n, or once more than MAX_TABLE_ROWS rays are held."""
    A = A / np.linalg.norm(A, axis=1, keepdims=True)
    m, n = A.shape
    basis, rest = [], A.copy()
    for _ in range(n):
        lengths = np.linalg.norm(rest, axis=1)
        i = int(np.argmax(lengths))
        if not lengths[i] > RANK_TOL:
            return None
        basis.append(i)
        rest -= np.outer(rest @ rest[i], rest[i] / lengths[i] ** 2)
    rays = np.linalg.inv(A[basis]).T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    tight = np.zeros((n, m), dtype=np.float32)  # 1 where ray k is tight on row j; products count rows
    tight[:, basis] = 1.0 - np.eye(n)
    for j in sorted(set(range(m)) - set(basis)):
        s = rays @ A[j]
        pos, neg = s > RANK_TOL, s < -RANK_TOL
        tight[:, j] = ~(pos | neg)
        if not neg.any():
            continue
        p, q = np.nonzero(tight[pos] @ tight[neg].T >= n - 2)
        p, q = np.flatnonzero(pos)[p], np.flatnonzero(neg)[q]
        meet = tight[p] * tight[q]
        adjacent = (meet @ tight.T == meet.sum(axis=1, keepdims=True)).sum(axis=1) == 2
        p, q, meet = p[adjacent], q[adjacent], meet[adjacent]
        meet[:, j] = 1.0
        new = s[p, None] * rays[q] - s[q, None] * rays[p]
        rays = np.vstack([rays[~neg], new / np.linalg.norm(new, axis=1, keepdims=True)])
        tight = np.vstack([tight[~neg], meet])
        if len(rays) > MAX_TABLE_ROWS:
            return None
    return rays


def nonneg_orthant(n: int) -> ConeSpec:
    return ConeSpec(NONNEG, n)


def ray_cone(generators) -> ConeSpec:
    G = np.asarray(generators, dtype=float)
    return ConeSpec(RAYS, G.shape[1], generators=G)


def psd_cone(side: int) -> ConeSpec:
    return ConeSpec(PSD, side * side, side=side)


def generator_matrix(cone: ConeSpec) -> np.ndarray:
    """Rows are generators. Only meaningful for polyhedral cones."""
    if cone.kind == NONNEG:
        return np.eye(cone.ambient_dim)
    if cone.kind == RAYS:
        return cone.generators
    raise InputError("psd cone is not finitely generated")


def as_matrix(cone: ConeSpec, x: np.ndarray) -> np.ndarray:
    """Reshape a flattened psd-cone element, or each row of a stack of them,
    to a d x d matrix and validate symmetry."""
    x = np.asarray(x, dtype=float)
    d = cone.side
    return check_symmetric(x.reshape(x.shape[:-1] + (d, d)), rel_tol=1e-9)


def _check_dim(cone: ConeSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.ambient_dim,):
        raise InputError(f"vector has shape {x.shape}, expected ({cone.ambient_dim},)")
    return x


def cone_contains(cone: ConeSpec, x, tol: float = DEFAULT_TOL) -> bool:
    """Whether x lies in the cone. tol is an absolute floor on the facet
    values H x (the cone coefficients B^-1 x on a simplicial cone; the
    other facet normals have unit length), on the orthant's entries and on
    the psd eigenvalues; above the table cap the membership LP takes it as
    its relative tolerance instead."""
    x = _check_dim(cone, x)
    if np.all(x == 0.0):
        return True
    if cone.kind == NONNEG:
        return bool(np.all(x >= -tol))
    if cone.kind == PSD:
        return bool(np.linalg.eigvalsh(as_matrix(cone, x))[0] >= -tol)
    H = cone.facet_normals
    if H is not None:  # facet values H x >= 0
        return bool(np.all(H @ x >= -tol))
    return _contains_lp(cone, x, tol)


def _contains_lp(cone: ConeSpec, x: np.ndarray, tol: float) -> bool:
    """Feasibility of x = G^T a with a >= 0 (phase-one LP)."""
    G = cone.generators
    out = solve_lp(LpProblem(objective=np.zeros(G.shape[0]), eq=G.T, eq_rhs=x), tol=tol)
    return out.status == "optimal"


def dual_cone_contains(cone: ConeSpec, f, tol: float = DEFAULT_TOL) -> bool:
    f = _check_dim(cone, f)
    if cone.kind == PSD:
        return bool(np.linalg.eigvalsh(as_matrix(cone, f))[0] >= -tol)
    G = generator_matrix(cone)
    scale = 1.0 + np.abs(f).max()
    return bool(np.all(G @ f >= -tol * scale))


@dataclass(frozen=True)
class ConeReport:
    proper: bool
    generating: bool


def cone_proper_generating(cone: ConeSpec, tol: float = DEFAULT_TOL) -> ConeReport:
    if cone.kind == PSD or cone.coefficient_basis is not None:
        return ConeReport(True, True)  # a simplicial cone has independent generators
    G = cone.generators
    m, n = G.shape
    generating = np.linalg.matrix_rank(G, tol=1e-10) == n
    H = cone.facet_normals
    if H is not None:
        # the cone {x : H x >= 0} holds the line of x iff H x = 0
        return ConeReport(bool(np.linalg.matrix_rank(H, tol=1e-10) == n), bool(generating))
    # proper iff no nontrivial nonnegative combination of generators vanishes:
    # feasibility of G^T a = 0, sum(a) = 1, a >= 0 means the cone has a line
    eq = np.vstack([G.T, np.ones(m)])
    eq_rhs = np.append(np.zeros(n), 1.0)
    out = solve_lp(LpProblem(objective=np.zeros(m), eq=eq, eq_rhs=eq_rhs), tol=tol)
    proper = out.status != "optimal"
    return ConeReport(proper, bool(generating))

