"""Positive cones: nonnegative orthant, finitely generated ray cones, and the
PSD cone (symmetric matrices stored row-major with all d*d entries).

A polyhedral cone carries one lazily built table, its facet normals H (the
cone is {x : H x >= 0}), built only while the (n-1)-subsets of generators
it enumerates stay within MAX_TABLE_SUBSETS; above that the property is
None. Membership reads the cone coefficients or the facet normals, and an
LP decides it only above the cap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_TOL, LpProblem, check_symmetric, solve_lp

NONNEG = "nonneg"
RAYS = "rays"
PSD = "psd"

MAX_TABLE_SUBSETS = 4096  # cap on the generator subsets enumerated for the facet normals
RANK_TOL = 1e-10  # relative singular-value floor of a full-rank subset


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
        coefficient_basis exists; otherwise the unit normals of the
        hyperplanes spanned by n-1 independent generators with G h >= 0,
        deduplicated; no rows (shape (0, n)) for a cone with no facets, the
        whole space. None for the psd cone, for generators that span less
        than R^n, or above the subset cap."""
        if self.coefficient_basis is not None:
            return self.coefficient_basis[1]
        if self.kind != RAYS:
            return None
        G = self.generators
        m, n = G.shape
        if math.comb(m, n - 1) > MAX_TABLE_SUBSETS or not full_rank(G):
            return None
        if n == 1:  # a half-line, or the whole line when the signs differ
            signs = np.unique(np.sign(G))
            return signs[:, None] if signs.size == 1 else np.empty((0, 1))
        subsets = G[np.array(list(itertools.combinations(range(m), n - 1)))]
        _, s, vt = np.linalg.svd(subsets)
        h = vt[s[:, -1] > RANK_TOL * s[:, 0], -1]
        P = h @ G.T
        flip = P.sum(axis=1) < 0.0
        h[flip], P[flip] = -h[flip], -P[flip]
        h = h[np.all(P >= -RANK_TOL * np.linalg.norm(G, axis=1), axis=1)]
        normals = []
        for row in h:
            if not any(np.abs(row - kept).max() <= 1e-9 for kept in normals):
                normals.append(row)
        return np.array(normals).reshape(-1, n)


def full_rank(V: np.ndarray) -> bool:
    """Whether the rows of V span R^n (n = number of columns)."""
    if V.shape[0] < V.shape[1]:
        return False
    s = np.linalg.svd(V, compute_uv=False)
    return bool(s[-1] > RANK_TOL * s[0])


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

