"""Positive cones: nonnegative orthant, finitely generated ray cones, and the
PSD cone (symmetric matrices stored row-major with all d*d entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError
from .linalg import DEFAULT_TOL, LpProblem, check_symmetric, eigen_sym, solve_lp

NONNEG = "nonneg"
RAYS = "rays"
PSD = "psd"


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
    x = _check_dim(cone, x)
    if np.all(x == 0.0):
        return True
    if cone.kind == NONNEG:
        return bool(np.all(x >= -tol))
    if cone.kind == PSD:
        M = as_matrix(cone, x)
        return bool(eigen_sym(M).eigenvalues[-1] >= -tol)
    # rays: feasibility of x = G^T a with a >= 0 (phase-one LP)
    G = cone.generators
    m = G.shape[0]
    eq = [(G[:, j], x[j]) for j in range(cone.ambient_dim)]
    out = solve_lp(LpProblem(objective=np.zeros(m), eq=eq), tol=tol)
    return out.status == "optimal"


def dual_cone_contains(cone: ConeSpec, f, tol: float = DEFAULT_TOL) -> bool:
    f = _check_dim(cone, f)
    if cone.kind == PSD:
        F = as_matrix(cone, f)
        return bool(eigen_sym(F).eigenvalues[-1] >= -tol)
    G = generator_matrix(cone)
    scale = 1.0 + np.abs(f).max()
    return bool(np.all(G @ f >= -tol * scale))


@dataclass(frozen=True)
class ConeReport:
    proper: bool
    generating: bool


def cone_proper_generating(cone: ConeSpec, tol: float = DEFAULT_TOL) -> ConeReport:
    if cone.kind in (NONNEG, PSD):
        return ConeReport(True, True)
    G = cone.generators
    m, n = G.shape
    generating = np.linalg.matrix_rank(G, tol=1e-10) == n
    # proper iff no nontrivial nonnegative combination of generators vanishes:
    # feasibility of G^T a = 0, sum(a) = 1, a >= 0 means the cone has a line
    eq = [(G[:, j], 0.0) for j in range(n)]
    eq.append((np.ones(m), 1.0))
    out = solve_lp(LpProblem(objective=np.zeros(m), eq=eq), tol=tol)
    proper = out.status != "optimal"
    return ConeReport(proper, bool(generating))


def pairing(cone: ConeSpec, f, x) -> float:
    """Duality pairing: coordinate dot product, or trace(F X) for psd (which is
    the same dot product on row-major flattenings of symmetric matrices)."""
    f = _check_dim(cone, f)
    x = _check_dim(cone, x)
    return float(f @ x)
