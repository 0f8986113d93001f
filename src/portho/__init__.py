"""Finite-dimensional toolkit for p-orthogonality in ordered normed spaces.

The package covers: weighted lp / sup coordinate spaces, base-norm and
order-unit spaces over polyhedral cones, and spectral spaces of symmetric
matrices over the semidefinite cone. On top of the norm layer it provides
p-orthogonality tests (exact and numeric), support functionals, positive
decompositions, lp-embeddings of orthonormal sets, and a seeded property
harness with a command-line front end.
"""

__version__ = "0.1.0"

from .cones import (
    ConeSpec,
    cone_contains,
    dual_cone_contains,
    nonneg_orthant,
    psd_cone,
    ray_cone,
)
from .decomp import (
    Decomposition,
    EmbeddingMap,
    dual_one_orth_decompose,
    embed_to_lp,
    infty_orth_decompose,
    opt_decompose,
)
from .errors import InputError, SpecError, UnsupportedError
from .harness import SUITE_IDS, SuiteReport, build_example_46, default_families, run_suite
from .linalg import LpOutcome, LpProblem, eigen_sym, solve_lp
from .ortho import (
    K_GRID,
    OrthoVerdict,
    orthonormal_set_verify,
    p_orthogonal,
    p_orthogonal_exact,
    p_orthogonal_numeric,
)
from .spaces import (
    NormKind,
    SpaceSpec,
    base_space,
    conjugate,
    dual_norm,
    lp_space,
    norm,
    norming_element,
    order_unit_space,
    spectral_space,
    sup_space,
    validate_space,
)
from .support import (
    CrustResult,
    SupportResult,
    crust_probe,
    positive_support,
    support_functional,
)

__all__ = [
    "__version__",
    "ConeSpec",
    "cone_contains",
    "dual_cone_contains",
    "nonneg_orthant",
    "psd_cone",
    "ray_cone",
    "Decomposition",
    "EmbeddingMap",
    "dual_one_orth_decompose",
    "embed_to_lp",
    "infty_orth_decompose",
    "opt_decompose",
    "InputError",
    "SpecError",
    "UnsupportedError",
    "SUITE_IDS",
    "SuiteReport",
    "build_example_46",
    "default_families",
    "run_suite",
    "LpOutcome",
    "LpProblem",
    "eigen_sym",
    "solve_lp",
    "K_GRID",
    "OrthoVerdict",
    "orthonormal_set_verify",
    "p_orthogonal",
    "p_orthogonal_exact",
    "p_orthogonal_numeric",
    "NormKind",
    "SpaceSpec",
    "base_space",
    "conjugate",
    "dual_norm",
    "lp_space",
    "norm",
    "norming_element",
    "order_unit_space",
    "spectral_space",
    "sup_space",
    "validate_space",
    "CrustResult",
    "SupportResult",
    "crust_probe",
    "positive_support",
    "support_functional",
]
