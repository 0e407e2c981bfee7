"""Connections on tensor invariants over configuration space: exact
flatness certificates, braid monodromy by parallel transport, quadratic
current-mode operators on graded module truncations, residue pairing
identities, and fusion-rule rank computations for sl2.

``import kzmono`` loads only the error classes. Every other public name,
and every submodule, is imported from its home module on first access
(PEP 562), so ``kzmono.build_algebra`` loads ``liealg`` and ``numerics``
alone.
"""

import importlib

from .errors import (
    ConfigurationError,
    ConsistencyError,
    DomainError,
    KzmonoError,
    ShapeError,
    SingularityError,
    ViolationError,
)

# public name -> the submodule that defines it
_HOME = {name: module for module, names in (
    ("liealg", "DualBasis LieAlgebra bracket build_algebra killing_form "
               "level_weights orthonormal_basis weight_form"),
    ("reps", "CasimirReport Irrep casimir casimir_value irrep tensor_decompose "
             "weyl_dimension"),
    ("invariants", "InvariantSpace TensorSystem TwoSiteOperator invariant_basis "
                   "omega_pair restrict tensor_system"),
    ("kz", "ArcSegment ConfigPath HolonomyResult KZSystem LineSegment "
           "braid_generator_path braid_monodromy compose connection_matrix "
           "default_basepoint eigenvalue_check exact_local_spectrum "
           "flatness_residual kz_system parallel_transport path_through"),
    ("sugawara", "TruncatedModule VirasoroOperator affine_bracket_check "
                 "central_charge conformal_weight graded_character graded_weights "
                 "ln_operator lx_commutator_check truncated_module "
                 "virasoro_bracket_check"),
    ("symbols", "FormalField LaurentGVector cocycle_cross cocycle_evaluation "
                "random_laurent_vector residue_side symbol_pairing"),
    ("verlinde", "FusionRing compare_invariants fusion_ring rank rank_smatrix"),
) for name in names.split()}
_SUBMODULES = frozenset(_HOME.values()) | {"cli", "errors", "numerics"}

__all__ = [
    "ConfigurationError", "ConsistencyError", "DomainError", "KzmonoError",
    "ShapeError", "SingularityError", "ViolationError", *_HOME,
]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
