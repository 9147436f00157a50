"""Exact and numerical tools for q-deformed algebras, phase space, and dynamics.

The package is organized in independent layers:

- ``scalars``: exact Laurent polynomials in q^(1/2) over Gaussian rationals,
  half-integer bookkeeping, and q-numbers.
- ``ncalg`` / ``parsing`` / ``presets``: noncommutative polynomial rings with
  rewriting rules, flatness scans, derivations, and ready-made presentations.
- ``suq2`` / ``exactmat``: finite-dimensional representations of the deformed
  rotation algebra, exact and floating, with Casimir-based decomposition.
- ``qphase``: a truncated lattice representation of the deformed phase space
  with residual certification, spectral analysis, and time evolution.
- ``classical``: the deformed classical Hamiltonian, its closed-form
  trajectory, and high-accuracy integration checks.
"""

from importlib import import_module

from .scalars import (
    GaussRat,
    HalfInt,
    QExact,
    QExactError,
    lambda_sym,
    q_number,
    q_number_value,
)
from .ncalg import (
    DivergedError,
    FlatnessReport,
    MissingRuleError,
    NCPoly,
    Presentation,
    PresentationError,
    all_normal_forms,
    check_identity,
    derivative_apply,
    flatness_scan,
    normal_form,
)
from .parsing import ParseError, parse_expr, parse_rule
from .presets import PRESETS, get_preset
# the numeric layers load numpy, so their names are imported on first use
# (PEP 562): `from qdeform import QExact` and the exact commands stay pure Python
_LAZY = {
    "suq2": (
        "DecompositionError",
        "DecompositionReport",
        "Suq2Rep",
        "algebra_residuals",
        "build_rep",
        "build_rep_exact",
        "casimir_decompose",
        "casimir_eigenvalue",
        "conjugation_residuals",
        "coproduct",
        "from_su2_embedding",
        "rep_report",
        "spinor_exact",
    ),
    "qphase": (
        "BRACKET_CONVENTIONS",
        "PhaseParams",
        "PhaseRep",
        "Reconstruction",
        "SpectrumReport",
        "SpectrumWindowError",
        "build_phase_rep",
        "evolve",
        "expected_hamiltonian_spectrum",
        "hamiltonian_spectrum",
        "phase_report",
        "reconstruct_pxlambda",
        "relation_residuals",
        "spectral_factor",
        "x_eigensystem",
        "x_extension_eigensystem",
    ),
    "classical": (
        "ClassicalParams",
        "InsufficientRangeError",
        "classical_report",
        "closed_form_position",
        "compare_closed_form",
        "estimate_maxima_spacing",
        "free_limit_deviation",
        "integrate_trajectory",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAZY.items() for name in names}


def __getattr__(name):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAYER_OF))


__version__ = "0.1.0"

__all__ = [
    "GaussRat",
    "HalfInt",
    "QExact",
    "QExactError",
    "lambda_sym",
    "q_number",
    "q_number_value",
    "DivergedError",
    "FlatnessReport",
    "MissingRuleError",
    "NCPoly",
    "Presentation",
    "PresentationError",
    "all_normal_forms",
    "check_identity",
    "derivative_apply",
    "flatness_scan",
    "normal_form",
    "ParseError",
    "parse_expr",
    "parse_rule",
    "PRESETS",
    "get_preset",
    "DecompositionError",
    "DecompositionReport",
    "Suq2Rep",
    "algebra_residuals",
    "build_rep",
    "build_rep_exact",
    "casimir_decompose",
    "casimir_eigenvalue",
    "conjugation_residuals",
    "coproduct",
    "from_su2_embedding",
    "rep_report",
    "spinor_exact",
    "BRACKET_CONVENTIONS",
    "PhaseParams",
    "PhaseRep",
    "Reconstruction",
    "SpectrumReport",
    "SpectrumWindowError",
    "build_phase_rep",
    "evolve",
    "expected_hamiltonian_spectrum",
    "hamiltonian_spectrum",
    "phase_report",
    "reconstruct_pxlambda",
    "relation_residuals",
    "spectral_factor",
    "x_eigensystem",
    "x_extension_eigensystem",
    "ClassicalParams",
    "InsufficientRangeError",
    "classical_report",
    "closed_form_position",
    "compare_closed_form",
    "estimate_maxima_spacing",
    "free_limit_deviation",
    "integrate_trajectory",
    "__version__",
]
