"""Certified two-sided brackets for matrix power-sum growth rates.

Given a finitely supported measure on d x d real matrices, this package
computes rigorous enclosures (not mere estimates) for

* the norm pressure M(mu, s) — the growth rate of weighted power sums of
  ||A_w||^s over words w,
* the p-radius of a finite matrix family,
* the singular-value pressure P(mu, s) built on the singular-value
  function phi^s,
* the affinity dimension of a contractive family, and
* the joint spectral radius of a finite matrix set,

each by pairing the trivial one-sided bound with an a priori
product-inequality bound in the other direction, so that every returned
interval is a finite-computation certificate.

Every module loads on first use: ``import matpress`` imports no submodule,
and each public name (``matpress.jsr_bracket``) or submodule
(``matpress.pressure``) imports its module when it is first read.  Parsing
a measure with ``cli.parse_input`` thus loads only ``cli``, ``measure``,
``linalg`` and ``errors``; the enumeration engine and the bracket modules
load with the first bracket.
"""

import importlib

__version__ = "0.1.0"

# public name -> (module, attribute in it)
_EXPORTS = {
    "BudgetExhaustedError": ("errors", "BudgetExhaustedError"),
    "DimensionCapError": ("errors", "DimensionCapError"),
    "InvalidInputError": ("errors", "InvalidInputError"),
    "InvertedIntervalError": ("errors", "InvertedIntervalError"),
    "FiniteMatrixMeasure": ("measure", "FiniteMatrixMeasure"),
    "Kernel": ("measure", "Kernel"),
    "LogValue": ("measure", "LogValue"),
    "WordBudget": ("measure", "WordBudget"),
    "lifted_measure": ("measure", "lifted_measure"),
    "norm_kernel": ("measure", "norm_kernel"),
    "phi_kernel": ("measure", "phi_kernel"),
    "restrict_invertible": ("measure", "restrict_invertible"),
    "scale_measure": ("measure", "scale_measure"),
    "weighted_power_sum": ("measure", "weighted_power_sum"),
    "exterior_power": ("linalg", "exterior_power"),
    "lift": ("linalg", "lift"),
    "operator_norm": ("linalg", "operator_norm"),
    "phi": ("linalg", "phi"),
    "singular_values": ("linalg", "singular_values"),
    "PressureBracket": ("pressure", "PressureBracket"),
    "pressure_bracket": ("pressure", "bracket"),
    "norm_constant": ("pressure", "norm_constant"),
    "p_radius_bracket": ("pressure", "p_radius_bracket"),
    "sv_pressure_bracket": ("svpressure", "bracket"),
    "continuity_at_one": ("svpressure", "continuity_at_one"),
    "planar_constant": ("svpressure", "planar_constant"),
    "AffinityResult": ("affinity", "AffinityResult"),
    "affinity_dimension": ("affinity", "affinity_dimension"),
    "meets_ambient_dimension": ("affinity", "meets_ambient_dimension"),
    "solve_determinant_dimension": ("affinity", "solve_determinant_dimension"),
    "ScanPoint": ("jsr", "ScanPoint"),
    "ScanResult": ("jsr", "ScanResult"),
    "jsr_bracket": ("jsr", "jsr_bracket"),
    "zero_temperature_scan": ("jsr", "zero_temperature_scan"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    """Import the module behind a public name or submodule on first use
    (PEP 562), and bind the name here so later reads skip this hook."""
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
        value = getattr(importlib.import_module(f".{module}", __name__), attr)
    elif any(name == module for module, _ in _EXPORTS.values()):
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
