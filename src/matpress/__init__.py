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
"""

from .errors import (
    BudgetExhaustedError,
    DimensionCapError,
    InvalidInputError,
    InvertedIntervalError,
)
from .measure import (
    FiniteMatrixMeasure,
    Kernel,
    LogValue,
    WordBudget,
    hat_measure_2d,
    lifted_measure,
    norm_kernel,
    phi_kernel,
    restrict_invertible,
    scale_measure,
    weighted_power_sum,
)
from .linalg import (
    exterior_power,
    kronecker,
    lift,
    operator_norm,
    phi,
    singular_values,
)
from .pressure import (
    PressureBracket,
    bracket as pressure_bracket,
    norm_constant,
    p_radius_bracket,
)
from .svpressure import (
    LiftSpec,
    bracket as sv_pressure_bracket,
    continuity_at_one,
    det_pressure,
    lift_params,
    planar_constant,
)
from .affinity import (
    AffinityResult,
    affinity_dimension,
    meets_ambient_dimension,
    solve_determinant_dimension,
)
from .jsr import (
    ScanPoint,
    ScanResult,
    jsr_bracket,
    zero_temperature_scan,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "DimensionCapError",
    "InvalidInputError",
    "InvertedIntervalError",
    "FiniteMatrixMeasure",
    "Kernel",
    "LogValue",
    "WordBudget",
    "hat_measure_2d",
    "lifted_measure",
    "norm_kernel",
    "phi_kernel",
    "restrict_invertible",
    "scale_measure",
    "weighted_power_sum",
    "exterior_power",
    "kronecker",
    "lift",
    "operator_norm",
    "phi",
    "singular_values",
    "PressureBracket",
    "pressure_bracket",
    "norm_constant",
    "p_radius_bracket",
    "LiftSpec",
    "sv_pressure_bracket",
    "continuity_at_one",
    "det_pressure",
    "lift_params",
    "planar_constant",
    "AffinityResult",
    "affinity_dimension",
    "meets_ambient_dimension",
    "solve_determinant_dimension",
    "ScanPoint",
    "ScanResult",
    "jsr_bracket",
    "zero_temperature_scan",
    "__version__",
]
