"""Numerical verification of sharp weighted Hardy inequalities on
intervals, spherical caps and the half-space."""

__version__ = "0.1.0"

from .errors import (
    DegenerateInputError,
    DomainError,
    HardyError,
    InequalityViolationError,
    NumericalError,
    ParameterError,
)
from .eta import (
    EtaProfile,
    eta,
    eta_bounds,
    eta_many,
    eta_truncated_many,
    find_truncation_point,
    tail_integral,
    tail_integrals,
)
from .halfspace import (
    SeparableField,
    SharpnessReport,
    dirac_bump,
    sharpness_sequence_halfspace,
    verify_halfspace,
    zeta,
    zeta_integrability_check,
)
from .hardy1d import (
    A_k_B_k,
    GridFunction,
    QuotientReport,
    convergence_study,
    extremal_U_k,
    extremal_V_k,
    hardy_quotient,
    sharp_constant,
)
from .sphere import (
    CapGeometry,
    CapStepProfile,
    SampleSet,
    SphericalProfile,
    cap_volume,
    check_hardy_littlewood,
    check_polya_szego_radial,
    extremal_V_hat_k,
    inverse_cap_volume,
    radial_rearrangement,
    rho_many,
    rho_star,
    sphere_surface_volume,
    spherical_rearrangement,
    verify_sphere_theorem,
)
from .weights import (
    ValidationReport,
    Weight,
    make_power_weight,
    make_sine_weight,
    validate_weight,
)
