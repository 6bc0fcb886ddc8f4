"""Long-time asymptotics of the viscous Burgers equation with slowly
decaying initial data, computed through the Hopf-Cole solution formula.

Modules:
    initial_data        concrete data families (value/derivatives/primitive)
    quadrature          stabilized exponential integrals and their weights
    burgers             the Burgers field, derivatives, PDE residual, sup norm
    heat                heat-equation counterpart and its closed-form profile
    profiles            limit branches, jump locations, limit profiles
    rescaled            finite-time rescaled-phase analysis and diagnostics
    finite_difference   independent FD oracle for cross-validation
    experiments         experiment drivers with CSV/JSON emission
    cli                 command-line entry point
"""

__version__ = "0.1.0"

from .initial_data import (
    FamilySpec,
    InitialData,
    UnsupportedOrderError,
    make_custom,
    make_family,
    negate_reflect,
)
from .quadrature import (
    CriticalPoint,
    InternalConsistencyError,
    MomentWeight,
    NotConvergedError,
    PhysicalPhase,
    StabilizedIntegral,
    integrate_moments,
    locate_critical_points,
)
from .profiles import (
    BranchSolution,
    DiscontinuityError,
    ProfileCase,
    TiePointError,
    cusp,
    critical_curve_limit,
    branch_phase_limit,
    invert_branch,
    log_corrected_scale,
    profile_jump_location,
    profile_value,
)
from .rescaled import (
    BranchSet,
    ConcentrationResult,
    PropertyReport,
    case_for_data,
    check_properties,
    concentration_ratio,
    critical_curve_finite,
    finite_branches,
    phase_tie_point,
    rescaled_critical_points,
    rescaled_phase,
)

__all__ = [name for name in dir() if not name.startswith("_")]
