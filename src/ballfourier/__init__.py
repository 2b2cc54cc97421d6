"""Boundary-parametrized Fourier analysis on hyperbolic 2- and 3-space.

Poincare ball geometry, spherical functions and the c-function, quadrature
grids, the forward/Poisson/joint-eigenspace transform stack with inversion
and Plancherel verification, Paley-Wiener diagnostics, and a batch scenario
CLI (`ballfourier`).
"""

from .geometry import (
    GeometryError,
    Isometry,
    MobiusTranslation,
    Point,
    Rotation,
    dist,
    point_to_polar,
    polar_to_point,
    volume_weight,
)
from .grids import (
    BoundaryGrid,
    BumpSpec,
    ConfigurationError,
    RadialGrid,
    SampledFunction,
    k_average_profile,
    sample_bump,
)
from .spectral import (
    CFunctionPoleError,
    FitConditioningError,
    c_function,
    eigenvalue_of,
    spherical_phi,
)
from .transforms import (
    AsymptoticReport,
    EigenCheck,
    InversionResult,
    PlancherelReport,
    TransformRangeError,
    TransformUsageError,
    asymptotic_limit_residual,
    boundary_slices,
    calibrate_kappa,
    eigen_equation_residual,
    functional_equation_residual,
    helgason_forward,
    invert,
    jeft,
    jeft_direct,
    jeft_grid,
    kaverage_bridge_residual,
    laplace_beltrami_residual,
    plancherel_residual,
    poisson,
    spherical_transform,
)
from .paley_wiener import holomorphy_circle_residual
from .paley_wiener import (
    DecayReport,
    TypeEstimate,
    decay_report,
    estimate_type,
)
from .config import ConfigError, ScenarioConfig, parse_config
from .scenarios import list_scenarios, run_scenario

__version__ = "0.1.0"
