"""Numerical verification lab for curvature-dimension theory with N < 0.

Library surface: comparison functions, convexity checkers, gradient-flow
inequality checkers, weighted-space curvature/spectral tools, and the 1-D
optimal-transport suite.  The ``negdimcd`` command drives batch check suites
from config files.
"""

from .comparison import c, g_combiner, s, sigma, tau
from .convexity import (
    ConvexityParams,
    check_derivative,
    check_geodesic,
    check_pointwise,
    example_function,
    geodesic_margin,
    interior_grid,
    mono_rule,
    scale_shift,
    sum_rule,
)
from .functions import ScalarFunction1D, exp_transform
from .geometry import (
    CurvatureCertificate,
    EigenResult,
    RotSphere,
    WeightedLine,
    bochner_margin,
    gaussian_line,
    laplacian_m,
    lebesgue_line,
    lichnerowicz,
    min_ricci_n,
    power_weight_line,
    product_certificate,
    product_direction_check,
    ricci_n,
    weighted_sum_certificate,
)
from .gradflow import (
    GradientCurve,
    claim_convexity_margin,
    expansion_bound,
    integrate_flow,
    local_slope,
    metric_speed,
    regularizing_bounds,
    verify_edi,
    verify_evi,
    verify_evi_classical,
    verify_evi_integrated,
)
from .report import CheckReport
from .transport import (
    Density1D,
    GeodesicPath,
    brunn_minkowski,
    check_cd,
    check_entropic_cd,
    check_jacobian_convexity,
    fisher_information,
    gaussian_density,
    hwi_check,
    interpolate,
    log_sobolev_check,
    reference_density,
    relative_entropy,
    renyi_entropy,
    talagrand_check,
    uniform_density,
    w2,
)

__version__ = "0.1.0"
