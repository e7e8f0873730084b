"""Numerical verification lab for curvature-dimension theory with N < 0.

Library surface: comparison functions, convexity checkers, gradient-flow
inequality checkers, weighted-space curvature/spectral tools, and the 1-D
optimal-transport suite.  The ``negdimcd`` command drives batch check suites
from config files.

Each public name loads its submodule when it is first used (``negdimcd.w2``
imports ``negdimcd.transport``), so a command pays only for the modules it
runs.  The names are looked up on the submodules each time, not copied here.
"""

import sys as _sys
from importlib import import_module as _import_module

_NAMES = {
    "comparison": ("c", "g_combiner", "s", "sigma", "tau"),
    "convexity": ("ConvexityParams", "check_derivative", "check_geodesic",
                  "check_pointwise", "example_function", "geodesic_margin",
                  "interior_grid", "sum_rule"),
    "functions": ("ScalarFunction1D", "exp_transform"),
    "geometry": ("CurvatureCertificate", "EigenResult", "RotSphere", "WeightedLine",
                 "bochner_margin", "gaussian_line", "laplacian_m", "lebesgue_line",
                 "lichnerowicz", "min_ricci_n", "power_weight_line", "product_certificate",
                 "product_direction_check", "ricci_n", "weighted_sum_certificate"),
    "gradflow": ("GradientCurve", "claim_convexity_margin", "expansion_bound",
                 "integrate_flow", "local_slope", "metric_speed", "regularizing_bounds",
                 "verify_edi", "verify_evi", "verify_evi_classical", "verify_evi_integrated"),
    "quadrature": (),
    "report": ("CheckReport",),
    "transport": ("Density1D", "GeodesicPath", "brunn_minkowski", "check_cd",
                  "check_entropic_cd", "check_jacobian_convexity", "fisher_information",
                  "gaussian_density", "hwi_check", "interpolate", "log_sobolev_check",
                  "reference_density", "relative_entropy", "renyi_entropy",
                  "talagrand_check", "uniform_density", "w2"),
}
# each public name, and each submodule by its own name -> the submodule's path
_HOME = {name: f"{__name__}.{module}"
         for module, names in _NAMES.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    path = _HOME.get(name)
    if path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # sys.modules first: every use comes here, and import_module's own
    # lookup of a loaded module costs about 0.5 us
    module = _sys.modules.get(path) or _import_module(path)
    return module if name in _NAMES else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
