"""pvreflect: reflected differential equations driven by bounded p-variation paths.

The library is organised in five layers:

* :mod:`pvreflect.pathcore`  — cadlag step paths, p-variation, running maxima,
  oscillation, jump-adapted coarsening, alignment, CSV I/O;
* :mod:`pvreflect.skorokhod` — the reflection map at a time-dependent lower
  barrier and its Lipschitz stability checks;
* :mod:`pvreflect.young`     — left-point Riemann-Stieltjes integration and
  the zeta-constant variation bound;
* :mod:`pvreflect.drivers`   — fractional Brownian motion (circulant
  embedding), integrated noise drivers, deterministic fixtures;
* :mod:`pvreflect.sde`       — uniform and jump-adaptive Euler schemes, run
  for many replicates as one batch, with refinement-based convergence
  control.

:mod:`pvreflect.cli` exposes the same functionality as a command line; the
randomized verification campaigns behind ``pvreflect verify`` live in
:mod:`pvreflect.campaigns`.
"""

from . import errors
from .pathcore import (
    Interval,
    MatrixStepPath,
    StepPath,
    TimeGrid,
    align,
    coarsen_jump_adapted,
    make_matrix_path,
    make_path,
    oscillation,
    p_variation,
    p_variation_brute,
    read_path_csv,
    running_max,
    sup_distance,
    sup_norm,
    variation_norm,
    write_path_csv,
)
from .skorokhod import Reflection, check_estimates, solve_sp
from .young import (
    grid_riemann_sum,
    rs_integral,
    young_bound_check,
    zeta,
)
from .drivers import (
    FbmSpec,
    VolatilitySpec,
    build_zh,
    constant_path,
    empirical_pvar_profile,
    linear_path,
    philox_stream,
    sample_fbm,
    sample_fbm_paths,
    schedule_path,
    sine_path,
)
from .sde import (
    Coefficients,
    Problem,
    Solution,
    a_priori_check,
    euler_adaptive,
    euler_batch,
    euler_uniform,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Interval",
    "MatrixStepPath",
    "StepPath",
    "TimeGrid",
    "align",
    "coarsen_jump_adapted",
    "make_matrix_path",
    "make_path",
    "oscillation",
    "p_variation",
    "p_variation_brute",
    "read_path_csv",
    "running_max",
    "sup_distance",
    "sup_norm",
    "variation_norm",
    "write_path_csv",
    "Reflection",
    "check_estimates",
    "solve_sp",
    "grid_riemann_sum",
    "rs_integral",
    "young_bound_check",
    "zeta",
    "FbmSpec",
    "VolatilitySpec",
    "build_zh",
    "empirical_pvar_profile",
    "constant_path",
    "linear_path",
    "sine_path",
    "schedule_path",
    "philox_stream",
    "sample_fbm",
    "sample_fbm_paths",
    "Coefficients",
    "Problem",
    "Solution",
    "a_priori_check",
    "euler_adaptive",
    "euler_batch",
    "euler_uniform",
    "solve",
    "__version__",
]
