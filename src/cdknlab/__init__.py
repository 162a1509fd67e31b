"""Numerical laboratory for curvature-dimension bounds with negative
generalized dimension on one-dimensional metric measure spaces."""

import os


def _thread_count(text):
    """CDKNLAB_THREADS as a thread count: an integer >= 1, else None."""
    return int(text) if text and text.isdecimal() and int(text) >= 1 else None


# CDKNLAB_THREADS caps the worker pools of the numeric backends.  It has to be
# exported before the submodules below import numpy, which reads it once; any
# value but an integer >= 1 is not passed on (the CLI then exits 1).
_threads = _thread_count(os.environ.get("CDKNLAB_THREADS"))
if _threads is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "HIGHS_NUM_THREADS"):
        os.environ.setdefault(_var, str(_threads))

from .cdcheck import (
    CdReport,
    CdRow,
    ConvexityReport,
    SuiteReport,
    cd_suite,
    default_nprime_grid,
    estimate_Omega,
    estimate_omega,
    hierarchy_check,
    kn_convexity_check,
    regular_intervals,
    richardson_check,
    sample_pair_specs,
    t_functional,
    verify_cd,
)
from .distortion import sigma_kappa, tau_KN, tau_KN_vec
from .errors import *  # noqa: F401,F403
from .geodesics1d import (
    GeodesicSlice,
    displacement_interpolate,
    union_refined_grid,
)
from .ikrw import (
    ConvergenceRow,
    ConvergenceTable,
    convergence_experiment,
    extrinsic_gap,
    glued_drift_space,
    hausdorff_distance,
    ikrw,
    ikrw_fm,
    truncated_power_space,
)
from .measure import (
    DensityWrtM,
    DiscreteMeasure,
    bump,
    conjugate_coefficient,
    entropy_from_masses,
    explicit,
    f_star,
    legendre_entropy,
    measure_from_dict,
    mixture,
    optimal_test_function,
    radon_nikodym,
    renyi_entropy,
    uniform_block,
)
from .mmspace import (
    Grid1D,
    ModelSpec,
    PointedSpace1D,
    build_model_space,
    cut_weights,
    detect_singular_set,
    f_cut,
    k_cut,
    space_from_dict,
    space_summary,
    total_mass,
)
from .transport import (
    CostSpec,
    Coupling,
    MonotoneMap,
    monotone_map,
    optimal_coupling_lp,
    w2_block_1d,
    w2_quantile_1d,
    wc_distance,
    weighted_marginalization,
)

__version__ = "0.1.0"
