"""Generalized concurrence and separability analysis for pure
continuous-variable quantum states."""

import os as _os


def _apply_thread_setting():
    """Cap the BLAS/OpenMP thread count at CVCONC_THREADS (0 or unset leaves
    it automatic). This runs before any submodule imports numpy, because the
    BLAS reads these variables only when it is loaded."""
    try:
        count = int(_os.environ.get("CVCONC_THREADS", ""))
    except ValueError:
        return
    if count > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ[var] = str(count)


_apply_thread_setting()

# The submodules import numpy, so they come after the thread setting.
from .concurrence import (
    ConcurrenceReport,
    SeparabilityCertificate,
    concurrence_gaussian_numeric,
    concurrence_report,
    concurrence_route_A,
    concurrence_route_B,
    concurrence_route_Lambda,
    decide_separability,
    family_measure,
)
from .errors import (
    CVConcError,
    DegenerateStateError,
    InputError,
    NumericError,
    StateValidityError,
    TruncationWarning,
    UnphysicalStateError,
)
from .gaussian import (
    TwoModeGaussianSpec,
    closed_form_concurrence,
    closed_form_normalization,
    gaussian_separability,
    sweep_concurrence,
)
from .quadrature import ProductRule, gauss_hermite_rule, integrate, midpoint_rule
from .spectral import (
    ReducedDensity,
    concurrence_route_C,
    hs_identity_gap,
    purity,
    reduce,
    von_neumann_entropy,
)
from .states import (
    Bipartition,
    GaussianPureState,
    GridAxis,
    GridState,
    Split,
    discretize,
    evaluate_gaussian,
    evaluate_grid,
    split,
)
from .transpose import (
    DiscreteOperator,
    LambdaPermutation,
    build_rho_pt,
    concurrence_route_D,
    concurrence_route_E,
    lambda_invariance_gap,
    ppt_min_eigenvalue,
    pt_square_factorization_gap,
    wigner_gaussian,
    wigner_invariance_gap,
    wigner_normalization,
    wigner_pt_fourth_moment_concurrence,
)
from .verification import VerificationReport, run_verification
from .wedge import Bivector, bivector_p_norm, lagrange_identity_gap, wedge

__version__ = "0.1.0"
