"""Generalized concurrence and separability analysis for pure
continuous-variable quantum states."""

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
from .wedge import lagrange_identity_gap

__version__ = "0.1.0"
