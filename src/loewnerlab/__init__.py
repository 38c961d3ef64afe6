"""Loewner matrices of power functions: builders, inertia engines, predicted
inertia, sign-regularity scans, and eigenvalue sweeps."""

from .types import (
    Exponent,
    Inertia,
    PointConfig,
    SymMatrix,
    ToleranceContext,
    make_point_config,
)
from .builders import (
    antidiag_V,
    cross_loewner,
    diag_D,
    loewner_matrix,
    loewner_matrix_exact,
    ones_E,
    power_sum_matrix,
    sinh_loewner,
    vandermonde_W,
)
from .inertia import (
    EigenConvergenceError,
    InertiaReport,
    Spectrum,
    consensus_inertia,
    eig_sym,
    inertia,
    inertia_from_spectrum,
    inertia_ldl,
)
from .oracle import (
    IdentityResiduals,
    Prediction,
    VerifyReport,
    conditional_inertia,
    predicted_inertia,
    prop21_check,
    verify_identities,
    verify_instance,
)
from .analysis import (
    ComboFunction,
    ComplexScanReport,
    NormProbe,
    PrCompareReport,
    Rect,
    ScanPolicy,
    SsrReport,
    ZeroCountReport,
    combo_eval,
    complex_det,
    complex_zero_scan,
    compound_matrix,
    count_zeros,
    det_closed_form_L3,
    det_closed_form_L4,
    dk_apply,
    dk_apply_function,
    dk_norm_probe,
    pr_compare,
    ssr_scan,
)
from .sweep import (
    SignChange,
    SpectrumSweep,
    eigen_trajectories,
    emit_figure1,
    flag_jumps,
    sign_change_report,
)

__version__ = "0.1.0"
