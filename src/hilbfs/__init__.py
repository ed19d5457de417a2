"""Hilbert and Fubini-Study maps between metrics and hermitian forms on the
projective line, with constructive surjectivity pipelines and a quantitative
injectivity audit."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    ContinuationError,
    ConvergenceError,
    CurvaturePositivityError,
    DefinitenessError,
    DimensionError,
    HermitianDefectError,
    MarginError,
    MassDefectError,
    MomentInfeasibleError,
    StageError,
    VariantError,
)
from .linalg import (
    HermitianForm,
    cholesky_lower,
    load_matrix_json,
    matrix_norms,
    orthonormalize_sections,
)
from .geometry import (
    Density,
    ManifoldModel,
    MetricWeight,
    build_p1_anticanonical_model,
    build_p1_model,
    curvature_volume,
    fs_metric,
    reference_density,
)
from .maps import (
    ANTICANONICAL,
    FIXED,
    exponent_for_variant,
    hilb,
    hilb_nu,
    t_iterate,
    variant_density,
)
from .pushforward import (
    ContinuationTrace,
    phi_matrix,
    psi,
    psi0_closed,
    psi_t,
    solve_psi,
)
from .moments import (
    LambdaSystem,
    MomentTarget,
    build_lambda,
    hankel_margins,
    solve_moments,
)
from .calabi import MAProblem, MASolution, solve_ma, surject_fixed_volume, surject_full
from .injectivity import (
    InjectivityReport,
    compare_fs,
    f_matrix,
    perturbed_pair,
    verify_injectivity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
