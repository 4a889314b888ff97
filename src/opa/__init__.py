"""Optimal polynomial approximants, stabilization certificates, and
projections of unity in weighted Hardy spaces."""

from .errors import (
    CannotCertifyError,
    EnvelopeOverflowError,
    IllConditionedError,
    NotPositiveDefiniteError,
    NotReproducibleError,
    OpaError,
    OrthogonalDataError,
    RootFindingError,
)
from .series import (
    CPoly,
    TruncSeries,
    blaschke_factor,
    blaschke_product,
    geometric_series,
    needed_length,
    poly_mul,
    reciprocal_taylor,
    series_mul,
    taylor_truncate,
)
from .spaces import (
    Certified,
    KernelSpec,
    Reproducibility,
    WeightSequence,
    falling_product_sum,
    inner_any,
    inner_poly,
    inner_series,
    is_reproducible,
    kernel_coefficients,
    kernel_eval,
    kernel_inner,
    kernel_series,
    norm_sq_any,
    norm_sq_poly,
)
from .linalg import cholesky_solve, poly_roots
from .engine import (
    CyclicityDiagnostic,
    InnerCertificate,
    OpaResult,
    ShiftOrthogonality,
    StabilizationDossier,
    StabilizationReport,
    approximant_sweep,
    build_system,
    cyclicity_diagnostic,
    detect_stabilization,
    is_inner,
    optimal_approximant,
    orthogonal_to_shifts,
    orthogonality_residual,
    stabilization_dossier,
    taylor_residuals,
)
from .projection import (
    ClassifiedZero,
    FactorialBasisMatrix,
    ProjectionResult,
    ZeroClassification,
    blaschke_projection,
    classify_zeros,
    distance_to_poly,
    factorial_basis_matrix,
    falling_factorial,
    project_unity,
    projection_equivalent,
    recurrence_residual,
    rising_factorial,
)

__version__ = "0.1.0"
