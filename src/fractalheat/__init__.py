"""Heat kernels and subordinate stable kernels on nested-fractal graphs."""

from .exact import LinearMap2, Q3, Vec2, parse_q3
from .geometry import (
    CellAddress,
    FractalError,
    FractalSystem,
    Similitude,
    SnfReport,
    VertexGraph,
    build_system,
    build_vertex_graph,
    enumerate_cells,
    fixed_points,
    gasket_vertex_count,
    sierpinski_gasket,
    unit_interval_system,
    validate_snf,
)
from .labeling import (
    LabelingError,
    LabelMap,
    RotationGroup,
    build_good_labeling,
    rotation_group,
)
from .kernels import (
    Generator,
    KernelCache,
    KernelError,
    ScalingCheck,
    SpectralKernel,
    WalkDimensionEstimate,
    build_generator,
    check_scaling_property,
    default_cache,
    estimate_walk_dimension,
    folding_crosscheck,
    spectral_decompose,
)
from .subordinators import (
    DensityVerification,
    SubordinatorError,
    SubordinatorSpec,
    laplace_exponent,
    laplace_transform_numeric,
    relativistic_density,
    stable_density,
    stable_tail_constant,
    verify_density,
)
from .subordinate import (
    EquivalenceReport,
    crosscheck_subordination,
    subordinate_quadrature,
)
from .bounds import (
    BoundError,
    BoundReport,
    EnvelopeForm,
    ReflectionStudy,
    SandwichReport,
    classify_regime,
    fit_envelope_constants,
    form_for,
    refinement_stability,
    relativistic_comparison_reports,
    sandwich_check_f,
    stable_comparison_reports,
)

__version__ = "0.1.0"
