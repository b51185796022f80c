"""Heat kernels and subordinate stable kernels on nested-fractal graphs.

The public names load lazily (PEP 562): importing the package, or
``fractalheat.cli`` for the command line, imports no numpy, so the CLI can
pin the BLAS thread pools before numpy starts them.
"""

import importlib

_EXPORTS = {
    "exact": ("LinearMap2", "Q3", "Vec2", "parse_q3"),
    "geometry": (
        "CellAddress",
        "Csr",
        "FractalError",
        "FractalSystem",
        "Similitude",
        "SnfReport",
        "VertexGraph",
        "build_system",
        "build_vertex_graph",
        "enumerate_cells",
        "fixed_points",
        "gasket_vertex_count",
        "hop_distances",
        "sierpinski_gasket",
        "unit_interval_system",
        "validate_snf",
    ),
    "labeling": (
        "LabelingError",
        "LabelMap",
        "RotationGroup",
        "build_good_labeling",
        "rotation_group",
    ),
    "kernels": (
        "KernelCache",
        "KernelError",
        "ScalingCheck",
        "SpectralKernel",
        "WalkDimensionEstimate",
        "build_generator",
        "check_scaling_property",
        "estimate_walk_dimension",
        "folding_crosscheck",
        "spectral_decompose",
    ),
    "subordinators": (
        "DensityVerification",
        "SubordinatorError",
        "SubordinatorSpec",
        "laplace_exponent",
        "laplace_transform_numeric",
        "relativistic_density",
        "stable_density",
        "stable_tail_constant",
        "verify_density",
    ),
    "subordinate": (
        "EquivalenceReport",
        "crosscheck_subordination",
        "subordinate_quadrature",
    ),
    "bounds": (
        "BoundError",
        "BoundReport",
        "EnvelopeForm",
        "ReflectionStudy",
        "SandwichReport",
        "form_for",
        "refinement_stability",
        "relativistic_comparison_reports",
        "sandwich_check_f",
        "stable_comparison_reports",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as ``fractalheat.kernels``
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
