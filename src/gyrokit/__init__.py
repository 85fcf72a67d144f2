"""Velocity addition on the open unit ball and everything it carries.

Core arithmetic (ball), hyperbolic predicates (geometry), classification
of addition-respecting self-maps (morphisms), 2x2 matrix models of the
3-dimensional ball (matrix_models), and a seeded randomized verifier for
all of the above (verifier).

Importing the package runs ball alone.  The other layers are in
sys.modules from the start, as modules whose code runs on their first
attribute access, and each public name is fetched from its layer when it
is first read here (Scientific Python SPEC 1).  So a command that needs
one layer compiles only that one.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

from .ball import (
    DEFAULT_ABS_TOL,
    DEFAULT_BOUNDARY_MARGIN,
    DEFAULT_REL_TOL,
    DEFAULT_SAMPLE_RMAX,
    DEFAULT_TOL,
    BallDomainError,
    DimensionMismatchError,
    GyroError,
    GyroVector,
    ToleranceConfig,
    approx_eq,
    einstein_add,
    gamma,
    gyration,
    line_param,
    neg,
)


def _lazy(name: str):
    """The submodule name, registered in sys.modules but run on first use."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


geometry = _lazy("geometry")
matrix_models = _lazy("matrix_models")
sampling = _lazy("sampling")
morphisms = _lazy("morphisms")
verifier = _lazy("verifier")

# public name -> the layer that defines it, for the names ball does not
_LAYER_OF = {
    **dict.fromkeys(
        ["collinear_direct", "collinear_gyro", "commutes", "gram_band", "klein_distance",
         "linearly_dependent"],
        geometry,
    ),
    **dict.fromkeys(
        ["DensityMatrix2", "Hermitian2", "PosDef2Det1", "PositivityError", "bloch_to_density",
         "boxdot", "density_to_bloch", "is_positive_definite", "normalize_det", "odot",
         "sqrt_congruence", "sqrt_posdef2"],
        matrix_models,
    ),
    **dict.fromkeys(
        ["BallMap", "LinearMap", "MapClassification", "PreconditionError",
         "UnsupportedDimensionError", "check_endomorphism", "classify_endomorphism",
         "decision_threshold", "endomorphism_residual", "is_orthogonal", "random_orthogonal",
         "zero_propagation_check"],
        morphisms,
    ),
    **dict.fromkeys(["BallSampler", "PropertyReport", "derive_seed"], sampling),
    **dict.fromkeys(["UnknownPropertyError", "registered_names", "run_suite"], verifier),
}


def __getattr__(name: str):
    """Fetch a public name from its layer, and bind it here for the next read."""
    try:
        layer = _LAYER_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(layer, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "BallDomainError",
    "BallMap",
    "BallSampler",
    "DEFAULT_ABS_TOL",
    "DEFAULT_BOUNDARY_MARGIN",
    "DEFAULT_REL_TOL",
    "DEFAULT_SAMPLE_RMAX",
    "DEFAULT_TOL",
    "DensityMatrix2",
    "DimensionMismatchError",
    "GyroError",
    "GyroVector",
    "Hermitian2",
    "LinearMap",
    "MapClassification",
    "PosDef2Det1",
    "PositivityError",
    "PreconditionError",
    "PropertyReport",
    "ToleranceConfig",
    "UnknownPropertyError",
    "UnsupportedDimensionError",
    "approx_eq",
    "bloch_to_density",
    "boxdot",
    "check_endomorphism",
    "classify_endomorphism",
    "collinear_direct",
    "collinear_gyro",
    "commutes",
    "decision_threshold",
    "density_to_bloch",
    "derive_seed",
    "einstein_add",
    "endomorphism_residual",
    "gamma",
    "gram_band",
    "gyration",
    "is_orthogonal",
    "is_positive_definite",
    "klein_distance",
    "line_param",
    "linearly_dependent",
    "neg",
    "normalize_det",
    "odot",
    "random_orthogonal",
    "registered_names",
    "run_suite",
    "sqrt_congruence",
    "sqrt_posdef2",
    "zero_propagation_check",
]
