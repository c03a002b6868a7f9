"""Identification of time- and space-dependent coefficients in second-order
evolution equations: Galerkin discretizations, exact discrete adjoints,
constructive ill-posedness experiments, and iterative regularized inversion.

The names below are the package's front door; everything else is reached
through its module (``waveinv.galerkin``, ``waveinv.errors``, ...).
"""

__version__ = "0.1.0"

from .errors import ResolutionError
from .evolve import (
    SourceTerm,
    Trajectory,
    compatibility_check,
    energy_monitor,
    make_source,
    momentum_from_velocity,
    solve_backward,
    solve_forward,
    y_norm,
)
from .forward import (
    DataVector,
    ObservationSpec,
    data_distance,
    data_inner,
    data_norm,
    forward_map,
    observe,
    trapezoid_weights,
)
from .galerkin import (
    FIELD_NAMES,
    ParameterField,
    ParameterPoint,
    assemble_direction,
    assemble_operators,
    build_grid,
    parameter_norm,
    project_point,
)
from .inversion import InversionConfig, add_noise, cgne, landweber
from .sensitivity import GradientFields, dot_test

__all__ = [name for name in dir() if not name.startswith("_")]
