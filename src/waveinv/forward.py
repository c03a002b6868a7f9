"""The nonlinear forward operator: coefficients -> (observed) trajectory.

Composes operator assembly with the midpoint solver and provides the data
space: observation extraction, the trapezoidal/mass-weighted inner product,
distances, and the adjoints' data load.  A forward solve returns its
trajectory with the solve record (:class:`~.evolve.SolveRecord`: the timeline,
which holds the mesh and the point, and the factorizations) as ``solve``, so
derivative and adjoint sweeps at that point can reuse it.  Data are compared,
subtracted or loaded into an adjoint (on the solve's own mesh) only once
their observation specs, shapes and time grids agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ObservationError, RequiresForwardSolveError, ResolutionError
from .evolve import solve_forward
from .galerkin import assemble_operators, check_time_grid, read_only


@dataclass(frozen=True)
class ObservationSpec:
    """What part of the state is recorded.

    ``full-field`` observes every free DOF and pairs data with the mass
    matrix; ``node-subset`` records the listed free-DOF columns and pairs them
    with finite positive per-DOF weights (defaulting to one), given by a 1-D
    array of non-negative integer indices; :func:`observe` checks them
    against the mesh.
    """

    kind: str = "full-field"
    indices: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("full-field", "node-subset"):
            raise ObservationError(f"unknown observation kind '{self.kind}'")
        if self.kind == "node-subset":
            given = np.asarray(self.indices)
            if given.ndim != 1 or given.dtype.kind not in "iu":
                raise ObservationError(f"indices must be a 1-D integer array, got {given!r}")
            object.__setattr__(self, "indices", read_only(given, np.int64))
            if np.any(self.indices < 0):
                raise ObservationError(f"indices must not be negative, got {self.indices}")
            weights = np.ones(self.indices.size) if self.weights is None else self.weights
            object.__setattr__(self, "weights", read_only(weights))
            if self.weights.shape != self.indices.shape:
                raise ObservationError("weights must match indices")
            if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
                raise ObservationError("observation weights must be finite and positive")

    def matches(self, other):
        if self.kind != other.kind:
            return False
        if self.kind == "node-subset":
            return np.array_equal(self.indices, other.indices) and np.array_equal(
                self.weights, other.weights
            )
        return True


@dataclass(frozen=True)
class DataVector:
    """Finite observed samples (time node x observed DOF) with their pairing spec."""

    values: np.ndarray
    time_grid: np.ndarray
    spec: ObservationSpec = None

    def __post_init__(self):
        object.__setattr__(self, "values", read_only(self.values))
        object.__setattr__(self, "time_grid", read_only(self.time_grid))
        check_time_grid(self.time_grid)
        object.__setattr__(self, "spec", self.spec or ObservationSpec())
        shape = self.values.shape
        n_cols = self.spec.indices.size if self.spec.kind == "node-subset" else None
        if len(shape) != 2 or shape[0] != self.time_grid.size or n_cols not in (None, shape[1]):
            raise ObservationError(f"data values have shape {shape}, expected "
                                   f"({self.time_grid.size}, {n_cols or 'observed DOFs'})")
        if not np.all(np.isfinite(self.values)):
            raise ObservationError("data values contain non-finite entries")


def trapezoid_weights(time_grid):
    """Composite trapezoid weights for uniform time nodes (at least two)."""
    tg = np.asarray(time_grid, dtype=float)
    if tg.size < 2:
        raise ResolutionError(f"trapezoid weights need at least two time nodes, got {tg.size}")
    dt = tg[1] - tg[0]
    w = np.full(tg.size, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def forward_map(disc, point, f, u0=None, u1=None, *, like=None):
    """Evaluate the forward operator at a parameter point.

    Assembles the operator timeline (validating the fields' shapes and
    admissibility) and runs the midpoint solver; it checks no compatibility
    condition (``compatibility_check(f, u0, u1, k).require()`` does).  The
    trajectory's ``solve`` keeps the timeline, with the point, and the
    factorizations for reuse.

    ``like`` is a forward solve on the same mesh and time grid, typically at
    a point that differs from ``point`` only on a time window.  The solve
    then resumes from it (see :func:`~.evolve.solve_forward`): the output is
    the same bit for bit as without ``like``, but the steps before the first
    change are copied and only the step and C rows that differ from
    ``like``'s are factorized.  A ``like`` on another mesh or time grid, or
    without a solve record, raises RequiresForwardSolveError.
    """
    return solve_forward(assemble_operators(disc, point), f, u0=u0, u1=u1, like=like)


def _observation(trajectory, spec):
    """The spec, shape and time grid of ``observe(trajectory, spec)``, without its values;
    raises ObservationError for subset indices past the trajectory's free DOFs."""
    n_time, n_free = trajectory.u.shape
    if spec.kind == "full-field":
        return spec, (n_time, n_free), trajectory.time_grid
    if np.any(spec.indices >= n_free):
        raise ObservationError(f"observation indices out of range for {n_free} free DOFs")
    return spec, (n_time, spec.indices.size), trajectory.time_grid


def observe(trajectory, spec=None):
    """Extract the observed data from a trajectory."""
    spec, _, time_grid = _observation(trajectory, spec or ObservationSpec())
    u = trajectory.u if spec.kind == "full-field" else trajectory.u[:, spec.indices]
    return DataVector(u, time_grid, spec)


def _check_pair(d, spec, shape, time_grid):
    """Raise ObservationError unless the data ``d`` have the spec, shape and time grid
    of the other side: another data vector, or an :func:`_observation`."""
    if not d.spec.matches(spec):
        raise ObservationError("data vectors carry different observation specs")
    if d.values.shape != shape:
        raise ObservationError(f"data shapes differ: {d.values.shape} vs {shape}")
    if not np.array_equal(d.time_grid, time_grid):
        raise ObservationError("data vectors are sampled on different time grids")


def data_inner(d1, d2, disc):
    """Discrete in-time L2 inner product of two data vectors.

    Full-field data pair through the mass matrix; node subsets through their
    diagonal weights.  Time integration is trapezoidal.
    """
    _check_pair(d1, d2.spec, d2.values.shape, d2.time_grid)
    w = trapezoid_weights(d1.time_grid)
    if d1.spec.kind == "full-field":
        pair = np.einsum("ni,ni->n", d1.values, (disc.M @ d2.values.T).T)
    else:
        pair = np.einsum("ni,ni->n", d1.values, d2.values * d1.spec.weights)
    return float(w @ pair)


def data_load(v, trajectory):
    """Load form of u -> <observe(u, v.spec), v> per time node, without time weights.

    ``trajectory`` is a forward solve, whose mesh gives the mass matrix
    (RequiresForwardSolveError without a solve record).  Raises ObservationError unless
    ``v`` pairs with its own observation (spec, shape, time grid, indices inside the mesh).
    """
    if trajectory.solve is None:
        raise RequiresForwardSolveError("the load needs a forward solve; call forward_map first")
    _check_pair(v, *_observation(trajectory, v.spec))
    if v.spec.kind == "full-field":
        return (trajectory.solve.timeline.disc.M @ v.values.T).T
    load = np.zeros(trajectory.u.shape)
    np.add.at(load, (slice(None), v.spec.indices), v.values * v.spec.weights)
    return load


def data_norm(d, disc):
    return float(np.sqrt(max(data_inner(d, d, disc), 0.0)))


def data_difference(d1, d2):
    """The data vector d1 - d2; raises ObservationError unless their specs,
    shapes and time grids agree, so a mismatch never broadcasts."""
    _check_pair(d1, d2.spec, d2.values.shape, d2.time_grid)
    return DataVector(d1.values - d2.values, d1.time_grid, d1.spec)


def data_distance(d1, d2, disc):
    """Distance in the trapezoidal, mass-weighted data inner product."""
    return data_norm(data_difference(d1, d2), disc)
