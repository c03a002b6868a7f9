"""The nonlinear forward operator: coefficients -> (observed) trajectory.

Composes operator assembly with the midpoint solver and provides the data
space: observation extraction, the trapezoidal/mass-weighted inner product,
and distances.  A forward solve returns its trajectory with the solve record
(:class:`~.evolve.SolveRecord`: the timeline, which holds a copy of the
point's field values, and the factorizations) as ``solve``, so derivative and
adjoint sweeps at that point can reuse it.  Two data vectors are compared or
subtracted only once their observation specs and shapes agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompatibilityError, ObservationError
from .evolve import compatibility_check, solve_forward
from .galerkin import assemble_operators, check_time_grid


@dataclass
class ObservationSpec:
    """What part of the state is recorded.

    ``full-field`` observes every free DOF and pairs data with the mass
    matrix; ``node-subset`` records the listed free-DOF columns and pairs them
    with positive per-DOF weights (defaulting to one).
    """

    kind: str = "full-field"
    indices: np.ndarray | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("full-field", "node-subset"):
            raise ObservationError(f"unknown observation kind '{self.kind}'")
        if self.kind == "node-subset":
            if self.indices is None:
                raise ObservationError("node-subset observation needs indices")
            self.indices = np.asarray(self.indices, dtype=np.int64)
            if self.weights is None:
                self.weights = np.ones(self.indices.size)
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.indices.shape:
                raise ObservationError("weights must match indices")
            if np.any(self.weights <= 0):
                raise ObservationError("observation weights must be positive")

    def matches(self, other):
        if self.kind != other.kind:
            return False
        if self.kind == "node-subset":
            return np.array_equal(self.indices, other.indices) and np.array_equal(
                self.weights, other.weights
            )
        return True


@dataclass
class DataVector:
    """Observed samples (time node x observed DOF) with their pairing spec."""

    values: np.ndarray
    time_grid: np.ndarray
    spec: ObservationSpec = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        check_time_grid(self.time_grid)
        if self.spec is None:
            self.spec = ObservationSpec()

    def copy(self):
        return DataVector(self.values.copy(), self.time_grid, self.spec)


def trapezoid_weights(time_grid):
    """Composite trapezoid quadrature weights for uniform time nodes."""
    tg = np.asarray(time_grid, dtype=float)
    dt = tg[1] - tg[0]
    w = np.full(tg.size, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def forward_map(disc, point, f, u0=None, u1=None, k=None):
    """Evaluate the forward operator at a parameter point.

    Optionally enforces the compatibility conditions at smoothness level
    ``k`` (skipped when ``k`` is None; experiment configurations own the
    default), assembles the operator timeline (validating admissibility) and
    runs the midpoint solver.  The trajectory's ``solve`` keeps the timeline,
    with its copy of the field values of ``point``, and the factorizations
    for reuse.
    """
    if k is not None:
        report = compatibility_check(f, u0, u1, k)
        if not report.passed:
            fails = ", ".join(
                f"{c['name']} (value {c['value']:.3e} > tol {c['tol']:.3e})"
                for c in report.failures()
            )
            raise CompatibilityError(
                f"data fail the smoothness-{k} compatibility conditions: {fails}"
            )
    return solve_forward(assemble_operators(disc, point), f, u0=u0, u1=u1)


def observe(trajectory, spec=None):
    """Extract the observed data from a trajectory."""
    spec = spec or ObservationSpec()
    if spec.kind == "full-field":
        vals = trajectory.u.copy()
    else:
        n_free = trajectory.u.shape[1]
        if np.any(spec.indices < 0) or np.any(spec.indices >= n_free):
            raise ObservationError(
                f"observation indices out of range for {n_free} free DOFs"
            )
        vals = trajectory.u[:, spec.indices].copy()
    return DataVector(vals, trajectory.time_grid, spec)


def _check_pair(d1, d2):
    """Raise ObservationError unless two data vectors share spec and shape."""
    if not d1.spec.matches(d2.spec):
        raise ObservationError("data vectors carry different observation specs")
    if d1.values.shape != d2.values.shape:
        raise ObservationError(
            f"data shapes differ: {d1.values.shape} vs {d2.values.shape}"
        )


def data_inner(d1, d2, disc):
    """Discrete in-time L2 inner product of two data vectors.

    Full-field data pair through the mass matrix; node subsets through their
    diagonal weights.  Time integration is trapezoidal.
    """
    _check_pair(d1, d2)
    w = trapezoid_weights(d1.time_grid)
    if d1.spec.kind == "full-field":
        pair = np.einsum("ni,ni->n", d1.values, (disc.M @ d2.values.T).T)
    else:
        pair = np.einsum("ni,ni->n", d1.values, d2.values * d1.spec.weights)
    return float(w @ pair)


def data_norm(d, disc):
    return float(np.sqrt(max(data_inner(d, d, disc), 0.0)))


def data_difference(d1, d2):
    """The data vector d1 - d2; raises ObservationError unless their specs
    and shapes agree, so a mismatch never broadcasts."""
    _check_pair(d1, d2)
    return DataVector(d1.values - d2.values, d1.time_grid, d1.spec)


def data_distance(d1, d2, disc):
    """Distance in the trapezoidal, mass-weighted data inner product."""
    return data_norm(data_difference(d1, d2), disc)
