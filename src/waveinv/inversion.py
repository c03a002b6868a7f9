"""Iterative regularized reconstruction from trajectory data.

Projected Landweber iteration and conjugate gradients on the normal
equations (CGNE) of the linearized map, both driven by the exact discrete
adjoint and stopped by the discrepancy principle.  Parameter iterates live
on the nodal grid; gradients enter through their nodal representatives
(see ``sensitivity.nodal_gradient``), so every update direction is a true
descent direction in the weighted nodal inner product and every iterate is
clipped back into the admissible box.

Noise levels are absolute: ``noise_level`` is the data-norm distance between
the supplied data and the unknown clean data, and iteration stops once the
residual falls below ``tau * noise_level``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CGBreakdownError, InversionConfigError, StepSizeError
from .forward import DataVector, data_difference, data_norm, forward_map, observe, trapezoid_weights
from .galerkin import FIELD_NAMES, project_point
from .sensitivity import adjoint_apply_discrete, derivative_apply, nodal_gradient


@dataclass
class InversionConfig:
    """Method selection and stopping/step-size controls for reconstruction."""

    method: str = "landweber"
    step_size: float | None = None
    tau: float = 1.5
    noise_level: float = 0.0
    max_iterations: int = 100
    targets: tuple | None = None
    outer_iterations: int = 1
    divergence_patience: int = 5
    store_points: bool = False

    def __post_init__(self):
        if self.method not in ("landweber", "cgne"):
            raise InversionConfigError(
                f"method must be 'landweber' or 'cgne', got {self.method!r}"
            )
        if self.tau <= 1.0:
            raise InversionConfigError(f"discrepancy factor tau must exceed 1, got {self.tau}")
        if self.step_size is not None and self.step_size <= 0.0:
            raise InversionConfigError(f"step size must be positive, got {self.step_size}")
        if self.noise_level < 0.0:
            raise InversionConfigError(f"noise level must be nonnegative, got {self.noise_level}")
        if self.max_iterations < 0:
            raise InversionConfigError("max_iterations must be nonnegative")
        if self.outer_iterations < 1:
            raise InversionConfigError("outer_iterations must be at least 1")


@dataclass
class IterateHistory:
    """Per-iteration record of one inversion run."""

    residuals: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    stopping_reason: str = ""
    n_iterations: int = 0
    step_size: float | None = None
    points: list = field(default_factory=list)
    outer_starts: list = field(default_factory=list)
    final_point: object = None


def _active_targets(problem, config):
    names = FIELD_NAMES[problem]
    if config.targets is None:
        return tuple(names)
    unknown = set(config.targets) - set(names)
    if unknown:
        raise InversionConfigError(f"unknown inversion targets {sorted(unknown)} for '{problem}'")
    return tuple(n for n in names if n in config.targets)


def _nodal_inner(disc, g1, g2, time_grid):
    w = trapezoid_weights(time_grid)
    total = 0.0
    for name, a in g1.items():
        b = g2[name]
        total += float(
            np.einsum("n,ni,i->", w, a * b, disc.lumped_node_measure)
        )
    return total


def _nodal_norm(disc, g, time_grid):
    return float(np.sqrt(max(_nodal_inner(disc, g, g, time_grid), 0.0)))


def _restricted_gradient(disc, point, resid, base, targets):
    grad = nodal_gradient(disc, adjoint_apply_discrete(disc, point, resid, base))
    return {name: grad[name] for name in targets}


def _estimate_step_size(disc, point, f, targets, u0, u1, spec=None, iterations=6):
    """1 / (largest eigenvalue of J* J) in the nodal metric, by power iteration.

    The eigenvalue is taken in the same (data, nodal) metric pair the
    iteration itself uses, so the observation spec of the data must be
    supplied when it is not full-field.
    """
    base = forward_map(disc, point, f, u0=u0, u1=u1)
    tg = point.time_grid
    h = {name: np.ones((tg.size, disc.n_nodes)) for name in targets}
    h_norm = _nodal_norm(disc, h, tg)
    for name in h:
        h[name] = h[name] / h_norm
    lam = 0.0
    for _ in range(iterations):
        jh = observe(derivative_apply(disc, point, h, base), spec)
        jh_norm = data_norm(jh, disc)
        if jh_norm == 0.0:
            break
        lam = jh_norm**2
        g = _restricted_gradient(disc, point, jh, base, targets)
        g_norm = _nodal_norm(disc, g, tg)
        if g_norm == 0.0:
            break
        for name in g:
            h[name] = g[name] / g_norm
    if lam == 0.0:
        raise StepSizeError(
            "automatic step size failed: the linearization vanishes on the targets"
        )
    return 0.9 / lam


def landweber(disc, x0, data, f, config, u0=None, u1=None):
    """Projected Landweber iteration with discrepancy stopping.

    Updates x <- clip(x - omega * grad) with the nodal gradient of the
    squared data misfit; omega is taken from the config or estimated as
    0.9 over the largest linearization eigenvalue at the starting point.
    Raises a step-size error if the residual grows for
    ``divergence_patience`` consecutive iterations.
    """
    targets = _active_targets(disc.problem, config)
    history = IterateHistory()
    omega = config.step_size
    if omega is None:
        omega = _estimate_step_size(disc, x0, f, targets, u0, u1, spec=data.spec)
    history.step_size = omega
    threshold = config.tau * config.noise_level

    x = x0.copy()
    tg = x.time_grid
    growth = 0
    while True:
        traj = forward_map(disc, x, f, u0=u0, u1=u1)
        out = observe(traj, data.spec)
        resid = data_difference(out, data)
        res_norm = data_norm(resid, disc)
        history.residuals.append(res_norm)
        if config.store_points:
            history.points.append(x.copy())
        if res_norm <= threshold:
            history.stopping_reason = "discrepancy"
            break
        if len(history.residuals) > config.max_iterations:
            history.stopping_reason = "max-iterations"
            break
        if len(history.residuals) >= 2 and res_norm > history.residuals[-2]:
            growth += 1
            if growth >= config.divergence_patience:
                history.stopping_reason = "divergence"
                raise StepSizeError(
                    f"residual grew for {growth} consecutive iterations "
                    f"(step size {omega:.3g} too large)",
                    history=history,
                )
        else:
            growth = 0
        grad = _restricted_gradient(disc, x, resid, traj, targets)
        history.gradient_norms.append(_nodal_norm(disc, grad, tg))
        for name in targets:
            x.fields[name].values = x.fields[name].values - omega * grad[name]
        x = project_point(x)

    history.n_iterations = len(history.residuals) - 1
    history.final_point = x
    return history, x


def cgne(disc, x0, data, f, config, u0=None, u1=None):
    """Conjugate gradients on the normal equations of the linearization.

    Each outer pass linearizes the forward map at the current point and runs
    CGLS on  J h = data - F(x)  in the (data, nodal) inner products, where
    the adjoint is exact; the inner residual therefore decreases
    monotonically.  The accumulated correction is clipped into the
    admissible box before any re-linearization.
    """
    targets = _active_targets(disc.problem, config)
    history = IterateHistory()
    threshold = config.tau * config.noise_level
    x = x0.copy()
    tg = x.time_grid

    for outer in range(config.outer_iterations):
        history.outer_starts.append(len(history.residuals))
        base = forward_map(disc, x, f, u0=u0, u1=u1)
        out = observe(base, data.spec)
        rhs = data_difference(data, out)
        h = {name: np.zeros((tg.size, disc.n_nodes)) for name in targets}
        r = rhs
        s = _restricted_gradient(disc, x, r, base, targets)
        gamma = _nodal_inner(disc, s, s, tg)
        p = {name: g.copy() for name, g in s.items()}
        stopped = ""
        while True:
            res_norm = data_norm(r, disc)
            history.residuals.append(res_norm)
            history.gradient_norms.append(float(np.sqrt(max(gamma, 0.0))))
            if res_norm <= threshold:
                stopped = "discrepancy"
                break
            if len(history.residuals) - history.outer_starts[-1] > config.max_iterations:
                stopped = "max-iterations"
                break
            if gamma == 0.0:
                stopped = "zero-gradient"
                break
            jp = observe(derivative_apply(disc, x, p, base), data.spec)
            curvature = data_norm(jp, disc) ** 2
            if curvature == 0.0:
                raise CGBreakdownError(
                    "search direction has zero curvature (J p = 0); "
                    "the linearized system is exhausted"
                )
            alpha = gamma / curvature
            for name in targets:
                h[name] += alpha * p[name]
            r = DataVector(r.values - alpha * jp.values, r.time_grid, r.spec)
            s_new = _restricted_gradient(disc, x, r, base, targets)
            gamma_new = _nodal_inner(disc, s_new, s_new, tg)
            beta = gamma_new / gamma
            p = {name: s_new[name] + beta * p[name] for name in targets}
            gamma = gamma_new
        history.stopping_reason = stopped
        for name in targets:
            x.fields[name].values = x.fields[name].values + h[name]
        x = project_point(x)
        if config.store_points:
            history.points.append(x.copy())
        if stopped in ("discrepancy", "zero-gradient"):
            break

    history.n_iterations = len(history.residuals) - len(history.outer_starts)
    history.final_point = x
    return history, x


def add_noise(data, level, seed, disc):
    """Gaussian data perturbation with exact relative size in the data norm.

    The perturbation is scaled after sampling so that
    data_distance(noisy, clean) = level * data_norm(clean); the draw is
    reproducible from the seed.
    """
    if level < 0.0:
        raise InversionConfigError(f"noise level must be nonnegative, got {level}")
    if level == 0.0:
        return data.copy()
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal(data.values.shape)
    draw_norm = data_norm(DataVector(draw, data.time_grid, data.spec), disc)
    scale = level * data_norm(data, disc) / draw_norm
    return DataVector(data.values + scale * draw, data.time_grid, data.spec)
