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

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import CGBreakdownError, InversionConfigError, StepSizeError
from .forward import DataVector, data_difference, data_norm, forward_map, observe, trapezoid_weights
from .galerkin import FIELD_NAMES, project_point
from .sensitivity import _discrete_gradient, derivative_apply, nodal_gradient

#: power iterations behind the automatic Landweber step size
POWER_ITERATIONS = 6


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

    def __post_init__(self):
        if self.method not in ("landweber", "cgne"):
            raise InversionConfigError(
                f"method must be 'landweber' or 'cgne', got {self.method!r}"
            )
        for name, value in (("tau", self.tau), ("noise_level", self.noise_level),
                            ("step_size", self.step_size)):
            if value is not None and not np.isfinite(value):
                raise InversionConfigError(f"{name} must be finite, got {value}")
        if self.tau <= 1.0:
            raise InversionConfigError(f"discrepancy factor tau must exceed 1, got {self.tau}")
        if self.step_size is not None and self.step_size <= 0.0:
            raise InversionConfigError(f"step size must be positive, got {self.step_size}")
        if self.noise_level < 0.0:
            raise InversionConfigError(f"noise level must be nonnegative, got {self.noise_level}")
        if self.targets is not None and (isinstance(self.targets, str) or not len(self.targets)):
            raise InversionConfigError(f"targets must list field names, got {self.targets!r}")
        counts = {"max_iterations": 0, "outer_iterations": 1, "divergence_patience": 1}
        for name, least in counts.items():
            count = getattr(self, name)
            if not isinstance(count, numbers.Integral) or count < least:
                raise InversionConfigError(f"{name} must be an integer >= {least}, got {count!r}")


@dataclass
class IterateHistory:
    """Per-iteration record of one inversion run."""

    residuals: list = field(default_factory=list)
    gradient_norms: list = field(default_factory=list)
    stopping_reason: str = ""
    n_iterations: int = 0
    step_size: float | None = None
    outer_starts: list = field(default_factory=list)


def _active_targets(problem, config, method):
    if config.method != method:
        raise InversionConfigError(f"{method} was given a config for method {config.method!r}")
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


def _restricted_gradient(resid, base, targets):
    """The nodal gradient of the data misfit ``resid`` at the forward solve
    ``base``, of the ``targets`` only: no other field's densities are computed."""
    tl = base.solve.timeline
    return nodal_gradient(_discrete_gradient(tl.disc, tl.point, resid, base, targets))


def _estimate_step_size(base, targets, spec):
    """0.9 / (largest eigenvalue of J* J) in the nodal metric, by power iteration.

    The eigenvalue is taken at the forward solve ``base``, in the (data,
    nodal) metric pair the iteration uses, with the data's ``spec``.
    """
    disc, point = base.solve.timeline.disc, base.solve.timeline.point
    tg = point.time_grid
    h = {name: np.ones((tg.size, disc.n_nodes)) for name in targets}
    h_norm = _nodal_norm(disc, h, tg)
    for name in h:
        h[name] = h[name] / h_norm
    lam = 0.0
    for _ in range(POWER_ITERATIONS):
        jh = observe(derivative_apply(disc, point, h, base), spec)
        jh_norm = data_norm(jh, disc)
        if jh_norm == 0.0:
            break
        lam = jh_norm**2
        g = _restricted_gradient(jh, base, targets)
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


def landweber(disc, x0, data, f, config):
    """Projected Landweber iteration with discrepancy stopping.

    Updates x <- clip(x - omega * grad) with the nodal gradient of the
    squared data misfit; omega is taken from the config or estimated as
    0.9 over the largest linearization eigenvalue at the starting point, on
    the forward solve of the first iteration.  Raises a step-size error if
    the residual grows for ``divergence_patience`` consecutive iterations.
    ``config.method`` must be "landweber".
    """
    targets = _active_targets(disc.problem, config, "landweber")
    history = IterateHistory()
    omega = history.step_size = config.step_size
    threshold = config.tau * config.noise_level

    x = x0.copy()
    tg = x.time_grid
    growth = 0
    while True:
        traj = forward_map(disc, x, f)
        if omega is None:
            omega = history.step_size = _estimate_step_size(traj, targets, data.spec)
        out = observe(traj, data.spec)
        resid = data_difference(out, data)
        res_norm = data_norm(resid, disc)
        history.residuals.append(res_norm)
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
        grad = _restricted_gradient(resid, traj, targets)
        history.gradient_norms.append(_nodal_norm(disc, grad, tg))
        for name in targets:
            x.fields[name].values = x.fields[name].values - omega * grad[name]
        x = project_point(x)

    history.n_iterations = len(history.residuals) - 1
    return history, x


def cgne(disc, x0, data, f, config):
    """Conjugate gradients on the normal equations of the linearization.

    Each outer pass linearizes the forward map at the current point and runs
    CGLS on  J h = data - F(x)  in the (data, nodal) inner products, where
    the adjoint is exact; the inner residual therefore decreases
    monotonically.  The accumulated correction is clipped into the
    admissible box before any re-linearization.  ``config.method`` must be "cgne".
    """
    targets = _active_targets(disc.problem, config, "cgne")
    history = IterateHistory()
    threshold = config.tau * config.noise_level
    x = x0.copy()
    tg = x.time_grid

    for outer in range(config.outer_iterations):
        history.outer_starts.append(len(history.residuals))
        base = forward_map(disc, x, f)
        out = observe(base, data.spec)
        rhs = data_difference(data, out)
        h = {name: np.zeros((tg.size, disc.n_nodes)) for name in targets}
        r = rhs
        s = _restricted_gradient(r, base, targets)
        gamma = _nodal_inner(disc, s, s, tg)
        p = s
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
            s_new = _restricted_gradient(r, base, targets)
            gamma_new = _nodal_inner(disc, s_new, s_new, tg)
            beta = gamma_new / gamma
            p = {name: s_new[name] + beta * p[name] for name in targets}
            gamma = gamma_new
        history.stopping_reason = stopped
        for name in targets:
            x.fields[name].values = x.fields[name].values + h[name]
        x = project_point(x)
        if stopped in ("discrepancy", "zero-gradient"):
            break

    history.n_iterations = len(history.residuals) - len(history.outer_starts)
    return history, x


def add_noise(data, level, seed, disc):
    """Gaussian data perturbation with exact relative size in the data norm.

    The perturbation is scaled after sampling so that
    data_distance(noisy, clean) = level * data_norm(clean); the draw is
    reproducible from the seed.  At level 0 the data come back as they are.
    """
    if not (np.isfinite(level) and level >= 0.0):
        raise InversionConfigError(f"noise level must be finite and nonnegative, got {level}")
    if level == 0.0:
        return data
    rng = np.random.default_rng(seed)
    draw = rng.standard_normal(data.values.shape)
    draw_norm = data_norm(DataVector(draw, data.time_grid, data.spec), disc)
    scale = level * data_norm(data, disc) / draw_norm
    return DataVector(data.values + scale * draw, data.time_grid, data.spec)
