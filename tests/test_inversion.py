"""Projected Landweber and CGNE drivers, stopping rules, and noise synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waveinv as wi
from waveinv import inversion
from waveinv.errors import (
    CGBreakdownError,
    InversionConfigError,
    ObservationError,
    StepSizeError,
)
from waveinv.forward import (
    ObservationSpec,
    data_distance,
    data_norm,
    forward_map,
    observe,
)
from waveinv.inversion import InversionConfig, add_noise, cgne, landweber

from conftest import modal_source, varied_point


@pytest.fixture(scope="module")
def instance():
    """Small transmission problem with a wobbly truth and a constant start."""
    disc = wi.build_grid("wave1d", 12)
    tg = np.linspace(0.0, 1.0, 41)
    truth = varied_point(disc, tg, amplitude=0.15)
    x0 = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.3, q=0.6, rho=1.0
    )
    f = modal_source(disc, tg)
    clean = observe(forward_map(disc, truth, f), None)
    return disc, tg, truth, x0, f, clean


# ---------------------------------------------------------------------------
# configuration validation


def test_config_defaults_are_valid():
    cfg = InversionConfig()
    assert cfg.method == "landweber"
    assert cfg.step_size is None
    assert cfg.tau == 1.5
    assert cfg.targets is None


@pytest.mark.parametrize(
    "kwargs",
    [
        {"method": "steepest"},
        {"tau": 1.0},
        {"tau": 0.5},
        {"step_size": 0.0},
        {"step_size": -1.0},
        {"noise_level": -0.1},
        {"max_iterations": -1},
        {"outer_iterations": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(InversionConfigError):
        InversionConfig(**kwargs)
    # still a ValueError, for callers that catch those
    assert issubclass(InversionConfigError, ValueError)


def test_unknown_target_rejected(instance):
    disc, tg, truth, x0, f, clean = instance
    cfg = InversionConfig(targets=("zeta",), max_iterations=1)
    with pytest.raises(InversionConfigError, match="zeta"):
        landweber(disc, x0, clean, f, cfg)


@pytest.mark.parametrize("method", [landweber, cgne])
def test_data_of_another_shape_is_rejected(instance, method):
    disc, tg, truth, x0, f, clean = instance
    one_column = wi.DataVector(clean.values[:, :1], tg)  # full-field data has n_free columns
    cfg = InversionConfig(step_size=1.0, max_iterations=2, targets=("q",))
    with pytest.raises(ObservationError, match="data shapes differ"):
        method(disc, x0, one_column, f, cfg)


# ---------------------------------------------------------------------------
# Landweber iteration


def test_landweber_stops_immediately_on_exact_data(instance):
    disc, tg, truth, x0, f, clean = instance
    exact = observe(forward_map(disc, x0, f), None)
    history, final = landweber(
        disc, x0, exact, f, InversionConfig(max_iterations=10)
    )
    assert history.stopping_reason == "discrepancy"
    assert history.n_iterations == 0
    assert history.residuals == [0.0]
    for name in ("a", "b", "q", "rho"):
        assert np.array_equal(final.fields[name].values, x0.fields[name].values)


def test_landweber_noiseless_residuals_decrease(instance):
    disc, tg, truth, x0, f, clean = instance
    cfg = InversionConfig(max_iterations=8)
    history, final = landweber(disc, x0, clean, f, cfg)
    assert history.stopping_reason == "max-iterations"
    assert history.n_iterations == 8
    assert len(history.residuals) == 9
    assert len(history.gradient_norms) == 8
    assert np.all(np.diff(history.residuals) < 0)
    assert history.step_size is not None and history.step_size > 0
    assert history.final_point is final


def test_landweber_auto_step_respects_observation_metric(instance):
    # data seen through a node subset has larger per-sample weight, so the
    # largest linearization eigenvalue grows and the safe step must shrink;
    # estimating it in the full-field metric instead makes the run diverge
    disc, tg, truth, x0, f, clean = instance
    spec = ObservationSpec(kind="node-subset", indices=[3])
    subset_data = observe(forward_map(disc, truth, f), spec)
    history, final = landweber(
        disc, x0, subset_data, f, InversionConfig(max_iterations=6)
    )
    assert np.all(np.isfinite(history.residuals))
    assert np.all(np.diff(history.residuals) < 0)
    full_history, _ = landweber(
        disc, x0, clean, f, InversionConfig(max_iterations=0)
    )
    assert history.step_size < full_history.step_size


def test_landweber_divergence_raises_with_history(instance):
    disc, tg, truth, x0, f, clean = instance
    cfg = InversionConfig(step_size=2e4, max_iterations=50)
    with pytest.raises(StepSizeError, match="too large") as info:
        landweber(disc, x0, clean, f, cfg)
    history = info.value.history
    assert history.stopping_reason == "divergence"
    assert len(history.residuals) >= 3
    assert history.residuals[-1] > history.residuals[0]


def test_landweber_updates_only_requested_targets(instance):
    disc, tg, truth, x0, f, clean = instance
    cfg = InversionConfig(max_iterations=3, targets=("q",), store_points=True)
    history, final = landweber(disc, x0, clean, f, cfg)
    for name in ("a", "b", "rho"):
        assert np.array_equal(final.fields[name].values, x0.fields[name].values)
    assert not np.array_equal(final.fields["q"].values, x0.fields["q"].values)
    assert len(history.points) == len(history.residuals)


def test_landweber_noisy_discrepancy_stop(instance):
    disc, tg, truth, x0, f, clean = instance
    noisy = add_noise(clean, 0.01, 3, disc)
    delta = 0.01 * data_norm(clean, disc)
    cfg = InversionConfig(max_iterations=30, noise_level=delta, tau=1.5)
    history, final = landweber(disc, x0, noisy, f, cfg)
    assert history.stopping_reason == "discrepancy"
    assert 1 <= history.n_iterations <= 29
    assert history.residuals[-1] <= 1.5 * delta


# ---------------------------------------------------------------------------
# conjugate gradients on the normal equations


def test_cgne_stops_immediately_on_exact_data(instance):
    disc, tg, truth, x0, f, clean = instance
    exact = observe(forward_map(disc, x0, f), None)
    cfg = InversionConfig(method="cgne", max_iterations=10)
    history, final = cgne(disc, x0, exact, f, cfg)
    assert history.stopping_reason == "discrepancy"
    assert history.n_iterations == 0
    for name in ("a", "b", "q", "rho"):
        assert np.array_equal(final.fields[name].values, x0.fields[name].values)


def test_cgne_inner_residuals_decrease(instance):
    disc, tg, truth, x0, f, clean = instance
    cfg = InversionConfig(method="cgne", max_iterations=10)
    history, final = cgne(disc, x0, clean, f, cfg)
    assert history.stopping_reason == "max-iterations"
    assert np.all(np.diff(history.residuals) < 0)
    assert len(history.gradient_norms) == len(history.residuals)


def test_cgne_outpaces_landweber(instance):
    # same exact adjoint, same metrics: conjugate directions should reach the
    # gradient method's final residual within a handful of inner steps
    disc, tg, truth, x0, f, clean = instance
    lw_hist, lw_final = landweber(
        disc, x0, clean, f, InversionConfig(max_iterations=15)
    )
    cg_hist, cg_final = cgne(
        disc, x0, clean, f, InversionConfig(method="cgne", max_iterations=15)
    )
    assert cg_hist.residuals[0] == pytest.approx(lw_hist.residuals[0], rel=1e-12)
    assert cg_hist.residuals[5] < lw_hist.residuals[-1]

    def true_misfit(point):
        out = observe(forward_map(disc, point, f), None)
        return data_norm(
            wi.DataVector(out.values - clean.values, tg, clean.spec), disc
        )

    assert true_misfit(cg_final) < true_misfit(lw_final)


def test_cgne_zero_curvature_is_a_breakdown(instance, monkeypatch):
    # a derivative that maps the (nonzero) first search direction to zero
    disc, tg, truth, x0, f, clean = instance

    def vanishing(disc, point, direction, base):
        zeros = np.zeros_like(base.u)
        return wi.Trajectory(zeros, zeros.copy(), zeros.copy(), base.time_grid, base.dt)

    monkeypatch.setattr(inversion, "derivative_apply", vanishing)
    cfg = InversionConfig(method="cgne", max_iterations=5)
    with pytest.raises(
        CGBreakdownError,
        match=r"search direction has zero curvature \(J p = 0\); "
        "the linearized system is exhausted",
    ):
        cgne(disc, x0, clean, f, cfg)


def test_cgne_outer_restarts(instance):
    disc, tg, truth, x0, f, clean = instance
    cfg = InversionConfig(
        method="cgne", max_iterations=4, outer_iterations=2, store_points=True
    )
    history, final = cgne(disc, x0, clean, f, cfg)
    assert history.outer_starts == [0, 5]
    assert len(history.residuals) == 10
    assert len(history.points) == 2
    assert history.stopping_reason == "max-iterations"


# ---------------------------------------------------------------------------
# synthetic noise


def test_add_noise_exact_relative_size(instance):
    disc, tg, truth, x0, f, clean = instance
    noisy = add_noise(clean, 0.01, 7, disc)
    rel = data_distance(noisy, clean, disc) / data_norm(clean, disc)
    assert rel == pytest.approx(0.01, rel=1e-12)


def test_add_noise_reproducible_and_seed_sensitive(instance):
    disc, tg, truth, x0, f, clean = instance
    first = add_noise(clean, 0.02, 7, disc)
    second = add_noise(clean, 0.02, 7, disc)
    other = add_noise(clean, 0.02, 8, disc)
    assert np.array_equal(first.values, second.values)
    assert not np.array_equal(first.values, other.values)


def test_add_noise_zero_level_copies(instance):
    disc, tg, truth, x0, f, clean = instance
    copy = add_noise(clean, 0.0, 7, disc)
    assert np.array_equal(copy.values, clean.values)
    assert copy.values is not clean.values


def test_add_noise_rejects_negative_level(instance):
    disc, tg, truth, x0, f, clean = instance
    with pytest.raises(InversionConfigError, match="nonnegative"):
        add_noise(clean, -0.01, 7, disc)


@settings(max_examples=15, deadline=None)
@given(
    level=st.floats(1e-3, 0.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_add_noise_relative_size_property(instance, level, seed):
    disc, tg, truth, x0, f, clean = instance
    noisy = add_noise(clean, level, seed, disc)
    rel = data_distance(noisy, clean, disc) / data_norm(clean, disc)
    assert rel == pytest.approx(level, rel=1e-10)
