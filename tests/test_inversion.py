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
    data_difference,
    data_distance,
    data_norm,
    forward_map,
    observe,
)
from waveinv.inversion import InversionConfig, add_noise, cgne, landweber
from waveinv.sensitivity import adjoint_apply_discrete, nodal_gradient

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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": np.nan},
        {"noise_level": np.nan},
        {"step_size": np.nan},
        {"step_size": np.inf},
        {"tau": np.inf},
        {"max_iterations": 2.5},
        {"outer_iterations": 1.5},
        {"divergence_patience": 0},
        {"divergence_patience": -3},
        {"divergence_patience": 2.0},
        {"targets": "q"},
        {"targets": "rho"},
        {"targets": ()},
    ],
    ids=repr,
)
def test_config_rejects_values_that_went_wrong_later(kwargs):
    # each would go wrong later: outer_iterations=1.5 dies in range() with a bare
    # TypeError, and tau=nan never meets its threshold, so Landweber runs to max_iterations;
    # a string of targets is read letter by letter ("q" works by accident, "rho" names
    # unknown fields 'r', 'h' and 'o'), and no targets at all make CGNE stop at the start
    # point on a "zero-gradient"
    (name,) = kwargs
    with pytest.raises(InversionConfigError, match=name):
        InversionConfig(**kwargs)


def test_config_takes_numpy_counts():
    cfg = InversionConfig(max_iterations=np.int64(3), divergence_patience=10**6)
    assert (cfg.max_iterations, cfg.divergence_patience) == (3, 10**6)


def test_unknown_target_rejected(instance):
    disc, tg, truth, x0, f, clean = instance
    cfg = InversionConfig(targets=("zeta",), max_iterations=1)
    with pytest.raises(InversionConfigError, match="zeta"):
        landweber(disc, x0, clean, f, cfg)


@pytest.mark.parametrize(("method", "other"), [(landweber, "cgne"), (cgne, "landweber")])
def test_a_config_for_the_other_method_is_rejected(instance, method, other):
    disc, tg, truth, x0, f, clean = instance
    with pytest.raises(InversionConfigError, match=f"{method.__name__} .*'{other}'"):
        method(disc, x0, clean, f, InversionConfig(method=other, max_iterations=1))


@pytest.mark.parametrize("method", [landweber, cgne])
def test_data_of_another_shape_is_rejected(instance, method):
    disc, tg, truth, x0, f, clean = instance
    one_column = wi.DataVector(clean.values[:, :1], tg)  # full-field data has n_free columns
    cfg = InversionConfig(method=method.__name__, step_size=1.0, max_iterations=2, targets=("q",))
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


def test_landweber_solves_once_per_residual(instance, monkeypatch):
    # the automatic step size is estimated on the first iterate's forward solve
    disc, tg, truth, x0, f, clean = instance
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return forward_map(*args, **kwargs)

    monkeypatch.setattr(inversion, "forward_map", counted)
    history, _ = landweber(disc, x0, clean, f, InversionConfig(step_size=None, max_iterations=4))
    assert len(history.residuals) == 5
    assert len(solves) == len(history.residuals)


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
    cfg = InversionConfig(max_iterations=3, targets=("q",))
    history, final = landweber(disc, x0, clean, f, cfg)
    for name in ("a", "b", "rho"):
        assert np.array_equal(final.fields[name].values, x0.fields[name].values)
    assert not np.array_equal(final.fields["q"].values, x0.fields["q"].values)


@pytest.mark.parametrize("targets", [("q",), ("a", "rho"), ("a", "b", "q", "rho")])
def test_gradient_is_computed_for_the_targets_only(instance, targets, monkeypatch):
    # the iterations' gradient is the targets' part of the public adjoint's
    # nodal gradient, bit for bit, and no other field's densities are made
    disc, tg, truth, x0, f, clean = instance
    base = forward_map(disc, x0, f)
    resid = data_difference(observe(base, None), clean)
    full = nodal_gradient(adjoint_apply_discrete(disc, x0, resid, base))
    assert sorted(full) == sorted(wi.FIELD_NAMES["wave1d"])
    densities = []
    for kit in disc.kits.values():
        fn = kit.element_bilinear_many
        monkeypatch.setattr(
            kit, "element_bilinear_many", lambda *pair, fn=fn: densities.append(1) or fn(*pair)
        )
    got = inversion._restricted_gradient(resid, base, targets)
    assert list(got) == list(targets)
    assert len(densities) == len(targets)  # one form term per field on wave1d
    for name in targets:
        assert np.array_equal(got[name], full[name])


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
        return wi.Trajectory(zeros, zeros.copy(), zeros.copy(), base.time_grid, disc)

    monkeypatch.setattr(inversion, "derivative_apply", vanishing)
    cfg = InversionConfig(method="cgne", max_iterations=5)
    with pytest.raises(
        CGBreakdownError,
        match=r"search direction has zero curvature \(J p = 0\); "
        "the linearized system is exhausted",
    ):
        cgne(disc, x0, clean, f, cfg)


@pytest.fixture(scope="module")
def at_rest():
    """A zero source: the base trajectory and its linearization vanish, so
    nonzero data leave a residual that no update can reduce."""
    disc = wi.build_grid("wave1d", 8)
    tg = np.linspace(0.0, 1.0, 161)
    x0 = wi.ParameterPoint.from_constants("wave1d", tg, disc.n_nodes, a=1.0, b=0.3, q=0.6, rho=1.0)
    f = wi.SourceTerm.zero(disc, tg)
    data = wi.DataVector(np.ones((tg.size, disc.n_free)), tg)
    return disc, x0, data, f


def test_landweber_automatic_step_size_fails_on_a_vanishing_linearization(at_rest):
    disc, x0, data, f = at_rest
    with pytest.raises(
        StepSizeError,
        match="automatic step size failed: the linearization vanishes on the targets",
    ):
        landweber(disc, x0, data, f, InversionConfig(step_size=None))


def test_cgne_stops_on_a_zero_gradient(at_rest):
    disc, x0, data, f = at_rest
    history, final = cgne(disc, x0, data, f, InversionConfig(method="cgne"))
    assert history.stopping_reason == "zero-gradient"
    assert history.n_iterations == 0
    assert history.residuals[0] > 0
    for name, field in final.fields.items():
        assert np.array_equal(field.values, x0.fields[name].values), name


def test_cgne_outer_restarts(instance):
    disc, tg, truth, x0, f, clean = instance
    cfg = InversionConfig(method="cgne", max_iterations=4, outer_iterations=2)
    history, final = cgne(disc, x0, clean, f, cfg)
    assert history.outer_starts == [0, 5]
    assert len(history.residuals) == 10
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
    # the data are read-only, so level 0 returns them as they are
    same = add_noise(clean, 0.0, 7, disc)
    assert same is clean
    with pytest.raises(ValueError, match="read-only"):
        same.values[0, 0] = 1.0


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
