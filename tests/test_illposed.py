"""Bump families, rank-one sequences, and the instability experiments."""

import re

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import waveinv as wi
from waveinv import illposed
from waveinv.errors import (
    CompatibilityError,
    DirectionShapeError,
    RegularityError,
    ResolutionError,
    SlackError,
    SpectralError,
    TooLargeError,
)
from waveinv.forward import forward_map
from waveinv.illposed import (
    bump_sequence,
    illposed_experiment,
    mother_bump,
    rank_one_sequence,
    svd_probe,
)

from conftest import modal_source, varied_point


# ---------------------------------------------------------------------------
# mother bump against an independent symbolic oracle


@pytest.fixture(scope="module")
def symbolic_derivatives():
    t = sympy.Symbol("t")
    psi = sympy.exp(-1 / (1 - t**2))
    return [
        sympy.lambdify(t, sympy.diff(psi, t, i), "numpy") for i in range(4)
    ]


def test_mother_bump_matches_symbolic_derivatives(symbolic_derivatives):
    bump = mother_bump(3)
    tt = np.linspace(-0.95, 0.95, 401)
    for i, exact in enumerate(symbolic_derivatives):
        ours = bump.derivative(tt, i) * bump.scale
        assert np.abs(ours - exact(tt)).max() <= 1e-9 * max(
            1.0, np.abs(exact(tt)).max()
        ), i


def test_mother_bump_normalization(symbolic_derivatives):
    bump = mother_bump(3)
    # a grid finer than the normalization grid may see a marginally larger sup
    tt = np.linspace(-1.0, 1.0, 40001)
    sups = [np.abs(bump.derivative(tt, i)).max() for i in range(4)]
    assert max(sups) == pytest.approx(1.0, abs=1e-4)
    # the highest derivative dominates, so the certified constant is 0.8
    assert sups[3] == pytest.approx(1.0, abs=1e-4)
    assert bump.gamma == pytest.approx(0.8, abs=1e-9)


def test_mother_bump_compact_support():
    bump = mother_bump(2)
    outside = np.array([-5.0, -1.0, 1.0, 3.0])
    for i in range(3):
        assert np.all(bump.derivative(outside, i) == 0.0)
    assert bump(np.array(0.0)) > 0


# ---------------------------------------------------------------------------
# bump sequences


def test_bump_sequence_scaling_and_support():
    tg = np.linspace(0.0, 1.0, 513)
    seq = bump_sequence(3, 0.5, tg, [4, 8, 16])
    bump = seq.mother
    for j in (4, 8, 16):
        assert seq.profile(j, 0.5) == pytest.approx(float(j) ** (-3) * bump(np.array(0.0)))
        assert seq.profile(j, 0.5 + 1.01 / j) == 0.0
        assert seq.profile(j, 0.5 - 1.01 / j) == 0.0
        assert np.array_equal(seq.samples[j], None) is False


def test_bump_sequence_certified_norm_sandwich():
    tg = np.linspace(0.0, 1.0, 513)
    seq = bump_sequence(3, 0.5, tg, [4, 8, 16, 32, 64])
    norms = seq.certified_norms()
    scaled = seq.certified_norms(scale=0.1)
    for j, norm in norms.items():
        assert seq.gamma <= norm <= 1.05, j
        assert scaled[j] == pytest.approx(0.1 * norm, rel=1e-12), j


def test_bump_sequence_preconditions():
    tg = np.linspace(0.0, 1.0, 513)
    with pytest.raises(ResolutionError):
        bump_sequence(3, 1.5, tg, [4])  # center outside the interval
    with pytest.raises(ResolutionError):
        bump_sequence(3, 0.5, tg, [0])  # nonpositive index
    with pytest.raises(RegularityError):
        bump_sequence(-1, 0.5, tg, [4])  # negative smoothness order
    with pytest.raises(ResolutionError):
        bump_sequence(3, 0.5, np.linspace(0.0, 1.0, 33), [64])
    with pytest.raises(ResolutionError):
        bump_sequence(3, 0.9, tg, [4])  # the support [0.65, 1.15] passes the grid's end
    with pytest.raises(ResolutionError):
        bump_sequence(3, 0.5, np.array([]), [4])  # no grid to end


@settings(max_examples=20, deadline=None)
@given(
    j=st.sampled_from([4, 8, 16, 32]),
    offset=st.floats(-0.4, 0.4),
)
def test_bump_profile_translation_property(j, offset):
    tg = np.linspace(0.0, 1.0, 1025)
    seq = bump_sequence(2, 0.5, tg, [j])
    t = 0.5 + offset / j
    expected = float(j) ** (-2) * seq.mother(np.array(offset))
    assert seq.profile(j, t) == pytest.approx(expected, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# rank-one sequences


def test_rank_one_x_sequence_unit_norms(wave_disc):
    seq = rank_one_sequence(wave_disc, "X", [1, 2, 3, 5])
    for k in seq.k_values:
        assert seq.operator_norm(k) == pytest.approx(1.0, abs=1e-10)
    # projection property in the pivot inner product
    v = np.sin(2.5 * np.arange(wave_disc.n_free))
    image = seq.apply(2, v)
    phi = seq.vectors[2]
    assert np.allclose(image, phi * float(phi @ (wave_disc.M @ v)))


def test_rank_one_y_sequence_unit_norms(wave_disc):
    seq = rank_one_sequence(wave_disc, "Y", [1, 2, 4])
    for k in seq.k_values:
        assert seq.operator_norm(k) == pytest.approx(1.0, abs=1e-10)


def test_rank_one_eigenvalues_match_dirichlet_modes(wave_disc):
    seq = rank_one_sequence(wave_disc, "X", [1])
    # uniform linear elements with consistent mass admit closed-form
    # generalized eigenvalues (6/h^2)(1 - cos(k pi h))/(2 + cos(k pi h)),
    # which overshoot the continuum values (k pi)^2 by O((k pi h)^2)
    h = 1.0 / 12.0
    for k in (1, 2):
        c = np.cos(k * np.pi * h)
        exact_discrete = 6.0 / h**2 * (1.0 - c) / (2.0 + c)
        assert seq.eigenvalues[k - 1] == pytest.approx(exact_discrete, rel=1e-12)
        assert seq.eigenvalues[k - 1] == pytest.approx((k * np.pi) ** 2, rel=5e-2)
    assert np.all(np.diff(seq.eigenvalues) > 0)


def test_rank_one_rejects_bad_indices(wave_disc):
    with pytest.raises(SpectralError):
        rank_one_sequence(wave_disc, "X", [0])
    with pytest.raises(SpectralError):
        rank_one_sequence(wave_disc, "X", [wave_disc.n_free + 1])
    with pytest.raises(RegularityError, match="'X' or 'Y'"):
        rank_one_sequence(wave_disc, "Z", [1])


# ---------------------------------------------------------------------------
# instability experiment


def quick_instance(problem, n, n_steps):
    disc = wi.build_grid(problem, n)
    tg = np.linspace(0.0, 1.0, n_steps + 1)
    point = varied_point(disc, tg, amplitude=0.1)
    f = modal_source(disc, tg)
    return disc, tg, point, f


def test_illposed_experiment_structure():
    # 128 steps so the narrowest bump (j=16) still covers >= 8 grid nodes
    disc, tg, point, f = quick_instance("wave1d", 10, 128)
    result = illposed_experiment(point, "q", 0.4, [4, 8, 16], f)
    assert result.problem == "wave1d" and result.target == "q"
    assert len(result.rows()) == 3
    assert result.param_lower_ok
    assert result.output_decreasing
    assert np.all(np.diff(result.output_distances) < 0)
    assert result.output_ratio == pytest.approx(
        result.output_distances[-1] / result.output_distances[0]
    )
    # parameter distances certify the lower bound delta * gamma / 2
    assert np.all(result.param_distances >= 0.4 * result.gamma / 2.0)
    # each is the norm of the perturbation profile (delta / 2) alpha_j on the fine grid
    fine = np.linspace(0.0, 1.0, illposed.FINE_INTERVALS + 1)
    bumps = bump_sequence(3, 0.5, tg, [4, 8, 16])
    profiles = [wi.ParameterField(0.2 * bumps.profile(j, fine)[:, None], fine) for j in (4, 8, 16)]
    expected = [wi.galerkin.parameter_norm(profile, 2) for profile in profiles]
    assert np.array_equal(result.param_distances, expected)


def test_illposed_param_distance_same_for_additive_and_reciprocal_targets():
    # the perturbation profile is the same analytic object for every recipe,
    # so its certified norm must agree across problems and targets
    disc_w, tg, point_w, f_w = quick_instance("wave1d", 8, 64)
    disc_m, _, point_m, f_m = quick_instance("maxwell1d", 8, 64)
    res_w = illposed_experiment(point_w, "a", 0.3, [4, 8], f_w)
    res_m = illposed_experiment(point_m, "mu", 0.3, [4, 8], f_m)
    assert np.allclose(res_w.param_distances, res_m.param_distances, rtol=1e-12)


def test_illposed_experiment_slack_error():
    # the shear modulus has an upper box bound, so a huge amplitude must be
    # rejected; the normalized bump peak is ~2e-3, hence the large delta
    disc, tg, point, f = quick_instance("elastic2d", 3, 32)
    with pytest.raises(SlackError) as info:
        illposed_experiment(point, "mu", 1e6, [4], f)
    assert info.value.delta == pytest.approx(1e6)
    assert "delta" in str(info.value)


def counted_instance(monkeypatch, trace):
    """quick_instance on wave1d with the source (trace + t^2) sin(pi x), whose
    value at t = 0 is ``trace``, and a list that grows by one per solve."""
    disc, tg, point, _ = quick_instance("wave1d", 8, 64)
    f = wi.make_source(disc, tg, lambda t, x: (trace + t**2) * np.sin(np.pi * x))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return forward_map(*args, **kwargs)

    monkeypatch.setattr(illposed, "forward_map", counted)
    return disc, point, f, calls


@pytest.mark.parametrize(
    "k, trace, error, message",
    [
        (2, 1.0, CompatibilityError, "smoothness-2 compatibility conditions: f^(0)(0) = 0"),
        (0, 0.0, RegularityError, "level k must be 1 or 2, got 0"),
        (3, 0.0, RegularityError, "level k must be 1 or 2, got 3"),
    ],
    ids=["source-trace-at-level-2", "level-0", "level-3"],
)
def test_illposed_experiment_checks_its_data_before_solving(monkeypatch, k, trace, error, message):
    # the output norm at level k - 1 needs the level-k regularity of a solve
    # from rest: k is 1 or 2, and at k = 2 the source must vanish at t = 0
    disc, point, f, calls = counted_instance(monkeypatch, trace)
    with pytest.raises(error, match=re.escape(message)):
        illposed_experiment(point, "a", 0.3, [4, 8], f, k=k)
    assert calls == []


def test_an_empty_index_list_is_rejected_before_solving(monkeypatch):
    disc, point, f, calls = counted_instance(monkeypatch, 0.0)
    with pytest.raises(ResolutionError, match="at least one index j"):
        illposed_experiment(point, "a", 0.3, [], f)
    assert calls == []
    with pytest.raises(ResolutionError, match="at least one index j"):
        bump_sequence(3, 0.5, np.linspace(0.0, 1.0, 65), [])


def test_illposed_experiment_at_level_1_takes_a_source_trace(monkeypatch):
    # level 1 asks only for rest at t = 0, which every solve here starts from
    disc, point, f, calls = counted_instance(monkeypatch, 1.0)
    result = illposed_experiment(point, "a", 0.3, [4, 8], f, k=1)
    assert len(calls) == 3 and result.param_lower_ok


# ---------------------------------------------------------------------------
# svd probe


def test_svd_probe_report(wave_disc):
    tg = np.linspace(0.0, 1.0, 33)
    point = varied_point(wave_disc, tg, amplitude=0.1)
    f = modal_source(wave_disc, tg)
    report = svd_probe(
        wave_disc, point, "a", f, time_knots=4, space_knots=3
    )
    sv = report.singular_values
    assert sv.size == 12
    assert np.all(sv[:-1] > sv[1:])  # strictly decreasing
    assert np.all(sv > 0)
    assert 0 < report.numerical_rank <= 12
    assert report.n_parameters == 12
    assert np.allclose(report.ratios, sv / sv[0])


def test_svd_probe_rejects_non_integral_knots(wave_disc):
    tg = np.linspace(0.0, 1.0, 33)
    point = varied_point(wave_disc, tg, amplitude=0.1)
    with pytest.raises(DirectionShapeError, match="space_knots must be whole numbers"):
        svd_probe(wave_disc, point, "a", modal_source(wave_disc, tg), space_knots=2.5)


def test_svd_probe_guards(wave_disc):
    tg = np.linspace(0.0, 1.0, 33)
    point = varied_point(wave_disc, tg, amplitude=0.1)
    f = modal_source(wave_disc, tg)
    with pytest.raises(TooLargeError):
        svd_probe(wave_disc, point, "a", f, time_knots=25, space_knots=20)
    with pytest.raises(DirectionShapeError, match="no parameter 'lam'"):
        svd_probe(wave_disc, point, "lam", f)
    with pytest.raises(DirectionShapeError, match="space_knots must give one entry or one per"):
        svd_probe(wave_disc, point, "a", f, space_knots=[3, 3])
    with pytest.raises(DirectionShapeError, match="no parameter 'lam'"):
        illposed_experiment(point, "lam", 0.1, [4], f)


@pytest.mark.parametrize(
    "time_knots, space_knots, message",
    [
        (2.5, 5, "time_knots must be whole numbers"),
        (0, 5, "knot counts must be at least 1"),
        (-3, 5, "knot counts must be at least 1"),
        (6, 0, "knot counts must be at least 1"),
    ],
)
def test_svd_probe_checks_its_knot_counts_before_solving(
    monkeypatch, wave_disc, time_knots, space_knots, message
):
    tg = np.linspace(0.0, 1.0, 33)
    point = varied_point(wave_disc, tg, amplitude=0.1)
    f = modal_source(wave_disc, tg)
    calls = []
    monkeypatch.setattr(illposed, "forward_map", lambda *args: calls.append(1))
    with pytest.raises(DirectionShapeError, match=message):
        svd_probe(wave_disc, point, "a", f, time_knots=time_knots, space_knots=space_knots)
    assert calls == []
