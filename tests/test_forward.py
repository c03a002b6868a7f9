"""Forward operator wrapper, observation extraction, and data-space geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waveinv as wi
from waveinv.errors import CompatibilityError, ObservationError, ResolutionError, WaveinvError

from conftest import modal_source, varied_point


def test_trapezoid_weights():
    tg = np.linspace(0.0, 2.0, 9)
    w = wi.trapezoid_weights(tg)
    assert w.sum() == pytest.approx(2.0)
    assert w[0] == pytest.approx(w[-1]) == pytest.approx(0.125)
    assert np.all(w[1:-1] == 0.25)


def test_trapezoid_weights_need_two_time_nodes(wave_disc):
    with pytest.raises(ResolutionError, match="at least two time nodes, got 1"):
        wi.trapezoid_weights([0.0])
    one_node = wi.DataVector(np.ones((1, wave_disc.n_free)), [0.0])
    with pytest.raises(ResolutionError, match="at least two time nodes, got 1"):
        wi.data_norm(one_node, wave_disc)


def test_observation_spec_validation():
    full = wi.ObservationSpec()
    assert full.kind == "full-field"
    sub = wi.ObservationSpec(kind="node-subset", indices=[1, 3])
    assert np.all(sub.weights == 1.0)
    with pytest.raises(ObservationError):
        wi.ObservationSpec(kind="point-cloud")
    with pytest.raises(ObservationError):
        wi.ObservationSpec(kind="node-subset")
    with pytest.raises(ObservationError):
        wi.ObservationSpec(kind="node-subset", indices=[1], weights=[-1.0])
    with pytest.raises(ObservationError):
        wi.ObservationSpec(kind="node-subset", indices=[1, 2], weights=[1.0])


@pytest.mark.parametrize(
    "indices, weights, message",
    [
        ([1, 2], [np.nan, 1.0], "finite and positive"),
        ([1, 2], [np.inf, 1.0], "finite and positive"),
        ([1.7, 2], None, "1-D integer array"),
        ([2, -1], None, "must not be negative"),
    ],
    ids=["nan-weight", "inf-weight", "fractional-index", "negative-index"],
)
def test_observation_spec_rejects_bad_weights_and_indices(indices, weights, message):
    with pytest.raises(ObservationError, match=message):
        wi.ObservationSpec("node-subset", indices, weights)


@pytest.mark.parametrize(
    "values, indices",
    [
        (np.ones((5, 3)), None),  # 5 rows on a 7-node time grid
        (np.ones(7), None),  # not 2-D
        (np.full((7, 3), np.nan), None),
        (np.ones((7, 3)), [1, 2]),  # 3 columns for 2 observed DOFs
    ],
    ids=["rows", "one-dimensional", "non-finite", "subset-columns"],
)
def test_data_vector_rejects_values_that_do_not_fit(values, indices):
    tg = np.linspace(0.0, 1.0, 7)
    spec = None if indices is None else wi.ObservationSpec("node-subset", indices)
    with pytest.raises(ObservationError):
        wi.DataVector(values, tg, spec)


def test_observation_spec_matching():
    a = wi.ObservationSpec(kind="node-subset", indices=[0, 2], weights=[1.0, 2.0])
    b = wi.ObservationSpec(kind="node-subset", indices=[0, 2], weights=[1.0, 2.0])
    c = wi.ObservationSpec(kind="node-subset", indices=[0, 3], weights=[1.0, 2.0])
    assert a.matches(b) and not a.matches(c) and not a.matches(wi.ObservationSpec())


def test_observe_full_field_returns_copy(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    traj = wi.forward_map(wave_disc, point, modal_source(wave_disc, time_grid))
    data = wi.observe(traj)
    with pytest.raises(ValueError, match="read-only"):
        data.values[0, 0] = 123.0
    # the states stay writable, and a write into them does not reach the data
    traj.u[0, 0] = 123.0
    assert data.values[0, 0] != 123.0
    assert data.spec.kind == "full-field"


def test_observe_subset_selects_columns(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    traj = wi.forward_map(wave_disc, point, modal_source(wave_disc, time_grid))
    spec = wi.ObservationSpec(kind="node-subset", indices=[2, 5])
    data = wi.observe(traj, spec)
    assert data.values.shape == (time_grid.size, 2)
    assert np.array_equal(data.values, traj.u[:, [2, 5]])
    with pytest.raises(ObservationError):
        wi.observe(traj, wi.ObservationSpec(kind="node-subset", indices=[99]))


def test_data_vector_defaults_and_copy(time_grid):
    given = np.ones((time_grid.size, 3))
    d = wi.DataVector(given, time_grid)
    assert d.spec.kind == "full-field"
    with pytest.raises(ValueError, match="read-only"):
        d.values[:] = 0.0
    given[:] = 0.0  # the data hold a copy of the caller's array
    assert np.all(d.values == 1.0)


def test_data_inner_full_field_oracle(wave_disc, time_grid):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((time_grid.size, wave_disc.n_free))
    b = rng.standard_normal((time_grid.size, wave_disc.n_free))
    da = wi.DataVector(a, time_grid)
    db = wi.DataVector(b, time_grid)
    wts = wi.trapezoid_weights(time_grid)
    manual = sum(
        wts[n] * float(a[n] @ (wave_disc.M @ b[n])) for n in range(time_grid.size)
    )
    assert wi.data_inner(da, db, wave_disc) == pytest.approx(manual, rel=1e-13)
    assert wi.data_inner(db, da, wave_disc) == pytest.approx(manual, rel=1e-13)


def test_data_inner_subset_oracle(wave_disc, time_grid):
    rng = np.random.default_rng(1)
    spec = wi.ObservationSpec(kind="node-subset", indices=[1, 4], weights=[2.0, 0.5])
    a = rng.standard_normal((time_grid.size, 2))
    b = rng.standard_normal((time_grid.size, 2))
    wts = wi.trapezoid_weights(time_grid)
    manual = float(np.sum(wts[:, None] * np.array([2.0, 0.5]) * a * b))
    got = wi.data_inner(
        wi.DataVector(a, time_grid, spec), wi.DataVector(b, time_grid, spec), wave_disc
    )
    assert got == pytest.approx(manual, rel=1e-13)


def test_data_inner_rejects_mismatched_specs(wave_disc, time_grid):
    spec = wi.ObservationSpec(kind="node-subset", indices=[1])
    full = wi.DataVector(np.ones((time_grid.size, wave_disc.n_free)), time_grid)
    sub = wi.DataVector(np.ones((time_grid.size, 1)), time_grid, spec)
    with pytest.raises(ObservationError):
        wi.data_inner(full, sub, wave_disc)


@pytest.mark.parametrize("columns", [1, 3])
def test_data_distance_rejects_a_shape_mismatch(wave_disc, time_grid, columns):
    full = wi.DataVector(np.ones((time_grid.size, wave_disc.n_free)), time_grid)
    narrow = wi.DataVector(np.ones((time_grid.size, columns)), time_grid)
    for d1, d2 in ((full, narrow), (narrow, full)):
        with pytest.raises(ObservationError, match="data shapes differ"):
            wi.data_distance(d1, d2, wave_disc)


def test_data_distance_rejects_mismatched_specs(wave_disc, time_grid):
    spec = wi.ObservationSpec(kind="node-subset", indices=[1])
    sub = wi.DataVector(np.ones((time_grid.size, 1)), time_grid, spec)
    one_column = wi.DataVector(np.ones((time_grid.size, 1)), time_grid)
    with pytest.raises(ObservationError, match="observation specs"):
        wi.data_distance(one_column, sub, wave_disc)


def test_data_distance_rejects_other_time_grids(wave_disc):
    shape = (21, wave_disc.n_free)
    short = wi.DataVector(np.ones(shape), np.linspace(0.0, 1.0, 21))
    long = wi.DataVector(2.0 * np.ones(shape), np.linspace(0.0, 4.0, 21))
    for d1, d2 in ((short, long), (long, short)):
        with pytest.raises(ObservationError, match="time grids"):
            wi.data_distance(d1, d2, wave_disc)
        with pytest.raises(ObservationError, match="time grids"):
            wi.data_inner(d1, d2, wave_disc)


def test_data_norm_and_distance(wave_disc, time_grid):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((time_grid.size, wave_disc.n_free))
    d = wi.DataVector(vals, time_grid)
    z = wi.DataVector(np.zeros_like(vals), time_grid)
    assert wi.data_norm(z, wave_disc) == 0.0
    assert wi.data_distance(d, z, wave_disc) == pytest.approx(
        wi.data_norm(d, wave_disc)
    )
    assert wi.data_distance(d, d, wave_disc) == 0.0


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(-4.0, 4.0))
def test_data_norm_homogeneous(alpha):
    disc = wi.build_grid("wave1d", 5)
    tg = np.linspace(0.0, 1.0, 9)
    vals = np.outer(np.sin(3 * tg + 1.0), np.arange(1.0, 5.0))
    base = wi.data_norm(wi.DataVector(vals, tg), disc)
    scaled = wi.data_norm(wi.DataVector(alpha * vals, tg), disc)
    assert scaled == pytest.approx(abs(alpha) * base, rel=1e-12, abs=1e-12)


def test_forward_map_caches_solver_state(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    traj = wi.forward_map(wave_disc, point, modal_source(wave_disc, time_grid))
    assert traj.solve.timeline.disc is wave_disc


def test_forward_map_compatibility_gate(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    good = modal_source(wave_disc, time_grid)  # ~ t^2, vanishing traces
    wi.compatibility_check(good, None, None, 2).require()
    wi.forward_map(wave_disc, point, good)
    flat = wi.make_source(wave_disc, time_grid, lambda t, x: np.ones_like(x))
    with pytest.raises(CompatibilityError):
        wi.compatibility_check(flat, None, None, 2).require()
    # the forward map itself makes no compatibility check
    wi.forward_map(wave_disc, point, flat)


def test_forward_map_matches_manual_pipeline(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    f = modal_source(wave_disc, time_grid)
    via_map = wi.forward_map(wave_disc, point, f)
    tl = wi.assemble_operators(wave_disc, point)
    direct = wi.solve_forward(tl, f)
    assert np.array_equal(via_map.u, direct.u)


@settings(max_examples=30, deadline=None)
@given(
    problem=st.sampled_from(sorted(wi.FIELD_NAMES)),
    n=st.integers(2, 5),
    n_steps=st.integers(1, 24),
    t_end=st.floats(1e-3, 20.0),
    scales=st.lists(st.floats(0.05, 20.0), min_size=3, max_size=3),
    wobble=st.floats(0.0, 5.0),
    amplitude=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**16),
)
def test_any_input_solves_or_raises_a_typed_error(
    problem, n, n_steps, t_end, scales, wobble, amplitude, seed
):
    """A random point, grid, source and initial data either solve to finite
    output or raise a WaveinvError, never a bare numpy or scipy exception."""
    rng = np.random.default_rng(seed)
    disc = wi.build_grid(problem, n)
    tg = np.linspace(0.0, t_end, n_steps + 1)
    names = wi.FIELD_NAMES[problem]
    constants = dict(zip(names, np.resize(scales, len(names))))
    try:
        point = wi.ParameterPoint.from_constants(problem, tg, disc.n_nodes, **constants)
        for name in names:
            field = point.fields[name]
            shake = rng.uniform(-0.5, 0.5, field.values.shape)
            field.values = field.values * (1.0 + wobble * shake)
        f = wi.SourceTerm(amplitude * rng.standard_normal((tg.size, disc.n_free)), disc, tg)
        u0 = rng.standard_normal(disc.n_free)
        traj = wi.forward_map(disc, point, f, u0=u0, u1=u0)
    except WaveinvError:
        return
    for rows in (traj.u, traj.du, traj.ddu):
        assert np.all(np.isfinite(rows))
