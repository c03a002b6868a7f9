"""A forward solve resumed from the solve at another point: forward_map(like=).

The resumed solve must equal the solve from t = 0 bit for bit, and do only
the work that the change demands: march from one step before the first
changed node, and factorize only the step and C rows that changed.
"""

import pathlib

import numpy as np
import pytest

import waveinv as wi
from waveinv import evolve, illposed
from waveinv.cli import main
from waveinv.errors import RequiresForwardSolveError
from waveinv.forward import forward_map
from waveinv.illposed import illposed_experiment
from waveinv.sensitivity import adjoint_apply_continuous, adjoint_apply_discrete, derivative_apply

from conftest import modal_source, smooth_direction, varied_point

#: the small level of acceptance criterion 6: mesh size and steps per problem
CRITERION_6_SMALL = {"wave1d": (16, 320), "elastic2d": (3, 320), "maxwell1d": (16, 320)}

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "configs"

#: the BandLU factorizations that a run of each shipped config builds
CONFIG_FACTORIZATIONS = {
    "adjoint_checks": 2, "convergence": 8, "forward_elastic": 2, "forward_wave": 2,
    "svd_probe": 2, "illposed_maxwell_mu": 156, "illposed_q": 154,
    "invert_bump": 337, "taylor_wave": 418,
}


def assert_same_solve(a, b):
    for name in ("u", "du", "ddu"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def moved_rows(point, name, rows, move):
    """A copy of ``point`` whose field ``name`` holds ``move(values[rows])`` on ``rows``."""
    out = point.copy()
    values = out.fields[name].values.copy()
    values[rows] = move(values[rows])
    out.fields[name].values = values
    return out


@pytest.fixture
def work(monkeypatch):
    """The node of every BandLU built and the step count of every march."""
    built, marched = [], []
    march = evolve._march

    class CountedLU(evolve.BandLU):
        def __init__(self, pattern, values, node):
            built.append(node)
            super().__init__(pattern, values, node)

    def counted_march(pattern, factors, *args, **kwargs):
        marched.append(len(factors))
        return march(pattern, factors, *args, **kwargs)

    monkeypatch.setattr(evolve, "BandLU", CountedLU)
    monkeypatch.setattr(evolve, "_march", counted_march)
    return built, marched


@pytest.fixture
def wave_setup(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    f = modal_source(wave_disc, time_grid)
    return wave_disc, point, f, forward_map(wave_disc, point, f)


@pytest.mark.parametrize(
    "problem, target", [(p, t) for p in CRITERION_6_SMALL for t in wi.FIELD_NAMES[p]]
)
def test_illposed_experiment_resumes_exactly(problem, target, monkeypatch):
    n, n_steps = CRITERION_6_SMALL[problem]
    disc = wi.build_grid(problem, n)
    tg = np.linspace(0.0, 1.0, n_steps + 1)
    point = varied_point(disc, tg, amplitude=0.1)
    f = modal_source(disc, tg)
    args = (point, target, 0.2, [4, 8, 16, 32, 64], f)
    resumed = illposed_experiment(*args)

    compared = []

    def both_ways(*a, like=None, **kw):
        # solve from t = 0, check the resumed solve against it, and go on
        # with the solve from t = 0
        full = forward_map(*a, **kw)
        if like is not None:
            assert_same_solve(forward_map(*a, like=like, **kw), full)
            compared.append(like)
        return full

    monkeypatch.setattr(illposed, "forward_map", both_ways)
    full = illposed_experiment(*args)
    assert len(compared) == 5
    assert np.array_equal(resumed.output_distances, full.output_distances)
    assert np.array_equal(resumed.param_distances, full.param_distances)


def test_resuming_at_the_same_point_does_no_work(wave_setup, work):
    disc, point, f, base = wave_setup
    again = forward_map(disc, point, f, like=base)
    built, marched = work
    assert built == [] and sum(marched) == 0
    assert_same_solve(again, base)
    assert again.solve.factors == base.solve.factors
    assert again.solve.c_factors == base.solve.c_factors


@pytest.mark.parametrize("target, slot_c", [("q", False), ("rho", True)])
@pytest.mark.parametrize("a, b", [(1, 3), (12, 20), (37, 40)])
def test_only_the_rows_of_the_changed_window_are_factorized(
    wave_setup, work, target, slot_c, a, b
):
    disc, point, f, base = wave_setup
    moved = moved_rows(point, target, slice(a, b + 1), lambda v: v + 0.05)
    resumed = forward_map(disc, moved, f, like=base)
    built, marched = work
    n_steps = point.time_grid.size - 1
    # steps a - 1 .. b touch a changed node (step n couples nodes n and
    # n + 1, and the last step is n_steps - 1); C rows change at nodes a .. b
    steps = list(range(a - 1, min(b, n_steps - 1) + 1))
    c_rows = list(range(a, b + 1)) if slot_c else []
    assert sorted(built) == sorted(steps + c_rows)
    assert marched == [n_steps - (a - 1)]
    assert_same_solve(resumed, forward_map(disc, moved, f))


def test_other_initial_data_march_every_step(wave_setup, work):
    disc, point, f, base = wave_setup
    n_steps = point.time_grid.size - 1
    u0 = 1e-3 * np.linspace(0.1, 1.0, disc.n_free)
    cases = ({"u0": u0}, {"u1": u0})
    resumed = [forward_map(disc, point, f, like=base, **kwargs) for kwargs in cases]
    built, marched = work
    assert built == []  # the same point: every row is the base's
    assert marched == [n_steps, n_steps]
    for kwargs, traj in zip(cases, resumed):
        assert_same_solve(traj, forward_map(disc, point, f, **kwargs))


def test_another_source_marches_from_its_first_change(wave_setup, work):
    disc, point, f, base = wave_setup
    n_steps = point.time_grid.size - 1
    late = f.values.copy()
    late[30:] *= 1.5
    sources = tuple(wi.SourceTerm(x, disc, f.time_grid) for x in (2.0 * f.values, late))
    resumed = [forward_map(disc, point, source, like=base) for source in sources]
    built, marched = work
    assert built == []
    # the load of step 29 averages nodes 29 and 30
    assert marched == [n_steps, n_steps - 29]
    for source, traj in zip(sources, resumed):
        assert_same_solve(traj, forward_map(disc, point, source))


def test_resuming_from_a_resumed_solve(wave_setup):
    disc, point, f, base = wave_setup
    first = moved_rows(point, "a", slice(10, 15), lambda v: v + 0.1)
    second = moved_rows(first, "b", slice(25, 28), lambda v: v - 0.1)
    chained = forward_map(disc, second, f, like=forward_map(disc, first, f, like=base))
    assert_same_solve(chained, forward_map(disc, second, f))


def test_a_resumed_solve_serves_the_sweeps_as_a_full_one(wave_setup):
    disc, point, f, base = wave_setup
    tg = point.time_grid
    moved = moved_rows(point, "rho", slice(18, 24), lambda v: v * 1.1)
    resumed, full = forward_map(disc, moved, f, like=base), forward_map(disc, moved, f)
    direction = smooth_direction(disc, tg, wi.FIELD_NAMES["wave1d"])
    assert_same_solve(
        derivative_apply(disc, moved, direction, resumed),
        derivative_apply(disc, moved, direction, full),
    )
    v = wi.DataVector(np.cos(np.outer(tg, np.arange(disc.n_free))), tg)
    for adjoint in (adjoint_apply_discrete, adjoint_apply_continuous):
        a, b = adjoint(disc, moved, v, resumed), adjoint(disc, moved, v, full)
        for name in wi.FIELD_NAMES["wave1d"]:
            assert np.array_equal(a.fields[name], b.fields[name]), (adjoint, name)


def test_like_on_another_grid_or_mesh_is_rejected(wave_setup, maxwell_disc):
    disc, point, f, base = wave_setup
    tg = point.time_grid
    for other_tg in (np.linspace(0.0, 1.0, tg.size + 2), np.linspace(0.0, 2.0, tg.size)):
        other = varied_point(disc, other_tg)
        with pytest.raises(RequiresForwardSolveError):
            forward_map(disc, other, modal_source(disc, other_tg), like=base)
    coarse = wi.build_grid("wave1d", disc.n_nodes - 3)
    with pytest.raises(RequiresForwardSolveError):
        forward_map(coarse, varied_point(coarse, tg), modal_source(coarse, tg), like=base)
    with pytest.raises(RequiresForwardSolveError):
        other = varied_point(maxwell_disc, tg)
        forward_map(maxwell_disc, other, modal_source(maxwell_disc, tg), like=base)
    difference = base - base
    with pytest.raises(RequiresForwardSolveError):
        forward_map(disc, point, f, like=difference)


@pytest.mark.parametrize("config_path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_factorize_as_often_as_pinned(config_path, work, tmp_path, capsys):
    # equal step and C rows share one factor wherever they fall in time, also
    # across blocks and in symmetric envelopes that repeat rows far apart
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    built, _ = work
    assert len(built) == CONFIG_FACTORIZATIONS[config_path.stem]
