"""Velocities and accelerations recovered the first time they are read.

A forward, backward or derivative trajectory recovers ``du`` and ``ddu``
only when they are read, and only once.  The values must be those of the
recovery formulas bit for bit, a write into the caller's source, point or
direction after the call must raise or not reach them, no trajectory may
sit in a reference cycle, and a sweep that reads only the state must run
no recovery solve at all.  The C(t_n) are factorized only by the recovery,
a block of nodes at a time, once per distinct row for every rate that one
pass recovers.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import waveinv as wi
from waveinv import evolve, sensitivity
from waveinv.evolve import (
    SourceTerm, factorize_rows, reverse_timeline, solve_backward, solve_each
)
from waveinv.forward import data_load
from waveinv.illposed import svd_probe
from waveinv.inversion import InversionConfig, cgne, landweber
from waveinv.sensitivity import (
    adjoint_apply_continuous, derivative_apply, derivative_apply_many, dot_test
)

from conftest import modal_source, smooth_direction, varied_point

MESHES = {"wave1d": 10, "elastic2d": 3, "maxwell1d": 10}
TIME_GRID = np.linspace(0.0, 1.0, 31)


@pytest.fixture(params=sorted(MESHES))
def instance(request):
    """A varied point, a source and the forward solve there, nonzero initial data."""
    disc = wi.build_grid(request.param, MESHES[request.param])
    point = varied_point(disc, TIME_GRID)
    f = modal_source(disc, TIME_GRID)
    rng = np.random.default_rng(7)
    base = wi.forward_map(disc, point, f, u0=0.1 * rng.standard_normal(disc.n_free))
    return disc, point, f, base


def recovered(timeline, source, u, p):
    """du from C(t_n) du = p_n and ddu from C ddu = f - B du - (A + Q) u - (dC) du,
    on a factor of every C(t_n) of the timeline."""
    v = timeline.values
    c_factors = factorize_rows(timeline.pattern, v["C"])
    du = solve_each(c_factors, p)
    resid = source - timeline.pattern.apply(
        (v["B"], du), (v["A"], u), (v["Q"], u), (timeline.rate("C"), du)
    )
    return du, solve_each(c_factors, resid)


def assert_same(traj, u, du, ddu):
    for got, want in ((traj.u, u), (traj.du, du), (traj.ddu, ddu)):
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous


def test_forward_rates_are_the_recovery_formulas(instance):
    disc, point, f, base = instance
    record = base.solve
    du, ddu = recovered(record.timeline, f.values, base.u, record.p)
    assert_same(base, base.u, du, ddu)


@pytest.mark.parametrize("first", ["du", "ddu"], ids=["velocity-first", "acceleration-first"])
def test_backward_rates_are_the_recovery_formulas(instance, first):
    disc, point, f, base = instance
    timeline = base.solve.timeline
    v = SourceTerm(np.random.default_rng(2).standard_normal(base.u.shape), disc, TIME_GRID)
    w = solve_backward(base, v)
    getattr(w, first)  # the flipped recoveries give the same rates in either order
    # the reversed initial-value problem, solved and recovered on its own
    reversed_source = v.values[::-1].copy()
    reversed_load = SourceTerm(reversed_source, disc, TIME_GRID)
    back = wi.solve_forward(reverse_timeline(timeline), reversed_load)
    du, ddu = recovered(back.solve.timeline, reversed_source, back.u, back.solve.p)
    assert_same(w, back.u[::-1], -du[::-1], ddu[::-1])


def test_derivative_block_recovers_once_in_any_order(instance, monkeypatch):
    disc, point, f, base = instance
    names = wi.FIELD_NAMES[disc.problem]
    dirs = [smooth_direction(disc, TIME_GRID, names, shift=i) for i in range(3)]
    first = list(derivative_apply_many(disc, point, dirs, base))
    want = [(t.u, t.du, t.ddu) for t in first]
    assembled = []

    def counted(name):
        assemble = getattr(sensitivity, name)

        def count(*args):
            assembled.append(len(args[2]))
            return assemble(*args)

        monkeypatch.setattr(sensitivity, name, count)

    # the sweep assembles the direction slots through _direction_slots, the recovery
    # through assemble_direction
    counted("_direction_slots")
    counted("assemble_direction")
    again = list(derivative_apply_many(disc, point, dirs, base))
    assert assembled == [3]
    # the last column's acceleration first, then the rest: one more assembly in all
    order = [(2, "ddu"), (0, "du"), (1, "ddu"), (2, "du"), (0, "ddu"), (1, "du")]
    got = {(j, name): getattr(again[j], name) for j, name in order}
    assert assembled == [3, 3]
    for j, (u, du, ddu) in enumerate(want):
        assert_same(again[j], u, du, ddu)
        assert got[j, "du"] is again[j].du and got[j, "ddu"] is again[j].ddu


def test_writes_into_the_inputs_do_not_reach_the_rates(instance):
    disc, point, f, base = instance
    names = wi.FIELD_NAMES[disc.problem]
    direction = smooth_direction(disc, TIME_GRID, names)
    v = SourceTerm(np.random.default_rng(4).standard_normal(base.u.shape), disc, TIME_GRID)
    # read at once, on inputs nobody writes into
    ref_base = wi.forward_map(disc, point.copy(), SourceTerm(f.values.copy(), disc, TIME_GRID))
    ref_eta = derivative_apply(
        disc, point, {n: h.copy() for n, h in direction.items()}, ref_base
    )
    ref_v = SourceTerm(v.values.copy(), disc, TIME_GRID)
    ref_w = solve_backward(ref_base, ref_v)
    wants = [(t.u, t.du, t.ddu) for t in (ref_base, ref_eta, ref_w)]

    given = f.values.copy()
    source = SourceTerm(given, disc, TIME_GRID)
    fwd = wi.forward_map(disc, point, source)
    eta = derivative_apply(disc, point, direction, fwd)
    w = solve_backward(fwd, v)
    # what the library keeps is read-only, and it copied the caller's arrays
    for kept in (source.values, v.values, *(field.values for field in point.fields.values())):
        with pytest.raises(ValueError, match="read-only"):
            kept *= 3.0
    given *= 3.0
    for h in direction.values():
        h *= -2.0
    for field in point.fields.values():
        field.values = field.values * 1.1
    for traj, want in zip((fwd, eta, w), wants):
        assert_same(traj, *want)


@pytest.mark.parametrize("read", [(), ("du",), ("du", "ddu")], ids=["unread", "du", "both"])
def test_trajectories_die_with_their_last_name(instance, read):
    disc, point, f, base = instance
    direction = smooth_direction(disc, TIME_GRID, wi.FIELD_NAMES[disc.problem])
    v = SourceTerm(np.ones(base.u.shape), disc, TIME_GRID)
    made = {
        "forward": lambda: wi.forward_map(disc, point, f),
        "derivative": lambda: derivative_apply(disc, point, direction, base),
        "backward": lambda: solve_backward(base, v),
        "difference": lambda: base - wi.forward_map(disc, point, f),
    }
    gc.collect()
    gc.disable()
    try:
        for kind, make in made.items():
            traj = make()
            for name in read:
                getattr(traj, name)
            ref = weakref.ref(traj)
            del traj
            assert ref() is None, kind
    finally:
        gc.enable()


@pytest.fixture
def recoveries(monkeypatch):
    """The number of solve_each calls made since the fixture was set up."""
    calls = []

    def counted(factors, rhs):
        calls.append(rhs.shape)
        return solve_each(factors, rhs)

    monkeypatch.setattr(evolve, "solve_each", counted)
    return calls


def test_forward_recovers_on_read(wave_disc, recoveries):
    point = varied_point(wave_disc, TIME_GRID)
    traj = wi.forward_map(wave_disc, point, modal_source(wave_disc, TIME_GRID))
    assert len(recoveries) == 0
    traj.du
    traj.du
    assert len(recoveries) == 1
    traj.ddu
    traj.ddu
    assert len(recoveries) == 2


def test_sweeps_that_read_only_the_state_recover_nothing(wave_disc, recoveries):
    point = varied_point(wave_disc, TIME_GRID, amplitude=0.1)
    f = modal_source(wave_disc, TIME_GRID)
    svd_probe(wave_disc, point, "a", f, time_knots=3, space_knots=3)
    data = wi.observe(wi.forward_map(wave_disc, varied_point(wave_disc, TIME_GRID), f))
    history, _ = landweber(wave_disc, point, data, f, InversionConfig(max_iterations=1))
    assert history.n_iterations == 1
    assert recoveries == []


@pytest.fixture
def c_factorizations(monkeypatch):
    """The node of every C(t_n) factorized since the fixture was set up: every
    BandLU built inside a recovery pass, the one place that factorizes C."""
    made, passes = [], []
    recover = evolve._recover

    class CountedLU(evolve.BandLU):
        def __init__(self, pattern, values, node):
            if passes:
                made.append(node)
            super().__init__(pattern, values, node)

    def counted(*args):
        passes.append(args)
        try:
            return recover(*args)
        finally:
            passes.pop()

    monkeypatch.setattr(evolve, "BandLU", CountedLU)
    monkeypatch.setattr(evolve, "_recover", counted)
    return made


def distinct_c_rows(traj):
    return len(np.unique(traj.solve.timeline.values["C"], axis=0))


def test_sweeps_that_read_no_rate_factorize_no_c_row(wave_disc, c_factorizations):
    point = varied_point(wave_disc, TIME_GRID, amplitude=0.1)
    f = modal_source(wave_disc, TIME_GRID)
    base = wi.forward_map(wave_disc, point, f)
    data = wi.observe(wi.forward_map(wave_disc, varied_point(wave_disc, TIME_GRID), f))
    svd_probe(wave_disc, point, "a", f, time_knots=3, space_knots=3)
    for method in (landweber, cgne):
        config = InversionConfig(method=method.__name__, max_iterations=1)
        assert method(wave_disc, point, data, f, config)[0].n_iterations == 1
    direction = smooth_direction(wave_disc, TIME_GRID, wi.FIELD_NAMES["wave1d"])
    dot_test(direction, data, "discrete", base=base)
    assert c_factorizations == []


def test_reading_ddu_first_recovers_both_rates_in_one_pass(instance, c_factorizations):
    disc, point, f, base = instance
    want = (base.du, base.ddu)  # one pass each
    c_factorizations.clear()
    traj = wi.forward_map(disc, point, f, u0=base.u[0])
    traj.ddu
    assert len(c_factorizations) == distinct_c_rows(traj)
    assert np.array_equal(traj.du, want[0]) and np.array_equal(traj.ddu, want[1])
    assert len(c_factorizations) == distinct_c_rows(traj)


def test_continuous_adjoint_recovers_both_velocities_in_one_pass(
    instance, c_factorizations, monkeypatch
):
    disc, point, f, base = instance
    v = wi.DataVector(np.random.default_rng(3).standard_normal(base.u.shape), TIME_GRID)
    alone = solve_backward(base, SourceTerm(data_load(v, base), disc, TIME_GRID))
    want = (base.du, alone.du)  # recovered one after the other
    backward = []

    def kept(*args):
        backward.append(solve_backward(*args))
        return backward[-1]

    monkeypatch.setattr(sensitivity, "solve_backward", kept)
    joint = wi.forward_map(disc, point, f, u0=base.u[0])
    c_factorizations.clear()
    adjoint_apply_continuous(disc, point, v, joint)
    assert len(c_factorizations) == distinct_c_rows(joint)
    assert np.array_equal(joint.du, want[0]) and np.array_equal(backward[0].du, want[1])
    assert len(c_factorizations) == distinct_c_rows(joint)


def test_velocity_recovery_never_holds_all_c_factors():
    # elastic2d at the size of the benchmark's sweeps, where the C(t_n)
    # factors are about a third of what a forward solve would hold with them
    disc = wi.build_grid("elastic2d", 16)
    tg = np.linspace(0.0, 1.0, 101)
    traj = wi.forward_map(disc, varied_point(disc, tg), modal_source(disc, tg))
    factors = evolve.factorize_rows(disc.pattern, traj.solve.timeline.values["C"])
    held = {id(a): a.nbytes for one in factors for a in one.lapack_solve.args
            if isinstance(a, np.ndarray)}
    del factors
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traj.du
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < sum(held.values())
