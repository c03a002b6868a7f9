"""Shared small-scale fixtures for the test suite.

Everything here is deliberately tiny (a handful of elements, a few dozen
time steps) so the unit-test files stay fast; the acceptance module builds
its own instances at the sizes its checks demand.
"""

import numpy as np
import pytest

import waveinv as wi


@pytest.fixture(scope="session")
def wave_disc():
    return wi.build_grid("wave1d", 12)


@pytest.fixture(scope="session")
def elastic_disc():
    return wi.build_grid("elastic2d", 3)


@pytest.fixture(scope="session")
def maxwell_disc():
    return wi.build_grid("maxwell1d", 12)


@pytest.fixture(scope="session")
def time_grid():
    return np.linspace(0.0, 1.0, 41)


@pytest.fixture
def wave_point(wave_disc, time_grid):
    return wi.ParameterPoint.from_constants(
        "wave1d", time_grid, wave_disc.n_nodes, a=1.0, b=0.2, q=0.5, rho=1.0
    )


@pytest.fixture
def elastic_point(elastic_disc, time_grid):
    return wi.ParameterPoint.from_constants(
        "elastic2d", time_grid, elastic_disc.n_nodes, lam=1.0, mu=1.0, rho=1.0
    )


@pytest.fixture
def maxwell_point(maxwell_disc, time_grid):
    return wi.ParameterPoint.from_constants(
        "maxwell1d", time_grid, maxwell_disc.n_nodes, eps=1.0, mu=1.0
    )


def modal_source(disc, time_grid, component=0):
    """A smooth compatible load: one spatial mode ramped in time like t^2."""
    if disc.dim == 1:
        return wi.make_source(disc, time_grid, lambda t, x: t**2 * np.sin(np.pi * x))

    def fn(t, x, y):
        mode = t**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        comp = np.zeros((x.size, 2))
        comp[:, component] = mode
        return comp

    return wi.make_source(disc, time_grid, fn)


def varied_point(disc, time_grid, amplitude=0.2):
    """An admissible point whose every field genuinely varies in time and space."""
    tg = np.asarray(time_grid)
    if disc.dim == 1:
        x = disc.nodes
    else:
        x = disc.nodes[:, 0] + 0.5 * disc.nodes[:, 1]
    wobble = amplitude * np.outer(np.sin(2.0 * tg + 0.3), np.cos(np.pi * x))
    names = wi.FIELD_NAMES[disc.problem]
    baselines = {
        "a": 1.0, "b": 0.3, "q": 0.6, "rho": 1.0,
        "lam": 1.2, "mu": 1.0, "eps": 1.0,
    }
    point = wi.ParameterPoint.from_constants(
        disc.problem, tg, disc.n_nodes,
        **{name: baselines[name] for name in names},
    )
    for i, name in enumerate(names):
        point.fields[name].values = point.fields[name].values + np.roll(
            wobble, i, axis=0
        )
    point.check_admissible()
    return point


def smooth_direction(disc, time_grid, names, scale=1.0, shift=0):
    """A reproducible smooth direction on the requested fields."""
    tg = np.asarray(time_grid)
    if disc.dim == 1:
        x = disc.nodes
    else:
        x = disc.nodes[:, 0] - disc.nodes[:, 1]
    bump = np.outer(np.sin(np.pi * tg + 0.2 * shift), np.cos(2.0 * x + shift))
    return {name: scale * np.roll(bump, i, axis=1) for i, name in enumerate(names)}


def direction_timeline(disc, point, direction):
    """The timeline of one direction: ``assemble_direction`` of a list of one,
    with its (time node x 1 x nnz) slots taken at that direction."""
    tl = wi.assemble_direction(disc, point, [direction])
    values = {slot: None if v is None else v[:, 0] for slot, v in tl.values.items()}
    return wi.galerkin.OperatorTimeline(tl.disc, tl.time_grid, values)


def reversed_forward(base, load):
    """The backward solve of ``load`` on the timeline of ``base``, built from public
    pieces and sharing nothing with ``base``: the forward solve of the reversed
    timeline and load.  Flipped back, with its velocity negated, it is the
    backward solve."""
    tl = base.solve.timeline
    flipped = wi.SourceTerm(load.values[::-1], tl.disc, tl.time_grid)
    return wi.solve_forward(wi.evolve.reverse_timeline(tl), flipped)
