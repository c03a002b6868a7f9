"""The shared midpoint march and the batched derivative sweep against loop oracles.

The oracles below are the recursions written as plain per-step loops: the
forward march, the derivative sweep one direction at a time, and the
backward loop of the discrete adjoint, each step a checked
``SparsityPattern.matvec`` product and a factor solve.  The march kernel
keeps the order of every operation, so the forward solve, the batched
derivative (any number of directions, in one block or several) and the
adjoint must reproduce them bit for bit.
"""

import numpy as np
import pytest
import scipy.linalg

import waveinv as wi
from waveinv import evolve, sensitivity
from waveinv.evolve import factorize_rows, solve_each, step_values
from waveinv.illposed import svd_probe
from waveinv.sensitivity import (
    _adjoint_seeds,
    _gradient,
    _steps_to_nodes,
    adjoint_apply_discrete,
    derivative_apply,
    derivative_apply_many,
)

from conftest import modal_source, smooth_direction, varied_point

MESHES = {"wave1d": 10, "elastic2d": 3, "maxwell1d": 10}


def time_grid():
    return np.linspace(0.0, 1.0, 31)


@pytest.fixture(scope="module", params=sorted(MESHES))
def instance(request):
    """A varied point, a source, nonzero initial data and the base solve."""
    problem = request.param
    disc = wi.build_grid(problem, MESHES[problem])
    tg = time_grid()
    point = varied_point(disc, tg)
    f = modal_source(disc, tg)
    rng = np.random.default_rng(MESHES[problem])
    u0 = 0.1 * rng.standard_normal(disc.n_free)
    p0 = 0.1 * rng.standard_normal(disc.n_free)
    base = wi.forward_map(disc, point, f, u0=u0, u1=p0)
    return disc, point, f, u0, p0, base


def directions(disc, count):
    """Directions that differ in their fields, their shape and their size."""
    names = wi.FIELD_NAMES[disc.problem]
    out = []
    for i in range(count):
        fields = names if i % 3 == 0 else names[i % len(names):][:1 + i % 2]
        out.append(smooth_direction(disc, time_grid(), fields, scale=1.0 + 0.5 * i, shift=i))
    return out


def loop_forward(timeline, f, u0, p0):
    """u and p of the midpoint march, one checked product and solve per step."""
    pattern = timeline.pattern
    s_vals, t_vals, c_half = step_values(timeline)
    factors = factorize_rows(pattern, s_vals)
    n_time = timeline.time_grid.size
    dt = timeline.dt
    u = np.zeros((n_time, pattern.n))
    p = np.zeros((n_time, pattern.n))
    u[0], p[0] = u0, p0
    loads = dt * 0.5 * (f.values[:-1] + f.values[1:])
    for n in range(n_time - 1):
        rhs = pattern.matvec(t_vals[n], u[n]) + 2.0 * p[n] + loads[n]
        u[n + 1] = factors[n].solve(rhs)
        p[n + 1] = (2.0 / dt) * pattern.matvec(c_half[n], u[n + 1] - u[n]) - p[n]
    return u, p


def one_at_a_time_derivative(disc, point, direction, base):
    """The derivative recursion for a single direction, as a per-step loop."""
    record = base.solve
    timeline = record.timeline
    pattern = timeline.pattern
    tlh = wi.assemble_direction(disc, point, direction)
    n_steps = timeline.time_grid.size - 1
    two_dt = 2.0 / timeline.dt
    factors, t_vals, c_half = record.factors, record.t_vals, record.c_half
    u = base.u
    s_dot, t_dot, c_dot = step_values(tlh)
    b = pattern.apply((t_dot, u[:-1])) - pattern.apply((s_dot, u[1:]))
    c = two_dt * pattern.apply((c_dot, u[1:] - u[:-1]))
    eta = np.zeros_like(u)
    pi = np.zeros_like(u)
    for n in range(n_steps):
        eta[n + 1] = factors[n].solve(pattern.matvec(t_vals[n], eta[n]) + 2.0 * pi[n] + b[n])
        pi[n + 1] = two_dt * pattern.matvec(c_half[n], eta[n + 1] - eta[n]) - pi[n] + c[n]
    c_factors = record.c_factors
    vb, vh = timeline.values, tlh.values
    deta = solve_each(c_factors, pi - pattern.apply((vh["C"], base.du)))
    resid = -pattern.apply(
        (vh["A"], base.u), (vh["B"], base.du), (vh["Q"], base.u), (vh["C"], base.ddu),
        (vb["A"], eta), (vb["B"], deta), (vb["Q"], eta),
        (tlh.rate("C"), base.du), (timeline.rate("C"), deta),
    )
    return eta, deta, solve_each(c_factors, resid)


def loop_adjoint(disc, point, v, base):
    """The discrete adjoint with its backward recursion as a per-step loop."""
    record = base.solve
    timeline = record.timeline
    pattern = timeline.pattern
    tg = timeline.time_grid
    n_steps = tg.size - 1
    dt = timeline.dt
    two_dt = 2.0 / dt
    factors, t_vals = record.factors, record.t_vals
    c_vals = two_dt * record.c_half
    u = base.u
    seeds = _adjoint_seeds(disc, v, tg)
    p = seeds[n_steps].copy()
    q = np.zeros_like(p)
    beta = np.empty((n_steps, disc.n_free))
    gamma = np.empty((n_steps, disc.n_free))
    for n in range(n_steps - 1, -1, -1):
        cq = pattern.matvec(c_vals[n], q)
        r = factors[n].solve(p + cq)
        beta[n] = r
        gamma[n] = q
        p = seeds[n] + pattern.matvec(t_vals[n], r) - cq
        q = 2.0 * r - q
    du_step = u[1:] - u[:-1]
    su_step = u[:-1] + u[1:]
    aq = (-(dt / 2.0) * beta, su_step)
    pairs = {"A": aq, "Q": aq, "B": (-beta, du_step), "C": (two_dt * (gamma - beta), du_step)}
    w = wi.trapezoid_weights(tg)
    scale = 1.0 / (w[:, None] * disc.element_sizes[None, :])
    return _gradient(
        disc,
        point,
        tg,
        lambda kit, slot: _steps_to_nodes(kit.element_bilinear_many(*pairs[slot])) * scale,
    )


def assert_matches_oracle(disc, point, dirs, base, got):
    assert len(got) == len(dirs)
    for direction, traj in zip(dirs, got):
        eta, deta, ddeta = one_at_a_time_derivative(disc, point, direction, base)
        assert np.array_equal(traj.u, eta)
        assert np.array_equal(traj.du, deta)
        assert np.array_equal(traj.ddu, ddeta)
        assert traj.u.flags.c_contiguous and traj.du.flags.c_contiguous


def test_forward_march_matches_loop(instance):
    disc, point, f, u0, p0, base = instance
    u, p = loop_forward(base.solve.timeline, f, u0, p0)
    assert np.array_equal(base.u, u)
    assert np.array_equal(base.du, solve_each(base.solve.c_factors, p))


def test_derivative_apply_many_matches_one_at_a_time(instance):
    disc, point, f, u0, p0, base = instance
    dirs = directions(disc, 5)
    got = list(derivative_apply_many(disc, point, dirs, base))
    assert_matches_oracle(disc, point, dirs, base, got)
    single = derivative_apply(disc, point, dirs[1], base)
    assert_matches_oracle(disc, point, dirs[1:2], base, [single])


def test_directions_go_through_in_blocks(instance, monkeypatch):
    disc, point, f, u0, p0, base = instance
    per_direction = time_grid().size * disc.pattern.nnz * 8
    monkeypatch.setattr(sensitivity, "_BLOCK_BYTES", 2 * per_direction + 7)
    blocks = []
    assemble = sensitivity.assemble_direction

    def counted(disc, point, block):
        blocks.append(len(block))
        return assemble(disc, point, block)

    monkeypatch.setattr(sensitivity, "assemble_direction", counted)
    dirs = directions(disc, 5)
    got = derivative_apply_many(disc, point, iter(dirs), base)
    # a block is computed only when its first trajectory is taken
    assert blocks == []
    first = [next(got) for _ in range(3)]
    assert blocks == [2, 2]
    got = first + list(got)
    assert blocks == [2, 2, 1]
    assert_matches_oracle(disc, point, dirs, base, got)


def test_block_budget_bounds_the_value_arrays():
    budget = sensitivity._BLOCK_BYTES
    # the shipped svd_probe config (20 elements, 80 steps, 30 directions) and
    # the wave1d-inverse probe (20 elements, 40 steps, 20 directions): one block
    for n_time, k in ((81, 30), (41, 20)):
        nnz = wi.build_grid("wave1d", 20).pattern.nnz
        assert k * n_time * nnz * 8 <= budget
    # elastic2d at 16 x 16 and 200 steps: a direction's values alone fill the budget
    nnz = wi.build_grid("elastic2d", 16).pattern.nnz
    assert budget // (201 * nnz * 8) <= 1


def test_svd_probe_matches_one_at_a_time(wave_disc):
    tg = time_grid()
    point = varied_point(wave_disc, tg, amplitude=0.1)
    f = modal_source(wave_disc, tg)
    report = svd_probe(wave_disc, point, "a", f, time_knots=4, space_knots=3)
    base = wi.forward_map(wave_disc, point, f)
    t_basis = np.array([np.interp(tg, np.linspace(0, 1, 4), np.eye(4)[i]) for i in range(4)])
    knots = np.linspace(wave_disc.nodes.min(), wave_disc.nodes.max(), 3)
    s_basis = np.array([np.interp(wave_disc.nodes, knots, np.eye(3)[i]) for i in range(3)])
    chol = scipy.linalg.cholesky(wave_disc.M.toarray())
    sqrt_w = np.sqrt(wi.trapezoid_weights(tg))
    columns = np.column_stack([
        (sqrt_w[:, None] * (one_at_a_time_derivative(
            wave_disc, point, {"a": np.outer(t_row, s_row)}, base
        )[0] @ chol.T)).ravel()
        for t_row in t_basis
        for s_row in s_basis
    ])
    assert np.array_equal(report.singular_values, np.linalg.svd(columns, compute_uv=False))


def test_adjoint_discrete_matches_loop(instance):
    disc, point, f, u0, p0, base = instance
    rng = np.random.default_rng(3)
    v = wi.DataVector(rng.standard_normal(base.u.shape), time_grid())
    got = adjoint_apply_discrete(disc, point, v, base)
    want = loop_adjoint(disc, point, v, base)
    assert got.fields.keys() == want.fields.keys()
    for name in want.fields:
        assert np.array_equal(got.fields[name], want.fields[name])


def test_march_checks_its_shapes_once(instance):
    disc, point, f, u0, p0, base = instance
    record = base.solve
    pattern = disc.pattern
    steps = (record.factors, record.t_vals, record.c_half)
    n_time, n = base.u.shape
    good = (np.zeros((n_time, n, 2)), np.zeros((n_time, n, 2)), np.zeros((n_time - 1, n, 2)))
    evolve._march(pattern, *steps, 2.0, *good)
    bad_cases = [
        (np.zeros((n_time, n, 2)), np.zeros((n_time, n, 2)), np.zeros((n_time - 1, n))),
        (np.zeros((n_time, n, 2)), np.zeros((n_time, n, 3)), np.zeros((n_time - 1, n, 2))),
        (np.zeros((n_time - 1, n)), np.zeros((n_time - 1, n)), np.zeros((n_time - 1, n))),
        (np.zeros((n_time, n + 1)), np.zeros((n_time, n + 1)), np.zeros((n_time - 1, n + 1))),
    ]
    for x, y, b in bad_cases:
        with pytest.raises(ValueError):
            evolve._march(pattern, *steps, 2.0, x, y, b)
    with pytest.raises(ValueError):
        evolve._march(pattern, *steps, 2.0, *good, c=np.zeros((n_time - 1, n, 3)))
    with pytest.raises(ValueError):
        evolve._march(pattern, steps[0], steps[1][:, :-1], steps[2], 2.0, *good)
    with pytest.raises(ValueError):
        pattern.kernel(record.t_vals, np.zeros((n, 2, 2)))
