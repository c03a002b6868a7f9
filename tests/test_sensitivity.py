"""Exact discrete derivative, both adjoints, and the parameter pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waveinv as wi
from waveinv.errors import (
    DegenerateTestError,
    DirectionShapeError,
    ObservationError,
    RequiresForwardSolveError,
)
from waveinv.sensitivity import (
    adjoint_apply_continuous,
    adjoint_apply_discrete,
    derivative_apply,
    derivative_apply_many,
    direction_norm,
    dot_test,
    gradient_norm,
    nodal_gradient,
    parameter_pairing,
    shift_point,
    taylor_test,
)

from conftest import modal_source, smooth_direction, varied_point


def wave_base(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    f = modal_source(wave_disc, time_grid)
    return point, f, wi.forward_map(wave_disc, point, f)


# ---------------------------------------------------------------------------
# derivative


def test_derivative_matches_central_difference(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("a", "b", "rho", "q"))
    deriv = derivative_apply(wave_disc, point, direction, base)
    s = 1e-3
    up = wi.forward_map(wave_disc, shift_point(point, direction, s), f)
    dn = wi.forward_map(wave_disc, shift_point(point, direction, -s), f)
    fd = (up.u - dn.u) / (2.0 * s)
    scale = np.abs(fd).max()
    assert np.abs(deriv.u - fd).max() <= 1e-4 * scale


def test_derivative_linear_in_direction(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    h1 = smooth_direction(wave_disc, time_grid, ("a", "rho"))
    h2 = smooth_direction(wave_disc, time_grid, ("b", "q"), shift=2)
    combo = {name: 0.6 * arr for name, arr in h1.items()}
    combo.update({name: -1.4 * arr for name, arr in h2.items()})
    du_combo = derivative_apply(wave_disc, point, combo, base).u
    du_parts = (
        0.6 * derivative_apply(wave_disc, point, h1, base).u
        - 1.4 * derivative_apply(wave_disc, point, h2, base).u
    )
    assert np.abs(du_combo - du_parts).max() <= 1e-12


def test_derivative_initial_velocity_term(wave_disc, time_grid):
    # perturbing the C coefficient changes the initial velocity even though
    # the momentum datum is fixed: deta(0) = -C^{-1} Cbar du(0)
    point = varied_point(wave_disc, time_grid)
    f = modal_source(wave_disc, time_grid)
    tl = wi.assemble_operators(wave_disc, point)
    vel0 = np.sin(np.pi * wave_disc.nodes[wave_disc.free_nodes])
    u1 = wi.momentum_from_velocity(tl, vel0)
    base = wi.forward_map(wave_disc, point, f, u1=u1)
    direction = smooth_direction(wave_disc, time_grid, ("rho",))
    deriv = derivative_apply(wave_disc, point, direction, base)
    cbar = wi.assemble_direction(wave_disc, point, direction)
    expected = -np.linalg.solve(
        tl.matrix("C", 0).toarray(), cbar.matrix("C", 0) @ base.du[0]
    )
    assert np.abs(deriv.du[0] - expected).max() <= 1e-10
    assert np.abs(deriv.u[0]).max() == 0.0  # the state datum is fixed


def test_derivative_validates_direction(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    with pytest.raises(DirectionShapeError):
        derivative_apply(wave_disc, point, {"a": np.zeros((3, 3))}, base)
    with pytest.raises(DirectionShapeError):
        derivative_apply(
            wave_disc, point, {"lam": np.zeros((time_grid.size, wave_disc.n_nodes))}, base
        )


def test_derivative_requires_cached_solve(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    bare = wi.Trajectory(base.u, base.du, base.ddu, base.time_grid, base.dt)
    with pytest.raises(RequiresForwardSolveError):
        derivative_apply(
            wave_disc, point, smooth_direction(wave_disc, time_grid, ("a",)), bare
        )


# ---------------------------------------------------------------------------
# the base must be the forward solve at the point


SWEEPS = [
    "derivative_apply",
    "derivative_apply_many",
    "adjoint_apply_discrete",
    "adjoint_apply_continuous",
    "dot_test",
]


def sweep(name, disc, tg):
    """The sensitivity entry point ``name`` as a call on (point, base)."""
    direction = smooth_direction(disc, tg, wi.FIELD_NAMES[disc.problem])
    v = wi.DataVector(np.ones((tg.size, disc.n_free)), tg)
    calls = {
        "derivative_apply": lambda point, base: derivative_apply(disc, point, direction, base),
        # raises on the call, before any direction is read
        "derivative_apply_many": lambda point, base: derivative_apply_many(
            disc, point, iter([direction]), base
        ),
        "adjoint_apply_discrete": lambda point, base: adjoint_apply_discrete(disc, point, v, base),
        "adjoint_apply_continuous": lambda point, base: adjoint_apply_continuous(
            disc, point, v, base
        ),
        "dot_test": lambda point, base: dot_test(disc, point, direction, v, base=base),
    }
    return calls[name]


def solved(problem, n=6):
    disc = wi.build_grid(problem, n)
    tg = np.linspace(0.0, 1.0, 21)
    point = varied_point(disc, tg)
    f = modal_source(disc, tg)
    return disc, tg, point, f, wi.forward_map(disc, point, f)


@pytest.mark.parametrize("name", SWEEPS)
@pytest.mark.parametrize("problem", ["wave1d", "elastic2d", "maxwell1d"])
def test_a_base_solved_at_another_point_is_rejected(problem, name):
    disc, tg, point, f, base = solved(problem)
    call = sweep(name, disc, tg)
    call(point, base)  # the base of this point is accepted
    other = point.copy()
    first = wi.FIELD_NAMES[problem][0]
    other.fields[first].values = other.fields[first].values + 0.1
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        call(point, wi.forward_map(disc, other, f))
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        call(other, base)


@pytest.mark.parametrize("name", SWEEPS)
def test_a_write_into_the_point_after_the_solve_is_caught(name):
    disc, tg, point, f, base = solved("maxwell1d")
    call = sweep(name, disc, tg)
    mu = point.fields["mu"].values
    kept = mu[4, 3]
    mu[4, 3] = kept + 1e-9
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        call(point, base)
    mu[4, 3] = kept
    call(point, base)  # the values of the solve again
    point.fields["eps"].values = point.fields["eps"].values[:, ::-1].copy()
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        call(point, base)


@pytest.mark.parametrize("name", SWEEPS)
def test_a_base_on_a_hand_built_timeline_is_rejected(name):
    disc, tg, point, f, base = solved("wave1d")
    tl = base.solve.timeline
    hand = wi.galerkin.OperatorTimeline(tl.problem, tl.time_grid, tl.pattern, tl.values)
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        sweep(name, disc, tg)(point, wi.solve_forward(hand, f))
    with pytest.raises(RequiresForwardSolveError, match="call forward_map first"):
        sweep(name, disc, tg)(point, base - base)


# ---------------------------------------------------------------------------
# pairing and representatives


def test_parameter_pairing_oracle(wave_disc, time_grid):
    rng = np.random.default_rng(5)
    n_el = wave_disc.elements.shape[0]
    dens = rng.standard_normal((time_grid.size, n_el))
    grad = wi.GradientFields("wave1d", {"a": dens}, time_grid)
    h = rng.standard_normal((time_grid.size, wave_disc.n_nodes))
    wts = wi.trapezoid_weights(time_grid)
    manual = float(
        np.sum(
            wts[:, None]
            * dens
            * wave_disc.element_sizes[None, :]
            * wave_disc.element_means(h)
        )
    )
    assert parameter_pairing(wave_disc, grad, {"a": h}) == pytest.approx(
        manual, rel=1e-13
    )


def test_nodal_gradient_is_exact_riesz_representative(wave_disc, time_grid):
    rng = np.random.default_rng(6)
    n_el = wave_disc.elements.shape[0]
    grad = wi.GradientFields(
        "wave1d",
        {"a": rng.standard_normal((time_grid.size, n_el)),
         "q": rng.standard_normal((time_grid.size, n_el))},
        time_grid,
    )
    nodal = nodal_gradient(wave_disc, grad)
    wts = wi.trapezoid_weights(time_grid)
    for _ in range(3):
        h = {name: rng.standard_normal((time_grid.size, wave_disc.n_nodes))
             for name in ("a", "q")}
        nodal_side = sum(
            float(np.einsum("n,ni,i->", wts, nodal[name] * h[name],
                            wave_disc.lumped_node_measure))
            for name in ("a", "q")
        )
        assert parameter_pairing(wave_disc, grad, h) == pytest.approx(
            nodal_side, rel=1e-12
        )


def test_pairing_cauchy_schwarz(wave_disc, time_grid):
    rng = np.random.default_rng(7)
    n_el = wave_disc.elements.shape[0]
    grad = wi.GradientFields(
        "wave1d", {"b": rng.standard_normal((time_grid.size, n_el))}, time_grid
    )
    h = {"b": rng.standard_normal((time_grid.size, wave_disc.n_nodes))}
    lhs = abs(parameter_pairing(wave_disc, grad, h))
    rhs = gradient_norm(wave_disc, grad) * direction_norm(wave_disc, h, time_grid)
    assert lhs <= rhs * (1.0 + 1e-12)


def test_shift_point_arithmetic(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("a",))
    shifted = shift_point(point, direction, 0.25)
    assert np.allclose(
        shifted.fields["a"].values,
        point.fields["a"].values + 0.25 * direction["a"],
    )
    assert np.array_equal(shifted.fields["b"].values, point.fields["b"].values)


# ---------------------------------------------------------------------------
# adjoint consistency


def test_dot_test_discrete_wave(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("a", "b", "rho", "q"))
    rng = np.random.default_rng(8)
    v = wi.DataVector(
        rng.standard_normal((time_grid.size, wave_disc.n_free)), time_grid
    )
    assert dot_test(wave_disc, point, direction, v, base=base) <= 1e-12


def test_dot_test_discrete_elastic(elastic_disc, time_grid):
    point = varied_point(elastic_disc, time_grid)
    f = modal_source(elastic_disc, time_grid)
    base = wi.forward_map(elastic_disc, point, f)
    direction = smooth_direction(elastic_disc, time_grid, ("lam", "mu", "rho"))
    rng = np.random.default_rng(9)
    v = wi.DataVector(
        rng.standard_normal((time_grid.size, elastic_disc.n_free)), time_grid
    )
    assert dot_test(elastic_disc, point, direction, v, base=base) <= 1e-12


def test_dot_test_discrete_maxwell(maxwell_disc, time_grid):
    point = varied_point(maxwell_disc, time_grid)
    f = modal_source(maxwell_disc, time_grid)
    base = wi.forward_map(maxwell_disc, point, f)
    direction = smooth_direction(maxwell_disc, time_grid, ("eps", "mu"))
    rng = np.random.default_rng(10)
    v = wi.DataVector(
        rng.standard_normal((time_grid.size, maxwell_disc.n_free)), time_grid
    )
    assert dot_test(maxwell_disc, point, direction, v, base=base) <= 1e-12


def test_dot_test_discrete_subset_observation(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("rho",))
    spec = wi.ObservationSpec(kind="node-subset", indices=[2, 7], weights=[1.0, 3.0])
    rng = np.random.default_rng(11)
    v = wi.DataVector(rng.standard_normal((time_grid.size, 2)), time_grid, spec)
    assert dot_test(wave_disc, point, direction, v, base=base) <= 1e-12


@pytest.mark.parametrize("indices", [[2, 50], [2, -1]])
def test_subset_indices_checked_against_the_mesh(time_grid, indices):
    disc = wi.build_grid("wave1d", 10)  # 9 free DOFs
    point, f, base = wave_base(disc, time_grid)
    spec = wi.ObservationSpec(kind="node-subset", indices=indices)
    v = wi.DataVector(np.ones((time_grid.size, 2)), time_grid, spec)
    with pytest.raises(ObservationError):
        adjoint_apply_discrete(disc, point, v, base)


def test_dot_test_discrete_repeated_subset_index(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("a", "q"))
    spec = wi.ObservationSpec(kind="node-subset", indices=[4, 4, 9], weights=[1.0, 2.0, 0.5])
    rng = np.random.default_rng(12)
    v = wi.DataVector(rng.standard_normal((time_grid.size, 3)), time_grid, spec)
    assert dot_test(wave_disc, point, direction, v, base=base) <= 1e-12


def test_dot_test_continuous_converges():
    mismatches = []
    for n in (40, 80, 160):
        disc = wi.build_grid("wave1d", 10)
        tg = np.linspace(0.0, 1.0, n + 1)
        point = varied_point(disc, tg)
        f = modal_source(disc, tg)
        base = wi.forward_map(disc, point, f)
        direction = smooth_direction(disc, tg, ("a", "b", "rho", "q"))
        v_field = wi.make_source(disc, tg, lambda t, x: np.sin(np.pi * x) * np.cos(t))
        v = wi.DataVector(v_field.values, tg)
        mismatches.append(
            dot_test(disc, point, direction, v, mode="continuous", base=base)
        )
    orders = np.log2(np.array(mismatches[:-1]) / np.array(mismatches[1:]))
    assert np.all(orders > 1.5)
    assert mismatches[-1] < mismatches[0]


def test_dot_test_error_paths(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("a",))
    v = wi.DataVector(np.ones((time_grid.size, wave_disc.n_free)), time_grid)
    with pytest.raises(RequiresForwardSolveError):
        dot_test(wave_disc, point, direction, v)
    with pytest.raises(DegenerateTestError, match="'discrete' or 'continuous'"):
        dot_test(wave_disc, point, direction, v, mode="sideways", base=base)
    zero_dir = {"a": np.zeros((time_grid.size, wave_disc.n_nodes))}
    zero_v = wi.DataVector(np.zeros((time_grid.size, wave_disc.n_free)), time_grid)
    with pytest.raises(DegenerateTestError):
        dot_test(wave_disc, point, zero_dir, zero_v, base=base)


def test_continuous_adjoint_needs_full_field(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    spec = wi.ObservationSpec(kind="node-subset", indices=[1])
    v = wi.DataVector(np.ones((time_grid.size, 1)), time_grid, spec)
    with pytest.raises(ObservationError):
        adjoint_apply_continuous(wave_disc, point, v, base)


def test_gradient_fields_layout(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    rng = np.random.default_rng(12)
    v = wi.DataVector(
        rng.standard_normal((time_grid.size, wave_disc.n_free)), time_grid
    )
    grad = adjoint_apply_discrete(wave_disc, point, v, base)
    assert set(grad.fields) == {"a", "b", "rho", "q"}
    n_el = wave_disc.elements.shape[0]
    for dens in grad.fields.values():
        assert dens.shape == (time_grid.size, n_el)


def test_adjoints_agree_at_fine_resolution():
    disc = wi.build_grid("wave1d", 10)
    tg = np.linspace(0.0, 1.0, 201)
    point = varied_point(disc, tg)
    f = modal_source(disc, tg)
    base = wi.forward_map(disc, point, f)
    v_field = wi.make_source(disc, tg, lambda t, x: np.sin(np.pi * x) * np.cos(2 * t))
    v = wi.DataVector(v_field.values, tg)
    g_disc = adjoint_apply_discrete(disc, point, v, base)
    g_cont = adjoint_apply_continuous(disc, point, v, base)
    for name in g_disc.fields:
        scale = np.abs(g_disc.fields[name]).max()
        gap = np.abs(g_disc.fields[name] - g_cont.fields[name]).max()
        assert gap <= 5e-2 * max(scale, 1e-12), name


# ---------------------------------------------------------------------------
# Taylor remainders


def test_taylor_orders(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    f = modal_source(wave_disc, time_grid)
    base = wi.forward_map(wave_disc, point, f)
    s_values = (1e-1, 1e-2, 1e-3)
    for name in ("a", "b", "rho", "q"):
        direction = smooth_direction(wave_disc, time_grid, (name,), scale=0.5)
        report = taylor_test(
            wave_disc, point, direction, f, s_values, base=base
        )
        assert report.order > 1.9, name
        assert np.all(np.diff(report.remainders) < 0)


@settings(max_examples=10, deadline=None)
@given(scale=st.floats(0.1, 0.7), seed=st.integers(0, 100))
def test_dot_test_discrete_random_pairs(scale, seed):
    disc = wi.build_grid("wave1d", 6)
    tg = np.linspace(0.0, 1.0, 17)
    point = varied_point(disc, tg)
    f = modal_source(disc, tg)
    base = wi.forward_map(disc, point, f)
    rng = np.random.default_rng(seed)
    direction = {
        name: scale * rng.standard_normal((tg.size, disc.n_nodes))
        for name in ("a", "b", "rho", "q")
    }
    v = wi.DataVector(rng.standard_normal((tg.size, disc.n_free)), tg)
    assert dot_test(disc, point, direction, v, base=base) <= 1e-11
