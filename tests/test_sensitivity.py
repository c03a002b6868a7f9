"""Exact discrete derivative, both adjoints, and the parameter pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

import waveinv as wi
from waveinv.errors import (
    DegenerateTestError,
    DirectionShapeError,
    ObservationError,
    RequiresForwardSolveError,
)
from waveinv.forward import data_load
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

from conftest import direction_timeline, modal_source, smooth_direction, varied_point


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
    cbar = direction_timeline(wave_disc, point, direction)
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


#: directions that break the rule of ``galerkin.check_direction``, as
#: functions of (time nodes, mesh nodes, point)
BAD_DIRECTIONS = {
    "parameter-field": lambda nt, n, point: {"a": point.fields["a"]},
    "none": lambda nt, n, point: {"a": None},
    "single-time-row": lambda nt, n, point: {"a": np.ones((1, n))},
    "no-time-axis": lambda nt, n, point: {"a": np.ones(n)},
    "unknown-field": lambda nt, n, point: {"lam": np.ones((nt, n))},
    "nan-table": lambda nt, n, point: {"a": np.full((nt, n), np.nan)},
    "not-a-mapping": lambda nt, n, point: np.ones((nt, n)),
}


@pytest.mark.parametrize("bad", sorted(BAD_DIRECTIONS))
@pytest.mark.parametrize(
    "name",
    ["assemble_direction", "derivative_apply", "shift_point", "parameter_pairing", "direction_norm"],
)
def test_every_function_taking_a_direction_rejects_a_bad_one(wave_disc, time_grid, name, bad):
    point, f, base = wave_base(wave_disc, time_grid)
    n_el = wave_disc.elements.shape[0]
    grad = wi.GradientFields(
        wave_disc, {n: np.ones((time_grid.size, n_el)) for n in wi.FIELD_NAMES["wave1d"]}, time_grid
    )
    calls = {
        "assemble_direction": lambda h: wi.assemble_direction(wave_disc, point, [h]),
        "derivative_apply": lambda h: derivative_apply(wave_disc, point, h, base),
        "shift_point": lambda h: shift_point(point, h, 0.1),
        "parameter_pairing": lambda h: parameter_pairing(grad, h),
        "direction_norm": lambda h: direction_norm(wave_disc, h, time_grid),
    }
    direction = BAD_DIRECTIONS[bad](time_grid.size, wave_disc.n_nodes, point)
    with pytest.raises(DirectionShapeError):
        calls[name](direction)


def test_a_single_direction_where_a_list_goes_is_rejected(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("a",))
    with pytest.raises(DirectionShapeError, match="maps field names to arrays"):
        wi.assemble_direction(wave_disc, point, direction)
    with pytest.raises(DirectionShapeError, match="maps field names to arrays"):
        list(derivative_apply_many(wave_disc, point, direction, base))


def test_derivative_requires_cached_solve(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    bare = wi.Trajectory(base.u, base.du, base.ddu, base.time_grid, wave_disc)
    with pytest.raises(RequiresForwardSolveError):
        derivative_apply(
            wave_disc, point, smooth_direction(wave_disc, time_grid, ("a",)), bare
        )


# ---------------------------------------------------------------------------
# the base must be the forward solve at the point


#: the sweeps that take a mesh and a point beside the solve; ``dot_test`` reads the solve's own
SWEEPS = [
    "derivative_apply",
    "derivative_apply_many",
    "adjoint_apply_discrete",
    "adjoint_apply_continuous",
]


def sweep(name, disc, tg):
    """The sensitivity entry point ``name`` as a call on (point, base); ``dot_test``
    takes the point of the base."""
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
        "dot_test": lambda point, base: dot_test(direction, v, base=base),
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
    mu = point.fields["mu"]
    kept = mu.values
    with pytest.raises(ValueError, match="read-only"):
        kept[4, 3] += 1e-9
    moved = kept.copy()
    moved[4, 3] += 1e-9
    mu.values = moved
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        call(point, base)
    mu.values = kept.copy()
    call(point, base)  # the values of the solve again, in another array
    point.fields["eps"].values = point.fields["eps"].values[:, ::-1].copy()
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        call(point, base)


@pytest.mark.parametrize("name", SWEEPS)
def test_a_write_into_the_time_grid_after_the_solve_is_caught(name):
    disc, tg, point, f, base = solved("wave1d")
    call = sweep(name, disc, tg)
    with pytest.raises(ValueError, match="read-only"):
        point.time_grid[:] *= 2.0
    for field in point.fields.values():
        field.time_grid = field.time_grid * 2.0
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        call(point, base)


@pytest.mark.parametrize("name", SWEEPS + ["dot_test"])
def test_a_base_on_a_hand_built_timeline_is_rejected(name):
    disc, tg, point, f, base = solved("wave1d")
    tl = base.solve.timeline
    hand = wi.galerkin.OperatorTimeline(tl.disc, tl.time_grid, tl.values)
    with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
        sweep(name, disc, tg)(point, wi.solve_forward(hand, f))
    with pytest.raises(RequiresForwardSolveError, match="call forward_map first"):
        sweep(name, disc, tg)(point, base - base)


@pytest.mark.parametrize("name", SWEEPS)
def test_a_base_solved_on_another_mesh_is_rejected(name):
    # the same node count on twice the extent: every array has the shapes of the solve's
    disc, tg, point, f, base = solved("wave1d", 8)
    other = wi.build_grid("wave1d", 8, 2.0)
    sweep(name, disc, tg)(point, base)  # the mesh of the solve is accepted
    with pytest.raises(RequiresForwardSolveError, match="on this mesh"):
        sweep(name, other, tg)(point, base)
    # an equal mesh built anew is another mesh
    with pytest.raises(RequiresForwardSolveError, match="on this mesh"):
        sweep(name, wi.build_grid("wave1d", 8), tg)(point, base)


def test_energy_monitor_measures_the_source_on_the_solve_mesh():
    disc, tg, point, f, base = solved("wave1d", 8)

    def stability_ratio(mesh):  # max E / ||f||^2, the source measured through mesh's M^-1
        inverse_mass = splu(mesh.M.tocsc()).solve(f.values.T)
        total = float(wi.trapezoid_weights(tg) @ np.einsum("ni,in->n", f.values, inverse_mass))
        return float(report.energies.max()) / total

    report = wi.energy_monitor(base)
    assert report.lambda_hat == stability_ratio(disc)
    assert report.lambda_hat != stability_ratio(wi.build_grid("wave1d", 8, 2.0))


@pytest.mark.parametrize("name", ["dot_test", "taylor_test", "energy_monitor", "data_load"])
def test_the_tests_of_a_solve_need_its_record(name):
    disc, tg, point, f, base = solved("wave1d")
    direction = smooth_direction(disc, tg, wi.FIELD_NAMES["wave1d"])
    v = wi.DataVector(np.ones((tg.size, disc.n_free)), tg)
    call = {
        "dot_test": lambda b: dot_test(direction, v, base=b),
        "taylor_test": lambda b: taylor_test(direction, [1e-1, 1e-2], base=b),
        "energy_monitor": lambda b: wi.energy_monitor(b).energies,
        "data_load": lambda b: data_load(v, b),
    }[name]
    call(base)  # the forward solve is accepted
    for bare in (base - base, derivative_apply(disc, point, direction, base)):
        with pytest.raises(RequiresForwardSolveError, match="call forward_map first"):
            call(bare)
    tl = base.solve.timeline
    hand = wi.galerkin.OperatorTimeline(tl.disc, tl.time_grid, tl.values)
    hand_solve = wi.solve_forward(hand, f)
    if name in ("energy_monitor", "data_load"):  # read the solve's mesh, not its point
        assert np.array_equal(call(hand_solve), call(base))
    else:
        with pytest.raises(RequiresForwardSolveError, match="not solved at this point"):
            call(hand_solve)


# ---------------------------------------------------------------------------
# pairing and representatives


def test_parameter_pairing_oracle(wave_disc, time_grid):
    rng = np.random.default_rng(5)
    n_el = wave_disc.elements.shape[0]
    dens = rng.standard_normal((time_grid.size, n_el))
    grad = wi.GradientFields(wave_disc, {"a": dens}, time_grid)
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
    assert parameter_pairing(grad, {"a": h}) == pytest.approx(
        manual, rel=1e-13
    )


def test_nodal_gradient_is_exact_riesz_representative(wave_disc, time_grid):
    rng = np.random.default_rng(6)
    n_el = wave_disc.elements.shape[0]
    grad = wi.GradientFields(
        wave_disc,
        {"a": rng.standard_normal((time_grid.size, n_el)),
         "q": rng.standard_normal((time_grid.size, n_el))},
        time_grid,
    )
    nodal = nodal_gradient(grad)
    wts = wi.trapezoid_weights(time_grid)
    for _ in range(3):
        h = {name: rng.standard_normal((time_grid.size, wave_disc.n_nodes))
             for name in ("a", "q")}
        nodal_side = sum(
            float(np.einsum("n,ni,i->", wts, nodal[name] * h[name],
                            wave_disc.lumped_node_measure))
            for name in ("a", "q")
        )
        assert parameter_pairing(grad, h) == pytest.approx(
            nodal_side, rel=1e-12
        )


def test_pairing_cauchy_schwarz(wave_disc, time_grid):
    rng = np.random.default_rng(7)
    n_el = wave_disc.elements.shape[0]
    grad = wi.GradientFields(
        wave_disc, {"b": rng.standard_normal((time_grid.size, n_el))}, time_grid
    )
    h = {"b": rng.standard_normal((time_grid.size, wave_disc.n_nodes))}
    lhs = abs(parameter_pairing(grad, h))
    rhs = gradient_norm(grad) * direction_norm(wave_disc, h, time_grid)
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
    assert dot_test(direction, v, base=base) <= 1e-12


def test_dot_test_discrete_elastic(elastic_disc, time_grid):
    point = varied_point(elastic_disc, time_grid)
    f = modal_source(elastic_disc, time_grid)
    base = wi.forward_map(elastic_disc, point, f)
    direction = smooth_direction(elastic_disc, time_grid, ("lam", "mu", "rho"))
    rng = np.random.default_rng(9)
    v = wi.DataVector(
        rng.standard_normal((time_grid.size, elastic_disc.n_free)), time_grid
    )
    assert dot_test(direction, v, base=base) <= 1e-12


def test_dot_test_discrete_maxwell(maxwell_disc, time_grid):
    point = varied_point(maxwell_disc, time_grid)
    f = modal_source(maxwell_disc, time_grid)
    base = wi.forward_map(maxwell_disc, point, f)
    direction = smooth_direction(maxwell_disc, time_grid, ("eps", "mu"))
    rng = np.random.default_rng(10)
    v = wi.DataVector(
        rng.standard_normal((time_grid.size, maxwell_disc.n_free)), time_grid
    )
    assert dot_test(direction, v, base=base) <= 1e-12


def test_dot_test_discrete_subset_observation(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("rho",))
    spec = wi.ObservationSpec(kind="node-subset", indices=[2, 7], weights=[1.0, 3.0])
    rng = np.random.default_rng(11)
    v = wi.DataVector(rng.standard_normal((time_grid.size, 2)), time_grid, spec)
    assert dot_test(direction, v, base=base) <= 1e-12


def subset_data(tg, indices):
    spec = wi.ObservationSpec(kind="node-subset", indices=indices)
    return wi.DataVector(np.ones((tg.size, len(indices))), tg, spec)


#: data that do not pair with the observation of a base solved on the time
#: grid ``tg`` with ``n`` free DOFs, by (tg, n)
UNPAIRED_DATA = {
    "another-grid-of-the-same-size": lambda tg, n: wi.DataVector(
        np.ones((tg.size, n)), np.linspace(0.0, 5.0, tg.size)
    ),
    "one-row": lambda tg, n: wi.DataVector(np.ones((1, n)), tg[:1]),
    "17-rows": lambda tg, n: wi.DataVector(np.ones((17, n)), tg[::2]),
    "3-columns": lambda tg, n: wi.DataVector(np.ones((tg.size, 3)), tg),
    "subset-index-past-the-mesh": lambda tg, n: subset_data(tg, [2, 40]),
    # refused where it enters: a spec cannot be changed once it is built
    "negative-subset-index": lambda tg, n: subset_data(tg, [2, -1]),
}


@pytest.mark.parametrize("case", sorted(UNPAIRED_DATA))
@pytest.mark.parametrize("adjoint", [adjoint_apply_discrete, adjoint_apply_continuous])
def test_both_adjoints_reject_data_that_do_not_pair_with_the_base(adjoint, case):
    disc = wi.build_grid("wave1d", 8)
    tg = np.linspace(0.0, 1.0, 33)
    point, f, base = wave_base(disc, tg)
    with pytest.raises(ObservationError):
        adjoint(disc, point, UNPAIRED_DATA[case](tg, disc.n_free), base)


def test_dot_test_discrete_repeated_subset_index(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("a", "q"))
    spec = wi.ObservationSpec(kind="node-subset", indices=[4, 4, 9], weights=[1.0, 2.0, 0.5])
    rng = np.random.default_rng(12)
    v = wi.DataVector(rng.standard_normal((time_grid.size, 3)), time_grid, spec)
    assert dot_test(direction, v, base=base) <= 1e-12


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
        mismatches.append(dot_test(direction, v, mode="continuous", base=base))
    orders = np.log2(np.array(mismatches[:-1]) / np.array(mismatches[1:]))
    assert np.all(orders > 1.5)
    assert mismatches[-1] < mismatches[0]


def test_dot_test_error_paths(wave_disc, time_grid):
    point, f, base = wave_base(wave_disc, time_grid)
    direction = smooth_direction(wave_disc, time_grid, ("a",))
    v = wi.DataVector(np.ones((time_grid.size, wave_disc.n_free)), time_grid)
    with pytest.raises(TypeError, match="base"):
        dot_test(direction, v)
    with pytest.raises(DegenerateTestError, match="'discrete' or 'continuous'"):
        dot_test(direction, v, mode="sideways", base=base)
    zero_dir = {"a": np.zeros((time_grid.size, wave_disc.n_nodes))}
    zero_v = wi.DataVector(np.zeros((time_grid.size, wave_disc.n_free)), time_grid)
    with pytest.raises(DegenerateTestError):
        dot_test(zero_dir, zero_v, base=base)


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
        report = taylor_test(direction, s_values, base=base)
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
    assert dot_test(direction, v, base=base) <= 1e-11
