"""Time integration: midpoint scheme, adjoint-in-time solve, diagnostics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import waveinv as wi
from waveinv.errors import DirectionShapeError, RegularityError
from waveinv.evolve import reverse_timeline

from conftest import varied_point


def single_dof_setup(n_steps, a=1.0, b=0.0, rho=3.0, t_end=1.0):
    """A genuinely one-dimensional system: 2 elements leave one free node.

    With h = 1/2 the free-node mass is 1/3 and the stiffness 4, so rho = 3
    gives C = 1 and the scalar equation is u'' + (b/3) u' + 4 a u = f.
    """
    disc = wi.build_grid("wave1d", 2)
    tg = np.linspace(0.0, t_end, n_steps + 1)
    point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=a, b=b, q=0.0, rho=rho
    )
    timeline = wi.assemble_operators(disc, point)
    return disc, tg, timeline


# ---------------------------------------------------------------------------
# conservation and dissipation


def test_oscillator_energy_flat():
    # C = 1, A = 4: harmonic oscillator at frequency 2
    disc, tg, tl = single_dof_setup(400)
    f = wi.SourceTerm.zero(tg.size, 1)
    traj = wi.solve_forward(tl, f, u0=np.array([1.0]))
    report = wi.energy_monitor(traj, tl)
    assert report.max_relative_drift <= 1e-12
    energies = report.energies
    assert energies[0] == pytest.approx(0.5 * 4.0)


def test_oscillator_second_order_in_dt():
    errors = []
    for n in (40, 80, 160):
        disc, tg, tl = single_dof_setup(n)
        f = wi.SourceTerm.zero(tg.size, 1)
        traj = wi.solve_forward(tl, f, u0=np.array([1.0]))
        errors.append(np.abs(traj.u[:, 0] - np.cos(2.0 * tg)).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.9)


def test_damped_scalar_second_order_in_dt():
    # u'' + 0.3 u' + 2 u = sin t + 0.3 cos t + sin t has the exact solution
    # sin t; a wrong damping placement in the half-step matrices would wreck
    # the rate, so this doubles as a regression guard for the scheme.
    errors = []
    for n in (40, 80, 160):
        disc, tg, tl = single_dof_setup(n, a=0.5, b=0.9)
        f = wi.SourceTerm((np.sin(tg) + 0.3 * np.cos(tg))[:, None])
        traj = wi.solve_forward(tl, f, u1=np.array([1.0]))
        errors.append(np.abs(traj.u[:, 0] - np.sin(tg)).max())
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.9)


def test_damped_energy_monotone():
    disc, tg, tl = single_dof_setup(200, b=3.0)
    f = wi.SourceTerm.zero(tg.size, 1)
    traj = wi.solve_forward(tl, f, u0=np.array([1.0]))
    report = wi.energy_monitor(traj, tl)
    assert report.monotone_nonincreasing
    assert report.energies[-1] < report.energies[0]


def test_energy_includes_potential_term():
    # with an undamped potential the conserved quadratic is
    # du.C du + u.(A+Q)u; dropping Q would show a spurious drift
    disc = wi.build_grid("wave1d", 20)
    tg = np.linspace(0.0, 2.0, 201)
    point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.0, q=0.3, rho=1.0
    )
    tl = wi.assemble_operators(disc, point)
    u0 = np.sin(np.pi * disc.nodes[disc.free_nodes])
    f = wi.SourceTerm.zero(tg.size, disc.n_free)
    traj = wi.forward_map(disc, point, f, u0=u0)
    report = wi.energy_monitor(traj, tl)
    assert report.max_relative_drift <= 1e-12
    assert report.monotone_nonincreasing


def test_energy_monitor_reports_empirical_stability(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    f = wi.make_source(wave_disc, time_grid, lambda t, x: t**2 * np.sin(np.pi * x))
    tl = wi.assemble_operators(wave_disc, point)
    traj = wi.solve_forward(tl, f)
    report = wi.energy_monitor(traj, tl, f=f, disc=wave_disc)
    assert report.lambda_hat is not None and report.lambda_hat > 0
    assert report.energies.shape == time_grid.shape


# ---------------------------------------------------------------------------
# manufactured solutions


def wave_mms_parts(n_elements, n_steps):
    disc = wi.build_grid("wave1d", n_elements)
    tg = np.linspace(0.0, 1.0, n_steps + 1)
    point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0
    )
    tl = wi.assemble_operators(disc, point)
    f = wi.make_source(
        disc, tg, lambda t, x: (np.pi**2 - 1.0) * np.sin(np.pi * x) * np.sin(t)
    )
    u1 = wi.momentum_from_velocity(tl, np.sin(np.pi * disc.nodes[disc.free_nodes]))
    return disc, tg, tl, f, u1


def test_wave_mms_dt_order():
    disc, tg_ref, tl_ref, f_ref, u1_ref = wave_mms_parts(16, 1280)
    ref = wi.solve_forward(tl_ref, f_ref, u1=u1_ref)
    errors = []
    for n in (20, 40, 80):
        disc_n, tg, tl, f, u1 = wave_mms_parts(16, n)
        traj = wi.solve_forward(tl, f, u1=u1)
        stride = 1280 // n
        diff = traj.u - ref.u[::stride]
        errors.append(
            max(np.sqrt(d @ (disc.M @ d)) for d in diff)
        )
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.85)


def test_wave_mms_h_order():
    errors = []
    for n_el in (4, 8, 16):
        disc, tg, tl, f, u1 = wave_mms_parts(n_el, 4 * n_el)
        traj = wi.solve_forward(tl, f, u1=u1)
        exact = np.outer(np.sin(tg), np.sin(np.pi * disc.nodes[disc.free_nodes]))
        diff = traj.u - exact
        errors.append(max(np.sqrt(d @ (disc.M @ d)) for d in diff))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.85)


# ---------------------------------------------------------------------------
# dense monolithic oracle


def dense_midpoint_oracle(tl, f, u0, p0):
    """Step the first-order (state, momentum) system with dense block solves.

    This re-derives the midpoint update from scratch on averaged-interval
    operators, independently of the sparse factorized recursion.
    """
    n_time = tl.time_grid.size
    m = tl.matrix("C", 0).shape[0]
    dt = tl.dt
    eye = np.eye(m)
    u = np.empty((n_time, m))
    p = np.empty((n_time, m))
    u[0], p[0] = u0, p0
    for n in range(n_time - 1):
        ch = (tl.matrix("C", n).toarray() + tl.matrix("C", n + 1).toarray()) / 2.0
        bh = (tl.matrix("B", n).toarray() + tl.matrix("B", n + 1).toarray()) / 2.0
        aqh = (
            tl.matrix("A", n).toarray() + tl.matrix("Q", n).toarray()
            + tl.matrix("A", n + 1).toarray() + tl.matrix("Q", n + 1).toarray()
        ) / 2.0
        fbar = (f.values[n] + f.values[n + 1]) / 2.0
        block = np.block([[ch / dt, -eye / 2.0], [bh / dt + aqh / 2.0, eye / dt]])
        rhs = np.concatenate([
            ch @ u[n] / dt + p[n] / 2.0,
            fbar + bh @ u[n] / dt - aqh @ u[n] / 2.0 + p[n] / dt,
        ])
        sol = np.linalg.solve(block, rhs)
        u[n + 1], p[n + 1] = sol[:m], sol[m:]
    return u


def test_wave_solver_matches_dense_oracle():
    disc = wi.build_grid("wave1d", 6)
    tg = np.linspace(0.0, 0.8, 25)
    point = varied_point(disc, tg)
    tl = wi.assemble_operators(disc, point)
    f = wi.make_source(disc, tg, lambda t, x: np.sin(2.0 * t) * x * (1 - x))
    traj = wi.solve_forward(tl, f)
    oracle = dense_midpoint_oracle(tl, f, np.zeros(disc.n_free), np.zeros(disc.n_free))
    assert np.abs(traj.u - oracle).max() <= 1e-12


def test_elastic_solver_matches_dense_oracle(elastic_disc):
    tg = np.linspace(0.0, 0.6, 21)
    point = wi.ParameterPoint.from_constants(
        "elastic2d", tg, elastic_disc.n_nodes, lam=1.2, mu=0.9, rho=1.1
    )
    point.fields["rho"].values += 0.2 * np.outer(
        np.sin(tg), np.cos(np.pi * elastic_disc.nodes[:, 0])
    )
    tl = wi.assemble_operators(elastic_disc, point)

    def fn(t, x, y):
        comp = np.zeros((x.size, 2))
        comp[:, 0] = np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(3.0 * t)
        comp[:, 1] = x * (1 - x) * y * (1 - y) * np.cos(2.0 * t)
        return comp

    f = wi.make_source(elastic_disc, tg, fn)
    traj = wi.solve_forward(tl, f)
    oracle = dense_midpoint_oracle(
        tl, f, np.zeros(elastic_disc.n_free), np.zeros(elastic_disc.n_free)
    )
    assert np.abs(traj.u - oracle).max() <= 1e-12


# ---------------------------------------------------------------------------
# velocity and acceleration recovery


def test_velocity_and_acceleration_recovery():
    # for u = sin(t) on the single-DOF damped system the recovered du and
    # ddu must converge to cos and -sin at second order
    errors_du, errors_ddu = [], []
    for n in (40, 80, 160):
        disc, tg, tl = single_dof_setup(n, a=0.5, b=0.9)
        f = wi.SourceTerm((np.sin(tg) + 0.3 * np.cos(tg))[:, None])
        traj = wi.solve_forward(tl, f, u1=np.array([1.0]))
        errors_du.append(np.abs(traj.du[:, 0] - np.cos(tg)).max())
        errors_ddu.append(np.abs(traj.ddu[:, 0] + np.sin(tg)).max())
    for errs in (errors_du, errors_ddu):
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8)


def test_solver_cache_exposed(wave_disc, time_grid, wave_point):
    tl = wi.assemble_operators(wave_disc, wave_point)
    f = wi.make_source(wave_disc, time_grid, lambda t, x: t * np.sin(np.pi * x))
    traj = wi.solve_forward(tl, f)
    record = traj.solve
    assert record.timeline is tl
    assert len(record.factors) == len(record.t_vals) == len(record.c_half) == time_grid.size - 1
    assert len(record.c_factors) == time_grid.size


# ---------------------------------------------------------------------------
# adjoint-in-time solve


def test_backward_zero_source_is_zero(wave_disc, time_grid, wave_point):
    tl = wi.assemble_operators(wave_disc, wave_point)
    v = wi.SourceTerm.zero(time_grid.size, wave_disc.n_free)
    adj = wi.solve_backward(tl, v)
    assert np.all(adj.u == 0.0) and np.all(adj.du == 0.0)


def test_backward_reflection_oracle(wave_disc, time_grid):
    # without damping and with constant coefficients, a time-symmetric source
    # makes the end-condition solve the exact mirror of the forward solve
    point = wi.ParameterPoint.from_constants(
        "wave1d", time_grid, wave_disc.n_nodes, a=1.3, b=0.0, q=0.4, rho=0.8
    )
    tl = wi.assemble_operators(wave_disc, point)
    v = wi.make_source(
        wave_disc, time_grid, lambda t, x: np.sin(np.pi * t) * np.sin(np.pi * x)
    )
    forward = wi.solve_forward(tl, v)
    backward = wi.solve_backward(tl, v)
    assert np.abs(backward.u - forward.u[::-1]).max() <= 1e-11
    assert np.abs(backward.du + forward.du[::-1]).max() <= 1e-9


def test_backward_end_conditions():
    disc = wi.build_grid("wave1d", 10)
    tg = np.linspace(0.0, 1.0, 33)
    point = varied_point(disc, tg)
    tl = wi.assemble_operators(disc, point)
    v = wi.make_source(disc, tg, lambda t, x: np.cos(t) * x)
    adj = wi.solve_backward(tl, v)
    assert np.abs(adj.u[-1]).max() == 0.0
    assert np.abs(adj.du[-1]).max() <= 1e-14


def test_backward_pairing_second_order():
    # <forward(f), v> and <f, backward(v)> agree to O(dt^2) in the
    # mass-weighted trapezoid pairing, including with damping
    # sources with nonzero traces at both ends, so the O(dt^2) boundary
    # defect of the trapezoid pairing is actually visible
    mismatches = []
    for n in (20, 40, 80, 160):
        disc, tg, tl = single_dof_setup(n, a=0.7, b=1.2)
        wts = wi.trapezoid_weights(tg)
        f = wi.SourceTerm(np.cos(2.0 * tg)[:, None])
        v = wi.SourceTerm((1.0 + tg)[:, None])
        u = wi.solve_forward(tl, f).u[:, 0]
        w = wi.solve_backward(tl, v).u[:, 0]
        lhs = float(np.sum(wts * u * v.values[:, 0]))
        rhs = float(np.sum(wts * f.values[:, 0] * w))
        mismatches.append(abs(lhs - rhs))
    orders = np.log2(np.array(mismatches[:-1]) / np.array(mismatches[1:]))
    assert np.all(orders > 1.8)


def test_reverse_timeline_involution_without_damping(wave_disc, time_grid):
    point = wi.ParameterPoint.from_constants(
        "wave1d", time_grid, wave_disc.n_nodes, a=1.0, b=0.0, q=0.3, rho=1.0
    )
    tl = wi.assemble_operators(wave_disc, point)
    twice = reverse_timeline(reverse_timeline(tl))
    for n in (0, time_grid.size // 2, time_grid.size - 1):
        assert np.allclose(twice.matrix("A", n).toarray(), tl.matrix("A", n).toarray())
        assert np.allclose(twice.matrix("Q", n).toarray(), tl.matrix("Q", n).toarray())


# ---------------------------------------------------------------------------
# linearity (hypothesis)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(-3.0, 3.0), beta=st.floats(-3.0, 3.0))
def test_forward_solve_linear_in_source(alpha, beta):
    disc, tg, tl = single_dof_setup(16, b=0.5)
    f1 = wi.SourceTerm(np.sin(3.0 * tg)[:, None])
    f2 = wi.SourceTerm((tg**2)[:, None])
    combo = wi.SourceTerm(alpha * f1.values + beta * f2.values)
    u_combo = wi.solve_forward(tl, combo).u
    u_parts = alpha * wi.solve_forward(tl, f1).u + beta * wi.solve_forward(tl, f2).u
    assert np.abs(u_combo - u_parts).max() <= 1e-10 * max(1.0, abs(alpha) + abs(beta))


# ---------------------------------------------------------------------------
# compatibility diagnostics


def test_compatibility_zero_data_passes_all_levels(wave_disc, time_grid):
    f = wi.SourceTerm.zero(time_grid.size, wave_disc.n_free)
    for k in (0, 1, 2):
        report = wi.compatibility_check(f, None, None, k)
        assert report.passed, k


def test_compatibility_ramp_source_passes_level_two(wave_disc, time_grid):
    f = wi.make_source(wave_disc, time_grid, lambda t, x: t * np.sin(np.pi * x))
    report = wi.compatibility_check(f, None, None, 2)
    assert report.passed


def test_compatibility_constant_source_fails_level_two(wave_disc, time_grid):
    f = wi.make_source(wave_disc, time_grid, lambda t, x: np.ones_like(x))
    report = wi.compatibility_check(f, None, None, 2)
    assert not report.passed
    names = [c["name"] for c in report.failures()]
    assert any("f" in n and "0" in n for n in names)


def test_compatibility_initial_data_rule(wave_disc, time_grid):
    f = wi.SourceTerm.zero(time_grid.size, wave_disc.n_free)
    u0 = np.ones(wave_disc.n_free)
    assert wi.compatibility_check(f, u0, None, 0).passed
    assert not wi.compatibility_check(f, u0, None, 1).passed


def test_compatibility_rejects_unknown_level(wave_disc, time_grid):
    f = wi.SourceTerm.zero(time_grid.size, wave_disc.n_free)
    with pytest.raises(RegularityError, match="smoothness level"):
        wi.compatibility_check(f, None, None, 3)
    assert issubclass(RegularityError, ValueError)


# ---------------------------------------------------------------------------
# trajectory norms


def test_y_norm_levels_and_homogeneity(wave_disc, time_grid, wave_point):
    tl = wi.assemble_operators(wave_disc, wave_point)
    f = wi.make_source(wave_disc, time_grid, lambda t, x: t**2 * np.sin(np.pi * x))
    traj = wi.solve_forward(tl, f)
    n0 = wi.y_norm(traj, wave_disc, k=0)
    n1 = wi.y_norm(traj, wave_disc, k=1)
    assert 0 < n0 <= n1
    doubled = wi.Trajectory(
        2 * traj.u, 2 * traj.du, 2 * traj.ddu, traj.time_grid, traj.dt
    )
    assert wi.y_norm(doubled, wave_disc, k=1) == pytest.approx(2 * n1, rel=1e-12)


def test_y_norm_rejects_unknown_level(wave_disc, time_grid, wave_point):
    tl = wi.assemble_operators(wave_disc, wave_point)
    traj = wi.solve_forward(tl, wi.SourceTerm.zero(time_grid.size, wave_disc.n_free))
    with pytest.raises(RegularityError, match="norm level"):
        wi.y_norm(traj, wave_disc, k=2)


def test_source_validation():
    for bad in (np.zeros(5), np.full((4, 3), np.nan)):
        with pytest.raises(DirectionShapeError):
            wi.SourceTerm(bad)
    assert issubclass(DirectionShapeError, ValueError)


def test_source_rows_must_match_the_time_grid(wave_disc, time_grid, wave_point):
    tl = wi.assemble_operators(wave_disc, wave_point)
    for rows in (time_grid.size - 1, time_grid.size + 1):
        with pytest.raises(wi.ResolutionError):
            wi.solve_forward(tl, wi.SourceTerm.zero(rows, wave_disc.n_free))
