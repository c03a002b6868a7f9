"""End-to-end acceptance suite: nine numbered criteria, one verdict line each.

Every test reconstructs its instance from scratch (fixed seeds, no shared
state), checks the criterion at its stated tolerance, and prints a single
``[criterion N] ...: PASS`` / ``FAIL`` line.  Frozen regression baselines
live in ``tests/data/``.
"""

import json
import pathlib
import time

import numpy as np

import waveinv as wi
from waveinv.evolve import compatibility_check
from waveinv.forward import trapezoid_weights
from waveinv.galerkin import FIELD_NAMES, ParameterField
from waveinv.illposed import (
    bump_sequence,
    illposed_experiment,
    rank_one_sequence,
    svd_probe,
)
from waveinv.sensitivity import (
    adjoint_apply_discrete,
    derivative_apply,
    dot_test,
    nodal_gradient,
    taylor_test,
)

from conftest import modal_source, smooth_direction, varied_point
from test_evolve import dense_midpoint_oracle

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _verdict(number, description, ok):
    line = f"[criterion {number}] {description}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. exact discrete adjoint identity


def test_criterion_1_discrete_adjoint_identity():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for problem, n, n_steps in (
        ("wave1d", 50, 200),
        ("elastic2d", 8, 100),
        ("maxwell1d", 50, 200),
    ):
        disc = wi.build_grid(problem, n)
        tg = np.linspace(0.0, 1.0, n_steps + 1)
        point = varied_point(disc, tg, amplitude=0.15)
        f = modal_source(disc, tg)
        base = wi.forward_map(disc, point, f)
        for _ in range(20):
            direction = {
                name: rng.standard_normal((tg.size, disc.n_nodes))
                for name in FIELD_NAMES[problem]
            }
            v = wi.DataVector(rng.standard_normal((tg.size, disc.n_free)), tg)
            worst = max(worst, dot_test(direction, v, mode="discrete", base=base))
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        f"discrete adjoint exact to 1e-10 on 60 random pairs "
        f"(worst {worst:.2e}, {elapsed:.0f}s)",
        worst <= 1e-10 and elapsed <= 60.0,
    )


# ---------------------------------------------------------------------------
# 2. continuous adjoint pairing converges at second order


def test_criterion_2_continuous_adjoint_convergence():
    levels = [40, 80, 160, 320]
    mismatches = []
    for n_steps in levels:
        disc = wi.build_grid("wave1d", 10)
        tg = np.linspace(0.0, 1.0, n_steps + 1)
        point = varied_point(disc, tg, amplitude=0.2)
        f = wi.make_source(disc, tg, lambda t, x: np.sin(np.pi * x) * t**2)
        base = wi.forward_map(disc, point, f)
        X = disc.nodes
        direction = {
            name: 0.5 * np.outer(np.sin(np.pi * tg + 0.2 * k), np.cos(2 * X + k))
            for k, name in enumerate(FIELD_NAMES["wave1d"])
        }
        v = wi.DataVector(
            np.outer(np.cos(2.0 * tg), np.sin(np.pi * X[disc.free_nodes]) + 0.3)
            + 1.0,
            tg,
        )
        mismatches.append(dot_test(direction, v, mode="continuous", base=base))
    slope = -np.polyfit(np.log(levels), np.log(mismatches), 1)[0]
    _verdict(
        2,
        f"continuous adjoint pairing order over 4 step halvings "
        f"(slope {slope:.2f} >= 1.8)",
        slope >= 1.8,
    )


# ---------------------------------------------------------------------------
# 3. second-order Taylor remainders in every parameter direction


def test_criterion_3_taylor_second_order():
    s_values = [1e-1, 1e-2, 1e-3, 1e-4]
    orders = {}
    for problem, n, n_steps in (
        ("wave1d", 12, 40),
        ("elastic2d", 3, 30),
        ("maxwell1d", 12, 40),
    ):
        disc = wi.build_grid(problem, n)
        tg = np.linspace(0.0, 1.0, n_steps + 1)
        point = varied_point(disc, tg, amplitude=0.15)
        f = modal_source(disc, tg)
        base = wi.forward_map(disc, point, f)
        for name in FIELD_NAMES[problem]:
            direction = smooth_direction(disc, tg, [name], scale=0.5)
            report = taylor_test(direction, s_values, base=base)
            orders[f"{problem}/{name}"] = report.order
    worst = min(orders.values())
    _verdict(
        3,
        f"Taylor remainder order >= 1.9 in all {len(orders)} parameter "
        f"directions (worst {worst:.2f})",
        worst >= 1.9,
    )


# ---------------------------------------------------------------------------
# 4. manufactured solutions and the dense monolithic oracle


def _wave_mms_error(n_elements, n_steps):
    disc = wi.build_grid("wave1d", n_elements)
    tg = np.linspace(0.0, 1.0, n_steps + 1)
    point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0
    )
    f = wi.make_source(
        disc, tg, lambda t, x: (np.pi**2 - 1.0) * np.sin(np.pi * x) * np.sin(t)
    )
    tl = wi.assemble_operators(disc, point)
    u1 = tl.matrix("C", 0) @ np.sin(np.pi * disc.nodes[disc.free_nodes])
    traj = wi.forward_map(disc, point, f, u1=u1)
    exact = np.outer(np.sin(tg), np.sin(np.pi * disc.nodes[disc.free_nodes]))
    diff = traj.u - exact
    return max(np.sqrt(d @ (disc.M @ d)) for d in diff)


def test_criterion_4_manufactured_solutions_and_dense_oracle():
    # time refinement at fixed mesh, against a reference run at dt/64
    disc = wi.build_grid("wave1d", 16)
    tg_ref = np.linspace(0.0, 1.0, 1281)
    point_ref = wi.ParameterPoint.from_constants(
        "wave1d", tg_ref, disc.n_nodes, a=1.0, b=0.4, q=0.7, rho=1.0
    )
    f_ref = wi.make_source(
        disc, tg_ref, lambda t, x: np.sin(np.pi * x) * np.sin(2.0 * t)
    )
    ref = wi.forward_map(disc, point_ref, f_ref).u

    dt_errors = []
    for n_steps in (20, 40, 80):
        tg = np.linspace(0.0, 1.0, n_steps + 1)
        point = wi.ParameterPoint.from_constants(
            "wave1d", tg, disc.n_nodes, a=1.0, b=0.4, q=0.7, rho=1.0
        )
        f = wi.make_source(
            disc, tg, lambda t, x: np.sin(np.pi * x) * np.sin(2.0 * t)
        )
        traj = wi.forward_map(disc, point, f)
        diff = traj.u - ref[:: (tg_ref.size - 1) // n_steps]
        dt_errors.append(max(np.sqrt(d @ (disc.M @ d)) for d in diff))
    dt_orders = np.log2(np.array(dt_errors[:-1]) / np.array(dt_errors[1:]))

    h_errors = [_wave_mms_error(n, 4 * n) for n in (4, 8, 16)]
    h_orders = np.log2(np.array(h_errors[:-1]) / np.array(h_errors[1:]))

    # plane-strain solver against an independent dense block recursion
    edisc = wi.build_grid("elastic2d", 4)
    tg = np.linspace(0.0, 0.6, 25)
    epoint = varied_point(edisc, tg, amplitude=0.1)
    ef = modal_source(edisc, tg)
    etl = wi.assemble_operators(edisc, epoint)
    traj = wi.solve_forward(etl, ef)
    oracle = dense_midpoint_oracle(
        etl, ef, np.zeros(edisc.n_free), np.zeros(edisc.n_free)
    )
    oracle_gap = float(np.abs(traj.u - oracle).max())

    _verdict(
        4,
        f"manufactured orders >= 1.9 in dt {np.round(dt_orders, 2)} and "
        f"h {np.round(h_orders, 2)}; dense oracle gap {oracle_gap:.1e} <= 1e-9",
        bool(np.all(dt_orders >= 1.9) and np.all(h_orders >= 1.9))
        and oracle_gap <= 1e-9,
    )


# ---------------------------------------------------------------------------
# 5. discrete energy: exact conservation and damped decay


def test_criterion_5_energy_conservation_and_decay():
    disc = wi.build_grid("wave1d", 20)
    tg = np.linspace(0.0, 2.0, 201)
    u0 = np.sin(np.pi * disc.nodes[disc.free_nodes])
    f = wi.SourceTerm.zero(disc, tg)

    point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.0, q=0.3, rho=1.0
    )
    conservative = wi.energy_monitor(wi.forward_map(disc, point, f, u0=u0))

    damped_point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.5, q=0.3, rho=1.0
    )
    damped = wi.energy_monitor(wi.forward_map(disc, damped_point, f, u0=u0))

    _verdict(
        5,
        f"undamped drift {conservative.max_relative_drift:.1e} <= 1e-12 per "
        f"step; damped energy monotone",
        conservative.max_relative_drift <= 1e-12
        and damped.monotone_nonincreasing
        and damped.energies[-1] < damped.energies[0],
    )


# ---------------------------------------------------------------------------
# 6. collapsing bumps: certified parameter distance, vanishing output


def test_criterion_6_vanishing_output_with_certified_distance():
    j_list = [4, 8, 16, 32, 64]
    delta = 0.2
    sizes = {
        "wave1d": ((16, 320), (32, 640)),
        "elastic2d": ((3, 320), (6, 640)),
        "maxwell1d": ((16, 320), (32, 640)),
    }
    ok = True
    worst_ratio = 0.0
    for problem, levels in sizes.items():
        for target in FIELD_NAMES[problem]:
            for n, n_steps in levels:
                disc = wi.build_grid(problem, n)
                tg = np.linspace(0.0, 1.0, n_steps + 1)
                point = varied_point(disc, tg, amplitude=0.1)
                f = modal_source(disc, tg)
                res = illposed_experiment(point, target, delta, j_list, f)
                lower = 0.5 * delta * res.gamma
                ok = ok and bool(
                    res.param_lower_ok
                    and np.all(res.param_distances >= lower)
                    and res.output_decreasing
                    and res.output_ratio <= 0.1
                )
                worst_ratio = max(worst_ratio, res.output_ratio)
    _verdict(
        6,
        "all 9 problem/target pairs: parameter distance >= delta*gamma/2, "
        f"outputs collapse (worst ratio {worst_ratio:.1e} <= 0.1), trend "
        "persists under 2x refinement",
        ok,
    )


# ---------------------------------------------------------------------------
# 7. spectral decay of the coarsely parameterized Jacobian


def _svd_instance(n_elements, n_steps):
    disc = wi.build_grid("wave1d", n_elements)
    tg = np.linspace(0.0, 1.0, n_steps + 1)
    point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.3, q=0.6, rho=1.0
    )
    ramp = 1.0 + 0.3 * disc.nodes
    point.fields["rho"] = ParameterField(
        np.repeat(ramp[None, :], tg.size, axis=0), tg
    )
    f = wi.make_source(
        disc, tg, lambda t, x: np.sin(3 * np.pi * x) * np.sin(6 * t)
    )
    return disc, point, f


def test_criterion_7_jacobian_spectral_decay():
    baseline = json.loads((DATA_DIR / "svd_baseline.json").read_text())
    ratios = {}
    ok = True
    for tag in ("coarse", "fine"):
        ref = baseline[tag]
        disc, point, f = _svd_instance(ref["elements"], ref["steps"])
        report = svd_probe(disc, point, "a", f)
        sv = report.singular_values
        ratios[tag] = sv[19] / sv[0]
        ok = ok and bool(
            np.all(np.diff(sv) < 0)
            and report.numerical_rank > 20
            and np.allclose(sv, ref["singular_values"], rtol=1e-6)
        )
    ok = ok and ratios["fine"] < ratios["coarse"]
    _verdict(
        7,
        "30-column probe: strictly decreasing spectrum, rank@1e-8 > 20, "
        f"sigma20/sigma1 {ratios['coarse']:.4f} -> {ratios['fine']:.4f} "
        "decreasing under refinement, frozen baselines match",
        ok,
    )


# ---------------------------------------------------------------------------
# 8. semiconvergence and the discrepancy principle


def test_criterion_8_semiconvergence_and_discrepancy_stopping():
    disc = wi.build_grid("wave1d", 25)
    tg = np.linspace(0.0, 1.0, 51)
    x0 = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0
    )
    f = wi.make_source(disc, tg, lambda t, x: np.sin(np.pi * x) * np.sin(2.0 * t))
    spec = wi.ObservationSpec(kind="node-subset", indices=np.array([8]))

    # truth sits along the dominant eigendirection of the normal operator at
    # the starting point, so the recoverable signal concentrates where the
    # iteration looks first and noise-fitting shows up as over-iteration
    base = wi.forward_map(disc, x0, f)
    w = trapezoid_weights(tg)
    h = np.outer(np.sin(np.pi * tg), np.sin(np.pi * disc.nodes))
    for _ in range(12):
        jh = wi.observe(derivative_apply(disc, x0, {"rho": h}, base), spec)
        h = nodal_gradient(adjoint_apply_discrete(disc, x0, jh, base))["rho"]
        h = h / np.sqrt(np.einsum("n,ni,i->", w, h * h, disc.lumped_node_measure))
    truth = x0.copy()
    truth.fields["rho"].values = truth.fields["rho"].values + 0.14 * h
    truth.check_admissible()
    clean = wi.observe(wi.forward_map(disc, truth, f), spec)

    noiseless_cfg = wi.InversionConfig(max_iterations=55, targets=("rho",))
    noiseless_hist, _ = wi.landweber(disc, x0, clean, f, noiseless_cfg)
    monotone = bool(np.all(np.diff(noiseless_hist.residuals) < 0))

    noisy = wi.add_noise(clean, 0.01, 11, disc)
    delta = 0.01 * wi.data_norm(clean, disc)
    truth_scale = np.linalg.norm(truth.fields["rho"].values)

    def rel_error(point):
        gap = point.fields["rho"].values - truth.fields["rho"].values
        return float(np.linalg.norm(gap) / truth_scale)

    stop_cfg = wi.InversionConfig(
        tau=1.5,
        noise_level=delta,
        max_iterations=600,
        targets=("rho",),
        divergence_patience=10**6,
    )
    stop_hist, stopped = wi.landweber(disc, x0, noisy, f, stop_cfg)
    long_cfg = wi.InversionConfig(
        max_iterations=10 * max(stop_hist.n_iterations, 1),
        targets=("rho",),
        divergence_patience=10**6,
    )
    _, over_iterated = wi.landweber(disc, x0, noisy, f, long_cfg)
    err_stop = rel_error(stopped)
    err_long = rel_error(over_iterated)

    _verdict(
        8,
        f"noiseless residuals monotone over {noiseless_hist.n_iterations} "
        f"iterations; 1% noise stops at {stop_hist.n_iterations} with error "
        f"{err_stop:.4f} <= {err_long:.4f} after 10x over-iteration",
        monotone
        and noiseless_hist.n_iterations >= 50
        and stop_hist.stopping_reason == "discrepancy"
        and err_stop <= err_long,
    )


# ---------------------------------------------------------------------------
# 9. certified bumps, rank-one factors, compatibility gate


def test_criterion_9_bumps_rank_one_and_compatibility():
    tg = np.linspace(0.0, 1.0, 513)
    seq = bump_sequence(3, 0.5, tg, [4, 8, 16, 32, 64])
    norms = seq.certified_norms()
    sandwich = all(seq.gamma <= norms[j] <= 1.05 for j in seq.j_values)

    disc = wi.build_grid("wave1d", 12)
    xseq = rank_one_sequence(disc, "X", [1, 2, 3, 5, 8])
    unit = all(abs(xseq.operator_norm(k) - 1.0) <= 1e-10 for k in xseq.k_values)

    n_free = disc.n_free
    short_tg = np.linspace(0.0, 1.0, 21)
    zero = wi.SourceTerm.zero(disc, short_tg)
    zero_ok = all(
        compatibility_check(zero, None, None, k).passed for k in (0, 1, 2)
    )
    ramp = wi.SourceTerm(np.outer(short_tg, np.ones(n_free)), disc, short_tg)
    ramp_ok = compatibility_check(ramp, None, None, 2).passed
    constant = wi.SourceTerm(np.ones((21, n_free)), disc, short_tg)
    const_report = compatibility_check(constant, None, None, 2)
    const_fail = not const_report.passed
    trace = [c for c in const_report.failures() if c["name"].startswith("f")]
    trace_is_one = len(trace) == 1 and trace[0]["value"] == 1.0

    _verdict(
        9,
        "certified bump norms inside [gamma, 1.05] up to j=64; rank-one "
        "factors unit to 1e-10; compatibility gate accepts zero and ramp "
        "loads, rejects a constant load with unit trace",
        sandwich and unit and zero_ok and ramp_ok and const_fail and trace_is_one,
    )
