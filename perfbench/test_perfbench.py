"""Tests of the benchmark itself, on tiny instances.

    python -m pytest perfbench

Each workload's checks pass on waveinv as it is, and each check rejects a
wrong answer planted by wrapping one waveinv function.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import waveinv.forward  # noqa: E402
from waveinv.galerkin import build_grid  # noqa: E402

CHEAP_CONFIGS = ("forward_wave.json", "forward_elastic.json", "adjoint_checks.json")


def tiny_sweeps(problem):
    if problem == "wave1d":
        return workloads.Sweeps("wave1d", n=10, steps=40)
    return workloads.Sweeps("elastic2d", n=3, steps=30)


def run_sweeps(problem, seed=3):
    wl = tiny_sweeps(problem)
    state = wl.build(seed)
    wl.prepare(state)
    return {op.name: op for op in wl.round(state)}


def failures(ops):
    return {name: op.failure for name, op in ops.items() if op.failure is not None}


@pytest.mark.parametrize("problem", ["wave1d", "elastic2d"])
def test_reference_assembly_matches_waveinv(problem):
    n = 6 if problem == "wave1d" else 3
    mesh = reference.build_mesh(problem, n)
    disc = build_grid(problem, n)
    unit = np.ones(mesh.elements.shape[0])
    slots = {"wave1d": ("mass", "stiffness"), "elastic2d": ("vmass", "mu", "lam")}[problem]
    kits = {"mass": "mass", "stiffness": "stiffness", "vmass": "vmass", "mu": "eps", "lam": "div"}
    for slot in slots:
        ours = mesh.dense([(slot, unit)])
        theirs = disc.kits[kits[slot]].assemble(unit).toarray()
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12 * np.abs(theirs).max())


@pytest.mark.parametrize("problem", ["wave1d", "elastic2d"])
def test_sweep_checks_pass(problem):
    ops = run_sweeps(problem)
    assert failures(ops) == {}
    assert ops["forward"].measured["u_rel"] <= 1e-12
    assert ops["jvp"].measured["taylor_order"] >= 1.9


def _scaled_fields(fn, factor):
    def wrapped(*args, **kwargs):
        grad = fn(*args, **kwargs)
        grad.fields = {k: factor * v for k, v in grad.fields.items()}
        return grad

    return wrapped


def test_scaled_adjoint_fails_dot_test(monkeypatch):
    monkeypatch.setattr(
        workloads, "adjoint_apply_discrete", _scaled_fields(workloads.adjoint_apply_discrete, 1.0001)
    )
    assert set(failures(run_sweeps("wave1d"))) == {"adjoint"}


@pytest.mark.parametrize("problem", ["wave1d", "elastic2d"])
def test_sign_flipped_continuous_adjoint_fails_pairing(monkeypatch, problem):
    # At these step sizes the CONTINUOUS_C dt^2 bound is loose: a 5% or even
    # a 3x scaling stays inside it on wave1d, so plant a sign error.
    monkeypatch.setattr(
        workloads,
        "adjoint_apply_continuous",
        _scaled_fields(workloads.adjoint_apply_continuous, -1.0),
    )
    assert set(failures(run_sweeps(problem))) == {"adjoint_continuous"}


def test_perturbed_trajectory_fails_reference(monkeypatch):
    original = workloads.forward_map

    def perturbed(*args, **kwargs):
        traj = original(*args, **kwargs)
        traj.u[-1, 0] += 1e-8 * np.abs(traj.u).max()
        return traj

    monkeypatch.setattr(workloads, "forward_map", perturbed)
    assert "forward" in failures(run_sweeps("wave1d"))


def test_malformed_trajectory_fails_its_operation(monkeypatch):
    original = workloads.forward_map

    def truncated(*args, **kwargs):
        traj = original(*args, **kwargs)
        traj.u = traj.u[:-1]
        return traj

    monkeypatch.setattr(workloads, "forward_map", truncated)
    failed = failures(run_sweeps("wave1d"))
    assert failed["forward"].startswith("check raised ValueError")


def test_wrong_derivative_fails_taylor(monkeypatch):
    original = workloads.derivative_apply

    def skewed(*args, **kwargs):
        eta = original(*args, **kwargs)
        eta.u = eta.u * 1.001
        return eta

    monkeypatch.setattr(workloads, "derivative_apply", skewed)
    failed = failures(run_sweeps("wave1d"))
    assert "jvp" in failed and "forward" not in failed


def tiny_inverse():
    return workloads.Inverse(n=10, steps=24, knots=(3, 3))


def run_inverse():
    wl = tiny_inverse()
    state = wl.build(5)
    wl.prepare(state)
    return {op.name: op for op in wl.round(state)}


def test_inverse_checks_pass():
    ops = run_inverse()
    assert failures(ops) == {}
    assert ops["landweber"].measured["residual"] <= ops["landweber"].measured["limit"]


def test_inverse_checks_reject_wrong_answers(monkeypatch):
    svd = workloads.svd_probe
    cg = workloads.cgne

    def flat_spectrum(*args, **kwargs):
        report = svd(*args, **kwargs)
        report.singular_values = np.full_like(report.singular_values, report.singular_values[0])
        return report

    def early_stop(disc, x0, data, f, config, **kwargs):
        config.max_iterations = 0
        return cg(disc, x0, data, f, config, **kwargs)

    monkeypatch.setattr(workloads, "svd_probe", flat_spectrum)
    monkeypatch.setattr(workloads, "cgne", early_stop)
    assert set(failures(run_inverse())) == {"svd_probe", "cgne"}


def test_inverse_residual_is_recomputed(monkeypatch):
    lw = workloads.landweber

    def moved(*args, **kwargs):
        history, x = lw(*args, **kwargs)
        x.fields["q"].values = x.fields["q"].values + 0.5
        return history, x

    monkeypatch.setattr(workloads, "landweber", moved)
    failed = failures(run_inverse())
    assert set(failed) == {"landweber"} and "residual" in failed["landweber"]


@pytest.fixture
def cheap_configs(tmp_path):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    for name in CHEAP_CONFIGS:
        shutil.copy(ROOT / "scripts" / "configs" / name, config_dir)
    return workloads.Configs(config_dir, tmp_path / "work")


def run_configs(wl, rounds=2):
    state = wl.build(1)
    wl.prepare(state)
    ops = [wl.round(state) for _ in range(rounds)]
    wl.finish(state)
    return ops


def test_config_checks_pass(cheap_configs):
    for ops in run_configs(cheap_configs):
        assert sorted(op.name for op in ops) == sorted(Path(c).stem for c in CHEAP_CONFIGS)
        assert [op.failure for op in ops] == [None] * len(CHEAP_CONFIGS)


def _damage_after_run(monkeypatch, wl, damage):
    """Call ``damage(out)`` on forward_wave's output in the second round."""
    original_prepare = wl.prepare

    def prepare(state):
        original_prepare(state)
        main = state["main"]
        calls = []

        def flipping(argv):
            code = main(argv)
            calls.append(argv)
            out = Path(argv[argv.index("--out") + 1])
            if len(calls) > len(CHEAP_CONFIGS) and out.name == "forward_wave":
                damage(out)
            return code

        state["main"] = flipping

    monkeypatch.setattr(wl, "prepare", prepare)


def _flip_first_byte(out, fix_manifest):
    path = out / "trajectory.csv"
    data = bytearray(path.read_bytes())
    data[0] = ord("9") if data[0] != ord("9") else ord("8")
    path.write_bytes(bytes(data))
    if fix_manifest:
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["trajectory.csv"] = workloads._sha256(path)
        (out / "manifest.json").write_text(json.dumps(manifest))


def test_flipped_artifact_fails_manifest_check(monkeypatch, cheap_configs):
    _damage_after_run(monkeypatch, cheap_configs, lambda out: _flip_first_byte(out, False))
    first, second = run_configs(cheap_configs)
    assert [op.failure for op in first] == [None] * len(CHEAP_CONFIGS)
    failed = {op.name: op.failure for op in second if op.failure}
    assert list(failed) == ["forward_wave"] and "manifest" in failed["forward_wave"]


def test_changed_artifact_fails_identity_check(monkeypatch, cheap_configs):
    _damage_after_run(monkeypatch, cheap_configs, lambda out: _flip_first_byte(out, True))
    _, second = run_configs(cheap_configs)
    failed = {op.name: op.failure for op in second if op.failure}
    assert list(failed) == ["forward_wave"] and "first round" in failed["forward_wave"]


def test_missing_manifest_fails_its_config(monkeypatch, cheap_configs):
    _damage_after_run(monkeypatch, cheap_configs, lambda out: (out / "manifest.json").unlink())
    first, second = run_configs(cheap_configs)
    assert [op.failure for op in first] == [None] * len(CHEAP_CONFIGS)
    assert len(second) == len(CHEAP_CONFIGS)
    failed = {op.name: op.failure for op in second if op.failure}
    assert list(failed) == ["forward_wave"]
    assert failed["forward_wave"].startswith("check raised FileNotFoundError")


def test_summary_properties_reject_failures():
    assert workloads._summary_ok("dot-test", {"max": 1e-10}) is not None
    assert workloads._summary_ok("taylor-test", {"orders": {"a": 2.0, "q": 1.5}}) is not None
    assert workloads._summary_ok("convergence", {"orders": [2.0, 1.8]}) is not None
    assert workloads._summary_ok("illposed", {"passed": False}) is not None
    assert workloads._summary_ok("svd", {"numerical_rank": 20}) is not None
    assert workloads._summary_ok("invert", {"stopping_reason": "max-iterations"}) is not None
    assert workloads._summary_ok("forward", {"data_norm": float("nan")}) is not None


def test_tracer_counts_calls_and_restores_functions():
    wl = tiny_sweeps("wave1d")
    state = wl.build(1)
    wl.prepare(state)
    original = waveinv.forward.forward_map
    tr = tracing.Tracer()
    tr.install(workloads)
    try:
        assert workloads.forward_map is not original
        tr.recording, tr.phase = True, "round"
        for _ in range(2):
            wl.round(state)
    finally:
        tr.uninstall()
    assert workloads.forward_map is original and waveinv.forward.forward_map is original
    metrics = {name: value for name, (value, _) in tr.summary(rounds=2).items()}
    assert metrics["forward.forward_map.calls"] == 1
    assert metrics["sensitivity.derivative_apply.calls"] == 1
    # the continuous adjoint marches once more, backward
    assert metrics["evolve.solve_forward.calls"] == 2
    assert metrics["evolve.steps"] == 80
    # time-varying coefficients: one factorization per step and one per node
    assert metrics["evolve.splu_per_step"] == pytest.approx(2 * 81 / 80)
    fwd = metrics["forward.forward_map.s"]
    assert 0 < metrics["forward.forward_map.self_s"] < fwd
    assert metrics["evolve.solve_forward.s"] < fwd + metrics["sensitivity.adjoint_apply_continuous.s"]


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wave1d-sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
