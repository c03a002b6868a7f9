"""Config validation, experiment dispatch, artifacts, and reproducibility."""

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from jsonschema.exceptions import SchemaError
from jsonschema.validators import validator_for

from waveinv.cli import CONFIG_SCHEMA, THREAD_VARIABLES, build_setup, main


def base_config(**overrides):
    cfg = {
        "problem": "wave1d",
        "mesh": {"n": 6},
        "time": {"t_end": 1.0, "n_steps": 20},
        "fields": {
            "a": {"kind": "constant", "value": 1.0},
            "b": {"kind": "constant", "value": 0.2},
            "q": {"kind": "constant", "value": 0.5},
            "rho": {"kind": "constant", "value": 1.0},
        },
        "source": {"kind": "modal", "amplitude": 1.0, "mode": 1, "envelope": "sine"},
        "experiment": {"kind": "forward"},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# validate subcommand


def test_validate_accepts_good_config(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["validate", "--config", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["admissible"] is True
    assert report["compatibility"]["passed"] is True


def test_validate_flags_inadmissible_point(tmp_path, capsys):
    cfg = base_config()
    cfg["fields"]["a"] = {"kind": "constant", "value": 0.05}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["admissible"] is False
    assert report["violations"]


def test_validate_flags_incompatible_source(tmp_path, capsys):
    cfg = base_config()
    cfg["source"] = {"kind": "modal", "envelope": "one"}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["compatibility"]["passed"] is False


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not valid json")
    assert main(["validate", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_config_schema_is_valid_against_its_meta_schema():
    # load_config trusts the constant schema; this is where it is checked
    validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)
    broken = {**CONFIG_SCHEMA, "properties": {**CONFIG_SCHEMA["properties"], "seed": {"type": 3}}}
    with pytest.raises(SchemaError):
        validator_for(broken).check_schema(broken)


def test_schema_violation_names_field_path(tmp_path, capsys):
    cfg = base_config(problem="wave2d")
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "problem" in capsys.readouterr().err


def test_missing_parameter_field_exits_2(tmp_path, capsys):
    cfg = base_config()
    del cfg["fields"]["rho"]
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "fields/rho" in capsys.readouterr().err


@pytest.mark.parametrize("j", [1, 2, 16])
def test_bump_field_outside_the_grid_exits_2(tmp_path, capsys, j):
    # j <= 2 puts the support outside (0, 1); j = 16 covers three of the 21 nodes
    cfg = base_config()
    cfg["fields"]["q"] = {"kind": "bump", "base": 0.5, "delta": 0.2, "j": j}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "fields/q" in capsys.readouterr().err


def test_illposed_run_with_bad_bump_index_exits_1(tmp_path, capsys):
    cfg = base_config(
        time={"t_end": 1.0, "n_steps": 64},
        experiment={"kind": "illposed", "target": "q", "delta": 0.2, "j_list": [1, 4]},
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# tabulated fields and sources


def test_csv_field_full_table_and_broadcast_row(tmp_path, capsys):
    table = 1.0 + 0.1 * np.outer(np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 7))
    np.savetxt(tmp_path / "full.csv", table, delimiter=",")
    np.savetxt(tmp_path / "row.csv", table[:1], delimiter=",")
    for name, expected in (("full.csv", table), ("row.csv", np.repeat(table[:1], 21, axis=0))):
        cfg = base_config()
        cfg["fields"]["a"] = {"kind": "csv", "path": name}
        _, point, _, _ = build_setup(cfg, str(tmp_path))
        assert np.array_equal(point.fields["a"].values, expected), name
        path = write_config(tmp_path, cfg)
        assert main(["run", "--config", path, "--out", str(tmp_path / name[:-4])]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "table, message",
    [(np.ones((21, 6)), "shape (21, 6)"), (None, "does not exist"), ("1,x\n", "cannot read")],
    ids=["wrong-shape", "missing-file", "not-numeric"],
)
def test_bad_csv_field_exits_2(tmp_path, capsys, table, message):
    if isinstance(table, str):
        (tmp_path / "a.csv").write_text(table)
    elif table is not None:
        np.savetxt(tmp_path / "a.csv", table, delimiter=",")
    cfg = base_config()
    cfg["fields"]["a"] = {"kind": "csv", "path": "a.csv"}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "fields/a" in err and message in err


def test_csv_source_shape(tmp_path, capsys):
    loads = np.outer(np.linspace(0.0, 1.0, 21) ** 2, np.arange(1.0, 6.0))
    np.savetxt(tmp_path / "f.csv", loads, delimiter=",")
    cfg = base_config(source={"kind": "csv", "path": "f.csv"})
    _, _, _, f = build_setup(cfg, str(tmp_path))
    assert np.array_equal(f.values, loads)
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()

    np.savetxt(tmp_path / "f.csv", np.ones((21, 7)), delimiter=",")
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "source" in err and "shape (21, 7)" in err


# ---------------------------------------------------------------------------
# forward experiment and artifact plumbing


def test_forward_run_writes_artifacts_and_manifest(tmp_path, capsys):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["data_norm"] > 0

    for name in ("trajectory.csv", "velocity.csv", "time_grid.csv", "forward.json"):
        assert (out / name).exists(), name
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",")
    assert traj.shape == (21, 5)  # time nodes x interior nodes

    manifest = json.loads((out / "manifest.json").read_text())
    expected = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    assert manifest["config_sha256"] == expected
    assert manifest["versions"]["waveinv"]
    for name, digest in manifest["artifacts"].items():
        payload = (out / name).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest, name


def test_zero_source_keeps_the_trajectory_at_rest(tmp_path, capsys):
    path = write_config(tmp_path, base_config(source={"kind": "zero"}))
    assert main(["validate", "--config", path]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["data_norm"] == 0.0
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",")
    assert traj.shape == (21, 5) and np.all(traj == 0.0)


def test_manifest_records_thread_variables(tmp_path, capsys, monkeypatch):
    for var in THREAD_VARIABLES:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    path = write_config(tmp_path, base_config())
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["threads"] == {
        "OMP_NUM_THREADS": "3",
        "OPENBLAS_NUM_THREADS": None,
        "MKL_NUM_THREADS": None,
        "NUMEXPR_NUM_THREADS": None,
    }


def test_reruns_are_byte_identical(tmp_path, capsys):
    cfg = base_config()
    path = write_config(tmp_path, cfg)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    manifest1 = json.loads((out1 / "manifest.json").read_text())
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest1["artifacts"] == manifest2["artifacts"]
    for name in manifest1["artifacts"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_output_directory_from_config(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = base_config(output="from-config")
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path]) == 0
    capsys.readouterr()
    assert (tmp_path / "from-config" / "manifest.json").exists()


# ---------------------------------------------------------------------------
# the remaining experiment kinds


def test_dot_test_run_is_exact_and_seed_controlled(tmp_path, capsys):
    cfg = base_config(experiment={"kind": "dot-test", "n_pairs": 2})
    path = write_config(tmp_path, cfg)
    outs = [tmp_path / tag for tag in ("a", "b", "c")]
    seeds = ["5", "5", "6"]
    for out, seed in zip(outs, seeds):
        assert main(["run", "--config", path, "--out", str(out), "--seed", seed]) == 0
    capsys.readouterr()
    reports = [json.loads((out / "dot_test.json").read_text()) for out in outs]
    assert reports[0]["max"] <= 1e-9
    assert reports[0]["mismatches"] == reports[1]["mismatches"]
    assert reports[0]["mismatches"] != reports[2]["mismatches"]


def test_taylor_run_reports_second_order(tmp_path, capsys):
    cfg = base_config(
        experiment={
            "kind": "taylor-test",
            "targets": ["a"],
            "s_values": [1e-1, 1e-2, 1e-3],
        }
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "taylor.json").read_text())
    assert report["orders"]["a"] > 1.8
    rows = np.loadtxt(out / "taylor_remainders.csv", delimiter=",")
    assert rows.shape == (3, 3)


def test_illposed_run_and_missing_target(tmp_path, capsys):
    cfg = base_config(
        mesh={"n": 8},
        time={"t_end": 1.0, "n_steps": 64},
        experiment={"kind": "illposed", "target": "q", "delta": 0.2, "j_list": [4, 8]},
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "illposed.json").read_text())
    assert report["output_decreasing"] is True
    assert report["output_ratio"] < 1.0

    cfg["experiment"] = {"kind": "illposed"}
    path = write_config(tmp_path, cfg, name="bad.json")
    assert main(["run", "--config", path, "--out", str(tmp_path / "bad")]) == 2
    assert "target" in capsys.readouterr().err


def test_svd_run(tmp_path, capsys):
    cfg = base_config(
        experiment={"kind": "svd", "target": "a", "time_knots": 3, "space_knots": 3}
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "svd.json").read_text())
    assert report["n_parameters"] == 9
    assert report["numerical_rank"] >= 1
    rows = np.loadtxt(out / "singular_values.csv", delimiter=",")
    assert rows.shape == (9, 3)
    assert np.all(np.diff(rows[:, 1]) < 0)


def test_invert_run(tmp_path, capsys):
    cfg = base_config(
        mesh={"n": 8},
        time={"t_end": 1.0, "n_steps": 24},
        experiment={
            "kind": "invert",
            "truth": {"q": {"kind": "constant", "value": 0.8}},
            "noise": 0.0,
            "max_iterations": 3,
            "targets": ["q"],
        },
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["stopping_reason"] == "max-iterations"
    assert "q" in summary["relative_errors"]

    history = np.loadtxt(out / "history.csv", delimiter=",")
    assert history.shape[0] == 4  # initial residual plus three iterations
    assert history[-1, 1] < history[0, 1]
    final_q = np.loadtxt(out / "final_q.csv", delimiter=",")
    assert final_q.shape == (25, 9)  # time nodes x mesh nodes


def test_convergence_run_and_wrong_problem(tmp_path, capsys):
    cfg = base_config(
        experiment={
            "kind": "convergence",
            "levels": 2,
            "base_elements": 8,
            "base_steps": 16,
        }
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "convergence.json").read_text())
    assert len(report["orders"]) == 1
    assert report["orders"][0] > 1.7

    cfg_m = base_config(
        problem="maxwell1d",
        fields={
            "eps": {"kind": "constant", "value": 1.0},
            "mu": {"kind": "constant", "value": 1.0},
        },
        experiment={"kind": "convergence"},
    )
    path_m = write_config(tmp_path, cfg_m, name="maxwell.json")
    assert main(["run", "--config", path_m, "--out", str(tmp_path / "m")]) == 2
    assert "wave1d" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# packaging


REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# What the wrapper that pip generates for a console script does.
CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name=sys.argv[1], value=sys.argv[2], group="console_scripts").load()
sys.argv = sys.argv[1:2] + sys.argv[3:]
sys.exit(main())
"""


def test_console_script_is_installed(tmp_path):
    """The declared `waveinv` entry point runs `validate` in a fresh process.

    A source checkout runs without installing the package, so the target in
    `[project.scripts]` is loaded the way the generated wrapper loads it.
    Where an installed `waveinv` script is on PATH it is run as well.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["waveinv"]
    good = write_config(tmp_path, base_config())
    bad_cfg = base_config()
    bad_cfg["fields"]["a"] = {"kind": "constant", "value": 0.05}
    bad = write_config(tmp_path, bad_cfg, name="bad.json")
    pythonpath = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}

    def validate(command, cfg):
        return subprocess.run(
            command + ["validate", "--config", cfg],
            capture_output=True,
            text=True,
            env=env,
        )

    commands = [[sys.executable, "-c", CONSOLE_SCRIPT, "waveinv", target]]
    exe = shutil.which("waveinv")
    if exe is not None:
        commands.append([exe])
    for command in commands:
        proc = validate(command, good)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["passed"] is True
        # the exit code returned by the target reaches the shell
        assert validate(command, bad).returncode == 1


CONFIG_DIR = REPO_ROOT / "scripts" / "configs"


@pytest.mark.parametrize(
    "config_path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem
)
def test_shipped_configs_validate(config_path, capsys):
    assert main(["validate", "--config", str(config_path)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


# ---------------------------------------------------------------------------
# one option table per kind: the schema, the defaults and the run agree


def test_run_refuses_incompatible_source(tmp_path, capsys):
    # the run-side twin of test_validate_flags_incompatible_source: both check
    # the source at the experiment's level k (2 by default) before any solve
    cfg = base_config()
    cfg["source"] = {"kind": "modal", "envelope": "one"}
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "smoothness-2 compatibility" in err
    assert not (tmp_path / "out").exists()

    cfg["experiment"] = {"kind": "forward", "k": 1}
    path = write_config(tmp_path, cfg)
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main(command + ["--config", path]) == 0
    capsys.readouterr()


UNIT = {"kind": "constant", "value": 1.0}


def _config_file(name):
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


def _misspelled_option(cfg):
    cfg["experiment"]["j_lsit"] = cfg["experiment"].pop("j_list")
    cfg["experiment"]["delat"] = 0.1


@pytest.mark.parametrize(
    "name, edit, where",
    [
        ("illposed_q", _misspelled_option, "experiment"),
        ("forward_wave", lambda c: c["source"].update(amplitud=2.0), "source"),
        ("forward_wave", lambda c: c["fields"]["rho"].update(j=4), "fields/rho"),
        ("forward_wave", lambda c: c["fields"]["a"].pop("value"), "fields/a/value"),
        ("forward_wave", lambda c: c["fields"].pop("rho"), "fields/rho"),
        ("forward_wave", lambda c: c["fields"].update(lam=c["fields"]["a"]), "fields"),
        ("illposed_q", lambda c: c["experiment"].pop("target"), "experiment/target"),
        ("svd_probe", lambda c: c["experiment"].update(target="zz"), "experiment/target"),
        ("taylor_wave", lambda c: c["experiment"].update(targets=["a", "mu"]), "experiment/targets/1"),
        ("invert_bump", lambda c: c["experiment"]["truth"].update(mu=UNIT), "experiment/truth"),
        ("invert_bump", lambda c: c["experiment"].update(method="newton"), "experiment/method"),
        ("adjoint_checks", lambda c: c["experiment"].update(mode="both"), "experiment/mode"),
        ("illposed_q", lambda c: c["experiment"].update(k=0), "experiment/k"),
        ("forward_wave", lambda c: c["experiment"].update(k=3), "experiment/k"),
        ("forward_wave", lambda c: c["experiment"].update(kind="backward"), "experiment/kind"),
        ("illposed_maxwell_mu", lambda c: c.update(experiment={"kind": "convergence"}), "problem"),
        ("forward_wave", lambda c: c["fields"]["rho"].update(axis=1), "fields/rho/axis"),
        ("forward_wave", lambda c: c["source"].update(component=1), "source/component"),
        ("svd_probe", lambda c: c["experiment"].update(space_knots=[3, 3]), "experiment/space_knots"),
        ("svd_probe", lambda c: c["experiment"].update(n_sing=3), "experiment"),
    ],
    ids=[
        "misspelled-experiment-option",
        "misspelled-source-option",
        "field-key-of-another-kind",
        "missing-field-option",
        "missing-field",
        "field-of-another-problem",
        "missing-target",
        "target-not-a-field",
        "taylor-target-not-a-field",
        "truth-on-unknown-field",
        "bad-method",
        "bad-dot-test-mode",
        "illposed-k-out-of-range",
        "k-out-of-range",
        "unknown-experiment",
        "convergence-off-wave1d",
        "layered-axis-beyond-the-mesh",
        "source-component-beyond-the-problem",
        "space-knots-per-axis-beyond-the-mesh",
        "svd-singular-value-cut",
    ],
)
def test_validate_rejects_what_run_rejects_with_the_same_path(tmp_path, capsys, name, edit, where):
    cfg = _config_file(name)
    edit(cfg)
    path = write_config(tmp_path, cfg)
    messages = []
    for command in (["validate"], ["run", "--out", str(tmp_path / "out")]):
        assert main(command + ["--config", path]) == 2
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"config error at '{where}':")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fdef, missing",
    [
        ({"kind": "constant"}, "value"),
        ({"kind": "csv"}, "path"),
        ({"kind": "bump", "delta": 0.2, "j": 4}, "base"),
        ({"kind": "bump", "base": 0.5, "j": 4}, "delta"),
        ({"kind": "bump", "base": 0.5, "delta": 0.2}, "j"),
        ({"kind": "layered"}, "values"),
        ({"value": 0.5}, "kind"),
    ],
)
def test_missing_field_option_is_named_at_its_path(tmp_path, capsys, fdef, missing):
    cfg = base_config()
    cfg["fields"]["q"] = fdef
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert capsys.readouterr().err.startswith(f"config error at 'fields/q/{missing}':")


@pytest.mark.parametrize(
    "brief, full",
    [
        ({"kind": "dot-test"}, {"kind": "dot-test", "mode": "discrete", "n_pairs": 3, "k": 2}),
        (
            {"kind": "taylor-test"},
            {
                "kind": "taylor-test",
                "targets": ["a", "b", "q", "rho"],
                "s_values": [1e-1, 1e-2, 1e-3, 1e-4],
                "scale": 0.05,
            },
        ),
    ],
    ids=["dot-test", "taylor-test"],
)
def test_left_out_options_take_the_table_defaults(tmp_path, capsys, brief, full):
    outs = []
    for tag, experiment in (("brief", brief), ("full", full)):
        cfg = base_config(
            experiment=experiment,
            source={"kind": "modal"},
            fields={
                "a": {"kind": "constant", "value": 1.0},
                "b": {"kind": "constant", "value": 0.2},
                "q": {"kind": "bump", "base": 0.5, "delta": 0.2, "j": 4},
                "rho": {"kind": "layered", "values": [1.0, 1.2]},
            },
        )
        path = write_config(tmp_path, cfg, name=f"{tag}.json")
        out = tmp_path / tag
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        # the manifest hashes the config as written, without the defaults
        manifest = json.loads((out / "manifest.json").read_text())
        expected = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
        assert manifest["config_sha256"] == expected
        outs.append(manifest["artifacts"])
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_elastic_scalar_extent_is_a_square(tmp_path, capsys):
    cfg = _config_file("forward_elastic")
    cfg["mesh"]["extent"] = 2.0
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    disc, _, _, _ = build_setup(cfg, str(tmp_path))
    assert disc.nodes.min(axis=0).tolist() == [0.0, 0.0]
    assert disc.nodes.max(axis=0).tolist() == [2.0, 2.0]
