"""Smoke tests: each study script runs end to end on a tiny instance."""

import importlib.util
import json
import pathlib
import re

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_adjoint_checks_script(capsys):
    script = load_script("run_adjoint_checks")
    assert script.main(["--elements", "6", "--steps", "12", "--pairs", "1"]) == 0
    out = capsys.readouterr().out
    mismatches = re.findall(r"(\w+): discrete adjoint mismatch (\S+)", out)
    assert [problem for problem, _ in mismatches] == ["wave1d", "elastic2d", "maxwell1d"]
    assert all(float(value) < 1e-12 for _, value in mismatches)
    orders = [float(v) for v in re.findall(r"Taylor order in '\w+' = (\S+)", out)]
    assert len(orders) == 9 and all(o == pytest.approx(2.0, abs=0.05) for o in orders)


def test_reconstruction_demo_script(capsys):
    script = load_script("run_reconstruction_demo")
    args = ["--elements", "6", "--steps", "16", "--max-iterations", "5"]
    assert script.main(args) == 0
    out = capsys.readouterr().out
    assert out.startswith("landweber: ") and "\ncgne: " in out


def test_compare_artifacts_script(tmp_path, capsys):
    script = load_script("compare_artifacts")

    def write(side, name, artifacts):
        (tmp_path / side / name).mkdir(parents=True)
        manifest = {"artifacts": artifacts, "wall_time_s": 1.0}
        (tmp_path / side / name / "manifest.json").write_text(json.dumps(manifest))

    for side in ("old", "new"):
        write(side, "forward_wave", {"u.npy": "aa", "summary.json": "bb"})
    write("new", "extra", {"u.npy": "cc"})
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    assert script.main([old, new]) == 0
    assert "1 configs: every artifact hash matches" in capsys.readouterr().out
    write("old", "illposed_q", {"illposed.csv": "dd", "gone.json": "ee"})
    write("new", "illposed_q", {"illposed.csv": "d0"})
    assert script.main([old, new]) == 1
    out = capsys.readouterr().out
    assert "illposed_q/illposed.csv: dd -> d0" in out
    assert "illposed_q/gone.json: ee -> None" in out
    assert "forward_wave" not in out
    assert script.main([str(tmp_path / "new"), str(tmp_path / "nothing")]) == 1
    capsys.readouterr()

    # a config whose hash differs fails even where every artifact matches,
    # as it would if the runner wrote its defaults into the hashed config
    for side, digest in (("old_cfg", "c0"), ("new_cfg", "c1")):
        (tmp_path / side / "forward_wave").mkdir(parents=True)
        manifest = {"artifacts": {"u.npy": "aa"}, "config_sha256": digest}
        (tmp_path / side / "forward_wave" / "manifest.json").write_text(json.dumps(manifest))
    assert script.main([str(tmp_path / "old_cfg"), str(tmp_path / "new_cfg")]) == 1
    assert capsys.readouterr().out == "forward_wave/config_sha256: c0 -> c1\n"
