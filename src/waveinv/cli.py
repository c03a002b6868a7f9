"""Configuration-driven experiment driver.

Every experiment of the package is reachable through a JSON config and two
subcommands::

    waveinv run --config cfg.json [--out DIR] [--seed N]
    waveinv validate --config cfg.json

``run`` dispatches to the owning module and writes plot-ready CSV artifacts
plus ``manifest.json`` (config hash, package versions, the BLAS/OpenMP thread
variables as the process saw them, wall time, one content hash per artifact).
Thread counts are fixed when numpy loads, so set those variables before
launching ``waveinv``.  ``validate`` performs schema, admissibility and source
compatibility checks without running any solve.  Exit codes: 0 success,
1 numerical/validation failure, 2 malformed config (message names the
offending field path).

Configs are data, not code: parameter fields are constants, tabulated CSVs
or named presets (``bump``, ``layered``); sources are zero, modal products of
sines, or tabulated load CSVs.  Given the same config and seed, CSV artifacts
are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, ConstraintViolationError, ResolutionError, WaveinvError
from .evolve import SourceTerm, compatibility_check, make_source, momentum_from_velocity
from .forward import DataVector, data_norm, forward_map, observe
from .galerkin import (
    FIELD_NAMES,
    PROBLEMS,
    ParameterField,
    ParameterPoint,
    assemble_operators,
    build_grid,
)
from .illposed import bump_sequence, illposed_experiment, svd_probe
from .inversion import InversionConfig, add_noise, cgne, landweber
from .sensitivity import dot_test, taylor_test

EXPERIMENTS = (
    "forward",
    "dot-test",
    "taylor-test",
    "illposed",
    "svd",
    "invert",
    "convergence",
)

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["problem", "mesh", "time", "fields", "source", "experiment"],
    "additionalProperties": False,
    "properties": {
        "problem": {"enum": list(PROBLEMS)},
        "mesh": {
            "type": "object",
            "required": ["n"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 2},
                "extent": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "time": {
            "type": "object",
            "required": ["t_end", "n_steps"],
            "additionalProperties": False,
            "properties": {
                "t_end": {"type": "number", "exclusiveMinimum": 0},
                "n_steps": {"type": "integer", "minimum": 2},
            },
        },
        "fields": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["kind"],
                "properties": {
                    "kind": {"enum": ["constant", "csv", "bump", "layered"]},
                    "value": {"type": "number"},
                    "path": {"type": "string"},
                    "base": {"type": "number"},
                    "delta": {"type": "number"},
                    "j": {"type": "integer", "minimum": 1},
                    "t0": {"type": "number"},
                    "r": {"type": "integer", "minimum": 1},
                    "values": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 1,
                    },
                    "axis": {"type": "integer", "minimum": 0, "maximum": 1},
                },
            },
        },
        "source": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["zero", "modal", "csv"]},
                "amplitude": {"type": "number"},
                "mode": {"type": "integer", "minimum": 1},
                "envelope": {"enum": ["sine", "one", "t"]},
                "component": {"type": "integer", "minimum": 0, "maximum": 1},
                "path": {"type": "string"},
            },
        },
        "experiment": {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": list(EXPERIMENTS)}},
        },
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string"},
    },
}


# ---------------------------------------------------------------------------
# config loading and construction


@functools.cache
def _config_validator():
    """The validator of :data:`CONFIG_SCHEMA`, built on first use.

    The schema is a constant, so it is checked against its meta-schema by
    the tests rather than on every load.
    """
    from jsonschema.validators import validator_for

    return validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def load_config(path):
    """Parse and schema-validate a config file; errors carry the field path."""
    from jsonschema.exceptions import best_match

    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    error = best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "(root)"
        raise ConfigError(where, error.message) from error
    return cfg


def _resolve(base_dir, path):
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


def _read_csv(where, spec, base_dir):
    """The 2-D numeric table at ``spec["path"]`` (relative to the config)."""
    if "path" not in spec:
        raise ConfigError(where, "csv kind needs 'path'")
    path = _resolve(base_dir, spec["path"])
    if not os.path.exists(path):
        raise ConfigError(where, f"referenced CSV does not exist: {path}")
    try:
        return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    except ValueError as exc:
        raise ConfigError(where, f"cannot read CSV {path}: {exc}") from exc


def _build_field(name, fdef, disc, tg, t_end, base_dir):
    kind = fdef["kind"]
    where = f"fields/{name}"
    if kind == "constant":
        if "value" not in fdef:
            raise ConfigError(where, "constant field needs 'value'")
        return ParameterField.constant(fdef["value"], tg, disc.n_nodes)
    if kind == "csv":
        vals = _read_csv(where, fdef, base_dir)
        if vals.shape == (1, disc.n_nodes) and tg.size > 1:
            vals = np.repeat(vals, tg.size, axis=0)
        if vals.shape != (tg.size, disc.n_nodes):
            raise ConfigError(
                where,
                f"CSV table has shape {vals.shape}, expected "
                f"{(tg.size, disc.n_nodes)} or a single broadcast row",
            )
        return ParameterField(vals, tg)
    if kind == "bump":
        for key in ("base", "delta", "j"):
            if key not in fdef:
                raise ConfigError(where, f"bump field needs '{key}'")
        r = int(fdef.get("r", 3))
        t0 = float(fdef.get("t0", 0.5 * t_end))
        try:
            seq = bump_sequence(r, t0, t_end, tg, [int(fdef["j"])])
        except ResolutionError as exc:
            raise ConfigError(where, str(exc)) from exc
        shift = 0.5 * float(fdef["delta"]) * seq.samples[int(fdef["j"])]
        vals = float(fdef["base"]) + np.repeat(shift[:, None], disc.n_nodes, axis=1)
        return ParameterField(vals, tg)
    if kind == "layered":
        if "values" not in fdef:
            raise ConfigError(where, "layered field needs 'values'")
        layers = np.asarray(fdef["values"], dtype=float)
        axis = int(fdef.get("axis", 0))
        coords = disc.nodes if disc.dim == 1 else disc.nodes[:, axis]
        lo, hi = float(coords.min()), float(coords.max())
        idx = np.minimum(
            ((coords - lo) / (hi - lo) * layers.size).astype(int), layers.size - 1
        )
        row = layers[idx]
        return ParameterField(np.repeat(row[None, :], tg.size, axis=0), tg)
    raise ConfigError(where, f"unknown field kind '{kind}'")


def _build_point(cfg, disc, tg, base_dir):
    t_end = float(cfg["time"]["t_end"])
    fields = {}
    for name in FIELD_NAMES[cfg["problem"]]:
        if name not in cfg["fields"]:
            raise ConfigError(f"fields/{name}", "missing parameter field definition")
        fields[name] = _build_field(name, cfg["fields"][name], disc, tg, t_end, base_dir)
    extra = set(cfg["fields"]) - set(FIELD_NAMES[cfg["problem"]])
    if extra:
        raise ConfigError(
            f"fields/{sorted(extra)[0]}",
            f"problem '{cfg['problem']}' has no such parameter",
        )
    return ParameterPoint(cfg["problem"], fields)


def _build_source(cfg, disc, tg, base_dir):
    sdef = cfg["source"]
    kind = sdef["kind"]
    if kind == "zero":
        return SourceTerm.zero(tg.size, disc.n_free)
    if kind == "modal":
        amp = float(sdef.get("amplitude", 1.0))
        mode = int(sdef.get("mode", 1))
        envelope = sdef.get("envelope", "sine")
        env = {
            "sine": np.sin,
            "one": lambda t: 1.0,
            "t": lambda t: t,
        }[envelope]
        if disc.dim == 1:
            length = float(disc.nodes.max())

            def fn(t, x):
                return amp * env(t) * np.sin(mode * np.pi * x / length)

        else:
            comp = int(sdef.get("component", 0))
            lx = float(disc.nodes[:, 0].max())
            ly = float(disc.nodes[:, 1].max())

            def fn(t, x, y):
                out = np.zeros((x.size, 2))
                out[:, comp] = (
                    amp
                    * env(t)
                    * np.sin(mode * np.pi * x / lx)
                    * np.sin(mode * np.pi * y / ly)
                )
                return out

        return make_source(disc, tg, fn)
    if kind == "csv":
        vals = _read_csv("source", sdef, base_dir)
        if vals.shape != (tg.size, disc.n_free):
            raise ConfigError(
                "source",
                f"CSV load table has shape {vals.shape}, expected {(tg.size, disc.n_free)}",
            )
        return SourceTerm(vals)
    raise ConfigError("source", f"unknown source kind '{kind}'")


def build_setup(cfg, base_dir):
    """Instantiate (discretization, point, time grid, source) from a config."""
    disc = build_grid(cfg["problem"], cfg["mesh"]["n"], cfg["mesh"].get("extent"))
    tt = cfg["time"]
    tg = np.linspace(0.0, float(tt["t_end"]), int(tt["n_steps"]) + 1)
    point = _build_point(cfg, disc, tg, base_dir)
    f = _build_source(cfg, disc, tg, base_dir)
    return disc, point, tg, f


# ---------------------------------------------------------------------------
# experiments


def _smooth_direction(disc, tg, scale=1.0):
    """A fixed smooth space-time profile used as a generic test direction."""
    t_end = float(tg[-1]) if tg[-1] > 0 else 1.0
    envelope = np.sin(np.pi * tg / t_end) + 0.5
    if disc.dim == 1:
        length = float(disc.nodes.max())
        profile = np.sin(np.pi * disc.nodes / length) + 0.25
    else:
        lx = float(disc.nodes[:, 0].max())
        ly = float(disc.nodes[:, 1].max())
        profile = (
            np.sin(np.pi * disc.nodes[:, 0] / lx) * np.sin(np.pi * disc.nodes[:, 1] / ly)
            + 0.25
        )
    return scale * np.outer(envelope, profile)


def _run_forward(cfg, disc, point, tg, f, opts, rng):
    traj = forward_map(disc, point, f, k=opts.get("k"))
    data = observe(traj)
    return (
        {
            "trajectory.csv": traj.u,
            "velocity.csv": traj.du,
            "time_grid.csv": tg[:, None],
            "forward.json": {
                "data_norm": data_norm(data, disc),
                "max_abs_u": float(np.max(np.abs(traj.u))),
            },
        },
        {"data_norm": data_norm(data, disc)},
    )


def _run_dot_test(cfg, disc, point, tg, f, opts, rng):
    mode = opts.get("mode", "discrete")
    n_pairs = int(opts.get("n_pairs", 3))
    base = forward_map(disc, point, f)
    mismatches = []
    for _ in range(n_pairs):
        direction = {
            name: rng.standard_normal((tg.size, disc.n_nodes))
            for name in FIELD_NAMES[disc.problem]
        }
        v = DataVector(rng.standard_normal((tg.size, disc.n_free)), tg)
        mismatches.append(dot_test(disc, point, direction, v, mode=mode, base=base))
    report = {"mode": mode, "mismatches": mismatches, "max": max(mismatches)}
    return {"dot_test.json": report}, report


def _run_taylor_test(cfg, disc, point, tg, f, opts, rng):
    targets = opts.get("targets") or list(FIELD_NAMES[disc.problem])
    s_values = opts.get("s_values") or [1e-1, 1e-2, 1e-3, 1e-4]
    base = forward_map(disc, point, f)
    h_profile = _smooth_direction(disc, tg, scale=float(opts.get("scale", 0.05)))
    orders = {}
    rows = []
    for t_idx, name in enumerate(targets):
        if name not in FIELD_NAMES[disc.problem]:
            raise ConfigError(
                "experiment/targets", f"problem '{disc.problem}' has no '{name}'"
            )
        report = taylor_test(
            disc, point, {name: h_profile}, f, s_values, base=base
        )
        orders[name] = report.order
        for s, rem in zip(report.s_values, report.remainders):
            rows.append((float(t_idx), float(s), float(rem)))
    artifacts = {
        "taylor.json": {
            "orders": orders,
            "targets": list(targets),
            "s_values": [float(s) for s in s_values],
        },
        "taylor_remainders.csv": np.array(rows),
    }
    return artifacts, {"orders": orders}


def _run_illposed(cfg, disc, point, tg, f, opts, rng):
    if "target" not in opts:
        raise ConfigError("experiment/target", "illposed experiment needs a target")
    result = illposed_experiment(
        disc,
        point,
        opts["target"],
        float(opts.get("delta", 0.1)),
        [int(j) for j in opts.get("j_list", (4, 8, 16, 32, 64))],
        f,
        k=int(opts.get("k", 2)),
        t0=opts.get("t0"),
    )
    rows = np.array(result.rows())
    summary = {
        "target": result.target,
        "delta": result.delta,
        "gamma": result.gamma,
        "output_ratio": result.output_ratio,
        "param_lower_ok": result.param_lower_ok,
        "output_decreasing": result.output_decreasing,
        "passed": result.passed,
    }
    return {"illposed.csv": rows, "illposed.json": summary}, summary


def _run_svd(cfg, disc, point, tg, f, opts, rng):
    if "target" not in opts:
        raise ConfigError("experiment/target", "svd experiment needs a target")
    report = svd_probe(
        disc,
        point,
        opts["target"],
        f,
        n_sing=opts.get("n_sing"),
        time_knots=int(opts.get("time_knots", 6)),
        space_knots=opts.get("space_knots", 5),
    )
    sigma = report.singular_values
    rows = np.column_stack(
        [np.arange(1, sigma.size + 1), sigma, report.ratios]
    )
    summary = {
        "target": report.target,
        "numerical_rank": report.numerical_rank,
        "threshold": report.threshold,
        "n_parameters": report.n_parameters,
        "sigma_1": float(sigma[0]),
    }
    return {"singular_values.csv": rows, "svd.json": summary}, summary


def _run_invert(cfg, disc, point, tg, f, opts, rng, base_dir, seed):
    if "truth" not in opts:
        raise ConfigError(
            "experiment/truth", "invert experiment needs truth field definitions"
        )
    t_end = float(cfg["time"]["t_end"])
    truth = point.copy()
    for name, fdef in opts["truth"].items():
        if name not in FIELD_NAMES[disc.problem]:
            raise ConfigError(
                f"experiment/truth/{name}", f"problem '{disc.problem}' has no such field"
            )
        truth.fields[name] = _build_field(name, fdef, disc, tg, t_end, base_dir)
    clean = observe(forward_map(disc, truth, f))
    level = float(opts.get("noise", 0.0))
    data = add_noise(clean, level, seed, disc)
    delta_abs = level * data_norm(clean, disc)
    config = InversionConfig(
        method=opts.get("method", "landweber"),
        step_size=opts.get("step_size"),
        tau=float(opts.get("tau", 1.5)),
        noise_level=delta_abs,
        max_iterations=int(opts.get("max_iterations", 50)),
        targets=tuple(opts["targets"]) if opts.get("targets") else None,
        outer_iterations=int(opts.get("outer_iterations", 1)),
    )
    driver = landweber if config.method == "landweber" else cgne
    history, final = driver(disc, point, data, f, config)
    n_res = len(history.residuals)
    grad = history.gradient_norms + [np.nan] * (n_res - len(history.gradient_norms))
    table = np.column_stack([np.arange(n_res), history.residuals, grad])
    errors = {}
    for name in config.targets or FIELD_NAMES[disc.problem]:
        diff = final.fields[name].values - truth.fields[name].values
        denom = np.linalg.norm(truth.fields[name].values)
        errors[name] = float(np.linalg.norm(diff) / denom) if denom > 0 else float(
            np.linalg.norm(diff)
        )
    summary = {
        "method": config.method,
        "stopping_reason": history.stopping_reason,
        "iterations": history.n_iterations,
        "step_size": history.step_size,
        "final_residual": history.residuals[-1],
        "noise_level_absolute": delta_abs,
        "relative_errors": errors,
    }
    artifacts = {"history.csv": table, "invert.json": summary}
    for name in config.targets or FIELD_NAMES[disc.problem]:
        artifacts[f"final_{name}.csv"] = final.fields[name].values
    return artifacts, summary


def _run_convergence(cfg, disc, point, tg, f, opts, rng):
    if cfg["problem"] != "wave1d":
        raise ConfigError(
            "experiment/kind", "the convergence study is defined for wave1d only"
        )
    levels = int(opts.get("levels", 4))
    base_n = int(opts.get("base_elements", 8))
    base_steps = int(opts.get("base_steps", 16))
    t_end = float(opts.get("t_end", 1.0))
    rows = []
    errors = []
    for lev in range(levels):
        n = base_n * 2**lev
        steps = base_steps * 2**lev
        err = _manufactured_error(n, steps, t_end)
        rows.append((lev, n, steps, err))
        errors.append(err)
    orders = [
        float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)
    ]
    table = np.array(rows)
    summary = {"orders": orders, "final_order": orders[-1] if orders else None}
    return {"convergence.csv": table, "convergence.json": summary}, summary


def _manufactured_error(n_elements, n_steps, t_end):
    """Max-in-time mass-norm error against u = sin(pi x) sin(t)."""
    disc = build_grid("wave1d", n_elements)
    tg = np.linspace(0.0, t_end, n_steps + 1)
    point = ParameterPoint.from_constants("wave1d", tg, disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0)
    f = make_source(
        disc, tg, lambda t, x: (np.pi**2 - 1.0) * np.sin(np.pi * x) * np.sin(t)
    )
    timeline = assemble_operators(disc, point)
    free = disc.free_nodes
    u1 = momentum_from_velocity(timeline, np.sin(np.pi * disc.nodes[free]))
    traj = forward_map(disc, point, f, u1=u1)
    exact = np.sin(np.pi * disc.nodes[free])[None, :] * np.sin(tg)[:, None]
    diff = traj.u - exact
    err = np.sqrt(np.einsum("ni,ij,nj->n", diff, disc.M.toarray(), diff))
    return float(np.max(err))


# ---------------------------------------------------------------------------
# artifact plumbing


def _write_csv(path, array):
    arr = np.atleast_2d(np.asarray(array, dtype=float))
    np.savetxt(path, arr, delimiter=",", fmt="%.17g", newline="\n")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_artifacts(out_dir, artifacts):
    os.makedirs(out_dir, exist_ok=True)
    hashes = {}
    for name, payload in sorted(artifacts.items()):
        path = os.path.join(out_dir, name)
        if name.endswith(".json"):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(_json_ready(payload), fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            _write_csv(path, payload)
        hashes[name] = _sha256(path)
    return hashes


#: thread-count variables of the BLAS/OpenMP runtimes numpy may load
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _versions():
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "waveinv": __version__,
    }


# ---------------------------------------------------------------------------
# subcommands


def run_experiment(cfg, base_dir, out_dir, seed):
    """Execute the configured experiment and write artifacts + manifest."""
    started = time.time()
    disc, point, tg, f = build_setup(cfg, base_dir)
    point.check_admissible()
    opts = cfg["experiment"]
    kind = opts["kind"]
    rng = np.random.default_rng(seed)
    if kind == "forward":
        artifacts, summary = _run_forward(cfg, disc, point, tg, f, opts, rng)
    elif kind == "dot-test":
        artifacts, summary = _run_dot_test(cfg, disc, point, tg, f, opts, rng)
    elif kind == "taylor-test":
        artifacts, summary = _run_taylor_test(cfg, disc, point, tg, f, opts, rng)
    elif kind == "illposed":
        artifacts, summary = _run_illposed(cfg, disc, point, tg, f, opts, rng)
    elif kind == "svd":
        artifacts, summary = _run_svd(cfg, disc, point, tg, f, opts, rng)
    elif kind == "invert":
        artifacts, summary = _run_invert(
            cfg, disc, point, tg, f, opts, rng, base_dir, seed
        )
    else:
        artifacts, summary = _run_convergence(cfg, disc, point, tg, f, opts, rng)
    hashes = write_artifacts(out_dir, artifacts)
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "experiment": kind,
        "problem": cfg["problem"],
        "seed": seed,
        "versions": _versions(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
        "wall_time_s": time.time() - started,
        "artifacts": hashes,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(_json_ready(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def validate_config(cfg, base_dir):
    """Schema, admissibility and compatibility checks without solving."""
    report = {"schema": "ok", "admissible": True, "violations": [], "passed": True}
    disc, point, tg, f = build_setup(cfg, base_dir)
    try:
        point.check_admissible()
    except ConstraintViolationError as exc:
        report["admissible"] = False
        report["violations"].append(str(exc))
        report["passed"] = False
    k = int(cfg["experiment"].get("k", 2))
    comp = compatibility_check(f, None, None, k)
    report["compatibility"] = {
        "k": k,
        "passed": comp.passed,
        "conditions": comp.conditions,
    }
    if not comp.passed:
        report["passed"] = False
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="waveinv",
        description="config-driven experiments for time-dependent coefficient "
        "identification problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_val = sub.add_parser("validate", help="check a config without solving")
    for p in (p_run, p_val):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="artifact directory")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    base_dir = os.path.dirname(os.path.abspath(args.config))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))

    try:
        if args.command == "validate":
            report = validate_config(cfg, base_dir)
            print(json.dumps(_json_ready(report), indent=2, sort_keys=True))
            return 0 if report["passed"] else 1
        out_dir = args.out or cfg.get("output") or "waveinv-out"
        summary = run_experiment(cfg, base_dir, out_dir, seed)
        print(json.dumps(_json_ready(summary), indent=2, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except WaveinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
