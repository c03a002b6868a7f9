"""Configuration-driven experiment driver.

Every experiment of the package is reachable through a JSON config and two
subcommands::

    waveinv run --config cfg.json [--out DIR] [--seed N]
    waveinv validate --config cfg.json

Each experiment, field and source kind is stated once, as a table of its
options' JSON-schema fragments (:data:`EXPERIMENTS`, :data:`FIELD_KINDS`,
:data:`SOURCE_KINDS`); a fragment's ``default`` fills in an option left out.
:data:`CONFIG_SCHEMA` and the options the runners read are derived from them,
and each problem's bounds on an axis, a component or per-axis counts from
:data:`~.galerkin.MESHES`, so a misspelled, missing or out-of-range option
fails at ``load_config``.

``run`` dispatches to the owning module and writes plot-ready CSV artifacts
plus ``manifest.json`` (hash of the config as read, package versions, the
BLAS/OpenMP thread variables as the process saw them, wall time, one content
hash per artifact).  Thread counts are fixed when numpy loads, so set those
variables before launching ``waveinv``.  ``validate`` makes the admissibility
and source compatibility checks that ``run`` makes first, without solving.
Exit codes: 0 success, 1 numerical/validation failure, 2 malformed config
(message names the offending field path).

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
from .evolve import solve_forward
from .forward import DataVector, data_norm, forward_map, observe
from .galerkin import (
    FIELD_NAMES,
    MESHES,
    PROBLEMS,
    ParameterField,
    ParameterPoint,
    assemble_operators,
    build_grid,
)
from .illposed import bump_sequence, illposed_experiment, svd_probe
from .inversion import InversionConfig, add_noise, cgne, landweber
from .sensitivity import dot_test, taylor_test

NUMBER = {"type": "number"}
POSITIVE = {"type": "number", "exclusiveMinimum": 0}
COUNT = {"type": "integer", "minimum": 1}
PATH = {"type": "string"}
FIELD_LIST = {"type": "array", "items": {"type": "string"}, "minItems": 1}
#: the smoothness level of the compatibility check every experiment makes first
LEVEL = {"type": "integer", "minimum": 0, "maximum": 2, "default": 2}

#: the time envelopes of a modal source
ENVELOPES = {"sine": np.sin, "one": lambda t: 1.0, "t": lambda t: t}

#: parameter-field kind -> {option: JSON-schema fragment}.  A fragment's
#: ``default`` fills in an option left out; an option without one is required.
FIELD_KINDS = {
    "constant": {"value": NUMBER},
    "csv": {"path": PATH},
    "bump": {
        "base": NUMBER,
        "delta": NUMBER,
        "j": COUNT,
        "r": {**COUNT, "default": 3},
        "t0": {"type": "number", "default": None},  # None: half of t_end
    },
    "layered": {
        "values": {"type": "array", "items": NUMBER, "minItems": 1},
        "axis": {"type": "integer", "minimum": 0, "default": 0},  # see _problem_rules
    },
}

#: source kind -> {option: JSON-schema fragment}, read as :data:`FIELD_KINDS`
SOURCE_KINDS = {
    "zero": {},
    "modal": {
        "amplitude": {"type": "number", "default": 1.0},
        "mode": {**COUNT, "default": 1},
        "envelope": {"enum": list(ENVELOPES), "default": "sine"},
        "component": {"type": "integer", "minimum": 0, "default": 0},  # see _problem_rules
    },
    "csv": {"path": PATH},
}


def _filled(options, spec):
    """``spec`` with the defaults of the options it leaves out; ``spec`` is not changed."""
    return {**{name: s["default"] for name, s in options.items() if "default" in s}, **spec}


def _switch(key, cases, otherwise):
    """The schema that applies ``cases[v]`` where ``key`` equals ``v``, else ``otherwise``;
    each case sits in the ``else`` of the one before, so the first match ends the search."""
    block = otherwise
    for value, then in reversed(cases.items()):
        match = {"properties": {key: {"const": value}}, "required": [key]}
        block = {"if": match, "then": then, "else": block}
    return block


def _object(options, **allowed):
    """An object of exactly ``options`` and ``allowed``, needing each option without a default."""
    required = [name for name, s in options.items() if "default" not in s]
    return {"type": "object", "properties": {**allowed, **options}, "required": required,
            "additionalProperties": False}


def _by_kind(tables):
    """An object whose ``kind`` names one of ``tables`` and takes that kind's options."""
    cases = {kind: _object(options, kind=True) for kind, options in tables.items()}
    unknown = {"properties": {"kind": {"enum": list(tables)}}}
    return {"type": "object", "required": ["kind"], **_switch("kind", cases, unknown)}


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
    """Parse and schema-validate a config file; errors carry the field path.

    A missing key is reported at its own path (``fields/rho``)."""
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
        keys = list(error.absolute_path)
        if error.validator == "required":
            keys.append(next(k for k in error.validator_value if k not in error.instance))
        where = "/".join(str(k) for k in keys) or "(root)"
        raise ConfigError(where, error.message) from error
    return cfg


def _read_csv(where, spec, base_dir):
    """The 2-D numeric table at ``spec["path"]`` (relative to the config)."""
    path = os.path.join(base_dir, spec["path"])  # an absolute path stays as it is
    if not os.path.exists(path):
        raise ConfigError(where, f"referenced CSV does not exist: {path}")
    try:
        return np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    except ValueError as exc:
        raise ConfigError(where, f"cannot read CSV {path}: {exc}") from exc


def _build_field(name, fdef, disc, tg, base_dir):
    spec = _filled(FIELD_KINDS[fdef["kind"]], fdef)
    kind = spec["kind"]
    where = f"fields/{name}"
    if kind == "constant":
        return ParameterField.constant(spec["value"], tg, disc.n_nodes)
    if kind == "csv":
        vals = _read_csv(where, spec, base_dir)
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
        t0 = 0.5 * float(tg[-1]) if spec["t0"] is None else float(spec["t0"])
        try:
            seq = bump_sequence(int(spec["r"]), t0, tg, [int(spec["j"])])
        except ResolutionError as exc:
            raise ConfigError(where, str(exc)) from exc
        shift = 0.5 * float(spec["delta"]) * seq.samples[int(spec["j"])]
        vals = float(spec["base"]) + np.repeat(shift[:, None], disc.n_nodes, axis=1)
        return ParameterField(vals, tg)
    layers = np.asarray(spec["values"], dtype=float)
    coords = disc.axes[int(spec["axis"])]
    lo, hi = float(coords.min()), float(coords.max())
    idx = np.minimum(
        ((coords - lo) / (hi - lo) * layers.size).astype(int), layers.size - 1
    )
    row = layers[idx]
    return ParameterField(np.repeat(row[None, :], tg.size, axis=0), tg)


def _build_source(cfg, disc, tg, base_dir):
    spec = _filled(SOURCE_KINDS[cfg["source"]["kind"]], cfg["source"])
    if spec["kind"] == "zero":
        return SourceTerm.zero(disc, tg)
    if spec["kind"] == "modal":
        amp = float(spec["amplitude"])
        mode = int(spec["mode"])
        env = ENVELOPES[spec["envelope"]]
        comp = int(spec["component"])
        # the spatial factors, one per axis, at the nodes make_source passes
        sines = [np.sin(mode * np.pi * x / float(x.max())) for x in disc.axes]

        def fn(t, *axes):
            value = amp * env(t)
            for sine in sines:
                value = value * sine
            out = np.zeros((disc.n_nodes, disc.n_components))
            out[:, comp] = value
            return out

        return make_source(disc, tg, fn)
    vals = _read_csv("source", spec, base_dir)
    if vals.shape != (tg.size, disc.n_free):
        raise ConfigError(
            "source",
            f"CSV load table has shape {vals.shape}, expected {(tg.size, disc.n_free)}",
        )
    return SourceTerm(vals, disc, tg)


def build_setup(cfg, base_dir):
    """Instantiate (discretization, point, time grid, source) from a config."""
    disc = build_grid(cfg["problem"], cfg["mesh"]["n"], cfg["mesh"].get("extent"))
    tt = cfg["time"]
    tg = np.linspace(0.0, float(tt["t_end"]), int(tt["n_steps"]) + 1)
    fields = {
        name: _build_field(name, cfg["fields"][name], disc, tg, base_dir)
        for name in FIELD_NAMES[cfg["problem"]]
    }
    point = ParameterPoint(cfg["problem"], fields)
    f = _build_source(cfg, disc, tg, base_dir)
    return disc, point, tg, f


# ---------------------------------------------------------------------------
# experiments: each runner gets (disc, point, tg, f, opts, seed, base_dir)


def _arguments(kind, opts):
    """The options in ``kind``'s own table, which are its library call's keyword arguments."""
    return {name: opts[name] for name in EXPERIMENTS[kind][1]}


def _smooth_direction(disc, tg, scale=1.0):
    """A fixed smooth space-time profile used as a generic test direction."""
    t_end = float(tg[-1]) if tg[-1] > 0 else 1.0
    envelope = np.sin(np.pi * tg / t_end) + 0.5
    profile = np.prod([np.sin(np.pi * x / x.max()) for x in disc.axes], axis=0) + 0.25
    return scale * np.outer(envelope, profile)


def _run_forward(disc, point, tg, f, opts, seed, base_dir):
    traj = forward_map(disc, point, f)
    norm = data_norm(observe(traj), disc)
    return (
        {
            "trajectory.csv": traj.u,
            "velocity.csv": traj.du,
            "time_grid.csv": tg[:, None],
            "forward.json": {"data_norm": norm, "max_abs_u": float(np.max(np.abs(traj.u)))},
        },
        {"data_norm": norm},
    )


def _run_dot_test(disc, point, tg, f, opts, seed, base_dir):
    rng = np.random.default_rng(seed)
    base = forward_map(disc, point, f)
    mismatches = []
    for _ in range(int(opts["n_pairs"])):
        direction = {
            name: rng.standard_normal((tg.size, disc.n_nodes))
            for name in FIELD_NAMES[disc.problem]
        }
        v = DataVector(rng.standard_normal((tg.size, disc.n_free)), tg)
        mismatches.append(dot_test(direction, v, mode=opts["mode"], base=base))
    report = {"mode": opts["mode"], "mismatches": mismatches, "max": max(mismatches)}
    return {"dot_test.json": report}, report


def _run_taylor_test(disc, point, tg, f, opts, seed, base_dir):
    targets = opts["targets"] or list(FIELD_NAMES[disc.problem])
    base = forward_map(disc, point, f)
    h_profile = _smooth_direction(disc, tg, scale=float(opts["scale"]))
    orders = {}
    rows = []
    for t_idx, name in enumerate(targets):
        report = taylor_test({name: h_profile}, opts["s_values"], base=base)
        orders[name] = report.order
        for s, rem in zip(report.s_values, report.remainders):
            rows.append((float(t_idx), float(s), float(rem)))
    artifacts = {
        "taylor.json": {
            "orders": orders,
            "targets": list(targets),
            "s_values": [float(s) for s in opts["s_values"]],
        },
        "taylor_remainders.csv": np.array(rows),
    }
    return artifacts, {"orders": orders}


def _run_illposed(disc, point, tg, f, opts, seed, base_dir):
    result = illposed_experiment(point, f=f, **_arguments("illposed", opts))
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


def _run_svd(disc, point, tg, f, opts, seed, base_dir):
    report = svd_probe(disc, point, f=f, **_arguments("svd", opts))
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


def _run_invert(disc, point, tg, f, opts, seed, base_dir):
    truth = point.copy()
    for name, fdef in opts["truth"].items():
        truth.fields[name] = _build_field(name, fdef, disc, tg, base_dir)
    clean = observe(forward_map(disc, truth, f))
    level = float(opts["noise"])
    data = add_noise(clean, level, seed, disc)
    delta_abs = level * data_norm(clean, disc)
    config = InversionConfig(
        method=opts["method"],
        step_size=opts["step_size"],
        tau=float(opts["tau"]),
        noise_level=delta_abs,
        max_iterations=int(opts["max_iterations"]),
        targets=tuple(opts["targets"]) if opts["targets"] else None,
        outer_iterations=int(opts["outer_iterations"]),
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


def _run_convergence(disc, point, tg, f, opts, seed, base_dir):
    rows = []
    errors = []
    for lev in range(int(opts["levels"])):
        n = int(opts["base_elements"]) * 2**lev
        steps = int(opts["base_steps"]) * 2**lev
        err = _manufactured_error(n, steps, float(opts["t_end"]))
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
    traj = solve_forward(timeline, f, u1=u1)
    exact = np.sin(np.pi * disc.nodes[free])[None, :] * np.sin(tg)[:, None]
    diff = traj.u - exact
    err = np.sqrt(np.einsum("ni,ij,nj->n", diff, disc.M.toarray(), diff))
    return float(np.max(err))


FIELD_SCHEMA = _by_kind(FIELD_KINDS)

#: experiment kind -> (runner, {option: JSON-schema fragment with its default});
#: every kind also takes the level ``k`` (:data:`EXPERIMENT_OPTIONS`)
EXPERIMENTS = {
    "forward": (_run_forward, {}),
    "dot-test": (_run_dot_test, {
        "mode": {"enum": ["discrete", "continuous"], "default": "discrete"},
        "n_pairs": {**COUNT, "default": 3},
    }),
    "taylor-test": (_run_taylor_test, {
        "targets": {**FIELD_LIST, "default": None},  # None: every field
        "s_values": {"type": "array", "items": POSITIVE, "minItems": 2,
                     "default": [1e-1, 1e-2, 1e-3, 1e-4]},
        "scale": {"type": "number", "default": 0.05},
    }),
    "illposed": (_run_illposed, {
        "target": PATH,
        "delta": {"type": "number", "default": 0.1},
        "j_list": {"type": "array", "items": COUNT, "minItems": 1, "default": [4, 8, 16, 32, 64]},
        "k": {**LEVEL, "minimum": 1},  # the output distance is taken at level k - 1
        "t0": {"type": "number", "default": None},  # None: half of t_end
    }),
    "svd": (_run_svd, {
        "target": PATH,
        "time_knots": {**COUNT, "default": 6},
        # one count for every axis, or one per axis (see _problem_rules)
        "space_knots": {"type": ["integer", "array"], "minimum": 1, "items": COUNT, "default": 5},
    }),
    "invert": (_run_invert, {
        "truth": {"type": "object", "additionalProperties": FIELD_SCHEMA},
        "noise": {"type": "number", "minimum": 0, "default": 0.0},
        "method": {"enum": ["landweber", "cgne"], "default": "landweber"},
        "step_size": {**POSITIVE, "default": None},  # None: from a power iteration
        "tau": {"type": "number", "exclusiveMinimum": 1, "default": 1.5},
        "max_iterations": {"type": "integer", "minimum": 0, "default": 50},
        "targets": {**FIELD_LIST, "default": None},  # None: every field
        "outer_iterations": {**COUNT, "default": 1},
    }),
    "convergence": (_run_convergence, {
        "levels": {**COUNT, "default": 4},
        "base_elements": {"type": "integer", "minimum": 2, "default": 8},
        "base_steps": {"type": "integer", "minimum": 2, "default": 16},
        "t_end": {**POSITIVE, "default": 1.0},
    }),
}


#: each experiment kind's options: its own, and the level ``k`` all kinds take
EXPERIMENT_OPTIONS = {kind: {"k": LEVEL, **options} for kind, (_, options) in EXPERIMENTS.items()}


def _problem_rules(problem):
    """``problem``'s fields are exactly the ones defined, and the only ones targeted;
    an axis, a component or per-axis counts stay within its mesh (:data:`MESHES`)."""
    _, dim, n_components = MESHES[problem]
    field = {"enum": list(FIELD_NAMES[problem])}
    axis = {"properties": {"axis": {"maximum": dim - 1}}}
    fields = _object({name: {**FIELD_SCHEMA, **axis} for name in FIELD_NAMES[problem]})
    experiment = {
        "target": field,
        "targets": {"items": field},
        "truth": {"propertyNames": field, "additionalProperties": axis},
        "space_knots": {"minItems": dim, "maxItems": dim},
    }
    source = {"properties": {"component": {"maximum": n_components - 1}}}
    return {"properties": {"fields": fields, "source": source,
                           "experiment": {"properties": experiment}}}


CONVERGENCE = {"type": "object", "properties": {"kind": {"const": "convergence"}},
               "required": ["kind"]}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["problem", "mesh", "time", "fields", "source", "experiment"],
    "additionalProperties": False,
    "properties": {
        "problem": {"enum": list(PROBLEMS)},
        "mesh": _object({"n": {"type": "integer", "minimum": 2},
                         "extent": {**POSITIVE, "default": None}}),  # None: a unit length
        "time": _object({"t_end": POSITIVE, "n_steps": {"type": "integer", "minimum": 2}}),
        "fields": {"type": "object"},  # each problem's fields: see _problem_rules
        "source": _by_kind(SOURCE_KINDS),
        "experiment": _by_kind(EXPERIMENT_OPTIONS),
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string"},
    },
    "allOf": [
        _switch("problem", {problem: _problem_rules(problem) for problem in PROBLEMS}, {}),
        # the convergence study's manufactured solution is a wave1d one
        {
            "if": {"properties": {"experiment": CONVERGENCE}, "required": ["experiment"]},
            "then": {"properties": {"problem": {"const": "wave1d"}}},
        },
    ],
}


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


def _experiment(cfg, f):
    """The runner, the filled-in options and the source compatibility at level ``k``."""
    kind = cfg["experiment"]["kind"]
    opts = _filled(EXPERIMENT_OPTIONS[kind], cfg["experiment"])
    return EXPERIMENTS[kind][0], opts, compatibility_check(f, None, None, opts["k"])


def run_experiment(cfg, base_dir, out_dir, seed):
    """Execute the configured experiment and write artifacts + manifest."""
    started = time.time()
    disc, point, tg, f = build_setup(cfg, base_dir)
    point.check_admissible()
    runner, opts, compatibility = _experiment(cfg, f)
    compatibility.require()
    artifacts, summary = runner(disc, point, tg, f, opts, seed, base_dir)
    hashes = write_artifacts(out_dir, artifacts)
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()
        ).hexdigest(),
        "experiment": opts["kind"],
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
    comp = _experiment(cfg, f)[2]
    report["compatibility"] = {"k": comp.k, "passed": comp.passed, "conditions": comp.conditions}
    report["passed"] = report["admissible"] and comp.passed
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
        base_dir = os.path.dirname(os.path.abspath(args.config))
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
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
