"""Benchmark for waveinv: one workload per run, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The run sets up the workload several
times (the median is ``setup_s``), then runs whole rounds, at least two, until
``S`` seconds have passed, checking every operation's output.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  A record of the run goes to
``perfbench/out/``.
"""

import os

# BLAS and OpenMP read these once, when numpy loads them
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
# two rounds at least, so that every run can compare a round with the first
MIN_ROUNDS = 2

END_TO_END = {
    "setup_s": "s",
    "round_s": "s",
    "peak_rss_mb": "MB",
}


def import_seconds(modules):
    """Import time of ``modules`` in a fresh interpreter, as it measures it."""
    code = (
        "import time; t = time.perf_counter(); "
        + "; ".join(f"import {m}" for m in modules)
        + "; print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing {modules} failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def run_round(workload, state, tracer, index):
    """One round: its operations and their summed time (checks excluded)."""
    if tracer is not None:
        tracer.phase, tracer.request = "round", index
    ops = workload.round(state)
    return sum(op.seconds for op in ops if op.seconds is not None), ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "waveinv" / "__init__.py").is_file():
        print(f"no waveinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import waveinv

    if Path(waveinv.__file__).resolve().parent != SRC / "waveinv":
        print(f"imported waveinv from {waveinv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, ROOT)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(workloads)

    setups = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        imported = import_seconds(workload.import_modules)
        if tracer is not None:
            tracer.phase, tracer.recording = "setup", True
        start = time.perf_counter()
        state = workload.build(args.seed)
        setups.append(imported + time.perf_counter() - start)
        if tracer is not None:
            tracer.recording = False
    workload.prepare(state)

    if tracer is not None:
        tracer.recording = True
    rounds = []
    peak_rss_mb = None
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(workload, state, tracer, len(rounds)))
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.recording = False
        tracer.uninstall()
    if hasattr(workload, "finish"):
        workload.finish(state)

    all_ops = [op for _, ops in rounds for op in ops]
    failures = [op for op in all_ops if op.failure is not None]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_s": setups,
        "rounds": [
            {
                "round_s": round_s,
                "ops": {op.name: op.seconds for op in ops},
                "cpu": {op.name: op.cpu_seconds for op in ops},
                "measured": {op.name: op.measured for op in ops},
            }
            for round_s, ops in rounds
        ],
        "failures": [f"{op.name}: {op.failure}" for op in failures],
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setups),
            "round_s": statistics.median(r for r, _ in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracer.summary(len(rounds)).items()
        }
        record["spans"] = tracer.spans
    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    (OUT / f"{stem}.json").write_text(json.dumps(record) + "\n")

    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "correct": not any(op.check_failed for op in failures),
        "attempted": len(all_ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
