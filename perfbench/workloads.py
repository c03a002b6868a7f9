"""The benchmark's workloads: inputs from a seed, timed calls, and checks.

A workload is built from a seed (``build``, the timed set-up), prepares
what its checks need (``prepare``, untimed), and then runs rounds.  A round
calls the same public waveinv functions in the same order; each call is one
operation, timed on its own, and each operation's output is checked against
an independent computation or a property the method must have.  A check
that fails, or a call that raises, makes the operation fail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

import reference
from waveinv.evolve import make_source
from waveinv.forward import DataVector, data_norm, forward_map, observe
from waveinv.galerkin import ParameterField, ParameterPoint, build_grid
from waveinv.illposed import svd_probe
from waveinv.inversion import InversionConfig, cgne, landweber
from waveinv.sensitivity import (
    adjoint_apply_continuous,
    adjoint_apply_discrete,
    derivative_apply,
)


class Operation:
    """One timed call with the outcome of its checks."""

    def __init__(self, name):
        self.name = name
        self.seconds = None
        self.cpu_seconds = None
        self.failure = None  # None when the call returned and every check passed
        self.check_failed = False
        self.measured = {}  # what the checks measured, by name

    def fail(self, message, check=True):
        if self.failure is None:
            self.failure = message
            self.check_failed = check

    def expect(self, ok, message):
        if not ok:
            self.fail(message)


def _timed(op, fn, *args, **kwargs):
    """Run one call, recording its wall time or the exception it raised."""
    start, cpu = time.perf_counter(), time.process_time()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # the benchmark must count the failure and go on
        op.fail(f"{type(exc).__name__}: {exc}", check=False)
        return None
    op.seconds = time.perf_counter() - start
    op.cpu_seconds = time.process_time() - cpu
    return out


@contextlib.contextmanager
def checking(op):
    """Count an exception raised while checking ``op``'s output as a failed check."""
    try:
        yield
    except Exception as exc:  # a malformed output must fail its operation, not the run
        op.fail(f"check raised {type(exc).__name__}: {exc}")


def _rel(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def smooth_table(rng, time_grid, nodes, modes=3):
    """A random smooth table on (time node x mesh node) with values in [-1, 1].

    A sum of ``modes`` separable products of a sine in space (a product of
    two in 2D) and a cosine in time, with amplitudes falling like 1/k.  The
    nodes are taken to lie in the unit interval or square.
    """
    tg = np.asarray(time_grid)
    x = np.atleast_2d(np.asarray(nodes, dtype=float).T).T  # (n_nodes, dim)
    total = np.zeros((tg.size, x.shape[0]))
    weight = 0.0
    for k in range(1, modes + 1):
        amp = rng.uniform(0.5, 1.0) * rng.choice((-1.0, 1.0)) / k
        space = np.ones(x.shape[0])
        for d in range(x.shape[1]):
            space *= np.sin(rng.integers(1, 4) * np.pi * x[:, d] + rng.uniform(0, np.pi))
        omega = rng.uniform(0.5, 2.0) * np.pi / tg[-1]
        total += amp * np.outer(np.cos(omega * tg + rng.uniform(0, 2 * np.pi)), space)
        weight += abs(amp)
    return total / weight


# ---------------------------------------------------------------------------
# forward, derivative and adjoint sweeps


class Sweeps:
    """forward_map, derivative_apply and both adjoints on a varying point.

    The domain is the unit interval or square and time runs to 1.  Every
    field varies in space and time, so every step matrix differs and the
    solver reuses nothing.
    """

    #: problem -> field: (base value, amplitude of the smooth variation)
    FIELDS = {
        "wave1d": {"a": (1.0, 0.3), "b": (0.2, 0.1), "q": (0.5, 0.3), "rho": (1.0, 0.3)},
        "elastic2d": {"lam": (1.2, 0.3), "mu": (1.0, 0.3), "rho": (1.0, 0.3)},
    }
    OPS = ("forward", "jvp", "adjoint", "adjoint_continuous")
    TAYLOR_S = (1e-2, 2.5e-3)
    # the continuous adjoint is a second-order accurate discretization of the
    # same transpose: its pairing mismatch must stay below CONTINUOUS_C dt^2
    CONTINUOUS_C = 10.0

    def __init__(self, problem, n, steps):
        self.problem = problem
        self.n = n
        self.steps = steps
        self.import_modules = ("waveinv",)

    def build(self, seed):
        rng = np.random.default_rng(seed)
        disc = build_grid(self.problem, self.n)
        tg = np.linspace(0.0, 1.0, self.steps + 1)
        nodes = disc.nodes
        fields = {
            name: ParameterField(base + amp * smooth_table(rng, tg, nodes), tg)
            for name, (base, amp) in self.FIELDS[self.problem].items()
        }
        point = ParameterPoint(self.problem, fields)
        direction = {
            name: 0.2 * base * smooth_table(rng, tg, nodes)
            for name, (base, _) in self.FIELDS[self.problem].items()
        }
        src = [smooth_table(rng, tg, nodes) for _ in range(disc.n_components)]
        index = {float(t): i for i, t in enumerate(tg)}  # make_source samples at tg
        if disc.dim == 1:
            f = make_source(disc, tg, lambda t, x: src[0][index[float(t)]])
        else:
            f = make_source(
                disc, tg, lambda t, x, y: np.stack([s[index[float(t)]] for s in src])
            )
        # smooth data on the free DOFs: component c of free node i at 2 i + c
        table = [smooth_table(rng, tg, nodes) for _ in range(disc.n_components)]
        free = disc.free_nodes
        v = np.stack([t[:, free] for t in table], axis=2).reshape(tg.size, -1)
        return {
            "disc": disc,
            "point": point,
            "f": f,
            "direction": direction,
            "v": DataVector(v, tg),
            "tg": tg,
        }

    def prepare(self, state):
        mesh = reference.build_mesh(self.problem, self.n)
        if mesh.n_free != state["disc"].n_free:
            raise RuntimeError("reference mesh and waveinv mesh disagree on the free DOFs")
        fields = {k: fld.values for k, fld in state["point"].fields.items()}
        loads = state["f"].values
        u_ref, du_ref = reference.march(mesh, fields, state["tg"], loads)
        shifted = []
        for s in self.TAYLOR_S:
            moved = {k: vals + s * state["direction"][k] for k, vals in fields.items()}
            shifted.append(reference.march(mesh, moved, state["tg"], loads)[0] - u_ref)
        dt = state["tg"][1] - state["tg"][0]
        state.update(
            pair=reference.Pairings(mesh, state["tg"]),
            u_ref=u_ref,
            du_ref=du_ref,
            shifted=shifted,
            continuous_bound=self.CONTINUOUS_C * dt**2,
        )

    def round(self, state):
        disc, point, direction, v = state["disc"], state["point"], state["direction"], state["v"]
        fwd, jvp, adj, cont = (Operation(name) for name in self.OPS)
        ops = [fwd, jvp, adj, cont]
        base = _timed(fwd, forward_map, disc, point, state["f"])
        if base is None:
            for op in ops[1:]:
                op.fail("no base trajectory", check=False)
            return ops
        eta = _timed(jvp, derivative_apply, disc, point, direction, base)
        grad = _timed(adj, adjoint_apply_discrete, disc, point, v, base)
        grad_c = _timed(cont, adjoint_apply_continuous, disc, point, v, base)
        pair = state["pair"]

        with checking(fwd):
            fwd.measured["u_rel"] = _rel(base.u, state["u_ref"])
            fwd.measured["du_rel"] = _rel(base.du, state["du_ref"])
            fwd.expect(fwd.measured["u_rel"] <= 1e-10, "trajectory differs from the reference")
            fwd.expect(fwd.measured["du_rel"] <= 1e-10, "velocity differs from the reference")
        if eta is None:
            for op in (adj, cont):
                op.fail("no derivative output to pair with", check=False)
            return ops
        with checking(jvp):
            rem = [
                pair.data_norm(d - s * eta.u) for s, d in zip(self.TAYLOR_S, state["shifted"])
            ]
            order = math.log(rem[0] / rem[1]) / math.log(self.TAYLOR_S[0] / self.TAYLOR_S[1])
            jvp.measured.update(taylor_remainders=rem, taylor_order=order)
            jvp.expect(order >= 1.9, f"Taylor remainder order {order:.3f} < 1.9")
        if grad is not None:
            with checking(adj):
                mismatch = pair.adjoint_mismatch(eta.u, v.values, grad.fields, direction)
                adj.measured["dot_mismatch"] = mismatch
                adj.expect(mismatch <= 1e-12, f"dot test mismatch {mismatch:.3e} > 1e-12")
        if grad_c is not None:
            with checking(cont):
                mismatch = pair.adjoint_mismatch(eta.u, v.values, grad_c.fields, direction)
                bound = state["continuous_bound"]
                cont.measured.update(pairing_mismatch=mismatch, bound=bound)
                cont.expect(mismatch <= bound, f"pairing mismatch {mismatch:.3e} > {bound:.3e}")
        return ops


# ---------------------------------------------------------------------------
# regularized inversion


class Inverse:
    """svd_probe, Landweber and CGNE on wave1d over [0, 2] x [0, 2] with a q bump.

    The background is constant, so the linearized sweeps at the base reuse
    one factorization; Landweber re-linearizes at every iterate.
    """

    OPS = ("svd_probe", "landweber", "cgne")
    BACKGROUND = {"a": 1.0, "b": 0.2, "q": 0.5, "rho": 1.0}
    TAU = 1.5
    NOISE = 1e-3
    BUMP = 0.3  # height of the time-localized bump the truth adds to q

    def __init__(self, n=20, steps=40, knots=(5, 4)):
        self.n = n
        self.steps = steps
        self.knots = knots
        self.import_modules = ("waveinv",)

    def build(self, seed):
        disc = build_grid("wave1d", self.n, 2.0)
        tg = np.linspace(0.0, 2.0, self.steps + 1)
        x0 = ParameterPoint.from_constants("wave1d", tg, disc.n_nodes, **self.BACKGROUND)
        f = make_source(
            disc,
            tg,
            lambda t, x: np.sin(np.pi * x / 2.0) * np.sin(np.pi * t / 2.0),
        )
        truth = x0.copy()
        pulse = np.exp(-(((tg - 1.0) / 0.15) ** 2))
        truth.fields["q"].values = truth.fields["q"].values + self.BUMP * pulse[:, None]
        clean = observe(forward_map(disc, truth, f))
        # Gaussian noise from the seed, scaled to NOISE times the clean data norm
        delta = self.NOISE * data_norm(clean, disc)
        draw = np.random.default_rng(seed).standard_normal(clean.values.shape)
        data = DataVector(clean.values + delta / data_norm(DataVector(draw, tg), disc) * draw, tg)
        return {
            "disc": disc,
            "x0": x0,
            "truth": truth,
            "f": f,
            "data": data,
            "delta": delta,
            "tg": tg,
        }

    def prepare(self, state):
        mesh = reference.build_mesh("wave1d", self.n, 2.0)
        state["mesh"] = mesh
        state["pair"] = reference.Pairings(mesh, state["tg"])

    def _config(self, method, delta):
        return InversionConfig(
            method=method,
            tau=self.TAU,
            noise_level=delta,
            max_iterations=100,
            targets=("q",),
            outer_iterations=1,
        )

    def _check_inversion(self, op, state, out):
        history, x = out
        op.expect(
            history.stopping_reason == "discrepancy",
            f"stopped by {history.stopping_reason!r}, not by the discrepancy principle",
        )
        fields = {k: fld.values for k, fld in x.fields.items()}
        u, _ = reference.march(state["mesh"], fields, state["tg"], state["f"].values)
        pair = state["pair"]
        residual = pair.data_norm(u - state["data"].values)
        limit = self.TAU * state["delta"]
        op.measured.update(iterations=history.n_iterations, residual=residual, limit=limit)
        # the recomputation sums in another order than waveinv: allow rounding
        op.expect(residual <= limit * (1 + 1e-9), f"residual {residual:.6e} > tau delta {limit:.6e}")
        truth_q = state["truth"].fields["q"].values
        start = pair.direction_norm({"q": state["x0"].fields["q"].values - truth_q})
        final = pair.direction_norm({"q": x.fields["q"].values - truth_q})
        op.measured.update(start_error=start, final_error=final)
        op.expect(final < start, f"error to the truth {final:.4e} not below {start:.4e}")

    def round(self, state):
        disc, x0, f, data = state["disc"], state["x0"], state["f"], state["data"]
        probe, lw, cg = (Operation(name) for name in self.OPS)
        tk, sk = self.knots
        report = _timed(probe, svd_probe, disc, x0, "a", f, time_knots=tk, space_knots=sk)
        out_lw = _timed(lw, landweber, disc, x0, data, f, self._config("landweber", state["delta"]))
        out_cg = _timed(cg, cgne, disc, x0, data, f, self._config("cgne", state["delta"]))

        if report is not None:
            with checking(probe):
                sing = report.singular_values
                probe.expect(
                    bool(np.all(np.diff(sing) < 0)), "singular values do not strictly decrease"
                )
                rank = int(np.count_nonzero(sing >= 1e-8 * sing[0]))
                probe.measured.update(rank=rank, directions=int(sing.size))
                probe.expect(
                    sing.size == tk * sk and 3 * rank > 2 * sing.size,
                    f"numerical rank {rank} of {sing.size} is not above two thirds",
                )
        for op, out in ((lw, out_lw), (cg, out_cg)):
            if out is not None:
                with checking(op):
                    self._check_inversion(op, state, out)
        return [probe, lw, cg]


# ---------------------------------------------------------------------------
# the shipped configs through the CLI


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _summary_ok(kind, summary):
    """The property each experiment kind's summary must have, or None if met."""
    if kind == "dot-test":
        return None if summary["max"] <= 1e-12 else f"dot mismatch {summary['max']:.3e}"
    if kind == "taylor-test":
        low = min(summary["orders"].values())
        return None if low >= 1.9 else f"Taylor order {low:.3f} < 1.9"
    if kind == "convergence":
        low = min(summary["orders"])
        return None if low >= 1.9 else f"convergence order {low:.3f} < 1.9"
    if kind == "illposed":
        return None if summary["passed"] is True else "ill-posedness experiment did not pass"
    if kind == "svd":
        rank = summary["numerical_rank"]
        return None if rank > 20 else f"numerical rank {rank} <= 20"
    if kind == "invert":
        reason = summary["stopping_reason"]
        return None if reason == "discrepancy" else f"stopped by {reason!r}"
    if kind == "forward":
        norm = summary["data_norm"]
        return None if math.isfinite(norm) and norm > 0 else f"data norm {norm}"
    return f"unknown experiment kind {kind!r}"


SUMMARY_FILES = {
    "dot-test": "dot_test.json",
    "taylor-test": "taylor.json",
    "convergence": "convergence.json",
    "illposed": "illposed.json",
    "svd": "svd.json",
    "invert": "invert.json",
    "forward": "forward.json",
}


class Configs:
    """The shipped configs through ``waveinv.cli.main(["run", ...])``.

    A round runs every config once, in an order drawn from the seed, each
    writing into its own directory under ``work_dir``.  The first round's
    artifacts are kept to check that later rounds write the same bytes.
    """

    def __init__(self, config_dir, work_dir):
        self.config_dir = Path(config_dir)
        self.work_dir = Path(work_dir)
        self.import_modules = ("waveinv.cli",)

    def build(self, seed):
        paths = sorted(self.config_dir.glob("*.json"))
        order = np.random.default_rng(seed).permutation(len(paths))
        return {"configs": [paths[i] for i in order], "rounds": 0}

    def prepare(self, state):
        from waveinv import cli

        state["main"] = cli.main
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)

    def finish(self, state):
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def round(self, state):
        k = state["rounds"]
        state["rounds"] += 1
        ops = []
        for path in state["configs"]:
            op = Operation(path.stem)
            out = self.work_dir / f"round{k}" / path.stem
            with contextlib.redirect_stdout(io.StringIO()):
                code = _timed(op, state["main"], ["run", "--config", str(path), "--out", str(out)])
            ops.append(op)
            if op.failure is None:
                op.expect(code == 0, f"exit code {code}")
            if op.failure is None:
                with checking(op):
                    self._check(op, out, self.work_dir / "round0" / path.stem, first=k == 0)
            if k > 0:
                shutil.rmtree(out, ignore_errors=True)
        return ops

    def _check(self, op, out, first_dir, first):
        manifest = json.loads((out / "manifest.json").read_text())
        artifacts = manifest["artifacts"]
        for name, digest in artifacts.items():
            op.expect(_sha256(out / name) == digest, f"{name} does not match its manifest hash")
            if not first:
                same = (out / name).read_bytes() == (first_dir / name).read_bytes()
                op.expect(same, f"{name} differs from the first round's bytes")
        kind = manifest["experiment"]
        summary = json.loads((out / SUMMARY_FILES[kind]).read_text())
        problem = _summary_ok(kind, summary)
        op.expect(problem is None, problem)


def make(name, root):
    """The workload called ``name``, reading the program's files under ``root``."""
    root = Path(root)
    if name == "wave1d-sweeps":
        return Sweeps("wave1d", n=200, steps=250)
    if name == "elastic2d-sweeps":
        return Sweeps("elastic2d", n=16, steps=100)
    if name == "wave1d-inverse":
        return Inverse()
    if name == "shipped-configs":
        return Configs(root / "scripts" / "configs", root / "perfbench" / "out" / "configs-work")
    raise KeyError(name)


WORKLOADS = ("wave1d-sweeps", "elastic2d-sweeps", "wave1d-inverse", "shipped-configs")
