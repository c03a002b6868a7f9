"""Spans around the public functions of each waveinv layer.

The tracer wraps functions from outside the package: every waveinv module
namespace that binds a listed function gets the wrapper, so calls made
through ``from .x import f`` are recorded too.  ``scipy.sparse.linalg.splu``
is wrapped only as ``waveinv.evolve`` sees it, through a proxy of the
module object that ``evolve`` imported.  Spans are kept in memory; each has a
name, a start, an end and the index of the span that was open when it began.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: layer -> public functions that get a span
TRACED = {
    "galerkin": ("build_grid", "assemble_operators", "assemble_direction", "project_point"),
    "evolve": ("solve_forward", "solve_backward", "reverse_timeline"),
    "forward": ("forward_map", "observe", "data_inner"),
    "sensitivity": (
        "derivative_apply",
        "adjoint_apply_discrete",
        "adjoint_apply_continuous",
        "nodal_gradient",
    ),
    "illposed": ("svd_probe", "illposed_experiment"),
    "inversion": ("landweber", "cgne"),
    "cli": ("load_config", "build_setup", "write_artifacts", "run_experiment"),
}
SPLU = "evolve.splu"
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns)
COUNTERS = ("evolve.steps", "inversion.iterations")


class Tracer:
    """Collects spans and counters while ``recording`` is true."""

    def __init__(self):
        self.recording = False
        self.spans = []  # [name, start, end, parent index, phase, round]
        self.counts = []  # [counter, amount, phase]
        self.phase = ""
        self.request = 0
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), None, parent, tracer.phase, tracer.request]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                counter, amount = count(out)
                tracer.counts.append((counter, amount, tracer.phase))
            return out

        return wrapper

    def install(self, *namespaces):
        """Wrap every traced function in every waveinv module and in ``namespaces``.

        Pass the modules that call waveinv through names they imported, so
        that their calls are recorded too.
        """
        modules = [
            importlib.import_module(f"waveinv.{layer}") for layer in TRACED
        ] + [importlib.import_module("waveinv"), *namespaces]
        counts = {
            "evolve.solve_forward": lambda traj: ("evolve.steps", traj.u.shape[0] - 1),
            "inversion.landweber": lambda out: ("inversion.iterations", out[0].n_iterations),
            "inversion.cgne": lambda out: ("inversion.iterations", out[0].n_iterations),
        }
        for layer, fns in TRACED.items():
            home = sys.modules[f"waveinv.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapped = self._wrap(name, original, counts.get(name))
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._undo.append((mod, fn_name, original))
                        setattr(mod, fn_name, wrapped)
        evolve = sys.modules["waveinv.evolve"]
        self._undo.append((evolve, "spla", evolve.spla))
        evolve.spla = _ModuleProxy(evolve.spla, splu=self._wrap(SPLU, evolve.spla.splu))

    def uninstall(self):
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    def summary(self, rounds):
        """Per-layer metrics: set-up spans once plus the mean round.

        Spans recorded in phase ``setup`` count once; spans recorded in phase
        ``round`` are divided by ``rounds``.  For each span name this gives
        ``.calls``, ``.s`` (inclusive wall time, counting only the outermost
        of nested calls to the same function) and ``.self_s`` (inclusive time
        minus the time of child spans).
        """
        names = SPAN_NAMES + (SPLU,)
        calls = {phase: dict.fromkeys(names, 0) for phase in ("setup", "round")}
        incl = {phase: dict.fromkeys(names, 0.0) for phase in calls}
        self_s = {phase: dict.fromkeys(names, 0.0) for phase in calls}
        for i, (name, start, end, parent, phase, _) in enumerate(self.spans):
            dur = end - start
            calls[phase][name] += 1
            self_s[phase][name] += dur
            if parent >= 0:
                self_s[phase][self.spans[parent][0]] -= dur
            if not self._nested_in_same(i):
                incl[phase][name] += dur
        totals = {phase: dict.fromkeys(COUNTERS, 0) for phase in calls}
        for counter, amount, phase in self.counts:
            totals[phase][counter] += amount

        def per_run(table, key):
            return table["setup"][key] + table["round"][key] / rounds

        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (per_run(calls, name), "count")
            metrics[f"{name}.s"] = (per_run(incl, name), "s")
            metrics[f"{name}.self_s"] = (per_run(self_s, name), "s")
        metrics[f"{SPLU}.calls"] = (per_run(calls, SPLU), "count")
        metrics[f"{SPLU}.s"] = (per_run(incl, SPLU), "s")
        for counter in COUNTERS:
            metrics[counter] = (per_run(totals, counter), "count")
        steps = metrics["evolve.steps"][0]
        splu = metrics[f"{SPLU}.calls"][0]
        metrics["evolve.splu_per_step"] = (splu / steps if steps else 0.0, "ratio")
        return metrics

    def _nested_in_same(self, i):
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


class _ModuleProxy:
    """A module stand-in that overrides some attributes and forwards the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)
