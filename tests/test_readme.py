"""The signatures that README.md quotes are those of the code.

A quote is a code span that is a whole call, `name(params)`, whose name is a
function of a waveinv module: `dot_test(...)`, `evolve.energy_monitor(...)`,
`BumpSequence.certified_norms(...)` or the class method `SourceTerm.zero(...)`.
Its parameter names, in order, must be those of ``inspect.signature``, less
``self`` and ``cls``.  A usage example, which elides arguments
(`...`) or passes a value that is no literal (`like=base`), quotes no
signature and is skipped.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import waveinv

README = Path(__file__).resolve().parents[1] / "README.md"

#: a code span that is one call, possibly wrapped over lines
QUOTE = re.compile(r"`([A-Za-z_][\w.]*)\(([^`()]*)\)`")


def modules():
    return {
        info.name: importlib.import_module(f"waveinv.{info.name}")
        for info in pkgutil.iter_modules(waveinv.__path__)
    }


def resolve(name):
    """The waveinv function a quoted name denotes, or None."""
    *owner, leaf = name.split(".")
    mods = modules()
    holders = list(mods.values())
    if owner:  # a module, or a class of one
        classes = [getattr(m, owner[-1], None) for m in holders]
        holders = [mods[owner[-1]]] if owner[-1] in mods else filter(inspect.isclass, classes)
    for holder in holders:
        fn = getattr(holder, leaf, None)
        fn = getattr(fn, "__func__", fn)  # a class method's own function
        if inspect.isfunction(fn) and fn.__module__.startswith("waveinv."):
            return fn
    return None


def quoted_params(text):
    """The parameter names of a quoted list, or None for a usage example."""
    names = []
    for part in (p.strip() for p in text.split(",")):
        if part in ("", "*"):
            continue
        name, _, value = part.partition("=")
        if part == "..." or not name.strip().isidentifier():
            return None
        if value:
            try:
                ast.literal_eval(value.strip())
            except (ValueError, SyntaxError):
                return None
        names.append(name.strip())
    return names


def readme_signatures():
    found = []
    for match in QUOTE.finditer(README.read_text()):
        fn = resolve(match.group(1))
        params = quoted_params(" ".join(match.group(2).split()))
        if fn is not None and params is not None:
            found.append((match.group(1), fn, params))
    return found


def test_readme_quotes_the_signatures_of_the_code():
    found = readme_signatures()
    stale = {}
    for quoted, fn, params in found:
        names = [p for p in inspect.signature(fn).parameters if p not in ("self", "cls")]
        if params != names:
            stale[quoted] = (params, names)
    assert stale == {}, "README (left) quotes parameters the code (right) does not have"
    # the quotes that this test is there for are found
    assert {"dot_test", "taylor_test", "data_load", "evolve.energy_monitor",
            "forward_map", "sensitivity.derivative_apply_many", "SourceTerm.zero",
            "parameter_pairing", "gradient_norm", "nodal_gradient", "y_norm",
            "solve_backward", "illposed_experiment", "bump_sequence"} <= {
        q for q, _, _ in found
    }


def test_usage_examples_and_other_names_are_skipped():
    assert quoted_params("..., like=base") is None
    assert quoted_params("disc, like=base") is None
    assert quoted_params("disc, point, *, like=None") == ["disc", "point", "like"]
    assert quoted_params("scale=1.0") == ["scale"]
    assert resolve("BumpSequence.certified_norms") is not None
    assert resolve("SourceTerm.zero") is not None
    assert resolve("csr_matvec") is None and resolve("sin") is None
