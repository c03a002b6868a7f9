"""Values that do not fit where they are used are refused with a typed error.

Sources, trajectories and gradients keep the mesh and time grid they were
made on, and the functions that take one read its mesh from it, so a value
from another mesh or time grid is refused where it meets the rest.  Each
row of ``MISMATCHES`` gave a number or a bare numpy error before the values
kept their mesh; a new case is a new row.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import waveinv as wi
from waveinv import evolve, sensitivity
from waveinv.errors import (
    DegenerateTestError,
    DirectionShapeError,
    InversionConfigError,
    RegularityError,
    ResolutionError,
)
from waveinv.sensitivity import (
    adjoint_apply_discrete,
    gradient_norm,
    nodal_gradient,
    parameter_pairing,
    taylor_test,
)

TG = np.linspace(0.0, 1.0, 33)


def load(t, x):
    return t**2 * np.sin(np.pi * x)


def solved(disc, tg):
    point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.2, q=0.5, rho=1.0
    )
    return point, wi.forward_map(disc, point, wi.make_source(disc, tg, load))


@pytest.fixture(scope="module")
def at():
    """wave1d on 8 elements over [0, 1] with 33 time nodes on [0, 1]: a forward
    solve and its gradient.  Mesh B has as many nodes over [0, 2], and ``other``
    is a solve on it over [0, 2]; mesh C has fewer nodes."""
    disc = wi.build_grid("wave1d", 8)
    mesh_b = wi.build_grid("wave1d", 8, 2.0)
    point, base = solved(disc, TG)
    v = wi.DataVector(np.ones((TG.size, disc.n_free)), TG)
    return SimpleNamespace(
        disc=disc,
        B=mesh_b,
        C=wi.build_grid("wave1d", 6),
        point=point,
        base=base,
        other=solved(mesh_b, 2.0 * TG)[1],
        grad=adjoint_apply_discrete(disc, point, v, base),
    )


def moved_to(mesh, grad):
    return wi.GradientFields(mesh, grad.fields, grad.time_grid)


#: (call, mismatch, what the call does with it, the error it raises)
MISMATCHES = [
    ("forward_map", "source made on mesh B",
     lambda s: wi.forward_map(s.disc, s.point, wi.make_source(s.B, TG, load)), ResolutionError),
    ("forward_map", "source sampled on [0, 2]",
     lambda s: wi.forward_map(s.disc, s.point, wi.make_source(s.disc, 2.0 * TG, load)),
     ResolutionError),
    ("solve_backward", "load made on mesh B",
     lambda s: wi.solve_backward(s.base, wi.make_source(s.B, TG, load)),
     ResolutionError),
    ("y_norm", "mesh B where the level goes, as in y_norm(traj, B) before",
     lambda s: wi.y_norm(s.base, s.B), RegularityError),
    ("gradient_norm", "gradient put on mesh C, as in gradient_norm(C, g) before",
     lambda s: gradient_norm(moved_to(s.C, s.grad)), DirectionShapeError),
    ("parameter_pairing", "direction on mesh C, as in parameter_pairing(C, g, h) before",
     lambda s: parameter_pairing(s.grad, {"a": np.ones((TG.size, s.C.n_nodes))}),
     DirectionShapeError),
    ("Trajectory.__sub__", "a solve on mesh B over [0, 2]",
     lambda s: s.base - s.other, ResolutionError),
    ("nodal_gradient", "gradient put on mesh C, as in nodal_gradient(C, g) before",
     lambda s: nodal_gradient(moved_to(s.C, s.grad)), DirectionShapeError),
    ("Trajectory", "a solve's arrays put on mesh C",
     lambda s: wi.Trajectory(s.base.u, s.base.du, s.base.ddu, TG, s.C), DirectionShapeError),
]


@pytest.mark.parametrize(
    "call, error", [row[2:] for row in MISMATCHES], ids=[f"{r[0]}: {r[1]}" for r in MISMATCHES]
)
def test_a_value_from_another_mesh_or_time_grid_is_refused(at, call, error):
    with pytest.raises(error) as info:
        call(at)
    assert type(info.value) is error


#: (function, input, the call, the error it raises); none may solve anything
BAD_INPUTS = [
    ("make_source", "one number for all nodes",
     lambda s: wi.make_source(s.disc, TG, lambda t, x: 1.0), DirectionShapeError),
    ("make_source", "fewer nodes after t = 0.5",
     lambda s: wi.make_source(s.disc, TG, lambda t, x: x if t < 0.5 else x[:3]),
     DirectionShapeError),
    ("make_source", "a ragged value",
     lambda s: wi.make_source(s.disc, TG, lambda t, x: [x[:3], x[:4]]), DirectionShapeError),
    *[
        ("taylor_test", f"s_values {s_values}",
         lambda s, s_values=s_values: taylor_test({"a": np.ones((TG.size, s.disc.n_nodes))},
                                                  s_values, base=s.base),
         DegenerateTestError)
        for s_values in ([0.0, 1e-2], [-1e-1, -1e-2], [1e-2], [1e-2, 1e-2], [np.inf, 1e-2])
    ],
    *[
        ("add_noise", f"level {level}",
         lambda s, level=level: wi.add_noise(wi.observe(s.base), level, 1, s.disc),
         InversionConfigError)
        for level in (np.nan, np.inf)
    ],
    *[
        ("momentum_from_velocity", f"velocity of shape {name}",
         lambda s, shape=shape: wi.momentum_from_velocity(
             s.base.solve.timeline, np.ones(shape(s.disc.n_free))),
         ResolutionError)
        for name, shape in (("(n_free + 1,)", lambda n: n + 1), ("(n_free, 2)", lambda n: (n, 2)),
                            ("()", lambda n: ()))
    ],
]


@pytest.mark.parametrize(
    "call, error", [row[2:] for row in BAD_INPUTS], ids=[f"{r[0]}: {r[1]}" for r in BAD_INPUTS]
)
def test_a_bad_input_is_refused_before_any_solve(at, call, error, monkeypatch, capfd):
    def no_march(*args, **kwargs):
        raise AssertionError("marched before the input was checked")

    monkeypatch.setattr(evolve, "_march", no_march)
    monkeypatch.setattr(sensitivity, "_march", no_march)
    with pytest.raises(error) as info:
        call(at)
    assert type(info.value) is error
    assert capfd.readouterr().err == ""  # no LAPACK complaint on the way
