"""Operator timelines and the midpoint march against independent per-node oracles.

The timeline must reproduce, node by node, what each assembly kit builds on
its own, with exactly symmetric values; the march must reproduce a plain
SuperLU march of the same step matrices, down to meshes with one or two free
DOFs; and a point that is constant in time must factorize its step matrix
once.  Equal rows share a factor whatever their fingerprints, and rows with
the same fingerprint that differ never do.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import waveinv as wi
from waveinv import evolve, galerkin
from waveinv.errors import SolverFailureError
from waveinv.evolve import _rows_differ, factorize_rows

from conftest import (
    direction_timeline, modal_source, reversed_forward, smooth_direction, varied_point
)

SIZES = {"wave1d": 12, "elastic2d": 3, "maxwell1d": 12}
SLOTS = ("A", "B", "C", "Q")


@pytest.fixture(scope="module")
def discs():
    return {problem: wi.build_grid(problem, n) for problem, n in SIZES.items()}


def time_grid():
    return np.linspace(0.0, 1.0, 21)


def kit_slots(disc, means, n, base_means=None):
    """Slot matrices at node ``n`` straight from the kits.

    ``means`` maps field names to (time x element) coefficient means; with
    ``base_means`` given, the maxwell1d A slot is linearized at that base.
    """
    kits = disc.kits
    zero = 0 * disc.M
    if disc.problem == "wave1d":
        return {
            "A": kits["stiffness"].assemble(means["a"][n]),
            "B": kits["mass"].assemble(means["b"][n]),
            "C": kits["mass"].assemble(means["rho"][n]),
            "Q": kits["mass"].assemble(means["q"][n]),
        }
    if disc.problem == "elastic2d":
        return {
            "A": kits["eps"].assemble(means["mu"][n]) + kits["div"].assemble(means["lam"][n]),
            "B": zero,
            "C": kits["vmass"].assemble(means["rho"][n]),
            "Q": zero,
        }
    if base_means is None:
        stiff = 1.0 / means["mu"][n]
    else:
        stiff = -means["mu"][n] / base_means["mu"][n] ** 2
    return {
        "A": kits["stiffness"].assemble(stiff),
        "B": zero,
        "C": kits["mass"].assemble(means["eps"][n]),
        "Q": zero,
    }


def assert_slots_match(tl, expected_at, n_time):
    for n in range(n_time):
        expected = expected_at(n)
        for slot in SLOTS:
            want = expected[slot].toarray()
            got = tl.matrix(slot, n).toarray()
            scale = max(np.abs(want).max(), 1e-300)
            assert np.abs(got - want).max() <= 1e-14 * scale, (slot, n)


@pytest.mark.parametrize("problem", sorted(SIZES))
def test_timeline_matches_per_node_assembly(discs, problem):
    disc = discs[problem]
    tg = time_grid()
    point = varied_point(disc, tg)
    means = {name: disc.element_means(f.values) for name, f in point.fields.items()}
    tl = wi.assemble_operators(disc, point)
    assert_slots_match(tl, lambda n: kit_slots(disc, means, n), tg.size)


@pytest.mark.parametrize("problem", sorted(SIZES))
def test_direction_timeline_matches_per_node_assembly(discs, problem):
    disc = discs[problem]
    tg = time_grid()
    point = varied_point(disc, tg)
    names = wi.FIELD_NAMES[problem]
    direction = smooth_direction(disc, tg, names, shift=1)
    base_means = {name: disc.element_means(f.values) for name, f in point.fields.items()}
    h_means = {name: disc.element_means(direction[name]) for name in names}
    tlh = direction_timeline(disc, point, direction)
    assert_slots_match(tlh, lambda n: kit_slots(disc, h_means, n, base_means), tg.size)


def splu_march(tl, f, u0, p0):
    """Midpoint march in momentum form with one SuperLU factorization per step."""
    dt = tl.dt
    n_time = tl.time_grid.size
    u = np.zeros((n_time, u0.size))
    p = np.zeros_like(u)
    u[0], p[0] = u0, p0
    for n in range(n_time - 1):
        ch = (tl.matrix("C", n) + tl.matrix("C", n + 1)) * 0.5
        bh = (tl.matrix("B", n) + tl.matrix("B", n + 1)) * 0.5
        aq = (tl.matrix("A", n) + tl.matrix("A", n + 1) + tl.matrix("Q", n) + tl.matrix("Q", n + 1)) * (dt / 4.0)
        s_mat = ch * (2.0 / dt) + bh + aq
        t_mat = ch * (2.0 / dt) + bh - aq
        rhs = t_mat @ u[n] + 2.0 * p[n] + 0.5 * dt * (f.values[n] + f.values[n + 1])
        u[n + 1] = spla.splu(s_mat.tocsc()).solve(rhs)
        p[n + 1] = (2.0 / dt) * (ch @ (u[n + 1] - u[n])) - p[n]
    du = np.array([spla.splu(tl.matrix("C", n).tocsc()).solve(p[n]) for n in range(n_time)])
    return u, du


def assert_march_matches_splu(disc):
    tg = time_grid()
    point = varied_point(disc, tg)
    tl = wi.assemble_operators(disc, point)
    f = modal_source(disc, tg)
    x = disc.nodes[disc.free_nodes]
    if disc.dim == 1:
        u0, v0 = np.sin(np.pi * x), x * (1.0 - x)
    else:
        bump = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        u0, v0 = np.repeat(bump, 2), np.repeat(bump, 2) * np.tile([1.0, -0.5], bump.size)
    p0 = wi.momentum_from_velocity(tl, v0)
    traj = wi.solve_forward(tl, f, u0=u0, u1=p0)
    u, du = splu_march(tl, f, u0, p0)
    assert np.abs(traj.u - u).max() <= 1e-12 * np.abs(u).max()
    assert np.abs(traj.du - du).max() <= 1e-12 * np.abs(du).max()


@pytest.mark.parametrize("problem", ["wave1d", "maxwell1d", "elastic2d"])
def test_march_matches_splu_oracle(discs, problem):
    assert_march_matches_splu(discs[problem])


@pytest.mark.parametrize("problem, n, n_free, kd", [("elastic2d", 2, 2, 1), ("maxwell1d", 2, 1, 0)])
def test_tiny_mesh_march_and_discrete_dot_test(problem, n, n_free, kd):
    # too small for the tridiagonal routine: these take band Cholesky
    disc = wi.build_grid(problem, n)
    assert (disc.n_free, disc.pattern.kd) == (n_free, kd)
    assert_march_matches_splu(disc)
    tg = time_grid()
    point = varied_point(disc, tg)
    base = wi.forward_map(disc, point, modal_source(disc, tg))
    rng = np.random.default_rng(11)
    v = wi.DataVector(rng.standard_normal((tg.size, disc.n_free)), tg)
    direction = smooth_direction(disc, tg, wi.FIELD_NAMES[problem])
    assert wi.dot_test(direction, v, mode="discrete", base=base) <= 1e-12


def transpose_positions(pattern):
    """Value positions of the transposed entries, so that values[..., perm] is the transpose."""
    rows = np.repeat(np.arange(pattern.n), np.diff(pattern.indptr))
    return pattern.locate(pattern.indices, rows)


@pytest.mark.parametrize("problem", sorted(SIZES))
def test_every_slot_is_exactly_symmetric(discs, problem):
    disc = discs[problem]
    tg = time_grid()
    point = varied_point(disc, tg)
    direction = smooth_direction(disc, tg, wi.FIELD_NAMES[problem], shift=1)
    perm = transpose_positions(disc.pattern)
    for tl in (wi.assemble_operators(disc, point), direction_timeline(disc, point, direction)):
        for slot, values in tl.values.items():
            if values is not None:
                assert np.array_equal(values[:, perm], values), slot


@pytest.mark.parametrize("problem", ["wave1d", "elastic2d"])
def test_singular_step_matrix_names_its_node(discs, problem):
    # wave1d takes the tridiagonal LU; on elastic2d band Cholesky finds the
    # matrix not positive definite and the general band LU finds it singular
    pattern = discs[problem].pattern
    identity = np.zeros(pattern.nnz)
    identity[pattern.locate(np.arange(pattern.n), np.arange(pattern.n))] = 1.0
    rows = np.stack([identity, 2.0 * identity, np.zeros(pattern.nnz), identity])
    with pytest.raises(SolverFailureError) as info:
        factorize_rows(pattern, rows)
    assert info.value.node == 2


@pytest.mark.parametrize("problem", sorted(SIZES))
def test_constant_point_factorizes_once(discs, problem, monkeypatch):
    disc = discs[problem]
    tg = time_grid()
    constants = {"a": 1.0, "b": 0.2, "q": 0.5, "rho": 1.0, "lam": 1.0, "mu": 1.0, "eps": 1.0}
    point = wi.ParameterPoint.from_constants(
        problem, tg, disc.n_nodes, **{name: constants[name] for name in wi.FIELD_NAMES[problem]}
    )
    f = modal_source(disc, tg)
    record = wi.forward_map(disc, point, f).solve
    assert len(record.factors) == tg.size - 1
    assert len({id(factor) for factor in record.factors}) == 1
    # the recovery of both rates factorizes the one C once, also in one-node
    # blocks, where each block takes the factor of the block before
    built = []

    class CountedLU(evolve.BandLU):
        def __init__(self, pattern, values, node):
            built.append(node)
            super().__init__(pattern, values, node)

    monkeypatch.setattr(evolve, "BandLU", CountedLU)
    for budget in (galerkin._BLOCK_BYTES, 1):
        monkeypatch.setattr(galerkin, "_BLOCK_BYTES", budget)
        traj = wi.forward_map(disc, point, f)
        built.clear()
        traj.ddu
        assert built == [0]


def held_then_ramped(disc, tg):
    """A point constant in time up to t = 0.5 and ramped after it, so that its
    rows repeat only next to each other."""
    constants = {"a": 1.0, "b": 0.2, "q": 0.5, "rho": 1.0, "lam": 1.2, "mu": 1.0, "eps": 1.0}
    point = wi.ParameterPoint.from_constants(
        disc.problem, tg, disc.n_nodes,
        **{name: constants[name] for name in wi.FIELD_NAMES[disc.problem]},
    )
    ramp = 1.0 + np.maximum(tg - 0.5, 0.0) ** 2
    for field in point.fields.values():
        field.values = field.values * ramp[:, None]
    return point


@pytest.mark.parametrize("problem", sorted(SIZES))
def test_dedup_stays_exact_under_any_fingerprint(discs, problem, monkeypatch):
    # with every row's fingerprint the same, and then also in one-row blocks,
    # where every match is confirmed against a remade row, a fresh, a resumed,
    # a reversed-timeline and a backward solve give the same bits from the same
    # factorizations
    disc = discs[problem]
    tg = time_grid()
    point = held_then_ramped(disc, tg)
    f = modal_source(disc, tg)
    moved = point.copy()
    name = wi.FIELD_NAMES[problem][0]
    moved.fields[name].values = np.where((np.arange(tg.size) >= 6)[:, None], 1.01, 1.0) * (
        point.fields[name].values
    )
    load = wi.SourceTerm(np.cos(np.outer(tg, np.arange(disc.n_free))), disc, tg)
    built = []

    class CountedLU(evolve.BandLU):
        def __init__(self, pattern, values, node):
            built.append(node)
            super().__init__(pattern, values, node)

    monkeypatch.setattr(evolve, "BandLU", CountedLU)

    def solves():
        out, counts, base = [], [], None
        for call in (
            lambda: wi.forward_map(disc, point, f),
            lambda: wi.forward_map(disc, moved, f, like=base),
            lambda: reversed_forward(base, load),
            lambda: wi.solve_backward(base, load),
        ):
            built.clear()
            traj = call()
            base = traj if base is None else base
            traj.ddu  # both rates in one pass
            counts.append(len(built))
            out += [traj.u, traj.du, traj.ddu]
        return out, counts

    want, want_counts = solves()
    # steps 0-9 and nodes 0-10 are held: one step and one C factor for them,
    # and one each for the 10 ramped steps and nodes
    assert want_counts[0] == 22
    monkeypatch.setattr(evolve, "_fingerprints", lambda rows: [0] * len(rows))
    for budget in (galerkin._BLOCK_BYTES, 1):
        monkeypatch.setattr(galerkin, "_BLOCK_BYTES", budget)
        got, counts = solves()
        assert counts == want_counts
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("problem", sorted(SIZES))
def test_rows_with_one_fingerprint_get_their_own_factors(discs, problem):
    # a row and a permutation of its entries have the same wrapping sum of bit
    # patterns; each must get a factor of its own matrix
    pattern = discs[problem].pattern
    diagonal = pattern.locate(np.arange(pattern.n), np.arange(pattern.n))
    one = np.full(pattern.nnz, -0.1)
    one[diagonal] = 2.0 + np.arange(pattern.n) / pattern.n
    other = one.copy()
    other[diagonal] = one[diagonal][::-1]
    rows = np.stack([one, other, one, other, other])
    keys = evolve._fingerprints(rows)
    assert keys[0] == keys[1] and _rows_differ(rows[:1], rows[1:2])[0]
    factors = factorize_rows(pattern, rows)
    assert factors[0] is not factors[1] and factors[1] is not factors[2]
    rhs = np.arange(1.0, pattern.n + 1.0)
    for row, factor in zip(rows, factors):
        x = factor.solve(rhs)
        assert np.allclose(pattern.apply((row, x)), rhs, rtol=1e-12, atol=0.0)


def test_rows_differ_gives_an_empty_mask_for_no_rows():
    rows = np.ones((3, 4))
    for empty in (rows[:0], rows[3:], np.ones((0, 2, 2))):
        mask = _rows_differ(empty, empty)
        assert mask.shape == (0,) and mask.dtype == bool
    assert list(_rows_differ(rows[1:], rows[:-1])) == [False, False]


def test_node_subset_discrete_dot_test_maxwell(discs):
    disc = discs["maxwell1d"]
    tg = time_grid()
    point = varied_point(disc, tg)
    base = wi.forward_map(disc, point, modal_source(disc, tg))
    spec = wi.ObservationSpec(
        kind="node-subset", indices=[1, 4, 7, 10], weights=[1.0, 0.5, 2.0, 1.5]
    )
    rng = np.random.default_rng(7)
    v = wi.DataVector(rng.standard_normal((tg.size, 4)), tg, spec)
    direction = smooth_direction(disc, tg, ("eps", "mu"))
    assert wi.dot_test(direction, v, mode="discrete", base=base) <= 1e-12
