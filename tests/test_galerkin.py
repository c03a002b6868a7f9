"""Meshes, operator assembly, admissibility, and discrete parameter norms."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import waveinv as wi
from waveinv.errors import (
    ConstraintViolationError,
    DirectionShapeError,
    InvalidMeshError,
    ResolutionError,
)
from waveinv.galerkin import PROBLEMS, AssemblyKit, time_difference

from conftest import varied_point


# ---------------------------------------------------------------------------
# meshes


def test_interval_mesh_layout(wave_disc):
    d = wave_disc
    assert d.n_nodes == 13
    assert np.allclose(np.diff(d.nodes), 1.0 / 12.0)
    assert list(d.free_nodes) == list(range(1, 12))
    assert d.n_free == 11
    assert d.element_sizes.sum() == pytest.approx(1.0)


def test_triangle_mesh_layout(elastic_disc):
    d = elastic_disc
    assert d.n_nodes == 16
    assert d.elements.shape == (18, 3)
    assert d.n_components == 2
    assert d.element_sizes.sum() == pytest.approx(1.0)
    assert np.all(d.element_sizes > 0)
    # free DOFs are the x/y components of the four interior nodes
    assert d.n_free == 8


def test_rectangular_extent():
    d = wi.build_grid("elastic2d", (2, 4), extent=(2.0, 1.0))
    assert d.element_sizes.sum() == pytest.approx(2.0)
    assert d.nodes[:, 0].max() == pytest.approx(2.0)
    assert d.nodes[:, 1].max() == pytest.approx(1.0)


def test_bad_meshes_rejected():
    with pytest.raises(InvalidMeshError):
        wi.build_grid("wave1d", 1)
    with pytest.raises(InvalidMeshError):
        wi.build_grid("wave1d", 10, extent=-1.0)
    with pytest.raises(InvalidMeshError):
        wi.build_grid("plate3d", 10)
    # n and extent give one entry, or one per axis of the problem's mesh
    for problem, n, extent in (
        ("wave1d", [4, 4], None),
        ("maxwell1d", 4, (1.0, 2.0)),
        ("elastic2d", 4, (1.0, 2.0, 3.0)),
        ("elastic2d", [4, 4, 4], None),
    ):
        with pytest.raises(InvalidMeshError, match="one per axis of the"):
            wi.build_grid(problem, n, extent)


def test_non_integral_counts_rejected():
    for problem, n in (("wave1d", 4.7), ("elastic2d", (3.9, 2.2)), ("elastic2d", (4, 2.5))):
        with pytest.raises(InvalidMeshError, match="whole numbers"):
            wi.build_grid(problem, n)
    # an integral count of any numeric type builds the mesh it always did
    for n in (4.0, np.int64(4), [4.0]):
        assert np.array_equal(wi.build_grid("wave1d", n).nodes, wi.build_grid("wave1d", 4).nodes)


def test_non_symmetric_local_matrix_rejected():
    local = np.array([[[1.0, 2.0], [0.0, 1.0]]])
    with pytest.raises(InvalidMeshError, match="symmetric"):
        AssemblyKit(local, np.array([[0, 1]]), 2, np.array([0, 1]))


def test_element_mean_accumulate_adjoint(wave_disc, elastic_disc):
    rng = np.random.default_rng(0)
    for d in (wave_disc, elastic_disc):
        v = rng.standard_normal(d.n_nodes)
        g = rng.standard_normal(d.elements.shape[0])
        lhs = float(np.sum(d.element_sizes * g * d.element_means(v)))
        rhs = float(v @ d.accumulate_to_nodes(g))
        assert lhs == pytest.approx(rhs, rel=1e-13)


def test_lumped_node_measure_partitions_volume(wave_disc, elastic_disc, maxwell_disc):
    for d in (wave_disc, elastic_disc, maxwell_disc):
        assert d.lumped_node_measure.sum() == pytest.approx(d.element_sizes.sum())
        assert np.all(d.lumped_node_measure > 0)


# ---------------------------------------------------------------------------
# operator assembly


def test_wave_mass_and_stiffness_entries():
    d = wi.build_grid("wave1d", 4)
    h = 0.25
    tg = np.linspace(0.0, 1.0, 3)
    point = wi.ParameterPoint.from_constants("wave1d", tg, d.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0)
    tl = wi.assemble_operators(d, point)
    C = tl.matrix("C", 0).toarray()
    A = tl.matrix("A", 0).toarray()
    assert np.allclose(np.diag(C), 2.0 * h / 3.0)
    assert np.allclose(np.diag(C, 1), h / 6.0)
    assert np.allclose(np.diag(A), 2.0 / h)
    assert np.allclose(np.diag(A, 1), -1.0 / h)
    # unit-coefficient operators coincide with the inner-product matrices
    assert np.allclose(C, d.M.toarray())
    assert np.allclose(A, d.K_V.toarray())


def test_assembly_linear_in_coefficients(wave_disc, time_grid):
    rng = np.random.default_rng(1)
    shape = (time_grid.size, wave_disc.n_nodes)
    f1, f2 = rng.uniform(0.5, 1.5, shape), rng.uniform(0.5, 1.5, shape)

    def stiffness_at(vals, n):
        point = wi.ParameterPoint.from_constants(
            "wave1d", time_grid, wave_disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0
        )
        point.fields["a"].values = vals
        return wi.assemble_operators(wave_disc, point).matrix("A", n).toarray()

    combo = stiffness_at(0.25 * f1 + 0.75 * f2, 7)
    parts = 0.25 * stiffness_at(f1, 7) + 0.75 * stiffness_at(f2, 7)
    assert np.allclose(combo, parts, atol=1e-14)


def test_elastic_operator_symmetric_positive(elastic_disc, elastic_point):
    tl = wi.assemble_operators(elastic_disc, elastic_point)
    A = tl.matrix("A", 0).toarray()
    C = tl.matrix("C", 0).toarray()
    assert np.allclose(A, A.T)
    assert np.allclose(C, C.T)
    assert np.linalg.eigvalsh(A).min() > 0
    assert np.linalg.eigvalsh(C).min() > 0
    assert tl.values["B"] is None and tl.values["Q"] is None
    assert tl.matrix("B", 0).nnz == 0


def test_maxwell_reciprocal_sampling(maxwell_disc, time_grid):
    # constant mu = 2 must give exactly half the unit stiffness matrix
    point = wi.ParameterPoint.from_constants(
        "maxwell1d", time_grid, maxwell_disc.n_nodes, eps=1.0, mu=2.0
    )
    tl = wi.assemble_operators(maxwell_disc, point)
    assert np.allclose(tl.matrix("A", 0).toarray(), 0.5 * maxwell_disc.K_V.toarray())
    # and the element sample is the vertex mean of mu, taken before inverting
    nodal_mu = np.linspace(1.0, 2.0, maxwell_disc.n_nodes)
    point.fields["mu"].values = np.tile(nodal_mu, (time_grid.size, 1))
    tl = wi.assemble_operators(maxwell_disc, point)
    mu_e = maxwell_disc.element_means(nodal_mu)
    kit = maxwell_disc.kits["stiffness"]
    assert np.allclose(tl.matrix("A", 0).toarray(), kit.assemble(1.0 / mu_e).toarray())


def test_assemble_operators_rejects_inadmissible(wave_disc, time_grid):
    point = wi.ParameterPoint.from_constants(
        "wave1d", time_grid, wave_disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0
    )
    values = point.fields["a"].values.copy()
    values[5, 3] = 0.01  # below the lower bound
    point.fields["a"].values = values
    with pytest.raises(ConstraintViolationError):
        wi.assemble_operators(wave_disc, point)


def test_fields_that_do_not_fit_the_mesh_are_rejected():
    # checked when the operators are assembled, so a field replaced after the
    # point was built is caught too
    disc = wi.build_grid("wave1d", 8)  # 9 nodes
    tg = np.linspace(0.0, 1.0, 21)
    f = wi.SourceTerm.zero(disc, tg)

    def point(n_space):
        return wi.ParameterPoint.from_constants(
            "wave1d", tg, n_space, a=1.0, b=0.0, q=0.0, rho=1.0
        )

    cases = [("a", point(disc.n_nodes + 4), (21, 13))]
    for shape in ((21, 12), (21, 3), (15, 9)):
        written = point(disc.n_nodes)
        grid = np.linspace(0.0, 1.0, shape[0])
        written.fields["q"] = wi.ParameterField(np.zeros(shape), grid)
        cases.append(("q", written, shape))
    for name, bad, shape in cases:
        message = f"field '{name}' has shape {shape}, expected (21, 9)"
        with pytest.raises(DirectionShapeError, match=re.escape(message)):
            wi.forward_map(disc, bad, f)


#: 21 time nodes on [0, 1], the grid of the cases below
TG21 = np.linspace(0.0, 1.0, 21)


def _wave_point(tg=TG21, n_space=9):
    return wi.ParameterPoint.from_constants("wave1d", tg, n_space, a=1.0, b=0.0, q=0.0, rho=1.0)


def _field_on_another_grid():
    fields = _wave_point().fields
    fields["b"] = wi.ParameterField.constant(0.0, np.linspace(0.0, 2.0, 21), 9)
    return wi.ParameterPoint("wave1d", fields)


#: case -> (call on a wave1d mesh of 8 elements, error class, message)
TYPED_VALIDATIONS = {
    "field-not-2d": (
        lambda disc: wi.ParameterField(np.ones(21), TG21),
        DirectionShapeError, "field values must be 2-D (time x space), got shape (21,)",
    ),
    "field-time-rows": (
        lambda disc: wi.ParameterField(np.ones((20, 9)), TG21),
        DirectionShapeError, "field has 20 time rows but the grid has 21 nodes",
    ),
    "field-non-finite": (
        lambda disc: wi.ParameterField(np.full((21, 9), np.inf), TG21),
        DirectionShapeError, "field value inf at (time node, mesh node) (0, 0) is not finite",
    ),
    "point-missing-fields": (
        lambda disc: wi.ParameterPoint("wave1d", {"a": _wave_point().fields["a"]}),
        DirectionShapeError, "missing parameter fields ['b', 'q', 'rho']",
    ),
    "point-unknown-field": (
        lambda disc: wi.ParameterPoint(
            "wave1d", {**_wave_point().fields, "mu": wi.ParameterField.constant(1.0, TG21, 9)}
        ),
        DirectionShapeError, "fields ['mu'] unknown to problem 'wave1d'",
    ),
    "field-on-another-time-grid": (
        lambda disc: _field_on_another_grid(),
        DirectionShapeError, "field 'b' uses a different time grid",
    ),
    "point-for-another-problem": (
        lambda disc: wi.assemble_operators(wi.build_grid("maxwell1d", 8), _wave_point()),
        DirectionShapeError, "point is for 'wave1d' but the mesh is for 'maxwell1d'",
    ),
    "two-time-nodes": (
        lambda disc: wi.assemble_operators(disc, _wave_point(np.linspace(0.0, 1.0, 2))),
        ResolutionError, "timelines need at least three time nodes",
    ),
    "norm-order-beyond-the-grid": (
        lambda disc: wi.parameter_norm(_wave_point(np.linspace(0.0, 1.0, 3)).fields["a"], 2),
        ResolutionError, "order 2 norm needs at least 4 time nodes, grid has 3",
    ),
}


@pytest.mark.parametrize("case", sorted(TYPED_VALIDATIONS))
def test_typed_validations(case):
    call, error, message = TYPED_VALIDATIONS[case]
    disc = wi.build_grid("wave1d", 8)
    with pytest.raises(error, match=re.escape(message)) as info:
        call(disc)
    assert type(info.value) is error


def test_timeline_derivative_matches_stencil(wave_disc, time_grid):
    point = varied_point(wave_disc, time_grid)
    tl = wi.assemble_operators(wave_disc, point)
    dt = time_grid[1] - time_grid[0]
    n = 17
    expected = (tl.matrix("C", n + 1).toarray() - tl.matrix("C", n - 1).toarray()) / (2 * dt)
    assert np.allclose(tl.pattern.matrix(tl.rate("C")[n]).toarray(), expected)


BAD_GRIDS = {
    "sorted-random": np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 41)),
    "decreasing": np.linspace(1.0, 0.0, 11),
}


@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_bad_time_grids_rejected(wave_disc, name):
    grid = BAD_GRIDS[name]
    with pytest.raises(ResolutionError):
        wi.ParameterField.constant(1.0, grid, wave_disc.n_nodes)
    with pytest.raises(ResolutionError):
        wi.ParameterPoint.from_constants(
            "wave1d", grid, wave_disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0
        )
    with pytest.raises(ResolutionError):
        wi.DataVector(np.ones((grid.size, wave_disc.n_free)), grid)


def test_uniform_time_grids_accepted(wave_disc):
    for grid in (np.linspace(0.0, 2.0, 41), np.arange(0.0, 1.0 + 1e-12, 0.05), np.array([0.3])):
        wi.ParameterField.constant(1.0, grid, wave_disc.n_nodes)
        wi.DataVector(np.ones((grid.size, wave_disc.n_free)), grid)


# ---------------------------------------------------------------------------
# admissibility and projection


def test_constraint_violation_reports_location(wave_disc, time_grid):
    point = wi.ParameterPoint.from_constants(
        "wave1d", time_grid, wave_disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0
    )
    values = point.fields["rho"].values.copy()
    values[3, 2] = 0.05
    point.fields["rho"].values = values
    with pytest.raises(ConstraintViolationError) as info:
        point.check_admissible()
    assert info.value.field == "rho"
    assert info.value.value == pytest.approx(0.05)
    assert info.value.index == (3, 2)


@pytest.mark.parametrize(
    "name, index, value",
    # a >= a0 is bounded below, b has no bound at all, and inversion iterates
    # and perturbed points assign a field's array
    [("a", (2, 2), np.nan), ("b", (4, 1), np.inf), ("q", (7, 5), np.nan)],
    ids=["nan_in_bounded_field", "inf_in_unbounded_field", "nan_in_a_written_field"],
)
def test_non_finite_values_are_rejected_with_their_place(wave_disc, time_grid, name, index, value):
    point = varied_point(wave_disc, time_grid)
    f = wi.SourceTerm.zero(wave_disc, time_grid)
    kept = point.fields[name].values
    with pytest.raises(ValueError, match="read-only"):
        kept[index] = value
    spoiled = kept.copy()
    spoiled[index] = value
    message = f"field value {value} at (time node, mesh node) {index} is not finite"
    with pytest.raises(DirectionShapeError, match=re.escape(message)):
        point.fields[name].values = spoiled
    assert point.fields[name].values is kept
    point.check_admissible()
    wi.forward_map(wave_disc, point, f)


def test_unknown_problem_is_a_typed_error(time_grid):
    field = wi.ParameterField.constant(1.0, time_grid, 3)
    with pytest.raises(DirectionShapeError, match="unknown problem 'wave2d'") as info:
        wi.ParameterPoint("wave2d", {"a": field})
    assert isinstance(info.value, ValueError)
    with pytest.raises(DirectionShapeError, match="unknown problem 'wave2d'"):
        wi.ParameterPoint.from_constants("wave2d", time_grid, 3, a=1.0)


def test_elastic_compound_bound(elastic_disc, time_grid):
    point = wi.ParameterPoint.from_constants(
        "elastic2d", time_grid, elastic_disc.n_nodes, lam=1.0, mu=1.0, rho=1.0
    )
    lam = point.fields["lam"]
    lam.values = np.full(lam.values.shape, 4.0)  # 2 mu + 3 lam = 14 > alpha0
    with pytest.raises(ConstraintViolationError):
        point.check_admissible()
    projected = wi.project_point(point)
    projected.check_admissible()


def test_project_point_clips_and_is_idempotent(wave_disc, time_grid):
    point = wi.ParameterPoint.from_constants(
        "wave1d", time_grid, wave_disc.n_nodes, a=1.0, b=0.0, q=0.0, rho=1.0
    )
    for name, index, value in (("a", (0, 0), -3.0), ("q", (1, 1), 1e9)):
        values = point.fields[name].values.copy()
        values[index] = value
        point.fields[name].values = values
    once = wi.project_point(point)
    once.check_admissible()
    twice = wi.project_point(once)
    for name in once.fields:
        assert np.array_equal(once.fields[name].values, twice.fields[name].values)
    # untouched entries survive projection
    assert once.fields["a"].values[5, 5] == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(
    lam=st.floats(-5.0, 20.0),
    mu=st.floats(-5.0, 20.0),
    rho=st.floats(-5.0, 20.0),
)
# points whose lam lands exactly on (1/alpha0 + s - 2 mu) / 3 round the
# recomputed 2 mu + 3 lam to just below 1/alpha0 + s
@example(lam=-2.0, mu=3.0, rho=0.0)
@example(lam=-5.0, mu=4.0, rho=1.0)
def test_project_point_always_lands_admissible(lam, mu, rho):
    disc = wi.build_grid("elastic2d", 2)
    tg = np.linspace(0.0, 1.0, 5)
    point = wi.ParameterPoint.from_constants(
        "elastic2d", tg, disc.n_nodes, lam=1.0, mu=1.0, rho=1.0
    )
    shape = point.fields["lam"].values.shape
    point.fields["lam"].values = np.full(shape, lam)
    point.fields["mu"].values = np.full(shape, mu)
    point.fields["rho"].values = np.full(shape, rho)
    once = wi.project_point(point)
    once.check_admissible()
    twice = wi.project_point(once)
    for name in once.fields:
        assert np.array_equal(once.fields[name].values, twice.fields[name].values)


class _LadderBounds:
    """Reference: the per-problem bound ladders that ``galerkin.BOUNDS`` replaced.

    ``_bounds`` and ``violations`` are the admissible-set check and
    :func:`_ladder_project` the projection as they were written per problem,
    with the default constants.
    """

    slack = 1e-8
    a0 = 0.1
    c0 = 0.1
    rho0 = 0.1
    alpha0 = 10.0
    eps0 = 0.1
    mu0 = 0.1
    mu1 = 10.0

    def __init__(self, problem):
        self.problem = problem

    def _bounds(self, fields):
        """Yield (bound_name, field_name, array, lower, upper) tuples."""
        s = self.slack
        if self.problem == "wave1d":
            yield ("a >= a0", "a", fields["a"].values, self.a0 + s, None)
            yield ("rho >= c0", "rho", fields["rho"].values, self.c0 + s, None)
        elif self.problem == "elastic2d":
            yield ("rho >= rho0", "rho", fields["rho"].values, self.rho0 + s, None)
            yield (
                "1/alpha0 <= mu <= alpha0",
                "mu",
                fields["mu"].values,
                1.0 / self.alpha0 + s,
                self.alpha0 - s,
            )
            combo = 2.0 * fields["mu"].values + 3.0 * fields["lam"].values
            yield (
                "1/alpha0 <= 2*mu+3*lam <= alpha0",
                "lam",
                combo,
                1.0 / self.alpha0 + s,
                self.alpha0 - s,
            )
        elif self.problem == "maxwell1d":
            yield ("eps >= eps0", "eps", fields["eps"].values, self.eps0 + s, None)
            yield ("mu0 <= mu <= mu1", "mu", fields["mu"].values, self.mu0 + s, self.mu1 - s)

    def violations(self, fields):
        """List of (bound, field, (time, space), value, limit) violations."""
        found = []
        for bound, name, arr, lo, hi in self._bounds(fields):
            if lo is not None:
                bad = arr < lo
                if np.any(bad):
                    idx = np.unravel_index(np.argmax(bad), arr.shape)
                    found.append((bound, name, idx, float(arr[idx]), float(lo)))
            if hi is not None:
                bad = arr > hi
                if np.any(bad):
                    idx = np.unravel_index(np.argmax(bad), arr.shape)
                    found.append((bound, name, idx, float(arr[idx]), float(hi)))
        return found


def _ladder_project(point):
    out = point.copy()
    b = _LadderBounds(point.problem)
    s = b.slack
    f = out.fields
    if point.problem == "wave1d":
        f["a"].values = np.clip(f["a"].values, b.a0 + s, None)
        f["rho"].values = np.clip(f["rho"].values, b.c0 + s, None)
    elif point.problem == "elastic2d":
        f["rho"].values = np.clip(f["rho"].values, b.rho0 + s, None)
        f["mu"].values = np.clip(f["mu"].values, 1.0 / b.alpha0 + s, b.alpha0 - s)
        mu, lam = f["mu"].values, f["lam"].values
        lo, hi = 1.0 / b.alpha0 + s, b.alpha0 - s
        combo = 2.0 * mu + 3.0 * lam
        lam = np.where(combo < lo, (lo + s - 2.0 * mu) / 3.0, lam)
        f["lam"].values = np.where(combo > hi, (hi - s - 2.0 * mu) / 3.0, lam)
    elif point.problem == "maxwell1d":
        f["eps"].values = np.clip(f["eps"].values, b.eps0 + s, None)
        f["mu"].values = np.clip(f["mu"].values, b.mu0 + s, b.mu1 - s)
    return out


def _first_violation(point):
    """(bound, field, index, value, limit) of check_admissible's error, or None."""
    try:
        point.check_admissible()
    except ConstraintViolationError as exc:
        return (exc.bound, exc.field, exc.index, exc.value, exc.limit)
    return None


_NODES = {problem: wi.build_grid(problem, 2).n_nodes for problem in PROBLEMS}
# every bound sits at 0.1 or 10; entries land on, just inside and just outside them
_NEAR_BOUNDS = st.sampled_from([e + k * 1e-8 for e in (0.1, 10.0) for k in (-2, -1, 0, 1, 2)])
_ENTRY = st.one_of(st.floats(-5.0, 20.0), _NEAR_BOUNDS)
# a field drawn inside every bound lets the later bounds of a problem be the first violated
_INSIDE = st.floats(0.2, 3.0)


@settings(max_examples=300, deadline=None)
@given(problem=st.sampled_from(PROBLEMS), data=st.data())
def test_bounds_table_matches_the_ladders(problem, data):
    shape = (3, _NODES[problem])

    def draw(elements):
        size = shape[0] * shape[1]
        return np.reshape(data.draw(st.lists(elements, min_size=size, max_size=size)), shape)

    tg = np.linspace(0.0, 1.0, shape[0])
    point = wi.ParameterPoint(
        problem,
        {
            name: wi.ParameterField(draw(data.draw(st.sampled_from((_ENTRY, _INSIDE)))), tg)
            for name in wi.FIELD_NAMES[problem]
        },
    )
    if problem == "elastic2d":
        # put 2 mu + 3 lam itself on both sides of its bounds where the mask says so
        combo, mask = draw(_ENTRY), draw(st.booleans())
        f = point.fields
        f["lam"].values = np.where(mask, (combo - 2.0 * f["mu"].values) / 3.0, f["lam"].values)

    reference = _LadderBounds(problem).violations(point.fields)
    assert _first_violation(point) == (reference[0] if reference else None)
    once = wi.project_point(point)
    expected = _ladder_project(point)
    twice = wi.project_point(once)
    for name in point.fields:
        assert np.array_equal(once.fields[name].values, expected.fields[name].values)
        assert np.array_equal(twice.fields[name].values, once.fields[name].values)
    assert _first_violation(once) is None
    assert not _LadderBounds(problem).violations(once.fields)


def test_point_copy_is_deep(wave_point):
    # the copy's fields are its own: assigning one leaves the original as it was
    other = wave_point.copy()
    other.fields["a"].values = np.full(other.fields["a"].values.shape, 9.0)
    assert wave_point.fields["a"].values[0, 0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# discrete parameter norms


def test_time_difference_exact_on_quadratics(time_grid):
    vals = np.outer(time_grid**2, np.ones(3))
    dt = time_grid[1] - time_grid[0]
    deriv = time_difference(vals, dt)
    assert np.allclose(deriv, np.outer(2.0 * time_grid, np.ones(3)), atol=1e-12)
    with pytest.raises(ResolutionError):
        time_difference(vals[:2], dt)


def test_parameter_norm_constant_field(time_grid):
    field = wi.ParameterField.constant(3.0, time_grid, 4)
    for k in (0, 1, 2):
        assert wi.parameter_norm(field, k) == pytest.approx(3.0)


def test_parameter_norm_quadratic_oracle(time_grid):
    # t^2 on [0, 1]: values sup 1, first derivative sup 2, second 2 — all
    # captured exactly by the second-order stencils
    field = wi.ParameterField.constant(0.0, time_grid, 4)
    field.values = np.outer(time_grid**2, np.ones(4))
    assert wi.parameter_norm(field, 0) == pytest.approx(2.0)
    assert wi.parameter_norm(field, 1) == pytest.approx(2.0)


def test_parameter_norm_scaling_and_growth(time_grid):
    rng = np.random.default_rng(3)
    field = wi.ParameterField.constant(0.0, time_grid, 5)
    field.values = rng.standard_normal(field.values.shape)
    scaled = wi.ParameterField.constant(0.0, time_grid, 5)
    scaled.values = -2.5 * field.values
    assert wi.parameter_norm(scaled, 1) == pytest.approx(2.5 * wi.parameter_norm(field, 1))
    norms = [wi.parameter_norm(field, k) for k in (0, 1, 2)]
    assert norms[0] <= norms[1] <= norms[2]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(0, 1))
def test_parameter_norm_monotone_in_smoothness_order(seed, k):
    tg = np.linspace(0.0, 1.0, 17)
    rng = np.random.default_rng(seed)
    field = wi.ParameterField.constant(0.0, tg, 3)
    field.values = rng.standard_normal(field.values.shape)
    assert wi.parameter_norm(field, k) <= wi.parameter_norm(field, k + 1) + 1e-12
