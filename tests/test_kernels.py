"""Operator products, band storage, factor routes and the backward sweep's sharing.

``SparsityPattern.apply`` must give what a scipy CSR matrix of the same
values gives, one row at a time or a whole stack at once, also for strided
inputs such as the reversed timelines of the backward sweep; ``band`` and
``lower_band`` must give the LAPACK band storages built straight from the
dense matrix; ``BandLU`` must take band Cholesky wherever the pattern is not
tridiagonal and the matrix is positive definite, and band LU where it is
not; and the backward sweep on a forward solve's factors and step values
must give exactly what the forward solve of the reversed timeline gives,
which builds them on its own, while computing nothing the forward solve
already has.
"""

import numpy as np
import pytest
import scipy.linalg.lapack

import waveinv as wi
from waveinv import evolve
from waveinv.evolve import midpoint_values
from waveinv.errors import RequiresForwardSolveError
from waveinv.sensitivity import adjoint_apply_continuous

from conftest import modal_source, reversed_forward, varied_point

# (problem, mesh size, free DOFs, half-bandwidth); the last two are too small
# for the tridiagonal LU and take the general band LU
MESHES = [
    ("wave1d", 12, 11, 1),
    ("elastic2d", 3, 8, 7),
    ("maxwell1d", 12, 11, 1),
    ("elastic2d", 2, 2, 1),
    ("maxwell1d", 2, 1, 0),
]
MESH_IDS = [f"{problem}-{n}" for problem, n, _, _ in MESHES]


def time_grid():
    return np.linspace(0.0, 1.0, 21)


@pytest.fixture(scope="module", params=MESHES, ids=MESH_IDS)
def operators(request):
    """A mesh, the operator timeline of a varied point on it, and random vectors."""
    problem, n, n_free, kd = request.param
    disc = wi.build_grid(problem, n)
    assert (disc.n_free, disc.pattern.kd) == (n_free, kd)
    tl = wi.assemble_operators(disc, varied_point(disc, time_grid()))
    x = np.random.default_rng(n_free).standard_normal((time_grid().size, n_free))
    return disc.pattern, tl, x


def csr_products(pattern, values, x):
    return np.array([pattern.matrix(v) @ xi for v, xi in zip(values, x)])


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_matvec_matches_csr_matrix(operators):
    pattern, tl, x = operators
    for slot, values in tl.values.items():
        if values is None:
            continue
        want = csr_products(pattern, values, x)
        for n in (0, values.shape[0] // 2, values.shape[0] - 1):
            assert_close(pattern.apply((values[n], x[n])), want[n])
        assert_close(pattern.apply((values, x)), want)
        # a reversed timeline and strided vectors, as the backward sweep has them
        reversed_values, x_f = values[::-1], np.asfortranarray(x)
        want_reversed = csr_products(pattern, reversed_values, x)
        assert_close(pattern.apply((reversed_values, x)), want_reversed)
        assert_close(pattern.apply((reversed_values, x_f)), want_reversed)
        assert_close(pattern.apply((reversed_values[3], x_f[3])), want_reversed[3])
        assert_close(pattern.apply((values[::2], x[::2])), want[::2])


def test_apply_sums_the_products(operators):
    pattern, tl, x = operators
    v = tl.values
    want = csr_products(pattern, v["C"], x) + csr_products(pattern, v["A"], x[::-1])
    assert_close(pattern.apply((v["C"], x), (None, x), (v["A"], x[::-1])), want)
    assert_close(pattern.apply((v["C"][5], x[5]), (None, x[5]), (v["A"][5], x[::-1][5])), want[5])


def test_matvec_rejects_mismatched_shapes(operators):
    # the kernel reads raw buffers, so a short operand must never reach it
    pattern, tl, x = operators
    values = tl.values["C"]
    for bad in ((values[:-1], x), (values[0], x), (values, x[0]), (values[:, :-1], x)):
        with pytest.raises(ValueError):
            pattern.apply(bad)


def test_band_matches_dense_band_storage(operators):
    pattern, tl, _ = operators
    kd = pattern.kd
    rng = np.random.default_rng(3)
    for values in (tl.values["A"][4], tl.values["C"][::-1][2], rng.standard_normal(pattern.nnz)):
        dense = pattern.matrix(values).toarray()
        want = np.zeros((3 * kd + 1, pattern.n))
        for i in range(pattern.n):
            for j in range(max(0, i - kd), min(pattern.n, i + kd + 1)):
                want[2 * kd + i - j, j] = dense[i, j]
        band = pattern.band(values)
        assert np.array_equal(band, want)
        assert band.flags.f_contiguous
        # the lower storage holds only the diagonal and the entries below it
        want_lower = np.zeros((kd + 1, pattern.n))
        for j in range(pattern.n):
            for i in range(j, min(pattern.n, j + kd + 1)):
                want_lower[i - j, j] = dense[i, j]
        lower = pattern.lower_band(values)
        assert np.array_equal(lower, want_lower)
        assert lower.flags.f_contiguous


@pytest.fixture
def lapack_calls(monkeypatch):
    """(routine, info) of every LAPACK call the factors make while the test runs."""
    calls = []

    class Recorder:
        def __getattr__(self, name):
            routine = getattr(scipy.linalg.lapack, name)

            def call(*args, **kwargs):
                result = routine(*args, **kwargs)
                calls.append((name, result[-1]))
                return result

            return call

    monkeypatch.setattr(evolve, "lapack", Recorder())
    return calls


@pytest.mark.parametrize(
    "problem, n, routines",
    [
        ("elastic2d", 3, {"dpbtrf", "dpbtrs"}),
        ("elastic2d", 2, {"dpbtrf", "dpbtrs"}),
        ("maxwell1d", 2, {"dpbtrf", "dpbtrs"}),
        # tridiagonal patterns keep the tridiagonal LU
        ("maxwell1d", 12, {"dgttrf", "dgttrs"}),
        ("wave1d", 12, {"dgttrf", "dgttrs"}),
    ],
)
def test_factor_route_follows_the_pattern(problem, n, routines, lapack_calls):
    disc = wi.build_grid(problem, n)
    tg = time_grid()
    wi.forward_map(disc, varied_point(disc, tg), modal_source(disc, tg))
    assert {name for name, _ in lapack_calls} == routines
    assert all(info == 0 for _, info in lapack_calls)


@pytest.mark.parametrize("n", [2, 3])
def test_indefinite_step_matrix_falls_back_to_band_lu(n, lapack_calls):
    # q = -1e4 is admissible (wave1d bounds only a and rho) and makes no S_n
    # positive definite; one and two free DOFs are too few for the tridiagonal LU
    disc = wi.build_grid("wave1d", n)
    tg = time_grid()
    point = wi.ParameterPoint.from_constants(
        "wave1d", tg, disc.n_nodes, a=1.0, b=0.2, q=-1e4, rho=1.0
    )
    tl = wi.assemble_operators(disc, point)
    steps = midpoint_values(tl.values, tl.dt)[0]
    rhs = np.random.default_rng(n).standard_normal((disc.n_free, 3))
    for node in (0, steps.shape[0] - 1):
        dense = tl.pattern.matrix(steps[node]).toarray()
        assert np.linalg.eigvalsh(dense).min() < 0.0
        lapack_calls.clear()
        factor = evolve.BandLU(tl.pattern, steps[node], node)
        assert [name for name, _ in lapack_calls] == ["dpbtrf", "dgbtrf"]
        assert lapack_calls[0][1] > 0 and lapack_calls[1][1] == 0
        want = np.linalg.solve(dense, rhs)
        assert np.abs(factor.solve(rhs) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.fixture
def counted_step_values(monkeypatch):
    """The number of steps of every block of step values built while the test runs."""
    built = []

    def counted(values, dt):
        built.append(len(values["C"]) - 1)
        return midpoint_values(values, dt)

    monkeypatch.setattr(evolve, "midpoint_values", counted)
    return built


@pytest.fixture
def counted_factors(monkeypatch):
    """The arguments of every BandLU factorization started while the test runs."""
    made = []

    class CountedLU(evolve.BandLU):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(evolve, "BandLU", CountedLU)
    return made


def varied_base(problem, n):
    disc = wi.build_grid(problem, n)
    tg = time_grid()
    point = varied_point(disc, tg)
    base = wi.forward_map(disc, point, modal_source(disc, tg))
    rng = np.random.default_rng(5)
    v = wi.DataVector(rng.standard_normal((tg.size, disc.n_free)), tg)
    return disc, point, base, v


def assert_backward_unchanged_by_sharing(base, v):
    load = wi.SourceTerm(v.values, base.disc, v.time_grid)
    shared = wi.solve_backward(base, load)
    alone = reversed_forward(base, load)
    for name, sign in (("u", 1.0), ("du", -1.0), ("ddu", 1.0)):
        assert np.array_equal(getattr(shared, name), sign * getattr(alone, name)[::-1]), name


@pytest.mark.parametrize(
    "problem, n", [("elastic2d", 3), ("maxwell1d", 12), ("elastic2d", 2), ("maxwell1d", 2)]
)
def test_continuous_adjoint_without_damping_factorizes_nothing(
    problem, n, counted_factors, counted_step_values
):
    disc, point, base, v = varied_base(problem, n)
    assert base.solve.timeline.values["B"] is None
    counted_factors.clear()
    counted_step_values.clear()
    adjoint_apply_continuous(disc, point, v, base)
    assert counted_factors == []
    assert counted_step_values == []
    assert_backward_unchanged_by_sharing(base, v)


def test_continuous_adjoint_with_damping_factorizes_only_its_steps(
    counted_factors, counted_step_values
):
    disc, point, base, v = varied_base("wave1d", 12)
    tl = base.solve.timeline
    assert np.ptp(tl.values["B"], axis=0).max() > 0.0  # b varies in time
    back = evolve.reverse_timeline(tl)
    steps = midpoint_values(back.values, back.dt)[0]
    distinct = len({row.tobytes() for row in steps})
    assert distinct == steps.shape[0]
    counted_factors.clear()
    counted_step_values.clear()
    adjoint_apply_continuous(disc, point, v, base)
    assert len(counted_factors) == distinct
    # the step values of every step are built once
    assert sum(counted_step_values) == steps.shape[0]
    assert_backward_unchanged_by_sharing(base, v)


def test_backward_sharing_needs_the_same_timeline():
    disc, point, base, v = varied_base("maxwell1d", 12)
    with pytest.raises(RequiresForwardSolveError):
        wi.solve_backward(base - base, wi.SourceTerm(v.values, disc, v.time_grid))
