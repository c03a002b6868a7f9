"""Time integration of the second-order system and its backward adjoint.

The second-order equation is rewritten with the momentum p = C(t) u' as the
first-order system

    C(t) u' = p,      p' = f - B(t) u' - (A(t) + Q(t)) u,

and advanced by the implicit midpoint rule with half-node operators obtained
by averaging adjacent node samples.  The initial momentum (not the velocity)
is the second initial datum, so a time-dependent C never needs to be
differentiated inside the stepper.

Operators are value arrays on one sparsity pattern, so the step matrices
S_n, T_n of all steps come out of a few array operations, and every product
with a vector is one compiled CSR mat-vec
(:meth:`~.galerkin.SparsityPattern.matvec`).  Each distinct step matrix and
each distinct C(t_n) is factorized once by LAPACK (:class:`BandLU`) from
values scattered into band storage: tridiagonal LU on the 1D meshes, band
Cholesky wherever the matrix is positive definite, and band LU otherwise.
Every step matrix is symmetric, so a factor solves with the transpose as
well.  A forward solve keeps its timeline, factors and step values in one
:class:`SolveRecord`, the trajectory's ``solve``, for the exact-transpose
adjoint sweeps in :mod:`.sensitivity`; the timeline of
:func:`~.galerkin.assemble_operators` holds a copy of the field values it
was assembled from, so those sweeps can check that they linearize there.
The backward adjoint march (:func:`solve_backward`) reuses a forward solve's
factors and step values in reverse order wherever its matrices are the same
by construction.

One march kernel, :func:`_march`, advances both the forward recursion and
the linearized one of :mod:`.sensitivity`,

    S_n x_{n+1} = T_n x_n + 2 y_n + b_n,
    y_{n+1} = (2/dt) C_h,n (x_{n+1} - x_n) - y_n [+ c_n],

for one state column or for k columns at once.  Each step writes into
preallocated buffers and calls the compiled kernels directly: the pattern's
CSR mat-vec (:meth:`~.galerkin.SparsityPattern.kernel`, ``csr_matvecs`` for
k columns) and the factor's bound LAPACK solve routine.  The shapes are
checked once, when the march starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np
import scipy.linalg.lapack as lapack
import scipy.sparse.linalg as spla

from .errors import (
    DirectionShapeError,
    RegularityError,
    RequiresForwardSolveError,
    ResolutionError,
    SolverFailureError,
)
from .galerkin import OperatorTimeline, combine


@dataclass
class SourceTerm:
    """Load vectors (time node x free DOF): entries are (f(t_n), basis_i)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise DirectionShapeError(
                f"source must be 2-D (time x dof), got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DirectionShapeError("source contains non-finite entries")

    @classmethod
    def zero(cls, n_time, n_free):
        return cls(np.zeros((n_time, n_free)))


@dataclass(frozen=True)
class SolveRecord:
    """What a forward solve keeps for the derivative and adjoint sweeps.

    ``timeline`` is the solved timeline, ``factors`` the factor of every step
    matrix S_n, ``t_vals`` and ``c_half`` the (step x nnz) values of T_n and
    C_h, and ``c_factors`` the factor of every C(t_n).
    """

    timeline: OperatorTimeline
    factors: list
    t_vals: np.ndarray
    c_half: np.ndarray
    c_factors: list


@dataclass
class Trajectory:
    """Node samples of the state, its velocity, and its acceleration.

    ``solve`` is the :class:`SolveRecord` of a forward solve, which the
    derivative and adjoint sweeps reuse; it is None for derivative, backward
    and difference trajectories, and it is never serialized.
    """

    u: np.ndarray
    du: np.ndarray
    ddu: np.ndarray | None
    time_grid: np.ndarray
    dt: float
    solve: SolveRecord | None = None

    def __sub__(self, other):
        ddu = None
        if self.ddu is not None and other.ddu is not None:
            ddu = self.ddu - other.ddu
        return Trajectory(self.u - other.u, self.du - other.du, ddu, self.time_grid, self.dt)


def make_source(disc, time_grid, fn):
    """Sample a source function into load form using the full-mesh mass rows.

    ``fn(t, x)`` (scalar problems) or ``fn(t, x, y) -> (2, n_nodes)`` /
    ``(n_nodes, 2)`` (elastic) is evaluated at every node, then weighted by
    the mass rows so boundary-adjacent couplings are kept.
    """
    tg = np.asarray(time_grid, dtype=float)
    vals = np.empty((tg.size, disc.n_free))
    nodal = np.zeros(disc.n_dofs)
    for i, t in enumerate(tg):
        if disc.dim == 1:
            nodal[:] = fn(t, disc.nodes)
        else:
            comp = np.asarray(fn(t, disc.nodes[:, 0], disc.nodes[:, 1]))
            if comp.shape == (2, disc.n_nodes):
                comp = comp.T
            nodal[0::2] = comp[:, 0]
            nodal[1::2] = comp[:, 1]
        vals[i] = disc.M_load @ nodal
    return SourceTerm(vals)


def momentum_from_velocity(timeline, velocity):
    """Initial momentum datum p(0) = C(0) v for a velocity coefficient vector."""
    return timeline.matrix("C", 0) @ np.asarray(velocity, dtype=float)


class BandLU:
    """LAPACK factors of the symmetric matrix with ``values`` on a banded ``pattern``.

    Three routes, chosen from the pattern and the matrix itself:

    - tridiagonal patterns of at least three rows (the 1D meshes) take
      ``dgttrf``/``dgttrs``, because wave1d's ``b`` and ``q`` are unconstrained
      in sign and its step matrices can be indefinite;
    - every other pattern tries band Cholesky ``dpbtrf``/``dpbtrs`` on the
      ``(kd + 1, n)`` lower band storage, a third of the LU storage;
    - a matrix that ``dpbtrf`` finds not positive definite (LAPACK info > 0)
      goes to general band LU ``dgbtrf``/``dgbtrs``, which reports a singular
      matrix.

    On elastic2d and maxwell1d every step matrix (2/dt) C_h + (dt/2) A_h and
    every C(t_n) is positive definite, because the admissible set keeps C
    uniformly positive and A coercive, so all of elastic2d's factors are
    Cholesky factors.  Every matrix is exactly symmetric (see
    :class:`~.galerkin.AssemblyKit`), so :meth:`solve` also solves with the
    transpose.

    ``lapack_solve(rhs)`` is the LAPACK solve routine with the factors bound,
    so a call reaches LAPACK without a Python frame in between; it returns
    LAPACK's ``(x, info)``.
    """

    def __init__(self, pattern, values, node):
        kd = pattern.kd
        if kd == 1 and pattern.n >= 3:  # band rows 3, 2, 1: sub-, main and super-diagonal
            ab = pattern.band(values)
            *lu, info = lapack.dgttrf(ab[3, :-1], ab[2], ab[1, 1:])
            self.lapack_solve = partial(lapack.dgttrs, *lu)
        else:
            c, info = lapack.dpbtrf(pattern.lower_band(values), lower=1, overwrite_ab=1)
            if info == 0:
                self.lapack_solve = partial(lapack.dpbtrs, c, lower=1)
            else:  # not positive definite
                lu, piv, info = lapack.dgbtrf(pattern.band(values), kd, kd, overwrite_ab=True)
                self.lapack_solve = partial(lapack.dgbtrs, lu, kd, kd, ipiv=piv)
        if info != 0:
            raise SolverFailureError(node, f"factorization failed (LAPACK info {info})")

    def solve(self, rhs):
        """Solve with the matrix for a (n,) or (n, k) right-hand side."""
        return self.lapack_solve(rhs)[0]


def factorize_rows(pattern, rows):
    """One factor per row of values; equal rows share a single factorization."""
    seen = {}
    factors = []
    for n, row in enumerate(rows):
        key = row.tobytes()
        if key not in seen:
            seen[key] = BandLU(pattern, row, n)
        factors.append(seen[key])
    return factors


def solve_each(factors, rhs):
    """Solve factors[n] x[n] = rhs[n] with one multi-column solve per distinct factor.

    ``rhs`` is (node, dof) or (node, k, dof): every right-hand side of the
    nodes that share a factor is one column of that factor's solve.
    """
    groups = {}
    for n, factor in enumerate(factors):
        groups.setdefault(id(factor), (factor, []))[1].append(n)
    out = np.empty_like(rhs)
    n_dof = rhs.shape[-1]
    for factor, nodes in groups.values():
        block = rhs[nodes]
        out[nodes] = factor.solve(block.reshape(-1, n_dof).T).T.reshape(block.shape)
    return out


def step_values(timeline):
    """Values of the midpoint step matrices of every step, (step x nnz) each.

    Returns (S, T, C_half) with S = (2/dt) C_h + B_h + (dt/2) (A_h + Q_h) and
    T = (2/dt) C_h + B_h - (dt/2) (A_h + Q_h), where X_h averages X over the
    two ends of a step; a part that vanishes is None.
    """
    dt = timeline.dt
    v = timeline.values

    def half(x):
        return None if x is None else 0.5 * (x[:-1] + x[1:])

    c_half = half(v["C"])
    mass = combine((2.0 / dt, c_half), (1.0, half(v["B"])))
    stiff = combine((dt / 2.0, half(v["A"])), (dt / 2.0, half(v["Q"])))
    return combine((1.0, mass), (1.0, stiff)), combine((1.0, mass), (-1.0, stiff)), c_half


def solve_forward(timeline, f, u0=None, u1=None):
    """March the implicit midpoint scheme over the timeline.

    Parameters
    ----------
    timeline : OperatorTimeline
    f : SourceTerm
        Loads at every time node.
    u0 : array, optional
        Initial state coefficients (defaults to zero).
    u1 : array, optional
        Initial momentum datum p(0) = (C u')(0) in load form (defaults to
        zero).  Use :func:`momentum_from_velocity` to build it from a velocity.

    Returns
    -------
    Trajectory
        With velocity ``du`` recovered from C(t_n) du = p_n and acceleration
        ``ddu`` from the residual C ddu = f - B du - (A + Q) u - (dC) du.
        Its ``solve`` is the :class:`SolveRecord` of this solve.
    """
    return _solve(timeline, f, u0, u1)


def _solve(timeline, f, u0, u1, steps=None, c_factors=None):
    """:func:`solve_forward`, taking the step factors and values and the C(t_n)
    factors of ``timeline`` from ``steps = (factors, t_vals, c_half)`` and
    ``c_factors`` where they are given (see :func:`solve_backward`)."""
    tg = timeline.time_grid
    dt = timeline.dt
    pattern = timeline.pattern
    fv = f.values
    if fv.shape != (tg.size, pattern.n):
        raise ResolutionError(
            f"source shape {fv.shape} does not match ({tg.size}, {pattern.n})"
        )

    u = np.zeros((tg.size, pattern.n))
    p = np.zeros((tg.size, pattern.n))
    if u0 is not None:
        u[0] = np.asarray(u0, dtype=float)
    if u1 is not None:
        p[0] = np.asarray(u1, dtype=float)

    if steps is None:
        s_vals, t_vals, c_half = step_values(timeline)
        factors = factorize_rows(pattern, s_vals)
    else:
        factors, t_vals, c_half = steps
    loads = dt * 0.5 * (fv[:-1] + fv[1:])
    _march(pattern, factors, t_vals, c_half, 2.0 / dt, u, p, loads)
    bad = ~np.all(np.isfinite(u[1:]), axis=1)
    if bad.any():
        raise SolverFailureError(int(np.argmax(bad)), "midpoint solve produced non-finite values")

    v = timeline.values
    if c_factors is None:
        c_factors = factorize_rows(pattern, v["C"])
    du = solve_each(c_factors, p)
    resid = fv - pattern.apply((v["B"], du), (v["A"], u), (v["Q"], u), (timeline.rate("C"), du))
    ddu = solve_each(c_factors, resid)
    record = SolveRecord(timeline, factors, t_vals, c_half, c_factors)
    return Trajectory(u=u, du=du, ddu=ddu, time_grid=tg, dt=dt, solve=record)


def _march(pattern, factors, t_vals, c_half, two_dt, x, y, b, c=None):
    """Advance the midpoint recursion in place over every step.

    For n = 0 .. len(factors) - 1, with ``factors[n]`` factorizing S_n,

        S_n x[n + 1] = T_n x[n] + 2 y[n] + b[n],
        y[n + 1] = two_dt C_h,n (x[n + 1] - x[n]) - y[n] [+ c[n]],

    where T_n and C_h,n have the (nnz,) values ``t_vals[n]`` and
    ``c_half[n]``.  ``x`` and ``y`` are (steps + 1, n) for one state column or
    (steps + 1, n, k) for k columns, and hold the initial state in row 0;
    ``b`` and ``c`` are (steps, n) or (steps, n, k).  The operations keep the
    order of the one-column recursion, so each column comes out bit for bit
    as it would on its own.
    """
    n_steps = len(factors)
    if (
        len(t_vals) != n_steps
        or len(c_half) != n_steps
        or x.shape[0] != n_steps + 1
        or y.shape != x.shape
        or b.shape != (n_steps,) + x.shape[1:]
        or (c is not None and c.shape != b.shape)
    ):
        raise ValueError(
            f"states {x.shape} and {y.shape}, step terms {b.shape} and "
            f"{len(t_vals)} and {len(c_half)} step values do not match {n_steps} steps"
        )
    if x.ndim == 3 and x.shape[2] == 1:
        # one column: the single-vector kernel, on views of the same rows
        x, y, b = x[..., 0], y[..., 0], b[..., 0]
        c = None if c is None else c[..., 0]
    t_product = pattern.kernel(t_vals, x[0])
    c_product = pattern.kernel(c_half, x[0])
    rhs = np.empty(x.shape[1:])
    work = np.empty_like(rhs)
    c_step = np.empty_like(rhs)
    # row views, made once: a list indexes faster than an array
    xs, ys = list(x), list(y)
    rows = zip(t_vals, c_half, factors, b, repeat(None) if c is None else c)
    for (t_row, ch_row, factor, b_term, c_term), x0, x1, y0, y1 in zip(
        rows, xs, xs[1:], ys, ys[1:]
    ):
        # the kernels add into their output, so each product starts from zeros
        rhs.fill(0.0)
        t_product(t_row, x0, rhs)
        np.multiply(y0, 2.0, out=work)
        rhs += work
        rhs += b_term
        x1[...] = factor.lapack_solve(rhs)[0]
        np.subtract(x1, x0, out=work)
        c_step.fill(0.0)
        c_product(ch_row, work, c_step)
        np.multiply(c_step, two_dt, out=y1)
        y1 -= y0
        if c_term is not None:
            y1 += c_term


def reverse_timeline(timeline):
    """The timeline of the end-condition adjoint equation after time reversal.

    The adjoint equation (C w')' - B* w' + (A + Q* - (B*)') w = v with
    homogeneous end conditions becomes, in the reversed variable
    w~(s) = w(T - s), an initial-value problem of the same form with

        A -> A reversed,  C -> C reversed,  B -> +B^T reversed,
        Q -> (Q^T - (dB)^T) reversed,

    where dB keeps the orientation of the original time axis.  Every operator
    is symmetric (see :class:`~.galerkin.AssemblyKit`), so the transposes
    are the values as they are.
    """
    v = timeline.values

    def flip(values):
        return None if values is None else values[::-1]

    q_t = combine((1.0, v["Q"]), (-1.0, timeline.rate("B")))
    values = {"A": flip(v["A"]), "B": flip(v["B"]), "C": flip(v["C"]), "Q": flip(q_t)}
    return OperatorTimeline(timeline.problem, timeline.time_grid, timeline.pattern, values)


def solve_backward(timeline, v, like=None):
    """Solve the adjoint equation backward in time with end conditions zero.

    ``v`` is the adjoint source in load form.  The equation is reversed to an
    initial-value problem (see :func:`reverse_timeline`), marched like
    :func:`solve_forward`, and the output is flipped back; velocities change
    sign under the reversal.

    ``like`` is a forward solve on this same timeline.  The reversed march
    then takes its factors and step values, in reverse order, wherever they
    are the forward's bit for bit by construction: the factors of every
    C(t_n), and the factors and the T_n and C_h values of every step when
    the B slot is absent, since Q - dB is then Q itself and a half-node
    average is the same sum taken in the other order.
    """
    steps = c_factors = None
    if like is not None:
        record = like.solve
        if record is None or record.timeline is not timeline:
            raise RequiresForwardSolveError("like must be a forward solve on this timeline")
        c_factors = record.c_factors[::-1]
        if timeline.values["B"] is None:
            steps = (record.factors[::-1], record.t_vals[::-1], record.c_half[::-1])
    back = _solve(
        reverse_timeline(timeline), SourceTerm(v.values[::-1].copy()), None, None, steps, c_factors
    )
    w, dw, ddw = back.u[::-1].copy(), -back.du[::-1], back.ddu[::-1].copy()
    return Trajectory(w, dw, ddw, timeline.time_grid, timeline.dt)


# ---------------------------------------------------------------------------
# diagnostics


@dataclass
class CompatibilityReport:
    """Outcome of the higher-regularity compatibility conditions."""

    k: int
    passed: bool
    conditions: list

    def failures(self):
        return [c for c in self.conditions if not c["ok"]]


def compatibility_check(f, u0, u1, k):
    """Check the data conditions for solution smoothness level ``k``.

    Level 0 imposes nothing.  Levels >= 1 require homogeneous initial data,
    and level 2 a vanishing source trace f(0) (tolerance 1e-8 relative to
    the largest load).
    """
    k = int(k)
    if k not in (0, 1, 2):
        raise RegularityError(f"smoothness level must be 0, 1 or 2, got {k}")
    fv = f.values
    scale = float(np.max(np.abs(fv))) if fv.size else 0.0
    ztol = 1e-12 * max(1.0, scale)
    conditions = []

    if k >= 1:
        for name, data in (("u0 = 0", u0), ("u1 = 0", u1)):
            val = 0.0 if data is None else float(np.max(np.abs(data)))
            conditions.append({"name": name, "value": val, "tol": ztol, "ok": val <= ztol})

    if k >= 2:
        val = float(np.max(np.abs(fv[0]))) if fv.shape[0] else 0.0
        tol = 1e-8 * scale if scale > 0 else 1e-8
        conditions.append({"name": "f^(0)(0) = 0", "value": val, "tol": tol, "ok": val <= tol})

    return CompatibilityReport(k=k, passed=all(c["ok"] for c in conditions), conditions=conditions)


@dataclass
class EnergyReport:
    """Discrete energy series E_n = (du . C du + u . (A+Q) u) / 2 and summaries."""

    energies: np.ndarray
    max_relative_drift: float
    monotone_nonincreasing: bool
    lambda_hat: float | None = None


def energy_monitor(trajectory, timeline, f=None, disc=None):
    """Track the discrete energy along a trajectory.

    ``max_relative_drift`` is the largest per-step energy change relative to
    the peak energy; ``lambda_hat`` (recorded only when a source and mesh are
    supplied) is the observed stability ratio max E / ||f||^2 with the source
    measured in the time-integrated pivot norm through the inverse mass
    matrix.  It is an empirical constant of this run, nothing more.
    """
    u = trajectory.u
    du = trajectory.du
    n_time = u.shape[0]
    v = timeline.values
    c_du = timeline.pattern.matvec(v["C"], du)
    aq_u = timeline.pattern.apply((v["A"], u), (v["Q"], u))
    energies = 0.5 * (np.einsum("ni,ni->n", du, c_du) + np.einsum("ni,ni->n", u, aq_u))
    steps = np.diff(energies)
    peak = float(energies.max()) if n_time else 0.0
    ref = peak if peak > 0 else 1.0
    lam = None
    if f is not None and disc is not None:
        from .forward import trapezoid_weights  # local import to avoid a cycle

        wts = trapezoid_weights(trajectory.time_grid)
        minv = spla.splu(disc.M.tocsc())
        total = float(wts @ np.einsum("ni,in->n", f.values, minv.solve(f.values.T)))
        if total > 0:
            lam = peak / total
    return EnergyReport(
        energies=energies,
        max_relative_drift=float(np.abs(steps).max() / ref) if steps.size else 0.0,
        monotone_nonincreasing=bool(np.all(steps <= 1e-12 * ref)),
        lambda_hat=lam,
    )


def y_norm(trajectory, disc, k=0):
    """Solution-space norm: sup-in-time energy norms of the state and rates.

    k = 0: max_n |u|_V + max_n |du|_H;  k = 1 additionally max_n |du|_V +
    max_n |ddu|_H.  Requires the acceleration for k = 1.
    """
    if k not in (0, 1):
        raise RegularityError(f"norm level must be 0 or 1, got {k}")

    def sup_norm(rows, gram):
        if rows is None:
            return 0.0
        prods = np.einsum("ni,ni->n", rows, (gram @ rows.T).T)
        return float(np.sqrt(np.maximum(prods, 0.0)).max())

    total = sup_norm(trajectory.u, disc.K_V) + sup_norm(trajectory.du, disc.M)
    if k == 1:
        if trajectory.ddu is None:
            raise RegularityError("level-1 norm needs the acceleration samples")
        total += sup_norm(trajectory.du, disc.K_V) + sup_norm(trajectory.ddu, disc.M)
    return total
