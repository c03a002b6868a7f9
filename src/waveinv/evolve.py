"""Time integration of the second-order system and its backward adjoint.

The second-order equation is rewritten with the momentum p = C(t) u' as the
first-order system

    C(t) u' = p,      p' = f - B(t) u' - (A(t) + Q(t)) u,

and advanced by the implicit midpoint rule with half-node operators obtained
by averaging adjacent node samples.  The initial momentum (not the velocity)
is the second initial datum, so a time-dependent C never needs to be
differentiated inside the stepper.

Operators are value arrays on one sparsity pattern, so the step matrices
S_n, T_n of a block of steps come out of a few array operations, and every
product with a vector is one compiled CSR mat-vec
(:meth:`~.galerkin.SparsityPattern.apply`).  Each distinct step matrix and
each distinct C(t_n) is factorized once by LAPACK (:class:`BandLU`) from
values scattered into band storage: tridiagonal LU on the 1D meshes, band
Cholesky wherever the matrix is positive definite, and band LU otherwise.
Every step matrix is symmetric, so a factor solves with the transpose as
well.  A forward solve keeps its timeline, factors, T_n values and source
in one :class:`SolveRecord`, the trajectory's ``solve``, for the adjoint
sweeps and diagnostics in :mod:`.sensitivity`; its timeline holds the mesh
and (from :func:`~.galerkin.assemble_operators`) the point, which those read
from it, and the sweeps check that they linearize there.  The (step x nnz)
values that a sweep uses and does not keep, S_n and C_h, are made a block of
steps at a time (:func:`~.galerkin._row_blocks`).
The backward adjoint march (:func:`solve_backward`) reuses a forward solve's
factors and step values in reverse order wherever its matrices are the same
by construction.  A solve recovers the velocity and acceleration the first
time each is read (see :class:`Trajectory`), so a sweep that reads only the
state runs none of those recovery solves.

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
    CompatibilityError,
    DirectionShapeError,
    RegularityError,
    RequiresForwardSolveError,
    ResolutionError,
    SolverFailureError,
)
from .galerkin import Discretization, OperatorTimeline, _row_blocks, combine, read_only
from .galerkin import time_difference


@dataclass(frozen=True)
class SourceTerm:
    """Load vectors (time node x free DOF) on a mesh and time grid, entries (f(t_n), basis_i)."""

    values: np.ndarray
    disc: Discretization
    time_grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", read_only(self.values))
        object.__setattr__(self, "time_grid", read_only(self.time_grid))
        shape = (self.time_grid.size, self.disc.n_free)
        if self.values.shape != shape:
            raise DirectionShapeError(f"source has shape {self.values.shape}, expected {shape}")
        if not np.all(np.isfinite(self.values)):
            raise DirectionShapeError("source contains non-finite entries")

    @classmethod
    def zero(cls, disc, time_grid):
        return cls(np.zeros((np.size(time_grid), disc.n_free)), disc, time_grid)


@dataclass(frozen=True)
class SolveRecord:
    """What a forward solve keeps for the derivative and adjoint sweeps, and
    for a solve resumed from it (see :func:`solve_forward`).

    ``timeline`` is the solved timeline, with its mesh and point, ``factors``
    the factor of every step matrix S_n, ``t_vals`` the (step x nnz) values of
    T_n, and ``c_factors`` the factor of every C(t_n).  ``p`` holds the
    momentum at every node and ``source`` the :class:`SourceTerm` of the
    solve.  The C_h values are not kept: a sweep makes them again from the
    timeline's C rows (:func:`half_node`), a block of steps at a time.
    """

    timeline: OperatorTimeline
    factors: list
    t_vals: np.ndarray
    c_factors: list
    p: np.ndarray
    source: SourceTerm


class Trajectory:
    """Node samples of the state, its velocity, and its acceleration.

    ``du`` and ``ddu`` are given as arrays, or recovered the first time each
    is read, and only once, by ``recover = (velocity, acceleration)``:
    ``velocity()`` returns du and ``acceleration(u, du)`` returns ddu.  The
    solves pass recoveries that hold no trajectory, so a trajectory never
    sits in a reference cycle.  The recoveries read the solve's own arrays,
    which stay writable, when they run: a forward or backward trajectory's
    ``u`` (and a forward one's ``solve.p``), and a derivative trajectory's
    base's ``u``, ``du`` and ``ddu``; a write into those arrays before the
    first read of ``du`` or ``ddu`` changes the rates.

    ``disc`` is its mesh (its timeline's, base's or operands'), and ``u``, ``du`` and ``ddu``
    are (time node x free DOF) of it (DirectionShapeError otherwise).  ``solve`` is the
    :class:`SolveRecord` of a forward solve, which the sweeps reuse; it is None
    for derivative, backward and difference trajectories, and never serialized.
    """

    def __init__(self, u, du, ddu, time_grid, disc, solve=None, *, recover=(None, None)):
        shape = (np.size(time_grid), disc.n_free)
        for name, x in (("u", u), ("du", du), ("ddu", ddu)):
            if x is not None and np.shape(x) != shape:
                raise DirectionShapeError(f"{name} has shape {np.shape(x)}, expected {shape}")
        self.u = u
        self.time_grid, self.disc = time_grid, disc
        self.solve = solve
        self._du, self._ddu = du, ddu
        self._velocity, self._acceleration = recover

    @property
    def du(self):
        if self._du is None:
            self._du, self._velocity = self._velocity(), None
        return self._du

    @property
    def ddu(self):
        if self._ddu is None:
            self._ddu, self._acceleration = self._acceleration(self.u, self.du), None
        return self._ddu

    def __sub__(self, other):
        if not _fits(other, self):
            raise ResolutionError("trajectories on different meshes or time grids do not subtract")
        return Trajectory(
            self.u - other.u, self.du - other.du, self.ddu - other.ddu, self.time_grid, self.disc
        )


def _fits(value, home):
    """Whether ``value`` is on the mesh (the same object) and time grid (by value) of ``home``."""
    return value.disc is home.disc and np.array_equal(value.time_grid, home.time_grid)


def make_source(disc, time_grid, fn):
    """Sample a source function into load form using the full-mesh mass rows.

    ``fn(t, *disc.axes)`` -- ``fn(t, x)`` on an interval, ``fn(t, x, y)`` on
    a rectangle -- gives the nodal values at every node: ``(n_nodes,)`` for
    a scalar problem, ``(n_nodes, n_components)`` or ``(n_components,
    n_nodes)`` for a vector one.  They are weighted by the mass rows so
    boundary-adjacent couplings are kept: one sparse product for all time
    nodes, which accumulates each entry in the order of a single mat-vec.
    Values of another shape, or not of one shape, raise DirectionShapeError.
    """
    tg = np.asarray(time_grid, dtype=float)
    axes = disc.axes
    values = [fn(t, *axes) for t in tg]
    n, c = disc.n_nodes, disc.n_components
    shapes = [(n,)] * (c == 1) + [(n, c), (c, n)]
    found = sorted({np.shape(one) for one in values})
    if len(found) != 1 or found[0] not in shapes:
        raise DirectionShapeError(f"source values have shapes {found}, not one of {shapes}")
    nodal = np.asarray(values, dtype=float)
    if nodal.shape[1:] == (c, n):
        nodal = nodal.transpose(0, 2, 1)
    # component c of node j is DOF n_components * j + c
    nodal = nodal.reshape(tg.size, disc.n_dofs)
    return SourceTerm((disc.M_load @ nodal.T).T, disc, tg)


def momentum_from_velocity(timeline, velocity):
    """Initial momentum datum p(0) = C(0) v for a velocity coefficient vector,
    which must be (free DOF,): ResolutionError for another shape."""
    velocity = np.asarray(velocity, dtype=float)
    n = timeline.pattern.n
    if velocity.shape != (n,):
        raise ResolutionError(f"velocity has shape {velocity.shape}, expected ({n},)")
    return timeline.matrix("C", 0) @ velocity


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


def _fingerprints(rows):
    """A uint64 per row: the wrapping sum of the bit patterns of its entries."""
    return rows.view(np.uint64).sum(axis=-1).tolist()


def factorize_rows(pattern, rows, known=None, seen=None, first=0, remake=None):
    """One factor per row of values, the rows of nodes ``first``, ``first`` + 1,
    ...; equal rows share a single factorization.

    ``known`` gives, for each node, a factor of its row or None; a row with
    a known factor takes it, and only the others are factorized.  ``seen``
    maps the :func:`_fingerprints` of the rows factorized so far to the
    latest (node, factor), so that calls on consecutive blocks that share it
    factorize each distinct row once; a match counts only if the two rows
    are equal bit for bit, the earlier read from ``rows`` or ``remake(node)``.
    """
    seen = {} if seen is None else seen
    same = np.zeros(len(rows), dtype=bool)  # equal to the row before
    same[1:] = ~_rows_differ(rows[1:], rows[:-1])
    factors = []
    for i, (row, key) in enumerate(zip(rows, _fingerprints(rows))):
        n = first + i
        if known is not None and known[n] is not None:
            factors.append(known[n])
            continue
        m, factor = seen.get(key, (None, None))
        if factor is not None and not (same[i] and m == n - 1):
            match = rows[m - first] if m >= first else remake(m)
            if _rows_differ(row[None], match[None])[0]:
                factor = None
        if factor is None:
            factor = BandLU(pattern, row, n)
        seen[key] = (n, factor)
        factors.append(factor)
    return factors


def solve_each(factors, rhs):
    """Solve factors[n] x[n] = rhs[n] with one multi-column solve per distinct factor.

    ``rhs`` is (node, dof) or (node, k, dof): every right-hand side of the
    nodes that share a factor is one column of that factor's solve; a
    factor of one node solves its rows as they are.
    """
    groups = {}
    for n, factor in enumerate(factors):
        groups.setdefault(id(factor), (factor, []))[1].append(n)
    out = np.empty_like(rhs)
    n_dof = rhs.shape[-1]
    for factor, nodes in groups.values():
        if len(nodes) == 1:
            n = nodes[0]
            out[n] = factor.solve(rhs[n].T).T
            continue
        block = rhs[nodes]
        out[nodes] = factor.solve(block.reshape(-1, n_dof).T).T.reshape(block.shape)
    return out


def half_node(x):
    """The averages 0.5 (x_n + x_{n+1}) of consecutive node rows, one per step
    between them, in one new array; None stays None."""
    if x is not None:
        x = np.add(x[:-1], x[1:])
        x *= 0.5
    return x


def _add_into(out, x):
    """out + x, in place in ``out``; None terms are left out."""
    if out is None or x is None:
        return x if out is None else out
    out += x
    return out


def midpoint_values(v, dt):
    """Values of the midpoint step matrices, (step x ...) each, from slot
    values ``v`` with a leading axis of time nodes, for the steps between
    consecutive rows.

    Returns (S, T, C_half) with S = (2/dt) C_h + B_h + (dt/2) (A_h + Q_h) and
    T = (2/dt) C_h + B_h - (dt/2) (A_h + Q_h), where X_h is the
    :func:`half_node` average of X over the two ends of a step; a part that
    vanishes is None.  The sums are made in place, copying no part, so S
    and T are one array where the (dt/2) part vanishes.  Rows
    [n0, n1 + 1) of a timeline's slots give its steps n0 .. n1 - 1, bit for
    bit, when ``dt`` is the timeline's own step; a slot that is None stays out.
    """
    c_half = half_node(v["C"])
    mass = _add_into(None if c_half is None else c_half * (2.0 / dt), half_node(v["B"]))
    stiff = None
    for slot in ("A", "Q"):
        x = half_node(v[slot])
        if x is not None:
            x *= dt / 2.0
        stiff = _add_into(stiff, x)
    if stiff is None:
        return mass, mass, c_half
    if mass is None:
        return stiff, np.negative(stiff), c_half
    t = np.subtract(mass, stiff)
    return _add_into(mass, stiff), t, c_half


def solve_forward(timeline, f, u0=None, u1=None, *, like=None):
    """March the implicit midpoint scheme over the timeline.

    Parameters
    ----------
    timeline : OperatorTimeline
    f : SourceTerm
        Loads at every time node, on the timeline's mesh and time grid (else ResolutionError).
    u0 : array, optional
        Initial state coefficients (defaults to zero).
    u1 : array, optional
        Initial momentum datum p(0) = (C u')(0) in load form (defaults to
        zero).  Use :func:`momentum_from_velocity` to build it from a velocity.
        Each of u0 and u1 must be a finite (free DOF,) vector:
        ResolutionError for another shape, DirectionShapeError for a
        non-finite entry.
    like : Trajectory, optional
        A forward solve on the same pattern and time grid, at another point
        or with other data.  The solve then resumes from it (see
        :func:`_reuse`): the output is the same bit for bit, but the steps
        before the first change are copied rather than marched, and every
        step matrix and C(t_n) whose values are those of ``like`` takes its
        factor.  Raises RequiresForwardSolveError for any other ``like``.

    Returns
    -------
    Trajectory
        With velocity ``du`` recovered from C(t_n) du = p_n and acceleration
        ``ddu`` from the residual C ddu = f - B du - (A + Q) u - (dC) du,
        each at every node the first time it is read.  Its ``solve`` is
        the :class:`SolveRecord` of this solve.
    """
    u, record, recover = _solve(timeline, f, u0, u1, like=like)
    return Trajectory(u, None, None, timeline.time_grid, timeline.disc, record, recover=recover)


def _rows_differ(new, old):
    """Per row, whether two (row x ...) arrays differ bit for bit, as the
    factors and the march see them (so -0.0 differs from 0.0)."""
    return (new.view(np.uint64) != old.view(np.uint64)).any(axis=tuple(range(1, new.ndim)))


def _reuse(timeline, like, u, p, f):
    """What a solve of ``timeline`` takes from the forward solve ``like``.

    ``u`` and ``p`` are the new solve's states, holding the initial data,
    and ``f`` its source.  Returns ``(m0, known_steps, known_c)``: the
    states up to node m0 are the same as in ``like``, and the two lists
    give ``like``'s factor for each step matrix and each C(t_n) whose
    values are the same, None for the others.  Step n couples nodes n and
    n + 1, so it is the same when every slot row at both nodes is the same,
    bit for bit; m0 is the first step that is not, or earlier the first
    step with a source row that differs, or 0 when the initial data differ.
    Raises RequiresForwardSolveError unless ``like`` is a forward solve on
    the same mesh and time grid.
    """
    record = like.solve
    if record is None or not _fits(record.timeline, timeline):
        raise RequiresForwardSolveError("like must be a forward solve on this mesh and time grid")
    new, old = timeline.values, record.timeline.values
    node = np.zeros(timeline.time_grid.size, dtype=bool)
    for slot in new:
        if (new[slot] is None) != (old[slot] is None):
            node[:] = True
        elif new[slot] is not None:
            node |= _rows_differ(new[slot], old[slot])
    step = node[:-1] | node[1:]
    source = _rows_differ(f.values, record.source.values)
    changed = step | source[:-1] | source[1:]
    m0 = int(changed.argmax()) if changed.any() else len(step)
    if _rows_differ(u[:1], like.u[:1])[0] or _rows_differ(p[:1], record.p[:1])[0]:
        m0 = 0
    known_steps = [None if moved else f for moved, f in zip(step, record.factors)]
    c_moved = _rows_differ(new["C"], old["C"])
    known_c = [None if moved else f for moved, f in zip(c_moved, record.c_factors)]
    return m0, known_steps, known_c


def _solve(timeline, f, u0, u1, steps=None, c_factors=None, like=None):
    """:func:`solve_forward`, taking the step factors and T_n values and the
    C(t_n) factors of ``timeline`` from ``steps = (factors, t_vals)`` and
    ``c_factors`` where they are given (see :func:`solve_backward`).

    Returns the states u, the :class:`SolveRecord` and the
    ``(velocity, acceleration)`` recovery of a :class:`Trajectory`.  The
    steps go in the blocks of :func:`~.galerkin._row_blocks` of (nnz,) rows:
    a block's S_n, T_n and C_h values are made from its slot rows (only C_h
    where ``steps`` are given), its T_n kept, its distinct S_n factorized,
    with one table for all blocks that holds no row, and the block marched
    and dropped before the next block's are made.  With ``like``, the states
    up to node m0 of :func:`_reuse` are copied from it and only the steps
    after m0 are marched; only the step matrices and C(t_n) whose values
    differ from ``like``'s are factorized.
    The velocity and acceleration are recovered at every node, so each of
    them is exact node by node.
    """
    tg = timeline.time_grid
    dt = timeline.dt
    pattern = timeline.pattern
    if not _fits(f, timeline):
        raise ResolutionError("the source was made on another mesh or time grid than the timeline")
    fv = f.values

    u = np.zeros((tg.size, pattern.n))
    p = np.zeros((tg.size, pattern.n))
    for name, states, data in (("u0", u, u0), ("u1", p, u1)):
        if data is None:
            continue
        if np.shape(data) != (pattern.n,):
            raise ResolutionError(f"{name} has shape {np.shape(data)}, expected ({pattern.n},)")
        states[0] = data
        if not np.all(np.isfinite(states[0])):
            raise DirectionShapeError(f"{name} contains non-finite entries")
    loads = dt * 0.5 * (fv[:-1] + fv[1:])

    m0, known_steps, known_c = 0, None, None
    if like is not None:
        m0, known_steps, known_c = _reuse(timeline, like, u, p, f)
        u[1 : m0 + 1] = like.u[1 : m0 + 1]
        p[1 : m0 + 1] = like.solve.p[1 : m0 + 1]
    v = timeline.values
    n_steps = tg.size - 1
    factors, t_vals = ([], np.empty((n_steps, pattern.nnz))) if steps is None else steps

    def ends(n0, n1):  # the slot rows of steps n0 .. n1 - 1
        return {slot: None if x is None else x[n0 : n1 + 1] for slot, x in v.items()}

    def remake(n):  # S_n again, bit for bit, from the rows of its two nodes
        return midpoint_values(ends(n, n + 1), dt)[0][0]

    seen = {}
    for n0, n1 in _row_blocks(n_steps, pattern.nnz * 8):
        if steps is None:
            s_vals, t_vals[n0:n1], c_half = midpoint_values(ends(n0, n1), dt)
            factors += factorize_rows(pattern, s_vals, known_steps, seen, n0, remake)
            del s_vals
        else:
            c_half = half_node(v["C"][n0 : n1 + 1])
        m = max(n0, m0)
        if m < n1:
            _march(
                pattern, factors[m:n1], t_vals[m:n1], c_half[m - n0 :], 2.0 / dt,
                u[m : n1 + 1], p[m : n1 + 1], loads[m:n1],
            )
        del c_half  # before the next block's rows are made
    bad = ~np.all(np.isfinite(u), axis=1)
    if bad.any():
        raise SolverFailureError(int(np.argmax(bad)), "midpoint solve produced non-finite values")

    if c_factors is None:
        c_factors = factorize_rows(pattern, v["C"], known_c)

    def acceleration(u, du):
        rates = pattern.apply((v["B"], du), (v["A"], u), (v["Q"], u), (timeline.rate("C"), du))
        return solve_each(c_factors, fv - rates)

    record = SolveRecord(timeline, factors, t_vals, c_factors, p, f)
    return u, record, (partial(solve_each, c_factors, p), acceleration)


def _march(pattern, factors, t_vals, c_half, two_dt, x, y, b, c=None):
    """Advance the midpoint recursion in place over the steps of ``factors``.

    For n = 0 .. len(factors) - 1, with ``factors[n]`` factorizing S_n,

        S_n x[n + 1] = T_n x[n] + 2 y[n] + b[n],
        y[n + 1] = two_dt C_h,n (x[n + 1] - x[n]) - y[n] [+ c[n]],

    where T_n and C_h,n have the (nnz,) values ``t_vals[n]`` and
    ``c_half[n]``.  ``x`` and ``y`` are (steps + 1, n) for one state column or
    (steps + 1, n, k) for k columns, and hold the initial state in row 0;
    ``b`` and ``c`` are (steps, n) or (steps, n, k).  The operations keep the
    order of the one-column recursion, so each column comes out bit for bit
    as it would on its own.  The sweeps march a block of steps at a time,
    each on from the last row of the block before, which changes no bit.
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

    b_rate = None if v["B"] is None else time_difference(v["B"], timeline.dt)
    q_t = combine((1.0, v["Q"]), (-1.0, b_rate))
    values = {"A": flip(v["A"]), "B": flip(v["B"]), "C": flip(v["C"]), "Q": flip(q_t)}
    return OperatorTimeline(timeline.disc, timeline.time_grid, values)


def solve_backward(base, v):
    """Solve the adjoint equation on the timeline of the forward solve ``base``
    backward in time with end conditions zero (RequiresForwardSolveError for a
    base without a solve record).  ``v`` is the adjoint source in load form,
    on the base's mesh and time grid (ResolutionError otherwise).  The
    equation is reversed to an initial-value problem (see
    :func:`reverse_timeline`), marched like :func:`solve_forward`, and the
    output is flipped back; velocities change sign under the reversal.  Like
    the forward solve, it recovers the velocity and acceleration at every
    node the first time each is read.

    The reversed march takes the base's factors and step values, in reverse
    order, wherever they are the forward's bit for bit by construction: the
    factors of every C(t_n), and the factors and the T_n values of every
    step when the B slot is absent, since Q - dB is then Q itself.  It then
    makes only the C_h values, a block of steps at a time, from the reversed
    C rows; a half-node average is the same sum taken in the other order, so
    they are the forward's bit for bit.
    """
    record = base.solve
    if record is None:
        raise RequiresForwardSolveError("the backward solve runs on a forward solve's factors")
    timeline = record.timeline
    shared = timeline.values["B"] is None  # then the reversed step matrices are the forward's
    steps = (record.factors[::-1], record.t_vals[::-1]) if shared else None
    load = SourceTerm(v.values[::-1], v.disc, v.time_grid)
    back, _, (velocity, acceleration) = _solve(
        reverse_timeline(timeline), load, None, None, steps, record.c_factors[::-1]
    )
    # -dw[::-1] is the reversed solve's own velocity again, bit for bit
    recover = (
        lambda: -velocity()[::-1],
        lambda w, dw: acceleration(w[::-1], -dw[::-1])[::-1].copy(),
    )
    u = back[::-1].copy()
    return Trajectory(u, None, None, timeline.time_grid, timeline.disc, recover=recover)


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

    def require(self):
        """Raise CompatibilityError naming each failed condition, if any."""
        if not self.passed:
            fails = ", ".join(
                f"{c['name']} (value {c['value']:.3e} > tol {c['tol']:.3e})"
                for c in self.failures()
            )
            raise CompatibilityError(
                f"data fail the smoothness-{self.k} compatibility conditions: {fails}"
            )


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
    lambda_hat: float | None


def energy_monitor(trajectory):
    """Track the discrete energy along a forward solve, on its own timeline and mesh.

    ``max_relative_drift`` is the largest per-step energy change relative to
    the peak energy; ``lambda_hat`` is the observed stability ratio
    max E / ||f||^2 with the solve's source measured in the time-integrated
    pivot norm through the inverse mass matrix of the solve's mesh, an
    empirical constant of this run (None for a zero source).  A trajectory
    without a solve record raises RequiresForwardSolveError.
    """
    if trajectory.solve is None:
        raise RequiresForwardSolveError("the energy needs a forward solve; call forward_map first")
    timeline, f = trajectory.solve.timeline, trajectory.solve.source
    u, du = trajectory.u, trajectory.du
    n_time = u.shape[0]
    v = timeline.values
    c_du = timeline.pattern.apply((v["C"], du))
    aq_u = timeline.pattern.apply((v["A"], u), (v["Q"], u))
    energies = 0.5 * (np.einsum("ni,ni->n", du, c_du) + np.einsum("ni,ni->n", u, aq_u))
    steps = np.diff(energies)
    peak = float(energies.max()) if n_time else 0.0
    ref = peak if peak > 0 else 1.0
    from .forward import trapezoid_weights  # local import to avoid a cycle
    wts = trapezoid_weights(trajectory.time_grid)
    minv = spla.splu(timeline.disc.M.tocsc())
    total = float(wts @ np.einsum("ni,in->n", f.values, minv.solve(f.values.T)))
    return EnergyReport(
        energies=energies,
        max_relative_drift=float(np.abs(steps).max() / ref) if steps.size else 0.0,
        monotone_nonincreasing=bool(np.all(steps <= 1e-12 * ref)),
        lambda_hat=peak / total if total > 0 else None,
    )


def y_norm(trajectory, k=0):
    """Solution-space norm on the trajectory's mesh: sup-in-time energy norms of state and rates.

    k = 0: max_n |u|_V + max_n |du|_H;  k = 1 additionally max_n |du|_V +
    max_n |ddu|_H.
    """
    if k not in (0, 1):
        raise RegularityError(f"norm level must be 0 or 1, got {k}")

    def sup_norm(rows, gram):
        prods = np.einsum("ni,ni->n", rows, (gram @ rows.T).T)
        return float(np.sqrt(np.maximum(prods, 0.0)).max())

    disc = trajectory.disc
    total = sup_norm(trajectory.u, disc.K_V) + sup_norm(trajectory.du, disc.M)
    if k == 1:
        total += sup_norm(trajectory.du, disc.K_V) + sup_norm(trajectory.ddu, disc.M)
    return total
