"""Derivative of the forward operator and its adjoint, in two modes.

The derivative is computed by differentiating the midpoint recursion itself:
with S_n, T_n the step matrices of the base solve and a dot denoting the
directional derivative of the assembled operators, the derivative trajectory
(eta, pi) obeys

    S_n eta_{n+1} = T_n eta_n + 2 pi_n + (Tdot_n u_n - Sdot_n u_{n+1}),
    pi_{n+1} = (2/dt) C_half_n (eta_{n+1} - eta_n) - pi_n
               + (2/dt) Cbar_half_n (u_{n+1} - u_n),

which is an O(dt^2)-consistent discretization of the linearized equation and
at the same time the exact derivative of the discrete solver — so its
remainder is purely quadratic in the direction and its transpose can be run
exactly over the stored factorizations.  The recursion is the forward one
with the extra terms b_n and c_n, so it runs on the same march kernel
(:func:`~.evolve._march`).  ``derivative_apply_many`` carries k directions
through one march as the k columns of its states, assembling them and
forming their b_n and c_n together; the first read of any of their
velocities or accelerations recovers those of all k together, in one pass
over the C(t_n) (:func:`~.evolve._recover`).  One fixed byte budget,
:data:`~.galerkin._BLOCK_BYTES`, bounds the sweep's working set: the
directions go in blocks whose (k, time node, nnz) value arrays would each
stay within it, and a block's direction slots, step terms and C_h are made
a block of time steps at a time and marched before the next block's are
made.  ``derivative_apply`` is its one-direction case.

Two adjoints are provided: ``adjoint_apply_discrete`` reverses the recursion
above (dot test exact to rounding at any step size), while
``adjoint_apply_continuous`` solves the backward-in-time adjoint equation
with end conditions and assembles the classical gradient densities
(e.g. -div u div w, u' . w'); the two agree at second order in dt.  Both run
on the base solve's band factors: the step matrices are symmetric, so the
discrete adjoint solves its transposed systems with them as they are, and the
backward equation reuses them in reverse order wherever its matrices equal
the forward's by construction (see :func:`~.evolve.solve_backward`); the
continuous adjoint recovers both velocities as two columns of one solve per
C(t_n) factor.  The (2/dt) C_h values of the discrete adjoint and the
gradient densities of both are made a block of time steps at a time.  All
operator products are the pattern's compiled CSR mat-vec.  Every sweep takes
the mesh, the point and its forward solve ``base``, and raises
RequiresForwardSolveError unless the base was solved on that very mesh at
that point as it is now.  Everything else reads the mesh, point, source and
initial data from the solve.

Gradient fields are per-element densities g(n, e) paired with nodal parameter
directions h through

    <g, h> = sum_n w_n sum_e |e| g(n, e) (vertex-mean h)(n, e),

with trapezoidal time weights w_n; ``nodal_gradient`` converts them to the
equivalent nodal representative for iteration updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from . import evolve, galerkin
from .errors import (
    DegenerateTestError,
    DirectionShapeError,
    ObservationError,
    RequiresForwardSolveError,
)
from .evolve import (
    SourceTerm,
    Trajectory,
    _march,
    half_node,
    midpoint_values,
    solve_backward,
)
from .forward import (
    DataVector,
    data_distance,
    data_inner,
    data_load,
    data_norm,
    forward_map,
    observe,
    trapezoid_weights,
)
from .galerkin import FORMS, _direction_slots, _row_blocks, assemble_direction, check_direction


@dataclass
class GradientFields:
    """Named per-element gradient densities on (time node x element) of the mesh ``disc``."""

    disc: galerkin.Discretization
    fields: dict
    time_grid: np.ndarray

    def __post_init__(self):
        shape = (np.size(self.time_grid), self.disc.element_sizes.size)
        for name, dens in self.fields.items():
            if np.shape(dens) != shape:
                raise DirectionShapeError(f"density '{name}' is {np.shape(dens)}, not {shape}")


def _solve_at(base, disc=None, point=None):
    """The solve record of ``base``, which must be a forward solve on ``disc`` at ``point``.

    Raises RequiresForwardSolveError when ``base`` carries no solve record, or
    when its timeline was not assembled on ``disc`` (the same object) from
    ``point`` as it is now: another problem, time grid or field value, or no
    point at all (the one check left without ``disc`` and ``point``).
    """
    record = None if base is None else base.solve
    if record is None:
        raise RequiresForwardSolveError(
            "this operation needs the forward solve at the point; call forward_map first"
        )
    tl = record.timeline

    def same(a, b):
        return a is b or np.array_equal(a, b)

    if tl.point is None or point is not None and (
        disc is not tl.disc
        or tl.point.problem != point.problem
        or not same(tl.time_grid, point.time_grid)
        or not all(same(tl.point.fields[n].values, f.values) for n, f in point.fields.items())
    ):
        raise RequiresForwardSolveError(
            "the base was not solved at this point on this mesh; call forward_map there first"
        )
    return record


def shift_point(point, direction, s):
    """The point with fields moved by s times a direction (:func:`~.galerkin.check_direction`)."""
    out = point.copy()
    shape = point.fields[point.field_names[0]].values.shape
    for name, h in check_direction(point.problem, shape, direction).items():
        out.fields[name].values = out.fields[name].values + s * h
    return out


def derivative_apply(disc, point, direction, base):
    """Directional derivative of the forward map at ``point``.

    Differentiates the midpoint recursion exactly (see the module docstring),
    reusing the base factorizations; initial data of the derivative are
    homogeneous.  Returns a Trajectory whose velocity and acceleration are
    the exact derivatives of the base recovery formulas, recovered the first
    time either is read.  This is the one direction case of
    :func:`derivative_apply_many`.
    """
    return next(derivative_apply_many(disc, point, [direction], base))


def derivative_apply_many(disc, point, directions, base):
    """Directional derivatives of the forward map along each of ``directions``.

    Returns an iterator with one Trajectory per direction, in order, each
    equal bit for bit to what :func:`derivative_apply` gives for that
    direction alone.  The directions go through in blocks: one direction
    assembly, one set of base-trajectory terms b_n and c_n and one march
    with the block's directions as the k columns of its states serve a whole
    block.  So does the recovery of the velocities and accelerations, one
    solve per distinct C(t_n) factor each, made when the first of them is
    read; a sweep that reads only the states runs none.  A block holds as
    many directions as keep each of its (k, time node, nnz) value arrays
    within ``_BLOCK_BYTES``, and at least one.  Its direction slots, step
    values S', T' and C'_h, terms b_n and c_n, and the base's C_h are made
    a block of time steps at a time (:func:`~.galerkin._row_blocks` of
    (k, nnz) rows), and each block is marched before the next is made;
    where the blocks of directions or of steps end changes no bit.
    ``directions`` may be any iterable; it is read, and its trajectories
    computed, one block at a time, so only one block is held at once.
    """
    timeline = _solve_at(base, disc, point).timeline
    size = max(1, galerkin._BLOCK_BYTES // (timeline.time_grid.size * timeline.pattern.nnz * 8))
    directions = iter(directions)
    blocks = iter(lambda: list(islice(directions, size)), [])  # until a block comes out empty
    return chain.from_iterable(_derivative_block(block, base) for block in blocks)


def _per_direction(rows, k):
    """(time, m) rows of the base, the same for each of k directions: (time, k, m)."""
    if rows is None:
        return None
    return np.broadcast_to(rows[:, None], (rows.shape[0], k, rows.shape[1]))


def _derivative_block(directions, base):
    """The derivative trajectories of one block of k directions at the base,
    whose velocities and accelerations :class:`_BlockRates` recovers on first read."""
    record = base.solve
    timeline = record.timeline
    pattern = timeline.pattern
    tg = timeline.time_grid
    disc = timeline.disc
    tables, slots = _direction_slots(disc, timeline.point, directions)
    dt = timeline.dt
    two_dt = 2.0 / dt
    k = len(directions)
    u = base.u
    # the march carries the k directions as the columns of (dof, k) states
    eta = np.zeros((tg.size, pattern.n, k))
    pi = np.zeros_like(eta)
    # the base trajectory's share of the recursion, for all directions a block
    # of steps at a time: midpoint_values holds up to seven (step, k, nnz)
    # arrays at once, so each gets an eighth of the budget
    for n0, n1 in _row_blocks(tg.size - 1, k * pattern.nnz * 8):
        s_dot, t_dot, c_dot = midpoint_values(slots(slice(n0, n1 + 1)), dt)
        now, later = u[n0:n1], u[n0 + 1 : n1 + 1]
        b = pattern.apply((t_dot, _per_direction(now, k))) - pattern.apply(
            (s_dot, _per_direction(later, k))
        )
        c = two_dt * pattern.apply((c_dot, _per_direction(later - now, k)))
        del s_dot, t_dot, c_dot  # before the march, which makes the C_h rows
        _march(
            pattern, record.factors[n0:n1], record.t_vals[n0:n1],
            half_node(timeline.values["C"][n0 : n1 + 1]), two_dt,
            eta[n0 : n1 + 1], pi[n0 : n1 + 1], b.transpose(0, 2, 1), c.transpose(0, 2, 1),
        )
        del b, c  # before the next block's are made
    eta = eta.transpose(0, 2, 1)
    rates = _BlockRates(tables, base, eta, pi.transpose(0, 2, 1))
    return [
        Trajectory(np.ascontiguousarray(eta[:, j]), None, None, tg, disc, recover=rates.column(j))
        for j in range(k)
    ]


class _BlockRates:
    """The velocities and accelerations of one block of derivative trajectories.

    The first read of any of them recovers the whole block, with one
    multi-column solve per distinct C(t_n) factor, from what the block
    keeps: its checked direction tables, the base solve, and the block's
    states eta and momenta pi, (time, k, dof) each.  The direction timeline
    is assembled again then, on the mesh and point the base's timeline keeps.
    """

    def __init__(self, tables, base, eta, pi):
        self._inputs = (tables, base, eta, pi)
        self._rates = None

    def column(self, j):
        """The ``recover`` of the j-th trajectory, which gives both of its rates."""
        return lambda du, acceleration: (self._take(0, j), self._take(1, j))

    def _take(self, which, j):
        if self._rates is None:
            blocks = _recover_block(*self._inputs)
            self._inputs = None
            self._rates = [[np.ascontiguousarray(col) for col in x.swapaxes(0, 1)] for x in blocks]
        return self._rates[which][j]


def _recover_block(tables, base, eta, pi):
    """(deta, ddeta), (time, k, dof) each: the exact derivatives of the base
    recovery formulas along the k directions ``tables``, in one pass."""
    timeline = base.solve.timeline
    pattern = timeline.pattern
    tlh = assemble_direction(timeline.disc, timeline.point, tables)
    k = len(tables)
    vb, vh = timeline.values, tlh.values
    ddu, du, u = (_per_direction(x, k) for x in (base.ddu, base.du, base.u))  # ddu first: one pass
    deta, ddeta = np.empty(eta.shape), np.empty(eta.shape)
    terms = [
        (vh["A"], u), (vh["B"], du), (vh["Q"], u), (vh["C"], ddu),
        (_per_direction(vb["A"], k), eta), (_per_direction(vb["B"], k), deta),
        (_per_direction(vb["Q"], k), eta), (tlh.rate("C"), du),
        (_per_direction(timeline.rate("C"), k), deta),
    ]

    def job(rows, solve):  # deta's rows of the block are made before ddeta's read them
        deta[rows] = solve(pi[rows] - pattern.apply((evolve._at(vh["C"], rows), du[rows])))
        ddeta[rows] = solve(-pattern.apply(*((evolve._at(a, rows), x[rows]) for a, x in terms)))

    evolve._recover(pattern, vb["C"], job)
    return deta, ddeta


def _steps_to_nodes(step_density):
    """Distribute half-node step densities to time nodes (1/2 each side)."""
    n_steps, n_el = step_density.shape
    acc = np.zeros((n_steps + 1, n_el))
    acc[:-1] += 0.5 * step_density
    acc[1:] += 0.5 * step_density
    return acc


def adjoint_apply_discrete(disc, point, v, base):
    """Exact transpose of ``observe(derivative_apply(.))`` against data ``v``
    (which :func:`~.forward.data_load` checks against the base and loads).

    Runs the midpoint recursion backward over the stored factorizations
    (the step matrices are symmetric, so their factors solve the transposed
    systems as they are), then transposes the direction-assembly maps into
    per-element gradient densities.  Satisfies the dot test to rounding at
    any fixed step size.  As in the forward march, each step calls the
    compiled product kernels and the bound LAPACK solve on preallocated
    buffers.
    """
    return _discrete_gradient(disc, point, v, base)


def _discrete_gradient(disc, point, v, base, names=None):
    """:func:`adjoint_apply_discrete` with the densities of the fields ``names``
    only, or of every field when None; each of them is the same bit for bit."""
    record = _solve_at(base, disc, point)
    timeline = record.timeline
    pattern = timeline.pattern
    tg = timeline.time_grid
    n_steps = tg.size - 1
    dt = timeline.dt
    two_dt = 2.0 / dt
    factors = record.factors
    # the step matrices are symmetric, so S_n, T_n and C_h are their own transposes
    t_vals = record.t_vals
    u = base.u
    w = trapezoid_weights(tg)

    seeds = w[:, None] * data_load(v, base)
    p = seeds[n_steps].copy()
    # r_n goes to beta[n] and q_n to gamma[n]; the recursion starts from q = 0
    beta = np.empty((n_steps, disc.n_free))
    gamma = np.empty((n_steps, disc.n_free))
    gamma[-1] = 0.0
    product = pattern.kernel(t_vals, p)
    cq = np.empty_like(p)
    tr = np.empty_like(p)
    for n0, n1 in reversed(_row_blocks(n_steps, pattern.nnz * 8)):
        c_vals = half_node(timeline.values["C"][n0 : n1 + 1])
        c_vals *= two_dt
        for n in range(n1 - 1, n0 - 1, -1):
            q = gamma[n]
            cq.fill(0.0)
            product(c_vals[n - n0], q, cq)
            p += cq
            r = beta[n]
            r[:] = factors[n].lapack_solve(p)[0]
            tr.fill(0.0)
            product(t_vals[n], r, tr)
            np.add(seeds[n], tr, out=p)
            p -= cq
            if n:
                np.multiply(r, 2.0, out=gamma[n - 1])
                gamma[n - 1] -= q
        del c_vals  # before the next block's are made

    def pair(slot):
        # how each direction operator enters the recursion: the C slot pairs with
        # the step difference through both b_n and the momentum update, the B
        # slot with the step difference through T - S, and the A/Q slots with
        # the step sum through the midpoint average.
        if slot in ("A", "Q"):
            return -(dt / 2.0) * beta, u[:-1] + u[1:]
        return (-beta if slot == "B" else two_dt * (gamma - beta)), u[1:] - u[:-1]

    scale = 1.0 / (w[:, None] * disc.element_sizes[None, :])
    return _gradient(
        timeline,
        lambda kit, slot: _steps_to_nodes(kit.element_bilinear_many(*pair(slot))) * scale,
        names,
    )


def adjoint_apply_continuous(disc, point, v, base):
    """Gradient densities via the backward adjoint equation.

    Solves the end-condition adjoint problem with the load of ``v``
    (full-field only; :func:`~.forward.data_load`) on the base's timeline and
    factors, ``solve_backward(base, load)``, then samples the classical densities
    with the same per-element quadrature as the forward bilinear forms, so
    the pairing with a direction reproduces the defining integrals discretely.
    """
    if v.spec.kind != "full-field":
        raise ObservationError("the continuous-mode adjoint supports full-field data only")
    timeline = _solve_at(base, disc, point).timeline
    load = SourceTerm(data_load(v, base), timeline.disc, timeline.time_grid)
    w = solve_backward(base, load)
    evolve._velocities(base, w)  # as the two columns of one solve per C(t_n) factor

    def pair(slot):
        # densities of the slots: -(u, w) for A and Q, -(u', w) for B, (u', w') for C
        if slot in ("A", "Q"):
            return -base.u, w.u
        return (-base.du, w.u) if slot == "B" else (base.du, w.du)

    inv_sizes = 1.0 / disc.element_sizes[None, :]
    return _gradient(
        timeline, lambda kit, slot: kit.element_bilinear_many(*pair(slot)) * inv_sizes
    )


def _gradient(timeline, density, names=None):
    """Gradient fields from slot densities through each form term's map, at a base's ``timeline``.

    ``density(kit, slot)`` is the (time x element) density of a slot with
    respect to the element coefficients of ``kit``; the linearized
    coefficient map of the term carries it to the field.  With ``names``,
    only the terms of those fields are computed.
    """
    disc, point = timeline.disc, timeline.point
    fields = {}
    for slot, kit, name, fmap in FORMS[disc.problem]:
        if names is not None and name not in names:
            continue
        g = fmap[1](disc.element_means(point.fields[name].values), density(disc.kits[kit], slot))
        fields[name] = fields[name] + g if name in fields else g
    return GradientFields(disc=disc, fields=fields, time_grid=timeline.time_grid)


# ---------------------------------------------------------------------------
# pairings, norms, and consistency tests


def parameter_pairing(grad, direction):
    """<g, h> on the gradient's mesh for a direction h (:func:`~.galerkin.check_direction`):
    trapezoid in time, measure-weighted vertex-mean in space, in the gradient's field order."""
    disc = grad.disc
    w = trapezoid_weights(grad.time_grid)
    h = check_direction(disc.problem, (w.size, disc.n_nodes), direction)
    total = 0.0
    for name, dens in grad.fields.items():
        if name not in h:
            continue
        h_e = disc.element_means(h[name])
        total += float(
            np.einsum("n,ne,ne->", w, dens * disc.element_sizes[None, :], h_e)
        )
    return total


def gradient_norm(grad):
    """Norm of gradient densities in the element-measure pairing of their mesh."""
    w = trapezoid_weights(grad.time_grid)
    total = 0.0
    for dens in grad.fields.values():
        total += float(np.einsum("n,ne->", w, dens**2 * grad.disc.element_sizes[None, :]))
    return float(np.sqrt(max(total, 0.0)))


def direction_norm(disc, direction, time_grid):
    """Norm of a direction (:func:`~.galerkin.check_direction`) in the element-measure pairing."""
    w = trapezoid_weights(time_grid)
    total = 0.0
    for h in check_direction(disc.problem, (w.size, disc.n_nodes), direction).values():
        h_e = disc.element_means(h)
        total += float(np.einsum("n,ne->", w, h_e**2 * disc.element_sizes[None, :]))
    return float(np.sqrt(max(total, 0.0)))


def nodal_gradient(grad):
    """Nodal representative of gradient densities, on their mesh.

    Returns per-field (time x node) arrays G with
    sum_n w_n sum_i l_i G(n,i) h(n,i) = <g, h> for every nodal direction h,
    where l_i is the lumped node measure; dividing by l_i makes G a descent
    representative in the weighted nodal inner product.
    """
    out = {}
    for name, dens in grad.fields.items():
        acc = grad.disc.accumulate_to_nodes(dens)
        out[name] = acc / grad.disc.lumped_node_measure[None, :]
    return out


def dot_test(direction, v, mode="discrete", *, base):
    """Relative adjoint-consistency mismatch for one (direction, data) pair.

    Compares <dF h, v> in the data inner product with <dF* v, h> in the
    parameter pairing; ``mode`` selects the discrete (exact-transpose) or
    continuous (backward-equation) adjoint, at the forward solve ``base`` on its mesh and point.
    """
    timeline = _solve_at(base).timeline
    disc, point = timeline.disc, timeline.point
    deriv = derivative_apply(disc, point, direction, base)
    d_out = observe(deriv, v.spec)
    lhs = data_inner(d_out, v, disc)
    if mode == "discrete":
        grad = adjoint_apply_discrete(disc, point, v, base)
    elif mode == "continuous":
        grad = adjoint_apply_continuous(disc, point, v, base)
    else:
        raise DegenerateTestError(f"mode must be 'discrete' or 'continuous', got {mode!r}")
    rhs = parameter_pairing(grad, direction)
    h_norm = direction_norm(disc, direction, point.time_grid)
    denom = data_norm(d_out, disc) * data_norm(v, disc) + gradient_norm(grad) * h_norm
    if denom == 0.0:
        raise DegenerateTestError("both pairings vanish; the test is uninformative")
    return abs(lhs - rhs) / denom


@dataclass
class TaylorReport:
    """Remainders ||F(x+sh) - F(x) - s dF(x)h|| and their fitted order."""

    s_values: np.ndarray
    remainders: np.ndarray
    order: float


def taylor_test(direction, s_values, *, base):
    """Measure the Taylor remainder order of the derivative along a direction.

    Every perturbed solve takes the mesh, the point x, the source and the
    initial state and momentum of the forward solve ``base``.  The perturbed
    points x + s h must stay admissible for every s.  The order is the
    least-squares slope of log remainder against log s, so ``s_values`` must
    hold at least two distinct, positive, finite numbers: DegenerateTestError
    otherwise, before any solve.
    """
    s_values = np.asarray(list(s_values), dtype=float)
    usable = np.isfinite(s_values) & (s_values > 0)
    if s_values.ndim != 1 or np.unique(s_values).size < 2 or not usable.all():
        raise DegenerateTestError(
            f"s_values must be at least two distinct, positive, finite numbers, got {s_values}"
        )
    record = _solve_at(base)
    disc, point = record.timeline.disc, record.timeline.point
    deriv = derivative_apply(disc, point, direction, base)
    d0 = observe(base)
    d1 = observe(deriv)
    remainders = np.empty_like(s_values)
    for i, s in enumerate(s_values):
        shifted = shift_point(point, direction, s)
        traj = forward_map(disc, shifted, record.source, u0=base.u[0], u1=record.p[0])
        predicted = DataVector(d0.values + s * d1.values, d0.time_grid, d0.spec)
        remainders[i] = data_distance(observe(traj), predicted, disc)
    logs = np.log(np.maximum(remainders, 1e-300))
    slope = np.polyfit(np.log(s_values), logs, 1)[0]
    return TaylorReport(s_values=s_values, remainders=remainders, order=float(slope))
