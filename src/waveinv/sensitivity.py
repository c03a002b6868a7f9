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
through one march as the k columns of its states, assembling them, forming
their b_n and c_n and recovering their velocities and accelerations together;
the directions go in blocks whose (k, time node, nnz) value arrays stay
within a fixed byte budget.  ``derivative_apply`` is its one-direction case.

Two adjoints are provided: ``adjoint_apply_discrete`` reverses the recursion
above (dot test exact to rounding at any step size), while
``adjoint_apply_continuous`` solves the backward-in-time adjoint equation
with end conditions and assembles the classical gradient densities
(e.g. -div u div w, u' . w'); the two agree at second order in dt.  Both run
on the base solve's band factors: the step matrices are symmetric, so the
discrete adjoint solves its transposed systems with them as they are, and the
backward equation reuses them in reverse order wherever its matrices equal
the forward's by construction (see :func:`~.evolve.solve_backward`).  All
operator products are the pattern's compiled CSR mat-vec.  Every sweep takes
the point and its forward solve ``base``, and raises RequiresForwardSolveError
unless the base was solved at that point as it is now: the dot test pairs
both sides on the same base, so it cannot see a base from another point.

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

from .errors import (
    DegenerateTestError,
    ObservationError,
    RequiresForwardSolveError,
)
from .evolve import SourceTerm, Trajectory, _march, solve_backward, solve_each, step_values
from .forward import (
    DataVector,
    data_inner,
    data_norm,
    observe,
    trapezoid_weights,
)
from .galerkin import FORMS, ParameterField, assemble_direction


@dataclass
class GradientFields:
    """Named per-element gradient densities on (time node x element)."""

    problem: str
    fields: dict
    time_grid: np.ndarray


def _solve_at(point, base):
    """The solve record of ``base``, which must be a forward solve at ``point``.

    Raises RequiresForwardSolveError when ``base`` carries no solve record, or
    when the record's timeline was not assembled from ``point`` as it is now:
    another problem, time grid or field value, or no point at all.
    """
    record = None if base is None else base.solve
    if record is None:
        raise RequiresForwardSolveError(
            "this operation needs the forward solve at the point; call forward_map first"
        )
    tl = record.timeline
    if (
        tl.point is None
        or tl.problem != point.problem
        or not np.array_equal(tl.time_grid, point.time_grid)
        or not all(np.array_equal(tl.point[n], f.values) for n, f in point.fields.items())
    ):
        raise RequiresForwardSolveError(
            "the base was not solved at this point; call forward_map at the point first"
        )
    return record


def shift_point(point, direction, s):
    """The parameter point with fields moved by s times the direction."""
    out = point.copy()
    for name, f in direction.items():
        vals = f.values if isinstance(f, ParameterField) else np.asarray(f, dtype=float)
        out.fields[name].values = out.fields[name].values + s * vals
    return out


def derivative_apply(disc, point, direction, base):
    """Directional derivative of the forward map at ``point``.

    Differentiates the midpoint recursion exactly (see the module docstring),
    reusing the base factorizations; initial data of the derivative are
    homogeneous.  Returns a Trajectory whose velocity and acceleration are
    the exact derivatives of the base recovery formulas.  This is the one
    direction case of :func:`derivative_apply_many`.
    """
    return next(derivative_apply_many(disc, point, [direction], base))


#: bytes that one (k, time node, nnz) value array of a block of directions
#: may take; the directions go through the march in blocks of that size
_BLOCK_BYTES = 8 * 2**20


def derivative_apply_many(disc, point, directions, base):
    """Directional derivatives of the forward map along each of ``directions``.

    Returns an iterator with one Trajectory per direction, in order, each
    equal bit for bit to what :func:`derivative_apply` gives for that
    direction alone.  The directions go through in blocks: one direction
    assembly, one set of base-trajectory terms b_n and c_n, one march with
    the block's directions as the k columns of its states, and one recovery
    solve per distinct C(t_n) factor serve a whole block.  A block holds as
    many directions as keep each of its (k, time node, nnz) value arrays
    within ``_BLOCK_BYTES``, and at least one.  ``directions`` may be any
    iterable; it is read, and its trajectories computed, one block at a
    time, so only one block is held at once.
    """
    record = _solve_at(point, base)
    timeline = record.timeline
    size = max(1, _BLOCK_BYTES // (timeline.time_grid.size * timeline.pattern.nnz * 8))
    directions = iter(directions)
    blocks = iter(lambda: list(islice(directions, size)), [])  # until a block comes out empty
    return chain.from_iterable(
        _derivative_block(disc, point, block, base, record) for block in blocks
    )


def _derivative_block(disc, point, directions, base, record):
    """The derivative trajectories of one block of k directions."""
    timeline = record.timeline
    pattern = timeline.pattern
    tlh = assemble_direction(disc, point, directions)
    tg = timeline.time_grid
    dt = timeline.dt
    two_dt = 2.0 / dt
    k = len(directions)
    u = base.u

    def per_direction(rows):
        """(time, m) rows of the base, the same for each direction: (time, k, m)."""
        if rows is None:
            return None
        return np.broadcast_to(rows[:, None], (rows.shape[0], k, rows.shape[1]))

    # the base trajectory's share of the recursion, for all steps and directions at once
    s_dot, t_dot, c_dot = step_values(tlh)
    b = pattern.apply((t_dot, per_direction(u[:-1]))) - pattern.apply(
        (s_dot, per_direction(u[1:]))
    )
    c = two_dt * pattern.apply((c_dot, per_direction(u[1:] - u[:-1])))
    # the march carries the k directions as the columns of (dof, k) states
    eta = np.zeros((tg.size, pattern.n, k))
    pi = np.zeros_like(eta)
    _march(
        pattern, record.factors, record.t_vals, record.c_half, two_dt,
        eta, pi, b.transpose(0, 2, 1), c.transpose(0, 2, 1),
    )
    eta = eta.transpose(0, 2, 1)
    pi = pi.transpose(0, 2, 1)

    c_factors = record.c_factors
    vb, vh = timeline.values, tlh.values
    deta = solve_each(c_factors, pi - pattern.apply((vh["C"], per_direction(base.du))))
    resid = -pattern.apply(
        (vh["A"], per_direction(base.u)),
        (vh["B"], per_direction(base.du)),
        (vh["Q"], per_direction(base.u)),
        (vh["C"], per_direction(base.ddu)),
        (per_direction(vb["A"]), eta),
        (per_direction(vb["B"]), deta),
        (per_direction(vb["Q"]), eta),
        (tlh.rate("C"), per_direction(base.du)),
        (per_direction(timeline.rate("C")), deta),
    )
    ddeta = solve_each(c_factors, resid)

    return [
        Trajectory(
            np.ascontiguousarray(eta[:, j]),
            np.ascontiguousarray(deta[:, j]),
            np.ascontiguousarray(ddeta[:, j]),
            tg,
            dt,
        )
        for j in range(k)
    ]


def _adjoint_seeds(disc, v, time_grid):
    """Load-form seeds of the data functional <., v> at every node."""
    w = trapezoid_weights(time_grid)
    seeds = np.zeros((time_grid.size, disc.n_free))
    if v.spec.kind == "full-field":
        seeds[:] = w[:, None] * (disc.M @ v.values.T).T
        return seeds
    idx = v.spec.indices
    if np.any(idx < 0) or np.any(idx >= disc.n_free):
        raise ObservationError(
            f"observation indices {idx.tolist()} out of range for {disc.n_free} free DOFs"
        )
    # a repeated index observes its DOF twice, so its seeds add up
    np.add.at(seeds, (slice(None), idx), w[:, None] * (v.values * v.spec.weights))
    return seeds


def _steps_to_nodes(step_density):
    """Distribute half-node step densities to time nodes (1/2 each side)."""
    n_steps, n_el = step_density.shape
    acc = np.zeros((n_steps + 1, n_el))
    acc[:-1] += 0.5 * step_density
    acc[1:] += 0.5 * step_density
    return acc


def adjoint_apply_discrete(disc, point, v, base):
    """Exact transpose of ``observe(derivative_apply(.))`` against data ``v``.

    Runs the midpoint recursion backward over the stored factorizations
    (the step matrices are symmetric, so their factors solve the transposed
    systems as they are), then transposes the direction-assembly maps into
    per-element gradient densities.  Satisfies the dot test to rounding at
    any fixed step size.  As in the forward march, each step calls the
    compiled product kernels and the bound LAPACK solve on preallocated
    buffers.
    """
    record = _solve_at(point, base)
    timeline = record.timeline
    pattern = timeline.pattern
    tg = timeline.time_grid
    n_steps = tg.size - 1
    dt = timeline.dt
    two_dt = 2.0 / dt
    factors = record.factors
    # the step matrices are symmetric, so S_n, T_n and C_h are their own transposes
    t_vals = record.t_vals
    c_vals = two_dt * record.c_half
    u = base.u

    seeds = _adjoint_seeds(disc, v, tg)
    p = seeds[n_steps].copy()
    # r_n goes to beta[n] and q_n to gamma[n]; the recursion starts from q = 0
    beta = np.empty((n_steps, disc.n_free))
    gamma = np.empty((n_steps, disc.n_free))
    gamma[-1] = 0.0
    t_product = pattern.kernel(t_vals, p)
    c_product = pattern.kernel(c_vals, p)
    cq = np.empty_like(p)
    tr = np.empty_like(p)
    for n in range(n_steps - 1, -1, -1):
        q = gamma[n]
        cq.fill(0.0)
        c_product(c_vals[n], q, cq)
        p += cq
        r = beta[n]
        r[:] = factors[n].lapack_solve(p)[0]
        tr.fill(0.0)
        t_product(t_vals[n], r, tr)
        np.add(seeds[n], tr, out=p)
        p -= cq
        if n:
            np.multiply(r, 2.0, out=gamma[n - 1])
            gamma[n - 1] -= q

    du_step = u[1:] - u[:-1]
    su_step = u[:-1] + u[1:]
    # how each direction operator enters the recursion: the C slot pairs with
    # the step difference through both b_n and the momentum update, the B
    # slot with the step difference through T - S, and the A/Q slots with
    # the step sum through the midpoint average.
    aq = (-(dt / 2.0) * beta, su_step)
    pairs = {"A": aq, "Q": aq, "B": (-beta, du_step), "C": (two_dt * (gamma - beta), du_step)}
    w = trapezoid_weights(tg)
    scale = 1.0 / (w[:, None] * disc.element_sizes[None, :])
    return _gradient(
        disc,
        point,
        tg,
        lambda kit, slot: _steps_to_nodes(kit.element_bilinear_many(*pairs[slot])) * scale,
    )


def adjoint_apply_continuous(disc, point, v, base):
    """Gradient densities via the backward adjoint equation.

    Solves the end-condition adjoint problem with source ``v`` (full-field
    only) on the factors of the base solve (see
    :func:`~.evolve.solve_backward`), then samples the classical densities
    with the same per-element quadrature as the forward bilinear forms, so
    the pairing with a direction reproduces the defining integrals discretely.
    """
    if v.spec.kind != "full-field":
        raise ObservationError(
            "the continuous-mode adjoint supports full-field data only"
        )
    timeline = _solve_at(point, base).timeline
    load = SourceTerm((disc.M @ v.values.T).T)
    w = solve_backward(timeline, load, like=base)
    # densities of the slots: -(u, w) for A and Q, -(u', w) for B, (u', w') for C
    aq = (-base.u, w.u)
    pairs = {"A": aq, "Q": aq, "B": (-base.du, w.u), "C": (base.du, w.du)}
    inv_sizes = 1.0 / disc.element_sizes[None, :]
    return _gradient(
        disc,
        point,
        timeline.time_grid,
        lambda kit, slot: kit.element_bilinear_many(*pairs[slot]) * inv_sizes,
    )


def _gradient(disc, point, time_grid, density):
    """Gradient fields from slot densities through each form term's map.

    ``density(kit, slot)`` is the (time x element) density of a slot with
    respect to the element coefficients of ``kit``; the linearized
    coefficient map of the term carries it to the field.
    """
    fields = {}
    for slot, kit, name, fmap in FORMS[disc.problem]:
        g = fmap[1](disc.element_means(point.fields[name].values), density(disc.kits[kit], slot))
        fields[name] = fields[name] + g if name in fields else g
    return GradientFields(problem=disc.problem, fields=fields, time_grid=time_grid)


# ---------------------------------------------------------------------------
# pairings, norms, and consistency tests


def parameter_pairing(disc, grad, direction):
    """<g, h>: trapezoid in time, measure-weighted vertex-mean in space."""
    w = trapezoid_weights(grad.time_grid)
    total = 0.0
    for name, dens in grad.fields.items():
        h = direction.get(name)
        if h is None:
            continue
        vals = h.values if isinstance(h, ParameterField) else np.asarray(h, dtype=float)
        h_e = disc.element_means(vals)
        total += float(
            np.einsum("n,ne,ne->", w, dens * disc.element_sizes[None, :], h_e)
        )
    return total


def gradient_norm(disc, grad):
    """Norm of gradient densities in the element-measure pairing."""
    w = trapezoid_weights(grad.time_grid)
    total = 0.0
    for dens in grad.fields.values():
        total += float(np.einsum("n,ne->", w, dens**2 * disc.element_sizes[None, :]))
    return float(np.sqrt(max(total, 0.0)))


def direction_norm(disc, direction, time_grid):
    """Norm of a nodal direction in the same element-measure pairing."""
    w = trapezoid_weights(time_grid)
    total = 0.0
    for h in direction.values():
        vals = h.values if isinstance(h, ParameterField) else np.asarray(h, dtype=float)
        h_e = disc.element_means(vals)
        total += float(np.einsum("n,ne->", w, h_e**2 * disc.element_sizes[None, :]))
    return float(np.sqrt(max(total, 0.0)))


def nodal_gradient(disc, grad):
    """Nodal representative of gradient densities.

    Returns per-field (time x node) arrays G with
    sum_n w_n sum_i l_i G(n,i) h(n,i) = <g, h> for every nodal direction h,
    where l_i is the lumped node measure; dividing by l_i makes G a descent
    representative in the weighted nodal inner product.
    """
    out = {}
    for name, dens in grad.fields.items():
        acc = disc.accumulate_to_nodes(dens)
        out[name] = acc / disc.lumped_node_measure[None, :]
    return out


def dot_test(disc, point, direction, v, mode="discrete", base=None):
    """Relative adjoint-consistency mismatch for one (direction, data) pair.

    Compares <dF h, v> in the data inner product with <dF* v, h> in the
    parameter pairing; ``mode`` selects the discrete (exact-transpose) or
    continuous (backward-equation) adjoint.
    """
    deriv = derivative_apply(disc, point, direction, base)
    d_out = observe(deriv, v.spec)
    lhs = data_inner(d_out, v, disc)
    if mode == "discrete":
        grad = adjoint_apply_discrete(disc, point, v, base)
    elif mode == "continuous":
        grad = adjoint_apply_continuous(disc, point, v, base)
    else:
        raise DegenerateTestError(f"mode must be 'discrete' or 'continuous', got {mode!r}")
    rhs = parameter_pairing(disc, grad, direction)
    denom = data_norm(d_out, disc) * data_norm(v, disc) + gradient_norm(
        disc, grad
    ) * direction_norm(disc, direction, point.time_grid)
    if denom == 0.0:
        raise DegenerateTestError("both pairings vanish; the test is uninformative")
    return abs(lhs - rhs) / denom


@dataclass
class TaylorReport:
    """Remainders ||F(x+sh) - F(x) - s dF(x)h|| and their fitted order."""

    s_values: np.ndarray
    remainders: np.ndarray
    order: float


def taylor_test(disc, point, direction, f, s_values, u0=None, u1=None, base=None):
    """Measure the Taylor remainder order of the derivative along a direction.

    The perturbed points x + s h must stay admissible for every s.  The order
    is the least-squares slope of log remainder against log s.
    """
    from .forward import forward_map  # local import to avoid a cycle

    if base is None:
        base = forward_map(disc, point, f, u0=u0, u1=u1)
    deriv = derivative_apply(disc, point, direction, base)
    d0 = observe(base)
    d1 = observe(deriv)
    s_values = np.asarray(list(s_values), dtype=float)
    remainders = np.empty_like(s_values)
    for i, s in enumerate(s_values):
        shifted = shift_point(point, direction, s)
        traj = forward_map(disc, shifted, f, u0=u0, u1=u1)
        predicted = DataVector(d0.values + s * d1.values, d0.time_grid, d0.spec)
        diff = DataVector(
            observe(traj).values - predicted.values, d0.time_grid, d0.spec
        )
        remainders[i] = data_norm(diff, disc)
    logs = np.log(np.maximum(remainders, 1e-300))
    slope = np.polyfit(np.log(s_values), logs, 1)[0]
    return TaylorReport(s_values=s_values, remainders=remainders, order=float(slope))
