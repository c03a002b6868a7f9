"""Reference forward solver written from the equations, independent of waveinv.

It solves (C u')' + B u' + (A + Q) u = f with u = 0 on the boundary for

- ``wave1d``: A = stiffness(a), B = mass(b), C = mass(rho), Q = mass(q);
- ``elastic2d``: A from 2 mu eps(u):eps(v) + lam div(u) div(v),
  C = rho-weighted vector mass, B = Q = 0,

with P1 elements on uniform meshes (intervals; squares cut along the
diagonal into two triangles), each element using the mean of its vertex
values as its coefficient.  Time stepping is the implicit midpoint rule on the
momentum form C u' = p, p' = f - B u' - (A + Q) u, with operators at half
nodes taken from the half-node coefficients.  Every linear system is solved
with a banded LU (``scipy.linalg.solve_banded``).

Free degrees of freedom are numbered like waveinv numbers them (interior
nodes in increasing order; in 2D the x and y components of a node are
adjacent), so trajectories can be compared column by column.  The code shares
nothing else with the package.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded


class Mesh:
    """P1 mesh, its unit local matrices and a banded scatter onto free DOFs."""

    def __init__(self, problem, nodes, elements, sizes, locals_, n_comp, interior):
        self.problem = problem
        self.nodes = nodes
        self.elements = elements
        self.sizes = sizes
        self.locals = locals_  # name -> (n_el, k, k) unit-coefficient matrices
        self.n_comp = n_comp
        n_nodes = nodes.shape[0]
        # element DOFs: component c of vertex v is DOF n_comp * node + c
        dofs = (n_comp * elements[:, :, None] + np.arange(n_comp)).reshape(
            elements.shape[0], -1
        )
        free = (n_comp * interior[:, None] + np.arange(n_comp)).ravel()
        free.sort()
        self.n_free = free.size
        to_free = np.full(n_comp * n_nodes, -1)
        to_free[free] = np.arange(free.size)
        fd = to_free[dofs]  # (n_el, k), -1 on the boundary
        rows = np.repeat(fd[:, :, None], fd.shape[1], axis=2)
        cols = np.repeat(fd[:, None, :], fd.shape[1], axis=1)
        keep = (rows >= 0) & (cols >= 0)
        self.bw = int(np.max(np.abs(rows[keep] - cols[keep])))
        self._keep = keep
        self._elem = np.broadcast_to(
            np.arange(elements.shape[0])[:, None, None], keep.shape
        )[keep]
        # position in scipy's banded storage: ab[bw + i - j, j] = a[i, j]
        self._band_index = (self.bw + rows[keep] - cols[keep]) * self.n_free + cols[keep]
        self._dense_index = rows[keep] * self.n_free + cols[keep]

    def means(self, nodal):
        """Per-element mean of nodal values; (..., n_nodes) -> (..., n_el)."""
        return np.asarray(nodal)[..., self.elements].mean(axis=-1)

    def _weights(self, terms):
        return sum(self.locals[name][self._keep] * coeff[self._elem] for name, coeff in terms)

    def banded(self, terms):
        """Banded storage of sum_k assemble(local_k, coeff_k)."""
        size = (2 * self.bw + 1) * self.n_free
        flat = np.bincount(self._band_index, weights=self._weights(terms), minlength=size)
        return flat.reshape(2 * self.bw + 1, self.n_free)

    def dense(self, terms):
        """Dense matrix of sum_k assemble(local_k, coeff_k) on free DOFs."""
        size = self.n_free * self.n_free
        flat = np.bincount(self._dense_index, weights=self._weights(terms), minlength=size)
        return flat.reshape(self.n_free, self.n_free)

    def band_matvec(self, ab, x):
        """y = a @ x for a banded matrix in scipy's storage."""
        n, bw = self.n_free, self.bw
        y = ab[bw] * x
        for k in range(1, bw + 1):
            y[:-k] += ab[bw - k, k:] * x[k:]  # superdiagonal k: a[i, i + k]
            y[k:] += ab[bw + k, :-k] * x[:-k]  # subdiagonal k: a[i + k, i]
        return y

    def solve(self, ab, rhs):
        return solve_banded((self.bw, self.bw), ab, rhs, check_finite=False)


def _interval(n, length):
    h = length / n
    nodes = np.linspace(0.0, length, n + 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    stiff = np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
    mass = np.array([[2.0, 1.0], [1.0, 2.0]]) * h / 6.0
    locals_ = {"stiffness": np.tile(stiff, (n, 1, 1)), "mass": np.tile(mass, (n, 1, 1))}
    return Mesh("wave1d", nodes, elements, np.full(n, h), locals_, 1, np.arange(1, n))


def _square(n, side):
    xs = np.linspace(0.0, side, n + 1)
    gx, gy = np.meshgrid(xs, xs)
    nodes = np.column_stack([gx.ravel(), gy.ravel()])  # node j * (n + 1) + i
    tris = []
    for j in range(n):
        for i in range(n):
            sw = j * (n + 1) + i
            se, nw = sw + 1, sw + n + 1
            ne = nw + 1
            tris += [[sw, se, ne], [sw, ne, nw]]
    elements = np.array(tris)
    p = nodes[elements]  # (n_el, 3, 2)
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)  # columns
    area = 0.5 * np.abs(np.linalg.det(jac))
    ref_grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = ref_grads[None] @ np.linalg.inv(jac)  # (n_el, 3, 2): grad of each hat

    n_el = elements.shape[0]
    eye2 = np.eye(2)
    # DOF (v, c) sits at 2 v + c; phi_v e_c has eps = sym(e_c grad phi_v)
    # 2 eps(u):eps(w) for u = phi_i e_a, w = phi_j e_b:
    #   delta_ab grad phi_i . grad phi_j + d_b phi_i d_a phi_j
    gg = np.einsum("eid,ejd->eij", grads, grads)
    k_mu = np.einsum("eij,ab->eiajb", gg, eye2) + np.einsum(
        "eib,eja->eiajb", grads, grads
    )
    # div(phi_i e_a) div(phi_j e_b) = d_a phi_i d_b phi_j
    k_lam = np.einsum("eia,ejb->eiajb", grads, grads)
    m_scalar = (np.ones((3, 3)) + np.eye(3)) / 12.0
    m_vec = np.einsum("ij,ab->iajb", m_scalar, eye2)[None].repeat(n_el, axis=0)
    locals_ = {
        "mu": area[:, None, None] * k_mu.reshape(n_el, 6, 6),
        "lam": area[:, None, None] * k_lam.reshape(n_el, 6, 6),
        "vmass": area[:, None, None] * m_vec.reshape(n_el, 6, 6),
    }
    on_edge = (nodes == 0.0) | (nodes == side)
    interior = np.nonzero(~on_edge.any(axis=1))[0]
    return Mesh("elastic2d", nodes, elements, area, locals_, 2, interior)


def build_mesh(problem, n, extent=1.0):
    """Reference mesh: ``wave1d`` on [0, extent], ``elastic2d`` on a square."""
    if problem == "wave1d":
        return _interval(int(n), float(extent))
    if problem == "elastic2d":
        return _square(int(n), float(extent))
    raise ValueError(f"the reference covers wave1d and elastic2d, not {problem!r}")


def operators(mesh, coeffs):
    """Assembly terms (slot -> [(local, element coefficients)]) at one time.

    ``coeffs`` maps field names to per-element values.
    """
    if mesh.problem == "wave1d":
        return {
            "A": [("stiffness", coeffs["a"])],
            "B": [("mass", coeffs["b"])],
            "C": [("mass", coeffs["rho"])],
            "Q": [("mass", coeffs["q"])],
        }
    return {
        "A": [("mu", coeffs["mu"]), ("lam", coeffs["lam"])],
        "B": [],
        "C": [("vmass", coeffs["rho"])],
        "Q": [],
    }


def march(mesh, fields, time_grid, loads):
    """Implicit midpoint march in momentum form from zero initial data.

    ``fields`` maps names to nodal (time x node) tables, ``loads`` is the
    (time x free DOF) load-form source.  Returns the state u and the velocity
    du = C(t_n)^{-1} p_n at every node, each (time x free DOF).
    """
    tg = np.asarray(time_grid, dtype=float)
    dt = tg[1] - tg[0]
    el = {name: mesh.means(vals) for name, vals in fields.items()}
    n_t = tg.size
    u = np.zeros((n_t, mesh.n_free))
    p = np.zeros((n_t, mesh.n_free))
    for n in range(n_t - 1):
        half = operators(mesh, {k: 0.5 * (v[n] + v[n + 1]) for k, v in el.items()})
        inertia = [(name, c * (2.0 / dt)) for name, c in half["C"]]
        stiff = [(name, c * (0.5 * dt)) for name, c in half["A"] + half["Q"]]
        lhs = mesh.banded(inertia + half["B"] + stiff)
        rhs_op = mesh.banded(inertia + half["B"] + [(k, -c) for k, c in stiff])
        rhs = mesh.band_matvec(rhs_op, u[n]) + 2.0 * p[n] + 0.5 * dt * (loads[n] + loads[n + 1])
        u[n + 1] = mesh.solve(lhs, rhs)
        p[n + 1] = mesh.band_matvec(mesh.banded(inertia), u[n + 1] - u[n]) - p[n]
    du = np.empty_like(u)
    for n in range(n_t):
        c_node = operators(mesh, {k: v[n] for k, v in el.items()})["C"]
        du[n] = mesh.solve(mesh.banded(c_node), p[n])
    return u, du


def trapezoid(time_grid):
    tg = np.asarray(time_grid, dtype=float)
    w = np.full(tg.size, tg[1] - tg[0])
    w[[0, -1]] *= 0.5
    return w


class Pairings:
    """Data and parameter inner products, computed from the reference mesh.

    Data (time x free DOF) pair through the unit mass matrix and trapezoidal
    time weights; gradient densities g (time x element) pair with nodal
    directions h as sum_n w_n sum_e |e| g(n, e) mean(h)(n, e).
    """

    def __init__(self, mesh, time_grid):
        self.mesh = mesh
        self.w = trapezoid(time_grid)
        unit = np.ones(mesh.elements.shape[0])
        slot = "vmass" if mesh.problem == "elastic2d" else "mass"
        self.mass = mesh.dense([(slot, unit)])

    def data(self, x, y):
        return float(self.w @ np.einsum("ni,ij,nj->n", x, self.mass, y))

    def data_norm(self, x):
        return float(np.sqrt(max(self.data(x, x), 0.0)))

    def param(self, grad_fields, direction):
        total = 0.0
        for name, dens in grad_fields.items():
            if name in direction:
                h_el = self.mesh.means(direction[name])
                total += float(self.w @ ((dens * h_el) @ self.mesh.sizes))
        return total

    def grad_norm(self, grad_fields):
        total = sum(float(self.w @ (dens**2 @ self.mesh.sizes)) for dens in grad_fields.values())
        return float(np.sqrt(max(total, 0.0)))

    def direction_norm(self, direction):
        total = sum(
            float(self.w @ (self.mesh.means(h) ** 2 @ self.mesh.sizes))
            for h in direction.values()
        )
        return float(np.sqrt(max(total, 0.0)))

    def adjoint_mismatch(self, jh, v, grad_fields, direction):
        """|<J h, v> - <J* v, h>| over the sum of the two norm products."""
        lhs = self.data(jh, v)
        rhs = self.param(grad_fields, direction)
        denom = self.data_norm(jh) * self.data_norm(v) + self.grad_norm(
            grad_fields
        ) * self.direction_norm(direction)
        return abs(lhs - rhs) / denom
