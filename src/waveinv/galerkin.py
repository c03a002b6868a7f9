"""Spatial discretization of the three model problems.

Lowest-order conforming finite elements on uniform meshes discretize the
second-order evolution equation

    (C(t) u')' + B(t) u' + (A(t) + Q(t)) u = f,   u = 0 on the boundary,

for three instantiations:

``wave1d``
    scalar wave equation on an interval: A = stiffness(a), B = mass(b),
    C = mass(rho), Q = mass(q);
``elastic2d``
    plane linear elasticity on a rectangle with time-dependent Lame fields:
    A from the bilinear form 2 mu eps(u):eps(v) + lam div(u) div(v),
    C = rho-weighted vector mass, B = Q = 0;
``maxwell1d``
    one-dimensional reduction of the time-domain Maxwell system,
    (eps E')' - (mu^-1 E_x)_x = f: A = stiffness(1/mu), C = eps-weighted
    mass, B = Q = 0 (the curl becomes a plain spatial derivative).

Coefficients are nodal space-time tables; each element uses the mean of its
vertex values (midpoint sampling of the piecewise-linear interpolant), so
every parameter-to-operator map is a smooth function of per-element values and
its linearization is available in closed form.

Each problem is stated once, by two tables.  :data:`FORMS` lists its form
terms: which kit, field and coefficient map feed each operator slot, and so
its field names.  :data:`BOUNDS` lists the bounds of its admissible set (C
uniformly positive, A coercive), which both the check
:meth:`ParameterPoint.check_admissible` and :func:`project_point` walk.

All operators of a problem share one CSR sparsity pattern on the free degrees
of freedom.  An operator timeline stores each slot as a (time node x nnz)
array of values on that pattern, filled for all nodes at once by one sparse
product per form term.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field as dataclass_field
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .errors import (
    ConstraintViolationError,
    DirectionShapeError,
    InvalidMeshError,
    ResolutionError,
)

SLOTS = ("A", "B", "C", "Q")

#: coefficient maps from element means m to operator coefficients, each with
#: its linearization h -> map'(m) h; being pointwise, that is its own transpose.
#: Each map is also its own inverse.
LINEAR = (lambda m: m, lambda m, h: h)
RECIPROCAL = (lambda m: 1.0 / m, lambda m, h: -h / m**2)

#: problem -> form terms (slot, kit, field, coefficient map), in field order;
#: a slot is the sum of its terms and vanishes when it has none
FORMS = {
    "wave1d": (
        ("A", "stiffness", "a", LINEAR),
        ("B", "mass", "b", LINEAR),
        ("Q", "mass", "q", LINEAR),
        ("C", "mass", "rho", LINEAR),
    ),
    "elastic2d": (
        ("A", "div", "lam", LINEAR),
        ("A", "eps", "mu", LINEAR),
        ("C", "vmass", "rho", LINEAR),
    ),
    "maxwell1d": (
        ("C", "mass", "eps", LINEAR),
        ("A", "stiffness", "mu", RECIPROCAL),
    ),
}

#: slack that keeps admissible points strictly inside every bound
SLACK = 1e-8

#: problem -> admissibility bounds (label, field, weights, lower, upper), in
#: check order: C uniformly positive and A coercive, with a0 = c0 = rho0 =
#: eps0 = mu0 = 1/alpha0 = 0.1 and alpha0 = mu1 = 10.  A bound holds a field
#: itself (weights None) or the weighted sum of fields within
#: [lower + SLACK, upper - SLACK]; ``field`` is the one projection moves.
BOUNDS = {
    "wave1d": (
        ("a >= a0", "a", None, 0.1, np.inf),
        ("rho >= c0", "rho", None, 0.1, np.inf),
    ),
    "elastic2d": (
        ("rho >= rho0", "rho", None, 0.1, np.inf),
        ("1/alpha0 <= mu <= alpha0", "mu", None, 0.1, 10.0),
        ("1/alpha0 <= 2*mu+3*lam <= alpha0", "lam", {"mu": 2.0, "lam": 3.0}, 0.1, 10.0),
    ),
    "maxwell1d": (
        ("eps >= eps0", "eps", None, 0.1, np.inf),
        ("mu0 <= mu <= mu1", "mu", None, 0.1, 10.0),
    ),
}

PROBLEMS = tuple(FORMS)

#: parameter field names per problem, in canonical (form term) order
FIELD_NAMES = {problem: tuple(term[2] for term in terms) for problem, terms in FORMS.items()}


class SparsityPattern:
    """The CSR sparsity pattern on the free DOFs shared by a problem's operators.

    Operators live as value arrays ``(..., nnz)`` on this pattern.  Every
    operator is symmetric, so its values are also those of its transpose.
    Products with vectors are one call to scipy's compiled CSR mat-vec
    (``csr_matvec``, the kernel behind ``csr_matrix @ x``) without building a
    matrix object; a stack of ``m`` products is a single call on the
    block-diagonal matrix of the ``m`` value rows.  ``kd`` is the
    half-bandwidth of the DOF numbering.  :meth:`lower_band` scatters the
    values into LAPACK's ``(kd + 1, n)`` lower band storage for Cholesky
    factors, and :meth:`band` into the ``(3 kd + 1, n)`` band storage for LU
    factors; each is one scatter through a precomputed position vector.
    """

    def __init__(self, rows, cols, n):
        self.n = int(n)
        self.shape = (self.n, self.n)
        self._keys = np.unique(np.asarray(rows) * self.n + np.asarray(cols))
        row_of, col_of = np.divmod(self._keys, self.n)
        self.nnz = self._keys.size
        # 32-bit indices when they fit, as scipy's own CSR matrices keep them
        idx = np.int32 if self.nnz < 2**31 else np.int64
        self.indices = col_of.astype(idx)
        self.indptr = np.searchsorted(row_of, np.arange(self.n + 1)).astype(idx)
        self.kd = int(np.abs(row_of - col_of).max(initial=0))
        # entry (i, j) goes to band row 2 kd + i - j of column j, stored column-major
        self._band_pos = 2 * self.kd + row_of - col_of + (3 * self.kd + 1) * col_of
        # in the lower storage to row i - j of column j when i >= j; entries
        # above the diagonal go to one spare slot past the end
        lower_size = (self.kd + 1) * self.n
        self._lower_pos = np.where(
            row_of >= col_of, row_of - col_of + (self.kd + 1) * col_of, lower_size
        )

    def locate(self, rows, cols):
        """Value positions of the entries (rows, cols), which must be in the pattern."""
        keys = np.asarray(rows) * self.n + np.asarray(cols)
        pos = np.minimum(np.searchsorted(self._keys, keys), self.nnz - 1)
        if not np.array_equal(self._keys[pos], keys):
            raise ValueError("entries outside the sparsity pattern")
        return pos

    def band(self, values):
        """The (3 kd + 1, n) LAPACK band storage of the matrix with (nnz,) values."""
        ab = np.zeros((3 * self.kd + 1) * self.n)
        ab[self._band_pos] = values
        return ab.reshape((3 * self.kd + 1, self.n), order="F")

    def lower_band(self, values):
        """The (kd + 1, n) LAPACK lower band storage of the matrix with (nnz,) values."""
        ab = np.zeros((self.kd + 1) * self.n + 1)
        ab[self._lower_pos] = values
        return ab[:-1].reshape((self.kd + 1, self.n), order="F")

    def matrix(self, values):
        """A CSR matrix (owning its arrays) with the given (nnz,) values."""
        return sp.csr_matrix((values, self.indices, self.indptr), shape=self.shape, copy=True)

    def matvec(self, values, x):
        """Row-wise products: (..., nnz) values times (..., n) vectors, same leading shape."""
        out = np.zeros(x.shape)
        self._add_products(out, values, x)
        return out

    def apply(self, *terms):
        """Sum of ``matvec(values, x)`` over (values, x) terms; None values add nothing."""
        out = np.zeros(terms[0][1].shape)
        for values, x in terms:
            if values is not None:
                self._add_products(out, values, x)
        return out

    def kernel(self, values, x):
        """The compiled product ``kernel(values[i], x, out)``, out += V_i x.

        ``values`` is a (rows, nnz) stack of matrices and ``x`` an (n,) vector
        or an (n, k) block of k columns; the kernel is ``csr_matvec`` or
        ``csr_matvecs`` with this pattern bound, and it adds into ``out``.
        The shapes are checked here, once, so that a loop over the rows makes
        no further checks.
        """
        stack_ok = values.ndim == 2 and values.shape[1] == self.nnz
        if not stack_ok or x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError(
                f"values {values.shape} and vectors {x.shape} do not match "
                f"the pattern's (rows, {self.nnz}) and ({self.n},) or ({self.n}, k)"
            )
        if x.ndim == 1:
            return partial(_sparsetools.csr_matvec, self.n, self.n, self.indptr, self.indices)
        return partial(
            _sparsetools.csr_matvecs, self.n, self.n, x.shape[1], self.indptr, self.indices
        )

    def _add_products(self, out, values, x):
        """out += values times x for every row of out, in one compiled kernel call."""
        if values.shape != out.shape[:-1] + (self.nnz,) or x.shape != out.shape:
            raise ValueError(
                f"values {values.shape} and vectors {x.shape} do not match "
                f"the pattern's (..., {self.nnz}) and (..., {self.n})"
            )
        m = out.size // self.n
        indptr, indices = self.indptr, self.indices
        if m != 1:
            # the block-diagonal pattern of the m value rows; 64-bit only if 32 bits overflow
            wide = m * max(self.nnz, self.n) >= 2**31
            first = np.arange(m, dtype=np.int64 if wide else np.int32)[:, None]
            indptr = np.empty(m * self.n + 1, dtype=first.dtype)
            indptr[:-1] = (self.indptr[:-1] + self.nnz * first).ravel()
            indptr[-1] = m * self.nnz
            indices = (self.indices + self.n * first).ravel()
        n_rows = m * self.n
        _sparsetools.csr_matvec(
            n_rows, n_rows, indptr, indices, values.ravel(), x.ravel(), out.reshape(-1)
        )


def combine(*terms):
    """Sum of c * values over (c, values) terms, skipping None; None if all are."""
    out = None
    for c, values in terms:
        if values is not None:
            out = c * values if out is None else out + c * values
    return out


class AssemblyKit:
    """Precomputed element data for one bilinear form.

    Holds the unit-coefficient local matrices, the scatter pattern restricted
    to free degrees of freedom, and a sparse map from per-element
    coefficients to values on the problem's :class:`SparsityPattern`, so that
    the operator values at every time node come out of one sparse product.
    Element-level bilinear values x_e^T L_e y_e come out of one einsum.  The
    local matrices must be exactly symmetric: the adjoint sweeps use the
    assembled values for the transposed operators as they are.
    """

    def __init__(self, local, dof_map, n_dofs, free_dofs, pattern=None):
        self.local = np.ascontiguousarray(local)  # (n_el, k, k)
        self.dof_map = np.ascontiguousarray(dof_map)  # (n_el, k)
        self.n_dofs = int(n_dofs)
        self.free_dofs = np.asarray(free_dofs)
        if not np.array_equal(self.local, self.local.transpose(0, 2, 1)):
            raise InvalidMeshError("local element matrices are not exactly symmetric")
        n_el, k, _ = self.local.shape
        rows = np.broadcast_to(self.dof_map[:, :, None], (n_el, k, k)).ravel()
        cols = np.broadcast_to(self.dof_map[:, None, :], (n_el, k, k)).ravel()
        full2free = -np.ones(self.n_dofs, dtype=np.int64)
        full2free[self.free_dofs] = np.arange(self.free_dofs.size)
        rf = full2free[rows]
        cf = full2free[cols]
        keep = (rf >= 0) & (cf >= 0)
        self._rows = rf[keep]
        self._cols = cf[keep]
        self._vals = self.local.ravel()[keep]
        self._elem = np.repeat(np.arange(n_el), k * k)[keep]
        self._shape = (self.free_dofs.size, self.free_dofs.size)
        if pattern is None:
            pattern = SparsityPattern(self._rows, self._cols, self._shape[0])
        self.pattern = pattern
        # (nnz, n_el): pattern values of the matrix for unit element coefficients
        self._scatter = sp.csr_matrix(
            (self._vals, (pattern.locate(self._rows, self._cols), self._elem)),
            shape=(pattern.nnz, n_el),
        )

    def values(self, coeff_elem):
        """Pattern values for per-element coefficients: (..., n_el) -> (..., nnz).

        All leading rows go through one sparse product.
        """
        coeff = np.asarray(coeff_elem, dtype=float)
        rows = coeff.reshape(-1, coeff.shape[-1])
        vals = np.ascontiguousarray((self._scatter @ rows.T).T)
        return vals.reshape(coeff.shape[:-1] + (vals.shape[-1],))

    def assemble(self, coeff_elem):
        """Global matrix on free DOFs for per-element coefficients."""
        data = self._vals * np.asarray(coeff_elem)[self._elem]
        mat = sp.csr_matrix((data, (self._rows, self._cols)), shape=self._shape)
        return mat

    def assemble_full(self, coeff_elem):
        """Global matrix on all DOFs (no boundary elimination)."""
        n_el, k, _ = self.local.shape
        rows = np.broadcast_to(self.dof_map[:, :, None], (n_el, k, k)).ravel()
        cols = np.broadcast_to(self.dof_map[:, None, :], (n_el, k, k)).ravel()
        data = (self.local * np.asarray(coeff_elem)[:, None, None]).ravel()
        return sp.csr_matrix((data, (rows, cols)), shape=(self.n_dofs, self.n_dofs))

    def _gather(self, x_free):
        x_free = np.asarray(x_free)
        full = np.zeros(x_free.shape[:-1] + (self.n_dofs,))
        full[..., self.free_dofs] = x_free
        return full[..., self.dof_map]  # (..., n_el, k)

    def element_bilinear_many(self, X_free, Y_free):
        """Batched variant: (T, n_free) x (T, n_free) -> (T, n_el)."""
        xg = self._gather(X_free)
        yg = self._gather(Y_free)
        return np.einsum("eij,tei,tej->te", self.local, xg, yg)


@dataclass
class Discretization:
    """Uniform P1 mesh with the inner-product matrices of the energy spaces.

    ``M`` realizes the pivot-space (L2) inner product and ``K_V`` the energy
    (H1-type) inner product, both restricted to the free (non-Dirichlet)
    degrees of freedom.  ``M_load`` keeps the full-mesh mass rows so nodal
    samples of a source can be turned into load vectors without losing the
    boundary-adjacent couplings.
    """

    problem: str
    dim: int
    n_components: int
    nodes: np.ndarray
    elements: np.ndarray
    element_sizes: np.ndarray
    boundary_nodes: np.ndarray
    free_nodes: np.ndarray
    free_dofs: np.ndarray
    n_dofs: int
    M: sp.csr_matrix
    K_V: sp.csr_matrix
    M_load: sp.csr_matrix
    kits: dict = dataclass_field(default_factory=dict)
    lumped_node_measure: np.ndarray | None = None

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_free(self):
        return self.free_dofs.size

    @property
    def pattern(self):
        """The sparsity pattern shared by every kit of this mesh."""
        return next(iter(self.kits.values())).pattern

    def element_means(self, nodal_values):
        """Vertex-mean (midpoint sample) of nodal values, per element.

        Accepts (n_nodes,) or (T, n_nodes); returns (n_el,) or (T, n_el).
        """
        vals = np.asarray(nodal_values)
        return vals[..., self.elements].mean(axis=-1)

    def accumulate_to_nodes(self, element_density):
        """Spread |e|-weighted element densities to vertices.

        For densities g(.., e) returns G(.., i) = sum_{e owning i} |e| g(.., e) / n_vert,
        the transpose of :meth:`element_means` against the measure-weighted pairing.
        """
        dens = np.asarray(element_density)
        nvert = self.elements.shape[1]
        out = np.zeros(dens.shape[:-1] + (self.n_nodes,))
        weighted = dens * (self.element_sizes / nvert)
        for v in range(nvert):
            np.add.at(out, (..., self.elements[:, v]), weighted)
        return out


def _interval_mesh(n, length):
    h = length / n
    nodes = np.linspace(0.0, length, n + 1)
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    sizes = np.full(n, h)
    k_loc = np.tile((1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]]), (n, 1, 1))
    m_loc = np.tile((h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]]), (n, 1, 1))
    return nodes, elements, sizes, k_loc, m_loc


def _triangle_mesh(nx, ny, extent):
    lx, ly = extent
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    xg, yg = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.stack([xg.ravel(), yg.ravel()], axis=1)  # node id = j*(nx+1)+i

    tris = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + (nx + 1)
            d = c + 1
            tris.append([a, b, d])
            tris.append([a, d, c])
    elements = np.array(tris, dtype=np.int64)

    coords = nodes[elements]  # (n_el, 3, 2)
    x = coords[..., 0]
    y = coords[..., 1]
    det = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (x[:, 2] - x[:, 0]) * (
        y[:, 1] - y[:, 0]
    )
    area = 0.5 * np.abs(det)
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    grads = np.stack([b, c], axis=2) / det[:, None, None]  # (n_el, 3, 2)
    return nodes, elements, area, grads


def build_grid(problem, n, extent=None):
    """Build the mesh and inner-product matrices for one model problem.

    Parameters
    ----------
    problem : str
        One of ``wave1d``, ``elastic2d``, ``maxwell1d``.
    n : int or (int, int)
        Number of elements (1D) or cells per direction (2D).
    extent : float or (float, float), optional
        Interval length, or rectangle side lengths.  Defaults to 1 (unit
        interval / unit square).

    Returns
    -------
    Discretization
    """
    if problem not in PROBLEMS:
        raise InvalidMeshError(f"unknown problem kind '{problem}'")

    if problem in ("wave1d", "maxwell1d"):
        n = int(n)
        length = 1.0 if extent is None else float(extent)
        if n < 2:
            raise InvalidMeshError(f"need at least 2 elements, got {n}")
        if length <= 0:
            raise InvalidMeshError(f"extent must be positive, got {length}")
        nodes, elements, sizes, k_loc, m_loc = _interval_mesh(n, length)
        n_nodes = nodes.size
        boundary = np.array([0, n])
        free_nodes = np.arange(1, n)
        free_dofs = free_nodes
        stiffness = AssemblyKit(k_loc, elements, n_nodes, free_dofs)
        kits = {
            "stiffness": stiffness,
            "mass": AssemblyKit(m_loc, elements, n_nodes, free_dofs, stiffness.pattern),
        }
        ones = np.ones(elements.shape[0])
        M = kits["mass"].assemble(ones)
        K_V = kits["stiffness"].assemble(ones)
        M_load = kits["mass"].assemble_full(ones)[free_dofs, :]
        disc = Discretization(
            problem=problem,
            dim=1,
            n_components=1,
            nodes=nodes,
            elements=elements,
            element_sizes=sizes,
            boundary_nodes=boundary,
            free_nodes=free_nodes,
            free_dofs=free_dofs,
            n_dofs=n_nodes,
            M=M,
            K_V=K_V,
            M_load=M_load,
            kits=kits,
        )
    else:
        try:
            nx, ny = (int(n[0]), int(n[1]))
        except TypeError:
            nx = ny = int(n)
        if extent is None:
            extent = (1.0, 1.0)
        lx, ly = float(extent[0]), float(extent[1])
        if nx < 2 or ny < 2:
            raise InvalidMeshError(f"need at least 2 cells per direction, got {(nx, ny)}")
        if lx <= 0 or ly <= 0:
            raise InvalidMeshError(f"extent must be positive, got {(lx, ly)}")
        nodes, elements, area, grads = _triangle_mesh(nx, ny, (lx, ly))
        n_nodes = nodes.shape[0]
        n_el = elements.shape[0]
        on_bdry = (
            (nodes[:, 0] == 0.0)
            | (nodes[:, 0] == lx)
            | (nodes[:, 1] == 0.0)
            | (nodes[:, 1] == ly)
        )
        boundary = np.nonzero(on_bdry)[0]
        free_nodes = np.nonzero(~on_bdry)[0]
        n_dofs = 2 * n_nodes
        free_dofs = np.sort(np.concatenate([2 * free_nodes, 2 * free_nodes + 1]))

        k_scalar = area[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)
        m_scalar = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))

        dof_vec = np.empty((n_el, 6), dtype=np.int64)
        dof_vec[:, 0::2] = 2 * elements
        dof_vec[:, 1::2] = 2 * elements + 1

        # strain-displacement rows: (eps_xx, eps_yy, 2 eps_xy)
        bmat = np.zeros((n_el, 3, 6))
        bmat[:, 0, 0::2] = grads[..., 0]
        bmat[:, 1, 1::2] = grads[..., 1]
        bmat[:, 2, 0::2] = grads[..., 1]
        bmat[:, 2, 1::2] = grads[..., 0]
        dmat = np.diag([2.0, 2.0, 1.0])  # realizes 2 eps(u):eps(v)
        k_eps = area[:, None, None] * np.einsum("eai,ab,ebj->eij", bmat, dmat, bmat)

        gvec = np.zeros((n_el, 6))
        gvec[:, 0::2] = grads[..., 0]
        gvec[:, 1::2] = grads[..., 1]
        k_div = area[:, None, None] * np.einsum("ei,ej->eij", gvec, gvec)

        m_vec = np.zeros((n_el, 6, 6))
        m_vec[:, 0::2, 0::2] = m_scalar
        m_vec[:, 1::2, 1::2] = m_scalar
        k_vstiff = np.zeros((n_el, 6, 6))
        k_vstiff[:, 0::2, 0::2] = k_scalar
        k_vstiff[:, 1::2, 1::2] = k_scalar

        eps = AssemblyKit(k_eps, dof_vec, n_dofs, free_dofs)
        kits = {
            "eps": eps,
            "div": AssemblyKit(k_div, dof_vec, n_dofs, free_dofs, eps.pattern),
            "vmass": AssemblyKit(m_vec, dof_vec, n_dofs, free_dofs, eps.pattern),
            "vstiff": AssemblyKit(k_vstiff, dof_vec, n_dofs, free_dofs, eps.pattern),
        }
        ones = np.ones(n_el)
        M = kits["vmass"].assemble(ones)
        K_V = kits["vstiff"].assemble(ones) + M  # full H1 inner product
        M_load = kits["vmass"].assemble_full(ones)[free_dofs, :]
        disc = Discretization(
            problem=problem,
            dim=2,
            n_components=2,
            nodes=nodes,
            elements=elements,
            element_sizes=area,
            boundary_nodes=boundary,
            free_nodes=free_nodes,
            free_dofs=free_dofs,
            n_dofs=n_dofs,
            M=M.tocsr(),
            K_V=K_V.tocsr(),
            M_load=M_load.tocsr(),
            kits=kits,
        )

    nvert = disc.elements.shape[1]
    lumped = np.zeros(disc.n_nodes)
    np.add.at(
        lumped,
        disc.elements.ravel(),
        np.repeat(disc.element_sizes / nvert, nvert),
    )
    disc.lumped_node_measure = lumped
    return disc


# ---------------------------------------------------------------------------
# parameter fields and admissibility


def check_time_grid(time_grid):
    """Raise ResolutionError unless the grid increases with uniform steps.

    Every step must lie within 1e-9 relative of the first, because time
    differences and trapezoid weights take ``tg[1] - tg[0]`` as the step.
    """
    steps = np.diff(time_grid)
    if steps.size and not (steps[0] > 0 and np.abs(steps - steps[0]).max() <= 1e-9 * steps[0]):
        raise ResolutionError(
            "time grid must increase with uniform steps (all within 1e-9 "
            f"relative of the first), got steps from {steps.min():.6g} "
            f"to {steps.max():.6g}"
        )


@dataclass
class ParameterField:
    """A scalar coefficient tabulated on (time node x mesh node)."""

    values: np.ndarray
    time_grid: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        if self.values.ndim != 2:
            raise DirectionShapeError(
                f"field values must be 2-D (time x space), got shape {self.values.shape}"
            )
        if self.values.shape[0] != self.time_grid.size:
            raise DirectionShapeError(
                f"field has {self.values.shape[0]} time rows but the grid has "
                f"{self.time_grid.size} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise DirectionShapeError("field contains non-finite entries")
        check_time_grid(self.time_grid)

    @classmethod
    def constant(cls, value, time_grid, n_space):
        vals = np.full((np.asarray(time_grid).size, n_space), float(value))
        return cls(vals, time_grid)

    def copy(self):
        return ParameterField(self.values.copy(), self.time_grid.copy())


def _weighted_sum(fields, weights, skip=None):
    """Sum of w * values over the (field, w) weights, leaving out the field ``skip``."""
    return combine(*((w, fields[name].values) for name, w in weights.items() if name != skip))


@dataclass
class ParameterPoint:
    """A full set of named coefficient fields for one problem."""

    problem: str
    fields: dict

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise DirectionShapeError(
                f"unknown problem '{self.problem}', expected one of {list(PROBLEMS)}"
            )
        missing = [n for n in FIELD_NAMES[self.problem] if n not in self.fields]
        if missing:
            raise DirectionShapeError(f"missing parameter fields {missing}")
        extra = set(self.fields) - set(FIELD_NAMES[self.problem])
        if extra:
            raise DirectionShapeError(
                f"fields {sorted(extra)} unknown to problem '{self.problem}'"
            )
        tg = self.time_grid
        n_space = self.fields[self.field_names[0]].values.shape[1]
        for name, f in self.fields.items():
            if f.values.shape != (tg.size, n_space):
                raise DirectionShapeError(
                    f"field '{name}' has shape {f.values.shape}, inconsistent with the point"
                )
            if not np.array_equal(f.time_grid, tg):
                raise DirectionShapeError(f"field '{name}' uses a different time grid")

    @property
    def field_names(self):
        return FIELD_NAMES[self.problem]

    @property
    def time_grid(self):
        return self.fields[self.field_names[0]].time_grid

    @classmethod
    def from_constants(cls, problem, time_grid, n_space, **values):
        fields = {
            name: ParameterField.constant(values[name], time_grid, n_space)
            for name in FIELD_NAMES.get(problem, ())
        }
        return cls(problem, fields)

    def copy(self):
        return ParameterPoint(self.problem, {n: f.copy() for n, f in self.fields.items()})

    def check_admissible(self):
        """Raise ConstraintViolationError on the first non-finite value of a
        field, or else on the first violated bound of :data:`BOUNDS`."""
        for name, f in self.fields.items():
            finite = np.isfinite(f.values)
            first = finite.argmin()
            if not finite.flat[first]:
                idx = np.unravel_index(first, finite.shape)
                raise ConstraintViolationError("finite", name, idx, float(f.values[idx]), np.inf)
        for label, name, weights, lower, upper in BOUNDS[self.problem]:
            arr = self.fields[name].values
            if weights is not None:
                arr = _weighted_sum(self.fields, weights)
            lo, hi = lower + SLACK, upper - SLACK
            for limit, bad in ((lo, arr < lo), (hi, arr > hi)):
                first = bad.argmax()
                if bad.flat[first]:
                    idx = np.unravel_index(first, arr.shape)
                    raise ConstraintViolationError(label, name, idx, float(arr[idx]), limit)


def project_point(point):
    """Move a parameter point back into the admissible set of :data:`BOUNDS`.

    The bounds are restored in table order.  A bound on a field clips it onto
    the limit.  A bound on a weighted sum moves its ``field`` where the sum
    violates it, one further slack inside the limit, so that the rounding of
    the recomputed sum cannot land just outside; for elastic2d, mu is
    clipped first and 2 mu + 3 lam is then restored through lam, a
    feasibility-restoring (not Euclidean) projection.  Entries that already
    satisfy every bound are left untouched, which makes the projection
    exactly idempotent.
    """
    out = point.copy()
    fields = out.fields
    for _, name, weights, lower, upper in BOUNDS[point.problem]:
        lo, hi = lower + SLACK, upper - SLACK
        if weights is None:
            np.clip(fields[name].values, lo, hi, out=fields[name].values)
            continue
        total, rest = _weighted_sum(fields, weights), _weighted_sum(fields, weights, name)
        w = weights[name]
        moved = np.where(total < lo, (lo + SLACK - rest) / w, fields[name].values)
        fields[name].values = np.where(total > hi, (hi - SLACK - rest) / w, moved)
    return out


# ---------------------------------------------------------------------------
# operator timelines


class OperatorTimeline:
    """Time-sampled operator quadruple (A, B, C, Q) on one sparsity pattern.

    ``values[slot]`` is a (time node x nnz) array of pattern values, or None
    for a slot that vanishes identically; ``rate(slot)`` is its second-order
    time derivative, and ``matrix(slot, n)`` builds the CSR matrix of one node.
    ``point`` maps each field name to a copy of its values in the parameter
    point the operators were assembled from (see :func:`assemble_operators`);
    it is None for any other timeline.
    """

    def __init__(self, problem, time_grid, pattern, values):
        self.problem = problem
        self.time_grid = np.asarray(time_grid, dtype=float)
        self.pattern = pattern
        self.values = {slot: values.get(slot) for slot in SLOTS}
        self.point = None
        self._rates = {}

    @property
    def n_free(self):
        return self.pattern.n

    @property
    def dt(self):
        return float(self.time_grid[1] - self.time_grid[0])

    def rate(self, slot):
        """Time derivative of a slot's values, computed once (None for an absent slot)."""
        if slot not in self._rates:
            vals = self.values[slot]
            self._rates[slot] = None if vals is None else time_difference(vals, self.dt)
        return self._rates[slot]

    def matrix(self, slot, n):
        """CSR matrix of a slot at time node n (all zeros for an absent slot)."""
        values = self.values[slot]
        if values is None:
            return sp.csr_matrix(self.pattern.shape)
        return self.pattern.matrix(values[n])


def _assemble(disc, time_grid, coefficient):
    """Timeline whose slots sum the kit values of the problem's form terms.

    ``coefficient(field, fmap)`` gives a term's (time x element) coefficients,
    or None for a term that vanishes.
    """
    values = {}
    for slot, kit, field, fmap in FORMS[disc.problem]:
        coeff = coefficient(field, fmap)
        if coeff is not None:
            part = disc.kits[kit].values(coeff)
            values[slot] = values[slot] + part if slot in values else part
    return OperatorTimeline(disc.problem, time_grid, disc.pattern, values)


def _check_problem(disc, point):
    if point.problem != disc.problem:
        raise DirectionShapeError(
            f"point is for '{point.problem}' but the mesh is for '{disc.problem}'"
        )


def assemble_operators(disc, point):
    """Assemble the node-sampled operator quadruple for a parameter point.

    Raises ConstraintViolationError if the point leaves the admissible box.
    The timeline's ``point`` holds copies of the field values, taken now, so
    a later write into the point's fields does not reach it.
    """
    _check_problem(disc, point)
    point.check_admissible()
    tg = point.time_grid
    if tg.size < 3:
        raise ResolutionError("timelines need at least three time nodes")
    timeline = _assemble(
        disc, tg, lambda name, fmap: fmap[0](disc.element_means(point.fields[name].values))
    )
    timeline.point = {name: f.values.copy() for name, f in point.fields.items()}
    return timeline


def assemble_direction(disc, point, direction):
    """Linearization of the parameter-to-operator map in a given direction.

    ``direction`` maps field names to ParameterFields or arrays (missing
    names are treated as zero).  Each form term contributes its kit with the
    linearized coefficient map, e.g. for maxwell1d
    (-stiffness(mu_bar / mu^2), 0, mass(eps_bar), 0).

    ``direction`` may also be a list of k such mappings.  The timeline's
    slots are then (time node x k x nnz) arrays, filled by one
    (k * time node, element) product per form term; a field that only some
    of the directions have is zero in the others.
    """
    _check_problem(disc, point)
    single = isinstance(direction, Mapping)
    directions = [direction] if single else list(direction)
    shape = (point.time_grid.size, disc.n_nodes)
    means = {}
    for j, one in enumerate(directions):
        unknown = set(one) - set(FIELD_NAMES[disc.problem])
        if unknown:
            raise DirectionShapeError(
                f"direction has fields {sorted(unknown)} unknown to problem '{disc.problem}'"
            )
        for name, f in one.items():
            if f is None:
                continue
            vals = f.values if isinstance(f, ParameterField) else np.asarray(f, dtype=float)
            if vals.shape != shape:
                raise DirectionShapeError(
                    f"direction field '{name}' has shape {vals.shape}, expected {shape}"
                )
            if name not in means:
                means[name] = np.zeros((shape[0], len(directions), disc.elements.shape[0]))
            means[name][:, j] = disc.element_means(vals)

    def coefficient(name, fmap):
        if name not in means:
            return None
        base = disc.element_means(point.fields[name].values)[:, None]
        return fmap[1](base, means[name])

    timeline = _assemble(disc, point.time_grid, coefficient)
    if single:
        for slot, values in timeline.values.items():
            timeline.values[slot] = None if values is None else values[:, 0]
    return timeline


# ---------------------------------------------------------------------------
# discrete parameter norms


def time_difference(values, dt):
    """Second-order difference quotient in time along axis 0."""
    vals = np.asarray(values, dtype=float)
    if vals.shape[0] < 3:
        raise ResolutionError("time differences need at least three nodes")
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * dt)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * dt)
    return out


def parameter_norm(field, k):
    """Discrete surrogate of the W^{k+1,inf}-in-time sup norm.

    Maximum over time-difference orders 0 .. k+1 of the max-abs value over all
    samples; differences use the second-order stencils of
    :func:`time_difference`.
    """
    k = int(k)
    n_steps = field.time_grid.size - 1
    if k + 1 > n_steps:
        raise ResolutionError(
            f"order {k} norm needs at least {k + 2} time nodes, grid has {n_steps + 1}"
        )
    dt = float(field.time_grid[1] - field.time_grid[0])
    cur = field.values
    best = 0.0
    for order in range(k + 2):
        best = max(best, float(np.max(np.abs(cur))))
        if order < k + 1:
            cur = time_difference(cur, dt)
    return best
