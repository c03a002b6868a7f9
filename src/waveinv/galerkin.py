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

Each problem is stated once, by three tables.  :data:`FORMS` lists its form
terms: which kit, field and coefficient map feed each operator slot, and so
its field names.  :data:`BOUNDS` lists the bounds of its admissible set (C
uniformly positive, A coercive), which both the check
:meth:`ParameterPoint.check_admissible` and :func:`project_point` walk.
:data:`MESHES` gives its mesh: the builder, the spatial dimension and the
number of components per node, from which :func:`build_grid` makes every
mesh the same way.

All operators of a problem share one CSR sparsity pattern on the free degrees
of freedom.  An operator timeline stores each slot as a (time node x nnz)
array of values on that pattern, filled for all nodes at once by one sparse
product per form term.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping
from dataclasses import dataclass
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


def _interval_mesh(counts, extent):
    """The interval [0, L] cut into n equal elements; see :data:`MESHES`."""
    (n,), (length,) = counts, extent
    h = length / n
    nodes = np.linspace(0.0, length, n + 1)
    elements = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
    sizes = np.full(n, h)
    k_loc = np.tile((1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]]), (n, 1, 1))
    m_loc = np.tile((h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]]), (n, 1, 1))
    return nodes, elements, sizes, {"stiffness": k_loc, "mass": m_loc}, ("mass", ("stiffness",))


def _triangle_mesh(counts, extent):
    """The rectangle [0, lx] x [0, ly] with each of nx x ny cells cut into two
    triangles, carrying 2-vectors; see :data:`MESHES`."""
    (nx, ny), (lx, ly) = counts, extent
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
    n_el = elements.shape[0]

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

    k_scalar = area[:, None, None] * np.einsum("eid,ejd->eij", grads, grads)
    m_scalar = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))

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
    local = {"eps": k_eps, "div": k_div, "vmass": m_vec, "vstiff": k_vstiff}
    return nodes, elements, area, local, ("vmass", ("vstiff", "vmass"))  # full H1 K_V


#: problem -> (mesh builder, spatial dimension, components per node).  A
#: builder takes one element count and one side length per axis and returns
#: the nodes, the elements, their sizes, each kit's local element matrices
#: and the kits of M and of K_V: the one for M, and those whose sum is K_V.
#: The local matrices number component c of node i as DOF
#: ``n_components * i + c``, and the nodes on the faces of the box
#: [0, extent] are the Dirichlet nodes.
MESHES = {
    "wave1d": (_interval_mesh, 1, 1),
    "elastic2d": (_triangle_mesh, 2, 2),
    "maxwell1d": (_interval_mesh, 1, 1),
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

    def apply(self, *terms):
        """Sum of the row-wise products over (values, x) terms: (..., nnz) values
        times (..., n) vectors, same leading shape; None values add nothing."""
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


#: bytes of one (k, time node, nnz) value array of the directions that a
#: derivative sweep carries at once.  An array of many rows that a sweep or an
#: assembly makes and drops again is made a block of rows at a time, each
#: block within an eighth of it (:func:`_row_blocks`)
_BLOCK_BYTES = 8 * 2**20


def _row_blocks(n_rows, row_bytes):
    """The (start, stop) blocks of ``range(n_rows)``, in order, each of as many
    rows of ``row_bytes`` as keep it within an eighth of :data:`_BLOCK_BYTES`,
    and at least one.  Where the blocks end changes no bit of what they make."""
    size = max(1, _BLOCK_BYTES // (8 * row_bytes))
    return [(r0, min(r0 + size, n_rows)) for r0 in range(0, n_rows, size)]


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

        The leading rows go through one sparse product per block of
        :func:`_row_blocks` of them, each written into the C-ordered output,
        so that no second copy of the whole output is made.
        """
        coeff = np.asarray(coeff_elem, dtype=float)
        rows = coeff.reshape(-1, coeff.shape[-1])
        vals = np.empty((rows.shape[0], self.pattern.nnz))
        for r0, r1 in _row_blocks(rows.shape[0], self.pattern.nnz * 8):
            vals[r0:r1] = (self._scatter @ rows[r0:r1].T).T
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
        """Element values x_e^T L_e y_e of row pairs: (T, n_free) x (T, n_free) -> (T, n_el).

        The rows are gathered onto the elements and contracted a block of
        :func:`_row_blocks` of them at a time, sized on one gathered (n_el, k)
        row; a block's gathers are freed before the next block's are made.
        """
        n_el, k, _ = self.local.shape
        out = np.empty((len(X_free), n_el))
        for r0, r1 in _row_blocks(len(X_free), n_el * k * 8):
            xg, yg = self._gather(X_free[r0:r1]), self._gather(Y_free[r0:r1])
            out[r0:r1] = np.einsum("eij,tei,tej->te", self.local, xg, yg)
            del xg, yg  # before the next block's are gathered
        return out


@dataclass(repr=False)
class Discretization:
    """Uniform P1 mesh with the inner-product matrices of the energy spaces.

    ``M`` realizes the pivot-space (L2) inner product and ``K_V`` the energy
    (H1-type) inner product, both restricted to the free (non-Dirichlet)
    degrees of freedom.  ``M_load`` keeps the full-mesh mass rows so nodal
    samples of a source can be turned into load vectors without losing the
    boundary-adjacent couplings.  ``nodes`` is ``(n_nodes,)`` on an interval
    and ``(n_nodes, dim)`` otherwise; :attr:`axes` views it one axis at a time.
    ``dim`` and ``n_components`` are read off the problem's row of :data:`MESHES`.
    """

    problem: str
    nodes: np.ndarray
    elements: np.ndarray
    element_sizes: np.ndarray
    free_nodes: np.ndarray
    free_dofs: np.ndarray
    n_dofs: int
    M: sp.csr_matrix
    K_V: sp.csr_matrix
    M_load: sp.csr_matrix
    kits: dict
    lumped_node_measure: np.ndarray

    @property
    def dim(self):
        return MESHES[self.problem][1]

    @property
    def n_components(self):
        return MESHES[self.problem][2]

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def axes(self):
        """The node coordinates along each axis: a tuple of ``dim`` (n_nodes,) views."""
        return tuple(self.nodes.reshape(self.n_nodes, self.dim).T)

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


def per_axis(name, value, dim, kind, error=InvalidMeshError):
    """``value`` as ``dim`` entries of type ``kind``: one per axis, or one for all.

    Raises ``error`` when ``value`` gives neither, or an int with a fractional part.
    """
    try:
        entries = np.broadcast_to(value, dim)
        out = tuple(kind(v) for v in entries)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must give one entry or one per axis of the {dim}-D mesh, "
                    f"got {value!r}") from exc
    if kind is int and any(v != e for v, e in zip(out, entries)):
        raise error(f"{name} must be whole numbers, got {value!r}")
    return out


def build_grid(problem, n, extent=None):
    """Build the mesh and inner-product matrices for one model problem.

    Parameters
    ----------
    problem : str
        One of :data:`PROBLEMS`; its row of :data:`MESHES` gives the mesh.
    n : int or sequence of int
        Number of elements along each axis; one number serves every axis.
        A count with a fractional part raises InvalidMeshError.
    extent : float or sequence of float, optional
        Side length along each axis; one number serves every axis.
        Defaults to 1 (unit interval / unit square).

    Returns
    -------
    Discretization
    """
    if problem not in MESHES:
        raise InvalidMeshError(f"unknown problem kind '{problem}'")
    build, dim, n_components = MESHES[problem]
    counts = per_axis("n", n, dim, int)
    lengths = per_axis("extent", 1.0 if extent is None else extent, dim, float)
    if min(counts) < 2:
        raise InvalidMeshError(f"need at least 2 elements per axis, got {counts}")
    if not all(0.0 < length < np.inf for length in lengths):
        raise InvalidMeshError(f"extent must be positive and finite, got {lengths}")
    nodes, elements, sizes, local, (mass, energy) = build(counts, lengths)

    # the box [0, extent]: a node on a face of it is a Dirichlet node
    coords = nodes.reshape(nodes.shape[0], dim)
    on_boundary = ((coords == 0.0) | (coords == lengths)).any(axis=1)
    free_nodes = np.nonzero(~on_boundary)[0]
    # component c of node i is DOF n_components * i + c
    components = np.arange(n_components)
    free_dofs = (n_components * free_nodes[:, None] + components).ravel()
    dof_map = (n_components * elements[:, :, None] + components).reshape(elements.shape[0], -1)
    n_dofs = n_components * nodes.shape[0]
    kits = {}
    pattern = None
    for name, matrices in local.items():
        kits[name] = AssemblyKit(matrices, dof_map, n_dofs, free_dofs, pattern)
        pattern = kits[name].pattern

    ones = np.ones(elements.shape[0])
    unit = {name: kits[name].assemble(ones) for name in {mass, *energy}}
    K_V = unit[energy[0]]
    for name in energy[1:]:
        K_V = K_V + unit[name]
    nvert = elements.shape[1]
    lumped = np.zeros(nodes.shape[0])
    np.add.at(lumped, elements.ravel(), np.repeat(sizes / nvert, nvert))
    return Discretization(
        problem=problem,
        nodes=nodes,
        elements=elements,
        element_sizes=sizes,
        free_nodes=free_nodes,
        free_dofs=free_dofs,
        n_dofs=n_dofs,
        M=unit[mass],
        K_V=K_V,
        M_load=kits[mass].assemble_full(ones)[free_dofs, :],
        kits=kits,
        lumped_node_measure=lumped,
    )


# ---------------------------------------------------------------------------
# parameter fields and admissibility


def read_only(array, dtype=float):
    """A C-ordered ``dtype`` copy of ``array`` held by an immutable ``bytes`` object, which no
    view can write into.  An array held so already, as one this function made, comes back as
    it is; any other is copied, even a read-only one, as an older view may write into it."""
    owner = array
    while isinstance(owner, np.ndarray):
        owner = owner.base
    if isinstance(owner, bytes) and array.dtype == dtype:
        return array
    data = np.asarray(array, dtype=dtype)
    return np.frombuffer(data.tobytes(), dtype).reshape(data.shape)


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
    """A scalar coefficient tabulated on (time node x mesh node).  ``values`` and ``time_grid``
    are :func:`read_only`; assigning either checks the new pair as construction does, and a
    rejected pair changes nothing."""

    values: np.ndarray
    time_grid: np.ndarray

    def __setattr__(self, name, value):
        pair = {**vars(self), name: read_only(value)}
        if "time_grid" in pair:  # construction sets values first, then time_grid
            _check_field(pair["values"], pair["time_grid"])
        super().__setattr__(name, pair[name])

    @classmethod
    def constant(cls, value, time_grid, n_space):
        vals = np.full((np.asarray(time_grid).size, n_space), float(value))
        return cls(vals, time_grid)


def _check_field(values, time_grid):
    """Raise DirectionShapeError unless ``values`` has one finite row per node of the grid."""
    if values.ndim != 2:
        raise DirectionShapeError(
            f"field values must be 2-D (time x space), got shape {values.shape}"
        )
    if values.shape[0] != time_grid.size:
        raise DirectionShapeError(
            f"field has {values.shape[0]} time rows but the grid has {time_grid.size} nodes"
        )
    finite = np.isfinite(values)
    first = finite.argmin()
    if not finite.flat[first]:
        idx = divmod(int(first), values.shape[1])
        raise DirectionShapeError(f"field value {values[idx]} at (time node, mesh node) {idx} "
                                  "is not finite")
    check_time_grid(time_grid)


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
        self.check_shape(self.fields[self.field_names[0]].values.shape[1])

    def check_shape(self, n_space):
        """Raise DirectionShapeError unless all fields are (time node x ``n_space``)
        on the point's time grid."""
        tg = self.time_grid
        for name, f in self.fields.items():
            if np.shape(f.values) != (tg.size, n_space):
                raise DirectionShapeError(f"parameter field '{name}' has shape "
                                          f"{np.shape(f.values)}, expected {(tg.size, n_space)}")
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
        """A point with fields of its own, sharing this point's read-only arrays unchecked."""
        out = copy.copy(self)
        out.fields = {name: copy.copy(f) for name, f in self.fields.items()}
        return out

    def check_admissible(self):
        """Raise ConstraintViolationError on the first violated bound of :data:`BOUNDS`."""
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
            fields[name].values = np.clip(fields[name].values, lo, hi)
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

    ``values[slot]`` holds pattern values, or None for a slot that vanishes
    identically: (time node x nnz) from :func:`assemble_operators` and
    :func:`~.evolve.reverse_timeline`, (time node x k x nnz) for k directions
    from :func:`assemble_direction`.  ``rate(slot)`` is its second-order time
    derivative, and ``matrix(slot, n)`` builds one node's CSR matrix from the
    first layout only, on the pattern of the mesh ``disc`` it was assembled
    on.  ``point`` is the copy of the parameter point that
    :func:`assemble_operators` assembled it from, and None on any other timeline.
    """

    def __init__(self, disc, time_grid, values, point=None):
        self.disc = disc
        self.time_grid = read_only(time_grid)
        self.values = {slot: values.get(slot) for slot in SLOTS}
        self.point = point
        self._rates = {}

    @property
    def pattern(self):
        return self.disc.pattern

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


def _slot_values(disc, coefficient):
    """Slot values that sum the kit values of the problem's form terms.

    ``coefficient(field, fmap)`` gives a term's (time x element) coefficients,
    or None for a term that vanishes; a slot without terms is None.  A slot's
    later terms add into its first, a fresh array, in place, and no term's
    values outlive their use.
    """
    values = dict.fromkeys(SLOTS)
    for slot, kit, field, fmap in FORMS[disc.problem]:
        coeff = coefficient(field, fmap)
        if coeff is None:
            continue
        if values[slot] is None:
            values[slot] = disc.kits[kit].values(coeff)
        else:
            values[slot] += disc.kits[kit].values(coeff)
    return values


def _check_problem(disc, point):
    if point.problem != disc.problem:
        raise DirectionShapeError(
            f"point is for '{point.problem}' but the mesh is for '{disc.problem}'"
        )


def assemble_operators(disc, point):
    """Assemble the node-sampled operator quadruple for a parameter point.

    Raises DirectionShapeError unless every field is (time node x mesh node)
    (:meth:`ParameterPoint.check_shape`), also after a field was replaced,
    and ConstraintViolationError if the point leaves the admissible box.
    """
    _check_problem(disc, point)
    point.check_shape(disc.n_nodes)
    point.check_admissible()
    tg = point.time_grid
    if tg.size < 3:
        raise ResolutionError("timelines need at least three time nodes")
    values = _slot_values(
        disc, lambda name, fmap: fmap[0](disc.element_means(point.fields[name].values))
    )
    return OperatorTimeline(disc, tg, values, point=point.copy())


def check_direction(problem, shape, direction):
    """A direction's :func:`read_only` tables by field name: DirectionShapeError unless it
    maps field names of ``problem`` to finite tables of ``shape`` (a name it leaves out is zero)."""
    if not isinstance(direction, Mapping):
        raise DirectionShapeError(f"a direction maps field names to arrays, got {direction!r:.40}")
    unknown = set(direction) - set(FIELD_NAMES[problem])
    if unknown:
        raise DirectionShapeError(
            f"direction has fields {sorted(unknown)} unknown to problem '{problem}'"
        )
    tables = {}
    for name, f in direction.items():
        tables[name] = read_only(f) if np.shape(f) == shape else None
        if tables[name] is None or not np.all(np.isfinite(tables[name])):
            raise DirectionShapeError(f"direction field '{name}' must be a finite table of "
                                      f"shape {shape}, got shape {np.shape(f)}")
    return tables


def assemble_direction(disc, point, directions):
    """Linearization of the parameter-to-operator map along k directions.

    ``directions`` holds k directions, each checked by
    :func:`check_direction`.  Each form term contributes its kit with the
    linearized coefficient map, e.g. for maxwell1d
    (-stiffness(mu_bar / mu^2), 0, mass(eps_bar), 0).  The timeline's slots
    are (time node x k x nnz) arrays, filled by :meth:`AssemblyKit.values`
    of the (k * time node, element) coefficients of each form term; a field
    that only some of the directions have is zero in the others.
    """
    _, slots = _direction_slots(disc, point, directions)
    return OperatorTimeline(disc, point.time_grid, slots(slice(None)))


def _direction_slots(disc, point, directions):
    """The checked tables of the k ``directions`` and ``slots(rows)``, the slot
    values of :func:`assemble_direction` at the time nodes of the slice
    ``rows``, the same bit for bit as those rows of the whole timeline.  The
    checks run here, once for every call of ``slots``; the element means
    are taken in ``slots``, of the given rows only."""
    _check_problem(disc, point)
    shape = (point.time_grid.size, disc.n_nodes)
    tables = [check_direction(disc.problem, shape, one) for one in directions]

    def coefficient(rows, name, fmap):
        if not any(name in one for one in tables):
            return None
        base = disc.element_means(point.fields[name].values[rows])[:, None]
        means = np.zeros((base.shape[0], len(tables), base.shape[2]))
        for j, one in enumerate(tables):
            if name in one:
                means[:, j] = disc.element_means(one[name][rows])
        return fmap[1](base, means)

    def slots(rows):
        return _slot_values(disc, partial(coefficient, rows))

    return tables, slots


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
