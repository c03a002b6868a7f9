"""Constructive non-identifiability experiments and spectral probes.

Two families of constructions demonstrate that coefficient-to-solution maps
here cannot be stably inverted:

* time-localized bump perturbations ``alpha_j(t) = j**(-r) * psi(j*(t - t0))``
  whose smoothness-weighted norm stays bounded below while the induced output
  perturbation shrinks as the support collapses, and
* rank-one operator sequences built on generalized eigenvectors of
  ``(K_V, M)``, whose high-index members decorrelate from any fixed smooth
  vector while keeping unit operator norm.

A third tool materializes the single-parameter Jacobian on a coarse parameter
grid and reports its singular-value decay — the finite-dimensional shadow of
the derivative's compactness.

Norm bookkeeping: difference-quotient norms of the scaled bumps are measured
on a dedicated fine uniform grid of :data:`FINE_INTERVALS` (32768)
intervals.  On a coarse grid the r-th difference quotient of ``psi(j*.)``
under-resolves the sharp derivative peak by O((j*dt)**2) with a large
constant (about 27 percent at j=64 on 4096 intervals), which would corrupt
the norm sandwich; the analytic profile is cheap to resample, so the
measurement grid is decoupled from the simulation grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    ConstraintViolationError,
    DirectionShapeError,
    RegularityError,
    ResolutionError,
    SlackError,
    SpectralError,
    TooLargeError,
)
from .evolve import compatibility_check, y_norm
from .forward import forward_map, trapezoid_weights
from .galerkin import FIELD_NAMES, FORMS, ParameterField, parameter_norm, per_axis
from .sensitivity import derivative_apply_many

#: intervals of the fine uniform grid on which the bump norms are measured
FINE_INTERVALS = 32768
#: points of [-1, 1] at which :func:`mother_bump` samples the derivative sups
BUMP_SAMPLES = 20001
#: the fraction of the largest singular value that the numerical rank counts from
RANK_THRESHOLD = 1e-8

# ---------------------------------------------------------------------------
# mother bump


def _bump_polynomials(max_order):
    """Polynomials P_i with psi^(i)(t) = P_i(t) exp(-1/(1-t^2)) (1-t^2)^(-2i).

    Follows from differentiating the ansatz: P_0 = 1 and
    P_{i+1} = P_i' (1-t^2)^2 + 4 i t (1-t^2) P_i - 2 t P_i.
    """
    t = np.polynomial.Polynomial([0.0, 1.0])
    one_minus = np.polynomial.Polynomial([1.0, 0.0, -1.0])
    polys = [np.polynomial.Polynomial([1.0])]
    for i in range(max_order):
        p = polys[-1]
        polys.append(p.deriv() * one_minus**2 + (4.0 * i) * t * one_minus * p - 2.0 * t * p)
    return polys


@dataclass
class MotherBump:
    """The normalized C-infinity bump on (-1, 1) with certified derivative sups.

    ``scale`` divides the raw bump exp(-1/(1-t^2)) so that the largest sup
    norm among derivative orders 0..order equals 1; ``gamma`` is a certified
    lower bound (0.8 of the grid maximum) for the sup of the order-th
    derivative of the normalized bump.
    """

    order: int
    scale: float
    gamma: float
    _polys: list = field(repr=False)

    def derivative(self, t, i=0):
        """i-th derivative of the normalized bump, zero outside (-1, 1)."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        margin = 1.0 - ti * ti
        # fold the (1-t^2)^(-2i) power into the exponent for stability near +-1
        out[inside] = self._polys[i](ti) * np.exp(
            -1.0 / margin - 2.0 * i * np.log(margin)
        )
        return out / self.scale

    def __call__(self, t):
        return self.derivative(t, 0)


def mother_bump(order):
    """Build the normalized mother bump controlling derivatives up to order."""
    order = int(order)
    if order < 0:
        raise RegularityError(f"smoothness order must be nonnegative; got {order}")
    polys = _bump_polynomials(order)
    tt = np.linspace(-1.0, 1.0, BUMP_SAMPLES)
    raw = MotherBump(order=order, scale=1.0, gamma=0.0, _polys=polys)
    sups = [float(np.max(np.abs(raw.derivative(tt, i)))) for i in range(order + 1)]
    scale = max(sups)
    gamma = 0.8 * sups[order] / scale
    return MotherBump(order=order, scale=scale, gamma=gamma, _polys=polys)


# ---------------------------------------------------------------------------
# bump sequences


@dataclass
class BumpSequence:
    """Family alpha_j(t) = j**(-r) psihat(j (t - t0)) sampled on a time grid."""

    r: int
    t0: float
    j_values: list
    samples: dict
    time_grid: np.ndarray
    mother: MotherBump = field(repr=False)

    @property
    def gamma(self):
        """The mother bump's certified lower bound (see :class:`MotherBump`)."""
        return self.mother.gamma

    def profile(self, j, t):
        """Analytic alpha_j at arbitrary times."""
        return float(j) ** (-self.r) * self.mother(np.asarray(t, dtype=float) * j - j * self.t0)

    def certified_norms(self, scale=1.0):
        """Difference-quotient norms of each ``scale`` alpha_j on the grid of
        :data:`FINE_INTERVALS`."""
        t_end = float(self.time_grid[-1])
        tt = np.linspace(0.0, t_end, FINE_INTERVALS + 1)
        out = {}
        for j in self.j_values:
            prof = ParameterField(scale * self.profile(j, tt)[:, None], tt)
            out[j] = parameter_norm(prof, self.r - 1)
        return out


def bump_sequence(r, t0, time_grid, j_list):
    """Build the collapsing-support bump family on a simulation time grid.

    With t_end the grid's last node, requires (ResolutionError otherwise) 0 < t0 < t_end,
    a nonempty ``j_list``, every j large enough that the support [t0 - 1/j, t0 + 1/j]
    stays inside (0, t_end), and at least 8 grid nodes strictly inside the support of
    the narrowest bump, so that the sampled profile does not alias.
    """
    t0 = float(t0)
    time_grid = np.asarray(time_grid, dtype=float)
    t_end = float(time_grid[-1]) if time_grid.size else 0.0
    if not 0.0 < t0 < t_end:
        raise ResolutionError(f"bump center must lie inside (0, {t_end}); got {t0}")
    j_list = [int(j) for j in j_list]
    if not j_list:
        raise ResolutionError("the bump family needs at least one index j")
    j_min_admissible = max(1.0 / t0, 1.0 / (t_end - t0))
    for j in j_list:
        if j <= j_min_admissible:
            raise ResolutionError(
                f"index j={j} places the bump support outside (0, {t_end}); "
                f"need j > {j_min_admissible:g}"
            )
    for j in j_list:
        inside = np.count_nonzero(np.abs(time_grid - t0) * j < 1.0)
        if inside < 8:
            raise ResolutionError(
                f"bump j={j} has only {inside} grid nodes inside its support; "
                "need at least 8 (refine the time grid or lower j)"
            )
    seq = BumpSequence(
        r=r, t0=t0, j_values=j_list, samples={}, time_grid=time_grid, mother=mother_bump(r)
    )
    for j in j_list:
        seq.samples[j] = seq.profile(j, time_grid)
    return seq


# ---------------------------------------------------------------------------
# rank-one operator sequences


@dataclass
class RankOneSequence:
    """Rank-one operators on eigenvectors of (K_V, M), unit norm by design.

    Kind "X" projects onto the k-th M-orthonormal eigenvector in the
    M inner product; kind "Y" pairs with the k-th K_V-orthonormal vector in
    the K_V inner product and returns a multiple of the first one.  Indices
    are 1-based and ordered by increasing eigenvalue.
    """

    kind: str
    k_values: list
    vectors: dict
    eigenvalues: np.ndarray
    gram: object = field(repr=False)
    first_vector: np.ndarray = field(repr=False)

    def apply(self, k, v):
        phi = self.vectors[k]
        coeff = float(phi @ (self.gram @ v))
        if self.kind == "X":
            return coeff * phi
        return coeff * self.first_vector

    def operator_norm(self, k):
        phi = self.vectors[k]
        own = float(np.sqrt(phi @ (self.gram @ phi)))
        if self.kind == "X":
            return own
        first = self.first_vector
        return own * float(np.sqrt(first @ (self.gram @ first)))


def rank_one_sequence(disc, kind, k_list):
    """Generalized-eigenvector rank-one sequence of the discretization."""
    if kind not in ("X", "Y"):
        raise RegularityError(f"kind must be 'X' or 'Y', got {kind!r}")
    k_list = [int(k) for k in k_list]
    n = disc.n_free
    if any(k < 1 or k > n for k in k_list):
        raise SpectralError(
            f"eigenvector indices must lie in 1..{n}; got {sorted(k_list)}"
        )
    try:
        w, vecs = scipy.linalg.eigh(disc.K_V.toarray(), disc.M.toarray())
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise SpectralError(f"generalized eigensolve failed: {exc}") from exc
    if kind == "X":
        gram = disc.M
        basis = vecs
    else:
        gram = disc.K_V
        basis = vecs / np.sqrt(w)[None, :]
    vectors = {k: basis[:, k - 1].copy() for k in k_list}
    return RankOneSequence(
        kind=kind,
        k_values=k_list,
        vectors=vectors,
        eigenvalues=w,
        gram=gram,
        first_vector=basis[:, 0].copy(),
    )


# ---------------------------------------------------------------------------
# the main experiment


@dataclass
class IllposedResult:
    """Per-index distances of the bump-perturbation experiment."""

    problem: str
    target: str
    delta: float
    gamma: float
    j_values: list
    param_distances: np.ndarray
    output_distances: np.ndarray
    output_ratio: float
    param_lower_ok: bool
    output_decreasing: bool
    passed: bool

    def rows(self):
        """(j, param_distance, output_distance) table rows."""
        return [
            (j, float(p), float(o))
            for j, p, o in zip(self.j_values, self.param_distances, self.output_distances)
        ]


def illposed_experiment(point, target, delta, j_list, f, k=2, t0=None):
    """Drive one parameter with collapsing bumps and tabulate both distances.

    The coefficient that the target feeds into its :data:`FORMS` term (the
    field, or its reciprocal where the term's map is ``RECIPROCAL``) is moved
    by half the bump amplitude; each map is its own inverse, so applying it
    again gives the perturbed field.  Parameter distance is the
    difference-quotient norm of the analytic perturbation profile on the fine
    grid of :data:`FINE_INTERVALS` intervals; output distance is the
    solution-space norm of the trajectory difference at regularity level
    k - 1.  Perturbed points that leave the admissible set raise a slack
    error suggesting a smaller delta.

    The solves run on the mesh of the source ``f`` and start from rest, and
    the output norm at level k - 1 needs the regularity of level k: before
    any solve, ``k`` must be 1 or 2 (RegularityError otherwise) and ``f``
    must pass :func:`~.evolve.compatibility_check` at level k
    (CompatibilityError otherwise).

    Each perturbed point differs from ``point`` only near the bump support
    [t0 - 1/j, t0 + 1/j], so its solve resumes from the base solve
    (``forward_map(..., like=base)``): the steps before the support are
    copied, and only the step and C rows that changed are factorized.  The
    distances are the same bit for bit as with solves from t = 0.
    """
    disc = f.disc
    if target not in FIELD_NAMES[disc.problem]:
        raise DirectionShapeError(f"problem '{disc.problem}' has no parameter '{target}'")
    if k not in (1, 2):
        raise RegularityError(f"level k must be 1 or 2, got {k}")
    compatibility_check(f, None, None, k).require()
    delta = float(delta)
    r = int(k) + 1
    tg = point.time_grid
    if t0 is None:
        t0 = 0.5 * float(tg[-1])
    bumps = bump_sequence(r, t0, tg, j_list)

    base = forward_map(disc, point, f)
    fmap = next(term[3][0] for term in FORMS[disc.problem] if term[2] == target)

    norms = bumps.certified_norms(0.5 * delta)
    param_distances = np.array([norms[j] for j in bumps.j_values])
    output_distances = np.empty(len(bumps.j_values))
    for idx, j in enumerate(bumps.j_values):
        shift = 0.5 * delta * bumps.samples[j]
        perturbed = point.copy()
        vals = perturbed.fields[target].values
        perturbed.fields[target].values = fmap(fmap(vals) + shift[:, None])
        try:
            perturbed.check_admissible()
        except ConstraintViolationError as exc:
            raise SlackError(
                exc.bound, exc.field, exc.index, exc.value, exc.limit, delta=delta
            ) from exc
        traj = forward_map(disc, perturbed, f, like=base)
        output_distances[idx] = y_norm(traj - base, k=k - 1)

    lower = 0.5 * delta * bumps.gamma
    param_lower_ok = bool(np.all(param_distances >= lower - 1e-14))
    decreasing = bool(np.all(np.diff(output_distances) < 0.0))
    first = output_distances[0]
    last = output_distances[-1]
    ratio = 0.0 if first == 0.0 else float(last / first)
    return IllposedResult(
        problem=disc.problem,
        target=target,
        delta=delta,
        gamma=bumps.gamma,
        j_values=bumps.j_values,
        param_distances=param_distances,
        output_distances=output_distances,
        output_ratio=ratio,
        param_lower_ok=param_lower_ok,
        output_decreasing=decreasing,
        passed=param_lower_ok and ratio <= 0.1,
    )


# ---------------------------------------------------------------------------
# singular-value probe of the single-parameter Jacobian


@dataclass
class SvdReport:
    """Singular values of the coarsely parameterized single-target Jacobian."""

    problem: str
    target: str
    singular_values: np.ndarray
    ratios: np.ndarray
    numerical_rank: int
    threshold: float
    n_parameters: int


def _hat_basis(knots, points):
    """Rows: piecewise-linear hats on the knots evaluated at the points."""
    basis = np.empty((knots.size, points.size))
    for i in range(knots.size):
        unit = np.zeros(knots.size)
        unit[i] = 1.0
        basis[i] = np.interp(points, knots, unit)
    return basis


def svd_probe(disc, point, target, f, time_knots=6, space_knots=5):
    """Top singular values of the target-restricted, coarsely gridded Jacobian.

    The target field varies on a tensor grid of ``time_knots`` x
    ``space_knots`` hat functions prolonged to the simulation grid by linear
    interpolation; ``space_knots`` is one count for every axis of the mesh,
    or one per axis.  The coarse basis directions go through the exact discrete
    derivative together, as the columns of batched marches
    (:func:`~.sensitivity.derivative_apply_many`), and the image trajectories
    are flattened with the trapezoid-in-time, mass-Cholesky-in-space
    weighting so Euclidean length equals the data norm; the numerical rank
    counts from :data:`RANK_THRESHOLD` of the largest.  Before any solve, it
    refuses an unknown target, over 400 coarse parameters, and knot counts
    that are not whole and at least 1 (``space_knots``: one, or one per axis).
    """
    if target not in FIELD_NAMES[disc.problem]:
        raise DirectionShapeError(f"problem '{disc.problem}' has no parameter '{target}'")
    (n_time,) = per_axis("time_knots", time_knots, 1, int, DirectionShapeError)
    space_shape = per_axis("space_knots", space_knots, disc.dim, int, DirectionShapeError)
    if min(n_time, *space_shape) < 1:
        raise DirectionShapeError(f"knot counts must be at least 1, got {n_time}, {space_shape}")
    n_params = n_time * int(np.prod(space_shape))
    if n_params > 400:
        raise TooLargeError(f"{n_params} coarse parameters exceed the 400-column probe limit")

    tg = point.time_grid
    base = forward_map(disc, point, f)
    t_basis = _hat_basis(np.linspace(tg[0], tg[-1], n_time), tg)

    # the tensor product of the hat bases of the axes, the last axis fastest
    space_basis = np.ones((1, disc.n_nodes))
    for coords, nk in zip(disc.axes, space_shape):
        axis_basis = _hat_basis(np.linspace(coords.min(), coords.max(), nk), coords)
        space_basis = np.einsum("im,jm->ijm", space_basis, axis_basis).reshape(-1, disc.n_nodes)

    w = trapezoid_weights(tg)
    chol = scipy.linalg.cholesky(disc.M.toarray())
    sqrt_w = np.sqrt(w)

    directions = ({target: np.outer(t_row, s_row)} for t_row in t_basis for s_row in space_basis)
    derivs = derivative_apply_many(disc, point, directions, base)
    columns = np.empty((tg.size * disc.n_free, n_params))
    for col, deriv in enumerate(derivs):
        columns[:, col] = (sqrt_w[:, None] * (deriv.u @ chol.T)).ravel()

    sing = np.linalg.svd(columns, compute_uv=False)
    ratios = sing / sing[0] if sing[0] > 0 else np.zeros_like(sing)
    rank = int(np.count_nonzero(sing >= RANK_THRESHOLD * sing[0])) if sing[0] > 0 else 0
    return SvdReport(
        problem=disc.problem,
        target=target,
        singular_values=sing,
        ratios=ratios,
        numerical_rank=rank,
        threshold=RANK_THRESHOLD,
        n_parameters=n_params,
    )
