"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
all of them derive from :class:`WaveinvError` so that scripts can catch the
package's failures without masking genuine bugs.
"""


class WaveinvError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMeshError(WaveinvError, ValueError):
    """Mesh construction asked for too few elements or a degenerate extent."""


class ConstraintViolationError(WaveinvError, ValueError):
    """A parameter point leaves the admissible box.

    Carries the name of the violated bound and the first offending sample.
    """

    def __init__(self, bound, field, index, value, limit):
        self.bound = bound
        self.field = field
        self.index = index
        self.value = value
        self.limit = limit
        super().__init__(
            f"admissibility bound '{bound}' violated for field '{field}' at "
            f"(time node, space index) {index}: value {value:.6g} vs limit {limit:.6g}"
        )


class SlackError(ConstraintViolationError):
    """A perturbation pushed a point out of the admissible box.

    Raised by the ill-posedness experiment; the fix is a smaller perturbation
    amplitude, which the message suggests.
    """

    def __init__(self, bound, field, index, value, limit, delta):
        ConstraintViolationError.__init__(self, bound, field, index, value, limit)
        self.delta = delta
        self.args = (
            self.args[0]
            + f"; the perturbed point left the admissible set, reduce delta (currently {delta:.6g})",
        )


class DirectionShapeError(WaveinvError, ValueError):
    """A direction, field or source table has the wrong layout or non-finite entries."""


class ResolutionError(WaveinvError, ValueError):
    """A grid is too coarse for the requested construction or norm, or a value
    does not fit the mesh or time grid it is used on: one made on another mesh
    or time grid, or a vector of another length."""


class SolverFailureError(WaveinvError, RuntimeError):
    """A linear solve inside the time stepper failed; carries the node index."""

    def __init__(self, node, message="linear solve failed"):
        self.node = node
        super().__init__(f"{message} at time node {node}")


class RegularityError(WaveinvError, ValueError):
    """An operation needs higher time regularity (e.g. second derivatives).

    Also raised for a smoothness order, norm level or norm kind that the
    operation does not know.
    """


class ObservationError(WaveinvError, ValueError):
    """Invalid or unsupported observation layout (nodes, components, weights)."""


class DegenerateTestError(WaveinvError, ValueError):
    """An adjoint consistency test got an unknown mode or data with vanishing norms,
    or a Taylor test fewer than two distinct, positive, finite step sizes."""


class InversionConfigError(WaveinvError, ValueError):
    """An inversion setting is invalid: method, step size, discrepancy factor,
    noise level, iteration counts or targets."""


class StepSizeError(WaveinvError, RuntimeError):
    """Landweber residual grew for several consecutive iterations."""

    def __init__(self, message, history=None):
        self.history = history
        super().__init__(message)


class CGBreakdownError(WaveinvError, RuntimeError):
    """Conjugate-gradient search direction has zero curvature."""


class RequiresForwardSolveError(WaveinvError, RuntimeError):
    """A sweep or backward solve was asked to run without the forward solve it runs on:
    the base carries no solve record, or (for a sweep) it was solved at another point,
    or the point's fields were written after the solve."""


class TooLargeError(WaveinvError, ValueError):
    """A dense probe was asked to materialize more columns than the guard allows."""


class SpectralError(WaveinvError, RuntimeError):
    """A dense eigensolver failed to converge."""


class CompatibilityError(WaveinvError, ValueError):
    """Source/initial data fail the compatibility conditions for the requested smoothness."""


class ConfigError(WaveinvError, ValueError):
    """An experiment configuration is malformed; carries the offending field path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"config error at '{path}': {message}")
