"""Exception hierarchy shared by all loewner_lab modules.

Every domain failure raises a subclass of :class:`LoewnerLabError`, so the
command line front end can map any library error to a single exit code while
tests can still assert on the precise failure mode.
"""


class LoewnerLabError(Exception):
    """Base class for all domain errors raised by this package."""


class DataFormatError(LoewnerLabError):
    """Malformed on-disk data (CSV/JSON schema violations, bad numbers)."""


class DuplicatePointError(DataFormatError):
    """Two samples share the same frequency point."""


class ConjugateConflictError(LoewnerLabError):
    """A point and its conjugate carry inconsistent response values."""


class PartitionSizeError(LoewnerLabError):
    """The dataset cannot be split into two equal conjugate-closed halves."""


class CoincidentPointError(LoewnerLabError):
    """A left and a right interpolation point coincide."""


class ZeroDataError(LoewnerLabError):
    """No data, or an all-zero matrix, where a rank decision was requested."""


class SingularPencilError(LoewnerLabError):
    """The matrix pencil (E, A) is singular, or a factorization of it failed.

    Raised by a realization's queries: the real QZ that the first one
    runs is the package's one regularity rule.  Constructing a
    realization factors nothing and never raises it."""


class PoleHitError(LoewnerLabError):
    """A transfer function was evaluated on (or numerically at) a pole."""


class SingularityError(LoewnerLabError):
    """Evaluation requested at an essential singularity of the model."""


class BoundaryPoleError(LoewnerLabError):
    """A pole lies inside the imaginary-axis guard band."""


class LoopSingularityError(LoewnerLabError):
    """The return difference 1 + L(s) vanished at an evaluation point."""


class GridMismatchError(LoewnerLabError):
    """Two operands were expected to share a frequency grid but do not."""


class OptimizationError(LoewnerLabError):
    """No feasible point was found by a numerical search."""
