"""Exception hierarchy shared by all nessgeom modules.

Every failure mode surfaced to callers (and, through the CLI, into output
cells) carries the class name of one of these exceptions.
"""


class NessGeomError(Exception):
    """Base class for all nessgeom errors."""


# --- generic linear algebra -------------------------------------------------

class DimensionMismatch(NessGeomError):
    pass


class SingularSylvester(NessGeomError):
    """min |x_i + x_j| of the drift spectrum is below tolerance."""


class ConvergenceFailure(NessGeomError):
    pass


class DegenerateInput(NessGeomError):
    pass


class NoConvergence(NessGeomError):
    """Refinement loop hit its limit.  ``last_estimate`` holds the best value."""

    def __init__(self, message, last_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate


class NonPositiveValue(NessGeomError):
    pass


# --- covariance matrices ----------------------------------------------------

class NotAntisymmetric(NessGeomError):
    pass


class NotHermitian(NessGeomError):
    pass


class NormExceedsOne(NessGeomError):
    pass


class PureModePresent(NessGeomError):
    pass


class IndexOutOfRange(NessGeomError):
    pass


class TooManyModes(NessGeomError):
    pass


# --- geometry ----------------------------------------------------------------

class RankChangeSingularity(NessGeomError):
    """The state changes rank along the requested direction."""


class SingularFisher(NessGeomError):
    pass


class EvaluationFailure(NessGeomError):
    pass


class ZeroGap(NessGeomError):
    pass


# --- Liouvillian -------------------------------------------------------------

class EmptyJumps(NessGeomError):
    pass


class InstabilityDetected(NessGeomError):
    pass


# --- momentum space ----------------------------------------------------------

class NotFiniteRange(NessGeomError):
    pass


class CriticalAngle(NessGeomError):
    pass


# --- dense oracle ------------------------------------------------------------

class SingularState(NessGeomError):
    pass


class RankChange(NessGeomError):
    pass


class SeriesDivergence(NessGeomError):
    pass


class DegenerateNullSpace(NessGeomError):
    pass


class RankDeficientOnLoop(NessGeomError):
    pass


# --- models -------------------------------------------------------------------

class GaplessMode(NessGeomError):
    pass


class DegeneracyOnLoop(NessGeomError):
    pass


class GridTooSmall(NessGeomError):
    pass


class OnCriticalSet(NessGeomError):
    pass


# --- CLI ----------------------------------------------------------------------

class BadSpec(NessGeomError):
    pass


class IoFailure(NessGeomError):
    pass
