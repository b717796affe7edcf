"""Exception types shared across the library.

Every error raised by pvreflect derives from :class:`PvreflectError`, so
callers can catch one base class.  The concrete subclasses are named after
the condition they signal; none of them carries extra payload beyond the
message.
"""


class PvreflectError(Exception):
    """Base class for all pvreflect errors."""


# --- path construction / evaluation ---------------------------------------

class NonMonotoneGrid(PvreflectError):
    """Time grid is not strictly increasing from 0."""


class LengthMismatch(PvreflectError):
    """Sequence lengths do not line up."""


class NonFiniteValue(PvreflectError):
    """A value is NaN or infinite."""


class NegativeTime(PvreflectError):
    """Evaluation time outside [0, inf)."""


class MalformedCsv(PvreflectError):
    """CSV input does not follow the ``t,x1,...,xd`` path format."""


# --- path functionals -------------------------------------------------------

class InvalidP(PvreflectError):
    """Variation exponent p < 1."""


class InvalidParameter(PvreflectError):
    """Parameter outside its admissible range."""


# --- reflection -------------------------------------------------------------

class DimensionMismatch(PvreflectError):
    """Inputs do not share a dimension."""


class BarrierAboveStart(PvreflectError):
    """Barrier starts above the input path in some component."""


# --- integration ------------------------------------------------------------

class DomainError(PvreflectError):
    """Argument outside a function's domain (e.g. zeta at s <= 1)."""


class InvalidExponents(PvreflectError):
    """Variation exponents outside the Young regime 1/p + 1/q > 1."""


# --- drivers ----------------------------------------------------------------

class InvalidHurst(PvreflectError):
    """Hurst index outside (1/2, 1)."""


class EmbeddingFailure(PvreflectError):
    """The fGn covariance is not numerically nonnegative (H within ~1e-12 of 1)."""


class GridMismatch(PvreflectError):
    """Paths expected on identical grids differ."""


class UnknownKind(PvreflectError):
    """Unknown builder/preset name."""


# --- solver -----------------------------------------------------------------

class CoefficientEvaluationFailure(PvreflectError):
    """Coefficient function returned a non-finite or misshapen value."""


class InadmissibleStart(PvreflectError):
    """Initial point not finite or below the barrier."""


class PartitionOverflow(PvreflectError):
    """A scheme partition would exceed its step cap."""


class NoConvergence(PvreflectError):
    """Refinement ladder exhausted without reaching the tolerance."""
