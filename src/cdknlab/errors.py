"""Exception types shared across the package."""


class CdknLabError(Exception):
    """Base class for all laboratory errors."""


class InvalidParams(CdknLabError):
    """Model or run parameters outside their admissible range."""


class SingularPointOffGrid(CdknLabError):
    """A singular point does not land on a cell edge of the requested grid."""


class EmptyCut(CdknLabError):
    """A k-cut has zero total mass (k below the true regularity parameter)."""


class DomainError(CdknLabError):
    """Function argument outside the mathematical domain."""


class NotAbsolutelyContinuous(CdknLabError):
    """Measure charges cells carrying zero (or infinite) reference mass."""


class InvalidTestFunction(CdknLabError):
    """Test function fails the vanishing-near-singular-set requirement."""


class UnbalancedMasses(CdknLabError):
    """Transport endpoints do not carry equal total mass."""


class SizeCap(CdknLabError):
    """Problem size exceeds the configured solver cap."""


class MarginalMismatch(CdknLabError):
    """Coupling marginals disagree with the prescribed measures."""


class SupportViolation(CdknLabError):
    """Measure support leaves the required regular set."""


class MismatchedInputs(CdknLabError):
    """Two reports/objects that must share structure do not."""


class GridTooCoarse(CdknLabError):
    """Re-binning would push mass outside the output grid."""


class SamplerEntropyViolation(CdknLabError):
    """Sampler emitted a marginal violating its entropy cap."""


class InfiniteMass(CdknLabError):
    """Operation requires finite positive total mass."""


class RegularityMismatch(CdknLabError):
    """Spaces in a sequence do not share a regularity parameter."""
