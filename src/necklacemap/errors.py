"""Exception types shared across the package.

Domain errors (bad inputs) subclass ValueError where that reads naturally;
invariant violations signal bugs in the construction itself and get their
own branch so callers can tell the two apart.
"""


class NecklaceMapError(Exception):
    """Base class for every error raised by this package."""


class NotCoprimeError(NecklaceMapError, ValueError):
    """Two quantities that must be coprime are not."""


class NotPrimeError(NecklaceMapError, ValueError):
    """A prime was required."""


class ZeroElementError(NecklaceMapError, ValueError):
    """A nonzero field element was required."""


class EnvelopeExceededError(NecklaceMapError):
    """Requested enumeration exceeds the configured size envelope."""


class NotInFError(NecklaceMapError, ValueError):
    """Function has nonzero weighted sum, so it has no necklace preimage."""


class EvenNError(NecklaceMapError, ValueError):
    """The binary zero-sum count formula is only defined for odd length."""


class InvariantViolationError(NecklaceMapError):
    """A property the construction guarantees failed to hold (a bug)."""


class OrderMismatchError(InvariantViolationError):
    """An element's multiplicative order is not what the theory prescribes."""


class NoSolutionError(InvariantViolationError):
    """No diagonal unit tuple calibrates a support; sweeps find this only at even n."""


class RangeViolationError(InvariantViolationError):
    """A digit payload escaped its proven range."""


class UniquenessViolationError(InvariantViolationError):
    """Zero or several rotations passed a test exactly one must pass."""


class InternalError(InvariantViolationError):
    """Catch-all guard for conditions the construction rules out."""
