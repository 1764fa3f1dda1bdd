"""Exception types shared across the package, and the CLI exit status of each.

Domain errors (bad inputs) subclass ValueError where that reads naturally;
invariant violations signal bugs in the construction itself and get their
own branch so callers can tell the two apart.  `exit_code` is the status
`necklacemap` exits with on the error: 1 for a domain error, 2 for a bad
argument (the default), 3 for a broken invariant.  A plain ValueError
exits 2.
"""


class NecklaceMapError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class NotCoprimeError(NecklaceMapError, ValueError):
    """Two quantities that must be coprime are not."""

    exit_code = 1


class NotPrimeError(NecklaceMapError, ValueError):
    """A prime was required."""

    exit_code = 1


class ZeroElementError(NecklaceMapError, ValueError):
    """A nonzero field element was required."""


class EnvelopeExceededError(NecklaceMapError):
    """Work past a size bound: an enumeration, a log's baby table, or the list of strata."""

    exit_code = 1


class NotInFError(NecklaceMapError, ValueError):
    """Function has nonzero weighted sum, so it has no necklace preimage."""

    exit_code = 1


class EvenNError(NecklaceMapError, ValueError):
    """The binary zero-sum count formula is only defined for odd length."""

    exit_code = 1


class InvariantViolationError(NecklaceMapError):
    """A property the construction guarantees failed to hold (a bug); exits 3."""

    exit_code = 3


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
