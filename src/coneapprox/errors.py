"""Exception hierarchy.

Every domain error raised by the package derives from ConeApproxError so
callers (notably the CLI) can distinguish domain failures from bugs.
"""


class ConeApproxError(Exception):
    """Base class for all errors raised by this package."""


class InadmissibleCone(ConeApproxError, ValueError):
    """The (gamma, phi) pair does not describe an admissible ordering cone."""


class UnknownId(ConeApproxError, KeyError):
    """A solution id does not occur in the instance."""

    def __str__(self) -> str:
        # KeyError's own str() is only the quoted id.
        return f"unknown solution id {self.args[0]!r}"


class UnsupportedSense(ConeApproxError, ValueError):
    """The operation is defined for one optimization sense only."""


class AlphaBelowOne(ConeApproxError, ValueError):
    """Approximation factors must be >= 1."""


class DegeneratePhi(ConeApproxError, ValueError):
    """The rotation (or its complement) is too close to 0 for this formula."""


class InvalidRatio(ConeApproxError, ValueError):
    """Objective ratios must be strictly positive and finite."""


class EmptySelection(ConeApproxError, ValueError):
    """A nonempty solution selection is required."""


class InvalidParams(ConeApproxError, ValueError):
    """Generator parameters outside their documented range."""


class KTooLarge(ConeApproxError, ValueError):
    """Subset enumeration is limited to 20 items."""


class InstanceFormatError(ConeApproxError, ValueError):
    """An instance file does not follow the JSON schema."""


class InvalidInstance(ConeApproxError, ValueError):
    """A well-formed instance breaks the model's invariants.

    The arguments are the violations found by `instances.validate`, shown
    one per line.
    """

    def __str__(self) -> str:
        return "\n".join(str(v) for v in self.args)


class UsageError(ConeApproxError, ValueError):
    """Command line options that do not fit together."""
