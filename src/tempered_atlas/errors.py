"""Exception hierarchy.

Each class owns its CLI exit code, ``exit_code``: input/descriptor problems
exit 2 (the base class's code), internal invariant violations 3, ambiguous
matching input 4, range errors 5.  A refusal of a weight the package built
itself, such as a minimal K-type, is a StructuralInvariantError.
"""


class TemperedAtlasError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class DimensionMismatch(TemperedAtlasError):
    """Operands live in weight spaces of different ranks."""


class ZeroRoot(TemperedAtlasError):
    """A coroot pairing was requested against a zero-length root."""


class UnknownGroup(TemperedAtlasError):
    """Requested catalog entry does not exist."""


class DescriptorFormatError(TemperedAtlasError):
    """Descriptor file does not parse (bad section, key, or literal)."""


class DescriptorValidationError(TemperedAtlasError):
    """Descriptor parsed but is structurally inconsistent."""

    def __init__(self, report):
        self.report = report
        lines = "; ".join(f"{name}: {detail}" for name, detail in report.violations)
        super().__init__(f"descriptor validation failed: {lines}")


class NotDominant(TemperedAtlasError):
    """Weight fails dominance for the fixed compact positive system."""


class NotStrictlyDominant(TemperedAtlasError):
    """Defining weight of a parabolic must pair strictly positively with
    every positive compact root."""


class NotIntegral(TemperedAtlasError):
    """Weight is not in the analytically integral lattice, so it is the
    highest weight of no K-type."""


class NotGenuine(TemperedAtlasError):
    """Weight is not the highest weight of a genuine spin-cover type."""


class AmbiguousPositiveSystem(TemperedAtlasError):
    """mu + 2*rho_K pairs to zero with a noncompact weight: the input is not
    a minimal K-type of an essential component."""

    exit_code = 4


class StructuralInvariantError(TemperedAtlasError):
    """An internal mathematical law failed (message says which one)."""

    exit_code = 3


class InternalBijectionFailure(StructuralInvariantError):
    """A genuine dominant weight produced no datum; the classification map
    must be defined on the whole genuine lattice."""


class RangeError(TemperedAtlasError):
    """Grid range is empty or cannot be covered."""

    exit_code = 5
