"""Exception hierarchy.

The CLI maps these onto its exit-code contract: input/descriptor problems
(exit 2), internal invariant violations (exit 3), ambiguous matching input
(exit 4), range errors (exit 5).  A refusal of a weight the package built
itself, such as a minimal K-type, is a StructuralInvariantError.
"""


class TemperedAtlasError(Exception):
    """Base class for all package errors."""


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


class StructuralInvariantError(TemperedAtlasError):
    """An internal mathematical law failed (message says which one)."""


class InternalBijectionFailure(StructuralInvariantError):
    """A genuine dominant weight produced no datum; the classification map
    must be defined on the whole genuine lattice."""


class RangeError(TemperedAtlasError):
    """Grid range is empty or cannot be covered."""
