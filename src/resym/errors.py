"""Exception types shared across the library."""


class ResymError(Exception):
    """Base class for all library errors."""


class FieldMismatch(ResymError):
    """Operands belong to different coefficient fields."""


class DimensionMismatch(ResymError):
    """Operands live over a different number of variables."""


class ValuationError(ResymError):
    """A series does not have the valuation an operation requires."""


class PrecisionError(ResymError):
    """A requested series coefficient is not certified exact at this order."""


class NotProvablyFinitePotent(ResymError):
    """The trace was asked for an operator outside the two certified classes."""


class NotACycle(ResymError):
    """A chain that must be closed under the Hochschild differential is not."""


class MembershipError(ResymError):
    """An operator slot fails a required ideal-membership predicate."""


class DecompositionError(ResymError):
    """An operator failed to split into its positive/negative ideal parts."""


class UnsupportedFactorization(ResymError):
    """A polynomial has an irreducible factor of unsupported degree."""


class ParseError(ResymError):
    """Malformed input text.  Carries the character offset and what was expected."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"parse error at offset {offset}: expected {expected}")
