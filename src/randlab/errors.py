"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so new error conditions
should reuse one of these classes rather than raising bare ValueErrors.
"""


class RandlabError(Exception):
    """Base class for all randlab errors."""


class ParseError(RandlabError):
    """Syntax error in a formula, structure file, or workspace file."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ResolutionError(RandlabError):
    """A named object (symbol, workspace entry, file) could not be resolved."""


DEFAULT_BUDGET = 200_000  # largest enumeration run unless a caller allows more
SHOWN_BITS = 4096  # longest count shown in full; str() refuses ints of more than 4300 digits


def show_count(count: int | None, bits: int | None = None) -> str:
    """A count in full up to SHOWN_BITS bits, otherwise its order of
    magnitude.  A count too large to form is passed as None, with a lower
    bound `bits` > SHOWN_BITS on its bit length."""
    bits = count.bit_length() if bits is None else bits
    return str(count) if bits <= SHOWN_BITS else f"at least 2^{bits - 1}"


class BudgetError(RandlabError):
    """An exhaustive enumeration would exceed the configured budget; the
    required count is shown as `show_count` shows it."""

    def __init__(self, message: str, required: int | None, bits: int | None = None):
        self.required = required
        super().__init__(f"{message} (required count {show_count(required, bits)})")


class ValidationError(RandlabError):
    """Arguments violate a documented precondition or invariant."""
