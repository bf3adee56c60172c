"""Exception types shared across the package, and the enumeration budget.

The CLI maps these onto its exit-code contract, so new error conditions
should reuse one of these classes rather than raising bare ValueErrors.

Every exhaustive enumeration charges one limit through `charge`, which
refuses it with BudgetError before any item is formed.  The limit is
scoped like a `decimal.localcontext` precision: `with budget(n):` sets it
for the code inside and restores the old one on exit, and `limit()`
reads it.  A cached result is refused exactly where a fresh call would
be: `type_space` and every reader of a kept trace table charge their
counts on every call, and every reader of a kept automorphism search, a
cached type space included, goes through `semantics._generators`, which
refuses it when that search tried more candidates than the limit.
"""

from contextlib import contextmanager
from contextvars import ContextVar


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


_LIMIT: ContextVar[int] = ContextVar("randlab_budget", default=DEFAULT_BUDGET)


@contextmanager
def budget(limit: int):
    """Run the body with at most `limit` items per enumeration."""
    token = _LIMIT.set(limit)
    try:
        yield
    finally:
        _LIMIT.reset(token)


def limit() -> int:
    """The current enumeration limit."""
    return _LIMIT.get()


def charge(what: str, base: int, exponent: int = 1) -> None:
    """Refuse an enumeration of base**exponent items past the limit.

    Forming base**exponent costs at least b = exponent * floor(log2 base)
    steps; once b passes the limit and SHOWN_BITS the error reports the
    lower bound 2**b instead of the count.
    """
    cap = _LIMIT.get()
    bits = exponent * (base.bit_length() - 1)  # base**exponent >= 2**bits
    if bits > cap and bits > SHOWN_BITS:
        raise BudgetError(f"{what} over budget", None, bits + 1)
    required = base**exponent
    if required > cap:
        raise BudgetError(f"{what} over budget", required)
