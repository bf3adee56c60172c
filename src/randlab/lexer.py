"""The one tokenizer behind randlab's text grammars.

Each grammar (structures and workspaces, first-order formulas, continuous
formulas) supplies its tokens as data: a compiled regex of the form
`\\s*(?:(?P<kind>...)|...)`, one named group per token kind.  A token is
the pair (kind, text); `peek` returns None at the end of input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterator, TypeVar

from .errors import ParseError

T = TypeVar("T")

NUMBER_TOKENS = re.compile(r"\s*(?:(?P<int>\d+)|(?P<punct><=|[-/,:=]))")
"""Rationals, integer lists and the extension-problem lines."""


def _integer(digits: str, pos: int) -> int:
    """int(digits), or a ParseError at `pos` when the interpreter refuses
    to convert that many digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer with {len(digits)} digits is too long", pos) from None


class Lexer:
    def __init__(self, tokens: re.Pattern, text: str):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def _match(self) -> re.Match | None:
        m = self.tokens.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos :].lstrip()
            if rest:
                raise ParseError(f"unexpected character {rest[0]!r}", self.pos)
        return m

    def peek(self) -> tuple[str, str] | None:
        m = self._match()
        return None if m is None else (m.lastgroup, m[m.lastgroup])

    def next(self) -> tuple[str, str]:
        m = self._match()
        if m is None:
            raise ParseError("unexpected end of input", self.pos)
        self.pos = m.end()
        return m.lastgroup, m[m.lastgroup]

    def _got(self) -> str:
        tok = self.peek()
        return "end of input" if tok is None else repr(tok[1])

    def accept(self, value: str) -> bool:
        """Consume the next token if its text is `value`."""
        m = self._match()
        if m is None or m[m.lastgroup] != value:
            return False
        self.pos = m.end()
        return True

    def expect(self, value: str) -> str:
        if not self.accept(value):
            raise ParseError(f"expected {value!r}, got {self._got()}", self.pos)
        return value

    def expect_kind(self, kind: str) -> str:
        m = self._match()
        if m is None or m.lastgroup != kind:
            raise ParseError(f"expected {kind}, got {self._got()}", self.pos)
        self.pos = m.end()
        return m[kind]

    def integer(self) -> int:
        return _integer(self.expect_kind("int"), self.pos)

    def rational(self) -> Fraction:
        """`n` or `n/d`, with an optional `-` where the grammar has that token."""
        sign = -1 if self.accept("-") else 1
        num = self.integer()
        den = self.integer() if self.accept("/") else 1
        if den == 0:
            raise ParseError(f"zero denominator in {num}/0", self.pos)
        return Fraction(sign * num, den)

    def items(self, open: str, close: str, read: Callable[[], T]) -> list[T]:
        """`open item, ..., item close`, possibly empty; `read` reads one item."""
        self.expect(open)
        out: list[T] = []
        while not self.accept(close):
            if out:
                self.expect(",")
            out.append(read())
        return out

    def separated(self, read: Callable[[], T]) -> list[T]:
        """`item, ..., item` up to the end of input, possibly empty."""
        out: list[T] = []
        while self.peek() is not None:
            if out:
                self.expect(",")
            out.append(read())
        return out

    def block(self) -> Iterator[str]:
        """The keys of a `{ key ...; key ...; }` block, `;` optional; the
        caller reads what follows each key before asking for the next."""
        self.expect("{")
        while not self.accept("}"):
            if not self.accept(";"):
                yield self.next()[1]


def parse_numbers(text: str, read: Callable[[Lexer], T]) -> T:
    """`read` applied to a lexer over `text` in NUMBER_TOKENS, which must
    consume all of it."""
    tk = Lexer(NUMBER_TOKENS, text)
    out = read(tk)
    if tk.peek() is not None:
        raise ParseError(f"trailing input {tk._got()} in {text!r}", tk.pos)
    return out
