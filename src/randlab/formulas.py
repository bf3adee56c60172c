"""First-order formula ASTs, the text grammar, and the printer.

Grammar (binding loosest to tightest): `->` (right associative), `|`, `&`,
then `!` / quantifiers.  Atoms are `R(t,...)` and `t = t`; terms are
variables `[a-z][a-z0-9]*`, element literals `#k`, constant symbols, and
function applications.  Quantifiers are written `exists x (...)` and
`forall x (...)`; the body may also be a bare atom or another quantifier.

`TypeIs` is a semantic atom (satisfied exactly by one orbit of tuples);
it is constructed programmatically, never parsed.  Printing one expands
it through an isolating formula so every printed witness stays inside
the grammar.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator

from .errors import ParseError
from .lexer import Lexer
from .record import Record
from .structures import Signature

if TYPE_CHECKING:  # pragma: no cover
    from .semantics import TypeId, TypeSpace


# --- Terms -----------------------------------------------------------------

class Var(Record):
    name: str


class Elem(Record):
    value: int


class Const(Record):
    name: str


class App(Record):
    func: str
    args: tuple["Term", ...]


Term = Var | Elem | Const | App


# --- Formulas ---------------------------------------------------------------

class Eq(Record):
    left: Term
    right: Term


class Rel(Record):
    name: str
    args: tuple[Term, ...]


class Not(Record):
    body: "Formula"


class And(Record):
    left: "Formula"
    right: "Formula"


class Or(Record):
    left: "Formula"
    right: "Formula"


class Implies(Record):
    left: "Formula"
    right: "Formula"


class Exists(Record):
    var: str
    body: "Formula"


class Forall(Record):
    var: str
    body: "Formula"


class TypeIs(Record):
    """Semantic atom: the tuple of argument terms realizes type `type_id`."""

    space: "TypeSpace"
    type_id: "TypeId"
    args: tuple[Term, ...]


Formula = Eq | Rel | Not | And | Or | Implies | Exists | Forall | TypeIs


def conj(parts: list[Formula]) -> Formula:
    if not parts:
        return Eq(Var("x"), Var("x"))
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: list[Formula]) -> Formula:
    if not parts:
        return Not(Eq(Var("x"), Var("x")))
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def term_vars(t: Term) -> Iterator[str]:
    if isinstance(t, Var):
        yield t.name
    elif isinstance(t, App):
        for a in t.args:
            yield from term_vars(a)


def free_vars(phi: Formula) -> frozenset[str]:
    """The free variables of phi.  Computed once per node and kept on the
    node, outside its fields, so equality, hashing and repr ignore it, and
    read with a default, so the first call on a node raises nothing."""
    out = getattr(phi, "_free_vars", None)
    if out is not None:
        return out
    out = _free_vars(phi)
    object.__setattr__(phi, "_free_vars", out)
    return out


def _free_vars(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Eq):
        return frozenset(term_vars(phi.left)) | frozenset(term_vars(phi.right))
    if isinstance(phi, Rel):
        out: frozenset[str] = frozenset()
        for a in phi.args:
            out |= frozenset(term_vars(a))
        return out
    if isinstance(phi, Not):
        return free_vars(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return free_vars(phi.left) | free_vars(phi.right)
    if isinstance(phi, (Exists, Forall)):
        return free_vars(phi.body) - {phi.var}
    if isinstance(phi, TypeIs):
        out = frozenset()
        for a in phi.args:
            out |= frozenset(term_vars(a))
        return out
    raise TypeError(f"not a formula: {phi!r}")


def substitute(phi: Formula, repl: dict[str, Term]) -> Formula:
    """Capture-avoiding substitution of free variables by terms."""

    def sub_term(t: Term) -> Term:
        if isinstance(t, Var):
            return repl.get(t.name, t)
        if isinstance(t, App):
            return App(t.func, tuple(sub_term(a) for a in t.args))
        return t

    if isinstance(phi, Eq):
        return Eq(sub_term(phi.left), sub_term(phi.right))
    if isinstance(phi, Rel):
        return Rel(phi.name, tuple(sub_term(a) for a in phi.args))
    if isinstance(phi, Not):
        return Not(substitute(phi.body, repl))
    if isinstance(phi, (And, Or, Implies)):
        return type(phi)(substitute(phi.left, repl), substitute(phi.right, repl))
    if isinstance(phi, (Exists, Forall)):
        inner = {k: v for k, v in repl.items() if k != phi.var}
        captured = {
            v for t in inner.values() for v in term_vars(t)
        }
        var = phi.var
        body = phi.body
        if var in captured:
            fresh = var
            taken = captured | free_vars(body) | set(inner)
            while fresh in taken:
                fresh += "0"
            body = substitute(body, {var: Var(fresh)})
            var = fresh
        return type(phi)(var, substitute(body, inner))
    if isinstance(phi, TypeIs):
        return TypeIs(phi.space, phi.type_id, tuple(sub_term(a) for a in phi.args))
    raise TypeError(f"not a formula: {phi!r}")


# --- Parser -----------------------------------------------------------------

_TOKENS = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<arrow>->)|(?P<punct>[()=,!&|]|#(?=\d)))"
)

_KEYWORDS = {"exists", "forall"}
_VAR_RE = re.compile(r"[a-z][a-z0-9]*\Z")


class _FormulaParser:
    def __init__(self, text: str, sig: Signature):
        self.tk = Lexer(_TOKENS, text)
        self.sig = sig

    def parse(self) -> Formula:
        phi = self.implies()
        if self.tk.peek() is not None:
            raise ParseError("trailing input after formula", self.tk.pos)
        return phi

    def implies(self) -> Formula:
        left = self.disjunct()
        if self.tk.accept("->"):
            return Implies(left, self.implies())
        return left

    def disjunct(self) -> Formula:
        out = self.conjunct()
        while self.tk.accept("|"):
            out = Or(out, self.conjunct())
        return out

    def conjunct(self) -> Formula:
        out = self.unary()
        while self.tk.accept("&"):
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        if self.tk.accept("!"):
            return Not(self.unary())
        if self.tk.accept("("):
            phi = self.implies()
            self.tk.expect(")")
            return phi
        tok = self.tk.peek()
        if tok is not None and tok[1] in _KEYWORDS:
            self.tk.next()
            kind, var = self.tk.next()
            if kind != "name" or not _VAR_RE.match(var):
                raise ParseError(f"bad quantified variable {var!r}", self.tk.pos)
            if self.sig.kind_of(var) is not None:
                raise ParseError(
                    f"quantified variable {var!r} clashes with a symbol", self.tk.pos
                )
            return (Exists if tok[1] == "exists" else Forall)(var, self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.tk.peek()
        if tok is None:
            raise ParseError("expected an atom", self.tk.pos)
        if tok[0] == "name" and self.sig.kind_of(tok[1]) == "relation":
            self.tk.next()
            return Rel(tok[1], self.args("relation", tok[1], self.sig.relations))
        left = self.term()
        self.tk.expect("=")
        return Eq(left, self.term())

    def args(self, kind: str, name: str, arities: dict[str, int]) -> tuple[Term, ...]:
        args = tuple(self.tk.items("(", ")", self.term))
        if len(args) != arities[name]:
            raise ParseError(
                f"{kind} {name} expects {arities[name]} arguments, got {len(args)}",
                self.tk.pos,
            )
        return args

    def term(self) -> Term:
        if self.tk.accept("#"):
            return Elem(self.tk.integer())
        kind, name = self.tk.next()
        if kind != "name":
            raise ParseError(f"expected a term, got {name!r}", self.tk.pos)
        sym = self.sig.kind_of(name)
        if sym == "function":
            return App(name, self.args("function", name, self.sig.functions))
        if sym == "constant":
            return Const(name)
        if sym == "relation":
            raise ParseError(f"relation {name} used as a term", self.tk.pos)
        if not _VAR_RE.match(name) or name in _KEYWORDS:
            raise ParseError(f"unknown symbol {name!r}", self.tk.pos)
        return Var(name)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse `text` against `sig`; raises ParseError with a position."""
    try:
        return _FormulaParser(text, sig).parse()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None


# --- Printer ----------------------------------------------------------------

def _term_str(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Elem):
        return f"#{t.value}"
    if isinstance(t, Const):
        return t.name
    return f"{t.func}({', '.join(_term_str(a) for a in t.args)})"


_PREC = {Implies: 1, Or: 2, And: 3}


def format_formula(phi: Formula, _prec: int = 0) -> str:
    """Render back into the grammar; `parse_formula` round-trips the result."""
    if isinstance(phi, Eq):
        return f"{_term_str(phi.left)} = {_term_str(phi.right)}"
    if isinstance(phi, Rel):
        return f"{phi.name}({', '.join(_term_str(a) for a in phi.args)})"
    if isinstance(phi, Not):
        return f"!{format_formula(phi.body, 4)}"
    if isinstance(phi, (And, Or, Implies)):
        prec = _PREC[type(phi)]
        op = {And: "&", Or: "|", Implies: "->"}[type(phi)]
        # -> is right associative, & and | left associative
        lp = prec if isinstance(phi, Implies) else prec - 1
        rp = prec - 1 if isinstance(phi, Implies) else prec
        left = format_formula(phi.left, lp + 1)
        right = format_formula(phi.right, rp + 1)
        body = f"{left} {op} {right}"
        return f"({body})" if prec < _prec else body
    if isinstance(phi, (Exists, Forall)):
        kw = "exists" if isinstance(phi, Exists) else "forall"
        return f"{kw} {phi.var} ({format_formula(phi.body)})"
    if isinstance(phi, TypeIs):
        from .semantics import isolating_formula

        iso = isolating_formula(phi.space, phi.type_id)
        expanded = substitute(
            iso, {f"x{i}": a for i, a in enumerate(phi.args)}
        )
        return format_formula(expanded, _prec)
    raise TypeError(f"not a formula: {phi!r}")
