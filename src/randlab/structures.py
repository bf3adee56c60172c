"""Finite first-order structures: signatures, interpretation tables, text format.

A structure lives on the universe {0, ..., n-1} with n >= 2 (randomized
constructions need two distinct elements to encode events as equality
sets).  All values are immutable after construction.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Mapping

from .errors import ParseError, ValidationError
from .lexer import Lexer
from .record import Keyed

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Signature(Keyed):
    """Relation, function and constant symbols with arities.

    Symbol names are unique across the three kinds.  A 0-ary relation is a
    proposition; 0-ary functions are not allowed (use a constant).
    """

    def __init__(
        self,
        relations: Mapping[str, int] | None = None,
        functions: Mapping[str, int] | None = None,
        constants: Iterable[str] = (),
    ):
        self.relations = dict(relations or {})
        self.functions = dict(functions or {})
        self.constants = tuple(constants)
        seen: set[str] = set()
        for name in (*self.relations, *self.functions, *self.constants):
            if not _NAME_RE.match(name):
                raise ValidationError(f"bad symbol name {name!r}")
            if name in seen:
                raise ValidationError(f"duplicate symbol name {name!r}")
            seen.add(name)
        for name, k in self.relations.items():
            if k < 0:
                raise ValidationError(f"relation {name} has negative arity")
        for name, k in self.functions.items():
            if k < 1:
                raise ValidationError(f"function {name} must have arity >= 1")
        self._key_cache = (
            tuple(sorted(self.relations.items())),
            tuple(sorted(self.functions.items())),
            tuple(sorted(self.constants)),
        )

    def kind_of(self, name: str) -> str | None:
        if name in self.relations:
            return "relation"
        if name in self.functions:
            return "function"
        if name in self.constants:
            return "constant"
        return None

    def __repr__(self):
        return f"Signature(relations={self.relations!r}, functions={self.functions!r}, constants={self.constants!r})"


class FinStructure(Keyed):
    """A finite structure: universe {0..n-1} plus total interpretation tables."""

    def __init__(
        self,
        signature: Signature,
        size: int,
        relations: Mapping[str, Iterable[tuple[int, ...]]] | None = None,
        functions: Mapping[str, Mapping[tuple[int, ...], int]] | None = None,
        constants: Mapping[str, int] | None = None,
        name: str = "",
    ):
        if size < 2:
            raise ValidationError("universe must have at least two elements")
        self.signature = signature
        self.size = size
        self.elements = rng = range(size)  # the universe, built once
        self.name = name
        self.rel_tables: dict[str, frozenset[tuple[int, ...]]] = {}
        self.fn_tables: dict[str, dict[tuple[int, ...], int]] = {}
        self.const_values: dict[str, int] = {}

        relations = dict(relations or {})
        functions = dict(functions or {})
        constants = dict(constants or {})
        for sym, k in signature.relations.items():
            table = frozenset(tuple(t) for t in relations.pop(sym, ()))
            for t in table:
                if len(t) != k or any(e not in rng for e in t):
                    raise ValidationError(f"bad tuple {t} in relation {sym}/{k}")
            self.rel_tables[sym] = table
        for sym, k in signature.functions.items():
            table = {tuple(a): v for a, v in functions.pop(sym, {}).items()}
            for args, v in table.items():
                if len(args) != k or any(e not in rng for e in args) or v not in rng:
                    raise ValidationError(f"bad entry {args}->{v} in function {sym}/{k}")
            if len(table) != size**k:
                raise ValidationError(f"function table {sym}/{k} is not total")
            self.fn_tables[sym] = table
        for sym in signature.constants:
            if sym not in constants:
                raise ValidationError(f"constant {sym} not interpreted")
            v = constants.pop(sym)
            if v not in rng:
                raise ValidationError(f"constant {sym} = {v} out of range")
            self.const_values[sym] = v
        for junk in (*relations, *functions, *constants):
            raise ValidationError(f"interpretation for unknown symbol {junk!r}")
        self._key_cache = (
            self.signature._key_cache,
            self.size,
            tuple(sorted((s, tuple(sorted(t))) for s, t in self.rel_tables.items())),
            tuple(sorted((s, tuple(sorted(t.items()))) for s, t in self.fn_tables.items())),
            tuple(sorted(self.const_values.items())),
        )

    @cached_property
    def through(self) -> tuple[tuple[tuple, ...], ...]:
        """For each element a, the relation tuples `(sym, t)` with a in t and
        the function entries `(sym, args, v)` with a in args or v == a, each
        listed once under each distinct element in it; a 0-ary relation's
        `()` is in no list.  Built on first use, for the automorphism search."""
        lists: list[list[tuple]] = [[] for _ in self.elements]
        for sym, table in self.rel_tables.items():
            for t in table:
                for a in set(t):
                    lists[a].append((sym, t))
        for sym, fn in self.fn_tables.items():
            for args, v in fn.items():
                for a in {*args, v}:
                    lists[a].append((sym, args, v))
        return tuple(map(tuple, lists))

    def holds(self, sym: str, args: tuple[int, ...]) -> bool:
        return args in self.rel_tables[sym]

    def apply(self, sym: str, args: tuple[int, ...]) -> int:
        return self.fn_tables[sym][args]

    def constant(self, sym: str) -> int:
        return self.const_values[sym]

    def __repr__(self):
        label = self.name or f"<{self.size} elements>"
        return f"FinStructure({label})"


# ---------------------------------------------------------------------------
# Structure text format:
#
#   structure <name> {
#     universe = <n>;
#     relation <R>/<k> = {(i,...), ...};
#     function <f>/<k> = {(args) -> v, ...};
#     constant <c> = <i>;
#   }
# ---------------------------------------------------------------------------

STRUCTURE_TOKENS = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)|(?P<arrow>->)"
    r"|(?P<punct>[{}()=,;/:\[\]-]))"
)


def _int_tuple(tk: Lexer) -> tuple[int, ...]:
    return tuple(tk.items("(", ")", tk.integer))


def _function_entry(tk: Lexer) -> tuple[tuple[int, ...], int]:
    args = _int_tuple(tk)
    tk.expect("->")
    return args, tk.integer()


def parse_structure_body(tk: Lexer, name: str) -> FinStructure:
    size: int | None = None
    relations: dict[str, set[tuple[int, ...]]] = {}
    functions: dict[str, dict[tuple[int, ...], int]] = {}
    constants: dict[str, int] = {}
    rel_arity: dict[str, int] = {}
    fn_arity: dict[str, int] = {}
    for key in tk.block():
        if key == "universe":
            tk.expect("=")
            size = tk.integer()
        elif key == "relation":
            sym = tk.expect_kind("name")
            tk.expect("/")
            rel_arity[sym] = tk.integer()
            tk.expect("=")
            relations[sym] = set(tk.items("{", "}", lambda: _int_tuple(tk)))
        elif key == "function":
            sym = tk.expect_kind("name")
            tk.expect("/")
            fn_arity[sym] = tk.integer()
            tk.expect("=")
            functions[sym] = dict(tk.items("{", "}", lambda: _function_entry(tk)))
        elif key == "constant":
            sym = tk.expect_kind("name")
            tk.expect("=")
            constants[sym] = tk.integer()
        else:
            raise ParseError(f"unknown declaration {key!r}", tk.pos)
    if size is None:
        raise ParseError(f"structure {name} has no universe declaration", tk.pos)
    sig = Signature(relations=rel_arity, functions=fn_arity, constants=constants.keys())
    return FinStructure(sig, size, relations, functions, constants, name=name)


def parse_structure(text: str) -> FinStructure:
    """Parse a single `structure <name> { ... }` declaration."""
    tk = Lexer(STRUCTURE_TOKENS, text)
    tk.expect("structure")
    name = tk.expect_kind("name")
    st = parse_structure_body(tk, name)
    if tk.peek() is not None:
        raise ParseError("trailing input after structure block", tk.pos)
    return st


def format_structure(st: FinStructure) -> str:
    parts = [f"structure {st.name or 'unnamed'} {{ universe = {st.size};"]
    for sym in sorted(st.rel_tables):
        tuples = ", ".join(
            "(" + ",".join(map(str, t)) + ")" for t in sorted(st.rel_tables[sym])
        )
        parts.append(f" relation {sym}/{st.signature.relations[sym]} = {{{tuples}}};")
    for sym in sorted(st.fn_tables):
        entries = ", ".join(
            "(" + ",".join(map(str, a)) + f") -> {v}"
            for a, v in sorted(st.fn_tables[sym].items())
        )
        parts.append(f" function {sym}/{st.signature.functions[sym]} = {{{entries}}};")
    for sym in sorted(st.const_values):
        parts.append(f" constant {sym} = {st.const_values[sym]};")
    parts.append(" }")
    return "".join(parts)


# Small structures used pervasively in tests and batteries.

def pure_set(n: int, name: str = "") -> FinStructure:
    """The pure-equality structure on n elements."""
    return FinStructure(Signature(), n, name=name or f"m{n}")


def directed_cycle(n: int, name: str = "") -> FinStructure:
    """Directed n-cycle with edge relation E."""
    sig = Signature(relations={"E": 2})
    edges = {(i, (i + 1) % n) for i in range(n)}
    return FinStructure(sig, n, relations={"E": edges}, name=name or f"c{n}")


def linear_order(n: int, name: str = "") -> FinStructure:
    """Strict linear order 0 < 1 < ... < n-1 with relation Lt."""
    sig = Signature(relations={"Lt": 2})
    pairs = {(i, j) for i in range(n) for j in range(n) if i < j}
    return FinStructure(sig, n, relations={"Lt": pairs}, name=name or f"l{n}")
