"""Continuous formulas over randomizations: AST, grammar, exact evaluation.

Values live in [0, 1] and are generated by rational constants, 1-u,
truncated subtraction, halving, min and max; atoms are measures of event
terms, the distance predicates, and the single-sorted `P[phi]` shorthand
for `mu[[ phi ]]`.  The only quantifiers are `sup x (...)` and
`inf x (...)` over the random-element sort.  They are evaluated exactly by
enumerating one random element per symmetry class of their body (equal
point keys at each sample point, multisets over interchangeable points)
instead of the whole sort; the budget still counts the whole sort.  A
formula is compiled once per `eval_cformula` call, then evaluated in
integers over one denominator fixed for that call: the base's common
weight denominator and the constants' denominators, times 2 per `half`.
Only the result is made a `Fraction`.

Grammar summary:

    value   := `p/q` | `k` | `~u` | `u -. v` | `half(u)` | `min(u,v)`
             | `max(u,v)` | `mu[[ fo ]]` | `mu[ ev ]` | `P[ fo ]`
             | `dK(x, y)` | `dB(ev, ev)` | `sup x (...)` | `inf x (...)`
    ev      := `[[ fo ]]` | `top` | `bot` | `!ev` | `ev & ev` | `ev | ev`
             | `ev ^ ev` | event name | `(ev)`
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Mapping

from .errors import ParseError, ValidationError, charge
from .formulas import _VAR_RE, Formula, format_formula, free_vars, parse_formula
from .lexer import Lexer
from .randomization import (
    Event,
    RandomElement,
    Randomization,
    _check_binding,
    d_k,
    event_of,
)
from .record import Record
from .semantics import eval_formula
from .structures import FinStructure, Signature


# --- Event terms --------------------------------------------------------------

class EvFormula(Record):
    phi: Formula


class EvTop(Record):
    pass


class EvBot(Record):
    pass


class EvName(Record):
    name: str


class EvNot(Record):
    body: "EventTerm"


class EvMeet(Record):
    left: "EventTerm"
    right: "EventTerm"


class EvJoin(Record):
    left: "EventTerm"
    right: "EventTerm"


class EvSymDiff(Record):
    left: "EventTerm"
    right: "EventTerm"


EventTerm = EvFormula | EvTop | EvBot | EvName | EvNot | EvMeet | EvJoin | EvSymDiff


# --- Value terms ---------------------------------------------------------------

class CConst(Record):
    value: Fraction


class CNeg(Record):  # 1 - u
    body: "CFormula"


class CTruncSub(Record):  # u -. v = max(0, u - v)
    left: "CFormula"
    right: "CFormula"


class CHalf(Record):
    body: "CFormula"


class CMin(Record):
    left: "CFormula"
    right: "CFormula"


class CMax(Record):
    left: "CFormula"
    right: "CFormula"


class CMu(Record):
    event: EventTerm


class CDK(Record):
    left: str
    right: str


class CDB(Record):
    left: EventTerm
    right: EventTerm


class CSup(Record):
    var: str
    body: "CFormula"


class CInf(Record):
    var: str
    body: "CFormula"


CFormula = CConst | CNeg | CTruncSub | CHalf | CMin | CMax | CMu | CDK | CDB | CSup | CInf


def _parts(node: Record) -> list[Record]:
    """The Record-valued fields of a node in field order: its value and
    event subterms.  Every walk treats `EvFormula` as a leaf, so no walk
    reaches a first-order formula through here.  A value that is not a
    Record has no parts; `_compile` and the printers reject it."""
    fields = (getattr(node, n) for n in getattr(node, "_fields", ()))
    return [f for f in fields if isinstance(f, Record)]


def cformula_free_kvars(c: CFormula | EventTerm) -> frozenset[str]:
    """Free random-element variables of a continuous formula or event term."""
    if isinstance(c, EvFormula):
        return free_vars(c.phi)
    if isinstance(c, CDK):
        return frozenset({c.left, c.right})
    out = frozenset().union(*map(cformula_free_kvars, _parts(c)))
    return out - {c.var} if isinstance(c, (CSup, CInf)) else out


# --- Parser ---------------------------------------------------------------------

_TOKENS = re.compile(
    r"\s*(?:(?P<dbrack_open>\[\[)|(?P<dbrack_close>\]\])"
    r"|(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<trunc>-\.)|(?P<punct>[()\[\],~!&|^/]))"
)


class _CParser:
    def __init__(self, text: str, sig: Signature):
        self.tk = Lexer(_TOKENS, text)
        self.sig = sig

    def parse(self) -> CFormula:
        out = self.value()
        if self.tk.peek() is not None:
            raise ParseError("trailing input", self.tk.pos)
        return out

    def value(self) -> CFormula:
        left = self.unary()
        while self.tk.accept("-."):
            left = CTruncSub(left, self.unary())
        return left

    def unary(self) -> CFormula:
        if self.tk.accept("~"):
            return CNeg(self.unary())
        return self.primary()

    def _formula_in_brackets(self, closer: str) -> Formula:
        # scan to the matching closer, then defer to the first-order parser
        depth = 0
        text = self.tk.text
        start = self.tk.pos
        for i in range(start, len(text)):
            if depth == 0 and text.startswith(closer, i):
                self.tk.pos = i + len(closer)
                return parse_formula(text[start:i], self.sig)
            if text[i] == "[":
                depth += 1
            elif text[i] == "]":
                depth -= 1
        raise ParseError(f"missing {closer!r}", self.tk.pos)

    def _args(self, read, count: int) -> list:
        args = self.tk.items("(", ")", read)
        if len(args) != count:
            raise ParseError(f"expected {count} arguments, got {len(args)}", self.tk.pos)
        return args

    def primary(self) -> CFormula:
        tok = self.tk.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.tk.pos)
        kind, text = tok
        if kind == "int":
            value = self.tk.rational()
            if not 0 <= value <= 1:
                raise ParseError(f"constant {value} outside [0, 1]", self.tk.pos)
            return CConst(value)
        if self.tk.accept("("):
            out = self.value()
            self.tk.expect(")")
            return out
        if kind != "name":
            raise ParseError(f"unexpected token {text!r}", self.tk.pos)
        self.tk.next()
        if text == "mu":
            if self.tk.accept("[["):
                return CMu(EvFormula(self._formula_in_brackets("]]")))
            self.tk.expect("[")
            ev = self.event()
            self.tk.expect("]")
            return CMu(ev)
        if text == "P":
            self.tk.expect("[")
            return CMu(EvFormula(self._formula_in_brackets("]")))
        if text == "dK":
            return CDK(*self._args(self._kvar, 2))
        if text == "dB":
            return CDB(*self._args(self.event, 2))
        if text == "half":
            return CHalf(*self._args(self.value, 1))
        if text in ("min", "max"):
            return (CMin if text == "min" else CMax)(*self._args(self.value, 2))
        if text in ("sup", "inf"):
            var = self._kvar()
            self.tk.expect("(")
            body = self.value()
            self.tk.expect(")")
            return (CSup if text == "sup" else CInf)(var, body)
        raise ParseError(f"unexpected token {text!r}", self.tk.pos)

    def _kvar(self) -> str:
        kind, text = self.tk.next()
        if kind != "name" or not _VAR_RE.match(text):
            raise ParseError(f"expected a random-element variable, got {text!r}", self.tk.pos)
        return text

    def event(self) -> EventTerm:
        out = self._ev_meet()
        while True:
            if self.tk.accept("|"):
                out = EvJoin(out, self._ev_meet())
            elif self.tk.accept("^"):
                out = EvSymDiff(out, self._ev_meet())
            else:
                return out

    def _ev_meet(self) -> EventTerm:
        out = self._ev_unary()
        while self.tk.accept("&"):
            out = EvMeet(out, self._ev_unary())
        return out

    def _ev_unary(self) -> EventTerm:
        if self.tk.accept("!"):
            return EvNot(self._ev_unary())
        if self.tk.accept("("):
            out = self.event()
            self.tk.expect(")")
            return out
        if self.tk.accept("[["):
            return EvFormula(self._formula_in_brackets("]]"))
        kind, text = self.tk.next()
        if text == "top":
            return EvTop()
        if text == "bot":
            return EvBot()
        if kind == "name":
            return EvName(text)
        raise ParseError(f"unexpected token {text!r} in event term", self.tk.pos)


def parse_cformula(text: str, sig: Signature) -> CFormula:
    try:
        return _CParser(text, sig).parse()
    except RecursionError:
        raise ParseError("continuous formula nested too deeply") from None


# --- Printer --------------------------------------------------------------------

def format_cformula(c: CFormula) -> str:
    if isinstance(c, CConst):
        return str(c.value) if c.value.denominator > 1 else str(c.value.numerator)
    if isinstance(c, CNeg):
        return f"~{format_cformula(c.body)}"
    if isinstance(c, CTruncSub):
        return f"({format_cformula(c.left)} -. {format_cformula(c.right)})"
    if isinstance(c, CHalf):
        return f"half({format_cformula(c.body)})"
    if isinstance(c, CMin):
        return f"min({format_cformula(c.left)}, {format_cformula(c.right)})"
    if isinstance(c, CMax):
        return f"max({format_cformula(c.left)}, {format_cformula(c.right)})"
    if isinstance(c, CMu):
        if isinstance(c.event, EvFormula):
            return f"mu[[ {format_formula(c.event.phi)} ]]"
        return f"mu[ {format_event(c.event)} ]"
    if isinstance(c, CDK):
        return f"dK({c.left}, {c.right})"
    if isinstance(c, CDB):
        return f"dB({format_event(c.left)}, {format_event(c.right)})"
    if isinstance(c, (CSup, CInf)):
        kw = "sup" if isinstance(c, CSup) else "inf"
        return f"{kw} {c.var} ({format_cformula(c.body)})"
    raise TypeError(f"not a continuous formula: {c!r}")


def format_event(e: EventTerm) -> str:
    if isinstance(e, EvFormula):
        return f"[[ {format_formula(e.phi)} ]]"
    if isinstance(e, EvTop):
        return "top"
    if isinstance(e, EvBot):
        return "bot"
    if isinstance(e, EvName):
        return e.name
    if isinstance(e, EvNot):
        return f"!({format_event(e.body)})"
    if isinstance(e, (EvMeet, EvJoin, EvSymDiff)):
        op = {EvMeet: "&", EvJoin: "|", EvSymDiff: "^"}[type(e)]
        return f"({format_event(e.left)} {op} {format_event(e.right)})"
    raise TypeError(f"not an event term: {e!r}")


# --- Evaluation -------------------------------------------------------------------

def _quantifier_depth(c: CFormula) -> int:
    if isinstance(c, (CMu, CDB)):
        return 0  # events hold no quantifiers
    depth = max(map(_quantifier_depth, _parts(c)), default=0)
    return depth + 1 if isinstance(c, (CSup, CInf)) else depth


def _formula_binding(
    phi: Formula, env: Mapping[str, RandomElement | Event]
) -> dict[str, RandomElement]:
    binding = {}
    for v in sorted(free_vars(phi)):
        if v not in env or not isinstance(env[v], RandomElement):
            raise ValidationError(f"variable {v!r} is not a bound random element")
        binding[v] = env[v]
    return binding


def _bound_event(
    rand: Randomization, name: str, env: Mapping[str, RandomElement | Event]
) -> Event:
    val = env.get(name)
    if not isinstance(val, frozenset):
        raise ValidationError(f"{name!r} is not a bound event")
    return rand.check_event(val)


def _dk_elements(
    c: CDK, env: Mapping[str, RandomElement | Event]
) -> tuple[RandomElement, RandomElement]:
    f, g = env.get(c.left), env.get(c.right)
    if not isinstance(f, RandomElement) or not isinstance(g, RandomElement):
        raise ValidationError("dK arguments must be bound random elements")
    return f, g


def eval_cformula(
    rand: Randomization,
    c: CFormula,
    env: Mapping[str, RandomElement | Event] | None = None,
) -> Fraction:
    """Exact value of a continuous formula in [0, 1].

    c is compiled once (see `_compile`), so an invalid environment raises
    before any value is computed.  Every value is an integer over one
    denominator D fixed for the call (see `_denominator`), and the result
    is made a `Fraction` once, at the end.  sup/inf visit one random
    element per symmetry class of their body (see `_quantifier`), which
    gives the same value as the full random-element sort, and read their
    body's atoms off the point keys that class the values.  The budget
    still counts the full sort: carrier size to the power of the
    quantifier nesting depth.
    """
    env = dict(env or {})
    depth = _quantifier_depth(c)
    if depth:
        charge("quantifier enumeration", rand.carrier_size(), depth)
    missing = [v for v in sorted(cformula_free_kvars(c)) if v not in env]
    if missing:
        raise ValidationError(f"unbound variables {missing}")
    one = _denominator(rand, c)
    evaluate, _ = _compile(rand, one, c, env, set())
    return Fraction(evaluate(env, None), one)


def _denominator(rand: Randomization, c: CFormula) -> int:
    """D: the lcm of the base's common weight denominator and the
    denominators of c's constants, times 2 for each `half` node.

    A mass, a constant and each connective other than `half` keep values
    in (1/L)Z, L that lcm; a subterm with h `half` nodes in it has values
    in (1/(L 2^h))Z.  D counts every `half` node, so the operand of each
    one is an even multiple of 1/D, and `half` halves its integer exactly.
    """
    dens, halves, todo = [rand.base.denominator], 0, [c]
    while todo:
        node = todo.pop()
        if isinstance(node, CConst):
            dens.append(node.value.denominator)
        halves += isinstance(node, CHalf)
        if not isinstance(node, (CMu, CDB)):  # events hold no values
            todo += _parts(node)
    return math.lcm(*dens) << halves


def _compile(
    rand: Randomization,
    one: int,
    c: CFormula | EventTerm,
    env: Mapping[str, RandomElement | Event],
    names: set[str],
    at: int | None = None,
) -> tuple:
    """c as (evaluate, atoms); env is checked in evaluation order, each
    quantified variable standing for a constant element on rand's base.

    `evaluate(env, read)` is c's value times `one`, an integer (an event,
    for an event term), under any env that differs only in the elements
    c's quantifiers bind.  `atoms` are what a point key reads: first-order
    formulas, `dK` nodes and (var, atoms) per quantifier.  The bound event
    names c reads are added to `names`.  Outside every sup/inf `at` is
    None and each atom is evaluated where it is reached.  In a sup/inf's
    body, `at` is the position of c's first atom among that quantifier's
    atoms, and an atom at position j takes its value from `read[j]`, which
    the quantifier fills in.
    """
    if type(c) not in _COMPILERS:
        raise TypeError(f"not a continuous formula: {c!r}")
    return _COMPILERS[type(c)](rand, one, c, env, names, at)


def _fixed(value) -> tuple:
    return (lambda env, read: value), ()


def _reading(at: int):
    return lambda env, read: read[at]


def _mass(rand: Randomization, one: int, event) -> int:
    """event's mass times `one`: the base's integer sum over its common
    denominator, which divides `one`."""
    base = rand.base
    return one // base.denominator * base.numerator(event)


def _constant(rand: Randomization, one: int, c: CConst, env, names, at) -> tuple:
    value = c.value
    return _fixed(value.numerator * (one // value.denominator))


def _formula_atom(rand: Randomization, one: int, c: EvFormula, env, names, at) -> tuple:
    phi, binding = c.phi, _formula_binding(c.phi, env)  # in sorted order
    _check_binding(rand, list(binding), binding)
    if at is not None:
        return _reading(at), (phi,)
    return (lambda env, read: event_of(rand, phi, {v: env[v] for v in binding})), (phi,)


def _event_name(rand: Randomization, one: int, c: EvName, env, names, at) -> tuple:
    event = _bound_event(rand, c.name, env)
    names.add(c.name)
    return _fixed(event)


def _dk_atom(rand: Randomization, one: int, c: CDK, env, names, at) -> tuple:
    f, g = _dk_elements(c, env)
    if f.base != rand.base or g.base != rand.base:
        d_k(rand, f, g)  # raises d_k's error for a foreign base
    if at is not None:
        return _reading(at), (c,)
    points = rand.base.points

    def evaluate(env, read) -> int:
        left, right = env[c.left].values, env[c.right].values
        return one - _mass(rand, one, [w for w in points if left[w] == right[w]])

    return evaluate, (c,)


# How a node combines the values of its parts, given rand and `one`: the
# values are integers over one denominator, and `half` divides exactly
# (see `_denominator`).  The events that mu and dB measure are subsets
# of the base already, checked when their bound names were compiled.
_COMBINE = {
    CNeg: lambda rand, one, u: one - u,
    CTruncSub: lambda rand, one, u, v: max(0, u - v),
    CHalf: lambda rand, one, u: u // 2,
    CMin: lambda rand, one, u, v: min(u, v),
    CMax: lambda rand, one, u, v: max(u, v),
    CMu: _mass,
    CDB: lambda rand, one, e1, e2: _mass(rand, one, e1 ^ e2),
    EvNot: lambda rand, one, e: rand.complement(e),
    EvMeet: lambda rand, one, e1, e2: e1 & e2,
    EvJoin: lambda rand, one, e1, e2: e1 | e2,
    EvSymDiff: lambda rand, one, e1, e2: e1 ^ e2,
}


def _connective(rand: Randomization, one: int, c, env, names, at) -> tuple:
    combine = _COMBINE[type(c)]
    first, *rest = _parts(c)
    f, atoms = _compile(rand, one, first, env, names, at)
    if rest:
        g, g_atoms = _compile(rand, one, rest[0], env, names, None if at is None else at + len(atoms))
        atoms += g_atoms
        evaluate = lambda env, read: combine(rand, one, f(env, read), g(env, read))
    else:
        evaluate = lambda env, read: combine(rand, one, f(env, read))
    if not atoms:
        # only constants and bound events: the value is the same under
        # every element a quantifier binds, so it is computed once, here
        return _fixed(evaluate(env, None))
    return evaluate, atoms


def _point_key(m: FinStructure, atoms: tuple, val: dict[str, int]) -> tuple:
    """What the atoms say at one point under the values `val`: a formula's
    truth in m, whether a dK pair agrees, and for a nested quantifier
    (var, atoms) the multiset of its body's keys over the values of var."""
    out = []
    for atom in atoms:
        if isinstance(atom, CDK):
            out.append(val[atom.left] == val[atom.right])
        elif isinstance(atom, tuple):
            var, inner = atom
            out.append(tuple(sorted(_point_key(m, inner, {**val, var: b}) for b in m.elements)))
        else:
            out.append(eval_formula(m, atom, val))
    return tuple(out)


def _quantifier(rand: Randomization, one: int, c: CSup | CInf, env, names, at) -> tuple:
    """sup/inf over the (point indices, candidate values) groups of its body.

    Every atom is read point by point, so the body's value depends on the
    quantified element h only through two symmetries:

    - at a point w, values of h(w) with equal point keys are interchangeable
      (a nested quantifier follows by a matching bijection of its own
      values), so each class keeps its least value;
    - points with the same weight (the same numerator over the base's
      common denominator), fibre, values of the body's bound elements and
      membership in its bound events can be permuted, so such a group
      takes every multiset of its candidates instead of every tuple.

    Both are bijections of the random-element sort that preserve every
    atom's mass, so the max/min over the groups is the exact sup/inf.  The
    body is compiled once, and the values at a point are classed once per
    fibre and values of the bound elements there; each evaluation only
    groups and looks the classes up.  For
    each enumerated h the body's own atoms are read off the keys of h's
    values: a formula's event is the points whose key says true there, and
    a dK is `one` minus the mass of the points whose key says they agree;
    a nested sup/inf evaluates its own atoms.
    """
    var, pick = c.var, max if isinstance(c, CSup) else min
    body_env = {**env, var: RandomElement.constant(rand.base, 0)}
    body_names: set[str] = set()
    try:
        body, atoms = _compile(rand, one, c.body, body_env, body_names, 0)
    finally:
        names.update(body_names)  # also the names read before an error
    elements = sorted(cformula_free_kvars(c.body) - {var})
    events = [env[n] for n in sorted(body_names)]
    base = rand.base
    points = base.points
    fixed = [
        (base.numerator((w,)), rand.family[w], tuple(w in e for e in events)) for w in points
    ]
    # (position, is a dK) of the body's own atoms; a nested sup/inf reads its own
    own = [(j, isinstance(a, CDK)) for j, a in enumerate(atoms) if not isinstance(a, tuple)]

    def read_off(keys: list[tuple]) -> list:
        """The body's readings for an element, from its key at each point."""
        read = [None] * len(atoms)
        for j, is_dk in own:
            hit = [w for w, key in zip(points, keys) if key[j]]
            read[j] = one - _mass(rand, one, hit) if is_dk else frozenset(hit)
        return read

    # (fibre, values of the bound elements there) -> (the key of each value
    # of var, the least value of each class).  An inner sup/inf meets the
    # same pairs again for each element of the outer one.
    classed: dict[tuple, tuple[dict, list]] = {}

    def classify(m: FinStructure, values: tuple) -> tuple[dict, list]:
        val = dict(zip(elements, values))
        keys = {a: _point_key(m, atoms, {**val, var: a}) for a in m.elements}
        classes: dict[tuple, int] = {}
        for a, key in keys.items():
            classes.setdefault(key, a)
        out = classed[m, values] = keys, list(classes.values())
        return out

    def evaluate(env: dict, read) -> int:
        columns = [env[v].values for v in elements]
        groups: dict[tuple, list[int]] = {}
        for i, w in enumerate(points):
            groups.setdefault((fixed[i], tuple(col[w] for col in columns)), []).append(i)
        out, key_of = [], [None] * len(points)  # point index -> {value: key}
        for ((_, m, _), values), indices in groups.items():
            keys, least = classed.get((m, values)) or classify(m, values)
            for i in indices:
                key_of[i] = keys
            out.append((indices, least))
        # an enumerated element's values are in base order, as key_of is
        return pick(
            body({**env, var: h}, read_off([k[a] for k, a in zip(key_of, h.values.values())]))
            for h in rand.all_elements(out)
        )

    return evaluate, ((var, atoms),)


_COMPILERS = {
    CConst: _constant,
    EvTop: lambda rand, one, c, env, names, at: _fixed(rand.full_event()),
    EvBot: lambda rand, one, c, env, names, at: _fixed(frozenset()),
    EvFormula: _formula_atom,
    EvName: _event_name,
    CDK: _dk_atom,
    CSup: _quantifier,
    CInf: _quantifier,
    **dict.fromkeys(_COMBINE, _connective),
}
