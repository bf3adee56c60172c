"""Continuous formulas over randomizations: AST, grammar, exact evaluation.

Values live in [0, 1] and are generated by rational constants, 1-u,
truncated subtraction, halving, min and max; atoms are measures of event
terms, the distance predicates, and the single-sorted `P[phi]` shorthand
for `mu[[ phi ]]`.  The only quantifiers are `sup x (...)` and
`inf x (...)` over the random-element sort.  They are evaluated exactly by
enumerating one random element per symmetry class of their body (equal
point keys at each sample point, multisets over interchangeable points)
instead of the whole sort; the budget still counts the whole sort.

Grammar summary:

    value   := `p/q` | `k` | `~u` | `u -. v` | `half(u)` | `min(u,v)`
             | `max(u,v)` | `mu[[ fo ]]` | `mu[ ev ]` | `P[ fo ]`
             | `dK(x, y)` | `dB(ev, ev)` | `sup x (...)` | `inf x (...)`
    ev      := `[[ fo ]]` | `top` | `bot` | `!ev` | `ev & ev` | `ev | ev`
             | `ev ^ ev` | event name | `(ev)`
"""

from __future__ import annotations

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
    d_b,
    d_k,
    event_of,
    mu,
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
    Record has no parts; `_eval` and the printers reject it."""
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


def eval_event_term(
    rand: Randomization, e: EventTerm, env: Mapping[str, RandomElement | Event]
) -> Event:
    if isinstance(e, EvFormula):
        return event_of(rand, e.phi, _formula_binding(e.phi, env))
    if isinstance(e, EvTop):
        return rand.full_event()
    if isinstance(e, EvBot):
        return frozenset()
    if isinstance(e, EvName):
        return _bound_event(rand, e.name, env)
    if isinstance(e, EvNot):
        return rand.complement(eval_event_term(rand, e.body, env))
    left = eval_event_term(rand, e.left, env)
    right = eval_event_term(rand, e.right, env)
    if isinstance(e, EvMeet):
        return left & right
    if isinstance(e, EvJoin):
        return left | right
    return left ^ right


def eval_cformula(
    rand: Randomization,
    c: CFormula,
    env: Mapping[str, RandomElement | Event] | None = None,
) -> Fraction:
    """Exact value of a continuous formula in [0, 1].

    sup/inf visit one random element per symmetry class of their body (see
    `_quantifier_groups`), which gives the same value as the full
    random-element sort.  The budget still counts the full sort: carrier
    size to the power of the quantifier nesting depth.
    """
    env = dict(env or {})
    depth = _quantifier_depth(c)
    if depth:
        charge("quantifier enumeration", rand.carrier_size(), depth)
    missing = [v for v in sorted(cformula_free_kvars(c)) if v not in env]
    if missing:
        raise ValidationError(f"unbound variables {missing}")
    return _eval(rand, c, env)


def _eval(rand: Randomization, c: CFormula, env: dict) -> Fraction:
    if isinstance(c, CConst):
        return c.value
    if isinstance(c, CNeg):
        return 1 - _eval(rand, c.body, env)
    if isinstance(c, CTruncSub):
        return max(
            Fraction(0), _eval(rand, c.left, env) - _eval(rand, c.right, env)
        )
    if isinstance(c, CHalf):
        return _eval(rand, c.body, env) / 2
    if isinstance(c, CMin):
        return min(_eval(rand, c.left, env), _eval(rand, c.right, env))
    if isinstance(c, CMax):
        return max(_eval(rand, c.left, env), _eval(rand, c.right, env))
    if isinstance(c, CMu):
        return mu(rand, eval_event_term(rand, c.event, env))
    if isinstance(c, CDK):
        return d_k(rand, *_dk_elements(c, env))
    if isinstance(c, CDB):
        return d_b(
            rand,
            eval_event_term(rand, c.left, env),
            eval_event_term(rand, c.right, env),
        )
    if isinstance(c, (CSup, CInf)):
        values = (
            _eval(rand, c.body, {**env, c.var: h})
            for h in rand.all_elements(_quantifier_groups(rand, c, env))
        )
        return max(values) if isinstance(c, CSup) else min(values)
    raise TypeError(f"not a continuous formula: {c!r}")


# --- Symmetry classes of a quantifier body ------------------------------------------

def _key_atoms(
    rand: Randomization,
    c: CFormula | EventTerm,
    env: Mapping[str, RandomElement | Event],
    names: set[str],
) -> tuple:
    """The atoms of c a point key reads, in the order `_eval` meets them.

    env is checked as `_eval` checks it, so an invalid environment raises
    the same error before any key is computed.  Each quantified variable
    stands for a constant element on rand's base.  The bound event names c
    reads are added to `names`.
    """
    if isinstance(c, EvFormula):
        binding = _formula_binding(c.phi, env)
        _check_binding(rand, sorted(binding), binding)
        return (c.phi,)
    if isinstance(c, EvName):
        _bound_event(rand, c.name, env)
        names.add(c.name)
        return ()
    if isinstance(c, CDK):
        f, g = _dk_elements(c, env)
        if f.base != rand.base or g.base != rand.base:
            d_k(rand, f, g)  # raises d_k's error for a foreign base
        return (c,)
    if isinstance(c, (CSup, CInf)):
        inner = {**env, c.var: RandomElement.constant(rand.base, 0)}
        return ((c.var, _key_atoms(rand, c.body, inner, names)),)
    return sum((_key_atoms(rand, p, env, names) for p in _parts(c)), ())


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


def _quantifier_groups(
    rand: Randomization, c: CSup | CInf, env: Mapping[str, RandomElement | Event]
) -> list[tuple[list[int], list[int]]]:
    """The (point indices, candidate values) groups that `sup`/`inf` enumerate.

    Every atom is read point by point, so the body's value depends on the
    quantified element h only through two symmetries:

    - at a point w, values of h(w) with equal point keys are interchangeable
      (a nested quantifier follows by a matching bijection of its own
      values), so each class keeps its least value;
    - points with the same weight, fibre, values of the body's bound
      elements and membership in its bound events can be permuted, so such
      a group takes every multiset of its candidates instead of every tuple.

    Both are bijections of the random-element sort that preserve every
    atom's mass, so the max/min over the groups is the exact sup/inf.
    """
    names: set[str] = set()
    ((_, atoms),) = _key_atoms(rand, c, env, names)
    elements = sorted(cformula_free_kvars(c.body) - {c.var})
    events = [env[n] for n in sorted(names)]
    groups: dict[tuple, list[int]] = {}
    for i, w in enumerate(rand.base.points):
        sig = (
            rand.base.weight[w],
            rand.family[w],
            tuple(env[v](w) for v in elements),
            tuple(w in e for e in events),
        )
        groups.setdefault(sig, []).append(i)
    out = []
    for (_, m, values, _), indices in groups.items():
        val = dict(zip(elements, values))
        classes: dict[tuple, int] = {}
        for a in m.elements:
            classes.setdefault(_point_key(m, atoms, {**val, c.var: a}), a)
        out.append((indices, list(classes.values())))
    return out
