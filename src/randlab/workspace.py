"""Named-object workspace with a flat text format and exact round-tripping.

A workspace file is a sequence of declarations:

    structure m2 { universe = 2; }
    space s4 { weights = [1/4, 1/4, 1/4, 1/4]; }
    randomization r1 { structure = m2; space = s4; }
    randomization r2 { structures = [m2, m2]; space = s2; }
    element f = r1 [0, 1, 0, 1];
    event e1 = r1 {0, 2};
    rmeasure nu { structure = m2; arity = 1; params = (); rtype { q0: 1 }; }

Sample points are the indices 0..n-1 in canonical order; elements and
events refer to them positionally, so saving re-canonicalises internally
refined bases without losing any measure or value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, ResolutionError, ValidationError
from .lexer import Lexer, _integer
from .measure import FinProbSpace
from .randomization import Event, RandomElement, Randomization
from .rtypes import RMeasure
from .semantics import type_space
from .structures import (
    STRUCTURE_TOKENS,
    FinStructure,
    format_structure,
    parse_structure_body,
)


class Workspace:
    def __init__(self):
        self.structures: dict[str, FinStructure] = {}
        self.spaces: dict[str, FinProbSpace] = {}
        self.randomizations: dict[str, Randomization] = {}
        self.elements: dict[str, tuple[str, RandomElement]] = {}
        self.events: dict[str, tuple[str, Event]] = {}
        self.rmeasures: dict[str, RMeasure] = {}
        self._space_names: dict[str, str] = {}  # randomization -> space name
        self._structure_names: dict[str, list[str]] = {}

    # -- lookups -------------------------------------------------------------

    def _get(self, table: dict, name: str, kind: str):
        if name not in table:
            raise ResolutionError(f"unknown {kind} {name!r}")
        return table[name]

    def structure(self, name: str) -> FinStructure:
        return self._get(self.structures, name, "structure")

    def space(self, name: str) -> FinProbSpace:
        return self._get(self.spaces, name, "space")

    def randomization(self, name: str) -> Randomization:
        return self._get(self.randomizations, name, "randomization")

    def element(self, name: str) -> tuple[str, RandomElement]:
        return self._get(self.elements, name, "element")

    def event(self, name: str) -> tuple[str, Event]:
        return self._get(self.events, name, "event")

    def rmeasure(self, name: str) -> RMeasure:
        return self._get(self.rmeasures, name, "rmeasure")

    def _fresh(self, name: str) -> None:
        for table in (
            self.structures,
            self.spaces,
            self.randomizations,
            self.elements,
            self.events,
            self.rmeasures,
        ):
            if name in table:
                raise ValidationError(f"name {name!r} already in use")


def _structure(ws: Workspace, tk: Lexer, name: str) -> None:
    ws.structures[name] = parse_structure_body(tk, name)


def _space(ws: Workspace, tk: Lexer, name: str) -> None:
    tk.expect("{")
    tk.expect("weights")
    tk.expect("=")
    weights = tk.items("[", "]", tk.rational)
    tk.accept(";")
    tk.expect("}")
    ws.spaces[name] = FinProbSpace(list(enumerate(weights)))


def _randomization(ws: Workspace, tk: Lexer, name: str) -> None:
    structure_names: list[str] = []
    space_name = None
    for key in tk.block():
        if key not in ("structure", "structures", "space"):
            raise ParseError(f"unknown key {key!r}", tk.pos)
        tk.expect("=")
        if key == "structure":
            structure_names = [tk.expect_kind("name")]
        elif key == "structures":
            structure_names = tk.items("[", "]", lambda: tk.expect_kind("name"))
        else:
            space_name = tk.expect_kind("name")
    if space_name is None or not structure_names:
        raise ParseError(f"randomization {name} needs structure(s) and space", tk.pos)
    base = ws.space(space_name)
    names = structure_names
    if len(names) == 1:
        names = names * len(base.points)
    elif len(names) != len(base.points):
        raise ValidationError(
            f"randomization {name}: {len(names)} structures "
            f"for {len(base.points)} points"
        )
    family = {w: ws.structure(s) for w, s in zip(base.points, names)}
    ws.randomizations[name] = Randomization(base, family)
    ws._space_names[name] = space_name
    ws._structure_names[name] = structure_names


def _element(ws: Workspace, tk: Lexer, name: str) -> None:
    tk.expect("=")
    rand_name = tk.expect_kind("name")
    rand = ws.randomization(rand_name)
    values = tk.items("[", "]", tk.integer)
    tk.accept(";")
    try:
        ws.elements[name] = (rand_name, rand.element(values))
    except ValidationError as exc:
        raise ValidationError(f"element {name}: {exc}") from None


def _event(ws: Workspace, tk: Lexer, name: str) -> None:
    tk.expect("=")
    rand_name = tk.expect_kind("name")
    rand = ws.randomization(rand_name)
    indices = tk.items("{", "}", tk.integer)
    tk.accept(";")
    pts = rand.base.points
    for i in indices:
        if not 0 <= i < len(pts):
            raise ValidationError(f"event {name}: index {i} out of range")
    ws.events[name] = (rand_name, frozenset(pts[i] for i in indices))


def _rtype_entry(tk: Lexer) -> tuple[str, int, Fraction]:
    qname = tk.expect_kind("name")
    if not re.fullmatch(r"q\d+", qname):
        raise ParseError(f"expected qN, got {qname!r}", tk.pos)
    index = _integer(qname[1:], tk.pos)
    tk.expect(":")
    return qname, index, tk.rational()


def _rmeasure(ws: Workspace, tk: Lexer, name: str) -> None:
    st_name = None
    arity = None
    params: tuple[int, ...] = ()
    entries: list[tuple[str, int, Fraction]] = []
    for key in tk.block():
        if key == "rtype":
            entries = tk.items("{", "}", lambda: _rtype_entry(tk))
            continue
        if key not in ("structure", "arity", "params"):
            raise ParseError(f"unknown key {key!r}", tk.pos)
        tk.expect("=")
        if key == "structure":
            st_name = tk.expect_kind("name")
        elif key == "arity":
            arity = tk.integer()
        else:
            params = tuple(tk.items("(", ")", tk.integer))
    if st_name is None or arity is None:
        raise ParseError(f"rmeasure {name} needs structure and arity", tk.pos)
    space = type_space(ws.structure(st_name), arity, params)
    weights = {}
    for qname, i, w in entries:
        if i >= len(space.types):
            raise ValidationError(
                f"rmeasure {name}: entry {qname} names no type; "
                f"the space has {len(space.types)}"
            )
        if space.types[i] in weights:
            raise ValidationError(f"rmeasure {name}: entry {qname} is repeated")
        weights[space.types[i]] = w
    ws.rmeasures[name] = RMeasure(space, weights)


_DECLARATIONS = {
    "structure": _structure,
    "space": _space,
    "randomization": _randomization,
    "element": _element,
    "event": _event,
    "rmeasure": _rmeasure,
}


def load_workspace(text: str) -> Workspace:
    ws = Workspace()
    tk = Lexer(STRUCTURE_TOKENS, text)
    while tk.peek() is not None:
        kind = tk.expect_kind("name")
        if kind not in _DECLARATIONS:
            raise ParseError(f"unknown declaration {kind!r}", tk.pos)
        name = tk.expect_kind("name")
        ws._fresh(name)
        _DECLARATIONS[kind](ws, tk, name)
    return ws


def save_workspace(ws: Workspace) -> str:
    out = []
    for name, st in ws.structures.items():
        body = format_structure(st)
        out.append(body.replace(f"structure {st.name or 'unnamed'}", f"structure {name}", 1))
    for name, sp in ws.spaces.items():
        ws_weights = ", ".join(str(sp.weight[p]) for p in sp.points)
        out.append(f"space {name} {{ weights = [{ws_weights}]; }}")
    for name, rand in ws.randomizations.items():
        space_name = ws._space_names.get(name)
        st_names = ws._structure_names.get(name)
        if space_name is None or st_names is None:
            raise ValidationError(f"randomization {name} has no named parts")
        if len(st_names) == 1:
            out.append(
                f"randomization {name} {{ structure = {st_names[0]}; space = {space_name}; }}"
            )
        else:
            out.append(
                f"randomization {name} {{ structures = [{', '.join(st_names)}]; "
                f"space = {space_name}; }}"
            )
    for name, (rand_name, el) in ws.elements.items():
        rand = ws.randomization(rand_name)
        values = ", ".join(str(el(p)) for p in rand.base.points)
        out.append(f"element {name} = {rand_name} [{values}];")
    for name, (rand_name, ev) in ws.events.items():
        rand = ws.randomization(rand_name)
        idx = sorted(i for i, p in enumerate(rand.base.points) if p in ev)
        out.append(f"event {name} = {rand_name} {{{', '.join(map(str, idx))}}};")
    for name, nu in ws.rmeasures.items():
        st = nu.space.structure
        st_name = next(
            (n for n, s in ws.structures.items() if s == st), None
        )
        if st_name is None:
            raise ValidationError(f"rmeasure {name} refers to an unnamed structure")
        params = ", ".join(map(str, nu.space.params))
        entries = ", ".join(
            f"q{q.index}: {w}" for q, w in nu.weights.items() if w > 0
        )
        out.append(
            f"rmeasure {name} {{ structure = {st_name}; arity = {nu.space.arity}; "
            f"params = ({params}); rtype {{ {entries} }}; }}"
        )
    return "\n".join(out) + "\n"
