"""Axiom checking for randomizations, with shipped formula corpora.

The exact axiom groups (validity, boolean, distance, fullness, event,
measure, transfer) are checked without random draws.  Validity ranges
over all logically valid sentences, which has no finite presentation, so
it is checked against a corpus of tautologies and the report says so;
this is a deliberate under-approximation.  The premise, pinned by tests:
event_of and fullness_witness read a point w only through family[w] and
the bound values at w, event_of of !, | and & is the pointwise set
operation on its operands' events, and d_K, d_B and mu sum point weights.
So the bindings of _covering_bindings decide validity and fullness,
elements with one equality pattern per point the d_K laws, and two
witnesses the event group; the connective, lattice, d_B and modular laws
follow from the premise and are only exercised (the connectives at one
covering binding per corpus pair, the rest at the full and empty event).
Every formula that shares a binding is evaluated in one pass over the
points: `covering_failures` hands its predicate all the payloads still
passing at a binding, validity, boolean and transfer take the events of
one binding from one `_events_of` call, and fullness finds every
formula's least witness in one pass (`_fullness_witnesses`) and reads
[[phi(f_phi)]] in another; each event and witness is the one `event_of`
and `fullness_witness` give.
Atomlessness cannot hold on a finite space: the checker reports the
exact defect
  max_U min_V |mu(U /\\ V) - mu(U)/2|,
which is half the heaviest atom (see atomless_defect), and passes the
group when the defect is at most half the smallest atom, that is exactly
on uniform bases (dyadic ones among them: the defect vanishes under
dyadic refinement).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from collections.abc import Callable, Iterable, Sequence

from .errors import charge
from .formulas import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Rel,
    Var,
    format_formula,
    free_vars,
    substitute,
)
from .randomization import (
    Randomization,
    RandomElement,
    _events_of,
    _fullness_witnesses,
    _valuations,
    d_b,
    d_k,
    event_of,
    event_witness,
    mu,
)
from .record import Record
from .semantics import _holds, eval_formula
from .structures import FinStructure, Signature

EXACT_GROUPS = (
    "validity",
    "boolean",
    "distance",
    "fullness",
    "event",
    "measure",
    "transfer",
)


# --- Corpora -------------------------------------------------------------------

def _base_atoms(sig: Signature) -> list[Formula]:
    vs = ["x", "y", "z"]
    atoms: list[Formula] = [
        Eq(Var("x"), Var("y")),
        Eq(Var("y"), Var("z")),
        Eq(Var("x"), Var("z")),
        Eq(Var("x"), Var("x")),
    ]
    for r in sorted(sig.relations):
        k = sig.relations[r]
        pool = list(itertools.product(vs[: max(1, min(3, k + 1))], repeat=k))
        for combo in pool[:6]:
            atoms.append(Rel(r, tuple(Var(v) for v in combo)))
    return atoms


def default_formula_corpus(sig: Signature) -> list[Formula]:
    """A deterministic corpus of first-order formulas over the signature.

    Free variables are drawn from {x, y, z}; depth grows until the corpus
    holds at least 40 formulas.
    """
    atoms = _base_atoms(sig)
    corpus: list[Formula] = []
    seen: set[Formula] = set()

    def push(phi: Formula) -> None:
        if phi not in seen:
            seen.add(phi)
            corpus.append(phi)

    for a in atoms:
        push(a)
    for a in atoms:
        push(Not(a))
    for a, b in itertools.combinations(atoms, 2):
        if len(corpus) >= 64:
            break
        push(And(a, b))
        push(Or(a, b))
        push(Implies(a, b))
    quantifiable = [a for a in atoms if "z" in free_vars(a)] or [
        Eq(Var("z"), Var("x"))
    ]
    for a in quantifiable:
        push(Exists("z", a))
        push(Forall("z", a))
        push(Exists("z", And(a, Not(Eq(Var("z"), Var("x"))))))
        push(Forall("z", Or(a, Eq(Var("z"), Var("x")))))
    for a, b in itertools.combinations(atoms, 2):
        if len(corpus) >= 60:
            break
        push(Not(And(a, Not(b))))
        push(Or(Not(a), And(a, b)))
    if len(corpus) < 40:
        for a, b, c in itertools.combinations(atoms, 3):
            push(And(a, Or(b, c)))
            if len(corpus) >= 40:
                break
    return corpus


def tautology_corpus(sig: Signature) -> list[Formula]:
    """Logically valid formulas, used to spot-check the validity axioms."""
    atoms = _base_atoms(sig)
    a = atoms[0]
    b = atoms[1] if len(atoms) > 1 else Not(a)
    out: list[Formula] = [
        Or(a, Not(a)),
        Not(And(a, Not(a))),
        Implies(And(a, b), a),
        Implies(And(a, b), b),
        Implies(a, Or(a, b)),
        Implies(b, Or(a, b)),
        Implies(And(Implies(a, b), a), b),
        Implies(Not(Not(a)), a),
        Implies(a, Not(Not(a))),
        Or(Implies(a, b), Implies(b, a)),
        Implies(Not(Or(a, b)), And(Not(a), Not(b))),
        Implies(And(Not(a), Not(b)), Not(Or(a, b))),
        Eq(Var("x"), Var("x")),
        Forall("w", Eq(Var("w"), Var("w"))),
        Exists("w", Eq(Var("w"), Var("x"))),
    ]
    # quantifier schemas: (forall w phi(w)) -> phi(x), phi(x) -> exists w phi(w)
    unary = substitute(a, {v: Var("w") for v in sorted(free_vars(a))[:1]})
    if "w" in free_vars(unary):
        inst = substitute(unary, {"w": Var("x")})
        out.append(Implies(Forall("w", unary), inst))
        out.append(Implies(inst, Exists("w", unary)))
    return out


def _closures(corpus: list[Formula]) -> list[Formula]:
    """The universal and the existential closure of each of the first
    twelve formulas of `corpus`."""
    out = []
    for phi in corpus[:12]:
        closed = phi
        for v in sorted(free_vars(phi), reverse=True):
            closed = Forall(v, closed)
        out.append(closed)
        existential = phi
        for v in sorted(free_vars(phi), reverse=True):
            existential = Exists(v, existential)
        out.append(existential)
    return out


# --- Report --------------------------------------------------------------------

class AxiomVerdict(Record):
    group: str
    passed: bool
    detail: str = ""


class AxiomReport(Record):
    verdicts: list[AxiomVerdict]
    atomless_defect: Fraction

    def by_group(self, group: str) -> AxiomVerdict:
        for v in self.verdicts:
            if v.group == group:
                return v
        raise KeyError(group)

    def exact_groups_pass(self) -> bool:
        return all(self.by_group(g).passed for g in EXACT_GROUPS)

    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def lines(self) -> list[str]:
        return [
            f"{'PASS' if v.passed else 'FAIL'} axiom-{v.group} {v.detail}".rstrip()
            for v in self.verdicts
        ]


# --- Covering bindings ------------------------------------------------------------

class _Covering(Sequence):
    """The bindings of `_covering_bindings`; binding t is built from t
    when it is asked for, so walking the covering keeps one in memory."""

    def __init__(self, base, variables: list[str], count: int, classes: list[tuple[int, list]]):
        self.base = base
        self.variables = variables
        self.count = count
        self.classes = classes  # (universe size, points) of each fibre class

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, t: int) -> dict[str, RandomElement]:
        if t < 0:
            t += self.count
        if not 0 <= t < self.count:
            raise IndexError("covering binding out of range")
        values: list[dict] = [{} for _ in self.variables]  # [variable][point]
        last_first = values[::-1]
        for size, ws in self.classes:
            total = size ** len(values)
            for r, w in enumerate(ws, t * len(ws)):
                # slot r gets valuation r mod size**k in the order of
                # itertools.product(range(size), repeat=k): its base-size digits
                r %= total
                for column in last_first:
                    r, column[w] = divmod(r, size)
        return {v: RandomElement(self.base, vals) for v, vals in zip(self.variables, values)}


def _covering_bindings(rand: Randomization, variables: Iterable[str]) -> _Covering:
    """Bindings under which every (fibre, valuation) pair occurs at a point.

    The points of a fibre class C split its |M_C|^k valuations, so there
    are max_C ceil(|M_C|^k / |C|) bindings (a class with spare slots
    starts over).  That is small only for small universes: the slots
    (bindings times points) are charged to the budget first.
    """
    variables = sorted(variables)
    k = len(variables)
    classes: dict[FinStructure, list] = {}
    for w in rand.base.points:
        classes.setdefault(rand.family[w], []).append(w)
    count = max(-(-m.size**k // len(ws)) for m, ws in classes.items())
    charge("axiom covering", count * len(rand.base.points))
    return _Covering(rand.base, variables, count, [(m.size, ws) for m, ws in classes.items()])


def covering_failures(rand: Randomization, items: Iterable, holds: Callable) -> list:
    """The payloads of the (payload, variables) items that fail at some
    covering binding of their variables, in input order.

    Items with the same variables share one walk of the covering: at each
    binding, holds(payloads, binding) gets the payloads still passing and
    returns one bool per payload, so each binding is built once, one is
    held at a time, and a payload that fails is not checked again.  Every
    covering is sized, and refused past the budget, before any binding is
    checked.
    """
    items = list(items)
    groups: dict[frozenset[str], list[int]] = {}
    for i, (_, variables) in enumerate(items):
        groups.setdefault(frozenset(variables), []).append(i)
    coverings = [(_covering_bindings(rand, vs), members) for vs, members in groups.items()]
    passing: set[int] = set()
    for cover, members in coverings:
        for binding in cover:
            verdicts = holds([items[i][0] for i in members], binding)
            members = [i for i, ok in zip(members, verdicts) if ok]
            if not members:
                break
        passing.update(members)
    return [payload for i, (payload, _) in enumerate(items) if i not in passing]


def _witnessed_events(
    rand: Randomization,
    phis: Sequence[Formula],
    var: str,
    witnesses: Sequence[RandomElement],
    binding: dict[str, RandomElement],
) -> list[frozenset]:
    """[[phi(f)]] for each formula phi of `phis` with its own witness f
    bound to `var`, in one pass of `_valuations`: at each point each
    formula reads its witness's value there."""
    fv = sorted(frozenset().union(*[free_vars(phi) for phi in phis]) - {var})
    tests = [(_holds(phi), f.values, []) for phi, f in zip(phis, witnesses)]
    for w, m, val in _valuations(rand, fv, binding):
        for holds, witness, out in tests:
            val[var] = witness[w]
            if holds(m, val):
                out.append(w)
    return [frozenset(out) for _, _, out in tests]


# --- Atomless defect --------------------------------------------------------------

def atomless_defect(rand: Randomization) -> Fraction:
    """max over events U of the distance from mu(U)/2 to the masses of
    subevents of U, which is half the heaviest atom w_max.

    At least w_max/2: take U the heaviest atom alone; its subevents weigh
    0 or w_max, both w_max/2 away from mu(U)/2.  At most w_max/2: list the
    atoms of any U in any order; the prefix sums climb from 0 to mu(U) one
    atom at a time, so one of them lies within half an atom of mu(U)/2.
    """
    return max(rand.base.weight.values()) / 2


# --- The checker -------------------------------------------------------------------

def check_axioms(rand: Randomization) -> AxiomReport:
    sig = rand.signature
    corpus = default_formula_corpus(sig)
    verdicts: list[AxiomVerdict] = []
    top = rand.full_event()
    # the laws on events follow from the premise; these only exercise them
    corners = (top, frozenset())

    # Validity: tautologies evaluate to the sure event under any binding.
    failures = covering_failures(
        rand,
        ((phi, free_vars(phi)) for phi in tautology_corpus(sig)),
        lambda phis, binding: [e == top for e in _events_of(rand, phis, binding)],
    )
    detail = format_formula(failures[0]) if failures else "tautology corpus, per-point evaluation"
    verdicts.append(AxiomVerdict("validity", not failures, detail))

    # Boolean: connectives on events, plus lattice laws for the event sort.
    # Pair i is checked at binding i of its variables' covering; the pairs
    # sharing a binding take their 5 events each from one pass.
    pairs = list(zip(corpus, corpus[1:] + corpus[:1]))
    covers: dict[frozenset[str], _Covering] = {}
    shared: dict[tuple[frozenset[str], int], list[int]] = {}
    for i, (phi, psi) in enumerate(pairs):
        variables = free_vars(phi) | free_vars(psi)
        cover = covers.get(variables)
        if cover is None:
            cover = covers[variables] = _covering_bindings(rand, variables)
        shared.setdefault((variables, i % len(cover)), []).append(i)
    failed = len(pairs)
    for (variables, t), members in shared.items():
        phis = [
            chi
            for phi, psi in (pairs[i] for i in members)
            for chi in (phi, psi, Not(phi), Or(phi, psi), And(phi, psi))
        ]
        events = _events_of(rand, phis, covers[variables][t])
        for i, j in zip(members, range(0, len(events), 5)):
            e_phi, e_psi, e_not, e_or, e_and = events[j : j + 5]
            if not (e_not == top - e_phi and e_or == e_phi | e_psi and e_and == e_phi & e_psi):
                failed = min(failed, i)
                break
    ok = failed == len(pairs)
    detail = "" if ok else f"connective identity failed for {format_formula(pairs[failed][0])}"
    if ok:
        for u, v, w in itertools.product(corners, repeat=3):
            laws = [
                u | v == v | u,
                u & v == v & u,
                (u | v) | w == u | (v | w),
                u & (v | w) == (u & v) | (u & w),
                top - (u | v) == (top - u) & (top - v),
            ]
            if not all(laws):
                ok = False
                detail = "lattice law failed"
                break
    verdicts.append(AxiomVerdict("boolean", ok, detail))

    # Distance: the two defining identities plus pseudo-metric laws.  d_K
    # reads each point only through which values agree there, so elements
    # with one equality pattern at every point cover all the patterns.
    ok = True
    detail = ""
    eq_xy = Eq(Var("x"), Var("y"))
    zero, one = (RandomElement.constant(rand.base, a) for a in (0, 1))
    # all distinct where the universe has a third element, else like (1, 0, 0)
    two = RandomElement(rand.base, {w: min(2, m.size - 1) for w, m in rand.family.items()})
    for f, g in itertools.product((zero, one), repeat=2):
        lhs = d_k(rand, f, g)
        rhs = 1 - mu(rand, event_of(rand, eq_xy, {"x": f, "y": g}))
        if lhs != rhs or lhs != d_k(rand, g, f):
            ok = False
            detail = "d_K identity failed"
    for u, v, w in itertools.product(corners, repeat=3):
        if d_b(rand, u, v) != mu(rand, u ^ v) or d_b(rand, u, w) > d_b(
            rand, u, v
        ) + d_b(rand, v, w):
            ok = False
            detail = "d_B identity or triangle failed"
    patterns = [(zero,) * 3, (zero, zero, one), (zero, one, zero), (one, zero, zero)]
    for f, g, h in patterns + [(zero, one, two)]:
        if d_k(rand, f, h) > d_k(rand, f, g) + d_k(rand, g, h):
            ok = False
            detail = "d_K triangle failed"
    verdicts.append(AxiomVerdict("distance", ok, detail))

    # Fullness: exact witnesses for every corpus formula with x free.  The
    # witnesses are found in one pass and [[phi(f_phi)]] is evaluated in
    # another, so a wrong witness is caught.
    def exact(
        payloads: list[tuple[Formula, Formula]], binding: dict[str, RandomElement]
    ) -> list[bool]:
        phis = [phi for phi, _ in payloads]
        witnesses = _fullness_witnesses(rand, phis, "x", binding)
        lhs = _witnessed_events(rand, phis, "x", witnesses, binding)
        rhs = _events_of(rand, [exists for _, exists in payloads], binding)
        return [a == b for a, b in zip(lhs, rhs)]

    failures = covering_failures(
        rand,
        (
            ((phi, Exists("x", phi)), free_vars(phi) - {"x"})
            for phi in corpus
            if "x" in free_vars(phi)
        ),
        exact,
    )
    detail = f"witness inexact for {format_formula(failures[0][0])}" if failures else ""
    verdicts.append(AxiomVerdict("fullness", not failures, detail))

    # Event: every event is an equality event, exactly.  event_witness
    # sets f(w), g(w) from whether w lies in the event alone, and
    # [[x = y]] at w reads only f(w) and g(w).  So the witnesses of all
    # 2^|Omega| events are exact iff every point passes both inside an
    # event and outside one: the full and the empty event test that.
    ok = True
    detail = ""
    for where, e in (("inside", top), ("outside", frozenset())):
        f, g = event_witness(rand, e)
        wrong = event_of(rand, eq_xy, {"x": f, "y": g}) ^ e
        if wrong:
            w = next(p for p in rand.base.points if p in wrong)
            ok, detail = False, f"witness inexact at point {w!r} {where} the event"
            break
    verdicts.append(
        AxiomVerdict(
            "event", ok, detail or f"{2 ** len(top)} events, exact witnesses"
        )
    )

    # Measure: normalisation and the modular law.
    ok = mu(rand, top) == 1 and mu(rand, frozenset()) == 0
    detail = "" if ok else "normalisation failed"
    for u, v in itertools.product(corners, repeat=2):
        if mu(rand, u) + mu(rand, v) != mu(rand, u | v) + mu(rand, u & v):
            ok = False
            detail = "modular law failed"
            break
    verdicts.append(AxiomVerdict("measure", ok, detail))

    # Atomless: exact defect against the half-minimum-atom threshold.
    defect = atomless_defect(rand)
    min_atom = min(rand.base.weight.values())
    verdicts.append(
        AxiomVerdict(
            "atomless",
            defect <= min_atom / 2,
            f"defect {defect} vs threshold {min_atom / 2}",
        )
    )

    # Transfer: sentences true (false) in every fiber get measure 1 (0).
    ok = True
    detail = ""
    sentences = _closures(corpus)
    for sigma, event in zip(sentences, _events_of(rand, sentences, {})):
        truth = [eval_formula(rand.family[w], sigma, {}) for w in rand.base.points]
        value = mu(rand, event)
        if all(truth) and value != 1:
            ok, detail = False, f"true sentence got measure {value}"
        elif not any(truth) and value != 0:
            ok, detail = False, f"false sentence got measure {value}"
        elif value != rand.base.mass(
            [w for w, t in zip(rand.base.points, truth) if t]
        ):
            ok, detail = False, "sentence event mismatch"
    verdicts.append(AxiomVerdict("transfer", ok, detail))

    return AxiomReport(verdicts, defect)
