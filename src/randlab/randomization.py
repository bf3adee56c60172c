"""Randomizations of finite structures over finite probability spaces.

A randomization bundles a base space with one structure per sample point
(all over one signature).  The random-element sort is implicitly the full
product of the per-point universes, so the Fullness and Event axioms hold
with exact witnesses, and every random element here is simple (finite
range).  Events are plain subsets of the base.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .formulas import Formula, free_vars
from .measure import FinProbSpace, Point, frac
from .record import Keyed
from .semantics import _holds
from .structures import FinStructure

Event = frozenset


class RandomElement(Keyed):
    """A map from sample points to elements of the per-point structures."""

    def __init__(self, base: FinProbSpace, values: Mapping[Point, int]):
        self.base = base
        try:
            self.values = {p: values[p] for p in base.points}
        except KeyError as missing:
            raise ValidationError(
                f"random element not total on the base: missing {missing.args[0]!r}"
            ) from None

    @classmethod
    def _keep(cls, base: FinProbSpace, values: dict[Point, int]) -> "RandomElement":
        """The element with these values, keeping the dict itself: it must
        be a fresh dict with one entry per point of `base`, in base order."""
        f = cls.__new__(cls)
        f.base = base
        f.values = values
        return f

    def __call__(self, w: Point) -> int:
        return self.values[w]

    @classmethod
    def constant(cls, base: FinProbSpace, a: int) -> "RandomElement":
        return cls(base, {w: a for w in base.points})

    @cached_property
    def _key_cache(self):
        # built on the first comparison or hash: most elements meet neither
        return (self.base._key_cache, tuple(self.values[p] for p in self.base.points))

    def __repr__(self):
        vals = ", ".join(str(self.values[p]) for p in self.base.points)
        return f"[{vals}]"


class Randomization:
    """Base space plus a structure attached to each sample point."""

    def __init__(self, base: FinProbSpace, family: Mapping[Point, FinStructure]):
        self.base = base
        try:
            self.family = {w: family[w] for w in base.points}
        except KeyError as missing:
            raise ValidationError(
                f"family not total on the base: missing {missing.args[0]!r}"
            ) from None
        sigs = {m.signature for m in self.family.values()}
        if len(sigs) != 1:
            raise ValidationError("family structures must share one signature")
        self.signature = next(iter(sigs))

    @classmethod
    def constant(cls, structure: FinStructure, base: FinProbSpace) -> "Randomization":
        return cls(base, {w: structure for w in base.points})

    @cached_property
    def is_constant(self) -> bool:
        return len(set(self.family.values())) == 1

    @property
    def structure(self) -> FinStructure:
        if not self.is_constant:
            raise ValidationError("family is not constant")
        return self.family[self.base.points[0]]

    def carrier_size(self) -> int:
        """Number of random elements (the full product of the universes)."""
        out = 1
        for w in self.base.points:
            out *= self.family[w].size
        return out

    def all_elements(
        self, groups: Sequence[tuple[Sequence[int], Sequence[int]]] | None = None
    ) -> Iterable[RandomElement]:
        """Enumerate random elements, deterministically.

        `groups` splits the point indices into parts, each with its
        candidate values; a part takes every multiset of its candidates,
        laid out in candidate order along its indices.  The default, each
        point alone with its whole universe, is the whole random-element
        sort.
        """
        points = self.base.points
        if groups is None:
            groups = [((i,), range(self.family[w].size)) for i, w in enumerate(points)]
        picks = [itertools.combinations_with_replacement(vals, len(idx)) for idx, vals in groups]
        # a combo holds the values part by part; this takes them back to
        # point order (the extra index keeps a one-point result a tuple, and
        # zip drops it)
        order = [i for indices, _ in groups for i in indices]
        in_point_order = operator.itemgetter(*sorted(range(len(order)), key=order.__getitem__), 0)
        for combo in itertools.product(*picks):
            values = in_point_order(tuple(itertools.chain.from_iterable(combo)))
            yield RandomElement._keep(self.base, dict(zip(points, values)))

    def element(self, values: Sequence[int]) -> RandomElement:
        """The random element taking the i-th value at the i-th sample point."""
        if len(values) != len(self.base.points):
            raise ValidationError(
                f"{len(values)} values for {len(self.base.points)} sample points"
            )
        for w, a in zip(self.base.points, values):
            if not 0 <= a < self.family[w].size:
                raise ValidationError(
                    f"value {a} at point {w!r} outside the universe of size "
                    f"{self.family[w].size}"
                )
        return RandomElement._keep(self.base, dict(zip(self.base.points, values)))

    def check_event(self, e: Event) -> Event:
        e = frozenset(e)
        bad = e - self.base.point_set
        if bad:
            raise ValidationError(f"event contains foreign points {sorted(map(repr, bad))}")
        return e

    def check_element(self, f: RandomElement) -> RandomElement:
        if f.base is not self.base and f.base != self.base:
            raise ValidationError("element lives on a different base")
        return f

    def full_event(self) -> Event:
        return self.base.point_set

    def complement(self, e: Event) -> Event:
        return self.full_event() - self.check_event(e)


def _check_binding(
    rand: Randomization, fv: list[str], binding
) -> dict[str, RandomElement]:
    """The elements bound to the variables `fv`, checked to live on rand's base.

    `binding` is a dict from variable names to random elements, or a
    sequence matched against `fv` in order.
    """
    if isinstance(binding, dict):
        bound = binding
    elif isinstance(binding, Mapping):
        bound = dict(binding)
    else:
        elems = list(binding)
        if len(elems) != len(fv):
            raise ValidationError(
                f"formula has free variables {fv}, got {len(elems)} elements"
            )
        bound = dict(zip(fv, elems))
    for v in fv:
        if v not in bound:
            raise ValidationError(f"free variable {v!r} not bound")
        if bound[v].base is not rand.base and bound[v].base != rand.base:
            raise ValidationError(f"element bound to {v!r} lives on a different base")
    return {v: bound[v] for v in fv}


def _valuations(rand: Randomization, fv: list[str], binding):
    """(point, fibre, valuation) at each point of rand's base, in base order.

    `binding` is checked once, as `_check_binding` checks it, before the
    first point.  The valuation is one dict, rebound in place at each
    point to the values the variables `fv` take there; a caller may bind
    other names in it as well.
    """
    columns = [(v, f.values) for v, f in _check_binding(rand, fv, binding).items()]
    family = rand.family
    val: dict[str, int] = {}
    for w in rand.base.points:
        for v, values in columns:
            val[v] = values[w]
        yield w, family[w], val


def _events_of(rand: Randomization, phis: Sequence[Formula], binding) -> list[Event]:
    """The event of each formula of `phis` under one binding, in one pass.

    The binding is checked once, against the sorted free variables of all
    of `phis`, as `event_of` checks it against one formula's; at each
    point of `_valuations` every formula's closure is called.
    """
    fv = sorted(frozenset().union(*[free_vars(phi) for phi in phis]))
    tests = [(_holds(phi), []) for phi in phis]
    for w, m, val in _valuations(rand, fv, binding):
        for holds, out in tests:
            if holds(m, val):
                out.append(w)
    return [frozenset(out) for _, out in tests]


def event_of(rand: Randomization, phi: Formula, binding) -> Event:
    """The set of sample points where the bound tuple satisfies phi.

    `binding` is either a dict from variable names to random elements, or
    a tuple matched against the sorted free variables of phi.  phi's
    compiled form is fetched once, and one valuation is rebound at each
    point (this is `_events_of` on phi alone).
    """
    return _events_of(rand, (phi,), binding)[0]


def mu(rand: Randomization, e: Event) -> Fraction:
    return rand.base.mass(rand.check_event(e))


def d_b(rand: Randomization, e1: Event, e2: Event) -> Fraction:
    e1, e2 = rand.check_event(e1), rand.check_event(e2)
    return rand.base.mass(e1 ^ e2)


def d_k(rand: Randomization, f: RandomElement, g: RandomElement) -> Fraction:
    if f.base != rand.base or g.base != rand.base:
        raise ValidationError("elements live on a different base")
    agree = frozenset(w for w in rand.base.points if f(w) == g(w))
    return 1 - rand.base.mass(agree)


def _fullness_witnesses(
    rand: Randomization, phis: Sequence[Formula], var: str, binding
) -> list[RandomElement]:
    """An exact witness for `var` in each formula of `phis`, in one pass.

    At each point the binding's valuation is set once, and every formula
    gets its least witness there when one exists, otherwise the least
    element.  `binding` covers the free variables of `phis` other than
    `var`, checked once as `_events_of` checks them.
    """
    fv = sorted(frozenset().union(*[free_vars(phi) for phi in phis]) - {var})
    searches = [(_holds(phi), {}) for phi in phis]
    for w, m, val in _valuations(rand, fv, binding):
        for holds, values in searches:
            pick = 0
            for a in m.elements:
                val[var] = a
                if holds(m, val):
                    pick = a
                    break
            values[w] = pick
    return [RandomElement._keep(rand.base, values) for _, values in searches]


def fullness_witness(
    rand: Randomization, phi: Formula, var: str, binding
) -> RandomElement:
    """An exact witness f with [[phi(f, g..)]] equal to [[exists var phi]].

    Built pointwise: at each sample point pick the least witness when one
    exists, otherwise the least element.  `binding` covers the free
    variables of phi other than `var`, as for `event_of` (this is
    `_fullness_witnesses` on phi alone).
    """
    return _fullness_witnesses(rand, (phi,), var, binding)[0]


def event_witness(rand: Randomization, e: Event) -> tuple[RandomElement, RandomElement]:
    """Elements f, g with [[f = g]] exactly the given event."""
    e = rand.check_event(e)
    f_vals, g_vals = {}, {}
    for w in rand.base.points:
        if w in e:
            f_vals[w] = g_vals[w] = 0
        else:
            f_vals[w] = 0
            g_vals[w] = 1
    return RandomElement(rand.base, f_vals), RandomElement(rand.base, g_vals)


def convex_combination(
    parts: Sequence[tuple[Fraction, Randomization]]
) -> Randomization:
    """Mix randomizations with positive weights summing to one.

    The base is the disjoint union with scaled weights, so the measure of
    any formula event is the weighted sum of the per-part measures.
    """
    if not parts:
        raise ValidationError("empty combination")
    weights = [frac(w) for w, _ in parts]
    if any(w <= 0 for w in weights):
        raise ValidationError("part weights must be positive")
    if sum(weights) != 1:
        raise ValidationError(f"part weights sum to {sum(weights)}, not 1")
    sigs = {r.signature for _, r in parts}
    if len(sigs) != 1:
        raise ValidationError("parts must share one signature")
    base_weights = []
    family = {}
    for i, (w0, rand) in enumerate(parts):
        for p in rand.base.points:
            label = (i, p)
            base_weights.append((label, frac(w0) * rand.base.weight[p]))
            family[label] = rand.family[p]
    base = FinProbSpace(base_weights)
    return Randomization(base, family)


# --- Event algebras and simple approximation -----------------------------------

class EventAlgebra:
    """The subalgebra of events generated by a finite family, as a partition."""

    def __init__(self, rand: Randomization, generators: Iterable[Event]):
        self.rand = rand
        gens = [rand.check_event(g) for g in generators]
        cells: dict[tuple[bool, ...], set] = {}
        for w in rand.base.points:
            sig = tuple(w in g for g in gens)
            cells.setdefault(sig, set()).add(w)
        # filled in base order, so the atoms come by their first point
        self.atoms: tuple[Event, ...] = tuple(frozenset(c) for c in cells.values())

    def best_approximation(self, target: Event) -> Event:
        """The algebra member minimising the measure of the symmetric
        difference to `target`: keep an atom exactly when more than half
        of its mass lies inside the target."""
        target = self.rand.check_event(target)
        out: set = set()
        for atom in self.atoms:
            inside = self.rand.base.mass(atom & target)
            if 2 * inside > self.rand.base.mass(atom):
                out |= atom
        return frozenset(out)


class SimpleApproximationTrace:
    """Step-by-step record of the simple-approximation construction."""

    def __init__(self):
        self.n = 0
        self.eps = Fraction(0)
        self.head_mass = Fraction(0)
        self.levels: list[dict] = []

    def __repr__(self):
        return f"SimpleApproximationTrace(n={self.n}, levels={len(self.levels)})"


def approximate_by_simple(
    rand: Randomization,
    f: RandomElement,
    algebra: EventAlgebra,
    eps: Fraction,
    with_trace: bool = False,
):
    """An algebra-measurable g with d_K(f, g) < eps, by level-set rounding.

    Ranks the values of f by descending level-set mass, keeps the top n
    with total mass above 1 - eps/2, approximates each level set within
    eps/(4 n^2) in the algebra (an error reports the worst level set),
    disjointifies, and reads g off the pieces.  The partial bounds are
    recorded on the trace when requested.
    """
    rand.check_element(f)
    eps = frac(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    levels: dict[int, set] = {}
    for w in rand.base.points:
        levels.setdefault(f(w), set()).add(w)
    ranked = sorted(
        levels.items(), key=lambda kv: (-rand.base.mass(kv[1]), kv[0])
    )
    total = Fraction(0)
    n = 0
    for _, level in ranked:
        if total > 1 - eps / 2:
            break
        total += rand.base.mass(level)
        n += 1
    trace = SimpleApproximationTrace()
    trace.eps = eps
    trace.n = n
    trace.head_mass = total

    approximants: list[tuple[int, Event, Event]] = []
    tolerance = eps / (4 * n * n) if n else None
    worst: tuple[Fraction, int] | None = None
    for a, level in ranked[:n]:
        level = frozenset(level)
        approx = algebra.best_approximation(level)
        err = rand.base.mass(level ^ approx)
        if tolerance is not None and not err < tolerance and (
            worst is None or err > worst[0]
        ):
            worst = (err, a)
        approximants.append((a, level, approx))

    taken: set = set()
    g_values = {w: approximants[0][0] if approximants else 0 for w in rand.base.points}
    for a, level, approx in approximants:
        piece = frozenset(approx - taken)
        taken |= approx
        for w in piece:
            g_values[w] = a
        if with_trace:
            trace.levels.append(
                {
                    "value": a,
                    "level_mass": rand.base.mass(level),
                    "approx_error": rand.base.mass(level ^ approx),
                    "piece_error": rand.base.mass(level ^ piece),
                    "within_tolerance": tolerance is not None
                    and rand.base.mass(level ^ approx) < tolerance,
                }
            )
    g = RandomElement(rand.base, g_values)
    achieved = d_k(rand, f, g)
    if not achieved < eps:
        # the rounding recipe only guarantees the bound when the algebra is
        # dense enough in every retained level set; report the worst one
        assert worst is not None
        raise ValidationError(
            f"algebra is not dense enough: level set of {worst[1]} has best "
            f"distance {worst[0]}, needs < {tolerance}; achieved d_K = {achieved}"
        )
    if with_trace:
        return g, trace
    return g
