"""Types of randomized tuples as probability measures on classical type spaces.

A randomized tuple over a constant family has, for every first-order
formula, a probability of satisfaction; these numbers are exactly the
weights of the pushforward of the base measure along the point-wise
classical type.  This module extracts that measure, realizes a
prescribed one (splitting base atoms when masses do not align), computes
the distance between type measures, and does the conditional-realization
construction used for saturation-style arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Mapping, Sequence

from .errors import ValidationError
from .formulas import Formula
from .measure import FinProbSpace, Point, frac
from .randomization import Event, RandomElement, Randomization
from .record import Keyed, Record
from .semantics import TypeId, TypeSpace, eval_formula, type_space


class RMeasure(Keyed):
    """Rational probability weights on a classical type space (zeros allowed)."""

    def __init__(self, space: TypeSpace, weights: Mapping[TypeId, Fraction]):
        self.space = space
        self.weights: dict[TypeId, Fraction] = {
            q: frac(weights.get(q, Fraction(0))) for q in space.types
        }
        for q in weights:
            if q not in self.weights:
                raise ValidationError(f"{q!r} is not a type of {space!r}")
        for q, w in self.weights.items():
            if w.numerator < 0:
                raise ValidationError(f"negative weight {w} at {q}")
        # the sum as ints over the weights' least common denominator
        den = lcm(*(w.denominator for w in self.weights.values()))
        total = sum(w.numerator * (den // w.denominator) for w in self.weights.values())
        if total != den:
            raise ValidationError(f"type weights sum to {Fraction(total, den)}, not 1")
        self._key_cache = (space, tuple(self.weights.values()))

    def __getitem__(self, q: TypeId) -> Fraction:
        return self.weights[q]

    def mass_where(self, predicate) -> Fraction:
        return sum(
            (w for q, w in self.weights.items() if predicate(q)), Fraction(0)
        )

    def formula_mass(self, phi: Formula, var_order: Sequence[str]) -> Fraction:
        """Measure of the types containing phi (evaluated at representatives,
        coordinates matched to `var_order`)."""
        if len(var_order) != self.space.arity:
            raise ValidationError("variable order must match the space arity")
        m = self.space.structure

        def holds(q: TypeId) -> bool:
            return eval_formula(m, phi, dict(zip(var_order, q.rep)))

        return self.mass_where(holds)

    def __repr__(self):
        return format_rmeasure(self)


def format_rmeasure(nu: RMeasure) -> str:
    inner = ", ".join(
        f"q{q.index}: {nu.weights[q]}" for q in nu.space.types if nu.weights[q] > 0
    )
    return f"rtype {{ {inner} }}"


# --- Extraction -------------------------------------------------------------------

def rtype_of(
    rand: Randomization,
    elements: Sequence[RandomElement],
    params: Sequence[RandomElement] = (),
) -> RMeasure:
    """The joint type measure of (elements, params) over the empty set.

    The family must be constant: classical types live in one structure.
    Parameters are appended as extra coordinates, so a type over
    parameters is a joint measure concentrated on the parameter fiber.
    """
    if not rand.is_constant:
        raise ValidationError("type measures need a constant family")
    tup = tuple(elements) + tuple(params)
    space = type_space(rand.structure, len(tup), ())
    return rtype_of_over(rand, tup, space)


def rtype_of_over(
    rand: Randomization, elements: Sequence[RandomElement], space: TypeSpace
) -> RMeasure:
    """Pushforward of the base measure along the point-wise type in `space`."""
    if not rand.is_constant:
        raise ValidationError("type measures need a constant family")
    if rand.structure != space.structure:
        raise ValidationError("type space belongs to a different structure")
    if len(elements) != space.arity:
        raise ValidationError("tuple length must match the space arity")
    elements = [rand.check_element(f) for f in elements]
    acc: dict[TypeId, int] = {}
    for w, n in rand.base._numerators.items():
        q = space.type_of(tuple(f(w) for f in elements))
        acc[q] = acc.get(q, 0) + n
    den = rand.base.denominator
    return RMeasure(space, {q: Fraction(n, den) for q, n in acc.items()})


# --- Base refinement ----------------------------------------------------------------

class Refinement(Record):
    """A refined randomization plus the projection onto the original base."""

    rand: Randomization
    projection: dict[Point, Point]

    def lift(self, f: RandomElement) -> RandomElement:
        return RandomElement(
            self.rand.base, {p: f(self.projection[p]) for p in self.rand.base.points}
        )


def _split_base(
    rand: Randomization,
    allocations: Sequence[tuple[Sequence[Point], Sequence[tuple[object, Fraction]]]],
) -> tuple[Refinement, dict[object, Event]]:
    """Split base atoms so that, inside each listed region, each tag
    receives exactly its prescribed mass.  Regions must partition the base
    and each allocation must exhaust its region's mass."""
    pieces: dict[Point, list[tuple[object, Fraction]]] = {p: [] for p in rand.base.points}
    seen: set[Point] = set()
    for region, allocation in allocations:
        region = list(region)
        if set(region) & seen:
            raise ValidationError("allocation regions overlap")
        seen |= set(region)
        need = [(tag, frac(mass)) for tag, mass in allocation if frac(mass) > 0]
        total_need = sum((m for _, m in need), Fraction(0))
        region_mass = sum((rand.base.weight[p] for p in region), Fraction(0))
        if total_need != region_mass:
            raise ValidationError(
                f"allocation mass {total_need} != region mass {region_mass}"
            )
        idx = 0
        remaining = need[idx][1] if need else Fraction(0)
        for p in region:
            left = rand.base.weight[p]
            while left > 0:
                take = min(left, remaining)
                pieces[p].append((need[idx][0], take))
                left -= take
                remaining -= take
                if remaining == 0:
                    idx += 1
                    remaining = need[idx][1] if idx < len(need) else Fraction(0)
    if seen != set(rand.base.points):
        raise ValidationError("allocation regions must cover the base")

    weights: list[tuple[Point, Fraction]] = []
    projection: dict[Point, Point] = {}
    family = {}
    tagged: dict[object, set] = {}
    for p in rand.base.points:
        parts = pieces[p]
        split = len(parts) > 1
        for j, (tag, mass) in enumerate(parts):
            label = (p, j) if split else p
            weights.append((label, mass))
            projection[label] = p
            family[label] = rand.family[p]
            tagged.setdefault(tag, set()).add(label)
    base = FinProbSpace(weights)
    refined = Refinement(Randomization(base, family), projection)
    events = {tag: frozenset(pts) for tag, pts in tagged.items()}
    return refined, events


# --- Realization ---------------------------------------------------------------------

def realize(
    rand: Randomization, nu: RMeasure
) -> tuple[Refinement, tuple[RandomElement, ...]]:
    """A tuple over a refined base whose type measure is exactly `nu`.

    The base is partitioned into one event per supported type, of exactly
    its weight, and the canonical orbit representative is placed there.
    """
    if not rand.is_constant:
        raise ValidationError("realization needs a constant family")
    if rand.structure != nu.space.structure:
        raise ValidationError("measure belongs to a different structure")
    allocation = [(q, nu.weights[q]) for q in nu.space.types if nu.weights[q] > 0]
    refined, events = _split_base(rand, [(rand.base.points, allocation)])
    n = nu.space.arity
    values = [dict() for _ in range(n)]
    for q, event in events.items():
        for p in event:
            for i in range(n):
                values[i][p] = q.rep[i]
    elements = tuple(
        RandomElement(refined.rand.base, values[i]) for i in range(n)
    )
    return refined, elements


def d_metric(nu1: RMeasure, nu2: RMeasure) -> Fraction:
    """Distance between two type measures on the same parameter-free space.

    Computed as the total variation distance; the test suite validates
    this against brute-force minimisation of the probability that two
    joint realizations differ, so the formula is derived, not assumed.
    """
    if nu1.space != nu2.space:
        raise ValidationError("type measures live on different spaces")
    if nu1.space.params:
        raise ValidationError("distance is only defined for parameter-free spaces")
    diff = sum(
        (abs(nu1.weights[q] - nu2.weights[q]) for q in nu1.space.types),
        Fraction(0),
    )
    return diff / 2


# --- Conditional realization -----------------------------------------------------------

class CondRealizationSpec(Record):
    """Per-cell type masses for a conditional realization.

    `params` is the conditioning tuple; its level sets are the cells, in
    order of first appearance along the base.  `beta[(n, q)]` prescribes,
    within cell n, the mass on which the new element realizes the 1-type
    q over that cell's parameter values; each cell's masses must sum to
    the cell's measure.
    """

    params: tuple[RandomElement, ...]
    beta: dict[tuple[int, TypeId], Fraction]


def cells_of(
    rand: Randomization, params: Sequence[RandomElement]
) -> list[tuple[tuple[int, ...], Event]]:
    """Level sets of the parameter tuple, in order of first appearance."""
    cells: dict[tuple[int, ...], set] = {}
    for w in rand.base.points:
        cells.setdefault(tuple(g(w) for g in params), set()).add(w)
    return [(v, frozenset(c)) for v, c in cells.items()]


def realize_conditional(
    rand: Randomization, spec: CondRealizationSpec
) -> tuple[Refinement, RandomElement]:
    """An element whose per-cell type masses match the prescription exactly."""
    if not rand.is_constant:
        raise ValidationError("conditional realization needs a constant family")
    m = rand.structure
    cells = cells_of(rand, spec.params)
    allocations = []
    for n, (value, event) in enumerate(cells):
        cell_space = type_space(m, 1, value)
        masses = []
        for q in cell_space.types:
            b = frac(spec.beta.get((n, q), Fraction(0)))
            if b < 0:
                raise ValidationError("negative cell mass")
            if b > 0:
                masses.append(((n, q), b))
        total = sum((b for _, b in masses), Fraction(0))
        cell_mass = rand.base.mass(event)
        if total != cell_mass:
            raise ValidationError(
                f"cell {n} masses sum to {total}, cell has measure {cell_mass}"
            )
        region = [p for p in rand.base.points if p in event]
        allocations.append((region, masses))
    refined, events = _split_base(rand, allocations)
    values = {}
    for (n, q), event in events.items():
        for p in event:
            values[p] = q.rep[0]
    f = RandomElement(refined.rand.base, values)
    return refined, f


# --- Categoricity battery -----------------------------------------------------------------

class CategoricityReport(Record):
    sizes: dict[int, int]
    realized: dict[int, int]
    lines_: list[str]

    def lines(self) -> list[str]:
        return list(self.lines_)

    def all_pass(self) -> bool:
        return not any(line.startswith("FAIL") for line in self.lines_)


def check_omega_categoricity(structure, n_max: int) -> CategoricityReport:
    """Report type-space sizes and decide the realize battery.

    The battery asks that realize followed by rtype_of_over return every
    measure on S_n; count= reports how many have denominators up to 4.
    One round trip decides it.  realize puts q.rep on an event of mass
    nu(q) and rtype_of_over adds the weights per orbit, so the round trip
    returns the sum over q of nu(q) times the point mass at q.rep's type.
    Give type i of s the weight 2(i+1)/(s(s+1)): positive and pairwise
    distinct.  If that measure comes back, every type has a preimage, so
    q -> type of q.rep is a bijection, and the distinct weights make it
    the identity; then every measure comes back.  The premise, pinned by
    a test: _split_base gives each tag exactly its mass.

    Every type space of a finite structure is finite, so the report can
    never declare failure of categoricity; what it checks is that the
    realization construction does produce exact realizations.
    """
    sizes: dict[int, int] = {}
    realized: dict[int, int] = {}
    lines: list[str] = []
    trivial = FinProbSpace([("w", Fraction(1))])
    rand = Randomization.constant(structure, trivial)
    for n in range(1, n_max + 1):
        space = type_space(structure, n, ())
        s = sizes[n] = len(space)
        lines.append(f"PASS type-space-size n={n} |S_{n}|={s} (finite)")
        nu = RMeasure(
            space,
            {q: Fraction(2 * (i + 1), s * (s + 1)) for i, q in enumerate(space.types)},
        )
        refined, elements = realize(rand, nu)
        if rtype_of_over(refined.rand, elements, space) != nu:
            lines.append(f"FAIL realize-battery n={n} measure {nu!r}")
            continue
        # comb(s+d-1, d) measures are multiples of 1/d; those over 4 (which
        # include those over 2 and 1) and those over 3 share the s vertices
        realized[n] = comb(s + 3, 4) + comb(s + 2, 3) - s
        lines.append(f"PASS realize-battery n={n} count={realized[n]}")
    return CategoricityReport(sizes, realized, lines)
