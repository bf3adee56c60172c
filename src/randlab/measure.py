"""Exact finite measure theory: spaces, image measures, conditional
expectation, the pairing <f, mu>, and fiber products.

Everything is a Fraction; the identities checked by the test suite are
equalities, not approximations.  Sample spaces carry strictly positive
weights; points of weight zero only ever appear in extension-problem
witnesses (see `extension`), which are simplex points, not sample spaces.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

from .errors import ValidationError
from .record import Keyed

Point = Hashable


_ONE, _ZERO = Fraction(1), Fraction(0)  # shared by every indicator's values


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class FinProbSpace(Keyed):
    """Finite sample space with positive rational weights summing to one.

    `weight` is a read-only view: the key, the kept hash, `denominator` and
    `numerator`'s integer table are all made from the weights once; the
    weights are checked in those integers."""

    def __init__(self, weights: Mapping[Point, Fraction] | Iterable[tuple[Point, Fraction]]):
        items = list(weights.items()) if isinstance(weights, Mapping) else list(weights)
        self.points: tuple[Point, ...] = tuple(p for p, _ in items)
        self.point_set: frozenset = frozenset(self.points)
        if len(self.point_set) != len(self.points):
            raise ValidationError("duplicate sample points")
        if not self.points:
            raise ValidationError("empty sample space")
        self.weight: Mapping[Point, Fraction] = MappingProxyType({p: frac(w) for p, w in items})
        for p, w in self.weight.items():
            if w.numerator <= 0:
                raise ValidationError(f"weight of {p!r} must be positive, got {w}")
        total, den = sum(self._numerators.values()), self.denominator
        if total != den:
            raise ValidationError(f"weights sum to {Fraction(total, den)}, not 1")
        self._key_cache = tuple((p, self.weight[p]) for p in self.points)

    @classmethod
    def uniform(cls, n: int) -> "FinProbSpace":
        return cls([(i, Fraction(1, n)) for i in range(n)])

    @classmethod
    def dyadic(cls, depth: int) -> "FinProbSpace":
        return cls.uniform(2**depth)

    @cached_property
    def denominator(self) -> int:
        """The common denominator of the weights (their least one)."""
        return math.lcm(*(w.denominator for w in self.weight.values()))

    @cached_property
    def _numerators(self) -> dict[Point, int]:
        den = self.denominator
        return {p: w.numerator * (den // w.denominator) for p, w in self.weight.items()}

    def numerator(self, event: Iterable[Point]) -> int:
        """The total weight of event's points over `denominator`, a repeated
        point counted each time: a sum over one table of the weights'
        numerators."""
        return sum(map(self._numerators.__getitem__, event))

    def mass(self, event: Iterable[Point]) -> Fraction:
        """The total weight of event's points, a repeated point counted each
        time: `numerator(event)` over `denominator`."""
        return Fraction(self.numerator(event), self.denominator)

    def __repr__(self):
        inner = ", ".join(f"{p!r}: {w}" for p, w in self.weight.items())
        return f"FinProbSpace({{{inner}}})"


class MeasurableMap:
    """Total point map between finite point sets."""

    def __init__(
        self,
        domain: tuple[Point, ...],
        codomain: tuple[Point, ...],
        mapping: Mapping[Point, Point],
    ):
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.mapping = dict(mapping)
        cod = set(self.codomain)
        for p in self.domain:
            if p not in self.mapping:
                raise ValidationError(f"map not total: missing {p!r}")
            if self.mapping[p] not in cod:
                raise ValidationError(f"map image {self.mapping[p]!r} outside codomain")

    def __call__(self, p: Point) -> Point:
        return self.mapping[p]


class RationalFn:
    """Total rational-valued function on a finite ground set.

    Equal to a function with the same values on the same points, in any
    domain order; unhashable, as a `Record` holding a list is."""

    def __init__(self, domain: tuple[Point, ...], values: Mapping[Point, Fraction]):
        self.domain = tuple(domain)
        try:
            self.values = {p: frac(values[p]) for p in self.domain}
        except KeyError as missing:
            raise ValidationError(
                f"function not total on its domain: missing {missing.args[0]!r}"
            ) from None
        if len(self.values) != len(self.domain):
            seen: set[Point] = set()
            repeated = next(p for p in self.domain if p in seen or seen.add(p))
            raise ValidationError(f"duplicate domain point {repeated!r}")

    def __call__(self, p: Point) -> Fraction:
        return self.values[p]

    @classmethod
    def indicator(cls, domain: tuple[Point, ...], subset: Iterable[Point]) -> "RationalFn":
        s = set(subset)
        return cls(domain, {p: _ONE if p in s else _ZERO for p in domain})

    @classmethod
    def constant(cls, domain: tuple[Point, ...], c) -> "RationalFn":
        return cls(domain, {p: frac(c) for p in domain})

    def __eq__(self, other):
        return (
            isinstance(other, RationalFn)
            and set(self.domain) == set(other.domain)
            and self.values == other.values
        )


class FiberSpace:
    """Set-theoretic fiber product of two point sets over a common base."""

    def __init__(self, pi_x: MeasurableMap, pi_y: MeasurableMap):
        if set(pi_x.codomain) != set(pi_y.codomain):
            raise ValidationError("fiber legs must share a codomain")
        self.pi_x = pi_x
        self.pi_y = pi_y
        self.points: tuple[tuple[Point, Point], ...] = tuple(
            (x, y)
            for x in pi_x.domain
            for y in pi_y.domain
            if pi_x(x) == pi_y(y)
        )

    def proj_x(self) -> MeasurableMap:
        return MeasurableMap(self.points, self.pi_x.domain, {p: p[0] for p in self.points})

    def proj_y(self) -> MeasurableMap:
        return MeasurableMap(self.points, self.pi_y.domain, {p: p[1] for p in self.points})


# --- Operations ---------------------------------------------------------------

def image_measure(mu: FinProbSpace, pi: MeasurableMap) -> FinProbSpace:
    """Pushforward of mu along pi; zero-weight codomain points are dropped.
    Masses are summed as ints over mu's denominator."""
    for p in mu.points:
        if p not in pi.mapping:
            raise ValidationError(f"map not defined on support point {p!r}")
    acc: dict[Point, int] = {}
    for p, n in mu._numerators.items():
        q = pi(p)
        acc[q] = acc.get(q, 0) + n
    den = mu.denominator
    return FinProbSpace([(q, Fraction(acc[q], den)) for q in pi.codomain if q in acc])


def cond_exp(mu: FinProbSpace, f: RationalFn, pi: MeasurableMap) -> RationalFn:
    """Conditional expectation of f given pi, as a function on the image.

    Characterised by: integrating the result over any S downstairs equals
    integrating f over the preimage of S.  Points whose fiber has measure
    zero are excluded from the output domain (here: never hit points).
    """
    num: dict[Point, Fraction] = {}
    den: dict[Point, Fraction] = {}
    for p in mu.points:
        q = pi(p)
        num[q] = num.get(q, Fraction(0)) + f(p) * mu.weight[p]
        den[q] = den.get(q, Fraction(0)) + mu.weight[p]
    domain = tuple(q for q in pi.codomain if q in den)
    return RationalFn(domain, {q: num[q] / den[q] for q in domain})


def pair(phi: RationalFn, mu: FinProbSpace) -> Fraction:
    """The integral of phi against mu, summed as ints over mu's denominator
    times the lcm of phi's."""
    if set(phi.domain) != set(mu.points):
        raise ValidationError("pairing requires matching ground sets")
    values = phi.values
    scale = math.lcm(*(v.denominator for v in values.values()))
    total = 0
    for p, n in mu._numerators.items():
        v = values[p]
        total += v.numerator * (scale // v.denominator) * n
    return Fraction(total, scale * mu.denominator)


def fiber_product(mu: FinProbSpace, nu: FinProbSpace, fib: FiberSpace) -> FinProbSpace:
    """The fiber product measure on pairs agreeing over the base.

    Requires the two image measures on the base to coincide exactly; the
    weight of (x, y) is mu(x) * nu(y) / base(pi(x)).  Its marginals are mu
    and nu, and the three equivalent rectangle formulas (integrated
    conditional product, and either one-sided integral) agree; the test
    suite checks all three on every rectangle.
    """
    img_x = image_measure(mu, fib.pi_x)
    img_y = image_measure(nu, fib.pi_y)
    if img_x.weight != img_y.weight:
        keys = set(img_x.weight) | set(img_y.weight)
        for z in keys:
            a = img_x.weight.get(z, Fraction(0))
            b = img_y.weight.get(z, Fraction(0))
            if a != b:
                raise ValidationError(
                    f"image measures differ at base point {z!r}: {a} vs {b}"
                )
    weights = []
    for x, y in fib.points:
        if x in mu.weight and y in nu.weight:
            z = fib.pi_x(x)
            weights.append(((x, y), mu.weight[x] * nu.weight[y] / img_x.weight[z]))
    return FinProbSpace(weights)
