"""Measure-extension problems as exact linear feasibility with certificates.

`extend_measure_eq` decides whether a probability measure exists meeting
a family of integral constraints, each `<=` or `=`; `extend_measure_ineq`
is the same decision on a family of `<=` rows alone, its infeasibility
certificate printed as multiplicities and an integer threshold.  The
decision is one phase-one simplex in standard form `A x = b, x >= 0`: the
mass row, one row per constraint, and a slack column for each `<=` row
only; by Farkas' lemma its duals, cleared to integers in one step
(`_cleared`), give the infeasibility certificate.  Either a witness
measure (zero weights allowed: a simplex point, not a sample space) or an
integer-coefficient infeasibility certificate is returned; both re-verify
against the problem data by exact arithmetic.  Both kinds of
infeasibility certificate go through one separation test, `_separates`:
integer multipliers m_i and a constant c with sum m_i * fn_i + c >= 0 at
every point while sum m_i * bound_i + c < 0 (an inequality certificate
has m_i >= 0 and c = -n; an equality certificate has m_i >= 0 on its
`<=` rows).
A witness puts weight on ground-set points only, and is checked in ints.

The pivot engine is a dictionary-free phase-one simplex with Bland's
rule, so runs are deterministic and never cycle.  Each tableau row is a
list of ints over one positive int denominator, pivoted fraction-free;
the arithmetic is exact, so it makes the same Bland pivots and returns
the same Fractions as a Fraction tableau.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Literal, Sequence

from .errors import ParseError, ValidationError
from .lexer import Lexer, parse_numbers
from .measure import Point, RationalFn, frac
from .record import Record


class Constraint(Record):
    fn: RationalFn
    bound: Fraction
    relation: Literal["<=", "="]


class LinFeasProblem:
    """Ground set + constraints `<fn, mu> REL bound` on a probability measure."""

    def __init__(self, ground: Sequence[Point], constraints: Iterable[tuple[RationalFn, Fraction, str]]):
        self.ground: tuple[Point, ...] = tuple(ground)
        if not self.ground:
            raise ValidationError("empty ground set")
        self.ground_set = frozenset(self.ground)
        if len(self.ground_set) != len(self.ground):
            raise ValidationError("duplicate ground-set points")
        self.constraints: list[Constraint] = []
        for fn, bound, rel in constraints:
            if rel not in ("<=", "="):
                raise ValidationError(f"bad relation {rel!r}")
            if fn.values.keys() != self.ground_set:
                raise ValidationError("constraint function domain mismatch")
            self.constraints.append(Constraint(fn, frac(bound), rel))  # type: ignore[arg-type]

    def relations(self) -> set[str]:
        return {c.relation for c in self.constraints}


class FeasibleCertificate(Record):
    """A sub-simplex point satisfying every constraint exactly: weights on
    ground-set points only, none negative, summing to one."""

    weights: dict[Point, Fraction]

    feasible = True

    def verify(self, prob: LinFeasProblem) -> bool:
        """Checked in ints: the weights over their common denominator d, each
        constraint's values over theirs, e, and the sum of the products, which
        is d * e times the integral, cross-multiplied with the bound."""
        weights = self.weights
        if not weights.keys() <= prob.ground_set:
            return False
        d = math.lcm(*(w.denominator for w in weights.values()))
        # zero weights add nothing: sum over the support, in ground order
        support = [
            (p, w.numerator * (d // w.denominator)) for p in prob.ground if (w := weights.get(p))
        ]
        if any(n < 0 for _, n in support) or sum(n for _, n in support) != d:
            return False
        for c in prob.constraints:
            values = c.fn.values
            terms = [(values[p], n) for p, n in support]
            e = math.lcm(*(v.denominator for v, _ in terms))
            total = sum(v.numerator * (e // v.denominator) * n for v, n in terms)
            lhs, rhs = total * c.bound.denominator, c.bound.numerator * d * e
            if not (lhs <= rhs if c.relation == "<=" else lhs == rhs):
                return False
        return True


class InfeasibleIneqCertificate(Record):
    """Multiplicities m_i >= 0 and an integer n with
    sum m_i * fn_i >= n pointwise while sum m_i * bound_i < n."""

    multipliers: list[int]
    n: int

    feasible = False

    def verify(self, prob: LinFeasProblem) -> bool:
        return all(m >= 0 for m in self.multipliers) and _separates(
            prob, self.multipliers, -self.n
        )


class InfeasibleEqCertificate(Record):
    """Integers m_i (plus a coefficient on the constant-one function), at
    least 0 on `<=` rows, with  sum m_i * fn_i + constant >= 0  pointwise
    while  sum m_i * bound_i + constant < 0."""

    multipliers: list[int]
    constant: int = 0

    feasible = False

    def verify(self, prob: LinFeasProblem) -> bool:
        # a negative multiplier would turn a `<=` row's bound the wrong way
        signs_ok = all(
            m >= 0 for m, c in zip(self.multipliers, prob.constraints) if c.relation == "<="
        )
        return signs_ok and _separates(prob, self.multipliers, self.constant)


Certificate = FeasibleCertificate | InfeasibleIneqCertificate | InfeasibleEqCertificate


def _combined(prob: LinFeasProblem, multipliers: list[int]) -> tuple[Fraction, Fraction] | None:
    """The least value over the ground set of sum m_i * fn_i, and
    sum m_i * bound_i; None unless there is one multiplier per constraint."""
    if len(multipliers) != len(prob.constraints):
        return None
    pairs = list(zip(multipliers, prob.constraints))
    lhs_min = min(sum((m * c.fn(p) for m, c in pairs), Fraction(0)) for p in prob.ground)
    return lhs_min, sum((m * c.bound for m, c in pairs), Fraction(0))


def _separates(prob: LinFeasProblem, multipliers: list[int], constant: int) -> bool:
    """Farkas' test: sum m_i * fn_i + constant >= 0 at every point while
    sum m_i * bound_i + constant < 0.  Integrating the first against a
    measure that met the constraints would give the second, so none does."""
    sums = _combined(prob, multipliers)
    return sums is not None and sums[0] + constant >= 0 and sums[1] + constant < 0


# --- Phase-one simplex ---------------------------------------------------------

def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """The row of ints over `den`, with the gcd of all of them divided out."""
    g = math.gcd(den, *row)
    if g > 1:
        return [v // g for v in row], den // g
    return row, den


def _phase_one(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Solve `rows * x = rhs, x >= 0` for feasibility.

    Returns (solution, None) with a basic feasible solution, or
    (None, duals) where the duals y satisfy y.A <= 0 columnwise while
    y.b > 0 (a separating functional proving infeasibility).

    Each tableau row, the cost row included, is a list of ints over one
    positive int denominator, its last entry the right-hand side; the
    basic column of row i holds that denominator.  Pivots are
    fraction-free, in the manner of Bareiss (1968), with each row's gcd
    divided out; they are exact, so every decision is the one a Fraction
    tableau would make.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    width = n + m
    flip = [1] * m
    tab: list[list[int]] = []
    den: list[int] = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        if b < 0:
            flip[i] = -1
            row, b = [-v for v in row], -b
        d = math.lcm(*(v.denominator for v in row), b.denominator)
        ints = [v.numerator * (d // v.denominator) for v in row]
        # columns 0..n-1 original, n..n+m-1 artificial, then the rhs
        ints += [d if j == i else 0 for j in range(m)]
        ints.append(b.numerator * (d // b.denominator))
        tab.append(ints)
        den.append(d)
    basis = [n + i for i in range(m)]
    # objective row holds d_j = z_j - c_j (c_j = 1 on artificial columns),
    # its last entry the objective; a column with d_j > 0 improves, and
    # optimality means d_j <= 0.  The artificial columns start at 1 - 1 = 0.
    cden = math.lcm(*den)
    scale = [cden // d for d in den]
    cost = [sum(s * t[j] for s, t in zip(scale, tab)) for j in range(n)]
    cost += [0] * m
    cost.append(sum(s * t[width] for s, t in zip(scale, tab)))

    while True:
        enter = -1
        for j in range(n):  # artificials never re-enter
            if j not in basis and cost[j] > 0:
                enter = j  # Bland: smallest index
                break
        if enter < 0:
            break
        # the ratio b_i / tab_i[e] is B_i / T_i[e]: the row denominators
        # cancel, and the positive T_i[e] cross-multiply
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                here = tab[i][width] * tab[leave][enter]
                best = tab[leave][width] * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise AssertionError("phase-one objective is bounded by construction")
        # row l becomes row_l / tab_l[e]: its ints over T_l[e], whose basic
        # column then holds the denominator
        tab[leave], den[leave] = _reduced(tab[leave], tab[leave][enter])
        prow, p = tab[leave], den[leave]
        for i in range(m):
            a = tab[i][enter]
            if i != leave and a:
                row = [p * v - a * w for v, w in zip(tab[i], prow)]
                tab[i], den[i] = _reduced(row, den[i] * p)
        a = cost[enter]
        cost, cden = _reduced([p * v - a * w for v, w in zip(cost, prow)], cden * p)
        basis[leave] = enter

    if cost[width] == 0:
        x = [Fraction(0)] * n
        for i, j in enumerate(basis):
            if j < n:
                x[j] = Fraction(tab[i][width], den[i])
            elif tab[i][width] != 0:
                raise AssertionError("zero objective with a nonzero artificial")
        return x, None
    # duals y_i = z at the i-th artificial column = d + 1; undo row flips.
    # an objective > 0 already certifies y.b > 0, and d_j <= 0 on the original
    # columns gives y.A <= 0 there, which is all Farkas needs.
    duals = [Fraction((cost[n + i] + cden) * flip[i], cden) for i in range(m)]
    return None, duals


def _solve_feasibility(prob: LinFeasProblem) -> FeasibleCertificate | list[Fraction]:
    """Phase one in standard form: the mass row `<1, mu> = 1`, one row per
    constraint, and a slack column for each `<=` row only.

    Returns a verified witness, or the duals: y_0 for the mass row and y_i
    for constraint i, with y_0 + sum y_i fn_i <= 0 pointwise, y_i <= 0 on
    `<=` rows (their slack columns), and y_0 + sum y_i bound_i > 0.
    """
    ground = prob.ground
    slacks = [i for i, c in enumerate(prob.constraints) if c.relation == "<="]
    rows = [[Fraction(1)] * len(ground) + [Fraction(0)] * len(slacks)]
    rhs = [Fraction(1)]
    for i, c in enumerate(prob.constraints):
        values = c.fn.values
        rows.append([values[p] for p in ground] + [Fraction(1 if j == i else 0) for j in slacks])
        rhs.append(c.bound)
    x, duals = _phase_one(rows, rhs)
    if duals is not None:
        return duals
    assert x is not None
    cert = FeasibleCertificate({p: x[i] for i, p in enumerate(ground)})
    if not cert.verify(prob):
        raise AssertionError("simplex produced a non-verifying witness")
    return cert


def _cleared(duals: list[Fraction]) -> list[int]:
    """The negated duals times the lcm of all their denominators."""
    den = math.lcm(*(y.denominator for y in duals))
    return [int(-y * den) for y in duals]


def _integerize_certificate(prob: LinFeasProblem, m: list[int]) -> InfeasibleIneqCertificate:
    """Scale the cleared multipliers and pick an integer threshold n."""
    lhs_min, bound_total = _combined(prob, m)
    gap = lhs_min - bound_total
    if gap <= 0:
        raise AssertionError("dual certificate does not separate")
    scale = 1
    while scale * gap < 1:
        scale *= 2
    m = [mi * scale for mi in m]
    lhs_min *= scale
    bound_total *= scale
    # the interval (bound_total, lhs_min] now has length >= 1, so the
    # floor of its right end is a valid integer threshold
    n = math.floor(lhs_min)
    assert n > bound_total
    cert = InfeasibleIneqCertificate(m, n)
    if not cert.verify(prob):
        raise AssertionError("integerised certificate failed to verify")
    return cert


# --- Public operations ----------------------------------------------------------

def extend_measure_ineq(prob: LinFeasProblem) -> Certificate:
    """Decide `exists mu: <fn_i, mu> <= bound_i for all i` with certificates.

    The decision is `extend_measure_eq`'s; an infeasible verdict is printed
    as multiplicities m_i >= 0 and an integer threshold n."""
    if prob.relations() - {"<="}:
        raise ValidationError("extend_measure_ineq accepts only <= constraints")
    cert = extend_measure_eq(prob)
    if isinstance(cert, FeasibleCertificate):
        return cert
    return _integerize_certificate(prob, cert.multipliers)


def extend_measure_eq(prob: LinFeasProblem) -> Certificate:
    """Decide `exists mu: <fn_i, mu> REL_i bound_i for all i`, each REL_i
    `<=` or `=`, with certificates.

    The constant-one constraint `<1, mu> = 1` is the solver's mass row; a
    constant-one `=` constraint with a different bound is rejected (a
    constant-one `<=` row is an ordinary row).  The negated duals, cleared
    of denominators, are the certificate: the mass row's coefficient folds
    into a constant-one `=` constraint when there is one and is the
    certificate's `constant` otherwise.
    """
    ones = [
        i for i, c in enumerate(prob.constraints)
        if c.relation == "=" and all(v == 1 for v in c.fn.values.values())
    ]
    for c in (prob.constraints[i] for i in ones):
        if c.bound != 1:
            raise ValidationError(f"constant-one constraint bound {c.bound} != 1")
    res = _solve_feasibility(prob)
    if isinstance(res, FeasibleCertificate):
        return res
    constant, *multipliers = _cleared(res)
    if ones:
        multipliers[ones[0]] += constant
        constant = 0
    cert = InfeasibleEqCertificate(multipliers, constant)
    if not cert.verify(prob):
        raise AssertionError("equality certificate failed to verify")
    return cert


# --- Text interchange -----------------------------------------------------------

def _constraint_line(tk: Lexer) -> tuple[str, Fraction, list[Fraction]]:
    rel = tk.next()[1]
    if rel not in ("<=", "="):
        raise ParseError(f"expected <= or =, got {rel!r}", 0)
    bound = tk.rational()
    tk.expect(":")
    return rel, bound, tk.separated(tk.rational)


def parse_problem(text: str) -> LinFeasProblem:
    """One constraint per line: `<=|= <rational> : v1,v2,...,vk`."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    rows = []
    width = None
    for ln in lines:
        try:
            rel, bound, values = parse_numbers(ln, _constraint_line)
        except ParseError as exc:
            raise ParseError(f"constraint line {ln!r}: {exc}") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise ValidationError("constraint rows have differing widths")
        rows.append((rel, bound, values))
    if width is None:
        raise ValidationError("empty problem")
    pts = tuple(range(width))
    constraints = [
        (RationalFn(pts, dict(zip(pts, values))), bound, rel)
        for rel, bound, values in rows
    ]
    return LinFeasProblem(pts, constraints)
