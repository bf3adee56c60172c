import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import randlab.extension
from randlab import (
    FeasibleCertificate,
    FinProbSpace,
    InfeasibleEqCertificate,
    InfeasibleIneqCertificate,
    LinFeasProblem,
    ParseError,
    PhiContext,
    RandomElement,
    Randomization,
    RationalFn,
    ValidationError,
    certify_nonforking,
    directed_cycle,
    extend_measure_eq,
    extend_measure_ineq,
    linear_order,
    parse_formula,
    pure_set,
    rtype_of,
)
from randlab.extension import _phase_one, parse_problem

F = Fraction


def format_problem(prob) -> str:
    """The text `parse_problem` reads back as prob."""
    out = []
    for c in prob.constraints:
        vals = ",".join(str(c.fn(p)) for p in prob.ground)
        out.append(f"{c.relation} {c.bound} : {vals}")
    return "\n".join(out) + "\n"


def fn(ground, values):
    return RationalFn(tuple(ground), dict(zip(ground, map(F, values))))


# --- Independent oracle: vertex enumeration over the constrained simplex ---------

def _solve_square(rows, rhs):
    n = len(rows)
    a = [list(map(F, row)) + [F(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def oracle_feasible(prob: LinFeasProblem) -> bool:
    """Enumerate candidate vertices of the constrained simplex.

    A vertex lies on n independent active hyperplanes drawn from: the
    total-mass plane, the constraint planes, and the coordinate planes.
    Every square subsystem is solved and filtered by full feasibility, so
    the polytope is nonempty exactly when some candidate survives.
    """
    ground = prob.ground
    n = len(ground)
    planes = [([F(1)] * n, F(1))]
    for c in prob.constraints:
        planes.append(([c.fn(p) for p in ground], c.bound))
    for x in range(n):
        planes.append(([F(1 if i == x else 0) for i in range(n)], F(0)))

    def satisfies(mu):
        if any(v < 0 for v in mu):
            return False
        if sum(mu) != 1:
            return False
        for c in prob.constraints:
            val = sum(c.fn(p) * mu[i] for i, p in enumerate(ground))
            if c.relation == "=" and val != c.bound:
                return False
            if c.relation == "<=" and not val <= c.bound:
                return False
        return True

    for combo in itertools.combinations(planes, n):
        mu = _solve_square([r for r, _ in combo], [b for _, b in combo])
        if mu is not None and satisfies(mu):
            return True
    return False


# --- Examples --------------------------------------------------------------------

def test_ineq_feasible_example():
    ground = ("a", "b")
    prob = LinFeasProblem(ground, [(fn(ground, (0, 1)), F(1, 2), "<=")])
    cert = extend_measure_ineq(prob)
    assert isinstance(cert, FeasibleCertificate)
    assert cert.verify(prob)


def test_ineq_infeasible_total_mass():
    ground = ("a", "b")
    prob = LinFeasProblem(
        ground,
        [
            (fn(ground, (1, 0)), F(1, 4), "<="),
            (fn(ground, (0, 1)), F(1, 4), "<="),
        ],
    )
    cert = extend_measure_ineq(prob)
    assert isinstance(cert, InfeasibleIneqCertificate)
    assert cert.verify(prob)
    assert all(m >= 0 for m in cert.multipliers)


def test_eq_feasible_example():
    ground = ("a", "b")
    prob = LinFeasProblem(
        ground,
        [
            (fn(ground, (1, 0)), F(3, 5), "="),
            (fn(ground, (0, 1)), F(2, 5), "="),
        ],
    )
    cert = extend_measure_eq(prob)
    assert isinstance(cert, FeasibleCertificate)
    assert cert.weights == {"a": F(3, 5), "b": F(2, 5)}


def test_eq_infeasible_example():
    ground = ("a", "b")
    prob = LinFeasProblem(
        ground,
        [
            (fn(ground, (1, 0)), F(3, 5), "="),
            (fn(ground, (0, 1)), F(3, 5), "="),
        ],
    )
    cert = extend_measure_eq(prob)
    assert isinstance(cert, InfeasibleEqCertificate)
    assert cert.verify(prob)


def test_eq_rejects_bad_constant():
    ground = ("a",)
    with pytest.raises(ValidationError):
        extend_measure_eq(
            LinFeasProblem(ground, [(fn(ground, (1,)), F(1, 2), "=")])
        )


def test_relation_mixing_rejected():
    ground = ("a", "b")
    prob = LinFeasProblem(ground, [(fn(ground, (1, 0)), F(1, 2), "=")])
    with pytest.raises(ValidationError):
        extend_measure_ineq(prob)


def _random_problem(rng, mode):
    n = rng.randint(2, 4)
    ground = tuple(range(n))
    k = rng.randint(1, 4)
    constraints = []
    for _ in range(k):
        values = [F(rng.randint(-2, 3), rng.choice([1, 2, 3])) for _ in range(n)]
        if all(v == 1 for v in values):
            values[0] += 1  # the constant-one row is reserved (bound 1)
        bound = F(rng.randint(-2, 4), rng.choice([1, 2, 3, 4]))
        constraints.append((fn(ground, values), bound, mode))
    return LinFeasProblem(ground, constraints)


@pytest.mark.parametrize("mode", ["<=", "="])
def test_random_instances_agree_with_oracle(mode):
    rng = random.Random(99 if mode == "<=" else 100)
    for _ in range(120):
        prob = _random_problem(rng, mode)
        if mode == "<=":
            cert = extend_measure_ineq(prob)
            oracle_prob = prob
        else:
            cert = extend_measure_eq(prob)
            ground = prob.ground
            one = (RationalFn.constant(ground, 1), F(1), "=")
            oracle_prob = LinFeasProblem(
                ground, [(c.fn, c.bound, c.relation) for c in prob.constraints] + [one]
            )
        assert cert.verify(prob), prob
        assert cert.feasible == oracle_feasible(oracle_prob)


def test_deterministic_certificates():
    rng = random.Random(5)
    prob = _random_problem(rng, "<=")
    a = extend_measure_ineq(prob)
    b = extend_measure_ineq(prob)
    if isinstance(a, FeasibleCertificate):
        assert a.weights == b.weights
    else:
        assert (a.multipliers, a.n) == (b.multipliers, b.n)


def test_deterministic_eq_certificates():
    rng = random.Random(5)
    verdicts = set()
    for _ in range(20):
        prob = _random_problem(rng, "=")
        a = extend_measure_eq(prob)
        b = extend_measure_eq(prob)
        verdicts.add(a.feasible)
        if isinstance(a, FeasibleCertificate):
            assert a.weights == b.weights
        else:
            assert (a.multipliers, a.constant) == (b.multipliers, b.constant)
    assert verdicts == {True, False}


# --- Equality problems against the +/- doubling ------------------------------------

def _doubled(prob: LinFeasProblem) -> LinFeasProblem:
    """The `<=` problem with the mass row adjoined and every row taken with
    both signs: feasible exactly when the equality problem is."""
    ground = prob.ground
    rows = [(RationalFn.constant(ground, 1), F(1))]
    rows += [(c.fn, c.bound) for c in prob.constraints]
    doubled = []
    for f, bound in rows:
        doubled.append((f, bound, "<="))
        doubled.append((RationalFn(ground, {p: -f(p) for p in ground}), -bound, "<="))
    return LinFeasProblem(ground, doubled)


RATIONALS = st.builds(F, st.integers(-2, 3), st.sampled_from([1, 2, 3]))


@st.composite
def eq_problems(draw):
    """Equality problems with the rows stationarity systems have: an explicit
    constant-one row, repeated rows, and indicator rows summing to one."""
    n = draw(st.integers(1, 4))
    ground = tuple(range(n))
    rows: list[tuple[list, F]] = []
    kinds = draw(st.lists(st.sampled_from(["free", "one", "repeat", "split"]), min_size=1, max_size=5))
    for kind in kinds:
        if kind == "one":
            rows.append(([1] * n, F(1)))
        elif kind == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "split":
            cut = draw(st.sets(st.sampled_from(ground)))
            w = draw(st.builds(F, st.integers(0, 4), st.just(4)))
            rows.append(([1 if p in cut else 0 for p in ground], w))
            rows.append(([0 if p in cut else 1 for p in ground], 1 - w))
        else:
            rows.append((draw(st.lists(RATIONALS, min_size=n, max_size=n)), draw(RATIONALS)))
    # a constant-one row must have bound 1
    rows = [(v, F(1) if all(x == 1 for x in v) else b) for v, b in rows]
    return LinFeasProblem(ground, [(fn(ground, v), b, "=") for v, b in rows])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(eq_problems())
def test_eq_verdict_matches_the_doubled_problem(prob):
    cert = extend_measure_eq(prob)
    doubled = _doubled(prob)
    ref = extend_measure_ineq(doubled)
    assert cert.feasible == ref.feasible
    assert cert.verify(prob) and ref.verify(doubled)


def test_eq_certificate_folds_the_mass_row_into_a_constant_one_row():
    ground = ("a", "b")
    rows = [(fn(ground, (1, 0)), F(3, 5), "="), (fn(ground, (0, 1)), F(3, 5), "=")]
    with_one = LinFeasProblem(ground, rows + [(fn(ground, (1, 1)), F(1), "=")])
    cert = extend_measure_eq(with_one)
    assert isinstance(cert, InfeasibleEqCertificate)
    assert cert.constant == 0 and cert.verify(with_one)


@pytest.mark.parametrize("relation", ["<=", "="])
def test_phase_one_gets_one_row_per_constraint_and_slacks_for_le_rows(monkeypatch, relation):
    seen = []
    real = randlab.extension._phase_one

    def recording(rows, rhs):
        seen.append((len(rows), {len(row) for row in rows}))
        return real(rows, rhs)

    monkeypatch.setattr(randlab.extension, "_phase_one", recording)
    ground = (0, 1, 2)
    prob = LinFeasProblem(
        ground,
        [(fn(ground, (1, 0, 2)), F(1, 2), relation), (fn(ground, (0, 1, 1)), F(1, 3), relation)],
    )
    solve = extend_measure_eq if relation == "=" else extend_measure_ineq
    solve(prob)
    k, n = 2, 3
    assert seen == [(k + 1, {n + (k if relation == "<=" else 0)})]


# --- The Fraction simplex and the whole-ground check, kept as oracles ---------------
# Verbatim copies of the Fraction-tableau `_phase_one` and of
# `FeasibleCertificate.verify` summing Fractions over the whole ground set,
# which the integer-row pivots and the integer support-only sums must
# reproduce exactly.  The whole-ground check has one rule added since: a
# weight on a point outside the ground set refuses the witness.

def _oracle_phase_one(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Solve `rows * x = rhs, x >= 0` for feasibility.

    Returns (solution, None) with a basic feasible solution, or
    (None, duals) where the duals y satisfy y.A <= 0 columnwise while
    y.b > 0 (a separating functional proving infeasibility).
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    flip = [Fraction(1)] * m
    tab = [row[:] for row in rows]
    b = rhs[:]
    for i in range(m):
        if b[i] < 0:
            flip[i] = Fraction(-1)
            tab[i] = [-v for v in tab[i]]
            b[i] = -b[i]
    # columns 0..n-1 original, n..n+m-1 artificial; minimise sum of artificials
    for i in range(m):
        tab[i] = tab[i] + [Fraction(1 if j == i else 0) for j in range(m)]
    width = n + m
    basis = [n + i for i in range(m)]
    # objective row holds d_j = z_j - c_j (c_j = 1 on artificial columns);
    # a column with d_j > 0 improves, and optimality means d_j <= 0.
    cost = [
        sum(tab[i][j] for i in range(m)) - (1 if j >= n else 0)
        for j in range(width)
    ]
    obj = sum(b, Fraction(0))

    while True:
        enter = -1
        for j in range(n):  # artificials never re-enter
            if j not in basis and cost[j] > 0:
                enter = j  # Bland: smallest index
                break
        if enter < 0:
            break
        leave = -1
        best: Fraction | None = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = b[i] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise AssertionError("phase-one objective is bounded by construction")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        b[leave] /= piv
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                factor = tab[i][enter]
                tab[i] = [v - factor * w for v, w in zip(tab[i], tab[leave])]
                b[i] -= factor * b[leave]
        factor = cost[enter]
        cost = [v - factor * w for v, w in zip(cost, tab[leave])]
        obj -= factor * b[leave]
        basis[leave] = enter

    if obj == 0:
        x = [Fraction(0)] * n
        for i, j in enumerate(basis):
            if j < n:
                x[j] = b[i]
            elif b[i] != 0:
                raise AssertionError("zero objective with a nonzero artificial")
        return x, None
    # duals y_i = z at the i-th artificial column = d + 1; undo row flips.
    # obj > 0 already certifies y.b > 0, and d_j <= 0 on the original
    # columns gives y.A <= 0 there, which is all Farkas needs.
    duals = [(cost[n + i] + 1) * flip[i] for i in range(m)]
    return None, duals


def _oracle_verify(self, prob: LinFeasProblem) -> bool:
    if not set(self.weights) <= set(prob.ground):
        return False
    if any(w < 0 for w in self.weights.values()):
        return False
    if sum(self.weights.values(), Fraction(0)) != 1:
        return False
    for c in prob.constraints:
        val = sum(
            (c.fn(p) * self.weights.get(p, Fraction(0)) for p in prob.ground),
            Fraction(0),
        )
        if c.relation == "<=" and not val <= c.bound:
            return False
        if c.relation == "=" and val != c.bound:
            return False
    return True


ENTRIES = [F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(5), F(1, 7)]


@st.composite
def phase_one_systems(draw):
    """1-7 rows over 1-9 columns: sometimes an all-ones mass row first, a
    repeated row or column (ratio ties), and a right-hand side either read
    off a known point x >= 0 (feasible) or drawn freely, negatives included
    (the row flips)."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, 9))
    rows = [draw(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        rows[0] = [F(1)] * n
    if m > 1 and draw(st.booleans()):
        rows[draw(st.integers(1, m - 1))] = list(rows[draw(st.integers(0, m - 1))])
    if n > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        for row in rows:
            row[dst] = row[src]
    if draw(st.booleans()):
        point = draw(st.lists(st.sampled_from([F(0), F(1, 3), F(1), F(2, 5)]), min_size=n, max_size=n))
        rhs = [sum((a * x for a, x in zip(row, point)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(st.sampled_from(ENTRIES + [F(-2)]), min_size=m, max_size=m))
    return rows, rhs


def _assert_same_phase_one(rows, rhs):
    want = _oracle_phase_one([row[:] for row in rows], rhs[:])
    got = _phase_one([row[:] for row in rows], rhs[:])
    assert got == want and repr(got) == repr(want)
    return got


@settings(max_examples=300, deadline=None, derandomize=True)
@given(phase_one_systems())
def test_integer_phase_one_matches_the_fraction_tableau(system):
    _assert_same_phase_one(*system)


def test_integer_phase_one_meets_ratio_ties_and_flips():
    """Fixed systems that need the tie-break on the smallest basis index,
    a flipped row, and a pivot row whose denominator changes."""
    seen = set()
    for rows, rhs in [
        ([[F(1), F(1)], [F(1), F(1)]], [F(1), F(1)]),
        # a ratio tie: without the smallest-basis-index tie-break the
        # duals come out (1/8, 1, -1/4), not (1, 1, -2)
        ([[F(0), F(1)], [F(1, 2), F(0)], [F(2), F(1, 2)]], [F(0), F(2), F(0)]),
        ([[F(1), F(1), F(1)], [F(2), F(0), F(1)], [F(0), F(2), F(1)]], [F(1), F(1), F(1)]),
        ([[F(1), F(1)], [F(-1), F(1, 2)]], [F(1), F(-1, 2)]),
        ([[F(1), F(1)], [F(-1), F(-1)]], [F(1), F(1)]),
        ([[F(3), F(1, 7)], [F(5), F(-3, 4)]], [F(2), F(1, 2)]),
    ]:
        x, duals = _assert_same_phase_one(rows, rhs)
        seen.add(x is None)
    assert seen == {True, False}


def _bench_stability_cases():
    """The five randomized cases of the benchmark's `stability` workload,
    with the random element c and the parameter b0 its seed 1301 draws."""
    for st_, text, size, c_vals, b0 in (
        (pure_set(2), "x = y", 2, [0, 1], 1),
        (pure_set(2), "x = y", 3, [1, 1, 0], 0),
        (linear_order(3), "Lt(x, y)", 3, [1, 2, 2], 1),
        (directed_cycle(3), "E(x, y)", 3, [2, 0, 1], 1),
        (directed_cycle(4), "E(x, y)", 4, [1, 2, 1, 3], 1),
    ):
        rand = Randomization.constant(st_, FinProbSpace.uniform(size))
        b = RandomElement.constant(rand.base, b0)
        ctx = PhiContext(st_, parse_formula(text, st_.signature), ("x",), ("y",), ("w",))
        yield ctx, rand, rand.element(c_vals), b


def test_integer_phase_one_on_the_benchmark_stationarity_systems(monkeypatch):
    systems = []
    real = randlab.extension._phase_one

    def recording(rows, rhs):
        systems.append(([row[:] for row in rows], rhs[:]))
        return real(rows, rhs)

    monkeypatch.setattr(randlab.extension, "_phase_one", recording)
    for ctx, rand, c, b in _bench_stability_cases():
        prob, cert = certify_nonforking(ctx, rtype_of(rand, [c], [b]), rtype_of(rand, [b], [b]))
        assert cert.feasible and cert.verify(prob)
        assert _oracle_verify(cert, prob)
    # constraints x types, as the benchmark's systems are sized
    assert [(len(r) - 1, len(r[0])) for r, _ in systems] == [(5, 4), (5, 4), (19, 27), (7, 9), (9, 16)]
    for rows, rhs in systems:
        _assert_same_phase_one(rows, rhs)


WEIGHTS = st.sampled_from([F(0), F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(-1, 2), F(3, 2)])


@st.composite
def weighted_problems(draw):
    """A problem of both relations and weights that are its own witness
    (when it is feasible) or drawn freely: zeros, negatives, and keys
    outside the ground set."""
    n = draw(st.integers(1, 5))
    ground = tuple(range(n))
    k = draw(st.integers(0, 4))
    rel = draw(st.sampled_from(["<=", "="]))
    constraints = []
    for _ in range(k):
        values = draw(st.lists(st.sampled_from(ENTRIES), min_size=n, max_size=n))
        # a constant-one equality must have bound 1
        bound = F(1) if rel == "=" and set(values) == {1} else draw(st.sampled_from(ENTRIES))
        constraints.append((fn(ground, values), bound, rel))
    prob = LinFeasProblem(ground, constraints)
    if draw(st.booleans()):
        cert = (extend_measure_eq if rel == "=" else extend_measure_ineq)(prob)
        if cert.feasible:
            return prob, dict(cert.weights)
    keys = draw(st.sets(st.integers(0, n + 2)))
    return prob, {p: draw(WEIGHTS) for p in sorted(keys)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weighted_problems())
def test_support_only_verify_matches_the_whole_ground_check(case):
    prob, weights = case
    cert = FeasibleCertificate(weights)
    assert cert.verify(prob) is _oracle_verify(cert, prob)


def test_empty_ground_set_rejected():
    for text in ("= 1 : \n", "<= 1 : \n"):
        with pytest.raises(ValidationError, match="empty ground set"):
            parse_problem(text)
    with pytest.raises(ValidationError, match="empty ground set"):
        LinFeasProblem((), [])


def test_problem_text_round_trip():
    text = "<= 1/2 : 0,1\n= 1 : 1,1\n"
    prob = parse_problem(text)
    assert format_problem(prob) == text
    assert prob.constraints[0].bound == F(1, 2)


def test_problem_text_numbers():
    prob = parse_problem("= -1/3 : 0 , -2\n= 4/3 : 1,3\n")
    assert format_problem(prob) == "= -1/3 : 0,-2\n= 4/3 : 1,3\n"
    for bad in ("= 1/0 : 1\n", "= 0.5 : 1\n", "<= 1 : 1,,0\n", "< 1 : 1\n", "= 1 1\n"):
        with pytest.raises(ParseError):
            parse_problem(bad)


# --- The three hand-written Farkas sums, kept as oracles ----------------------------
# Verbatim copies of the two infeasibility `verify` methods, of
# `_integerize_certificate` and of the duals' clearing in `extend_measure_ineq`
# and `extend_measure_eq`, from before they shared one separation test and one
# clearing step; the certificates and verdicts must be the same.  The equality
# check has one rule added since: a multiplier on a `<=` row is at least 0.

def _oracle_ineq_verify(self, prob: LinFeasProblem) -> bool:
    if any(m < 0 for m in self.multipliers) or len(self.multipliers) != len(
        prob.constraints
    ):
        return False
    for p in prob.ground:
        total = sum(
            m * c.fn(p) for m, c in zip(self.multipliers, prob.constraints)
        )
        if not total >= self.n:
            return False
    bound_total = sum(
        m * c.bound for m, c in zip(self.multipliers, prob.constraints)
    )
    return bound_total < self.n


def _oracle_eq_verify(self, prob: LinFeasProblem) -> bool:
    if len(self.multipliers) != len(prob.constraints):
        return False
    for m, c in zip(self.multipliers, prob.constraints):
        if c.relation == "<=" and m < 0:
            return False
    for p in prob.ground:
        total = self.constant + sum(
            m * c.fn(p) for m, c in zip(self.multipliers, prob.constraints)
        )
        if not total >= 0:
            return False
    bound_total = self.constant + sum(
        m * c.bound for m, c in zip(self.multipliers, prob.constraints)
    )
    return bound_total < 0


def _oracle_integerize_certificate(
    prob: LinFeasProblem, u: list[Fraction], y0: Fraction
) -> InfeasibleIneqCertificate:
    """Clear denominators and pick an integer threshold n that still works."""
    den = math.lcm(*[f.denominator for f in u + [y0]]) if u else y0.denominator
    m = [int(ui * den) for ui in u]
    lhs_min = min(
        sum((mi * c.fn(p) for mi, c in zip(m, prob.constraints)), Fraction(0))
        for p in prob.ground
    )
    bound_total = sum(
        (mi * c.bound for mi, c in zip(m, prob.constraints)), Fraction(0)
    )
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


def _oracle_ineq_certificate(prob: LinFeasProblem, res: list[Fraction]) -> InfeasibleIneqCertificate:
    # With u_i = -y_i >= 0:  sum u_i fn_i >= y_0 pointwise  and
    # sum u_i bound_i < y_0.
    y0 = res[0]
    u = [-d for d in res[1:]]
    for i, ui in enumerate(u):
        if ui < 0:
            # numeric impossibility for exact arithmetic; guard anyway
            raise AssertionError(f"negative dual multiplier u[{i}] = {ui}")
    return _oracle_integerize_certificate(prob, u, y0)


def _oracle_eq_certificate(prob: LinFeasProblem, res: list[Fraction]) -> InfeasibleEqCertificate:
    one = RationalFn.constant(prob.ground, 1)
    ones = [i for i, c in enumerate(prob.constraints) if c.fn == one]
    den = math.lcm(*(y.denominator for y in res))
    constant, *multipliers = (int(-y * den) for y in res)
    if ones:
        multipliers[ones[0]] += constant
        constant = 0
    cert = InfeasibleEqCertificate(multipliers, constant)
    if not cert.verify(prob):
        raise AssertionError("equality certificate failed to verify")
    return cert


@st.composite
def farkas_cases(draw):
    """A problem of either relation, as `_random_problem` makes them, or an
    equality problem with constant-one rows, which the certificate folds in;
    and free multipliers and a constant, for problems of either verdict."""
    rel = draw(st.sampled_from(["<=", "="]))
    if rel == "=" and draw(st.booleans()):
        prob = draw(eq_problems())
    else:
        prob = _random_problem(draw(st.randoms(use_true_random=False)), rel)
    k = len(prob.constraints)
    free = draw(st.lists(st.integers(-3, 3), min_size=max(k - 1, 0), max_size=k + 1))
    return rel, prob, free, draw(st.integers(-4, 4))


def _perturbed(multipliers: list[int], threshold: int):
    """The certificate's numbers with one thing off: a multiplier +-1 or
    negated, the threshold +-1, one multiplier too many or too few."""
    yield multipliers, threshold
    for i in range(len(multipliers)):
        for changed in (multipliers[i] + 1, multipliers[i] - 1, -multipliers[i] - 1):
            yield multipliers[:i] + [changed] + multipliers[i + 1:], threshold
    yield multipliers, threshold + 1
    yield multipliers, threshold - 1
    yield multipliers + [0], threshold
    yield multipliers + [1], threshold
    yield multipliers[:-1], threshold


@settings(max_examples=300, deadline=None, derandomize=True)
@given(farkas_cases())
def test_farkas_certificates_and_verdicts_match_the_hand_written_sums(case):
    rel, prob, free, threshold = case
    res = randlab.extension._solve_feasibility(prob)
    candidates = [(free, threshold)]
    if not isinstance(res, FeasibleCertificate):
        if rel == "<=":
            cert, want = extend_measure_ineq(prob), _oracle_ineq_certificate(prob, res)
            candidates += _perturbed(cert.multipliers, cert.n)
            # n is the floor of the least pointwise sum, so n + 1 exceeds it
            assert not InfeasibleIneqCertificate(cert.multipliers, cert.n + 1).verify(prob)
        else:
            cert, want = extend_measure_eq(prob), _oracle_eq_certificate(prob, res)
            candidates += _perturbed(cert.multipliers, cert.constant)
        assert repr(cert) == repr(want)
    for multipliers, t in candidates:
        ineq, eq = InfeasibleIneqCertificate(multipliers, t), InfeasibleEqCertificate(multipliers, t)
        assert ineq.verify(prob) is _oracle_ineq_verify(ineq, prob), (multipliers, t)
        assert eq.verify(prob) is _oracle_eq_verify(eq, prob), (multipliers, t)
        if len(multipliers) != len(prob.constraints):
            assert not ineq.verify(prob) and not eq.verify(prob)
        if any(m < 0 for m in multipliers):
            assert not ineq.verify(prob)


# --- Integer witness checks against the Fraction sums, and the two refusals ---------

def test_a_witness_with_weight_off_the_ground_set_is_refused():
    prob = parse_problem("= 1/2 : 1,0\n")
    assert FeasibleCertificate({0: F(1, 2), 1: F(1, 2)}).verify(prob)
    for weights in ({0: F(1, 2), "ghost": F(1, 2)}, {0: F(1, 2), 1: F(1, 2), "ghost": F(0)}):
        cert = FeasibleCertificate(weights)
        assert not cert.verify(prob) and not _oracle_verify(cert, prob)


def test_an_equality_certificate_takes_no_negative_multiplier_on_a_le_row():
    le = parse_problem("<= 1 : 0,0\n")
    assert extend_measure_ineq(le).feasible
    cert = InfeasibleEqCertificate([-1], 0)
    assert not cert.verify(le) and not _oracle_eq_verify(cert, le)
    # the same numbers do prove `<0, mu> = 1` infeasible
    eq = parse_problem("= 1 : 0,0\n")
    assert cert.verify(eq) and _oracle_eq_verify(cert, eq)


@st.composite
def farkas_witnesses(draw):
    """A `farkas_cases` problem with its witness, the witness with a third or
    a seventh moved from one point to another, or weights in 21sts summing
    to one, negatives included."""
    _, prob, _, _ = draw(farkas_cases())
    ground = prob.ground
    res = randlab.extension._solve_feasibility(prob)
    if isinstance(res, FeasibleCertificate) and draw(st.booleans()):
        weights = dict(res.weights)
        if draw(st.booleans()):
            src, dst, *_ = draw(st.permutations(ground))
            shift = draw(st.sampled_from([F(1, 3), F(1, 7), F(2, 21)]))
            weights[src] -= shift
            weights[dst] += shift
        return prob, weights
    k = len(ground) - 1
    parts = draw(st.lists(st.builds(F, st.integers(-7, 21), st.just(21)), min_size=k, max_size=k))
    return prob, dict(zip(ground, parts + [1 - sum(parts)]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(weighted_problems(), farkas_witnesses()))
def test_integer_verify_matches_the_fraction_sums(case):
    prob, weights = case
    cert = FeasibleCertificate(weights)
    assert cert.verify(prob) is _oracle_verify(cert, prob)


def test_integer_verify_on_thirds_and_sevenths():
    ground = (0, 1, 2)
    weights = {0: F(1, 3), 1: F(2, 7), 2: F(8, 21)}
    values = (F(1, 7), F(2, 3), F(-1, 2))
    exact = F(1, 21) + F(4, 21) - F(4, 21)
    off = F(1, 2 * 21 * 21)
    for relation, bound, want in (
        ("=", exact, True), ("=", exact + off, False), ("=", exact - off, False),
        ("<=", exact, True), ("<=", exact + off, True), ("<=", exact - off, False),
    ):
        prob = LinFeasProblem(ground, [(fn(ground, values), bound, relation)])
        for w, ok in (
            (weights, want),
            ({0: F(1, 3), 1: F(2, 7), 2: F(7, 21)}, False),  # mass 20/21
            ({0: F(-1, 7), 1: F(16, 21), 2: F(8, 21)}, False),  # mass 1, one weight negative
        ):
            cert = FeasibleCertificate(w)
            assert cert.verify(prob) is _oracle_verify(cert, prob) is ok, (relation, bound, w)
