import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import randlab.extension
from randlab import (
    FeasibleCertificate,
    InfeasibleEqCertificate,
    InfeasibleIneqCertificate,
    LinFeasProblem,
    ParseError,
    RationalFn,
    ValidationError,
    extend_measure_eq,
    extend_measure_ineq,
)
from randlab.extension import format_problem, parse_problem

F = Fraction


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
