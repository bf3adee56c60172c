import io
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

import randlab
import randlab.cformulas as cf
from randlab import (
    BudgetError,
    FinProbSpace,
    FinStructure,
    RandomElement,
    Randomization,
    Signature,
    directed_cycle,
    eval_cformula,
    format_cformula,
    parse_cformula,
)
from randlab.cli import main
from randlab.cformulas import (
    CConst,
    CDB,
    CDK,
    CFormula,
    CHalf,
    CInf,
    CMax,
    CMin,
    CMu,
    CNeg,
    CSup,
    CTruncSub,
    EvBot,
    EventTerm,
    EvFormula,
    EvJoin,
    EvMeet,
    EvName,
    EvNot,
    EvSymDiff,
    EvTop,
    _bound_event,
    _dk_elements,
    _formula_binding,
)
from randlab.errors import ParseError, ValidationError, budget
from randlab.formulas import free_vars
from randlab.randomization import Event, _check_binding, d_b, d_k, event_of, mu
from test_record import KINDS, nodes

F = Fraction


def test_parse_and_eval_mu_atom(coin_rand, m2):
    cf = parse_cformula("mu[[ x = y ]]", m2.signature)
    f = coin_rand.element([0, 1])
    g = coin_rand.element([0, 0])
    assert eval_cformula(coin_rand, cf, {"x": f, "y": g}) == F(1, 2)


def test_transfer_value_one(coin_rand, m2):
    cf = parse_cformula("mu[[ exists y (!(x = y)) ]]", m2.signature)
    f = coin_rand.element([0, 1])
    assert eval_cformula(coin_rand, cf, {"x": f}) == 1


def test_inf_attains_zero(coin_rand, m2):
    cf = parse_cformula("inf x (~mu[[ x = g ]])", m2.signature)
    g = coin_rand.element([1, 0])
    assert eval_cformula(coin_rand, cf, {"g": g}) == 0


def test_connective_semantics(coin_rand, m2):
    env = {"f": coin_rand.element([0, 1]), "g": coin_rand.element([0, 0])}
    cases = {
        "~1/4": F(3, 4),
        "1/4 -. 1/2": F(0),
        "1/2 -. 1/4": F(1, 4),
        "half(1/3)": F(1, 6),
        "min(1/3, 1/2)": F(1, 3),
        "max(1/3, 1/2)": F(1, 2),
        "dK(f, g)": F(1, 2),
        "dB([[ f = g ]], bot)": F(1, 2),
        "mu[ top ^ [[ f = g ]] ]": F(1, 2),
        "P[ f = g ]": F(1, 2),
    }
    for text, want in cases.items():
        cf = parse_cformula(text, m2.signature)
        assert eval_cformula(coin_rand, cf, env) == want, text


def test_round_trip(m2):
    texts = [
        "mu[[ x = y ]]",
        "inf x (~mu[[ x = g ]])",
        "max((1/3 -. 1/4), half(mu[ ([[ x = y ]] ^ top) ]))",
        "dB((e1 & e2), bot)",
        "sup x (min(mu[[ x = y ]], dK(x, y)))",
    ]
    for text in texts:
        cf = parse_cformula(text, m2.signature)
        assert parse_cformula(format_cformula(cf), m2.signature) == cf


def test_constants_clamped(m2):
    with pytest.raises(ParseError):
        parse_cformula("3/2", m2.signature)


def test_unbound_variable_reported(coin_rand, m2):
    cf = parse_cformula("mu[[ x = y ]]", m2.signature)
    with pytest.raises(ValidationError):
        eval_cformula(coin_rand, cf, {"x": coin_rand.element([0, 0])})


def test_budget_error_reports_required_count(m2):
    r = Randomization.constant(m2, FinProbSpace.dyadic(4))
    cf = CSup("x", CSup("y", CMu(EvFormula(__import__("randlab").formulas.Eq(
        __import__("randlab").formulas.Var("x"), __import__("randlab").formulas.Var("y"))))))
    with pytest.raises(BudgetError) as err:
        with budget(1000):
            eval_cformula(r, cf, {})
    assert err.value.required == (2 ** 16) ** 2


def test_atomless_defect_via_checker(m2):
    from randlab.axioms import atomless_defect

    r = Randomization.constant(m2, FinProbSpace.dyadic(3))
    assert atomless_defect(r) == F(1, 16)
    skew = Randomization.constant(
        m2, FinProbSpace([(0, F(1, 2)), (1, F(1, 3)), (2, F(1, 6))])
    )
    assert atomless_defect(skew) == F(1, 4)


def test_zero_denominator_is_a_parse_error(m2):
    with pytest.raises(ParseError):
        parse_cformula("1/0", m2.signature)
    with pytest.raises(ParseError):
        parse_cformula("min(1/2, 3 / 0)", m2.signature)
    assert parse_cformula("2 / 4", m2.signature) == parse_cformula("1/2", m2.signature)


def test_deep_nesting_is_a_parse_error(m2):
    with pytest.raises(ParseError):
        parse_cformula("~" * 5000 + "1", m2.signature)
    with pytest.raises(ParseError):
        parse_cformula("half(" * 2000 + "1" + ")" * 2000, m2.signature)
    with pytest.raises(ParseError):
        parse_cformula("mu[[ " + "(" * 400 + "x = x" + ")" * 400 + " ]]", m2.signature)


# --- sup/inf by symmetry classes against the full product --------------------------

# Event terms evaluated sort by sort, apart from the compiled form, so the
# oracle below runs none of the code it checks.
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


def full_product_eval(rand, c, env):
    """Reference semantics: sup/inf range over every random element."""
    if isinstance(c, CConst):
        return c.value
    if isinstance(c, CNeg):
        return 1 - full_product_eval(rand, c.body, env)
    if isinstance(c, CTruncSub):
        left, right = full_product_eval(rand, c.left, env), full_product_eval(rand, c.right, env)
        return max(F(0), left - right)
    if isinstance(c, CHalf):
        return full_product_eval(rand, c.body, env) / 2
    if isinstance(c, (CMin, CMax)):
        pick = min if isinstance(c, CMin) else max
        return pick(full_product_eval(rand, c.left, env), full_product_eval(rand, c.right, env))
    if isinstance(c, CMu):
        return mu(rand, eval_event_term(rand, c.event, env))
    if isinstance(c, CDK):
        return d_k(rand, env[c.left], env[c.right])
    if isinstance(c, CDB):
        return d_b(rand, eval_event_term(rand, c.left, env), eval_event_term(rand, c.right, env))
    ranges = [range(rand.family[w].size) for w in rand.base.points]
    values = [
        full_product_eval(rand, c.body, {**env, c.var: rand.element(combo)})
        for combo in itertools.product(*ranges)
    ]
    return max(values) if isinstance(c, CSup) else min(values)


ORACLE = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
DIGRAPH = Signature(relations={"E": 2})


@hst.composite
def families(draw):
    """1-4 points with non-uniform rational weights, each carrying one of a
    pool of up to three pairwise-distinct random digraphs on 2 or 3
    elements; points may share a weight and a fibre, so interchangeable
    points occur.  Also a random bound element g and a bound event e."""
    rng = draw(hst.randoms(use_true_random=False))
    pool: list[FinStructure] = []
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(2, 3)
        edges = {(a, b) for a in range(size) for b in range(size) if rng.random() < 0.5}
        st = FinStructure(DIGRAPH, size, relations={"E": edges}, name=f"g{len(pool)}")
        if st not in pool:
            pool.append(st)
    n = rng.randint(1, 4)
    raw = [rng.randint(1, 3) for _ in range(n)]
    base = FinProbSpace([(i, F(k, sum(raw))) for i, k in enumerate(raw)])
    rand = Randomization(base, {i: rng.choice(pool) for i in range(n)})
    g = rand.element([rng.randrange(rand.family[w].size) for w in base.points])
    e = frozenset(w for w in base.points if rng.random() < 0.5)
    return rand, {"g": g, "e": e}


def _fo(draw, scope, size):
    terms = sorted(scope) + ["#0", "#1"]  # every fibre has at least two elements
    term = lambda: draw(hst.sampled_from(terms))  # noqa: E731
    kind = draw(hst.integers(0, 4 if size else 1))
    if kind == 0:
        return f"{term()} = {term()}"
    if kind == 1:
        return f"E({term()}, {term()})"
    if kind == 2:
        return f"!({_fo(draw, scope, size - 1)})"
    if kind == 3:
        op = draw(hst.sampled_from(["&", "|"]))
        return f"({_fo(draw, scope, size - 1)} {op} {_fo(draw, scope, size - 1)})"
    return f"exists z (E({term()}, z) & !(z = {term()}))"


def _event(draw, scope, size):
    kind = draw(hst.integers(0, 4 if size else 2))
    if kind == 0:
        return f"[[ {_fo(draw, scope, 1)} ]]"
    if kind == 1:
        return "e"
    if kind == 2:
        return draw(hst.sampled_from(["top", "bot"]))
    if kind == 3:
        return f"!({_event(draw, scope, size - 1)})"
    op = draw(hst.sampled_from(["&", "|", "^"]))
    return f"({_event(draw, scope, size - 1)} {op} {_event(draw, scope, size - 1)})"


def _value(draw, scope, depth, size):
    kind = draw(hst.integers(0, 9 if size else 4))
    var = lambda: draw(hst.sampled_from(sorted(scope)))  # noqa: E731
    if kind == 0:
        return f"mu[[ {_fo(draw, scope, 2)} ]]"
    if kind == 1:
        return f"mu[ {_event(draw, scope, 2)} ]"
    if kind == 2:
        return f"dK({var()}, {var()})"
    if kind == 3:
        return f"dB({_event(draw, scope, 1)}, {_event(draw, scope, 1)})"
    if kind == 4:
        return draw(hst.sampled_from(["0", "1/6", "1/3", "1/2", "2/3", "1"]))
    if kind == 5:
        return f"~{_value(draw, scope, depth, size - 1)}"
    if kind == 6:
        return f"half({_value(draw, scope, depth, size - 1)})"
    if kind in (7, 8):
        op = draw(hst.sampled_from(["min", "max", "-."]))
        left, right = _value(draw, scope, depth, size - 1), _value(draw, scope, depth, size - 1)
        return f"({left} -. {right})" if op == "-." else f"{op}({left}, {right})"
    if depth == 2:
        return _value(draw, scope, depth, size - 1)
    q = draw(hst.sampled_from(["sup", "inf"]))
    x = draw(hst.sampled_from(["x", "y", "g"]))
    return f"{q} {x} ({_value(draw, scope | {x}, depth + 1, size - 1)})"


@hst.composite
def quantified(draw):
    """A sup/inf sentence of nesting depth 1 or 2 over the bound element g
    and the bound event e, with #k literals."""
    q = draw(hst.sampled_from(["sup", "inf"]))
    x = draw(hst.sampled_from(["x", "y"]))
    scope = {"g", x}
    if not draw(hst.booleans()):
        return f"{q} {x} ({_value(draw, scope, 1, 3)})"
    q2 = draw(hst.sampled_from(["sup", "inf"]))
    y = draw(hst.sampled_from(["x", "y", "z", "g"]))
    inner = f"{q2} {y} ({_value(draw, scope | {y}, 2, 3)})"
    beside = _value(draw, scope, 2, 2)
    op = draw(hst.sampled_from(["alone", "min", "max", "-."]))
    if op == "alone":
        return f"{q} {x} ({inner})"
    if op == "-.":
        return f"{q} {x} (({beside} -. {inner}))"
    return f"{q} {x} ({op}({inner}, {beside}))"


@ORACLE
@given(families(), quantified())
def test_sup_inf_match_full_product(family, text):
    rand, env = family
    c = parse_cformula(text, DIGRAPH)
    assert eval_cformula(rand, c, env) == full_product_eval(rand, c, env), text


@hst.composite
def separating_cases(draw):
    """Points sharing one fibre but not their weight or their membership in
    e, and a sup/inf whose extremum needs the quantified element to take
    different values at such points: a mass held at one subset's weight,
    or two masses restricted to e and to its complement."""
    rng = draw(hst.randoms(use_true_random=False))
    raw = [rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
    base = FinProbSpace([(i, F(k, sum(raw))) for i, k in enumerate(raw)])
    fibre = FinStructure(DIGRAPH, rng.randint(2, 3), relations={"E": {(0, 1)}})
    rand = Randomization.constant(fibre, base)
    e = frozenset(w for w in base.points if rng.random() < 0.5)
    if rng.random() < 0.5:
        target = sum((base.weight[w] for w in base.points if rng.random() < 0.5), F(0))
        text = f"inf x (max(mu[[x = #0]] -. {target}, {target} -. mu[[x = #0]]))"
    else:
        q, op = rng.choice([("sup", "min"), ("inf", "max")])
        inside, outside = rng.choice([("e", "!e"), ("!e", "e")])
        text = f"{q} x ({op}(mu[ {inside} & [[x = #0]] ], mu[ {outside} & [[x = #1]] ]))"
    return rand, {"e": e}, text


@ORACLE
@given(separating_cases())
def test_separated_points_match_full_product(case):
    rand, env, text = case
    c = parse_cformula(text, DIGRAPH)
    assert eval_cformula(rand, c, env) == full_product_eval(rand, c, env), text


QUANTIFIER_SHAPES = [
    "sup x (min(mu[[x = #0]], mu[[x = #2]]))",
    "sup x (mu[[E(x, y)]])",
    "inf x (mu[ e | [[E(x, y)]] ])",
    "sup x (dB(e, [[E(x, y)]]))",
    "sup x (mu[[x = y]] -. mu[ e ])",
    "sup x (half(dK(x, y)))",
    "inf x (sup y (dK(x, y)))",
    "sup x (inf y (mu[[E(x, y)]]))",
    "inf x (sup y (min(mu[[E(x, y)]], mu[[E(y, x)]])))",
    "inf x (sup y (mu[ e & [[E(x, y)]] ]))",
    "sup x (inf z (max(dK(x, z), mu[ e ^ [[E(z, y)]] ])))",
    # `half` nested over constants of odd denominator: `half` halves an
    # integer over the call's one denominator, which must stay exact
    "sup x (half(half(min(mu[[E(x, y)]], 1/3))))",
    "inf x (~(half(mu[[x = y]] -. 1/7)))",
    "sup x (half(dK(x, y)) -. half(half(half(3/5))))",
    "inf x (sup z (half(max(min(mu[[E(x, z)]], 2/9), half(dB(e, [[z = y]]))))))",
]


@pytest.mark.parametrize("text", QUANTIFIER_SHAPES)
def test_quantifier_shapes_match_full_product(text):
    c3 = directed_cycle(3)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(2))
    env = {"y": rand.element([2, 0, 1, 1]), "e": frozenset(rand.base.points[1:3])}
    c = parse_cformula(text, c3.signature)
    assert eval_cformula(rand, c, env) == full_product_eval(rand, c, env)


def test_points_of_different_weight_are_not_interchangeable():
    # mu[[x = #0]] = 1/3 needs x = 0 exactly at the lighter point
    rand = Randomization.constant(directed_cycle(3), FinProbSpace([(0, F(2, 3)), (1, F(1, 3))]))
    c = parse_cformula("inf x (max(mu[[x = #0]] -. 1/3, 1/3 -. mu[[x = #0]]))", rand.signature)
    assert eval_cformula(rand, c, {}) == full_product_eval(rand, c, {}) == 0


@pytest.mark.parametrize("text, value", [
    # the nearest mass to 1/3 is 2/7, at the point of weight 2/7
    ("inf x (half(half(max(mu[[x = #0]] -. 1/3, 1/3 -. mu[[x = #0]]))))", F(1, 84)),
    # x = y - 1 everywhere: dK = 1 and E(x, y) holds on all of e
    ("inf x (~half(half(min(dK(x, y), 5/11))) -. half(mu[ e & [[E(x, y)]] ]))", F(163, 308)),
])
def test_half_over_a_non_dyadic_base_is_exact(text, value):
    # weights over 7 and constants over 3 and 11: every `half` must divide
    # an even integer over the call's one denominator
    base = FinProbSpace([(0, F(1, 7)), (1, F(2, 7)), (2, F(4, 7))])
    rand = Randomization.constant(directed_cycle(3), base)
    env = {"y": rand.element([1, 0, 2]), "e": frozenset({0, 2})}
    c = parse_cformula(text, rand.signature)
    assert eval_cformula(rand, c, env) == full_product_eval(rand, c, env) == value


def _visited(monkeypatch, rand, text):
    """Evaluate text and count the random elements sup/inf visit."""
    count = [0]
    enumerate_all = Randomization.all_elements

    def counting(self, groups=None):
        for h in enumerate_all(self, groups):
            count[0] += 1
            yield h

    monkeypatch.setattr(Randomization, "all_elements", counting)
    value = eval_cformula(rand, parse_cformula(text, rand.signature), {})
    return value, count[0]


def test_interchangeable_points_take_multisets(monkeypatch):
    # one class per literal plus the rest, at 8 interchangeable points:
    # multisets of size 8 from 3 values, C(10, 8), instead of 3**8 tuples
    rand = Randomization.constant(directed_cycle(3), FinProbSpace.dyadic(3))
    value, visited = _visited(monkeypatch, rand, "sup x (min(mu[[x = #0]], mu[[x = #1]]))")
    assert value == F(1, 2)
    assert visited == 45


def test_nested_quantifier_visits_few_elements(monkeypatch):
    rand = Randomization.constant(directed_cycle(3), FinProbSpace.dyadic(2))
    value, visited = _visited(monkeypatch, rand, "inf x (sup y (dK(x, y)))")
    assert value == 1
    assert visited < 81 * 81 // 100


def test_an_inner_quantifier_classes_each_fibre_and_value_once(monkeypatch):
    # the inner sup meets each (fibre, value of x) pair again for every x
    # the outer inf visits, and computes its point keys only the first time:
    # each (fibre, x, y) is evaluated at most once per level and atom
    g0 = FinStructure(DIGRAPH, 3, relations={"E": {(0, 1), (1, 1)}}, name="g0")
    g1 = FinStructure(DIGRAPH, 3, relations={"E": {(2, 0)}}, name="g1")
    base = FinProbSpace.dyadic(2)
    rand = Randomization(base, dict(zip(base.points, [g0, g1, g0, g1])))
    c = parse_cformula("inf x (sup y (min(mu[[E(x, y)]], mu[[E(y, x)]])))", DIGRAPH)
    calls = [0]
    original = cf.eval_formula

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(cf, "eval_formula", counting)
    value = eval_cformula(rand, c, {})
    assert calls[0] <= 2 * (2 * 3 * 3) * 2
    monkeypatch.undo()
    assert value == full_product_eval(rand, c, {})


def test_a_subterm_without_atoms_is_evaluated_once(monkeypatch):
    # mu[ e ] reads no atom, so its mass is summed once, when the body is
    # compiled, and not again for each element the sup enumerates
    c3 = directed_cycle(3)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(2))
    env = {"y": rand.element([2, 0, 1, 1]), "e": frozenset(rand.base.points[1:3])}
    c = parse_cformula("sup x (mu[[x = y]] -. mu[ e ])", c3.signature)
    masses = [0]
    mass = cf._COMBINE[CMu]

    def counting_mass(*args):
        masses[0] += 1
        return mass(*args)

    enumerated = [0]
    all_elements = Randomization.all_elements

    def counting_elements(self, groups=None):
        for h in all_elements(self, groups):
            enumerated[0] += 1
            yield h

    monkeypatch.setitem(cf._COMBINE, CMu, counting_mass)
    monkeypatch.setattr(Randomization, "all_elements", counting_elements)
    value = eval_cformula(rand, c, env)
    monkeypatch.undo()
    assert enumerated[0] > 1 and masses[0] == enumerated[0] + 1
    assert value == full_product_eval(rand, c, env)


@pytest.mark.parametrize("depth", [1, 2])
def test_each_quantifier_body_is_compiled_once(monkeypatch, depth):
    # compiling a body binds its variable to one constant element; an inner
    # sup/inf must not be compiled again for each value of the outer variable
    c3 = directed_cycle(3)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(depth))
    points = rand.base.points
    env = {"y": rand.element([2, 0, 1, 1][: len(points)]), "e": frozenset(points[1:3])}
    text = "sup x (inf z (max(dK(x, z), mu[ e ^ [[E(z, y)]] ])))"
    c = parse_cformula(text, c3.signature)
    made = []
    constant = RandomElement.constant.__func__

    def counting(cls, base, a):
        made.append(a)
        return constant(cls, base, a)

    monkeypatch.setattr(RandomElement, "constant", classmethod(counting))
    value = eval_cformula(rand, c, env)
    assert len(made) == sum(isinstance(n, (CSup, CInf)) for n in nodes(c)) == 2
    assert value == full_product_eval(rand, c, env)


def test_default_enumeration_is_the_full_product():
    fibres = {0: FinStructure(DIGRAPH, 3), 1: FinStructure(DIGRAPH, 2)}
    rand = Randomization(FinProbSpace([(0, F(1, 2)), (1, F(1, 2))]), fibres)
    assert [h.values for h in rand.all_elements()] == [
        {0: a, 1: b} for a in range(3) for b in range(2)
    ]


def test_grouped_enumeration_puts_each_value_at_its_point():
    # parts that interleave the points, and a one-point base
    rand = Randomization.constant(directed_cycle(3), FinProbSpace.uniform(3))
    out = [list(h.values.items()) for h in rand.all_elements([((0, 2), (0, 1)), ((1,), (2, 0))])]
    assert out == [
        [(0, a), (1, b), (2, c)] for a, c in [(0, 0), (0, 1), (1, 1)] for b in (2, 0)
    ]
    alone = Randomization.constant(directed_cycle(3), FinProbSpace.uniform(1))
    assert [h.values for h in alone.all_elements([((0,), (1, 2))])] == [{0: 1}, {0: 2}]


# --- invalid environments inside a quantifier body --------------------------------

INVALID_ENVIRONMENTS = [
    ("sup x (mu[[E(x, y)]])", "event", "variable 'y' is not a bound random element"),
    ("sup x (dK(x, y))", "event", "dK arguments must be bound random elements"),
    ("sup x (mu[[E(x, y)]])", "foreign", "element bound to 'y' lives on a different base"),
    ("sup x (dK(x, y))", "foreign", "elements live on a different base"),
    ("inf x (sup z (min(mu[[E(x, z)]], dK(z, y))))", "event", "dK arguments must be bound random elements"),
]


@pytest.mark.parametrize("text, binding, message", INVALID_ENVIRONMENTS)
def test_invalid_environment_in_quantifier_body(monkeypatch, text, binding, message):
    import randlab.cformulas as cf

    c3 = directed_cycle(3)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(2))
    other = Randomization.constant(c3, FinProbSpace.dyadic(1))
    y = frozenset(rand.base.points[:2]) if binding == "event" else other.element([1, 2])

    def no_keys(*_args):
        raise AssertionError("a point key was computed before the environment was checked")

    monkeypatch.setattr(cf, "_point_key", no_keys)
    with pytest.raises(ValidationError) as err:
        eval_cformula(rand, parse_cformula(text, c3.signature), {"y": y})
    assert str(err.value) == message


ENVIRONMENT_FIRST = [
    ("min(mu[[x = #7]], dK(x, q))", "dK arguments must be bound random elements"),
    ("sup y (min(mu[[y = #7]], dK(y, q)))", "dK arguments must be bound random elements"),
    ("min(mu[[x = #7]], mu[[E(x, q)]])", "variable 'q' is not a bound random element"),
]


@pytest.mark.parametrize("text, message", ENVIRONMENT_FIRST)
def test_environment_errors_come_before_values(tmp_path, text, message):
    # #7 is out of range in C3, but the environment is checked before any
    # value is computed, with or without a quantifier
    ws = tmp_path / "ws.rl"
    ws.write_text(
        "structure c3 { universe = 3; relation E/2 = {(0,1), (1,2), (2,0)}; }\n"
        "space dy1 { weights = [1/2, 1/2]; }\n"
        "randomization r { structure = c3; space = dy1; }\n"
        "element f = r [0, 1];\n"
        "event e = r {0};\n"
    )
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["--workspace", str(ws), "eval", "--rand", "r",
                     "--cformula", text, "--bind", "x=f,q=e"])
    assert (code, err.getvalue()) == (2, f"error: {message}\n")


# --- the walks against their explicit forms -----------------------------------------
# The functions below are the sort-by-sort walks that `_parts` replaced, kept
# verbatim as oracles: `cformula_free_kvars`, `_event_kvars`,
# `_quantifier_depth`, `_key_atoms` and `_event_key_atoms`.


def cformula_free_kvars(c: CFormula) -> frozenset[str]:
    """Free random-element variables of a continuous formula."""
    if isinstance(c, CConst):
        return frozenset()
    if isinstance(c, (CNeg, CHalf)):
        return cformula_free_kvars(c.body)
    if isinstance(c, (CTruncSub, CMin, CMax)):
        return cformula_free_kvars(c.left) | cformula_free_kvars(c.right)
    if isinstance(c, CMu):
        return _event_kvars(c.event)
    if isinstance(c, CDK):
        return frozenset({c.left, c.right})
    if isinstance(c, CDB):
        return _event_kvars(c.left) | _event_kvars(c.right)
    if isinstance(c, (CSup, CInf)):
        return cformula_free_kvars(c.body) - {c.var}
    raise TypeError(f"not a continuous formula: {c!r}")


def _event_kvars(e: EventTerm) -> frozenset[str]:
    if isinstance(e, EvFormula):
        return free_vars(e.phi)
    if isinstance(e, (EvTop, EvBot, EvName)):
        return frozenset()
    if isinstance(e, EvNot):
        return _event_kvars(e.body)
    return _event_kvars(e.left) | _event_kvars(e.right)


def _quantifier_depth(c: CFormula) -> int:
    if isinstance(c, (CConst, CDK)):
        return 0
    if isinstance(c, (CNeg, CHalf)):
        return _quantifier_depth(c.body)
    if isinstance(c, (CTruncSub, CMin, CMax)):
        return max(_quantifier_depth(c.left), _quantifier_depth(c.right))
    if isinstance(c, (CMu, CDB)):
        return 0
    if isinstance(c, (CSup, CInf)):
        return 1 + _quantifier_depth(c.body)
    raise TypeError(f"not a continuous formula: {c!r}")


def _key_atoms(
    rand: Randomization, c: CFormula, env: Mapping[str, RandomElement | Event], names: set[str]
) -> tuple:
    """The atoms of c a point key reads, in the order `_eval` meets them.

    env is checked as `_eval` checks it, so an invalid environment raises
    the same error before any key is computed.  Each quantified variable
    stands for a constant element on rand's base.  The bound event names c
    reads are added to `names`.
    """
    if isinstance(c, CConst):
        return ()
    if isinstance(c, (CNeg, CHalf)):
        return _key_atoms(rand, c.body, env, names)
    if isinstance(c, (CTruncSub, CMin, CMax)):
        return _key_atoms(rand, c.left, env, names) + _key_atoms(rand, c.right, env, names)
    if isinstance(c, CMu):
        return _event_key_atoms(rand, c.event, env, names)
    if isinstance(c, CDK):
        f, g = _dk_elements(c, env)
        if f.base != rand.base or g.base != rand.base:
            d_k(rand, f, g)  # raises d_k's error for a foreign base
        return (c,)
    if isinstance(c, CDB):
        return _event_key_atoms(rand, c.left, env, names) + _event_key_atoms(
            rand, c.right, env, names
        )
    if isinstance(c, (CSup, CInf)):
        inner = {**env, c.var: RandomElement.constant(rand.base, 0)}
        return ((c.var, _key_atoms(rand, c.body, inner, names)),)
    raise TypeError(f"not a continuous formula: {c!r}")


def _event_key_atoms(
    rand: Randomization, e: EventTerm, env: Mapping[str, RandomElement | Event], names: set[str]
) -> tuple:
    if isinstance(e, EvFormula):
        binding = _formula_binding(e.phi, env)
        _check_binding(rand, sorted(binding), binding)
        return (e.phi,)
    if isinstance(e, (EvTop, EvBot)):
        return ()
    if isinstance(e, EvName):
        _bound_event(rand, e.name, env)
        names.add(e.name)
        return ()
    if isinstance(e, EvNot):
        return _event_key_atoms(rand, e.body, env, names)
    return _event_key_atoms(rand, e.left, env, names) + _event_key_atoms(
        rand, e.right, env, names
    )


def _outcome(walk, *args):
    """What a walk returns, or the type and message of what it raises."""
    try:
        return walk(*args)
    except Exception as err:
        return type(err), str(err)


def _compiled_atoms(rand, term, env, names):
    return cf._compile(rand, rand.base.denominator, term, env, names)[1]  # atoms ignore `one`


def _key_outcome(walk, rand, term, env):
    names: set[str] = set()
    return _outcome(walk, rand, term, env, names), names


def _walk_environments():
    """Environments for the names random trees use ("x", "y", "E"): valid,
    elements and events swapped, elements on another base, an event off
    the base, and none at all."""
    c3 = directed_cycle(3)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(1))
    foreign = Randomization.constant(c3, FinProbSpace.dyadic(2))
    f, g, event = rand.element([0, 1]), rand.element([2, 2]), frozenset({1})
    return rand, [
        {"x": f, "y": g, "E": event},
        {"x": event, "y": frozenset(), "E": f},
        {"x": foreign.element([0, 1, 2, 0]), "y": foreign.element([1, 1, 1, 1]), "E": event},
        {"x": f, "y": g, "E": frozenset({5})},
        {},
    ]


WALK_RAND, WALK_ENVIRONMENTS = _walk_environments()
WALKS = settings(max_examples=300, deadline=None, derandomize=True)


@WALKS
@given(KINDS["CFormula"])
def test_cformula_walks_match_explicit_forms(c):
    for term in (c, CSup("x", c)):
        assert cf.cformula_free_kvars(term) == cformula_free_kvars(term)
        assert cf._quantifier_depth(term) == _quantifier_depth(term)
        for env in WALK_ENVIRONMENTS:
            assert _key_outcome(_compiled_atoms, WALK_RAND, term, env) == _key_outcome(
                _key_atoms, WALK_RAND, term, env
            )


@WALKS
@given(KINDS["EventTerm"])
def test_event_walks_match_explicit_forms(e):
    assert cf.cformula_free_kvars(e) == _event_kvars(e)
    for env in WALK_ENVIRONMENTS:
        assert _key_outcome(_compiled_atoms, WALK_RAND, e, env) == _key_outcome(
            _event_key_atoms, WALK_RAND, e, env
        )


def test_variable_errors_name_variables_in_sorted_order(tmp_path):
    # frozenset order changes with the hash seed; the messages may not
    ws = tmp_path / "ws.rl"
    ws.write_text(
        "structure m2 { universe = 2; }\n"
        "space dy1 { weights = [1/2, 1/2]; }\n"
        "randomization r1 { structure = m2; space = dy1; }\n"
        "event e = r1 {0};\n"
    )
    src = str(Path(randlab.__file__).resolve().parents[1])
    cases = {
        (): "error: unbound variables ['x', 'y']\n",
        ("--bind", "x=e,y=e"): "error: variable 'x' is not a bound random element\n",
    }
    for bind, message in cases.items():
        argv = [sys.executable, "-m", "randlab.cli", "--workspace", str(ws), "eval",
                "--rand", "r1", "--cformula", "mu[[x = y]]", *bind]
        errors = {
            subprocess.run(
                argv, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
                capture_output=True, text=True,
            ).stderr
            for seed in range(4)
        }
        assert errors == {message}


# --- readings off the point keys -----------------------------------------------------

ERROR_ORDER = [
    ("min(sup y (mu[[y = #8]]), mu[[x = #7]])", "#8"),
    ("min(mu[[x = #7]], sup y (mu[[y = #8]]))", "#7"),
    ("sup y (min(mu[[y = #8]], mu[[x = #7]]))", "#8"),
]


@pytest.mark.parametrize("text, literal", ERROR_ORDER)
def test_value_errors_come_in_evaluation_order(text, literal):
    # an atom outside every sup/inf is evaluated where it is reached, and a
    # sup/inf's atoms are read when its point keys are computed
    c3 = directed_cycle(3)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(2))
    with pytest.raises(ValidationError) as err:
        eval_cformula(rand, parse_cformula(text, c3.signature), {"x": rand.element([0, 1, 2, 0])})
    assert str(err.value) == f"element literal {literal} out of range"


READ_OFF = [
    # (text, depth of dyadic base, eval_formula calls one point key makes at
    # the outer and the inner level, on C3, value or None for the full product)
    ("sup x (mu[[E(x, y)]])", 2, [1], None),
    ("sup x (mu[[E(x, y)]])", 3, [1], None),
    ("inf x (sup z (max(dK(x, z), mu[[E(z, y)]])))", 2, [3, 1], None),
    # the full product has 6561**2 pairs here; z = x + 1 everywhere gives 1
    ("inf x (sup z (max(dK(x, z), mu[[E(z, y)]])))", 3, [3, 1], F(1)),
]


@pytest.mark.parametrize("text, depth, key_cost, value", READ_OFF)
def test_sup_inf_read_atoms_off_the_point_keys(monkeypatch, text, depth, key_cost, value):
    # no event is computed per enumerated element: the only eval_formula
    # calls are the point keys', one key per (group, value) of each level
    c3 = directed_cycle(3)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(depth))
    env = {"y": rand.element([(2 * i + 1) % 3 for i in range(2**depth)])}
    c = parse_cformula(text, c3.signature)
    want = full_product_eval(rand, c, env) if value is None else value

    calls = {"event_of": 0, "eval_formula": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(cf, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(cf, name, counting)
    groups = []  # (level, number of groups) per sup/inf evaluation
    enumerate_all = Randomization.all_elements

    def recording(self, parts=None):
        groups.append((min(len(groups), 1), len(parts)))
        return enumerate_all(self, parts)

    monkeypatch.setattr(Randomization, "all_elements", recording)
    with budget(rand.carrier_size() ** 2):  # the charge counts the full sort
        assert eval_cformula(rand, c, env) == want
    assert calls["event_of"] == 0
    assert 0 < calls["eval_formula"] <= sum(n * c3.size * key_cost[level] for level, n in groups)
