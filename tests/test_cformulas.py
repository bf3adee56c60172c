from fractions import Fraction

import pytest

from randlab import (
    BudgetError,
    FinProbSpace,
    Randomization,
    eval_cformula,
    format_cformula,
    parse_cformula,
)
from randlab.cformulas import CMu, CSup, EvFormula
from randlab.errors import ParseError, ValidationError

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
        eval_cformula(r, cf, {}, budget=1000)
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
