import pytest
from hypothesis import given, settings, strategies as st

from randlab import ParseError, parse_formula, format_formula, free_vars
from randlab.formulas import (
    And,
    Elem,
    Eq,
    Exists,
    Forall,
    Implies,
    Not,
    Or,
    Rel,
    TypeIs,
    Var,
    substitute,
    term_vars,
)
from randlab.structures import Signature
from test_record import KINDS, rebuild

SIG = Signature(relations={"E": 2})


def test_parse_conjunction_and_free_vars():
    phi = parse_formula("E(x,y) & !(x = y)", SIG)
    assert phi == And(Rel("E", (Var("x"), Var("y"))), Not(Eq(Var("x"), Var("y"))))
    assert free_vars(phi) == {"x", "y"}


def test_parse_exists():
    phi = parse_formula("exists z (E(x,z) & E(z,y))", SIG)
    assert isinstance(phi, Exists)
    assert free_vars(phi) == {"x", "y"}


def test_arity_mismatch_is_an_error():
    with pytest.raises(ParseError):
        parse_formula("E(x)", SIG)


def test_unknown_symbol_is_an_error():
    with pytest.raises(ParseError):
        parse_formula("F(x, y)", SIG)


def test_error_carries_position():
    try:
        parse_formula("E(x,y) & ", SIG)
    except ParseError as exc:
        assert exc.position is not None
    else:
        pytest.fail("expected a parse error")


def test_element_literals_parse():
    phi = parse_formula("x = #1", SIG)
    assert phi == Eq(Var("x"), Elem(1))


def test_implication_is_right_associative():
    phi = parse_formula("x = y -> x = z -> y = z", SIG)
    assert isinstance(phi, Implies)
    assert isinstance(phi.right, Implies)


def test_precedence_and_binds_tighter_than_or():
    phi = parse_formula("x = y | x = z & y = z", SIG)
    assert isinstance(phi, Or)
    assert isinstance(phi.right, And)


def _formulas(depth: int):
    atoms = st.sampled_from(
        [
            Eq(Var("x"), Var("y")),
            Eq(Var("z"), Elem(0)),
            Rel("E", (Var("x"), Var("z"))),
            Rel("E", (Var("y"), Var("y"))),
        ]
    )
    if depth == 0:
        return atoms
    sub = _formulas(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Not, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Exists, st.just("w"), sub),
        st.builds(Forall, st.just("w"), sub),
    )


@given(_formulas(3))
def test_printer_round_trips(phi):
    assert parse_formula(format_formula(phi), SIG) == phi


def test_substitute_avoids_capture():
    phi = Exists("z", Eq(Var("z"), Var("x")))
    out = substitute(phi, {"x": Var("z")})
    assert isinstance(out, Exists)
    assert out.var != "z"
    assert free_vars(out) == {"z"}


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_formula("(" * 400 + "x = y" + ")" * 400, SIG)
    with pytest.raises(ParseError):
        parse_formula("!" * 5000 + "x = y", SIG)


def test_overlong_element_literal_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_formula("x = #" + "9" * 5000, SIG)
    assert parse_formula("x = #12", SIG) == Eq(Var("x"), Elem(12))
    with pytest.raises(ParseError):
        parse_formula("x = # 12", SIG)


# --- free_vars is kept on the node ------------------------------------------------

def _tree_walk_free_vars(phi):
    if isinstance(phi, (Eq, Rel, TypeIs)):
        terms = (phi.left, phi.right) if isinstance(phi, Eq) else phi.args
        return frozenset(v for t in terms for v in term_vars(t))
    if isinstance(phi, Not):
        return _tree_walk_free_vars(phi.body)
    if isinstance(phi, (Exists, Forall)):
        return _tree_walk_free_vars(phi.body) - {phi.var}
    return _tree_walk_free_vars(phi.left) | _tree_walk_free_vars(phi.right)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(KINDS["Formula"])
def test_free_vars_kept_on_the_node_match_a_tree_walk(phi):
    shown, hashed, copy = repr(phi), hash(phi), rebuild(phi)
    assert free_vars(phi) == _tree_walk_free_vars(phi)
    assert free_vars(phi) is free_vars(phi)
    assert (repr(phi), hash(phi)) == (shown, hashed) and phi == copy
    with pytest.raises(AttributeError):
        phi._free_vars = frozenset()


def test_free_vars_rejects_a_non_formula():
    for bad in (Var("x"), "x = y", None):
        with pytest.raises(TypeError, match="^not a formula: "):
            free_vars(bad)
