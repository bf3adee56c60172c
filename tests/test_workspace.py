from fractions import Fraction

import pytest

from randlab import BudgetError, ParseError, ValidationError, load_workspace, save_workspace

F = Fraction

SAMPLE = """
structure m2 { universe = 2; }
structure c3 { universe = 3; relation E/2 = {(0,1), (1,2), (2,0)}; }
space dy2 { weights = [1/4, 1/4, 1/4, 1/4]; }
space s2 { weights = [1/2, 1/2]; }
randomization r1 { structure = m2; space = dy2; }
randomization mixed { structures = [c3, c3]; space = s2; }
element f = r1 [0, 1, 0, 1];
event e1 = r1 {0, 2};
rmeasure nu { structure = c3; arity = 2; params = (); rtype { q1: 1/3, q2: 2/3 }; }
"""


def test_load_and_lookup():
    ws = load_workspace(SAMPLE)
    assert ws.structure("m2").size == 2
    assert ws.space("dy2").weight[0] == F(1, 4)
    rand = ws.randomization("r1")
    assert rand.carrier_size() == 16
    owner, f = ws.element("f")
    assert owner == "r1" and f(1) == 1
    owner, e1 = ws.event("e1")
    assert e1 == frozenset({0, 2})
    nu = ws.rmeasure("nu")
    assert nu.weights[nu.space.types[1]] == F(1, 3)


def test_rmeasure_type_space_is_budgeted():
    text = SAMPLE.replace("arity = 2; params = ()", "arity = 20; params = ()")
    with pytest.raises(BudgetError) as err:
        load_workspace(text)
    assert err.value.required == 3**20


def test_save_load_round_trip_is_exact():
    ws = load_workspace(SAMPLE)
    text = save_workspace(ws)
    ws2 = load_workspace(text)
    assert save_workspace(ws2) == text
    assert ws2.space("dy2").weight == ws.space("dy2").weight
    assert ws2.rmeasure("nu") == ws.rmeasure("nu")
    assert ws2.element("f")[1] == ws.element("f")[1]


def test_duplicate_names_rejected():
    with pytest.raises(ValidationError):
        load_workspace("structure a { universe = 2; }\nstructure a { universe = 2; }")


def test_unknown_reference_rejected():
    from randlab import ResolutionError

    with pytest.raises(ResolutionError):
        load_workspace("randomization r { structure = nosuch; space = nosp; }")


def test_value_count_validated():
    bad = (
        "structure m2 { universe = 2; }\n"
        "space s { weights = [1/2, 1/2]; }\n"
        "randomization r { structure = m2; space = s; }\n"
        "element f = r [0];"
    )
    with pytest.raises(ValidationError):
        load_workspace(bad)


def test_element_values_checked_against_the_universe():
    head = (
        "structure m2 { universe = 2; }\n"
        "space s { weights = [1/2, 1/2]; }\n"
        "randomization r { structure = m2; space = s; }\n"
    )
    for values in ("[0, 5]", "[0, 1, 0]", "[]"):
        with pytest.raises(ValidationError, match="element f"):
            load_workspace(head + f"element f = r {values};")
    assert load_workspace(head + "element f = r [1, 0]").element("f")[1](0) == 1


def test_rmeasure_entry_outside_the_type_space_rejected():
    text = (
        "structure m2 { universe = 2; }\n"
        "rmeasure nu { structure = m2; arity = 2; params = (); rtype { q0: 1, q7: 1/2 }; }"
    )
    with pytest.raises(ValidationError, match="q7"):
        load_workspace(text)


def test_rmeasure_repeated_entry_is_named():
    text = (
        "structure m2 { universe = 2; }\n"
        "rmeasure nu { structure = m2; arity = 1; params = (); rtype { q0: 1/2, q0: 1/2 }; }"
    )
    with pytest.raises(ValidationError, match="rmeasure nu: entry q0 is repeated"):
        load_workspace(text)


def test_weights_are_rationals():
    with pytest.raises(ParseError):
        load_workspace("space s { weights = [1/0, 1/2]; }")
    with pytest.raises(ParseError):
        load_workspace(
            "structure m2 { universe = 2; }\n"
            "rmeasure nu { structure = m2; arity = 1; rtype { q0: 1/0 }; }"
        )
    # a sign is read, and a negative weight fails validation, not parsing
    with pytest.raises(ValidationError):
        load_workspace("space s { weights = [-1/2, 3/2]; }")
    ws = load_workspace("space s { weights = [2 / 6, 4/6] }")
    assert ws.space("s").weight == {0: F(1, 3), 1: F(2, 3)}


def test_parse_error_on_garbage():
    with pytest.raises(ParseError):
        load_workspace("wibble wobble { }")
