import pytest

from randlab import (
    ParseError,
    Signature,
    ValidationError,
    directed_cycle,
    linear_order,
    parse_structure,
    pure_set,
)
from randlab.structures import FinStructure, format_structure


def test_signature_rejects_duplicates():
    with pytest.raises(ValidationError):
        Signature(relations={"E": 2}, functions={"E": 1})


def test_zero_ary_relation_allowed():
    sig = Signature(relations={"P": 0})
    st = FinStructure(sig, 2, relations={"P": [()]})
    assert st.holds("P", ())


def test_universe_minimum_two():
    with pytest.raises(ValidationError):
        FinStructure(Signature(), 1)


def test_function_table_must_be_total():
    sig = Signature(functions={"f": 1})
    with pytest.raises(ValidationError):
        FinStructure(sig, 2, functions={"f": {(0,): 1}})
    st = FinStructure(sig, 2, functions={"f": {(0,): 1, (1,): 0}})
    assert st.apply("f", (1,)) == 0


def test_constants_in_range():
    sig = Signature(constants=["c"])
    with pytest.raises(ValidationError):
        FinStructure(sig, 2, constants={"c": 5})


def test_parse_structure_round_trip():
    text = (
        "structure c3 { universe = 3; "
        "relation E/2 = {(0,1), (1,2), (2,0)}; }"
    )
    st = parse_structure(text)
    assert st.size == 3
    assert st.holds("E", (0, 1)) and not st.holds("E", (1, 0))
    again = parse_structure(format_structure(st))
    assert again == st


def test_parse_structure_with_function_and_constant():
    text = (
        "structure s { universe = 2; function f/1 = {(0) -> 1, (1) -> 0}; "
        "constant c = 1; }"
    )
    st = parse_structure(text)
    assert st.apply("f", (0,)) == 1
    assert st.constant("c") == 1
    assert parse_structure(format_structure(st)) == st


def test_parse_structure_errors_have_positions():
    with pytest.raises(ParseError):
        parse_structure("structure s { universe = }")
    with pytest.raises(ParseError):
        parse_structure("structure s { universe = 2; bogus x; }")


def test_structure_equality_is_content_based():
    a = parse_structure("structure a { universe = 2; }")
    b = parse_structure("structure b { universe = 2; }")
    assert a.signature == b.signature
    assert a._key_cache[1:] == b._key_cache[1:]


def test_equal_signatures_compare_and_hash_equal():
    sig = Signature(relations={"E": 2, "P": 1}, functions={"f": 1}, constants=("c", "d"))
    for copy in (
        Signature(relations={"P": 1, "E": 2}, functions={"f": 1}, constants=("d", "c")),
        Signature({"E": 2, "P": 1}, {"f": 1}, ["c", "d"]),
    ):
        assert copy is not sig and copy == sig and sig == copy and not copy != sig
        assert hash(copy) == hash(sig) == hash(copy._key_cache)
    for other in (
        Signature(relations={"E": 2}, functions={"f": 1}, constants=("c", "d")),
        Signature(relations={"E": 2, "P": 2}, functions={"f": 1}, constants=("c", "d")),
        Signature(relations={"E": 2, "P": 1, "f": 1}, constants=("c", "d")),
    ):
        assert other != sig and sig != other and not other == sig


def test_equal_structures_compare_and_hash_equal():
    st = directed_cycle(3)
    for copy in (directed_cycle(3), directed_cycle(3, "other"), parse_structure(format_structure(st))):
        assert copy is not st and copy == st and st == copy and not copy != st
        assert hash(copy) == hash(st) == hash(copy._key_cache)
    for other in (directed_cycle(4), linear_order(3), pure_set(3)):
        assert other != st and st != other and not other == st
