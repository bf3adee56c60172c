"""The `Record` contract, checked against `@dataclass(frozen=True)` twins.

Every Record class in randlab gets a test-local twin that `dataclasses`
builds from the same field list and defaults.  Random formula and
cformula trees must print, compare and hash exactly as their twins do, so
sets of nodes iterate in the same order as when the nodes were
dataclasses.  The runs are derandomized.
"""

import dataclasses
import itertools
import sys
import typing
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import randlab
from conftest import run_fresh
from randlab import axioms, cformulas, extension, formulas, rtypes, semantics, stability
from randlab.record import Keyed, Record
from randlab.structures import pure_set

RECORDS = {
    c
    for m in (formulas, cformulas, semantics, stability, rtypes, extension, axioms)
    for c in vars(m).values()
    if isinstance(c, type) and issubclass(c, Record) and c is not Record
}


def _twin_class(cls):
    fields = [
        (n, object, dataclasses.field(default=vars(cls)[n])) if n in vars(cls) else (n, object)
        for n in cls.__annotations__
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


TWINS = {cls: _twin_class(cls) for cls in RECORDS}


def twin(x):
    if isinstance(x, Record):
        return TWINS[type(x)](*(twin(getattr(x, n)) for n in type(x).__annotations__))
    if isinstance(x, tuple):
        return tuple(twin(v) for v in x)
    return x


def rebuild(x):
    """A fresh copy of a tree, built with keyword arguments."""
    if isinstance(x, Record):
        return type(x)(**{n: rebuild(getattr(x, n)) for n in type(x).__annotations__})
    if isinstance(x, tuple):
        return tuple(rebuild(v) for v in x)
    return x


def nodes(x):
    if isinstance(x, Record):
        yield x
        for n in type(x).__annotations__:
            yield from nodes(getattr(x, n))
    elif isinstance(x, tuple):
        for v in x:
            yield from nodes(v)


# --- Random trees, drawn from the field annotations --------------------------------

def _base(annotation: str) -> tuple[str, bool]:
    """('Term', True) for `tuple["Term", ...]`, ('Formula', False) for `"Formula"`."""
    name = annotation.replace('"', "").replace("'", "")
    if name.startswith("tuple["):
        return name[len("tuple["):].split(",")[0].strip(), True
    return name, False


def _field(annotation: str, kinds: dict):
    name, many = _base(annotation)
    return st.lists(kinds[name], max_size=3).map(tuple) if many else kinds[name]


def _builds(classes, kinds: dict):
    return st.one_of(
        [st.builds(c, *(_field(a, kinds) for a in c.__annotations__.values())) for c in classes]
    )


def _kinds() -> dict:
    kinds = {
        "str": st.sampled_from(["x", "y", "E"]),
        "int": st.integers(0, 2),
        "Fraction": st.fractions(0, 1, max_denominator=3),
        "TypeSpace": st.sampled_from([semantics.type_space(pure_set(2), n, ()) for n in (1, 2)]),
    }
    for name, union in (
        ("TypeId", semantics.TypeId),
        ("Term", formulas.Term),
        ("Formula", formulas.Formula),
        ("EventTerm", cformulas.EventTerm),
        ("CFormula", cformulas.CFormula),
    ):
        classes = typing.get_args(union) or (union,)
        leaves = [
            c for c in classes
            if all(_base(a)[0] != name for a in c.__annotations__.values())
        ]
        kinds[name] = st.recursive(
            _builds(leaves, kinds),
            lambda children, name=name, classes=classes: _builds(classes, {**kinds, name: children}),
            max_leaves=6,
        )
    return kinds


KINDS = _kinds()
TREES = st.one_of(KINDS["Formula"], KINDS["CFormula"])
ORACLE = settings(max_examples=300, deadline=None, derandomize=True)


def test_every_record_class_has_a_twin():
    assert len(RECORDS) == 45
    assert formulas.And in RECORDS and axioms.AxiomReport in RECORDS


@ORACLE
@given(TREES, TREES)
def test_trees_print_compare_and_hash_as_dataclasses(a, b):
    ta, tb = twin(a), twin(b)
    assert repr(a) == repr(ta)
    assert hash(a) == hash(ta)
    assert (a == b) == (ta == tb) and (a != b) == (ta != tb)
    copy = rebuild(a)
    assert copy is not a and copy == a and hash(copy) == hash(a)
    both = [*nodes(a), *nodes(b)]
    assert [repr(n) for n in set(both)] == [repr(t) for t in set(map(twin, both))]


def test_keywords_and_defaults_as_dataclasses(m2):
    phi = formulas.Eq(formulas.Var("x"), formulas.Var("y"))
    cases = [
        (stability.PhiContext, (m2, phi, ("x",), ("y",)), {}),
        (stability.PhiContext, (m2, phi), {"y_vars": ("y",), "x_vars": ("x",), "w_values": None}),
        (stability.IndependenceVerdict, (True,), {}),
        (stability.IndependenceVerdict, (), {"independent": False, "checked": 3}),
        (extension.InfeasibleEqCertificate, ([1, -1],), {}),
        (extension.InfeasibleEqCertificate, (), {"constant": -1, "multipliers": [2]}),
        (extension.InfeasibleIneqCertificate, ([2, 2], 2), {}),
        (formulas.And, (), {"right": phi, "left": phi}),
        (cformulas.EvTop, (), {}),
    ]
    for cls, args, kwargs in cases:
        got, want = cls(*args, **kwargs), TWINS[cls](*args, **kwargs)
        assert repr(got) == repr(want)
        assert [getattr(got, n) for n in cls.__annotations__] == [
            getattr(want, n) for n in cls.__annotations__
        ]
    assert repr(extension.InfeasibleIneqCertificate([2, 2], 2)) == (
        "InfeasibleIneqCertificate(multipliers=[2, 2], n=2)"
    )
    assert stability.PhiContext(m2, phi, ("x",), ("y",)).w_vars == ()
    for bad in (lambda: formulas.Var(), lambda: formulas.Var("x", "y"), lambda: formulas.Var(nom="x")):
        with pytest.raises(TypeError):
            bad()


def test_post_init_still_validates(m2):
    with pytest.raises(randlab.ValidationError):
        stability.PhiContext(m2, formulas.Eq(formulas.Var("x"), formulas.Var("x")), ("x",), ("x",))


def test_equal_fields_of_different_classes_differ():
    var, const, name = formulas.Var("x"), formulas.Const("x"), cformulas.EvName("x")
    assert var != const and not var == const
    assert var.__eq__(const) is NotImplemented
    assert hash(var) == hash(const) == hash(name) == hash(("x",))
    assert len({var, const, name, formulas.Var("x")}) == 3


def test_fields_cannot_be_assigned_or_deleted():
    var = formulas.Var("x")
    report = axioms.AxiomReport([axioms.AxiomVerdict("event", True)], Fraction(0))
    with pytest.raises(AttributeError):
        var.name = "y"
    with pytest.raises(AttributeError):
        del var.name
    with pytest.raises(AttributeError):
        var.other = 1
    with pytest.raises(AttributeError):
        report.atomless_defect = Fraction(1)
    assert var.name == "x" and report.atomless_defect == 0


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, randlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert run_fresh(code) == "[]\n"


def _fields(node):
    return tuple(getattr(node, n) for n in node._fields)


@ORACLE
@given(TREES)
def test_a_kept_hash_is_the_hash_of_the_fields(a):
    fresh = rebuild(a)
    assert all("_hash" not in vars(n) for n in nodes(fresh))
    want = [hash(twin(n)) for n in nodes(fresh)]
    shown, fields = repr(fresh), [_fields(n) for n in nodes(fresh)]
    # the root first computes its hash, and with it every node's below
    assert hash(fresh) == want[0] == hash(_fields(fresh))
    assert all("_hash" in vars(n) for n in nodes(fresh))
    assert [hash(n) for n in nodes(fresh)] == want
    assert [hash(_fields(n)) for n in nodes(fresh)] == want
    # leaves first: each node computes its own hash from kept ones below
    other = rebuild(a)
    assert [hash(n) for n in reversed(list(nodes(other)))] == want[::-1]
    # the kept hash changes neither equality, repr nor the fields
    assert repr(fresh) == shown == repr(twin(fresh))
    assert all(
        len(got) == len(was) and all(g is w for g, w in zip(got, was))
        for got, was in zip((_fields(n) for n in nodes(fresh)), fields)
    )
    assert fresh == a == other == rebuild(a) and not fresh != other
    for n in nodes(fresh):
        with pytest.raises(AttributeError):
            n._hash = 0
    assert [hash(n) for n in nodes(fresh)] == want


def test_a_record_with_an_unhashable_field_keeps_no_hash():
    report = axioms.AxiomReport([axioms.AxiomVerdict("event", True)], Fraction(0))
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(report)
    assert "_hash" not in vars(report)


class _Left(Keyed):
    def __init__(self, *key):
        self._key_cache = key


class _Right(Keyed):
    def __init__(self, *key):
        self._key_cache = key


def test_keyed_values_of_different_classes_never_compare_equal():
    left, right = _Left(1, "a"), _Right(1, "a")
    assert left._key_cache == right._key_cache and hash(left) == hash(right)
    assert left != right and right != left and not left == right
    assert left == _Left(1, "a") and not left != _Left(1, "a") and left != _Left(2, "a")
    assert len({left, right, _Left(1, "a"), _Right(1, "a")}) == 2


def test_a_keyed_value_keeps_the_hash_of_its_key():
    value = _Left(1, ("a", Fraction(1, 3)))
    assert "_hash" not in vars(value)
    assert hash(value) == hash(value._key_cache) == value._hash
    # each class holds its own methods, so wrapping one in place leaves the others alone
    for cls in (_Left, _Right, randlab.FinProbSpace):
        assert {"__eq__", "__hash__"} <= set(vars(cls))


# --- Methods made on a class's first use -------------------------------------------

def test_importing_the_cli_generates_no_method():
    """A Record instance made at import would compile its field list for
    every command; each class gets its methods only when it is used."""
    code = """
import randlab.cli
from randlab import axioms, cformulas, extension, formulas, record, rtypes, semantics, stability
records = {
    c
    for m in (formulas, cformulas, semantics, stability, rtypes, extension, axioms)
    for c in vars(m).values()
    if isinstance(c, type) and issubclass(c, record.Record) and c is not record.Record
}
def installed():
    return sorted(
        c.__name__ for c in records if {'__init__', '__eq__', '__hash__'} & set(vars(c))
    )
print(len(records), len(record._makers), installed())
x = formulas.Var('x')
print(len(record._makers), installed())
formulas.And(x, x), formulas.Or(x, x)
print(len(record._makers), installed())
"""
    assert run_fresh(code).splitlines() == ["45 0 []", "1 ['Var']", "2 ['And', 'Or', 'Var']"]


def _fresh(**methods):
    """A Record class no one has used yet; its qualname is its name, as a twin's is."""
    annotations = {"x": "object", "y": "object", "tag": "str"}
    return type("Point", (Record,), {"__annotations__": annotations, "y": 0, "tag": "p", **methods})


def _unused(cls) -> bool:
    return not {"__init__", "__eq__", "__hash__"} & set(vars(cls))


@pytest.mark.parametrize(
    "args, kwargs",
    [((1, 2, "q"), {}), ((), {"tag": "q", "x": 1, "y": 2}), ((1,), {}), ((), {"x": 1}), ((1, 2), {"tag": "q"})],
)
def test_a_first_construction_takes_positions_keywords_and_defaults(args, kwargs):
    cls = _fresh()
    assert _unused(cls)
    got, want = cls(*args, **kwargs), _twin_class(cls)(*args, **kwargs)
    assert not _unused(cls)
    assert [getattr(got, n) for n in cls._fields] == [getattr(want, n) for n in cls._fields]
    assert repr(got) == repr(want) and hash(got) == hash(want)
    assert got == cls(*args, **kwargs)


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, "q", 4), {}), ((1,), {"z": 2}), ((1,), {"x": 1}), ((), {"y": 2})],
)
def test_a_first_construction_refuses_what_a_dataclass_refuses(args, kwargs):
    cls = _fresh()
    with pytest.raises(TypeError):
        _twin_class(cls)(*args, **kwargs)
    for _ in range(2):  # the first call installs the methods, the second uses them
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_post_init_runs_on_the_first_construction():
    seen = []
    cls = _fresh(__post_init__=lambda self: seen.append(self.x))
    cls(1), cls(x=2)
    assert seen == [1, 2]
    refusing = _fresh(__post_init__=lambda self: 1 / self.x)
    with pytest.raises(ZeroDivisionError):
        refusing(0)


def _bare(cls, *values):
    """An instance whose fields are set without any `__init__`."""
    node = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(node, name, value)
    return node


@pytest.mark.parametrize("order", list(itertools.permutations(["eq", "hash", "repr", "init"])))
def test_an_instance_first_used_in_any_order_matches_its_twin(order):
    cls = _fresh()
    twin_cls = _twin_class(cls)
    a, b, c = _bare(cls, 1, (2,), "q"), _bare(cls, 1, (2,), "q"), _bare(cls, 1, (3,), "q")
    ta, tc = twin_cls(1, (2,), "q"), twin_cls(1, (3,), "q")
    checks = {
        "eq": lambda: (a == b, a != b, a == c, a != c) == (ta == ta, ta != ta, ta == tc, ta != tc),
        "hash": lambda: hash(a) == hash(ta) == hash(b) and hash(c) == hash(tc),
        "repr": lambda: repr(a) == repr(ta) and repr(c) == repr(tc),
        "init": lambda: cls(1, (2,), "q") == a and repr(cls(x=1)) == repr(twin_cls(x=1)),
    }
    for step in order:
        assert checks[step](), step
    assert a.__eq__(ta) is NotImplemented and a != ta


def test_a_deep_tree_prints():
    node = formulas.Var("x")
    depth = sys.getrecursionlimit() * 2 // 5
    for _ in range(depth):
        node = formulas.Not(node)
    assert repr(node) == "Not(body=" * depth + "Var(name='x')" + ")" * depth
