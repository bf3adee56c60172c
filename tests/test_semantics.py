import itertools
import math
import time
import typing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

from randlab import (
    BudgetError,
    FinProbSpace,
    FinStructure,
    Randomization,
    Signature,
    ValidationError,
    automorphisms,
    directed_cycle,
    eval_formula,
    event_of,
    fullness_witness,
    isolating_formula,
    linear_order,
    parse_formula,
    pure_set,
    type_of_tuple,
    type_space,
)
from randlab import formulas, semantics
from randlab.errors import DEFAULT_BUDGET, budget
from randlab.structures import format_structure, parse_structure
from conftest import sentence_corpus
from randlab.axioms import default_formula_corpus, tautology_corpus
from randlab.formulas import (
    And,
    App,
    Const,
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
    conj,
    free_vars,
)
from randlab.semantics import _extension, _flatten_and, _hintikka, _literal_pool
from test_record import KINDS


def test_eval_examples(c3, l3, m2):
    phi = parse_formula("E(x,y)", c3.signature)
    assert eval_formula(c3, phi, {"x": 0, "y": 1}) is True
    assert eval_formula(c3, phi, {"x": 1, "y": 0}) is False
    assert eval_formula(m2, parse_formula("x = x", m2.signature), {"x": 1})
    least = parse_formula("forall z (Lt(x,z) | x = z)", l3.signature)
    # oracle: exhaustive check over z
    for a in l3.elements:
        want = all(a < z or a == z for z in l3.elements)
        assert eval_formula(l3, least, {"x": a}) == want


def test_eval_requires_assignment(m2):
    with pytest.raises(ValidationError):
        eval_formula(m2, parse_formula("x = y", m2.signature), {"x": 0})


def _brute_force_automorphisms(st, fix=frozenset()):
    out = []
    for perm in itertools.permutations(st.elements):
        if any(perm[a] != a for a in fix):
            continue
        ok = True
        for sym, table in st.rel_tables.items():
            k = st.signature.relations[sym]
            for t in itertools.product(st.elements, repeat=k):
                if (t in table) != (tuple(perm[e] for e in t) in table):
                    ok = False
        for sym, table in st.fn_tables.items():
            k = st.signature.functions[sym]
            for args in itertools.product(st.elements, repeat=k):
                if perm[table[args]] != table[tuple(perm[e] for e in args)]:
                    ok = False
        for v in st.const_values.values():
            if perm[v] != v:
                ok = False
        if ok:
            out.append(perm)
    return sorted(out)


def test_automorphism_examples(m2, c3, l3):
    assert automorphisms(m2) == [(0, 1), (1, 0)]
    assert automorphisms(l3) == [(0, 1, 2)]
    assert automorphisms(c3) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


@pytest.mark.parametrize("maker", ["m2", "m4", "c3", "c5", "l3"])
def test_automorphisms_match_brute_force(maker, request):
    st = request.getfixturevalue(maker)
    for fix in [frozenset(), frozenset({0}), frozenset({0, 1})]:
        assert automorphisms(st, fix) == _brute_force_automorphisms(st, fix)


def test_automorphisms_form_a_group(c3, m4):
    for st in (c3, m4):
        group = automorphisms(st)
        assert tuple(range(st.size)) in group
        for s in group:
            inverse = tuple(s.index(a) for a in range(st.size))
            assert inverse in group
            for t in group:
                assert tuple(s[t[a]] for a in range(st.size)) in group


def test_automorphism_search_is_budgeted():
    # a pure set of n searches once per level i < n-1, for the swap of i
    # and i+1, under the identity on 0..i-1, and tries the n - i images
    # i+1, i, i+2, ..., n-1: 2 + 3 + ... + n = n(n+1)/2 - 1 candidates
    tries = 9 * 10 // 2 - 1
    # refused one candidate short, at the count the search reaches (a
    # fresh search and a kept one alike)
    with budget(tries - 1):
        with pytest.raises(BudgetError) as err:
            type_space(pure_set(9), 1)
    assert err.value.required == tries
    with budget(tries):
        assert len(type_space(pure_set(9), 1)) == 1
    assert semantics._automorphisms_cached(pure_set(9), frozenset())[1] == tries
    # listing the group charges its order, the product of the orbit lengths
    for n in (9, 59):
        start = time.perf_counter()
        with pytest.raises(BudgetError) as err:
            automorphisms(pure_set(n))
        assert time.perf_counter() - start < 5
        assert err.value.required == math.factorial(n)
    assert math.factorial(8) <= DEFAULT_BUDGET
    assert len(automorphisms(pure_set(8))) == math.factorial(8)
    # a fixed element is a class of its own
    assert len(automorphisms(pure_set(9), {0})) == math.factorial(8)
    # refinement leaves a directed cycle in one class; the pruned search
    # still finds its rotations
    for n in (6, 9, 30):
        assert len(automorphisms(directed_cycle(n))) == n
        assert len(type_space(directed_cycle(n), 2)) == n
    assert len(type_space(linear_order(25), 2)) == 25**2


def test_type_space_sizes(m2, c3, l3):
    assert len(type_space(m2, 1)) == 1
    assert len(type_space(l3, 1)) == 3
    assert len(type_space(c3, 2)) == 3


def test_type_space_budget_counts_tuples_before_enumerating(l3):
    # 3**20 tuples would take hours to enumerate; the check raises at once
    with pytest.raises(BudgetError) as err:
        type_space(l3, 20)
    assert err.value.required == 3**20
    with budget(9):
        admitted = type_space(l3, 2)
    assert len(admitted) == len(type_space(l3, 2))
    with budget(8), pytest.raises(BudgetError) as err:
        type_space(l3, 2)
    assert err.value.required == 9
    with pytest.raises(ValidationError):
        type_space(l3, -1)
    # a count too long to print in full is shown by its order of magnitude
    with pytest.raises(BudgetError) as err:
        type_space(l3, 10_000)
    assert err.value.required == 3**10_000
    assert f"at least 2^{(3**10_000).bit_length() - 1})" in str(err.value)


@pytest.mark.parametrize("arity", [10**7, 10**12])
def test_type_space_refuses_an_absurd_arity_at_once(l3, arity):
    # forming 3**(10**7) alone takes seconds, 3**(10**12) terabytes; the
    # refusal forms neither and reports the lower bound 2**arity
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        type_space(l3, arity)
    assert time.perf_counter() - start < 0.1
    assert err.value.required is None
    assert str(err.value).endswith(f"(required count at least 2^{arity})")


def test_type_space_partitions(c3):
    space = type_space(c3, 2)
    tuples = [t for q in space.types for t in space.orbit(q)]
    assert sorted(tuples) == sorted(itertools.product(c3.elements, repeat=2))


def test_type_of_tuple_examples(c3, m2, l3):
    edge = type_of_tuple(c3, (0, 1))
    assert type_of_tuple(c3, (1, 2)) == edge
    assert type_of_tuple(m2, (0, 0)) == type_of_tuple(m2, (1, 1))
    assert type_of_tuple(l3, (0,), (1,)) != type_of_tuple(l3, (2,), (1,))


def test_orbit_invariance(c3, l3, m4):
    for st in (c3, l3, m4):
        for params in [(), (0,)]:
            group = automorphisms(st, frozenset(params))
            for n in (1, 2):
                for tup in itertools.product(st.elements, repeat=n):
                    q = type_of_tuple(st, tup, params)
                    for sigma in group:
                        moved = tuple(sigma[e] for e in tup)
                        assert type_of_tuple(st, moved, params) == q


def test_isolating_formula_extension_is_the_orbit(m2, c3, l3, m4):
    for st in (m2, c3, l3, m4):
        for params in [(), (0,)]:
            for n in (1, 2):
                space = type_space(st, n, params)
                variables = tuple(f"x{i}" for i in range(n))
                for q in space.types:
                    phi = isolating_formula(space, q)
                    ext = _extension(st, phi, variables)
                    assert ext == frozenset(space.orbit(q)), (st.name, params, q)


def test_isolating_formula_examples(m2, l3, c3):
    # the unique 1-type of the two-element pure set is isolated trivially
    sp = type_space(m2, 1)
    assert _extension(m2, isolating_formula(sp, sp.types[0]), ("x0",)) == frozenset(
        {(0,), (1,)}
    )
    # least element of the order: formula equivalent to forall z (x<z or x=z)
    sp1 = type_space(l3, 1)
    q0 = sp1.type_of((0,))
    manual = parse_formula("forall z (Lt(x0,z) | x0 = z)", l3.signature)
    assert _extension(l3, isolating_formula(sp1, q0), ("x0",)) == _extension(
        l3, manual, ("x0",)
    )
    # edge type of the directed cycle: formula equivalent to E(x,y)
    sp2 = type_space(c3, 2)
    edge = sp2.type_of((0, 1))
    manual2 = parse_formula("E(x0,x1)", c3.signature)
    assert _extension(c3, isolating_formula(sp2, edge), ("x0", "x1")) == _extension(
        c3, manual2, ("x0", "x1")
    )


def _formulas_up_to_depth(st, variables, depth):
    atoms = []
    for i, v in enumerate(variables):
        for w in variables[i:]:
            atoms.append(Eq(Var(v), Var(w)))
    for sym in sorted(st.rel_tables):
        k = st.signature.relations[sym]
        for combo in itertools.product(variables, repeat=k):
            atoms.append(Rel(sym, tuple(Var(v) for v in combo)))
    level = list(atoms)
    for _ in range(depth):
        new = list(level)
        for a in level[: 12]:
            new.append(Not(a))
            new.append(Exists("u", substitute_var(a, variables[0], "u")))
            new.append(Forall("u", substitute_var(a, variables[0], "u")))
        for a, b in itertools.combinations(level[:8], 2):
            new.append(And(a, b))
            new.append(Or(a, b))
        level = new
    return level


def substitute_var(phi, old, new):
    from randlab.formulas import substitute

    return substitute(phi, {old: Var(new)})


def test_same_type_iff_same_formulas_bounded_depth(c3, m2):
    # spot check: tuples agree on all bounded-depth formulas iff conjugate
    for st in (m2, c3):
        variables = ("x", "y")
        formulas = _formulas_up_to_depth(st, variables, 1)
        profiles = {}
        for tup in itertools.product(st.elements, repeat=2):
            val = dict(zip(variables, tup))
            profiles[tup] = tuple(eval_formula(st, f, val) for f in formulas)
        for a in profiles:
            for b in profiles:
                same_type = type_of_tuple(st, a) == type_of_tuple(st, b)
                assert (profiles[a] == profiles[b]) == same_type


# --- Oracle: isolating formulas by tree-walk ---------------------------------------
#
# The production code intersects one extension table per conjunct; the
# oracle re-walks every candidate conjunction over M^n, as the code did
# before the tables.  The greedy order is the same, so the formulas must
# be identical, not merely equivalent.

def _tree_walk_minimize(m, parts, variables, target):
    kept = list(parts)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1 :]
        if trial and _extension(m, conj(trial), variables) == target:
            kept = trial
        else:
            i += 1
    return conj(kept)


def _tree_walk_isolating_formula(space, q):
    m = space.structure
    variables = tuple(f"x{i}" for i in range(space.arity))
    target = frozenset(space.orbit(q))
    val = dict(zip(variables, q.rep))
    literals = [
        atom if eval_formula(m, atom, val) else Not(atom)
        for atom in _literal_pool(m, variables, space.params)
    ]
    if not literals:
        literals = [Eq(Var(variables[0]), Var(variables[0]))]
    if _extension(m, conj(literals), variables) == target:
        return _tree_walk_minimize(m, literals, variables, target)

    def qf_formula(tup, varnames):
        val = dict(zip(varnames, tup))
        return [
            atom if eval_formula(m, atom, val) else Not(atom)
            for atom in _literal_pool(m, varnames, space.params)
        ]

    for rank in range(1, m.size + 1):
        formula = _hintikka(m, space.params, q.rep, variables, rank, qf_formula, {})
        if _extension(m, formula, variables) == target:
            return _tree_walk_minimize(m, _flatten_and(formula), variables, target)
    raise AssertionError("back-and-forth rank |M| must isolate every orbit")


BATTERY = [pure_set(2), pure_set(4)]
BATTERY += [directed_cycle(n) for n in (3, 4, 5)]
BATTERY += [linear_order(3), linear_order(4)]


def _spaces(st):
    for n in (1, 2):
        for params in ((), (0,)):
            yield type_space(st, n, params)


@pytest.mark.parametrize("st", BATTERY, ids=lambda st: st.name)
def test_isolating_formula_matches_tree_walk_oracle(st):
    for space in _spaces(st):
        for q in space.types:
            got = isolating_formula(space, q)
            assert repr(got) == repr(_tree_walk_isolating_formula(space, q)), (space, q)


DIGRAPH = Signature(relations={"E": 2})


@hst.composite
def digraph_spaces(draw):
    size = draw(hst.integers(2, 4))
    pairs = [(a, b) for a in range(size) for b in range(size)]
    edges = draw(hst.sets(hst.sampled_from(pairs)))
    st = FinStructure(DIGRAPH, size, relations={"E": edges})
    n = draw(hst.integers(1, 2))
    params = draw(hst.sampled_from([(), (0,)]))
    return type_space(st, n, params)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(digraph_spaces())
def test_isolating_formula_matches_tree_walk_oracle_random(space):
    for q in space.types:
        got = isolating_formula(space, q)
        assert repr(got) == repr(_tree_walk_isolating_formula(space, q))


@pytest.mark.parametrize("st", BATTERY, ids=lambda st: st.name)
def test_orbit_table_matches_scan(st):
    # oracle: scan every tuple of M^n for the ones of q's type
    for space in _spaces(st):
        for q in space.types:
            scan = sorted(
                t
                for t in itertools.product(st.elements, repeat=space.arity)
                if space.index_of(t) == q.index
            )
            group = automorphisms(st, frozenset(space.params))
            images = {tuple(sigma[e] for e in q.rep) for sigma in group}
            assert space.orbit(q) == scan == sorted(images)


# --- Oracle: the evaluator as an isinstance chain -----------------------------------
#
# `eval_formula` compiles each node once, through one table of compile
# functions keyed by the node's class.  The oracle is the chain of
# isinstance tests the first evaluator was, kept verbatim; the two must
# agree on every value and on every error, type and message alike.

def _tree_walk_eval_term(m, t, val):
    if isinstance(t, Var):
        if t.name not in val:
            raise ValidationError(f"unassigned free variable {t.name!r}")
        return val[t.name]
    if isinstance(t, Elem):
        if not 0 <= t.value < m.size:
            raise ValidationError(f"element literal #{t.value} out of range")
        return t.value
    if isinstance(t, Const):
        return m.constant(t.name)
    return m.apply(t.func, tuple(_tree_walk_eval_term(m, a, val) for a in t.args))


def _tree_walk_eval_formula(m, phi, val):
    if isinstance(phi, Eq):
        return _tree_walk_eval_term(m, phi.left, val) == _tree_walk_eval_term(m, phi.right, val)
    if isinstance(phi, Rel):
        return m.holds(phi.name, tuple(_tree_walk_eval_term(m, a, val) for a in phi.args))
    if isinstance(phi, Not):
        return not _tree_walk_eval_formula(m, phi.body, val)
    if isinstance(phi, And):
        return _tree_walk_eval_formula(m, phi.left, val) and _tree_walk_eval_formula(m, phi.right, val)
    if isinstance(phi, Or):
        return _tree_walk_eval_formula(m, phi.left, val) or _tree_walk_eval_formula(m, phi.right, val)
    if isinstance(phi, Implies):
        return (not _tree_walk_eval_formula(m, phi.left, val)) or _tree_walk_eval_formula(
            m, phi.right, val
        )
    if isinstance(phi, Exists):
        return any(
            _tree_walk_eval_formula(m, phi.body, {**val, phi.var: a}) for a in m.elements
        )
    if isinstance(phi, Forall):
        return all(
            _tree_walk_eval_formula(m, phi.body, {**val, phi.var: a}) for a in m.elements
        )
    if isinstance(phi, TypeIs):
        if phi.space.structure != m:
            raise ValidationError("TypeIs atom evaluated in a foreign structure")
        tup = tuple(_tree_walk_eval_term(m, a, val) for a in phi.args)
        return phi.space.index_of(tup) == phi.type_id.index
    raise TypeError(f"not a formula: {phi!r}")


def _outcome(evaluate, m, phi, val):
    try:
        value = evaluate(m, phi, val)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("value", type(value), value)


def _assert_agrees(m, phi, val):
    before = dict(val)
    want = _outcome(_tree_walk_eval_formula, m, phi, val)
    assert _outcome(eval_formula, m, phi, val) == want, (m, phi, val)
    assert val == before


def _corpora(sig):
    return default_formula_corpus(sig) + tautology_corpus(sig) + sentence_corpus(sig)


VALUATION_NAMES = ["x", "y", "z", "w", "E"]
DIGRAPH_CORPUS = _corpora(DIGRAPH)


@hst.composite
def digraphs(draw):
    size = draw(hst.integers(2, 4))
    pairs = [(a, b) for a in range(size) for b in range(size)]
    return FinStructure(DIGRAPH, size, relations={"E": draw(hst.sets(hst.sampled_from(pairs)))})


DIGRAPH_TERMS = hst.one_of(
    hst.builds(Var, hst.sampled_from(VALUATION_NAMES[:4])), hst.builds(Elem, hst.integers(0, 3))
)
DIGRAPH_FORMULAS = hst.recursive(
    hst.one_of(
        hst.builds(Eq, DIGRAPH_TERMS, DIGRAPH_TERMS),
        hst.builds(lambda a, b: Rel("E", (a, b)), DIGRAPH_TERMS, DIGRAPH_TERMS),
    ),
    lambda sub: hst.one_of(
        hst.builds(Not, sub),
        *(hst.builds(c, sub, sub) for c in (And, Or, Implies)),
        *(hst.builds(c, hst.sampled_from(VALUATION_NAMES[:4]), sub) for c in (Exists, Forall)),
    ),
    max_leaves=8,
)


@hst.composite
def evaluations(draw):
    # pure_set(2) carries the type spaces that the random TypeIs atoms use
    m = draw(hst.one_of(digraphs(), hst.just(pure_set(2))))
    phi = draw(hst.one_of(KINDS["Formula"], DIGRAPH_FORMULAS, hst.sampled_from(DIGRAPH_CORPUS)))
    val = {v: draw(hst.integers(0, m.size - 1)) for v in VALUATION_NAMES}
    for v in draw(hst.sets(hst.sampled_from(VALUATION_NAMES), max_size=2)):
        del val[v]
    return m, phi, val


@settings(max_examples=600, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(evaluations())
def test_eval_formula_matches_tree_walk_oracle_random(case):
    _assert_agrees(*case)


@pytest.mark.parametrize("st", BATTERY, ids=lambda st: st.name)
def test_eval_formula_matches_tree_walk_oracle_on_the_corpora(st):
    for phi in _corpora(st.signature):
        fv = sorted(free_vars(phi))
        for tup in itertools.product(st.elements, repeat=len(fv)):
            _assert_agrees(st, phi, dict(zip(fv, tup)))


@hst.composite
def extension_cases(draw):
    """A digraph, a formula, 0-2 names to enumerate, and values for some
    names (those enumerated among them, to be overridden), so that some
    free variables are left unassigned."""
    m = draw(digraphs())
    phi = draw(hst.one_of(DIGRAPH_FORMULAS, hst.sampled_from(DIGRAPH_CORPUS)))
    names = VALUATION_NAMES[:4]
    variables = tuple(draw(hst.lists(hst.sampled_from(names), max_size=2, unique=True)))
    val = {v: draw(hst.integers(0, m.size - 1)) for v in names}
    for v in draw(hst.sets(hst.sampled_from(names), max_size=2)):
        del val[v]
    return m, phi, variables, val


def _brute_force_extension(m, phi, variables, val):
    return frozenset(
        tup
        for tup in itertools.product(m.elements, repeat=len(variables))
        if eval_formula(m, phi, {**val, **dict(zip(variables, tup))})
    )


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(extension_cases())
def test_extension_is_the_filter_of_all_tuples_through_eval_formula(case):
    m, phi, variables, val = case
    before = dict(val)
    want = _outcome(lambda m, phi, val: _brute_force_extension(m, phi, variables, val), m, phi, val)
    # the seed may be a dict or (name, element) pairs, and is left as it was
    for seed in (val, list(val.items())):
        assert _outcome(lambda m, phi, seed: _extension(m, phi, variables, seed), m, phi, seed) == want
    assert val == before
    if not val:
        assert _outcome(lambda m, phi, _: _extension(m, phi, variables), m, phi, None) == want


_FOREIGN = type_space(pure_set(2), 1)
INVALID_INPUTS = {
    "unassigned": Eq(Var("x"), Var("u")),
    "unassigned-before-literal": And(Eq(Var("u"), Var("u")), Eq(Elem(9), Elem(9))),
    "unassigned-in-function": Eq(App("f", (Var("u"),)), Var("x")),
    "literal": Eq(Elem(3), Var("x")),
    "literal-before-unassigned": Rel("E", (Elem(9), Var("u"))),
    "literal-under-quantifier": Exists("z", Eq(Var("z"), Elem(7))),
    "type-is-foreign": TypeIs(_FOREIGN, _FOREIGN.types[0], (Var("x"),)),
    "type-is-foreign-before-args": TypeIs(_FOREIGN, _FOREIGN.types[0], (Var("u"), Elem(9))),
    "unknown-relation": Rel("R", (Var("x"),)),
    "not-a-formula": Var("x"),
    "not-a-formula-text": "x = x",
    "not-a-formula-none": None,
    "not-a-formula-inside": Not(Elem(0)),
    "not-a-formula-under-quantifier": Forall("z", Var("z")),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_eval_formula_errors_match_tree_walk_oracle(c3, case):
    phi = INVALID_INPUTS[case]
    want = _outcome(_tree_walk_eval_formula, c3, phi, {"x": 0})
    assert want[0] == "raised"
    assert _outcome(eval_formula, c3, phi, {"x": 0}) == want


def test_every_node_class_has_a_handler():
    for cls in typing.get_args(formulas.Formula):
        assert semantics._FORMULAS.get(cls) not in (None, semantics._not_a_formula), cls
    for cls in typing.get_args(formulas.Term):
        assert semantics._TERMS.get(cls) not in (None, semantics._not_a_term), cls
    assert len(semantics._FORMULAS) == len(typing.get_args(formulas.Formula))
    assert len(semantics._TERMS) == len(typing.get_args(formulas.Term))


def test_a_non_node_raises_type_error(c3):
    for bad in (Var("x"), Elem(0), "E(x, x)", None, 0):
        with pytest.raises(TypeError, match="^not a formula: "):
            eval_formula(c3, bad, {"x": 0})
    for bad in (Not(Eq(Var("x"), Var("x"))), "x", None):
        with pytest.raises(TypeError, match="^not a term: "):
            eval_formula(c3, Eq(bad, Var("x")), {"x": 0})


@pytest.fixture
def compiled(monkeypatch):
    """The nodes compiled from here on, in the order they were compiled."""
    nodes = []
    for table in (semantics._FORMULAS, semantics._TERMS):
        for cls, compile_node in list(table.items()):
            def counted(node, compile_node=compile_node):
                nodes.append(node)
                return compile_node(node)

            monkeypatch.setitem(table, cls, counted)
    return nodes


def test_a_node_is_compiled_once(c3, compiled):
    phi = parse_formula("exists z (E(x, z) & !z = #1) -> forall z (E(z, y) | z = x)", c3.signature)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(2))
    f, g = rand.element([0, 1, 2, 0]), rand.element([1, 1, 0, 2])
    event = frozenset(
        w for w in rand.base.points if _tree_walk_eval_formula(c3, phi, {"x": f(w), "y": g(w)})
    )
    assert event not in (frozenset(), rand.full_event())
    assert eval_formula(c3, phi, {"x": 0, "y": 1}) is _tree_walk_eval_formula(c3, phi, {"x": 0, "y": 1})
    assert any(node is phi for node in compiled) and len(compiled) == len(set(map(id, compiled)))
    compiled.clear()
    eval_formula(c3, phi, {"x": 1, "y": 2})
    assert event_of(rand, phi, {"x": f, "y": g}) == event
    fullness_witness(rand, phi, "x", {"y": g})
    assert compiled == []
    negated = Not(phi)
    assert event_of(rand, negated, {"x": f, "y": g}) == rand.full_event() - event
    assert len(compiled) == 1 and compiled[0] is negated


def test_compiling_nests_no_deeper_than_evaluating():
    # evaluating nests one call per connective and three per application,
    # so these depths stay inside the default recursion limit
    sig = Signature(relations={"E": 2}, functions={"f": 1})
    m = FinStructure(sig, 2, {"E": set()}, {"f": {(0,): 1, (1,): 0}})
    atom, term = Eq(Var("x"), Var("x")), Var("x")
    negated, chain = atom, atom
    for _ in range(800):
        negated, chain = Not(negated), And(chain, atom)
    for _ in range(280):
        term = App("f", (term,))
    assert eval_formula(m, negated, {"x": 0}) is True
    assert eval_formula(m, chain, {"x": 0}) is True
    assert eval_formula(m, Eq(term, Var("x")), {"x": 0}) is True


def test_a_compiled_node_keeps_its_equality_hash_and_repr(c3):
    text = "exists z (E(x, z) & !z = #1)"
    phi, twin = parse_formula(text, c3.signature), parse_formula(text, c3.signature)
    eval_formula(c3, phi, {"x": 0})
    assert "_holds" in vars(phi) and "_holds" not in vars(twin)
    assert phi == twin and twin == phi and not phi != twin
    assert hash(phi) == hash(twin) and repr(phi) == repr(twin)
    assert phi.body != twin and {phi, twin} == {twin}


@hst.composite
def structures_with_functions(draw):
    """2-5 elements, a random subset of the symbols U/1, E/2, T/3, the
    proposition P/0, f/1, g/2 and c.  The tables are closed under a random
    permutation sigma, so sigma is an automorphism when it also fixes c,
    and groups are often larger than the identity."""
    rng = draw(hst.randoms(use_true_random=False))
    n = rng.randint(2, 5)
    sigma = list(range(n))
    rng.shuffle(sigma)

    def orbit(t):
        out = [t]
        while (t := tuple(sigma[e] for e in t)) != out[0]:
            out.append(t)
        return out

    relations = {
        s: k for s, k in (("U", 1), ("E", 2), ("T", 3), ("P", 0)) if rng.random() < 0.6
    }
    functions = {s: k for s, k in (("f", 1), ("g", 2)) if rng.random() < 0.5}
    constants = ["c"] if rng.random() < 0.5 else []
    rel_tables = {}
    for sym, k in relations.items():
        table: set = set()
        for t in itertools.product(range(n), repeat=k):
            if t not in table and rng.random() < 0.4:
                table.update(orbit(t))
        rel_tables[sym] = table
    fn_tables = {}
    for sym, k in functions.items():
        table: dict = {}
        for args in itertools.product(range(n), repeat=k):
            if args in table:
                continue
            ring = orbit(args)
            # v must come back to itself after len(ring) steps of sigma
            fixed = [b for b in range(n) if len(ring) % len(orbit((b,))) == 0]
            v = rng.choice(fixed) if fixed else rng.randrange(n)
            for args_j, v_j in zip(ring, itertools.cycle(orbit((v,)))):
                table[args_j] = v_j[0]
        fn_tables[sym] = table
    points = [b for b in range(n) if sigma[b] == b] or list(range(n))
    consts = {"c": rng.choice(points)} if constants else {}
    sig = Signature(relations=relations, functions=functions, constants=constants)
    return FinStructure(sig, n, rel_tables, fn_tables, consts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(structures_with_functions())
def test_automorphisms_with_functions_and_constants_match_brute_force(st):
    for fix in (frozenset(), frozenset({0})):
        group = automorphisms(st, fix)
        assert group == _brute_force_automorphisms(st, fix)
        colours = semantics._refine_classes(st, fix)
        for sigma in group:
            assert all(colours[sigma[a]] == colours[a] for a in st.elements)


# --- Oracle: refinement by rescanning every table --------------------------------
#
# `_refine_classes` reads the incidence lists of `FinStructure.through`.  The
# oracle is the refinement it replaced, which rescans every relation table
# and function table for every element in every round.


def _rescanning_refine_classes(m, fix):
    pinned = fix | set(m.const_values.values())
    colour = {a: a + 1 if a in pinned else 0 for a in m.elements}
    while True:
        sigs = {}
        for a in m.elements:
            rel_sig = tuple(
                tuple(sorted(
                    tuple((colour[e], e == a) for e in t) for t in m.rel_tables[sym] if a in t
                ))
                for sym in sorted(m.rel_tables)
            )
            fn_sig = tuple(
                tuple(sorted(
                    (tuple((colour[e], e == a) for e in args), colour[v], v == a)
                    for args, v in m.fn_tables[sym].items()
                    if a in args or v == a
                ))
                for sym in sorted(m.fn_tables)
            )
            sigs[a] = (colour[a], rel_sig, fn_sig)
        fresh = {}
        new_colour = {a: fresh.setdefault(sigs[a], len(fresh)) for a in m.elements}
        if len(fresh) == len(set(colour.values())):
            return [colour[a] for a in m.elements]
        colour = new_colour


@settings(max_examples=200, deadline=None, derandomize=True)
@given(structures_with_functions(), hst.randoms(use_true_random=False))
def test_refinement_from_incidence_lists_matches_the_rescanning_oracle(st, rng):
    fix = frozenset(rng.sample(range(st.size), rng.randint(0, 2)))
    assert semantics._refine_classes(st, fix) == _rescanning_refine_classes(st, fix)


def test_refinement_reads_symbols_and_positions_as_the_oracle_does():
    # a linear order splits only by the positions an element holds, and R
    # and S only by their symbols; random structures seldom need either
    two = FinStructure(Signature(relations={"R": 2, "S": 2}), 4, {"R": {(0, 1)}, "S": {(2, 3)}})
    for st in (linear_order(5), directed_cycle(6), pure_set(4), two):
        for fix in (frozenset(), frozenset({0}), frozenset({0, 2})):
            assert semantics._refine_classes(st, fix) == _rescanning_refine_classes(st, fix)
    assert len(set(semantics._refine_classes(linear_order(5), frozenset()))) == 5
    assert len(set(semantics._refine_classes(two, frozenset()))) == 4


def test_through_lists_each_tuple_and_entry_once_per_element():
    sig = Signature(relations={"E": 2, "P": 0}, functions={"f": 1})
    m = FinStructure(
        sig, 3, {"E": {(0, 0), (0, 1)}, "P": {()}}, {"f": {(0,): 2, (1,): 1, (2,): 2}}
    )
    # (0, 0) once under 0; f(1) = 1 once under 1; values are listed
    assert sorted(m.through[0]) == [("E", (0, 0)), ("E", (0, 1)), ("f", (0,), 2)]
    assert sorted(m.through[1]) == [("E", (0, 1)), ("f", (1,), 1)]
    assert sorted(m.through[2]) == [("f", (0,), 2), ("f", (2,), 2)]
    # the proposition's () lies in no list
    assert not any(entry[0] == "P" for entries in m.through for entry in entries)
    assert m.through is m.through


# --- Oracle: the backtrack over the whole group ----------------------------------
#
# `_automorphisms_cached` searches for a strong generating set.  The oracle
# is the search it replaced, kept without its budget: a backtrack that
# lists every automorphism, with the number of candidate images it tried.


def _backtrack_automorphisms(m, fix=frozenset()):
    colours = semantics._refine_classes(m, fix)
    out = []
    img = [None] * m.size
    tried = 0

    def backtrack(a):
        nonlocal tried
        if a == m.size:
            out.append(tuple(img))
            return
        used = {b for b in img if b is not None}
        candidates = [b for b in m.elements if colours[b] == colours[a] and b not in used]
        for b in candidates:
            tried += 1
            img[a] = b
            if semantics._is_partial_ok(m, img, a):
                backtrack(a + 1)
            img[a] = None

    backtrack(0)
    return sorted(out), tried


def _closure(gens, size):
    """The group that gens generate, by closing the identity under them."""
    group = {tuple(range(size))}
    frontier = list(group)
    for h in frontier:
        for g in gens:
            gh = tuple(g[x] for x in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def _orbits_under(group, size, arity):
    """The orbits of M^arity under every element of the group, sorted."""
    return sorted(
        {tuple(sorted({tuple(sigma[e] for e in tup) for sigma in group}))
         for tup in itertools.product(range(size), repeat=arity)}
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(structures_with_functions(), hst.randoms(use_true_random=False))
def test_generators_match_the_whole_group_backtrack(st, rng):
    params = tuple(rng.sample(range(st.size), rng.randint(0, 2)))
    fix = frozenset(params)
    group, old_tried = _backtrack_automorphisms(st, fix)
    assert group == _brute_force_automorphisms(st, fix)
    gens, tried = semantics._automorphisms_cached(st, fix)
    # each search walks a subtree of the backtrack's tree, none twice
    assert tried <= old_tried
    assert sorted(_closure(gens, st.size)) == group
    listed = automorphisms(st, fix)
    assert listed == group
    for arity in (1, 2, 3):
        space = type_space(st, arity, params)
        assert [tuple(space.orbit(q)) for q in space.types] == _orbits_under(group, st.size, arity)
        assert [q.rep for q in space.types] == [o[0] for o in _orbits_under(group, st.size, arity)]


def test_generator_search_counts_on_pure_sets_and_a_cycle():
    # a pure set of n: n(n+1)/2 - 1 (see test_automorphism_search_is_budgeted),
    # where the backtrack over the whole group tries n!/(n-1)! + ... + n!/0!.
    # C30: each level i > 0 refutes its 29 - i images at the first edge
    # (406 in all); level 0 tries 1 image, 2 for each of 1..28 and 1 for
    # 29 to find the rotation by one, whose orbit is everything: 464
    for st, tries in ((pure_set(5), 14), (pure_set(8), 35), (directed_cycle(30), 464)):
        gens, tried = semantics._automorphisms_cached(st, frozenset())
        assert tried == tries
        assert len(_closure(gens, st.size)) == len(automorphisms(st))
    assert _backtrack_automorphisms(pure_set(5))[1] == sum(math.perm(5, k) for k in range(1, 6))


def test_a_corrupted_generator_is_caught_by_the_self_check(monkeypatch, c3):
    # a partial check that passes everything lets the search return the
    # first permutation it meets, (0, 2, 1), which reverses C3's edges
    monkeypatch.setattr(semantics, "_is_partial_ok", lambda m, img, a: True)
    semantics._automorphisms_cached.cache_clear()
    try:
        with pytest.raises(AssertionError, match=r"generator \(0, 2, 1\) sends E"):
            semantics._automorphisms_cached(c3, frozenset())
    finally:
        semantics._automorphisms_cached.cache_clear()


def test_a_type_space_built_under_a_large_budget_is_refused_under_a_small_one():
    # a pure set of 10 tries 10 * 11 / 2 - 1 candidates (see
    # test_automorphism_search_is_budgeted)
    st, tries = pure_set(10), 10 * 11 // 2 - 1
    with budget(tries):
        space = type_space(st, 1)
    # as it stands: the kept generators are refused by their kept count
    with budget(tries - 1), pytest.raises(BudgetError) as err:
        type_space(st, 1)
    assert err.value.required == tries
    # with the generators forgotten and the space kept, the search reruns
    # and raises, and nothing is kept from it
    semantics._automorphisms_cached.cache_clear()
    with budget(tries - 1), pytest.raises(BudgetError) as err:
        type_space(st, 1)
    assert err.value.required == tries
    assert semantics._automorphisms_cached.cache_info().currsize == 0
    with budget(tries):
        assert type_space(st, 1) is space


def _whole_partial_check(m, img):
    """Every relation tuple, function entry and constant over the assigned
    elements, as a backtrack node checked them before nodes checked only
    what passes through their new image."""
    assigned = [a for a in m.elements if img[a] is not None]
    for sym, table in m.rel_tables.items():
        k = m.signature.relations[sym]
        for t in itertools.product(assigned, repeat=k):
            mapped = tuple(img[e] for e in t)
            if (t in table) != (mapped in table):
                return False
    for sym, table in m.fn_tables.items():
        k = m.signature.functions[sym]
        for args in itertools.product(assigned, repeat=k):
            v = table[args]
            if img[v] is not None and table[tuple(img[e] for e in args)] != img[v]:
                return False
    for v in m.const_values.values():
        if img[v] is not None and img[v] != v:
            return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(structures_with_functions())
def test_partial_check_through_the_new_image_matches_the_whole_check(st):
    # every injective partial map, assigned in element order as the
    # backtrack assigns it, whose parent passed the whole check; the
    # constant check is left to the singleton classes, so skip constants
    img = [None] * st.size
    pinned = set(st.const_values.values())

    def walk(a):
        for b in st.elements:
            if b in img or (a in pinned or b in pinned) and b != a:
                continue
            img[a] = b
            whole = _whole_partial_check(st, img)
            assert semantics._is_partial_ok(st, img, a) == whole, (img, a)
            if whole and a + 1 < st.size:
                walk(a + 1)
            img[a] = None

    walk(0)


def test_equal_type_spaces_compare_and_hash_equal_and_share_the_cache():
    st = directed_cycle(3)
    copy = parse_structure(format_structure(st))
    space = type_space(st, 1)
    assert copy is not st and type_space(copy, 1) is space
    built = semantics.TypeSpace(copy, 1, ())
    assert built is not space and built == space and space == built and not built != space
    assert hash(built) == hash(space) == hash((st, 1, ()))
    for other in (type_space(st, 2), type_space(st, 1, (0,)), type_space(directed_cycle(4), 1)):
        assert other != space and space != other and not other == space
