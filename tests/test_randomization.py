import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

from randlab import (
    EventAlgebra,
    FinProbSpace,
    RandomElement,
    Randomization,
    ValidationError,
    approximate_by_simple,
    convex_combination,
    d_b,
    d_k,
    event_of,
    event_witness,
    eval_cformula,
    fullness_witness,
    mu,
    parse_cformula,
    parse_formula,
    rtype_of,
    rtype_of_over,
    type_space,
)
from randlab.axioms import default_formula_corpus
from randlab.formulas import And, App, Eq, Exists, Forall, Implies, Not, Or, Rel, Var, free_vars
from randlab.randomization import _events_of
from randlab.semantics import eval_formula
from randlab.structures import FinStructure, Signature
from test_semantics import DIGRAPH, DIGRAPH_FORMULAS, _tree_walk_eval_formula, digraphs

F = Fraction


def inject_element(combined, part_index, f) -> RandomElement:
    """Lift a part's random element into a convex combination's base; points
    of other parts get the element 0."""
    values = {label: f(label[1]) if label[0] == part_index else 0 for label in combined.base.points}
    return RandomElement(combined.base, values)


def test_make_randomization_counts(m2, c3, skewed_base):
    r = Randomization.constant(m2, FinProbSpace.dyadic(3))
    assert r.carrier_size() == 256
    rc = Randomization.constant(c3, skewed_base)
    assert rc.carrier_size() == 27


def test_mixed_signatures_rejected(m2, c3):
    base = FinProbSpace.dyadic(1)
    with pytest.raises(ValidationError):
        Randomization(base, {0: m2, 1: c3})


def test_event_of_examples(m2, c3, coin_rand):
    f = coin_rand.element([0, 1])
    g = coin_rand.element([0, 0])
    phi = parse_formula("x = y", m2.signature)
    assert event_of(coin_rand, phi, {"x": f, "y": g}) == frozenset({0})

    rc = Randomization.constant(c3, FinProbSpace.uniform(3))
    anyf = rc.element([2, 0, 1])
    out = parse_formula("exists z (E(x, z))", c3.signature)
    assert event_of(rc, out, {"x": anyf}) == rc.full_event()


def test_distance_examples(coin_rand):
    assert mu(coin_rand, coin_rand.full_event()) == 1
    assert mu(coin_rand, frozenset()) == 0
    f = coin_rand.element([0, 1])
    g = coin_rand.element([0, 0])
    assert d_k(coin_rand, f, g) == F(1, 2)
    base4 = Randomization.constant(coin_rand.structure, FinProbSpace.uniform(4))
    assert d_b(base4, frozenset({0, 1}), frozenset({1, 2})) == F(1, 2)


def test_fullness_witness_examples(m2, c3, coin_rand):
    phi = parse_formula("!(x = y)", m2.signature)
    g0 = RandomElement.constant(coin_rand.base, 0)
    f = fullness_witness(coin_rand, phi, "x", {"y": g0})
    assert all(f(w) == 1 for w in coin_rand.base.points)
    assert event_of(coin_rand, phi, {"x": f, "y": g0}) == coin_rand.full_event()

    # unsatisfiable: both events empty
    bad = parse_formula("!(x = x)", m2.signature)
    fb = fullness_witness(coin_rand, bad, "x", {})
    assert event_of(coin_rand, bad, {"x": fb}) == frozenset()

    rc = Randomization.constant(c3, FinProbSpace.uniform(3))
    succ = parse_formula("E(y, x)", c3.signature)
    g = RandomElement.constant(rc.base, 0)
    w = fullness_witness(rc, succ, "x", {"y": g})
    assert all(w(p) == 1 for p in rc.base.points)


def test_fullness_witness_exact_on_corpus(c3):
    from randlab.axioms import default_formula_corpus
    from conftest import sample_elements

    rc = Randomization.constant(c3, FinProbSpace.uniform(4))
    pool = sample_elements(rc, 5)
    rng = random.Random(3)
    from randlab.formulas import free_vars

    for phi in default_formula_corpus(c3.signature)[:30]:
        if "x" not in free_vars(phi):
            continue
        rest = sorted(free_vars(phi) - {"x"})
        binding = {v: rng.choice(pool) for v in rest}
        f = fullness_witness(rc, phi, "x", binding)
        assert event_of(rc, phi, {**binding, "x": f}) == event_of(
            rc, Exists("x", phi), binding
        )


def test_event_witness_examples(coin_rand, m2):
    phi = parse_formula("x = y", m2.signature)
    for e in (coin_rand.full_event(), frozenset(), frozenset({1})):
        f, g = event_witness(coin_rand, e)
        assert event_of(coin_rand, phi, {"x": f, "y": g}) == e
    base4 = Randomization.constant(m2, FinProbSpace.uniform(4))
    e = frozenset({0, 1})
    f, g = event_witness(base4, e)
    assert d_b(base4, event_of(base4, phi, {"x": f, "y": g}), e) == 0


def test_transfer_sentences(c3):
    rc = Randomization.constant(c3, FinProbSpace.uniform(5))
    true_sentence = parse_formula("forall x (exists y (E(x, y)))", c3.signature)
    false_sentence = parse_formula("exists x (E(x, x))", c3.signature)
    assert mu(rc, event_of(rc, true_sentence, {})) == 1
    assert mu(rc, event_of(rc, false_sentence, {})) == 0


def test_boolean_identities_exhaustive_small(m2):
    # connective identities for every pair of corpus formulas over a tiny base
    from randlab.axioms import default_formula_corpus
    from conftest import sample_elements
    from randlab.formulas import And, Not, Or, free_vars

    r = Randomization.constant(m2, FinProbSpace.dyadic(2))
    pool = sample_elements(r, 4)
    corpus = default_formula_corpus(m2.signature)[:12]
    top = r.full_event()
    for phi, psi in itertools.combinations(corpus, 2):
        fv = sorted(free_vars(phi) | free_vars(psi))
        binding = {v: pool[i % len(pool)] for i, v in enumerate(fv)}
        e1 = event_of(r, phi, binding)
        e2 = event_of(r, psi, binding)
        assert event_of(r, Not(phi), binding) == top - e1
        assert event_of(r, Or(phi, psi), binding) == e1 | e2
        assert event_of(r, And(phi, psi), binding) == e1 & e2


def test_dk_zero_iff_equal(coin_rand):
    f = coin_rand.element([0, 1])
    g = coin_rand.element([0, 1])
    h = coin_rand.element([1, 1])
    assert d_k(coin_rand, f, g) == 0 and f == g
    assert d_k(coin_rand, f, h) > 0


def test_convex_combination_examples(m2, c3):
    sig = m2.signature
    phi = parse_formula("exists y (!(x = y))", sig)  # sentence-ish with x
    # sentence with measure 1 vs measure 0: use a 0-ary mix via P over constant
    r1 = Randomization.constant(m2, FinProbSpace.dyadic(1))
    r2 = Randomization.constant(m2, FinProbSpace.uniform(3))
    combo = convex_combination([(F(1, 2), r1), (F(1, 2), r2)])
    assert sum(combo.base.weight.values()) == 1

    # measure identity: mu[[phi(f)]] = sum of part weights times part measures
    f1 = r1.element([0, 1])
    f2 = r2.element([1, 0, 0])
    lifted = {}
    for label in combo.base.points:
        i, p = label
        lifted[label] = f1(p) if i == 0 else f2(p)
    f = RandomElement(combo.base, lifted)
    psi = parse_formula("x = #0", sig)
    lhs = mu(combo, event_of(combo, psi, {"x": f}))
    rhs = F(1, 2) * mu(r1, event_of(r1, psi, {"x": f1})) + F(1, 2) * mu(
        r2, event_of(r2, psi, {"x": f2})
    )
    assert lhs == rhs


def test_convex_combination_splits_a_sentence(c3):
    # a part where the sentence holds surely mixed with one where it fails
    # surely: the combined measure is the mixing weight
    from randlab.structures import FinStructure

    sig = c3.signature
    no_edges = FinStructure(sig, 3, relations={"E": set()})
    r_true = Randomization.constant(c3, FinProbSpace.dyadic(1))
    r_false = Randomization.constant(no_edges, FinProbSpace.dyadic(1))
    combo = convex_combination([(F(1, 2), r_true), (F(1, 2), r_false)])
    sigma = parse_formula("exists x (exists y (E(x, y)))", sig)
    assert mu(r_true, event_of(r_true, sigma, {})) == 1
    assert mu(r_false, event_of(r_false, sigma, {})) == 0
    assert mu(combo, event_of(combo, sigma, {})) == F(1, 2)


def test_convex_combination_identity_case(m2):
    r1 = Randomization.constant(m2, FinProbSpace.dyadic(1))
    combo = convex_combination([(F(1), r1)])
    psi = parse_formula("x = #0", m2.signature)
    f1 = r1.element([0, 1])
    f = inject_element(combo, 0, f1)
    assert mu(combo, event_of(combo, psi, {"x": f})) == mu(
        r1, event_of(r1, psi, {"x": f1})
    )


def test_convex_combination_weight_validation(m2):
    r1 = Randomization.constant(m2, FinProbSpace.dyadic(1))
    with pytest.raises(ValidationError):
        convex_combination([(F(1, 2), r1), (F(1, 3), r1)])


def test_mixed_family_sentence_measures(m2, c3):
    # non-constant families exist too: a per-point structure family over a
    # shared signature gets sentence measures strictly between 0 and 1
    sig = c3.signature
    from randlab.structures import FinStructure

    no_edges = FinStructure(sig, 3, relations={"E": set()})
    base = FinProbSpace.dyadic(1)
    rand = Randomization(base, {0: c3, 1: no_edges})
    sigma = parse_formula("exists x (exists y (E(x, y)))", sig)
    assert mu(rand, event_of(rand, sigma, {})) == F(1, 2)


def test_approximate_measurable_input(m2):
    r3 = Randomization.constant(m2, FinProbSpace.dyadic(3))
    algebra = EventAlgebra(r3, [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})])
    f = r3.element([0, 0, 1, 1, 0, 0, 1, 1])
    g = approximate_by_simple(r3, f, algebra, F(1, 100))
    assert d_k(r3, f, g) == 0


def test_elements_from_another_base_are_refused(m2):
    r1 = Randomization.constant(m2, FinProbSpace.dyadic(1))
    r2 = Randomization.constant(m2, FinProbSpace.dyadic(2))
    f2 = r2.element([0, 1, 1, 1])
    algebra = EventAlgebra(r1, [])
    space = type_space(m2, 1, ())
    with pytest.raises(ValidationError, match="element lives on a different base"):
        rtype_of(r1, [f2])
    with pytest.raises(ValidationError, match="element lives on a different base"):
        rtype_of_over(r1, [r1.element([0, 1]), f2], type_space(m2, 2, ()))
    with pytest.raises(ValidationError, match="element lives on a different base"):
        approximate_by_simple(r1, f2, algebra, F(1))
    # an equal base that is another object is the same base
    twin = Randomization.constant(m2, FinProbSpace.dyadic(1))
    f1 = twin.element([0, 1])
    assert twin.base is not r1.base
    assert rtype_of_over(r1, [f1], space) == rtype_of(twin, [f1])
    assert d_k(r1, f1, approximate_by_simple(r1, f1, algebra, F(1))) <= F(1, 2)


def test_approximate_spec_example(m2):
    r3 = Randomization.constant(m2, FinProbSpace.dyadic(3))
    algebra = EventAlgebra(r3, [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})])
    f = r3.element([0, 1, 0, 1, 0, 1, 0, 1])
    g = approximate_by_simple(r3, f, algebra, F(1))
    assert d_k(r3, f, g) <= F(1, 2) < F(1)


def test_approximate_large_eps_accepts_anything(m2):
    r3 = Randomization.constant(m2, FinProbSpace.dyadic(2))
    algebra = EventAlgebra(r3, [])  # trivial algebra
    f = r3.element([0, 1, 1, 0])
    g = approximate_by_simple(r3, f, algebra, F(2))
    assert d_k(r3, f, g) <= 1 < 2


def test_approximate_budget_arithmetic(m2):
    # when the algebra is dense enough, the construction meets the staged
    # bounds: head mass, per-level rounding, disjointified pieces, total
    r3 = Randomization.constant(m2, FinProbSpace.dyadic(3))
    algebra = EventAlgebra(r3, [frozenset({i}) for i in range(8)])
    f = r3.element([0, 1, 0, 1, 0, 0, 1, 1])
    eps = F(1, 2)
    g, trace = approximate_by_simple(r3, f, algebra, eps, with_trace=True)
    n = trace.n
    assert trace.head_mass > 1 - eps / 2
    for level in trace.levels:
        assert level["approx_error"] < eps / (4 * n * n)
        assert level["piece_error"] < eps / (2 * n)
    assert d_k(r3, f, g) < eps


def test_approximate_reports_worst_level(m2):
    r3 = Randomization.constant(m2, FinProbSpace.dyadic(3))
    algebra = EventAlgebra(r3, [])  # too coarse for a fine eps
    f = r3.element([0, 1, 0, 1, 0, 1, 0, 1])
    with pytest.raises(ValidationError) as err:
        approximate_by_simple(r3, f, algebra, F(1, 4))
    assert "level set" in str(err.value)


def test_qe_consequence_same_type_measures_same_cformula_values(m2):
    # tuples with identical type measures agree on every continuous formula,
    # including quantified ones
    r = Randomization.constant(m2, FinProbSpace.uniform(4))
    f1, g1 = r.element([0, 0, 1, 1]), r.element([0, 1, 0, 1])
    f2, g2 = r.element([1, 1, 0, 0]), r.element([1, 0, 1, 0])
    assert rtype_of(r, [f1, g1]) == rtype_of(r, [f2, g2])
    corpus = [
        "mu[[ x = y ]]",
        "~mu[[ x = y ]] -. 1/3",
        "min(mu[[ x = y ]], half(mu[[ !(x = y) ]]))",
        "sup z (mu[[ z = x ]] -. mu[[ z = y ]])",
        "inf z (max(mu[[ z = x ]], mu[[ z = y ]]))",
    ]
    for text in corpus:
        cf = parse_cformula(text, m2.signature)
        v1 = eval_cformula(r, cf, {"x": f1, "y": g1})
        v2 = eval_cformula(r, cf, {"x": f2, "y": g2})
        assert v1 == v2, text


def test_element_validates_length_and_range(coin_rand):
    for values in ([0], [0, 1, 0], [0, 2], [-1, 0]):
        with pytest.raises(ValidationError):
            coin_rand.element(values)
    assert coin_rand.element([1, 0]).values == {0: 1, 1: 0}


def test_fullness_witness_binding_checked_like_event_of(m2, coin_rand):
    phi = parse_formula("!(x = y)", m2.signature)
    g = coin_rand.element([0, 1])
    # a sequence binds the free variables other than x, in sorted order
    assert fullness_witness(coin_rand, phi, "x", [g]) == fullness_witness(
        coin_rand, phi, "x", {"y": g}
    )
    other_base = Randomization.constant(m2, FinProbSpace.uniform(4)).element([0] * 4)
    for binding in ({}, [], [g, g], {"y": other_base}):
        with pytest.raises(ValidationError):
            fullness_witness(coin_rand, phi, "x", binding)
    # an element on an equal but distinct base is accepted, by event_of too
    twin = RandomElement(FinProbSpace.dyadic(1), g.values)
    assert twin.base is not coin_rand.base and twin.base == coin_rand.base
    assert fullness_witness(coin_rand, phi, "x", {"y": twin}) == (
        fullness_witness(coin_rand, phi, "x", {"y": g})
    )
    assert event_of(coin_rand, phi, {"x": twin, "y": g}) == frozenset()
    with pytest.raises(ValidationError):
        event_of(coin_rand, phi, {"x": twin, "y": other_base})
    # the witness's own variable is not part of the binding
    assert fullness_witness(coin_rand, phi, "x", {"y": g, "x": other_base}) == (
        fullness_witness(coin_rand, phi, "x", {"y": g})
    )


def test_partial_maps_name_the_missing_point(m2):
    base = FinProbSpace.dyadic(1)
    with pytest.raises(ValidationError, match=r"^family not total on the base: missing 1$"):
        Randomization(base, {0: m2})
    with pytest.raises(ValidationError, match=r"^random element not total on the base: missing 1$"):
        RandomElement(base, {0: 1})


def test_events_are_checked_against_the_base_points(coin_rand):
    assert coin_rand.full_event() == frozenset(coin_rand.base.points) == {0, 1}
    assert coin_rand.complement({0}) == {1}
    message = r"""^event contains foreign points \["'a'", '7'\]$"""
    for check in (lambda e: mu(coin_rand, e), lambda e: d_b(coin_rand, e, frozenset())):
        with pytest.raises(ValidationError, match=message):
            check(frozenset({0, 7, "a"}))


# --- Oracle: events and witnesses read off the tree walk, point by point ---------------

C3_CORPUS = default_formula_corpus(DIGRAPH)
VARIABLES = ["x", "y", "z", "w"]


def _oracle_event(rand, phi, binding):
    fv = sorted(free_vars(phi))
    return frozenset(
        w for w in rand.base.points
        if _tree_walk_eval_formula(rand.family[w], phi, {v: binding[v](w) for v in fv})
    )


def _oracle_witness(rand, phi, var, binding):
    fv = sorted(free_vars(phi) - {var})
    values = {}
    for w in rand.base.points:
        m = rand.family[w]
        val = {v: binding[v](w) for v in fv}
        values[w] = next(
            (a for a in m.elements if _tree_walk_eval_formula(m, phi, {**val, var: a})), 0
        )
    return RandomElement(rand.base, values)


def _outcome(call):
    try:
        return ("value", call())
    except Exception as exc:
        return ("raised", type(exc), str(exc))


@hst.composite
def bound_formulas(draw):
    """A constant or distinct-fibre digraph family on 1-4 points (universes
    of 2-4 elements, so `#k` literals fall out of range at some points), a
    formula, and random elements bound to x, y, z and w."""
    n = draw(hst.integers(1, 4))
    base = FinProbSpace.uniform(n)
    if draw(hst.booleans()):
        rand = Randomization.constant(draw(digraphs()), base)
    else:
        fibres = draw(hst.lists(digraphs(), min_size=n, max_size=n, unique=True))
        rand = Randomization(base, dict(zip(base.points, fibres)))
    phi = draw(hst.one_of(hst.sampled_from(C3_CORPUS), DIGRAPH_FORMULAS))
    binding = {
        v: RandomElement(
            base, {w: draw(hst.integers(0, m.size - 1)) for w, m in rand.family.items()}
        )
        for v in VARIABLES
    }
    return rand, phi, binding, draw(hst.sampled_from(VARIABLES))


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(bound_formulas())
def test_event_of_and_fullness_witness_match_the_tree_walk(case):
    rand, phi, binding, var = case
    assert _outcome(lambda: event_of(rand, phi, binding)) == _outcome(
        lambda: _oracle_event(rand, phi, binding)
    )
    rest = {v: f for v, f in binding.items() if v != var}
    got = _outcome(lambda: fullness_witness(rand, phi, var, rest))
    want = _outcome(lambda: _oracle_witness(rand, phi, var, rest))
    assert got == want
    if got[0] == "value":
        assert got[1].values == want[1].values


# --- One pass per binding: _events_of against event_of and the per-point walk -----------

def _one_pass_oracle(rand, phis, binding):
    """Each formula's event, point by point in base order and formula by
    formula at each point, through eval_formula."""
    events = [set() for _ in phis]
    for w in rand.base.points:
        val = {v: f(w) for v, f in binding.items()}
        for phi, event in zip(phis, events):
            if eval_formula(rand.family[w], phi, val):
                event.add(w)
    return [frozenset(event) for event in events]


@hst.composite
def bound_formula_lists(draw):
    """A family and binding as `bound_formulas` draws them, with 1-5
    formulas; the binding holds x, y, z and w, so most formulas leave
    some of its variables unread."""
    rand, phi, binding, _ = draw(bound_formulas())
    more = draw(hst.lists(hst.one_of(hst.sampled_from(C3_CORPUS), DIGRAPH_FORMULAS), max_size=4))
    return rand, [phi, *more], binding


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(bound_formula_lists())
def test_events_of_is_event_of_per_formula_in_one_pass(case):
    rand, phis, binding = case
    got = _outcome(lambda: _events_of(rand, phis, binding))
    assert got == _outcome(lambda: _one_pass_oracle(rand, phis, binding))
    alone = [_outcome(lambda phi=phi: event_of(rand, phi, binding)) for phi in phis]
    if all(outcome[0] == "value" for outcome in alone):
        assert got == ("value", [outcome[1] for outcome in alone])
    else:
        # the error of the formula that fails first, as it fails alone
        assert got[0] == "raised" and got in alone
    # a sequence binds the sorted free variables of all the formulas
    fv = sorted(frozenset().union(*[free_vars(phi) for phi in phis]))
    assert _outcome(lambda: _events_of(rand, phis, [binding[v] for v in fv])) == got


def test_event_of_keeps_its_errors(m2, coin_rand):
    phi = Eq(Var("x"), Var("y"))
    f = coin_rand.element([0, 1])
    foreign = Randomization.constant(m2, FinProbSpace.uniform(4)).element([0] * 4)
    cases = [
        ({"x": f}, "free variable 'y' not bound"),
        ({"x": f, "y": foreign}, "element bound to 'y' lives on a different base"),
        ((f,), "formula has free variables ['x', 'y'], got 1 elements"),
        ((f, f, f), "formula has free variables ['x', 'y'], got 3 elements"),
    ]
    for binding, message in cases:
        for call in (event_of, lambda r, p, b: _events_of(r, [p], b)[0]):
            with pytest.raises(ValidationError) as info:
                call(coin_rand, phi, binding)
            assert str(info.value) == message
    for bad in (42, Not(42)):
        with pytest.raises(TypeError) as info:
            event_of(coin_rand, bad, {})
        assert str(info.value) == "not a formula: 42"


def _randlab_exceptions(call):
    """The (function, exception type) of every `exception` trace event in a
    randlab frame while `call` runs, and its outcome."""
    seen = []

    def local(frame, event, arg):
        if event == "exception":
            seen.append((frame.f_code.co_name, arg[0].__name__))
        return local

    def global_trace(frame, event, arg):
        if frame.f_globals.get("__name__", "").startswith("randlab"):
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(global_trace)
    try:
        outcome = _outcome(call)
    finally:
        sys.settrace(previous)
    return seen, outcome


def test_first_compile_of_a_fresh_node_raises_nothing():
    sig = Signature(relations={"E": 2}, functions={"f": 1})
    m = FinStructure(sig, 3, relations={"E": {(0, 1), (1, 2)}}, functions={"f": {(0,): 1, (1,): 2, (2,): 0}})
    rand = Randomization(FinProbSpace.dyadic(1), {0: m, 1: m})
    binding = {"x": rand.element([0, 1]), "y": rand.element([2, 1])}

    def fresh():
        fx = App("f", (Var("x"),))
        return Or(
            Exists("z", And(Rel("E", (fx, Var("z"))), Not(Eq(Var("z"), Var("y"))))),
            Forall("z", Implies(Rel("E", (Var("z"), Var("y"))), Eq(App("f", (Var("z"),)), fx))),
        )

    phi = fresh()
    assert "_holds" not in vars(phi) and "_free_vars" not in vars(phi)
    seen, outcome = _randlab_exceptions(lambda: event_of(rand, phi, binding))
    assert seen == [] and outcome == ("value", event_of(rand, fresh(), binding))
    assert "_holds" in vars(phi) and "_free_vars" in vars(phi)
    seen, outcome = _randlab_exceptions(lambda: free_vars(fresh()))
    assert seen == [] and outcome == ("value", frozenset({"x", "y"}))
    # the tracer does see an exception raised in a randlab frame
    seen, outcome = _randlab_exceptions(lambda: event_of(rand, fresh(), {"x": binding["x"]}))
    assert outcome[:2] == ("raised", ValidationError)
    assert ("_check_binding", "ValidationError") in seen


def test_random_elements_are_equal_exactly_when_base_and_values_are(coin_rand):
    base = FinProbSpace.dyadic(1)
    f = RandomElement(base, {0: 1, 1: 0})
    twin = RandomElement(FinProbSpace.dyadic(1), {1: 0, 0: 1})
    assert twin is not f and twin.base is not base
    # the key waits for the first comparison or hash
    assert "_key_cache" not in vars(f) and "_key_cache" not in vars(twin)
    assert f == twin and not f != twin and hash(f) == hash(twin) and {f, twin} == {f}
    others = [
        RandomElement(base, {0: 1, 1: 1}),
        RandomElement(FinProbSpace([(1, F(1, 2)), (0, F(1, 2))]), {0: 1, 1: 0}),
        RandomElement(FinProbSpace([(0, F(1, 3)), (1, F(2, 3))]), {0: 1, 1: 0}),
    ]
    for other in others:
        assert f != other and not f == other
    assert len({f, twin, *others}) == 4
    assert f != [1, 0] and f != "[1, 0]"
    assert repr(f) == repr(twin) == "[1, 0]"
    assert coin_rand.element([1, 0]) == f and repr(coin_rand.element([0, 1])) == "[0, 1]"
