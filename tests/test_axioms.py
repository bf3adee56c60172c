import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import randlab.axioms
import randlab.randomization
import randlab.semantics
from randlab import (
    FinProbSpace,
    FinStructure,
    Randomization,
    Signature,
    check_axioms,
    default_formula_corpus,
    directed_cycle,
    linear_order,
    pure_set,
)
from conftest import sentence_corpus
from randlab.axioms import EXACT_GROUPS, tautology_corpus
from randlab.axioms import _base_atoms, _covering_bindings
from randlab.cformulas import CInf, CMu, CSup, EvFormula, eval_cformula
from randlab.formulas import And, Eq, Implies, Not, Or, Var
from randlab.formulas import Exists, Forall, Rel, format_formula, free_vars
from randlab.randomization import RandomElement, event_of, event_witness
from randlab.errors import BudgetError, ValidationError, budget
from randlab.randomization import _events_of, _fullness_witnesses
from randlab.randomization import d_b, d_k, fullness_witness, mu
from randlab.semantics import eval_formula

F = Fraction


def test_corpus_is_large_enough(m2, c3, l3):
    for st in (m2, c3, l3):
        corpus = default_formula_corpus(st.signature)
        assert len(corpus) >= 40
        assert len({str(phi) for phi in corpus}) == len(corpus)


def test_tautologies_really_are_valid(m2, c3, l3):
    import itertools

    from randlab.formulas import free_vars

    for st in (m2, c3, l3):
        for phi in tautology_corpus(st.signature):
            fv = sorted(free_vars(phi))
            for tup in itertools.product(st.elements, repeat=len(fv)):
                assert eval_formula(st, phi, dict(zip(fv, tup))), (st.name, phi)


def test_axiom_suite_dyadic(m2):
    rand = Randomization.constant(m2, FinProbSpace.dyadic(3))
    report = check_axioms(rand)
    assert report.exact_groups_pass()
    assert report.atomless_defect == F(1, 16)
    assert report.by_group("atomless").passed


def test_axiom_suite_skewed_base(c3, skewed_base):
    rand = Randomization.constant(c3, skewed_base)
    report = check_axioms(rand)
    assert report.exact_groups_pass()
    # the atomless axiom genuinely fails on a non-dyadic base
    assert report.atomless_defect == F(1, 4)
    assert not report.by_group("atomless").passed


# --- Atomless defect: the closed form against the enumeration --------------------

ATOMLESS_HARD_LIMIT = 12  # largest non-uniform base whose 2^n events are searched


def atomless_defect_by_enumeration(rand: Randomization) -> Fraction:
    """max over events U of the distance from mu(U)/2 to the masses of
    subevents of U.  Closed form for uniform bases; exhaustive otherwise."""
    weights = [rand.base.weight[p] for p in rand.base.points]
    n = len(weights)
    if len(set(weights)) == 1:
        # all subset masses are multiples of the atom; odd-sized events
        # (always present) miss their half by exactly half an atom
        return weights[0] / 2
    if n > ATOMLESS_HARD_LIMIT:
        raise BudgetError("atomless defect on a large non-uniform base", 2**n)
    worst = Fraction(0)
    for mask in range(1, 2**n):
        atoms = [weights[i] for i in range(n) if mask >> i & 1]
        target = sum(atoms, Fraction(0)) / 2
        sums = {Fraction(0)}
        for a in atoms:
            sums |= {s + a for s in sums}
        best = min(abs(s - target) for s in sums)
        worst = max(worst, best)
    return worst


def _base_of(counts: list[int]) -> FinProbSpace:
    total = sum(counts)
    return FinProbSpace([(i, F(k, total)) for i, k in enumerate(counts)])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=10))
def test_atomless_defect_matches_the_enumeration(counts):
    rand = Randomization.constant(directed_cycle(3), _base_of(counts))
    assert randlab.axioms.atomless_defect(rand) == atomless_defect_by_enumeration(rand)


def test_atomless_defect_on_a_large_non_uniform_base(m2):
    # past the enumeration's reach: 20 points of weights 1..20 over 210
    rand = Randomization.constant(m2, _base_of(list(range(1, 21))))
    with pytest.raises(BudgetError):
        atomless_defect_by_enumeration(rand)
    assert randlab.axioms.atomless_defect(rand) == F(20, 210) / 2
    report = check_axioms(rand)
    assert report.exact_groups_pass()
    assert report.lines()[-2] == "FAIL axiom-atomless defect 1/21 vs threshold 1/420"


def test_corrupted_measure_detected(m2):
    # bypass construction-time validation to hand the checker a broken measure
    weight = {0: F(24, 100), 1: F(1, 4), 2: F(1, 4), 3: F(1, 4)}
    broken = object.__new__(FinProbSpace)
    broken.points = tuple(weight)
    broken.point_set = frozenset(weight)
    broken.weight = weight
    broken._key_cache = tuple(weight.items())
    rand = Randomization.constant(m2, broken)
    report = check_axioms(rand)
    assert not report.by_group("measure").passed


def test_report_lines_shape(m2):
    rand = Randomization.constant(m2, FinProbSpace.dyadic(2))
    lines = check_axioms(rand).lines()
    assert len(lines) == len(EXACT_GROUPS) + 1
    assert all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_transfer_group_on_mixed_family(c3):
    from randlab.structures import FinStructure

    sig = c3.signature
    no_edges = FinStructure(sig, 3, relations={"E": set()})
    rand = Randomization(FinProbSpace.dyadic(1), {0: c3, 1: no_edges})
    report = check_axioms(rand)
    assert report.by_group("transfer").passed


def test_sentence_corpus_nonempty(c3):
    assert len(sentence_corpus(c3.signature)) >= 8


def _text_deduplicated_corpus(sig):
    """default_formula_corpus as it deduplicated by printed text, kept verbatim."""
    atoms = _base_atoms(sig)
    corpus = []
    seen = set()

    def push(phi):
        key = format_formula(phi)
        if key not in seen:
            seen.add(key)
            corpus.append(phi)

    for a in atoms:
        push(a)
    for a in atoms:
        push(Not(a))
    for a, b in itertools.combinations(atoms, 2):
        if len(corpus) >= 64:
            break
        push(And(a, b))
        push(Or(a, b))
        push(Implies(a, b))
    quantifiable = [a for a in atoms if "z" in free_vars(a)] or [
        Eq(Var("z"), Var("x"))
    ]
    for a in quantifiable:
        push(Exists("z", a))
        push(Forall("z", a))
        push(Exists("z", And(a, Not(Eq(Var("z"), Var("x"))))))
        push(Forall("z", Or(a, Eq(Var("z"), Var("x")))))
    for a, b in itertools.combinations(atoms, 2):
        if len(corpus) >= 60:
            break
        push(Not(And(a, Not(b))))
        push(Or(Not(a), And(a, b)))
    if len(corpus) < 40:
        for a, b, c in itertools.combinations(atoms, 3):
            push(And(a, Or(b, c)))
            if len(corpus) >= 40:
                break
    return corpus


MIXED = Signature(relations={"U": 1, "T": 3}, functions={"f": 1}, constants=["c"])


def test_corpus_deduplicated_by_node_is_the_text_deduplicated_one(m2, c3, l3):
    for sig in (m2.signature, c3.signature, l3.signature, MIXED):
        got = default_formula_corpus(sig)
        want = _text_deduplicated_corpus(sig)
        assert got == want, sig
        assert [repr(phi) for phi in got] == [repr(phi) for phi in want], sig


def test_check_axioms_builds_the_corpus_once(c3, monkeypatch):
    built = []
    corpus = randlab.axioms.default_formula_corpus

    def counted(sig):
        built.append(sig)
        return corpus(sig)

    monkeypatch.setattr(randlab.axioms, "default_formula_corpus", counted)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(1))
    assert check_axioms(rand).exact_groups_pass()
    assert built == [c3.signature]


def test_each_group_sizes_one_covering_per_variable_set(c3, monkeypatch):
    sized = []
    covering = randlab.axioms._covering_bindings

    def counted(rand, variables):
        sized.append(frozenset(variables))
        return covering(rand, variables)

    monkeypatch.setattr(randlab.axioms, "_covering_bindings", counted)
    rand = Randomization.constant(c3, FinProbSpace.dyadic(1))
    assert check_axioms(rand).exact_groups_pass()
    corpus = default_formula_corpus(c3.signature)
    pairs = zip(corpus, corpus[1:] + corpus[:1])
    validity = list(dict.fromkeys(free_vars(phi) for phi in tautology_corpus(c3.signature)))
    boolean = list(dict.fromkeys(free_vars(phi) | free_vars(psi) for phi, psi in pairs))
    fullness = list(
        dict.fromkeys(free_vars(phi) - {"x"} for phi in corpus if "x" in free_vars(phi))
    )
    assert sized == validity + boolean + fullness
    assert len(boolean) < len(corpus)


# --- The event group against the brute-force enumeration ---------------------------

EQ_XY = Eq(Var("x"), Var("y"))
BASES = [FinProbSpace.dyadic(k) for k in range(1, 5)] + [
    FinProbSpace([(0, F(1, 2)), (1, F(1, 3)), (2, F(1, 6))])
]
DIGRAPH = Signature(relations={"E": 2})


def brute_force_event_group(rand, witness=event_witness):
    """Whether every one of the 2^|Omega| events has exact witnesses."""
    pts = rand.base.points
    for mask in range(2 ** len(pts)):
        e = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
        f, g = witness(rand, e)
        if event_of(rand, EQ_XY, {"x": f, "y": g}) != e:
            return False
    return True


def assert_event_group_matches_oracle(rand):
    verdict = check_axioms(rand).by_group("event")
    assert verdict.passed == brute_force_event_group(rand)
    if verdict.passed:
        assert verdict.detail == f"{2 ** len(rand.base.points)} events, exact witnesses"


@pytest.mark.parametrize("base", BASES, ids=lambda b: f"{len(b.points)}pts")
@pytest.mark.parametrize("structure", ["m2", "c3", "l3"])
def test_event_group_matches_brute_force_constant(request, structure, base):
    rand = Randomization.constant(request.getfixturevalue(structure), base)
    assert_event_group_matches_oracle(rand)


def test_event_group_matches_brute_force_distinct_digraphs():
    rng = random.Random(3)
    graphs = set()
    while len(graphs) < 8:
        n = rng.choice([2, 3])
        edges = frozenset(
            (a, b) for a in range(n) for b in range(n) if rng.random() < 0.5
        )
        graphs.add((n, edges))
    base = FinProbSpace.dyadic(3)
    family = {
        w: FinStructure(DIGRAPH, n, relations={"E": edges})
        for w, (n, edges) in zip(base.points, sorted(graphs, key=repr))
    }
    rand = Randomization(base, family)
    assert len(set(rand.family.values())) == 8
    assert_event_group_matches_oracle(rand)


@st.composite
def small_randomizations(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    raw = [
        F(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(n)
    ]
    base = FinProbSpace([(i, w / sum(raw)) for i, w in enumerate(raw)])
    family = {}
    for w in base.points:
        size = draw(st.integers(2, 3))
        pairs = [(a, b) for a in range(size) for b in range(size)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        family[w] = FinStructure(DIGRAPH, size, relations={"E": set(edges)})
    return Randomization(base, family)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_randomizations())
def test_event_group_matches_brute_force_random(rand):
    assert_event_group_matches_oracle(rand)


def test_event_witness_is_pointwise(c3):
    rand = Randomization.constant(c3, FinProbSpace.dyadic(3))
    pts = rand.base.points
    rng = random.Random(5)
    seen = {}  # (w, w in e) -> the pairs (f(w), g(w)) met
    for _ in range(64):
        e = frozenset(p for p in pts if rng.random() < 0.5)
        f, g = event_witness(rand, e)
        for w in pts:
            seen.setdefault((w, w in e), set()).add((f(w), g(w)))
    assert len(seen) == 2 * len(pts)
    assert all(len(pairs) == 1 for pairs in seen.values())


def _corrupted_witness(bad_point, inside):
    """event_witness, except that [[f = g]] is wrong at `bad_point` when it
    lies inside the event (`inside`) or outside it (not `inside`)."""

    def witness(rand, e):
        f, g = event_witness(rand, e)
        if (bad_point in e) == inside:
            values = dict(g.values)
            values[bad_point] = 1 - f(bad_point) if inside else f(bad_point)
            g = RandomElement(rand.base, values)
        return f, g

    return witness


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
def test_event_group_fails_on_a_witness_wrong_at_one_point(monkeypatch, m2, inside):
    rand = Randomization.constant(m2, FinProbSpace.dyadic(3))
    for bad_point in rand.base.points:
        witness = _corrupted_witness(bad_point, inside)
        assert not brute_force_event_group(rand, witness)
        monkeypatch.setattr(randlab.axioms, "event_witness", witness)
        verdict = check_axioms(rand).by_group("event")
        assert not verdict.passed
        where = "inside" if inside else "outside"
        assert verdict.detail == f"witness inexact at point {bad_point!r} {where} the event"


@pytest.mark.parametrize(
    "base, detail",
    [
        (FinProbSpace.dyadic(5), "4294967296 events, exact witnesses"),
        (FinProbSpace.uniform(18), "262144 events, exact witnesses"),
    ],
    ids=["dyadic5", "uniform18"],
)
def test_event_group_exact_past_two_to_the_seventeen(m2, base, detail):
    verdict = check_axioms(Randomization.constant(m2, base)).by_group("event")
    assert verdict.passed and verdict.detail == detail


# --- The covering: its premise, its shape, and the groups it decides -----------------

@st.composite
def shared_fibre_randomizations(draw):
    """small_randomizations, with each point's fibre copied from some point,
    so that fibre classes of several points occur."""
    rand = draw(small_randomizations())
    pts = rand.base.points
    source = draw(st.lists(st.sampled_from(pts), min_size=len(pts), max_size=len(pts)))
    return Randomization(rand.base, {w: rand.family[s] for w, s in zip(pts, source)})


def _draw_binding(data, rand, variables):
    return {
        v: RandomElement(
            rand.base,
            {w: data.draw(st.integers(0, rand.family[w].size - 1)) for w in rand.base.points},
        )
        for v in sorted(variables)
    }


DIGRAPH_CORPUS = default_formula_corpus(DIGRAPH)
PREMISE_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@PREMISE_SETTINGS
@given(shared_fibre_randomizations(), st.data())
def test_event_of_reads_a_point_through_its_fibre_and_values(rand, data):
    phi = data.draw(st.sampled_from(DIGRAPH_CORPUS))
    binding = _draw_binding(data, rand, free_vars(phi))
    event = event_of(rand, phi, binding)
    for w in rand.base.points:
        val = {v: f(w) for v, f in binding.items()}
        assert (w in event) == eval_formula(rand.family[w], phi, val)


@PREMISE_SETTINGS
@given(shared_fibre_randomizations(), st.data())
def test_event_of_connectives_are_pointwise_set_operations(rand, data):
    # the connective identities of the boolean group follow from this
    phi, psi = (data.draw(st.sampled_from(DIGRAPH_CORPUS)) for _ in "ab")
    binding = _draw_binding(data, rand, free_vars(phi) | free_vars(psi))
    e_phi, e_psi = (event_of(rand, chi, binding) for chi in (phi, psi))
    assert event_of(rand, Not(phi), binding) == rand.full_event() - e_phi
    assert event_of(rand, Or(phi, psi), binding) == e_phi | e_psi
    assert event_of(rand, And(phi, psi), binding) == e_phi & e_psi


@PREMISE_SETTINGS
@given(shared_fibre_randomizations(), st.data())
def test_fullness_witness_reads_a_point_through_its_fibre_and_values(rand, data):
    phi = data.draw(st.sampled_from([p for p in DIGRAPH_CORPUS if "x" in free_vars(p)]))
    binding = _draw_binding(data, rand, free_vars(phi) - {"x"})
    f = fullness_witness(rand, phi, "x", binding)
    for w in rand.base.points:
        # the same fibre and values on a base of one point give the same pick
        alone = FinProbSpace([(w, F(1))])
        local = {v: RandomElement(alone, {w: g(w)}) for v, g in binding.items()}
        pick = fullness_witness(Randomization(alone, {w: rand.family[w]}), phi, "x", local)
        assert pick(w) == f(w)


@PREMISE_SETTINGS
@given(shared_fibre_randomizations(), st.data())
def test_d_k_sums_the_weights_of_disagreeing_points(rand, data):
    b = _draw_binding(data, rand, "fg")
    f, g = b["f"], b["g"]
    differ = [rand.base.weight[w] for w in rand.base.points if f(w) != g(w)]
    assert d_k(rand, f, g) == sum(differ, F(0))


@PREMISE_SETTINGS
@given(shared_fibre_randomizations(), st.data())
def test_mu_and_d_b_sum_the_weights_of_their_points(rand, data):
    # the lattice, d_B and modular laws follow from this for all events
    u, v = (frozenset(data.draw(st.sets(st.sampled_from(rand.base.points)))) for _ in "uv")

    def weight(e):
        return sum((rand.base.weight[w] for w in e), F(0))

    assert mu(rand, u) == weight(u)
    assert d_b(rand, u, v) == weight(u ^ v)


@PREMISE_SETTINGS
@given(shared_fibre_randomizations(), st.integers(0, 3))
def test_covering_bindings_meet_every_fibre_valuation_pair(rand, k):
    variables = ["x", "y", "z"][:k]
    cover = _covering_bindings(rand, variables)
    classes = {}
    for w in rand.base.points:
        classes.setdefault(rand.family[w], []).append(w)
    met = {
        (rand.family[w], tuple(b[v](w) for v in variables))
        for b in cover
        for w in rand.base.points
    }
    assert met == {
        (m, val) for m in classes for val in itertools.product(m.elements, repeat=k)
    }
    assert len(cover) == max(math.ceil(m.size**k / len(ws)) for m, ws in classes.items())


def test_covering_over_budget_raises_before_building(m2):
    # pure_set(2) over dyadic(1), three variables: 2^3 / 2 bindings, 8 slots
    rand = Randomization.constant(m2, FinProbSpace.dyadic(1))
    with budget(8):
        assert len(_covering_bindings(rand, "xyz")) == 4
    with budget(7), pytest.raises(BudgetError) as err:
        _covering_bindings(rand, "xyz")
    assert err.value.required == 8


def _eager_covering(rand, variables):
    """The covering as a list, every binding built up front."""
    variables = sorted(variables)
    k = len(variables)
    classes = {}
    for w in rand.base.points:
        classes.setdefault(rand.family[w], []).append(w)
    count = max(-(-m.size**k // len(ws)) for m, ws in classes.items())
    values = [[{} for _ in variables] for _ in range(count)]
    for m, ws in classes.items():
        valuations = list(itertools.product(m.elements, repeat=k))
        for t in range(count):
            for j, w in enumerate(ws):
                for i, a in enumerate(valuations[(t * len(ws) + j) % len(valuations)]):
                    values[t][i][w] = a
    return [
        {v: RandomElement(rand.base, vals) for v, vals in zip(variables, per_variable)}
        for per_variable in values
    ]


@PREMISE_SETTINGS
@given(shared_fibre_randomizations(), st.integers(0, 3))
def test_lazy_covering_equals_the_eager_list(rand, k):
    variables = ["z", "x", "y"][:k]
    cover = _covering_bindings(rand, variables)
    eager = _eager_covering(rand, variables)
    assert len(cover) == len(eager)
    assert list(cover) == eager
    assert [cover[i] for i in range(-len(eager), 0)] == eager
    for i in (len(eager), -len(eager) - 1):
        with pytest.raises(IndexError):
            cover[i]


def test_walking_a_large_covering_keeps_memory_flat():
    # C30 over two points, three variables: 27000 valuations, 13500 bindings
    rand = Randomization.constant(directed_cycle(30), FinProbSpace.dyadic(1))
    tracemalloc.start()
    try:
        cover = _covering_bindings(rand, "xyz")
        walked = sum(1 for _ in cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == len(cover) == 13500
    assert peak < 2**20


def _full_product_verdicts(rand):
    """The validity and fullness verdicts over every binding from the whole
    carrier, through the (possibly patched) functions check_axioms calls."""
    carrier = list(rand.all_elements())
    top = rand.full_event()

    def bindings(variables):
        variables = sorted(variables)
        for combo in itertools.product(carrier, repeat=len(variables)):
            yield dict(zip(variables, combo))

    def event(phi, binding):
        return randlab.axioms._events_of(rand, [phi], binding)[0]

    def exact(phi, binding):
        f = randlab.axioms._fullness_witnesses(rand, [phi], "x", binding)[0]
        lhs = event(phi, {**binding, "x": f})
        return lhs == event(Exists("x", phi), binding)

    failures = [
        format_formula(phi)
        for phi in tautology_corpus(rand.signature)
        if any(event(phi, b) != top for b in bindings(free_vars(phi)))
    ]
    validity = (
        not failures,
        failures[0] if failures else "tautology corpus, per-point evaluation",
    )
    fullness = (True, "")
    for phi in default_formula_corpus(rand.signature):
        if "x" in free_vars(phi) and not all(
            exact(phi, b) for b in bindings(free_vars(phi) - {"x"})
        ):
            fullness = (False, f"witness inexact for {format_formula(phi)}")
            break
    return validity, fullness


def _events_of_wrong_at(phi0, fibre, valuation):
    """_events_of, except that phi0's event drops every point of `fibre`
    whose sorted free variables take `valuation` there."""

    def wrong(rand, phi, e, binding):
        if phi != phi0:
            return e
        fv = sorted(free_vars(phi))
        return frozenset(
            w for w in e
            if rand.family[w] != fibre or tuple(binding[v](w) for v in fv) != valuation
        )

    def faulty(rand, phis, binding):
        events = _events_of(rand, phis, binding)
        return [wrong(rand, phi, e, binding) for phi, e in zip(phis, events)]

    return faulty


def _x_eq_y_witness_wrong_at(fibre, y_value):
    """_fullness_witnesses, except that the witness of x = y is wrong at
    every point of `fibre` where y takes `y_value`."""
    phi0 = Eq(Var("x"), Var("y"))

    def wrong(rand, phi, f, binding):
        if phi != phi0:
            return f
        values = dict(f.values)
        for w in rand.base.points:
            if rand.family[w] == fibre and binding["y"](w) == y_value:
                values[w] = 1 - y_value
        return RandomElement(rand.base, values)

    def faulty(rand, phis, var, binding):
        witnesses = _fullness_witnesses(rand, phis, var, binding)
        return [wrong(rand, phi, f, binding) for phi, f in zip(phis, witnesses)]

    return faulty


def _mixed_c3(c3):
    no_edges = FinStructure(c3.signature, 3, relations={"E": set()})
    return Randomization(FinProbSpace.dyadic(1), {0: c3, 1: no_edges})


ORACLE_CASES = {
    "m2-dyadic2": lambda m2, c3: Randomization.constant(m2, FinProbSpace.dyadic(2)),
    "c3-dyadic1": lambda m2, c3: Randomization.constant(c3, FinProbSpace.dyadic(1)),
    "c3-mixed": lambda m2, c3: _mixed_c3(c3),
}


@pytest.mark.parametrize("fault", [None, "validity", "fullness"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_validity_and_fullness_match_the_full_product(monkeypatch, m2, c3, case, fault):
    rand = ORACLE_CASES[case](m2, c3)
    fibre = rand.family[rand.base.points[-1]]
    if fault == "validity":
        phi0 = tautology_corpus(rand.signature)[0]
        monkeypatch.setattr(
            randlab.axioms, "_events_of", _events_of_wrong_at(phi0, fibre, (0, 1))
        )
    elif fault == "fullness":
        monkeypatch.setattr(
            randlab.axioms, "_fullness_witnesses", _x_eq_y_witness_wrong_at(fibre, 1)
        )
    validity, fullness = _full_product_verdicts(rand)
    assert validity[0] == (fault != "validity")
    assert fullness[0] == (fault != "fullness")
    report = check_axioms(rand)
    for group, expected in (("validity", validity), ("fullness", fullness)):
        verdict = report.by_group(group)
        assert (verdict.passed, verdict.detail) == expected


# The distinct-fibre family of the axioms benchmark workload at seed 15.
DISTINCT_DIGRAPHS = [
    {(0, 1), (1, 0), (1, 1), (2, 0), (2, 2)},
    {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)},
    {(0, 0), (0, 2), (1, 2), (2, 0), (2, 2)},
    {(0, 0), (0, 2), (1, 2), (2, 2)},
    {(1, 1), (2, 0)},
    {(0, 0), (0, 1), (1, 1), (2, 0)},
    {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)},
    {(0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 2)},
]


def test_fullness_group_fails_on_every_wrong_witness_of_e_x_y(monkeypatch):
    base = FinProbSpace.dyadic(3)
    rand = Randomization(
        base,
        {
            w: FinStructure(DIGRAPH, 3, relations={"E": edges})
            for w, edges in zip(base.points, DISTINCT_DIGRAPHS)
        },
    )
    exy = Rel("E", (Var("x"), Var("y")))
    faults = 0
    for w_bad in base.points:
        m = rand.family[w_bad]
        for b in m.elements:
            wrong = [a for a in m.elements if not m.holds("E", (a, b))]
            if len(wrong) in (0, m.size):
                continue  # every pick is a witness, or none is: no fault
            faults += 1

            def faulty(rand, phis, var, binding, w_bad=w_bad, b=b, a=wrong[0]):
                return [
                    f if phi != exy or binding["y"](w_bad) != b
                    else RandomElement(rand.base, {**f.values, w_bad: a})
                    for phi, f in zip(phis, _fullness_witnesses(rand, phis, var, binding))
                ]

            monkeypatch.setattr(randlab.axioms, "_fullness_witnesses", faulty)
            verdict = check_axioms(rand).by_group("fullness")
            assert (verdict.passed, verdict.detail) == (False, "witness inexact for E(x, y)")
    assert faults == 15


def test_boolean_group_fails_on_an_or_event_missing_one_point(monkeypatch):
    rand = _digraph_family(FinProbSpace.dyadic(2), DISTINCT_DIGRAPHS[:4])
    clean = check_axioms(rand)
    assert clean.by_group("boolean").passed
    others = [v for v in clean.verdicts if v.group != "boolean"]
    corpus = default_formula_corpus(DIGRAPH)
    events_of = randlab.axioms._events_of
    faults = 0
    for phi, psi in zip(corpus, corpus[1:] + corpus[:1]):
        dropped = []

        def faulty(rand, phis, binding, target=(phi, psi, Not(phi), Or(phi, psi), And(phi, psi))):
            # the pairs sharing a binding come in one call, five formulas each
            events = events_of(rand, phis, binding)
            for j in range(0, len(phis), 5):
                if tuple(phis[j : j + 5]) == target and events[j + 3]:
                    w = next(p for p in rand.base.points if p in events[j + 3])
                    dropped.append(w)
                    events[j + 3] = events[j + 3] - {w}
            return events

        monkeypatch.setattr(randlab.axioms, "_events_of", faulty)
        report = check_axioms(rand)
        if not dropped:
            continue  # the Or event is empty at this pair's binding: nothing to drop
        faults += 1
        assert len(dropped) == 1
        assert f"FAIL axiom-boolean connective identity failed for {format_formula(phi)}" in (
            report.lines()
        )
        assert [v for v in report.verdicts if v.group != "boolean"] == others
    assert (faults, len(corpus)) == (75, 81)


def test_boolean_group_names_the_least_failing_pair(monkeypatch):
    # the pairs are checked a binding at a time, not in order: with pair 80
    # failing as well, the detail still names the lesser pair
    rand = _digraph_family(FinProbSpace.dyadic(2), DISTINCT_DIGRAPHS[:4])
    corpus = default_formula_corpus(DIGRAPH)
    pairs = list(zip(corpus, corpus[1:] + corpus[:1]))
    events_of = randlab.axioms._events_of
    for least in range(len(pairs) - 1):
        targets = [
            (phi, psi, Not(phi), Or(phi, psi), And(phi, psi))
            for phi, psi in (pairs[least], pairs[-1])
        ]

        def faulty(rand, phis, binding):
            events = events_of(rand, phis, binding)
            for j in range(0, len(phis), 5):
                if tuple(phis[j : j + 5]) in targets:
                    events[j + 2] = events[j + 2] ^ {rand.base.points[0]}  # the Not event
            return events

        monkeypatch.setattr(randlab.axioms, "_events_of", faulty)
        verdict = check_axioms(rand).by_group("boolean")
        assert (verdict.passed, verdict.detail) == (
            False, f"connective identity failed for {format_formula(pairs[least][0])}"
        )


def test_covering_failures_checks_the_payloads_still_passing_at_each_binding(c3, monkeypatch):
    rand = Randomization.constant(c3, FinProbSpace.dyadic(1))
    # (name, t): the payload fails at binding t of its covering, never if t is None
    items = [
        (("a", None), "x"), (("b", 0), "x"), (("c", 1), "xy"),
        (("d", None), "xy"), (("e", 3), "xy"), (("f", 1), "x"),
    ]
    log = []
    covering = randlab.axioms._covering_bindings

    def sized(rand, variables):
        log.append(("size", "".join(sorted(variables))))
        return covering(rand, variables)

    def holds(payloads, binding):
        variables = "".join(sorted(binding))
        t = list(covering(rand, variables)).index(binding)
        log.append((variables, t, [name for name, _ in payloads]))
        return [fails != t for _, fails in payloads]

    monkeypatch.setattr(randlab.axioms, "_covering_bindings", sized)
    failing = randlab.axioms.covering_failures(rand, items, holds)
    assert failing == [("b", 0), ("c", 1), ("e", 3), ("f", 1)]
    assert log == [
        ("size", "x"), ("size", "xy"),
        ("x", 0, ["a", "b", "f"]), ("x", 1, ["a", "f"]),
        ("xy", 0, ["c", "d", "e"]), ("xy", 1, ["c", "d", "e"]), ("xy", 2, ["d", "e"]),
        ("xy", 3, ["d", "e"]), ("xy", 4, ["d"]),
    ]


def _digraph_family(base, digraphs):
    return Randomization(
        base,
        {w: FinStructure(DIGRAPH, 3, relations={"E": e}) for w, e in zip(base.points, digraphs)},
    )


FULLNESS_CASES = {
    "c3-dyadic2": lambda c3, l3: Randomization.constant(c3, FinProbSpace.dyadic(2)),
    "l3-skewed": lambda c3, l3: Randomization.constant(
        l3, FinProbSpace([(0, F(1, 2)), (1, F(1, 3)), (2, F(1, 6))])
    ),
    "digraphs-dyadic2": lambda c3, l3: _digraph_family(
        FinProbSpace.dyadic(2), DISTINCT_DIGRAPHS[:4]
    ),
}


@pytest.mark.parametrize("case", sorted(FULLNESS_CASES))
def test_continuous_fullness_identities(c3, l3, case):
    # sup_x mu[[phi]] = mu[[exists x phi]] and inf_x mu[[phi]] = mu[[forall x phi]]
    rand = FULLNESS_CASES[case](c3, l3)
    checked = 0
    for phi in default_formula_corpus(rand.signature):
        if "x" not in free_vars(phi):
            continue
        body = CMu(EvFormula(phi))
        for binding in _covering_bindings(rand, free_vars(phi) - {"x"}):
            sup = eval_cformula(rand, CSup("x", body), binding)
            inf = eval_cformula(rand, CInf("x", body), binding)
            assert sup == mu(rand, event_of(rand, Exists("x", phi), binding)), phi
            assert inf == mu(rand, event_of(rand, Forall("x", phi), binding)), phi
            checked += 1
    assert checked >= len(default_formula_corpus(rand.signature)) // 2


# --- The report on the benchmark's case shapes, pinned --------------------------

def _pinned_lines(events, defect, threshold):
    verdict = "PASS" if F(defect) <= F(threshold) else "FAIL"
    return [
        "PASS axiom-validity tautology corpus, per-point evaluation",
        "PASS axiom-boolean",
        "PASS axiom-distance",
        "PASS axiom-fullness",
        f"PASS axiom-event {events} events, exact witnesses",
        "PASS axiom-measure",
        f"{verdict} axiom-atomless defect {defect} vs threshold {threshold}",
        "PASS axiom-transfer",
    ]


PINNED_BASES = {
    "dyadic1": (lambda: FinProbSpace.dyadic(1), 4, "1/4", "1/4"),
    "dyadic2": (lambda: FinProbSpace.dyadic(2), 16, "1/8", "1/8"),
    "dyadic3": (lambda: FinProbSpace.dyadic(3), 256, "1/16", "1/16"),
    "thirds": (
        lambda: FinProbSpace([(0, F(1, 2)), (1, F(1, 3)), (2, F(1, 6))]),
        8,
        "1/4",
        "1/12",
    ),
}


@pytest.mark.parametrize("base", sorted(PINNED_BASES))
@pytest.mark.parametrize("structure", ["m2", "c3", "l3"])
def test_report_pinned_on_constant_families(request, structure, base):
    make, events, defect, threshold = PINNED_BASES[base]
    report = check_axioms(Randomization.constant(request.getfixturevalue(structure), make()))
    assert report.lines() == _pinned_lines(events, defect, threshold)
    assert report.atomless_defect == F(defect)


def test_report_pinned_on_distinct_fibres():
    rand = _digraph_family(FinProbSpace.dyadic(3), DISTINCT_DIGRAPHS)
    assert len(set(rand.family.values())) == 8
    report = check_axioms(rand)
    assert report.lines() == _pinned_lines(256, "1/16", "1/16")
    assert report.atomless_defect == F(1, 16)


# --- The per-formula path, kept as the oracle of the batched groups ----------------

BATCHED_GROUPS = ("validity", "boolean", "fullness", "transfer")


def _per_formula_verdicts(rand):
    """The validity, boolean, fullness and transfer verdicts with one call
    per formula: one event_of per tautology and one fullness_witness and
    event_of pair per corpus formula at each covering binding, one binding
    per boolean pair, and one event_of per transfer sentence."""
    sig = rand.signature
    corpus = default_formula_corpus(sig)
    top = rand.full_event()

    def failing(phis, variables, holds):
        return [
            phi for phi in phis
            if not all(holds(phi, b) for b in _covering_bindings(rand, variables(phi)))
        ]

    bad = failing(tautology_corpus(sig), free_vars, lambda phi, b: event_of(rand, phi, b) == top)
    validity = (not bad, format_formula(bad[0]) if bad else "tautology corpus, per-point evaluation")

    detail = ""
    for i, (phi, psi) in enumerate(zip(corpus, corpus[1:] + corpus[:1])):
        cover = _covering_bindings(rand, free_vars(phi) | free_vars(psi))
        b = cover[i % len(cover)]
        e_phi, e_psi = event_of(rand, phi, b), event_of(rand, psi, b)
        if (
            event_of(rand, Not(phi), b) != top - e_phi
            or event_of(rand, Or(phi, psi), b) != e_phi | e_psi
            or event_of(rand, And(phi, psi), b) != e_phi & e_psi
        ):
            detail = f"connective identity failed for {format_formula(phi)}"
            break
    boolean = (not detail, detail)

    def exact(phi, b):
        f = fullness_witness(rand, phi, "x", b)
        return event_of(rand, phi, {**b, "x": f}) == event_of(rand, Exists("x", phi), b)

    with_x = [phi for phi in corpus if "x" in free_vars(phi)]
    bad = failing(with_x, lambda phi: free_vars(phi) - {"x"}, exact)
    fullness = (not bad, f"witness inexact for {format_formula(bad[0])}" if bad else "")

    transfer = (True, "")
    for sigma in randlab.axioms._closures(corpus):
        truth = [eval_formula(rand.family[w], sigma, {}) for w in rand.base.points]
        value = mu(rand, event_of(rand, sigma, {}))
        if all(truth) and value != 1:
            transfer = (False, f"true sentence got measure {value}")
        elif not any(truth) and value != 0:
            transfer = (False, f"false sentence got measure {value}")
        elif value != rand.base.mass([w for w, t in zip(rand.base.points, truth) if t]):
            transfer = (False, "sentence event mismatch")
    return [validity, boolean, fullness, transfer]


def assert_batched_groups_match_the_oracle(rand):
    report = check_axioms(rand)
    got = [(v.passed, v.detail) for v in report.verdicts if v.group in BATCHED_GROUPS]
    assert [v.group for v in report.verdicts if v.group in BATCHED_GROUPS] == list(BATCHED_GROUPS)
    assert got == _per_formula_verdicts(rand)


def _bench_families():
    """The 14 case families of the axioms benchmark workload: its
    distinct-fibre family at seed 15, and the weights 1/2, 1/3, 1/6 in
    that order."""
    bases = {f"dyadic{d}": FinProbSpace.dyadic(d) for d in (1, 2, 3)}
    bases["thirds"] = FinProbSpace([(0, F(1, 2)), (1, F(1, 3)), (2, F(1, 6))])
    out = {
        f"{name}-{b}": Randomization.constant(st_, base)
        for name, st_ in (("m2", pure_set(2)), ("c3", directed_cycle(3)), ("l3", linear_order(3)))
        for b, base in bases.items()
    }
    out["digraphs-dyadic3"] = _digraph_family(FinProbSpace.dyadic(3), DISTINCT_DIGRAPHS)
    out["c3-dyadic4"] = Randomization.constant(directed_cycle(3), FinProbSpace.dyadic(4))
    return out


BENCH_FAMILIES = _bench_families()


@pytest.mark.parametrize("case", sorted(BENCH_FAMILIES))
def test_batched_groups_match_the_per_formula_path(case):
    assert_batched_groups_match_the_oracle(BENCH_FAMILIES[case])


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(shared_fibre_randomizations())
def test_batched_groups_match_the_per_formula_path_random(rand):
    assert_batched_groups_match_the_oracle(rand)


def _holds_flipped_on(target):
    """semantics._holds, except that target's closure is wrong wherever the
    values it reads sum to an even number (so everywhere on a sentence)."""
    holds_of = randlab.semantics._holds

    def faulty(phi):
        holds = holds_of(phi)
        if phi != target:
            return holds
        return lambda m, val: holds(m, val) != (sum(val.values()) % 2 == 0)

    return faulty


FLIPPED = {
    "tautology": lambda sig: tautology_corpus(sig)[2],
    "atom": lambda sig: default_formula_corpus(sig)[0],
    "negation": lambda sig: default_formula_corpus(sig)[12],
    "sentence": lambda sig: randlab.axioms._closures(default_formula_corpus(sig))[3],
}


@pytest.mark.parametrize("target", sorted(FLIPPED))
@pytest.mark.parametrize("case", ["c3-dyadic2", "digraphs-dyadic3", "l3-thirds"])
def test_batched_groups_fail_like_the_per_formula_path(monkeypatch, case, target):
    # the closures both paths read, made wrong for one formula: both fail alike
    rand = BENCH_FAMILIES[case]
    faulty = _holds_flipped_on(FLIPPED[target](rand.signature))
    monkeypatch.setattr(randlab.randomization, "_holds", faulty)
    monkeypatch.setattr(randlab.axioms, "_holds", faulty)
    report = check_axioms(rand)
    assert not all(v.passed for v in report.verdicts if v.group in BATCHED_GROUPS)
    assert_batched_groups_match_the_oracle(rand)


def _least_witness(rand, phi, var, binding):
    """The witness of fullness_witness, read off eval_formula point by point."""
    values = {}
    for w in rand.base.points:
        m = rand.family[w]
        val = {v: f(w) for v, f in binding.items()}
        picks = [a for a in m.elements if eval_formula(m, phi, {**val, var: a})]
        values[w] = picks[0] if picks else m.elements[0]
    return RandomElement(rand.base, values)


@PREMISE_SETTINGS
@given(shared_fibre_randomizations(), st.data())
def test_fullness_witnesses_are_the_pointwise_least_witnesses(rand, data):
    var = data.draw(st.sampled_from("xyz"))
    phis = data.draw(st.lists(st.sampled_from(DIGRAPH_CORPUS), min_size=1, max_size=6))
    variables = frozenset().union(*[free_vars(phi) for phi in phis]) - {var}
    binding = _draw_binding(data, rand, variables)
    witnesses = _fullness_witnesses(rand, phis, var, binding)
    assert len(witnesses) == len(phis)
    for phi, f in zip(phis, witnesses):
        rest = {v: binding[v] for v in free_vars(phi) - {var}}
        assert f == _least_witness(rand, phi, var, rest)
        assert f == fullness_witness(rand, phi, var, binding)


@pytest.mark.parametrize("case", sorted(BENCH_FAMILIES))
def test_each_one_pass_call_checks_its_binding_once(monkeypatch, case):
    """_events_of, _fullness_witnesses and _witnessed_events check their
    binding once per call, whatever the number of formulas and points, and
    a bad binding raises that check's error."""
    rand = BENCH_FAMILIES[case]
    phis = [phi for phi in default_formula_corpus(rand.signature) if "x" in free_vars(phi)]
    binding = _covering_bindings(rand, "xyz")[0]
    witnesses = _fullness_witnesses(rand, phis, "x", binding)
    checks = []
    real = randlab.randomization._check_binding
    monkeypatch.setattr(
        randlab.randomization, "_check_binding", lambda *args: checks.append(args) or real(*args)
    )
    calls = {
        "_events_of": lambda binding: _events_of(rand, phis, binding),
        "_fullness_witnesses": lambda binding: _fullness_witnesses(rand, phis, "x", binding),
        "_witnessed_events": lambda binding: randlab.axioms._witnessed_events(
            rand, phis, "x", witnesses, binding
        ),
    }
    for name, call in calls.items():
        checks.clear()
        call(binding)
        assert len(checks) == 1, name
        checks.clear()
        with pytest.raises(ValidationError, match="free variable 'y' not bound"):
            call({v: f for v, f in binding.items() if v != "y"})
        assert len(checks) == 1, name
