import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import randlab.axioms
from randlab import (
    FinProbSpace,
    FinStructure,
    Randomization,
    Signature,
    check_axioms,
    default_formula_corpus,
)
from randlab.axioms import EXACT_GROUPS, sentence_corpus, tautology_corpus
from randlab.formulas import Eq, Var
from randlab.randomization import RandomElement, event_of, event_witness
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


def test_corrupted_measure_detected(m2):
    rand = Randomization.constant(m2, FinProbSpace.uniform(4))
    # bypass construction-time validation to hand the checker a broken measure
    rand.base.weight[0] = F(24, 100)
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
