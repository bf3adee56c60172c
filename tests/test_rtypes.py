import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hst

import randlab.rtypes
from randlab import (
    CondRealizationSpec,
    FinProbSpace,
    RandomElement,
    Randomization,
    RMeasure,
    ValidationError,
    check_omega_categoricity,
    d_metric,
    directed_cycle,
    linear_order,
    pure_set,
    realize,
    realize_conditional,
    rtype_of,
    rtype_of_over,
    type_of_tuple,
    type_space,
)
from randlab.randomization import event_of, mu
from conftest import simplex_measures
from randlab.rtypes import _split_base, cells_of, format_rmeasure
from randlab.semantics import TypeSpace

F = Fraction


def d_k_tuple(rand, fs, gs) -> Fraction:
    """Measure of the event that the two tuples differ in some coordinate."""
    assert len(fs) == len(gs)
    return rand.base.mass(frozenset(
        w for w in rand.base.points if any(f(w) != g(w) for f, g in zip(fs, gs))
    ))


def test_rtype_examples(m2, c3, l3):
    r = Randomization.constant(m2, FinProbSpace.dyadic(1))
    f = r.element([0, 1])
    nu = rtype_of(r, [f])
    assert [nu.weights[q] for q in nu.space.types] == [F(1)]

    rc = Randomization.constant(c3, FinProbSpace.uniform(3))
    f1, f2 = rc.element([0, 1, 2]), rc.element([1, 2, 0])
    nu2 = rtype_of(rc, [f1, f2])
    edge = type_of_tuple(c3, (0, 1))
    assert nu2.weights[nu2.space.types[edge.index]] == 1

    rl = Randomization.constant(l3, FinProbSpace.dyadic(1))
    f3 = rl.element([0, 2])
    nu3 = rtype_of(rl, [f3])
    assert [nu3.weights[q] for q in nu3.space.types] == [F(1, 2), F(0), F(1, 2)]


def test_rtype_rejects_nonconstant_family(c3):
    from randlab.structures import FinStructure

    other = FinStructure(c3.signature, 3, relations={"E": set()})
    rand = Randomization(FinProbSpace.dyadic(1), {0: c3, 1: other})
    with pytest.raises(ValidationError):
        rtype_of(rand, [rand.element([0, 0])])


def test_ctypes_identity_on_corpus(l3):
    # measure of {types containing phi} equals measure of the phi event
    import random

    from randlab.axioms import default_formula_corpus
    from conftest import sample_elements
    from randlab.formulas import free_vars

    rng = random.Random(11)
    rand = Randomization.constant(l3, FinProbSpace.uniform(4))
    pool = sample_elements(rand, 6, seed=11)
    for phi in default_formula_corpus(l3.signature)[:25]:
        fv = sorted(free_vars(phi))
        for _ in range(3):
            tup = [rng.choice(pool) for _ in fv]
            nu = rtype_of(rand, tup)
            assert nu.formula_mass(phi, fv) == mu(
                rand, event_of(rand, phi, dict(zip(fv, tup)))
            )


def test_realize_point_mass(l3):
    rand = Randomization.constant(l3, FinProbSpace.uniform(2))
    space = type_space(l3, 1, ())
    nu = RMeasure(space, {space.types[1]: F(1)})
    refined, (f,) = realize(rand, nu)
    assert all(f(p) == space.types[1].rep[0] for p in refined.rand.base.points)
    assert refined.rand.base.points == rand.base.points  # no refinement needed


def test_realize_round_trip_battery(m2, c3, l3):
    rand_for = {
        st.name: Randomization.constant(st, FinProbSpace([("w", F(1))]))
        for st in (m2, c3, l3)
    }
    for st in (m2, c3, l3):
        for n in (1, 2):
            space = type_space(st, n, ())
            if len(space) > 4:
                continue
            for nu in simplex_measures(space, 4):
                refined, elements = realize(rand_for[st.name], nu)
                assert rtype_of_over(refined.rand, elements, space) == nu


def test_realize_refines_misaligned_atoms(l3):
    base = FinProbSpace([("a", F(1, 2)), ("b", F(1, 2))])
    rand = Randomization.constant(l3, base)
    space = type_space(l3, 1, ())
    nu = RMeasure(space, {space.types[0]: F(3, 8), space.types[1]: F(5, 8)})
    refined, elements = realize(rand, nu)
    assert rtype_of_over(refined.rand, elements, space) == nu
    assert len(refined.rand.base.points) == 3  # one atom split


def test_d_metric_examples(l3):
    space = type_space(l3, 1, ())
    point0 = RMeasure(space, {space.types[0]: F(1)})
    point1 = RMeasure(space, {space.types[1]: F(1)})
    assert d_metric(point0, point0) == 0
    assert d_metric(point0, point1) == 1
    half = RMeasure(space, {space.types[0]: F(1, 2), space.types[1]: F(1, 2)})
    assert d_metric(half, point0) == F(1, 2)


def test_equal_type_measures_compare_and_hash_equal(l3):
    space = type_space(l3, 1, ())
    built = TypeSpace(linear_order(3), 1, ())
    assert built is not space and built == space
    nu = RMeasure(space, {space.types[0]: F(1, 3), space.types[2]: F(2, 3)})
    for copy in (
        RMeasure(built, {built.types[2]: F(2, 3), built.types[0]: F(1, 3)}),
        RMeasure(space, {space.types[0]: "1/3", space.types[1]: 0, space.types[2]: "2/3"}),
    ):
        assert copy is not nu and copy == nu and nu == copy and not copy != nu
        assert hash(copy) == hash(nu) == hash(copy._key_cache)
    for other in (
        RMeasure(space, {space.types[0]: F(2, 3), space.types[2]: F(1, 3)}),
        RMeasure(type_space(l3, 1, (0,)), {type_space(l3, 1, (0,)).types[0]: F(1)}),
        RMeasure(type_space(directed_cycle(3), 1), {type_space(directed_cycle(3), 1).types[0]: 1}),
    ):
        assert other != nu and nu != other and not other == nu
    # equal but distinct spaces are one space to the metric
    point = RMeasure(built, {built.types[1]: F(1)})
    assert d_metric(nu, point) == d_metric(point, nu) == 1
    assert d_metric(nu, RMeasure(built, nu.weights)) == 0


def test_d_metric_is_a_metric_small_denominators(l3):
    space = type_space(l3, 1, ())
    measures = simplex_measures(space, 3)
    for a in measures:
        for b in measures:
            dab = d_metric(a, b)
            assert dab == d_metric(b, a)
            assert (dab == 0) == (a == b)
            for c in measures[:10]:
                assert d_metric(a, c) <= dab + d_metric(b, c)


def _coupling_min(rand, nu1, nu2):
    """Brute force: minimum measure of disagreement over all pairs of
    realizations of the two type measures on the given base."""
    space = nu1.space
    pts = rand.base.points
    reps = {q: q.rep for q in space.types}
    assignments = []
    for combo in itertools.product(space.types, repeat=len(pts)):
        weights = {}
        for q, p in zip(combo, pts):
            weights[q] = weights.get(q, F(0)) + rand.base.weight[p]
        assignments.append((combo, weights))

    def matches(weights, nu):
        return all(weights.get(q, F(0)) == nu.weights[q] for q in space.types)

    best = None
    lhs = [c for c in assignments if matches(c[1], nu1)]
    rhs = [c for c in assignments if matches(c[1], nu2)]
    for c1, _ in lhs:
        for c2, _ in rhs:
            fs = [
                [reps[q][i] for q in c1]
                for i in range(space.arity)
            ]
            gs = [
                [reps[q][i] for q in c2]
                for i in range(space.arity)
            ]
            felems = [rand.element(v) for v in fs]
            gelems = [rand.element(v) for v in gs]
            dist = d_k_tuple(rand, felems, gelems)
            best = dist if best is None else min(best, dist)
    return best


def test_d_metric_matches_coupling_oracle(l3):
    space = type_space(l3, 1, ())
    rand = Randomization.constant(l3, FinProbSpace.uniform(4))
    candidates = [
        nu
        for nu in simplex_measures(space, 4)
        if all((w * 4).denominator == 1 for w in nu.weights.values())
    ]
    for nu1 in candidates:
        for nu2 in candidates[:6]:
            assert _coupling_min(rand, nu1, nu2) == d_metric(nu1, nu2)


def test_d_metric_lower_bounds_dk(l3):
    rand = Randomization.constant(l3, FinProbSpace.uniform(4))
    f = rand.element([0, 0, 1, 2])
    g = rand.element([0, 1, 1, 1])
    nuf, nug = rtype_of(rand, [f]), rtype_of(rand, [g])
    assert d_k_tuple(rand, [f], [g]) >= d_metric(nuf, nug)


def test_realize_conditional_single_cell(l3):
    rand = Randomization.constant(l3, FinProbSpace.uniform(2))
    g = RandomElement.constant(rand.base, 1)
    cell_space = type_space(l3, 1, (1,))
    beta = {(0, cell_space.types[2]): F(1)}
    refined, f = realize_conditional(rand, CondRealizationSpec((g,), beta))
    rep = cell_space.types[2].rep[0]
    assert all(f(p) == rep for p in refined.rand.base.points)


def test_realize_conditional_cell_masses(l3):
    rand = Randomization.constant(l3, FinProbSpace.dyadic(2))
    g = rand.element([0, 0, 1, 1])
    spc0 = type_space(l3, 1, (0,))
    spc1 = type_space(l3, 1, (1,))
    beta = {
        (0, spc0.types[0]): F(1, 4),
        (0, spc0.types[1]): F(1, 4),
        (1, spc1.types[0]): F(1, 4),
        (1, spc1.types[2]): F(1, 4),
    }
    spec = CondRealizationSpec((g,), beta)
    refined, f = realize_conditional(rand, spec)
    g2 = refined.lift(g)
    for n, (value, cell) in enumerate(cells_of(refined.rand, [g2])):
        spn = type_space(l3, 1, value)
        for q in spn.types:
            mass = sum(
                (
                    refined.rand.base.weight[p]
                    for p in cell
                    if spn.type_of((f(p),)) == q
                ),
                F(0),
            )
            assert mass == spec.beta.get((n, q), F(0))


def test_realize_conditional_splits_odd_atoms(l3):
    base = FinProbSpace([(0, F(1, 3)), (1, F(2, 3))])
    rand = Randomization.constant(l3, base)
    g = RandomElement.constant(rand.base, 0)
    spc = type_space(l3, 1, (0,))
    beta = {
        (0, spc.types[0]): F(1, 4),
        (0, spc.types[1]): F(1, 12),
        (0, spc.types[2]): F(2, 3),
    }
    refined, f = realize_conditional(rand, CondRealizationSpec((g,), beta))
    masses = {}
    for p in refined.rand.base.points:
        q = spc.type_of((f(p),))
        masses[q] = masses.get(q, F(0)) + refined.rand.base.weight[p]
    assert masses == {spc.types[0]: F(1, 4), spc.types[1]: F(1, 12), spc.types[2]: F(2, 3)}


def test_realize_conditional_rejects_bad_sums(l3):
    rand = Randomization.constant(l3, FinProbSpace.uniform(2))
    g = RandomElement.constant(rand.base, 0)
    spc = type_space(l3, 1, (0,))
    with pytest.raises(ValidationError):
        realize_conditional(
            rand, CondRealizationSpec((g,), {(0, spc.types[0]): F(1, 2)})
        )


def test_categoricity_reports(m2, c3):
    rep = check_omega_categoricity(m2, 2)
    assert rep.sizes == {1: 1, 2: 2}
    assert rep.all_pass()
    rep2 = check_omega_categoricity(c3, 2)
    assert rep2.sizes[2] == 3
    assert rep2.all_pass()


def test_categoricity_report_passes_with_a_skipped_battery(c3):
    rep = check_omega_categoricity(c3, 3)
    assert rep.lines()[-1] == "PASS realize-battery n=3 count=651"
    assert rep.realized[3] == 651
    assert rep.all_pass()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    hst.lists(hst.integers(1, 9), min_size=1, max_size=6),
    hst.lists(hst.integers(0, 9), min_size=1, max_size=6),
    hst.integers(0, 6),
)
def test_split_base_gives_each_tag_exactly_its_mass(point_counts, tag_counts, cut):
    # the premise of the realize battery: two regions, each split among
    # the tags in proportion to tag_counts
    total = sum(point_counts)
    base = FinProbSpace([(i, F(k, total)) for i, k in enumerate(point_counts)])
    rand = Randomization.constant(pure_set(2), base)
    if sum(tag_counts) == 0:
        tag_counts = tag_counts + [1]
    regions = [base.points[:cut], base.points[cut:]]
    allocations = []
    for r, region in enumerate(regions):
        mass = base.mass(region)
        allocations.append((region, [
            ((r, t), mass * F(k, sum(tag_counts))) for t, k in enumerate(tag_counts)
        ]))
    refined, events = _split_base(rand, allocations)
    for region, allocation in allocations:
        for tag, mass in allocation:
            assert refined.rand.base.mass(events.get(tag, frozenset())) == mass
    for p in base.points:
        pieces = [w for w in refined.rand.base.points if refined.projection[w] == p]
        assert sum(refined.rand.base.weight[w] for w in pieces) == base.weight[p]


def test_battery_count_is_the_number_of_measures_up_to_denominator_four():
    reports = {s: check_omega_categoricity(directed_cycle(s), 2) for s in range(2, 8)}
    assert reports[2].realized[1] == len(simplex_measures(type_space(directed_cycle(2), 1, ())))
    for s, rep in reports.items():
        space = type_space(directed_cycle(s), 2, ())
        assert len(space) == s
        assert rep.realized[2] == len(simplex_measures(space, 4))


@pytest.mark.parametrize(
    "st",
    [pure_set(2), pure_set(4), directed_cycle(3), directed_cycle(4),
     directed_cycle(6), linear_order(3), linear_order(4)],
    ids=lambda st: st.name,
)
def test_battery_pass_agrees_with_realizing_every_measure(st):
    rep = check_omega_categoricity(st, 3)
    rand = Randomization.constant(st, FinProbSpace([("w", F(1))]))
    for n in (1, 2, 3):
        space = type_space(st, n, ())
        if len(space) > 6:
            continue
        measures = simplex_measures(space, 4)
        for nu in measures:
            refined, elements = realize(rand, nu)
            assert rtype_of_over(refined.rand, elements, space) == nu
        assert f"PASS realize-battery n={n} count={len(measures)}" in rep.lines()


@pytest.mark.parametrize("misplace", ["shift", "collapse"])
def test_categoricity_report_fails_on_a_misplaced_representative(c3, monkeypatch, misplace):
    real = randlab.rtypes.realize

    def wrong(rand, nu):
        # put another type's representative on q0's event (shift: every
        # type's mass on the next type's representative)
        types = nu.space.types
        moved = {}
        for i, q in enumerate(types):
            to = types[(i + 1) % len(types)] if misplace == "shift" or i == 0 else q
            moved[to] = moved.get(to, F(0)) + nu.weights[q]
        return real(rand, RMeasure(nu.space, moved))

    monkeypatch.setattr(randlab.rtypes, "realize", wrong)
    rep = check_omega_categoricity(c3, 2)
    assert rep.lines() == [
        "PASS type-space-size n=1 |S_1|=1 (finite)",
        "PASS realize-battery n=1 count=1",
        "PASS type-space-size n=2 |S_2|=3 (finite)",
        "FAIL realize-battery n=2 measure rtype { q0: 1/6, q1: 1/3, q2: 1/2 }",
    ]
    assert not rep.all_pass() and 2 not in rep.realized


def test_rmeasure_serialization(l3):
    space = type_space(l3, 1, ())
    nu = RMeasure(space, {space.types[0]: F(1, 3), space.types[2]: F(2, 3)})
    assert format_rmeasure(nu) == "rtype { q0: 1/3, q2: 2/3 }"


def test_a_measure_refuses_a_type_from_another_space(c3):
    # s1's third type has no place in s0, which has one type; it was
    # dropped, or counted in the sum that the error reported
    s0, s1 = type_space(c3, 1), type_space(c3, 1, (0,))
    foreign = r"TypeId\(rep=\(2,\), index=2\) is not a type of TypeSpace"
    for weights in ({s0.types[0]: 1, s1.types[2]: 0}, {s0.types[0]: F(1, 2), s1.types[2]: F(1, 2)}):
        with pytest.raises(ValidationError, match=foreign):
            RMeasure(s0, weights)


# --- Integer mass paths against plain Fraction sums ------------------------------

def _weighted_base(draw):
    """1/15, 2/15, 4/15, 8/15, or 1-6 points of random positive weight."""
    if draw(hst.booleans()):
        return FinProbSpace([(i, F(2**i, 15)) for i in range(4)])
    raw = draw(hst.lists(hst.integers(1, 50), min_size=1, max_size=6))
    return FinProbSpace([(i, F(n, sum(raw))) for i, n in enumerate(raw)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hst.sampled_from([pure_set(2), directed_cycle(3), linear_order(3)]), hst.data())
def test_rtype_of_over_is_the_fraction_sum(st, data):
    base = _weighted_base(data.draw)
    rand = Randomization.constant(st, base)
    width = data.draw(hst.integers(1, 2))
    value = hst.integers(0, st.size - 1)
    elements = [rand.element([data.draw(value) for _ in base.points]) for _ in range(width)]
    space = type_space(st, width, ())
    acc = {}
    for w in base.points:
        q = space.type_of(tuple(f(w) for f in elements))
        acc[q] = acc.get(q, F(0)) + base.weight[w]
    want = RMeasure(space, acc)
    got = rtype_of_over(rand, elements, space)
    assert got == want and repr(got) == repr(want)
    assert list(got.weights.items()) == list(want.weights.items())
    # types no point reaches keep a zero weight
    assert all(got.weights[q] == 0 for q in space.types if q not in acc)


def _fraction_rmeasure_error(space, weights):
    """The error text of RMeasure's weight checks as Fraction comparisons
    and a Fraction sum, or None."""
    full = {q: F(weights.get(q, 0)) for q in space.types}
    for q, w in full.items():
        if w < 0:
            return f"negative weight {w} at {q}"
    total = sum(full.values(), F(0))
    return None if total == 1 else f"type weights sum to {total}, not 1"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(hst.data())
def test_rmeasure_weight_checks_raise_what_fraction_checks_raise(data):
    space = type_space(linear_order(3), 1, ())
    weight = hst.one_of(
        hst.sampled_from([F(0), F(1, 15), F(2, 15), F(4, 15), F(8, 15), F(-1, 15)]),
        hst.fractions(min_value=-1, max_value=1, max_denominator=30),
    )
    chosen = data.draw(hst.lists(hst.sampled_from(space.types), unique=True))
    weights = {q: data.draw(weight) for q in chosen}
    want = _fraction_rmeasure_error(space, weights)
    if want is None:
        nu = RMeasure(space, weights)
        assert nu.weights == {q: weights.get(q, F(0)) for q in space.types}
    else:
        with pytest.raises(ValidationError) as err:
            RMeasure(space, weights)
        assert str(err.value) == want


def test_rmeasure_weight_checks_with_zero_weights():
    space = type_space(linear_order(3), 1, ())
    q0, q1, q2 = space.types
    nu = RMeasure(space, {q0: F(1, 15), q1: F(0), q2: F(14, 15)})
    assert nu.weights == {q0: F(1, 15), q1: F(0), q2: F(14, 15)}
    assert RMeasure(space, {q2: 1}).weights == {q0: 0, q1: 0, q2: 1}
    for weights, text in (
        ({q0: F(1, 2), q1: F(-1, 2), q2: F(-1, 3)}, f"negative weight -1/2 at {q1}"),
        ({q0: F(1, 15), q1: F(0), q2: F(4, 15)}, "type weights sum to 1/3, not 1"),
        ({q1: F(8, 15), q2: F(8, 15)}, "type weights sum to 16/15, not 1"),
        ({}, "type weights sum to 0, not 1"),
    ):
        with pytest.raises(ValidationError) as err:
            RMeasure(space, weights)
        assert str(err.value) == text == _fraction_rmeasure_error(space, weights)
