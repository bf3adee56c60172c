import itertools
from fractions import Fraction

import pytest

from randlab import (
    CondRealizationSpec,
    FinProbSpace,
    RandomElement,
    Randomization,
    RMeasure,
    ValidationError,
    check_omega_categoricity,
    d_metric,
    realize,
    realize_conditional,
    rtype_of,
    rtype_of_over,
    type_of_tuple,
    type_space,
)
from randlab.randomization import d_k_tuple, event_of, mu
from randlab.rtypes import cells_of, format_rmeasure, simplex_measures

F = Fraction


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
    assert rep.lines()[-1] == "SKIP realize-battery n=3 |S_3|=9 > 4"
    assert 3 not in rep.realized
    assert rep.all_pass()


def test_rmeasure_serialization(l3):
    space = type_space(l3, 1, ())
    nu = RMeasure(space, {space.types[0]: F(1, 3), space.types[2]: F(2, 3)})
    assert format_rmeasure(nu) == "rtype { q0: 1/3, q2: 2/3 }"
