"""Acceptance suite: one test per criterion, exact (tolerance-zero) checks.

Each criterion prints a PASS/FAIL line (visible with `pytest -s`); the
stated runtime bounds are asserted with a monotonic clock.
"""

import functools
import itertools
import random
import time
from fractions import Fraction

from randlab import (
    EventAlgebra,
    FeasibleCertificate,
    FiberSpace,
    FinProbSpace,
    LinFeasProblem,
    MeasurableMap,
    PhiContext,
    RandomElement,
    Randomization,
    RationalFn,
    approximate_by_simple,
    check_axioms,
    check_independence,
    certify_nonforking,
    cond_exp,
    convex_combination,
    d_k,
    d_metric,
    directed_cycle,
    event_of,
    extend_measure_eq,
    extend_measure_ineq,
    fiber_product,
    image_measure,
    linear_order,
    mu,
    nonforking_extension,
    parse_formula,
    pure_set,
    rho,
    rho_by_multiplicity,
    rho_hat,
    rtype_of,
    rtype_of_over,
    realize,
    type_space,
)
from randlab.axioms import default_formula_corpus
from conftest import sample_elements, simplex_measures
from randlab.formulas import format_formula, free_vars
from randlab.stability import restriction_map

F = Fraction

M2 = pure_set(2)
C3 = directed_cycle(3)
L3 = linear_order(3)
STRUCTURES = (M2, C3, L3)


def criterion(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL acceptance-{num:02d} {description}")
                raise
            print(f"PASS acceptance-{num:02d} {description}")

        return wrapper

    return deco


# --- 1: axiom suite -----------------------------------------------------------------

@criterion(1, "axiom suite over dyadic depths 1-4 and the (1/2,1/3,1/6) base")
def test_criterion_01_axiom_suite():
    skew = FinProbSpace([(0, F(1, 2)), (1, F(1, 3)), (2, F(1, 6))])
    bases = [("dyadic", FinProbSpace.dyadic(d)) for d in (1, 2, 3, 4)]
    bases.append(("skew", skew))
    for st in STRUCTURES:
        for kind, base in bases:
            rand = Randomization.constant(st, base)
            start = time.monotonic()
            report = check_axioms(rand)
            elapsed = time.monotonic() - start
            assert elapsed < 10, (st.name, kind, elapsed)
            assert report.exact_groups_pass(), (st.name, kind, report.lines())
            if kind == "dyadic":
                min_atom = min(base.weight.values())
                assert report.atomless_defect == min_atom / 2, (st.name, kind)


# --- 2: types as measures -----------------------------------------------------------

@criterion(2, "type-measure identity over >=40 formulas x >=100 tuples per structure")
def test_criterion_02_types_as_measures():
    rng = random.Random(202)
    for st in STRUCTURES:
        corpus = default_formula_corpus(st.signature)
        assert len(corpus) >= 40
        rand = Randomization.constant(st, FinProbSpace.uniform(4))
        pool = sample_elements(rand, 6, seed=202)
        tuples_checked = 0
        for phi in corpus:
            fv = sorted(free_vars(phi))
            for _ in range(3):
                tup = [rng.choice(pool) for _ in fv]
                nu = rtype_of(rand, tup)
                lhs = nu.formula_mass(phi, fv)
                rhs = mu(rand, event_of(rand, phi, dict(zip(fv, tup))))
                assert lhs == rhs, (st.name, format_formula(phi))
                tuples_checked += 1
        assert tuples_checked >= 100, st.name


# --- 3: realization round trip -------------------------------------------------------

@criterion(3, "realize/rtype round trip for all measures with denominators <= 4")
def test_criterion_03_realize_round_trip():
    for st in STRUCTURES:
        rand = Randomization.constant(st, FinProbSpace([("w", F(1))]))
        for n in (1, 2):
            space = type_space(st, n, ())
            if len(space) > 4:
                continue
            checked = 0
            for nu in simplex_measures(space, 4):
                refined, elements = realize(rand, nu)
                assert rtype_of_over(refined.rand, elements, space) == nu
                checked += 1
            assert checked > 0


# --- 4: distance oracle ---------------------------------------------------------------

def _assignment_buckets(space, base):
    buckets = {}
    for combo in itertools.product(space.types, repeat=len(base.points)):
        weights = {}
        for q, p in zip(combo, base.points):
            weights[q] = weights.get(q, F(0)) + base.weight[p]
        key = tuple(weights.get(q, F(0)) for q in space.types)
        buckets.setdefault(key, []).append(combo)
    return buckets


@criterion(4, "distance equals brute-force coupling minimum on >=200 measure pairs")
def test_criterion_04_distance_oracle():
    start = time.monotonic()
    space = type_space(L3, 1, ())
    assert len(space) == 3
    pairs_checked = 0
    for n_points in (4, 6):
        base = FinProbSpace.uniform(n_points)
        rand = Randomization.constant(L3, base)
        buckets = _assignment_buckets(space, base)
        measures = [
            nu
            for nu in simplex_measures(space, n_points)
            if all((w * n_points).denominator == 1 for w in nu.weights.values())
        ]
        if n_points == 6:
            measures = measures[:6]
        for nu1 in measures:
            k1 = tuple(nu1.weights[q] for q in space.types)
            for nu2 in measures:
                k2 = tuple(nu2.weights[q] for q in space.types)
                best = None
                for c1 in buckets[k1]:
                    for c2 in buckets[k2]:
                        f = rand.element([q.rep[0] for q in c1])
                        g = rand.element([q.rep[0] for q in c2])
                        dist = d_k(rand, f, g)
                        best = dist if best is None else min(best, dist)
                assert best == d_metric(nu1, nu2)
                pairs_checked += 1
    assert pairs_checked >= 200, pairs_checked
    assert time.monotonic() - start < 60


# --- 5: fiber products ------------------------------------------------------------------

@criterion(5, "fiber-product formulas agree on every rectangle, >=100 instances")
def test_criterion_05_fiber_products():
    rng = random.Random(505)
    instances = 0
    while instances < 100:
        nz = rng.randint(1, 3)
        zs = tuple(f"z{i}" for i in range(nz))
        denom = rng.choice([4, 6, 8, 12])
        cuts = sorted(rng.sample(range(1, denom), nz - 1)) if nz > 1 else []
        z_masses = []
        prev = 0
        for c in cuts + [denom]:
            z_masses.append(F(c - prev, denom))
            prev = c
        xs, pix, mu_w = [], {}, []
        ys, piy, nu_w = [], {}, []
        for zi, zم in zip(zs, z_masses):
            for names, pimap, weights, letter in (
                (xs, pix, mu_w, "x"),
                (ys, piy, nu_w, "y"),
            ):
                parts = rng.randint(1, 2)
                if parts == 1 or zم.numerator == 1:
                    sizes = [zم]
                else:
                    k = rng.randint(1, zم.numerator - 1)
                    sizes = [F(k, zم.denominator), zم - F(k, zم.denominator)]
                for j, s in enumerate(sizes):
                    name = f"{letter}{zi}_{j}"
                    names.append(name)
                    pimap[name] = zi
                    weights.append(s)
        if len(xs) > 6 or len(ys) > 6:
            continue
        mu_sp = FinProbSpace(list(zip(xs, mu_w)))
        nu_sp = FinProbSpace(list(zip(ys, nu_w)))
        fib = FiberSpace(
            MeasurableMap(mu_sp.points, zs, pix),
            MeasurableMap(nu_sp.points, zs, piy),
        )
        prod = fiber_product(mu_sp, nu_sp, fib)
        img = image_measure(mu_sp, fib.pi_x)
        for ra in range(len(xs) + 1):
            for a in itertools.combinations(xs, ra):
                ca = cond_exp(mu_sp, RationalFn.indicator(mu_sp.points, a), fib.pi_x)
                for rb in range(len(ys) + 1):
                    for b in itertools.combinations(ys, rb):
                        cb = cond_exp(
                            nu_sp, RationalFn.indicator(nu_sp.points, b), fib.pi_y
                        )
                        f1 = sum(
                            (ca(z) * cb(z) * img.weight[z] for z in img.points), F(0)
                        )
                        f2 = sum((cb(pix[x]) * mu_sp.weight[x] for x in a), F(0))
                        f3 = sum((ca(piy[y]) * nu_sp.weight[y] for y in b), F(0))
                        direct = sum(
                            (
                                prod.weight[p]
                                for p in prod.points
                                if p[0] in a and p[1] in b
                            ),
                            F(0),
                        )
                        assert direct == f1 == f2 == f3
        assert image_measure(prod, fib.proj_x()).weight == mu_sp.weight
        assert image_measure(prod, fib.proj_y()).weight == nu_sp.weight
        instances += 1


# --- 6: measure extension vs oracle -------------------------------------------------------

@criterion(6, "extension solvers agree with vertex enumeration on >=500 instances")
def test_criterion_06_measure_extension():
    from test_extension import oracle_feasible, fn

    start = time.monotonic()
    rng = random.Random(606)
    for mode in ("<=", "="):
        for _ in range(250):
            n = rng.randint(2, 4)
            ground = tuple(range(n))
            k = rng.randint(1, 5)
            constraints = []
            for _ in range(k):
                values = [
                    F(rng.randint(-2, 3), rng.choice([1, 2, 3])) for _ in range(n)
                ]
                if all(v == 1 for v in values):
                    values[0] += 1
                bound = F(rng.randint(-2, 4), rng.choice([1, 2, 3, 4]))
                constraints.append((fn(ground, values), bound, mode))
            prob = LinFeasProblem(ground, constraints)
            if mode == "<=":
                cert = extend_measure_ineq(prob)
                oracle_prob = prob
            else:
                cert = extend_measure_eq(prob)
                one = (RationalFn.constant(ground, 1), F(1), "=")
                oracle_prob = LinFeasProblem(
                    ground,
                    [(c.fn, c.bound, c.relation) for c in prob.constraints] + [one],
                )
            assert cert.verify(prob)
            assert cert.feasible == oracle_feasible(oracle_prob)
    assert time.monotonic() - start < 30


# --- 7: rho consistency ---------------------------------------------------------------------

def _phi_corpus(st):
    sig = st.signature
    texts = ["x = y", "!(x = y)", "x = x"]
    if "E" in sig.relations:
        texts += ["E(x, y)", "E(y, x)", "E(x, y) | E(y, x)"]
    if "Lt" in sig.relations:
        texts += ["Lt(x, y)", "Lt(y, x)", "Lt(x, y) | x = y"]
    return [parse_formula(t, sig) for t in texts]


@criterion(7, "rho trace-fraction and multiplicity-ratio agree on all instances, |M|<=5")
def test_criterion_07_rho_consistency():
    from randlab.semantics import automorphisms

    battery = (M2, pure_set(4), C3, directed_cycle(5), L3)
    for st in battery:
        for phi in _phi_corpus(st):
            ctx = PhiContext(st, phi, ("x",), ("y",))
            for params in [(), (0,)]:
                space = type_space(st, 1, params)
                for p in space.types:
                    for b in st.elements:
                        value = rho(ctx, space, p, b)
                        assert value == rho_by_multiplicity(ctx, space, p, b)
                        assert 0 <= value <= 1
            # automorphism invariance on conjugated configurations
            for sigma in automorphisms(st):
                space = type_space(st, 1, (0,))
                moved = type_space(st, 1, (sigma[0],))
                for p in space.types:
                    for b in st.elements:
                        assert rho(ctx, space, p, b) == rho(
                            ctx, moved, moved.type_of((sigma[p.rep[0]],)), sigma[b]
                        )


# --- 8: definition predicate ------------------------------------------------------------------

@criterion(8, "rho_hat at deterministic parameters is the definability predicate")
def test_criterion_08_definition_predicate():
    for st, text in ((M2, "x = y"), (C3, "E(x, y)"), (L3, "Lt(x, y)")):
        rand = Randomization.constant(st, FinProbSpace.uniform(st.size))
        elements = [rand.element(list(st.elements))]
        elements.append(rand.element([(v + 1) % st.size for v in st.elements]))
        for c in elements:
            for b_val in st.elements:
                b = RandomElement.constant(rand.base, b_val)
                ctx = PhiContext(
                    st, parse_formula(text, st.signature), ("x",), ("y",), ("w",)
                )
                p = rtype_of(rand, [c], [b])
                q = rtype_of(rand, [b], [b])
                inst = parse_formula(
                    text.replace("y", f"#{b_val}"), st.signature
                )
                direct = mu(rand, event_of(rand, inst, {"x": c}))
                assert rho_hat(ctx, p, q) == direct, (st.name, b_val)


# --- 9: stationarity and independence -----------------------------------------------------------

@criterion(9, "nonforking extension exact; stationarity certified; independence verdicts")
def test_criterion_09_stationarity():
    start = time.monotonic()
    battery = [
        (M2, "x = y", FinProbSpace.dyadic(1)),
        (M2, "x = y", FinProbSpace.uniform(3)),
        (L3, "Lt(x, y)", FinProbSpace.uniform(3)),
        (C3, "E(x, y)", FinProbSpace.uniform(3)),
    ]
    for st, text, base in battery:
        rand = Randomization.constant(st, base)
        c = rand.element([i % st.size for i in range(len(base.points))])
        b = RandomElement.constant(rand.base, 0)
        ctx = PhiContext(st, parse_formula(text, st.signature), ("x",), ("y",), ("w",))
        p = rtype_of(rand, [c], [b])
        q = rtype_of(rand, [b], [b])
        ext = nonforking_extension(ctx, p, q)
        target = ext.space
        acc_x, acc_y = {}, {}
        for t in target.types:
            rx = restriction_map(target, [0, 2], p.space)
            ry = restriction_map(target, [1, 2], q.space)
            acc_x[rx(t)] = acc_x.get(rx(t), F(0)) + ext.weights[t]
            acc_y[ry(t)] = acc_y.get(ry(t), F(0)) + ext.weights[t]
        assert acc_x == p.weights and acc_y == q.weights
        value = sum(
            (
                ext.weights[t]
                for t in target.types
                if ctx.instance_holds((t.rep[0],), (t.rep[1],), (t.rep[2],))
            ),
            F(0),
        )
        assert value == rho_hat(ctx, p, q)
        prob, cert = certify_nonforking(ctx, p, q)
        assert isinstance(cert, FeasibleCertificate) and cert.verify(prob)
        # the averaging construction is itself a nonnegative witness
        witness = FeasibleCertificate({t: ext.weights[t] for t in target.types})
        assert witness.verify(prob)

    # independence verdicts
    coin = Randomization.constant(M2, FinProbSpace.dyadic(1))
    f = coin.element([0, 1])
    shared = check_independence(coin, [f], [f], [])
    assert not shared.independent
    assert format_formula(shared.witness) == "x = y"
    a = RandomElement.constant(coin.base, 0)
    assert check_independence(coin, [f], [a], [a]).independent
    quad = Randomization.constant(M2, FinProbSpace.uniform(4))
    assert check_independence(
        quad, [quad.element([0, 0, 1, 1])], [quad.element([0, 1, 0, 1])], []
    ).independent
    assert time.monotonic() - start < 60


# --- 10: simple approximation ---------------------------------------------------------------------

@criterion(10, "simple approximation meets eps with the staged budget arithmetic")
def test_criterion_10_simple_approximation():
    r3 = Randomization.constant(M2, FinProbSpace.dyadic(3))
    fine = EventAlgebra(r3, [frozenset({i}) for i in range(8)])
    instances = [
        (r3.element([0, 1, 0, 1, 0, 0, 1, 1]), F(1, 2)),
        (r3.element([0, 0, 0, 1, 1, 1, 1, 0]), F(1, 3)),
        (r3.element([1, 1, 0, 0, 0, 0, 0, 0]), F(1, 4)),
    ]
    for f, eps in instances:
        g, trace = approximate_by_simple(r3, f, fine, eps, with_trace=True)
        n = trace.n
        assert trace.head_mass > 1 - eps / 2
        for level in trace.levels:
            assert level["approx_error"] < eps / (4 * n * n)
            assert level["piece_error"] < eps / (2 * n)
        assert d_k(r3, f, g) < eps

    # the coarse-algebra example: a best-effort g still meets a loose eps
    coarse = EventAlgebra(
        r3, [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
    )
    alt = r3.element([0, 1, 0, 1, 0, 1, 0, 1])
    g = approximate_by_simple(r3, alt, coarse, F(1))
    assert d_k(r3, alt, g) <= F(1, 2) < F(1)

    # measurable input: zero distance at any eps
    meas = r3.element([0, 0, 1, 1, 0, 0, 1, 1])
    algebra2 = EventAlgebra(r3, [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})])
    assert d_k(r3, meas, approximate_by_simple(r3, meas, algebra2, F(1, 100))) == 0


# --- 11: convex combinations -------------------------------------------------------------------------

@criterion(11, "convex-combination measure identity and combined axiom suite")
def test_criterion_11_convex_combinations():
    rng = random.Random(1111)
    r1 = Randomization.constant(M2, FinProbSpace.dyadic(2))
    r2 = Randomization.constant(M2, FinProbSpace.dyadic(2))
    combo = convex_combination([(F(1, 2), r1), (F(1, 2), r2)])
    corpus = default_formula_corpus(M2.signature)[:25]
    pool1 = sample_elements(r1, 4, seed=11)
    pool2 = sample_elements(r2, 4, seed=12)
    for phi in corpus:
        fv = sorted(free_vars(phi))
        for _ in range(2):
            fs1 = {v: rng.choice(pool1) for v in fv}
            fs2 = {v: rng.choice(pool2) for v in fv}
            joint = {
                v: RandomElement(
                    combo.base,
                    {
                        label: (fs1[v](label[1]) if label[0] == 0 else fs2[v](label[1]))
                        for label in combo.base.points
                    },
                )
                for v in fv
            }
            lhs = mu(combo, event_of(combo, phi, joint))
            rhs = F(1, 2) * mu(r1, event_of(r1, phi, fs1)) + F(1, 2) * mu(
                r2, event_of(r2, phi, fs2)
            )
            assert lhs == rhs, format_formula(phi)

    # the combined randomization passes the criterion-1 checks: its base is
    # uniform dyadic, so the exact groups pass and the defect is half an atom
    report = check_axioms(combo)
    assert report.exact_groups_pass()
    min_atom = min(combo.base.weight.values())
    assert report.atomless_defect == min_atom / 2
