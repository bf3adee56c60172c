"""No float in any value randlab returns.

One small input for each public call the acceptance criteria make; each
result is walked through containers, `Record` fields, type-measure
weights, space weights, function values and random-element values, and
the test fails on the first float it finds.
"""

from fractions import Fraction

from randlab import (
    EventAlgebra,
    FiberSpace,
    FinProbSpace,
    LinFeasProblem,
    MeasurableMap,
    PhiContext,
    RandomElement,
    Randomization,
    RationalFn,
    RMeasure,
    approximate_by_simple,
    certify_nonforking,
    check_axioms,
    check_independence,
    check_omega_categoricity,
    cond_exp,
    convex_combination,
    d_b,
    d_k,
    d_metric,
    directed_cycle,
    eval_cformula,
    event_of,
    extend_measure_eq,
    extend_measure_ineq,
    fiber_product,
    image_measure,
    mu,
    nonforking_extension,
    parse_cformula,
    parse_formula,
    pure_set,
    realize,
    rho,
    rho_by_multiplicity,
    rho_hat,
    rtype_of,
    rtype_of_over,
    type_space,
)
from randlab.randomization import SimpleApproximationTrace
from randlab.record import Record

F = Fraction


def floats(x, where: str = "result") -> list[str]:
    """Where x holds a float, as paths from the top."""
    if isinstance(x, float):
        return [where]
    if isinstance(x, Record):
        parts = [(n, getattr(x, n)) for n in x._fields]
    elif isinstance(x, RMeasure):
        parts = [("weights", x.weights)]
    elif isinstance(x, FinProbSpace):
        parts = [("weight", x.weight)]
    elif isinstance(x, RationalFn):
        parts = [("values", x.values)]
    elif isinstance(x, RandomElement):
        parts = [("base", x.base), ("values", x.values)]
    elif isinstance(x, Randomization):
        parts = [("base", x.base)]
    elif isinstance(x, SimpleApproximationTrace):
        parts = list(vars(x).items())
    elif isinstance(x, dict):
        parts = [(f"key {k!r}", k) for k in x] + [(repr(k), v) for k, v in x.items()]
    elif isinstance(x, (list, tuple, set, frozenset)):
        parts = list(enumerate(x))
    else:
        return []  # Fractions, ints, strings, structures and type spaces
    return [p for name, part in parts for p in floats(part, f"{where}.{name}")]


def test_no_float_in_public_results():
    m2, c3 = pure_set(2), directed_cycle(3)
    coin = Randomization.constant(m2, FinProbSpace.dyadic(1))
    f, g = coin.element([0, 1]), coin.element([0, 0])
    phi = parse_formula("x = y", m2.signature)
    nu = rtype_of(coin, [f])
    results = {
        "check_axioms": check_axioms(coin),
        "mu": mu(coin, event_of(coin, phi, {"x": f, "y": g})),
        "d_k": d_k(coin, f, g),
        "d_b": d_b(coin, frozenset({0}), frozenset({1})),
        "eval_cformula": eval_cformula(coin, parse_cformula("sup x (mu[[ x = y ]])", m2.signature), {"y": g}),
        "rtype_of": nu,
        "formula_mass": nu.formula_mass(parse_formula("x = x", m2.signature), ["x"]),
        "d_metric": d_metric(nu, rtype_of(coin, [g])),
        "check_omega_categoricity": check_omega_categoricity(m2, 1),
    }
    refined, elements = realize(coin, nu)
    results["realize"] = (refined, elements)
    results["rtype_of_over"] = rtype_of_over(refined.rand, elements, nu.space)

    xs = FinProbSpace([("a", F(1, 3)), ("b", F(2, 3))])
    ys = FinProbSpace([("c", F(1, 2)), ("d", F(1, 2))])
    fib = FiberSpace(
        MeasurableMap(xs.points, ("z",), {"a": "z", "b": "z"}),
        MeasurableMap(ys.points, ("z",), {"c": "z", "d": "z"}),
    )
    results["fiber_product"] = fiber_product(xs, ys, fib)
    results["image_measure"] = image_measure(xs, fib.pi_x)
    results["cond_exp"] = cond_exp(xs, RationalFn.indicator(xs.points, ["a"]), fib.pi_x)

    ground = (0, 1)
    half = RationalFn(ground, {0: F(1, 2), 1: F(3, 2)})
    results["extend_measure_ineq"] = extend_measure_ineq(LinFeasProblem(ground, [(half, F(1), "<=")]))
    results["extend_measure_eq"] = extend_measure_eq(LinFeasProblem(ground, [(half, F(1), "=")]))

    ctx = PhiContext(c3, parse_formula("E(x, y)", c3.signature), ("x",), ("y",))
    space = type_space(c3, 1, (0,))
    p = space.types[1]
    results["rho"] = rho(ctx, space, p, 2)
    results["rho_by_multiplicity"] = rho_by_multiplicity(ctx, space, p, 2)

    rand = Randomization.constant(c3, FinProbSpace.uniform(3))
    c, b = rand.element([0, 1, 2]), RandomElement.constant(rand.base, 0)
    wctx = PhiContext(c3, parse_formula("E(x, y)", c3.signature), ("x",), ("y",), ("w",))
    pw, qw = rtype_of(rand, [c], [b]), rtype_of(rand, [b], [b])
    results["rho_hat"] = rho_hat(wctx, pw, qw)
    results["nonforking_extension"] = nonforking_extension(wctx, pw, qw)
    results["certify_nonforking"] = certify_nonforking(wctx, pw, qw)[1]
    results["check_independence"] = check_independence(coin, [f], [f], [])

    r1 = Randomization.constant(m2, FinProbSpace.dyadic(1))
    algebra = EventAlgebra(r1, [frozenset({0})])
    results["approximate_by_simple"] = approximate_by_simple(r1, f, algebra, F(1, 2), with_trace=True)
    results["convex_combination"] = convex_combination([(F(1, 2), coin), (F(1, 2), r1)])

    assert floats(results) == []


def test_the_walk_finds_a_float():
    assert floats({"a": [F(1), (2, 0.5)]}) == ["result.'a'.1.1"]
