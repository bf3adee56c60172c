import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randlab import (
    FiberSpace,
    FinProbSpace,
    MeasurableMap,
    RationalFn,
    ValidationError,
    cond_exp,
    fiber_product,
    image_measure,
    pair,
)

F = Fraction


def collapse_map(dom, cod, assignment):
    return MeasurableMap(tuple(dom), tuple(cod), dict(assignment))


def test_space_invariants():
    with pytest.raises(ValidationError):
        FinProbSpace([(0, F(1, 2)), (1, F(1, 3))])
    with pytest.raises(ValidationError):
        FinProbSpace([(0, F(0)), (1, F(1))])
    with pytest.raises(ValidationError):
        FinProbSpace([(0, F(1, 2)), (0, F(1, 2))])


def test_image_measure_examples():
    mu = FinProbSpace.uniform(4)
    pi = collapse_map(range(4), "ab", {0: "a", 1: "a", 2: "b", 3: "b"})
    img = image_measure(mu, pi)
    assert img.weight == {"a": F(1, 2), "b": F(1, 2)}

    ident = collapse_map(range(4), range(4), {i: i for i in range(4)})
    assert image_measure(mu, ident).weight == mu.weight

    mu2 = FinProbSpace([(1, F(1, 3)), (2, F(1, 6)), (3, F(1, 2))])
    pi2 = collapse_map([1, 2, 3], "ab", {1: "a", 2: "a", 3: "b"})
    assert image_measure(mu2, pi2).weight == {"a": F(1, 2), "b": F(1, 2)}


def test_image_measure_drops_zero_weight_points():
    mu = FinProbSpace.uniform(2)
    pi = collapse_map(range(2), "abc", {0: "a", 1: "b"})
    img = image_measure(mu, pi)
    assert set(img.points) == {"a", "b"}


def test_cond_exp_examples():
    mu = FinProbSpace.uniform(4)
    pi = collapse_map(range(4), "ab", {0: "a", 1: "a", 2: "b", 3: "b"})
    f = RationalFn(mu.points, {0: F(0), 1: F(1), 2: F(1), 3: F(1)})
    g = cond_exp(mu, f, pi)
    assert g("a") == F(1, 2) and g("b") == F(1)

    const = RationalFn.constant(mu.points, F(2, 7))
    gc = cond_exp(mu, const, pi)
    assert all(gc(y) == F(2, 7) for y in gc.domain)

    mu2 = FinProbSpace([(1, F(1, 2)), (2, F(1, 4)), (3, F(1, 4))])
    f2 = RationalFn(mu2.points, {1: F(1), 2: F(0), 3: F(1)})
    pi2 = collapse_map([1, 2, 3], "ab", {1: "a", 2: "a", 3: "b"})
    g2 = cond_exp(mu2, f2, pi2)
    assert g2("a") == F(2, 3) and g2("b") == F(1)


def test_cond_exp_defining_equation_all_subsets():
    # the defining property quantifies over every downstairs event; checked
    # over the full powerset of an image of size 12
    weights = [F(1, 18)] * 6 + [F(2, 18)] * 6
    mu = FinProbSpace([(i, w) for i, w in enumerate(weights)])
    pi = collapse_map(range(12), range(6), {i: i % 6 for i in range(12)})
    f = RationalFn(mu.points, {i: F(i, 12) for i in range(12)})
    g = cond_exp(mu, f, pi)
    img = image_measure(mu, pi)
    downstairs = list(img.points)
    for mask in range(2 ** len(downstairs)):
        s = {y for i, y in enumerate(downstairs) if mask >> i & 1}
        lhs = sum((g(y) * img.weight[y] for y in s), F(0))
        rhs = sum((f(x) * mu.weight[x] for x in mu.points if pi(x) in s), F(0))
        assert lhs == rhs

    id12 = collapse_map(range(12), range(12), {i: i for i in range(12)})
    g12 = cond_exp(mu, f, id12)
    img12 = image_measure(mu, id12)
    for mask in range(2**12):
        s = {y for y in range(12) if mask >> y & 1}
        lhs = sum((g12(y) * img12.weight[y] for y in s), F(0))
        rhs = sum((f(x) * mu.weight[x] for x in mu.points if x in s), F(0))
        assert lhs == rhs


def test_cond_exp_linearity():
    mu = FinProbSpace.uniform(6)
    pi = collapse_map(range(6), "ab", {0: "a", 1: "a", 2: "a", 3: "b", 4: "b", 5: "b"})
    f = RationalFn(mu.points, {i: F(i, 6) for i in range(6)})
    f2 = RationalFn(mu.points, {i: F(1, i + 1) for i in range(6)})
    h = {"a": F(2, 3), "b": F(1, 5)}
    hf = RationalFn(mu.points, {i: h[pi(i)] * f(i) for i in range(6)})
    lhs = cond_exp(mu, hf, pi)
    rhs = cond_exp(mu, f, pi)
    assert all(lhs(y) == h[y] * rhs(y) for y in lhs.domain)
    fsum = RationalFn(mu.points, {i: f(i) + f2(i) for i in range(6)})
    assert all(
        cond_exp(mu, fsum, pi)(y) == cond_exp(mu, f, pi)(y) + cond_exp(mu, f2, pi)(y)
        for y in "ab"
    )


def test_pair_examples():
    mu = FinProbSpace([("a", F(1, 3)), ("b", F(2, 3))])
    assert pair(RationalFn.constant(mu.points, 1), mu) == 1
    assert pair(RationalFn.indicator(mu.points, {"a"}), mu) == F(1, 3)
    mu2 = FinProbSpace([("a", F(1, 2)), ("b", F(1, 2))])
    phi = RationalFn(mu2.points, {"a": F(1, 2), "b": F(1, 4)})
    assert pair(phi, mu2) == F(3, 8)
    with pytest.raises(ValidationError):
        pair(RationalFn.constant(("x",), 1), mu2)


def _three_formulas(mu, nu, fib, a, b):
    img = image_measure(mu, fib.pi_x)
    ca = cond_exp(mu, RationalFn.indicator(mu.points, a), fib.pi_x)
    cb = cond_exp(nu, RationalFn.indicator(nu.points, b), fib.pi_y)
    f1 = sum((ca(z) * cb(z) * img.weight[z] for z in img.points), F(0))
    f2 = sum((cb(fib.pi_x(x)) * mu.weight[x] for x in a), F(0))
    f3 = sum((ca(fib.pi_y(y)) * nu.weight[y] for y in b), F(0))
    return f1, f2, f3


def test_fiber_product_examples():
    # single-point base: plain product measure
    mu = FinProbSpace([("x0", F(1, 3)), ("x1", F(2, 3))])
    nu = FinProbSpace([("y0", F(1, 4)), ("y1", F(3, 4))])
    one = ("z",)
    fib = FiberSpace(
        collapse_map(mu.points, one, {p: "z" for p in mu.points}),
        collapse_map(nu.points, one, {p: "z" for p in nu.points}),
    )
    prod = fiber_product(mu, nu, fib)
    assert prod.weight[("x0", "y0")] == F(1, 12)
    assert prod.weight[("x1", "y1")] == F(1, 2)

    # worked two-cell example
    z = FinProbSpace([("z0", F(1, 2)), ("z1", F(1, 2))])
    x = z
    y = FinProbSpace([("y0", F(1, 4)), ("y1", F(1, 4)), ("y2", F(1, 2))])
    fib2 = FiberSpace(
        collapse_map(x.points, z.points, {"z0": "z0", "z1": "z1"}),
        collapse_map(y.points, z.points, {"y0": "z0", "y1": "z0", "y2": "z1"}),
    )
    prod2 = fiber_product(x, y, fib2)
    assert prod2.weight == {
        ("z0", "y0"): F(1, 4),
        ("z0", "y1"): F(1, 4),
        ("z1", "y2"): F(1, 2),
    }


def test_fiber_product_rejects_mismatched_images():
    mu = FinProbSpace([("x0", F(1, 3)), ("x1", F(2, 3))])
    nu = FinProbSpace([("y0", F(1, 2)), ("y1", F(1, 2))])
    z = ("z0", "z1")
    fib = FiberSpace(
        collapse_map(mu.points, z, {"x0": "z0", "x1": "z1"}),
        collapse_map(nu.points, z, {"y0": "z0", "y1": "z1"}),
    )
    with pytest.raises(ValidationError) as err:
        fiber_product(mu, nu, fib)
    assert "z0" in str(err.value) or "z1" in str(err.value)


def test_fiber_product_rectangles_and_marginals():
    mu = FinProbSpace([(f"x{i}", w) for i, w in enumerate([F(1, 6), F(1, 3), F(1, 4), F(1, 4)])])
    nu = FinProbSpace([(f"y{i}", w) for i, w in enumerate([F(1, 2), F(1, 4), F(1, 4)])])
    zz = ("z0", "z1")
    pix = {"x0": "z0", "x1": "z0", "x2": "z1", "x3": "z1"}
    piy = {"y0": "z0", "y1": "z1", "y2": "z1"}
    fib = FiberSpace(
        collapse_map(mu.points, zz, pix), collapse_map(nu.points, zz, piy)
    )
    prod = fiber_product(mu, nu, fib)
    # all rectangles
    for ra in range(len(mu.points) + 1):
        for a in itertools.combinations(mu.points, ra):
            for rb in range(len(nu.points) + 1):
                for b in itertools.combinations(nu.points, rb):
                    direct = sum(
                        (
                            prod.weight[p]
                            for p in prod.points
                            if p[0] in a and p[1] in b
                        ),
                        F(0),
                    )
                    f1, f2, f3 = _three_formulas(mu, nu, fib, set(a), set(b))
                    assert direct == f1 == f2 == f3
    # marginals recovered exactly
    assert image_measure(prod, fib.proj_x()).weight == mu.weight
    assert image_measure(prod, fib.proj_y()).weight == nu.weight


def test_fubini_on_fibers():
    mu = FinProbSpace([(f"x{i}", F(1, 4)) for i in range(4)])
    nu = FinProbSpace([(f"y{i}", F(1, 2)) for i in range(2)])
    zz = ("z0", "z1")
    fib = FiberSpace(
        collapse_map(mu.points, zz, {"x0": "z0", "x1": "z0", "x2": "z1", "x3": "z1"}),
        collapse_map(nu.points, zz, {"y0": "z0", "y1": "z1"}),
    )
    prod = fiber_product(mu, nu, fib)
    phi_x = RationalFn(mu.points, {p: F(i, 5) for i, p in enumerate(mu.points)})
    lifted = RationalFn(prod.points, {p: phi_x(p[0]) for p in prod.points})
    assert pair(lifted, prod) == pair(phi_x, mu)


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_fiber_product_marginals_random(nx, nz, rng):
    # random instances with matching images built by splitting a base measure
    zs = [f"z{i}" for i in range(nz)]
    base_weights = [rng.randint(1, 4) for _ in zs]
    total = sum(base_weights)
    xs, pix, mu_weights = [], {}, []
    ys, piy, nu_weights = [], {}, []
    for zi, bw in zip(zs, base_weights):
        for split, (names, pimap, weights) in enumerate(
            ((xs, pix, mu_weights), (ys, piy, nu_weights))
        ):
            parts = rng.randint(1, 2 + split)
            cuts = sorted(rng.randint(0, bw * 6) for _ in range(parts - 1))
            sizes = []
            prev = 0
            for c in cuts + [bw * 6]:
                sizes.append(c - prev)
                prev = c
            sizes = [s for s in sizes if s > 0] or [bw * 6]
            for j, s in enumerate(sizes):
                name = f"{'x' if names is xs else 'y'}{zi}_{j}"
                names.append(name)
                pimap[name] = zi
                weights.append(F(s, total * 6))
    mu = FinProbSpace(list(zip(xs, mu_weights)))
    nu = FinProbSpace(list(zip(ys, nu_weights)))
    fib = FiberSpace(
        collapse_map(mu.points, tuple(zs), pix),
        collapse_map(nu.points, tuple(zs), piy),
    )
    prod = fiber_product(mu, nu, fib)
    assert image_measure(prod, fib.proj_x()).weight == mu.weight
    assert image_measure(prod, fib.proj_y()).weight == nu.weight


def test_partial_maps_name_the_missing_point():
    with pytest.raises(ValidationError, match=r"^function not total on its domain: missing 1$"):
        RationalFn((0, 1), {0: 1})
    with pytest.raises(ValidationError, match=r"^map not total: missing 1$"):
        MeasurableMap((0, 1), (0,), {0: 0})


def test_repeated_domain_points_are_named_not_reported_missing():
    with pytest.raises(ValidationError, match=r"^duplicate domain point 0$"):
        RationalFn((0, 0), {0: 1})
    with pytest.raises(ValidationError, match=r"^duplicate domain point 'b'$"):
        RationalFn(("a", "b", "c", "b", "a"), {"a": 1, "b": 2, "c": 3})
    with pytest.raises(ValidationError, match=r"^function not total on its domain: missing 1$"):
        RationalFn((0, 0, 1), {0: 1})


def test_equal_spaces_compare_and_hash_equal():
    mu = FinProbSpace([(0, F(1, 4)), (1, F(3, 4))])
    for copy in (FinProbSpace({0: F(1, 4), 1: F(3, 4)}), FinProbSpace([(0, "1/4"), (1, "3/4")])):
        assert copy is not mu and copy == mu and mu == copy and not copy != mu
        assert hash(copy) == hash(mu) == hash(copy._key_cache)
    assert FinProbSpace.dyadic(1) == FinProbSpace.uniform(2)
    assert hash(FinProbSpace.dyadic(1)) == hash(FinProbSpace.uniform(2))
    for other in (
        FinProbSpace.uniform(2),
        FinProbSpace([(0, F(1, 4)), (2, F(3, 4))]),
        FinProbSpace([(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))]),
    ):
        assert other != mu and mu != other and not other == mu


MERSENNE_61 = 2**61 - 1


@st.composite
def weighted_spaces(draw):
    """Either the weights 1/2, 1/3, 1/7 and 1/(2^61 - 1) with the rest of the
    mass on a fifth point, or 2-6 normalised draws over coprime and large
    denominators (2, 3, 7, ..., 2^61 - 1)."""
    if draw(st.booleans()):
        head = [F(1, 2), F(1, 3), F(1, 7), F(1, MERSENNE_61)]
        weights = head + [1 - sum(head)]
    else:
        dens = st.sampled_from([1, 2, 3, 7, 11, 1024, MERSENNE_61])
        raw = [F(draw(st.integers(1, 10**6)), draw(dens)) for _ in range(draw(st.integers(2, 6)))]
        weights = [w / sum(raw) for w in raw]
    return FinProbSpace(list(enumerate(weights)))


def fraction_sum(space, event):
    return sum((space.weight[p] for p in event), F(0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(weighted_spaces(), st.data())
def test_mass_is_the_fraction_sum_of_weights(space, data):
    # an integer sum over the common denominator equals the Fraction sum,
    # for empty events, sets, and lists that repeat a point
    event = data.draw(st.lists(st.sampled_from(space.points), max_size=8))
    assert space.mass(event) == space.mass(iter(event)) == fraction_sum(space, event)
    assert space.mass(frozenset(event)) == fraction_sum(space, frozenset(event))
    assert space.mass(()) == space.mass(frozenset()) == 0
    assert space.mass(space.points) == 1
    # the integer form: numerators over the least common denominator
    den = space.denominator
    assert den == math.lcm(*(w.denominator for w in space.weight.values()))
    for e in (event, iter(event), frozenset(event), (), space.points):
        n = space.numerator(e)
        assert type(n) is int and n >= 0
    assert space.numerator(event) == fraction_sum(space, event) * den
    assert space.numerator(iter(event)) == space.numerator(event)
    assert space.numerator(frozenset(event)) == fraction_sum(space, frozenset(event)) * den
    assert space.numerator(()) == space.numerator(frozenset()) == 0
    assert space.numerator(space.points) == den
    assert all(space.numerator((p, p)) == 2 * space.weight[p] * den for p in space.points)


def test_mass_refuses_a_foreign_point_and_leaves_identity_alone():
    head = [F(1, 2), F(1, 3), F(1, 7), F(1, MERSENNE_61)]
    weights = list(enumerate(head + [1 - sum(head)]))
    space, twin = FinProbSpace(weights), FinProbSpace(weights)
    with pytest.raises(KeyError) as want:
        fraction_sum(space, [0, 9])
    with pytest.raises(KeyError) as err:
        space.mass([0, 9])
    assert err.value.args == want.value.args == (9,)
    assert space.mass([3, 3]) == F(2, MERSENNE_61)
    with pytest.raises(KeyError) as err:
        space.numerator([0, 9])
    assert err.value.args == (9,)
    assert space.numerator([3, 3]) == 2 * 2 * 3 * 7
    assert space.denominator == 2 * 3 * 7 * MERSENNE_61
    # only `space` has computed a mass
    assert space == twin and twin == space and hash(space) == hash(twin)
    assert repr(space) == repr(twin)


def test_rational_functions_compare_across_domain_orders_and_are_unhashable():
    f = RationalFn((0, 1), {0: 1, 1: 2})
    g = RationalFn((1, 0), {0: 1, 1: 2})
    assert f == g and f != RationalFn((1, 0), {0: 2, 1: 1})
    for h in (f, g):
        with pytest.raises(TypeError):
            hash(h)
        with pytest.raises(TypeError):
            {h}


def test_weights_are_read_only():
    space = FinProbSpace([(0, F(1, 3)), (1, F(2, 3))])
    key, h, third = space._key_cache, hash(space), space.mass([0])
    with pytest.raises(TypeError):
        space.weight[0] = F(1, 2)
    with pytest.raises(TypeError):
        del space.weight[1]
    assert space.weight == {0: F(1, 3), 1: F(2, 3)}
    assert (space._key_cache, hash(space), space.mass([0])) == (key, h, third)


# --- Integer mass paths against plain Fraction sums ---------------------------

POWERS_OF_TWO = FinProbSpace([(i, F(2**i, 15)) for i in range(4)])  # 1/15, 2/15, 4/15, 8/15


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.just(POWERS_OF_TWO), weighted_spaces()), st.data())
def test_image_measure_and_pair_are_the_fraction_sums(space, data):
    # a codomain of 1-4 points, some of them never hit
    target = tuple(f"t{i}" for i in range(data.draw(st.integers(1, 4))))
    image = {p: data.draw(st.sampled_from(target)) for p in space.points}
    acc = {}
    for p in space.points:
        acc[image[p]] = acc.get(image[p], F(0)) + space.weight[p]
    want = FinProbSpace([(q, acc[q]) for q in target if q in acc])
    got = image_measure(space, collapse_map(space.points, target, image))
    assert got == want and got.points == want.points and repr(got) == repr(want)

    values = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
    fn = RationalFn(space.points, {p: data.draw(values) for p in space.points})
    want_pair = sum((fn(p) * space.weight[p] for p in space.points), F(0))
    got_pair = pair(fn, space)
    assert type(got_pair) is Fraction
    assert got_pair == want_pair and repr(got_pair) == repr(want_pair)


def _fraction_weight_error(weights):
    """The error text of the weight checks as Fraction comparisons and a
    Fraction sum, or None."""
    for p, w in weights:
        if w <= 0:
            return f"weight of {p!r} must be positive, got {w}"
    total = sum((w for _, w in weights), F(0))
    return None if total == 1 else f"weights sum to {total}, not 1"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(
    st.one_of(
        st.sampled_from([F(1, 15), F(2, 15), F(4, 15), F(8, 15), F(0), F(-1, 15)]),
        st.fractions(min_value=-1, max_value=1, max_denominator=60),
    ),
    min_size=1, max_size=5,
))
def test_weight_checks_raise_what_fraction_checks_raise(raw):
    weights = list(enumerate(raw))
    want = _fraction_weight_error(weights)
    if want is None:
        assert FinProbSpace(weights).weight == dict(weights)
    else:
        with pytest.raises(ValidationError) as err:
            FinProbSpace(weights)
        assert str(err.value) == want


def test_weight_checks_name_the_first_bad_weight_and_the_sum():
    for weights, text in (
        ([(0, F(1, 2)), (1, F(0)), (2, F(1, 2))], "weight of 1 must be positive, got 0"),
        ([(0, F(3, 2)), (1, F(-1, 2))], "weight of 1 must be positive, got -1/2"),
        ([("a", F(-1)), ("b", F(0)), ("c", F(2))], "weight of 'a' must be positive, got -1"),
        ([(0, F(1, 3)), (1, F(1, 3))], "weights sum to 2/3, not 1"),
        ([(i, F(2**i, 15)) for i in range(3)] + [(3, F(9, 15))], "weights sum to 16/15, not 1"),
    ):
        with pytest.raises(ValidationError) as err:
            FinProbSpace(weights)
        assert str(err.value) == text == _fraction_weight_error(weights)
    assert POWERS_OF_TWO.denominator == 15
    assert [POWERS_OF_TWO.numerator((p,)) for p in POWERS_OF_TWO.points] == [1, 2, 4, 8]
