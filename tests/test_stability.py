import hashlib
import importlib
import io
import itertools
import random
import sys
import re
import time
import typing
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hst

from randlab import (
    BudgetError,
    FeasibleCertificate,
    FinProbSpace,
    FinStructure,
    PhiContext,
    RandomElement,
    Randomization,
    RMeasure,
    Signature,
    ValidationError,
    cb_rank_mult,
    certify_nonforking,
    check_independence,
    directed_cycle,
    ladder_length,
    linear_order,
    nonforking_extension,
    parse_formula,
    phi_type_space,
    pure_set,
    rho,
    rho_by_multiplicity,
    rho_hat,
    rtype_of,
    type_space,
)
import randlab.stability
from randlab.cli import main
from randlab.errors import DEFAULT_BUDGET, budget
from randlab.formulas import And, Eq, Exists, Forall, Not, Or, Rel, Var, format_formula, free_vars, substitute
from randlab.formulas import Formula, Term, TypeIs, disj
from randlab.semantics import TypeId, _extension, automorphisms, isolating_formula
from randlab.measure import RationalFn, image_measure
from randlab.stability import (
    IndependenceVerdict,
    _fibre,
    _heads,
    _isolated_solutions,
    _measure_space,
    _orbit_traces,
    _trace,
    restriction_map,
    rho_fn,
    stationarity_problem,
)

F = Fraction


def ctx_of(st, text, w_vars=(), w_values=None):
    phi = parse_formula(text, st.signature)
    return PhiContext(st, phi, ("x",), ("y",), w_vars, w_values)


def test_ladder_lengths(m2, l3):
    assert ladder_length(ctx_of(m2, "x = y"), 5) == 1
    assert ladder_length(ctx_of(l3, "Lt(x, y)"), 6) == 3
    # contradictions admit only the trivial one-rung ladder
    bot = PhiContext(m2, Not(Eq(Var("x"), Var("x"))), ("x",), ("y",))
    assert ladder_length(bot, 4) == 1
    top = PhiContext(m2, Eq(Var("x"), Var("x")), ("x",), ("y",))
    assert ladder_length(top, 4) == 0


def test_ladder_respects_bound(l3):
    assert ladder_length(ctx_of(l3, "Lt(x, y)"), 2) == 2


def test_phi_type_space_examples(m2, c3):
    assert len(phi_type_space(ctx_of(m2, "x = y"))) == 2
    assert len(phi_type_space(ctx_of(c3, "E(x, y)"))) == 3
    top = PhiContext(m2, Eq(Var("y"), Var("y")), ("x",), ("y",))
    assert len(phi_type_space(top)) == 1


def _c6_pairs_ctx():
    c6 = directed_cycle(6)
    phi = parse_formula("E(x0, y0) & E(x1, y1)", c6.signature)
    return PhiContext(c6, phi, ("x0", "x1"), ("y0", "y1"))


def test_ladder_search_is_budgeted(l3):
    # unbounded, this search runs for minutes; the budget stops it at once
    start = time.perf_counter()
    with pytest.raises(BudgetError) as err:
        ladder_length(_c6_pairs_ctx(), 6)
    assert time.perf_counter() - start < 5
    assert err.value.required == DEFAULT_BUDGET + 1
    # the second (a, b) pair tried is one past a budget of 1
    with budget(1), pytest.raises(BudgetError) as err:
        ladder_length(ctx_of(l3, "Lt(x, y)"), 6)
    assert err.value.required == 2


def test_phi_type_space_is_budgeted():
    ctx = _c6_pairs_ctx()
    pairs = 6 ** (2 + 2)
    with budget(pairs - 1), pytest.raises(BudgetError) as err:
        phi_type_space(ctx)
    assert err.value.required == pairs
    assert "phi type space over budget" in str(err.value)
    # the trace of (a0, a1) is its successor pair alone, so all 6**2 differ
    with budget(pairs):
        assert len(phi_type_space(ctx)) == 6**2


def test_a_kept_trace_table_is_refused_where_a_fresh_one_is(c3):
    """Every trace reader charges |M|**(|x| + |y|) pairs on each call: one
    pair under that count, a call on warm tables raises what a cold one
    does, and at the count both run."""
    ctx = ctx_of(c3, "E(x, y) | y = w", ("w",), (0,))
    pairs = 3 ** 2
    space = type_space(c3, 1, (0,))
    rand = Randomization.constant(c3, FinProbSpace.uniform(3))
    g = rand.element([0, 1, 2])
    p, q = (rtype_of(rand, [rand.element(vals)], [g]) for vals in ([1, 2, 0], [2, 2, 1]))
    calls = {
        "rho": lambda: rho(ctx, space, space.types[1], 2),
        "rho_by_multiplicity": lambda: rho_by_multiplicity(ctx, space, space.types[1], 2),
        "cb_rank_mult": lambda: cb_rank_mult(ctx, parse_formula("x = x", c3.signature)),
        "rho_fn": lambda: rho_fn(ctx, p, q),
    }
    for name, call in calls.items():
        errors = []
        for warm in (False, True):
            for cache in (_trace, _orbit_traces, _isolated_solutions, _fibre):
                cache.cache_clear()
            if warm:
                call()
                assert _trace.cache_info().currsize > 0
            with budget(pairs - 1), pytest.raises(BudgetError) as err:
                call()
            errors.append(str(err.value))
            with budget(pairs):
                call()
        assert errors == [f"trace table over budget (required count {pairs})"] * 2, name


def test_cb_rank_mult_examples(m2):
    ctx = ctx_of(m2, "x = y")
    assert cb_rank_mult(ctx, parse_formula("x = x", m2.signature)) == (0, 2)
    assert cb_rank_mult(ctx, parse_formula("!(x = x)", m2.signature)) == (None, 0)
    assert cb_rank_mult(ctx, parse_formula("x = #0", m2.signature)) == (0, 1)


def test_cb_rank_zero_on_every_consistent_input(c3, l3):
    # finite structures are discrete: consistent partial types have rank 0
    for st in (c3, l3):
        ctx = ctx_of(st, "E(x, y)" if st.name == "c3" else "Lt(x, y)")
        from randlab.axioms import default_formula_corpus
        from randlab.formulas import free_vars

        for pi in default_formula_corpus(st.signature):
            if not free_vars(pi) <= {"x"}:
                continue
            rank, mult = cb_rank_mult(ctx, pi)
            assert (rank == 0 and mult >= 1) or (rank is None and mult == 0)


def test_rho_examples(m2):
    ctx = ctx_of(m2, "x = y")
    space = type_space(m2, 1, ())
    assert rho(ctx, space, space.types[0], 0) == F(1, 2)
    # instances implied (or contradicted) by the type get value 1 (or 0)
    ctx_top = PhiContext(m2, Eq(Var("x"), Var("x")), ("x",), ("y",))
    assert rho(ctx_top, space, space.types[0], 0) == 1
    ctx_bot = PhiContext(m2, Not(Eq(Var("x"), Var("x"))), ("x",), ("y",))
    assert rho(ctx_bot, space, space.types[0], 0) == 0
    # b must lie in the universe, on both routes
    for route in (rho, rho_by_multiplicity):
        for b in (2, -1):
            with pytest.raises(ValidationError, match="outside the universe"):
                route(ctx, space, space.types[0], b)


def _phi_corpus(st):
    sig = st.signature
    texts = ["x = y", "!(x = y)", "x = x"]
    if "E" in sig.relations:
        texts += ["E(x, y)", "E(y, x)", "E(x, y) | E(y, x)"]
    if "Lt" in sig.relations:
        texts += ["Lt(x, y)", "Lt(y, x)", "Lt(x, y) | x = y"]
    return [parse_formula(t, sig) for t in texts]


@pytest.mark.parametrize("name", ["m2", "m4", "c3", "c5", "l3"])
def test_rho_two_routes_agree_everywhere(name, request):
    st = request.getfixturevalue(name)
    for phi in _phi_corpus(st):
        for params in [(), (0,)]:
            ctx = PhiContext(st, phi, ("x",), ("y",))
            space = type_space(st, 1, params)
            for p in space.types:
                for b in st.elements:
                    value = rho(ctx, space, p, b)
                    assert value == rho_by_multiplicity(ctx, space, p, b)
                    assert 0 <= value <= 1


def _trace_fraction(ctx, tuples, b, w):
    """The oracle for every rho route: the share of the given x tuples'
    distinct traces that contain b, each trace found by `instance_holds`."""
    ys = list(itertools.product(ctx.structure.elements, repeat=len(ctx.y_vars)))
    traces = {frozenset(y for y in ys if ctx.instance_holds(a, y, w)) for a in tuples}
    return F(sum(b in t for t in traces), len(traces))


def test_rho_reads_one_trace_table_per_orbit_context_and_space(m4):
    """rho is the fraction of the orbit's distinct traces containing b, through
    contexts interleaved on one structure (phi and w_values differ) and a
    parameter fixed and unfixed: a trace table keyed without the context or
    the space would hand one of them another's traces."""
    sig = m4.signature
    plain = parse_formula("x = y", sig)
    with_w = parse_formula("x = y | y = w", sig)
    ctxs = {
        "plain": PhiContext(m4, plain, ("x",), ("y",)),
        "w=0": PhiContext(m4, with_w, ("x",), ("y",), ("w",), (0,)),
        "w=1": PhiContext(m4, with_w, ("x",), ("y",), ("w",), (1,)),
    }
    schedule = [
        ("plain", ()), ("plain", (0,)), ("w=0", (0,)), ("plain", (0,)), ("w=0", (0, 1)),
        ("w=1", (0, 1)), ("plain", (0, 1)), ("plain", ()), ("w=0", (0,)), ("w=1", (0, 1)),
    ]
    _orbit_traces.cache_clear()
    tables = {}
    for name, params in schedule:
        ctx, space = ctxs[name], type_space(m4, 1, params)
        w = ctx._w_or_raise()
        table = {}
        for p in space.types:
            for b in m4.elements:
                want = _trace_fraction(ctx, space.orbit(p), (b,), w)
                got = rho(ctx, space, p, b)
                assert got == want and repr(got) == repr(want)
                table[(p, b)] = got
        assert tables.setdefault((name, params), table) == table
    # the interleaved tables disagree where they share a key, so sharing shows
    first = type_space(m4, 1, ()).types[0]
    assert first == type_space(m4, 1, (0,)).types[0]
    assert tables[("plain", ())][(first, 0)] != tables[("plain", (0,))][(first, 0)]
    assert tables[("plain", (0,))] != tables[("w=0", (0,))]
    assert tables[("w=0", (0, 1))] != tables[("w=1", (0, 1))]


def _table_contexts(st):
    """(context, parameter sets) with |y| = 1 and 2, without w and with w = 0, 1."""
    sig = st.signature
    rel = next(iter(sig.relations), None)
    one = f"{rel}(x, y)" if rel else "x = y"
    two = f"{rel}(x, y) & !(x = z)" if rel else "x = y | x = z"
    out = []
    for text, y_vars in ((one, ("y",)), (two, ("y", "z"))):
        out.append((PhiContext(st, parse_formula(text, sig), ("x",), y_vars), [(), (0,)]))
        with_w = parse_formula(f"({text}) | y = w", sig)
        for w in (0, 1):
            out.append((PhiContext(st, with_w, ("x",), y_vars, ("w",), (w,)), [(w,), (0, 1)]))
    return out


@pytest.mark.parametrize(
    "st", [directed_cycle(3), directed_cycle(4), linear_order(3), pure_set(4)], ids=repr
)
def test_rho_table_is_the_trace_fraction_for_every_b(st):
    """rho's table per orbit against the trace fraction over the orbit, and
    against the isolating-formula route, for every type and every b."""
    _orbit_traces.cache_clear()
    seen = set()
    for ctx, param_sets in _table_contexts(st):
        w = ctx._w_or_raise()
        for params in param_sets:
            space = type_space(st, 1, params)
            for p in space.types:
                orbit = space.orbit(p)
                for b in itertools.product(st.elements, repeat=len(ctx.y_vars)):
                    want = _trace_fraction(ctx, orbit, b, w)
                    got = rho(ctx, space, p, b)
                    assert got == want and repr(got) == repr(want)
                    assert got == rho_by_multiplicity(ctx, space, p, b)
                    seen.add(got)
    # some b lies in no trace and some in every trace
    assert {F(0), F(1)} <= seen


def test_a_context_hashes_its_tree_once_and_rho_builds_its_table_once(monkeypatch):
    """After one hash of a context, hashing it again calls no child
    `__hash__`; after one rho call, another over the same (context, space,
    type) builds no trace and hashes no child either."""
    calls = []
    for cls in (*typing.get_args(Formula), *typing.get_args(Term), FinStructure):

        def counted(self, hash_=cls.__hash__):
            calls.append(type(self).__name__)
            return hash_(self)

        monkeypatch.setattr(cls, "__hash__", counted)
    st = directed_cycle(4)
    ctx = ctx_of(st, "exists z (E(x, z) & E(z, y)) | y = w", ("w",), (0,))
    hash(ctx)
    assert "FinStructure" in calls and "Exists" in calls and "Var" in calls
    calls.clear()
    hash(ctx)
    assert calls == []

    traces = []
    real_trace = randlab.stability._trace
    monkeypatch.setattr(
        randlab.stability, "_trace", lambda *args: traces.append(args) or real_trace(*args)
    )
    _orbit_traces.cache_clear()
    space = type_space(st, 1, (0,))
    p = space.types[1]
    first = rho(ctx, space, p, 2)
    assert len(traces) == len(space.orbit(p))
    want = [_trace_fraction(ctx, space.orbit(p), (b,), (0,)) for b in st.elements]
    traces.clear()
    calls.clear()
    assert [rho(ctx, space, p, b) for b in st.elements] == want
    assert first == rho(ctx, space, p, 2) == want[2]
    assert traces == [] and calls == []


@pytest.mark.parametrize("name", ["m2", "m4", "c3", "c5", "l3"])
def test_isolated_solutions_are_the_extension(name, request):
    st = request.getfixturevalue(name)
    for x_vars in (("x",), ("u",), ("x0",)):
        for params in [(), (0,)]:
            space = type_space(st, 1, params)
            for p in space.types:
                iso = substitute(isolating_formula(space, p), {"x0": Var(x_vars[0])})
                want = _extension(st, iso, x_vars)
                got = _isolated_solutions(space, p, x_vars)
                assert frozenset(got) == want and len(got) == len(want)


@pytest.mark.parametrize("st", [directed_cycle(4), linear_order(3), pure_set(3)], ids=repr)
def test_trace_is_the_set_of_b_that_instance_holds_accepts(st):
    """_trace, one extension over the y names, against instance_holds for
    every a: with |x| = 1 and 2, |y| = 0, 1 and 2, one or two w names, and
    a quantifier that rebinds a y name."""
    sig = st.signature
    rel = next(iter(sig.relations), None)
    edge = f"{rel}(x, y)" if rel else "x = y"
    contexts = [ctx for ctx, _ in _table_contexts(st)] + [
        PhiContext(st, parse_formula(f"exists y ({edge}) & x = w", sig), ("x",), (), ("w",), (1,)),
        PhiContext(
            st, parse_formula(f"({edge} | y = w) & !(x = v) & exists y ({edge})", sig),
            ("x",), ("y",), ("w", "v"), (0, 2),
        ),
        _c6_pairs_ctx(),  # two x and two y names
    ]
    for ctx in contexts:
        m, w = ctx.structure, ctx._w_or_raise()
        for a in itertools.product(m.elements, repeat=len(ctx.x_vars)):
            want = frozenset(
                b
                for b in itertools.product(m.elements, repeat=len(ctx.y_vars))
                if ctx.instance_holds(a, b, w)
            )
            assert _trace(ctx, a, w) == want


@pytest.fixture()
def wrong_isolating_formula(monkeypatch):
    """rho_by_multiplicity fed the isolating formula of the next type."""

    def wrong(space, q):
        return isolating_formula(space, space.types[(q.index + 1) % len(space)])

    monkeypatch.setattr(randlab.stability, "isolating_formula", wrong)
    _isolated_solutions.cache_clear()
    yield
    _isolated_solutions.cache_clear()


def test_rho_route_check_is_live(l3, wrong_isolating_formula):
    ctx = ctx_of(l3, "Lt(x, y)")
    space = type_space(l3, 1, ())
    p = space.types[0]
    assert rho(ctx, space, p, 1) == 1
    assert rho_by_multiplicity(ctx, space, p, 1) == 0


def test_check_stability_reports_a_route_mismatch(tmp_path, wrong_isolating_formula):
    ws = tmp_path / "ws.rl"
    ws.write_text("structure l3 { universe = 3; relation Lt/2 = {(0,1), (0,2), (1,2)}; }\n")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([
            "--workspace", str(ws), "check", "stability", "--structure", "l3",
            "--phi", "Lt(x, y)",
        ])
    assert (code, out.getvalue()) == (1, "FAIL rho-consistency Lt(x, y)\n")


def _production_values(l3, coin_rand):
    ctx = ctx_of(l3, "Lt(x, y)")
    space = type_space(l3, 1, (1,))
    rhos = [rho(ctx, space, p, b) for p in space.types for b in l3.elements]
    rand = Randomization.constant(l3, FinProbSpace.uniform(l3.size))
    c = rand.element(list(l3.elements))
    b = RandomElement.constant(rand.base, 0)
    wctx = ctx_of(l3, "Lt(x, y)", ("w",))
    p, q = rtype_of(rand, [c], [b]), rtype_of(rand, [b], [b])
    prob, cert = certify_nonforking(wctx, p, q)
    f = coin_rand.element([0, 1])
    a = RandomElement.constant(coin_rand.base, 0)
    return (
        rhos,
        rho_hat(wctx, p, q),
        prob.constraints,
        cert,
        check_independence(coin_rand, [f], [f], []),
        check_independence(coin_rand, [f], [a], [a]),
    )


def test_production_paths_build_no_isolating_formula(l3, coin_rand, monkeypatch):
    want = _production_values(l3, coin_rand)

    def refuse(space, q):
        raise AssertionError("a production path built an isolating formula")

    monkeypatch.setattr(randlab.stability, "isolating_formula", refuse)
    _isolated_solutions.cache_clear()
    try:
        assert _production_values(l3, coin_rand) == want
    finally:
        _isolated_solutions.cache_clear()


def test_rho_automorphism_invariance(c3, m4):
    for st in (c3, m4):
        for phi in _phi_corpus(st)[:4]:
            ctx = PhiContext(st, phi, ("x",), ("y",))
            for params in [(), (0,)]:
                space = type_space(st, 1, params)
                for sigma in automorphisms(st):
                    moved_params = tuple(sigma[a] for a in params)
                    moved_space = type_space(st, 1, moved_params)
                    for p in space.types:
                        a = p.rep[0]
                        for b in st.elements:
                            lhs = rho(ctx, space, p, b)
                            rhs = rho(
                                ctx,
                                moved_space,
                                moved_space.type_of((sigma[a],)),
                                sigma[b],
                            )
                            assert lhs == rhs


def test_rho_depends_only_on_type_of_b(l3):
    ctx = ctx_of(l3, "Lt(x, y)")
    space = type_space(l3, 1, (1,))
    p = space.types[0]
    same_type = type_space(l3, 1, (1,))
    for b1 in l3.elements:
        for b2 in l3.elements:
            if same_type.type_of((b1,)) == same_type.type_of((b2,)):
                assert rho(ctx, space, p, b1) == rho(ctx, space, p, b2)


def test_rho_hat_point_masses_equal_rho(m2):
    ctx = ctx_of(m2, "x = y")
    rand = Randomization.constant(m2, FinProbSpace.dyadic(1))
    f = rand.element([0, 1])
    p = rtype_of(rand, [f])
    q = p
    # W empty: the fiber product is one cell; rho_hat degenerates to rho
    space = type_space(m2, 1, ())
    assert rho_hat(ctx, p, q) == rho(ctx, space, space.types[0], 0)


def test_rho_hat_deterministic_b_is_the_definition_predicate(m2, l3):
    for st, text in ((m2, "x = y"), (l3, "Lt(x, y)")):
        rand = Randomization.constant(st, FinProbSpace.uniform(st.size))
        c = rand.element(list(st.elements))
        for b_val in st.elements:
            b = RandomElement.constant(rand.base, b_val)
            ctx = PhiContext(st, parse_formula(text, st.signature), ("x",), ("y",), ("w",))
            p = rtype_of(rand, [c], [b])
            q = rtype_of(rand, [b], [b])
            phi_inst = parse_formula(text.replace("y", f"#{b_val}"), st.signature)
            from randlab.randomization import event_of, mu

            direct = mu(rand, event_of(rand, phi_inst, {"x": c}))
            assert rho_hat(ctx, p, q) == direct


def test_rho_hat_rejects_mismatched_marginals(l3):
    ctx = PhiContext(l3, parse_formula("Lt(x, y)", l3.signature), ("x",), ("y",), ("w",))
    rand = Randomization.constant(l3, FinProbSpace.dyadic(1))
    f = rand.element([0, 1])
    a0 = RandomElement.constant(rand.base, 0)
    a1 = RandomElement.constant(rand.base, 1)
    p = rtype_of(rand, [f], [a0])
    q = rtype_of(rand, [f], [a1])  # different W marginal
    with pytest.raises(ValidationError):
        rho_hat(ctx, p, q)
    # more w variables than parameter coordinates
    wide = PhiContext(l3, ctx.phi, ("x",), ("y",), ("w", "v"))
    for build in (rho_hat, nonforking_extension, certify_nonforking):
        with pytest.raises(ValidationError, match="2 w variables for 1 parameter"):
            build(wide, p, p)


def test_a_type_from_another_space_is_refused(c3):
    # s1's third type indexes past s0's one type; TypeId((1,), 0) has an
    # index of s0 but not its representative
    s0, s1 = type_space(c3, 1), type_space(c3, 1, (0,))
    ctx = ctx_of(c3, "E(x, y)")
    calls = (
        lambda q: rho(ctx, s0, q, 1),
        lambda q: rho_by_multiplicity(ctx, s0, q, 1),
        lambda q: isolating_formula(s0, q),
    )
    for q in (s1.types[2], TypeId((1,), 0)):
        for call in calls:
            with pytest.raises(ValidationError, match=rf"{re.escape(repr(q))} is not a type of"):
                call(q)
    assert rho(ctx, s0, s0.types[0], 1) == F(1, 3)


def test_a_b_type_from_another_space_is_refused(c3, l3):
    # a TypeId b is read only as a type of the y variables over p's parameters
    s0, s1 = type_space(c3, 1), type_space(c3, 1, (0,))
    ctx = ctx_of(c3, "E(x, y)")
    foreign = (
        type_space(l3, 1).types[2],  # another structure
        s1.types[2],  # other parameters
        type_space(c3, 2).types[1],  # two coordinates for one y variable
    )
    for call in (rho, rho_by_multiplicity):
        for b in foreign:
            with pytest.raises(ValidationError, match=rf"{re.escape(repr(b))} is not a type of"):
                call(ctx, s0, s0.types[0], b)
        assert call(ctx, s0, s0.types[0], s0.types[0]) == call(ctx, s0, s0.types[0], 0) == F(1, 3)
        for b in s1.types:
            assert call(ctx, s1, s1.types[0], b) == call(ctx, s1, s1.types[0], b.rep)


def test_measures_on_another_structure_are_refused(m2, c3):
    def measures(st):
        rand = Randomization.constant(st, FinProbSpace.dyadic(1))
        f = rand.element([0, 1])
        return rtype_of(rand, [f]), rtype_of(rand, [f, RandomElement.constant(rand.base, 0)])

    ctx_c3 = PhiContext(c3, parse_formula("E(x, y)", c3.signature), ("x",), ("y",))
    ctx_m2 = PhiContext(m2, parse_formula("x = y", m2.signature), ("x",), ("y",))
    for ctx, (p, q) in ((ctx_c3, measures(m2)), (ctx_m2, measures(c3))):
        for build in (rho_hat, randlab.stability.rho_fn, nonforking_extension,
                      randlab.stability.stationarity_problem, certify_nonforking):
            with pytest.raises(ValidationError, match="different structure than phi"):
                build(ctx, p, q)
    # one measure on the context's structure is not enough
    p2, _ = measures(m2)
    _, q3 = measures(c3)
    with pytest.raises(ValidationError, match="different structure than phi"):
        rho_hat(ctx_m2, p2, q3)


def test_nonforking_extension_empty_y_returns_p(m2):
    ctx = PhiContext(m2, parse_formula("x = y", m2.signature), ("x",), ("y",), ("w",))
    rand = Randomization.constant(m2, FinProbSpace.dyadic(1))
    f = rand.element([0, 1])
    b = RandomElement.constant(rand.base, 0)
    p = rtype_of(rand, [f], [b])
    q_w = rtype_of(rand, [], [b])
    ext = nonforking_extension(ctx, p, q_w)
    assert ext == p


def test_nonforking_extension_marginals_and_values(m2):
    ctx = PhiContext(m2, parse_formula("x = y", m2.signature), ("x",), ("y",), ("w",))
    rand = Randomization.constant(m2, FinProbSpace.dyadic(1))
    f = rand.element([0, 1])
    b = RandomElement.constant(rand.base, 0)
    p = rtype_of(rand, [f], [b])
    q = rtype_of(rand, [b], [b])
    ext = nonforking_extension(ctx, p, q)
    target = ext.space
    # x,W marginal is p
    rx = restriction_map(target, [0, 2], p.space)
    acc = {}
    for t in target.types:
        acc[rx(t)] = acc.get(rx(t), F(0)) + ext.weights[t]
    assert acc == p.weights
    # y,W marginal is q
    ry = restriction_map(target, [1, 2], q.space)
    acc = {}
    for t in target.types:
        acc[ry(t)] = acc.get(ry(t), F(0)) + ext.weights[t]
    assert acc == q.weights
    # the phi value equals rho_hat: P[x = b] = 1/2
    value = sum(
        (
            ext.weights[t]
            for t in target.types
            if ctx.instance_holds((t.rep[0],), (t.rep[1],), (t.rep[2],))
        ),
        F(0),
    )
    assert value == rho_hat(ctx, p, q) == F(1, 2)


def test_nonforking_certification(m2, l3):
    for st, text in ((m2, "x = y"), (l3, "Lt(x, y)")):
        rand = Randomization.constant(st, FinProbSpace.uniform(st.size))
        c = rand.element(list(st.elements))
        b = RandomElement.constant(rand.base, 0)
        ctx = PhiContext(st, parse_formula(text, st.signature), ("x",), ("y",), ("w",))
        p = rtype_of(rand, [c], [b])
        q = rtype_of(rand, [b], [b])
        prob, cert = certify_nonforking(ctx, p, q)
        assert isinstance(cert, FeasibleCertificate)
        assert cert.verify(prob)
        # the constructed extension is itself a witness for the system
        ext = nonforking_extension(ctx, p, q)
        manual = FeasibleCertificate({t: ext.weights[t] for t in ext.space.types})
        assert manual.verify(prob)


def test_nonforking_extension_with_random_parameters():
    # parameters need not be deterministic: any shared parameter tuple
    # gives matching W marginals, and the construction stays exact
    import random

    from randlab import directed_cycle, linear_order, pure_set
    from randlab.extension import FeasibleCertificate

    rng = random.Random(42)
    battery = [
        (pure_set(4), "x = y"),
        (directed_cycle(3), "E(x, y)"),
        (linear_order(3), "Lt(x, y)"),
    ]
    for st, text in battery:
        rand = Randomization.constant(st, FinProbSpace.uniform(4))
        for _ in range(2):
            c = rand.element([rng.randrange(st.size) for _ in range(4)])
            b = rand.element([rng.randrange(st.size) for _ in range(4)])
            g = rand.element([rng.randrange(st.size) for _ in range(4)])
            ctx = PhiContext(
                st, parse_formula(text, st.signature), ("x",), ("y",), ("w",)
            )
            p = rtype_of(rand, [c], [g])
            q = rtype_of(rand, [b], [g])
            ext = nonforking_extension(ctx, p, q)
            tgt = ext.space
            rx = restriction_map(tgt, [0, 2], p.space)
            ry = restriction_map(tgt, [1, 2], q.space)
            ax, ay = {}, {}
            for t in tgt.types:
                ax[rx(t)] = ax.get(rx(t), F(0)) + ext.weights[t]
                ay[ry(t)] = ay.get(ry(t), F(0)) + ext.weights[t]
            assert ax == p.weights and ay == q.weights
            val = sum(
                (
                    ext.weights[t]
                    for t in tgt.types
                    if ctx.instance_holds((t.rep[0],), (t.rep[1],), (t.rep[2],))
                ),
                F(0),
            )
            assert val == rho_hat(ctx, p, q)
            prob, cert = certify_nonforking(ctx, p, q)
            assert isinstance(cert, FeasibleCertificate) and cert.verify(prob)


def test_independence_shared_coin(coin_rand):
    f = coin_rand.element([0, 1])
    verdict = check_independence(coin_rand, [f], [f], [])
    assert not verdict.independent
    assert format_formula(verdict.witness) == "x = y"
    assert verdict.lhs == 1 and verdict.rhs == F(1, 2)


def test_independence_b_inside_params(coin_rand):
    f = coin_rand.element([0, 1])
    a = RandomElement.constant(coin_rand.base, 0)
    verdict = check_independence(coin_rand, [f], [a], [a])
    assert verdict.independent


def test_independence_disjoint_halves(m2):
    rand = Randomization.constant(m2, FinProbSpace.uniform(4))
    c = rand.element([0, 0, 1, 1])
    b = rand.element([0, 1, 0, 1])
    assert check_independence(rand, [c], [b], []).independent


def test_independence_conjugation_invariance(m2):
    rand = Randomization.constant(m2, FinProbSpace.uniform(4))
    c = rand.element([0, 0, 1, 1])
    b = rand.element([0, 1, 0, 1])
    swapped_c = rand.element([1, 1, 0, 0])
    swapped_b = rand.element([1, 0, 1, 0])
    v1 = check_independence(rand, [c], [b], [])
    v2 = check_independence(rand, [swapped_c], [swapped_b], [])
    assert v1.independent == v2.independent
    dep1 = check_independence(rand, [c], [c], [])
    dep2 = check_independence(rand, [swapped_c], [swapped_c], [])
    assert not dep1.independent and not dep2.independent
    assert format_formula(dep1.witness) == format_formula(dep2.witness)


# --- Oracles: realizations and rho at fibre pairs, as built before `_heads` -----------

def _old_realize_with_w_part(space, q, head, w_rep):
    for t in space.orbit(q):
        if t[head:] == w_rep:
            return t[:head]
    raise AssertionError("matching orbit member must exist when base types agree")


def _old_rho_at_pair(ctx, p0, q0, p_space, q_space, nx, ny, nw):
    """rho at a fibre pair through the canonical W representative and a
    fresh type space over it, as `rho_fn` computed it before `_heads`."""
    m = ctx.structure
    w_rep = type_space(m, nw, ()).type_of(p0.rep[nx:]).rep
    a = _old_realize_with_w_part(p_space, p0, nx, w_rep)
    b = _old_realize_with_w_part(q_space, q0, ny, w_rep)
    w_vals = tuple(w_rep[i] for i in range(len(ctx.w_vars)))
    inner = PhiContext(m, ctx.phi, ctx.x_vars, ctx.y_vars, ctx.w_vars, w_vals)
    space_a = type_space(m, nx, w_rep)
    return rho(inner, space_a, space_a.type_of(a), b)


def _old_nonforking_extension(ctx, p, q):
    """The canonical extension with realizations found by scanning M^nx."""
    m = ctx.structure
    nx = len(ctx.x_vars)
    nw = p.space.arity - nx
    totaly = q.space.arity - nw
    w_space = type_space(m, nw, ())
    pi_x = restriction_map(p.space, range(nx, nx + nw), w_space)
    pi_y = restriction_map(q.space, range(totaly, totaly + nw), w_space)
    target = type_space(m, nx + totaly + nw, ())
    img_p = {w: F(0) for w in w_space.types}
    for q0 in p.space.types:
        img_p[pi_x(q0)] += p.weights[q0]
    acc = {}
    for p0 in p.space.types:
        if p.weights[p0] == 0:
            continue
        r = pi_x(p0)
        for q0 in q.space.types:
            if q.weights[q0] == 0 or pi_y(q0) != r:
                continue
            cell = p.weights[p0] * q.weights[q0] / img_p[r]
            w_rep = r.rep
            b = _old_realize_with_w_part(q.space, q0, totaly, w_rep)
            realizations = [
                a
                for a in itertools.product(m.elements, repeat=nx)
                if p.space.type_of(a + w_rep) == p0
            ]
            for a in realizations:
                r0 = target.type_of(a + b + w_rep)
                acc[r0] = acc.get(r0, F(0)) + cell / len(realizations)
    return RMeasure(target, acc)


ORACLE_STRUCTURES = {
    "m2": pure_set(2),
    "m4": pure_set(4),
    "c3": directed_cycle(3),
    "c4": directed_cycle(4),
    "c5": directed_cycle(5),
    "l3": linear_order(3),
    "l4": linear_order(4),
}
ORACLE_PHI = {  # one formula per signature and parameter width, using every w
    ("m", 1): "x = y | x = w",
    ("m", 2): "x = y | (x = w & !(y = v))",
    ("c", 1): "E(x, y) | E(w, x)",
    ("c", 2): "E(x, y) | (E(w, x) & !(y = v))",
    ("l", 1): "Lt(x, y) & Lt(w, y)",
    ("l", 2): "(Lt(x, y) & Lt(w, y)) | x = v",
}
W_VARS = {1: ("w",), 2: ("w", "v")}


def _check_against_oracles(name, nw, c_vals, b_vals, w_vals):
    """rho_fn, nonforking_extension and _heads against the constructions
    above, for p = type of (c, w) and q = type of (b, w) over a uniform base."""
    st = ORACLE_STRUCTURES[name]
    text = ORACLE_PHI[(name[0], nw)]
    ctx = PhiContext(st, parse_formula(text, st.signature), ("x",), ("y",), W_VARS[nw])
    rand = Randomization.constant(st, FinProbSpace.uniform(len(c_vals)))
    params = [rand.element(vals) for vals in w_vals]
    p = rtype_of(rand, [rand.element(c_vals)], params)
    q = rtype_of(rand, [rand.element(b_vals)], params)

    fn, joint = rho_fn(ctx, p, q)
    for p0, q0 in joint.points:
        want = _old_rho_at_pair(ctx, p0, q0, p.space, q.space, 1, 1, nw)
        assert fn((p0, q0)) == want, (name, text, p0, q0)
    assert nonforking_extension(ctx, p, q) == _old_nonforking_extension(ctx, p, q)

    for meas in (p, q):
        for t0 in meas.space.types:
            for member in meas.space.orbit(t0):
                w = member[1:]
                heads = _heads(meas.space, t0, 1, w)
                scan = [
                    a for a in itertools.product(st.elements, repeat=1)
                    if meas.space.type_of(a + w) == t0
                ]
                over_w = type_space(st, 1, w)
                assert heads == scan == over_w.orbit(over_w.type_of(member[:1]))


@pytest.mark.parametrize("nw", [1, 2])
@pytest.mark.parametrize("name", sorted(ORACLE_STRUCTURES))
def test_fibre_pairs_match_the_old_constructions(name, nw):
    st = ORACLE_STRUCTURES[name]
    k = st.size
    rng = random.Random(f"{name}-{nw}")
    # the identity element meets every type of x; constant and random
    # parameters give one fibre and several
    cases = [(list(st.elements), [0] * k, [[0] * k for _ in range(nw)])]
    for _ in range(3):
        cases.append((
            [rng.randrange(k) for _ in range(k)],
            [rng.randrange(k) for _ in range(k)],
            [[rng.randrange(k) for _ in range(k)] for _ in range(nw)],
        ))
    for c_vals, b_vals, w_vals in cases:
        _check_against_oracles(name, nw, c_vals, b_vals, w_vals)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.data())
def test_fibre_pairs_match_the_old_constructions_random(data):
    name = data.draw(hst.sampled_from(sorted(ORACLE_STRUCTURES)))
    nw = data.draw(hst.sampled_from([1, 2]))
    points = data.draw(hst.integers(1, 5))
    size = ORACLE_STRUCTURES[name].size
    values = hst.lists(hst.integers(0, size - 1), min_size=points, max_size=points)
    c_vals, b_vals = data.draw(values), data.draw(values)
    w_vals = [data.draw(values) for _ in range(nw)]
    _check_against_oracles(name, nw, c_vals, b_vals, w_vals)


def _problem_rows(prob):
    return prob.ground, [
        (list(c.fn.values.items()), c.bound, c.relation) for c in prob.constraints
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(hst.data())
def test_a_kept_fibre_gives_what_a_fresh_one_does(data):
    name = data.draw(hst.sampled_from(sorted(ORACLE_STRUCTURES)))
    nw = data.draw(hst.sampled_from([1, 2]))
    points = data.draw(hst.integers(1, 4))
    st = ORACLE_STRUCTURES[name]
    values = hst.lists(hst.integers(0, st.size - 1), min_size=points, max_size=points)
    rand = Randomization.constant(st, FinProbSpace.uniform(points))
    params = [rand.element(data.draw(values)) for _ in range(nw)]
    p = rtype_of(rand, [rand.element(data.draw(values))], params)
    q = rtype_of(rand, [rand.element(data.draw(values))], params)
    ctx = PhiContext(st, parse_formula(ORACLE_PHI[(name[0], nw)], st.signature), ("x",), ("y",), W_VARS[nw])
    calls = (rho_hat, nonforking_extension, stationarity_problem)

    def results(clear):
        out = []
        for call in calls:
            if clear:
                _fibre.cache_clear()
            out.append(call(ctx, p, q))
        return out

    cold = results(clear=True)
    hits = _fibre.cache_info().hits
    warm = results(clear=False)
    assert _fibre.cache_info().hits >= hits + len(calls)
    assert warm[:2] == cold[:2] and repr(warm[:2]) == repr(cold[:2])
    assert _problem_rows(warm[2]) == _problem_rows(cold[2])


def test_a_kept_fibre_is_refused_where_a_fresh_one_is(c3):
    # rho_hat's first charge is the fibre's base space, 3^1 tuples
    rand = Randomization.constant(c3, FinProbSpace.uniform(3))
    g = rand.element([0, 1, 2])
    p, q = (rtype_of(rand, [rand.element(vals)], [g]) for vals in ([1, 2, 0], [2, 2, 1]))
    ctx = ctx_of(c3, "E(x, y) | E(w, x)", ("w",))
    errors = []
    for warm in (False, True):
        _fibre.cache_clear()
        if warm:
            rho_hat(ctx, p, q)
        with budget(2), pytest.raises(BudgetError) as err:
            rho_hat(ctx, p, q)
        errors.append(str(err.value))
    assert errors[0] == errors[1] and "required count 3" in errors[0]


# --- Oracle: independence over every orbit union, as decided before single orbits ----

MAX_INVARIANT_FORMULAS = 4096  # the old cap on the orbit-union fragment


def _invariant_subset_formulas(m, x_vars, y_vars, w_vars):
    """Every orbit-union formula in the given variable groups, the empty
    union first, then by size and index."""
    k = len(x_vars) + len(y_vars) + len(w_vars)
    ambient = type_space(m, k, ())
    orbits = list(ambient.types)
    if 2 ** len(orbits) > MAX_INVARIANT_FORMULAS:
        raise BudgetError("invariant-subset fragment too large", 2 ** len(orbits))
    arg_terms = tuple(Var(v) for v in tuple(x_vars) + tuple(y_vars) + tuple(w_vars))
    never = Not(Eq(arg_terms[0], arg_terms[0]))
    out = []
    indices = list(range(len(orbits)))
    for size in range(len(orbits) + 1):
        for combo in itertools.combinations(indices, size):
            if combo:
                phi = disj([TypeIs(ambient, orbits[i], arg_terms) for i in combo])
            else:
                phi = never
            out.append((phi, frozenset(combo)))
    return out


def _names(letter, count):
    return (letter,) if count == 1 else tuple(f"{letter}{i}" for i in range(count))


def _old_check_independence(rand, c, b, params):
    """Measured mass against rho_hat for every orbit-union formula."""
    m = rand.structure
    c, b, params = tuple(c), tuple(b), tuple(params)
    x_vars, y_vars, w_vars = _names("x", len(c)), _names("y", len(b)), _names("w", len(params))
    ambient = type_space(m, len(c) + len(b) + len(params), ())
    p_meas = rtype_of(rand, c, params)
    q_meas = rtype_of(rand, b, params)
    checked = 0
    for phi, orbit_set in _invariant_subset_formulas(m, x_vars, y_vars, w_vars):
        lhs = F(0)
        for w in rand.base.points:
            tup = tuple(f(w) for f in c + b + params)
            if ambient.index_of(tup) in orbit_set:
                lhs += rand.base.weight[w]
        rhs = rho_hat(PhiContext(m, phi, x_vars, y_vars, w_vars), p_meas, q_meas)
        checked += 1
        if lhs != rhs:
            return IndependenceVerdict(False, phi, lhs, rhs, checked)
    return IndependenceVerdict(True, None, None, None, checked)


def _digraph3(edges):
    return FinStructure(Signature(relations={"E": 2}), 3, relations={"E": edges}, name="g3")


INDEPENDENCE_STRUCTURES = [
    pure_set(2), pure_set(3), directed_cycle(3), directed_cycle(4), linear_order(3),
]


@hst.composite
def independence_cases(draw):
    """A constant randomization on 1-6 points of non-uniform weight, with c
    and b of 1-2 elements and 0-1 parameters.  On a product base c reads
    the first factor and b the second, which makes independent cases."""
    pairs = [(a, b) for a in range(3) for b in range(3)]
    st = draw(hst.one_of(
        hst.sampled_from(INDEPENDENCE_STRUCTURES),
        hst.sets(hst.sampled_from(pairs)).map(_digraph3),
    ))
    value = hst.integers(0, st.size - 1)
    nc, nb, na = draw(hst.integers(1, 2)), draw(hst.integers(1, 2)), draw(hst.integers(0, 1))
    if draw(hst.booleans()):
        rows, cols = draw(hst.integers(1, 3)), draw(hst.integers(1, 2))
        row_w = draw(hst.lists(hst.integers(1, 4), min_size=rows, max_size=rows))
        col_w = draw(hst.lists(hst.integers(1, 4), min_size=cols, max_size=cols))
        total = sum(row_w) * sum(col_w)
        base = FinProbSpace([
            ((i, j), F(row_w[i] * col_w[j], total)) for i in range(rows) for j in range(cols)
        ])
        rand = Randomization.constant(st, base)

        def reading(index, length):
            vals = [draw(value) for _ in range(length)]
            return rand.element([vals[pt[index]] for pt in base.points])

        c = [reading(0, rows) for _ in range(nc)]
        b = [reading(1, cols) for _ in range(nb)]
        params = [RandomElement.constant(base, draw(value)) for _ in range(na)]
        return rand, c, b, params
    n = draw(hst.integers(1, 6))
    weights = draw(hst.lists(hst.integers(1, 5), min_size=n, max_size=n))
    base = FinProbSpace([(i, F(wt, sum(weights))) for i, wt in enumerate(weights)])
    rand = Randomization.constant(st, base)
    pool = hst.lists(value, min_size=n, max_size=n).map(rand.element)
    c = [draw(pool) for _ in range(nc)]
    b = [draw(pool) for _ in range(nb)]
    if draw(hst.booleans()):
        b[0] = c[0]  # b shares c's element
    params = [draw(pool) for _ in range(na)]
    return rand, c, b, params


@settings(max_examples=300, deadline=None, derandomize=True)
@given(independence_cases())
def test_independence_matches_the_orbit_union_oracle(case):
    rand, c, b, params = case
    verdict = check_independence(rand, c, b, params)
    try:
        want = _old_check_independence(rand, c, b, params)
    except BudgetError:  # more than 12 orbits: the oracle refuses
        return
    assert verdict == want
    assert repr(verdict.witness) == repr(want.witness)


def _orbit_ctx(space, t, n_groups):
    x_vars, y_vars, w_vars = (_names(letter, k) for letter, k in zip("xyw", n_groups))
    args = tuple(Var(v) for v in x_vars + y_vars + w_vars)
    return x_vars, y_vars, w_vars, TypeIs(space, t, args)


@pytest.mark.parametrize("name,points,groups", [
    ("m2", [[0, 1, 1, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 1]], (2, 1, 1)),
    ("m3", [[0, 1, 2, 2], [1, 1, 0, 2], [0, 0, 0, 1]], (1, 1, 1)),
    ("c3", [[0, 1, 2, 2], [1, 1, 0, 2], [0, 0, 0, 1]], (1, 1, 1)),
    ("l3", [[0, 1, 2, 2], [1, 2, 0, 0]], (1, 1, 0)),
])
def test_rho_hat_adds_up_over_orbit_unions(name, points, groups):
    st = {**ORACLE_STRUCTURES, "m3": pure_set(3)}[name]
    rand = Randomization.constant(st, FinProbSpace([(i, F(i + 1, 10)) for i in range(4)]))
    elems = [rand.element(vals) for vals in points]
    nx, ny, _ = groups
    c, b, params = elems[:nx], elems[nx:nx + ny], elems[nx + ny:]
    p, q = rtype_of(rand, c, params), rtype_of(rand, b, params)
    x_vars, y_vars, w_vars = _names("x", nx), _names("y", ny), _names("w", len(params))
    single = {}
    space = type_space(st, len(elems), ())
    for t in space.types:
        phi = _orbit_ctx(space, t, (nx, ny, len(params)))[3]
        single[t.index] = rho_hat(PhiContext(st, phi, x_vars, y_vars, w_vars), p, q)
    unions = _invariant_subset_formulas(st, x_vars, y_vars, w_vars)
    assert len(unions) == 2 ** len(space) >= 2**5
    for phi, orbit_set in unions:
        value = rho_hat(PhiContext(st, phi, x_vars, y_vars, w_vars), p, q)
        assert value == sum((single[i] for i in orbit_set), F(0)), format_formula(phi)


def test_a_27_orbit_fragment_is_decided():
    l3 = linear_order(3)
    rand = Randomization.constant(l3, FinProbSpace([(0, F(1, 4)), (1, F(3, 4))]))
    a = RandomElement.constant(rand.base, 2)
    f = rand.element([0, 1])
    assert len(type_space(l3, 3, ())) == 27
    with pytest.raises(BudgetError):
        _old_check_independence(rand, [f], [a], [a])
    # a parameter is independent of anything over itself
    verdict = check_independence(rand, [f], [a], [a])
    assert verdict == IndependenceVerdict(True, None, None, None, 2**27)
    # f with itself over a constant: the first orbit (f, f, a) = (0, 0, 2)
    # has mass 1/4 but expected 1/4 * 1/4 + 3/4 * 0
    verdict = check_independence(rand, [f], [f], [a])
    space = type_space(l3, 3, ())
    t = space.type_of((0, 0, 2))
    x_vars, y_vars, w_vars, phi = _orbit_ctx(space, t, (1, 1, 1))
    expected = rho_hat(
        PhiContext(l3, phi, x_vars, y_vars, w_vars),
        rtype_of(rand, [f], [a]),
        rtype_of(rand, [f], [a]),
    )
    assert verdict == IndependenceVerdict(False, phi, F(1, 4), expected, t.index + 2)
    assert expected == F(1, 16)


def test_nonforking_extension_rejects_mismatched_marginals():
    l3 = linear_order(3)
    ctx = PhiContext(l3, parse_formula("Lt(x, y)", l3.signature), ("x",), ("y",), ("w",))
    rand = Randomization.constant(l3, FinProbSpace.uniform(4))
    f = rand.element([0, 1, 2, 0])
    p = rtype_of(rand, [f], [rand.element([0, 0, 1, 1])])  # W marginal 1/2, 1/2
    q = rtype_of(rand, [f], [rand.element([0, 1, 1, 1])])  # W marginal 1/4, 3/4
    for build in (rho_hat, nonforking_extension):
        with pytest.raises(ValidationError, match="image measures differ"):
            build(ctx, p, q)


# --- The kept trace table against instance_holds ------------------------------------

TRACE_NAMES = ("x", "u", "y", "v", "w", "z")
TRACE_TERMS = hst.builds(Var, hst.sampled_from(TRACE_NAMES))
TRACE_FORMULAS = hst.recursive(
    hst.one_of(
        hst.builds(Eq, TRACE_TERMS, TRACE_TERMS),
        hst.builds(lambda a, b: Rel("E", (a, b)), TRACE_TERMS, TRACE_TERMS),
    ),
    lambda sub: hst.one_of(
        hst.builds(Not, sub),
        hst.builds(And, sub, sub),
        hst.builds(Or, sub, sub),
        *(hst.builds(c, hst.sampled_from(TRACE_NAMES), sub) for c in (Exists, Forall)),
    ),
    max_leaves=6,
)


@hst.composite
def trace_contexts(draw):
    """A digraph on 2-4 points, 1-2 x names, 0-2 y names, 0-1 w names with
    values, and a random formula; a name outside the groups is bound by an
    outer `exists`."""
    size = draw(hst.integers(2, 4))
    pairs = [(a, b) for a in range(size) for b in range(size)]
    edges = draw(hst.sets(hst.sampled_from(pairs)))
    m = FinStructure(Signature(relations={"E": 2}), size, relations={"E": edges}, name="g")
    x_vars = ("x", "u")[: draw(hst.integers(1, 2))]
    y_vars = ("y", "v")[: draw(hst.integers(0, 2))]
    w_vars = ("w",)[: draw(hst.integers(0, 1))]
    phi = draw(TRACE_FORMULAS)
    for v in sorted(free_vars(phi) - {*x_vars, *y_vars, *w_vars}):
        phi = Exists(v, phi)
    w_values = tuple(draw(hst.integers(0, size - 1)) for _ in w_vars)
    return PhiContext(m, phi, x_vars, y_vars, w_vars, w_values)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trace_contexts(), hst.data())
def test_a_kept_trace_is_the_set_instance_holds_accepts(ctx, data):
    m = ctx.structure
    ys = list(itertools.product(m.elements, repeat=len(ctx.y_vars)))
    w = tuple(data.draw(hst.integers(0, m.size - 1)) for _ in ctx.w_vars)
    for a in itertools.product(m.elements, repeat=len(ctx.x_vars)):
        want = frozenset(b for b in ys if ctx.instance_holds(a, b, w))
        first = _trace(ctx, a, w)
        hits = _trace.cache_info().hits
        assert _trace(ctx, a, w) is first
        assert _trace.cache_info().hits == hits + 1
        assert first == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(trace_contexts(), hst.data())
def test_every_rho_route_is_the_share_instance_holds_gives(ctx, data):
    """rho and rho_by_multiplicity for every type over ctx's w and every b,
    and rho_fn at every fibre pair of a weighted base, against the
    `instance_holds` oracle."""
    m = ctx.structure
    ys = list(itertools.product(m.elements, repeat=len(ctx.y_vars)))
    space = type_space(m, len(ctx.x_vars), ctx.w_values)
    for p in space.types:
        for b in ys:
            want = _trace_fraction(ctx, space.orbit(p), b, ctx.w_values)
            assert rho(ctx, space, p, b) == want == rho_by_multiplicity(ctx, space, p, b)

    points = data.draw(hst.integers(1, 4))
    weights = data.draw(hst.lists(hst.integers(1, 8), min_size=points, max_size=points))
    rand = Randomization.constant(m, FinProbSpace([(i, F(k, sum(weights))) for i, k in enumerate(weights)]))
    values = hst.lists(hst.integers(0, m.size - 1), min_size=points, max_size=points)

    def elements(count):
        return [rand.element(data.draw(values)) for _ in range(count)]

    params = elements(len(ctx.w_vars) + data.draw(hst.integers(0, 1)))
    p = rtype_of(rand, elements(len(ctx.x_vars)), params)
    q = rtype_of(rand, elements(len(ctx.y_vars)), params)
    nx, ny = len(ctx.x_vars), len(ctx.y_vars)
    fn, joint = rho_fn(ctx, p, q)
    for p0, q0 in joint.points:
        w = p0.rep[nx:]
        realizations = [a for a in itertools.product(m.elements, repeat=nx) if p.space.type_of(a + w) == p0]
        b = next(b for b in ys if q.space.type_of(b + w) == q0)
        assert fn((p0, q0)) == _trace_fraction(ctx, realizations, b, w[: len(ctx.w_vars)])


def _stationarity_by_instance_holds(ctx, p, q):
    """stationarity_problem's rows as built before traces were kept: each
    phi-instance row from `instance_holds`, each value from a rho_hat
    computed with every cache of this module emptied first."""
    m = ctx.structure
    nx = len(ctx.x_vars)
    nw = p.space.arity - nx
    total_y = q.space.arity - nw
    ny = len(ctx.y_vars)
    target = type_space(m, nx + total_y + nw, ())
    block = type_space(m, ny + nw, ())
    rows = []
    for nu, indices in (
        (p, list(range(nx)) + list(range(nx + total_y, target.arity))),
        (q, list(range(nx, target.arity))),
    ):
        restrict = restriction_map(target, indices, nu.space)
        for s in nu.space.types:
            fn = RationalFn.indicator(target.types, [t for t in target.types if restrict(t) == s])
            rows.append((fn, nu.weights[s], "="))
    for i in range(total_y // ny):
        q_i = image_measure(
            _measure_space(q),
            restriction_map(
                q.space, list(range(i * ny, (i + 1) * ny)) + list(range(total_y, q.space.arity)), block
            ),
        )
        for cache in (_trace, _orbit_traces, _fibre):
            cache.cache_clear()
        value = rho_hat(ctx, p, RMeasure(block, q_i.weight))
        holding = [
            t for t in target.types
            if ctx.instance_holds(
                t.rep[:nx], t.rep[nx + i * ny : nx + (i + 1) * ny],
                t.rep[nx + total_y : nx + total_y + len(ctx.w_vars)],
            )
        ]
        rows.append((RationalFn.indicator(target.types, holding), value, "="))
    return rows


@settings(max_examples=40, deadline=None, derandomize=True)
@given(hst.data())
def test_stationarity_rows_are_the_ones_instance_holds_gives(data):
    name = data.draw(hst.sampled_from(sorted(ORACLE_STRUCTURES)))
    nw = data.draw(hst.sampled_from([1, 2]))
    copies = data.draw(hst.sampled_from([1, 2]))
    points = data.draw(hst.integers(1, 4))
    st = ORACLE_STRUCTURES[name]
    values = hst.lists(hst.integers(0, st.size - 1), min_size=points, max_size=points)
    weights = data.draw(hst.lists(hst.integers(1, 8), min_size=points, max_size=points))
    base = FinProbSpace([(i, F(k, sum(weights))) for i, k in enumerate(weights)])
    rand = Randomization.constant(st, base)
    params = [rand.element(data.draw(values)) for _ in range(nw)]
    p = rtype_of(rand, [rand.element(data.draw(values))], params)
    q = rtype_of(rand, [rand.element(data.draw(values)) for _ in range(copies)], params)
    ctx = PhiContext(st, parse_formula(ORACLE_PHI[(name[0], nw)], st.signature), ("x",), ("y",), W_VARS[nw])
    prob = stationarity_problem(ctx, p, q)
    got = [(c.fn, c.bound, c.relation) for c in prob.constraints]
    want = _stationarity_by_instance_holds(ctx, p, q)
    assert len(got) == len(want)
    for (fn, bound, relation), (fn0, bound0, relation0) in zip(got, want):
        assert fn == fn0 and bound == bound0 and relation == relation0


def _nonforking_by_fraction_sums(ctx, p, q):
    """nonforking_extension with each cell's share a Fraction, added up as
    Fractions."""
    nx = len(ctx.x_vars)
    target = type_space(ctx.structure, nx + q.space.arity, ())
    joint, cells = _fibre(p, q, nx)
    acc = {}
    for pt, (realizations, b, w) in cells.items():
        share = joint.weight[pt] / len(realizations)
        for a in realizations:
            r0 = target.type_of(a + b + w)
            acc[r0] = acc.get(r0, F(0)) + share
    return RMeasure(target, acc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(hst.data())
def test_nonforking_extension_is_the_fraction_sum_on_weighted_bases(data):
    name = data.draw(hst.sampled_from(sorted(ORACLE_STRUCTURES)))
    nw = data.draw(hst.sampled_from([1, 2]))
    st = ORACLE_STRUCTURES[name]
    if data.draw(hst.booleans()):
        base = FinProbSpace([(i, F(2**i, 15)) for i in range(4)])  # 1/15, 2/15, 4/15, 8/15
    else:
        raw = data.draw(hst.lists(hst.integers(1, 30), min_size=1, max_size=5))
        base = FinProbSpace([(i, F(k, sum(raw))) for i, k in enumerate(raw)])
    values = hst.lists(hst.integers(0, st.size - 1), min_size=len(base.points), max_size=len(base.points))
    rand = Randomization.constant(st, base)
    params = [rand.element(data.draw(values)) for _ in range(nw)]
    p = rtype_of(rand, [rand.element(data.draw(values))], params)
    q = rtype_of(rand, [rand.element(data.draw(values))], params)
    ctx = PhiContext(st, parse_formula(ORACLE_PHI[(name[0], nw)], st.signature), ("x",), ("y",), W_VARS[nw])
    got = nonforking_extension(ctx, p, q)
    want = _nonforking_by_fraction_sums(ctx, p, q)
    assert got == want and repr(got) == repr(want) == repr(_old_nonforking_extension(ctx, p, q))
    assert got.weights == want.weights


BENCH = Path(randlab.stability.__file__).resolve().parents[2] / "bench"
# sha256 of the reprs of every rtype_of, rho_hat, nonforking_extension and
# certify_nonforking certificate of one `stability` bench round, one per
# line, recorded before traces were kept and masses summed as ints
BENCH_REPRS = {
    1: "270ac866e387a84cd4051c690af0555b13cec686687a6fae4693d4e180d27e85",
    2: "e0093919f846a714f6ad7a9d6f2377bc273d127fc548247ab4ac72b8dee007c7",
    3: "b3a8a6afdc8152a94c54f99a82d69583284b0300db3e3d78eb7ab5d4d510def5",
    4: "9eb76157e14c97c2621fbb76c817e8bc92c49cc120130c0f03db32a72d53c68b",
}


def test_bench_certificates_keep_their_reprs():
    sys.path.insert(0, str(BENCH))
    try:
        workload = importlib.import_module("wl_stability")
    finally:
        sys.path.remove(str(BENCH))
    names = {"rtypes.rtype_of", "stability.rho_hat", "stability.nonforking_extension"}
    for seed, digest in BENCH_REPRS.items():
        out = []
        for query in workload.StabilityWorkload(seed, BENCH.parent).queries():
            result = query.call()
            assert query.check(result), query.name
            if query.name == "stability.certify_nonforking":
                out.append(repr(result[1]))
            elif query.name in names:
                out.append(repr(result))
        assert hashlib.sha256("\n".join(out).encode()).hexdigest() == digest, seed
