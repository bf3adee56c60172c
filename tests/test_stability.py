import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from randlab import (
    FeasibleCertificate,
    FinProbSpace,
    PhiContext,
    RandomElement,
    Randomization,
    ValidationError,
    cb_rank_mult,
    certify_nonforking,
    check_independence,
    ladder_length,
    nonforking_extension,
    parse_formula,
    phi_type_space,
    rho,
    rho_by_multiplicity,
    rho_hat,
    rtype_of,
    type_space,
)
import randlab.stability
from randlab.cli import main
from randlab.formulas import Eq, Not, Var, format_formula, substitute
from randlab.semantics import _extension, automorphisms, isolating_formula
from randlab.stability import NEG_INF, _isolated_solutions, restriction_map

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


def test_cb_rank_mult_examples(m2):
    ctx = ctx_of(m2, "x = y")
    assert cb_rank_mult(ctx, parse_formula("x = x", m2.signature)) == (0, 2)
    assert cb_rank_mult(ctx, parse_formula("!(x = x)", m2.signature)) == (NEG_INF, 0)
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
            assert (rank == 0 and mult >= 1) or (rank == NEG_INF and mult == 0)


def test_rho_examples(m2):
    ctx = ctx_of(m2, "x = y")
    space = type_space(m2, 1, ())
    assert rho(ctx, space, space.types[0], 0) == F(1, 2)
    # instances implied (or contradicted) by the type get value 1 (or 0)
    ctx_top = PhiContext(m2, Eq(Var("x"), Var("x")), ("x",), ("y",))
    assert rho(ctx_top, space, space.types[0], 0) == 1
    ctx_bot = PhiContext(m2, Not(Eq(Var("x"), Var("x"))), ("x",), ("y",))
    assert rho(ctx_bot, space, space.types[0], 0) == 0


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
