"""Workload `stability`: classical rho over type spaces, then randomized types.

Classical part: for pure sets, directed cycles and linear orders, the type
space S_1 over no parameters and over one parameter, and rho for every
(type, element) pair and every formula of the structure's corpus.  Route 2
of rho (isolating formulas by tree-walk) dominates, and grows steeply with
the structure: C6 and L5 cost seconds.  For the structures with
automorphisms the battery is repeated over a conjugate parameter, and the
two sets of values must agree along the automorphism.

Randomized part: on constant randomizations over small uniform bases,
rtype_of, rho_hat at a deterministic parameter, nonforking_extension and
certify_nonforking (phase-one simplex), and check_independence on pairs
known to be dependent or independent.

The seed picks the parameter element and the automorphism for the
conjugate battery, the random elements and parameters of the randomized
part, and the independent pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles
from harness import Query


def _eq(rels, a, b):
    return a == b


def _edge(rels, a, b):
    return (a, b) in rels["E"]


def _two_step(rels, a, b):
    return any((z, b) in rels["E"] for (a2, z) in rels["E"] if a2 == a)


def _less(rels, a, b):
    return (a, b) in rels["Lt"]


CORPUS = {
    "pure": [("x = y", _eq)],
    "cycle": [("E(x, y)", _edge), ("exists z (E(x, z) & E(z, y))", _two_step)],
    "order": [("Lt(x, y)", _less)],
}


def tables(st) -> dict[str, set]:
    return {name: set(table) for name, table in st.rel_tables.items()}


class StabilityWorkload:
    def __init__(self, seed: int, root):
        from randlab import (
            FinProbSpace,
            PhiContext,
            RandomElement,
            Randomization,
            directed_cycle,
            linear_order,
            parse_formula,
            pure_set,
        )

        rng = random.Random(seed)
        self.state: dict = {}
        self._queries = None
        classical = [(pure_set(n), "pure") for n in (2, 4)]
        classical += [(directed_cycle(n), "cycle") for n in (3, 4, 5, 6)]
        classical += [(linear_order(n), "order") for n in (3, 4, 5)]
        # (structure, relations, [(ctx, predicate)], [(params, conjugate map or None)])
        self.classical = []
        for st, kind in classical:
            rels = tables(st)
            n = st.size
            ctxs = [
                (PhiContext(st, parse_formula(text, st.signature), ("x",), ("y",)), pred)
                for text, pred in CORPUS[kind]
            ]
            group = oracles.automorphisms(n, rels)
            if len(group) > 1:
                a = rng.randrange(n)
                sigma = rng.choice(group[1:])
                configs = [((), None), ((a,), None), ((sigma[a],), ((a,), sigma))]
            else:
                configs = [((), None), ((0,), None)]
            self.classical.append((st, rels, ctxs, configs))

        # randomized types: (structure, formula, predicate, base size)
        self.randomized = []
        for st, text, pred, size in (
            (pure_set(2), "x = y", _eq, 2),
            (pure_set(2), "x = y", _eq, 3),
            (linear_order(3), "Lt(x, y)", _less, 3),
            (directed_cycle(3), "E(x, y)", _edge, 3),
            (directed_cycle(4), "E(x, y)", _edge, 4),
        ):
            rand = Randomization.constant(st, FinProbSpace.uniform(size))
            c = rand.element([rng.randrange(st.size) for _ in range(size)])
            b0 = rng.randrange(st.size)
            b = RandomElement.constant(rand.base, b0)
            ctx = PhiContext(st, parse_formula(text, st.signature), ("x",), ("y",), ("w",))
            self.randomized.append((rand, tables(st), ctx, pred, c, b, b0))

        # independence: (randomization, c, b, params, independent?)
        self.independence = []
        coin = Randomization.constant(pure_set(2), FinProbSpace.dyadic(1))
        f = coin.element(rng.sample([0, 1], 2))
        a = RandomElement.constant(coin.base, rng.randrange(2))
        self.independence.append((coin, [f], [f], [], False))
        self.independence.append((coin, [f], [a], [a], True))
        for st in (pure_set(2), directed_cycle(3)):
            n = st.size
            # points (i, j) of a k x n grid: c reads i, b reads j uniformly
            k = 2
            rand = Randomization.constant(st, FinProbSpace.uniform(k * n))
            cvals = [rng.randrange(n) for _ in range(k)]
            perm = rng.sample(range(n), n)
            c = rand.element([cvals[w // n] for w in range(k * n)])
            b = rand.element([perm[w % n] for w in range(k * n)])
            self.independence.append((rand, [c], [b], [], True))
            self.independence.append((rand, [c], [c], [], False))

    # -- classical rho ---------------------------------------------------------------

    def _classical_queries(self, sem, stab) -> list[Query]:
        out = []
        state = self.state

        def keep(key, value):
            state[key] = value
            return value

        for st, rels, ctxs, configs in self.classical:
            n = st.size
            for params, conj in configs:
                reps = oracles.orbit_reps(n, rels, 1, params)
                out.append(
                    Query(
                        "semantics.type_space",
                        lambda st=st, params=params: keep((st.name, params), sem.type_space(st, 1, params)),
                        lambda space, reps=reps: [q.rep for q in space.types] == reps,
                    )
                )
                # (index into reps, element, key of this value, key it must equal)
                if conj is None:
                    cases = [(i, b, (st.name, params, i, b), None) for i in range(len(reps)) for b in range(n)]
                else:
                    # the battery over `src` moved by sigma: type of sigma(rep), element sigma(b)
                    src, sigma = conj
                    group = oracles.automorphisms(n, rels, params)
                    src_reps = oracles.orbit_reps(n, rels, 1, src)
                    cases = [
                        (reps.index(oracles.canonical(group, (sigma[r[0]],))), sigma[b], None, (st.name, src, i, b))
                        for i, r in enumerate(src_reps)
                        for b in range(n)
                    ]
                for k, (ctx, pred) in enumerate(ctxs):
                    for index, elem, key, same_as in cases:
                        want = oracles.trace_fraction(n, rels, pred, params, reps[index], elem)
                        key = None if key is None else key + (k,)
                        same_as = None if same_as is None else same_as + (k,)

                        def call(st=st, ctx=ctx, params=params, index=index, elem=elem):
                            space = state[(st.name, params)]
                            return stab.rho(ctx, space, space.types[index], elem)

                        def check(v, want=want, key=key, same_as=same_as):
                            if key is not None:
                                state[key] = v
                            return v == want and (same_as is None or state.get(same_as) == v)

                        out.append(Query("stability.rho", call, check))
        return out

    # -- randomized types --------------------------------------------------------------

    def _randomized_queries(self, rt, stab) -> list[Query]:
        out = []
        state = self.state

        def keep(key, value):
            state[key] = value
            return value

        def measure_of(nu) -> dict:
            return {q.rep: wt for q, wt in nu.weights.items() if wt}

        for case, (rand, rels, ctx, pred, c, b, b0) in enumerate(self.randomized):
            group = oracles.automorphisms(rand.structure.size, rels)
            pts = rand.base.points
            weights = [rand.base.weight[w] for w in pts]
            want_p = oracles.pushforward(group, weights, [(c(w), b0) for w in pts])
            want_q = oracles.pushforward(group, weights, [(b0, b0) for _ in pts])
            # rho_hat at a deterministic parameter is the measured mass of phi(c, b0)
            direct = sum((wt for w, wt in zip(pts, weights) if pred(rels, c(w), b0)), Fraction(0))
            p, q, value, ext = ((case, name) for name in ("p", "q", "rho_hat", "ext"))

            def ext_ok(nu, want_p=want_p, want_q=want_q, direct=direct, group=group, rels=rels, pred=pred, value=value):
                joint = measure_of(nu)
                mass = sum((wt for rep, wt in joint.items() if pred(rels, rep[0], rep[1])), Fraction(0))
                return (
                    oracles.marginal(group, joint, (0, 2)) == want_p
                    and oracles.marginal(group, joint, (1, 2)) == want_q
                    and mass == direct == state.get(value)
                )

            def cert_ok(res, ext=ext):
                prob, cert = res
                rows = [(dict(k.fn.values), k.bound, k.relation) for k in prob.constraints]
                return (
                    hasattr(cert, "weights")
                    and oracles.feasible_witness_ok(rows, dict(cert.weights))
                    and ext in state
                    and oracles.feasible_witness_ok(rows, dict(state[ext].weights))
                )

            out += [
                Query(
                    "rtypes.rtype_of",
                    lambda rand=rand, c=c, b=b, p=p: keep(p, rt.rtype_of(rand, [c], [b])),
                    lambda nu, want=want_p: measure_of(nu) == want,
                ),
                Query(
                    "rtypes.rtype_of",
                    lambda rand=rand, b=b, q=q: keep(q, rt.rtype_of(rand, [b], [b])),
                    lambda nu, want=want_q: measure_of(nu) == want,
                ),
                Query(
                    "stability.rho_hat",
                    lambda ctx=ctx, p=p, q=q, value=value: keep(value, stab.rho_hat(ctx, state[p], state[q])),
                    lambda v, direct=direct: v == direct,
                ),
                Query(
                    "stability.nonforking_extension",
                    lambda ctx=ctx, p=p, q=q, ext=ext: keep(ext, stab.nonforking_extension(ctx, state[p], state[q])),
                    ext_ok,
                ),
                Query(
                    "stability.certify_nonforking",
                    lambda ctx=ctx, p=p, q=q: stab.certify_nonforking(ctx, state[p], state[q]),
                    cert_ok,
                ),
            ]
        return out

    def _independence_queries(self, stab) -> list[Query]:
        out = []
        for rand, c, b, params, independent in self.independence:
            n = rand.structure.size
            width = len(c) + len(b) + len(params)
            fragment = 2 ** len(oracles.orbit_reps(n, tables(rand.structure), width))

            def check(v, independent=independent, fragment=fragment):
                if independent:
                    return v.independent and v.checked == fragment
                return not v.independent and v.lhs != v.rhs

            out.append(
                Query(
                    "stability.check_independence",
                    lambda rand=rand, c=c, b=b, params=params: stab.check_independence(rand, c, b, params),
                    check,
                )
            )
        return out

    def queries(self) -> list[Query]:
        """The same queries every round; results one query hands the next
        live in `state`, which starts empty each round."""
        import randlab.rtypes as rt
        import randlab.semantics as sem
        import randlab.stability as stab

        if self._queries is None:
            self._queries = (
                self._classical_queries(sem, stab)
                + self._randomized_queries(rt, stab)
                + self._independence_queries(stab)
            )
        self.state.clear()
        return self._queries

    trace_queries = warmup = queries
