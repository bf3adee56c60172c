"""Workload `quantifiers`: sup/inf continuous formulas with closed-form values.

Constant C3 over dyadic(2) (81 random elements) and dyadic(3) (6561), with
sup/inf at depth 1 on both bases and nested to depth 2 on dyadic(2), plus a
family over dyadic(2) whose four fibres are pairwise-distinct digraphs on
three points.  Atoms are mu[[.]], mu[ event term ], dK and dB, with a bound
random element `y` or `g` and a bound event `e`.  Many random elements over
small bases: element construction, FinProbSpace equality and the quantifier
enumeration carry the weight.  One query parses the text and evaluates it.

The seed picks the element literals, the bound element and event on each
base, and the digraphs of the family.

Every expected value is derived by hand (see README.md).  They all follow
from one fact: the random-element sort is the full product of the fibres,
so a sup or inf over it is taken point by point.
"""

from __future__ import annotations

import random
from fractions import Fraction

from harness import Query
from wl_axioms import random_digraphs


class QuantifiersWorkload:
    def __init__(self, seed: int, root):
        from randlab import FinProbSpace, FinStructure, Randomization, Signature, directed_cycle

        rng = random.Random(seed)
        c3 = directed_cycle(3)
        self.cases = []  # (randomization, text, env, expected)
        for depth in (2, 3):
            rand = Randomization.constant(c3, FinProbSpace.dyadic(depth))
            n = len(rand.base.points)
            g = rand.element([rng.randrange(3) for _ in range(n)])
            e = frozenset(rng.sample(rand.base.points, rng.randrange(1, n)))
            mu_e = Fraction(len(e), n)
            i, j = rng.sample(range(3), 2)
            half = Fraction(n // 2, n)
            ye = {"y": g, "e": e}
            self.cases += [
                (rand, f"sup x (min(mu[[x = #{i}]], mu[[x = #{j}]]))", {}, half),
                (rand, "sup x (mu[[E(x, y)]])", ye, Fraction(1)),
                (rand, "inf x (mu[ e | [[E(x, y)]] ])", ye, mu_e),
                (rand, "sup x (dB(e, [[E(x, y)]]))", ye, Fraction(1)),
                (rand, "sup x (mu[[x = y]] -. mu[ e ])", ye, 1 - mu_e),
                (rand, "sup x (half(dK(x, y)))", ye, Fraction(1, 2)),
            ]
            if depth == 2:
                self.cases += [
                    (rand, "inf x (sup y (dK(x, y)))", {}, Fraction(1)),
                    (rand, "sup x (inf y (mu[[E(x, y)]]))", {}, Fraction(0)),
                    (rand, "inf x (sup y (min(mu[[E(x, y)]], mu[[E(y, x)]])))", {}, half),
                    (rand, "inf x (sup y (mu[ e & [[E(x, y)]] ]))", {"e": e}, mu_e),
                ]

        sig = Signature(relations={"E": 2})
        graphs = random_digraphs(rng, 4, 3)
        base = FinProbSpace.dyadic(2)
        fibres = [FinStructure(sig, 3, relations={"E": edges}, name=f"g{k}") for k, edges in enumerate(graphs)]
        family = Randomization(base, dict(zip(base.points, fibres)))

        def mass(pointwise) -> Fraction:
            return Fraction(sum(1 for edges in graphs if pointwise(edges)), len(graphs))

        pts = range(3)
        self.cases += [
            (family, "sup x (mu[[exists y (E(x, y))]])", {}, mass(lambda E: bool(E))),
            (family, "sup x (inf y (mu[[E(x, y)]]))", {}, mass(lambda E: any(all((a, b) in E for b in pts) for a in pts))),
            (family, "inf x (sup y (mu[[E(x, y)]]))", {}, mass(lambda E: all(any((a, b) in E for b in pts) for a in pts))),
            (family, "inf x (mu[[E(x, x)]])", {}, mass(lambda E: all((a, a) in E for a in pts))),
        ]

    def queries(self) -> list[Query]:
        import randlab.cformulas as cf

        return [
            Query(
                "cformulas.eval_cformula",
                lambda rand=rand, text=text, env=env: cf.eval_cformula(
                    rand, cf.parse_cformula(text, rand.signature), env
                ),
                lambda v, want=want: v == want,
            )
            for rand, text, env, want in self.cases
        ]

    trace_queries = warmup = queries
