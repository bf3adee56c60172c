"""Workload `axioms`: check_axioms over constant and distinct-fibre families.

Pure set M2, directed cycle C3 and linear order L3, each constant over the
dyadic bases of depth 1 to 3 and over the base (1/2, 1/3, 1/6), one family
over dyadic(3) whose eight fibres are pairwise-distinct digraphs on three
points, and C3 constant over dyadic(4).  A round checks each of the small
cases REPEATS times, from cold caches every time, and the dyadic(4) case
once, in the middle of the round.  Its exhaustive event group (2^16 events)
carries most of the time, through event_of and eval_formula; the repeats
give the median query latency many samples of every small case.

The seed picks the order of the (1/2, 1/3, 1/6) weights and the digraphs
of the distinct-fibre family.  check_axioms keeps its default sampling
seed, as the CLI does.

Checks: every exact group passes (the randomization axioms hold with exact
witnesses on any finite randomization whose element sort is the full
product), the reported atomless defect equals the oracle's (closed form on
dyadic bases, exhaustive subset sums otherwise), and the atomless verdict
is "defect <= half the smallest atom".
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracles
from harness import Query

REPEATS = 3
EXACT_GROUPS = ("validity", "boolean", "distance", "fullness", "event", "measure", "transfer")


def random_digraphs(rng: random.Random, count: int, n: int) -> list[set[tuple[int, int]]]:
    """`count` pairwise-distinct edge sets on n points."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    seen: list[set] = []
    while len(seen) < count:
        edges = {p for p in pairs if rng.random() < 0.5}
        if edges not in seen:
            seen.append(edges)
    return seen


class AxiomsWorkload:
    def __init__(self, seed: int, root):
        from randlab import FinProbSpace, FinStructure, Randomization, Signature
        from randlab import directed_cycle, linear_order, pure_set

        rng = random.Random(seed)
        third = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
        rng.shuffle(third)
        bases = [(FinProbSpace.dyadic(d), oracles.dyadic_defect(d)) for d in range(1, 4)]
        bases.append((FinProbSpace(list(enumerate(third))), oracles.atomless_defect(third)))
        self.cases = [
            (Randomization.constant(st, base), defect)
            for st in (pure_set(2), directed_cycle(3), linear_order(3))
            for base, defect in bases
        ]
        sig = Signature(relations={"E": 2})
        fibres = [
            FinStructure(sig, 3, relations={"E": edges}, name=f"g{i}")
            for i, edges in enumerate(random_digraphs(rng, 8, 3))
        ]
        base = FinProbSpace.dyadic(3)
        family = Randomization(base, dict(zip(base.points, fibres)))
        self.cases.append((family, oracles.dyadic_defect(3)))
        self.big = (Randomization.constant(directed_cycle(3), FinProbSpace.dyadic(4)), oracles.dyadic_defect(4))

    def queries(self) -> list[Query]:
        small = self.checked(self.cases)
        return small * (REPEATS - 1) + self.checked([self.big]) + small

    def checked(self, cases) -> list[Query]:
        import randlab.axioms as ax

        out = []
        for rand, defect in cases:
            threshold = min(rand.base.weight.values()) / 2

            def check(report, defect=defect, threshold=threshold) -> bool:
                return (
                    all(report.by_group(g).passed for g in EXACT_GROUPS)
                    and report.atomless_defect == defect
                    and report.by_group("atomless").passed == (defect <= threshold)
                )

            out.append(
                Query(
                    "axioms.check_axioms",
                    lambda rand=rand: ax.check_axioms(rand),
                    check,
                    cold=True,
                )
            )
        return out

    trace_queries = queries

    def warmup(self) -> list[Query]:
        """Every case but the 2^16-event one."""
        return self.checked(self.cases)
