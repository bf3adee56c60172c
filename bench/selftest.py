"""Self-tests for the benchmark: oracles on hand-worked cases, failure
counting, tracing arithmetic, and the result format against BENCHMARK.json.

    python3 bench/selftest.py

Run from the root of a randlab checkout; takes about fifteen seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
from harness import REFERENCE_S, Query, Tally, run_round  # noqa: E402
from tracer import Tracer  # noqa: E402

C3 = {"E": {(0, 1), (1, 2), (2, 0)}}
L3 = {"Lt": {(0, 1), (0, 2), (1, 2)}}


class OracleCases(unittest.TestCase):
    def test_automorphisms(self):
        self.assertEqual(oracles.automorphisms(3, C3), [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
        self.assertEqual(oracles.automorphisms(3, L3), [(0, 1, 2)])
        self.assertEqual(oracles.automorphisms(2, {}), [(0, 1), (1, 0)])
        self.assertEqual(oracles.automorphisms(3, C3, fix=(1,)), [(0, 1, 2)])

    def test_orbits(self):
        self.assertEqual(oracles.orbit_reps(3, C3, 2), [(0, 0), (0, 1), (0, 2)])
        self.assertEqual(oracles.orbit_reps(2, {}, 3), [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)])
        self.assertEqual(oracles.orbit_reps(3, L3, 1), [(0,), (1,), (2,)])
        self.assertEqual(oracles.canonical(oracles.automorphisms(3, C3), (2, 0)), (0, 1))

    def test_trace_fraction(self):
        edge = lambda r, a, b: (a, b) in r["E"]  # noqa: E731
        # one type over no parameters: traces {1}, {2}, {0}; one of three holds 0
        self.assertEqual(oracles.trace_fraction(3, C3, edge, (), (0,), 0), F(1, 3))
        # over parameter 0 every element is its own type: 2 -> 0 is an edge
        self.assertEqual(oracles.trace_fraction(3, C3, edge, (0,), (2,), 0), F(1))
        self.assertEqual(oracles.trace_fraction(3, C3, edge, (0,), (1,), 0), F(0))
        eq = lambda r, a, b: a == b  # noqa: E731
        self.assertEqual(oracles.trace_fraction(4, {}, eq, (), (0,), 3), F(1, 4))

    def test_atomless_defect(self):
        self.assertEqual(oracles.atomless_defect([F(1, 2), F(1, 2)]), F(1, 4))
        self.assertEqual(oracles.atomless_defect([F(1, 4)] * 4), oracles.dyadic_defect(2))
        self.assertEqual(oracles.dyadic_defect(4), F(1, 32))
        # U = {1/2}: its only proper part is empty, so it misses 1/4 by 1/4;
        # every other event comes closer to its half
        self.assertEqual(oracles.atomless_defect([F(1, 2), F(1, 3), F(1, 6)]), F(1, 4))
        self.assertEqual(oracles.atomless_defect([F(1, 6), F(1, 6), F(1, 3), F(1, 3)]), F(1, 6))

    def test_feasible_witness(self):
        rows = [({0: F(1), 1: F(0)}, F(1, 4), "<="), ({0: F(0), 1: F(1)}, F(3, 4), "=")]
        self.assertTrue(oracles.feasible_witness_ok(rows, {0: F(1, 4), 1: F(3, 4)}))
        self.assertFalse(oracles.feasible_witness_ok(rows, {0: F(1, 2), 1: F(1, 2)}))
        self.assertFalse(oracles.feasible_witness_ok(rows, {0: F(-1, 4), 1: F(5, 4)}))

    def test_farkas(self):
        ineq = [({0: F(1), 1: F(0)}, F(1, 4), "<="), ({0: F(0), 1: F(1)}, F(1, 4), "<=")]
        self.assertTrue(oracles.farkas_ineq_ok(ineq, [2, 2], 2))  # 2 >= 2 everywhere, 1 < 2
        self.assertFalse(oracles.farkas_ineq_ok(ineq, [1, 0], 1))  # 0 < 1 at point 1
        self.assertFalse(oracles.farkas_ineq_ok(ineq, [-1, 3], 1))
        # mu0 + mu1 = 1/4 and mu1 + mu2 = 1/2 force mu1 = -1/4:
        # f1 + f2 - 1 = (0, 1, 0) >= 0 while 1/4 + 1/2 - 1 < 0
        eq = [({0: F(1), 1: F(1), 2: F(0)}, F(1, 4), "="), ({0: F(0), 1: F(1), 2: F(1)}, F(1, 2), "=")]
        self.assertTrue(oracles.farkas_eq_ok(eq, [1, 1], -1))
        self.assertFalse(oracles.farkas_eq_ok(eq, [1, 1], 0))

    def test_formulas(self):
        holds = lambda text, **env: oracles.fo_holds(text, 3, {**C3, **L3}, env)  # noqa: E731
        self.assertTrue(holds("exists z (E(x, z) & E(z, y))", x=0, y=2))
        self.assertFalse(holds("exists z (E(x, z) & E(z, y))", x=0, y=1))
        self.assertFalse(holds("!x = y", x=1, y=1))
        self.assertTrue(holds("!E(x0, x1) & !E(x1, x0)", x0=1, x1=1))
        self.assertTrue(holds("forall z (Lt(x, z) | z = x)", x=0))
        self.assertFalse(holds("forall z (Lt(x, z) | z = x)", x=1))
        self.assertTrue(holds("x = y -> E(x, y) | #2 = x", x=2, y=2))
        self.assertEqual(oracles.extension("E(x0, x1)", 3, C3, ["x0", "x1"]), C3["E"])

    def test_measures(self):
        group = oracles.automorphisms(2, {})
        got = oracles.pushforward(group, [F(1, 2), F(1, 4), F(1, 4)], [(0, 0), (1, 1), (1, 0)])
        self.assertEqual(got, {(0, 0): F(3, 4), (0, 1): F(1, 4)})
        self.assertEqual(oracles.marginal(group, {(0, 0, 1): F(1, 3), (0, 1, 1): F(2, 3)}, (0, 2)), {(0, 1): F(1)})
        self.assertEqual(oracles.simplex_count(1, 4), 1)
        self.assertEqual(oracles.simplex_count(2, 2), 3)  # (1,0) (0,1) (1/2,1/2)


class FailureCounting(unittest.TestCase):
    def test_wrong_and_raising_queries_fail(self):
        tally = Tally()
        run_round(
            [
                Query("ok", lambda: 3, lambda v: v == 3),
                Query("wrong", lambda: 1, lambda v: v == 2),
                Query("raises", lambda: 1 // 0, lambda v: True),
            ],
            tally,
        )
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (3, 2, 1))
        self.assertEqual(sorted(tally.by_query), [0, 1])  # a raising query has no time

    def test_deliberately_wrong_expected_value(self):
        from wl_quantifiers import QuantifiersWorkload

        wl = QuantifiersWorkload(5, ROOT)
        rand, text, env, want = wl.cases[0]  # depth 1 over dyadic(2): cheap
        wl.cases = [(rand, text, env, want), (rand, text, env, want + F(1, 8))]
        tally = Tally()
        run_round(wl.queries(), tally)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (2, 1, 1))


class InCallSampling(unittest.TestCase):
    def test_long_call_is_sampled_and_samples_are_not_timed(self):
        import time

        def spin() -> float:
            """One second of busy waiting; returns the wall time it saw."""
            start = time.perf_counter()
            while time.perf_counter() < start + 1.0:
                pass
            return time.perf_counter() - start

        tally = Tally()
        run_round([Query("long", spin, lambda v: v >= 1.0)], tally)
        (elapsed,) = tally.raw_by_query[0]
        # samples every IN_CALL_EVERY after IN_CALL_FIRST: three or more
        # in one second, besides the three outside the call
        self.assertGreaterEqual(len(tally.references), 3 + 3)
        # their time is taken out of the call's
        self.assertLess(elapsed, 1.0 - 0.01)
        self.assertGreater(elapsed, 0.3)

    def test_no_samples_inside_when_disabled(self):
        tally = Tally()
        run_round([Query("long", lambda: __import__("time").sleep(0.7), lambda v: True)], tally, sample_inside=False)
        self.assertEqual(len(tally.references), 3)  # before the round, after the call, after the round

    def test_child_query_is_scaled_by_interpreter_starts(self):
        import time

        tally = Tally()
        child = Query("child", lambda: time.sleep(0.3), lambda v: True, in_child=True)
        run_round([child, child], tally)
        # no loop samples inside or between them: before and after the round
        self.assertEqual(len(tally.references), 2)
        self.assertEqual(len(tally.by_query[0]), 1)

    def test_short_calls_are_scaled_by_the_samples_around_them(self):
        import time

        tally = Tally()
        run_round([Query("short", lambda: time.sleep(0.03), lambda v: True), Query("tiny", lambda: None, lambda v: True)], tally)
        # before the round, right after each call, after the round
        self.assertEqual(len(tally.references), 4)
        for position in (0, 1):
            (got,) = tally.by_query[position]
            (raw,) = tally.raw_by_query[position]
            before, after = tally.references[position], tally.references[position + 1]
            self.assertAlmostEqual(got, raw * REFERENCE_S / ((before + after) / 2))


class Tracing(unittest.TestCase):
    def test_self_time_and_counts(self):
        import time

        tr = Tracer()
        inner = tr.wrap("m.inner", lambda: time.sleep(0.02))

        def outer():
            time.sleep(0.01)
            inner()
            inner()

        tr.call("m.outer", outer)
        self.assertEqual(tr.calls, {"m.outer": 1, "m.inner": 2})
        self.assertGreaterEqual(tr.self_s["m.inner"], 0.04)
        self.assertLess(tr.self_s["m.outer"], 0.03)  # the children's 0.04 s is not its own
        parents = {name: parent for _, name, _, _, parent in tr.log}
        self.assertEqual(parents[tr.names.index("m.outer")], -1)

    def test_install_restores_originals(self):
        import randlab.randomization as rz
        import randlab.stability as st
        from randlab.measure import FinProbSpace

        before = (rz.event_of, st.rho, FinProbSpace.__eq__)
        tr = Tracer()
        tr.install()
        self.assertIsNot(st.rho, before[1])
        tr.uninstall()
        self.assertEqual((rz.event_of, st.rho, FinProbSpace.__eq__), before)


class ResultFormat(unittest.TestCase):
    """One run of the cheapest workload in each mode names every metric."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_bench(self, *args, cwd=ROOT):
        return subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "0", *args],
            cwd=cwd, capture_output=True, text=True, timeout=170,
        )

    def check(self, trace: str, key: str):
        proc = self.run_bench("--trace", trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in self.spec[key]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)

    def test_end_to_end_names(self):
        self.check("0", "end_to_end")

    def test_per_layer_names(self):
        self.check("1", "per_layer")

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = self.run_bench("--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
