"""randlab benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

Run from the root of a randlab checkout.  With `--trace 0` it measures set-up
time in fresh child processes, then repeats whole rounds of the workload's
checked queries while another round still fits into `--seconds` (at least
one), and prints the end-to-end metrics.  With `--trace 1` it runs the
warm-up, one round untraced and one round with spans around every call
between randlab's modules, writes the spans to `.bench_build/trace/`, and
prints the per-layer metrics.  The last line of
standard output is the result object; problems go to standard error.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import Tally, interpreter_start, run_round, scaled

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 3


def workload_class(name: str):
    if name == "axioms":
        from wl_axioms import AxiomsWorkload as cls
    elif name == "stability":
        from wl_stability import StabilityWorkload as cls
    elif name == "quantifiers":
        from wl_quantifiers import QuantifiersWorkload as cls
    else:
        from wl_cli import CliWorkload as cls
    return cls


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """Scaled and raw times from process start to the first query
    (interpreter, imports, inputs, structures) of SETUP_SAMPLES children,
    each scaled by the interpreter starts on either side of it."""
    argv = [sys.executable, str(Path(__file__)), "--setup-only", "--workload", workload, "--seed", str(seed)]
    times = []
    after = interpreter_start()
    for _ in range(SETUP_SAMPLES):
        before = after
        start = perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"child {argv[1:]} failed:\n{proc.stderr.decode(errors='replace')}")
        after = interpreter_start()
        times.append((scaled(elapsed, [before, after]), elapsed))
    return times


def import_time() -> float:
    """Median cold `import randlab.cli`, timed inside fresh interpreters."""
    code = "import time; t = time.perf_counter(); import randlab.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        before = interpreter_start()
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT, capture_output=True, check=True, text=True
        )
        samples.append(scaled(float(out.stdout.strip()), [before, interpreter_start()]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, tally, setups: list[tuple[float, float]]) -> dict:
    rss = wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else peak_rss_mb()
    return {
        "setup_s": metric(statistics.median(s for s, _ in setups), "s"),
        "wall_s": metric(statistics.median(tally.rounds), "s"),
        "query_p50_ms": metric(tally.query_p50() * 1000, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _cache_ratio(attr: str) -> float:
    import randlab.semantics as sem

    info = getattr(sem, attr).cache_info()
    return _ratio(info.hits, info.hits + info.misses)


def per_layer(tr, scale: float, overhead: float, import_s: float) -> dict:
    """Every per-layer metric named in BENCHMARK.json, from one traced round;
    `scale` takes the round's raw span times to the reference speed."""
    calls = lambda n: metric(tr.calls.get(n, 0), "count")  # noqa: E731
    self_s = lambda n: metric(tr.self_s.get(n, 0.0) * scale, "s")  # noqa: E731
    count = lambda n: metric(tr.counts.get(n, 0), "count")  # noqa: E731
    out = {
        "semantics.eval_formula.calls": calls("semantics.eval_formula"),
        "semantics.eval_formula.self_s": self_s("semantics.eval_formula"),
        "randomization.event_of.calls": calls("randomization.event_of"),
        "randomization.event_of.self_s": self_s("randomization.event_of"),
        "randomization.event_of.points": count("randomization.event_of.points"),
        "randomization.event_witness.calls": calls("randomization.event_witness"),
        "randomization.fullness_witness.self_s": self_s("randomization.fullness_witness"),
        "randomization.all_elements.self_s": self_s("randomization.all_elements"),
        "cformulas.enumerated_elements": count("cformulas.enumerated_elements"),
        "randomization.d_k.self_s": self_s("randomization.d_k"),
        "randomization.mu.self_s": self_s("randomization.mu"),
        "measure.FinProbSpace.eq_calls": calls("measure.FinProbSpace.eq"),
        "measure.FinProbSpace.eq_self_s": self_s("measure.FinProbSpace.eq"),
        "semantics.isolating_formula.calls": calls("semantics.isolating_formula"),
        "semantics.isolating_formula.self_s": self_s("semantics.isolating_formula"),
        "semantics.isolating_formula.distinct_ratio": metric(
            _ratio(len(tr.iso_pairs), tr.calls.get("semantics.isolating_formula", 0)), "ratio"
        ),
        "stability.rho.calls": calls("stability.rho"),
        "stability.rho.self_s": self_s("stability.rho"),
        "stability.cb_rank_mult.self_s": self_s("stability.cb_rank_mult"),
        "semantics.type_space.self_s": self_s("semantics.type_space"),
        "semantics.type_space.cache_hit_ratio": metric(_cache_ratio("_type_space_cached"), "ratio"),
        "semantics.automorphisms.self_s": self_s("semantics.automorphisms"),
        "semantics.automorphisms.cache_hit_ratio": metric(_cache_ratio("_automorphisms_cached"), "ratio"),
        "stability.rho_hat.self_s": self_s("stability.rho_hat"),
        "stability.nonforking_extension.self_s": self_s("stability.nonforking_extension"),
        "stability.certify_nonforking.self_s": self_s("stability.certify_nonforking"),
        "stability.check_independence.self_s": self_s("stability.check_independence"),
        "rtypes.rtype_of.self_s": self_s("rtypes.rtype_of"),
        "measure.fiber_product.self_s": self_s("measure.fiber_product"),
        "extension.extend_measure_eq.calls": calls("extension.extend_measure_eq"),
        "extension.extend_measure_eq.self_s": self_s("extension.extend_measure_eq"),
        "extension.problem_cells": count("extension.problem_cells"),
        "axioms.check_axioms.self_s": self_s("axioms.check_axioms"),
        "axioms.atomless_defect.self_s": self_s("axioms.atomless_defect"),
        "cformulas.eval_cformula.calls": calls("cformulas.eval_cformula"),
        "cformulas.eval_cformula.self_s": self_s("cformulas.eval_cformula"),
        "cformulas.parse_cformula.self_s": self_s("cformulas.parse_cformula"),
        "formulas.parse_formula.self_s": self_s("formulas.parse_formula"),
        "workspace.load_workspace.self_s": self_s("workspace.load_workspace"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.import_s": metric(import_s, "s"),
        "trace.overhead_ratio": metric(overhead, "ratio"),
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["axioms", "stability", "quantifiers", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "randlab" / "__init__.py").is_file():
        print(f"error: no randlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cls = workload_class(args.workload)
    # one core for this process and every child: the reference loop then
    # samples the same core the timed work runs on (see harness.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.setup_only:
        cls(args.seed, ROOT)
        return 0

    # bytecode first, as an installed package has it, so no timing pays for it
    for tree in (ROOT / "src" / "randlab", BENCH):
        if not compileall.compile_dir(str(tree), quiet=1):
            print(f"error: cannot compile {tree}", file=sys.stderr)
            return 2

    if args.trace:
        from tracer import Tracer

        wl = cls(args.seed, ROOT)
        import_s = import_time() if args.workload == "cli" else 0.0
        run_round(wl.warmup(), Tally(), sample_inside=False)
        tally = Tally()
        plain, _ = run_round(wl.trace_queries(), tally, sample_inside=False)
        tr = Tracer()
        tr.install()
        try:
            traced, traced_raw = run_round(wl.trace_queries(), tally, sample_inside=False)
        finally:
            tr.uninstall()
        out_dir = ROOT / ".bench_build" / "trace"
        out_dir.mkdir(parents=True, exist_ok=True)
        tr.dump(out_dir / f"{args.workload}-seed{args.seed}.json")
        metrics = per_layer(tr, traced / traced_raw, traced / plain, import_s)
    else:
        setups = setup_times(args.workload, args.seed)
        wl = cls(args.seed, ROOT)
        # untimed and uncounted: interpreter specialisation, allocator
        # arenas and the oracle tables settle before the first timed round
        run_round(wl.warmup(), Tally())
        tally = Tally()
        start = perf_counter()
        while True:
            began = perf_counter()
            run_round(wl.queries(), tally)
            now = perf_counter()
            # whole rounds only, and none that would end past --seconds
            if now - start + (now - began) > args.seconds:
                break
        metrics = end_to_end(wl, tally, setups)
        print(
            "unscaled: setup_s %.4f wall_s %.4f query_p50_ms %.4f; reference loop median %.5f s"
            % (
                statistics.median(r for _, r in setups),
                statistics.median(tally.raw_rounds),
                tally.query_p50(raw=True) * 1000,
                statistics.median(tally.references),
            ),
            file=sys.stderr,
        )

    for line in tally.problems:
        print(line, file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
