"""Rounds of checked queries, and the tallies the result is built from.

Times are reported at a fixed reference speed.  The host this benchmark
was built on changes speed by up to 2x from one quarter second to the next
(a fixed pure-Python loop), so raw times of one run depend on the states
it met as much as on the code.  A short reference loop, part of the
benchmark and never of randlab, is timed before and after a round, right
after every call (one pass after a call under BRACKET seconds,
AFTER_LONG_PASSES after a longer one), and inside any call longer than
IN_CALL_FIRST, every IN_CALL_EVERY seconds, from an interval timer whose
own time is taken out of the call's.  Each call's time is scaled by
REFERENCE_S over the mean of the samples taken inside it, or, for a call
too short to have any, of the samples right before and right after it.
A call whose work runs in a child process is scaled by bare interpreter
starts on either side of it instead.  The unscaled figures are kept beside
them.  See README.md, "Times at a reference speed".
"""

from __future__ import annotations

import gc
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

REFERENCE_S = 0.00125  # one pass of the reference loop at the speed results are scaled to
SAMPLE_PASSES = 40  # a sample before and after a round, and inside a long call
AFTER_LONG_PASSES = 8  # the sample right after a call of BRACKET seconds or more
BRACKET = 0.01
IN_CALL_FIRST = 0.2
IN_CALL_EVERY = 0.25
START_REFERENCE_S = 0.08  # a bare interpreter start at the reference speed


@dataclass
class Query:
    """One public call into randlab (or one cold command) and its check.

    `name` is the layer function the call enters, e.g. "axioms.check_axioms".
    `check` receives the call's result and says whether it is right; it runs
    outside the timer.  A `cold` query has randlab's caches emptied right
    before it, outside the timer, so a repeated call costs what the first did.
    A query whose work runs in a child process sets `in_child`: it is
    scaled by the bare interpreter starts on either side of it, and takes no
    samples inside, which would share the core with the child and read the
    contention rather than the host's speed.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    cold: bool = False
    in_child: bool = False


def _reference_pass() -> float:
    start = perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(300):
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + 1
        if len(frozenset((i % 5, i % 3, key[0]))) > 2 and isinstance(key, tuple):
            acc += Fraction(1, i % 9 + 1)
    return perf_counter() - start


def reference_loop(passes: int) -> float:
    """The current speed: the mean of `passes` passes of fixed interpreter
    work (small tuples, dict updates, frozensets and Fractions, the
    operations randlab spends its time on; a pass takes about a
    millisecond), with the cyclic collector off so that a collection owed to
    the workload's heap does not land in it.  The mean follows randlab's
    own times about twice as closely as the fastest pass does: the fastest
    pass catches the host's brief fast moments, which randlab's longer calls
    do not enjoy throughout."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.fmean(_reference_pass() for _ in range(passes))
    finally:
        if enabled:
            gc.enable()


def interpreter_start() -> float:
    """The current speed for work done in child processes: the time to
    start and end a bare interpreter (`python -c pass`, which imports
    nothing of randlab), in the reference loop's units.  A child's exec,
    page faults and imports follow the host's changes of speed less closely
    than the loop does, and a bare start closely."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return (perf_counter() - start) * REFERENCE_S / START_REFERENCE_S


def scaled(elapsed: float, refs: list[float]) -> float:
    """`elapsed` at the reference speed, given the samples around it."""
    return elapsed * REFERENCE_S / statistics.median(refs)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0  # raised, or disagreed with its check
    wrong: int = 0  # disagreed with its check
    rounds: list[float] = field(default_factory=list)  # scaled
    by_query: dict[int, list[float]] = field(default_factory=dict)  # position in the round: scaled times
    raw_by_query: dict[int, list[float]] = field(default_factory=dict)
    raw_rounds: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def query_p50(self, raw: bool = False) -> float:
        """Median over the battery's queries of each one's median time
        across rounds: a single call is too short to average over the
        host's changes of speed, its median over rounds is less so."""
        by_query = self.raw_by_query if raw else self.by_query
        return statistics.median(statistics.median(times) for times in by_query.values())


def clear_caches() -> None:
    """Empty every functools cache in randlab, so each round starts cold."""
    for name, mod in list(sys.modules.items()):
        if name == "randlab" or name.startswith("randlab."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    value.cache_clear()


class InCallSamples:
    """Reference samples taken inside a call that outlasts IN_CALL_FIRST.

    Samples from outside a call of seconds do not tell the speed during it
    (the host changes state several times a second), so an interval timer
    interrupts the call every IN_CALL_EVERY seconds to take one.  `paused`
    is the time the samples took out of the call."""

    def __init__(self, samples: list[float], enabled: bool = True):
        self.samples = samples
        self.enabled = enabled
        self.ticks: list[tuple[float, float]] = []  # (start, length) of each sample

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_loop(SAMPLE_PASSES))
        self.ticks.append((start, perf_counter() - start))

    def __enter__(self) -> "InCallSamples":
        if self.enabled:
            self.previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, IN_CALL_FIRST, IN_CALL_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.previous)

    def paused(self, end: float) -> float:
        # a sample begun before `end` ran to its finish before `end` was read
        return sum(length for start, length in self.ticks if start < end)


def run_round(queries: list[Query], tally: Tally, sample_inside: bool = True) -> tuple[float, float]:
    """Run every query once; return the summed time of the calls, scaled
    and raw.  Checks and reference samples run outside the query timers.
    A traced round passes `sample_inside=False`, so that no sample lands in
    a span."""
    clear_caches()
    samples = [reference_loop(SAMPLE_PASSES)]
    calls = []  # (time in randlab, the reference samples to scale it by, returned)
    child_start = None  # the last interpreter start, if nothing ran since
    for q in queries:
        if not q.in_child:
            child_start = None
        elif child_start is None:
            child_start = interpreter_start()
        if q.cold:
            clear_caches()
        tally.attempted += 1
        before = len(samples) - 1
        error = None
        with InCallSamples(samples, sample_inside and not q.in_child) as inside:
            start = perf_counter()
            try:
                out = q.call()
            except Exception as exc:  # a raising query is a failed operation
                error = f"{q.name} raised {exc!r}\n{traceback.format_exc(limit=3)}"
            end = perf_counter()
        if q.in_child:
            around = [child_start, child_start := interpreter_start()]
        else:
            inside_samples = samples[before + 1 :]
            # right after the call, before its check: the speed a short call
            # met is best told by the passes on either side of it (samples
            # inside a long call follow its speed closer still: their
            # log-log slope against its time is about 1)
            samples.append(reference_loop(1 if end - start < BRACKET else AFTER_LONG_PASSES))
            around = inside_samples or [samples[before], samples[-1]]
        elapsed = end - start - inside.paused(end)
        calls.append((elapsed, around, error is None))
        if error is not None:
            tally.failed += 1
            tally.note(error)
            continue
        try:
            ok = bool(q.check(out))
        except Exception as exc:  # an output the check cannot read is wrong
            ok = False
            tally.note(f"{q.name} check raised {exc!r}")
        if not ok:
            tally.failed += 1
            tally.wrong += 1
            tally.note(f"{q.name} output disagrees with its check: {out!r:.300}")
    samples.append(reference_loop(SAMPLE_PASSES))
    busy = raw = 0.0
    for position, (elapsed, around, returned) in enumerate(calls):
        s = elapsed * REFERENCE_S / statistics.fmean(around)
        busy += s
        raw += elapsed
        if returned:
            tally.by_query.setdefault(position, []).append(s)
            tally.raw_by_query.setdefault(position, []).append(elapsed)
    tally.rounds.append(busy)
    tally.raw_rounds.append(raw)
    tally.references += samples
    return busy, raw
