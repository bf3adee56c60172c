"""Spans around calls into randlab's modules, recorded from outside the package.

`Tracer.install()` replaces public functions in every loaded `randlab.*`
namespace with timing wrappers, so a call is seen wherever one layer
reaches another, and `uninstall()` puts the originals back.  A function
that calls itself (`eval_formula`) is left unwrapped in its own module, so
only calls entering that layer from another layer are counted; every
other wrapped function is also wrapped in its own module, because there
an intra-module caller (rho -> cb_rank_mult) is the layer boundary the
metrics name.

Self time is the span's duration minus the time of its child spans.  The
aggregates cover every span; the span log kept for writing out is capped
so a traced run stays small in memory.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, function, also wrap inside its own module)
FUNCTIONS = (
    ("semantics", "eval_formula", False),
    ("semantics", "isolating_formula", True),
    ("semantics", "type_space", True),
    ("semantics", "automorphisms", True),
    ("randomization", "event_of", True),
    ("randomization", "event_witness", True),
    ("randomization", "fullness_witness", True),
    ("randomization", "d_k", True),
    ("randomization", "mu", True),
    ("measure", "fiber_product", True),
    ("rtypes", "rtype_of", True),
    ("extension", "extend_measure_eq", True),
    ("stability", "rho", True),
    ("stability", "cb_rank_mult", True),
    ("stability", "rho_hat", True),
    ("stability", "nonforking_extension", True),
    ("stability", "certify_nonforking", True),
    ("stability", "check_independence", True),
    ("axioms", "check_axioms", True),
    ("axioms", "atomless_defect", True),
    ("formulas", "parse_formula", True),
    ("cformulas", "parse_cformula", True),
    ("cformulas", "eval_cformula", True),
    ("workspace", "load_workspace", True),
    ("cli", "main", True),
)

SPAN_LOG_CAP = 100_000


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()  # work counters beside the spans
        self.iso_pairs: set = set()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.log: list[tuple] = []  # (id, name id, start, end, parent id)
        self.dropped = 0
        self._stack: list[list] = []  # [id, child time, name]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0, name]
        self._next_id += 1
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._close(name, frame, parent, start, end)

    def _close(self, name, frame, parent, start, end):
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        if parent is not None:
            parent[1] += dur
        if len(self.log) < SPAN_LOG_CAP:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            self.log.append((frame[0], nid, start, end, parent[0] if parent else -1))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def wrap_generator(self, name: str, fn, per_item=None):
        """Each resumption of the generator is one span."""
        tracer = self

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(name, next, gen)
                except StopIteration:
                    return
                if per_item is not None:
                    per_item()
                yield item

        return wrapper

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        import randlab.cli  # noqa: F401  (loads every module that gets wrapped)
        from randlab.measure import FinProbSpace
        from randlab.randomization import Randomization

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "randlab" or name.startswith("randlab.")
        }
        hooks = {
            "randomization.event_of": self._count_points,
            "semantics.isolating_formula": self._note_iso_pair,
            "extension.extend_measure_eq": self._count_cells,
        }
        for mod_name, fn_name, wrap_own in FUNCTIONS:
            home = modules[f"randlab.{mod_name}"]
            orig = getattr(home, fn_name)
            label = f"{mod_name}.{fn_name}"
            wrapper = self.wrap(label, orig, hooks.get(label))
            for name, mod in modules.items():
                if getattr(mod, fn_name, None) is orig and (wrap_own or mod is not home):
                    self._patch(mod, fn_name, wrapper)

        eq = FinProbSpace.__eq__
        self._patch(FinProbSpace, "__eq__", self.wrap("measure.FinProbSpace.eq", eq))
        self._patch(
            Randomization,
            "all_elements",
            self.wrap_generator(
                "randomization.all_elements", Randomization.all_elements, self._count_element
            ),
        )

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- work counters ------------------------------------------------------------

    def _count_points(self, rand, *_args, **_kwargs):
        self.counts["randomization.event_of.points"] += len(rand.base.points)

    def _note_iso_pair(self, space, q, *_args, **_kwargs):
        self.iso_pairs.add((space, q))

    def _count_cells(self, prob, *_args, **_kwargs):
        self.counts["extension.problem_cells"] += len(prob.ground) * len(prob.constraints)

    def _count_element(self):
        # the sup/inf loop runs inside eval_cformula, so an element it
        # consumes arrives while that span is the innermost open one
        if self._stack and self._stack[-1][2].startswith("cformulas."):
            self.counts["cformulas.enumerated_elements"] += 1

    # -- output -------------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent"],
                    "names": self.names,
                    "spans": self.log,
                    "dropped": self.dropped,
                    "calls": dict(self.calls),
                    "self_s": dict(self.self_s),
                    "counts": dict(self.counts),
                },
                fh,
            )
