"""In-memory spans around fancore's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
fancore module that holds a reference to it (``witness`` imports
``corefan`` by name, ``cli`` reaches it through ``fanmetrics``), so calls
made inside the library are seen too. A wrapper records nothing while the
tracer is inactive; the runner activates it only around timed ops. Spans
are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from collections import defaultdict


def _product_minus_one(g) -> int:
    product = 1
    for _, _, m in g.index_classes:
        product *= m + 1
    return product - 1


# (module short name, function, span name, span attributes from (args, result))
TARGETS = (
    ("cli", "run", "cli.run", None),
    ("mg", "parse", "multigraph.parse", lambda a, r: {"classes": r.class_count}),
    ("mg", "serialize", "multigraph.serialize", None),
    ("core", "t_core", "core.t_core", None),
    ("core", "core_report", "core.condition", None),
    ("core", "forest_core_condition", "core.condition", None),
    ("core", "bqueue_core_condition", "core.condition", None),
    ("bq", "greedy_full_bqueue", "bqueue.greedy", lambda a, r: {"full": r is not None}),
    ("fm", "corefan", "fanmetrics.corefan",
     lambda a, r: {"candidates": (1 << a[0].class_count) - 1, "dense": a[0].class_count > a[0].vertex_count}),
    ("fm", "fan_number", "fanmetrics.fan_number", lambda a, r: {"candidates": _product_minus_one(a[0])}),
    ("fm", "fan_pair_exceeds", "fanmetrics.fan_pair_exceeds", None),
    ("col", "fan_colouring", "colouring.fan_colouring",
     lambda a, r: {"instances": a[0].total_instances(), "none": r is None}),
    ("col", "chromatic_index_exact", "colouring.chi_exact", None),
    ("col", "verify_colouring", "colouring.verify_colouring", None),
    ("wit", "construct_witness", "witness.construct", lambda a, r: {"instances": r[0].total_instances()}),
    ("wit", "verify_witness", "witness.verify", None),
)

_ALLOC_SPAN = "colouring.fan_colouring"


class Tracer:
    """Span recorder. A span is [id, parent id, op id, name, start, end, attrs].

    Allocation tracing would slow fan_colouring several-fold on small graphs
    and so distort every span, so it is kept out of the spans: the tracer
    remembers the traced fan_colouring call with the most edge instances,
    and ``peak_alloc_mb`` replays that one call under tracemalloc.
    """

    def __init__(self):
        self.spans: list = []
        self.active = False
        self.op_id = None
        self._stack: list = []
        self._patched: list = []
        self._largest = (-1, None)  # (instances, (function, args, kwargs))

    def install(self, fc) -> None:
        modules = [m for n, m in sys.modules.items() if n == "fancore" or n.startswith("fancore.")]
        for module_attr, fn_name, span, attrs in TARGETS:
            original = getattr(getattr(fc, module_attr), fn_name)
            wrapper = self._wrap(original, span, attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, attrs):
        spans, stack = self.spans, self._stack
        alloc = name == _ALLOC_SPAN

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [len(spans), stack[-1] if stack else None, self.op_id, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter()
                record[4] = start
                stack.pop()
            if attrs is not None:
                record[6] = attrs(args, result)
            if alloc and record[6]["instances"] > self._largest[0]:
                self._largest = (record[6]["instances"], (fn, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def peak_alloc_mb(self) -> float:
        """Peak traced allocation of the largest fan_colouring call, replayed."""
        if self._largest[1] is None:
            return 0.0
        fn, args, kwargs = self._largest[1]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def layer_metrics(spans, rounds: int, scale: dict) -> dict:
    """Per-layer totals from the spans, per traced round.

    Span times are scaled by their op's host-speed factor from ``scale``.

    A layer's time is the inclusive time of its outermost spans (a span
    nested in one of the same name is not counted twice). cli.overhead_s is
    the self time of cli.run spans: what cli.run spends outside the traced
    library calls it makes, such as argument parsing and formatting output.
    """
    by_id = {s[0]: s for s in spans}
    time_of: dict = defaultdict(float)
    children_time: dict = defaultdict(float)
    attr_sum: dict = defaultdict(float)
    dense_time = {True: 0.0, False: 0.0}
    count: dict = defaultdict(int)
    durations = {s[0]: (s[5] - s[4]) * scale.get(s[2], 1.0) for s in spans}
    for sid, parent, _, name, start, end, attrs in spans:
        duration = durations[sid]
        count[name] += 1
        if parent is not None:
            children_time[parent] += duration
        ancestor, nested = parent, False
        while ancestor is not None:
            if by_id[ancestor][3] == name:
                nested = True
                break
            ancestor = by_id[ancestor][1]
        if not nested:
            time_of[name] += duration
            if name == "fanmetrics.corefan" and attrs:
                dense_time[attrs["dense"]] += duration
        for key, value in (attrs or {}).items():
            if key != "dense":
                attr_sum[(name, key)] += value
    cli_self = sum(durations[s[0]] - children_time[s[0]] for s in spans if s[3] == "cli.run")

    def per_s(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    r = max(rounds, 1)
    greedy_calls = count["bqueue.greedy"]
    m = {
        "fanmetrics.corefan_s": time_of["fanmetrics.corefan"] / r,
        "fanmetrics.corefan_candidates": attr_sum[("fanmetrics.corefan", "candidates")] / r,
        "fanmetrics.corefan_candidates_per_s": per_s(attr_sum[("fanmetrics.corefan", "candidates")],
                                                     time_of["fanmetrics.corefan"]),
        "fanmetrics.corefan_dense_s": dense_time[True] / r,
        "fanmetrics.corefan_sparse_s": dense_time[False] / r,
        "fanmetrics.fan_number_s": time_of["fanmetrics.fan_number"] / r,
        "fanmetrics.fan_number_candidates": attr_sum[("fanmetrics.fan_number", "candidates")] / r,
        "fanmetrics.fan_number_candidates_per_s": per_s(attr_sum[("fanmetrics.fan_number", "candidates")],
                                                        time_of["fanmetrics.fan_number"]),
        "fanmetrics.fan_pair_exceeds_s": time_of["fanmetrics.fan_pair_exceeds"] / r,
        "colouring.fan_colouring_s": time_of["colouring.fan_colouring"] / r,
        "colouring.fan_colouring_instances_per_s": per_s(attr_sum[("colouring.fan_colouring", "instances")],
                                                         time_of["colouring.fan_colouring"]),
        "colouring.fan_colouring_none": attr_sum[("colouring.fan_colouring", "none")] / r,
        "colouring.chi_exact_s": time_of["colouring.chi_exact"] / r,
        "colouring.verify_colouring_s": time_of["colouring.verify_colouring"] / r,
        "witness.construct_s": time_of["witness.construct"] / r,
        "witness.verify_s": time_of["witness.verify"] / r,
        "witness.instances": attr_sum[("witness.construct", "instances")] / r,
        "multigraph.parse_s": time_of["multigraph.parse"] / r,
        "multigraph.parse_classes_per_s": per_s(attr_sum[("multigraph.parse", "classes")],
                                                time_of["multigraph.parse"]),
        "multigraph.serialize_s": time_of["multigraph.serialize"] / r,
        "core.t_core_s": time_of["core.t_core"] / r,
        "core.condition_s": time_of["core.condition"] / r,
        "bqueue.greedy_s": time_of["bqueue.greedy"] / r,
        "bqueue.full_ratio": attr_sum[("bqueue.greedy", "full")] / greedy_calls if greedy_calls else 0.0,
        "cli.run_s": time_of["cli.run"] / r,
        "cli.overhead_s": cli_self / r,
    }
    return m
