"""In-memory span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps every function exported in ``robustmean.__all__`` at each
``robustmean`` module that holds a reference to it (the defining module
included, so calls inside a module are seen too).  A span records its name,
the module the call came from, its parent span, the thread, wall start and
end (``time.perf_counter``) and thread CPU start and end
(``time.thread_time``).  Work counts are derived from the call's arguments
by the probes below; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

# Span record layout; lists rather than objects keep the wrapper cheap.
NAME, SITE, PARENT, THREAD, START, END, CPU_START, CPU_END, INFO = range(9)

# Functions reported one by one: calls, self time and wait time.  Self time
# of every other traced function goes to trace.other_self_s.
REPORTED = (
    "estimators.block_summaries",
    "estimators.weighted_mean",
    "estimators.median_of_means",
    "estimators.partition",
    "estimators.trimmed_mean",
    "estimators.estimate",
    "adaptive.robust_sigma",
    "adaptive.adaptive_k",
    "adaptive.adaptive_estimate",
    "harness.parse_config",
    "harness.run_experiment",
    "harness.figure_grid_table",
    "harness.emit_results",
    "datagen.sample",
    "datagen.contaminate",
    "seeding.substream_seed",
    "cli.main",
)

# Derived metrics and their units; the order is the order of the report.
DERIVED = {
    "estimators.values_summarised": "count",
    "estimators.blocks_summarised": "count",
    "estimators.values_summarised_per_s": "1/s",
    "adaptive.scan_levels": "count",
    "adaptive.k_chosen_median": "count",
    "harness.summary_cache.use_ratio": "ratio",
    "harness.pool.busy_ratio": "ratio",
    "datagen.values_drawn": "count",
    "cli.bytes_parsed": "bytes",
    "trace.wall_s": "s",
    "trace.other_self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in REPORTED:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.wait_s": "s"})
    units.update(DERIVED)
    return units


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


def _main_bytes(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv")
    if argv and argv[0] == "estimate" and len(argv) > 1 and not argv[1].startswith("-"):
        return os.path.getsize(argv[1])
    return 0


# name -> fn(args, kwargs, result) giving the span's INFO field
PROBES = {
    "estimators.block_summaries": lambda a, kw, r: (_arg(a, kw, 1, "part").n, _arg(a, kw, 1, "part").k, id(r)),
    "estimators.weighted_mean": lambda a, kw, r: id(_arg(a, kw, 0, "summaries")),
    "estimators.median_of_means": lambda a, kw, r: id(_arg(a, kw, 0, "summaries")),
    "adaptive.adaptive_k": lambda a, kw, r: r,
    "datagen.sample": lambda a, kw, r: _arg(a, kw, 1, "n"),
    "cli.main": _main_bytes,
}


class Tracer:
    """Collects spans from wrapped functions until :meth:`uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stacks: dict[int, list] = {}
        self._root_thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, site: str):
        spans, stacks, root_thread = self.spans, self._stacks, self._root_thread
        probe = PROBES.get(name)
        perf_counter, thread_time, get_ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = get_ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks[thread] = []
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span belongs to whatever the
                # starting thread has open (run_experiment, for the pool)
                root = stacks.get(root_thread)
                parent = root[-1] if root and thread != root_thread else None
            record = [name, site, parent, thread, perf_counter(), 0.0, 0.0, 0.0, None]
            stack.append(record)
            # the CPU interval sits inside the wall interval, so wait >= 0
            record[CPU_START] = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[CPU_END] = thread_time()
                record[END] = perf_counter()
                stack.pop()
                spans.append(record)
            if probe is not None:
                record[INFO] = probe(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap each public function of ``package`` wherever its modules import it."""
        prefix = package.__name__ + "."
        modules = [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]
        for export in package.__all__:
            fn = getattr(package, export)
            if not inspect.isfunction(fn):
                continue
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{export}"
            for module in modules:
                if getattr(module, export, None) is fn:
                    site = module.__name__.rsplit(".", 1)[-1]
                    setattr(module, export, self.wrap(fn, name, site))
                    self._undo.append((module, export, fn))

    def uninstall(self) -> None:
        for module, export, fn in reversed(self._undo):
            setattr(module, export, fn)
        self._undo.clear()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the union of its direct children's intervals, by span id."""
        children = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                children[id(span[PARENT])].append((span[START], span[END]))
        result = {}
        for span in self.spans:
            covered, reach = 0.0, span[START]
            for start, end in sorted(children.get(id(span), ())):
                start, end = max(start, reach), min(end, span[END])
                if end > start:
                    covered += end - start
                    reach = end
            result[id(span)] = (span[END] - span[START]) - covered
        return result

    def layer_metrics(self, jobs: int) -> dict[str, float]:
        """Per-layer totals over every span recorded so far.

        ``jobs`` is the worker count the traced workload ran with; it is the
        denominator of ``harness.pool.busy_ratio``.  A ratio whose base is
        zero (the layer did not run) reads 0.
        """
        self_of = self.self_times()
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[NAME]].append(span)

        metrics: dict[str, float] = {}
        for name in REPORTED:
            group = by_name.get(name, [])
            metrics[f"{name}.calls"] = len(group)
            metrics[f"{name}.self_s"] = sum(self_of[id(s)] for s in group)
            metrics[f"{name}.wait_s"] = sum((s[END] - s[START]) - (s[CPU_END] - s[CPU_START]) for s in group)
        reported = set(REPORTED)
        metrics["trace.other_self_s"] = sum(self_of[id(s)] for s in self.spans if s[NAME] not in reported)
        roots = [s for s in self.spans if s[PARENT] is None]
        metrics["trace.wall_s"] = sum(s[END] - s[START] for s in roots)

        # spans of calls that raised carry no INFO, so they count no work
        summaries = [s for s in by_name.get("estimators.block_summaries", []) if s[INFO] is not None]
        metrics["estimators.values_summarised"] = sum(s[INFO][0] for s in summaries)
        metrics["estimators.blocks_summarised"] = sum(s[INFO][1] for s in summaries)
        busy = metrics["estimators.block_summaries.self_s"]
        metrics["estimators.values_summarised_per_s"] = metrics["estimators.values_summarised"] / busy if busy else 0.0

        scans = [s for s in by_name.get("adaptive.adaptive_k", []) if s[INFO] is not None]
        levels = sum(1 for s in summaries if s[PARENT] is not None and s[PARENT][NAME] == "adaptive.adaptive_k")
        metrics["adaptive.scan_levels"] = levels / len(scans) if scans else 0.0
        metrics["adaptive.k_chosen_median"] = statistics.median(s[INFO] for s in scans) if scans else 0.0

        metrics["harness.summary_cache.use_ratio"] = self._cache_use_ratio(summaries, by_name)
        experiments = by_name.get("harness.run_experiment", [])
        pool_wall = sum(s[END] - s[START] for s in experiments)
        pool_cpu = sum(
            s[CPU_END] - s[CPU_START]
            for s in self.spans
            if s[PARENT] is not None and s[PARENT][NAME] == "harness.run_experiment"
        )
        metrics["harness.pool.busy_ratio"] = pool_cpu / (jobs * pool_wall) if pool_wall else 0.0

        metrics["datagen.values_drawn"] = sum(s[INFO] or 0 for s in by_name.get("datagen.sample", []))
        metrics["cli.bytes_parsed"] = sum(s[INFO] or 0 for s in by_name.get("cli.main", []))
        return metrics

    @staticmethod
    def _cache_use_ratio(summaries, by_name) -> float:
        """Share of the summary lists run_experiment builds that an estimator reads.

        Lists are matched by ``id``.  Builds are placed at their end and
        reads at their start, so a reused id always maps to the newest list.
        """
        events = [(s[END], 0, s[INFO][2]) for s in summaries if s[SITE] == "harness"]
        built = len(events)
        if not built:
            return 0.0
        for reader in ("estimators.weighted_mean", "estimators.median_of_means"):
            events += [
                (s[START], 1, s[INFO]) for s in by_name.get(reader, []) if s[SITE] == "harness" and s[INFO] is not None
            ]
        live, used = {}, set()
        for index, (_, kind, key) in enumerate(sorted(events)):
            if kind == 0:
                live[key] = index
            elif key in live:
                used.add(live[key])
        return len(used) / built
