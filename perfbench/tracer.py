"""Outside-in layer trace of the solver.

The tracer replaces the module-level names through which ``colgen``,
``illp`` and ``llp`` call into other modules with wrappers that record
a span (name, start, end, parent) per call and count the work the call
returned.  Nothing inside the program changes; ``uninstall`` puts the
original names back.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import defaultdict

from lexpbs import cli, colgen, illp, llp
from lexpbs.lexcore import DEFAULT_EPS, lex_is_positive

#: Span name -> per-layer time metric; a metric summing several span
#: names lists each of them.
TIME_METRICS = {
    "rclpp.direct_s": ["rclpp.solve_n_best.direct"],
    "rclpp.reduction_s": ["rclpp.solve_n_best.reduction"],
    "rclpp.bounds_s": ["rclpp.compute_bounds"],
    "rclpp.threshold_s": ["rclpp.solve_above_threshold"],
    "llp.master_s": ["llp.lex_solve"],
    "illp.lower_s": ["illp.lower"],
    "illp.final_s": ["illp.final"],
    "colgen.build_problem_s": ["colgen.build_problem"],
    "pbs.dag_s": ["pbs.build_dag"],
    "pbs.space_s": ["pbs.make_resource_space", "pbs.make_reduction_space"],
    "cli.load_s": ["cli.load_instance"],
    "cli.write_s": ["cli.dump_json"],
}

#: Counters that must repeat exactly from run to run.
WORK_COUNTERS = [
    "rclpp.labels_popped",
    "rclpp.labels_saved",
    "rclpp.cuts_by_lb",
    "llp.master_solves",
    "llp.lu_factorizations",
    "illp.nodes_lower",
    "illp.nodes_final",
    "colgen.iterations",
    "colgen.pool_columns",
    "colgen.gap_columns",
    "pbs.dag_arcs",
]


def metric_unit(name: str) -> str:
    if name in WORK_COUNTERS:
        return "count"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    return "s"


class _Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child_time", "tag")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[_Span] = []
        self.rounds = 0
        self.tag = ""  # the solve the next spans belong to
        self._stack: list[_Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reduction_spaces: weakref.WeakSet = weakref.WeakSet()
        self._run_start = 0.0
        self._illp_calls = 0

    # -- spans -------------------------------------------------------

    def begin_round(self) -> None:
        """Start a traced round; call before `install`."""
        self.rounds += 1
        self.times: dict[str, float] = defaultdict(float)
        self.self_times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def _call(self, name: str, fn, args, kwargs):
        span = _Span()
        span.id = len(self.spans) + len(self._stack)
        span.parent = self._stack[-1] if self._stack else None
        span.name = name
        span.tag = self.tag
        span.child_time = 0.0
        self._stack.append(span)
        span.start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
            duration = span.end - span.start
            if span.parent is not None:
                span.parent.child_time += duration
            self.times[name] += duration
            self.self_times[name] += duration - span.child_time
            self.spans.append(span)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id,
                    "parent": None if s.parent is None else s.parent.id,
                    "solve": s.tag,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.end - s.start - s.child_time,
                }) + "\n")

    # -- wrappers ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        self._patch(owner, attr, wrapper)

    def _count_search(self, result, _args) -> None:
        self.counts["rclpp.labels_popped"] += result.stats.labels_popped
        self.counts["rclpp.labels_saved"] += result.stats.saved_paths
        self.counts["rclpp.cuts_by_lb"] += result.stats.cuts_by_lb

    def _count_run(self, result) -> None:
        stats = result.stats
        m = len(result.schedules)
        self.counts["colgen.iterations"] += stats.iterations
        self.counts["colgen.pool_columns"] += stats.pool_size
        self.counts["colgen.gap_columns"] += stats.gap_columns
        self.counts["colgen.pricing_problems"] += stats.iterations * m
        self.counts["colgen.served_by_reduction"] += round(
            sum(stats.eliminated_fractions) * m)

    def install(self) -> None:
        def main(argv, *args, **kwargs):
            name = os.path.splitext(os.path.basename(argv[1]))[0]
            self.tag = f"round{self.rounds}/{name}"
            return self._call("cli.main", original_main, (argv,) + args,
                              kwargs)

        def run(*args, **kwargs):
            self._run_start = self.clock()
            self._illp_calls = 0
            result = self._call("colgen.run", original_run, args, kwargs)
            self._count_run(result)
            return result

        def n_best(*args, **kwargs):
            kind = ("reduction" if args[1] in self._reduction_spaces
                    else "direct")
            result = self._call(f"rclpp.solve_n_best.{kind}",
                                original_n_best, args, kwargs)
            self._count_search(result, args)
            if kind == "direct":
                self.counts["rclpp.paths_returned"] += len(result.paths)
                self.counts["rclpp.paths_positive"] += sum(
                    lex_is_positive(p.cost, DEFAULT_EPS)
                    for p in result.paths)
            return result

        def illp_solve(*args, **kwargs):
            self._illp_calls += 1
            lower = self._illp_calls == 1
            if lower:
                self.times["colgen.cg_s"] += \
                    self.clock() - self._run_start
            result = self._call("illp.lower" if lower else "illp.final",
                                original_illp, args, kwargs)
            self.counts["illp.nodes_lower" if lower else
                        "illp.nodes_final"] += result.node_count
            return result

        def lu_factor(*args, **kwargs):
            self.counts["llp.lu_factorizations"] += 1
            return original_lu(*args, **kwargs)

        original_main = cli.main
        original_run = colgen.run
        original_n_best = colgen.solve_n_best
        original_illp = colgen.illp_solve
        original_lu = llp.lu_factor
        self._patch(colgen, "run", run)
        self._patch(colgen, "solve_n_best", n_best)
        self._patch(colgen, "illp_solve", illp_solve)
        self._patch(llp, "lu_factor", lu_factor)
        self._patch(cli, "main", main)
        self._wrap(cli, "load_instance", "cli.load_instance")
        self._wrap(cli, "dump_json", "cli.dump_json")
        self._wrap(colgen, "build_dag", "pbs.build_dag",
                   lambda dag, _: self._add("pbs.dag_arcs", len(dag.arcs)))
        self._wrap(colgen, "make_resource_space", "pbs.make_resource_space")
        self._wrap(colgen, "make_reduction_space",
                   "pbs.make_reduction_space",
                   lambda space, _: self._reduction_spaces.add(space))
        self._wrap(colgen, "compute_bounds", "rclpp.compute_bounds")
        self._wrap(colgen, "solve_above_threshold",
                   "rclpp.solve_above_threshold", self._count_search)
        self._wrap(colgen, "lex_solve", "llp.lex_solve",
                   lambda _r, _a: self._add("llp.master_solves", 1))
        self._wrap(colgen.RestrictedMaster, "build_problem",
                   "colgen.build_problem")
        self._wrap(illp, "lex_solve", "llp.node_lex_solve")

    def _add(self, counter: str, k: int) -> None:
        self.counts[counter] += k

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-round metrics ------------------------------------------

    def round_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of the solves since `begin_round`, in the
        units of `metric_unit`; times are multiplied by `scale`."""
        c = self.counts
        t = {name: v * scale for name, v in self.times.items()}
        t = defaultdict(float, t)
        out = {name: sum(t[s] for s in spans)
               for name, spans in TIME_METRICS.items()}
        out.update({name: c[name] for name in WORK_COUNTERS})
        search_s = (out["rclpp.direct_s"] + out["rclpp.reduction_s"]
                    + out["rclpp.threshold_s"])
        out["rclpp.labels_per_s"] = c["rclpp.labels_popped"] / search_s
        out["rclpp.positive_paths_pct"] = \
            100.0 * c["rclpp.paths_positive"] / c["rclpp.paths_returned"]
        out["colgen.cg_s"] = t["colgen.cg_s"]
        out["colgen.self_s"] = self.self_times["colgen.run"] * scale
        out["colgen.served_by_reduction_pct"] = \
            100.0 * c["colgen.served_by_reduction"] \
            / c["colgen.pricing_problems"]
        out["trace.solve_s"] = t["cli.main"]
        return out
