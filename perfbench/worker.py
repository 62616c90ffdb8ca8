"""The solving process of one benchmark run.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's
``src``.  Set-up writes the workload's instance files, loads them and
the reference vectors back, and makes one untimed warm-up solve; then
the process prints ``READY <monotonic time>``.  Unless asked to stop
there, it takes the workload's instance list in whole rounds through
``lexpbs.cli.main(["solve", ...])`` until ``--seconds`` have passed,
checks every answer, and prints one JSON result line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
import time

from lexpbs import cli
from lexpbs.oracle import oracle_pbs

from checks import CheckError, check_solution
from hostprobe import HostProbe
from workloads import (
    ORACLE_WORKLOADS,
    WARMUP,
    WORKLOADS,
    generate_instance_dict,
    instance_name,
)

HERE = os.path.dirname(os.path.abspath(__file__))


def _write_instance(work_dir: str, spec) -> tuple[str, str]:
    name = instance_name(*spec)
    path = os.path.join(work_dir, f"{name}.json")
    cli.dump_json(generate_instance_dict(*spec), path)
    return name, path


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _oracle_vector(inst: dict) -> list[int]:
    value, _ = oracle_pbs(cli.instance_from_dict(inst))
    return [round(v) for v in value]


class Bench:
    def __init__(self, workload: str, work_dir: str):
        self.work_dir = work_dir
        self.probe: HostProbe | None = None  # set once set-up is over
        self.paths: dict[str, str] = {}
        self.instances: dict[str, dict] = {}
        for spec in WORKLOADS[workload]:
            name, path = _write_instance(work_dir, spec)
            self.paths[name] = path
        for name, path in self.paths.items():
            self.instances[name] = _load(path)
        self.expected: dict[str, list[int]] = {}
        if workload not in ORACLE_WORKLOADS:
            self.expected = _load(os.path.join(HERE, "expected.json"))[workload]
        self.attempted = 0
        self.failed = 0

    def solve(self, name: str, path: str, inst: dict, expected) -> float | None:
        """One timed solve, checked afterwards; None when it failed."""
        out = os.path.join(self.work_dir, f"{name}.solution.json")
        if os.path.exists(out):
            os.remove(out)
        gc.collect()
        sink = io.StringIO()
        clock = self.probe.clock if self.probe else time.perf_counter
        t0 = clock()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(["solve", path, "-o", out])
        except Exception as exc:  # a crash counts as a failed solve
            print(f"{name}: solve raised {exc!r}", file=sys.stderr)
            return None
        elapsed = clock() - t0
        if rc != 0:
            print(f"{name}: exit code {rc}", file=sys.stderr)
            return None
        try:
            check_solution(inst, _load(out), expected)
        except (CheckError, OSError, KeyError, TypeError, ValueError) as exc:
            print(f"{name}: check failed: {exc!r}", file=sys.stderr)
            return None
        return elapsed

    def round(self, rng: random.Random) -> tuple[float, float]:
        """Solve every instance once, in a seeded order.  Returns the
        summed solve time of the round and the factor that rescales it
        to the reference host."""
        order = sorted(self.paths)
        rng.shuffle(order)
        total = 0.0
        self.probe.start()
        for name in order:
            self.attempted += 1
            elapsed = self.solve(name, self.paths[name], self.instances[name],
                                 self.expected[name])
            if elapsed is None:
                self.failed += 1
            else:
                total += elapsed
        scale = self.probe.stop()
        print(f"round of {len(order)} solves: {total:.3f} s wall, "
              f"{total * scale:.3f} s rescaled", file=sys.stderr)
        return total, scale


def _setup(workload: str, work_dir: str) -> Bench:
    os.makedirs(work_dir, exist_ok=True)
    bench = Bench(workload, work_dir)
    name, path = _write_instance(work_dir, WARMUP)
    inst = _load(path)
    if bench.solve(name, path, inst, _oracle_vector(inst)) is None:
        raise SystemExit("warm-up solve failed")
    return bench


def _measure(bench: Bench, rng, seconds: float) -> dict:
    totals = []
    start = time.monotonic()
    while not totals or time.monotonic() - start < seconds:
        wall, scale = bench.round(rng)
        totals.append(wall * scale)
    return {"solve_s": (statistics.median(totals), "s")}


def _measure_traced(bench: Bench, rng, seconds: float, spans_path: str) -> dict:
    """Untraced and traced rounds alternate, so host drift falls on
    both sides of the tracing overhead alike."""
    from tracer import WORK_COUNTERS, Tracer, metric_unit

    tracer = Tracer(bench.probe.clock)
    plain, traced, per_round = [], [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        wall, scale = bench.round(rng)
        plain.append(wall * scale)
        tracer.begin_round()
        tracer.install()
        try:
            wall, scale = bench.round(rng)
        finally:
            tracer.uninstall()
        traced.append(wall * scale)
        per_round.append(tracer.round_metrics(scale))
    tracer.write_spans(spans_path)
    for name in WORK_COUNTERS:
        if len({r[name] for r in per_round}) > 1:
            print(f"warning: {name} differs between rounds",
                  file=sys.stderr)

    metrics = {name: (statistics.median(r[name] for r in per_round),
                      metric_unit(name))
               for name in per_round[0]}
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    bench = _setup(args.workload, args.work_dir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    if args.workload in ORACLE_WORKLOADS:
        bench.expected = {name: _oracle_vector(inst)
                          for name, inst in bench.instances.items()}
    bench.probe = HostProbe()
    rng = random.Random(args.seed)
    if args.trace:
        metrics = _measure_traced(bench, rng, args.seconds,
                                  os.path.join(args.work_dir, "trace.jsonl"))
    else:
        metrics = _measure(bench, rng, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kib / 1024.0, "MB")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
