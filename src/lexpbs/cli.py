"""Instance file I/O, random instance generation, and the solver CLI.

Instances and solutions are UTF-8 JSON with a schema_version field and
sorted keys, so identical inputs produce byte-identical files.
Timestamps are minutes from the start of the month.

Exit codes: 0 proven optimal, 2 input error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
import time

import numpy as np

from . import colgen
from .pbs import MINUTES_PER_DAY, RULE_TYPES, Instance, Pairing

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_ERROR = 3


class InputError(Exception):
    pass


class GenerationError(Exception):
    pass


def _number(value, name: str) -> float:
    """The value of a numeric field: a JSON number.  A string or a
    boolean is an input error, never converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """The value of an integer field: an integral JSON number.  A
    string, a boolean or a fraction is an input error, never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value != int(value):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# serialization


def instance_to_dict(instance: Instance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "month_days": instance.month_days,
        "pilots": list(instance.pilot_ids),
        "pairings": [
            {
                "id": p.id,
                "start": p.start,
                "end": p.end,
                "flight_hours": p.flight_hours,
            }
            for p in instance.pairings
        ],
        "scores": {
            pilot: {
                p.id: int(instance.scores[i, j])
                for j, p in enumerate(instance.pairings)
                if instance.scores[i, j] != 0
            }
            for i, pilot in enumerate(instance.pilot_ids)
        },
        "initial_partition": {
            pilot: sorted(instance.initial_partition[i])
            for i, pilot in enumerate(instance.pilot_ids)
        },
        **{name: getattr(instance, name) for name in RULE_TYPES},
    }


def instance_from_dict(data: dict) -> Instance:
    try:
        if data["schema_version"] != SCHEMA_VERSION:
            raise InputError(f"unsupported schema_version {data['schema_version']}")
        pilots = data["pilots"]
        if not isinstance(pilots, list) or not all(
                isinstance(pilot, str) for pilot in pilots):
            raise InputError("pilots must be a list of pilot ids")
        pairings = [
            Pairing(
                id=str(p["id"]),
                start=_integer(p["start"], "start"),
                end=_integer(p["end"], "end"),
                flight_hours=_number(p["flight_hours"], "flight_hours"),
            )
            for p in data["pairings"]
        ]
        index = {p.id: j for j, p in enumerate(pairings)}
        for field, kind in (("scores", dict), ("initial_partition", list)):
            if not isinstance(data[field], dict) or not all(
                    isinstance(v, kind) for v in data[field].values()):
                raise InputError(f"{field} must map pilot ids to "
                                 f"{'objects' if kind is dict else 'lists'}")
            unknown = sorted(set(data[field]) - set(pilots))
            if unknown:
                raise InputError(f"{field} for unknown pilots {unknown}")
        scores = np.zeros((len(pilots), len(pairings)), dtype=int)
        for i, pilot in enumerate(pilots):
            for pid, g in data["scores"].get(pilot, {}).items():
                if pid not in index:
                    raise InputError(f"score for unknown pairing {pid!r}")
                scores[i, index[pid]] = _integer(g, "score")
        partition = [
            [str(pid) for pid in data["initial_partition"].get(pilot, [])]
            for pilot in pilots
        ]
        rules = {name: (_integer if kind is int else _number)(data[name], name)
                 for name, kind in RULE_TYPES.items() if name in data}
        return Instance(
            month_days=_integer(data["month_days"], "month_days"),
            pilot_ids=pilots,
            pairings=pairings,
            scores=scores,
            initial_partition=partition,
            **rules,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed instance file: {exc}") from exc


def dump_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, deep, huge int
        raise InputError(f"{path}: unreadable JSON: {exc}") from exc
    instance = instance_from_dict(data)
    try:
        instance.validate()
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return instance


# ---------------------------------------------------------------------------
# generation


def _split_counts(rng: random.Random, total: int, parts: int) -> list[int]:
    counts = [1] * parts
    for _ in range(total - parts):
        counts[rng.randrange(parts)] += 1
    return counts


def _sample_schedule(rng: random.Random, month_days: int, count: int,
                     max_days_on: int, off_run: int):
    """Day spans and gaps for `count` pairings leaving at least one
    `off_run`-day window; returns None when the draw does not fit."""
    spans = []
    budget = max_days_on
    for r in range(count):
        hi = min(8, budget - 2 * (count - r - 1))
        if hi < 2:
            return None
        spans.append(rng.randint(2, hi))
        budget -= spans[-1]
    free = month_days - sum(spans)
    if free < off_run:
        return None
    slots = count + 1
    gaps = [0] * slots
    gaps[rng.randrange(slots)] = off_run
    for _ in range(free - off_run):
        gaps[rng.randrange(slots)] += 1
    return spans, gaps


def generate(seed: int, num_pilots: int, num_pairings: int,
             month_days: int = 30) -> Instance:
    """Random instance with a feasible partition built by construction;
    deterministic per seed."""
    if month_days < 1:
        raise GenerationError(
            f"month_days must be at least 1, not {month_days}")
    if num_pilots < 1:
        raise GenerationError("need at least one pilot")
    if num_pairings < num_pilots:
        raise GenerationError("need at least one pairing per pilot")
    rng = random.Random(seed)
    # Pack under the default rules, which the instance then carries.
    max_days_on = Instance.max_days_on
    max_hours = Instance.max_flight_hours
    off_run = Instance.min_consecutive_days_off

    for _attempt in range(200):
        counts = _split_counts(rng, num_pairings, num_pilots)
        if max(counts) * 2 > max_days_on:
            continue
        pairings: list[Pairing] = []
        partition: list[list[str]] = []
        ok = True
        for i, count in enumerate(counts):
            sched = None
            for _ in range(50):
                sched = _sample_schedule(rng, month_days, count,
                                         max_days_on, off_run)
                if sched is not None:
                    break
            if sched is None:
                ok = False
                break
            spans, gaps = sched
            ids = []
            day = 0
            hour_budget = max_hours - 1.0
            for r, span in enumerate(spans):
                day += gaps[r]
                start = day * MINUTES_PER_DAY + rng.randrange(0, 720)
                end = (day + span - 1) * MINUTES_PER_DAY + rng.randrange(720, 1440)
                hours_cap = min(8.0 * span, hour_budget / (len(spans) - r))
                hours = rng.randrange(8, max(9, int(hours_cap * 4))) / 4.0
                hour_budget -= hours
                pid = f"p{len(pairings) + 1:03d}"
                pairings.append(Pairing(pid, start, end, hours))
                ids.append(pid)
                day += span
            partition.append(ids)
        if not ok:
            continue

        pilot_ids = [f"pilot{i + 1:02d}" for i in range(num_pilots)]
        scores = np.array(
            [[rng.randint(0, 100) for _ in pairings] for _ in pilot_ids],
            dtype=int,
        )
        instance = Instance(
            month_days=month_days,
            pilot_ids=pilot_ids,
            pairings=pairings,
            scores=scores,
            initial_partition=partition,
        )
        try:
            instance.validate()
        except ValueError:
            continue
        return instance
    raise GenerationError(
        "could not pack a feasible partition; try fewer pairings"
    )


# ---------------------------------------------------------------------------
# solution output


def solution_to_dict(instance: Instance, result: colgen.ColgenResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "schedules": {
            pilot: result.schedules[i]
            for i, pilot in enumerate(instance.pilot_ids)
        },
        "score_vector": [round(v) for v in result.value],
        "upper_bound": list(result.upper_bound),
        "lower_bound": list(result.lower_bound),
        "stats": stats_to_dict(result.stats),
    }


def stats_to_dict(stats: colgen.ColgenStats) -> dict:
    return {
        "column_generation_iterations": stats.iterations,
        "generated_columns": stats.generated_columns,
        "duplicate_columns": stats.duplicate_columns,
        "gap_columns": stats.gap_columns,
        "pool_size": stats.pool_size,
        "avg_eliminated_subproblems_pct": round(stats.avg_eliminated_pct, 2),
        "reduction_saved_paths": stats.reduction.saved_paths,
        "reduction_cuts_by_lb": stats.reduction.cuts_by_lb,
        "pricing_saved_paths": stats.pricing.saved_paths,
        "pricing_cuts_by_lb": stats.pricing.cuts_by_lb,
        "illp_nodes_lower": stats.illp_nodes_lower,
        "illp_nodes_final": stats.illp_nodes_final,
    }


def _validate_solution(instance: Instance, result: colgen.ColgenResult) -> None:
    """The answer check: the schedules are a partition
    (`Instance.check_partition`) and score the reported value."""
    instance.check_partition(result.schedules)
    if [instance.schedule_score(i, sched)
            for i, sched in enumerate(result.schedules)] \
            != [round(v) for v in result.value]:
        raise RuntimeError("score vector does not match the schedules")


# ---------------------------------------------------------------------------
# commands


def _write(outputs: list[tuple[dict, str]]) -> bool:
    """Write each (data, path) by `dump_json`; False, with the files
    written before it removed, on a path that cannot be written."""
    for i, (data, path) in enumerate(outputs):
        try:
            dump_json(data, path)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}",
                  file=sys.stderr)
            for _, done in outputs[:i]:
                os.remove(done)
            return False
    return True


def _cmd_generate(args) -> int:
    try:
        instance = generate(args.seed, args.pilots, args.pairings,
                            args.month_days)
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if not _write([(instance_to_dict(instance), args.output)]):
        return EXIT_INPUT_ERROR
    print(f"wrote {args.output}: {args.pilots} pilots, "
          f"{args.pairings} pairings, {args.month_days}-day month")
    return EXIT_OK


def _cmd_solve(args) -> int:
    # An output written over the instance or the solution would lose it.
    real = os.path.realpath
    for flag, path, kind, other in (
            ("-o", args.output, "instance", args.instance),
            ("--stats-out", args.stats_out, "instance", args.instance),
            ("--stats-out", args.stats_out, "solution", args.output)):
        if path and real(path) == real(other):
            print(f"error: {flag} {path} is the {kind} file {other}",
                  file=sys.stderr)
            return EXIT_INPUT_ERROR
    try:
        instance = load_instance(args.instance)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.check_oracle:
        # Only this check loads the oracle, and with it fractions and
        # decimal; a plain solve does not.
        from .oracle import MAX_PBS_PAIRINGS, MAX_PBS_PILOTS, oracle_pbs
        if instance.num_pilots > MAX_PBS_PILOTS \
                or instance.num_pairings > MAX_PBS_PAIRINGS:
            print(f"error: --check-oracle takes at most {MAX_PBS_PILOTS} "
                  f"pilots and {MAX_PBS_PAIRINGS} pairings, not "
                  f"{instance.num_pilots} and {instance.num_pairings}",
                  file=sys.stderr)
            return EXIT_INPUT_ERROR

    params = colgen.ColgenParams(use_reduction=not args.no_reduction)
    t0 = time.perf_counter()
    try:
        result = colgen.run(instance, params)
        _validate_solution(instance, result)
    except Exception as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    elapsed = time.perf_counter() - t0

    if args.check_oracle:
        oracle_value, _ = oracle_pbs(instance)
        if oracle_value is None or [round(v) for v in result.value] \
                != [round(v) for v in oracle_value]:
            print("solver failure: value disagrees with the brute-force "
                  "oracle", file=sys.stderr)
            return EXIT_SOLVER_ERROR

    outputs = [(solution_to_dict(instance, result), args.output)]
    if args.stats_out:
        outputs.append((stats_to_dict(result.stats), args.stats_out))
    if not _write(outputs):
        return EXIT_INPUT_ERROR
    # Timings go to the console only: output files must be reproducible.
    print(f"optimal value {[round(v) for v in result.value]} "
          f"in {elapsed:.2f}s "
          f"({result.stats.iterations} iterations, "
          f"{result.stats.pool_size} columns)")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as
    it is, and a batch of solves calls `main` many times."""
    parser = argparse.ArgumentParser(
        prog="lexpbs",
        description="Exact lexicographic solver for preferential bidding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a random instance")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-m", "--pilots", type=int, required=True)
    gen.add_argument("-n", "--pairings", type=int, required=True)
    gen.add_argument("--month-days", type=int, default=30)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_generate)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance")
    solve.add_argument("-o", "--output", required=True)
    solve.add_argument("--stats-out")
    solve.add_argument("--no-reduction", action="store_true")
    solve.add_argument("--check-oracle", action="store_true")
    solve.set_defaults(func=_cmd_solve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
