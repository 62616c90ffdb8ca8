"""Byte-identity digests of the solver's output files on fixed months.

Generates each month with ``lexpbs generate``, solves it with ``lexpbs
solve --stats-out`` (both through ``lexpbs.cli.main``, in a temporary
directory) and prints one line per month: the sha256 of its instance,
solution and stats files, the sha256 of its answers (the schedules,
the score vector and both bounds), the sha256 of its schedules and
score vector alone, the sha256 of its pivot path, then the month's
name.  The pivot path is the (row, column) of every simplex pivot of
the solve, in order: master, dual repair and branch and bound alike,
each column in its simplex's own numbering.  It is recorded by
``scripts/ladder.py``'s ``simplex_work``, which wraps
``llp._Simplex._pivot``.  A change compares its lines with the
parent's:

    python3 scripts/month_digests.py > parent.txt      # at the parent
    python3 scripts/month_digests.py --compare parent.txt

With ``--compare`` it names five groups of months: those whose
schedules or score vector differ from the file's (or that the file
lacks), those where only the float bounds moved, those whose files
differ with the same answers (only their counters moved), those whose
files match but whose pivot path moved, and those that the file lists
but the run does not digest.  It exits 1 on any difference, and 2 on
a line of the file that is not four digests and a name.

The months are those of the benchmark (``perfbench/workloads.py``: the
warm-up month and every workload's list), the 17x69 month of seed 7,
the 10x40 month of seed 5, whose integer solves branch, the 20x80
month of seed 1, the first past 17 pilots, and the six oracle-sized
months of ``tests/conftest.py``'s ``FRACTIONAL_MONTHS``, whose
branch-and-bound children include infeasible ones, which the lex LP's
dual repair proves infeasible: 65 months in all.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile

# One BLAS thread, as in the benchmark; set before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lexpbs import cli  # noqa: E402

EXTRA_MONTHS = [(7, 17, 69), (5, 10, 40), (1, 20, 80),
                (1009, 3, 12), (1177, 3, 10), (1387, 3, 10),
                (1543, 3, 11), (2103, 2, 11), (2323, 3, 11)]


def _load(name: str, *parts: str):
    """The module at ROOT/parts..., loaded from its file as `name`."""
    path = os.path.join(ROOT, *parts)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ladder = _load("ladder", "scripts", "ladder.py")


def months() -> dict[str, tuple[int, int, int]]:
    """Month name -> (seed, pilots, pairings), in a fixed order."""
    wl = _load("perfbench_workloads", "perfbench", "workloads.py")
    specs = [wl.WARMUP] + [s for specs in wl.WORKLOADS.values()
                           for s in specs] + EXTRA_MONTHS
    return {wl.instance_name(*s): s for s in specs}


#: The solution file's fields that make up the answers digest, and the
#: first of them, which make up the schedules digest.
ANSWER_KEYS = ("schedules", "score_vector", "upper_bound", "lower_bound")
SCHEDULE_KEYS = ANSWER_KEYS[:2]


def digest(work_dir: str, name: str, seed: int, pilots: int,
           pairings: int) -> tuple[str, str, str, str]:
    """sha256 of the month's instance, solution and stats files, of its
    answers, of its schedules and score vector, and of its pivot path;
    each but the last also hashes the two commands' exit codes."""
    inst, sol, stats = (os.path.join(work_dir, f"{name}.{kind}.json")
                        for kind in ("instance", "solution", "stats"))
    with contextlib.redirect_stdout(io.StringIO()), \
            ladder.simplex_work() as work:
        codes = (
            cli.main(["generate", "--seed", str(seed), "-m", str(pilots),
                      "-n", str(pairings), "-o", inst]),
            cli.main(["solve", inst, "-o", sol, "--stats-out", stats]),
        )
    h = hashlib.sha256(repr(codes).encode())
    for path in (inst, sol, stats):
        h.update(b"\0")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                h.update(fh.read())
    solution = None
    if os.path.exists(sol):
        with open(sol, encoding="utf-8") as fh:
            solution = json.load(fh)

    def fields(keys):
        a = hashlib.sha256(repr(codes).encode())
        picked = None if solution is None \
            else {key: solution[key] for key in keys}
        a.update(json.dumps(picked, sort_keys=True).encode())
        return a.hexdigest()

    return (h.hexdigest(), fields(ANSWER_KEYS), fields(SCHEDULE_KEYS),
            hashlib.sha256(repr(work["path"]).encode()).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="digest lines to compare with")
    args = parser.parse_args(argv)
    expected = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                fields = line.split()
                if not fields:
                    continue
                if len(fields) != 5:
                    print(f"error: {args.compare}, line {number}: "
                          f"{len(fields)} fields, not four digests and a "
                          f"name", file=sys.stderr)
                    return 2
                *digests, name = fields
                expected[name] = digests
    groups: dict[str, list[str]] = {
        "schedules or score vector differ": [],
        "only the bounds differ": [],
        "same answers, files differ": [],
        "same files, pivot path differs": [],
    }
    runs = months()
    with tempfile.TemporaryDirectory() as work_dir:
        for name, spec in runs.items():
            files, answers, schedules, pivots = digest(work_dir, name, *spec)
            print(f"{files}  {answers}  {schedules}  {pivots}  {name}",
                  flush=True)
            if not args.compare:
                continue
            old_files, old_answers, old_schedules, old_pivots = \
                expected.get(name, (None,) * 4)
            if old_answers == answers:
                if old_files != files:
                    groups["same answers, files differ"].append(name)
                elif old_pivots != pivots:
                    groups["same files, pivot path differs"].append(name)
            elif old_schedules == schedules:
                groups["only the bounds differ"].append(name)
            else:
                groups["schedules or score vector differ"].append(name)
    groups["in the file but not digested"] = [
        name for name in expected if name not in runs]
    for what, differ in groups.items():
        if differ:
            print(f"{len(differ)} month(s), {what}: {' '.join(differ)}",
                  file=sys.stderr)
    return 1 if any(groups.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
