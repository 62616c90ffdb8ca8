"""Solve a ladder of generated months and print one line per month.

Each month is given as ``seed,pilots,pairings``.  It is generated with
``lexpbs generate`` and solved with ``lexpbs solve --stats-out``, both
through ``lexpbs.cli.main`` in this process, in a temporary directory.
Each line gives the month's name, the exit code and wall seconds of its
solve, its simplex pivots and LU factorizations, and from its stats
file the CG iterations, the pool size and the B&B nodes of the lower
and final integer solves.  Pivots and factorizations count the calls
of ``llp._Simplex._pivot`` and ``llp.lu_factor`` (master, dual repair
and branch and bound alike), which ``simplex_work`` wraps; it also
records the pivot path, which ``scripts/month_digests.py`` digests.
A failed solve writes no stats file: its line shows ``-`` for the
stats counters and ends with the error message.  With ``--repeat N``
each month is solved N times and its line gives the median wall
seconds; the counters are those of the last solve (the solver is
deterministic).

    python3 scripts/ladder.py 7,17,69 1,20,80 2,20,80 1,24,96 1,30,120
    python3 scripts/ladder.py --repeat 5 7,17,69 1,20,80

Times are raw wall seconds, so compare them only between runs on the
same host.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

# One BLAS thread, as in the benchmark; set before numpy loads.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from lexpbs import cli, llp  # noqa: E402


def _month(text: str) -> tuple[int, int, int]:
    try:
        seed, pilots, pairings = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected seed,pilots,pairings, not {text!r}") from None
    return seed, pilots, pairings


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, not {text!r}")
    return value


@contextlib.contextmanager
def simplex_work():
    """Record the simplex work of the block into the dict it yields:
    under "path", the (row, column) of every `llp._Simplex._pivot` call,
    in order, each column in its simplex's own numbering; under "lu",
    the count of `llp.lu_factor` calls."""
    work = {"path": [], "lu": 0}
    pivot, lu_factor = llp._Simplex._pivot, llp.lu_factor

    def recorded_pivot(sx, row, j, column):
        work["path"].append((row, j))
        pivot(sx, row, j, column)

    def counted_lu(*args):
        work["lu"] += 1
        return lu_factor(*args)

    llp._Simplex._pivot, llp.lu_factor = recorded_pivot, counted_lu
    try:
        yield work
    finally:
        llp._Simplex._pivot, llp.lu_factor = pivot, lu_factor


def solve(work_dir: str, seed: int, pilots: int, pairings: int,
          repeat: int = 1) -> str:
    """The month's result line, with the median wall seconds of
    `repeat` solves."""
    name = f"s{seed}-{pilots}x{pairings}"
    inst, sol, stats = (os.path.join(work_dir, f"{name}.{kind}.json")
                        for kind in ("instance", "solution", "stats"))
    err = io.StringIO()
    times = []
    pivots = lu = "-"
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["generate", "--seed", str(seed), "-m", str(pilots),
                         "-n", str(pairings), "-o", inst])
        for _ in range(repeat):
            if code != cli.EXIT_OK:
                break
            with simplex_work() as work:
                t0 = time.perf_counter()
                code = cli.main(["solve", inst, "-o", sol,
                                 "--stats-out", stats])
                times.append(time.perf_counter() - t0)
            pivots, lu = len(work["path"]), work["lu"]
    elapsed = statistics.median(times) if times else 0.0
    counts = ["-"] * 3
    if code == cli.EXIT_OK:
        with open(stats, encoding="utf-8") as fh:
            s = json.load(fh)
        counts = [str(s["column_generation_iterations"]), str(s["pool_size"]),
                  f"{s['illp_nodes_lower']}/{s['illp_nodes_final']}"]
    line = (f"{name:<12} exit {code}  {elapsed:8.2f} s  pivots "
            f"{pivots:>7}  lu {lu:>7}  "
            f"iterations {counts[0]:>4}  pool {counts[1]:>6}  "
            f"nodes {counts[2]}")
    message = err.getvalue().strip()
    return f"{line}  ({message})" if code != cli.EXIT_OK and message else line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("months", nargs="+", type=_month,
                        metavar="seed,pilots,pairings")
    parser.add_argument("--repeat", type=_positive, default=1, metavar="N",
                        help="solve each month N times and print the "
                        "median wall seconds (default 1)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work_dir:
        for spec in args.months:
            print(solve(work_dir, *spec, args.repeat), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
