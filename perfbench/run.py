"""Solve benchmark for lexpbs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mid-12x48 --seed 1 --seconds 20 --trace 0

Set-up runs in a fresh interpreter several times in a row (only the
last one goes on to solve), so ``setup_s`` is a median that includes
interpreter start and imports.  The solving process is single-threaded
and nothing else runs while it measures.  The last line of standard
output is the JSON result; it is also written to
``perfbench/work/<workload>/result.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from hostprobe import HostProbe
from workloads import WORKLOADS  # imports no lexpbs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 5
#: Probe units run right before and right after each set-up.
SETUP_PROBE_UNITS = 100
#: Wall-clock budget of the whole run, all processes included.
DEADLINE_S = 175.0
#: One thread for BLAS/LAPACK: the solve is measured single-threaded.
SINGLE_THREAD = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RunError(Exception):
    pass


def _worker(cmd: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run one worker to its end; (set-up seconds, its stdout)."""
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    if not lines or not lines[0].startswith("READY "):
        raise RunError("worker did not finish set-up")
    return float(lines[0].split()[1]) - launched, out


def main() -> int:
    parser = argparse.ArgumentParser(description="lexpbs solve benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lexpbs", "cli.py")):
        print(f"error: no lexpbs sources under {src}", file=sys.stderr)
        return 2
    work_dir = os.path.join(HERE, "work", args.workload)
    env = dict(os.environ, PYTHONPATH=src, **SINGLE_THREAD)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]

    # Set-ups and solves all run on one CPU, and each set-up is rescaled
    # to the reference host by probe samples taken on that CPU, in this
    # process, just before and just after it.  (The two CPUs of a small
    # virtual machine can differ in speed for minutes at a time.)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probe = HostProbe()
    setups = []
    try:
        for k in range(1 if args.trace else SETUP_REPEATS):
            mark = (probe.probe_s, probe.units)
            probe.sample(SETUP_PROBE_UNITS)
            last = k == SETUP_REPEATS - 1 or args.trace
            setup_s, out = _worker(cmd if last else cmd + ["--setup-only"],
                                   env, deadline)
            probe.sample(SETUP_PROBE_UNITS)
            scale = probe.scale_since(mark)
            print(f"set-up: {setup_s:.3f} s wall, {setup_s * scale:.3f} s "
                  f"rescaled", file=sys.stderr)
            setups.append(setup_s * scale)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
    line = json.dumps(result)
    with open(os.path.join(work_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
