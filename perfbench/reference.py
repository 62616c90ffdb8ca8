"""Recompute the reference score vectors in expected.json.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/reference.py

Each instance of the workloads without an oracle check is solved
through ``colgen.run`` with the reduction pass off, so the reference
does not share the timed solve's pricing shortcut, and with the loop
exit verified by direct pricing of every pilot.  The command fails
unless every loop exit is verified.  The lexicographic optimum is
unique, so the vector identifies the right answer.
"""

from __future__ import annotations

import json
import os
import sys

from lexpbs import cli, colgen

from workloads import (
    ORACLE_WORKLOADS,
    WORKLOADS,
    generate_instance_dict,
    instance_name,
)

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def reference_vector(seed: int, pilots: int, pairings: int) -> list[int]:
    # Through the JSON form, exactly as the timed solve reads it.
    instance = cli.instance_from_dict(
        generate_instance_dict(seed, pilots, pairings))
    params = colgen.ColgenParams(use_reduction=False, verify_loop_exit=True)
    result = colgen.run(instance, params)
    if result.stats.loop_exit_verified is not True:
        raise RuntimeError(
            f"{instance_name(seed, pilots, pairings)}: loop exit not verified")
    return [round(v) for v in result.value]


def main() -> int:
    expected: dict[str, dict[str, list[int]]] = {}
    for workload, specs in WORKLOADS.items():
        if workload in ORACLE_WORKLOADS:
            continue
        expected[workload] = {}
        for spec in specs:
            name = instance_name(*spec)
            expected[workload][name] = reference_vector(*spec)
            print(f"{workload} {name}: {expected[workload][name]}",
                  file=sys.stderr, flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
