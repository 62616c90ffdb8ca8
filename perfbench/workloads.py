"""The benchmark's fixed instance lists.

Each instance is drawn by the repository's seeded ``lexpbs.cli.generate``
from a (seed, pilots, pairings) triple.  The lists are fixed so that
every run of a workload does the same work; the run's ``--seed`` only
sets the order in which a round takes them (see ``worker.py``).
"""

from __future__ import annotations

#: (generation seed, pilots, pairings) per workload.  README.md says
#: why each family was chosen.
WORKLOADS: dict[str, list[tuple[int, int, int]]] = {
    # Pricing-bound; seed 3 is the one generated 12x48 month whose
    # integer solves branch (11 nodes lower, 5 final, 424 gap columns).
    "mid-12x48": [(3, 12, 48)],
    # Many pilots, few pairings each: 16-30 lex levels per master LP.
    "wide-batch": [
        (1, 16, 24), (2, 20, 28), (3, 24, 32),
        (4, 30, 36), (5, 18, 26), (6, 26, 34),
    ],
    # Oracle-sized months (2-4 pilots x 8-12 pairings).
    "small-batch": [(s, 2 + s % 3, 8 + s % 5) for s in range(1, 49)],
}

#: Workloads whose answers are checked against the brute-force oracle
#: instead of the stored reference vectors.
ORACLE_WORKLOADS = {"small-batch"}

#: The untimed warm-up solve of set-up: small, so set-up stays short.
WARMUP = (0, 3, 9)


def instance_name(seed: int, pilots: int, pairings: int) -> str:
    return f"s{seed}-{pilots}x{pairings}"


def generate_instance_dict(seed: int, pilots: int, pairings: int) -> dict:
    """The instance as the CLI writes it to its JSON file."""
    from lexpbs import cli

    return cli.instance_to_dict(cli.generate(seed, pilots, pairings))
