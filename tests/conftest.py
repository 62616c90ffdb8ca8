"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from lexpbs.pbs import MINUTES_PER_DAY, Instance, Pairing

#: Generated oracle-sized months, as (seed, pilots, pairings), whose
#: column generation ends at a fractional master optimum, so that both
#: integer solves and gap completion run.  Most generated months end
#: integral and stop at the master.
FRACTIONAL_MONTHS = [(1009, 3, 12), (1177, 3, 10), (1387, 3, 10),
                     (1543, 3, 11), (2103, 2, 11), (2323, 3, 11)]


def day_pairing(pid: str, start_day: int, end_day: int,
                hours: float = 8.0) -> Pairing:
    """A pairing spanning whole calendar days."""
    return Pairing(
        id=pid,
        start=start_day * MINUTES_PER_DAY + 360,
        end=end_day * MINUTES_PER_DAY + 1200,
        flight_hours=hours,
    )


def make_instance(pairings, scores, partition, month_days=30):
    """Instance with default legality limits and generated pilot ids."""
    scores = np.asarray(scores, dtype=int)
    pilot_ids = [f"pilot{i + 1:02d}" for i in range(scores.shape[0])]
    return Instance(
        month_days=month_days,
        pilot_ids=pilot_ids,
        pairings=list(pairings),
        scores=scores,
        initial_partition=[list(s) for s in partition],
    )


def rules_instance(**rules):
    """Three pilots, five pairings.  Under the default rules the optimum
    is (30, 10, 0); at most 10 days on and more than 600 minutes of
    rest between pairings (e ends 600 minutes before f starts) make it
    (20, 5, 2)."""
    pairings = [day_pairing("a", 0, 4), day_pairing("b", 6, 10),
                day_pairing("c", 12, 13), day_pairing("e", 16, 16),
                day_pairing("f", 17, 17)]
    scores = [[10, 10, 10, 0, 0], [0, 0, 0, 5, 5], [1, 1, 1, 1, 1]]
    inst = make_instance(pairings, scores, [["a", "b"], ["e"], ["c", "f"]])
    for name, value in rules.items():
        setattr(inst, name, value)
    return inst


def quarter_grid(rng: np.random.Generator, shape, lo=-100, hi=101):
    """Random array of quarter-integers; sums of these are exact floats."""
    return rng.integers(lo, hi, size=shape).astype(float) / 4.0


@pytest.fixture
def two_disjoint_instance():
    """Two sequential pairings with a gap, one per pilot."""
    p1 = day_pairing("p1", 0, 2)
    p2 = day_pairing("p2", 10, 12)
    scores = [[10, 20], [30, 40]]
    return make_instance([p1, p2], scores, [["p1"], ["p2"]])
