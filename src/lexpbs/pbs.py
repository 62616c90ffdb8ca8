"""PBS domain: pairings, schedule legality, per-pilot DAG, resources.

Timestamps are minutes from the start of the month; a pairing occupies
the closed interval [start, end].  A calendar day is 1440 minutes and a
day is "on" iff some pairing of the schedule touches any minute of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import add
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .lexcore import LexValue
from .rclpp import COST_GRID, TOP, Arc, Dag, ResourceSpace

MINUTES_PER_DAY = 1440

ORIGIN = "o"
DEST = "d"


@dataclass(frozen=True)
class Pairing:
    id: str
    start: int
    end: int
    flight_hours: float

    def __post_init__(self):
        if not self.start < self.end:
            raise ValueError(f"pairing {self.id}: start must precede end")

    @property
    def start_day(self) -> int:
        return self.start // MINUTES_PER_DAY

    @property
    def end_day(self) -> int:
        return self.end // MINUTES_PER_DAY

    @property
    def days_on(self) -> int:
        """Calendar days intersected by [start, end]."""
        return self.end_day - self.start_day + 1

    def overlaps(self, other: "Pairing") -> bool:
        return self.start <= other.end and other.start <= self.end


@dataclass
class Instance:
    """A month of pairings with pilot scores and a feasible start partition.

    Pilots are ordered by seniority: index 0 is the most senior.
    """

    month_days: int
    pilot_ids: list[str]
    pairings: list[Pairing]
    scores: np.ndarray  # m x |P| integer matrix
    initial_partition: list[list[str]]  # pilot index -> pairing ids
    max_days_on: int = 17
    max_flight_hours: float = 85.0
    min_rest_minutes: int = 0
    min_consecutive_days_off: int = 7

    def __post_init__(self):
        self.scores = np.asarray(self.scores)
        self.pairing_index = {p.id: i for i, p in enumerate(self.pairings)}
        if len(self.pairing_index) != len(self.pairings):
            raise ValueError("duplicate pairing ids")

    @property
    def num_pilots(self) -> int:
        return len(self.pilot_ids)

    @property
    def num_pairings(self) -> int:
        return len(self.pairings)

    def pairing(self, pid: str) -> Pairing:
        return self.pairings[self.pairing_index[pid]]

    def score(self, pilot: int, pid: str) -> int:
        return int(self.scores[pilot, self.pairing_index[pid]])

    def schedule_score(self, pilot: int, pairing_ids: Iterable[str]) -> int:
        return sum(self.score(pilot, pid) for pid in pairing_ids)

    def validate(self) -> None:
        """Check referential integrity, that every pairing ends inside
        the month, and the initial partition."""
        if self.scores.shape != (self.num_pilots, self.num_pairings):
            raise ValueError("score matrix shape mismatch")
        for p in self.pairings:
            if p.end_day >= self.month_days:
                raise ValueError(
                    f"pairing {p.id} ends on day {p.end_day}, past the "
                    f"{self.month_days}-day month"
                )
        if len(self.initial_partition) != self.num_pilots:
            raise ValueError("initial partition must have one schedule per pilot")
        seen: set[str] = set()
        for i, sched in enumerate(self.initial_partition):
            for pid in sched:
                if pid not in self.pairing_index:
                    raise ValueError(f"unknown pairing id {pid!r} in partition")
                if pid in seen:
                    raise ValueError(f"pairing {pid!r} assigned twice")
                seen.add(pid)
            if not is_feasible(self, sched):
                raise ValueError(
                    f"initial schedule of pilot {self.pilot_ids[i]} is infeasible"
                )
        if seen != set(self.pairing_index):
            missing = sorted(set(self.pairing_index) - seen)
            raise ValueError(f"initial partition does not cover pairings {missing}")


def is_feasible(instance: Instance, pairing_ids: Iterable[str]) -> bool:
    """Schedule legality: no overlap, bounded days on and flight hours,
    and a long-enough run of whole days off within the month.

    Days on are counted per pairing and summed, matching the additive
    resource used by the pricing graph.
    """
    ps = sorted((instance.pairing(pid) for pid in pairing_ids),
                key=lambda p: p.start)
    for a, b in zip(ps, ps[1:]):
        if a.overlaps(b):
            return False
    if sum(p.days_on for p in ps) > instance.max_days_on:
        return False
    if sum(p.flight_hours for p in ps) > instance.max_flight_hours:
        return False
    on = np.zeros(instance.month_days, dtype=bool)
    for p in ps:
        on[p.start_day: min(p.end_day, instance.month_days - 1) + 1] = True
    best = run = 0
    for day_on in on:
        run = 0 if day_on else run + 1
        best = max(best, run)
    return best >= instance.min_consecutive_days_off


def _gap_days(instance: Instance, tail, head) -> int:
    """Whole calendar days off strictly between two consecutive
    activities; ORIGIN is the start of the month, DEST its end."""
    if tail == ORIGIN:
        last_on = -1
    else:
        last_on = tail.end_day
    if head == DEST:
        first_on = instance.month_days
    else:
        first_on = head.start_day
    return first_on - last_on - 1


def arc_constants(instance: Instance, arc: Arc) -> tuple[int, float, bool]:
    """What `arc` adds to any resource it extends: the head's days on
    and flight hours, and whether the arc spans the required run of
    whole days off."""
    tail = ORIGIN if arc.tail == ORIGIN else instance.pairing(arc.tail)
    if arc.head == DEST:
        head, days, hours = DEST, 0, 0.0
    else:
        head = instance.pairing(arc.head)
        days, hours = head.days_on, head.flight_hours
    gap_ok = _gap_days(instance, tail, head) \
        >= instance.min_consecutive_days_off
    return days, hours, gap_ok


def build_dag(instance: Instance) -> Dag:
    """The scheduling DAG shared by all pilots: one vertex per pairing
    plus the month boundaries, one arc per allowed succession.  It
    carries its compiled search table."""
    pairings = sorted(instance.pairings, key=lambda p: (p.start, p.end, p.id))
    vertices = [ORIGIN] + [p.id for p in pairings] + [DEST]
    arcs = []
    for p in pairings:
        arcs.append(Arc(ORIGIN, p.id))
        arcs.append(Arc(p.id, DEST))
    rest = instance.min_rest_minutes
    for p in pairings:
        for q in pairings:
            if q.start > p.end + rest:
                arcs.append(Arc(p.id, q.id))
    return Dag(vertices, arcs, ORIGIN, DEST,
               arc_constants=partial(arc_constants, instance))


class PbsResource(NamedTuple):
    """Four-tuple resource: days on, seven-off flag, flight hours, and
    the lexicographic cost accumulated so far."""

    days_on: int
    seven_off: int
    flight_hours: float
    cost: tuple[float, ...]


class ScheduleResourceSpace(ResourceSpace):
    """The concrete resource algebra on the scheduling DAG.

    Per-pairing cost vectors and the terminal cost are free parameters:
    with negated master duals they make path cost equal the reduced
    cost of the encoded column; with truncated negated duals they
    realize the shared lex-min problem of the reduction trick.  Every
    cost entry must be a multiple of 2^-30 (see rclpp), else ValueError.
    """

    #: Builds a reference resource; the search uses it for its results.
    resource = PbsResource

    def __init__(
        self,
        instance: Instance,
        pairing_costs: dict[str, Sequence[float]],
        terminal_cost: Sequence[float],
        cost_len: int,
    ):
        self.instance = instance
        self.cost_len = cost_len
        ids = list(pairing_costs)
        costs = np.array([*pairing_costs.values(), terminal_cost],
                         dtype=float).reshape(len(ids) + 1, -1)
        grid = costs * COST_GRID
        if not np.all(np.isfinite(grid) & (grid == np.floor(grid))):
            raise ValueError("every cost must be a multiple of 2^-30")
        rows = [tuple(r) for r in costs.tolist()]
        self.pairing_costs = dict(zip(ids, rows))
        self.terminal_cost = rows[-1]
        #: Cost of each head vertex in grid units, for the search.
        self.grid_costs = dict(zip(ids + [DEST], (
            tuple(map(int, r)) for r in grid.tolist()
        )))
        self.limits = (instance.max_days_on, instance.max_flight_hours)
        self._zero = PbsResource(0, 0, 0.0, (0.0,) * cost_len)

    # -- endpoints ---------------------------------------------------

    def initial(self, vertex):
        return self._zero if vertex == ORIGIN else TOP

    def initial_reverse(self, vertex):
        return self._zero if vertex == DEST else TOP

    # -- extensions --------------------------------------------------

    def arc_constants(self, arc: Arc) -> tuple[int, float, bool]:
        return arc_constants(self.instance, arc)

    def _step(self, arc: Arc, r: PbsResource):
        days, hours, gap_ok = arc_constants(self.instance, arc)
        cost = self.terminal_cost if arc.head == DEST \
            else self.pairing_costs[arc.head]
        return self._cap(
            r.days_on + days,
            1 if gap_ok else r.seven_off,
            r.flight_hours + hours,
            tuple(map(add, r.cost, cost)),
        )

    def _cap(self, days, flag, hours, cost):
        if days <= self.instance.max_days_on \
                and hours <= self.instance.max_flight_hours:
            return PbsResource(days, flag, hours, cost)
        return TOP

    def extend(self, arc: Arc, r):
        if r is TOP:
            return TOP
        out = self._step(arc, r)
        if out is TOP:
            return TOP
        if arc.head == DEST and out.seven_off != 1:
            return TOP
        return out

    def extend_reverse(self, arc: Arc, r):
        if r is TOP:
            return TOP
        out = self._step(arc, r)
        if out is TOP:
            return TOP
        if arc.tail == ORIGIN and out.seven_off != 1:
            return TOP
        return out

    # -- lattice -----------------------------------------------------

    def merge(self, r, r_reverse):
        if r is TOP or r_reverse is TOP:
            return TOP
        if max(r.seven_off, r_reverse.seven_off) != 1:
            return TOP
        return self._cap(
            r.days_on + r_reverse.days_on,
            1,
            r.flight_hours + r_reverse.flight_hours,
            tuple(map(add, r.cost, r_reverse.cost)),
        )

    def meet(self, resources):
        finite = [r for r in resources if r is not TOP]
        if not finite:
            return TOP
        return PbsResource(
            min(r.days_on for r in finite),
            max(r.seven_off for r in finite),
            min(r.flight_hours for r in finite),
            max((r.cost for r in finite)),  # tuple order is lex order
        )

    def leq(self, r1, r2):
        if r2 is TOP:
            return True
        if r1 is TOP:
            return False
        return (
            r1.days_on <= r2.days_on
            and r1.seven_off >= r2.seven_off
            and r1.flight_hours <= r2.flight_hours
            and r1.cost >= r2.cost
        )

    def cost(self, r) -> LexValue:
        if r is TOP:
            return self.neg_inf_cost()
        return LexValue(r.cost)


def make_resource_space(
    instance: Instance,
    pilot: int,
    assignment_duals: np.ndarray,  # m x m, entry [l, i]
    pairing_duals: np.ndarray,  # m x |P|, entry [l, p]
) -> ScheduleResourceSpace:
    """Resource space whose path costs equal lexicographic reduced
    costs of pilot `pilot`'s columns under the given master duals.

    The shared dual terms are stored negated on the arcs, so that
    lex-maximizing the path cost maximizes the reduced cost directly.
    """
    m = instance.num_pilots
    if assignment_duals.shape != (m, m) \
            or pairing_duals.shape != (m, instance.num_pairings):
        raise ValueError("dual array shapes do not match the instance")
    costs = {}
    for j, p in enumerate(instance.pairings):
        v = -pairing_duals[:, j].copy()
        v[pilot] += instance.scores[pilot, j]
        costs[p.id] = v
    terminal = -assignment_duals[:, pilot]
    return ScheduleResourceSpace(instance, costs, terminal, m)


def make_reduction_space(
    instance: Instance,
    pairing_duals: np.ndarray,
) -> ScheduleResourceSpace:
    """Resource space for the shared problem of the reduction trick:
    lex-minimize the first m-1 rows of the pairing duals over feasible
    schedules, realized as a lex-max of their negations."""
    m = instance.num_pilots
    if m < 2:
        raise ValueError("reduction trick needs at least two pilots")
    costs = {
        p.id: -pairing_duals[: m - 1, j]
        for j, p in enumerate(instance.pairings)
    }
    terminal = np.zeros(m - 1)
    return ScheduleResourceSpace(instance, costs, terminal, m - 1)


def schedule_to_path_cost(
    space: ScheduleResourceSpace, pairing_ids: Sequence[str]
) -> LexValue:
    """Fold the forward extension along the schedule's unique o-d path;
    TOP (infeasible) folds to all -inf."""
    ordered = sorted(pairing_ids, key=lambda pid: space.instance.pairing(pid).start)
    r = space.initial(ORIGIN)
    prev = ORIGIN
    for pid in ordered:
        r = space.extend(Arc(prev, pid), r)
        prev = pid
    r = space.extend(Arc(prev, DEST), r)
    return space.cost(r)
