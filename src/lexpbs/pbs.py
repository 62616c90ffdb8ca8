"""PBS domain: pairings, schedule legality, per-pilot DAG, resources.

Timestamps are minutes from the start of the month; a pairing occupies
the closed interval [start, end].  A calendar day is 1440 minutes and a
day is "on" iff some pairing of the schedule touches any minute of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from operator import add
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .lexcore import LexValue
from .rclpp import COST_GRID, TOP, Arc, ArcTable, Dag, KeyCodec

MINUTES_PER_DAY = 1440

#: The largest |score| an instance may hold, 10 times the generator's
#: range (0-100).  Pricing keeps exact order on the snapped duals, but
#: the master's duals carry float noise, and with large scores that
#: noise outgrows the 2^-31 snap: a column whose reduced cost is
#: lex-positive under the 1e-6 rule then ranks below paths whose
#: leading level is exactly 0, and column generation stops short of
#: the optimum.  Measured over the 200 acceptance months with every
#: score multiplied by k: no wrong answer up to k = 3e4 (max 3e6),
#: wrong answers from k = 1e5; 10x40 months of seeds 1-2 already
#: disagree between reduction on and off at k = 1000 (max 1e5), 100
#: times this limit.  The limit is measured, not proven.
MAX_ABS_SCORE = 1000

#: The scheduling DAG's month-boundary vertices.  They are not strings,
#: so no pairing id can equal one.
ORIGIN, DEST = Enum("Boundary", "ORIGIN DEST")


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
        """Check that the month has a day, that there is a pilot and no
        pilot id repeats, that the rule limits are finite and
        non-negative, that every score lies within +-MAX_ABS_SCORE,
        referential integrity, that every pairing lies inside the month
        with finite, non-negative flight hours, and the initial
        partition (`check_partition`)."""
        if self.month_days < 1:
            raise ValueError(
                f"month_days must be at least 1, not {self.month_days}")
        if not self.pilot_ids:
            raise ValueError("an instance needs at least one pilot")
        if len(set(self.pilot_ids)) != self.num_pilots:
            raise ValueError("duplicate pilot ids")
        for name in ("max_days_on", "max_flight_hours", "min_rest_minutes",
                     "min_consecutive_days_off"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # exact for an int of any size
                raise ValueError(
                    f"{name} must be finite and non-negative, not {value}")
        if self.scores.shape != (self.num_pilots, self.num_pairings):
            raise ValueError("score matrix shape mismatch")
        beyond = np.argwhere(np.abs(self.scores) > MAX_ABS_SCORE)
        if beyond.size:
            i, j = beyond[0]
            raise ValueError(
                f"pilot {self.pilot_ids[i]} scores {self.scores[i, j]} on "
                f"pairing {self.pairings[j].id}; scores must lie within "
                f"+-{MAX_ABS_SCORE}"
            )
        for p in self.pairings:
            if p.start < 0:
                raise ValueError(
                    f"pairing {p.id} starts at minute {p.start}, before "
                    f"the month"
                )
            if p.end_day >= self.month_days:
                raise ValueError(
                    f"pairing {p.id} ends on day {p.end_day}, past the "
                    f"{self.month_days}-day month"
                )
            # Pricing drops a partial schedule over the hours limit,
            # which is sound only when no pairing has negative hours.
            if not (math.isfinite(p.flight_hours) and p.flight_hours >= 0):
                raise ValueError(
                    f"pairing {p.id} has {p.flight_hours} flight hours; "
                    f"they must be finite and non-negative"
                )
        self.check_partition(self.initial_partition)

    def check_partition(self, schedules: Sequence[Iterable[str]]) -> None:
        """Check that `schedules` give one schedule per pilot, of known
        pairing ids, each pairing at most once, each schedule feasible,
        and that they cover every pairing; ValueError otherwise."""
        if len(schedules) != self.num_pilots:
            raise ValueError(
                f"a partition needs one schedule per pilot: "
                f"{len(schedules)} for {self.num_pilots} pilots")
        seen: set[str] = set()
        for i, sched in enumerate(schedules):
            for pid in sched:
                if pid not in self.pairing_index:
                    raise ValueError(f"unknown pairing id {pid!r} in partition")
                if pid in seen:
                    raise ValueError(f"pairing {pid!r} assigned twice")
                seen.add(pid)
            if not is_feasible(self, sched):
                raise ValueError(
                    f"schedule of pilot {self.pilot_ids[i]} is infeasible")
        if len(seen) != self.num_pairings:
            missing = sorted(set(self.pairing_index) - seen)
            raise ValueError(f"partition does not cover pairings {missing}")


def is_feasible(instance: Instance, pairing_ids: Iterable[str]) -> bool:
    """Schedule legality: more than `min_rest_minutes` between
    consecutive pairings (so no overlap), bounded days on and flight
    hours, and a long-enough run of whole days off within the month.

    Days on are counted per pairing and summed, matching the additive
    resource used by the pricing graph.
    """
    ps = sorted((instance.pairing(pid) for pid in pairing_ids),
                key=lambda p: p.start)
    for a, b in zip(ps, ps[1:]):
        if b.start <= a.end + instance.min_rest_minutes:
            return False
    if sum(p.days_on for p in ps) > instance.max_days_on:
        return False
    if sum(p.flight_hours for p in ps) > instance.max_flight_hours:
        return False
    # The longest run of days off is the widest gap between consecutive
    # activities, the month's boundaries included: the rule of the
    # DAG's arcs.
    stops = [ORIGIN, *ps, DEST]
    return max(_gap_days(instance, a, b) for a, b in zip(stops, stops[1:])) \
        >= instance.min_consecutive_days_off


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


def _grid_rows(costs: np.ndarray) -> list[tuple[int, ...]]:
    """The rows of `costs` in grid units, as exact ints (grid values are
    unbounded, so each goes through a Python int); ValueError unless
    every entry is a finite multiple of 2^-30."""
    grid = costs * COST_GRID
    if not np.all(np.isfinite(grid) & (grid == np.floor(grid))):
        raise ValueError("every cost must be a multiple of 2^-30")
    return [tuple(map(int, r)) for r in grid.tolist()]


class ScheduleResourceSpace:
    """The resource algebra on the scheduling DAG.

    Resources live in a meet-semilattice with top element TOP; the cost
    map is non-increasing, arc extensions (forward and reverse) are
    non-decreasing, and the merge of a forward and a reverse resource
    lower-bounds the resource of the concatenated path.  These methods
    are the reference definition; the search runs on a compiled form of
    them and reads `cost_len`, `head_keys`, `limits` and `resource`.

    Per-pairing cost vectors and the terminal cost are free parameters:
    with negated master duals they make path cost equal the reduced
    cost of the encoded column; with truncated negated duals they
    realize the shared lex-min problem of the reduction trick.

    A space is its head keys: under `codec`, `keys[j]` is the cost key
    of pairing `ids[j]` and `terminal_key` that of the terminal (see
    rclpp); the codec must bound every path cost, so per level the sum
    of |digit| over the keys must stay below its half.  `head_keys`
    places the keys on the vertices of a DAG table; `pairing_costs`,
    `terminal_cost` and `grid_costs` decode them when first read.
    `from_costs` and `from_array` build a space from float cost entries,
    which must be multiples of 2^-30 (else ValueError), and fit a codec
    to their digits; only tests build their reference spaces so.
    """

    #: Builds a reference resource; a search result calls it when its
    #: `resource` is first read.
    resource = PbsResource

    def __init__(self, instance: Instance, codec: KeyCodec, ids: list[str],
                 keys: list[int], terminal_key: int):
        self.instance = instance
        self.cost_len = codec.length
        self.limits = (instance.max_days_on, instance.max_flight_hours)
        self.codec = codec
        self.ids, self.keys, self.terminal_key = ids, keys, terminal_key

    @classmethod
    def from_costs(cls, instance: Instance,
                   pairing_costs: dict[str, Sequence[float]],
                   terminal_cost: Sequence[float],
                   cost_len: int) -> "ScheduleResourceSpace":
        """The space whose pairing `pid` costs `pairing_costs[pid]` and
        whose terminal costs `terminal_cost`, each of `cost_len`
        levels."""
        costs = np.array([*pairing_costs.values(), terminal_cost],
                         dtype=float).reshape(len(pairing_costs) + 1, -1)
        # Every path cost digit is bounded by the per-level sum of |d|
        # over all rows.
        rows = _grid_rows(costs)
        sums = [sum(map(abs, level)) for level in zip(*rows)]
        codec = KeyCodec(cost_len, max(sums, default=0))
        *keys, terminal_key = map(codec.encode, rows)
        return cls(instance, codec, list(pairing_costs), keys, terminal_key)

    @classmethod
    def from_array(cls, instance: Instance,
                   costs: np.ndarray) -> "ScheduleResourceSpace":
        """The space whose row j of `costs` is the cost of pairing j (in
        instance order) and whose last row is the terminal cost."""
        return cls.from_costs(
            instance, dict(zip(instance.pairing_index, costs[:-1])),
            costs[-1], costs.shape[1])

    def head_keys(self, table: ArcTable) -> tuple[KeyCodec, list[int]]:
        """The codec and the key of each head per vertex index of
        `table`, 0 at a vertex without one."""
        out = [0] * len(table.vertices)
        index = table.index
        for pid, key in zip(self.ids, self.keys):
            v = index.get(pid)
            if v is not None:
                out[v] = key
        out[table.destination] = self.terminal_key
        return self.codec, out

    @cached_property
    def pairing_costs(self) -> dict[str, tuple[float, ...]]:
        return dict(zip(self.ids, map(self.codec.cost, self.keys)))

    @cached_property
    def terminal_cost(self) -> tuple[float, ...]:
        return self.codec.cost(self.terminal_key)

    @cached_property
    def grid_costs(self) -> dict:
        """Cost of each head vertex in grid units."""
        return dict(zip(self.ids + [DEST], map(
            self.codec.decode, self.keys + [self.terminal_key])))

    @cached_property
    def _zero(self) -> PbsResource:
        return PbsResource(0, 0, 0.0, (0.0,) * self.cost_len)

    # -- endpoints ---------------------------------------------------

    def initial(self, vertex):
        return self._zero if vertex == ORIGIN else TOP

    def initial_reverse(self, vertex):
        return self._zero if vertex == DEST else TOP

    # -- extensions --------------------------------------------------

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
            return LexValue.neg_infinite(self.cost_len)
        return LexValue(r.cost)


class DualGrid:
    """The master duals of one pricing round, shared by the pricing
    spaces of every pilot.

    In grid units, pilot i's cost digits of pairing p are the negated
    pairing duals -mu[:, p] plus, at level i only, its score of p; those
    of the destination are its negated assignment duals -lam[:, i].  One
    codec fits every pilot's digits, so each pairing's negated duals are
    encoded once per round, in instance order, and pilot i's key of p
    is that key plus score[i, p] units of level i.  Keys stay exact
    ints, so every comparison of a search matches that under a
    per-pilot codec.  `space(i)` is pilot i's space, and
    `make_reduction_space` reads the reduction pass's space off the
    same digits (`head_digits`) and codec width.
    """

    def __init__(self, instance: Instance,
                 assignment_duals: np.ndarray,  # m x m, entry [l, i]
                 pairing_duals: np.ndarray):  # m x |P|, entry [l, p]
        m, n = instance.num_pilots, instance.num_pairings
        if assignment_duals.shape != (m, m) or pairing_duals.shape != (m, n):
            raise ValueError("dual array shapes do not match the instance")
        self.instance = instance
        self.assignment_duals = assignment_duals
        self.pairing_duals = pairing_duals
        #: Per pairing, in instance order: its negated duals in grid
        #: units, every pilot's key digits but at the pilot's own level.
        self.head_digits = heads = _grid_rows(-pairing_duals.T)
        self._terminals = _grid_rows(-assignment_duals.T)
        #: The gcd of 2^30 and every head and terminal digit: each cost
        #: digit of any pilot's path is a multiple of it.
        self.unit = math.gcd(COST_GRID,
                             *(d for row in heads + self._terminals
                               for d in row))
        # Per level l: every pairing's |dual digit| (the zero row keeps
        # m levels without pairings), pilot l's scores and the largest
        # terminal digit of any pilot.
        scores = instance.scores.tolist()
        sums = [sum(map(abs, level)) + COST_GRID * sum(map(abs, row))
                + max(map(abs, terminals))
                for level, row, terminals in zip(
                    zip((0,) * m, *heads), scores, zip(*self._terminals))]
        self.codec = KeyCodec(m, max(sums, default=0))
        self.ids = [p.id for p in instance.pairings]
        self._heads = list(map(self.codec.encode, heads))
        self._scores = scores

    def space(self, pilot: int) -> ScheduleResourceSpace:
        """Pilot `pilot`'s pricing space under these duals."""
        codec = self.codec
        unit = COST_GRID << codec.shift * (codec.length - 1 - pilot)
        keys = [b + g * unit
                for b, g in zip(self._heads, self._scores[pilot])]
        return ScheduleResourceSpace(
            self.instance, codec, self.ids, keys,
            codec.encode(self._terminals[pilot]))


def make_resource_space(
    instance: Instance,
    pilot: int,
    assignment_duals: np.ndarray,  # m x m, entry [l, i]
    pairing_duals: np.ndarray,  # m x |P|, entry [l, p]
    grid: DualGrid | None = None,
) -> ScheduleResourceSpace:
    """Resource space whose path costs equal lexicographic reduced
    costs of pilot `pilot`'s columns under the given master duals.

    The shared dual terms are stored negated on the arcs, so that
    lex-maximizing the path cost maximizes the reduced cost directly.
    `grid`, the `DualGrid` of these duals, lets the spaces of one
    pricing round share their encoding; without it the space gets a
    grid of its own.
    """
    if grid is None:
        grid = DualGrid(instance, assignment_duals, pairing_duals)
    return grid.space(pilot)


def make_reduction_space(grid: DualGrid) -> ScheduleResourceSpace:
    """Resource space for the shared problem of the reduction trick:
    lex-minimize the first m-1 rows of the round's pairing duals over
    feasible schedules, realized as a lex-max of their negations.  Its
    head keys are the grid's pairing digits at levels 1..m-1, under an
    (m-1)-digit codec as wide as the grid's, and its terminal key is 0."""
    m = grid.instance.num_pilots
    if m < 2:
        raise ValueError("reduction trick needs at least two pilots")
    codec = KeyCodec(m - 1, grid.codec.half - 1)
    keys = [codec.encode(row[: m - 1]) for row in grid.head_digits]
    return ScheduleResourceSpace(grid.instance, codec, grid.ids, keys, 0)


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
