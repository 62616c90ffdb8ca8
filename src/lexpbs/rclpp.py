"""Lexicographic resource-constrained longest paths on DAGs.

Implements the bound table (a meet over the reverse-extended resources
of all paths to the destination) and one label-setting search with
bound pruning: keep at most n feasible paths whose cost is at least a
floor F.  Its three entry points are the lexicographically longest path
(n = 1, no floor), the n best paths (with or without a floor) and every
path whose cost clears a threshold (n unbounded, F the threshold on the
cost grid).

`pbs.ScheduleResourceSpace` is the reference definition of the resource
algebra.  The search itself runs on a compiled integer form of it:

* Costs are exact.  Every cost entry is an integer multiple of
  1/COST_GRID (2^-30; colgen snaps the master duals to this grid), so
  a cost vector is an integer digit vector d_0..d_{m-1}.
* A digit vector is one Python int, the key sum(d_l * B^(m-1-l)).  B is
  a power of two (`KeyCodec`) above twice the largest per-level sum of
  |d| over all heads of the DAG.  Every partial path cost and merged
  bound then has all digits strictly inside (-B/2, B/2), where integer
  order equals lex order exactly and one int addition replaces a tuple
  addition.  "No feasible completion" is the int `KeyCodec.none`, below
  any key plus any path cost and below every threshold (never float
  -inf, which overflows when added to a key past 2^1024).
* The DAG is compiled once (`ArcTable`, built by the DAG's owner) into
  per-vertex tuples of arc constants; the space supplies the two
  capacity limits and, through `head_keys(table)`, its codec and the
  key of each head per vertex index (the spaces of one pricing round
  share one codec, see `pbs.DualGrid`).
* Besides the per-vertex bounds, each pricing call tabulates, per
  vertex and remaining days-on budget, the largest key of a completion
  to the destination within that budget, and, for a search with a
  floor that the root's entry clears, the largest key of such a
  completion with an off-gap arc.  Both tables come from one dynamic
  program over the DAG's suffix form (`_suffix_table`); each brings its
  own row signature and row rule, and vertices of equal signature
  share one row.  A label merges its key with the entry at its own
  remaining budget, for cuts, queue priority and early stop alike; a
  label without its days off yet is cut on the second table.  A cut
  label has no descendant that could be kept, and the labels that
  remain keep their order, so the cuts change no kept path, tie or
  order.
* A result carries its final label's key, not its parent chain; its
  float cost and reference resource are built only when first read.
* A threshold level maps to the nearest grid point, an exact half
  rounding down; a level at -inf lets every deeper level pass.  On the
  grid this keeps every path within 2^-31 of the threshold at each
  level, and at an exact half it also admits the grid point above.
* A threshold digit outside the codec's range is clamped to
  [-B/2, B/2].  Every key and merged bound has its digits strictly
  inside (-B/2, B/2), so a clamped digit compares with each of theirs
  as the original did, and integer order stays lex order against a
  vector with digits in [-B/2, B/2]: the tail of a difference is at
  most (B-1) * sum_{i<j} B^i < B^j.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from graphlib import TopologicalSorter
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from .lexcore import NEG_INF, LexValue

#: Pricing costs are integer multiples of 1 / COST_GRID.
COST_GRID = 2 ** 30


class _Top:
    """The unique top resource; resource of any infeasible path."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "TOP"


TOP = _Top()


class Arc(NamedTuple):
    tail: Hashable
    head: Hashable


#: What an arc adds to any resource it extends: the head's days on and
#: flight hours, and whether the arc spans a long enough run of days off.
ArcConstants = Callable[[Arc], tuple[int, float, bool]]


class Dag:
    """Directed acyclic graph with distinguished origin and destination.

    With `arc_constants`, the DAG also carries its compiled search
    table, which the bound table and the search need; compiling needs
    the suffix form that `ArcTable` describes (else ValueError).
    """

    def __init__(self, vertices: Iterable[Hashable], arcs: Iterable[Arc],
                 origin: Hashable, destination: Hashable,
                 arc_constants: ArcConstants | None = None):
        self.vertices = list(vertices)
        self.arcs = list(arcs)
        self.origin = origin
        self.destination = destination
        self.out_arcs: dict[Hashable, list[Arc]] = {v: [] for v in self.vertices}
        tails: dict[Hashable, list[Hashable]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            self.out_arcs[a.tail].append(a)
            tails[a.head].append(a.tail)
        ts = TopologicalSorter(tails)
        self.topo_order = list(ts.static_order())
        self.topo_index = {v: i for i, v in enumerate(self.topo_order)}
        self.table = None if arc_constants is None \
            else ArcTable(self, arc_constants)


class ArcTable:
    """A DAG compiled for the label search.

    Vertex i is `dag.topo_order[i]`, so heads have larger indices than
    tails.  `out[i]` lists the out-arcs of vertex i in the order of
    `dag.out_arcs` and `out_desc[i]` by descending head index, each as a
    tuple (head, head days on, head flight hours, off-gap flag 1/0, head
    is the destination, tail is the origin).

    The completion tables need the DAG's suffix form: `chain` lists the
    indices of the vertices other than origin and destination in
    `dag.vertices` order, and the out-arcs of each vertex i other than
    the destination go to `chain[first[i]:]`, plus to the destination
    when `dest_days[i]` (that arc's days on) is not None.  Of these, the
    off-gap arcs go to `chain[gap_first[i]:]`, plus to the destination
    when `dest_gap[i]`.  Every arc into `chain[j]` adds `chain_days[j]`
    days on.  `max_path_days` is the most days on of any
    origin-destination path (0 if none).  ValueError when the DAG has no
    such form.
    """

    def __init__(self, dag: Dag, arc_constants: ArcConstants):
        self.vertices = dag.topo_order
        self.index = dag.topo_index
        self.origin = self.index[dag.origin]
        self.destination = self.index[dag.destination]
        rows = {}
        for arc in dag.arcs:
            days, hours, gap_ok = arc_constants(arc)
            rows[arc] = (self.index[arc.head], days, hours, 1 if gap_ok else 0,
                         arc.head == dag.destination, arc.tail == dag.origin)
        self.out = [[rows[a] for a in dag.out_arcs[v]] for v in self.vertices]
        self.out_desc = [sorted(row, key=lambda r: -r[0]) for row in self.out]

        self.chain = [self.index[v] for v in dag.vertices
                      if v != dag.origin and v != dag.destination]
        position = {v: j for j, v in enumerate(self.chain)}
        end = len(self.chain)
        self.chain_days: list = [None] * end
        self.first = [end] * len(self.vertices)
        self.gap_first = [end] * len(self.vertices)
        self.dest_days: list = [None] * len(self.vertices)
        self.dest_gap = [False] * len(self.vertices)
        for i, out in enumerate(self.out):
            if i == self.destination:
                continue
            heads, gap_heads = [], []
            for h, days, _, gap, *_ in out:
                if h == self.destination:
                    self.dest_days[i] = days
                    self.dest_gap[i] = bool(gap)
                    continue
                j = position.get(h, -1)
                if j < 0 or self.chain_days[j] not in (None, days):
                    raise ValueError(f"arcs into {self.vertices[h]!r} do not "
                                     "fit the suffix form")
                self.chain_days[j] = days
                heads.append(j)
                if gap:
                    gap_heads.append(j)
            for js, what in ((heads, "out-arcs"), (gap_heads, "off-gap arcs")):
                js.sort()
                if js and js != list(range(js[0], end)):
                    raise ValueError(f"the {what} of {self.vertices[i]!r} "
                                     "are not a suffix of the vertex order")
            if heads:
                self.first[i] = heads[0]
            if gap_heads:
                self.gap_first[i] = gap_heads[0]
        # A vertex that no arc enters is in no out-set: its days are
        # never read.
        self.chain_days = [d or 0 for d in self.chain_days]
        longest: list = [None] * len(self.vertices)
        longest[self.destination] = 0
        for i in range(len(self.vertices) - 1, -1, -1):
            for h, days, *_ in self.out[i]:
                if longest[h] is not None and (
                        longest[i] is None or longest[h] + days > longest[i]):
                    longest[i] = longest[h] + days
        self.max_path_days = longest[self.origin] or 0
        self._resource_rows: dict = {}

    def admitted(self, v: int, rows: list, limits) -> Iterator[tuple]:
        """The reverse resources (head, days on, off-gap flag, flight
        hours) of the out-arcs of vertex v over the head rows `rows`
        that stay within `limits`; an arc out of the origin also needs
        the off-gap flag."""
        max_days, max_hours = limits
        for h, hd, hh, gap, _, from_origin in self.out[v]:
            b = rows[h]
            if b is None:
                continue
            days, flag, hours = b[0] + hd, gap or b[1], b[2] + hh
            if days <= max_days and hours <= max_hours \
                    and (flag or not from_origin):
                yield h, days, flag, hours

    def resource_rows(self, limits) -> list:
        """Per vertex index, the meet (fewest days on, off-gap flag,
        fewest flight hours) of the reverse resources of its paths to
        the destination within `limits` (days on, flight hours), or
        None for TOP (empty meet).  No cost enters it, so it is computed
        once per DAG and limits."""
        limits = tuple(limits)
        rows = self._resource_rows.get(limits)
        if rows is None:
            rows = [None] * len(self.vertices)
            rows[self.destination] = (0, 0, 0.0)
            for v in range(len(rows) - 1, -1, -1):
                ext = [] if v == self.destination \
                    else list(self.admitted(v, rows, limits))
                if ext:
                    rows[v] = (min(e[1] for e in ext), max(e[2] for e in ext),
                               min(e[3] for e in ext))
            self._resource_rows[limits] = rows
        return rows


class KeyCodec:
    """Integer lex keys for digit vectors of a fixed length.

    A vector d_0..d_{m-1} with every |d_l| < half = 2^(shift-1) is the
    int sum(d_l * 2^(shift*(m-1-l))).  On such vectors the map is
    injective and integer order is lex order.
    """

    __slots__ = ("length", "shift", "half", "none", "_offset", "_places")

    def __init__(self, length: int, magnitude: int):
        """Codec for `length` digits of absolute value at most
        `magnitude`."""
        self.length = length
        self.shift = magnitude.bit_length() + 1
        self.half = 1 << (self.shift - 1)
        #: Every key lies strictly inside (-2^(shift*length),
        #: 2^(shift*length)), so `none` plus any key is below every key.
        self.none = -1 << (self.shift * length + 1)
        self._places = range(self.shift * (length - 1), -1, -self.shift)
        #: Adds half to every digit: each is then a non-negative field
        #: of `shift` bits, read without borrows.
        self._offset = sum(self.half << p for p in self._places)

    def encode(self, digits: Iterable[int]) -> int:
        key, shift = 0, self.shift
        for d in digits:
            key = (key << shift) + d
        return key

    def decode(self, key: int) -> tuple[int, ...]:
        u, half = key + self._offset, self.half
        mask = (1 << self.shift) - 1
        return tuple([((u >> p) & mask) - half for p in self._places])

    def cost(self, key: int) -> tuple[float, ...]:
        """The cost entries a key encodes; exact floats."""
        return tuple([d / COST_GRID for d in self.decode(key)])


class BoundTable(Mapping):
    """The bounds of one DAG under one resource space.

    The search reads `rows`, `ArcTable.resource_rows` under the space's
    limits, and `completions`: per vertex index, for each remaining
    days-on budget r < `width`, the largest key under `codec` of a
    completion to the destination with at most r days on, or
    `codec.none`.  A budget beyond the width changes no entry.
    `rest_completions` is the same table over the completions that
    contain an off-gap arc, those open to a label that has not had its
    days off yet; it is built from the suffix maxima `best` of the first
    table when first read, which a search does only when it has a floor
    and the root's entry at the full budget clears it.  In both tables,
    vertices whose completions start alike share one row object.
    Indexing by vertex gives the reference resource (the row with the
    largest cost of the completions the row admits), or TOP.
    """

    def __init__(self, dag: Dag, space, table: ArcTable, codec: KeyCodec,
                 head_keys: list[int], rows: list, completions: list,
                 best: list):
        self.dag = dag
        self.space = space
        self.table = table
        self.codec = codec
        self.head_keys = head_keys
        self.rows = rows
        self.completions = completions
        self.width = len(completions[table.destination])
        self._best = best
        self._cost_keys: list | None = None

    @cached_property
    def rest_completions(self) -> list:
        return _rest_completion_table(self.table, self.head_keys,
                                      self.codec.none, self._best)

    def __getitem__(self, vertex):
        v = self.table.index[vertex]
        row = self.rows[v]
        if row is None:
            return TOP
        if self._cost_keys is None:
            self._cost_keys = self._reference_cost_keys()
        days, flag, hours = row
        return self.space.resource(days, flag, hours,
                                   self.codec.cost(self._cost_keys[v]))

    def __iter__(self):
        return iter(self.table.vertices)

    def __len__(self) -> int:
        return len(self.rows)

    def _reference_cost_keys(self) -> list:
        """Per vertex index, the largest cost key over the arcs that its
        row admits, by the same reverse DP as the rows."""
        table, rows, keys = self.table, self.rows, self.head_keys
        limits = self.space.limits
        out: list = [None] * len(rows)
        out[table.destination] = 0
        for v in range(len(rows) - 1, -1, -1):
            if v != table.destination and rows[v] is not None:
                out[v] = max(out[h] + keys[h]
                             for h, *_ in table.admitted(v, rows, limits))
        return out


def _with_dest(row: list, days: int | None, key: int) -> list:
    """A sorted completion row merged with an arc to the destination of
    `days` days on (None: no such arc) and key `key`."""
    if days is not None and days < len(row):
        t = bisect_left(row, key, days)
        row = row[:days] + [key] * (t - days) + row[t:]
    return row


def _lift(below: list, row: list, k: int, days: int, none: int) -> list:
    """The sorted row `below` raised to key k plus the sorted row `row`
    shifted by `days`, entry by entry."""
    width = len(below)
    z = bisect_right(row, none)
    if z + days >= width:
        return below
    out = below[:]
    t = z + days
    for x in row[z: width - days]:
        c = k + x
        if c > out[t]:
            out[t] = c
        t += 1
    return out


def _suffix_table(table: ArcTable, keys: list[int], none: int,
                  dest_row: list, signature, row_at) -> tuple[list, list]:
    """A completion table by a DP over the suffix form, O(|V| width),
    and the suffix maxima it is built from.

    suffix[j][r] is the largest key of a table completion whose first
    arc goes to some chain[j'] with j' >= j, within budget r; the last
    entry, past the chain, is all `none`.  The destination's row is
    `dest_row`.  Vertices of equal `signature(v)` share their row,
    `row_at(sig, suffix)`, which reads only the entries of `suffix`
    past the vertex.  Every row is sorted: a larger budget admits more
    completions, and no key is ever added to `none`."""
    rows: list = [None] * len(table.vertices)
    rows[table.destination] = dest_row
    suffix = [None] * len(table.chain) + [[none] * len(dest_row)]
    shared: dict = {}

    def complete(v):
        sig = signature(v)
        row = shared.get(sig)
        if row is None:
            row = shared[sig] = row_at(sig, suffix)
        rows[v] = row
        return row

    for j in range(len(table.chain) - 1, -1, -1):
        v = table.chain[j]
        suffix[j] = _lift(suffix[j + 1], complete(v), keys[v],
                          table.chain_days[j], none)
    complete(table.origin)
    return rows, suffix


def _rest_completion_table(table: ArcTable, keys: list[int], none: int,
                           best: list) -> list:
    """`BoundTable.rest_completions`: the completions with an off-gap
    arc, given the suffix maxima `best` of `BoundTable.completions`.

    One of a vertex either starts with an off-gap arc, into
    chain[gap_first:] (whose best is `best[gap_first]`) or to the
    destination, or starts with another arc and has one further on
    (the rest suffix at `first`, which never beats `best` on
    chain[gap_first:]).  Vertices whose suffixes start at the same
    places share their row."""
    dest_key = keys[table.destination]

    def row_at(sig, rest_best):
        first, gap_first, days, dest_gap = sig
        row = best[first] if gap_first == first \
            else _lift(rest_best[first], best[gap_first], 0, 0, none)
        return _with_dest(row, days, dest_key) if dest_gap else row

    return _suffix_table(
        table, keys, none, best[-1],
        lambda v: (table.first[v], table.gap_first[v], table.dest_days[v],
                   table.dest_gap[v]),
        row_at)[0]


def compute_bounds(dag: Dag, space) -> BoundTable:
    """Per-vertex bounds on the reverse resource of any path to the
    destination (`ArcTable.resource_rows`) and the days-on-indexed
    completion table (see `BoundTable`).  The DAG must carry its
    compiled table."""
    table = dag.table
    if table is None:
        raise ValueError("the DAG was built without arc constants")
    codec, keys = space.head_keys(table)
    rows = table.resource_rows(space.limits)
    # No label has more days on than the limit or than the longest path.
    width = max(min(math.floor(space.limits[0]), table.max_path_days), 0) + 1
    # A vertex's row is the suffix maxima `best` at its `first` merged
    # with its destination arc, which raises one run of entries.
    dest_key = keys[table.destination]
    completions, best = _suffix_table(
        table, keys, codec.none, [0] * width,
        lambda v: (table.first[v], table.dest_days[v]),
        lambda sig, best: _with_dest(best[sig[0]], sig[1], dest_key))
    return BoundTable(dag, space, table, codec, keys, rows, completions,
                      best)


class PathResult:
    """A feasible origin-destination path: its vertices, the arcs between
    them, its reference resource under `space` and its cost.

    A search's result carries its final label's cost `key` under
    `codec`, days on, off-gap flag and flight hours, not its parent
    chain, and builds `resource` and `cost` from them when first read;
    pricing reads the key.  One built from a resource (`oracle_paths`)
    has no key (None)."""

    def __init__(self, vertices: list, space, resource=None,
                 codec: KeyCodec | None = None, key: int | None = None,
                 state: tuple = ()):
        self.vertices = vertices
        self.space = space
        self.codec = codec
        self.key = key
        self._state = state  # days on, off-gap flag, flight hours
        if resource is not None:
            self.resource = resource

    @cached_property
    def resource(self):
        return self.space.resource(*self._state, self.codec.cost(self.key))

    @cached_property
    def arcs(self) -> list[Arc]:
        return [Arc(t, h) for t, h in zip(self.vertices, self.vertices[1:])]

    @cached_property
    def cost(self) -> LexValue:
        if self.key is None:
            return self.space.cost(self.resource)
        return LexValue(self.codec.cost(self.key))


def _path(table: ArcTable, space, codec: KeyCodec, label: tuple) -> PathResult:
    """The path of a final label: its vertices by the parent chain, and
    the label's cost key, days on, flag and flight hours."""
    vertices = []
    lab = label
    while lab is not None:
        vertices.append(table.vertices[lab[0]])
        lab = lab[5]
    vertices.reverse()
    _, days, flag, hours, key, _ = label
    return PathResult(vertices, space, None, codec, key, (days, flag, hours))


@dataclass
class SearchStats:
    saved_paths: int = 0
    cuts_by_lb: int = 0
    labels_popped: int = 0


@dataclass
class SearchResult:
    paths: list[PathResult] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def best(self) -> PathResult | None:
        return self.paths[0] if self.paths else None


def _threshold_digits(threshold: LexValue) -> list[int] | None:
    """Grid digits of a threshold up to its first -inf level (nearest
    grid point, exact halves rounded down); None when every level is
    -inf, which even an infeasible merge clears."""
    if all(e == NEG_INF for e in threshold):
        return None
    digits = []
    for e in threshold:
        if e == NEG_INF:
            break
        if not math.isfinite(e):
            raise ValueError("threshold entries must be finite or -inf")
        g = e * COST_GRID
        k = math.floor(g)
        digits.append(k + 1 if g - k > 0.5 else k)
    return digits


def _run_search(
    dag: Dag,
    space,
    bounds: BoundTable,
    n: float,
    threshold: LexValue | None = None,
    *,
    use_bounds: bool = True,
    use_key_priority: bool = True,
    use_topo_arc_order: bool = True,
) -> SearchResult:
    """The label search: keep at most `n` feasible paths whose cost is
    lexicographically >= `threshold` (no floor when None)."""
    if bounds.dag is not dag or bounds.space is not space:
        raise ValueError("bounds were computed for another DAG or space")

    stats = SearchStats()
    table = bounds.table
    codec, keys = bounds.codec, bounds.head_keys
    rows, completions = bounds.rows, bounds.completions
    floor = NEG_INF
    if threshold is not None:
        digits = _threshold_digits(threshold)
        if digits is not None:
            half = codec.half
            digits = [min(max(d, -half), half) for d in digits]
            digits += [1 - half] * (space.cost_len - len(digits))
            floor = codec.encode(digits)
    max_days, max_hours = space.limits
    # A label with d days on reads the completions at budget - d: no
    # label that can reach the destination has more than `budget`.
    budget = bounds.width - 1
    none = codec.none

    # Preliminary feasibility test at the origin: the merged cost upper
    # bounds every feasible path cost, so TOP means none exists.
    root_bound = rows[table.origin]
    if root_bound is None or not root_bound[1]:
        return SearchResult(stats=stats)

    # A label without its days off yet is cut on the completions that
    # still give it them; its queue priority stays the plain bound.  A
    # search without a floor cuts too little on them to pay for them.
    # Every label's plain bound is at most the root's, so when that is
    # below the floor the plain bound alone cuts every label, as the
    # rest bound (never above it) would.
    rest = bounds.rest_completions if use_bounds and floor != NEG_INF \
        and completions[table.origin][budget] >= floor else None

    # A label is (vertex, days on, off-gap flag, flight hours, cost key,
    # parent label); queue entries are (-merged key, counter, label), a
    # max-heap on the merged key with FIFO ties, or plain FIFO.
    root = (table.origin, 0, 0, 0.0, 0, None)
    queue: list | deque = [] if use_key_priority else deque()
    push = partial(heapq.heappush, queue) if use_key_priority \
        else queue.append
    pop = partial(heapq.heappop, queue) if use_key_priority \
        else queue.popleft
    push((-completions[table.origin][budget], 0, root))
    saved = 1
    popped = cuts = 0
    kept: list[tuple] = []
    kept_keys: list[int] = []
    smallest = NEG_INF  # the smallest kept key, once n paths are kept

    out = table.out_desc if use_topo_arc_order else table.out
    while queue:
        neg, _, label = pop()
        popped += 1
        # Early stop: no pending label can beat a kept path.
        if use_key_priority and len(kept) >= n and -neg <= smallest:
            break

        v, days, flag, hours, key, _ = label
        for h, hd, hh, gap, is_dest, _ in out[v]:
            d2 = days + hd
            h2 = hours + hh
            if d2 > max_days or h2 > max_hours:
                continue
            f2 = gap or flag
            k2 = key + keys[h]
            if is_dest:
                if not f2 or k2 < floor:
                    continue
                if len(kept) < n:
                    kept.append((h, d2, f2, h2, k2, label))
                    kept_keys.append(k2)
                    if len(kept) == n:
                        smallest = min(kept_keys)
                elif k2 > smallest:
                    # Evict the first kept path of minimal cost.
                    i = kept_keys.index(smallest)
                    kept[i] = (h, d2, f2, h2, k2, label)
                    kept_keys[i] = k2
                    smallest = min(kept_keys)
                continue
            b = rows[h]
            if b is not None and (f2 or b[1]) and h2 + b[2] <= max_hours:
                mk = k2 + completions[h][budget - d2]
                ck = mk if f2 or rest is None \
                    else k2 + rest[h][budget - d2]
            else:
                mk = ck = none
            if use_bounds and (ck < floor
                               or len(kept) >= n and ck <= smallest):
                cuts += 1
                continue
            push((-mk, saved, (h, d2, f2, h2, k2, label)))
            saved += 1

    stats.saved_paths = saved
    stats.cuts_by_lb = cuts
    stats.labels_popped = popped
    kept.sort(key=lambda lab: -lab[4])
    return SearchResult(
        paths=[_path(table, space, codec, lab) for lab in kept],
        stats=stats,
    )


def solve_lex_longest(
    dag: Dag,
    space,
    bounds: BoundTable,
    **toggles,
) -> SearchResult:
    """Feasible origin-destination path of lexicographically maximal
    cost; `result.best` is None when no feasible path exists."""
    return _run_search(dag, space, bounds, 1, **toggles)


def solve_n_best(
    dag: Dag,
    space,
    bounds: BoundTable,
    n: int,
    floor: LexValue | None = None,
    **toggles,
) -> SearchResult:
    """The (at most) `n` feasible paths of lexicographically largest
    cost, sorted best first; with `floor`, only paths whose cost is
    lexicographically >= it (rounded to the cost grid like a
    threshold)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _run_search(dag, space, bounds, n, floor, **toggles)


def solve_above_threshold(
    dag: Dag,
    space,
    bounds: BoundTable,
    threshold: LexValue,
    **toggles,
) -> SearchResult:
    """All feasible paths with cost lexicographically >= `threshold`
    (each level rounded to the cost grid, see the module docstring),
    sorted best first."""
    return _run_search(dag, space, bounds, math.inf, threshold, **toggles)
