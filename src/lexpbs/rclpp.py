"""Lexicographic resource-constrained longest paths on DAGs.

Implements the bound table (a meet over the reverse-extended resources
of all paths to the destination), the label-setting enumeration with
bound pruning and optional dominance, and its two multi-path variants:
keep the N lexicographically best paths, or keep every path whose cost
clears a threshold.

`ResourceSpace` is the reference definition of the resource algebra.
The search itself runs on a compiled integer form of it:

* Costs are exact.  Every cost entry is an integer multiple of
  1/COST_GRID (2^-30; colgen snaps the master duals to this grid), so
  a cost vector is an integer digit vector d_0..d_{m-1}.
* A digit vector is one Python int, the key sum(d_l * B^(m-1-l)).  B is
  chosen per pricing call (`KeyCodec`): the smallest power of two above
  twice the largest per-level sum of |d| over all heads of the DAG and
  twice every threshold digit.  Every partial path cost, merged bound
  and threshold then has all digits strictly inside (-B/2, B/2), where
  integer order equals lex order exactly and one int addition replaces
  a tuple addition.  An infeasible (TOP) key is float -inf.
* The DAG is compiled once (`ArcTable`, built by the DAG's owner) into
  per-vertex tuples of arc constants; the space supplies the per-call
  head costs and the two capacity limits.
* A threshold level maps to the nearest grid point, an exact half
  rounding down; a level at -inf lets every deeper level pass.  On the
  grid this keeps every path within 2^-31 of the threshold at each
  level, and at an exact half it also admits the grid point above.
"""

from __future__ import annotations

import heapq
import math
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from graphlib import TopologicalSorter
from typing import Callable, Hashable, Iterable, NamedTuple

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
    table; without, each bound computation compiles one from the
    resource space.
    """

    def __init__(self, vertices: Iterable[Hashable], arcs: Iterable[Arc],
                 origin: Hashable, destination: Hashable,
                 arc_constants: ArcConstants | None = None):
        self.vertices = list(vertices)
        self.arcs = list(arcs)
        self.origin = origin
        self.destination = destination
        self.out_arcs: dict[Hashable, list[Arc]] = {v: [] for v in self.vertices}
        self.in_arcs: dict[Hashable, list[Arc]] = {v: [] for v in self.vertices}
        for a in self.arcs:
            self.out_arcs[a.tail].append(a)
            self.in_arcs[a.head].append(a)
        ts = TopologicalSorter({v: [a.tail for a in self.in_arcs[v]]
                                for v in self.vertices})
        self.topo_order = list(ts.static_order())
        self.topo_index = {v: i for i, v in enumerate(self.topo_order)}
        # Out-arcs by descending topological index of the head, so the
        # search can expand toward the destination first.
        self.out_arcs_desc = {
            v: sorted(arcs, key=lambda a: -self.topo_index[a.head])
            for v, arcs in self.out_arcs.items()
        }
        self.table = None if arc_constants is None \
            else ArcTable(self, arc_constants)


class ArcTable:
    """A DAG compiled for the label search.

    Vertex i is `dag.topo_order[i]`, so heads have larger indices than
    tails.  `out[i]` and `out_desc[i]` list the out-arcs of vertex i in
    the order of `dag.out_arcs` and `dag.out_arcs_desc`, each as a tuple
    (head, head days on, head flight hours, off-gap flag 1/0, head is
    the destination, tail is the origin).
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
        self.out_desc = [[rows[a] for a in dag.out_arcs_desc[v]]
                         for v in self.vertices]


class ResourceSpace(ABC):
    """Resource algebra driving the enumeration.

    Resources live in a meet-semilattice with top element TOP; the cost
    map is non-increasing, arc extensions (forward and reverse) are
    non-decreasing, and the merge of a forward and a reverse resource
    lower-bounds the resource of the concatenated path.

    These methods are the reference definition.  The search runs on the
    compiled form of the schedule resource (days on, off-gap flag,
    flight hours, cost) and reads from the space: `cost_len`,
    `grid_costs` (head vertex -> cost in grid units), `limits` (days on,
    flight hours), `arc_constants` (for a DAG without a table) and
    `resource` (builds the reference resource of a result).
    """

    #: number of lexicographic cost levels
    cost_len: int

    @abstractmethod
    def initial(self, vertex) -> object:
        """Resource of the path reduced to `vertex` (forward)."""

    @abstractmethod
    def initial_reverse(self, vertex) -> object:
        """Reverse resource of the path reduced to `vertex`."""

    @abstractmethod
    def extend(self, arc: Arc, r) -> object:
        """Forward extension along `arc` (f_a)."""

    @abstractmethod
    def extend_reverse(self, arc: Arc, r) -> object:
        """Reverse extension along `arc` (g_a)."""

    @abstractmethod
    def merge(self, r, r_reverse) -> object:
        """Combine a forward and a reverse resource (h)."""

    @abstractmethod
    def meet(self, resources: Iterable) -> object:
        """Greatest lower bound of a finite set; TOP for the empty set."""

    @abstractmethod
    def leq(self, r1, r2) -> bool:
        """Partial order: r1 precedes-or-equals r2."""

    @abstractmethod
    def cost(self, r) -> LexValue:
        """Lexicographic cost; all -inf at TOP."""

    def neg_inf_cost(self) -> LexValue:
        return LexValue.neg_infinite(self.cost_len)


class KeyCodec:
    """Integer lex keys for digit vectors of a fixed length.

    A vector d_0..d_{m-1} with every |d_l| < half = 2^(shift-1) is the
    int sum(d_l * 2^(shift*(m-1-l))).  On such vectors the map is
    injective and integer order is lex order.
    """

    __slots__ = ("length", "shift", "half")

    def __init__(self, length: int, magnitude: int):
        """Codec for `length` digits of absolute value at most
        `magnitude`."""
        self.length = length
        self.shift = magnitude.bit_length() + 1
        self.half = 1 << (self.shift - 1)

    def encode(self, digits: Iterable[int]) -> int:
        key, shift = 0, self.shift
        for d in digits:
            key = (key << shift) + d
        return key

    def decode(self, key: int) -> tuple[int, ...]:
        shift, half = self.shift, self.half
        mask = (1 << shift) - 1
        out = [0] * self.length
        for level in range(self.length - 1, -1, -1):
            d = ((key + half) & mask) - half
            out[level] = d
            key = (key - d) >> shift
        return tuple(out)

    def cost(self, key: int) -> tuple[float, ...]:
        """The cost entries a key encodes; exact floats."""
        return tuple(d / COST_GRID for d in self.decode(key))


def _codec(table: ArcTable, space, magnitude: int = 0):
    """The codec of one pricing call and the key of each head's cost.
    Every path cost digit is bounded by the per-level sum of |d| over
    all heads; `magnitude` bounds any other digit the call compares."""
    grid = space.grid_costs
    rows = [grid.get(v) for v in table.vertices]
    sums = [sum(map(abs, level))
            for level in zip(*(row for row in rows if row is not None))]
    codec = KeyCodec(space.cost_len, max(sums + [magnitude]))
    keys = [0 if row is None else codec.encode(row) for row in rows]
    return codec, keys


class BoundTable(Mapping):
    """The bounds of one DAG under one resource space.

    The search reads `rows`: per vertex index, (days on, off-gap flag,
    flight hours, cost key) or None for TOP, with keys under `codec`.
    Indexing by vertex decodes the reference resource, or TOP.
    """

    def __init__(self, dag: Dag, space, table: ArcTable, codec: KeyCodec,
                 head_keys: list[int], rows: list):
        self.dag = dag
        self.space = space
        self.table = table
        self.codec = codec
        self.head_keys = head_keys
        self.rows = rows

    def __getitem__(self, vertex):
        row = self.rows[self.table.index[vertex]]
        if row is None:
            return TOP
        days, flag, hours, key = row
        return self.space.resource(days, flag, hours, self.codec.cost(key))

    def __iter__(self):
        return iter(self.table.vertices)

    def __len__(self) -> int:
        return len(self.rows)

    def rekeyed(self, magnitude: int):
        """(codec, head keys, rows) under a codec that also fits digits
        up to `magnitude`."""
        codec, keys = _codec(self.table, self.space, magnitude)
        old = self.codec
        rows = [None if r is None
                else (r[0], r[1], r[2], codec.encode(old.decode(r[3])))
                for r in self.rows]
        return codec, keys, rows


def compute_bounds(dag: Dag, space: ResourceSpace) -> BoundTable:
    """Per-vertex bounds on the reverse resource of any path to the
    destination, by dynamic programming in reverse topological order.
    Vertices with no path to the destination get TOP (empty meet)."""
    table = dag.table if dag.table is not None \
        else ArcTable(dag, space.arc_constants)
    codec, keys = _codec(table, space)
    max_days, max_hours = space.limits
    rows: list = [None] * len(table.vertices)
    rows[table.destination] = (0, 0, 0.0, 0)
    for v in range(len(rows) - 1, -1, -1):
        if v == table.destination:
            continue
        best = None
        for h, hd, hh, gap, _, from_origin in table.out[v]:
            b = rows[h]
            if b is None:
                continue
            days = b[0] + hd
            hours = b[2] + hh
            if days > max_days or hours > max_hours:
                continue
            flag = gap or b[1]
            if from_origin and not flag:
                continue
            key = b[3] + keys[h]
            if best is None:
                best = [days, flag, hours, key]
            else:
                if days < best[0]:
                    best[0] = days
                if flag > best[1]:
                    best[1] = flag
                if hours < best[2]:
                    best[2] = hours
                if key > best[3]:
                    best[3] = key
        rows[v] = None if best is None else tuple(best)
    return BoundTable(dag, space, table, codec, keys, rows)


@dataclass
class PathResult:
    arcs: list[Arc]
    vertices: list[Hashable]
    resource: object
    cost: LexValue


@dataclass
class SearchStats:
    saved_paths: int = 0
    cuts_by_lb: int = 0
    cuts_by_dominance: int = 0
    labels_popped: int = 0
    early_stop: bool = False


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


def _path_result(table: ArcTable, space, codec: KeyCodec,
                 label: tuple) -> PathResult:
    _, days, flag, hours, key, _ = label
    vertices = []
    lab = label
    while lab is not None:
        vertices.append(table.vertices[lab[0]])
        lab = lab[5]
    vertices.reverse()
    cost = codec.cost(key)
    return PathResult(
        arcs=[Arc(t, h) for t, h in zip(vertices, vertices[1:])],
        vertices=vertices,
        resource=space.resource(days, flag, hours, cost),
        cost=LexValue(cost),
    )


def _run_search(
    dag: Dag,
    space: ResourceSpace,
    bounds: BoundTable,
    *,
    mode: str,
    n_best: int = 1,
    threshold: LexValue | None = None,
    use_bounds: bool = True,
    use_dominance: bool = False,
    use_key_priority: bool = True,
    use_topo_arc_order: bool = True,
) -> SearchResult:
    if use_dominance and mode != "single":
        raise ValueError("dominance is only sound when a single optimum is sought")
    if bounds.dag is not dag or bounds.space is not space:
        raise ValueError("bounds were computed for another DAG or space")

    stats = SearchStats()
    table = bounds.table
    codec, keys, rows = bounds.codec, bounds.head_keys, bounds.rows
    floor = NEG_INF  # threshold key
    if threshold is not None:
        digits = _threshold_digits(threshold)
        if digits is not None:
            magnitude = max(map(abs, digits), default=0)
            if magnitude >= codec.half:
                codec, keys, rows = bounds.rekeyed(magnitude)
            digits += [1 - codec.half] * (space.cost_len - len(digits))
            floor = codec.encode(digits)
    max_days, max_hours = space.limits
    single = mode == "single"
    nbest = mode == "nbest"

    # Preliminary feasibility test at the origin: the merged cost upper
    # bounds every feasible path cost, so TOP means none exists.
    root_bound = rows[table.origin]
    if root_bound is None or not root_bound[1]:
        return SearchResult(stats=stats)

    # A label is (vertex, days on, off-gap flag, flight hours, cost key,
    # parent label); queue entries are (-merged key, counter, label), a
    # max-heap on the merged key with FIFO ties, or plain FIFO.
    root = (table.origin, 0, 0, 0.0, 0, None)
    queue: list | deque = [] if use_key_priority else deque()
    push = partial(heapq.heappush, queue) if use_key_priority \
        else queue.append
    pop = partial(heapq.heappop, queue) if use_key_priority \
        else queue.popleft
    push((-root_bound[3], 0, root))
    counter = 1
    saved = 1
    popped = cuts = 0
    # Dominance: pending (counter, label) per vertex; dead counters.
    pending: list[list] = [[] for _ in rows]
    dead: set[int] = set()
    if use_dominance:
        pending[table.origin].append((0, root))

    best_key = NEG_INF  # single
    best = None
    kept: list[tuple] = []  # n-best / threshold
    kept_keys: list[int] = []
    smallest = NEG_INF  # n-best cutoff, once n paths are kept

    out = table.out_desc if use_topo_arc_order else table.out
    while queue:
        neg, c, label = pop()
        if use_dominance:
            if c in dead:
                continue
            pending[label[0]] = [e for e in pending[label[0]] if e[0] != c]
        popped += 1
        # Early stop: the best pending key cannot beat the incumbent.
        if use_key_priority:
            if single and best is not None and -neg <= best_key:
                stats.early_stop = True
                break
            if nbest and len(kept) >= n_best and -neg <= smallest:
                stats.early_stop = True
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
                if not f2:
                    continue
                if single:
                    if k2 > best_key:
                        best_key = k2
                        best = (h, d2, f2, h2, k2, label)
                elif nbest:
                    if len(kept) < n_best:
                        kept.append((h, d2, f2, h2, k2, label))
                        kept_keys.append(k2)
                        if len(kept) == n_best:
                            smallest = min(kept_keys)
                    elif k2 > smallest:
                        # Evict the first kept path of minimal cost.
                        i = kept_keys.index(smallest)
                        kept[i] = (h, d2, f2, h2, k2, label)
                        kept_keys[i] = k2
                        smallest = min(kept_keys)
                elif k2 >= floor:
                    kept.append((h, d2, f2, h2, k2, label))
                continue
            b = rows[h]
            if b is not None and (f2 or b[1]) and d2 + b[0] <= max_days \
                    and h2 + b[2] <= max_hours:
                mk = k2 + b[3]
            else:
                mk = NEG_INF
            if use_bounds:
                if single:
                    ok = mk > best_key
                elif nbest:
                    ok = len(kept) < n_best or mk > smallest
                else:
                    ok = mk >= floor
                if not ok:
                    cuts += 1
                    continue
            child = (h, d2, f2, h2, k2, label)
            if use_dominance:
                here = pending[h]
                if any(lab[1] <= d2 and lab[2] >= f2 and lab[3] <= h2
                       and lab[4] >= k2 for _, lab in here):
                    stats.cuts_by_dominance += 1
                    continue
                for cc, lab in here:
                    if d2 <= lab[1] and f2 >= lab[2] and h2 <= lab[3] \
                            and k2 >= lab[4]:
                        dead.add(cc)
                here = [e for e in here if e[0] not in dead]
                here.append((counter, child))
                pending[h] = here
            push((-mk, counter, child))
            counter += 1
            saved += 1

    stats.saved_paths = saved
    stats.cuts_by_lb = cuts
    stats.labels_popped = popped
    result = SearchResult(stats=stats)
    if single:
        if best is not None:
            result.paths = [_path_result(table, space, codec, best)]
    else:
        kept.sort(key=lambda lab: -lab[4])
        result.paths = [_path_result(table, space, codec, lab) for lab in kept]
    return result


def solve_lex_longest(
    dag: Dag,
    space: ResourceSpace,
    bounds: BoundTable,
    **toggles,
) -> SearchResult:
    """Feasible origin-destination path of lexicographically maximal
    cost; `result.best` is None when no feasible path exists."""
    return _run_search(dag, space, bounds, mode="single", **toggles)


def solve_n_best(
    dag: Dag,
    space: ResourceSpace,
    bounds: BoundTable,
    n: int,
    **toggles,
) -> SearchResult:
    """The (at most) `n` feasible paths of lexicographically largest
    cost, sorted best first.  Dominance stays off: it would drop
    distinct optimal paths."""
    if n < 1:
        raise ValueError("n must be at least 1")
    toggles.pop("use_dominance", None)
    return _run_search(dag, space, bounds, mode="nbest", n_best=n, **toggles)


def solve_above_threshold(
    dag: Dag,
    space: ResourceSpace,
    bounds: BoundTable,
    threshold: LexValue,
    **toggles,
) -> SearchResult:
    """All feasible paths with cost lexicographically >= `threshold`
    (each level rounded to the cost grid, see the module docstring)."""
    toggles.pop("use_dominance", None)
    return _run_search(
        dag, space, bounds, mode="threshold", threshold=threshold, **toggles
    )
