"""End-to-end exact PBS solve.

Three phases: lexicographic column generation for the continuous
relaxation (upper bound u), an integer solve on the generated columns
(lower bound l), then completion of the pool with every column whose
reduced cost clears the gap l - u, followed by a final integer solve
which is provably optimal for the full problem.  When column
generation ends at an integral master optimum, that optimum is the
answer and the last two phases do not run: no schedule set scores
above u.  Most generated months end integral.

The pool starts from the initial partition, a feasible start, and the
seniority-sequential schedules: pilot 1's best schedules, then pilot
2's over the pairings pilot 1's best leaves, and so on, each found on
a one-level cost space.  That pass runs again from pilots 2, 3, 5,
9, ... (start ranks 1, 2, 4, 8, ...), each time over all the
pairings, so junior pilots also get schedules through the seniors'
picks; a pass ends where it would repeat an earlier one.  They are
only extra columns, so they change the pivot path, never the answer,
and pricing still proves the loop exit.  The first master solve starts
from the initial partition's basis, which is feasible, so no master
solve runs phase 1; each later one starts from the previous final
basis.  The upper bound u is Y.b for the last round's snapped duals Y,
exact on the dual grid.

Pricing runs on the shared scheduling DAG.  Each iteration's snapped
duals form one `DualGrid`, which encodes the heads once for the
pricing spaces of all pilots and of the reduction pass, a shared
lex-min over the first m-1 dual rows that often answers the pricing
problems of all but the most senior pilots in one search.  The other
pilots are priced directly, by a search floored at the lex-smallest
eps-positive vector on the round's dual lattice, so it only looks for
columns that can enter.  The empty schedule is not representable as
an o-d path, so it is priced directly from the assignment duals.  A
pilot's candidates, pool or search rows plus the empty schedule, are
ranked as one array.  The loop-exit check (`verify_loop_exit`) reruns
this direct pricing on the last round's grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .illp import IllpStatus, _is_integral, illp_solve
from .lexcore import DEFAULT_EPS, LexValue, lex_compare_eps
from .llp import AugmentedProgram, LexSolveResult, LlpProblem, lex_solve
from .pbs import (
    DualGrid,
    Instance,
    ScheduleResourceSpace,
    build_dag,
    make_reduction_space,
    make_resource_space,
)
from .rclpp import (
    COST_GRID,
    Dag,
    KeyCodec,
    SearchResult,
    compute_bounds,
    solve_above_threshold,
    solve_n_best,
)


class SolveError(RuntimeError):
    """An integer solve on the column pool did not end optimal."""


#: Columns each pilot may add per CG iteration, its best lex-positive
#: candidates.
COLUMNS_PER_ITER = 10


# Duals are snapped to the dyadic grid COST_GRID before pricing.  Lex
# order is discontinuous, so ulp-level noise in the duals can reorder
# path costs at a leading level and leak through every pruning rule.
# On the grid the pricing search runs on exact integers (see rclpp):
# true ties compare equal and the search logic is sound.  The snap
# moves each dual by at most 2^-31, far below the positivity tolerance.
def _snap_duals(duals: np.ndarray) -> np.ndarray:
    return np.round(duals * COST_GRID) / COST_GRID


#: Column generation stops with an error after this many iterations, a
#: safety cap: each iteration pools at least one new column.
MAX_ITERATIONS = 100_000


@dataclass
class ColgenParams:
    use_reduction: bool = True
    verify_loop_exit: bool = False
    audit_reduction: bool = False


class Column(NamedTuple):
    pilot: int
    pairings: frozenset[str]
    score: int


@dataclass
class PricingStats:
    saved_paths: int = 0
    cuts_by_lb: int = 0


@dataclass
class ColgenStats:
    iterations: int = 0
    generated_columns: int = 0
    duplicate_columns: int = 0
    gap_columns: int = 0
    pool_size: int = 0
    reduction: PricingStats = field(default_factory=PricingStats)
    pricing: PricingStats = field(default_factory=PricingStats)
    eliminated_fractions: list[float] = field(default_factory=list)
    illp_nodes_lower: int = 0
    illp_nodes_final: int = 0
    loop_exit_verified: bool | None = None
    reduction_audit: list[tuple[int, int, tuple, tuple]] = field(default_factory=list)

    @property
    def avg_eliminated_pct(self) -> float:
        if not self.eliminated_fractions:
            return 0.0
        return 100.0 * sum(self.eliminated_fractions) / len(self.eliminated_fractions)


@dataclass
class ColgenResult:
    schedules: list[list[str]]  # pilot index -> sorted pairing ids
    value: LexValue
    upper_bound: LexValue
    lower_bound: LexValue
    stats: ColgenStats


class RestrictedMaster:
    """Column pool plus the standard-form lex program it spans.

    Rows: one assignment row per pilot followed by one partition row
    per pairing (in instance order).  The program is kept in the
    simplex's augmented form (`AugmentedProgram`), which grows in
    place: each pooled column is written into it once, when it is
    added, and `build_problem` only wraps views of it."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.columns: list[Column] = []
        self._keys: set[tuple[int, frozenset]] = set()
        self._program = AugmentedProgram(np.ones(self.num_rows),
                                         instance.num_pilots)

    @property
    def num_rows(self) -> int:
        return self.instance.num_pilots + self.instance.num_pairings

    def add(self, columns) -> int:
        """Pool the (pilot, schedule) pairs not pooled yet, in order, as
        one batch; a schedule is a set of pairing ids.  Returns how many
        were new."""
        new = []
        for pilot, sched in columns:
            key = (pilot, frozenset(sched))
            if key not in self._keys:
                self._keys.add(key)
                new.append(key)
        if not new:
            return 0
        inst, count = self.instance, len(new)
        pilots = np.fromiter((p for p, _ in new), dtype=np.intp, count=count)
        lengths = np.fromiter((len(s) for _, s in new), dtype=np.intp,
                              count=count)
        idx = np.fromiter((inst.pairing_index[pid] for _, s in new for pid in s),
                          dtype=np.intp, count=int(lengths.sum()))
        owner = np.repeat(np.arange(count), lengths)
        scores = np.bincount(owner, weights=inst.scores[pilots[owner], idx],
                             minlength=count)
        own = np.arange(count)
        self._program.append(
            count,
            a_rows=np.concatenate((pilots, inst.num_pilots + idx)),
            a_cols=np.concatenate((own, owner)), a_vals=1.0,
            c_rows=pilots, c_cols=own, c_vals=scores)
        self.columns.extend(map(Column, pilots.tolist(), (s for _, s in new),
                                scores.astype(int).tolist()))
        return count

    def column_vector(self, column: Column) -> np.ndarray:
        inst = self.instance
        a = np.zeros(self.num_rows)
        a[column.pilot] = 1.0
        a[[inst.num_pilots + inst.pairing_index[pid]
           for pid in column.pairings]] = 1.0
        return a

    def build_problem(self) -> LlpProblem:
        return self._program.problem()

    def partition_basis(self) -> np.ndarray:
        """The initial partition's basis, numbered as `lex_solve` numbers
        bases: pilot row i holds pilot i's partition column, which is
        column i, and each pairing row its artificial.  ValueError unless
        the pool starts with the partition, pilot by pilot.

        The basis is block lower-triangular with a unit diagonal.  The
        partition covers every pairing exactly once (`Instance.validate`),
        so it is primal feasible with every artificial at zero: a master
        solve started from it runs no phase 1."""
        inst, m = self.instance, self.instance.num_pilots
        if len(self.columns) < m or any(
                col.pilot != i or col.pairings != frozenset(sched)
                for i, (col, sched) in enumerate(
                    zip(self.columns, inst.initial_partition))):
            raise ValueError("the pool does not start with the initial "
                             "partition")
        return np.concatenate((np.arange(m), -1 - np.arange(m, self.num_rows)))


def _path_to_pairings(path) -> frozenset[str]:
    return frozenset(v for v in path.vertices[1:-1])


def _lex_positive_rows(V: np.ndarray) -> np.ndarray:
    """Row mask of `lex_is_positive` over the rows of V: the first entry
    beyond DEFAULT_EPS in magnitude is positive.  (A row with no such
    entry reads its first, which is not above DEFAULT_EPS.)"""
    first = (np.abs(V) > DEFAULT_EPS).argmax(axis=1)
    return V[np.arange(len(V)), first] > DEFAULT_EPS


def _rank_positive(rows: np.ndarray) -> np.ndarray:
    """Indices of the lex-positive rows, lex-largest first.  The sort is
    stable, so tied rows keep their order, as in a sort by the tuple of
    negated entries."""
    positive = np.flatnonzero(_lex_positive_rows(rows))
    # np.lexsort's primary key is the last one: level 0, negated.
    return positive[np.lexsort(-rows[positive, ::-1].T)]


def _cost_rows(paths, m: int) -> np.ndarray:
    """The costs of searched paths as rows of an array: each key's
    digits over the grid, the floats `KeyCodec.cost` gives, without
    building each path's cost."""
    rows = np.array([p.codec.decode(p.key) for p in paths],
                    dtype=float).reshape(-1, m)
    rows /= COST_GRID
    return rows


def _positive_floor(m: int, unit: int) -> LexValue:
    """The lex-smallest eps-positive vector of m levels whose digits on
    the cost grid are multiples of `unit`: its first m-1 digits are the
    most negative multiple within eps of 0, and its last digit the
    smallest multiple beyond eps."""
    q = unit * math.floor(DEFAULT_EPS * COST_GRID / unit)
    return LexValue((-q / COST_GRID,) * (m - 1) + ((q + unit) / COST_GRID,))


def _direct_pricing(
    dag: Dag,
    grid: DualGrid,
    pilot: int,
    n_paths: int,
    floor: LexValue | None = None,
) -> SearchResult:
    space = make_resource_space(grid.instance, pilot, grid.assignment_duals,
                                grid.pairing_duals, grid)
    bounds = compute_bounds(dag, space)
    return solve_n_best(dag, space, bounds, n_paths, floor=floor)


def sequential_columns(dag: Dag,
                       instance: Instance) -> list[tuple[int, frozenset]]:
    """The seniority-sequential schedules, as (pilot, schedule) pairs.

    One pass per start rank k in {0, 1, 2, 4, 8, ...} below m, in that
    order.  Pass k serves pilots k, k+1, ..., m-1 in seniority order, as
    if pilots 0..k-1 were served elsewhere: pilot i gets up to
    `COLUMNS_PER_ITER` of its best schedules of positive score that
    avoid the pairings taken earlier in the pass, and the best of them
    takes its pairings.  The taken set starts empty in each pass.  The
    later passes offer junior pilots the schedules that the seniors'
    picks of pass 0 forbid; there are at most about m (log2 m + 1)
    searches.  A pass ends when it reaches a (pilot, taken set) state
    that an earlier pass reached: from there on it would repeat that
    pass's searches and schedules.

    Each step is one search on a one-level cost space: pilot i's scores
    less a penalty on the taken pairings, terminal cost 0.  The penalty
    is an integer, so it sits on the grid, and it exceeds the score of
    any schedule, so a path through a taken pairing costs below 0: a
    path's cost is pilot i's score when it avoids them.  A pilot with no
    such schedule of positive score gets none and takes nothing.  The
    head keys are built as ints, from each pilot's scores in grid units
    per pairing, set up once; with one level, a key is its digit."""
    m = instance.num_pilots
    ids = [p.id for p in instance.pairings]
    score_keys, penalties = [], []
    for row in instance.scores.tolist():
        score_keys.append([s * COST_GRID for s in row])
        penalties.append((1 + sum(map(abs, row))) * COST_GRID)
    columns = []
    reached: set[tuple[int, frozenset[int]]] = set()
    for start in [0] + [1 << j for j in range(m.bit_length()) if 1 << j < m]:
        taken: frozenset[int] = frozenset()  # by pairing index
        for i in range(start, m):
            if (i, taken) in reached:
                break
            reached.add((i, taken))
            keys = score_keys[i][:]
            for j in taken:
                keys[j] -= penalties[i]
            space = ScheduleResourceSpace(
                instance, KeyCodec(1, sum(map(abs, keys))), ids, keys, 0)
            res = solve_n_best(dag, space, compute_bounds(dag, space),
                               COLUMNS_PER_ITER)
            schedules = [_path_to_pairings(p) for p in res.paths
                         if p.key > 0]
            columns += [(i, sched) for sched in schedules]
            if schedules:
                taken |= {instance.pairing_index[pid] for pid in schedules[0]}
    return columns


def price_all_pilots(
    dag: Dag,
    grid: DualGrid,
    params: ColgenParams,
    stats: ColgenStats,
) -> list[list[frozenset]]:
    """Schedules of lex-positive reduced cost per pilot, best first.

    Runs the reduction pass when enabled: the m best solutions of the
    shared lex-min problem (m pilots) contain the pricing optima of
    every pilot junior to the first level where two of them disagree.

    Direct pricing keeps only paths whose cost clears the round's
    positivity floor, the lex-smallest eps-positive vector on the lattice
    of the round's cost digits (`DualGrid.unit`, see `_positive_floor`).
    Every path cost lies on that lattice, so every eps-positive path
    clears the floor, and the eps-positive paths of the floored search
    are those of the same search without a floor, up to ties.  On a
    round whose unit exceeds eps the floor is "cost > 0", which admits
    exactly the eps-positive paths; on a round whose unit is at most
    eps it also admits costs that are not eps-positive, 0 among them."""
    instance = grid.instance
    lam, mu = grid.assignment_duals, grid.pairing_duals
    m = instance.num_pilots
    served_from_pool: set[int] = set()
    positive_floor = _positive_floor(m, grid.unit)

    if params.use_reduction and m >= 2:
        red_space = make_reduction_space(grid)
        red_bounds = compute_bounds(dag, red_space)
        red = solve_n_best(dag, red_space, red_bounds, m)
        stats.reduction.saved_paths += red.stats.saved_paths
        stats.reduction.cuts_by_lb += red.stats.cuts_by_lb
        pool = [_path_to_pairings(p) for p in red.paths]
        # Per schedule: mu row sums and every pilot's score.  Sorted
        # indices: float sums must not depend on set iteration order.
        sums = np.zeros((len(pool), m))
        scores = np.zeros((len(pool), m), dtype=int)
        for s, sched in enumerate(pool):
            idx = sorted(instance.pairing_index[pid] for pid in sched)
            if idx:
                sums[s] = mu[:, idx].sum(axis=1)
                scores[s] = instance.scores[:, idx].sum(axis=1)
        # The pool serves the pilots junior to the first dual level
        # (1-based) where two of its members disagree.
        if len(pool) >= 2:
            spread = sums[:, : m - 1].max(axis=0) - sums[:, : m - 1].min(axis=0)
            disagree = np.flatnonzero(spread > DEFAULT_EPS)
            if disagree.size:
                served_from_pool = set(range(int(disagree[0]) + 1, m))

    candidates: list[list[frozenset]] = []
    for i in range(m):
        # Row s: reduced cost of schedule s for pilot i; the last
        # schedule is the empty one, priced directly.
        if i in served_from_pool:
            schedules = pool + [frozenset()]
            rows = np.empty((len(schedules), m))
            np.subtract(-lam[:, i], sums, out=rows[:-1])
            rows[:-1, i] += scores[:, i]
            if params.audit_reduction:
                best_pool = max(LexValue(rc) for rc in rows[:-1])
                direct = _direct_pricing(dag, grid, i, 1)
                direct_cost = direct.best.cost if direct.best else None
                stats.reduction_audit.append((
                    stats.iterations, i, best_pool.entries,
                    direct_cost.entries if direct_cost else None,
                ))
        else:
            res = _direct_pricing(dag, grid, i, COLUMNS_PER_ITER,
                                  positive_floor)
            stats.pricing.saved_paths += res.stats.saved_paths
            stats.pricing.cuts_by_lb += res.stats.cuts_by_lb
            schedules = [_path_to_pairings(p) for p in res.paths] \
                + [frozenset()]
            rows = np.empty((len(schedules), m))
            rows[:-1] = _cost_rows(res.paths, m)
        rows[-1] = -lam[:, i]
        best = _rank_positive(rows)[:COLUMNS_PER_ITER]
        candidates.append([schedules[s] for s in best])

    stats.eliminated_fractions.append(len(served_from_pool) / m)
    return candidates


def _verify_no_positive_column(dag: Dag, grid: DualGrid) -> bool:
    """Whether no column prices in under `grid`: the loop's own direct
    pricing (`price_all_pilots` without the reduction pass) leaves every
    pilot without a candidate."""
    params = ColgenParams(use_reduction=False)
    return not any(price_all_pilots(dag, grid, params, ColgenStats()))


def gap_complete(
    dag: Dag,
    grid: DualGrid,
    master: RestrictedMaster,
    threshold: LexValue,
) -> int:
    """Add every not-yet-pooled column whose reduced cost is
    lexicographically >= threshold.  Returns the number added."""
    instance, lam = grid.instance, grid.assignment_duals
    columns = []
    for i in range(instance.num_pilots):
        space = make_resource_space(instance, i, lam, grid.pairing_duals,
                                    grid)
        bounds = compute_bounds(dag, space)
        res = solve_above_threshold(dag, space, bounds, threshold)
        columns += [(i, _path_to_pairings(path)) for path in res.paths]
        if LexValue(-lam[:, i]) >= threshold:
            columns.append((i, frozenset()))
    return master.add(columns)


def _partition_hint(master: RestrictedMaster) -> np.ndarray:
    """0/1 vector selecting the initial partition's pooled columns."""
    x = np.zeros(len(master.columns))
    x[master.partition_basis()[: master.instance.num_pilots]] = 1.0
    return x


def _integer_phases(
    dag: Dag,
    grid: DualGrid,
    master: RestrictedMaster,
    relax: LexSolveResult,
    upper: LexValue,
    hint: np.ndarray,
    stats: ColgenStats,
) -> tuple[np.ndarray, LexValue, LexValue]:
    """The lower integer solve, gap completion and the final integer
    solve after CG ended at the fractional master optimum `relax`, of
    upper bound `upper`; returns (solution, lower bound l, value)."""
    lower_res = illp_solve(
        master.build_problem(),
        incumbent_hint=hint,
        warm_start=relax.basis,
    )
    stats.illp_nodes_lower = lower_res.node_count
    if lower_res.status is not IllpStatus.OPTIMAL:
        raise SolveError(f"lower integer solve ended {lower_res.status.value}")
    lower = lower_res.value

    threshold = lower - upper
    stats.gap_columns = gap_complete(dag, grid, master, threshold)

    final_problem = master.build_problem()
    final_hint = np.zeros(final_problem.num_cols)
    final_hint[: len(lower_res.solution)] = lower_res.solution
    final_res = illp_solve(
        final_problem,
        incumbent_hint=final_hint,
        warm_start=relax.basis,
    )
    stats.illp_nodes_final = final_res.node_count
    if final_res.status is not IllpStatus.OPTIMAL:
        raise SolveError(f"final integer solve ended {final_res.status.value}")
    return final_res.solution, lower, final_res.value


def run(instance: Instance, params: ColgenParams | None = None) -> ColgenResult:
    """Solve the PBS instance exactly.  See the module docstring for
    the three phases."""
    instance.validate()
    params = params or ColgenParams()
    m = instance.num_pilots

    master = RestrictedMaster(instance)
    master.add(enumerate(instance.initial_partition))
    dag = build_dag(instance)
    stats = ColgenStats()
    stats.generated_columns = master.add(sequential_columns(dag, instance))

    relax: LexSolveResult | None = None
    while True:
        if stats.iterations >= MAX_ITERATIONS:
            raise RuntimeError("column generation iteration limit exceeded")
        stats.iterations += 1
        relax = lex_solve(master.build_problem(),
                          warm_start=master.partition_basis() if relax is None
                          else relax.basis)
        duals = _snap_duals(relax.duals)
        grid = DualGrid(instance, duals[:, :m], duals[:, m:])

        candidates = price_all_pilots(dag, grid, params, stats)
        columns = [(i, sched) for i, cand in enumerate(candidates)
                   for sched in cand]
        new_count = master.add(columns)
        stats.duplicate_columns += len(columns) - new_count
        stats.generated_columns += new_count
        if new_count == 0:
            break

    if params.verify_loop_exit:
        stats.loop_exit_verified = _verify_no_positive_column(dag, grid)

    # u = Y.b with Y the last round's snapped duals and b all ones: the
    # row sums, exact on the dual grid.  The master's own value carries
    # float noise (about 1e-13) that can put it lex-below the integral
    # optimum it bounds.
    upper = LexValue(duals.sum(axis=1))
    hint = _partition_hint(master)
    if _is_integral(relax.primal):
        # An integral master optimum is optimal outright: no schedule
        # set scores above u, so the integer phases have nothing to
        # find.  On a tie it yields to the initial partition, as the
        # integer solve keeps its hint.
        C = master.build_problem().C
        solution = np.round(relax.primal)
        if lex_compare_eps(LexValue(C @ solution), LexValue(C @ hint)) <= 0:
            solution = hint
        lower = value = LexValue(C @ solution)
    else:
        solution, lower, value = _integer_phases(dag, grid, master, relax,
                                                 upper, hint, stats)
    stats.pool_size = len(master.columns)

    # Sandwich check: l <= value <= u up to the working tolerance.
    if lex_compare_eps(lower, value, 1e-5) > 0 or lex_compare_eps(value, upper, 1e-5) > 0:
        raise RuntimeError(
            f"bound sandwich violated: l={lower}, value={value}, u={upper}"
        )

    schedules: list[list[str]] = [[] for _ in range(m)]
    chosen = np.flatnonzero(np.round(solution) == 1.0)
    for j in chosen:
        col = master.columns[j]
        schedules[col.pilot] = sorted(
            col.pairings, key=lambda pid: instance.pairing(pid).start
        )
    return ColgenResult(
        schedules=schedules,
        value=value,
        upper_bound=upper,
        lower_bound=lower,
        stats=stats,
    )
