"""End-to-end exact PBS solve.

Three phases: lexicographic column generation for the continuous
relaxation (upper bound u), an integer solve on the generated columns
(lower bound l), then completion of the pool with every column whose
reduced cost clears the gap l - u, followed by a final integer solve
which is provably optimal for the full problem.

Pricing runs on the shared scheduling DAG.  Each iteration's snapped
duals form one `DualGrid`, which encodes the heads once for the
pricing spaces of all pilots.  A preliminary shared lex-min over the
first m-1 dual rows (the "reduction" pass) often answers the pricing
problems of all but the most senior pilots in one search.  The empty
schedule is not representable as an o-d path, so it is priced directly
from the assignment duals.  A pilot's candidates, pool or search rows
plus the empty schedule, are ranked as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .illp import IllpProblem, IllpStatus, illp_solve
from .lexcore import DEFAULT_EPS, LexValue, lex_compare_eps, lex_is_positive
from .llp import (
    AugmentedProgram,
    Basis,
    LexSolveResult,
    LlpProblem,
    lex_solve,
)
from .pbs import (
    DualGrid,
    Instance,
    build_dag,
    make_reduction_space,
    make_resource_space,
)
from .rclpp import (
    COST_GRID,
    Dag,
    SearchResult,
    compute_bounds,
    solve_above_threshold,
    solve_n_best,
)


class SolveError(RuntimeError):
    """An integer solve on the column pool did not end optimal."""


def default_columns_per_iter(num_pilots: int) -> int:
    return 10 if num_pilots <= 80 else 16


#: Duals are snapped to this dyadic grid before pricing.  Lex order is
#: discontinuous, so ulp-level noise in the duals can reorder path
#: costs at a leading level and leak through every pruning rule.  On
#: the grid the pricing search runs on exact integers (see rclpp):
#: true ties compare equal and the search logic is sound.  The snap
#: moves each dual by at most 2^-31, far below the positivity tolerance.
DUAL_GRID = COST_GRID


def _snap_duals(duals: np.ndarray) -> np.ndarray:
    return np.round(duals * DUAL_GRID) / DUAL_GRID


@dataclass
class ColgenParams:
    n_columns: int | None = None  # per pilot per iteration; None = default
    K: int | None = None  # reduction pass width; None = number of pilots
    eps: float = DEFAULT_EPS
    use_reduction: bool = True
    use_bounds: bool = True
    verify_loop_exit: bool = False
    audit_reduction: bool = False
    max_iterations: int = 100_000

    def __post_init__(self):
        for name in ("n_columns", "K"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(
                f"eps must be finite and non-negative, not {self.eps}")

    def resolve(self, num_pilots: int) -> "ColgenParams":
        out = ColgenParams(**self.__dict__)
        if out.n_columns is None:
            out.n_columns = default_columns_per_iter(num_pilots)
        if out.K is None:
            out.K = num_pilots
        return out


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

    def contains(self, pilot: int, pairings: frozenset) -> bool:
        return (pilot, pairings) in self._keys

    def column_vector(self, column: Column) -> np.ndarray:
        inst = self.instance
        a = np.zeros(self.num_rows)
        a[column.pilot] = 1.0
        a[[inst.num_pilots + inst.pairing_index[pid]
           for pid in column.pairings]] = 1.0
        return a

    def build_problem(self) -> LlpProblem:
        return self._program.problem()


def _path_to_pairings(path) -> frozenset[str]:
    return frozenset(v for v in path.vertices[1:-1])


def _lex_positive_rows(V: np.ndarray, eps: float) -> np.ndarray:
    """Row mask of `lex_is_positive` over the rows of V: the first entry
    beyond eps in magnitude is positive.  (A row with no such entry
    reads its first, which is not above eps.)"""
    first = (np.abs(V) > eps).argmax(axis=1)
    return V[np.arange(len(V)), first] > eps


def _rank_positive(rows: np.ndarray, eps: float) -> np.ndarray:
    """Indices of the lex-positive rows, lex-largest first.  The sort is
    stable, so tied rows keep their order, as in a sort by the tuple of
    negated entries."""
    positive = np.flatnonzero(_lex_positive_rows(rows, eps))
    # np.lexsort's primary key is the last one: level 0, negated.
    return positive[np.lexsort(-rows[positive, ::-1].T)]


def _direct_pricing(
    dag: Dag,
    grid: DualGrid,
    pilot: int,
    n_paths: int,
    use_bounds: bool,
    floor: LexValue | None = None,
) -> SearchResult:
    space = make_resource_space(grid.instance, pilot, grid.assignment_duals,
                                grid.pairing_duals, grid)
    bounds = compute_bounds(dag, space)
    return solve_n_best(dag, space, bounds, n_paths, floor=floor,
                        use_bounds=use_bounds)


def price_all_pilots(
    dag: Dag,
    grid: DualGrid,
    params: ColgenParams,
    stats: ColgenStats,
    iteration: int,
) -> list[list[frozenset]]:
    """Schedules of lex-positive reduced cost per pilot, best first.

    Runs the reduction pass when enabled: the K best solutions of the
    shared lex-min problem contain the pricing optima of every pilot
    junior to the first level where two of them disagree.

    Direct pricing keeps only paths whose cost clears the floor
    (-eps, ..., -eps, +eps): every eps-positive vector does, so the
    positive candidates are those of an unfloored search, up to ties."""
    instance = grid.instance
    lam, mu = grid.assignment_duals, grid.pairing_duals
    m = instance.num_pilots
    eps = params.eps
    served_from_pool: set[int] = set()
    positive_floor = LexValue((-eps,) * (m - 1) + (eps,))

    if params.use_reduction and m >= 2:
        red_space = make_reduction_space(instance, mu)
        red_bounds = compute_bounds(dag, red_space)
        red = solve_n_best(dag, red_space, red_bounds, params.K,
                           use_bounds=params.use_bounds)
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
        # First dual level (1-based) where two pool members disagree.
        i_star = m + 1
        if len(pool) >= 2:
            spread = sums[:, : m - 1].max(axis=0) - sums[:, : m - 1].min(axis=0)
            disagree = np.flatnonzero(spread > eps)
            if disagree.size:
                i_star = int(disagree[0]) + 1
        if i_star <= m - 1:
            served_from_pool = set(range(i_star, m))  # 0-based i >= i_star

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
                direct = _direct_pricing(dag, grid, i, 1, params.use_bounds)
                direct_cost = direct.best.cost if direct.best else None
                stats.reduction_audit.append((
                    iteration, i, best_pool.entries,
                    direct_cost.entries if direct_cost else None,
                ))
        else:
            res = _direct_pricing(dag, grid, i, params.n_columns,
                                  params.use_bounds, positive_floor)
            stats.pricing.saved_paths += res.stats.saved_paths
            stats.pricing.cuts_by_lb += res.stats.cuts_by_lb
            schedules = [_path_to_pairings(p) for p in res.paths] \
                + [frozenset()]
            rows = np.empty((len(schedules), m))
            rows[:-1] = np.reshape([p.cost.entries for p in res.paths],
                                   (-1, m))
        rows[-1] = -lam[:, i]
        best = _rank_positive(rows, eps)[: params.n_columns]
        candidates.append([schedules[s] for s in best])

    eliminated = len(served_from_pool)
    stats.eliminated_fractions.append(eliminated / m)
    return candidates


def _verify_no_positive_column(dag: Dag, grid: DualGrid, eps: float) -> bool:
    for i in range(grid.instance.num_pilots):
        res = _direct_pricing(dag, grid, i, 1, True)
        if res.best is not None and lex_is_positive(res.best.cost, eps):
            return False
        if lex_is_positive(LexValue(-grid.assignment_duals[:, i]), eps):
            return False
    return True


def gap_complete(
    dag: Dag,
    grid: DualGrid,
    master: RestrictedMaster,
    threshold: LexValue,
    use_bounds: bool,
) -> int:
    """Add every not-yet-pooled column whose reduced cost is
    lexicographically >= threshold.  Returns the number added."""
    instance, lam = grid.instance, grid.assignment_duals
    columns = []
    for i in range(instance.num_pilots):
        space = make_resource_space(instance, i, lam, grid.pairing_duals,
                                    grid)
        bounds = compute_bounds(dag, space)
        res = solve_above_threshold(dag, space, bounds, threshold,
                                    use_bounds=use_bounds)
        columns += [(i, _path_to_pairings(path)) for path in res.paths]
        if LexValue(-lam[:, i]) >= threshold:
            columns.append((i, frozenset()))
    return master.add(columns)


def _remap_basis(basis: Basis, old_n: int, new_n: int) -> Basis:
    """Shift artificial indices after columns were appended to the pool."""
    return Basis(tuple(
        j if j < old_n else j - old_n + new_n for j in basis.indices
    ))


def _partition_hint(master: RestrictedMaster) -> np.ndarray:
    """0/1 vector selecting one pooled column per initial schedule."""
    inst = master.instance
    x = np.zeros(len(master.columns))
    targets = {
        (i, frozenset(s)) for i, s in enumerate(inst.initial_partition)
    }
    for j, col in enumerate(master.columns):
        if (col.pilot, col.pairings) in targets:
            x[j] = 1.0
            targets.discard((col.pilot, col.pairings))
    if targets:
        raise ValueError("initial partition columns missing from the pool")
    return x


def run(instance: Instance, params: ColgenParams | None = None) -> ColgenResult:
    """Solve the PBS instance exactly.  See the module docstring for
    the three phases."""
    instance.validate()
    params = (params or ColgenParams()).resolve(instance.num_pilots)
    m = instance.num_pilots
    eps = params.eps

    master = RestrictedMaster(instance)
    master.add(enumerate(instance.initial_partition))
    dag = build_dag(instance)
    stats = ColgenStats()

    relax: LexSolveResult | None = None
    warm: Basis | None = None
    prev_n = 0
    while True:
        if stats.iterations >= params.max_iterations:
            raise RuntimeError("column generation iteration limit exceeded")
        stats.iterations += 1
        problem = master.build_problem()
        if warm is not None:
            warm = _remap_basis(warm, prev_n, problem.num_cols)
        relax = lex_solve(problem, warm_start=warm, eps=eps)
        warm, prev_n = relax.basis, problem.num_cols
        duals = _snap_duals(relax.duals.as_array())
        grid = DualGrid(instance, duals[:, :m], duals[:, m:])

        candidates = price_all_pilots(dag, grid, params, stats,
                                      stats.iterations)
        columns = [(i, sched) for i, cand in enumerate(candidates)
                   for sched in cand]
        new_count = master.add(columns)
        stats.duplicate_columns += len(columns) - new_count
        stats.generated_columns += new_count
        if new_count == 0:
            break

    if params.verify_loop_exit:
        stats.loop_exit_verified = _verify_no_positive_column(dag, grid, eps)

    upper = relax.value

    lower_res = illp_solve(
        IllpProblem(master.build_problem()),
        incumbent_hint=_partition_hint(master),
        eps=eps,
        warm_start=relax.basis,
    )
    stats.illp_nodes_lower = lower_res.node_count
    if lower_res.status is not IllpStatus.OPTIMAL:
        raise SolveError(f"lower integer solve ended {lower_res.status.value}")
    lower = lower_res.value

    threshold = lower - upper
    stats.gap_columns = gap_complete(dag, grid, master, threshold,
                                     params.use_bounds)

    final_problem = master.build_problem()
    hint = np.zeros(final_problem.num_cols)
    hint[: len(lower_res.solution)] = lower_res.solution
    final_res = illp_solve(
        IllpProblem(final_problem),
        incumbent_hint=hint,
        eps=eps,
        warm_start=_remap_basis(relax.basis, prev_n, final_problem.num_cols),
    )
    stats.illp_nodes_final = final_res.node_count
    if final_res.status is not IllpStatus.OPTIMAL:
        raise SolveError(f"final integer solve ended {final_res.status.value}")
    value = final_res.value
    stats.pool_size = len(master.columns)

    # Sandwich check: l <= value <= u up to the working tolerance.
    if lex_compare_eps(lower, value, 1e-5) > 0 or lex_compare_eps(value, upper, 1e-5) > 0:
        raise RuntimeError(
            f"bound sandwich violated: l={lower}, value={value}, u={upper}"
        )

    schedules: list[list[str]] = [[] for _ in range(m)]
    chosen = np.flatnonzero(np.round(final_res.solution) == 1.0)
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
