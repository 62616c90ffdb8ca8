"""End-to-end exact PBS solve.

Three phases: lexicographic column generation for the continuous
relaxation (upper bound u), an integer solve on the generated columns
(lower bound l), then completion of the pool with every column whose
reduced cost clears the gap l - u, followed by a final integer solve
which is provably optimal for the full problem.

Pricing runs on the shared scheduling DAG.  A preliminary shared
lex-min over the first m-1 dual rows (the "reduction" pass) often
answers the pricing problems of all but the most senior pilots in one
search.  The empty schedule is not representable as an o-d path, so it
is priced directly from the assignment duals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .illp import IllpProblem, IllpStatus, illp_solve
from .lexcore import DEFAULT_EPS, LexValue, lex_compare_eps, lex_is_positive
from .llp import Basis, LexSolveResult, LlpProblem, lex_solve
from .pbs import (
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

    def resolve(self, num_pilots: int) -> "ColgenParams":
        out = ColgenParams(**self.__dict__)
        if out.n_columns is None:
            out.n_columns = default_columns_per_iter(num_pilots)
        if out.K is None:
            out.K = num_pilots
        return out


@dataclass(frozen=True)
class Column:
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
    """Column pool plus the assembled standard-form lex program.

    Rows: one assignment row per pilot followed by one partition row
    per pairing (in instance order)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.columns: list[Column] = []
        self._keys: set[tuple[int, frozenset]] = set()

    @property
    def num_rows(self) -> int:
        return self.instance.num_pilots + self.instance.num_pairings

    def add(self, column: Column) -> bool:
        key = (column.pilot, column.pairings)
        if key in self._keys:
            return False
        self._keys.add(key)
        self.columns.append(column)
        return True

    def contains(self, pilot: int, pairings: frozenset) -> bool:
        return (pilot, pairings) in self._keys

    def column_vector(self, column: Column) -> np.ndarray:
        inst = self.instance
        a = np.zeros(self.num_rows)
        a[column.pilot] = 1.0
        for pid in column.pairings:
            a[inst.num_pilots + inst.pairing_index[pid]] = 1.0
        return a

    def build_problem(self) -> LlpProblem:
        inst = self.instance
        n = len(self.columns)
        A = np.zeros((self.num_rows, n))
        C = np.zeros((inst.num_pilots, n))
        for j, col in enumerate(self.columns):
            A[:, j] = self.column_vector(col)
            C[col.pilot, j] = float(col.score)
        return LlpProblem(A=A, b=np.ones(self.num_rows), C=C)


def _make_column(instance: Instance, pilot: int, pairings) -> Column:
    ids = frozenset(pairings)
    return Column(pilot, ids, instance.schedule_score(pilot, ids))


def _path_to_pairings(path) -> frozenset[str]:
    return frozenset(v for v in path.vertices[1:-1])


def _schedule_reduced_cost(
    instance: Instance, pilot: int, pairings, lam: np.ndarray, mu: np.ndarray
) -> LexValue:
    """Reduced cost of column (pilot, schedule) straight from the duals."""
    rc = -lam[:, pilot].copy()
    # Sorted indices: float sums must not depend on set iteration order.
    idx = sorted(instance.pairing_index[pid] for pid in pairings)
    if idx:
        rc -= mu[:, idx].sum(axis=1)
    rc[pilot] += instance.schedule_score(pilot, pairings)
    return LexValue(rc)


def _direct_pricing(
    instance: Instance,
    dag: Dag,
    pilot: int,
    lam: np.ndarray,
    mu: np.ndarray,
    n_paths: int,
    use_bounds: bool,
) -> SearchResult:
    space = make_resource_space(instance, pilot, lam, mu)
    bounds = compute_bounds(dag, space)
    return solve_n_best(dag, space, bounds, n_paths, use_bounds=use_bounds)


def price_all_pilots(
    instance: Instance,
    dag: Dag,
    lam: np.ndarray,
    mu: np.ndarray,
    params: ColgenParams,
    stats: ColgenStats,
    iteration: int,
) -> list[list[tuple[LexValue, frozenset]]]:
    """Lex-positive candidate columns per pilot, best first.

    Runs the reduction pass when enabled: the K best solutions of the
    shared lex-min problem contain the pricing optima of every pilot
    junior to the first level where two of them disagree."""
    m = instance.num_pilots
    eps = params.eps
    served_from_pool: set[int] = set()
    pool: list[tuple[frozenset, np.ndarray]] = []  # (schedule, mu row sums)

    if params.use_reduction and m >= 2:
        red_space = make_reduction_space(instance, mu)
        red_bounds = compute_bounds(dag, red_space)
        red = solve_n_best(dag, red_space, red_bounds, params.K,
                           use_bounds=params.use_bounds)
        stats.reduction.saved_paths += red.stats.saved_paths
        stats.reduction.cuts_by_lb += red.stats.cuts_by_lb
        schedules = [_path_to_pairings(p) for p in red.paths]
        sums = []
        for s in schedules:
            idx = sorted(instance.pairing_index[pid] for pid in s)
            sums.append(mu[:, idx].sum(axis=1) if idx else np.zeros(m))
        pool = list(zip(schedules, sums))
        # First dual level (1-based) where two pool members disagree.
        i_star = m + 1
        if len(pool) >= 2:
            for l in range(m - 1):
                vals = [sm[l] for _, sm in pool]
                if max(vals) - min(vals) > eps:
                    i_star = l + 1
                    break
        if i_star <= m - 1:
            served_from_pool = set(range(i_star, m))  # 0-based i >= i_star

    candidates: list[list[tuple[LexValue, frozenset]]] = []
    for i in range(m):
        cand: list[tuple[LexValue, frozenset]] = []
        if i in served_from_pool:
            for sched, _ in pool:
                rc = _schedule_reduced_cost(instance, i, sched, lam, mu)
                cand.append((rc, sched))
            if params.audit_reduction and cand:
                best_pool = max(c[0] for c in cand)
                direct = _direct_pricing(instance, dag, i, lam, mu, 1,
                                         params.use_bounds)
                direct_cost = direct.best.cost if direct.best else None
                stats.reduction_audit.append((
                    iteration, i, best_pool.entries,
                    direct_cost.entries if direct_cost else None,
                ))
        else:
            res = _direct_pricing(instance, dag, i, lam, mu,
                                  params.n_columns, params.use_bounds)
            stats.pricing.saved_paths += res.stats.saved_paths
            stats.pricing.cuts_by_lb += res.stats.cuts_by_lb
            cand = [(p.cost, _path_to_pairings(p)) for p in res.paths]
        # The empty schedule, priced directly.
        cand.append((LexValue(-lam[:, i]), frozenset()))
        cand = [c for c in cand if lex_is_positive(c[0], eps)]
        cand.sort(key=lambda c: tuple(-e for e in c[0].entries))
        candidates.append(cand[: params.n_columns])

    eliminated = len(served_from_pool)
    stats.eliminated_fractions.append(eliminated / m)
    return candidates


def _verify_no_positive_column(
    instance: Instance,
    dag: Dag,
    lam: np.ndarray,
    mu: np.ndarray,
    eps: float,
) -> bool:
    for i in range(instance.num_pilots):
        res = _direct_pricing(instance, dag, i, lam, mu, 1, True)
        if res.best is not None and lex_is_positive(res.best.cost, eps):
            return False
        if lex_is_positive(LexValue(-lam[:, i]), eps):
            return False
    return True


def gap_complete(
    instance: Instance,
    dag: Dag,
    master: RestrictedMaster,
    lam: np.ndarray,
    mu: np.ndarray,
    threshold: LexValue,
    use_bounds: bool,
) -> int:
    """Add every not-yet-pooled column whose reduced cost is
    lexicographically >= threshold.  Returns the number added."""
    added = 0
    for i in range(instance.num_pilots):
        space = make_resource_space(instance, i, lam, mu)
        bounds = compute_bounds(dag, space)
        res = solve_above_threshold(dag, space, bounds, threshold,
                                    use_bounds=use_bounds)
        for path in res.paths:
            if master.add(_make_column(instance, i, _path_to_pairings(path))):
                added += 1
        if LexValue(-lam[:, i]) >= threshold:
            if master.add(_make_column(instance, i, frozenset())):
                added += 1
    return added


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
    for i, sched in enumerate(instance.initial_partition):
        master.add(_make_column(instance, i, sched))
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
        lam, mu = duals[:, :m], duals[:, m:]

        candidates = price_all_pilots(
            instance, dag, lam, mu, params, stats, stats.iterations
        )
        new_count = 0
        for i, cand in enumerate(candidates):
            for rc, sched in cand:
                if master.add(_make_column(instance, i, sched)):
                    new_count += 1
                else:
                    stats.duplicate_columns += 1
        stats.generated_columns += new_count
        if new_count == 0:
            break

    if params.verify_loop_exit:
        stats.loop_exit_verified = _verify_no_positive_column(
            instance, dag, lam, mu, eps
        )

    upper = relax.value

    lower_res = illp_solve(
        IllpProblem(master.build_problem()),
        incumbent_hint=_partition_hint(master),
        eps=eps,
    )
    stats.illp_nodes_lower = lower_res.node_count
    if lower_res.status is not IllpStatus.OPTIMAL:
        raise SolveError(f"lower integer solve ended {lower_res.status.value}")
    lower = lower_res.value

    threshold = lower - upper
    stats.gap_columns = gap_complete(
        instance, dag, master, lam, mu, threshold, params.use_bounds
    )

    final_problem = master.build_problem()
    hint = np.zeros(final_problem.num_cols)
    hint[: len(lower_res.solution)] = lower_res.solution
    final_res = illp_solve(IllpProblem(final_problem), incumbent_hint=hint, eps=eps)
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
