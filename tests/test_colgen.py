"""End-to-end column generation."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import FRACTIONAL_MONTHS, day_pairing, make_instance
from lexpbs import colgen, illp, llp
from lexpbs.cli import _validate_solution, generate, stats_to_dict
from lexpbs.colgen import (
    COLUMNS_PER_ITER,
    ColgenParams,
    RestrictedMaster,
    SolveError,
    _positive_floor,
    _verify_no_positive_column,
    run,
    sequential_columns,
)
from lexpbs.illp import IllpResult
from lexpbs.lexcore import DEFAULT_EPS, LexValue, lex_is_positive
from lexpbs.llp import LlpProblem
from lexpbs.oracle import oracle_pbs
from lexpbs.pbs import (
    DualGrid,
    ScheduleResourceSpace,
    build_dag,
    is_feasible,
    make_resource_space,
    schedule_to_path_cost,
)
from lexpbs.rclpp import COST_GRID, compute_bounds, solve_above_threshold


def disjoint_two_pilot(scores):
    return make_instance(
        [day_pairing("p1", 0, 2), day_pairing("p2", 10, 12)],
        scores, [["p1"], ["p2"]],
    )


class TestFixtures:
    def test_trivial_exit(self):
        # The initial partition is lex-optimal and the first dual
        # certificate proves it: one pricing round, no columns.  The
        # sequential seed pools two columns before it: pilot 1's
        # {p1, p2}, which ties {p1} at 100, and, in the pass that starts
        # at pilot 2, pilot 2's {p1, p2}, which ties {p2}.  Its other
        # seeded schedules, {p1} and {p2}, are the initial partition's.
        inst = disjoint_two_pilot([[100, 0], [0, 100]])
        res = run(inst)
        assert res.value == LexValue((100, 100))
        assert res.stats.iterations == 1
        assert res.stats.generated_columns == 2

    def test_tie_at_level_one_broken_at_level_two(self):
        # Overlapping pairings: one per pilot.  The senior pilot ties
        # at 50 either way; the junior pilot's preference decides.
        inst = make_instance(
            [day_pairing("p1", 0, 3), day_pairing("p2", 2, 5)],
            [[50, 50], [90, 10]], [["p1"], ["p2"]],
        )
        res = run(inst)
        value, _ = oracle_pbs(inst)
        assert res.value == value == LexValue((50, 90))
        # The junior pilot gets p1; a sum objective could not tell the
        # two assignments apart.
        assert res.schedules[1] == ["p1"]

    def test_empty_schedule_chosen(self):
        inst = make_instance(
            [day_pairing("p1", 0, 2)], [[0], [10]], [["p1"], []]
        )
        res = run(inst)
        assert res.value == LexValue((0, 10))
        assert res.schedules[0] == []
        assert res.schedules[1] == ["p1"]

    def test_gap_threshold_literals(self):
        # Two parallel paths with reduced costs (0,-3) and (0,-1); the
        # gap threshold (0,-2) keeps only the latter.
        a = day_pairing("a", 0, 3)
        b = day_pairing("b", 2, 5)
        inst = make_instance([a, b], [[1, 1]], [["a"], []][:1])
        space = ScheduleResourceSpace.from_costs(
            inst, {"a": (0.0, -3.0), "b": (0.0, -1.0)}, (0.0, 0.0), 2
        )
        dag = build_dag(inst)
        bounds = compute_bounds(dag, space)
        res = solve_above_threshold(dag, space, bounds, LexValue((0, -2)))
        assert [p.vertices[1] for p in res.paths] == ["b"]


class TestParams:
    def test_params_are_pinned(self):
        # Each solve setting is named here, so that a new one shows up
        # as a change to this test.
        assert [f.name for f in dataclasses.fields(ColgenParams)] == [
            "use_reduction", "verify_loop_exit", "audit_reduction"]


class TestCandidateRanking:
    def test_array_rank_matches_tuple_key_sort(self):
        """`_rank_positive` against a filter by `lex_is_positive` and a
        stable sort by the tuple of negated entries, on rows full of
        ties, signed zeros and entries within and just beyond eps."""
        eps = DEFAULT_EPS
        values = np.array([0.0, -0.0, eps, -eps, eps / 2, -eps / 2,
                           2 * eps, -2 * eps, 1.0, -1.0, 0.25])
        rng = np.random.default_rng(0)
        for _ in range(400):
            k, m = rng.integers(1, 13), rng.integers(1, 5)
            rows = rng.choice(values, size=(k, m))
            # The last row plays the empty schedule; some rows repeat it.
            rows[rng.random(k) < 0.2] = rows[-1]
            cand = [(LexValue(r), s) for s, r in enumerate(rows)]
            cand = [c for c in cand if lex_is_positive(c[0], eps)]
            cand.sort(key=lambda c: tuple(-e for e in c[0].entries))
            assert colgen._rank_positive(rows).tolist() \
                == [s for _, s in cand]


class TestMasterPool:
    def test_duplicate_columns_rejected(self):
        inst = disjoint_two_pilot([[1, 2], [3, 4]])
        master = RestrictedMaster(inst)
        assert master.add([(0, ["p1"])]) == 1
        assert master.add([(0, frozenset({"p1"})), (0, ["p2"]),
                           (0, ["p2"])]) == 1
        assert [(c.pilot, c.pairings, inst.schedule_score(*c))
                for c in master.columns] \
            == [(0, frozenset({"p1"}), 1), (0, frozenset({"p2"}), 2)]

    def test_partition_basis_checks_the_pool(self):
        inst = disjoint_two_pilot([[1, 2], [3, 4]])
        master = RestrictedMaster(inst)
        master.add([(1, ["p2"]), (0, ["p1"])])
        with pytest.raises(ValueError, match="initial partition"):
            master.partition_basis()
        master = RestrictedMaster(inst)
        master.add([(0, ["p1"]), (1, ["p2"]), (0, ["p2"])])
        # Rows: pilot 0, pilot 1, p1, p2.
        assert master.partition_basis().tolist() == [0, 1, -3, -4]
        assert colgen._partition_hint(master).tolist() == [1.0, 1.0, 0.0]

    def test_column_vector_layout(self):
        inst = disjoint_two_pilot([[1, 2], [3, 4]])
        master = RestrictedMaster(inst)
        master.add([(1, ["p2"])])
        a = master.column_vector(master.columns[0])
        assert a.tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_build_problem_equals_column_by_column_build(self):
        inst = generate(2, 3, 7)
        master = RestrictedMaster(inst)

        def column_by_column():
            A = np.column_stack(
                [master.column_vector(c) for c in master.columns])
            C = np.zeros((inst.num_pilots, len(master.columns)))
            for j, col in enumerate(master.columns):
                C[col.pilot, j] = inst.schedule_score(*col)
            return A, C

        master.add(enumerate(inst.initial_partition))
        for appended in ([], [(0, []), (2, ["p001"]), (1, ["p004", "p006"])]):
            master.add(appended)
            problem = master.build_problem()
            A, C = column_by_column()
            assert problem.A.shape == A.shape
            assert problem.A.tobytes() == A.tobytes()
            assert problem.C.shape == C.shape
            assert problem.C.tobytes() == C.tobytes()
            assert problem.b.tolist() == [1.0] * master.num_rows


class TestPersistentMaster:
    # Months of 3 x 9, 4 x 12 and 10 x 40 pilots x pairings; the last
    # one's integer solves branch (3 nodes each).
    MONTHS = ((2, 3, 9), (4, 4, 12), (5, 10, 40))

    def test_master_solves_equal_fresh_solves(self, monkeypatch):
        # At every CG iteration the master's lex LP, solved on its kept
        # augmented program, equals bit for bit a solve of a copied
        # program that builds everything anew.  The first solve starts
        # from the initial partition's basis, every later one from the
        # previous solve's final basis.
        real = colgen.lex_solve
        solves = []

        def spy(problem, warm_start=None):
            assert problem.augmented is not None
            res = real(problem, warm_start=warm_start)
            fresh = real(LlpProblem(A=problem.A.copy(), b=problem.b.copy(),
                                    C=problem.C.copy()),
                         warm_start=warm_start)
            assert res.value.entries == fresh.value.entries
            assert res.basis.tolist() == fresh.basis.tolist()
            assert res.duals.tobytes() == fresh.duals.tobytes()
            assert res.primal.tobytes() == fresh.primal.tobytes()
            solves.append((np.array(warm_start), res.basis))
            return res

        monkeypatch.setattr(colgen, "lex_solve", spy)
        for seed, m, n in self.MONTHS:
            del solves[:]
            res = run(generate(seed, m, n))
            assert len(solves) == res.stats.iterations >= 2
            partition = list(range(m)) + [-1 - r for r in range(m, m + n)]
            assert solves[0][0].tolist() == partition
            for (_, final), (warm, _) in zip(solves, solves[1:]):
                assert warm.tolist() == final.tolist()

    def test_every_warm_start_factors_once_before_its_first_pivot(
            self, monkeypatch):
        # Each master solve is warm-started, the first from the initial
        # partition's basis and each later one from the previous
        # solve's final basis: it factors that basis once and needs no
        # phase 1 before its first pivot.
        events = []
        real_lu, real_pivot = llp.lu_factor, llp._Simplex._pivot
        monkeypatch.setattr(
            llp, "lu_factor", lambda B: events.append("lu") or real_lu(B))
        monkeypatch.setattr(
            llp._Simplex, "_pivot",
            lambda sx, *args: events.append("pivot") or real_pivot(sx, *args))
        real_phase1 = llp._Simplex.phase1
        monkeypatch.setattr(
            llp._Simplex, "phase1",
            lambda sx: events.append("phase 1") or real_phase1(sx))
        real = colgen.lex_solve
        before_first_pivot = []

        def spy(problem, warm_start=None):
            del events[:]
            res = real(problem, warm_start=warm_start)
            end = events.index("pivot") if "pivot" in events \
                else len(events)
            before_first_pivot.append(events[:end])
            return res

        monkeypatch.setattr(colgen, "lex_solve", spy)
        run(generate(*self.MONTHS[2]))
        assert len(before_first_pivot) >= 10
        assert all(e == ["lu"] for e in before_first_pivot)


class TestAgainstOracle:
    def test_random_instances(self):
        for seed in range(10):
            inst = generate(seed, 3, int(3 + seed % 6))
            res = run(inst, ColgenParams(verify_loop_exit=True))
            value, _ = oracle_pbs(inst)
            assert res.value == value
            assert res.stats.loop_exit_verified is True
            # Sandwich and a valid partition.
            assert res.lower_bound <= res.value
            seen = set()
            for i, sched in enumerate(res.schedules):
                assert is_feasible(inst, sched)
                seen.update(sched)
            assert seen == {p.id for p in inst.pairings}

    def test_fractional_masters_reach_gap_completion(self):
        # Generated months mostly end at an integral master optimum and
        # skip the integer phases; these end fractional, so the lower
        # integer solve, gap completion and the final integer solve all
        # run, and must still reach the oracle's value.
        for spec in FRACTIONAL_MONTHS + [(166, 3, 10), (2377, 3, 10),
                                         (2443, 3, 11)]:
            inst = generate(*spec)
            res = run(inst, ColgenParams(verify_loop_exit=True))
            value, _ = oracle_pbs(inst)
            assert res.value == value, spec
            assert res.stats.loop_exit_verified is True, spec
            assert res.stats.illp_nodes_lower >= 1, spec
            assert res.stats.illp_nodes_final >= 1, spec
            assert res.lower_bound <= res.value <= res.upper_bound, spec

    def test_reduction_and_bounds_toggles(self):
        for seed in (1, 4, 8):
            inst = generate(seed, 3, 7)
            base = run(inst)
            no_red = run(inst, ColgenParams(use_reduction=False))
            assert no_red.value == base.value
            assert no_red.stats.reduction.saved_paths == 0

    def test_deterministic_repeat(self):
        inst = generate(3, 3, 7)
        a, b = run(inst), run(inst)
        assert a.value == b.value
        assert a.schedules == b.schedules
        assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    def test_stats_counters(self):
        for spec in FRACTIONAL_MONTHS:
            inst = generate(*spec)
            res = run(inst, ColgenParams(audit_reduction=True))
            s = res.stats
            assert s.iterations >= 1
            assert s.pool_size >= len(inst.pairings)
            assert s.illp_nodes_lower >= 1 and s.illp_nodes_final >= 1
            assert 0.0 <= s.avg_eliminated_pct <= 100.0
            # Every audited pool harvest matched the direct per-pilot
            # solve.
            for _, _, pool_cost, direct_cost in s.reduction_audit:
                assert pool_cost == direct_cost
        # This month's master ends integral: no integer solve, no gap
        # completion, and the bounds meet at the value.
        res = run(generate(6, 3, 8))
        s = res.stats
        assert s.illp_nodes_lower == s.illp_nodes_final == 0
        assert s.gap_columns == 0
        assert s.pool_size == s.generated_columns + 3
        assert res.lower_bound == res.value


class TestPositiveFloor:
    @pytest.mark.parametrize("unit", [1, 2 ** 10, 2 ** 11, 2 ** 29])
    def test_least_positive_lattice_vector(self, unit):
        # Grid digits of eps and the multiples of the unit nearest it.
        e = DEFAULT_EPS * COST_GRID
        q = unit * math.floor(e / unit)
        near = sorted({d * s for d in (0, unit, q - unit, q, q + unit,
                                       q + 2 * unit) if d >= 0
                       for s in (1, -1)})
        for m in (1, 2, 3):
            floor = _positive_floor(m, unit)
            digits = [x * COST_GRID for x in floor.entries]
            assert all(d % unit == 0 for d in digits)
            assert lex_is_positive(floor)
            for v in itertools.product(near, repeat=m):
                vec = LexValue([d / COST_GRID for d in v])
                if lex_is_positive(vec):
                    assert vec >= floor, (m, v)
            # One unit less at any level is no longer eps-positive.
            for level in range(m):
                lower = list(digits)
                lower[level] -= unit
                assert not lex_is_positive(
                    LexValue([d / COST_GRID for d in lower]))


class TestSequentialSeed:
    # Oracle-sized months: the fractional ones and 20 generated ones of
    # 2-4 pilots and 8-12 pairings.
    MONTHS = FRACTIONAL_MONTHS + [(300 + k, 2 + k % 3, 8 + k % 5)
                                  for k in range(20)]

    # The generated scores, and two remaps: with many scores negative a
    # pilot's best schedule may skip pairings it can fly, or be empty;
    # with scores in {-1, 0, 1} many schedules tie, some at 0.
    REMAPS = (lambda s: s, lambda s: s - 5, lambda s: s % 3 - 1)

    def test_against_brute_force(self):
        for spec, remap in itertools.product(self.MONTHS, self.REMAPS):
            inst = generate(*spec)
            inst.scores = remap(inst.scores)
            m = inst.num_pilots
            ids = [p.id for p in inst.pairings]
            feasible = [frozenset(c) for r in range(1, len(ids) + 1)
                        for c in itertools.combinations(ids, r)
                        if is_feasible(inst, c)]
            seeded = sequential_columns(build_dag(inst), inst)
            # One pass per start rank 0, 1, 2, 4, ... below m, in that
            # order, each over its own taken set, up to the first state
            # an earlier pass reached.
            rest = iter(seeded)
            reached = set()
            for start in [0] + [2 ** j for j in range(m) if 2 ** j < m]:
                taken = frozenset()
                for i in range(start, m):
                    if (i, taken) in reached:
                        break
                    reached.add((i, taken))
                    def score(sched):
                        return sum(int(inst.scores[i, inst.pairing_index[p]])
                                   for p in sched)
                    # The seeded scores are the best of the positive
                    # schedules over the pairings left, best first, so
                    # the first one is the pilot's best schedule there.
                    best = sorted((score(s) for s in feasible
                                   if not s & taken and score(s) > 0),
                                  reverse=True)[:COLUMNS_PER_ITER]
                    mine = list(itertools.islice(rest, len(best)))
                    assert [j for j, _ in mine] == [i] * len(best), \
                        (spec, start, i)
                    for _, sched in mine:
                        assert is_feasible(inst, sched), spec
                        assert not sched & taken, spec
                    assert [score(s) for _, s in mine] == best, \
                        (spec, start, i)
                    if mine:
                        taken |= mine[0][1]
            assert next(rest, None) is None, spec


class TestSeedPassStop:
    # The benchmark's wide-batch months.
    MONTHS = [(1, 16, 24), (2, 20, 28), (3, 24, 32), (4, 30, 36),
              (5, 18, 26), (6, 26, 34)]

    @staticmethod
    def unstopped_seed(dag, inst):
        """The seed without the pass stop, every search on a space built
        from a float cost array: (pilot, schedule) pairs and, per
        search, the (pilot, taken set) state and the space."""
        m, n = inst.num_pilots, inst.num_pairings
        columns, states = [], {}
        for start in [0] + [2 ** j for j in range(m) if 2 ** j < m]:
            taken = np.zeros(n, dtype=bool)
            for i in range(start, m):
                costs = np.zeros((n + 1, 1))
                costs[:n, 0] = inst.scores[i]
                costs[:n, 0][taken] -= 1 + np.abs(inst.scores[i]).sum()
                space = ScheduleResourceSpace.from_array(inst, costs)
                states.setdefault((i, taken.tobytes()), []).append(space)
                res = colgen.solve_n_best(dag, space,
                                          compute_bounds(dag, space),
                                          COLUMNS_PER_ITER)
                scheds = [frozenset(p.vertices[1:-1]) for p in res.paths
                          if p.cost.entries[0] > 0]
                columns += [(i, s) for s in scheds]
                if scheds:
                    taken[[inst.pairing_index[p] for p in scheds[0]]] = True
        return columns, states

    def test_same_pool_one_search_per_state(self, monkeypatch):
        # Ending a pass at a state an earlier pass reached pools the
        # same columns in the same order, with one search per distinct
        # state.  The head keys built from the scores equal those of the
        # space built from the float costs of the state, codec included.
        searches = []
        real_search = colgen.solve_n_best

        def search(dag, space, bounds, n):
            searches.append(space)
            return real_search(dag, space, bounds, n)

        states = unstopped = 0
        for spec in self.MONTHS:
            inst = generate(*spec)
            dag = build_dag(inst)
            ref, ref_states = self.unstopped_seed(dag, inst)
            del searches[:]
            with monkeypatch.context() as mp:
                mp.setattr(colgen, "solve_n_best", search)
                seeded = sequential_columns(dag, inst)
            pools = []
            for columns in (seeded, ref):
                master = RestrictedMaster(inst)
                master.add(enumerate(inst.initial_partition))
                master.add(columns)
                pools.append(master.columns)
            assert pools[0] == pools[1], spec
            assert len(searches) == len(ref_states), spec
            for space, (want, *_) in zip(searches, ref_states.values()):
                codec, keys = space.head_keys(dag.table)
                ref_codec, ref_keys = want.head_keys(dag.table)
                assert keys == ref_keys, spec
                assert (codec.length, codec.shift, codec.none) == (
                    ref_codec.length, ref_codec.shift, ref_codec.none), spec
            states += len(searches)
            unstopped += sum(map(len, ref_states.values()))
        assert (states, unstopped) == (473, 618)


def test_no_solve_runs_phase_one(monkeypatch):
    # The first master solve starts from the initial partition's basis,
    # which is feasible, and each later one from the previous final
    # basis, so no master solve runs phase 1.  In branch and bound each
    # node LP starts from a warm basis too, and the dual repair's stuck
    # row proves each infeasible child infeasible: no solve runs it.
    runs, infeasible = [], []
    real_phase1, real_node = llp._Simplex.phase1, illp._node_relaxation

    def phase1(sx):
        runs.append(real_phase1(sx))
        return runs[-1]

    def node(*args):
        res = real_node(*args)
        infeasible.append(res is None)
        return res

    monkeypatch.setattr(llp._Simplex, "phase1", phase1)
    monkeypatch.setattr(illp, "_node_relaxation", node)
    # Months that stop at an integral master, then two that branch: the
    # 12x48 month of seed 3, none of whose children is infeasible, and
    # a fractional oracle-sized month, 8 of whose children are.
    for spec, integral, children in [
            ((3, 24, 32), True, 0), ((5, 18, 26), True, 0),
            ((0, 3, 9), True, 0), ((6, 3, 8), True, 0),
            ((3, 12, 48), False, 0), ((2323, 3, 11), False, 8)]:
        del runs[:], infeasible[:]
        res = run(generate(*spec))
        assert (res.stats.illp_nodes_lower == 0) == integral, spec
        assert sum(infeasible) == children, spec
        assert runs == [], spec


def test_pricing_builds_no_reference_resource(monkeypatch):
    # Pricing reads each searched path's integer key: a default solve
    # builds no reference resource, in the seed, the reduction pass,
    # direct pricing, gap completion or branch and bound.
    built = []
    real = ScheduleResourceSpace.resource
    monkeypatch.setattr(ScheduleResourceSpace, "resource", staticmethod(
        lambda *r: built.append(r) or real(*r)))
    for spec in [(1, 16, 24), FRACTIONAL_MONTHS[0]]:
        res = run(generate(*spec))
        assert built == [], spec
    assert res.stats.gap_columns > 0 and res.stats.illp_nodes_final > 0
    # The spy does see a result's resource when it is read.
    inst = generate(*FRACTIONAL_MONTHS[0])
    dag = build_dag(inst)
    space = ScheduleResourceSpace.from_array(
        inst, np.ones((inst.num_pairings + 1, 1)))
    path = solve_above_threshold(dag, space, compute_bounds(dag, space),
                                 LexValue((0,))).paths[0]
    assert path.resource.cost == path.cost.entries
    assert len(built) == 1


def test_exact_bound_sandwich():
    # l <= value <= u holds exactly, not only within the run's
    # DEFAULT_EPS check: u is the row sums of the last round's snapped duals, exact
    # on the dual grid.  The master's float value, about 1e-13 off,
    # fell lex-below the integral optimum on these months.  The first
    # two stop at an integral master; the 12x48 month branches.
    for spec in [(3, 24, 32), (5, 18, 26), (3, 12, 48)]:
        res = run(generate(*spec))
        assert res.lower_bound <= res.value <= res.upper_bound, spec


def test_twenty_pilot_month():
    # Beyond the oracle's reach: the loop exit is re-proved by direct
    # pricing and the schedules checked as the CLI checks them.  Without
    # the sequential seed the master of this month stalls at the pivot
    # limit.
    inst = generate(1, 20, 80)
    res = run(inst, ColgenParams(verify_loop_exit=True))
    assert res.stats.loop_exit_verified is True
    _validate_solution(inst, res)


class TestLoopExitCheck:
    def test_positive_column_behind_a_non_positive_best(self):
        # Pilot 0's lex-max schedule {p, q} costs (2^-21, 0), which is
        # not eps-positive; {q} costs (0, 1), which is.  The check must
        # rank every path of the floored search, not judge the best
        # alone.
        inst = make_instance([day_pairing("p", 0, 1), day_pairing("q", 3, 4)],
                             [[1, 0], [0, -2]], [["p", "q"], []])
        grid = DualGrid(inst, np.zeros((2, 2)),
                        np.array([[1 - 2.0 ** -21, 0], [1, -1]]))
        space = make_resource_space(grid, 0)
        assert schedule_to_path_cost(space, ["p", "q"]) \
            == LexValue((2.0 ** -21, 0))
        assert schedule_to_path_cost(space, ["q"]) == LexValue((0, 1))
        assert _verify_no_positive_column(build_dag(inst), grid) is False

    def test_zero_duals_leave_positive_columns(self):
        # Under zero duals every schedule of positive score prices in.
        inst = generate(3, 4, 10)
        m, n = inst.num_pilots, inst.num_pairings
        grid = DualGrid(inst, np.zeros((m, m)), np.zeros((m, n)))
        assert _verify_no_positive_column(build_dag(inst), grid) is False


class TestIntegralStop:
    def test_integral_tie_keeps_the_initial_partition(self, monkeypatch):
        # Pilot 0 scores nothing, so swapping the two overlapping
        # pairings ties the initial partition at (0, 7).  The first
        # pricing round also offers the swapped columns, and the master
        # is made to end at the swapped vertex.  As the integer solve
        # keeps its hint on a tie, the solve must keep the partition's
        # schedules.
        inst = make_instance([day_pairing("p1", 0, 3),
                              day_pairing("p2", 2, 5)],
                             [[0, 0], [7, 7]], [["p1"], ["p2"]])
        real_price, real_solve = colgen.price_all_pilots, colgen.lex_solve

        def price(dag, grid, params, stats):
            candidates = real_price(dag, grid, params, stats)
            if stats.iterations == 1:
                candidates[0].append(frozenset(["p2"]))
                candidates[1].append(frozenset(["p1"]))
            return candidates

        # Rows: pilot 0, pilot 1, p1, p2.
        swapped = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=float)
        ended_swapped = []

        def solve(problem, **kw):
            res = real_solve(problem, **kw)
            x = (problem.A.T[:, None, :] == swapped).all(axis=2).any(axis=1)
            if x.sum() < 2:
                return res
            ended_swapped.append(True)
            return dataclasses.replace(res, primal=x.astype(float))

        monkeypatch.setattr(colgen, "price_all_pilots", price)
        monkeypatch.setattr(colgen, "lex_solve", solve)
        res = run(inst)
        assert ended_swapped
        assert res.schedules == [["p1"], ["p2"]]
        assert res.value == res.lower_bound == LexValue((0, 7))
        assert res.stats.illp_nodes_lower == res.stats.illp_nodes_final == 0


class TestIntegerSolveStatus:
    def test_non_optimal_integer_solve_raises(self, monkeypatch):
        # The check must survive `python -O`, so it is not an assert.
        def infeasible(problem, incumbent_hint=None, warm_start=None):
            return IllpResult(None, None, 1)

        monkeypatch.setattr(colgen, "illp_solve", infeasible)
        with pytest.raises(SolveError, match="lower integer solve"):
            run(generate(*FRACTIONAL_MONTHS[0]))

    def test_final_integer_solve_without_solution_raises(self, monkeypatch):
        calls = []
        real_solve = colgen.illp_solve

        def second_infeasible(problem, **kw):
            calls.append(problem)
            if len(calls) == 2:
                return IllpResult(None, None, 1)
            return real_solve(problem, **kw)

        monkeypatch.setattr(colgen, "illp_solve", second_infeasible)
        with pytest.raises(SolveError, match="final integer solve"):
            run(generate(*FRACTIONAL_MONTHS[0]))
        assert len(calls) == 2
