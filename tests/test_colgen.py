"""End-to-end column generation."""

import numpy as np
import pytest

from conftest import day_pairing, make_instance
from lexpbs import colgen, llp
from lexpbs.cli import generate, stats_to_dict
from lexpbs.colgen import (
    ColgenParams,
    RestrictedMaster,
    SolveError,
    run,
)
from lexpbs.illp import IllpResult, IllpStatus
from lexpbs.lexcore import DEFAULT_EPS, LexValue, lex_is_positive
from lexpbs.llp import LlpProblem
from lexpbs.oracle import oracle_pbs
from lexpbs.pbs import ScheduleResourceSpace, build_dag, is_feasible
from lexpbs.rclpp import compute_bounds, solve_above_threshold


def disjoint_two_pilot(scores):
    return make_instance(
        [day_pairing("p1", 0, 2), day_pairing("p2", 10, 12)],
        scores, [["p1"], ["p2"]],
    )


class TestFixtures:
    def test_trivial_exit(self):
        # The initial partition is lex-optimal and the first dual
        # certificate proves it: one pricing round, no columns.
        inst = disjoint_two_pilot([[100, 0], [0, 100]])
        res = run(inst)
        assert res.value == LexValue((100, 100))
        assert res.stats.iterations == 1
        assert res.stats.generated_columns == 0

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
        space = ScheduleResourceSpace(
            inst, {"a": (0.0, -3.0), "b": (0.0, -1.0)}, (0.0, 0.0), 2
        )
        dag = build_dag(inst)
        bounds = compute_bounds(dag, space)
        res = solve_above_threshold(dag, space, bounds, LexValue((0, -2)))
        assert [p.vertices[1] for p in res.paths] == ["b"]


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
            assert colgen._rank_positive(rows, eps).tolist() \
                == [s for _, s in cand]


class TestMasterPool:
    def test_duplicate_columns_rejected(self):
        inst = disjoint_two_pilot([[1, 2], [3, 4]])
        master = RestrictedMaster(inst)
        assert master.add([(0, ["p1"])]) == 1
        assert master.add([(0, frozenset({"p1"})), (0, ["p2"]),
                           (0, ["p2"])]) == 1
        assert master.contains(0, frozenset({"p1"}))
        assert [(c.pilot, c.pairings, c.score) for c in master.columns] \
            == [(0, frozenset({"p1"}), 1), (0, frozenset({"p2"}), 2)]

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
                C[col.pilot, j] = float(col.score)
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
    # one's integer solves branch (11 nodes each).
    MONTHS = ((2, 3, 9), (4, 4, 12), (5, 10, 40))

    def test_master_solves_equal_fresh_solves(self, monkeypatch):
        # At every CG iteration the master's lex LP, solved on its kept
        # augmented program with the kept factors, equals bit for bit a
        # solve of a copied program that builds everything anew.
        real = colgen.lex_solve
        solves = []

        def spy(problem, warm_start=None, eps=DEFAULT_EPS):
            assert problem.augmented is not None
            res = real(problem, warm_start=warm_start, eps=eps)
            fresh = real(LlpProblem(A=problem.A.copy(), b=problem.b.copy(),
                                    C=problem.C.copy()),
                         warm_start=warm_start, eps=eps)
            assert res.value.entries == fresh.value.entries
            assert res.basis == fresh.basis
            assert res.duals.as_array().tobytes() \
                == fresh.duals.as_array().tobytes()
            assert res.primal.tobytes() == fresh.primal.tobytes()
            assert len(res.support_masks) == len(fresh.support_masks)
            for a, b in zip(res.support_masks, fresh.support_masks):
                assert a.tobytes() == b.tobytes()
            solves.append(warm_start is not None)
            return res

        monkeypatch.setattr(colgen, "lex_solve", spy)
        for seed, m, n in self.MONTHS:
            del solves[:]
            res = run(generate(seed, m, n))
            assert len(solves) == res.stats.iterations >= 2
            assert not solves[0] and all(solves[1:])

    def test_warm_start_reuses_the_final_factors(self, monkeypatch):
        # A master solve warm-started from the previous solve's final
        # basis factors nothing before its first pivot.
        events = []
        real_lu, real_pivot = llp.lu_factor, llp._Simplex._pivot
        monkeypatch.setattr(
            llp, "lu_factor", lambda B: events.append("lu") or real_lu(B))
        monkeypatch.setattr(
            llp._Simplex, "_pivot",
            lambda sx, *args: events.append("pivot") or real_pivot(sx, *args))
        real = colgen.lex_solve
        before_first_pivot = []

        def spy(problem, warm_start=None, eps=DEFAULT_EPS):
            del events[:]
            res = real(problem, warm_start=warm_start, eps=eps)
            if warm_start is not None:
                end = events.index("pivot") if "pivot" in events \
                    else len(events)
                before_first_pivot.append(events[:end])
            return res

        monkeypatch.setattr(colgen, "lex_solve", spy)
        run(generate(*self.MONTHS[2]))
        assert len(before_first_pivot) >= 10
        assert all(e == [] for e in before_first_pivot)


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

    def test_reduction_and_bounds_toggles(self):
        for seed in (1, 4, 8):
            inst = generate(seed, 3, 7)
            base = run(inst)
            no_red = run(inst, ColgenParams(use_reduction=False))
            no_bounds = run(inst, ColgenParams(use_bounds=False))
            assert no_red.value == base.value
            assert no_bounds.value == base.value
            assert no_red.stats.reduction.saved_paths == 0

    def test_deterministic_repeat(self):
        inst = generate(3, 3, 7)
        a, b = run(inst), run(inst)
        assert a.value == b.value
        assert a.schedules == b.schedules
        assert stats_to_dict(a.stats) == stats_to_dict(b.stats)

    def test_stats_counters(self):
        inst = generate(6, 3, 8)
        res = run(inst, ColgenParams(audit_reduction=True))
        s = res.stats
        assert s.iterations >= 1
        assert s.pool_size >= len(inst.pairings)
        assert s.illp_nodes_lower >= 1 and s.illp_nodes_final >= 1
        assert 0.0 <= s.avg_eliminated_pct <= 100.0
        # Every audited pool harvest matched the direct per-pilot solve.
        for _, _, pool_cost, direct_cost in s.reduction_audit:
            assert pool_cost == direct_cost


class TestIntegerSolveStatus:
    def test_non_optimal_integer_solve_raises(self, monkeypatch):
        # The check must survive `python -O`, so it is not an assert.
        def infeasible(problem, incumbent_hint=None, eps=None, warm_start=None):
            return IllpResult(IllpStatus.INFEASIBLE, None, None, 1)

        monkeypatch.setattr(colgen, "illp_solve", infeasible)
        with pytest.raises(SolveError, match="lower integer solve"):
            run(disjoint_two_pilot([[1, 2], [3, 4]]))
