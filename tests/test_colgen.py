"""End-to-end column generation."""

import pytest

from conftest import day_pairing, make_instance
from lexpbs import colgen
from lexpbs.cli import generate, stats_to_dict
from lexpbs.colgen import (
    ColgenParams,
    RestrictedMaster,
    SolveError,
    _make_column,
    run,
)
from lexpbs.illp import IllpResult, IllpStatus
from lexpbs.lexcore import LexValue
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


class TestMasterPool:
    def test_duplicate_columns_rejected(self):
        inst = disjoint_two_pilot([[1, 2], [3, 4]])
        master = RestrictedMaster(inst)
        col = _make_column(inst, 0, ["p1"])
        assert master.add(col)
        assert not master.add(_make_column(inst, 0, ["p1"]))
        assert master.contains(0, frozenset({"p1"}))

    def test_column_vector_layout(self):
        inst = disjoint_two_pilot([[1, 2], [3, 4]])
        master = RestrictedMaster(inst)
        col = _make_column(inst, 1, ["p2"])
        master.add(col)
        a = master.column_vector(col)
        assert a.tolist() == [0.0, 1.0, 0.0, 1.0]


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
        def infeasible(problem, incumbent_hint=None, eps=None):
            return IllpResult(IllpStatus.INFEASIBLE, None, None, 1)

        monkeypatch.setattr(colgen, "illp_solve", infeasible)
        with pytest.raises(SolveError, match="lower integer solve"):
            run(disjoint_two_pilot([[1, 2], [3, 4]]))
