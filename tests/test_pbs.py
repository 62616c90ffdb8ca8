"""Pairings, schedule legality, the scheduling DAG, and resources."""

from itertools import combinations

import numpy as np
import pytest

from conftest import day_pairing, make_instance, quarter_grid, rules_instance
from lexpbs.cli import generate
from lexpbs.colgen import RestrictedMaster, _snap_duals
from lexpbs.lexcore import DEFAULT_EPS, NEG_INF, LexValue
from lexpbs.llp import lex_solve, reduced_cost
from lexpbs.oracle import oracle_paths
from lexpbs.pbs import (
    DEST,
    ORIGIN,
    DualGrid,
    Instance,
    Pairing,
    PbsResource,
    ScheduleResourceSpace,
    build_dag,
    is_feasible,
    make_reduction_space,
    make_resource_space,
    schedule_to_path_cost,
)
from lexpbs.rclpp import (
    TOP,
    Arc,
    compute_bounds,
    solve_above_threshold,
    solve_n_best,
)


class TestPairing:
    def test_start_before_end(self):
        with pytest.raises(ValueError):
            Pairing("p", 100, 100, 1.0)

    def test_days_on(self):
        assert day_pairing("p", 0, 2).days_on == 3
        # A pairing inside one day counts one day on.
        assert Pairing("q", 100, 200, 1.0).days_on == 1


class TestFeasibility:
    def setup_method(self):
        self.inst = make_instance(
            [day_pairing("p1", 0, 2), day_pairing("p2", 10, 12)],
            [[1, 1]], [["p1", "p2"]],
        )

    def test_empty_schedule(self):
        assert is_feasible(self.inst, [])

    def test_overlapping_pairings(self):
        inst = make_instance(
            [day_pairing("a", 0, 3), day_pairing("b", 2, 5)],
            [[1, 1]], [["a"], []][:1],
        )
        assert not is_feasible(inst, ["a", "b"])

    def test_eighteen_days_on(self):
        ps = [day_pairing(f"x{i}", 3 * i + 8, 3 * i + 10) for i in range(6)]
        inst = make_instance(ps, [[1] * 6], [[p.id for p in ps]],
                             month_days=31)
        # 6 pairings of 3 days each: 18 days on exceeds the limit of 17.
        assert not is_feasible(inst, [p.id for p in ps])

    def test_flight_hours_cap(self):
        inst = make_instance(
            [day_pairing("a", 0, 2, hours=50.0),
             day_pairing("b", 10, 12, hours=40.0)],
            [[1, 1]], [["a"], []][:1],
        )
        assert not is_feasible(inst, ["a", "b"])

    def test_seven_days_off_required(self):
        a = day_pairing("a", 0, 5)
        b = day_pairing("b", 12, 17)
        c = day_pairing("c", 24, 29)
        inst = make_instance([a, b, c], [[1, 1, 1]], [["a"], []][:1],
                             month_days=30)
        # Gaps of 6 days each: no window of 7 whole days off.
        assert not is_feasible(inst, ["a", "b", "c"])
        assert is_feasible(inst, ["a", "b"])


class TestValidate:
    def test_pairing_past_month_end_rejected(self):
        # Past the month end the path model counts days off that
        # is_feasible clips, so the two would disagree on this schedule.
        ps = [day_pairing("a", 6, 12), day_pairing("b", 19, 24),
              day_pairing("c", 33, 33)]
        inst = make_instance(ps, [[1, 1, 1]], [["a", "b", "c"]],
                             month_days=30)
        with pytest.raises(ValueError, match="past the 30-day month"):
            inst.validate()


class TestBuildDag:
    def test_disjoint_sequential(self):
        inst = make_instance(
            [day_pairing("p1", 0, 2), day_pairing("p2", 10, 12)],
            [[1, 1]], [["p1", "p2"]],
        )
        dag = build_dag(inst)
        assert sorted(dag.arcs) == sorted([
            Arc(ORIGIN, "p1"), Arc(ORIGIN, "p2"),
            Arc("p1", "p2"), Arc("p1", DEST), Arc("p2", DEST),
        ])

    def test_overlapping_no_succession(self):
        inst = make_instance(
            [day_pairing("a", 0, 3), day_pairing("b", 2, 5)],
            [[1, 1]], [["a"], []][:1],
        )
        dag = build_dag(inst)
        assert len(dag.arcs) == 4
        assert Arc("a", "b") not in dag.arcs

    def test_seventeen_pilot_scale(self):
        inst = generate(7, 17, 69)
        dag = build_dag(inst)
        assert len(dag.vertices) == 71

    def test_generated_instances_validate(self):
        for seed in range(5):
            generate(seed, 3, 7).validate()


def zero_dual_space(inst: Instance, pilot: int) -> ScheduleResourceSpace:
    m = inst.num_pilots
    return make_resource_space(
        inst, pilot, np.zeros((m, m)), np.zeros((m, inst.num_pairings))
    )


def dense_pilot_space(inst, pilot, lam, mu):
    """Pilot `pilot`'s pricing space from its dense cost array."""
    n = inst.num_pairings
    costs = np.empty((n + 1, inst.num_pilots))
    costs[:n] = -mu.T
    costs[:n, pilot] += inst.scores[pilot]
    costs[n] = -lam[:, pilot]
    return ScheduleResourceSpace.from_array(inst, costs)


def decoded_bounds(bounds):
    """The head keys and completion table as digit vectors."""
    codec = bounds.codec

    def digits(key):
        return None if key == codec.none else codec.decode(key)

    return ([digits(k) for k in bounds.head_keys],
            [[digits(k) for k in row] for row in bounds.completions])


def searches(dag, space, bounds):
    """Paths and counters of an n-best search, a floored one and a
    threshold search."""
    m = space.cost_len
    floor = LexValue((-DEFAULT_EPS,) * (m - 1) + (DEFAULT_EPS,))
    best = solve_n_best(dag, space, bounds, 10)
    results = [best, solve_n_best(dag, space, bounds, 10, floor=floor)]
    if best.paths:
        results.append(solve_above_threshold(dag, space, bounds,
                                             best.paths[-1].cost))
    return [([(p.vertices, p.cost, p.resource) for p in res.paths],
             res.stats) for res in results]


def check_round_spaces(inst, dag, lam, mu):
    """Each pilot's space under a shared grid and under a grid of its
    own against its dense space."""
    grid = DualGrid(inst, lam, mu)
    for pilot in range(inst.num_pilots):
        want = dense_pilot_space(inst, pilot, lam, mu)
        want_bounds = compute_bounds(dag, want)
        for got in (make_resource_space(inst, pilot, lam, mu, grid),
                    make_resource_space(inst, pilot, lam, mu)):
            assert got.pairing_costs == want.pairing_costs
            assert got.terminal_cost == want.terminal_cost
            assert got.grid_costs == want.grid_costs
            bounds = compute_bounds(dag, got)
            assert decoded_bounds(bounds) == decoded_bounds(want_bounds)
            assert searches(dag, got, bounds) \
                == searches(dag, want, want_bounds)
        assert compute_bounds(dag, make_resource_space(
            inst, pilot, lam, mu, grid)).codec is grid.codec


class TestResourceSpace:
    def setup_method(self):
        self.inst = make_instance(
            [day_pairing("p1", 0, 2, hours=9.0),
             day_pairing("p2", 10, 12, hours=7.0)],
            [[4, 6], [2, 8]], [["p1"], ["p2"]],
        )
        self.space = zero_dual_space(self.inst, 0)

    def test_days_on_additivity(self):
        r = PbsResource(5, 0, 0.0, (0.0, 0.0))
        out = self.space.extend(Arc(ORIGIN, "p1"), r)
        assert out.days_on == 8

    def test_rho_caps_days_on(self):
        r = PbsResource(15, 1, 0.0, (0.0, 0.0))
        assert self.space.extend(Arc(ORIGIN, "p1"), r) is TOP

    def test_rho_caps_flight_hours(self):
        r = PbsResource(0, 1, 80.0, (0.0, 0.0))
        assert self.space.extend(Arc(ORIGIN, "p1"), r) is TOP

    def test_zero_duals_path_cost(self):
        cost = schedule_to_path_cost(self.space, ["p1", "p2"])
        assert cost == LexValue((4 + 6, 0))
        cost1 = schedule_to_path_cost(zero_dual_space(self.inst, 1), ["p2"])
        assert cost1 == LexValue((0, 8))

    def test_dest_requires_seven_off(self):
        # A resource that never saw a 7-day gap cannot finalize.
        r = PbsResource(1, 0, 1.0, (0.0, 0.0))
        ps = [day_pairing(f"x{i}", 6 * i, 6 * i + 3) for i in range(5)]
        tight = make_instance(ps, [[1] * 5], [[p.id for p in ps]][:1],
                              month_days=30)
        space = zero_dual_space(tight, 0)
        assert space.extend(Arc("x4", DEST), r) is TOP

    def test_dual_shape_errors(self):
        with pytest.raises(ValueError):
            make_resource_space(self.inst, 0, np.zeros((3, 3)),
                                np.zeros((2, 2)))
        one_pilot = make_instance(
            [day_pairing("p", 0, 2)], [[1]], [["p"]]
        )
        with pytest.raises(ValueError):
            make_reduction_space(one_pilot, np.zeros((1, 1)))

    def test_array_built_spaces_match_dict_built(self):
        inst = generate(5, 4, 11)
        rng = np.random.default_rng(5)
        lam, mu = quarter_grid(rng, (4, 4)), quarter_grid(rng, (4, 11))
        for pilot in range(4):
            costs = {p.id: [-mu[l, j] + (inst.scores[pilot, j] if l == pilot
                                         else 0) for l in range(4)]
                     for j, p in enumerate(inst.pairings)}
            want = ScheduleResourceSpace(inst, costs, -lam[:, pilot], 4)
            got = make_resource_space(inst, pilot, lam, mu)
            assert got.pairing_costs == want.pairing_costs
            assert got.terminal_cost == want.terminal_cost
            assert got.grid_costs == want.grid_costs
        want = ScheduleResourceSpace(
            inst, {p.id: -mu[:3, j] for j, p in enumerate(inst.pairings)},
            np.zeros(3), 3)
        got = make_reduction_space(inst, mu)
        assert got.pairing_costs == want.pairing_costs
        assert got.grid_costs == want.grid_costs

    def test_grid_costs_beyond_int64_are_exact(self):
        big = 2.0 ** 60
        space = ScheduleResourceSpace(self.inst, {"p1": (big, -big),
                                                  "p2": (1.0, 0.5)},
                                      (0.0, -1.0), 2)
        assert space.grid_costs["p1"] == (2 ** 90, -(2 ** 90))
        assert space.grid_costs["p2"] == (2 ** 30, 2 ** 29)
        assert space.grid_costs[DEST] == (0, -(2 ** 30))

    def test_round_spaces_match_dense_spaces(self):
        """Every pilot's space under a shared dual grid, and one with a
        grid of its own, against the space built from its dense cost
        array under a codec fitted to that pilot alone."""
        for seed, m, n in ((1, 3, 9), (2, 5, 14), (3, 8, 20)):
            inst = generate(seed, m, n)
            dag = build_dag(inst)
            rng = np.random.default_rng(seed)
            # Zero duals leave only the scores to size the codec.
            for duals in (_snap_duals(rng.normal(0.0, 40.0, (m, m + n))),
                          np.zeros((m, m + n))):
                check_round_spaces(inst, dag, duals[:, :m], duals[:, m:])

    def test_meet_is_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rs = [
                PbsResource(
                    int(rng.integers(0, 18)), int(rng.integers(0, 2)),
                    float(rng.integers(0, 86)),
                    tuple(quarter_grid(rng, 2)),
                )
                for _ in range(3)
            ]
            met = self.space.meet(rs)
            for r in rs:
                assert self.space.leq(met, r)

    def test_extensions_monotone_cost_antitone(self):
        rng = np.random.default_rng(4)
        arcs = [Arc(ORIGIN, "p1"), Arc("p1", "p2"), Arc("p2", DEST)]
        for _ in range(100):
            base = PbsResource(
                int(rng.integers(0, 10)), int(rng.integers(0, 2)),
                float(rng.integers(0, 40)), tuple(quarter_grid(rng, 2)),
            )
            bigger = PbsResource(
                base.days_on + int(rng.integers(0, 4)),
                base.seven_off if rng.integers(0, 2) else 0,
                base.flight_hours + float(rng.integers(0, 20)),
                tuple(c - float(rng.integers(0, 5)) for c in base.cost),
            )
            assert self.space.leq(base, bigger)
            assert self.space.cost(base) >= self.space.cost(bigger)
            for arc in arcs:
                fa, fb = self.space.extend(arc, base), \
                    self.space.extend(arc, bigger)
                assert self.space.leq(fa, fb)
                ga, gb = self.space.extend_reverse(arc, base), \
                    self.space.extend_reverse(arc, bigger)
                assert self.space.leq(ga, gb)


class TestPathScheduleBijection:
    def test_feasibility_matches_path_resource(self):
        # Over every subset of pairings, legality equals "each
        # consecutive pair is a DAG arc and the path fold is finite",
        # under the default rules and under a rest rule.
        for inst in (generate(2, 2, 6),
                     rules_instance(max_days_on=10, min_rest_minutes=600)):
            space = zero_dual_space(inst, 0)
            arcs = set(build_dag(inst).arcs)
            ids = [p.id for p in inst.pairings]
            for r in range(len(ids) + 1):
                for sub in combinations(ids, r):
                    order = sorted(sub, key=lambda pid: inst.pairing(pid).start)
                    is_path = all(Arc(a, b) in arcs
                                  for a, b in zip(order, order[1:]))
                    finite = schedule_to_path_cost(space, order)[0] != NEG_INF
                    assert (is_path and finite) == is_feasible(inst, sub)


class TestSignConvention:
    def test_path_cost_equals_reduced_cost(self):
        inst = generate(5, 3, 6)
        master = RestrictedMaster(inst)
        master.add(enumerate(inst.initial_partition))
        # Enrich the pool with all feasible single-pilot paths.
        dag = build_dag(inst)
        for i in range(inst.num_pilots):
            for path in oracle_paths(dag, zero_dual_space(inst, i))[:10]:
                master.add([(i, path.vertices[1:-1])])
        problem = master.build_problem()
        res = lex_solve(problem)
        duals = res.duals.as_array()
        m = inst.num_pilots
        lam, mu = duals[:, :m], duals[:, m:]
        basic = set(res.basis.indices)
        for j, col in enumerate(master.columns):
            space = make_resource_space(inst, col.pilot, lam, mu)
            path_cost = schedule_to_path_cost(space, sorted(col.pairings))
            rc = reduced_cost(
                res.duals, problem.column_cost(j), problem.A[:, j]
            )
            assert path_cost.entries == pytest.approx(rc.entries, abs=1e-8)
            if j in basic:
                assert rc.entries == pytest.approx((0.0,) * m, abs=1e-8)
