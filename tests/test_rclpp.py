"""Label-setting search for lexicographic longest paths."""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day_pairing, make_instance, quarter_grid
from lexpbs.cli import generate
from lexpbs.lexcore import LexValue
from lexpbs.oracle import oracle_paths
from lexpbs.pbs import (
    DEST,
    ORIGIN,
    ScheduleResourceSpace,
    build_dag,
    make_reduction_space,
    make_resource_space,
)
from lexpbs.rclpp import (
    TOP,
    Arc,
    Dag,
    KeyCodec,
    compute_bounds,
    solve_above_threshold,
    solve_lex_longest,
    solve_n_best,
)

TOGGLES = list(product((True, False), repeat=3))  # bounds, key, topo


def toggle_kwargs(bounds, key, topo):
    return dict(use_bounds=bounds, use_key_priority=key,
                use_topo_arc_order=topo)


def overlapping_pair(costs):
    """Diamond DAG from two overlapping pairings with given cost rows."""
    p = day_pairing("p", 0, 2, hours=10.0)
    q = day_pairing("q", 1, 3, hours=20.0)
    inst = make_instance([p, q], [[1, 1]], [["p"], []][:1])
    # Partition feasibility is irrelevant here; avoid validate().
    space = ScheduleResourceSpace(
        inst, {"p": costs["p"], "q": costs["q"]}, costs["terminal"],
        len(costs["terminal"]),
    )
    return build_dag(inst), space


class TestBounds:
    def test_single_arc(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[1]], [["p"]])
        space = ScheduleResourceSpace(inst, {"p": (1.0,)}, (0.5,), 1)
        dag = Dag([ORIGIN, DEST], [Arc(ORIGIN, DEST)], ORIGIN, DEST)
        bounds = compute_bounds(dag, space)
        expected = space.extend_reverse(
            Arc(ORIGIN, DEST), space.initial_reverse(DEST)
        )
        assert bounds[ORIGIN] == expected

    def test_stranded_vertex_gets_top(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[1]], [["p"]])
        space = ScheduleResourceSpace(inst, {"p": (1.0,)}, (0.0,), 1)
        dag = Dag([ORIGIN, "p", DEST], [Arc(ORIGIN, "p")], ORIGIN, DEST)
        bounds = compute_bounds(dag, space)
        assert bounds["p"] is TOP
        assert bounds[ORIGIN] is TOP

    def test_diamond_flight_hours(self):
        dag, space = overlapping_pair(
            {"p": (1.0,), "q": (2.0,), "terminal": (0.0,)}
        )
        bounds = compute_bounds(dag, space)
        # Reverse resources of the two o-d branches carry 10 and 20
        # flight hours; the meet takes the minimum.
        assert bounds[ORIGIN].flight_hours == pytest.approx(10.0)

    def test_bound_validity_on_enumerated_paths(self):
        dag, space = random_space(3)
        bounds = compute_bounds(dag, space)
        for v in dag.vertices:
            for r_rev in reverse_resources(dag, space, v):
                assert space.leq(bounds[v], r_rev)


def reverse_resources(dag: Dag, space, v):
    """Reverse resources of every feasible v-d path (DFS)."""
    out = []

    def dfs(u, arcs):
        if u == dag.destination:
            r = space.initial_reverse(dag.destination)
            for a in reversed(arcs):
                r = space.extend_reverse(a, r)
                if r is TOP:
                    return
            out.append(r)
            return
        for a in dag.out_arcs[u]:
            dfs(a.head, arcs + [a])

    dfs(v, [])
    return out


def random_space(seed: int, pilot: int | None = None):
    """Small generated instance with quarter-integer duals; all cost
    sums are exact in floats."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    inst = generate(seed, 3, n)
    lam = quarter_grid(rng, (3, 3))
    mu = quarter_grid(rng, (3, n))
    if pilot is None:
        pilot = int(rng.integers(0, 3))
    return build_dag(inst), make_resource_space(inst, pilot, lam, mu)


class TestSingle:
    def test_no_feasible_path(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[1]], [["p"]])
        space = ScheduleResourceSpace(inst, {"p": (1.0,)}, (0.0,), 1)
        dag = Dag([ORIGIN, "p", DEST], [Arc(ORIGIN, "p")], ORIGIN, DEST)
        res = solve_lex_longest(dag, space, compute_bounds(dag, space))
        assert res.best is None

    def test_parallel_paths_tiebreak_at_level_two(self):
        dag, space = overlapping_pair(
            {"p": (1.0, 0.0), "q": (1.0, 1.0), "terminal": (0.0, 0.0)}
        )
        res = solve_lex_longest(dag, space, compute_bounds(dag, space))
        assert res.best.cost == LexValue((1.0, 1.0))
        assert res.best.vertices == [ORIGIN, "q", DEST]

    def test_matches_oracle_all_toggles(self):
        for seed in range(8):
            dag, space = random_space(seed)
            bounds = compute_bounds(dag, space)
            paths = oracle_paths(dag, space)
            best = paths[0].cost if paths else None
            for toggles in TOGGLES:
                res = solve_lex_longest(dag, space, bounds,
                                        **toggle_kwargs(*toggles))
                if best is None:
                    assert res.best is None
                else:
                    assert res.best.cost == best

    def test_dominance_safe_in_single_mode(self):
        for seed in range(8):
            dag, space = random_space(seed)
            bounds = compute_bounds(dag, space)
            plain = solve_lex_longest(dag, space, bounds)
            dom = solve_lex_longest(dag, space, bounds, use_dominance=True)
            if plain.best is None:
                assert dom.best is None
            else:
                assert dom.best.cost == plain.best.cost

    def test_disabling_bounds_only_changes_work(self):
        dag, space = random_space(4)
        bounds = compute_bounds(dag, space)
        on = solve_lex_longest(dag, space, bounds, use_bounds=True)
        off = solve_lex_longest(dag, space, bounds, use_bounds=False)
        assert on.best.cost == off.best.cost
        assert off.stats.saved_paths >= on.stats.saved_paths
        assert on.stats.cuts_by_lb >= 0


class TestNBest:
    def test_n_must_be_positive(self):
        dag, space = random_space(0)
        with pytest.raises(ValueError):
            solve_n_best(dag, space, compute_bounds(dag, space), 0)

    def test_consistency_with_single(self):
        for seed in range(6):
            dag, space = random_space(seed)
            bounds = compute_bounds(dag, space)
            single = solve_lex_longest(dag, space, bounds)
            top1 = solve_n_best(dag, space, bounds, 1)
            if single.best is None:
                assert top1.paths == []
            else:
                assert top1.best.cost == single.best.cost

    def test_all_paths_when_n_large(self):
        dag, space = random_space(2)
        oracle = oracle_paths(dag, space)
        res = solve_n_best(dag, space, compute_bounds(dag, space),
                           len(oracle) + 5)
        assert sorted(p.cost.entries for p in res.paths) \
            == sorted(p.cost.entries for p in oracle)

    def test_top_n_multiset(self):
        for seed in range(8):
            dag, space = random_space(seed)
            bounds = compute_bounds(dag, space)
            oracle = oracle_paths(dag, space)
            for n in (1, 2, 3):
                res = solve_n_best(dag, space, bounds, n)
                want = sorted(
                    (p.cost.entries for p in oracle), reverse=True
                )[:n]
                got = sorted((p.cost.entries for p in res.paths), reverse=True)
                assert got == want


class TestThreshold:
    def test_vacuous_threshold_returns_all(self):
        dag, space = random_space(1)
        oracle = oracle_paths(dag, space)
        res = solve_above_threshold(
            dag, space, compute_bounds(dag, space),
            space.neg_inf_cost(),
        )
        assert sorted(p.cost.entries for p in res.paths) \
            == sorted(p.cost.entries for p in oracle)

    def test_threshold_above_max_is_empty(self):
        dag, space = random_space(1)
        oracle = oracle_paths(dag, space)
        top = max(p.cost.entries for p in oracle)
        above = LexValue((top[0] + 1.0,) + top[1:])
        res = solve_above_threshold(
            dag, space, compute_bounds(dag, space), above
        )
        assert res.paths == []

    def test_second_best_threshold(self):
        for seed in range(8):
            dag, space = random_space(seed)
            oracle = oracle_paths(dag, space)
            distinct = sorted({p.cost.entries for p in oracle}, reverse=True)
            if len(distinct) < 2:
                continue
            t = LexValue(distinct[1])
            res = solve_above_threshold(
                dag, space, compute_bounds(dag, space), t
            )
            want = sorted(
                p.cost.entries for p in oracle
                if p.cost.entries >= t.entries
            )
            assert sorted(p.cost.entries for p in res.paths) == want


class TestMergeBound:
    def test_merge_lower_bounds_concatenation(self):
        # h(r_P, r'_Q) precedes the resource of the concatenated path,
        # for every split vertex of every feasible o-d path.
        for seed in range(5):
            dag, space = random_space(seed)
            for path in oracle_paths(dag, space):
                r_fwd = space.initial(dag.origin)
                for i, arc in enumerate(path.arcs):
                    r_fwd = space.extend(arc, r_fwd)
                    suffix = path.arcs[i + 1:]
                    r_rev = space.initial_reverse(dag.destination)
                    for a in reversed(suffix):
                        r_rev = space.extend_reverse(a, r_rev)
                    merged = space.merge(r_fwd, r_rev)
                    assert space.leq(merged, path.resource)


class TestThresholdGrid:
    def test_nearest_grid_point_exact_half_down(self):
        g = 2.0 ** -30
        dag, space = overlapping_pair(
            {"p": (1.0, 0.0), "q": (1.0, g), "terminal": (0.0, 0.0)}
        )
        bounds = compute_bounds(dag, space)

        def admitted(*t):
            res = solve_above_threshold(dag, space, bounds, LexValue(t))
            return sorted(p.vertices[1] for p in res.paths)

        assert admitted(1.0, 0.5 * g) == ["p", "q"]
        assert admitted(1.0, 0.75 * g) == ["q"]
        assert admitted(1.0, 1.5 * g) == ["q"]
        assert admitted(1.0, 1.75 * g) == []
        # An exact half at a leading level rounds down and decides
        # there: a superset of the paths within 2^-31 at every level.
        assert admitted(1.0 - 0.5 * g, 5.0) == ["p", "q"]
        # A level at -inf lets every deeper level pass.
        assert admitted(1.0, float("-inf")) == ["p", "q"]

    def test_off_grid_cost_rejected(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[1]], [["p"]])
        with pytest.raises(ValueError, match="multiple of 2"):
            ScheduleResourceSpace(inst, {"p": (0.1,)}, (0.0,), 1)
        with pytest.raises(ValueError):
            ScheduleResourceSpace(inst, {"p": (1.0,)}, (2.0 ** -31,), 1)
        with pytest.raises(ValueError):
            make_resource_space(inst, 0, np.zeros((1, 1)),
                                np.full((1, 1), 1.0 / 3.0))


def reference_bounds(dag: Dag, space):
    """The bound table folded with the reference extend_reverse/meet."""
    bounds = {}
    for v in reversed(dag.topo_order):
        if v == dag.destination:
            bounds[v] = space.initial_reverse(v)
        else:
            bounds[v] = space.meet(space.extend_reverse(a, bounds[a.head])
                                   for a in dag.out_arcs[v])
    return bounds


@st.composite
def ruled_spaces(draw):
    """A small generated month under random rule limits, with a direct
    pricing or reduction space on quarter-grid duals."""
    m = draw(st.integers(1, 3))
    # generate() gives each pilot at most 8 pairings (two days or more
    # each within its 17-day limit) and refuses a month it cannot pack.
    n = draw(st.integers(m, min(9, 8 * m)))
    inst = replace(
        generate(draw(st.integers(0, 10_000)), m, n),
        max_days_on=draw(st.integers(2, 17)),
        max_flight_hours=draw(st.integers(32, 340)) / 4.0,
        min_rest_minutes=draw(st.integers(0, 3000)),
        min_consecutive_days_off=draw(st.integers(0, 12)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if m >= 2 and draw(st.booleans()):
        space = make_reduction_space(inst, quarter_grid(rng, (m, n)))
    else:
        space = make_resource_space(inst, draw(st.integers(0, m - 1)),
                                    quarter_grid(rng, (m, m)),
                                    quarter_grid(rng, (m, n)))
    return build_dag(inst), space


class TestKernelMatchesReference:
    """The integer search against the reference algebra, under
    non-default rule limits."""

    @settings(max_examples=80, deadline=None)
    @given(ruled_spaces(), st.integers(1, 3), st.sampled_from(TOGGLES),
           st.integers(0, 8))
    def test_searches_and_bounds(self, dag_space, n, toggles, pick):
        dag, space = dag_space
        kw = toggle_kwargs(*toggles)
        bounds = compute_bounds(dag, space)
        assert bounds == reference_bounds(dag, space)

        oracle = oracle_paths(dag, space)
        resource_of = {tuple(p.vertices): p.resource for p in oracle}
        costs = [p.cost.entries for p in oracle]

        def check(paths, want_costs):
            assert [p.cost.entries for p in paths] == want_costs
            for p in paths:
                assert p.resource == resource_of[tuple(p.vertices)]
                assert p.arcs == [Arc(t, h) for t, h
                                  in zip(p.vertices, p.vertices[1:])]

        check(solve_lex_longest(dag, space, bounds, **kw).paths, costs[:1])
        check(solve_n_best(dag, space, bounds, n, **kw).paths, costs[:n])
        if not costs:
            return
        # On-grid thresholds, one with a deep level far below any path
        # cost, whose digits need a wider key.
        level0 = costs[pick % len(costs)][0]
        for t in (costs[pick % len(costs)],
                  (level0,) + (-(2.0 ** 40),) * (space.cost_len - 1)):
            want = sorted(p.vertices for p in oracle if p.cost.entries >= t)
            res = solve_above_threshold(dag, space, bounds, LexValue(t), **kw)
            check(res.paths, sorted((c for c in costs if c >= t),
                                    reverse=True))
            assert sorted(p.vertices for p in res.paths) == want

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2 ** 45), st.data())
    def test_key_order_is_lex_order(self, m, magnitude, data):
        codec = KeyCodec(m, magnitude)
        top = codec.half - 1
        digit = st.one_of(st.sampled_from([-top, top, 0]),
                          st.integers(-top, top))
        a = data.draw(st.tuples(*[digit] * m))
        b = data.draw(st.tuples(*[digit] * m))
        ka, kb = codec.encode(a), codec.encode(b)
        assert codec.decode(ka) == a
        assert (ka < kb, ka == kb) == (a < b, a == b)
