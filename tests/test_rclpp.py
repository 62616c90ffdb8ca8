"""Label-setting search for lexicographic longest paths."""

import math
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import day_pairing, make_instance, quarter_grid
from lexpbs.cli import generate
from lexpbs.colgen import _cost_rows, _positive_floor
from lexpbs.lexcore import DEFAULT_EPS, LexValue, lex_is_positive
from lexpbs.oracle import oracle_paths
from lexpbs.pbs import (
    DEST,
    ORIGIN,
    DualGrid,
    ScheduleResourceSpace,
    arc_constants,
    build_dag,
    make_reduction_space,
    make_resource_space,
)
from lexpbs.rclpp import (
    COST_GRID,
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
    space = ScheduleResourceSpace.from_costs(
        inst, {"p": costs["p"], "q": costs["q"]}, costs["terminal"],
        len(costs["terminal"]),
    )
    return build_dag(inst), space


class TestBounds:
    def test_single_arc(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[1]], [["p"]])
        space = ScheduleResourceSpace.from_costs(inst, {"p": (1.0,)},
                                                 (0.5,), 1)
        dag = Dag([ORIGIN, DEST], [Arc(ORIGIN, DEST)], ORIGIN, DEST,
                  arc_constants=partial(arc_constants, inst))
        bounds = compute_bounds(dag, space)
        expected = space.extend_reverse(
            Arc(ORIGIN, DEST), space.initial_reverse(DEST)
        )
        assert bounds[ORIGIN] == expected

    def test_dag_without_table_rejected(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[1]], [["p"]])
        space = ScheduleResourceSpace.from_costs(inst, {"p": (1.0,)},
                                                 (0.0,), 1)
        dag = Dag([ORIGIN, DEST], [Arc(ORIGIN, DEST)], ORIGIN, DEST)
        with pytest.raises(ValueError, match="arc constants"):
            compute_bounds(dag, space)

    def test_stranded_vertex_gets_top(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[1]], [["p"]])
        space = ScheduleResourceSpace.from_costs(inst, {"p": (1.0,)},
                                                 (0.0,), 1)
        dag = Dag([ORIGIN, "p", DEST], [Arc(ORIGIN, "p")], ORIGIN, DEST,
                  arc_constants=partial(arc_constants, inst))
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

    def test_resource_rows_computed_once_per_limits(self):
        dag, space = random_space(5, pilot=0)
        inst = space.instance
        rng = np.random.default_rng(5)
        other = make_resource_space(inst, 1, quarter_grid(rng, (3, 3)),
                                    quarter_grid(rng, (3, inst.num_pairings)))
        bounds = compute_bounds(dag, space)
        assert compute_bounds(dag, other).rows is bounds.rows
        # Other limits on the same DAG get rows of their own: no pairing
        # fits in 4 flight hours.
        tight = make_resource_space(
            replace(inst, max_flight_hours=4.0), 1,
            quarter_grid(rng, (3, 3)),
            quarter_grid(rng, (3, inst.num_pairings)))
        tight_bounds = compute_bounds(dag, tight)
        assert tight_bounds[ORIGIN] is TOP and bounds[ORIGIN] is not TOP
        assert tight_bounds == reference_bounds(dag, tight)
        assert compute_bounds(dag, space) == reference_bounds(dag, space)


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


def random_round(seed: int, fine: bool = False):
    """Small generated instance and the DualGrid of quarter-integer
    duals; all cost sums are exact in floats.  With `fine`, the level-1
    duals move by k * 2^-30 for k in [-900, 900], so the round's unit is
    below eps * 2^30."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    inst = generate(seed, 3, n)
    lam = quarter_grid(rng, (3, 3))
    mu = quarter_grid(rng, (3, n))
    if fine:
        lam[0] += rng.integers(-900, 901, 3) / COST_GRID
        mu[0] += rng.integers(-900, 901, n) / COST_GRID
    return build_dag(inst), DualGrid(inst, lam, mu), rng


def random_space(seed: int, pilot: int | None = None):
    """A pilot's space of `random_round`'s quarter-integer duals."""
    dag, grid, rng = random_round(seed)
    if pilot is None:
        pilot = int(rng.integers(0, 3))
    return dag, grid.space(pilot)


class TestSingle:
    def test_no_feasible_path(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[1]], [["p"]])
        space = ScheduleResourceSpace.from_costs(inst, {"p": (1.0,)},
                                                 (0.0,), 1)
        dag = Dag([ORIGIN, "p", DEST], [Arc(ORIGIN, "p")], ORIGIN, DEST,
                  arc_constants=partial(arc_constants, inst))
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
            LexValue.neg_infinite(space.cost_len),
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
            ScheduleResourceSpace.from_costs(inst, {"p": (0.1,)}, (0.0,), 1)
        with pytest.raises(ValueError):
            ScheduleResourceSpace.from_costs(inst, {"p": (1.0,)},
                                             (2.0 ** -31,), 1)
        with pytest.raises(ValueError):
            make_resource_space(inst, 0, np.zeros((1, 1)),
                                np.full((1, 1), 1.0 / 3.0))

    def test_non_finite_threshold_rejected(self):
        dag, space = random_space(1)
        bounds = compute_bounds(dag, space)
        # LexValue refuses NaN, so +inf is the one non-finite entry
        # that can reach the search.
        threshold = LexValue((0.0,) * (space.cost_len - 1) + (math.inf,))
        with pytest.raises(ValueError, match="finite or -inf"):
            solve_above_threshold(dag, space, bounds, threshold)

    def test_bounds_of_another_space_rejected(self):
        dag, grid, _ = random_round(1)
        bounds = compute_bounds(dag, grid.space(1))
        with pytest.raises(ValueError, match="another DAG or space"):
            solve_n_best(dag, grid.space(0), bounds, 1)


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
        space = make_reduction_space(DualGrid(
            inst, np.zeros((m, m)), quarter_grid(rng, (m, n))))
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
            want = sorted((p.vertices for p in oracle
                           if p.cost.entries >= t), key=repr)
            res = solve_above_threshold(dag, space, bounds, LexValue(t), **kw)
            check(res.paths, sorted((c for c in costs if c >= t),
                                    reverse=True))
            assert sorted((p.vertices for p in res.paths), key=repr) == want

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


def arc_days(space, arc):
    return arc_constants(space.instance, arc)[0]


def completion_costs(dag: Dag, space, codec, v):
    """(days on, key, has an off-gap arc) of every v-d path, by
    depth-first enumeration."""
    out = []

    def dfs(u, days, key, gap):
        if u == dag.destination:
            out.append((days, key, gap))
            return
        for a in dag.out_arcs[u]:
            days_on, _, gap_ok = arc_constants(space.instance, a)
            dfs(a.head, days + days_on,
                key + codec.encode(space.grid_costs[a.head]), gap or gap_ok)

    dfs(v, 0, 0, False)
    return out


def per_arc_completions(dag: Dag, space, codec, width):
    """The completion table by a plain DP over every arc."""
    rows = {dag.destination: [0] * width}
    for v in reversed(dag.topo_order):
        if v == dag.destination:
            continue
        row = [None] * width
        for a in dag.out_arcs[v]:
            d, k = arc_days(space, a), codec.encode(space.grid_costs[a.head])
            for r in range(d, width):
                tail = rows[a.head][r - d]
                if tail is not None and (row[r] is None or tail + k > row[r]):
                    row[r] = tail + k
        rows[v] = row
    return rows


def floored_n_best(dag, space, n, floor):
    return solve_n_best(dag, space, compute_bounds(dag, space), n,
                        floor=floor)


class TestCompletionTable:
    """The days-on-indexed completion bounds."""

    @settings(max_examples=60, deadline=None)
    @given(ruled_spaces())
    def test_entries_are_best_completions(self, dag_space):
        dag, space = dag_space
        bounds = compute_bounds(dag, space)
        table, codec, width = dag.table, bounds.codec, bounds.width
        assert table.max_path_days == max(
            (d for d, *_ in completion_costs(dag, space, codec, dag.origin)),
            default=0)
        assert width == min(space.instance.max_days_on,
                            table.max_path_days) + 1
        reference = per_arc_completions(dag, space, codec, width)
        for v in dag.vertices:
            row = bounds.completions[table.index[v]]
            assert [codec.none if e is None else e
                    for e in reference[v]] == row
            rest_row = bounds.rest_completions[table.index[v]]
            costs = completion_costs(dag, space, codec, v)
            for r in range(width):
                within = [k for d, k, _ in costs if d <= r]
                assert row[r] == max(within, default=codec.none)
                rested = [k for d, k, gap in costs if d <= r and gap]
                assert rest_row[r] == max(rested, default=codec.none)
        # A search without a floor does not build the rest-aware table.
        plain = compute_bounds(dag, space)
        solve_n_best(dag, space, plain, 3)
        assert "rest_completions" not in vars(plain)
        # Every suffix of a feasible path is within the entry the search
        # reads for it, and within the rest-aware one while the prefix
        # has no off-gap arc.
        budget = width - 1
        for path in oracle_paths(dag, space):
            arc_keys = [codec.encode(space.grid_costs[a.head])
                        for a in path.arcs]
            days, rested = 0, False
            for i, a in enumerate(path.arcs):
                days += arc_days(space, a)
                rested = rested or arc_constants(space.instance, a)[2]
                h = table.index[a.head]
                assert bounds.completions[h][budget - days] \
                    >= sum(arc_keys[i + 1:])
                if not rested:
                    assert bounds.rest_completions[h][budget - days] \
                        >= sum(arc_keys[i + 1:])

    def test_out_of_range_floor_returns_oracle_paths(self):
        # Floors with digits far beyond the codec's range, above and
        # below, at the leading level and the deeper ones: the search
        # clamps them and must still keep exactly the oracle's paths
        # at or above the floor, through both entry points.
        far = 2.0 ** 40
        checked = 0
        for seed in range(6):
            dag, space = random_space(seed)
            bounds = compute_bounds(dag, space)
            oracle = oracle_paths(dag, space)
            if not oracle:
                continue
            assert far * COST_GRID > bounds.codec.half
            top = oracle[len(oracle) // 2].cost.entries[0]
            for lead, deep in product((top, top - far, top + far),
                                      (-far, far)):
                t = LexValue((lead,) + (deep,) * (space.cost_len - 1))
                want = sorted((p.vertices for p in oracle
                               if p.cost.entries >= t.entries), key=repr)
                above = solve_above_threshold(dag, space, bounds, t)
                floored = solve_n_best(dag, space, bounds, len(oracle) + 1,
                                       floor=t)
                for res in (above, floored):
                    assert sorted((p.vertices for p in res.paths),
                                  key=repr) == want, (seed, lead, deep)
            checked += 1
        assert checked >= 4

    def test_huge_days_limit_is_capped_per_dag(self):
        inst = replace(generate(2, 3, 10), max_days_on=1000)
        dag = build_dag(inst)
        rng = np.random.default_rng(2)
        space = make_resource_space(inst, 0, quarter_grid(rng, (3, 3)),
                                    quarter_grid(rng, (3, 10)))
        bounds = compute_bounds(dag, space)
        assert bounds.width == dag.table.max_path_days + 1
        assert dag.table.max_path_days <= sum(p.days_on
                                              for p in inst.pairings)
        assert all(len(row) == bounds.width for row in bounds.completions)

    def test_dag_without_suffix_form_rejected(self):
        inst = make_instance([day_pairing("a", 0, 1), day_pairing("b", 3, 4),
                              day_pairing("c", 6, 7)], [[1, 1, 1]],
                             [["a"]])
        constants = partial(arc_constants, inst)
        vertices = [ORIGIN, "a", "b", "c", DEST]
        # The origin skips "b": its out-set is no suffix of a, b, c.
        arcs = [Arc(ORIGIN, "a"), Arc(ORIGIN, "c"), Arc("a", DEST),
                Arc("c", DEST)]
        with pytest.raises(ValueError, match="suffix"):
            Dag(vertices, arcs, ORIGIN, DEST, arc_constants=constants)
        # Every out-set is a suffix, but the off-gap arcs out of the
        # origin (to a and c) are not.
        with pytest.raises(ValueError, match="off-gap arcs .* suffix"):
            Dag(vertices, arcs[:1] + [Arc(ORIGIN, "b"), Arc(ORIGIN, "c")]
                + arcs[2:], ORIGIN, DEST,
                arc_constants=lambda arc: (1, 1.0, arc.head in ("a", "c")))
        # An arc back into the origin fits no suffix either.
        with pytest.raises(ValueError, match="suffix"):
            Dag([ORIGIN, "x", "a", DEST],
                [Arc("x", ORIGIN), Arc(ORIGIN, "a"), Arc("a", DEST)],
                ORIGIN, DEST, arc_constants=lambda arc: (1, 1.0, True))
        Dag(vertices, arcs[:1] + [Arc(ORIGIN, "b"), Arc(ORIGIN, "c")]
            + arcs[2:], ORIGIN, DEST, arc_constants=constants)


def lattice_floor(space):
    """The positivity floor on the lattice of the space's head digits."""
    unit = math.gcd(COST_GRID, *(d for row in space.grid_costs.values()
                                 for d in row))
    return _positive_floor(space.cost_len, unit)


class TestBoundsOnlyCutWork:
    """The bounds, rest-aware completions included, cut only labels whose
    paths cannot be kept: without them each search keeps the same paths
    in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(ruled_spaces(), st.integers(1, 4),
           st.sampled_from(list(product((True, False), repeat=2))),
           st.integers(0, 8))
    def test_same_paths_without_bounds(self, dag_space, n, order, pick):
        dag, space = dag_space
        bounds = compute_bounds(dag, space)
        oracle = oracle_paths(dag, space)
        floors = [lattice_floor(space)]
        if oracle:
            floors.append(oracle[pick % len(oracle)].cost)

        def paths(solve, *args):
            key, topo = order
            return [[p.vertices for p in solve(
                dag, space, bounds, *args, **toggle_kwargs(
                    use_bounds, key, topo)).paths]
                for use_bounds in (True, False)]

        for floor in [None] + floors:
            on, off = paths(solve_n_best, n, floor)
            assert on == off
        for threshold in floors:
            on, off = paths(solve_above_threshold, threshold)
            assert on == off

    def test_root_bound_below_floor_builds_no_rest_table(self):
        # When the root's plain bound is below the floor, so is every
        # label's: the search pops the root, cuts every child on the
        # plain bound and builds no rest table.  Its counts are those of
        # the search run after the rest table was read, and of one whose
        # root entry is raised so that it cuts on the rest table.
        skipped = 0
        for seed in range(12):
            dag, grid, _ = random_round(seed)
            floor = _positive_floor(3, grid.unit)
            for pilot in range(3):
                space = grid.space(pilot)
                bounds = compute_bounds(dag, space)
                origin = bounds.table.origin
                root = bounds.completions[origin][-1]
                if LexValue(bounds.codec.cost(root)) >= floor:
                    continue
                res = solve_n_best(dag, space, bounds, 10, floor)
                assert res.paths == [] and res.stats.labels_popped == 1
                assert "rest_completions" not in vars(bounds)
                bounds.rest_completions
                again = solve_n_best(dag, space, bounds, 10, floor)
                assert again.stats == res.stats
                raised = compute_bounds(dag, space)
                raised.completions = raised.completions[:]
                raised.completions[origin] = \
                    raised.completions[origin][:-1] + [-raised.codec.none]
                cut = solve_n_best(dag, space, raised, 10, floor)
                assert "rest_completions" in vars(raised)
                assert cut.paths == [] and cut.stats == res.stats
                skipped += 1
        assert skipped >= 3


class TestPathResult:
    def test_cost_and_resource_agree(self):
        # A searched path's key decodes to its cost, for plain, floored
        # and threshold searches, on quarter-integer and fine duals, and
        # direct pricing's rows built from the keys are the costs'
        # floats bit for bit.
        searched = 0
        for seed, fine in product(range(6), (False, True)):
            dag, grid, _ = random_round(seed, fine)
            floor = _positive_floor(3, grid.unit)
            for pilot in range(3):
                space = grid.space(pilot)
                bounds = compute_bounds(dag, space)
                oracle = {tuple(p.vertices): p.cost
                          for p in oracle_paths(dag, space)}
                plain = solve_n_best(dag, space, bounds, 5).paths
                results = [plain,
                           solve_n_best(dag, space, bounds, 5, floor).paths,
                           solve_above_threshold(dag, space, bounds,
                                                 plain[-1].cost).paths]
                for paths in results:
                    for p in paths:
                        want = oracle[tuple(p.vertices)]
                        assert p.codec is grid.codec
                        assert tuple(d / COST_GRID for d in p.codec.decode(
                            p.key)) == want.entries
                        assert p.cost == want
                        assert p.resource.cost == want.entries
                        assert space.cost(p.resource) == want
                    rows = _cost_rows(paths, 3)
                    want = np.array([p.cost.entries for p in paths])
                    assert rows.shape == (len(paths), 3)
                    assert rows.tobytes() == want.tobytes()
                    searched += len(paths)
        assert searched > 100


class TestPositivityFloor:
    def test_lattice_floor_keeps_exactly_the_positive_paths(self):
        checked = 0
        for seed in range(12):
            dag, grid, rng = random_round(seed)
            space = grid.space(int(rng.integers(0, 3)))
            bounds = compute_bounds(dag, space)
            floor = lattice_floor(space)
            assert grid.unit == 2 ** 28  # quarter-integer duals
            assert floor == _positive_floor(space.cost_len, grid.unit)
            every = solve_n_best(dag, space, bounds, 10 ** 6)
            floored = solve_n_best(dag, space, bounds, 10 ** 6, floor=floor)
            assert [p.vertices for p in floored.paths] == [
                p.vertices for p in every.paths if lex_is_positive(p.cost)]
            checked += bool(floored.paths) and len(floored.paths) < len(
                every.paths)
        assert checked >= 4

    def test_floor_keeps_the_positive_paths(self):
        eps = DEFAULT_EPS
        for seed in range(12):
            dag, space = random_space(seed)
            m = space.cost_len
            floor = LexValue((-eps,) * (m - 1) + (eps,))

            def positive(res):
                return [p.cost.entries for p in res.paths
                        if lex_is_positive(p.cost, eps)]

            plain = floored_n_best(dag, space, 10, None)
            floored = floored_n_best(dag, space, 10, floor)
            assert positive(floored) == positive(plain)
            assert all(p.cost >= floor for p in floored.paths)

    def test_fine_duals_floor_keeps_the_positive_paths(self):
        # With the round's unit at most eps, the floor also admits paths
        # that are not eps-positive, yet an n-best search keeps the same
        # eps-positive paths with and without it.
        admitted = 0
        for seed in range(40):
            dag, grid, _ = random_round(seed, fine=True)
            assert grid.unit <= DEFAULT_EPS * COST_GRID
            floor = _positive_floor(3, grid.unit)
            for pilot in range(3):
                space = grid.space(pilot)
                bounds = compute_bounds(dag, space)
                every = solve_n_best(dag, space, bounds, 10 ** 6,
                                     floor=floor)
                admitted += sum(not lex_is_positive(p.cost)
                                for p in every.paths)
                for n in (1, 3, 10):
                    floored, plain = (
                        [p.vertices for p in solve_n_best(
                            dag, space, bounds, n, floor=f).paths
                         if lex_is_positive(p.cost)]
                        for f in (floor, None))
                    assert floored == plain, (seed, pilot, n)
        assert admitted > 0
