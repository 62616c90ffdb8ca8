"""Release acceptance gate.

Eight criteria, one test each, every test ending in a single PASS line.
Criteria 1, 4 and 5 share one batch of 200 end-to-end runs; criteria 3
and 6 share one batch of 100 random DAGs.
"""

import json
import time
from itertools import product

import numpy as np
import pytest

from conftest import quarter_grid
from lexpbs.cli import generate, main
from lexpbs.colgen import ColgenParams, run
from lexpbs.lexcore import LexValue, lex_is_positive
from lexpbs.llp import LlpProblem, LlpUnboundedError, lex_solve, reduced_cost
from lexpbs.oracle import (
    exact_basis_value,
    oracle_llp_exact,
    oracle_paths,
    oracle_pbs,
)
from lexpbs.pbs import DualGrid, build_dag, make_resource_space
from lexpbs.rclpp import (
    compute_bounds,
    solve_above_threshold,
    solve_lex_longest,
    solve_n_best,
)

TOGGLES = [
    dict(use_bounds=b, use_key_priority=k, use_topo_arc_order=t)
    for b, k, t in product((True, False), repeat=3)
]


@pytest.fixture(scope="module")
def endtoend_runs():
    """200 seeded end-to-end solves with verification and audit on,
    compared against the exhaustive assignment oracle."""
    runs = []
    params = ColgenParams(verify_loop_exit=True, audit_reduction=True)
    t0 = time.perf_counter()
    for seed in range(200):
        m = 2 + seed % 3
        rng = np.random.default_rng(seed)
        n = int(rng.integers(m, 11))
        inst = generate(seed, m, n)
        result = run(inst, params)
        oracle_value, _ = oracle_pbs(inst)
        runs.append((seed, result, oracle_value))
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="module")
def random_dags():
    """100 random scheduling DAGs (at most 12 vertices) with
    quarter-integer duals, so cost arithmetic is exact in floats."""
    out = []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(3, 11))
        inst = generate(seed, 3, n)
        lam = quarter_grid(rng, (3, 3))
        mu = quarter_grid(rng, (3, n))
        pilot = int(rng.integers(0, 3))
        dag = build_dag(inst)
        space = make_resource_space(DualGrid(inst, lam, mu), pilot)
        out.append((dag, space, oracle_paths(dag, space)))
    return out


def test_criterion_1_end_to_end_oracle_equivalence(endtoend_runs):
    runs, elapsed = endtoend_runs
    for seed, result, oracle_value in runs:
        assert result.value == oracle_value, f"seed {seed}"
    assert elapsed < 300.0, f"200 runs took {elapsed:.1f}s"
    print(f"PASS criterion 1: 200/200 end-to-end values match the oracle "
          f"exactly in {elapsed:.1f}s")


def test_criterion_2_lex_lp_correctness():
    rng = np.random.default_rng(42)
    solved = 0
    while solved < 200:
        k = int(rng.integers(1, 5))
        n = int(rng.integers(k, 9))
        m = int(rng.integers(1, 4))
        A = rng.integers(-3, 4, size=(k, n)).astype(float)
        x0 = rng.integers(0, 4, size=n).astype(float)
        p = LlpProblem(A=A, b=A @ x0, C=rng.integers(-5, 6, size=(m, n)))
        try:
            res = lex_solve(p)
        except LlpUnboundedError:
            continue
        exact_val, _ = oracle_llp_exact(p)
        assert exact_val is not None
        assert exact_basis_value(p, res.basis) == exact_val
        assert res.value.entries == pytest.approx(
            tuple(float(v) for v in exact_val), abs=1e-9
        )
        for j in range(p.num_cols):
            rc = reduced_cost(res.duals, p.column_cost(j), p.A[:, j])
            assert not lex_is_positive(rc, 1e-6)
        solved += 1
    print("PASS criterion 2: 200/200 lex LPs match the vertex oracle "
          "exactly with dual-feasible certificates at eps=1e-6")


def test_criterion_3_rclpp_correctness(random_dags):
    for dag, space, oracle in random_dags:
        bounds = compute_bounds(dag, space)
        best = oracle[0].cost.entries if oracle else None
        all_costs = sorted((p.cost.entries for p in oracle), reverse=True)
        distinct = sorted({c for c in all_costs}, reverse=True)
        for toggles in TOGGLES:
            single = solve_lex_longest(dag, space, bounds, **toggles)
            assert (single.best.cost.entries if single.best else None) == best
            for n in (1, 2, 3):
                got = sorted(
                    (p.cost.entries
                     for p in solve_n_best(dag, space, bounds, n,
                                           **toggles).paths),
                    reverse=True,
                )
                assert got == all_costs[:n]
            if len(distinct) >= 2:
                t = LexValue(distinct[1])
                got = sorted(
                    p.cost.entries for p in
                    solve_above_threshold(dag, space, bounds, t,
                                          **toggles).paths
                )
                assert got == sorted(
                    c for c in all_costs if c >= t.entries
                )
    print("PASS criterion 3: 100/100 DAGs match the enumeration oracle "
          "in all modes under all 8 toggle combinations")


def test_criterion_4_gap_completion_safety(endtoend_runs):
    runs, _ = endtoend_runs
    for seed, result, oracle_value in runs:
        assert result.value == oracle_value, f"seed {seed}"
        assert result.lower_bound <= result.value, f"seed {seed}"
        assert result.stats.loop_exit_verified is True, f"seed {seed}"
    print("PASS criterion 4: post-gap final value equals the oracle in "
          "all 200 runs; no optimal column was excluded")


def test_criterion_5_reduction_pool_matches_direct(endtoend_runs):
    runs, _ = endtoend_runs
    audited = 0
    for seed, result, _ in runs:
        for _it, _pilot, pool_cost, direct_cost in \
                result.stats.reduction_audit:
            assert pool_cost == direct_cost, f"seed {seed}"
            audited += 1
    assert audited > 0
    print(f"PASS criterion 5: {audited} audited pool harvests equal the "
          f"direct per-pilot pricing optimum exactly")


def test_criterion_6_merge_bound_and_bound_validity(random_dags):
    pairs = 0
    for dag, space, oracle in random_dags:
        bounds = compute_bounds(dag, space)
        for path in oracle:
            r_fwd = space.initial(dag.origin)
            r_revs = [space.initial_reverse(dag.destination)]
            for a in reversed(path.arcs):
                r_revs.append(space.extend_reverse(a, r_revs[-1]))
            r_revs.reverse()
            vertices = [dag.origin] + [a.head for a in path.arcs]
            for i, arc in enumerate(path.arcs):
                # Bound validity at the split vertex.
                assert space.leq(bounds[vertices[i]], r_revs[i])
                r_fwd = space.extend(arc, r_fwd)
                merged = space.merge(r_fwd, r_revs[i + 1])
                assert space.leq(merged, path.resource)
                pairs += 1
    print(f"PASS criterion 6: merge lower bound and bound validity hold on "
          f"{pairs} path splits across 100 DAGs")


def test_criterion_7_scale_smoke(tmp_path, capsys):
    inst = tmp_path / "scale.json"
    assert main(["generate", "--seed", "7", "-m", "17", "-n", "69",
                 "-o", str(inst)]) == 0
    sol = tmp_path / "solution.json"
    stats = tmp_path / "stats.json"
    t0 = time.perf_counter()
    code = main(["solve", str(inst), "-o", str(sol),
                 "--stats-out", str(stats)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 600.0, f"scale solve took {elapsed:.1f}s"
    data = json.loads(sol.read_text())
    value = data["score_vector"]
    lower = data["lower_bound"]
    upper = data["upper_bound"]
    assert len(value) == 17
    # Certified sandwich: lower <= value <= upper in lex order.
    assert tuple(lower) <= tuple(float(v) + 1e-6 for v in value)
    assert tuple(float(v) for v in value) <= tuple(u + 1e-6 for u in upper)
    counters = json.loads(stats.read_text())
    assert set(counters) == {
        "column_generation_iterations", "generated_columns",
        "duplicate_columns", "gap_columns", "pool_size",
        "avg_eliminated_subproblems_pct", "reduction_saved_paths",
        "reduction_cuts_by_lb", "pricing_saved_paths",
        "pricing_cuts_by_lb", "illp_nodes_lower", "illp_nodes_final",
    }
    print(f"PASS criterion 7: 17-pilot, 69-pairing instance solved to "
          f"proven optimality in {elapsed:.1f}s with full stats")


def test_criterion_8_byte_determinism(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["generate", "--seed", "11", "-m", "3", "-n", "8",
                 "-o", str(inst)]) == 0
    files = []
    for tag in ("a", "b"):
        sol = tmp_path / f"sol_{tag}.json"
        stats = tmp_path / f"stats_{tag}.json"
        assert main(["solve", str(inst), "-o", str(sol),
                     "--stats-out", str(stats)]) == 0
        files.append((sol.read_bytes(), stats.read_bytes()))
    assert files[0] == files[1]
    print("PASS criterion 8: identical seed and flags give byte-identical "
          "solution and stats files across two consecutive runs")
