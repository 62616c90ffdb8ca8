"""Branch and bound for binary lexicographic programs."""

from itertools import product

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from conftest import FRACTIONAL_MONTHS
from lexpbs import colgen, illp, llp
from lexpbs.cli import generate
from lexpbs.illp import _branch_var, _node_relaxation, illp_solve
from lexpbs.lexcore import TIE_EPS, LexValue
from lexpbs.llp import (
    LlpInfeasibleError,
    LlpProblem,
    LlpUnboundedError,
    lex_solve,
)


def brute_force(base: LlpProblem):
    """Lex-max over all feasible 0/1 vectors, or None."""
    best = None
    best_x = None
    for bits in product((0.0, 1.0), repeat=base.num_cols):
        x = np.array(bits)
        if np.max(np.abs(base.A @ x - base.b)) > 1e-9:
            continue
        val = LexValue(base.C @ x)
        if best is None or val > best:
            best, best_x = val, x
    return best, best_x


class TestFixtures:
    def test_integral_relaxation(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0], [0, 1]])
        res = illp_solve(p)
        assert res.solution is not None
        assert res.value == LexValue((1, 0))

    def test_tie_then_refine(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]])
        res = illp_solve(p)
        assert res.value == LexValue((1, 1))
        assert res.solution == pytest.approx([0.0, 1.0])

    def test_infeasible(self):
        p = LlpProblem(A=[[1]], b=[2], C=[[1]])
        res = illp_solve(p)
        assert res.value is None and res.solution is None

    def test_node_count_positive(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0]])
        assert illp_solve(p).node_count >= 1

    def test_three_pilot_master(self):
        # Three assignment rows, five partition rows, six hand-built
        # columns; checked against the 2^6 enumeration.
        cols = [
            (0, (0, 1), 12),
            (0, (2,), 5),
            (1, (2, 3), 9),
            (1, (0,), 4),
            (2, (4,), 7),
            (2, (1, 3, 4), 11),
        ]
        A = np.zeros((8, 6))
        C = np.zeros((3, 6))
        for j, (pilot, pairings, score) in enumerate(cols):
            A[pilot, j] = 1.0
            for p in pairings:
                A[3 + p, j] = 1.0
            C[pilot, j] = score
        p = LlpProblem(A=A, b=np.ones(8), C=C)
        res = illp_solve(p)
        expected, _ = brute_force(p)
        assert res.solution is not None
        assert res.value == expected

    def test_out_of_range_warm_start_is_refused(self, monkeypatch):
        # A warm basis with an entry below -k or at or above n names no
        # column: the root LP refuses it and starts cold.  Entries at
        # the edges of that range, -k and n - 1, are adopted.
        adopted = []
        real = llp._Simplex.try_warm_start

        def spy(sx, basis):
            x_B = real(sx, basis)
            adopted.append(x_B is not None)
            return x_B

        monkeypatch.setattr(llp._Simplex, "try_warm_start", spy)
        A = [[1, 1, 0], [0, 1, 1]]
        p = LlpProblem(A=A, b=[1, 1], C=[[1, 3, 1], [1, 0, 0]])
        cold = illp_solve(p)
        for warm, adopt in (((-3, 1), False), ((1, 3), False),
                            ((1, 99), False), ((-99, 1), False),
                            ((-2, 0), True), ((-1, 2), True)):
            del adopted[:]
            res = illp_solve(p, warm_start=warm)
            assert adopted[0] is adopt
            assert res.value == cold.value == LexValue((3, 0))


def scanned_branch_var(x, fixed):
    """The branching rule by plain loops: the largest distance from
    {0, 1} among the unfixed variables, then the first unfixed index in
    order whose distance is within TIE_EPS of it."""
    dist = {j: min(abs(x[j]), abs(x[j] - 1.0))
            for j in range(len(x)) if j not in fixed}
    if not dist:
        return -1
    top = max(dist.values())
    return next(j for j, d in dist.items() if d >= top - TIE_EPS)


class TestBranchVar:
    def test_matches_scan_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(3000):
            n = int(rng.integers(0, 25))
            x = rng.choice([rng.random(n), rng.choice([0.0, 1.0, 0.5], n)])
            fixed = set(rng.choice(n, int(rng.integers(0, n + 1)),
                                   replace=False).tolist())
            assert _branch_var(x, fixed) == scanned_branch_var(x, fixed)

    def test_matches_scan_on_tie_chains(self):
        # Steps below and above the 1e-12 tie tolerance: only distances
        # within it of the largest tie with it, however the chain runs.
        rng = np.random.default_rng(1)
        for step in (0.4e-12, 0.6e-12, 1.0e-12, 1.5e-12):
            for _ in range(300):
                n = int(rng.integers(1, 20))
                x = 0.3 + rng.integers(0, 6, n) * step
                if rng.random() < 0.5:
                    x = np.sort(x)
                x = np.where(rng.random(n) < 0.3, 1.0 - x, x)
                fixed = set(np.flatnonzero(rng.random(n) < 0.2).tolist())
                assert _branch_var(x, fixed) \
                    == scanned_branch_var(x, fixed)
        # Distances 0.6e-12 apart: the largest and the one below it tie.
        chain = 0.3 + np.arange(5) * 0.6e-12
        assert _branch_var(chain, set()) == 3
        assert _branch_var(chain, {4}) == 2
        assert _branch_var(chain, {3, 4}) == 1
        assert _branch_var(np.array([0.5, 0.5]), {0, 1}) == -1


class TestIncumbentHint:
    def test_feasible_hint_accepted(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]])
        res = illp_solve(p, incumbent_hint=np.array([1.0, 0.0]))
        assert res.value == LexValue((1, 1))

    def test_infeasible_hint_rejected(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0]])
        with pytest.raises(ValueError):
            illp_solve(p, incumbent_hint=np.array([1.0, 1.0]))

    def test_non_binary_hint_rejected(self):
        # The relaxation's only solution is x = 1/2: the 0/1 program is
        # infeasible, and a fractional hint must not be taken as its
        # solution.
        A = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
        p = LlpProblem(A=A, b=[1, 1, 1], C=[[1, 1, 1]])
        assert illp_solve(p).solution is None
        for hint in ([0.5, 0.5, 0.5], [1.0, 0.0], [[1.0, 0.0, 0.0]]):
            with pytest.raises(ValueError):
                illp_solve(p, incumbent_hint=np.array(hint))


class TestAgainstBruteForce:
    def test_random_instances(self):
        rng = np.random.default_rng(5)
        solved = 0
        for _ in range(40):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(2, 9))
            A = rng.integers(0, 2, size=(k, n)).astype(float)
            x0 = rng.integers(0, 2, size=n).astype(float)
            b = A @ x0
            C = rng.integers(-5, 11, size=(int(rng.integers(1, 4)), n))
            p = LlpProblem(A=A, b=b, C=C)
            res = illp_solve(p)
            expected, _ = brute_force(p)
            assert res.value == expected
            assert res.solution is not None
            assert np.max(np.abs(A @ res.solution - b)) <= 1e-7
            solved += 1
        assert solved == 40

    def test_root_sandwich(self):
        # The integer value never exceeds the root relaxation value.
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = rng.integers(0, 2, size=(2, n)).astype(float)
            x0 = rng.integers(0, 2, size=n).astype(float)
            C = rng.integers(0, 9, size=(2, n))
            base = LlpProblem(A=A, b=A @ x0, C=C)
            try:
                relax = lex_solve(base)
            except LlpUnboundedError:
                continue  # zero columns can leave the relaxation unbounded
            res = illp_solve(base)
            assert res.solution is not None
            assert tuple(res.value.entries) <= tuple(
                v + 1e-6 for v in relax.value.entries
            )


def cold_node_bound(base: LlpProblem, fixed_zero, fixed_one):
    """The node LP's bound by a cold lex_solve on a copied sub-program
    that keeps every unfixed column, or None if it is infeasible."""
    free = [j for j in range(base.num_cols)
            if j not in fixed_zero and j not in fixed_one]
    ones = list(fixed_one)
    b = base.b - base.A[:, ones].sum(axis=1)
    try:
        res = lex_solve(LlpProblem(A=base.A[:, free], b=b, C=base.C[:, free]))
    except LlpInfeasibleError:
        return None
    return np.asarray(res.value.entries) + base.C[:, ones].sum(axis=1)


class TestWarmStartedNodes:
    def test_children_match_cold_node_solves(self, monkeypatch):
        # Both integer solves of colgen.run on generated months whose
        # master ends fractional, with the root warm-started as colgen
        # does.  Both children of every
        # column in the root's support start from the root's basis and
        # must reach the bound of a cold solve of the same node LP.
        solves = []
        real_illp = colgen.illp_solve
        monkeypatch.setattr(
            colgen, "illp_solve",
            lambda problem, **kw: solves.append((problem, kw["warm_start"]))
            or real_illp(problem, **kw))
        for spec in FRACTIONAL_MONTHS:
            colgen.run(generate(*spec))
        # From here on, record whether each warm basis was adopted and
        # already feasible, and whether each dual repair succeeded.
        starts, repairs = [], []
        real_warm = llp._Simplex.try_warm_start
        real_repair = llp._Simplex.dual_repair

        def warm_spy(sx, basis):
            x_B = real_warm(sx, basis)
            starts.append(None if x_B is None else sx._feasible(x_B))
            return x_B

        monkeypatch.setattr(llp._Simplex, "try_warm_start", warm_spy)
        monkeypatch.setattr(
            llp._Simplex, "dual_repair",
            lambda sx, x_B, C: repairs.append(real_repair(sx, x_B, C))
            or repairs[-1])
        children = infeasible = 0
        for problem, warm in solves:
            _, x, basis = _node_relaxation(problem, frozenset(), frozenset(),
                                           warm)
            for j in np.flatnonzero(x > 1e-6):
                for fz, fo in ((frozenset([j]), frozenset()),
                               (frozenset(), frozenset([j]))):
                    child = _node_relaxation(problem, fz, fo, basis)
                    expected = cold_node_bound(problem, fz, fo)
                    if expected is None:
                        assert child is None
                        infeasible += 1
                        continue
                    assert child[0].entries == pytest.approx(
                        tuple(expected), abs=1e-9)
                    children += 1
        assert len(solves) == 12 and children >= 50
        assert None not in starts  # every warm basis was adopted
        assert starts.count(False) >= 10  # many needed the dual repair
        # Only an infeasible child leaves the repair to phase 1.
        assert repairs.count(False) == infeasible

    def test_fixed_to_one_drops_forced_zero_columns(self, monkeypatch):
        # Fixing column 0 to one leaves rows 0 and 1 at right-hand side
        # 0.  Row 0 has only nonnegative entries, so columns 1 and 2 are
        # forced to zero and left out of the node LP; row 1 has a
        # negative entry (column 4), so column 3 stays.
        A = [[1, 1, 1, 0, 0, 0],
             [1, 0, 0, 1, -1, 0],
             [0, 1, 0, 0, 0, 1],
             [0, 0, 1, 1, 1, 1]]
        C = [[3, 2, 1, 4, 0, 1], [0, 1, 5, 0, 2, 0]]
        problem = LlpProblem(A=A, b=[1, 1, 1, 1], C=C)
        solved = []
        real = illp.lex_solve
        monkeypatch.setattr(
            illp, "lex_solve",
            lambda *a, **kw: solved.append(kw["columns"]) or real(*a, **kw))
        bound, x, _ = _node_relaxation(problem, frozenset(), frozenset([0]),
                                       None)
        assert solved[-1].tolist() == [3, 4, 5]
        expected = cold_node_bound(problem, frozenset(), frozenset([0]))
        assert bound.entries == pytest.approx(tuple(expected), abs=1e-9)
        assert x[[0, 1, 2]].tolist() == [1.0, 0.0, 0.0]
        full, _ = brute_force(problem)
        assert illp_solve(problem).value == full


def integer_solves(seed: int, pilots: int, pairings: int):
    """colgen.run on a generated month: its two integer solves as
    (problem, result) pairs, and for each node LP inside them, whether
    it is infeasible, the results of its dual repairs and those of its
    phase 1 runs (False: the node LP is infeasible)."""
    solves, nodes, inside = [], [], []
    real_illp, real_node = colgen.illp_solve, illp._node_relaxation
    real_repair, real_phase1 = llp._Simplex.dual_repair, llp._Simplex.phase1

    def illp_spy(problem, **kw):
        res = real_illp(problem, **kw)
        solves.append((problem, res))
        return res

    def node_spy(*args):
        repairs, phase1 = [], []
        inside.append((repairs, phase1))
        try:
            res = real_node(*args)
        finally:
            inside.pop()
        nodes.append((res is None, repairs, phase1))
        return res

    def repair_spy(sx, x_B, C):
        res = real_repair(sx, x_B, C)
        if inside:
            inside[-1][0].append(res)
        return res

    def phase1_spy(sx):
        feasible = real_phase1(sx)
        if inside:
            inside[-1][1].append(feasible)
        return feasible

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(colgen, "illp_solve", illp_spy)
        mp.setattr(illp, "_node_relaxation", node_spy)
        mp.setattr(llp._Simplex, "dual_repair", repair_spy)
        mp.setattr(llp._Simplex, "phase1", phase1_spy)
        colgen.run(generate(seed, pilots, pairings))
    return solves, nodes


def highs_lex_max(base: LlpProblem):
    """The lex-max of the 0/1 program by scipy's HiGHS MILP solver, one
    level at a time, each level's optimum fixed as an equality for the
    levels after it; the costs are integers, so each optimum is."""
    rows = [LinearConstraint(base.A, base.b, base.b)]
    values = []
    for l in range(base.num_levels):
        res = milp(-base.C[l], constraints=rows,
                   integrality=np.ones(base.num_cols), bounds=Bounds(0, 1))
        assert res.success, res.message
        values.append(round(-res.fun))
        assert abs(-res.fun - values[-1]) <= 1e-6
        rows = [rows[0], LinearConstraint(base.C[: l + 1], values, values)]
    return tuple(values)


@pytest.fixture(scope="module")
def month_10x40():
    return integer_solves(5, 10, 40)


@pytest.fixture(scope="module")
def month_3x11():
    """The fractional month of seed 2323, whose integer solves branch
    widely."""
    return integer_solves(2323, 3, 11)


class TestAgainstHighs:
    # Pools whose integer solves branch, as (lower, final) nodes: 3/3
    # on the 5x20 month, 5/3 on the 10x40, both beyond the brute-force
    # oracle's reach, and 11/11 on the 3x11 month.
    def test_5x20_pools(self):
        self.check(integer_solves(4, 5, 20)[0], (3, 3))

    def test_10x40_pools(self, month_10x40):
        self.check(month_10x40[0], (5, 3))

    def test_3x11_pools(self, month_3x11):
        self.check(month_3x11[0], (11, 11))

    @staticmethod
    def check(solves, nodes):
        assert [res.node_count for _, res in solves] == list(nodes)
        for base, res in solves:
            assert res.solution is not None
            assert tuple(res.value.entries) == highs_lex_max(base)
            assert np.array_equal(base.A @ res.solution, base.b)


def test_no_child_runs_phase_one(month_10x40, month_3x11):
    # Every node LP of both integer solves starts from a warm basis, the
    # root's from the master's and each child's from its parent's, and
    # the dual repair alone decides it: it makes a feasible node LP
    # feasible, and a stuck violated row proves an infeasible one
    # infeasible.  Phase 1 never runs.
    for (solves, nodes), total, infeasible in ((month_10x40, 8, 0),
                                               (month_3x11, 22, 8)):
        assert sum(res.node_count for _, res in solves) == len(nodes) == total
        assert [phase1 for _, _, phase1 in nodes] == [[]] * total
        assert [repairs for _, repairs, _ in nodes] == [
            [not none] for none, _, _ in nodes]
        assert sum(none for none, _, _ in nodes) == infeasible


def test_repair_that_gives_up_falls_back_to_phase_one(month_3x11):
    # With no dual pivots allowed, a repair of an infeasible warm basis
    # gives up at once, and phase 1 runs from scratch in its place: it
    # decides the same node LPs, and the integer solves reach the same
    # values.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(llp, "_DUAL_PIVOTS_PER_ROW", 0)
        solves, nodes = integer_solves(2323, 3, 11)
    for (_, res), (_, before) in zip(solves, month_3x11[0], strict=True):
        assert res.value == before.value
        assert res.solution.tolist() == before.solution.tolist()
    assert {tuple(repairs) for _, repairs, _ in nodes} == {(True,), (None,)}
    for none, repairs, phase1 in nodes:
        assert phase1 == ([not none] if repairs == [None] else [])
    assert sum(none for none, _, _ in nodes) == 8
