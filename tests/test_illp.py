"""Branch and bound for binary lexicographic programs."""

from itertools import product

import numpy as np
import pytest

from lexpbs import colgen, illp, llp
from lexpbs.cli import generate
from lexpbs.illp import IllpProblem, IllpStatus, _node_relaxation, illp_solve
from lexpbs.lexcore import LexValue
from lexpbs.llp import (
    LlpInfeasibleError,
    LlpProblem,
    LlpUnboundedError,
    lex_solve,
)


def brute_force(problem: IllpProblem):
    """Lex-max over all feasible 0/1 vectors, or None."""
    base = problem.base
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
        p = IllpProblem(LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0], [0, 1]]))
        res = illp_solve(p)
        assert res.status is IllpStatus.OPTIMAL
        assert res.value == LexValue((1, 0))

    def test_tie_then_refine(self):
        p = IllpProblem(LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]]))
        res = illp_solve(p)
        assert res.value == LexValue((1, 1))
        assert res.solution == pytest.approx([0.0, 1.0])

    def test_infeasible(self):
        p = IllpProblem(LlpProblem(A=[[1]], b=[2], C=[[1]]))
        res = illp_solve(p)
        assert res.status is IllpStatus.INFEASIBLE
        assert res.value is None

    def test_node_count_positive(self):
        p = IllpProblem(LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0]]))
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
        p = IllpProblem(LlpProblem(A=A, b=np.ones(8), C=C))
        res = illp_solve(p)
        expected, _ = brute_force(p)
        assert res.status is IllpStatus.OPTIMAL
        assert res.value == expected


class TestIncumbentHint:
    def test_feasible_hint_accepted(self):
        p = IllpProblem(LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]]))
        res = illp_solve(p, incumbent_hint=np.array([1.0, 0.0]))
        assert res.value == LexValue((1, 1))

    def test_infeasible_hint_rejected(self):
        p = IllpProblem(LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0]]))
        with pytest.raises(ValueError):
            illp_solve(p, incumbent_hint=np.array([1.0, 1.0]))


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
            p = IllpProblem(LlpProblem(A=A, b=b, C=C))
            res = illp_solve(p)
            expected, _ = brute_force(p)
            assert res.status is IllpStatus.OPTIMAL
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
            res = illp_solve(IllpProblem(base))
            assert res.status is IllpStatus.OPTIMAL
            assert tuple(res.value.entries) <= tuple(
                v + 1e-6 for v in relax.value.entries
            )


def cold_node_bound(problem: IllpProblem, fixed_zero, fixed_one):
    """The node LP's bound by a cold lex_solve on a copied sub-program
    that keeps every unfixed column, or None if it is infeasible."""
    base = problem.base
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
        # Both integer solves of colgen.run on generated months, with
        # the root warm-started as colgen does.  Both children of every
        # column in the root's support start from the root's basis and
        # must reach the bound of a cold solve of the same node LP.
        solves = []
        real_illp = colgen.illp_solve
        monkeypatch.setattr(
            colgen, "illp_solve",
            lambda problem, **kw: solves.append((problem, kw["warm_start"]))
            or real_illp(problem, **kw))
        levels = []
        real_warm = llp._Simplex.try_warm_start
        monkeypatch.setattr(
            llp._Simplex, "try_warm_start",
            lambda sx, basis: levels.append(real_warm(sx, basis))
            or levels[-1])
        for seed in range(1, 7):
            colgen.run(generate(seed, 3 + seed % 2, 8 + seed % 3))
        children = 0
        for problem, warm in solves:
            _, x, basis = _node_relaxation(problem, frozenset(), frozenset(),
                                           np.array(warm.indices), 1e-6)
            for j in np.flatnonzero(x > 1e-6):
                for fz, fo in ((frozenset([j]), frozenset()),
                               (frozenset(), frozenset([j]))):
                    child = _node_relaxation(problem, fz, fo, basis, 1e-6)
                    expected = cold_node_bound(problem, fz, fo)
                    if expected is None:
                        assert child is None
                        continue
                    assert child[0].entries == pytest.approx(
                        tuple(expected), abs=1e-9)
                    children += 1
        assert len(solves) == 12 and children >= 50
        assert None not in levels  # every warm basis was adopted
        assert levels.count(np.inf) >= 10  # many needed the repair

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
        problem = IllpProblem(LlpProblem(A=A, b=[1, 1, 1, 1], C=C))
        solved = []
        real = illp.lex_solve
        monkeypatch.setattr(
            illp, "lex_solve",
            lambda *a, **kw: solved.append(kw["columns"]) or real(*a, **kw))
        bound, x, _ = _node_relaxation(problem, frozenset(), frozenset([0]),
                                       None, 1e-6)
        assert solved[-1].tolist() == [3, 4, 5]
        expected = cold_node_bound(problem, frozenset(), frozenset([0]))
        assert bound.entries == pytest.approx(tuple(expected), abs=1e-9)
        assert x[[0, 1, 2]].tolist() == [1.0, 0.0, 0.0]
        full, _ = brute_force(problem)
        assert illp_solve(problem).value == full
