"""Linear lexicographic programming and the simplex backend."""

from fractions import Fraction

import numpy as np
import pytest

from lexpbs.lexcore import LexValue, lex_is_positive
from lexpbs.llp import (
    AugmentedProgram,
    Basis,
    LlpInfeasibleError,
    LlpProblem,
    LlpUnboundedError,
    LpStatus,
    NumericalError,
    _entering,
    _Simplex,
    lex_solve,
    lp_solve,
    lu_factor,
    reduced_cost,
)
from lexpbs.oracle import exact_basis_value, oracle_llp, oracle_llp_exact


class TestLpBackend:
    def test_one_constraint(self):
        res = lp_solve(c=[1, 0], A=[[1, 1]], b=[1])
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(1.0)
        assert res.x == pytest.approx([1.0, 0.0])
        assert res.duals == pytest.approx([1.0])
        # Reduced cost of x2 under the returned dual.
        assert 0.0 - res.duals @ np.array([1.0]) == pytest.approx(-1.0)

    def test_zero_objective(self):
        res = lp_solve(c=[0, 0], A=[[1, 0]], b=[1])
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(0.0)

    def test_unbounded_ray(self):
        res = lp_solve(c=[1, 0], A=[[1, -1]], b=[1])
        assert res.status is LpStatus.UNBOUNDED

    def test_infeasible(self):
        res = lp_solve(c=[1], A=[[1]], b=[-1])
        assert res.status is LpStatus.INFEASIBLE

    def test_dual_feasibility_of_result(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            A = rng.integers(-3, 4, size=(3, 6)).astype(float)
            x0 = rng.integers(0, 4, size=6).astype(float)
            b = A @ x0
            c = rng.integers(-5, 6, size=6).astype(float)
            res = lp_solve(c, A, b)
            if res.status is not LpStatus.OPTIMAL:
                continue
            slack = c - res.duals @ A
            assert np.max(slack) <= 1e-6


class TestLexSolve:
    def test_level_one_decides(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0], [0, 1]])
        res = lex_solve(p)
        assert res.value == LexValue((1, 0))
        assert res.primal == pytest.approx([1.0, 0.0])
        # Level 1 support keeps only x1.
        assert res.supports[1] == {0}

    def test_tie_then_refine(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]])
        res = lex_solve(p)
        assert res.value == LexValue((1, 1))
        assert res.supports[1] == {0, 1}

    def test_reduced_cost_of_displaced_column(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]])
        res = lex_solve(p)
        rc = reduced_cost(res.duals, p.column_cost(0), p.A[:, 0])
        assert rc.entries == pytest.approx((0.0, -1.0), abs=1e-9)

    def test_basic_column_reduced_cost_zero(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]])
        res = lex_solve(p)
        rc = reduced_cost(res.duals, p.column_cost(1), p.A[:, 1])
        assert rc.entries == pytest.approx((0.0, 0.0), abs=1e-9)
        # Same column with cost lowered by (0, delta) prices at (0, -delta).
        lowered = LexValue((1.0, 1.0 - 0.25))
        rc2 = reduced_cost(res.duals, lowered, p.A[:, 1])
        assert rc2.entries == pytest.approx((0.0, -0.25), abs=1e-9)

    def test_infeasible_raises(self):
        p = LlpProblem(A=[[1], [1]], b=[1, 2], C=[[1]])
        with pytest.raises(LlpInfeasibleError):
            lex_solve(p)

    def test_unbounded_raises(self):
        p = LlpProblem(A=[[1, -1]], b=[1], C=[[1, 0]])
        with pytest.raises(LlpUnboundedError):
            lex_solve(p)

    def test_rank_deficient_rows(self):
        p = LlpProblem(A=[[1, 1], [1, 1]], b=[1, 1], C=[[1, 0]])
        res = lex_solve(p)
        assert res.value == LexValue((1,))

    def test_warm_start_reproduces_value(self):
        p = LlpProblem(
            A=[[1, 1, 0], [0, 1, 1]], b=[1, 1], C=[[2, 1, 0], [0, 1, 3]]
        )
        first = lex_solve(p)
        again = lex_solve(p, warm_start=first.basis)
        assert again.value == first.value

    def test_singular_warm_start_falls_back_to_phase_one(self):
        # Columns 0 and 1 are equal, so the basis (0, 1) is singular.
        p = LlpProblem(A=[[1, 1, 0], [1, 1, 1]], b=[1, 1], C=[[1, 2, 0]])
        cold = lex_solve(p)
        warm = lex_solve(p, warm_start=Basis((0, 1)))
        assert cold.value == warm.value == LexValue((2,))

    def test_dimension_errors(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0], [0, 1]])
        res = lex_solve(p)
        with pytest.raises(ValueError):
            reduced_cost(res.duals, LexValue((1, 0)), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            reduced_cost(res.duals, LexValue((1,)), np.array([1.0]))


def simplex(A, b) -> _Simplex:
    """A simplex over the program Ax = b, with no cost rows."""
    A = np.asarray(A, dtype=float)
    problem = LlpProblem(A=A, b=b, C=np.zeros((0, A.shape[1])))
    return _Simplex(AugmentedProgram.of(problem), 1e-6)


class TestKernel:
    def test_lu_factor_rejects_singular_matrix(self):
        with pytest.raises(NumericalError):
            lu_factor(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_masked_argmax_matches_candidate_rule(self):
        # The entering column is one argmax over the reduced costs with
        # the basic columns masked to -inf; it must be the column the
        # rule "candidates above eps that are not basic, then the first
        # largest (Dantzig) or the first (Bland)" picks.  The values
        # come from a few levels, so exact ties are common.
        rng = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(3000):
            s = int(rng.integers(1, 40))
            z = rng.choice([-2.0, -eps, 0.0, eps, 2 * eps, 1.0, 3.0], size=s)
            basic = rng.random(s) < 0.3
            candidates = np.flatnonzero((z > eps) & ~basic)
            masked = np.where(basic, -np.inf, z)
            for bland in (False, True):
                if candidates.size == 0:
                    expected = -1
                elif bland:
                    expected = int(candidates[0])
                else:
                    expected = int(candidates[np.argmax(z[candidates])])
                assert _entering(masked, eps, bland) == expected

    def test_exact_ratio_tie_leaves_lowest_basis_index(self, monkeypatch):
        # The warm basis puts artificial 2 in row 0 and artificial 1 in
        # row 1, both pinned at zero.  Column 0 lowers both rows, so
        # both steps are exactly 0: the row-by-row tie rule runs and
        # the lower basic column, 1 in row 1, leaves.
        calls = []
        ties = _Simplex._ratio_ties
        monkeypatch.setattr(_Simplex, "_ratio_ties",
                            lambda sx, u, x: calls.append(1) or ties(sx, u, x))
        res = lp_solve(c=[1], A=[[-1], [-1]], b=[0, 0],
                       warm_start=Basis((2, 1)))
        assert res.status is LpStatus.OPTIMAL
        assert res.basis == Basis((2, 0))
        assert calls == [1]

    def test_ratio_test_matches_row_by_row_rule(self):
        # Steps drawn from a few values so that exact and near ties
        # (within the 1e-12 tolerance) are common.
        rng = np.random.default_rng(5)
        k = 6
        sx = simplex(np.eye(k), np.ones(k))
        sx.fixed[k:] = True
        for _ in range(2000):
            sx.basis = rng.permutation(2 * k)[:k]
            u = rng.choice([-1.0, -1e-7, 0.0, 1.0, 2.0, 3.0], size=k)
            x_B = rng.choice([0.0, 1.0, 2.0, -1e-9], size=k) \
                + rng.choice([0.0, 5e-13, 2e-12], size=k)
            assert sx._ratio_test(u, x_B.copy(), sx.fixed[sx.basis]) \
                == sx._ratio_ties(u, x_B)


def random_llp(rng: np.random.Generator) -> LlpProblem:
    k = int(rng.integers(1, 5))
    n = int(rng.integers(k, 9))
    m = int(rng.integers(1, 4))
    A = rng.integers(-3, 4, size=(k, n)).astype(float)
    x0 = rng.integers(0, 4, size=n).astype(float)
    return LlpProblem(A=A, b=A @ x0, C=rng.integers(-5, 6, size=(m, n)))


def record(monkeypatch, method: str, args: bool = False) -> list:
    """Patch a `_Simplex` method to append each call's result, or with
    `args` its arguments after the simplex, to the returned list."""
    calls = []
    real = getattr(_Simplex, method)

    def spy(sx, *a):
        res = real(sx, *a)
        calls.append(a if args else res)
        return res

    monkeypatch.setattr(_Simplex, method, spy)
    return calls


class TestWarmStartRepair:
    def test_random_warm_starts_match_cold(self, monkeypatch):
        # Random k-subsets of the columns and artificials as warm bases:
        # many are nonsingular but infeasible and not lex-dual-feasible,
        # so the dual repair gives up and phase 1 runs from scratch.  A
        # basis with an entry out of range is refused.
        repairs = record(monkeypatch, "dual_repair")
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(150):
            p = random_llp(rng)
            try:
                cold = lex_solve(p)
            except LlpUnboundedError:
                continue
            k, n = p.A.shape
            cand = rng.choice(n + k, size=k, replace=False)
            out_of_range = cand.copy()
            out_of_range[rng.integers(k)] = rng.choice([-1, n + k])
            sx = simplex(p.A, p.b)
            assert sx.try_warm_start(out_of_range) is None
            exact_val, _ = oracle_llp_exact(p)
            for warm in (cand, out_of_range):
                res = lex_solve(p, warm_start=Basis(tuple(warm.tolist())))
                assert exact_basis_value(p, res.basis) == exact_val
                assert res.value.entries == pytest.approx(
                    cold.value.entries, abs=1e-9)
            checked += 1
        assert checked >= 80 and repairs.count(False) >= 40

    def test_restricted_columns_equal_a_copied_sub_program(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = random_llp(rng)
            cols = np.flatnonzero(rng.random(p.num_cols) < 0.7)
            sub = LlpProblem(A=p.A[:, cols], b=p.b, C=p.C[:, cols])
            try:
                expected = lex_solve(sub)
            except (LlpUnboundedError, LlpInfeasibleError) as exc:
                with pytest.raises(type(exc)):
                    lex_solve(p, columns=cols)
                continue
            res = lex_solve(p, columns=cols)
            assert res.value == expected.value
            assert res.basis == expected.basis
            assert res.primal.tolist() == expected.primal.tolist()


class TestDualRepair:
    def test_fixed_basic_column_matches_cold(self, monkeypatch):
        # From an optimal basis, fix a basic column to 0 (pinned at its
        # value) or to 1 (pinned at its value minus 1), as a branch and
        # bound child does.  The child LP keeps the column last, pinned,
        # and starts from the parent's basis; it must reach the exact
        # optimum of the program without that column, and an infeasible
        # child must be reported by phase 1 after the repair gives up.
        repairs = record(monkeypatch, "dual_repair")
        rng = np.random.default_rng(17)
        solved = infeasible = 0
        for _ in range(300):
            p = random_llp(rng)
            try:
                parent = lex_solve(p)
            except LlpUnboundedError:
                continue
            n = p.num_cols
            basic = [j for j in parent.basis.indices
                     if j < n and parent.primal[j] > 1e-6]
            if not basic:
                continue
            j = basic[rng.integers(len(basic))]
            keep = [i for i in range(n) if i != j]
            cols = np.array(keep + [j])
            local = {c: i for i, c in enumerate(cols)}
            warm = Basis(tuple(local.get(i, i) for i in parent.basis.indices))
            for b in (p.b, p.b - p.A[:, j]):
                child = LlpProblem(A=p.A, b=b, C=p.C)
                sub = LlpProblem(A=p.A[:, keep], b=b, C=p.C[:, keep])
                exact_val, _ = oracle_llp_exact(sub)
                del repairs[:]
                if exact_val is None:
                    with pytest.raises(LlpInfeasibleError):
                        lex_solve(child, warm_start=warm, columns=cols,
                                  pinned=1)
                    assert repairs == [False]
                    infeasible += 1
                    continue
                res = lex_solve(child, warm_start=warm, columns=cols, pinned=1)
                assert repairs == [True]
                assert res.primal[-1] == 0.0
                on_cols = LlpProblem(A=p.A[:, cols], b=b, C=p.C[:, cols])
                assert exact_basis_value(on_cols, res.basis) == exact_val
                assert res.value.entries == pytest.approx(
                    lex_solve(sub).value.entries, abs=1e-9)
                solved += 1
        assert solved >= 200 and infeasible >= 100

    def test_most_violated_row_leaves_first(self, monkeypatch):
        # Basis (0, 1) = diag(-1, -1) gives x_B = (-1, -3) and reduced
        # costs (0, 0, -1, -1).  Row 1 is the most violated: column 3
        # (entry -1 in that row of B^-1 A) enters there, then column 2
        # at row 0, reaching the only feasible vertex x = (0, 0, 1, 3).
        pivots = record(monkeypatch, "_pivot", args=True)
        p = LlpProblem(A=[[-1, 0, 1, 0], [0, -1, 0, 1]], b=[1, 3],
                       C=[[-1, -1, 0, 0]])
        res = lex_solve(p, warm_start=Basis((0, 1)))
        assert [(r, j) for r, j, _ in pivots] == [(1, 3), (0, 2)]
        assert res.primal.tolist() == [0.0, 0.0, 1.0, 3.0]

    def test_lex_ratio_ties_go_to_the_next_level(self, monkeypatch):
        # x0 + x1 + x2 = 1 with costs (2, 1, 1) then (0, 0, 1): the
        # optimal basis is column 0.  Pinning it, columns 1 and 2 tie at
        # level 1 (ratio 1 each); level 2 gives ratios 0 and -1, so
        # column 2 enters and the level loop pivots no more.
        pivots = record(monkeypatch, "_pivot", args=True)
        p = LlpProblem(A=[[1, 1, 1]], b=[1], C=[[2, 1, 1], [0, 0, 1]])
        res = lex_solve(p, warm_start=Basis((2,)), columns=np.array([1, 2, 0]),
                        pinned=1)
        assert [(r, j) for r, j, _ in pivots] == [(0, 1)]
        assert res.value == LexValue((1, 1))
        assert res.primal.tolist() == [0.0, 1.0, 0.0]


class TestAgainstOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(11)
        solved = 0
        for _ in range(60):
            p = random_llp(rng)
            try:
                res = lex_solve(p)
            except LlpUnboundedError:
                continue
            solved += 1
            # Exact rational equality of the chosen vertex value; the
            # reported float value matches its exact image closely.
            exact_val, _ = oracle_llp_exact(p)
            assert exact_basis_value(p, res.basis) == exact_val
            float_val, _ = oracle_llp(p)
            assert res.value.entries == pytest.approx(
                float_val.entries, abs=1e-9
            )
            # Dual-feasibility certificate: no column prices lex-positive.
            for j in range(p.num_cols):
                rc = reduced_cost(res.duals, p.column_cost(j), p.A[:, j])
                assert not lex_is_positive(rc, 1e-6)
            # Nested supports, with the final basis inside the last one.
            for l in range(p.num_levels):
                assert res.supports[l + 1] <= res.supports[l]
            real = {j for j in res.basis.indices if j < p.num_cols}
            assert real <= res.supports[-1]
        assert solved >= 30

    def test_weighted_equivalence(self):
        # With weights M^(m-l) for large M, the single-objective optimum
        # over the vertices has the same lex value as lex_solve.
        rng = np.random.default_rng(23)
        M = 1e7
        checked = 0
        for _ in range(40):
            k = int(rng.integers(1, 3))
            n = int(rng.integers(k, 7))
            A = rng.integers(0, 4, size=(k, n)).astype(float)
            x0 = rng.integers(0, 4, size=n).astype(float)
            C = rng.integers(0, 11, size=(2, n))
            p = LlpProblem(A=A, b=A @ x0, C=C)
            try:
                res = lex_solve(p)
            except LlpUnboundedError:
                continue
            weighted = LlpProblem(A=p.A, b=p.b, C=[M * p.C[0] + p.C[1]])
            _, x_w = oracle_llp_exact(weighted)
            assert x_w is not None
            lex_of_weighted = tuple(
                sum(Fraction(float(p.C[l, j])) * x_w[j]
                    for j in range(p.num_cols))
                for l in range(2)
            )
            assert lex_of_weighted == exact_basis_value(p, res.basis)
            checked += 1
        assert checked >= 20
