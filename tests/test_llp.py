"""Linear lexicographic programming and the simplex backend."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from lexpbs import llp
from lexpbs.cli import main
from lexpbs.lexcore import DEFAULT_EPS, TIE_EPS, LexValue, lex_is_positive
from lexpbs.llp import (
    PCG64_INC,
    PCG64_STATE,
    AugmentedProgram,
    LlpInfeasibleError,
    LlpProblem,
    LlpUnboundedError,
    NumericalError,
    _entering,
    _Simplex,
    lex_solve,
    lu_factor,
    pcg64_draws,
    reduced_cost,
)
from lexpbs.oracle import exact_basis_value, oracle_llp, oracle_llp_exact

from conftest import FRACTIONAL_MONTHS


def lp(c, A, b) -> LlpProblem:
    """The one-level program max c.x s.t. Ax = b, x >= 0."""
    return LlpProblem(A=A, b=b, C=[c])


class TestLpBackend:
    """The simplex backend on one-level programs."""

    def test_one_constraint(self):
        res = lex_solve(lp(c=[1, 0], A=[[1, 1]], b=[1]))
        assert res.value.entries == pytest.approx((1.0,))
        assert res.primal == pytest.approx([1.0, 0.0])
        assert res.duals.shape == (1, 1)
        assert res.duals[0] == pytest.approx([1.0])
        # Reduced cost of x2 under the returned dual.
        assert 0.0 - res.duals[0] @ np.array([1.0]) == pytest.approx(-1.0)

    def test_zero_objective(self):
        res = lex_solve(lp(c=[0, 0], A=[[1, 0]], b=[1]))
        assert res.value.entries == pytest.approx((0.0,))

    def test_unbounded_ray(self):
        with pytest.raises(LlpUnboundedError):
            lex_solve(lp(c=[1, 0], A=[[1, -1]], b=[1]))

    def test_infeasible(self):
        with pytest.raises(LlpInfeasibleError):
            lex_solve(lp(c=[1], A=[[1]], b=[-1]))

    def test_dual_feasibility_of_result(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            A = rng.integers(-3, 4, size=(3, 6)).astype(float)
            x0 = rng.integers(0, 4, size=6).astype(float)
            b = A @ x0
            c = rng.integers(-5, 6, size=6).astype(float)
            try:
                res = lex_solve(lp(c, A, b))
            except (LlpUnboundedError, LlpInfeasibleError):
                continue
            slack = c - res.duals[0] @ A
            assert np.max(slack) <= 1e-6


class TestLexSolve:
    def test_level_one_decides(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0], [0, 1]])
        res = lex_solve(p)
        assert res.value == LexValue((1, 0))
        assert res.primal == pytest.approx([1.0, 0.0])
        # Only x1 ties the level-1 optimum: x2 prices -1 at level 1.
        assert (p.C[0] - res.duals[0] @ p.A).tolist() == [0.0, -1.0]

    def test_tie_then_refine(self):
        p = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]])
        res = lex_solve(p)
        assert res.value == LexValue((1, 1))
        # Both columns tie the level-1 optimum.
        assert (p.C[0] - res.duals[0] @ p.A).tolist() == [0.0, 0.0]

    def test_levels_with_no_eligible_column(self):
        # Every real column is pinned, so each level's pass prices no
        # column: the artificial basis is optimal, with duals 0.
        p = LlpProblem(A=[[1, 1]], b=[0], C=[[1, 2], [3, 4]])
        res = lex_solve(p, pinned=2)
        assert res.value == LexValue((0, 0))
        assert res.basis.tolist() == [-1]
        assert res.duals.tolist() == [[0.0], [0.0]]

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
        warm = lex_solve(p, warm_start=(0, 1))
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
    return _Simplex(AugmentedProgram.of(problem))


# Imports the CLI, records which of scipy.linalg and numpy.f2py that
# loaded, then imports scipy.linalg and compares llp's LAPACK routines
# with scipy.linalg.lapack's on a fixed matrix, bit for bit.
_LAPACK_PROBE = """
import json, sys
import numpy as np
import lexpbs.cli
from lexpbs import llp
loaded = [m for m in ("scipy.linalg", "numpy.f2py") if m in sys.modules]
from scipy.linalg import lapack
A = np.random.default_rng(3).standard_normal((6, 6))
b = np.arange(1.0, 7.0)
ours, theirs = llp.dgetrf(A), lapack.dgetrf(A)
same = [x.tobytes() == y.tobytes() for x, y in zip(ours[:2], theirs[:2])]
for trans in (0, 1):
    x = llp.dgetrs(*ours[:2], b, trans=trans)[0]
    y = lapack.dgetrs(*theirs[:2], b, trans=trans)[0]
    same.append(x.tobytes() == y.tobytes())
print(json.dumps({"loaded": loaded, "same": same}))
"""


class TestLapackRoutines:
    def test_loaded_without_scipy_linalg_and_bit_equal(self):
        # llp loads scipy's LAPACK extension without scipy.linalg's
        # package init; the routines must still be scipy.linalg.lapack's
        # once that is imported later in the same process.
        src = os.path.dirname(os.path.dirname(os.path.abspath(llp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", _LAPACK_PROBE],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["loaded"] == []
        assert out["same"] == [True] * 4


class TestPerturbationDraws:
    def test_constants_are_numpys_pcg64_state_for_the_seed(self):
        state = np.random.PCG64(0x5EED).state
        assert state["bit_generator"] == "PCG64"
        assert state["state"] == {"state": PCG64_STATE, "inc": PCG64_INC}

    def test_draws_are_default_rngs_bit_for_bit(self):
        for k in list(range(301)) + [2000]:
            ours = pcg64_draws(k)
            theirs = np.random.default_rng(0x5EED).random(k)
            assert ours.dtype == theirs.dtype and ours.shape == (k,)
            assert ours.tobytes() == theirs.tobytes(), k

    def test_perturbed_rhs_keeps_its_bits(self):
        # The perturbation as it was computed with numpy.random; rows
        # of either sign, since the right-hand side is flipped first.
        rng = np.random.default_rng(11)
        for k in (1, 7, 60):
            b = rng.integers(-5, 6, size=k) * rng.random(k)
            prog = AugmentedProgram(b, 2)
            flipped = b * np.where(b < 0, -1.0, 1.0)
            expected = flipped + 1e-7 * (
                1.0 + np.random.default_rng(0x5EED).random(k))
            assert prog.b_pert.tobytes() == expected.tobytes()


# Generates and solves a month through the CLI, in a fresh interpreter
# and in the directory it is given, then reports which of numpy.random
# and numpy.ma that loaded, and the lower solve's node count (so that
# the month is known to branch).
_IMPORT_PROBE = """
import json, os, sys
from lexpbs.cli import main
work, seed, pilots, pairings = sys.argv[1:5]
inst, out, stats = (os.path.join(work, f) for f in ("i.json", "o.json",
                                                     "s.json"))
main(["generate", "--seed", seed, "-m", pilots, "-n", pairings,
      "-o", inst])
code = main(["solve", inst, "-o", out, "--stats-out", stats])
with open(stats) as fh:
    nodes = json.load(fh)["illp_nodes_lower"]
loaded = [m for m in ("numpy.random", "numpy.ma") if m in sys.modules]
print(json.dumps({"code": code, "nodes": nodes, "loaded": loaded}))
"""


class TestSolveImports:
    def test_branching_solve_loads_neither_numpy_random_nor_ma(
            self, tmp_path):
        # A solve draws the ratio test's perturbation without
        # numpy.random, and nothing in a solve calls np.isin (whose
        # np.unique imports numpy.ma).  This month branches, so its
        # node LPs, with their pinned columns, run too.
        spec = FRACTIONAL_MONTHS[5]
        src = os.path.dirname(os.path.dirname(os.path.abspath(llp.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path),
             *map(str, spec)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["code"] == 0 and out["nodes"] > 1
        assert out["loaded"] == []


class TestFinalPass:
    def test_basic_columns_price_zero_and_stay_in_the_support(
            self, monkeypatch, tmp_path, capsys):
        # After each level, every eligible basic column's reduced cost in
        # the final pass is exactly 0, so the next level's support keeps
        # it.  Checked on every level of a branching month's solve: its
        # master LPs and its node LPs, which pin columns.
        runs = []
        real = _Simplex.run

        def spy(sx, c, elig, A_el):
            last = real(sx, c, elig, A_el)
            runs.append((sx, c, elig.copy(), sx.basis.copy(), last))
            return last

        monkeypatch.setattr(_Simplex, "run", spy)
        seed, pilots, pairings = (str(v) for v in FRACTIONAL_MONTHS[5])
        inst = str(tmp_path / "inst.json")
        assert main(["generate", "--seed", seed, "-m", pilots,
                     "-n", pairings, "-o", inst]) == 0
        assert main(["solve", inst, "-o", str(tmp_path / "sol.json")]) == 0
        # Phase 1's pass prices the artificials; the levels' do not.
        levels = [r for r in runs if not r[1][r[0].n_real:].any()]
        pinned = [r for r in levels if r[0].fixed[: r[0].n_real].any()]
        assert pinned and len(pinned) < len(levels)
        checked = 0
        for (sx, _, elig, basis, last), after in zip(levels, levels[1:]
                                                     + [None]):
            basic = np.flatnonzero(np.isin(elig, basis))
            assert last.z[basic].tolist() == [0.0] * basic.size
            if after is not None and after[0] is sx:
                assert np.isin(elig[basic], after[2]).all()
                checked += basic.size
        assert checked > 0


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
        eps = DEFAULT_EPS
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
                assert _entering(masked, bland) == expected

    def test_exact_ratio_tie_leaves_lowest_basis_index(self):
        # The warm basis puts the artificial of row 1 (-2) in row 0 and
        # that of row 0 (-1) in row 1, both pinned at zero.  Column 0
        # lowers both rows, so both steps are exactly 0: they tie, and
        # the lower basic column in the simplex's numbering (row 0's
        # artificial, 1 after the one real column), in row 1, leaves.
        res = lex_solve(lp(c=[1], A=[[-1], [-1]], b=[0, 0]),
                        warm_start=(-2, -1))
        assert res.basis.tolist() == [-2, 0]

    def test_ratio_test_matches_row_by_row_rule(self):
        # On 3 of these draws (474, 1441 and 1720) the rule departs from
        # an older row-by-row scan, in which a step had to be shorter
        # than the best so far by more than TIE_EPS to win.  There,
        # steps less than TIE_EPS apart form a chain that spans more
        # than TIE_EPS, and the scan's pick depended on the row order.
        for sx, u, x_B in ratio_draws():
            assert sx._ratio_test(u, x_B.copy(), sx.fixed[sx.basis]) \
                == ratio_rule(sx.basis, sx.fixed, u, x_B)

    def test_ratio_test_ignores_row_order(self):
        # Permuting the rows (u, x_B and the basis together), reversed
        # and at random, leaves the leaving basic column and the step
        # as they are.
        rng = np.random.default_rng(6)
        for sx, u, x_B in ratio_draws():
            basis = sx.basis
            r, t = sx._ratio_test(u, x_B.copy(), sx.fixed[basis])
            for perm in (np.arange(u.size)[::-1], rng.permutation(u.size)):
                sx.basis = basis[perm]
                r_p, t_p = sx._ratio_test(u[perm], x_B[perm].copy(),
                                          sx.fixed[sx.basis])
                assert t_p == t
                assert r < 0 or sx.basis[r_p] == basis[r]

    def test_reduced_costs_do_not_depend_on_the_columns_asked_for(self):
        # Random float programs, warm-started from k random real columns
        # so the duals are generic floats.  A few columns' reduced costs
        # match, bit for bit, the same columns read from all of them.  A
        # product over the few columns alone (y @ A[:, cols]) may sum in
        # another order and differ from the full one in the last bits.
        rng = np.random.default_rng(23)
        for _ in range(200):
            k, n = int(rng.integers(10, 81)), int(rng.integers(200, 3001))
            A = rng.standard_normal((k, n))
            p = LlpProblem(A=A, b=A @ rng.random(n),
                           C=rng.standard_normal((1, n)))
            program = AugmentedProgram.of(p)
            sx = _Simplex(program)
            assert sx.try_warm_start(rng.choice(n, k, replace=False)) \
                is not None
            c = program.C[0]
            cols = np.sort(rng.choice(n, int(rng.integers(1, n // 16)),
                                      replace=False))
            every = sx._reduced_costs(c, np.arange(n))
            assert sx._reduced_costs(c, cols).tobytes() \
                == every[cols].tobytes()


def ratio_draws():
    """2,000 ratio tests on a 6-row simplex: the basis (pinned columns
    among it) is set on the simplex, u and x_B are yielded with it.
    Steps come from a few values, so that exact and near ties (within
    TIE_EPS) are common."""
    rng = np.random.default_rng(5)
    k = 6
    sx = simplex(np.eye(k), np.ones(k))
    sx.fixed[k:] = True
    for _ in range(2000):
        sx.basis = rng.permutation(2 * k)[:k]
        u = rng.choice([-1.0, -1e-7, 0.0, 1.0, 2.0, 3.0], size=k)
        x_B = rng.choice([0.0, 1.0, 2.0, -1e-9], size=k) \
            + rng.choice([0.0, 5e-13, 2e-12], size=k)
        yield sx, u, x_B


def ratio_rule(basis, fixed, u, x_B) -> tuple[int, float]:
    """The ratio test row by row: each row's step, the shortest of them,
    then among the rows whose step is within TIE_EPS of it the one of
    lowest basic column, with its own step; (-1, inf) when no row bounds
    the step."""
    steps = {}
    for r in range(u.size):
        if u[r] > DEFAULT_EPS:
            steps[r] = max(x_B[r], 0.0) / u[r]
        elif u[r] < -DEFAULT_EPS and fixed[basis[r]]:
            steps[r] = 0.0
    if not steps:
        return -1, np.inf
    t_min = min(steps.values())
    r = min((r for r, t in steps.items() if t <= t_min + TIE_EPS),
            key=lambda r: basis[r])
    return r, steps[r]


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
    def test_entries_outside_the_range_are_refused(self, monkeypatch):
        # With k = 2 rows and n = 3 columns, entries lie in [-2, 3).  A
        # basis with one outside is refused, and the solve runs phase 1
        # from scratch; entries at the edges, -k and n - 1, are adopted.
        starts = record(monkeypatch, "try_warm_start")
        p = LlpProblem(A=[[1, 1, 0], [0, 1, 1]], b=[1, 1],
                       C=[[1, 3, 1], [1, 0, 0]])
        cold = lex_solve(p)
        for warm, adopted in (((-3, 1), False), ((1, 3), False),
                              ((-2, 0), True), ((-1, 2), True)):
            del starts[:]
            res = lex_solve(p, warm_start=warm)
            assert (starts[0] is not None) is adopted
            assert res.value == cold.value

    def test_basis_warm_starts_the_grown_program(self, monkeypatch):
        # A basis returned before columns are appended to a kept program
        # warm-starts the grown program as it is: it is adopted with one
        # factorization before the first pivot, and the solve reaches
        # the optimum of the whole program.
        events = []
        monkeypatch.setattr(
            llp, "lu_factor", lambda B: events.append("lu") or lu_factor(B))
        real_pivot = _Simplex._pivot
        monkeypatch.setattr(
            _Simplex, "_pivot",
            lambda sx, *a: events.append("pivot") or real_pivot(sx, *a))
        rng = np.random.default_rng(3)
        checked = with_artificial = 0
        for _ in range(400):
            p = random_llp(rng)
            n = p.num_cols
            if n < 2:
                continue
            n0 = int(rng.integers(1, n))
            program = AugmentedProgram.of(
                LlpProblem(A=p.A[:, :n0], b=p.b, C=p.C[:, :n0]))
            try:
                first = lex_solve(program.problem())
            except (LlpInfeasibleError, LlpUnboundedError):
                continue
            a_rows, a_cols = np.nonzero(p.A[:, n0:])
            c_rows, c_cols = np.nonzero(p.C[:, n0:])
            program.append(n - n0, a_rows, a_cols, p.A[a_rows, n0 + a_cols],
                           c_rows, c_cols, p.C[c_rows, n0 + c_cols])
            del events[:]
            try:
                res = lex_solve(program.problem(), warm_start=first.basis)
            except LlpUnboundedError:
                continue
            end = events.index("pivot") if "pivot" in events else len(events)
            assert events[:end] == ["lu"]
            exact_val, _ = oracle_llp_exact(p)
            assert exact_basis_value(p, res.basis) == exact_val
            checked += 1
            with_artificial += bool(np.any(first.basis < 0))
        assert checked >= 80 and with_artificial >= 12

    def test_random_warm_starts_match_cold(self, monkeypatch):
        # Random k-subsets of the columns and artificials as warm bases:
        # many are nonsingular but infeasible and not lex-dual-feasible,
        # so the dual repair gives up and phase 1 runs from scratch.  A
        # basis with an entry outside [-k, n) is refused.
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
            # Columns n .. n+k-1 stand for the artificials -1 .. -k.
            cand = rng.choice(n + k, size=k, replace=False)
            cand = np.where(cand < n, cand, n - 1 - cand)
            out_of_range = cand.copy()
            out_of_range[rng.integers(k)] = rng.choice([-k - 1, n])
            sx = simplex(p.A, p.b)
            assert sx.try_warm_start(out_of_range) is None
            exact_val, _ = oracle_llp_exact(p)
            for warm in (cand, out_of_range):
                res = lex_solve(p, warm_start=warm)
                assert exact_basis_value(p, res.basis) == exact_val
                assert res.value.entries == pytest.approx(
                    cold.value.entries, abs=1e-9)
            checked += 1
        assert checked >= 80 and repairs.count(False) >= 40

    def test_restricted_columns_equal_a_copied_sub_program(self):
        # The unrestricted form is the restriction to every column, bit
        # for bit, also where a negative b entry flips a row.
        rng = np.random.default_rng(13)
        flipped = 0
        for _ in range(30):
            p = random_llp(rng)
            whole = AugmentedProgram.of(p)
            every = AugmentedProgram.of(p, np.arange(p.num_cols))
            assert whole.A.tobytes() == every.A.tobytes()
            assert whole.C.tobytes() == every.C.tobytes()
            flipped += bool(np.any(p.b < 0))
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
            assert res.basis.tolist() == expected.basis.tolist()
            assert res.primal.tolist() == expected.primal.tolist()
        assert flipped >= 10


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
            basic = [j for j in parent.basis.tolist()
                     if j >= 0 and parent.primal[j] > 1e-6]
            if not basic:
                continue
            j = basic[rng.integers(len(basic))]
            keep = [i for i in range(n) if i != j]
            cols = np.array(keep + [j])
            local = {c: i for i, c in enumerate(cols)}
            warm = [local.get(i, i) for i in parent.basis.tolist()]
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
        res = lex_solve(p, warm_start=(0, 1))
        assert [(r, j) for r, j, _ in pivots] == [(1, 3), (0, 2)]
        assert res.primal.tolist() == [0.0, 0.0, 1.0, 3.0]

    def test_lex_ratio_ties_go_to_the_next_level(self, monkeypatch):
        # x0 + x1 + x2 = 1 with costs (2, 1, 1) then (0, 0, 1): the
        # optimal basis is column 0.  Pinning it, columns 1 and 2 tie at
        # level 1 (ratio 1 each); level 2 gives ratios 0 and -1, so
        # column 2 enters and the level loop pivots no more.
        pivots = record(monkeypatch, "_pivot", args=True)
        p = LlpProblem(A=[[1, 1, 1]], b=[1], C=[[2, 1, 1], [0, 0, 1]])
        res = lex_solve(p, warm_start=(2,), columns=np.array([1, 2, 0]),
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
