"""Linear lexicographic programming.

Solves  lexmax Cx  s.t.  Ax = b, x >= 0  by a sequence of ordinary LPs:
level l maximizes cost row l over the columns that were optimal at all
previous levels, reusing the previous basis as a warm start.  The final
basis is primal-dual feasible for the whole lexicographic program, and
the per-level dual row vectors reconstruct lexicographic reduced costs.

The backend is an embedded revised simplex with a dense LU-factorized
basis and Bland's anti-cycling rule.  Artificial variables added for
phase 1 are kept in the problem afterwards, pinned to zero, so that a
full basis always exists even when the genuine columns are rank
deficient (the usual situation for a freshly initialized restricted
master).

A solve can start from a warm basis.  One with an entry out of range,
or a singular one, is refused, and the solve runs phase 1 from scratch.
Some trailing columns can be pinned to zero like the artificials: a
branch-and-bound child keeps the columns it fixes that its parent's
basis holds, so that basis carries over whole.  An infeasible warm
basis (a negative value, or a pinned column above zero) that is
lex-dual-feasible is made feasible by a lexicographic dual simplex; if
that fails (no column can enter, or too many pivots), or the basis is
not lex-dual-feasible, phase 1 runs from scratch, and only phase 1
declares a program infeasible.  A solve can also be restricted to a
subset of the columns, copied straight into the simplex's augmented
matrix.

Each basis is factored once, after the pivot that made it, with
LAPACK's dgetrf, and solves use dgetrs, both called directly
(`lu_factor`).  Each primal pivot prices only the columns that may
enter: those of the level's support set that are not pinned to zero,
gathered once per level into one contiguous block.  The basis is
deliberately not updated by LU or inverse updates: they round
differently, so near-ties in pricing and in the ratio test would
resolve differently and the solver would take another pivot path to
another optimal basis, and with it other duals, other columns and
other solution files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .lexcore import DEFAULT_EPS, LexValue


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LlpError(Exception):
    """Base class for solver errors."""


class LlpInfeasibleError(LlpError):
    pass


class LlpUnboundedError(LlpError):
    pass


class NumericalError(LlpError):
    pass


@dataclass
class LlpProblem:
    """Standard-form lex program: lexmax Cx s.t. Ax = b, x >= 0.

    A is k x n, b has length k, C is m x n (row l is the level-l cost
    vector, level 1 being the most important).
    """

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        k, n = self.A.shape
        if self.b.shape != (k,):
            raise ValueError("b must have length k")
        if self.C.shape[1] != n:
            raise ValueError("C must have n columns")

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]

    @property
    def num_levels(self) -> int:
        return self.C.shape[0]

    def column_cost(self, j: int) -> LexValue:
        return LexValue(self.C[:, j])


@dataclass(frozen=True)
class Basis:
    """Ordered set of basic column indices (one per row of A)."""

    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class DualBundle:
    """Per-level dual row vectors; row l reconstructs level-l reduced
    costs as C[l, j] - rows[l] . a_j."""

    rows: tuple[tuple[float, ...], ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)


@dataclass
class LpBackendResult:
    status: LpStatus
    basis: Basis | None = None
    objective: float | None = None
    duals: np.ndarray | None = None
    x: np.ndarray | None = None


@dataclass
class LexSolveResult:
    value: LexValue
    basis: Basis
    duals: DualBundle
    primal: np.ndarray
    support_masks: list[np.ndarray] = field(default_factory=list)

    @property
    def supports(self) -> list[set[int]]:
        """The nested support sets S_1, ..., S_{m+1} as column index
        sets: S_1 is every column, S_{l+1} the columns of S_l that tie
        the level-l optimum."""
        return [set(np.flatnonzero(mask).tolist())
                for mask in self.support_masks]


_MAX_PIVOTS = 100_000
_BLAND_THRESHOLD = 200  # degenerate pivots before anti-cycling kicks in
_RATIO_TIE = 1e-12  # ratio-test steps this close count as tied
_DUAL_PIVOTS_PER_ROW = 4  # a dual repair gives up after 4k pivots


def lu_factor(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors (lu, piv) of the square matrix B by LAPACK dgetrf.

    Raises NumericalError if B is exactly singular.  The factors are
    those of scipy.linalg.lu_factor, without its input checks."""
    lu, piv, info = dgetrf(B)
    if info != 0:
        raise NumericalError(f"singular basis matrix (dgetrf info {info})")
    return lu, piv


class _Simplex:
    """Revised simplex over an augmented column set.

    Columns past `n_real` are artificials; the last `pinned` real
    columns are pinned from the start.  A column with `fixed` set is
    pinned to zero: it may sit in the basis at value zero but can never
    enter, and any pivot that would increase one instead kicks it out
    through a zero-length (degenerate) step.  The artificials are
    pinned once a feasible basis is reached.

    Each basis is factored once (`lu_factor`), when first needed after
    a pivot, and each pivot prices only the eligible columns (allowed,
    not fixed), which `run` gathers once into one contiguous block.
    Refactoring keeps each pivot's arithmetic independent of the path
    that led to the basis; see the module docstring for why no LU
    updates are used.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, eps: float,
                 columns: np.ndarray | None = None, pinned: int = 0):
        self.k = A.shape[0]
        self.columns = None if columns is None \
            else np.asarray(columns, dtype=np.intp)
        self.n_real = A.shape[1] if columns is None else len(columns)
        self.n_total = self.n_real + self.k
        # Flip rows so b >= 0; the artificial identity block then gives
        # a feasible starting basis for phase 1.
        signs = np.where(b < 0, -1.0, 1.0)
        self.A = np.zeros((self.k, self.n_total))
        if columns is None:
            np.multiply(A, signs[:, None], out=self.A[:, : self.n_real])
        else:
            # Row by row, so the selected columns are never held twice.
            for r in range(self.k):
                row = self.A[r, : self.n_real]
                np.take(A[r], self.columns, out=row)
                if signs[r] < 0:
                    np.negative(row, out=row)
        rows = np.arange(self.k)
        self.A[rows, self.n_real + rows] = 1.0
        self.b = b * signs
        self.row_signs = signs
        self.eps = eps
        self.basis = np.arange(self.n_real, self.n_total)  # column per row
        self._lu = None  # LU factors of `basis`, once computed
        self.fixed = np.zeros(self.n_total, dtype=bool)
        self.fixed[self.n_real - pinned: self.n_real] = True
        self.allowed = np.ones(self.n_total, dtype=bool)
        # Anti-degeneracy: the ratio test runs against a slightly
        # perturbed right-hand side so ties are rare and the objective
        # makes strict progress.  Duals depend only on the basis and
        # the reported primal solution is computed from the true b.
        rng = np.random.default_rng(0x5EED)
        self.b_pert = self.b + 1e-7 * (1.0 + rng.random(self.k))

    def set_allowed(self, real_mask) -> None:
        """Restrict the columns eligible to enter the basis to those
        where the boolean mask over the real columns is set."""
        self.allowed[: self.n_real] = real_mask
        self.allowed[self.n_real:] = ~self.fixed[self.n_real:]

    def costs(self, C: np.ndarray) -> np.ndarray:
        """The cost rows `C` over the augmented columns: restricted to
        `columns` as the matrix is, zero over the artificials."""
        out = np.zeros((C.shape[0], self.n_total))
        if self.columns is None:
            out[:, : self.n_real] = C
        else:
            for l, row in enumerate(C):  # row by row, as A
                np.take(row, self.columns, out=out[l, : self.n_real])
        return out

    def _factor(self):
        if self._lu is None:
            self._lu = lu_factor(self.A[:, self.basis])
        return self._lu

    def _pivot(self, row: int, j: int) -> None:
        self.basis[row] = j
        self._lu = None

    def basic_solution(self) -> np.ndarray:
        lu, piv = self._factor()
        return dgetrs(lu, piv, self.b)[0]

    def primal(self) -> np.ndarray:
        """The basic solution's values of the real columns; pinned
        columns read zero."""
        x_B = self.basic_solution()
        x = np.zeros(self.n_real)
        real = ~self.fixed[self.basis] & (self.basis < self.n_real)
        x[self.basis[real]] = x_B[real]
        return x

    def run(self, c: np.ndarray) -> LpStatus:
        """Maximize c.x from the current (feasible) basis.  Returns
        OPTIMAL or UNBOUNDED; the basis is updated in place.

        Entering rule: Dantzig (largest reduced cost, lowest index on
        ties) normally, Bland (lowest index) during degenerate streaks
        so cycling cannot persist."""
        elig = np.flatnonzero(self.allowed & ~self.fixed)
        if elig.size == 0:
            return LpStatus.OPTIMAL
        if elig[-1] == elig.size - 1:
            A_el = self.A[:, : elig.size]  # a leading block: no copy
        else:
            A_el = np.take(self.A, elig, axis=1)
        c_el = c[elig]
        pos = np.full(self.n_total, -1)  # column -> index in elig
        pos[elig] = np.arange(elig.size)
        free = np.ones(elig.size, dtype=bool)  # eligible and nonbasic
        basic = pos[self.basis]
        free[basic[basic >= 0]] = False
        degen_streak = 0
        for _ in range(_MAX_PIVOTS):
            lu, piv = self._factor()
            x_B = dgetrs(lu, piv, self.b_pert)[0]
            y = dgetrs(lu, piv, c[self.basis], trans=1)[0]
            z = c_el - y @ A_el
            candidates = np.flatnonzero((z > self.eps) & free)
            if candidates.size == 0:
                return LpStatus.OPTIMAL
            if degen_streak < _BLAND_THRESHOLD:
                p = int(candidates[np.argmax(z[candidates])])
            else:
                p = int(candidates[0])
            j = int(elig[p])
            u = dgetrs(lu, piv, self.A[:, j])[0]
            leave_pos, t_best = self._ratio_test(u, x_B)
            if leave_pos < 0:
                return LpStatus.UNBOUNDED
            q = pos[self.basis[leave_pos]]
            if q >= 0:
                free[q] = True
            free[p] = False
            self._pivot(leave_pos, j)
            degen_streak = 0 if t_best > _RATIO_TIE else degen_streak + 1
        raise NumericalError("pivot limit exceeded")

    def _ratio_test(self, u: np.ndarray, x_B: np.ndarray) -> tuple[int, float]:
        """(leaving basis position, step length), or (-1, inf) when the
        direction u is unbounded.  Fixed basic variables are pinned at
        zero: a direction that would raise one forces a zero-length
        step.

        The steps are computed as one array.  A unique minimum, with
        every other step above it by more than twice the tie
        tolerance, is the row `_ratio_ties` would pick; anything
        closer goes to `_ratio_ties`, whose order-dependent tie rule
        decides."""
        t = np.full(self.k, np.inf)
        np.divide(np.maximum(x_B, 0.0), u, out=t, where=u > self.eps)
        t[(u < -self.eps) & self.fixed[self.basis]] = 0.0
        r = int(t.argmin())
        t_min = float(t[r])
        if t_min == np.inf:
            return -1, t_min
        if np.count_nonzero(t <= t_min + 2 * _RATIO_TIE) == 1:
            return r, t_min
        return self._ratio_ties(u, x_B)

    def _ratio_ties(self, u: np.ndarray, x_B: np.ndarray) -> tuple[int, float]:
        """The ratio test row by row: a step shorter by more than the
        tie tolerance wins; among tied steps the lowest basic column
        index leaves."""
        t_best = np.inf
        leave_pos = -1
        for r in range(self.k):
            ur = u[r]
            if ur > self.eps:
                t = max(x_B[r], 0.0) / ur
            elif ur < -self.eps and self.fixed[self.basis[r]]:
                t = 0.0
            else:
                continue
            if t < t_best - _RATIO_TIE or (
                abs(t - t_best) <= _RATIO_TIE
                and (leave_pos < 0 or self.basis[r] < self.basis[leave_pos])
            ):
                t_best = t
                leave_pos = r
        return leave_pos, t_best

    def duals_for(self, c: np.ndarray) -> np.ndarray:
        lu, piv = self._factor()
        y = dgetrs(lu, piv, c[self.basis], trans=1)[0]
        # Undo the row sign flips so duals refer to the original rows.
        return y * self.row_signs

    def start(self, warm_start: Basis | None, C: np.ndarray) -> bool:
        """Reach a feasible basis, from `warm_start` when `try_warm_start`
        adopts it and `dual_repair` makes it feasible under the cost rows
        `C` (see `costs`), else by phase 1 from the artificial identity
        basis.  Returns False if Ax = b, x >= 0 has no solution."""
        if warm_start is not None:
            self.fixed[self.n_real:] = True
            x_B = self.try_warm_start(warm_start.indices)
            if x_B is not None and self.dual_repair(x_B, C):
                return True
            self.fixed[self.n_real:] = False
            self.basis = np.arange(self.n_real, self.n_total)
            self._lu = None
        return self.phase1()

    def _artificial_level(self, x_B: np.ndarray) -> float:
        return sum(x_B[self.basis >= self.n_real].tolist())

    def _phase1_tol(self) -> float:
        return self.eps * max(1.0, float(np.abs(self.b).sum()))

    def phase1(self) -> bool:
        """Drive the artificials to zero from the current basis.
        Returns False if infeasible."""
        c = np.zeros(self.n_total)
        c[self.n_real:] = -1.0
        self.allowed[:] = True
        status = self.run(c)
        if status is not LpStatus.OPTIMAL:
            raise NumericalError("phase 1 terminated abnormally")
        if self._artificial_level(self.basic_solution()) > self._phase1_tol():
            return False
        self.fixed[self.n_real:] = True
        return True

    def try_warm_start(self, basis_indices) -> np.ndarray | None:
        """Adopt `basis_indices` as the current basis if it names one
        column per row, each in range, and is nonsingular; returns its
        basic values, or None (the basis unchanged) if it is refused."""
        cand = np.array(basis_indices, dtype=np.intp)
        if cand.shape != (self.k,) or np.any(
                (cand < 0) | (cand >= self.n_total)):
            return None
        try:
            lu = lu_factor(self.A[:, cand])
        except NumericalError:
            return None
        self.basis, self._lu = cand, lu
        return dgetrs(*lu, self.b)[0]

    def _feasible(self, x_B: np.ndarray) -> bool:
        """Whether no basic value is below -eps and the pinned ones
        (artificials included) sum to at most the phase-1 tolerance."""
        return bool(np.min(x_B, initial=0.0) >= -self.eps) and sum(
            x_B[self.fixed[self.basis]].tolist()) <= self._phase1_tol()

    def dual_repair(self, x_B: np.ndarray, C: np.ndarray) -> bool:
        """Make the current basis primal feasible by lexicographic dual
        simplex pivots, keeping every unpinned column's lex reduced cost
        <= 0 under the cost rows `C`.  Returns False, leaving the basis
        to be discarded, if the basis is not lex-dual-feasible at the
        start, no column can enter a violated row (the program may be
        infeasible: phase 1 decides) or the pivot limit is reached.

        The leaving row is the most violated one: a negative value, or
        a pinned column's value above zero.  The entering column is,
        among the unpinned nonbasic columns whose entry in that row of
        B^-1 A has the sign that moves the row towards zero, the one of
        lex-smallest ratio vector (-d_l / |alpha|)_l, d_l its level-l
        reduced cost; a reduced cost within the support tolerance of
        `lex_solve` counts as zero, and the lowest index wins a tie
        through the last level."""
        if self._feasible(x_B):
            return True
        if not self._lex_dual_feasible(C):
            return False
        real = self.A[:, : self.n_real]
        for _ in range(_DUAL_PIVOTS_PER_ROW * self.k):
            viol = np.where(self.fixed[self.basis], np.abs(x_B), -x_B)
            r = int(viol.argmax())
            lu, piv = self._factor()
            e_r = np.zeros(self.k)
            e_r[r] = 1.0 if x_B[r] > 0 else -1.0  # sign: towards zero
            alpha = dgetrs(lu, piv, e_r, trans=1)[0] @ real
            enter = (alpha > self.eps) & ~self.fixed[: self.n_real]
            enter[self.basis[self.basis < self.n_real]] = False
            cols = np.flatnonzero(enter)
            if cols.size == 0:
                return False
            alpha = alpha[cols]
            for l in range(C.shape[0]):
                d = self._reduced_costs(C[l], cols)
                ratio = -d / alpha
                keep = ratio <= ratio.min() + _RATIO_TIE
                cols, alpha = cols[keep], alpha[keep]
                if cols.size == 1:
                    break
            self._pivot(r, int(cols[0]))
            x_B = self.basic_solution()
            if self._feasible(x_B):
                return True
        return False

    def _reduced_costs(self, c: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Reduced costs c_j - y a_j of the real columns `cols` under the
        current basis, those within the support tolerance set to 0."""
        lu, piv = self._factor()
        y = dgetrs(lu, piv, c[self.basis], trans=1)[0]
        if cols.size * 16 <= self.n_real:  # a small gather beats a full pass
            d = c[cols] - y @ self.A[:, cols]
        else:
            d = c[cols] - (y @ self.A[:, : self.n_real])[cols]
        d[np.abs(d) <= self.eps * np.maximum(1.0, np.abs(c[cols]))] = 0.0
        return d

    def _lex_dual_feasible(self, C: np.ndarray) -> bool:
        """Whether every unpinned nonbasic real column has a reduced
        cost vector lex <= 0 (within the support tolerance)."""
        nonbasic = ~self.fixed[: self.n_real]
        nonbasic[self.basis[self.basis < self.n_real]] = False
        cols = np.flatnonzero(nonbasic)
        for l in range(C.shape[0]):
            if cols.size == 0:
                break
            d = self._reduced_costs(C[l], cols)
            if np.any(d > 0.0):
                return False
            cols = cols[d == 0.0]
        return True


def lp_solve(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    warm_start: Basis | None = None,
    eps: float = DEFAULT_EPS,
) -> LpBackendResult:
    """Solve max c.x s.t. Ax = b, x >= 0 with the embedded simplex.

    On OPTIMAL the returned basis is primal-dual feasible and `duals`
    satisfies duals . a_j >= c_j - eps for every column.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    sx = _Simplex(A, b, eps)
    C = sx.costs(c[None])
    if not sx.start(warm_start, C):
        return LpBackendResult(status=LpStatus.INFEASIBLE)
    sx.set_allowed(True)
    status = sx.run(C[0])
    if status is LpStatus.UNBOUNDED:
        return LpBackendResult(status=LpStatus.UNBOUNDED)
    x = sx.primal()
    return LpBackendResult(
        status=LpStatus.OPTIMAL,
        basis=Basis(tuple(sx.basis.tolist())),
        objective=float(c @ x),
        duals=sx.duals_for(C[0]),
        x=x,
    )


def lex_solve(
    problem: LlpProblem,
    warm_start: Basis | None = None,
    eps: float = DEFAULT_EPS,
    columns: np.ndarray | None = None,
    pinned: int = 0,
) -> LexSolveResult:
    """Solve the lexicographic program by the sequential level method.

    Level l maximizes cost row l over the support set S_l (initially all
    columns); S_{l+1} keeps the columns whose level-l reduced cost is
    zero within a relative epsilon.  The duals of each level are
    retained: together they reconstruct lexicographic reduced costs.

    `columns`, when given, restricts the program to those columns of A
    and C, in that order; the basis, primal and supports then number
    them by position.  The simplex copies them straight from A, so a
    caller solving a sub-program makes no copy of its own.  The last
    `pinned` columns are held at zero: they may be basic at zero, as in
    `warm_start`, but never enter, and the primal reads them as zero.
    A warm start that is infeasible is repaired by lexicographic dual
    simplex pivots (see `_Simplex.dual_repair`).

    Raises LlpInfeasibleError / LlpUnboundedError.
    """
    m = problem.num_levels
    sx = _Simplex(problem.A, problem.b, eps, columns, pinned)
    C = sx.costs(problem.C)
    if not sx.start(warm_start, C):
        raise LlpInfeasibleError("Ax = b, x >= 0 has no solution")

    A_signed = sx.A[:, : sx.n_real]  # rows flipped as the simplex's
    support = np.ones(sx.n_real, dtype=bool)
    support_masks = [support.copy()]
    dual_rows: list[tuple[float, ...]] = []
    for l in range(m):
        c_aug = C[l]
        sx.set_allowed(support)
        status = sx.run(c_aug)
        if status is LpStatus.UNBOUNDED:
            raise LlpUnboundedError(f"level {l + 1} is unbounded")
        y = sx.duals_for(c_aug)
        dual_rows.append(tuple(y))
        # Shrink the support to the columns tying the level-l optimum.
        c_l = c_aug[: sx.n_real]
        slack = c_l - (y * sx.row_signs) @ A_signed
        tol = eps * np.maximum(1.0, np.abs(c_l))
        support &= np.abs(slack) <= tol
        # The basis always ties (reduced cost zero); keep it explicitly
        # so numerical noise cannot break the nesting B_l <= S_{l+1}.
        support[sx.basis[sx.basis < sx.n_real]] = True
        support_masks.append(support.copy())

    x = sx.primal()
    return LexSolveResult(
        value=LexValue(C[:, : sx.n_real] @ x),
        basis=Basis(tuple(sx.basis.tolist())),
        duals=DualBundle(tuple(dual_rows)),
        primal=x,
        support_masks=support_masks,
    )


def reduced_cost(duals: DualBundle, c_col: LexValue, a_col: np.ndarray) -> LexValue:
    """Lexicographic reduced cost of a column from the per-level duals."""
    a_col = np.asarray(a_col, dtype=float)
    rows = duals.as_array()
    if rows.shape[1] != a_col.shape[0]:
        raise ValueError("column length does not match dual dimension")
    if rows.shape[0] != len(c_col):
        raise ValueError("cost length does not match number of levels")
    return LexValue(c_col.entries - rows @ a_col)
