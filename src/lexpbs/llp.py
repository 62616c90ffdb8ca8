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

A solve can start from a warm basis.  Holes in it (entries naming no
column) are refilled with identity artificials that keep it
nonsingular; a nonsingular but infeasible basis is repaired by one
composite artificial d = -B 1_N (N the rows at negative value) that
enters at the most negative row, after which phase 1 drives d out.  A
singular basis is refused, and the solve runs phase 1 from scratch.
A solve can also be restricted to a subset of the columns, copied
straight into the simplex's augmented matrix.

Each pivot factors the basis afresh with LAPACK's dgetrf and solves
with dgetrs, called directly (`lu_factor`), and prices only the
columns that may enter: those of the level's support set that are not
pinned to zero, gathered once per level into one contiguous block.
The basis is deliberately not updated by LU or inverse updates: they
round differently, so near-ties in pricing and in the ratio test would
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

    Columns past `n_real` are artificials.  While `fixed` is set they
    are pinned to zero: they may sit in the basis at value zero but can
    never enter, and any pivot that would increase one instead kicks it
    out through a zero-length (degenerate) step.

    Every pivot refactors the basis from scratch (`lu_factor`) and
    prices only the eligible columns (allowed, not fixed), which `run`
    gathers once into one contiguous block.  Refactoring keeps each
    pivot's arithmetic independent of the path that led to the basis;
    see the module docstring for why no LU updates are used.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, eps: float,
                 columns: np.ndarray | None = None):
        self.k = A.shape[0]
        self.n_real = A.shape[1] if columns is None else len(columns)
        self.d = self.n_real + self.k  # the composite artificial's column
        self.n_total = self.d + 1
        # Flip rows so b >= 0; the artificial identity block then gives
        # a feasible starting basis for phase 1.
        signs = np.where(b < 0, -1.0, 1.0)
        self.A = np.zeros((self.k, self.n_total))
        if columns is None:
            np.multiply(A, signs[:, None], out=self.A[:, : self.n_real])
        else:
            # Row by row, so the selected columns are never held twice.
            columns = np.asarray(columns, dtype=np.intp)
            for r in range(self.k):
                row = self.A[r, : self.n_real]
                np.take(A[r], columns, out=row)
                if signs[r] < 0:
                    np.negative(row, out=row)
        rows = np.arange(self.k)
        self.A[rows, self.n_real + rows] = 1.0
        self.b = b * signs
        self.row_signs = signs
        self.eps = eps
        self.basis = np.arange(self.n_real, self.d)  # column per row
        self.fixed = np.zeros(self.n_total, dtype=bool)
        self.fixed[self.d] = True  # unused until a warm start repairs
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

    def _factor(self):
        return lu_factor(self.A[:, self.basis])

    def basic_solution(self) -> np.ndarray:
        lu, piv = self._factor()
        return dgetrs(lu, piv, self.b)[0]

    def primal(self) -> np.ndarray:
        """The basic solution's values of the real columns."""
        x_B = self.basic_solution()
        x = np.zeros(self.n_real)
        real = self.basis < self.n_real
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
            self.basis[leave_pos] = j
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

    def start(self, warm_start: Basis | None) -> bool:
        """Reach a feasible basis: from `warm_start` when
        `try_warm_start` adopts it, else from the artificial identity
        basis.  Phase 1 runs unless the adopted basis is already
        feasible with its artificials at zero.  Returns False if
        Ax = b, x >= 0 has no solution."""
        level = None
        if warm_start is not None:
            level = self.try_warm_start(warm_start.indices)
        if level is not None and level <= self._phase1_tol():
            self.fixed[self.n_real:] = True
            return True
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

    def try_warm_start(self, basis_indices) -> float | None:
        """Adopt `basis_indices` as the current basis if it is
        nonsingular, and return its artificial level (the sum of its
        artificials' values); None if the basis is refused.

        An entry that names no real or identity column (negative, or
        the composite artificial's) is a hole, refilled with an
        identity artificial that keeps the basis nonsingular.  An
        infeasible basis is repaired: the composite artificial
        d = -B 1_N, N the rows at negative value, enters at the most
        negative row.  Since B^-1 d = -1_N, the step that zeroes that
        row lifts every other row of N too, so all basic values end
        nonnegative, with d > 0 for phase 1 to drive out."""
        cand = np.array(basis_indices, dtype=np.intp)
        if cand.shape != (self.k,):
            return None
        holes = (cand < 0) | (cand >= self.d)
        try:
            if holes.any():
                cand[holes] = self._identity_completion(cand[~holes])
            lu, piv = lu_factor(self.A[:, cand])
        except NumericalError:
            return None
        x_B = dgetrs(lu, piv, self.b)[0]
        self.basis = cand
        if np.min(x_B) >= -self.eps:
            return self._artificial_level(x_B)
        self.A[:, self.d] = -self.A[:, cand[x_B < 0]].sum(axis=1)
        cand[int(np.argmin(x_B))] = self.d
        self.fixed[self.d] = False
        return np.inf

    def _identity_completion(self, known: np.ndarray) -> np.ndarray:
        """Identity artificials completing the independent columns
        `known` to a nonsingular basis: those of the rows that LU with
        partial pivoting leaves unpivoted.  Permuted by that pivoting,
        [known | artificials] is block lower triangular with U and an
        identity on its diagonal."""
        perm = np.arange(self.k)
        if known.size:
            _, piv = lu_factor(self.A[:, known])
            for i, p in enumerate(piv):
                perm[i], perm[p] = perm[p], perm[i]
        return self.n_real + perm[known.size:]


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
    if not sx.start(warm_start):
        return LpBackendResult(status=LpStatus.INFEASIBLE)
    c_aug = np.concatenate([c, np.zeros(sx.n_total - sx.n_real)])
    sx.set_allowed(True)
    status = sx.run(c_aug)
    if status is LpStatus.UNBOUNDED:
        return LpBackendResult(status=LpStatus.UNBOUNDED)
    x = sx.primal()
    return LpBackendResult(
        status=LpStatus.OPTIMAL,
        basis=Basis(tuple(sx.basis.tolist())),
        objective=float(c @ x),
        duals=sx.duals_for(c_aug),
        x=x,
    )


def lex_solve(
    problem: LlpProblem,
    warm_start: Basis | None = None,
    eps: float = DEFAULT_EPS,
    columns: np.ndarray | None = None,
) -> LexSolveResult:
    """Solve the lexicographic program by the sequential level method.

    Level l maximizes cost row l over the support set S_l (initially all
    columns); S_{l+1} keeps the columns whose level-l reduced cost is
    zero within a relative epsilon.  The duals of each level are
    retained: together they reconstruct lexicographic reduced costs.

    `columns`, when given, restricts the program to those columns of A
    and C, in that order; the basis, primal and supports then number
    them by position.  The simplex copies them straight from A, so a
    caller solving a sub-program makes no copy of its own.  A warm
    start may contain holes (see `_Simplex.try_warm_start`).

    Raises LlpInfeasibleError / LlpUnboundedError.
    """
    m = problem.num_levels
    sx = _Simplex(problem.A, problem.b, eps, columns)
    if not sx.start(warm_start):
        raise LlpInfeasibleError("Ax = b, x >= 0 has no solution")

    C = problem.C if columns is None else problem.C[:, columns]
    A_signed = sx.A[:, : sx.n_real]  # rows flipped as the simplex's
    support = np.ones(sx.n_real, dtype=bool)
    support_masks = [support.copy()]
    dual_rows: list[tuple[float, ...]] = []
    for l in range(m):
        c_aug = np.zeros(sx.n_total)
        c_aug[: sx.n_real] = C[l]
        sx.set_allowed(support)
        status = sx.run(c_aug)
        if status is LpStatus.UNBOUNDED:
            raise LlpUnboundedError(f"level {l + 1} is unbounded")
        y = sx.duals_for(c_aug)
        dual_rows.append(tuple(y))
        # Shrink the support to the columns tying the level-l optimum.
        slack = C[l] - (y * sx.row_signs) @ A_signed
        tol = eps * np.maximum(1.0, np.abs(C[l]))
        support &= np.abs(slack) <= tol
        # The basis always ties (reduced cost zero); keep it explicitly
        # so numerical noise cannot break the nesting B_l <= S_{l+1}.
        support[sx.basis[sx.basis < sx.n_real]] = True
        support_masks.append(support.copy())

    x = sx.primal()
    return LexSolveResult(
        value=LexValue(C @ x),
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
