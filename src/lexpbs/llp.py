"""Linear lexicographic programming.

Solves  lexmax Cx  s.t.  Ax = b, x >= 0  by a sequence of ordinary LPs:
level l maximizes cost row l over the columns that were optimal at all
previous levels, reusing the previous basis as a warm start.  The final
basis is primal-dual feasible for the whole lexicographic program, and
the per-level dual row vectors reconstruct lexicographic reduced costs.

The backend is an embedded revised simplex with a dense LU-factorized
basis and Bland's anti-cycling rule.  It works on the program's
augmented form (`AugmentedProgram`): rows flipped so that b >= 0, and
one artificial column per row after the real columns.  The artificials
are kept after phase 1, pinned to zero, so that a full basis always
exists even when the genuine columns are rank deficient (the usual
situation for a freshly initialized restricted master).

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
subset of the columns, copied straight into the augmented matrix.

What a solve computes, and how often:

- Once per program: the augmented matrix and cost rows, and the
  right-hand side perturbed for the ratio test.  A program that grows,
  as the column-generation master does, keeps them across solves and
  appends columns in place.  It also keeps the final basis of its last
  solve with that basis's LU factors, so a solve warm-started from
  that basis factors nothing before its first pivot.
- Once per level: the block of columns that may enter, that is the
  level's support set less the pinned columns.  At the first level it
  is a view of the leading columns; after that it is compressed from
  the previous level's block, since each support set lies inside the
  one before.  The level's dual row and the next support set come from
  the level's final pricing pass; only the pinned columns of the
  support are priced apart.
- Once per pivot: one LU factorization of the basis (LAPACK dgetrf,
  `lu_factor`), three solves with it (dgetrs: basic values, duals and
  the entering column), one pricing product over the level's block,
  one masked argmax for the entering column and a vectorised ratio
  test.

The basis is deliberately refactored, never updated by LU or inverse
updates.  Updated factors round differently, so near-ties in pricing
and in the ratio test resolve differently: the solver takes another
pivot path to another optimal basis, with other duals, other columns
and other solution files.  Measured on the 12x48 benchmark month, an
explicit basis inverse with rank-one updates, refactored every 64
pivots, cut the master LP time by 30% when every LP used it; but the
lower and final branch and bound went from 3 and 3 nodes to 387 and
37, and the whole solve from 1.18 s to 6.41 s.  Used for the master
alone it changed 20 of 58 stats files, and the 12x48 month still took
411 and 37 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

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
    vector, level 1 being the most important).  `augmented`, when set,
    is the program's augmented form, kept by its owner (see
    `AugmentedProgram.problem`), which an unrestricted solve uses as is.
    """

    A: np.ndarray
    b: np.ndarray
    C: np.ndarray
    augmented: AugmentedProgram | None = field(
        default=None, repr=False, compare=False)

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
_COMPACT_ROWS = 8  # rows moved per step when a block is compacted


def lu_factor(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU factors (lu, piv) of the square matrix B by LAPACK dgetrf.

    Raises NumericalError if B is exactly singular.  The factors are
    those of scipy.linalg.lu_factor, without its input checks."""
    lu, piv, info = dgetrf(B)
    if info != 0:
        raise NumericalError(f"singular basis matrix (dgetrf info {info})")
    return lu, piv


class AugmentedProgram:
    """A lex program in the simplex's augmented form.

    Rows are flipped so that b >= 0.  The real columns 0 .. n-1 are
    followed by the artificial identity, columns n .. n+k-1, and the
    cost rows are zero over the artificials.  The right-hand side the
    ratio test perturbs is drawn once.  `append` adds real columns in
    place: the buffers grow by half when full, and the artificial block
    moves behind the new columns.

    The program also keeps the final basis of the last solve on it,
    with its LU factors.  A solve warm-started from that basis, its
    artificials renumbered for the appended columns, reuses them: the
    basis names the same columns, so a new factorization would give the
    same factors.
    """

    def __init__(self, b, num_levels: int, capacity: int = 0):
        b = np.asarray(b, dtype=float)
        self.k = k = b.shape[0]
        self.num_levels = num_levels
        self.row_signs = np.where(b < 0, -1.0, 1.0)
        self.b = b * self.row_signs
        # Anti-degeneracy: the ratio test runs against a slightly
        # perturbed right-hand side so ties are rare and the objective
        # makes strict progress.  Duals depend only on the basis and
        # the reported primal solution is computed from the true b.
        rng = np.random.default_rng(0x5EED)
        self.b_pert = self.b + 1e-7 * (1.0 + rng.random(k))
        self.n = 0
        self._A = np.zeros((k, capacity + k))
        self._C = np.zeros((num_levels, capacity + k))
        self._place_artificials()
        self._final = None  # (basis, n when solved, LU factors)

    @classmethod
    def of(cls, problem: LlpProblem,
           columns: np.ndarray | None = None) -> AugmentedProgram:
        """The augmented form of `problem`, restricted to `columns` (in
        that order) when given.  Restricted columns are copied row by
        row, so they are never held twice."""
        A, C = problem.A, problem.C
        n = A.shape[1] if columns is None else len(columns)
        prog = cls(problem.b, problem.num_levels, n)
        signs = prog.row_signs
        real_A, real_C = prog._A[:, :n], prog._C[:, :n]
        if columns is None:
            np.multiply(A, signs[:, None], out=real_A)
            real_C[:] = C
        else:
            columns = np.asarray(columns, dtype=np.intp)
            for r in range(prog.k):
                np.take(A[r], columns, out=real_A[r])
                if signs[r] < 0:
                    np.negative(real_A[r], out=real_A[r])
            for l, row in enumerate(C):
                np.take(row, columns, out=real_C[l])
        prog.n = n
        prog._place_artificials()
        return prog

    @property
    def A(self) -> np.ndarray:
        """The augmented matrix, k x (n + k), a view."""
        return self._A[:, : self.n + self.k]

    @property
    def C(self) -> np.ndarray:
        """The cost rows over the augmented columns, a view."""
        return self._C[:, : self.n + self.k]

    def _place_artificials(self) -> None:
        block = self._A[:, self.n: self.n + self.k]
        block[:] = 0.0
        block[np.arange(self.k), np.arange(self.k)] = 1.0

    def append(self, count: int, a_rows, a_cols, a_vals,
               c_rows, c_cols, c_vals) -> None:
        """Append `count` real columns given by their nonzeros: column
        j (0-based among the new ones) has A[a_rows, j] = a_vals where
        a_cols == j, and C[c_rows, j] = c_vals where c_cols == j, with A
        in the rows' original signs."""
        n, k = self.n, self.k
        if n + count + k > self._A.shape[1]:
            cap = max(n + count + k, self._A.shape[1] * 3 // 2)
            A = np.zeros((k, cap))
            A[:, :n] = self._A[:, :n]
            C = np.zeros((self.num_levels, cap))
            C[:, :n] = self._C[:, :n]
            self._A, self._C = A, C
        a_rows = np.asarray(a_rows, dtype=np.intp)
        self._A[:, n: n + count] = 0.0  # the old artificial block
        self._A[a_rows, n + np.asarray(a_cols)] = \
            np.multiply(a_vals, self.row_signs[a_rows])
        self._C[c_rows, n + np.asarray(c_cols)] = c_vals
        self.n = n + count
        self._place_artificials()

    def problem(self) -> LlpProblem:
        """The program as an LlpProblem whose A and C are views of the
        real columns (A with the rows' original signs)."""
        A = self._A[:, : self.n]
        if np.any(self.row_signs < 0):
            A = A * self.row_signs[:, None]
        return LlpProblem(A=A, b=self.b * self.row_signs,
                          C=self._C[:, : self.n], augmented=self)

    def keep_final(self, basis: np.ndarray, lu) -> None:
        self._final = (basis.copy(), self.n, lu)

    def final_factors(self, basis: np.ndarray):
        """The kept LU factors when `basis` is the last solve's final
        basis, its artificials renumbered; else None."""
        if self._final is None:
            return None
        final, n, lu = self._final
        final = np.where(final >= n, final + (self.n - n), final)
        return lu if np.array_equal(final, basis) else None


class _Pass(NamedTuple):
    """The final pricing pass of `_Simplex.run`: the duals y (rows as
    flipped), the eligible columns' costs and reduced costs, and the
    places of the basic ones among them (their reduced costs read
    -inf)."""

    y: np.ndarray
    c: np.ndarray
    z: np.ndarray
    basic: np.ndarray


def _entering(z: np.ndarray, eps: float, bland: bool) -> int:
    """Position of the entering column given the reduced costs z, basic
    columns at -inf, or -1 when none exceeds eps: the first largest
    (Dantzig) or, in Bland mode, the first above eps."""
    p = int((z > eps).argmax()) if bland else int(z.argmax())
    return p if z[p] > eps else -1


class _Simplex:
    """Revised simplex over an augmented program.

    Columns past `n_real` are artificials; the last `pinned` real
    columns are pinned from the start.  A column with `fixed` set is
    pinned to zero: it may sit in the basis at value zero but can never
    enter, and any pivot that would increase one instead kicks it out
    through a zero-length (degenerate) step.  The artificials are
    pinned once a feasible basis is reached.

    Each basis is factored once (`lu_factor`), when first needed after
    a pivot, from the basis matrix kept in Fortran order, whose column
    a pivot replaces; and each pivot prices only the block of eligible
    columns its caller passes to `run`.  Refactoring keeps each pivot's
    arithmetic independent of the path that led to the basis; see the
    module docstring for why no LU updates are used.
    """

    def __init__(self, program: AugmentedProgram, eps: float,
                 pinned: int = 0):
        self.program = program
        self.k = program.k
        self.n_real = program.n
        self.n_total = self.n_real + self.k
        self.A = program.A
        self.b, self.b_pert = program.b, program.b_pert
        self.row_signs = program.row_signs
        self.eps = eps
        self.basis = np.arange(self.n_real, self.n_total)  # column per row
        self._B = None  # A[:, basis] in Fortran order, once gathered
        self._lu = None  # LU factors of `basis`, once computed
        self._steps = np.empty(self.k)  # the ratio test's buffer
        self.fixed = np.zeros(self.n_total, dtype=bool)
        self.fixed[self.n_real - pinned: self.n_real] = True

    def block(self, elig: np.ndarray) -> np.ndarray:
        """The columns `elig` (ascending) of the matrix: a view when
        they are the leading ones, else a copy."""
        if elig.size == 0 or elig[-1] == elig.size - 1:
            return self.A[:, : elig.size]
        return np.take(self.A, elig, axis=1)

    def basis_matrix(self) -> np.ndarray:
        """A[:, basis] in Fortran order, gathered when first needed and
        then kept up to date by the pivots."""
        if self._B is None:
            self._B = np.asfortranarray(self.A[:, self.basis])
        return self._B

    def _factor(self):
        if self._lu is None:
            self._lu = lu_factor(self.basis_matrix())
        return self._lu

    def _set_basis(self, basis: np.ndarray, lu=None) -> None:
        self.basis, self._B, self._lu = basis, None, lu

    def _pivot(self, row: int, j: int, column: np.ndarray) -> None:
        """Make column j, whose entries are `column`, basic in `row`."""
        B = self.basis_matrix()
        self.basis[row] = j
        B[:, row] = column
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

    def duals(self, c: np.ndarray) -> np.ndarray:
        """The duals of the cost vector c, rows as flipped."""
        lu, piv = self._factor()
        return dgetrs(lu, piv, c[self.basis], trans=1)[0]

    def run(self, c: np.ndarray, elig: np.ndarray,
            A_el: np.ndarray) -> tuple[LpStatus, _Pass | None]:
        """Maximize c.x from the current (feasible) basis over the
        eligible columns `elig` (ascending, none fixed), whose columns
        `A_el` holds.  Returns OPTIMAL with the final pricing pass (None
        when no column is eligible) or UNBOUNDED; the basis is updated
        in place.

        Entering rule: Dantzig (largest reduced cost, lowest index on
        ties) normally, Bland (lowest index) during degenerate streaks
        so cycling cannot persist."""
        s = elig.size
        if s == 0:
            return LpStatus.OPTIMAL, None
        c_el = c[elig]
        c_B = c[self.basis]
        # Per basis row: the place of its column in elig, or s when it
        # is not eligible; z[s] is a spare entry those rows mask.
        where = np.minimum(np.searchsorted(elig, self.basis), s - 1)
        slot = np.where(elig[where] == self.basis, where, s)
        z_buf = np.empty(s + 1)
        z = z_buf[:s]
        fixed_basic = self.fixed[self.basis]
        n_fixed_basic = int(np.count_nonzero(fixed_basic))
        degen_streak = 0
        for _ in range(_MAX_PIVOTS):
            lu, piv = self._factor()
            x_B = dgetrs(lu, piv, self.b_pert)[0]
            y = dgetrs(lu, piv, c_B, trans=1)[0]
            np.subtract(c_el, y @ A_el, out=z)
            z_buf[slot] = -np.inf
            p = _entering(z, self.eps, degen_streak >= _BLAND_THRESHOLD)
            if p < 0:
                return LpStatus.OPTIMAL, _Pass(y, c_el, z, slot[slot < s])
            u = dgetrs(lu, piv, A_el[:, p])[0]
            r, t_best = self._ratio_test(
                u, x_B, fixed_basic if n_fixed_basic else None)
            if r < 0:
                return LpStatus.UNBOUNDED, None
            slot[r] = p
            if fixed_basic[r]:
                fixed_basic[r] = False
                n_fixed_basic -= 1
            c_B[r] = c_el[p]
            self._pivot(r, int(elig[p]), A_el[:, p])
            degen_streak = 0 if t_best > _RATIO_TIE else degen_streak + 1
        raise NumericalError("pivot limit exceeded")

    def _ratio_test(self, u: np.ndarray, x_B: np.ndarray,
                    fixed_basic: np.ndarray | None) -> tuple[int, float]:
        """(leaving basis position, step length), or (-1, inf) when the
        direction u is unbounded.  Fixed basic variables, the rows set
        in `fixed_basic` (None when there are none), are pinned at zero:
        a direction that would raise one forces a zero-length step.
        Clips x_B at zero in place.

        The steps are computed as one array.  A unique minimum, with
        every other step above it by more than twice the tie
        tolerance, is the row `_ratio_ties` would pick; anything
        closer goes to `_ratio_ties`, whose order-dependent tie rule
        decides."""
        t = self._steps
        t.fill(np.inf)
        np.divide(np.maximum(x_B, 0.0, out=x_B), u, out=t,
                  where=u > self.eps)
        if fixed_basic is not None:
            t[(u < -self.eps) & fixed_basic] = 0.0
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

    def start(self, warm_start: Basis | None, C: np.ndarray) -> bool:
        """Reach a feasible basis, from `warm_start` when `try_warm_start`
        adopts it and `dual_repair` makes it feasible under the cost rows
        `C` (over the augmented columns), else by phase 1 from the
        artificial identity basis.  Returns False if Ax = b, x >= 0 has
        no solution."""
        if warm_start is not None:
            self.fixed[self.n_real:] = True
            x_B = self.try_warm_start(warm_start.indices)
            if x_B is not None and self.dual_repair(x_B, C):
                return True
            self.fixed[self.n_real:] = False
            self._set_basis(np.arange(self.n_real, self.n_total))
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
        elig = np.flatnonzero(~self.fixed)
        status, _ = self.run(c, elig, self.block(elig))
        if status is not LpStatus.OPTIMAL:
            raise NumericalError("phase 1 terminated abnormally")
        if self._artificial_level(self.basic_solution()) > self._phase1_tol():
            return False
        self.fixed[self.n_real:] = True
        return True

    def try_warm_start(self, basis_indices) -> np.ndarray | None:
        """Adopt `basis_indices` as the current basis if it names one
        column per row, each in range, and is nonsingular; returns its
        basic values, or None (the basis unchanged) if it is refused.
        The program's kept factors are reused when they fit."""
        cand = np.array(basis_indices, dtype=np.intp)
        if cand.shape != (self.k,) or np.any(
                (cand < 0) | (cand >= self.n_total)):
            return None
        lu = self.program.final_factors(cand)
        if lu is None:
            try:
                lu = lu_factor(self.A[:, cand])
            except NumericalError:
                return None
        self._set_basis(cand, lu)
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
            j = int(cols[0])
            self._pivot(r, j, self.A[:, j])
            x_B = self.basic_solution()
            if self._feasible(x_B):
                return True
        return False

    def _reduced_costs(self, c: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Reduced costs c_j - y a_j of the real columns `cols` under the
        current basis, those within the support tolerance set to 0."""
        y = self.duals(c)
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
    program = AugmentedProgram.of(LlpProblem(A=A, b=b, C=c))
    sx = _Simplex(program, eps)
    cost = program.C[0]
    if not sx.start(warm_start, program.C):
        return LpBackendResult(status=LpStatus.INFEASIBLE)
    elig = np.flatnonzero(~sx.fixed[: sx.n_real])
    status, last = sx.run(cost, elig, sx.block(elig))
    if status is LpStatus.UNBOUNDED:
        return LpBackendResult(status=LpStatus.UNBOUNDED)
    x = sx.primal()
    y = sx.duals(cost) if last is None else last.y
    return LpBackendResult(
        status=LpStatus.OPTIMAL,
        basis=Basis(tuple(sx.basis.tolist())),
        objective=float(c @ x),
        # Undo the row sign flips so duals refer to the original rows.
        duals=y * sx.row_signs,
        x=x,
    )


def _compact(block: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the columns of `block` where `keep` is set, in order, to its
    leading columns, a few rows at a time; returns a view of them."""
    s = int(np.count_nonzero(keep))
    for r in range(0, block.shape[0], _COMPACT_ROWS):
        rows = block[r: r + _COMPACT_ROWS]
        rows[:, :s] = np.compress(keep, rows, axis=1)
    return block[:, :s]


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
    them by position.  The augmented form copies them straight from A,
    so a caller solving a sub-program makes no copy of its own.  The
    last `pinned` columns are held at zero: they may be basic at zero,
    as in `warm_start`, but never enter, and the primal reads them as
    zero.  A warm start that is infeasible is repaired by lexicographic
    dual simplex pivots (see `_Simplex.dual_repair`).  An unrestricted
    solve of a problem with a kept augmented form uses that form.

    Raises LlpInfeasibleError / LlpUnboundedError.
    """
    kept = columns is None and problem.augmented is not None
    program = problem.augmented if kept \
        else AugmentedProgram.of(problem, columns)
    sx = _Simplex(program, eps, pinned)
    C = program.C
    if not sx.start(warm_start, C):
        raise LlpInfeasibleError("Ax = b, x >= 0 has no solution")

    n = sx.n_real
    support = np.ones(n, dtype=bool)
    support_masks = [support.copy()]
    dual_rows: list[tuple[float, ...]] = []
    # The support's eligible columns, in the block A_el, and its pinned
    # columns.  A program built here is compacted in place, its leading
    # columns holding each level's block, so no column is held twice;
    # after that, only the pinned columns, the basis matrix (kept by
    # the pivots) and the blocks are read.  A kept program is left as
    # it is: each level whose support shrinks copies its block.
    elig = np.arange(n - pinned)
    A_el = sx.A[:, : elig.size]
    pins = np.arange(n - pinned, n)
    sx.basis_matrix()
    for l in range(program.num_levels):
        c = C[l]
        status, last = sx.run(c, elig, A_el)
        if status is LpStatus.UNBOUNDED:
            raise LlpUnboundedError(f"level {l + 1} is unbounded")
        y = sx.duals(c) if last is None else last.y
        # Undo the row sign flips so duals refer to the original rows.
        dual_rows.append(tuple(y * sx.row_signs))
        # Shrink the support to the columns tying the level-l optimum.
        # The basis always ties (reduced cost zero); keep it explicitly
        # so numerical noise cannot break the nesting B_l <= S_{l+1}.
        if last is not None:
            keep = np.abs(last.z) <= eps * np.maximum(1.0, np.abs(last.c))
            keep[last.basic] = True
            if not keep.all():
                support[elig[~keep]] = False
                elig = elig[keep]
                # C order, as a take would give: a block in Fortran
                # order would be priced in another summation order.
                A_el = np.compress(keep, A_el, axis=1) if kept \
                    else _compact(A_el, keep)
        if pins.size:
            c_p = c[pins]
            keep = np.isin(pins, sx.basis) | (
                np.abs(c_p - y @ sx.A[:, pins])
                <= eps * np.maximum(1.0, np.abs(c_p)))
            support[pins[~keep]] = False
            pins = pins[keep]
        support_masks.append(support.copy())

    x = sx.primal()
    if kept:
        program.keep_final(sx.basis, sx._factor())
    return LexSolveResult(
        value=LexValue(C[:, :n] @ x),
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
