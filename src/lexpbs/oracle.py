"""Brute-force reference solvers, used only by the test suite.

All three oracles enumerate exhaustively and are guarded against
combinatorial blow-up; guard violations are hard errors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from .lexcore import LexValue
from .llp import LlpProblem
from .pbs import Instance, is_feasible
from .rclpp import TOP, Dag, PathResult, ResourceSpace

MAX_PBS_PAIRINGS = 12
MAX_PBS_PILOTS = 4
MAX_PATHS = 2 ** 14
MAX_LLP_COLS = 10
MAX_LLP_ROWS = 5


class OracleGuardError(Exception):
    pass


class OracleError(RuntimeError):
    """An oracle's own bookkeeping is inconsistent (a defect, not a
    property of the input)."""


def oracle_pbs(instance: Instance):
    """Exact lex-max assignment by dynamic programming over (pilot,
    remaining pairing set).  Returns (value, assignment) where the
    assignment maps pilot index to a list of pairing ids, or (None,
    None) when no feasible partition exists."""
    n = instance.num_pairings
    m = instance.num_pilots
    if n > MAX_PBS_PAIRINGS or m > MAX_PBS_PILOTS:
        raise OracleGuardError(f"instance too large for the oracle ({m} x {n})")

    ids = [p.id for p in instance.pairings]
    feasible_masks = [
        mask for mask in range(1 << n)
        if is_feasible(instance, [ids[j] for j in range(n) if mask >> j & 1])
    ]
    feasible_set = set(feasible_masks)
    score_of = {}  # (pilot, mask) computed lazily

    def score(i: int, mask: int) -> int:
        key = (i, mask)
        if key not in score_of:
            score_of[key] = int(
                sum(instance.scores[i, j] for j in range(n) if mask >> j & 1)
            )
        return score_of[key]

    from functools import lru_cache

    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def best(i: int, remaining: int):
        """Lex-max score tuple for pilots i..m-1 partitioning
        `remaining`, or None if impossible."""
        if i == m:
            return () if remaining == 0 else None
        top = None
        # Enumerate submasks of `remaining`, plus the empty schedule.
        sub = remaining
        while True:
            if sub in feasible_set:
                rest = best(i + 1, remaining & ~sub)
                if rest is not None:
                    cand = (score(i, sub),) + rest
                    if top is None or cand > top:
                        top = cand
            if sub == 0:
                break
            sub = (sub - 1) & remaining
        return top

    value = best(0, full)
    if value is None:
        return None, None

    # Reconstruct one optimal assignment.
    assignment = []
    remaining = full
    for i in range(m):
        sub = remaining
        found = None
        while True:
            if sub in feasible_set and score(i, sub) == value[i]:
                rest = best(i + 1, remaining & ~sub)
                if rest is not None and (score(i, sub),) + rest == value[i:]:
                    found = sub
                    break
            if sub == 0:
                break
            sub = (sub - 1) & remaining
        if found is None:
            raise OracleError(f"no schedule of pilot {i} attains the "
                              f"optimal value {value}")
        assignment.append([ids[j] for j in range(n) if found >> j & 1])
        remaining &= ~found
    return LexValue(float(v) for v in value), assignment


def oracle_paths(dag: Dag, space: ResourceSpace) -> list[PathResult]:
    """All feasible origin-destination paths by depth-first enumeration,
    folding the forward extension; sorted by lex cost, best first."""
    results: list[PathResult] = []

    def dfs(vertex, resource, arcs):
        if len(results) > MAX_PATHS:
            raise OracleGuardError("path count guard exceeded")
        if vertex == dag.destination:
            results.append(PathResult(
                [dag.origin] + [a.head for a in arcs], space, resource))
            return
        for arc in dag.out_arcs[vertex]:
            r = space.extend(arc, resource)
            if r is TOP:
                continue
            arcs.append(arc)
            dfs(arc.head, r, arcs)
            arcs.pop()

    r0 = space.initial(dag.origin)
    if r0 is not TOP:
        dfs(dag.origin, r0, [])
    results.sort(key=lambda p: tuple(-e for e in p.cost.entries))
    return results


def _exact_solve(columns: list[list[Fraction]], b: list[Fraction]):
    """Solve sum_j x_j * columns[j] = b exactly by Gaussian elimination.
    Returns the unique solution, or None when the columns are dependent
    or the system is inconsistent."""
    k = len(b)
    t = len(columns)
    aug = [[columns[j][r] for j in range(t)] + [b[r]] for r in range(k)]
    row = 0
    pivots = []
    for col in range(t):
        piv = next((r for r in range(row, k) if aug[r][col] != 0), None)
        if piv is None:
            return None  # dependent columns
        aug[row], aug[piv] = aug[piv], aug[row]
        pr = aug[row]
        for r in range(k):
            if r != row and aug[r][col] != 0:
                f = aug[r][col] / pr[col]
                aug[r] = [a - f * p for a, p in zip(aug[r], pr)]
        pivots.append(col)
        row += 1
        if row == k:
            break
    for r in range(row, k):
        if aug[r][t] != 0:
            return None  # inconsistent
    x = [Fraction(0)] * t
    for r, col in enumerate(pivots):
        x[col] = aug[r][t] / aug[r][col]
    return x


def _frac_matrix(M: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(float(v)) for v in row] for row in M]


def exact_basis_value(problem: LlpProblem, basis) -> tuple[Fraction, ...] | None:
    """Exact lex value of the basic solution picked by `basis`, with
    artificial indices (>= n) dropped: they are zero at any feasible
    basis the solver returns.  None when the system has no unique
    solution on those columns."""
    k, n = problem.A.shape
    cols = [j for j in basis.indices if j < n]
    A = _frac_matrix(problem.A)
    b = [Fraction(float(v)) for v in problem.b]
    x_cols = _exact_solve([[A[r][j] for r in range(k)] for j in cols], b)
    if x_cols is None:
        return None
    C = _frac_matrix(problem.C)
    m = problem.num_levels
    val = [Fraction(0)] * m
    for j, xj in zip(cols, x_cols):
        for l in range(m):
            val[l] += C[l][j] * xj
    return tuple(val)


def oracle_llp_exact(problem: LlpProblem):
    """Exact-rational lex-max of Cx over all basic feasible solutions.
    Returns (value as a Fraction tuple, x as a Fraction list) or
    (None, None) when no feasible basis exists."""
    k, n = problem.A.shape
    if n > MAX_LLP_COLS or k > MAX_LLP_ROWS:
        raise OracleGuardError(f"problem too large for the oracle ({k} x {n})")
    A = _frac_matrix(problem.A)
    b = [Fraction(float(v)) for v in problem.b]
    C = _frac_matrix(problem.C)
    m = problem.num_levels
    best_val = None
    best_x = None
    # Subsets of every size up to k: rank-deficient rows admit vertices
    # whose independent support is smaller than the row count.
    for size in range(min(k, n) + 1):
        for cols in combinations(range(n), size):
            x_B = _exact_solve(
                [[A[r][j] for r in range(k)] for j in cols], b
            )
            if x_B is None or any(x < 0 for x in x_B):
                continue
            x = [Fraction(0)] * n
            for j, xj in zip(cols, x_B):
                x[j] = xj
            val = tuple(
                sum((C[l][j] * x[j] for j in cols), Fraction(0))
                for l in range(m)
            )
            if best_val is None or val > best_val:
                best_val, best_x = val, x
    return best_val, best_x


def oracle_llp(problem: LlpProblem):
    """Lex-max of Cx over all basic feasible solutions, computed in
    exact rational arithmetic.  Returns (value, x) as floats, or
    (None, None) when no feasible basis exists."""
    val, x = oracle_llp_exact(problem)
    if val is None:
        return None, None
    return LexValue(float(v) for v in val), np.array([float(v) for v in x])
