"""Branch and bound for integer linear lexicographic programs.

Works on an explicit column set with binary variables.  Each node's
relaxation is a full lexicographic LP solve, so pruning compares true
lexicographic bounds with the incumbent.  Variables are fixed by column
removal (to 0) or by substitution into the right-hand side (to 1).
A row that fixing to 1 leaves with right-hand side 0 and no negative
entry forces its positive-entry columns to 0; the node LP leaves them
out too.

The root LP starts from a caller's basis when one is given, every other
node LP from its parent's optimal basis.  A node LP keeps the basic
columns of that basis that the node fixes, pinned at zero, so the basis
carries over whole.  It stays lex-dual-feasible, though the lex LP's
dual repair does not need it to: dual simplex pivots restore primal
feasibility, or a violated row that no column can move proves the node
LP infeasible, with no phase 1.  A solve that finds no 0/1 solution
returns None for its value and solution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .lexcore import DEFAULT_EPS, TIE_EPS, LexValue, lex_compare_eps
from .llp import LlpInfeasibleError, LlpProblem, LlpUnboundedError, lex_solve


@dataclass
class BnbNode:
    fixed_zero: frozenset[int]
    fixed_one: frozenset[int]
    bound: LexValue
    relaxation: np.ndarray | None
    basis: np.ndarray | None  # optimal, numbered as `lex_solve` numbers it
    depth: int


@dataclass
class IllpResult:
    value: LexValue | None  # None, as is `solution`, when infeasible
    solution: np.ndarray | None
    node_count: int


def _node_relaxation(base: LlpProblem, node_zero, node_one, warm):
    """Lex-solve the node LP from the warm basis `warm` (or cold when
    None); returns (bound, full x, optimal basis) or None if the node is
    infeasible.  May return an all +inf bound, with no x or basis, if
    the node relaxation is unbounded (possible only without binding
    rows).

    The node LP's columns are its free columns, then the columns of
    `warm` that the node fixes, pinned at zero (a column fixed to 1 at
    its value minus 1).  So `warm` maps onto the node LP whole, and
    `lex_solve`'s dual repair decides it.  Bases are numbered as
    `lex_solve` numbers those of the problem: only real columns are
    mapped to and from the node LP's, and artificials pass through
    unchanged."""
    n = base.num_cols
    b = base.b.copy()
    offset = np.zeros(base.num_levels)
    for j in node_one:
        b -= base.A[:, j]
        offset += base.C[:, j]
    free = np.ones(n, dtype=bool)
    free[list(node_zero | node_one)] = False
    # Forced zeros: in a row with right-hand side 0 and no negative
    # entry among the free columns, every free column with a positive
    # entry is zero in every solution, so the node LP leaves it out.
    zero_rows = base.A[b == 0.0]
    zero_rows = zero_rows[~((zero_rows < 0) & free).any(axis=1)]
    free_mask = free & ~(zero_rows > 0).any(axis=0)
    free = np.flatnonzero(free_mask)

    cols, local = free, None
    if warm is not None:
        basic = warm[(warm >= 0) & (warm < n)]
        cols = np.concatenate([free, np.sort(basic[~free_mask[basic]])])
        # Real columns map to their node LP places, artificials pass
        # through.  An entry past the columns lands on slot n, which
        # names no node LP column, so the node LP refuses the basis.
        to_local = np.full(n + 1, cols.size)
        to_local[cols] = np.arange(cols.size)
        local = np.where(warm < 0, warm, to_local[np.clip(warm, 0, n)])
    try:
        res = lex_solve(LlpProblem(A=base.A, b=b, C=base.C), warm_start=local,
                        columns=cols, pinned=cols.size - free.size)
    except LlpInfeasibleError:
        return None
    except LlpUnboundedError:
        return (LexValue.pos_infinite(base.num_levels), None, None)
    x = np.zeros(n)
    x[free] = res.primal[: free.size]
    for j in node_one:
        x[j] = 1.0
    basis = res.basis
    real = basis >= 0
    basis[real] = cols[basis[real]]
    return (LexValue(np.asarray(res.value.entries) + offset), x, basis)


def _is_integral(x: np.ndarray) -> bool:
    return bool(np.all(np.minimum(np.abs(x), np.abs(x - 1.0)) <= DEFAULT_EPS))


def _branch_var(x: np.ndarray, fixed: set[int]) -> int:
    """Most-fractional unfixed variable: the lowest unfixed index whose
    distance to the nearest of {0, 1} is within `TIE_EPS` of the
    largest; -1 when every variable is fixed."""
    unfixed = np.ones(len(x), dtype=bool)
    unfixed[list(fixed)] = False
    idx = np.flatnonzero(unfixed)
    if not idx.size:
        return -1
    d = np.minimum(np.abs(x[idx]), np.abs(x[idx] - 1.0))
    return int(idx[np.argmax(d >= d.max() - TIE_EPS)])


def illp_solve(
    base: LlpProblem,
    incumbent_hint: np.ndarray | None = None,
    warm_start=None,
) -> IllpResult:
    """Lex-maximal binary solution of the program `base`, every variable
    0 or 1, by best-first branch and bound.

    `incumbent_hint`, when given, must be a feasible 0/1 vector over the
    columns (else ValueError); it seeds the incumbent so pruning starts
    immediately.  `warm_start`, when given, is a basis of the problem's
    LP relaxation (as `lex_solve` returns it) that the root LP starts
    from (a basis with an entry out of range is refused); every other
    node LP starts from its parent's optimal basis.
    """
    m = base.num_levels
    incumbent_x = None
    incumbent_val = LexValue.neg_infinite(m)
    if incumbent_hint is not None:
        hint = np.asarray(incumbent_hint, dtype=float)
        if hint.shape != (base.num_cols,) or not np.all(
                (hint == 0) | (hint == 1)):
            raise ValueError("incumbent_hint is not a 0/1 vector over the "
                             "columns")
        if np.max(np.abs(base.A @ hint - base.b), initial=0.0) > DEFAULT_EPS:
            raise ValueError("incumbent_hint is not feasible")
        incumbent_x = hint
        incumbent_val = LexValue(base.C @ hint)

    node_count = 0
    counter = 0
    heap: list = []

    def push(node: BnbNode):
        nonlocal counter
        # Best-first on the lex bound, deeper nodes first on ties.
        key = (tuple(-e for e in node.bound.entries), -node.depth, counter)
        heapq.heappush(heap, (key, node))
        counter += 1

    warm = None if warm_start is None \
        else np.asarray(warm_start, dtype=np.intp)
    root = _node_relaxation(base, frozenset(), frozenset(), warm)
    node_count += 1
    if root is not None:
        push(BnbNode(frozenset(), frozenset(), *root, 0))

    while heap:
        _, node = heapq.heappop(heap)
        if lex_compare_eps(node.bound, incumbent_val) <= 0:
            continue  # cannot strictly improve the incumbent
        x = node.relaxation
        if x is not None and _is_integral(x):
            xi = np.round(x)
            val = LexValue(base.C @ xi)
            if lex_compare_eps(val, incumbent_val) > 0:
                incumbent_val, incumbent_x = val, xi
            continue
        fixed = set(node.fixed_zero) | set(node.fixed_one)
        j = _branch_var(x, fixed) if x is not None \
            else next(k for k in range(base.num_cols) if k not in fixed)
        for side in (0, 1):
            fz = node.fixed_zero | ({j} if side == 0 else set())
            fo = node.fixed_one | ({j} if side == 1 else set())
            child = _node_relaxation(base, fz, fo, node.basis)
            node_count += 1
            if child is None:
                continue
            if lex_compare_eps(child[0], incumbent_val) <= 0:
                continue
            push(BnbNode(fz, fo, *child, node.depth + 1))

    if incumbent_x is None:
        return IllpResult(None, None, node_count)
    return IllpResult(incumbent_val, incumbent_x, node_count)
