"""Lexicographic order on vectors of extended reals.

Every other module compares objective values, bounds and reduced costs
through the helpers defined here.  Entries are IEEE floats, which encode
-inf and +inf exactly, so comparisons against infinite sentinels are exact.
Sums and differences go entry by entry; their indeterminate cases,
inf + (-inf) and inf - inf, give NaN, which `LexValue` rejects.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

NEG_INF = float("-inf")
POS_INF = float("inf")

#: The solver's one float tolerance: the simplex's pivot, feasibility
#: and optimality margin, the integer solves' integrality test,
#: pricing's positivity margin and the default margin of the positivity
#: and comparison helpers here.  It must clear the dual snap's error in a
#: reduced cost, 2^-31 per covered row (see colgen).  It is fixed, not
#: a setting: over the 59 months of scripts/month_digests.py and the
#: 200 acceptance months, every value from 1e-9 to 1e-3 gave this one's
#: schedules and both bounds bit for bit; 1e-2 changes the schedules or
#: score vectors of 16 of them (among them the 12x48 seed-3, 17x69
#: seed-7 and 10x40 seed-5 months).
DEFAULT_EPS = 1e-6

#: The one near-tie rule of the simplex and the branching: a candidate
#: within TIE_EPS of the extreme one (the shortest ratio-test step, the
#: smallest dual-repair ratio at a level, the largest distance from
#: {0, 1}) ties with it, and the lowest index among the tied wins.
TIE_EPS = 1e-12


class LexValue:
    """An immutable vector of extended reals compared lexicographically.

    The length is fixed per problem instance (one entry per objective
    level) and must agree between any two values that are compared or
    added together.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[float]):
        values = tuple(float(e) for e in entries)
        for e in values:
            if math.isnan(e):
                raise ValueError("NaN entry in LexValue")
        self.entries = values

    @classmethod
    def neg_infinite(cls, m: int) -> "LexValue":
        return cls((NEG_INF,) * m)

    @classmethod
    def pos_infinite(cls, m: int) -> "LexValue":
        return cls((POS_INF,) * m)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self) -> str:
        return f"LexValue({list(self.entries)!r})"

    def __hash__(self) -> int:
        return hash(self.entries)

    # Tuple comparison on floats is exactly the lexicographic order,
    # including against the infinite sentinels.
    def __eq__(self, other) -> bool:
        return isinstance(other, LexValue) and self.entries == other.entries

    def __lt__(self, other: "LexValue") -> bool:
        self._check_length(other)
        return self.entries < other.entries

    def __le__(self, other: "LexValue") -> bool:
        self._check_length(other)
        return self.entries <= other.entries

    def __gt__(self, other: "LexValue") -> bool:
        self._check_length(other)
        return self.entries > other.entries

    def __ge__(self, other: "LexValue") -> bool:
        self._check_length(other)
        return self.entries >= other.entries

    def __add__(self, other: "LexValue") -> "LexValue":
        self._check_length(other)
        return LexValue(map(float.__add__, self.entries, other.entries))

    def __sub__(self, other: "LexValue") -> "LexValue":
        self._check_length(other)
        return LexValue(map(float.__sub__, self.entries, other.entries))

    def _check_length(self, other: "LexValue") -> None:
        if len(self.entries) != len(other.entries):
            raise ValueError(
                f"LexValue length mismatch: {len(self.entries)} vs {len(other.entries)}"
            )


def lex_is_positive(a: LexValue | Sequence[float], eps: float = DEFAULT_EPS) -> bool:
    """True iff `a` is lexicographically positive once entries within
    `eps` of zero are snapped to zero."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    for e in a:
        if e > eps:
            return True
        if e < -eps:
            return False
    return False


def lex_compare_eps(a: LexValue, b: LexValue, eps: float = DEFAULT_EPS) -> int:
    """Lexicographic comparison where per-entry differences within `eps`
    count as ties.  Used for pruning decisions on floating-point bounds."""
    a._check_length(b)
    for x, y in zip(a.entries, b.entries):
        d = x - y
        if x == y:  # covers equal infinities, where d would be NaN
            continue
        if d > eps:
            return 1
        if d < -eps:
            return -1
    return 0
