"""Answer checks, written against the raw instance and solution JSON.

They deliberately share no code with ``lexpbs.pbs``: a fault in the
program's own legality test must not hide a wrong answer here.
"""

from __future__ import annotations

MINUTES_PER_DAY = 1440

#: Rule limits of generated instances; a limit the instance file
#: carries under the same name takes precedence.
DEFAULT_RULES = {
    "max_days_on": 17,
    "max_flight_hours": 85.0,
    "min_rest_minutes": 0,
    "min_consecutive_days_off": 7,
}

#: Tolerance for the float bound vectors; the score vector is integral.
BOUND_TOL = 1e-5


class CheckError(Exception):
    pass


def _lex_cmp(a, b, tol: float = 0.0) -> int:
    """-1, 0 or 1 as a is lexicographically below, equal to or above b,
    entries within `tol` counting as equal."""
    if len(a) != len(b):
        raise CheckError(f"vector lengths differ: {len(a)} and {len(b)}")
    for x, y in zip(a, b):
        if x - y > tol:
            return 1
        if y - x > tol:
            return -1
    return 0


def _schedule_errors(inst: dict, rules: dict, pairings: dict,
                     schedule: list[str]) -> str | None:
    ps = sorted((pairings[pid] for pid in schedule), key=lambda p: p["start"])
    for a, b in zip(ps, ps[1:]):
        if b["start"] <= a["end"] + rules["min_rest_minutes"]:
            return f"{a['id']} and {b['id']} overlap or leave too little rest"
    days = [(p["start"] // MINUTES_PER_DAY, p["end"] // MINUTES_PER_DAY)
            for p in ps]
    days_on = sum(last - first + 1 for first, last in days)
    if days_on > rules["max_days_on"]:
        return f"{days_on} days on"
    hours = sum(p["flight_hours"] for p in ps)
    if hours > rules["max_flight_hours"]:
        return f"{hours} flight hours"
    month = inst["month_days"]
    on = [False] * month
    for first, last in days:
        for d in range(max(first, 0), min(last, month - 1) + 1):
            on[d] = True
    best = run = 0
    for day_on in on:
        run = 0 if day_on else run + 1
        best = max(best, run)
    if best < rules["min_consecutive_days_off"]:
        return f"longest run of days off is {best}"
    return None


def score_vector(inst: dict, partition: dict) -> list[int]:
    return [
        sum(inst["scores"].get(pilot, {}).get(pid, 0)
            for pid in partition.get(pilot, []))
        for pilot in inst["pilots"]
    ]


def check_solution(inst: dict, sol: dict, expected: list[int]) -> None:
    """Raise CheckError unless `sol` is a legal, self-consistent,
    bound-respecting answer to `inst` whose score vector is `expected`."""
    rules = {k: inst.get(k, v) for k, v in DEFAULT_RULES.items()}
    pairings = {p["id"]: p for p in inst["pairings"]}
    schedules = sol["schedules"]
    if sorted(schedules) != sorted(inst["pilots"]):
        raise CheckError("schedules do not name exactly the instance's pilots")

    assigned: dict[str, int] = {}
    for pilot in inst["pilots"]:
        for pid in schedules[pilot]:
            if pid not in pairings:
                raise CheckError(f"unknown pairing {pid!r}")
            assigned[pid] = assigned.get(pid, 0) + 1
    twice = sorted(pid for pid, k in assigned.items() if k > 1)
    missing = sorted(set(pairings) - set(assigned))
    if twice or missing:
        raise CheckError(f"assigned more than once: {twice}; "
                         f"unassigned: {missing}")

    for pilot in inst["pilots"]:
        err = _schedule_errors(inst, rules, pairings, schedules[pilot])
        if err:
            raise CheckError(f"illegal schedule for {pilot}: {err}")

    vector = sol["score_vector"]
    if score_vector(inst, schedules) != vector:
        raise CheckError("score vector does not match the schedules")
    if _lex_cmp(sol["lower_bound"], vector, BOUND_TOL) > 0:
        raise CheckError("score vector is below the lower bound")
    if _lex_cmp(vector, sol["upper_bound"], BOUND_TOL) > 0:
        raise CheckError("score vector is above the upper bound")
    if _lex_cmp(vector, score_vector(inst, inst["initial_partition"])) < 0:
        raise CheckError("score vector is below the initial partition's")
    if vector != expected:
        raise CheckError(f"score vector {vector} != reference {expected}")
