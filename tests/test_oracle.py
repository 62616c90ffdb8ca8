"""Brute-force reference solvers and their guards."""

import numpy as np
import pytest

from conftest import day_pairing, make_instance
from lexpbs.cli import generate
from lexpbs.lexcore import LexValue
from lexpbs.llp import LlpProblem
from lexpbs.oracle import (
    OracleGuardError,
    oracle_llp,
    oracle_paths,
    oracle_pbs,
)
from lexpbs.pbs import DEST, ORIGIN, ScheduleResourceSpace, build_dag
from lexpbs.rclpp import Arc, Dag


class TestOraclePbs:
    def test_single_pilot_single_pairing(self):
        inst = make_instance([day_pairing("p", 0, 2)], [[5]], [["p"]])
        value, assignment = oracle_pbs(inst)
        assert value == LexValue((5,))
        assert assignment == [["p"]]

    def test_level_two_tiebreak(self):
        inst = make_instance(
            [day_pairing("p1", 0, 3), day_pairing("p2", 2, 5)],
            [[50, 50], [90, 10]], [["p1"], ["p2"]],
        )
        value, assignment = oracle_pbs(inst)
        assert value == LexValue((50, 90))
        assert assignment[1] == ["p1"]

    def test_guard(self):
        inst = generate(0, 3, 13)
        with pytest.raises(OracleGuardError):
            oracle_pbs(inst)

    def test_deterministic(self):
        inst = generate(4, 3, 8)
        assert oracle_pbs(inst) == oracle_pbs(inst)


class _FreeSpace:
    """Every path feasible, cost zero; exercises the path-count guard.
    It has the methods `oracle_paths` reads."""

    def initial(self, vertex):
        return 0

    def extend(self, arc, r):
        return 0

    def cost(self, r):
        return LexValue((0.0,))


class TestOraclePaths:
    def test_single_arc(self):
        dag = Dag(["o", "d"], [Arc("o", "d")], "o", "d")
        assert len(oracle_paths(dag, _FreeSpace())) == 1

    def test_diamond(self):
        dag = Dag(
            ["o", "a", "b", "d"],
            [Arc("o", "a"), Arc("o", "b"), Arc("a", "d"), Arc("b", "d")],
            "o", "d",
        )
        assert len(oracle_paths(dag, _FreeSpace())) == 2

    def test_infeasible_paths_excluded(self):
        inst = make_instance(
            [day_pairing("a", 0, 2, hours=50.0),
             day_pairing("b", 10, 12, hours=40.0)],
            [[1, 1]], [["a"], []][:1],
        )
        space = ScheduleResourceSpace.from_costs(
            inst, {"a": (1.0,), "b": (1.0,)}, (0.0,), 1)
        paths = oracle_paths(build_dag(inst), space)
        # The two-pairing path busts the flight-hour cap.
        assert sorted(tuple(p.vertices) for p in paths) == [
            (ORIGIN, "a", DEST), (ORIGIN, "b", DEST)
        ]

    def test_path_count_guard(self):
        vertices = ["o", "d"]
        arcs = []
        prev = ["o"]
        for layer in range(15):
            cur = [f"v{layer}_{i}" for i in range(2)]
            vertices += cur
            arcs += [Arc(p, c) for p in prev for c in cur]
            prev = cur
        arcs += [Arc(p, "d") for p in prev]
        dag = Dag(vertices, arcs, "o", "d")
        with pytest.raises(OracleGuardError):
            oracle_paths(dag, _FreeSpace())


class TestOracleLlp:
    def test_fixtures(self):
        p1 = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 0], [0, 1]])
        assert oracle_llp(p1)[0] == LexValue((1, 0))
        p2 = LlpProblem(A=[[1, 1]], b=[1], C=[[1, 1], [0, 1]])
        assert oracle_llp(p2)[0] == LexValue((1, 1))

    def test_infeasible(self):
        p = LlpProblem(A=[[1], [1]], b=[1, 2], C=[[1]])
        assert oracle_llp(p) == (None, None)

    def test_guard(self):
        p = LlpProblem(A=np.ones((1, 11)), b=[1], C=np.ones((1, 11)))
        with pytest.raises(OracleGuardError):
            oracle_llp(p)
