"""scripts/ladder.py: one result line per month."""

import importlib.util
import os

from lexpbs import llp

_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "ladder.py")


def load_ladder():
    spec = importlib.util.spec_from_file_location("ladder", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_counts_the_solves_pivots_and_factorizations(tmp_path):
    # The 3x9 month of seed 1 stops after one master solve, warm-started
    # from the initial partition and without branching: it factors its
    # starting basis and then each pivot's.
    ladder = load_ladder()
    pivot, lu_factor = llp._Simplex._pivot, llp.lu_factor
    line = ladder.solve(str(tmp_path), 1, 3, 9)
    assert (llp._Simplex._pivot, llp.lu_factor) == (pivot, lu_factor)
    fields = line.split()
    assert fields[:3] == ["s1-3x9", "exit", "0"]
    values = dict(zip(fields[5::2], fields[6::2]))
    assert values["iterations"] == "1" and values["nodes"] == "0/0"
    pivots, lu = int(values["pivots"]), int(values["lu"])
    assert pivots >= 1 and lu == pivots + 1
