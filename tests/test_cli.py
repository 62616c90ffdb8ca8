"""Instance I/O, generation, and the command-line driver."""

import json

import numpy as np
import pytest

from lexpbs import cli
from lexpbs.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_SOLVER_ERROR,
    GenerationError,
    generate,
    instance_from_dict,
    instance_to_dict,
    main,
)
from conftest import day_pairing, make_instance
from lexpbs.pbs import is_feasible


def rules_instance(**rules):
    """Three pilots, five pairings.  Under the default rules the optimum
    is (30, 10, 0); at most 10 days on and more than 600 minutes of
    rest between pairings (e ends 600 minutes before f starts) make it
    (20, 5, 2)."""
    pairings = [day_pairing("a", 0, 4), day_pairing("b", 6, 10),
                day_pairing("c", 12, 13), day_pairing("e", 16, 16),
                day_pairing("f", 17, 17)]
    scores = [[10, 10, 10, 0, 0], [0, 0, 0, 5, 5], [1, 1, 1, 1, 1]]
    inst = make_instance(pairings, scores, [["a", "b"], ["e"], ["c", "f"]])
    for name, value in rules.items():
        setattr(inst, name, value)
    return inst


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = instance_to_dict(generate(1, 2, 4))
        b = instance_to_dict(generate(1, 2, 4))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_partition_is_feasible(self):
        for seed in range(6):
            inst = generate(seed, 3, 8)
            inst.validate()
            for sched in inst.initial_partition:
                assert is_feasible(inst, sched)

    def test_needs_enough_pairings(self):
        with pytest.raises(GenerationError):
            generate(0, 4, 3)


class TestRoundTrip:
    def test_instance_round_trip(self):
        inst = generate(2, 3, 7)
        again = instance_from_dict(instance_to_dict(inst))
        assert again.pilot_ids == inst.pilot_ids
        assert again.pairings == inst.pairings
        assert np.array_equal(again.scores, inst.scores)
        assert [sorted(s) for s in again.initial_partition] \
            == [sorted(s) for s in inst.initial_partition]
        assert again.month_days == inst.month_days

    def test_rule_limits_round_trip(self):
        inst = rules_instance(max_days_on=10, min_rest_minutes=600)
        data = json.loads(json.dumps(instance_to_dict(inst)))
        again = instance_from_dict(data)
        assert (again.max_days_on, again.max_flight_hours,
                again.min_rest_minutes, again.min_consecutive_days_off) \
            == (10, 85.0, 600, 7)
        # A file without the rule keys loads with the default rules.
        for name in cli.RULE_TYPES:
            del data[name]
        plain = instance_from_dict(data)
        assert (plain.max_days_on, plain.min_rest_minutes) == (17, 0)

    def test_serialized_form_is_stable(self):
        inst = generate(2, 3, 7)
        d = instance_to_dict(inst)
        assert json.dumps(d, sort_keys=True) \
            == json.dumps(instance_to_dict(instance_from_dict(d)),
                          sort_keys=True)


class TestCommands:
    def test_generate_command(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert main(["generate", "--seed", "1", "-m", "2", "-n", "4",
                     "-o", str(out)]) == EXIT_OK
        first = out.read_bytes()
        assert main(["generate", "--seed", "1", "-m", "2", "-n", "4",
                     "-o", str(out)]) == EXIT_OK
        assert out.read_bytes() == first

    def test_generate_command_rejects_bad_sizes(self, tmp_path, capsys):
        code = main(["generate", "-m", "4", "-n", "2",
                     "-o", str(tmp_path / "x.json")])
        assert code == EXIT_INPUT_ERROR
        assert "error" in capsys.readouterr().err

    def test_solve_roundtrip_and_determinism(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["generate", "--seed", "1", "-m", "2", "-n", "4",
              "-o", str(inst)])
        sol1, sol2 = tmp_path / "s1.json", tmp_path / "s2.json"
        st1, st2 = tmp_path / "t1.json", tmp_path / "t2.json"
        args = [str(inst), "--check-oracle"]
        assert main(["solve", *args, "-o", str(sol1),
                     "--stats-out", str(st1)]) == EXIT_OK
        assert main(["solve", *args, "-o", str(sol2),
                     "--stats-out", str(st2)]) == EXIT_OK
        assert sol1.read_bytes() == sol2.read_bytes()
        assert st1.read_bytes() == st2.read_bytes()
        data = json.loads(sol1.read_text())
        assert set(data["schedules"]) == {"pilot01", "pilot02"}
        assert len(data["score_vector"]) == 2

    def test_solve_applies_rule_limits_from_file(self, tmp_path, capsys):
        for rules, want in (({}, [30, 10, 0]),
                            ({"max_days_on": 10, "min_rest_minutes": 600},
                             [20, 5, 2])):
            inst = tmp_path / "inst.json"
            cli.dump_json(instance_to_dict(rules_instance(**rules)),
                          str(inst))
            sol = tmp_path / "sol.json"
            assert main(["solve", str(inst), "-o", str(sol)]) == EXIT_OK
            data = json.loads(sol.read_text())
            assert data["score_vector"] == want

    def test_no_reduction_same_value(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["generate", "--seed", "5", "-m", "3", "-n", "7",
              "-o", str(inst)])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["solve", str(inst), "-o", str(a)]) == EXIT_OK
        assert main(["solve", str(inst), "--no-reduction",
                     "-o", str(b)]) == EXIT_OK
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["score_vector"] == db["score_vector"]
        assert db["stats"]["reduction_saved_paths"] == 0

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
        code = main(["solve", str(bad), "-o", str(tmp_path / "out.json")])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "line 3" in err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "out.json")])
        assert code == EXIT_INPUT_ERROR

    def test_semantic_validation_error(self, tmp_path, capsys):
        inst = generate(1, 2, 4)
        data = instance_to_dict(inst)
        # Assign the same pairing to both pilots.
        pilots = data["pilots"]
        pid = data["initial_partition"][pilots[0]][0]
        data["initial_partition"][pilots[1]].append(pid)
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        code = main(["solve", str(path), "-o", str(tmp_path / "out.json")])
        assert code == EXIT_INPUT_ERROR
        assert "twice" in capsys.readouterr().err

    def test_solver_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "inst.json"
        main(["generate", "--seed", "1", "-m", "2", "-n", "4",
              "-o", str(inst)])

        def boom(instance, params):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli.colgen, "run", boom)
        code = main(["solve", str(inst), "-o", str(tmp_path / "out.json")])
        assert code == EXIT_SOLVER_ERROR
        assert "solver failure" in capsys.readouterr().err
