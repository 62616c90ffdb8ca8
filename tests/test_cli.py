"""Instance I/O, generation, and the command-line driver."""

import json
import os
import subprocess
import sys

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
from conftest import rules_instance
from lexpbs.oracle import oracle_pbs
from lexpbs.pbs import is_feasible


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

    def test_integral_floats_load_as_integers(self):
        inst = rules_instance(max_days_on=10, min_rest_minutes=600)
        data = instance_to_dict(inst)
        data["max_days_on"], data["min_rest_minutes"] = 10.0, 600.0
        data["pairings"][0]["end"] = float(data["pairings"][0]["end"])
        again = instance_from_dict(data)
        assert (again.max_days_on, again.min_rest_minutes) == (10, 600)
        assert again.pairings == inst.pairings

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
            assert main(["solve", str(inst), "--check-oracle",
                         "-o", str(sol)]) == EXIT_OK
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
        data = instance_to_dict(generate(1, 2, 4))
        # Assign the same pairing to both pilots.
        pilots = data["pilots"]
        pid = data["initial_partition"][pilots[0]][0]
        twice = json.loads(json.dumps(data))
        twice["initial_partition"][pilots[1]].append(pid)
        # A fractional score and a fractional pairing start.
        fractional_score = json.loads(json.dumps(data))
        fractional_score["scores"][pilots[0]][pid] = 22.9
        fractional_start = json.loads(json.dumps(data))
        fractional_start["pairings"][0]["start"] += 0.5
        # Strings in numeric fields and booleans in float fields.
        string_score = json.loads(json.dumps(data))
        string_score["scores"][pilots[0]][pid] = "22"
        string_end = json.loads(json.dumps(data))
        string_end["pairings"][0]["end"] = str(string_end["pairings"][0]["end"])
        string_hours = json.loads(json.dumps(data))
        string_hours["pairings"][0]["flight_hours"] = "5.5"
        boolean_hours = json.loads(json.dumps(data))
        boolean_hours["pairings"][0]["flight_hours"] = True
        # Scores and a schedule keyed by a pilot id not in "pilots".
        unknown_score = json.loads(json.dumps(data))
        unknown_score["scores"]["pilotXX"] = \
            unknown_score["scores"].pop(pilots[0])
        unknown_schedule = json.loads(json.dumps(data))
        unknown_schedule["initial_partition"]["pilotXX"] = \
            unknown_schedule["initial_partition"].pop(pilots[0])
        # Wrongly typed score and schedule containers.
        scores_list = {**data, "scores": []}
        pilot_scores_list = {**data, "scores": {pilots[0]: []}}
        partition_list = {**data, "initial_partition": []}
        schedule_string = {**data, "initial_partition": {pilots[0]: pid}}
        # Out-of-range rule limits; json writes NaN and Infinity as such.
        # Fractions and booleans in integer fields are errors too, and
        # strings in any numeric field.
        for bad, message in ((twice, "twice"),
                             ({**data, "min_rest_minutes": -100000},
                              "min_rest_minutes"),
                             ({**data, "max_flight_hours": float("nan")},
                              "max_flight_hours"),
                             ({**data, "max_days_on": float("inf")},
                              "infinity"),
                             ({**data, "max_days_on": 17.9},
                              "max_days_on"),
                             ({**data, "min_rest_minutes": 0.7},
                              "min_rest_minutes"),
                             ({**data, "min_consecutive_days_off": True},
                              "min_consecutive_days_off"),
                             ({**data, "month_days": 30.5}, "month_days"),
                             (fractional_score, "score"),
                             (fractional_start, "start"),
                             ({**data, "max_days_on": "17"}, "max_days_on"),
                             ({**data, "month_days": "30"}, "month_days"),
                             ({**data, "max_flight_hours": "85"},
                              "max_flight_hours"),
                             ({**data, "max_flight_hours": True},
                              "max_flight_hours"),
                             (string_score, "score"),
                             (string_end, "end"),
                             (string_hours, "flight_hours"),
                             (boolean_hours, "flight_hours"),
                             (unknown_score,
                              "scores for unknown pilots ['pilotXX']"),
                             (unknown_schedule, "initial_partition for "
                              "unknown pilots ['pilotXX']"),
                             (scores_list, "scores must map pilot ids to "
                              "objects"),
                             (pilot_scores_list, "scores must map"),
                             (partition_list, "initial_partition must map "
                              "pilot ids to lists"),
                             (schedule_string, "initial_partition must map")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(bad))
            code = main(["solve", str(path),
                         "-o", str(tmp_path / "out.json")])
            assert code == EXIT_INPUT_ERROR
            assert message in capsys.readouterr().err

    def test_invalid_solver_options(self, tmp_path, capsys):
        inst, out = tmp_path / "inst.json", tmp_path / "out.json"
        main(["generate", "--seed", "1", "-m", "2", "-n", "4",
              "-o", str(inst)])
        for option, message in ((["--columns-per-iter", "0"], "n_columns"),
                                (["--K", "0"], "K must be"),
                                (["--K", "-3"], "K must be"),
                                (["--eps", "nan"], "eps"),
                                (["--eps", "inf"], "eps"),
                                (["--eps", "-1"], "eps")):
            code = main(["solve", str(inst), *option, "-o", str(out)])
            assert code == EXIT_INPUT_ERROR
            assert message in capsys.readouterr().err
            assert not out.exists()
        # The smallest valid values solve.
        assert main(["solve", str(inst), "--columns-per-iter", "1",
                     "--K", "1", "--eps", "0", "--check-oracle",
                     "-o", str(out)]) == EXIT_OK

    def test_check_oracle_beyond_its_reach(self, tmp_path, capsys):
        inst, out = tmp_path / "inst.json", tmp_path / "out.json"
        for m, n in ((5, 5), (2, 13)):
            main(["generate", "--seed", "1", "-m", str(m), "-n", str(n),
                  "-o", str(inst)])
            code = main(["solve", str(inst), "--check-oracle",
                         "-o", str(out)])
            assert code == EXIT_INPUT_ERROR
            assert "--check-oracle" in capsys.readouterr().err
            assert not out.exists()

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


class TestOptimizedInterpreter:
    def test_solve_under_python_O(self, tmp_path):
        # `python -O` strips asserts, so none may carry control flow: a
        # solve there still exits 0 with the oracle's optimum, and its
        # --check-oracle run takes the oracle's own checks too.
        inst, out = tmp_path / "inst.json", tmp_path / "out.json"
        main(["generate", "--seed", "2", "-m", "3", "-n", "9",
              "-o", str(inst)])
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-c",
             "import sys; from lexpbs.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "solve", str(inst), "--check-oracle", "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        value, _ = oracle_pbs(cli.load_instance(str(inst)))
        assert json.loads(out.read_text())["score_vector"] \
            == [round(v) for v in value]
