"""Instance I/O, generation, and the command-line driver."""

import dataclasses
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
from lexpbs.lexcore import LexValue
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
        for sizes, message in ((["-m", "4", "-n", "2"], "pairing per pilot"),
                               (["-m", "0", "-n", "5"], "one pilot"),
                               (["-m", "2", "-n", "4", "--month-days", "-3"],
                                "month_days must be at least 1")):
            code = main(["generate", *sizes, "-o", str(tmp_path / "x.json")])
            assert code == EXIT_INPUT_ERROR
            assert message in capsys.readouterr().err

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

    def test_unreadable_json(self, tmp_path, capsys):
        # Bytes that are not UTF-8, arrays nested past the parser's
        # recursion limit, and an integer past Python's 4,300-digit
        # conversion limit.
        for name, text in (("bytes.json", b"\xff\xfe"),
                           ("deep.json", b"[" * 200_000 + b"]" * 200_000),
                           ("digits.json", b"[1" + b"0" * 5000 + b"]")):
            path = tmp_path / name
            path.write_bytes(text)
            out = tmp_path / "out.json"
            code = main(["solve", str(path), "-o", str(out)])
            assert code == EXIT_INPUT_ERROR
            assert f"error: {path}: unreadable JSON: " \
                in capsys.readouterr().err
            assert not out.exists()

    def test_huge_max_days_on_means_no_limit(self, tmp_path, capsys):
        # An int limit past float range is valid; it solves like a limit
        # of the month's length.
        data = instance_to_dict(generate(4, 3, 9))
        vectors = []
        for limit in (10 ** 400, data["month_days"]):
            inst, sol = tmp_path / "inst.json", tmp_path / "sol.json"
            inst.write_text(json.dumps({**data, "max_days_on": limit}))
            assert main(["solve", str(inst), "--check-oracle",
                         "-o", str(sol)]) == EXIT_OK
            vectors.append(json.loads(sol.read_text())["score_vector"])
        assert vectors[0] == vectors[1]

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json"),
                     "-o", str(tmp_path / "out.json")])
        assert code == EXIT_INPUT_ERROR

    # A path in a missing directory cannot be written: each command
    # reports it and exits 2.
    @staticmethod
    def _unwritable(tmp_path, capsys, args):
        bad = str(tmp_path / "missing" / "out.json")
        assert main([*args, bad]) == EXIT_INPUT_ERROR
        assert f"error: cannot write {bad}: " in capsys.readouterr().err

    @staticmethod
    def _instance(tmp_path):
        inst = tmp_path / "inst.json"
        main(["generate", "--seed", "1", "-m", "2", "-n", "4",
              "-o", str(inst)])
        return str(inst)

    def test_generate_to_an_unwritable_path(self, tmp_path, capsys):
        self._unwritable(tmp_path, capsys,
                         ["generate", "--seed", "1", "-m", "2", "-n", "4",
                          "-o"])

    def test_solve_to_an_unwritable_path(self, tmp_path, capsys):
        self._unwritable(tmp_path, capsys,
                         ["solve", self._instance(tmp_path), "-o"])

    def test_unwritable_stats_path_leaves_no_solution(self, tmp_path,
                                                       capsys):
        sol = tmp_path / "sol.json"
        self._unwritable(tmp_path, capsys,
                         ["solve", self._instance(tmp_path), "-o", str(sol),
                          "--stats-out"])
        assert not sol.exists()

    def test_stats_path_equal_to_the_solution_path(self, tmp_path, capsys,
                                                   monkeypatch):
        # Writing the stats over the solution would lose the solution.
        inst = self._instance(tmp_path)
        monkeypatch.chdir(tmp_path)
        for stats in ("same.json", "./same.json"):
            code = main(["solve", inst, "-o", "same.json",
                         "--stats-out", stats])
            assert code == EXIT_INPUT_ERROR
            assert f"error: --stats-out {stats} is the solution file " \
                "same.json" in capsys.readouterr().err
            assert not (tmp_path / "same.json").exists()

    def test_output_path_equal_to_the_instance_path(self, tmp_path, capsys,
                                                    monkeypatch):
        # Writing the solution or the stats over the instance would lose
        # the instance.
        self._instance(tmp_path)
        before = (tmp_path / "inst.json").read_bytes()
        monkeypatch.chdir(tmp_path)
        for flag, path, args in (("-o", "inst.json", []),
                                 ("-o", "./inst.json", []),
                                 ("--stats-out", "inst.json",
                                  ["-o", "sol.json"])):
            code = main(["solve", "inst.json", *args, flag, path])
            assert code == EXIT_INPUT_ERROR
            assert f"error: {flag} {path} is the instance file inst.json" \
                in capsys.readouterr().err
            assert (tmp_path / "inst.json").read_bytes() == before
            assert os.listdir(tmp_path) == ["inst.json"]

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
        # Pilot lists that are empty, repeat an id, or are not a list,
        # in a month with no pairings (which is valid with one pilot).
        no_pairings = {**data, "pairings": [], "scores": {},
                       "initial_partition": {}}
        # A pairing that starts two days before the month: day -2 to 1.
        early_start = {
            "schema_version": 1, "month_days": 8, "pilots": ["a", "b"],
            "pairings": [
                {"id": "p", "start": -2000, "end": 1540, "flight_hours": 5},
                {"id": "q", "start": 10090, "end": 10580, "flight_hours": 5},
            ],
            "scores": {"a": {"p": 3, "q": 1}, "b": {"q": 2}},
            "initial_partition": {"a": ["p"], "b": ["q"]},
        }
        # Negative flight hours: pricing prunes each path prefix above the
        # limit of 10, but {a, b, c} sums to 8 hours, so the month would
        # solve to a wrong optimum.
        negative_hours = {
            "schema_version": 1, "month_days": 30, "pilots": ["x", "y"],
            "max_flight_hours": 10,
            "pairings": [
                {"id": pid, "start": 3 * d * 1440 + 360,
                 "end": (3 * d + 1) * 1440 + 1200, "flight_hours": hours}
                for d, (pid, hours) in enumerate(
                    (("a", 8), ("b", 8), ("c", -8)))],
            "scores": {"x": {"a": 10, "b": 10, "c": 10}},
            "initial_partition": {"x": ["a"], "y": ["b", "c"]},
        }
        nan_hours = json.loads(json.dumps(data))
        nan_hours["pairings"][0]["flight_hours"] = float("nan")
        unknown_pairing = json.loads(json.dumps(data))
        unknown_pairing["scores"][pilots[0]]["zz"] = 1
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
                             # Valid, but no schedule rests that long.
                             ({**data,
                               "min_consecutive_days_off": 10 ** 400},
                              "is infeasible"),
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
                             (schedule_string, "initial_partition must map"),
                             ({**no_pairings, "pilots": []},
                              "at least one pilot"),
                             ({**no_pairings, "pilots": [pilots[0]] * 2},
                              "duplicate pilot ids"),
                             ({**no_pairings, "pilots": "ab"},
                              "pilots must be a list"),
                             (early_start, "starts at minute -2000"),
                             (negative_hours,
                              "pairing c has -8.0 flight hours"),
                             (nan_hours, "nan flight hours"),
                             ({**data, "schema_version": 2},
                              "unsupported schema_version 2"),
                             (unknown_pairing,
                              "score for unknown pairing 'zz'"),
                             ({**no_pairings, "pilots": [pilots[0]],
                               "month_days": -3},
                              "month_days must be at least 1")):
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
        # The removed tolerance, pruning and pricing-width switches are
        # usage errors.
        for option in (["--eps", "1e-6"], ["--no-bounds"], ["--K", "2"],
                       ["--columns-per-iter", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(["solve", str(inst), *option, "-o", str(out)])
            assert exc.value.code == EXIT_INPUT_ERROR
            assert "unrecognized arguments" in capsys.readouterr().err
            assert not out.exists()
        # The remaining switches solve.
        assert main(["solve", str(inst), "--no-reduction", "--check-oracle",
                     "-o", str(out)]) == EXIT_OK

    def test_scores_beyond_the_limit_rejected(self, tmp_path, capsys):
        # Scaled by 1e5 (max 1e7), this month once exited 0 with a
        # wrong "optimal" vector, [24500000, 23900000, 2300000, 0]
        # against the oracle's [24500000, 28700000, 7700000, 0].
        inst, out = tmp_path / "inst.json", tmp_path / "out.json"
        main(["generate", "--seed", "80", "-m", "4", "-n", "10",
              "-o", str(inst)])
        data = json.loads(inst.read_text())
        scaled = {pilot: {pid: g * 100000 for pid, g in row.items()}
                  for pilot, row in data["scores"].items()}
        pilot, row = next(iter(data["scores"].items()))
        pid = next(iter(row))
        for scores, code, message in (
                (scaled, EXIT_INPUT_ERROR,
                 f"scores {scaled[pilot][pid]} on pairing {pid}"),
                ({**data["scores"], pilot: {**row, pid: -1001}},
                 EXIT_INPUT_ERROR, f"pilot {pilot} scores -1001"),
                ({**data["scores"], pilot: {**row, pid: 1000}}, EXIT_OK,
                 "")):
            inst.write_text(json.dumps({**data, "scores": scores}))
            assert main(["solve", str(inst), "--check-oracle",
                         "-o", str(out)]) == code
            assert message in capsys.readouterr().err
            assert out.exists() == (code == EXIT_OK)

    def test_solve_flags_are_pinned(self):
        # Each solve option is named here, so that a new one shows up as
        # a change to this test.
        solve = cli.build_parser()._subparsers._group_actions[0] \
            .choices["solve"]
        assert {flag for action in solve._actions
                for flag in action.option_strings} == {
            "-h", "--help", "-o", "--output", "--stats-out",
            "--no-reduction", "--check-oracle"}
        assert [action.dest for action in solve._actions
                if not action.option_strings] == ["instance"]

    def test_pairing_ids_o_and_d(self, tmp_path, capsys):
        # The DAG's month-boundary vertices equal no pairing id.
        for pid in ("o", "d"):
            data = {
                "schema_version": 1, "month_days": 30, "pilots": ["x", "y"],
                "pairings": [
                    {"id": pid, "start": 360, "end": 1440 + 1200,
                     "flight_hours": 8},
                    {"id": "b", "start": 3 * 1440 + 360,
                     "end": 4 * 1440 + 1200, "flight_hours": 8}],
                "scores": {"x": {pid: 5, "b": 3}, "y": {pid: 1, "b": 2}},
                "initial_partition": {"x": [pid], "y": ["b"]},
            }
            inst, out = tmp_path / "inst.json", tmp_path / "out.json"
            inst.write_text(json.dumps(data))
            assert main(["solve", str(inst), "--check-oracle",
                         "-o", str(out)]) == EXIT_OK
            assert json.loads(out.read_text())["schedules"] == {
                "x": [pid, "b"], "y": []}

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

    def test_options_do_not_leak_into_the_next_call(self, tmp_path, capsys,
                                                    monkeypatch):
        # The parser is built once per process; a second call must still
        # see the defaults the first call overrode.
        inst = tmp_path / "inst.json"
        main(["generate", "--seed", "1", "-m", "2", "-n", "4",
              "-o", str(inst)])
        seen = []

        def record(instance, params):
            seen.append(params)
            raise RuntimeError("recorded")

        monkeypatch.setattr(cli.colgen, "run", record)
        out = str(tmp_path / "out.json")
        main(["solve", str(inst), "--no-reduction", "-o", out])
        main(["solve", str(inst), "-o", out])
        assert [p.use_reduction for p in seen] == [False, True]
        assert cli.build_parser() is cli.build_parser()

    def test_check_oracle_disagreement(self, tmp_path, capsys, monkeypatch):
        inst, out = self._instance(tmp_path), tmp_path / "out.json"
        monkeypatch.setattr(cli, "oracle_pbs",
                            lambda instance: (LexValue((-1, -1)), None))
        code = main(["solve", inst, "--check-oracle", "-o", str(out)])
        assert code == EXIT_SOLVER_ERROR
        assert "disagrees with the brute-force oracle" \
            in capsys.readouterr().err
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


class TestAnswerCheck:
    """A solver answer that is no partition, or does not score its
    value, is a solver failure and writes no solution file."""

    def test_faulty_answers(self, tmp_path, capsys, monkeypatch):
        inst = tmp_path / "inst.json"
        main(["generate", "--seed", "2", "-m", "3", "-n", "9",
              "-o", str(inst)])
        instance = cli.load_instance(str(inst))
        answer = cli.colgen.run(instance)
        schedules = answer.schedules
        holder = next(i for i, sched in enumerate(schedules) if sched)
        other = (holder + 1) % len(schedules)
        pid = schedules[holder][0]
        everything = sorted(p.id for p in instance.pairings)
        assert not is_feasible(instance, everything)

        def replaced(i, sched):
            return [sched if j == i else s for j, s in enumerate(schedules)]

        faults = (
            ({"schedules": replaced(other, schedules[other] + [pid])},
             f"pairing {pid!r} assigned twice"),
            ({"schedules": replaced(holder, schedules[holder][1:])},
             f"does not cover pairings [{pid!r}]"),
            ({"schedules": [everything] + [[]] * (len(schedules) - 1)},
             f"schedule of pilot {instance.pilot_ids[0]} is infeasible"),
            ({"value": answer.value + LexValue((1,) + (0,) * (
                len(schedules) - 1))},
             "score vector does not match the schedules"),
        )
        out = tmp_path / "out.json"
        for fault, message in faults:
            faulty = dataclasses.replace(answer, **fault)
            monkeypatch.setattr(cli.colgen, "run",
                                lambda instance, params: faulty)
            code = main(["solve", str(inst), "-o", str(out)])
            assert code == EXIT_SOLVER_ERROR
            err = capsys.readouterr().err
            assert err.startswith("solver failure: ") and message in err
            assert not out.exists()


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
