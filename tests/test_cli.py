"""CLI behavior: output formats, exit codes, certificate files."""

import json
import re
from pathlib import Path

import pytest

from dualitymap import cli, serialize
from dualitymap.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_eval_lp_identity(capsys):
    code = main(["eval", "--space", "lp", "--p", "2", "--vector", "[3, 4]"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out == [3.0, 4.0]


def test_eval_lp_roundtrip(capsys):
    code = main(["eval", "--space", "lp", "--p", "3", "--vector", "[1, 1]"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out == pytest.approx([2.0 ** (-1.0 / 3.0)] * 2)


def test_eval_l1_classification(capsys):
    code = main(
        ["eval", "--space", "l1", "--weights", "[1,1,1]", "--values", "[2,0,-1]"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["singleton"] is False
    assert out["free_points"] == [1]
    assert out["selection"] == [3.0, 0.0, -3.0]


def test_eval_c01_tent(capsys):
    code = main(["eval", "--space", "c01", "--f", "tent"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["maximizing_set"]["atoms"] == [0.5]
    assert out["selection"]["atoms"] == [[0.5, 1.0]]


def test_eval_malformed(capsys):
    assert main(["eval", "--space", "lp", "--p", "2", "--vector", "oops"]) == 2
    assert main(["eval", "--space", "lp", "--vector", "[1,2]"]) == 2
    assert main(["eval", "--space", "l1", "--weights", "[1,1]", "--values", "[1]"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["eval", "--space", "l1", "--values", "[1]"], "--space l1 requires --weights"),
    (["suite", "--space", "l1"], "--space l1 requires --weights"),
    (["eval", "--space", "lp", "--p", "2"], "--space lp requires --vector"),
    (["eval", "--space", "l1", "--weights", "[1]"], "--space l1 requires --values"),
    (["eval", "--space", "c01"], "--space c01 requires --f"),
])
def test_a_missing_element_or_weights_exits_2_naming_the_option(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["eval", "--space", "lp", "--p", "2", "--vector", "[1, 2]", "--values", "[3]"], "--space lp does not take --values"),
    (["eval", "--space", "c01", "--f", "tent", "--p", "2"], "--space c01 does not take --p"),
    (["eval", "--space", "l1", "--weights", "[1]", "--values", "[1]", "--f", "tent"], "--space l1 does not take --f"),
    (["suite", "--space", "c01", "--p", "7"], "--space c01 does not take --p"),
    (["suite", "--space", "lp", "--p", "2", "--weights", "[1]"], "--space lp does not take --weights"),
])
def test_an_option_of_another_space_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, message):
    # used to be ignored, exit 0
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_negative_suite_seed_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    # used to print numpy's "expected non-negative integer", without the option's name
    calls, call = [], cli.run_appendix_battery
    monkeypatch.setattr(cli, "run_appendix_battery", lambda *args: calls.append(args) or call(*args))
    out = tmp_path / "report.json"
    assert main(["suite", "--space", "lp", "--p", "2", "--samples", "5", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_a_suite_sample_count_below_1_is_refused_before_any_work(tmp_path, capsys, monkeypatch, samples):
    # used to name the library's sample_count, not the option
    calls, call = [], cli.run_appendix_battery
    monkeypatch.setattr(cli, "run_appendix_battery", lambda *args: calls.append(args) or call(*args))
    out = tmp_path / "report.json"
    assert main(["suite", "--space", "c01", "--samples", samples, "--seed", "1", "--out", str(out)]) == 2
    assert f"--samples must be a positive integer, got {samples}" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_eval_lp_power_overflow_exit_code(capsys):
    # ||x|| ** (p - 2) overflows, but J([1e-320]) = [1e-320]: this used to exit 2
    code = main(["eval", "--space", "lp", "--p", "1.000001", "--vector", "[1e-320]"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == [1e-320]
    # J itself overflows: 2**(1/3) * 1.5e308
    code = main(["eval", "--space", "lp", "--p", "1.5", "--vector", "[1.5e308, 1.5e308]"])
    assert code == 2
    assert "overflows" in capsys.readouterr().err


def test_run_fixture_all_certified(tmp_path, capsys):
    out_file = tmp_path / "certs.json"
    code = main(["run", str(FIXTURES / "all.json"), "--out", str(out_file)])
    captured = capsys.readouterr().out
    assert code == 0
    certs = json.loads(out_file.read_text())
    assert len(certs) == 15
    assert all(c["verdict"] == "certified" for c in certs)
    assert "thm58" in captured


def test_run_empty_scenarios(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"scenarios": []}))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 0


def test_run_hypothesis_violation(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "scenarios": [
                    {
                        "space": {"space": "c01"},
                        "theorem": "thm58",
                        "params": {
                            "f": {"breakpoints": [0.0, 1.0], "values": [1.0, 1.0]},
                            "c": 1.0,
                        },
                    }
                ]
            }
        )
    )
    assert main(["run", str(path)]) == 2
    assert "hypothesis violated: c != 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "theorem, space, params",
    [
        ("thm46", {"space": "l1", "weights": [1, 1, 1]}, {"k_star": [1, 1, -1], "D": [0.7, 1.9]}),
        ("thm46", {"space": "l1", "weights": [1, 1, 1]}, {"k_star": [1, 1, -1], "D": [float("inf")]}),
        ("thm31", {"space": "lp", "p": 2.0}, {"x": [1.0, 2.0], "w": [3.0, -1.0], "m": 0.6}),
    ],
)
def test_run_index_that_is_not_a_finite_integer_exit_code(tmp_path, capsys, theorem, space, params):
    path = tmp_path / "index.json"
    path.write_text(json.dumps([{"space": space, "theorem": theorem, "params": params}]))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert re.search(r"params (m|D\[0\]) must be a finite integer, got", capsys.readouterr().err)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "name, value",
    [
        ("cert_tol", float("inf")),  # makes the bound check vacuous
        ("settle_tol", float("inf")),  # settles any tail, and is not standard JSON in the output
        ("membership_tol", float("nan")),  # used to fail as a pair outside gph J
        ("membership_tol", -1.0),
        pytest.param("cert_tol", 10**400, id="cert_tol-10**400"),  # an integer past the largest float
        ("settle_tol", True),
        ("cert_tol", "1e-6"),
    ],
)
def test_run_rejects_a_tolerance_that_is_not_a_finite_number_at_least_0(tmp_path, capsys, name, value):
    scenario = json.loads((FIXTURES / "all.json").read_text())["scenarios"][1]  # lp thm31, certified
    path = tmp_path / "tolerance.json"
    path.write_text(json.dumps({"tolerances": {name: value}, "scenarios": [scenario]}))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert f"tolerance {name} must be a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_run_rejects_tolerances_that_are_not_an_object(tmp_path, capsys):
    path = tmp_path / "tolerance.json"
    path.write_text(json.dumps({"tolerances": [1e-6], "scenarios": []}))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert "tolerances must be a JSON object" in capsys.readouterr().err


_THM31 = {"space": {"space": "lp", "p": 2.0}, "theorem": "thm31", "params": {"x": [1.0, 2.0], "w": [3.0, -1.0]}}


@pytest.mark.parametrize(
    "data, message",
    [
        ("abc", "a scenario file must hold a JSON list or object"),
        (3, "a scenario file must hold a JSON list or object"),
        ({"scenarios": "abc"}, "scenarios must be a JSON list of objects"),
        ([["lp", "thm31"]], "scenarios must be a JSON list of objects"),
        ([{"space": "lp", "theorem": "thm31"}], "a space descriptor must be a JSON object, got 'lp'"),
        ([{"space": {"space": "lp"}, "theorem": "thm31"}], "a space descriptor needs the key 'p'"),
        ([{"theorem": "thm31"}], "a scenario needs the key 'space'"),
        ([{"space": {"space": "lp", "p": 2.0}}], "a scenario needs the key 'theorem'"),
        ([{"space": {"space": "l7"}, "theorem": "thm31"}], "unknown space descriptor"),
        # each of these two used to run the scenario with its defaults and certify it
        ({"tolerance": {"cert_tol": 1e3}, "scenarios": [_THM31]},
         "a scenario file has no field 'tolerance'; its fields are scenarios, tolerances, out"),
        ([{**_THM31, "schedul": {"steps": 9}}],
         "a scenario has no field 'schedul'; its fields are space, theorem, params, schedule"),
        # used to exit 2 with "unhashable type: 'list'", naming no field
        ([{**_THM31, "theorem": ["thm31"]}], "theorem must be a string naming a catalog entry, got ['thm31']"),
    ],
    ids=["string", "number", "scenarios-string", "scenario-list", "space-string", "space-no-p",
         "scenario-no-space", "scenario-no-theorem", "space-unknown", "file-tolerance", "scenario-schedul",
         "theorem-list"],
)
def test_run_rejects_a_malformed_scenario_file(tmp_path, capsys, data, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_run_takes_integer_tolerances(tmp_path):
    scenario = json.loads((FIXTURES / "all.json").read_text())["scenarios"][1]
    path = tmp_path / "tolerance.json"
    path.write_text(json.dumps({"tolerances": {"cert_tol": 1, "settle_tol": 1}, "scenarios": [scenario]}))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 0
    cert = json.loads((tmp_path / "out.json").read_text())[0]
    assert (cert["cert_tol"], cert["settle_tol"]) == (1.0, 1.0)


def test_run_takes_a_schedule(tmp_path):
    # lp thm31 at p = 2, t_max 1: the quotient is the same at every t, so it settles on the first 8 t
    scenario = json.loads((FIXTURES / "all.json").read_text())["scenarios"][1]
    # at p = 3, with x != 0, the quotient turns with t, and the schedule's steps cap the samples
    turning = {**scenario, "space": {"space": "lp", "p": 3.0}}
    path, out = tmp_path / "schedule.json", tmp_path / "out.json"
    for row, schedule, ts, code in (
        (scenario, {"t0": 0.125, "ratio": 0.5, "steps": 10}, [0.125 * 0.5**k for k in range(8)], 0),
        (scenario, {"ratio": 0.25}, [0.25 * 0.25**k for k in range(8)], 0),
        (turning, {"steps": 9}, [0.25 * 0.5**k for k in range(9)], 1),  # not settled by the 9th t
        (turning, {}, [0.25 * 0.5**k for k in range(24)], 0),  # {} or null: the curve's default schedule
        (turning, None, [0.25 * 0.5**k for k in range(24)], 0),
    ):
        path.write_text(json.dumps({"scenarios": [{**row, "schedule": schedule}]}))
        assert main(["run", str(path), "--out", str(out)]) == code
        record = json.loads(out.read_text())[0]
        assert record["t"] == ts
        # the echo carries the schedule as given, so the record replays from it
        echo = {"theorem": row["theorem"], "space": row["space"], "params": row["params"], "schedule": schedule}
        assert list(record["scenario"].items()) == list(echo.items())


@pytest.mark.parametrize("key, value, message", [
    # a misspelled tolerance used to be ignored, the run certifying at the default cert_tol
    ("tolerances", {"cert_tols": 1e3}, "tolerances has no field 'cert_tols'"),
    ("schedule", {"t0": True}, "schedule t0 must be a finite number, got True"),  # ran as t0 = 1
    ("schedule", {"t0": float("inf")}, "schedule t0 must be a finite number, got inf"),  # shrank to the window
    ("schedule", {"ratio": float("nan")}, "schedule ratio must be a finite number, got nan"),
    ("schedule", {"steps": 24.0}, "schedule steps must be a finite integer, got 24.0"),  # failed in range()
    ("schedule", {"steps": 10**400}, "schedule steps must be a finite integer"),
    ("schedule", {"step": 24}, "a schedule has no field 'step'"),
    ("schedule", [0.25, 0.5, 24], "a schedule must be a JSON object"),
], ids=["tolerance-misspelled", "t0-true", "t0-inf", "ratio-nan", "steps-float", "steps-huge",
        "schedule-misspelled", "schedule-list"])
def test_run_refuses_tolerances_and_schedules_outside_their_fields(tmp_path, capsys, key, value, message):
    scenario = json.loads((FIXTURES / "all.json").read_text())["scenarios"][1]  # lp thm31, certified
    data = {"tolerances": value, "scenarios": [scenario]} if key == "tolerances" else {
        "scenarios": [{**scenario, "schedule": value}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_run_two_dimensional_c01_values_exit_code(tmp_path, capsys):
    f = {"breakpoints": [0.0, 0.5, 1.0], "values": [[0.0, 1.0, 0.0], [0.0, 2.0, 0.0]]}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([{"space": {"space": "c01"}, "theorem": "thm53", "params": {"f": f}}]))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert "a piecewise-linear function values[0] must be a finite number, got [0.0, 1.0, 0.0]" in capsys.readouterr().err


def test_run_unknown_theorem(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(
        json.dumps(
            {"scenarios": [{"space": {"space": "lp", "p": 2.0}, "theorem": "thm99"}]}
        )
    )
    assert main(["run", str(path)]) == 2


def test_run_refuses_an_out_that_is_not_a_string_before_any_certificate(tmp_path, capsys, monkeypatch):
    # used to certify every row, then exit 2 on writing to the path 5
    calls, certify = [], cli.certify_nonmembership
    monkeypatch.setattr(cli, "certify_nonmembership", lambda *args: calls.append(args) or certify(*args))
    path = tmp_path / "out.json"
    path.write_text(json.dumps({"scenarios": [_THM31], "out": 5}))
    assert main(["run", str(path)]) == 2
    assert "a scenario file's out must be a string path, got 5" in capsys.readouterr().err
    assert calls == []


def test_run_refuses_an_empty_out(tmp_path, capsys):
    # used to be read as no out: the run wrote <file>.certificates.json beside the file and exited 0
    path = tmp_path / "empty_out.json"
    path.write_text(json.dumps({"scenarios": [], "out": ""}))
    assert main(["run", str(path)]) == 2
    assert "a scenario file's out must be a string path, got ''" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, work", [
    (["run", "scenario.json"], "certify_nonmembership"),
    (["suite", "--space", "lp", "--p", "2", "--samples", "5"], "run_appendix_battery"),
], ids=["run", "suite"])
def test_an_empty_out_option_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, work):
    # used to be read as no option: run wrote scenario.certificates.json beside
    # its file, suite wrote suite_report.json in the working directory, both exit 0
    calls, call = [], getattr(cli, work)
    monkeypatch.setattr(cli, work, lambda *args: calls.append(args) or call(*args))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(json.dumps([_THM31]))
    assert main([*command, "--out", ""]) == 2
    assert "--out must be a nonempty path, got ''" in capsys.readouterr().err
    assert calls == []
    assert [f.name for f in tmp_path.iterdir()] == ["scenario.json"]


def test_run_names_an_unknown_theorem_without_quotes(tmp_path, capsys):
    # used to print "error: 'unknown theorem id: thm99'", the repr of the KeyError's message
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps([{**_THM31, "theorem": "thm99"}]))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == "error: scenarios[0]: unknown theorem id: thm99\n"


@pytest.mark.parametrize("m", [{"m": 1}, {}])
def test_run_refuses_a_thm31_bump_at_a_zero_coordinate_when_p_is_below_2(tmp_path, capsys, m):
    # used to certify a limit of 0.4999986 after 8 samples; along x + t e_1 the quotient
    # tends to 0, too slowly for the schedule to see, and w is a member.  Without m the
    # builder picked the same coordinate, as w vanishes on the support of x.
    ok = {"space": {"space": "lp", "p": 1.5}, "theorem": "thm31", "params": {"x": [1.0, 2.0], "w": [0.0, 1.0]}}
    bad = {"space": {"space": "lp", "p": 1.999999}, "theorem": "thm31", "params": {"x": [1.0, 0.0], "w": [0.0, 1.0], **m}}
    path, out = tmp_path / "thm31.json", tmp_path / "out.json"
    path.write_text(json.dumps([ok, bad]))
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: scenarios[1]: hypothesis violated: x_m != 0 at the bump coordinate m = 1, as p < 2 and x != 0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("points, message", [
    ([0.5], "hypothesis violated: points lie in M(u) and M(f)"),  # used to name M(f), where 0.5 lies
    ([], "need at least one atom point"),  # used to be a ZeroDivisionError
])
def test_run_refuses_thm56_points_outside_m_u_naming_the_hypothesis(tmp_path, capsys, points, message):
    # 0.5 is the peak of f; u is 1e-10 below its sup norm there and peaks at 0.25 alone
    f = {"breakpoints": [0.0, 0.25, 0.5, 1.0], "values": [0.0, 0.5, 1.0, 0.0]}
    u = {"breakpoints": [0.0, 0.25, 0.5, 1.0], "values": [0.0, 2.0, 2.0 - 1e-10, 0.0]}
    code, out = _run_one(tmp_path, {"space": {"space": "c01"}, "theorem": "thm56", "params": {"f": f, "u": u, "points": points}})
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == f"error: scenarios[0]: {message}\n"


def test_run_checks_every_scenario_before_the_first_certificate(tmp_path, capsys, monkeypatch):
    # used to certify the 15 fixture rows, then exit 2 with "hypothesis violated: a != 1", naming no scenario
    calls, certify = [], cli.certify_nonmembership
    monkeypatch.setattr(cli, "certify_nonmembership", lambda *args: calls.append(args) or certify(*args))
    data = json.loads((FIXTURES / "all.json").read_text())
    data["scenarios"].append({"space": {"space": "lp", "p": 2.0}, "theorem": "thm33", "params": {"x": [1.0, 0.0], "a": 1.0}})
    path, out = tmp_path / "sixteen.json", tmp_path / "out.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: scenarios[15]: hypothesis violated: a != 1\n"
    assert calls == []
    assert not out.exists()


def test_run_inconclusive_exit_code(tmp_path):
    # p < 2 bump through a coordinate of x far below the sampled t: the quotient
    # still turns at the last t, so the tail is positive but unsettled
    path = tmp_path / "inconclusive.json"
    path.write_text(
        json.dumps(
            {
                "scenarios": [
                    {
                        "space": {"space": "lp", "p": 1.5},
                        "theorem": "thm31",
                        "params": {"x": [1.0, 1e-6], "w": [0.0, 1.0]},
                    }
                ]
            }
        )
    )
    assert main(["run", str(path), "--out", str(tmp_path / "c.json")]) == 1
    cert = json.loads((tmp_path / "c.json").read_text())[0]
    assert cert["verdict"] == "inconclusive"


def test_run_missing_file():
    assert main(["run", "/nonexistent/path.json"]) == 2


def test_suite_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["suite", "--space", "lp", "--p", "2", "--samples", "50", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"]
    names = [rec["property"] for rec in report["records"]]
    assert "pairing_identity" in names and "inverse_roundtrip" in names

    code = main(
        [
            "suite", "--space", "l1", "--weights", "[1,1,1]",
            "--samples", "50", "--seed", "7", "--out", str(tmp_path / "l1.json"),
        ]
    )
    assert code == 0

    code = main(
        ["suite", "--space", "c01", "--samples", "25", "--seed", "7", "--out", str(tmp_path / "c.json")]
    )
    assert code == 0
    report = json.loads((tmp_path / "c.json").read_text())
    names = [rec["property"] for rec in report["records"]]
    assert "maximizing_set_scaling" in names  # the M(tf) = M(f) invariant rows


def test_eval_output_reparses_to_equal_value(capsys):
    main(["eval", "--space", "lp", "--p", "2.5", "--vector", "[2, -1, 0.5]"])
    first = json.loads(capsys.readouterr().out)
    main(["eval", "--space", "lp", "--p", "2.5", "--vector", "[2, -1, 0.5]"])
    second = json.loads(capsys.readouterr().out)
    assert first == second


@pytest.mark.parametrize(
    "scenario, message",
    [
        ({"space": {"space": "lp", "p": 2.0}, "theorem": "thm31", "params": 5},
         "params must be a JSON object, got 5"),
        ({"space": {"space": "lp", "p": 2.0}, "theorem": "thm31", "params": "abc"},
         "params must be a JSON object, got 'abc'"),
        ({"space": {"space": "l1", "weights": [1, 1, 1]}, "theorem": "thm46", "params": {}},
         "params needs the key 'k_star'"),
        ({"space": {"space": "c01"}, "theorem": "thm54", "params": {"f": "tent", "lambda": 5}},
         "a measure must be a JSON object, got 5"),
        ({"space": {"space": "c01"}, "theorem": "thm53", "params": {"f": "tent", "selection": 5}},
         "selection must be a JSON object, got 5"),
        ({"space": {"space": "c01"}, "theorem": "thm53", "params": {"f": "tent", "selection": {"type": "plateau"}}},
         "selection needs the key 'a'"),
        ({"space": {"space": "c01"}, "theorem": "thm53", "params": {"f": "tent", "mu": {"atoms": [[0.25, 1.0]]}}},
         "hypothesis violated: mu in J(f)"),
        # a key no object takes: the first three used to certify with a default in its place
        # (the bound 0.25, not 0.5; the canonical measure; uniform weights), the last failed
        # as "<lambda, f> != 0" on an empty lambda
        ({"space": {"space": "l1", "weights": [1.0, 1.0]}, "theorem": "cor48",
          "params": {"f": [1.0, 1.0], "u_star": [3.0, 3.0], "B": 1.0, "e": [0, 1]}},
         "params has no field 'B'; its fields are f, u_star, E, b"),
        ({"space": {"space": "c01"}, "theorem": "thm53",
          "params": {"f": {"breakpoints": [0.0, 1.0], "values": [1.0, 1.0]},
                     "selecton": {"type": "plateau", "a": 0.0, "b": 1.0}}},
         "params has no field 'selecton'; its fields are f, mu, selection"),
        ({"space": {"space": "c01"}, "theorem": "thm56",
          "params": {"f": "tent", "u": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 2.0, 0.0]}, "points": [0.5],
                     "alpha": [1.0]}},
         "params has no field 'alpha'; its fields are f, u, points, alphas"),
        ({"space": {"space": "c01"}, "theorem": "thm54", "params": {"f": "tent", "lambda": {"atom": [[0.5, 1.0]]}}},
         "a measure has no field 'atom'; its fields are atoms, density"),
        # the selection used to be ignored, though echoed: 0.9 is not in M(f), and this certified
        ({"space": {"space": "c01"}, "theorem": "thm53",
          "params": {"f": "tent", "mu": {"atoms": [[0.5, 1.0]]}, "selection": {"points": [0.9]}}},
         "scenarios[0]: params give both mu and selection"),
        # a type other than "plateau" used to go unread: 5 certified, NaN failed the dump after every certificate
        ({"space": {"space": "c01"}, "theorem": "thm53", "params": {"f": "tent", "selection": {"type": 5, "points": [0.5]}}},
         "scenarios[0]: selection type must be a string, got 5"),
    ],
    ids=["params-number", "params-string", "thm46-empty", "lambda-number", "selection-number", "plateau-no-a",
         "mu-outside-J", "cor48-e-B", "thm53-selecton", "thm56-alpha", "measure-atom", "mu-and-selection",
         "selection-type-number"],
)
def test_run_names_a_malformed_or_missing_param(tmp_path, capsys, scenario, message):
    path = tmp_path / "params.json"
    path.write_text(json.dumps([scenario]))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


_RAMPS = {"f": {"breakpoints": [0.0, 1.0], "values": [0.0, 1.0]}, "u": {"breakpoints": [0.0, 1.0], "values": [0.0, 2.0]}}


@pytest.mark.parametrize(
    "theorem, params, message",
    [
        ("thm33", {"a": "2"}, "params a must be a finite number, got '2'"),
        ("thm33", {"a": True}, "params a must be a finite number, got True"),
        ("thm58", {"c": "3"}, "params c must be a finite number, got '3'"),
        ("thm53", {"selection": {"type": "plateau", "a": "0.25", "b": 1.0}},
         "selection a must be a finite number, got '0.25'"),
        ("thm56", {**_RAMPS, "points": ["1"], "alphas": [True]}, "params points[0] must be a finite number, got '1'"),
        ("thm56", {**_RAMPS, "points": [1], "alphas": [True]}, "params alphas[0] must be a finite number, got True"),
        ("thm31", {"m": True}, "params m must be a finite integer, got True"),
        ("thm46", {"D": [True]}, "params D[0] must be a finite integer, got True"),
        ("thm54", {"lambda": {"atoms": [[0.5, True]]}}, "a measure's atoms[0][1] must be a finite number, got True"),
        ("thm54", {"lambda": {"atoms": [[0.5]]}}, "a measure's atoms[0] must be a [location, weight] pair, got [0.5]"),
        ("thm54", {"lambda": {"atoms": 5}}, "a measure's atoms must be a list of [location, weight] pairs, got 5"),
        # element lists and indices: the first three used to certify, reading "1.5" as 1.5 and
        # true as 1; a NaN alpha failed as "atom weights must be finite"
        ("thm33", {"x": ["1.5", "-2"]}, "params x[0] must be a finite number, got '1.5'"),
        ("thm46", {"k_star": [1.0, 1.0], "D": [0, True]}, "params D[1] must be a finite integer, got True"),
        ("thm53", {"f": {"breakpoints": [0.0, 1.0], "values": [True, True]}},
         "a piecewise-linear function values[0] must be a finite number, got True"),
        ("thm56", {"points": [0.5], "alphas": [float("nan")]}, "params alphas[0] must be a finite number, got nan"),
    ],
    ids=["a-string", "a-bool", "c-string", "plateau-a-string", "points-string", "alphas-bool", "m-bool", "D-bool",
         "atom-weight-bool", "atom-one-number", "atoms-number", "x-strings", "D-int-and-bool", "values-bool",
         "alphas-nan"],
)
def test_run_takes_only_json_numbers_for_numeric_params(tmp_path, capsys, theorem, params, message):
    # each was read as a number (a string through float(), a bool as 0 or 1,
    # an index True as 1), or failed with a message that named no field
    scenarios = json.loads((FIXTURES / "all.json").read_text())["scenarios"]
    scenario = next(s for s in scenarios if s["theorem"] == theorem)
    scenario["params"].update(params)
    code, out = _run_one(tmp_path, scenario)
    assert code == 2 and not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--space", "lp", "--p", "2", "--vector", '["1.5", true]'], "--vector[0] must be a finite number, got '1.5'"),
        (["--space", "l1", "--weights", "[1, 1]", "--values", "[1, true]"],
         "--values[1] must be a finite number, got True"),
    ],
    ids=["lp-vector", "l1-values"],
)
def test_eval_takes_json_numbers_only_for_an_element(capsys, argv, message):
    # each printed J of the element read as floats: "1.5" as 1.5, true as 1.0
    assert main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ({"space": "lp", "p": None}, "space descriptor p must be a finite number, got None"),
        ({"space": "lp", "p": [2]}, "space descriptor p must be a finite number, got [2]"),
        ({"space": "lp", "p": "2"}, "space descriptor p must be a finite number, got '2'"),
        ({"space": "lp", "p": 10**400}, "space descriptor p must be a finite number"),
        ({"space": "l1", "weights": {"a": 1}}, "space descriptor weights must be a list of finite numbers"),
        ({"space": "l1", "weights": "ab"}, "space descriptor weights must be a list of finite numbers"),
        ({"space": "l1", "weights": [1.0, True]}, "space descriptor weights[1] must be a finite number, got True"),
        ({"space": "l1", "weights": [1, None]}, "space descriptor weights[1] must be a finite number, got None"),
        ({"space": "l1", "weights": [10**400]}, "space descriptor weights[0] must be a finite number"),
        ({"space": "l1", "weights": [1.0, 1.0], "weight": [2.0, 2.0]},
         "a space descriptor has no field 'weight'; its fields are space, weights"),  # was ignored
    ],
    ids=["p-null", "p-list", "p-string", "p-past-float", "weights-object", "weights-string", "weights-bool",
         "weights-null", "weights-past-float", "weight-misspelled"],
)
def test_run_names_a_malformed_space_descriptor_field(tmp_path, capsys, descriptor, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps([{"space": descriptor, "theorem": "thm31", "params": {}}]))
    assert main(["run", str(path), "--out", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "f, message",
    [
        ("5", "a piecewise-linear function must be a JSON object, got 5"),
        ('{"breakpoints": [0, 1]}', "a piecewise-linear function needs the key 'values'"),
        # the values were read as floats, "2" as 2.0
        ('{"breakpoints": [0, 1], "values": [1, "2"]}', "a piecewise-linear function values[1] must be a finite number, got '2'"),
        ('{"breakpoints": [0, 1], "value": [1, 2]}', "a piecewise-linear function has no field 'value'"),
    ],
    ids=["number", "no-values", "value-string", "misspelled-key"],
)
def test_eval_names_a_malformed_c01_function(capsys, f, message):
    assert main(["eval", "--space", "c01", "--f", f]) == 2
    assert message in capsys.readouterr().err


def test_a_measure_may_leave_out_its_atoms_or_its_density():
    # only the object and a given density's keys are required
    mu = serialize.measure_from_json({"atoms": [[0.5, 1.0]]})
    assert (mu.atoms, mu.density) == (((0.5, 1.0),), None)
    mu = serialize.measure_from_json({})
    assert (mu.atoms, mu.density) == ((), None)
    with pytest.raises(ValueError, match="a measure density needs the key 'values'"):
        serialize.measure_from_json({"density": {"breakpoints": [0, 1]}})


# -- non-finite values never reach a verdict or a file ----------------------------


def _strict(text: str):
    """The JSON value of ``text``, refusing NaN and +-Infinity, which RFC 8259 does not allow."""

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _run_one(tmp_path, scenario):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"scenarios": [scenario]}))
    return main(["run", str(path), "--out", str(tmp_path / "out.json")]), tmp_path / "out.json"


def test_an_overflowing_tail_mean_is_found_term_by_term(tmp_path):
    # every quotient is 1e308 and their sum overflows: the limit used to be
    # inf, certified and written as Infinity
    code, out = _run_one(tmp_path, {
        "space": {"space": "l1", "weights": [1.0, 1.0]},
        "theorem": "thm47",
        "params": {"f": [2.0, 1e308], "D": [0], "a": 1.5},
    })
    (record,) = _strict(out.read_text())
    assert code == 0 and record["verdict"] == "certified"
    assert record["estimated_limit"] == pytest.approx(1e308, rel=1e-15)


def test_a_quotient_that_is_not_finite_exits_2(tmp_path, capsys):
    # weights [1e300, 1] make every quotient inf: this used to write an
    # inconclusive record holding Infinity
    scenario = json.loads((FIXTURES / "all.json").read_text())
    (thm47,) = [s for s in scenario["scenarios"] if s["theorem"] == "thm47"]
    thm47["space"]["weights"] = [1e300, 1.0]
    code, out = _run_one(tmp_path, thm47)
    assert code == 2 and not out.exists()
    assert "not finite" in capsys.readouterr().err


def test_a_bound_that_overflows_exits_2_naming_it_and_writes_no_file(tmp_path, capsys):
    # lambda[0,1] = 2e308 made the claimed bound inf: run exited 2 with "Out of
    # range float values are not JSON compliant" and left part of a file
    scenario = {"space": {"space": "c01"}, "theorem": "thm55", "params": {
        "f": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]},
        "lambda": {"atoms": [[0.5, 1e308], [0.7, 1e308]]},
    }}
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"scenarios": [scenario]}))
    assert main(["run", str(path)]) == 2
    assert "scenarios[0]: lambda[0,1] must be a finite number, got inf" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_a_norm_that_underflows_is_no_traceback(tmp_path):
    # ||x||_2 of [1e-300, 0] used to underflow to 0 and raise ZeroDivisionError
    code, out = _run_one(tmp_path, {
        "space": {"space": "lp", "p": 2.0},
        "theorem": "thm32",
        "params": {"x": [1e-300, 0.0], "y": [1.0, 0.0]},
    })
    (record,) = _strict(out.read_text())
    assert code == 0 and record["verdict"] == "certified" and record["estimated_limit"] == 0.5


def test_eval_never_prints_infinity(capsys):
    # J([1e200]) at p = 3 is |x|^2 / ||x||, whose plain form is inf: it used
    # to print [Infinity], then to exit 2; it is 1e200
    code = main(["eval", "--space", "lp", "--p", "3", "--vector", "[1e200]"])
    captured = capsys.readouterr()
    assert code == 0 and _strict(captured.out) == [1e200]
    # a J that overflows is refused before anything is printed
    code = main(["eval", "--space", "lp", "--p", "1.5", "--vector", "[1.5e308, 1.5e308]"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "overflows" in captured.err
    assert main(["eval", "--space", "lp", "--p", "3", "--vector", "[2, -1]"]) == 0
    assert _strict(capsys.readouterr().out)


@pytest.mark.parametrize("theorem, field, value", [
    ("thm45_case1", ("params", "f", 0), 1.7e308),  # the scaling curve leaves the float range
    ("thm45_case1", ("params", "k_star", 0), 1.7e308),  # <k*, f> overflows in the witness
    ("thm45_case2", ("params", "k_star", 0), 1.7e308),  # and an inf <k*, f> passed as "= 0"
    ("thm33", ("params", "x", 0), 1e300),  # the pairings of the quotient overflow
    ("thm33", ("params", "x", 0), 1.7e308),  # a x* overflows in the witness
])
def test_values_past_the_float_range_exit_2_without_a_numpy_warning(tmp_path, theorem, field, value):
    # each printed a numpy RuntimeWarning before its error, which pytest
    # turns into a failure here
    scenarios = json.loads((FIXTURES / "all.json").read_text())["scenarios"]
    (scenario,) = [s for s in scenarios if s["theorem"] == theorem]
    node = scenario
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    code, out = _run_one(tmp_path, scenario)
    assert code == 2 and not out.exists()


def test_a_suite_whose_squared_norms_overflow_exits_2(tmp_path, capsys):
    # ||x||_1 ** 2 of the draws at weight 1e300 used to raise OverflowError, a traceback
    out = tmp_path / "report.json"
    code = main(["suite", "--space", "l1", "--weights", "[1e300]", "--samples", "5", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert "squared norm" in capsys.readouterr().err


def test_an_exponent_whose_conjugate_rounds_to_1_exits_2_naming_it(tmp_path, capsys):
    # at p = 1e17, p / (p - 1) rounds to 1: suite exited 2 naming p = 1.0, an
    # exponent never given, and eval exited 0
    message = "exponent p = 1e+17 is too large: its conjugate p / (p - 1) rounds to 1"
    out = tmp_path / "report.json"
    assert main(["suite", "--space", "lp", "--p", "1e17", "--samples", "3", "--seed", "1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err and not out.exists()
    assert main(["eval", "--space", "lp", "--p", "1e17", "--vector", "[1, 2]"]) == 2
    assert message in capsys.readouterr().err
    scenario = {"space": {"space": "lp", "p": 1e17}, "theorem": "thm32", "params": {"x": [1.0, 2.0], "y": [1.0, 1.0]}}
    code, certificates = _run_one(tmp_path, scenario)
    assert code == 2 and not certificates.exists()
    assert message in capsys.readouterr().err
    assert main(["eval", "--space", "lp", "--p", str(2.0**52), "--vector", "[1, 2]"]) == 0
