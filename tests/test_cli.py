"""CLI behavior: output formats, exit codes, certificate files."""

import json
from pathlib import Path

import pytest

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


def test_eval_lp_power_overflow_exit_code(capsys):
    code = main(["eval", "--space", "lp", "--p", "1.000001", "--vector", "[1e-320]"])
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


def test_run_unknown_theorem(tmp_path):
    path = tmp_path / "unknown.json"
    path.write_text(
        json.dumps(
            {"scenarios": [{"space": {"space": "lp", "p": 2.0}, "theorem": "thm99"}]}
        )
    )
    assert main(["run", str(path)]) == 2


def test_run_inconclusive_exit_code(tmp_path):
    # p < 2 bump forced through a zero coordinate: positive but unsettled tail
    path = tmp_path / "inconclusive.json"
    path.write_text(
        json.dumps(
            {
                "scenarios": [
                    {
                        "space": {"space": "lp", "p": 1.5},
                        "theorem": "thm31",
                        "params": {"x": [1.0, 0.0], "w": [0.0, 1.0]},
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
