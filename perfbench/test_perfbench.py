"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload == "wide":
        probe = details["l1_defect_probe"]
        assert set(probe) == {"thm45_case1", "thm45_case2", "thm47", "cor48"}
        assert all(entry["rows"] == 1 for entry in probe.values())
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"} and math.isfinite(metric["value"])
        if trace == "0":
            assert metric["value"] > 0.0


def test_wrong_expected_limit_counts_as_failure():
    row = workloads.fixture_rows(ROOT)[3]  # thm33: certified, limit 1.0
    assert bench.run_certificate(row).ok

    too_high = dataclasses.replace(row, expected=row.expected + 1.0)
    phases = {"lp": [too_high], "l1": [], "c01": []}
    plain, _, _ = bench.measure(phases, bench.run_certificate, 0.0, traced=False)
    assert plain.failed == plain.attempted == plain.rounds >= 1
    assert plain.wrong == 0
    assert plain.failures["lp"] == {"limit off the closed form": plain.rounds}

    # A closed form below the claimed bound refutes the certified verdict.
    too_low = dataclasses.replace(row, expected=row.expected - 0.5)
    out = bench.run_certificate(too_low)
    assert not out.ok and out.wrong and out.failed_units == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "catalog", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
