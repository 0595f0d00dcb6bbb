"""Measurement loop, correctness checks and metrics of the benchmark.

One operation is one certificate (space decode, witness build, certify,
JSON record) on ``catalog`` and ``wide``, and one suite call (property
battery plus backend invariants on one space) on ``suite``.  A round runs
every operation of the deck once, backend by backend, and rounds repeat
until the run's seconds are spent.  Each operation is timed on its own and
scaled to the machine's speed at that moment (see ``reference_seconds``); its
time is the median over the rounds.  Goodput counts only operations whose
output checked correct, over the summed time of all operations (failed ones
included), per backend and in total.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from dualitymap import serialize
from dualitymap.coderivative import certify_nonmembership
from dualitymap.oracles import run_appendix_battery, run_backend_invariants
from dualitymap.witnesses import build_witness

import workloads
from tracing import PRIMITIVES, Tracer

BACKENDS = workloads.BACKENDS
LIMIT_RTOL = 1e-5
MIN_ROUNDS = 3
SETUP_PROBES = 16
# Operation times are scaled to a machine on which one reference pass takes
# this long; the pass is measured again once this many seconds have passed.
REFERENCE_S = 0.0045
REFERENCE_EVERY_S = 0.2
_REFERENCE_DATA = np.linspace(0.0, 1.0, 64)


@dataclasses.dataclass
class Outcome:
    """Result of one operation: counted in goodput only when ``ok``."""

    ok: bool
    seconds: float
    units: int  # records checked (suite) or 1 (certificate)
    failed_units: int
    failure: str | None = None  # failure class when not ok
    wrong: bool = False  # a certified verdict that the closed form refutes
    verdict: str | None = None
    limit: float | None = None
    good: int = 0  # certificates or suite samples that count in goodput


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _record_text(cert, scenario) -> str:
    return json.dumps(serialize.certificate_to_json(cert, scenario), indent=2)


def run_certificate(row: workloads.Row, tracer: Tracer | None = None) -> Outcome:
    """The per-scenario chain of ``dualitymap run``, then the closed-form check."""
    call = tracer.call if tracer else _direct
    scenario = row.scenario
    start = time.perf_counter()
    try:
        space = call("serialize.space", serialize.space_from_descriptor, scenario["space"])
        if tracer:
            space = tracer.space(space)
        witness = call("witnesses.build", build_witness, space, scenario["theorem"], scenario["params"])
        curve = tracer.curve(witness.curve) if tracer else witness.curve
        cert = call("coderivative.certify", certify_nonmembership, witness.query, curve, witness.claimed_bound)
        text = call("serialize.certificate", _record_text, cert, scenario)
    except ValueError as exc:  # HypothesisViolation is a ValueError
        return Outcome(False, time.perf_counter() - start, 1, 1, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if tracer:
        tracer.counts["serialize.bytes"] += len(text)
    limit, verdict = cert.estimate.limit, cert.verdict
    if verdict != "certified":
        return Outcome(False, seconds, 1, 1, f"verdict {verdict}", verdict=verdict, limit=limit)
    if cert.claimed_bound is None:
        unsound = row.expected <= 0.0
    else:
        unsound = row.expected < cert.claimed_bound - cert.cert_tol
    if unsound:
        return Outcome(False, seconds, 1, 1, "certified, but the closed-form limit is below the bound",
                       True, verdict, limit)
    if not abs(limit - row.expected) <= LIMIT_RTOL * max(1.0, abs(row.expected)):
        return Outcome(False, seconds, 1, 1, "limit off the closed form", verdict=verdict, limit=limit)
    return Outcome(True, seconds, 1, 0, verdict=verdict, limit=limit, good=1)


def run_suite(op: workloads.SuiteOp, tracer: Tracer | None = None) -> Outcome:
    """One ``dualitymap suite`` call; every property record must pass."""
    call = tracer.call if tracer else _direct
    start = time.perf_counter()
    space = serialize.space_from_descriptor(op.descriptor)
    if tracer:
        space = tracer.space(space)
    try:
        battery = call("oracles.battery", run_appendix_battery, space, op.samples, op.seed)
        extra = call("oracles.invariants", run_backend_invariants, space, op.samples, op.seed)
    except ValueError as exc:
        return Outcome(False, time.perf_counter() - start, 1, 1, f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    records = battery.records + extra
    failing = [r.property_id for r in records if not r.passed]
    if tracer:
        tracer.counts["oracles.samples"] += 2 * op.samples
    if failing:
        return Outcome(False, seconds, len(records), len(failing), "failed " + ",".join(failing))
    return Outcome(True, seconds, len(records), 0, good=2 * op.samples)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def reference_seconds() -> float:
    """Fastest of three passes of a fixed loop of small numpy calls.

    The loop does the kind of work the operations do (interpreter dispatch
    and small array calls) and touches nothing of the program, so its time
    follows only the machine's speed.  On a shared host that speed moves by
    up to a factor of two for tens of seconds at a time; the operations slow
    down with it, and scaling their times by ``REFERENCE_S / reference``
    measured at most ``REFERENCE_EVERY_S`` before them removes most of that
    drift.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for k in range(1000):
            total += float(np.sum(_REFERENCE_DATA[: k % 60 + 2]))
        best = min(best, time.perf_counter() - start)
    return best


@dataclasses.dataclass
class Tally:
    """Operation times and outcomes over the rounds of one mode (traced or not).

    ``times[b][i]`` lists the scaled seconds of operation i of backend b, one
    entry per round, and ``raw[b][i]`` the seconds as measured.  Outcomes do
    not change between rounds; ``outcomes[b][i]`` keeps the first one.
    """

    times: dict = dataclasses.field(default_factory=lambda: {b: [] for b in BACKENDS})
    raw: dict = dataclasses.field(default_factory=lambda: {b: [] for b in BACKENDS})
    scales: list = dataclasses.field(default_factory=list)
    outcomes: dict = dataclasses.field(default_factory=lambda: {b: [] for b in BACKENDS})
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: dict = dataclasses.field(default_factory=lambda: {b: Counter() for b in BACKENDS})
    attempted_by_backend: Counter = dataclasses.field(default_factory=Counter)

    def record(self, backend: str, index: int, out: Outcome, scale: float) -> None:
        self.attempted += out.units
        self.failed += out.failed_units
        self.wrong += out.wrong
        self.attempted_by_backend[backend] += out.units
        if not out.ok:
            self.failures[backend][out.failure] += out.failed_units
        if self.rounds == 0:
            self.times[backend].append([out.seconds * scale])
            self.raw[backend].append([out.seconds])
            self.outcomes[backend].append(out)
        else:
            self.times[backend][index].append(out.seconds * scale)
            self.raw[backend][index].append(out.seconds)

    def typical(self, backend: str, raw: bool = False) -> list:
        """Each operation's median time over the rounds (scaled unless ``raw``)."""
        return [statistics.median(t) for t in (self.raw if raw else self.times)[backend]]

    def goodput(self, backends=BACKENDS, raw: bool = False) -> float:
        """Checked-correct operations (suite: samples) per second of operation time."""
        good = sum(out.good for b in backends for out in self.outcomes[b])
        return good / sum(sum(self.typical(b, raw)) for b in backends)

    def ok_times(self) -> list:
        return [t for b in BACKENDS for t, out in zip(self.typical(b), self.outcomes[b]) if out.ok]


def _run_round(phases: dict, run_op, tally: Tally, tracer) -> None:
    for backend in BACKENDS:
        gc.collect()
        measured = -math.inf
        for index, item in enumerate(phases[backend]):
            if time.perf_counter() - measured >= REFERENCE_EVERY_S:
                scale = REFERENCE_S / reference_seconds()
                tally.scales.append(scale)
                measured = time.perf_counter()
            if tracer:
                tracer.request += 1
            tally.record(backend, index, run_op(item, tracer), scale)
    tally.rounds += 1


def measure(phases: dict, run_op, seconds: float, traced: bool, between_rounds=None) -> tuple:
    """Run rounds for ``seconds``; with ``traced`` alternate plain and traced rounds.

    ``between_rounds`` runs before each round, outside the operation times.
    """
    plain, spans = Tally(), Tally()
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    while plain.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if between_rounds:
            between_rounds()
        _run_round(phases, run_op, plain, None)
        if traced:
            _run_round(phases, run_op, spans, tracer)
    return plain, spans, tracer


# ---------------------------------------------------------------------------
# Set-up, environment and cross-checks
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def setup_seconds(root: Path) -> float:
    """Seconds to ``import dualitymap`` in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import dualitymap; print(time.perf_counter() - t)"
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=root, env=child_env(root),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def fixture_cross_check(root: Path, out_dir: Path, phases: dict, tally: Tally) -> dict:
    """Compare verdict and limit per fixture row with ``dualitymap run``'s file."""
    out = out_dir / "fixture.certificates.json"
    out.unlink(missing_ok=True)
    done = subprocess.run(
        [sys.executable, "-m", "dualitymap.cli", "run", "fixtures/all.json", "--out", str(out)],
        cwd=root, env=child_env(root), capture_output=True, text=True, timeout=120,
    )
    records = json.loads(out.read_text()) if out.exists() else []
    ours = {
        item.fixture_index: outcome
        for b in BACKENDS
        for item, outcome in zip(phases[b], tally.outcomes[b])
        if item.fixture_index is not None
    }
    mismatches = []
    if len(records) != len(ours):
        mismatches.append(f"{len(records)} records in the file, {len(ours)} fixture rows")
    for index, outcome in sorted(ours.items()):
        if index >= len(records):
            break
        rec = records[index]
        same_limit = outcome.limit is not None and abs(rec["estimated_limit"] - outcome.limit) <= 1e-12 * max(
            1.0, abs(outcome.limit)
        )
        if rec["verdict"] != outcome.verdict or not same_limit:
            mismatches.append(f"row {index}: file {rec['verdict']} {rec['estimated_limit']!r}, "
                              f"in process {outcome.verdict} {outcome.limit!r}")
    return {"exit_code": done.returncode, "rows": len(records), "mismatches": mismatches,
            "ok": done.returncode == 0 and not mismatches}


def _git_revision(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path, workload: str, seed: int) -> dict:
    sources = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": _git_revision(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(tally: Tally, setup_times: list) -> dict:
    lat_ms = np.asarray(tally.ok_times()) * 1000.0
    metrics = {"goodput_per_s": _metric(tally.goodput(), "1/s")}
    for backend in BACKENDS:
        metrics[f"goodput_per_s_{backend}"] = _metric(tally.goodput((backend,)), "1/s")
    metrics["op_p50_ms"] = _metric(np.percentile(lat_ms, 50), "ms")
    metrics["op_p90_ms"] = _metric(np.percentile(lat_ms, 90), "ms")
    metrics["setup_s"] = _metric(statistics.median(setup_times), "s")
    metrics["peak_rss_mb"] = _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer_metrics(tracer: Tracer, plain: Tally, traced: Tally) -> dict:
    """Per-layer counts and busy times per traced round (one pass of each backend)."""
    rounds = traced.rounds
    calls, busy, own, failed, counts = (
        tracer.calls, tracer.busy, tracer.self_time, tracer.failed, tracer.counts,
    )

    def per_round(value):
        return value / rounds

    samples = calls["witnesses.curve"]  # one curve evaluation per quotient sample
    certify_busy = busy["coderivative.certify"]
    m = {
        "coderivative.certify.calls": _metric(per_round(calls["coderivative.certify"]), "count"),
        "coderivative.certify.busy_s": _metric(per_round(certify_busy), "s"),
        "coderivative.self_s": _metric(per_round(own["coderivative.certify"]), "s"),
        "coderivative.samples": _metric(per_round(samples), "count"),
        "coderivative.us_per_sample": _metric(1e6 * certify_busy / samples if samples else 0.0, "us"),
        "coderivative.failed": _metric(per_round(failed["coderivative.certify"]), "count"),
        "witnesses.build.calls": _metric(per_round(calls["witnesses.build"]), "count"),
        "witnesses.build.busy_s": _metric(per_round(busy["witnesses.build"]), "s"),
        "witnesses.build.failed": _metric(per_round(failed["witnesses.build"]), "count"),
        "witnesses.curve.calls": _metric(per_round(calls["witnesses.curve"]), "count"),
        "witnesses.curve.busy_s": _metric(per_round(busy["witnesses.curve"]), "s"),
    }
    for backend in BACKENDS:
        for prim in PRIMITIVES:
            name = f"{backend}.{prim}"
            m[f"{name}.calls"] = _metric(per_round(calls[name]), "count")
            m[f"{name}.busy_s"] = _metric(per_round(busy[name]), "s")
        m[f"{backend}.elements"] = _metric(per_round(counts[f"{backend}.elements"]), "count")
    m["oracles.battery.busy_s"] = _metric(per_round(busy["oracles.battery"]), "s")
    m["oracles.invariants.busy_s"] = _metric(per_round(busy["oracles.invariants"]), "s")
    m["oracles.samples"] = _metric(per_round(counts["oracles.samples"]), "count")
    m["oracles.self_s"] = _metric(per_round(own["oracles.battery"] + own["oracles.invariants"]), "s")
    m["serialize.certificate.calls"] = _metric(per_round(calls["serialize.certificate"]), "count")
    m["serialize.busy_s"] = _metric(per_round(busy["serialize.space"] + busy["serialize.certificate"]), "s")
    m["serialize.bytes"] = _metric(per_round(counts["serialize.bytes"]), "bytes")
    m["trace.overhead_ratio"] = _metric(traced.goodput() / plain.goodput(), "ratio")
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_deck(workload: str, root: Path, seed: int, tiny: bool) -> tuple:
    if workload == "catalog":
        return workloads.catalog_deck(root, seed, draws=1 if tiny else workloads.CATALOG_DRAWS), run_certificate
    if workload == "wide":
        if tiny:
            return workloads.wide_deck(seed, n=16, draws={"lp": 2, "l1": 2, "c01": 2}), run_certificate
        return workloads.wide_deck(seed), run_certificate
    if tiny:
        return workloads.suite_deck(seed, samples=2, blocks=1), run_suite
    return workloads.suite_deck(seed), run_suite


def defect_probe(rows: list) -> dict:
    """Run each untimed ``wide`` l1 row once; failures per theorem and class."""
    report = {}
    for row in rows:
        out = run_certificate(row)
        entry = report.setdefault(
            row.scenario["theorem"], {"rows": 0, "failed": 0, "wrong": 0, "failures": Counter()}
        )
        entry["rows"] += 1
        entry["failed"] += out.failed_units
        entry["wrong"] += out.wrong
        if not out.ok:
            entry["failures"][out.failure] += 1
    return report


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> tuple:
    """Run one workload; return (details, result) where result is the final line."""
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    deck, run_op = build_deck(workload, root, seed, tiny)
    probe = None
    if workload == "wide":
        rows = workloads.wide_defect_rows(seed, n=16, draws=1) if tiny else workloads.wide_defect_rows(seed)
        probe = defect_probe(rows)
    setup_times = []
    probes = 0 if trace else 1 if tiny else SETUP_PROBES
    if probes:
        setup_seconds(root)  # warm-up: writes bytecode caches on a fresh checkout
    start = time.perf_counter()

    def probe_setup():
        # Spread the probes evenly over the run, so that one slow spell of the
        # machine cannot move their median.
        due = 1 + int(probes * (time.perf_counter() - start) / max(seconds, 1e-9))
        while len(setup_times) < min(due, probes):
            setup_times.append(setup_seconds(root))

    phases = {b: [item for item in deck if item.backend == b] for b in BACKENDS}
    plain, traced, tracer = measure(phases, run_op, seconds, trace, probe_setup)
    while len(setup_times) < probes:
        setup_times.append(setup_seconds(root))

    details = {
        "environment": environment(root, workload, seed),
        "rounds": plain.rounds,
        "deck_size": len(deck),
        "latency_samples": len(plain.ok_times()),
        "fail_ratio": plain.failed / plain.attempted,
        "speed_scale": {
            "median": statistics.median(plain.scales), "min": min(plain.scales), "max": max(plain.scales),
        },
        "raw_goodput_per_s": {
            "all": plain.goodput(raw=True), **{b: plain.goodput((b,), raw=True) for b in BACKENDS},
        },
        "backends": {
            b: {
                "operations_per_round": len(phases[b]),
                "attempted": plain.attempted_by_backend[b],
                "failed": sum(plain.failures[b].values()),
                "failures": dict(plain.failures[b]),
            }
            for b in BACKENDS
        },
        "setup_times_s": setup_times,
    }
    correct = plain.wrong == 0
    if probe is not None:
        details["l1_defect_probe"] = probe
        correct = correct and not any(entry["wrong"] for entry in probe.values())
    if workload == "catalog":
        check = fixture_cross_check(root, out_dir, phases, plain)
        details["fixture_cross_check"] = check
        correct = correct and check["ok"]

    attempted, failed = plain.attempted, plain.failed
    if trace:
        metrics = per_layer_metrics(tracer, plain, traced)
        attempted += traced.attempted
        failed += traced.failed
        correct = correct and traced.wrong == 0
        details["kept_spans"] = len(tracer.spans)
        details["dropped_spans"] = tracer.dropped
        tracer.write(out_dir / f"spans_{workload}_seed{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(plain, setup_times)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    report = dict(details, result=result)
    (out_dir / f"BENCH_{workload}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(report, indent=2))
    return details, result
