"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines and timings.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from dualitymap import (
    C01Space,
    FiniteMeasureSpace,
    LpSpace,
    PwlFunction,
    atomic_duality_measure,
    brute_force_duality_l1,
    build_witness,
    certify_nonmembership,
    conjugate_exponent,
    dual_duality_map,
    duality_map,
    estimate_limit,
    gradient_oracle_lp,
    is_duality_member_c,
    lp_norm,
    maximizing_set,
    pairing,
    plateau_duality_measure,
    pwl_scale,
    run_appendix_battery,
    strict_convexity_counterexample,
)
from dualitymap.cli import main
from dualitymap.l1 import mask_from_indices
from witness_draws import CLOSED_FORM_DRAWS, random_pwl, stable_seed

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
P_GRID = (1.2, 1.5, 2.0, 3.0, 4.0)


def test_criterion_1_lp_identities():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for i in range(500):
        p = P_GRID[i % len(P_GRID)]
        q = conjugate_exponent(p)
        x = rng.uniform(-10.0, 10.0, int(rng.integers(1, 33)))
        nx = lp_norm(x, p)
        jx = duality_map(x, p)
        assert abs(pairing(jx, x) - nx * nx) <= 1e-9 * max(1.0, nx * nx)
        assert abs(lp_norm(jx, q) - nx) <= 1e-9 * max(1.0, nx)
        back = dual_duality_map(jx, q)
        assert np.all(np.abs(back - x) <= 1e-9 * np.maximum(1.0, np.abs(x)))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 1] PASS  lp duality identities, 500 instances, {elapsed:.3f}s")


def test_criterion_2_gradient_oracle():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    for p in (1.5, 2.0, 3.0):
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            x = rng.uniform(0.05, 10.0, dim) * rng.choice([-1.0, 1.0], dim)
            oracle = gradient_oracle_lp(x, p, step=1e-5)
            jx = duality_map(x, p)
            keep = ~oracle.flagged
            assert np.all(np.abs(jx[keep] - oracle.values[keep]) <= 1e-5)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"[criterion 2] PASS  gradient oracle, 200 instances per p, {elapsed:.3f}s")


def test_criterion_3_witness_limits():
    start = time.perf_counter()
    for theorem, draw in sorted(CLOSED_FORM_DRAWS.items()):
        rng = np.random.default_rng(stable_seed(theorem))
        for _ in range(20):
            space, params, expected = draw(rng)
            witness = build_witness(space, theorem, params)
            cert = certify_nonmembership(witness.query, witness.curve, witness.claimed_bound)
            assert cert.verdict == "certified", (theorem, params)
            assert abs(cert.estimate.limit - expected) <= 1e-5, (theorem, params)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0

    # hand-checkable spot targets
    spots = [
        (LpSpace(2.0), "thm33", {"x": [1.0, 0.0], "a": 3.0}, 1.0),
        (FiniteMeasureSpace([1.0, 1.0]), "thm46", {"k_star": [1.0, 0.0], "D": [0]}, 0.5),
        (FiniteMeasureSpace([1.0, 1.0]), "thm47", {"f": [2.0, 1.0], "D": [0], "a": 1.5}, 3.0),
        (
            C01Space(),
            "thm53",
            {
                "f": {"breakpoints": [0.0, 1.0], "values": [1.0, 1.0]},
                "selection": {"type": "plateau", "a": 0.0, "b": 1.0},
            },
            0.5,
        ),
    ]
    for space, theorem, params, target in spots:
        witness = build_witness(space, theorem, params)
        cert = certify_nonmembership(witness.query, witness.curve, witness.claimed_bound)
        assert cert.estimate.limit == pytest.approx(target, abs=1e-10)
    print(f"[criterion 3] PASS  12 closed-form rows x 20 draws certified, {elapsed:.3f}s")


def test_criterion_4_thm31():
    rng = np.random.default_rng(104)
    # x = 0: limit w_m / 2 for every exponent
    for p in P_GRID:
        w = rng.uniform(0.2, 3.0, 4) * rng.choice([-1.0, 1.0], 4)
        witness = build_witness(LpSpace(p), "thm31", {"x": np.zeros(4), "w": w})
        est = estimate_limit(witness.query, witness.curve)
        assert abs(est.limit - np.max(np.abs(w)) / 2.0) <= 1e-5

    # p = 2: limit w_m / 2 at any base point
    for _ in range(10):
        dim = int(rng.integers(1, 9))
        x = rng.uniform(-5.0, 5.0, dim)
        w = rng.uniform(0.2, 3.0, dim) * rng.choice([-1.0, 1.0], dim)
        witness = build_witness(LpSpace(2.0), "thm31", {"x": x, "w": w})
        est = estimate_limit(witness.query, witness.curve)
        assert witness.claimed_bound is not None
        assert abs(est.limit - witness.claimed_bound) <= 1e-5

    # p != 2, x != 0: positive, settling tail
    for p in (1.2, 1.5, 3.0, 4.0):
        for _ in range(5):
            dim = int(rng.integers(2, 9))
            x = rng.uniform(0.3, 3.0, dim) * rng.choice([-1.0, 1.0], dim)
            w = rng.uniform(-2.0, 2.0, dim)
            witness = build_witness(LpSpace(p), "thm31", {"x": x, "w": w})
            est = estimate_limit(witness.query, witness.curve)
            assert all(q > 0.0 for q in est.quotients)
            head = est.quotients[:3]
            tail = est.quotients[-3:]
            assert max(tail) - min(tail) <= max(max(head) - min(head), 1e-12)
    print("[criterion 4] PASS  thm31: w_m/2 at the origin and for p = 2; positive settling tails otherwise")


def test_criterion_5_l1_set_valuedness():
    space3 = FiniteMeasureSpace([1.0, 1.0, 1.0])
    found = brute_force_duality_l1(np.array([2.0, 0.0, -1.0]), space3, grid_steps=21)
    assert len(found) == 21
    for sel in found:
        assert sel[0] == pytest.approx(3.0, abs=1e-12)
        assert sel[2] == pytest.approx(-3.0, abs=1e-12)
        assert abs(sel[1]) <= 3.0 + 1e-12
    frees = sorted(sel[1] for sel in found)
    np.testing.assert_allclose(frees, np.linspace(-3.0, 3.0, 21), atol=1e-12)

    space2 = FiniteMeasureSpace([1.0, 1.0])
    found = brute_force_duality_l1(np.array([2.0, -1.0]), space2, grid_steps=21)
    assert len(found) == 1
    np.testing.assert_allclose(found[0], [3.0, -3.0], atol=1e-12)

    _, _, mid = strict_convexity_counterexample(
        space2, mask_from_indices(space2, [0], "A"), mask_from_indices(space2, [1], "B")
    )
    assert mid == 1.0
    print("[criterion 5] PASS  brute force recovers the selection template family; midpoint norm 1")


def _with_plateau(f: PwlFunction, rng) -> tuple:
    vals = f.values.copy()
    i = int(rng.integers(0, vals.size - 1))
    level = float(np.max(np.abs(vals)) + 1.0)
    vals[i] = vals[i + 1] = level
    g = PwlFunction(f.breakpoints, vals)
    return g, float(f.breakpoints[i]), float(f.breakpoints[i + 1])


def test_criterion_6_c01_duals():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    for _ in range(100):
        f = random_pwl(rng, max_breakpoints=16)
        mu = atomic_duality_measure(f, maximizing_set(f).points())
        report = is_duality_member_c(mu, f)
        assert report.member and report.support_ok

        g, a, b = _with_plateau(f, rng)
        nu = plateau_duality_measure(g, a, b)
        report = is_duality_member_c(nu, g)
        assert report.member and report.support_ok

        mset = maximizing_set(f)
        for t in (-2.0, 0.5, 3.0):
            assert maximizing_set(pwl_scale(f, t)).same_set(mset)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[criterion 6] PASS  100 random pwl: atomic + plateau members, M(tf) = M(f), {elapsed:.3f}s")


def test_criterion_7_appendix_battery():
    spaces = [LpSpace(2.0), LpSpace(3.0), FiniteMeasureSpace([1.0, 0.5, 2.0]), C01Space()]
    for space in spaces:
        report = run_appendix_battery(space, 100, seed=7)
        for rec in report.records:
            assert rec.passed, (space.descriptor(), rec)
            if rec.applicable:
                assert rec.max_violation <= 1e-9
    print("[criterion 7] PASS  (J2)-(J6) battery on all backends, max violation <= 1e-9")


def _reverify_from_samples(cert: dict):
    tail = cert["quotient"][-3:]
    limit = sum(tail) / 3.0
    settled = max(tail) - min(tail) <= cert["settle_tol"]
    assert abs(limit - cert["estimated_limit"]) <= 1e-12
    assert settled == cert["settled"]
    if cert["verdict"] == "certified":
        assert settled and all(q > 0.0 for q in tail)
        bound = cert["claimed_bound"]
        if bound is not None:
            assert limit >= bound - cert["cert_tol"]
            assert all(q >= bound - 2.0 * cert["cert_tol"] for q in tail)


def test_criterion_8_cli_fixture(tmp_path):
    out_file = tmp_path / "certs.json"
    code = main(["run", str(FIXTURES / "all.json"), "--out", str(out_file)])
    assert code == 0
    certs = json.loads(out_file.read_text())
    assert len(certs) == 15
    for cert in certs:
        assert cert["verdict"] == "certified"
        _reverify_from_samples(cert)
    print("[criterion 8] PASS  bundled fixture: exit 0, all certified, certificates re-verify")
