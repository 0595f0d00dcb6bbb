"""Oracle tests: finite differences, brute-force enumeration, property battery."""

import numpy as np
import pytest

from dualitymap import (
    C01Space,
    FiniteMeasureSpace,
    LpSpace,
    brute_force_duality_l1,
    duality_map,
    gradient_oracle_lp,
    l1_norm,
    run_appendix_battery,
    run_backend_invariants,
)
from dualitymap.oracles import _record


def test_gradient_oracle_examples():
    oracle = gradient_oracle_lp([3.0, 4.0], 2.0, step=1e-5)
    np.testing.assert_allclose(oracle.values, [3.0, 4.0], atol=1e-5)
    assert not oracle.flagged.any()

    oracle = gradient_oracle_lp([1.0, 1.0], 3.0, step=1e-5)
    np.testing.assert_allclose(oracle.values, duality_map([1.0, 1.0], 3.0), atol=1e-5)

    oracle = gradient_oracle_lp([1e-7, 1.0], 1.5, step=1e-5)
    assert oracle.flagged[0] and not oracle.flagged[1]
    assert np.isnan(oracle.values[0])

    with pytest.raises(ValueError):
        gradient_oracle_lp([1.0], 2.0, step=0.0)


def test_gradient_oracle_agreement():
    rng = np.random.default_rng(71)
    for p in (1.5, 2.0, 3.0):
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            x = rng.uniform(0.05, 10.0, dim) * rng.choice([-1.0, 1.0], dim)
            oracle = gradient_oracle_lp(x, p, step=1e-5)
            jx = duality_map(x, p)
            keep = ~oracle.flagged
            np.testing.assert_allclose(jx[keep], oracle.values[keep], atol=1e-5)


def test_brute_force_singleton():
    space = FiniteMeasureSpace([1.0, 1.0])
    found = brute_force_duality_l1(np.array([2.0, -1.0]), space, grid_steps=21)
    assert len(found) == 1
    np.testing.assert_allclose(found[0], [3.0, -3.0], atol=1e-12)


def test_brute_force_free_family():
    space = FiniteMeasureSpace([1.0, 1.0, 1.0])
    f = np.array([2.0, 0.0, -1.0])
    found = brute_force_duality_l1(f, space, grid_steps=21)
    # one selection per grid value of the free parameter
    assert len(found) == 21
    free_values = sorted(sel[1] for sel in found)
    np.testing.assert_allclose(free_values, np.linspace(-3.0, 3.0, 21), atol=1e-12)
    for sel in found:
        assert sel[0] == pytest.approx(3.0, abs=1e-12)
        assert sel[2] == pytest.approx(-3.0, abs=1e-12)


def test_brute_force_zero_function():
    space = FiniteMeasureSpace([1.0, 1.0])
    found = brute_force_duality_l1(np.zeros(2), space)
    assert len(found) == 1
    np.testing.assert_array_equal(found[0], [0.0, 0.0])


def test_brute_force_budget_guards():
    with pytest.raises(ValueError, match="budget"):
        brute_force_duality_l1(np.ones(5), FiniteMeasureSpace(np.ones(5)), 11)
    with pytest.raises(ValueError, match="budget"):
        brute_force_duality_l1(np.ones(2), FiniteMeasureSpace(np.ones(2)), 42)


def test_brute_force_matches_template_oracle():
    # every found grid selection matches the sign template exactly, and every
    # template point on the grid is found (delta = ||f||_1 / 20 -> 41 steps)
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        space = FiniteMeasureSpace(rng.uniform(0.5, 2.0, n))
        f = rng.uniform(-3.0, 3.0, n)
        f[rng.random(n) < 0.3] = 0.0
        if not np.any(f):
            continue
        norm = l1_norm(f, space)
        found = brute_force_duality_l1(f, space, grid_steps=41)
        n_free = int(np.sum(f == 0.0))
        assert len(found) == 41**n_free
        for sel in found:
            for i in range(n):
                if f[i] > 0:
                    assert sel[i] == pytest.approx(norm, abs=1e-12)
                elif f[i] < 0:
                    assert sel[i] == pytest.approx(-norm, abs=1e-12)
                else:
                    assert abs(sel[i]) <= norm + 1e-12


def test_battery_passes_everywhere():
    spaces = [
        LpSpace(2.0),
        LpSpace(3.0),
        FiniteMeasureSpace([1.0, 0.5, 2.0]),
        C01Space(),
    ]
    for space in spaces:
        report = run_appendix_battery(space, 50, seed=7)
        assert report.all_passed, report.to_json()


def test_battery_hilbert_identity_tight():
    report = run_appendix_battery(LpSpace(2.0), 100, seed=7)
    j2 = next(r for r in report.records if r.property_id == "J2")
    assert j2.applicable and j2.max_violation <= 1e-12


def test_battery_monotonicity_tight():
    report = run_appendix_battery(LpSpace(3.0), 100, seed=7)
    j5 = next(r for r in report.records if r.property_id == "J5")
    assert j5.max_violation <= 1e-12


def test_battery_l1_homogeneity_exact():
    report = run_appendix_battery(FiniteMeasureSpace([1.0, 1.0, 1.0]), 100, seed=7)
    j4 = next(r for r in report.records if r.property_id == "J4")
    assert j4.max_violation <= 1e-12  # norm recomputation rounding only
    j2 = next(r for r in report.records if r.property_id == "J2")
    assert not j2.applicable and j2.passed


def test_battery_deterministic():
    a = run_appendix_battery(LpSpace(1.5), 40, seed=123)
    b = run_appendix_battery(LpSpace(1.5), 40, seed=123)
    assert a == b
    c = run_appendix_battery(LpSpace(1.5), 40, seed=124)
    assert a != c


def test_battery_guards():
    for entry in (run_appendix_battery, run_backend_invariants):
        with pytest.raises(ValueError, match="sample_count"):
            entry(LpSpace(2.0), 0, seed=1)
        with pytest.raises(TypeError):
            entry(object(), 10, seed=1)


def test_a_nan_violation_fails_wherever_it_is():
    nan = float("nan")
    for violations in ([0.0, nan], [nan, 0.0], [1e-12, nan, 2e-12], np.array([0.0, nan])):
        record = _record("x", violations)
        assert not record.passed and np.isnan(record.max_violation), violations
    record = _record("x", np.array([0.0, 2e-10, 1e-10]))
    assert record.passed and record.max_violation == 2e-10 and record.samples == 3
    # not applicable: the record passes whatever it holds
    assert _record("x", [nan], applicable=False).passed


@pytest.mark.parametrize(
    "space, ids",
    [
        (LpSpace(2.0), ["pairing_identity", "inverse_roundtrip"]),
        (LpSpace(3.0), ["pairing_identity", "inverse_roundtrip"]),
        (FiniteMeasureSpace([1.0, 0.5, 2.0]), ["selection_membership", "positive_scaling"]),
        (C01Space(), ["maximizing_set_scaling", "atomic_member_exact"]),
    ],
)
def test_invariants_pass_everywhere(space, ids):
    records = run_backend_invariants(space, 50, seed=7)
    assert [r.property_id for r in records] == ids
    assert all(r.passed and r.samples == 50 for r in records), records
