"""Unit and property tests for the piecewise-linear C[0,1] backend."""

import itertools

import numpy as np
import pytest

from dualitymap import (
    C01Space,
    PwlFunction,
    atomic_duality_measure,
    is_duality_member_c,
    maximizing_set,
    pairing_c,
    plateau_duality_measure,
    pwl_constant,
    pwl_tent,
    sup_norm,
    tv_norm,
)
from dualitymap.c01 import (
    RcaMeasure,
    StepDensity,
    atom_measure,
    canonical_duality_measure,
    density_measure,
    maximizer_runs,
    measure_scale,
    measure_sub,
    pwl_rows,
    pwl_scale,
    pwl_sub,
    total_mass,
)
from witness_draws import random_pwl


def line(v0: float, v1: float) -> PwlFunction:
    return PwlFunction(np.array([0.0, 1.0]), np.array([v0, v1]))


def test_pwl_validation():
    with pytest.raises(ValueError):
        PwlFunction(np.array([0.0, 0.5]), np.array([1.0, 2.0]))  # does not end at 1
    with pytest.raises(ValueError):
        PwlFunction(np.array([0.0, 0.5, 0.5, 1.0]), np.array([0.0, 1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        PwlFunction(np.array([0.0, 1.0]), np.array([np.inf, 0.0]))
    for grid in ([0.0], [[0.0, 1.0], [0.0, 1.0]]):  # one point, a 2-d grid
        with pytest.raises(ValueError, match="two endpoint breakpoints"):
            PwlFunction(np.array(grid), np.zeros(np.shape(grid)))
    for grid in ([0.25, 1.0], [0.0, 0.75]):
        with pytest.raises(ValueError, match="start at 0 and end at 1"):
            StepDensity(np.array(grid), np.ones(1))
    with pytest.raises(ValueError, match=r"outside \[0,1\]"):
        RcaMeasure([(1.5, 1.0)])
    with pytest.raises(TypeError, match="expected PwlFunction"):
        C01Space().check(np.zeros(2))


def test_duality_measures_refuse_bad_input():
    with pytest.raises(ValueError, match="the zero function"):
        atomic_duality_measure(pwl_constant(0.0), [0.5])
    with pytest.raises(ValueError, match="at least one atom point"):
        atomic_duality_measure(pwl_tent(), [])
    for alphas in ([1.0, 0.0], [1.5, -0.5]):
        with pytest.raises(ValueError, match="strictly positive"):
            atomic_duality_measure(pwl_constant(1.0), [0.25, 0.75], alphas)
    with pytest.raises(ValueError, match=r"\|\|f\|\| = 0"):
        plateau_duality_measure(pwl_constant(0.0), 0.25, 0.75)


def test_alphas_sum_to_1_by_one_rule_on_every_python():
    # 100,000 alphas of 1e-5: the builtin sum of them reads 0.9999999999980838 on Python 3.11, which
    # refused them, and 1.0 from 3.12 on; their exact sum is within 1e-16 of 1
    points = np.linspace(0.1, 0.9, 100000)
    mu = atomic_duality_measure(pwl_constant(1.0), points, [1e-5] * 100000)
    assert mu.weights.size == 100000 and set(mu.weights.tolist()) == {1e-5}
    # 3e-12 past 1, however the terms are ordered
    with pytest.raises(ValueError, match="sum to 1"):
        atomic_duality_measure(pwl_constant(1.0), [0.25, 0.75], [0.5, 0.5 + 3e-12])
    with pytest.raises(ValueError, match="sum to 1"):
        atomic_duality_measure(pwl_constant(1.0), [0.25, 0.5, 0.75], [0.5 + 3e-12, 0.25, 0.25])


def test_sup_norm_examples():
    assert sup_norm(pwl_constant(1.0)) == 1.0
    assert sup_norm(pwl_tent()) == 1.0
    assert sup_norm(line(-3.0, 2.0)) == 3.0


def test_maximizing_set_examples():
    assert maximizing_set(pwl_tent()).atoms == (0.5,)
    assert maximizing_set(pwl_tent()).intervals == ()

    mset = maximizing_set(pwl_constant(1.0))
    assert mset.atoms == () and mset.intervals == ((0.0, 1.0),)

    mset = maximizing_set(line(1.0, -1.0))
    assert mset.atoms == (0.0, 1.0) and mset.intervals == ()

    with pytest.raises(ValueError):
        maximizing_set(pwl_constant(0.0))


def test_maximizing_set_partial_plateau():
    f = PwlFunction(np.array([0.0, 0.25, 0.75, 1.0]), np.array([0.0, 2.0, 2.0, 0.0]))
    mset = maximizing_set(f)
    assert mset.atoms == () and mset.intervals == ((0.25, 0.75),)
    assert mset.contains(0.5) and not mset.contains(0.1)


def test_a_near_peak_past_value_tol_is_no_maximizer():
    # f(0.6) = ||f|| - 1e-11 misses the maximum by 10 VALUE_TOL: M(f) is the atom 0.3 alone,
    # where a tolerance of 1e-10 would read the plateau [0.3, 0.6] and put its atom at 0.45
    f = PwlFunction(np.array([0.0, 0.3, 0.6, 1.0]), np.array([0.0, 1.0, 1.0 - 1e-11, 0.0]))
    mset = maximizing_set(f)
    assert mset.atoms == (0.3,) and mset.intervals == ()
    first, last = maximizer_runs(pwl_rows([f.breakpoints], [f.values]))
    assert first.tolist() == last.tolist() == [[False, True, False, False]]
    assert canonical_duality_measure(f).atoms == ((0.3, 1.0),)


def test_atomic_duality_measure_examples():
    mu = atomic_duality_measure(pwl_tent(), [0.5], [1.0])
    assert mu.atoms == ((0.5, 1.0),)

    f = line(1.0, -1.0)
    mu = atomic_duality_measure(f, [0.0, 1.0], [0.5, 0.5])
    assert mu.atoms == ((0.0, 0.5), (1.0, -0.5))
    assert pairing_c(mu, f) == pytest.approx(1.0, abs=1e-12)  # = ||f||^2

    with pytest.raises(ValueError):
        atomic_duality_measure(pwl_tent(), [0.25], [1.0])
    with pytest.raises(ValueError):
        atomic_duality_measure(pwl_tent(), [0.5], [0.5])  # alphas must sum to 1
    with pytest.raises(ValueError):
        atomic_duality_measure(pwl_tent(), [0.5], [-1.0, 2.0])


def test_plateau_duality_measure_examples():
    mu = plateau_duality_measure(pwl_constant(1.0), 0.0, 1.0)
    assert mu.density is not None
    np.testing.assert_array_equal(mu.density.values, [1.0])

    f = PwlFunction(np.array([0.0, 0.25, 0.75, 1.0]), np.array([0.0, 2.0, 2.0, 0.0]))
    mu = plateau_duality_measure(f, 0.25, 0.75)
    assert pairing_c(mu, f) == pytest.approx(4.0, abs=1e-12)  # = ||f||^2
    assert tv_norm(mu) == pytest.approx(2.0, abs=1e-12)

    with pytest.raises(ValueError):
        plateau_duality_measure(pwl_tent(), 0.4, 0.6)


def test_tv_norm_examples():
    assert tv_norm(atom_measure([(0.5, 1.0)])) == 1.0
    assert tv_norm(atom_measure([(0.0, 0.5), (1.0, -0.5)])) == 1.0
    mu = density_measure([0.0, 0.25, 0.75, 1.0], [0.0, 4.0, 0.0])
    assert tv_norm(mu) == 2.0


def test_pairing_examples():
    assert pairing_c(atom_measure([(0.5, 1.0)]), pwl_tent()) == 1.0
    lebesgue = density_measure([0.0, 1.0], [1.0])
    assert pairing_c(lebesgue, pwl_constant(1.0)) == 1.0
    assert pairing_c(lebesgue, line(0.0, 1.0)) == pytest.approx(0.5, abs=1e-15)


def test_is_duality_member_examples():
    report = is_duality_member_c(atomic_duality_measure(pwl_tent(), [0.5]), pwl_tent())
    assert report.member and report.support_ok

    report = is_duality_member_c(atom_measure([(0.25, 1.0)]), pwl_tent())
    assert not report.member and not report.support_ok

    f = pwl_constant(1.0)
    report = is_duality_member_c(plateau_duality_measure(f, 0.0, 1.0), f)
    assert report.member and report.support_ok


def test_maximizing_set_scaling_invariance():
    rng = np.random.default_rng(31)
    for _ in range(50):
        f = random_pwl(rng)
        mset = maximizing_set(f)
        for t in (-2.0, 0.5, 3.0):
            assert maximizing_set(pwl_scale(f, t)).same_set(mset)


def test_atomic_measures_exact():
    rng = np.random.default_rng(37)
    for _ in range(50):
        f = random_pwl(rng)
        mu = atomic_duality_measure(f, maximizing_set(f).points())
        norm = sup_norm(f)
        assert abs(tv_norm(mu) - norm) <= 1e-12 * max(1.0, norm)
        assert abs(pairing_c(mu, f) - norm * norm) <= 1e-12 * max(1.0, norm * norm)


def test_membership_scales():
    rng = np.random.default_rng(41)
    for _ in range(30):
        f = random_pwl(rng)
        mu = atomic_duality_measure(f, maximizing_set(f).points())
        for t in (0.5, 2.0, 7.5):
            report = is_duality_member_c(measure_scale(mu, t), pwl_scale(f, t))
            assert report.member and report.support_ok


def test_pairing_bilinear():
    rng = np.random.default_rng(43)
    for _ in range(30):
        f, g = random_pwl(rng), random_pwl(rng)
        mu = atom_measure([(float(rng.uniform(0, 1)), float(rng.uniform(-2, 2)))])
        nu = density_measure([0.0, 0.5, 1.0], rng.uniform(-2.0, 2.0, 2))
        fg = PwlFunction(
            np.union1d(f.breakpoints, g.breakpoints),
            f(np.union1d(f.breakpoints, g.breakpoints))
            + g(np.union1d(f.breakpoints, g.breakpoints)),
        )
        lhs = pairing_c(mu, fg) + pairing_c(nu, fg)
        combined = RcaMeasure(atoms=mu.atoms, density=nu.density)
        rhs = pairing_c(combined, f) + pairing_c(combined, g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_measure_sub_and_mass():
    mu = atom_measure([(0.5, 1.0), (0.0, 2.0)])
    nu = atom_measure([(0.5, 0.25)])
    diff = measure_sub(mu, nu)
    assert diff.atoms == ((0.0, 2.0), (0.5, 0.75))
    assert total_mass(diff) == 2.75

    lebesgue = density_measure([0.0, 1.0], [2.0])
    diff = measure_sub(lebesgue, density_measure([0.0, 0.5, 1.0], [1.0, 3.0]))
    assert total_mass(diff) == pytest.approx(0.0, abs=1e-15)
    assert tv_norm(diff) == pytest.approx(1.0, abs=1e-15)


def test_atoms_merge_only_at_equal_floats():
    # 0.1 + 0.2 is the float after 0.3: two points of the model, so the two
    # atoms stay apart and the TV norm of the difference is 2, not 0
    near, at = 0.1 + 0.2, 0.3
    assert near == np.nextafter(at, 1.0)
    diff = measure_sub(atom_measure([(near, 1.0)]), atom_measure([(at, 1.0)]))
    assert diff.atoms == ((at, -1.0), (near, 1.0))
    assert tv_norm(diff) == 2.0
    assert RcaMeasure(((near, 1.0), (at, -1.0))).atoms == diff.atoms
    # at one float they merge and cancel
    assert tv_norm(measure_sub(atom_measure([(at, 1.0)]), atom_measure([(0.3, 1.0)]))) == 0.0
    # a tent with its peak between the two floats tells them apart
    tent = PwlFunction(np.array([0.0, at, near, 1.0]), np.array([0.0, 1.0, 0.0, 0.0]))
    assert pairing_c(diff, tent) == -1.0


def test_brute_force_atomic_membership_consistency():
    # all-atom M(f); pure-atom grid measures pass iff the two closed-form
    # conditions hold, and membership forces support inside M(f)
    f = PwlFunction(np.array([0.0, 0.25, 0.5, 1.0]), np.array([1.0, 0.0, -1.0, 1.0]))
    mset = maximizing_set(f)
    assert mset.atoms == (0.0, 0.5, 1.0)
    grid = np.linspace(-1.0, 1.0, 5)
    locations = [0.0, 0.25, 0.5, 1.0]
    fvals = [float(f(s)) for s in locations]
    for weights in itertools.product(grid, repeat=4):
        nonzero = [(s, w) for s, w in zip(locations, weights) if w != 0.0]
        if not nonzero:
            continue
        mu = atom_measure(nonzero)
        report = is_duality_member_c(mu, f)
        expect = (
            abs(sum(abs(w) for w in weights) - 1.0) <= 1e-9
            and abs(sum(w * v for w, v in zip(weights, fvals)) - 1.0) <= 1e-9
        )
        assert report.member == expect
        if report.member:
            assert report.support_ok


def test_pwl_sub_exact():
    f = pwl_tent()
    g = line(0.0, 1.0)
    diff = pwl_sub(f, g)
    xs = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(diff(xs), f(xs) - g(xs), atol=1e-15)


def test_second_dual_pairs_by_integration():
    space = C01Space()
    tent = pwl_tent()
    assert space.in_second_dual_domain(tent)
    assert space.pair(atom_measure([(0.5, 2.0)]), tent) == 2.0  # = 2 * f(0.5)
    assert space.pair(density_measure([0.0, 1.0], [1.0]), tent) == pytest.approx(0.5)
    assert not space.in_second_dual_domain(line(-1.0, 1.0))


@pytest.mark.parametrize("cls, values", [(PwlFunction, [1.0, 2.0, 3.0]), (StepDensity, [1.0, 2.0])])
def test_nan_breakpoint_rejected(cls, values):
    with pytest.raises(ValueError, match="strictly increasing"):
        cls(np.array([0.0, np.nan, 1.0]), np.array(values))
