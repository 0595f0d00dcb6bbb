"""Unit and property tests for the l_p backend."""

import numpy as np
import pytest

from dualitymap import (
    LpSpace,
    conjugate_exponent,
    dual_duality_map,
    duality_map,
    lp_norm,
    pairing,
)
from dualitymap.oracles import gradient_oracle_lp

P_GRID = [1.2, 1.5, 2.0, 3.0, 4.0]


def test_conjugate_exponent():
    assert conjugate_exponent(2.0) == 2.0
    assert conjugate_exponent(2.5) == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert 1.0 / 3.0 + 1.0 / conjugate_exponent(3.0) == pytest.approx(1.0, abs=1e-15)


def test_lp_norm_examples():
    assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, abs=1e-12)
    assert lp_norm([0.0, 0.0, 0.0], 3.0) == 0.0
    assert lp_norm([1.0, 1.0], 3.0) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)


@pytest.mark.parametrize("bad_p", [1.0, 0.5, -2.0, float("inf"), float("nan")])
def test_exponent_guard(bad_p):
    with pytest.raises(ValueError):
        lp_norm([1.0, 2.0], bad_p)
    with pytest.raises(ValueError):
        duality_map([1.0, 2.0], bad_p)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "call, args",
    [
        (lp_norm, ([1.5e308, 1.5e308], 2.0)),
        (duality_map, ([1e200, 1.0], 4.0)),
        (duality_map, ([1.0, 2.0], 1e6)),
    ],
)
def test_overflow_raises(call, args):
    # These used to return inf, [nan, 0] and [0, nan].  The norm of the
    # first is sqrt(2) * 1.5e308, beyond the float range.
    with pytest.raises(ValueError, match="overflows"):
        call(*args)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_finite_norm_whose_power_sum_leaves_the_float_range():
    # the sum of |x_i|**p overflows (first) or underflows to 0 (second) or
    # below the smallest normal float (third), but the norm is a float: it is
    # found on x / max|x_i|, as nrm2 does.  The first used to raise
    # "norm overflows", the second to return 0.
    cases = [([1e200, 1.0], 4.0, 1e200), ([1e-300, 0.0], 2.0, 1e-300), ([3e-170, 4e-170], 2.0, 5e-170)]
    for x, p, want in cases:
        assert lp_norm(x, p) == pytest.approx(want, rel=1e-15)
    assert lp_norm([5e-324, 0.0], 3.0) == 5e-324
    # a stack takes the same path row by row; rows in range keep the plain sum's bits
    rng = np.random.default_rng(0)
    rows = np.vstack([rng.uniform(-10.0, 10.0, (4, 2)), [[1e200, 1.0], [1e-300, 0.0], [0.0, 0.0]]])
    for p in (1.5, 2.0, 4.0):
        norm = LpSpace(p).norm(rows)
        assert [v.hex() for v in norm.tolist()] == [LpSpace(p).norm(r).hex() for r in rows]
        plain = [float(np.sum(np.abs(r) ** p)) ** (1.0 / p) for r in rows[:4]]
        assert [v.hex() for v in norm[:4].tolist()] == [v.hex() for v in plain]
    with pytest.raises(ValueError, match="overflows"):
        LpSpace(2.0).norm(np.array([[1.0, 1.0], [1.5e308, 1.5e308]]))


def test_power_overflow_raises_value_error():
    # ||x||_p ** (p - 2) for a subnormal norm and p just above 1 used to
    # raise OverflowError.
    with pytest.raises(ValueError, match="overflows"):
        duality_map([1e-320], 1.000001)


def test_duality_map_examples():
    # Hilbert case: the map is the identity, without a p = 2 special case.
    np.testing.assert_allclose(duality_map([3.0, 4.0], 2.0), [3.0, 4.0], atol=1e-12)
    np.testing.assert_array_equal(duality_map([0.0, 0.0], 3.0), [0.0, 0.0])
    expected = 2.0 ** (-1.0 / 3.0)
    np.testing.assert_allclose(duality_map([1.0, 1.0], 3.0), [expected, expected], rtol=1e-12)
    # <J(x), x> = ||x||_3^2 = 2^(2/3) for this instance
    jx = duality_map([1.0, 1.0], 3.0)
    assert pairing(jx, [1.0, 1.0]) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)


def test_dual_duality_map_examples():
    np.testing.assert_allclose(dual_duality_map([3.0, 4.0], 2.0), [3.0, 4.0], atol=1e-12)
    np.testing.assert_array_equal(dual_duality_map([0.0], 1.5), [0.0])
    x = np.array([2.0, -1.0, 0.5])
    u = duality_map(x, 2.5)
    np.testing.assert_allclose(dual_duality_map(u, conjugate_exponent(2.5)), x, rtol=1e-9)


def test_pairing_examples():
    assert pairing([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert pairing([3.0, 4.0], [3.0, 4.0]) == 25.0
    assert pairing([2.0, -1.0], [1.0, 1.0]) == 1.0
    with pytest.raises(ValueError):
        pairing([1.0, 2.0], [1.0, 2.0, 3.0])


def test_duality_identities_random():
    rng = np.random.default_rng(7)
    for p in P_GRID:
        q = conjugate_exponent(p)
        for _ in range(40):
            x = rng.uniform(-10.0, 10.0, int(rng.integers(1, 33)))
            nx = lp_norm(x, p)
            jx = duality_map(x, p)
            assert abs(pairing(jx, x) - nx * nx) <= 1e-9 * max(1.0, nx * nx)
            assert abs(lp_norm(jx, q) - nx) <= 1e-9 * max(1.0, nx)
            np.testing.assert_allclose(
                dual_duality_map(jx, q), x, rtol=1e-9, atol=1e-12
            )


def test_homogeneity():
    rng = np.random.default_rng(11)
    for p in P_GRID:
        for _ in range(25):
            x = rng.uniform(-10.0, 10.0, int(rng.integers(1, 9)))
            alpha = float(rng.uniform(-4.0, 4.0))
            np.testing.assert_allclose(
                duality_map(alpha * x, p),
                alpha * duality_map(x, p),
                rtol=1e-9,
                atol=1e-12,
            )


def test_monotonicity():
    rng = np.random.default_rng(13)
    for p in P_GRID:
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            x = rng.uniform(-10.0, 10.0, dim)
            y = rng.uniform(-10.0, 10.0, dim)
            inner = pairing(duality_map(x, p) - duality_map(y, p), x - y)
            assert inner >= -1e-12


def test_two_sided_norm_bound():
    rng = np.random.default_rng(17)
    for p in P_GRID:
        for _ in range(50):
            dim = int(rng.integers(1, 9))
            x = rng.uniform(-10.0, 10.0, dim)
            y = rng.uniform(-10.0, 10.0, dim)
            mid = lp_norm(x, p) ** 2 - lp_norm(y, p) ** 2
            lhs = 2.0 * pairing(duality_map(y, p), x - y)
            rhs = 2.0 * pairing(duality_map(x, p), x - y)
            scale = max(1.0, abs(mid))
            assert lhs <= mid + 1e-9 * scale
            assert mid <= rhs + 1e-9 * scale


def test_gradient_identity():
    # J(x) is the gradient of x -> 0.5 ||x||_p^2; bounded-away coordinates only
    rng = np.random.default_rng(19)
    for p in P_GRID:
        for _ in range(10):
            dim = int(rng.integers(1, 9))
            x = rng.uniform(0.2, 10.0, dim) * rng.choice([-1.0, 1.0], dim)
            oracle = gradient_oracle_lp(x, p, step=1e-5)
            assert not oracle.flagged.any()
            np.testing.assert_allclose(duality_map(x, p), oracle.values, atol=1e-5)


def test_space_descriptor_roundtrip():
    sp = LpSpace(2.5)
    assert sp.descriptor() == {"space": "lp", "p": 2.5}
    assert sp.q == pytest.approx(5.0 / 3.0, rel=1e-15)
