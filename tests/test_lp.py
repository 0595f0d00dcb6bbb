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


@pytest.mark.parametrize(
    "call, args",
    [
        (lp_norm, ([1.5e308, 1.5e308], 2.0)),
        (duality_map, ([1.5e308, 1.5e308], 1.5)),
        (duality_map, ([1e308, 1e308, 1e308, 1e308], 1.1)),
    ],
)
def test_overflow_raises(call, args):
    # The norm of the first is sqrt(2) * 1.5e308, beyond the float range.
    # For p < 2, J(x)_i = |x_i| (||x|| / |x_i|)**(2 - p) exceeds |x_i|: here
    # 2**(1/3) * 1.5e308 and 4**(0.1/1.1) * 1e308.
    with pytest.raises(ValueError, match="overflows"):
        call(*args)


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
    # ||x||_p ** (p - 2) for a subnormal norm and p just above 1 overflows,
    # but J(x) = x for one coordinate: it used to raise OverflowError, then
    # ValueError.
    assert duality_map([1e-320], 1.000001).tolist() == [1e-320]


# J(x) where the plain form sign(x_i) |x_i|**(p-1) / ||x||**(p-2) leaves the
# float range: each used to return the value after "was", and warned on the way.
EDGES = {
    "power_underflows": ([1e-300, 0.0], 3.0, [1e-300, 0.0]),  # was [0, 0]
    "power_overflows": ([1e200, 1.0], 3.0, [1e200, 1e-200]),  # was [inf, 1e-200]
    "divisor_underflows": ([0.5, 0.5], 1e6, [0.25000034657, 0.25000034657]),  # was [nan, nan]
    "divisor_overflows": ([1e-320], 1.000001, [1e-320]),  # raised "overflows"
}


@pytest.mark.parametrize("case", EDGES, ids=list(EDGES))
def test_duality_map_at_the_edges_of_the_float_range(case):
    x, p, want = EDGES[case]
    got = duality_map(x, p)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)
    # the identities of J, on x / max|x_i| where ||x||**2 leaves the float range
    big = max(abs(v) for v in x)
    y, jy = np.array(x) / big, got / big
    np.testing.assert_allclose(lp_norm(jy, p / (p - 1.0)), lp_norm(y, p), rtol=1e-9)
    np.testing.assert_allclose(np.dot(jy, y), lp_norm(y, p) ** 2, rtol=1e-9)
    # a stack takes the same path row by row; rows in range keep the plain form's bits
    rng = np.random.default_rng(3)
    rows = np.vstack([rng.uniform(-10.0, 10.0, (3, len(x))), [x], np.zeros((1, len(x)))])
    stacked = LpSpace(p).duality(rows)
    assert [r.tobytes() for r in stacked] == [duality_map(r, p).tobytes() for r in rows]
    if p < 10.0:  # at p = 1e6 no random row is in range
        plain = [np.sign(r) * np.abs(r) ** (p - 1.0) / lp_norm(r, p) ** (p - 2.0) for r in rows[:3]]
        assert [r.tobytes() for r in stacked[:3]] == [r.tobytes() for r in plain]


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


def test_check_rows_refuses_a_stack_of_empty_vectors():
    sp = LpSpace(2.0)
    assert sp.check_rows(np.ones((3, 2))).shape == (3, 2)
    with pytest.raises(ValueError, match="at least one coordinate"):
        sp.check_rows(np.zeros((3, 0)))


@pytest.mark.parametrize("p", [8e15, 2.0**52, 9e15])
def test_norm_and_map_at_an_exponent_past_2_51(p):
    # past p = 2**51 the rounded cut (MAX / 2n)**(1/p) of the sum of powers
    # hid the cut terms: ||(1, 2)||_p came out 1.0 at p = 1e300, and at 8e15
    # the sum of the cut powers overflowed; 9e15 is about the largest p
    # whose conjugate is above 1
    space = LpSpace(p)
    assert space.norm(np.array([1.0, 2.0])) == 2.0
    x = np.array([3e300, -1e300, 2e300])
    assert space.norm(x) == 3e300
    assert space.duality(x).tolist() == [3e300, 0.0, 0.0]
    assert space.norm(np.stack([x, x / 3e300])).tolist() == [3e300, 1.0]


@pytest.mark.parametrize("p", [9.1e15, 1e16, 2.0**62, 1e300])
def test_an_exponent_whose_conjugate_rounds_to_1_is_refused_by_name(p):
    # p / (p - 1) rounds to 1.0: LpSpace(q) used to refuse "p = 1.0", an
    # exponent the caller never gave
    message = f"exponent p = {p} is too large: its conjugate p / (p - 1) rounds to 1"
    for call in (LpSpace, conjugate_exponent, lambda p: lp_norm([1.0, 2.0], p)):
        with pytest.raises(ValueError) as refused:
            call(p)
        assert str(refused.value) == message


def test_an_exponent_of_2_52_is_accepted_on_the_lowered_cut(monkeypatch):
    from dualitymap import lp

    lowered, calls = lp._lowered_cut, []

    def spy(*args):
        calls.append(args)
        return lowered(*args)

    monkeypatch.setattr(lp, "_lowered_cut", spy)
    space = LpSpace(2.0**52)
    assert space.q > 1.0
    assert space.norm(np.array([1.0, 2.0])) == 2.0
    assert calls
    # at this p and n = 1 the first cut's power, cut**p, overflows and the cut is lowered
    space = LpSpace(6687585228801598.0)
    assert space.norm(np.array([3e300])) == 3e300 and space.norm(np.array([-2.0])) == 2.0
