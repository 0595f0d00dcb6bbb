"""Unit and property tests for the finite L1 backend."""

import sys

import numpy as np
import pytest

from dualitymap import (
    FiniteMeasureSpace,
    duality_selection,
    duality_set_classify,
    l1_norm,
    linf_norm,
    pairing_l1,
    strict_convexity_counterexample,
)
from dualitymap.l1 import mask_from_indices, zero_selection


@pytest.fixture
def uniform3():
    return FiniteMeasureSpace([1.0, 1.0, 1.0])


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteMeasureSpace([1.0, 0.0])
    with pytest.raises(ValueError):
        FiniteMeasureSpace([1.0, -2.0])
    with pytest.raises(ValueError):
        FiniteMeasureSpace([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -0.0, -2.0, -5e-324, -sys.float_info.max])
def test_space_refuses_each_weight_that_is_not_finite_and_positive_by_one_message(bad):
    # w > 0 and w <= MAX, one test: a NaN fails w > 0, inf fails w <= MAX
    for weights in ([1.0, bad], [bad], np.array([2.0, 0.5, bad]), np.array([bad, 1.0])):
        with pytest.raises(ValueError) as caught:
            FiniteMeasureSpace(weights)
        assert str(caught.value) == "all weights must be strictly positive and finite"
    with pytest.raises(ValueError, match="one-dimensional list with n >= 1"):  # the shape is tested first
        FiniteMeasureSpace([[1.0, bad]])
    assert FiniteMeasureSpace([5e-324, sys.float_info.max]).n == 2  # the least and the largest weight


def test_l1_norm_examples(uniform3):
    assert l1_norm([2.0, 0.0, -1.0], uniform3) == 3.0
    assert l1_norm([0.0, 0.0, 0.0], uniform3) == 0.0
    assert l1_norm([1.0, 1.0], FiniteMeasureSpace([0.5, 2.0])) == 2.5


def test_linf_norm_examples(uniform3):
    assert linf_norm([3.0, -3.0, 1.0], uniform3) == 3.0
    assert linf_norm([0.0, 0.0, 0.0], uniform3) == 0.0
    assert linf_norm([-5.0, 2.0], FiniteMeasureSpace([1.0, 1.0])) == 5.0


def test_pairing_examples(uniform3):
    # (3, 0, -3) pairs with (2, 0, -1) to ||f||_1^2 = 9, confirming membership
    assert pairing_l1([3.0, 0.0, -3.0], [2.0, 0.0, -1.0], uniform3) == 9.0
    assert pairing_l1([0.0, 0.0, 0.0], [4.0, 5.0, -6.0], uniform3) == 0.0
    two = FiniteMeasureSpace([1.0, 1.0])
    assert pairing_l1([1.0, 1.0], [1.0, -1.0], two) == 0.0


def test_duality_selection_examples(uniform3):
    np.testing.assert_array_equal(
        duality_selection([2.0, 0.0, -1.0], uniform3, [1.5]), [3.0, 1.5, -3.0]
    )
    two = FiniteMeasureSpace([1.0, 1.0])
    np.testing.assert_array_equal(duality_selection([1.0, 1.0], two), [2.0, 2.0])
    sel = duality_selection([0.0, -4.0], two, [-4.0])
    np.testing.assert_array_equal(sel, [-4.0, -4.0])
    assert pairing_l1(sel, [0.0, -4.0], two) == 16.0


def test_duality_selection_guards(uniform3):
    with pytest.raises(ValueError):
        duality_selection([2.0, 0.0, -1.0], uniform3, [3.5])  # |a| > ||f||_1
    with pytest.raises(ValueError):
        duality_selection([0.0, 0.0, 0.0], uniform3, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        duality_selection([2.0, 0.0, -1.0], uniform3, [])  # missing free value


def test_is_duality_member_examples(uniform3):
    f = uniform3.check([2.0, 0.0, -1.0])
    assert uniform3.is_member(f, uniform3.check([3.0, 1.5, -3.0]), 1e-10)
    assert not uniform3.is_member(f, uniform3.check([3.0, 5.0, -3.0]), 1e-10)
    zero = uniform3.check([0.0, 0.0, 0.0])
    assert uniform3.is_member(zero, zero, 1e-10)


def test_classify(uniform3):
    info = duality_set_classify([2.0, 0.0, -1.0], uniform3)
    assert not info.singleton
    np.testing.assert_array_equal(info.free_points, [False, True, False])
    np.testing.assert_array_equal(info.selection, [3.0, 0.0, -3.0])

    two = FiniteMeasureSpace([1.0, 1.0])
    info = duality_set_classify([2.0, -1.0], two)
    assert info.singleton and not info.free_points.any()
    np.testing.assert_array_equal(info.selection, [3.0, -3.0])

    info = duality_set_classify([1.0, 1.0], two)
    assert info.singleton
    np.testing.assert_array_equal(info.selection, [2.0, 2.0])

    info = duality_set_classify([0.0, 0.0], two)
    assert info.singleton and not info.free_points.any()
    np.testing.assert_array_equal(info.selection, [0.0, 0.0])


def test_second_dual_pairs_by_integration():
    two = FiniteMeasureSpace([1.0, 1.0])
    assert two.pair(two.check([2.0, 7.0]), two.check([1.0, 0.0])) == 2.0
    assert two.pair(two.check([5.0, -1.0]), two.check([0.0, 0.0])) == 0.0
    f = two.check([2.0, 1.0])
    f_star = duality_selection(f, two)
    assert two.pair(f_star, f) == 9.0  # = ||f||_1^2
    assert two.in_second_dual_domain(f) and two.in_second_dual_domain(two.check([0.0, 0.0]))
    assert not two.in_second_dual_domain(two.check([1.0, -0.5]))


def test_strict_convexity_counterexample():
    two = FiniteMeasureSpace([1.0, 1.0])
    f, g, mid = strict_convexity_counterexample(
        two, mask_from_indices(two, [0], "A"), mask_from_indices(two, [1], "B")
    )
    assert l1_norm(f, two) == 1.0 and l1_norm(g, two) == 1.0
    assert mid == 1.0

    skew = FiniteMeasureSpace([2.0, 0.5])
    _, _, mid = strict_convexity_counterexample(
        skew, mask_from_indices(skew, [0], "A"), mask_from_indices(skew, [1], "B")
    )
    assert mid == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="mask length"):
        skew.measure([True])

    with pytest.raises(ValueError):
        strict_convexity_counterexample(
            two, mask_from_indices(two, [0, 1], "A"), mask_from_indices(two, [1], "B")
        )
    with pytest.raises(ValueError):
        strict_convexity_counterexample(
            two, mask_from_indices(two, [], "A"), mask_from_indices(two, [1], "B")
        )


def test_mask_from_indices_rejects_an_index_that_is_not_a_finite_integer():
    four = FiniteMeasureSpace([1.0, 1.0, 1.0, 1.0])
    # an index follows the integer rule of a schedule's steps: 1.0 is refused, a numpy integer is not
    assert mask_from_indices(four, [1, np.int64(3)], "D").tolist() == [False, True, False, True]
    for bad in (1.0, 0.7, 1.9, float("inf"), float("-inf"), float("nan"), "1", None, [1], True):
        with pytest.raises(ValueError, match=r"D\[1\] must be a finite integer") as caught:
            mask_from_indices(four, [0, bad], "D")
        assert repr(bad) in str(caught.value)
    for outside in (4, -1, 10**300):
        with pytest.raises(ValueError, match=r"D\[0\] must be an integer in \[0, 4\)"):
            mask_from_indices(four, [outside], "D")
    # a long list is checked as one array; the message still names the bad entry
    wide = FiniteMeasureSpace(np.ones(1024))
    good = list(range(0, 1000, 2))
    assert mask_from_indices(wide, good, "D").nonzero()[0].tolist() == good
    for bad in (0.5, 1024, float("nan"), "1", None, 2**63, 10**400, True):
        with pytest.raises(ValueError, match=r"D\[500\] must be (a finite integer|an integer in \[0, 1024\))") as caught:
            mask_from_indices(wide, good + [bad], "D")
        assert repr(bad) in str(caught.value)


def test_mask_from_indices_names_the_first_index_out_of_range():
    four = FiniteMeasureSpace(np.ones(4))
    with pytest.raises(ValueError, match=r"^D\[1\] must be an integer in \[0, 4\), got 7$"):
        mask_from_indices(four, [2, 7, -1, 4], "D")
    with pytest.raises(ValueError, match=r"^E\[2\] must be an integer in \[0, 4\), got np.int64\(-1\)$"):
        mask_from_indices(four, np.array([0, 3, -1, 9]), "E")
    assert mask_from_indices(four, [], "D").tolist() == [False] * 4
    assert mask_from_indices(four, [3, 0, 3], "D").tolist() == [True, False, False, True]


def test_selection_always_member():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        space = FiniteMeasureSpace(rng.uniform(0.3, 3.0, n))
        f = rng.uniform(-5.0, 5.0, n)
        f[rng.random(n) < 0.3] = 0.0
        if not np.any(f):
            continue
        norm = l1_norm(f, space)
        free = rng.uniform(-norm, norm, int(np.sum(f == 0.0)))
        sel = duality_selection(f, space, free)
        assert space.is_member(space.check(f), space.check(sel), 1e-10)


def test_positive_scaling_of_selections():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        space = FiniteMeasureSpace(rng.uniform(0.3, 3.0, n))
        f = rng.uniform(-5.0, 5.0, n)
        f[rng.random(n) < 0.3] = 0.0
        if not np.any(f):
            continue
        alpha = float(rng.uniform(0.1, 4.0))
        free = rng.uniform(-1.0, 1.0, int(np.sum(f == 0.0))) * l1_norm(f, space)
        lhs = alpha * duality_selection(f, space, free)
        rhs = duality_selection(alpha * f, space, alpha * free)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_singleton_classification_matches_uniqueness(uniform3):
    # no zero values -> the selection has no freedom and matches the template
    info = duality_set_classify([1.0, -2.0, 3.0], uniform3)
    assert info.singleton
    np.testing.assert_array_equal(info.selection, [6.0, -6.0, 6.0])


def test_zero_selection(uniform3):
    np.testing.assert_array_equal(zero_selection(uniform3), [0.0, 0.0, 0.0])


def test_norm_overflow_raises():
    # ||f||_1 = 2e308 used to be inf, and J(f) [inf, inf]
    space = FiniteMeasureSpace([1.0, 1.0])
    f = np.array([1e308, 1e308])
    for call in (space.norm, space.canonical_dual, lambda v: l1_norm(v, space)):
        with pytest.raises(ValueError, match="L1 norm overflows"):
            call(f)
    with pytest.raises(ValueError, match="L1 norm overflows"):
        space.norm(np.array([[1.0, 1.0], f]))
    assert space.norm(np.array([1e308, 0.0])) == 1e308
