"""Engine tests: quotients, limit estimation, certificates, search."""

import numpy as np
import pytest

from dualitymap import (
    CoderivativeQuery,
    GraphPair,
    LpSpace,
    ProbeCurve,
    Schedule,
    certify_nonmembership,
    estimate_limit,
    falsify_membership_search,
    quotient,
    reverify_certificate,
)
from dualitymap.coderivative import MAX_STEPS, LimitEstimate, NonMembershipCertificate


@pytest.fixture
def l2():
    return LpSpace(2.0)


def base_query(l2, candidate, second_dual=None):
    x = np.array([1.0, 0.0])
    return CoderivativeQuery(l2, GraphPair(x, x.copy()), candidate, second_dual)


def test_quotient_zero_candidate(l2):
    query = base_query(l2, np.zeros(2))
    pair = GraphPair(np.array([0.9, 0.0]), np.array([0.9, 0.0]))
    assert quotient(query, pair) == 0.0


def test_quotient_hand_example_embedded(l2):
    # shrink toward the base with the base point embedded as y**
    query = base_query(l2, np.zeros(2), second_dual=np.array([1.0, 0.0]))
    pair = GraphPair(np.array([0.9, 0.0]), np.array([0.9, 0.0]))
    assert quotient(query, pair) == pytest.approx(0.5, abs=1e-12)


def test_quotient_hand_example_scaled_candidate(l2):
    x = np.array([1.0, 0.0])
    query = base_query(l2, 3.0 * x, second_dual=x)
    pair = GraphPair(1.05 * x, 1.05 * x)
    assert quotient(query, pair) == pytest.approx(1.0, abs=1e-12)


def test_quotient_degenerate_pair(l2):
    query = base_query(l2, np.zeros(2))
    with pytest.raises(ValueError, match="degenerate"):
        quotient(query, GraphPair(np.array([1.0, 0.0]), np.array([1.0, 0.0])))


def test_quotient_antisymmetric_in_candidate(l2):
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = rng.uniform(-3.0, 3.0, 2)
        pair = GraphPair(np.array([0.8, 0.1]), np.array([0.8, 0.1]))
        plus = quotient(base_query(l2, z), pair)
        minus = quotient(base_query(l2, -z), pair)
        assert abs(plus + minus) <= 1e-12


def shrink_curve(l2):
    x = np.array([1.0, 0.0])
    return ProbeCurve("shrink", lambda t: GraphPair((1 - t) * x, (1 - t) * x), t_max=0.5)


def test_estimate_limit_settles(l2):
    # shrink curve against the embedded base point: quotient constant 0.5
    query = base_query(l2, np.zeros(2), second_dual=np.array([1.0, 0.0]))
    est = estimate_limit(query, shrink_curve(l2), Schedule(0.5, 0.5, 20))
    assert est.settled
    assert est.limit == pytest.approx(0.5, abs=1e-12)


def test_estimate_limit_zero_query(l2):
    query = base_query(l2, np.zeros(2))
    est = estimate_limit(query, shrink_curve(l2))
    assert est.settled and est.limit == 0.0


def test_estimate_limit_origin_bump():
    # bump from the origin: J(t e_m) = t e_m, quotient w_m / 2 at every t
    l3 = LpSpace(3.0)
    theta = np.zeros(2)
    w = np.array([0.0, 1.0])
    query = CoderivativeQuery(l3, GraphPair(theta, theta.copy()), w)
    bump = np.array([0.0, 1.0])
    curve = ProbeCurve("bump", lambda t: GraphPair(t * bump, t * bump), t_max=1.0)
    est = estimate_limit(query, curve)
    assert est.settled and est.limit == pytest.approx(0.5, abs=1e-12)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(t0=0.0)
    with pytest.raises(ValueError):
        Schedule(ratio=1.0)
    with pytest.raises(ValueError):
        Schedule(steps=4)
    # Only constructed, never run: each would sample far too long or at t = 0.
    Schedule(steps=MAX_STEPS)
    with pytest.raises(ValueError, match="at most"):
        Schedule(steps=MAX_STEPS + 1)
    with pytest.raises(ValueError, match="at most"):
        Schedule(steps=10**9)
    with pytest.raises(ValueError, match="underflows"):
        Schedule(ratio=1e-300)
    with pytest.raises(ValueError, match="underflows"):
        Schedule(t0=1e-300, ratio=1e-2, steps=40)


def test_t0_shrinks_to_curve_window(l2):
    query = base_query(l2, np.zeros(2), second_dual=np.array([1.0, 0.0]))
    x = np.array([1.0, 0.0])
    curve = ProbeCurve("narrow", lambda t: GraphPair((1 - t) * x, (1 - t) * x), t_max=0.01)
    est = estimate_limit(query, curve, Schedule(0.25, 0.5, 24))
    assert est.t0_shrunk
    assert est.ts[0] == pytest.approx(0.005)


def test_membership_validated_along_curve(l2):
    query = base_query(l2, np.zeros(2))
    x = np.array([1.0, 0.0])
    bad = ProbeCurve("bad", lambda t: GraphPair((1 - t) * x, (1 + t) * x), t_max=0.5)
    with pytest.raises(ValueError, match="outside gph J"):
        estimate_limit(query, bad)


def test_nonconverging_curve_rejected(l2):
    query = base_query(l2, np.zeros(2))
    fixed = np.array([0.5, 0.0])
    stuck = ProbeCurve("stuck", lambda t: GraphPair(fixed, fixed), t_max=0.5)
    with pytest.raises(ValueError, match="does not approach"):
        estimate_limit(query, stuck)


def test_certify_positive_and_zero(l2):
    query = base_query(l2, np.zeros(2), second_dual=np.array([1.0, 0.0]))
    cert = certify_nonmembership(query, shrink_curve(l2), claimed_bound=0.5)
    assert cert.verdict == "certified"
    assert reverify_certificate(cert)

    zero_query = base_query(l2, np.zeros(2))
    cert = certify_nonmembership(zero_query, shrink_curve(l2), claimed_bound=0.5)
    assert cert.verdict == "not_certified"
    assert reverify_certificate(cert)


def test_certify_below_bound_rejected(l2):
    query = base_query(l2, np.zeros(2), second_dual=np.array([1.0, 0.0]))
    cert = certify_nonmembership(query, shrink_curve(l2), claimed_bound=0.75)
    assert cert.verdict == "not_certified"


def test_certificate_tamper_detected(l2):
    query = base_query(l2, np.zeros(2), second_dual=np.array([1.0, 0.0]))
    cert = certify_nonmembership(query, shrink_curve(l2), claimed_bound=0.5)
    est = cert.estimate
    forged = NonMembershipCertificate(
        cert.curve_id,
        LimitEstimate(est.ts, est.quotients, 0.9, est.settled, est.settle_tol),
        cert.claimed_bound,
        cert.cert_tol,
        cert.verdict,
    )
    assert not reverify_certificate(forged)
    relabeled = NonMembershipCertificate(
        cert.curve_id, est, cert.claimed_bound, cert.cert_tol, "not_certified"
    )
    assert not reverify_certificate(relabeled)


def test_falsify_search_picks_proof_branch(l2):
    # y chosen so <J(x), y> > 0: the shrink branch has the positive limit and
    # the grow branch the negated one
    x = np.array([1.0, 0.0])
    query = base_query(l2, np.zeros(2), second_dual=np.array([1.0, 0.0]))
    grow = ProbeCurve("grow", lambda t: GraphPair((1 + t) * x, (1 + t) * x), t_max=0.5)
    lead = falsify_membership_search(query, [shrink_curve(l2), grow])
    assert lead.curve_id == "shrink"
    assert lead.best_limit == pytest.approx(0.5, abs=1e-12)
    assert lead.estimates["grow"].limit == pytest.approx(-0.5, abs=1e-12)


def test_falsify_search_zero_query(l2):
    query = base_query(l2, np.zeros(2))
    lead = falsify_membership_search(query, [shrink_curve(l2)])
    assert lead.curve_id == "shrink" and lead.best_limit == 0.0
    with pytest.raises(ValueError):
        falsify_membership_search(query, [])


def test_query_validates_base_membership(l2):
    with pytest.raises(ValueError, match="membership"):
        CoderivativeQuery(
            l2, GraphPair(np.array([1.0, 0.0]), np.array([2.0, 0.0])), np.zeros(2)
        )


def test_query_validates_second_dual_cone():
    from dualitymap import FiniteMeasureSpace

    space = FiniteMeasureSpace([1.0, 1.0])
    f = np.array([1.0, 1.0])
    f_star = np.array([2.0, 2.0])
    with pytest.raises(ValueError, match="second-dual"):
        CoderivativeQuery(
            space, GraphPair(f, f_star), np.zeros(2), second_dual=np.array([1.0, -1.0])
        )


def test_query_pairs_raw_second_dual():
    from dualitymap import FiniteMeasureSpace

    space = FiniteMeasureSpace([1.0, 1.0])
    f = np.array([1.0, 1.0])
    f_star = np.array([2.0, 2.0])
    query = CoderivativeQuery(space, GraphPair(f, f_star), np.zeros(2), second_dual=[1.0, 1.0])
    np.testing.assert_array_equal(query.second_dual, f)
    pair = GraphPair(1.1 * f, 1.1 * f_star)
    # numerator is -<u* - x*, f> = -0.2 * 2; denominator 0.2 + 0.2
    assert quotient(query, pair) == pytest.approx(-1.0, abs=1e-12)


def test_mismatched_dimensions_raise(l2):
    # Base point in R^1, candidate and probe curve in R^2: subtracting the base
    # must not broadcast it into a wrong certificate.
    x = np.array([1.0])
    query = CoderivativeQuery(l2, GraphPair(x, x.copy()), np.array([1.0, 0.0]))
    e = np.array([1.0, 1.0])
    curve = ProbeCurve("wide", lambda t: GraphPair((1 + t) * e, (1 + t) * e), t_max=0.5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        certify_nonmembership(query, curve, None)
