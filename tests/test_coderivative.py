"""Engine tests: quotients, limit estimation, certificates, search."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from dualitymap import (
    AffineForm,
    CoderivativeQuery,
    FiniteMeasureSpace,
    GraphPair,
    LpSpace,
    ProbeCurve,
    Schedule,
    Tolerances,
    build_witness,
    certify_nonmembership,
    estimate_limit,
    falsify_membership_search,
    quotient,
    reverify_certificate,
)
from dualitymap.coderivative import (
    MAX_STEPS,
    LimitEstimate,
    NonMembershipCertificate,
    _finite,
    _finite_list,
    _tail_estimate,
    _verdict,
    default_schedule,
)


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


def test_default_schedule_for_narrow_and_invalid_windows():
    assert default_schedule(1.0) == Schedule(0.25, 0.5, 24)
    assert default_schedule(1e-4) == Schedule(5e-5, 0.5, 11)
    # 0.25 / t0 overflows for a subnormal t0; the trim takes a difference of logs
    sch = default_schedule(1e-310)
    assert sch.t0 == 5e-311 and sch.steps == 8
    for t_max in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and > 0"):
            default_schedule(t_max)


@pytest.mark.parametrize("t_max", [0.0, -1.0, float("nan"), float("inf")])
def test_probe_curve_rejects_a_bad_window(t_max):
    with pytest.raises(ValueError, match="finite t_max > 0"):
        ProbeCurve("bad", lambda t: None, t_max=t_max)


def test_shrunk_schedule_is_checked_again():
    # An explicit schedule that is valid as given, but whose last sample
    # underflows to 0 once t0 shrinks to half of the witness's window a / 2.
    space = FiniteMeasureSpace([1.0, 1.0])
    params = {"f": [1.0, -1.0], "k_star": [1.0, 1.0], "D": [0], "a": 0.0002}
    witness = build_witness(space, "thm45_case2", params)
    schedule = Schedule(0.25, 1e-4, 81)
    with pytest.raises(ValueError, match="underflows to 0"):
        certify_nonmembership(witness.query, witness.curve, witness.claimed_bound, schedule)


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


def test_a_tail_of_max_quotients_has_a_finite_limit(l2):
    # every quotient is the largest float: three rounded MAX / 3 add up past
    # MAX, and the limit estimate used to raise as if it overflowed
    big = np.finfo(float).max
    zero = np.zeros(1)
    query = CoderivativeQuery(l2, GraphPair(zero, zero), np.array([big]), second_dual=np.array([-big]))
    curve = ProbeCurve("bump", t_max=1.0, affine=AffineForm(l2, query.base, tangent=np.array([1.0])))
    cert = certify_nonmembership(query, curve, None)
    assert set(cert.estimate.quotients) == {big}
    assert cert.estimate.limit == big and cert.verdict == "certified"
    assert reverify_certificate(cert)
    # a quotient that is not finite still raises
    curve = ProbeCurve("bump", t_max=1.0, affine=AffineForm(l2, query.base, tangent=np.array([8.0])))
    with pytest.raises(ValueError, match="not finite"):
        estimate_limit(query, curve)


def test_probe_curve_is_only_read_on_its_window():
    curve = ProbeCurve("line", lambda t: GraphPair(np.array([t]), np.array([t])), t_max=0.5)
    assert curve.at(0.5).point.tolist() == [0.5]
    for t in (0.0, -0.25, 0.75):
        with pytest.raises(ValueError, match=r"only valid on \(0, 0.5\]"):
            curve.at(t)


def test_reverify_refuses_a_certified_tail_below_the_margin():
    # settled, and its mean meets the bound 1 - cert_tol, but a certified
    # tail quotient must also be at least the bound minus twice cert_tol
    def certified(low):
        quotients = (5.0, 3.0, 1.0 + 2e-6, 1.0 + 2e-6, low)
        est = LimitEstimate((0.25, 0.125, 0.0625, 0.03125, 0.015625), quotients, sum(quotients[-3:], 0.0) / 3, True, 1e-5)
        return NonMembershipCertificate("bump", est, 1.0, 1e-6, "certified")

    assert reverify_certificate(certified(1.0 - 1.5e-6))
    assert not reverify_certificate(certified(1.0 - 2.5e-6))


def test_the_verdict_never_certifies_a_tail_the_reverification_refuses():
    # tails within a few cert_tol of the bound, at settle_tols on both sides of 1.5 cert_tol:
    # a settled tail whose mean met the bound was certified even where a quotient fell below
    # the margin, bound - 2 cert_tol, which only the reverification tested
    rng = np.random.default_rng(25)
    ts = (0.25, 0.125, 0.0625)
    for bound, cert_tol in ((1.0, 1e-6), (1e3, 1e-3), (0.5, 1e-9)):
        for tail, settle in zip(bound + cert_tol * rng.uniform(-3.0, 3.0, (400, 3)), rng.uniform(0.0, 6.0, 400)):
            limit, settled = _tail_estimate(tuple(tail), settle * cert_tol)
            est = LimitEstimate(ts, tuple(tail), limit, settled, settle * cert_tol)
            verdict = _verdict(est, bound, cert_tol)
            assert reverify_certificate(NonMembershipCertificate("draw", est, bound, cert_tol, verdict))
            if verdict == "certified":
                assert min(tail) >= bound - 2.0 * cert_tol


def test_certify_and_reverify_agree_on_a_tail_below_the_margin(l2):
    # the curve turns so that the quotient <(3, 0), u> / (2 ||u||) is 1 + 2e-6 at every t but
    # the last, and 1 - 2.5e-6 there: settled within settle_tol 1e-5, a mean within cert_tol
    # of the bound 1, a last quotient below the margin; it was certified, and refused on reverification
    last = default_schedule(1.0).t0 * 0.5**23

    def turning(t):
        c = (1.0 - 2.5e-6 if t <= last else 1.0 + 2e-6) / 1.5
        u = t * np.array([c, np.sqrt(1.0 - c * c)])
        return GraphPair(u, u.copy())

    query = CoderivativeQuery(l2, GraphPair(np.zeros(2), np.zeros(2)), np.array([3.0, 0.0]))
    cert = certify_nonmembership(
        query, ProbeCurve("turning", turning, t_max=1.0), 1.0, tolerances=Tolerances(cert_tol=1e-6, settle_tol=1e-5))
    assert cert.estimate.quotients[-3:] == pytest.approx((1.0 + 2e-6, 1.0 + 2e-6, 1.0 - 2.5e-6), abs=1e-12)
    assert cert.estimate.settled and cert.estimate.limit >= 1.0 - 1e-6
    assert cert.verdict == "not_certified" and reverify_certificate(cert)


def _settled_tail(*tail):
    ts = tuple(0.25 * 0.5**k for k in range(len(tail)))
    limit, settled = _tail_estimate(tail, 1e-6)
    assert settled
    return LimitEstimate(ts, tail, limit, settled, 1e-6)


def test_a_zero_tail_certifies_no_bound():
    # a tail (0, 0, 0) meets the bound 1e-6 within cert_tol, but a certified tail is positive
    assert _verdict(_settled_tail(0.0, 0.0, 0.0), 1e-6, 1e-6) == "not_certified"


def test_the_mean_of_a_certified_tail_meets_the_bound_within_cert_tol():
    # each tail is settled and above the margin 1 - 2 cert_tol; only the mean decides
    assert _verdict(_settled_tail(*[1.0 - 1.2e-6] * 3), 1.0, 1e-6) == "not_certified"
    assert _verdict(_settled_tail(*[1.0 - 0.8e-6] * 3), 1.0, 1e-6) == "certified"


def test_a_tail_spread_past_the_default_settle_tol_is_inconclusive(l2):
    # the quotient <(3, 0), u> / (2 ||u||) is 1 at every t but the last and 1 + 5e-6 there,
    # a tail spread of 5e-6: settled at settle_tol 1e-5, not at the default 1e-6
    last = default_schedule(1.0).t0 * 0.5**23

    def turning(t):
        c = (1.0 + 5e-6 if t <= last else 1.0) / 1.5
        u = t * np.array([c, np.sqrt(1.0 - c * c)])
        return GraphPair(u, u.copy())

    query = CoderivativeQuery(l2, GraphPair(np.zeros(2), np.zeros(2)), np.array([3.0, 0.0]))
    cert = certify_nonmembership(query, ProbeCurve("turning", turning, t_max=1.0), 1.0)
    spread = max(cert.estimate.tail()) - min(cert.estimate.tail())
    assert spread == pytest.approx(5e-6, abs=1e-12)
    assert cert.verdict == "inconclusive" and not cert.estimate.settled


def test_reverification_refuses_a_stored_limit_off_by_1e_9(l2):
    query = base_query(l2, np.zeros(2), second_dual=np.array([1.0, 0.0]))
    cert = certify_nonmembership(query, shrink_curve(l2), claimed_bound=0.5)
    moved = replace(cert, estimate=replace(cert.estimate, limit=cert.estimate.limit + 1e-9))
    assert reverify_certificate(cert) and not reverify_certificate(moved)


@pytest.mark.parametrize("given, message", [
    ({"t0": float("inf")}, "schedule t0 must be a finite number, got inf"),  # shrank to the window
    ({"t0": True}, "schedule t0 must be a finite number, got True"),
    ({"t0": "0.25"}, "schedule t0 must be a finite number, got '0.25'"),
    ({"ratio": float("nan")}, "schedule ratio must be a finite number, got nan"),
    ({"steps": 24.0}, "schedule steps must be a finite integer, got 24.0"),  # failed in range()
    ({"steps": True}, "schedule steps must be a finite integer, got True"),  # ran as one step
    ({"steps": 10**400}, "schedule steps must be a finite integer"),
    ({"t0": np.float32(0.25)}, "schedule t0 must be a finite number"),  # sampled t in float32
], ids=["t0-inf", "t0-true", "t0-str", "ratio-nan", "steps-float", "steps-true", "steps-huge", "t0-float32"])
def test_schedule_refuses_values_that_are_not_finite_numbers(given, message):
    with pytest.raises(ValueError, match=message):
        Schedule(**given)


def test_schedule_takes_numpy_numbers():
    assert Schedule(np.float64(0.125), np.float64(0.5), np.int64(10)) == Schedule(0.125, 0.5, 10)


@pytest.mark.parametrize("kind", ["number", "integer"])
def test_the_list_rule_takes_a_list_as_its_entries_do(kind):
    # the one-array path of _finite_list takes a list exactly when _finite takes each entry:
    # a float sum that overflows, ints at and past the largest float, bools, nested lists
    top = sys.float_info.max
    lists = [[], [0.5, -2.0], [1e308, 1e308], [1.0, float("nan")], [1.0, -float("inf")], [3, 1], [1, 2.5],
             [True, 1.0], [1, True], ["1"], [[1.0]], [None], [int(top)], [-int(top), int(top) + 1],
             [2**1024 - 2**970], [2**1024], [np.int64(3), 1], np.array([1.0, 2.0]), np.array([1.0, np.nan]),
             np.array([3, 1]), np.array([1.0], dtype=np.float32), np.array([True])]
    for values in lists:
        try:
            expected = [float(_finite("x", v, kind)) for v in values]
        except ValueError:
            expected = None
        try:
            got = _finite_list("x", values, kind).tolist()
        except ValueError:
            got = None
        assert got == expected, values


@pytest.mark.parametrize("name, value", [
    ("cert_tol", float("inf")),
    ("settle_tol", float("inf")),
    ("membership_tol", float("nan")),
    ("membership_tol", -1.0),
    pytest.param("cert_tol", 10**400, id="cert_tol-10**400"),  # an integer past the largest float
    ("settle_tol", True),
    ("cert_tol", "1e-6"),
])
def test_the_engine_refuses_a_tolerance_that_is_not_a_finite_number_at_least_0(name, value):
    # thm33's limit here is 1: a cert_tol of inf used to certify a bound of 100
    witness = build_witness(LpSpace(2.0), "thm33", {"x": [1, 0], "a": 3})
    with pytest.raises(ValueError, match=f"tolerance {name} must be a finite number >= 0"):
        certify_nonmembership(witness.query, witness.curve, 100.0, tolerances=Tolerances(**{name: value}))
    if name != "cert_tol":
        with pytest.raises(ValueError, match=f"tolerance {name} must be a finite number >= 0"):
            estimate_limit(witness.query, witness.curve, tolerances=Tolerances(**{name: value}))


def test_the_engine_takes_numpy_and_integer_tolerances():
    witness = build_witness(LpSpace(2.0), "thm33", {"x": [1, 0], "a": 3})
    tolerances = {"cert_tol": np.float64(1e-6), "settle_tol": 1, "membership_tol": np.float64(0.0)}
    cert = certify_nonmembership(witness.query, witness.curve, witness.claimed_bound, tolerances=Tolerances(**tolerances))
    assert cert.verdict == "certified"
