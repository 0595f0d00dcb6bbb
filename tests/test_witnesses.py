"""Witness catalog tests: hand-checked bounds, hypothesis guards, random draws."""

import json
from pathlib import Path

import numpy as np
import pytest

from dualitymap import (
    THEOREM_IDS,
    AffineForm,
    C01Space,
    FiniteMeasureSpace,
    HypothesisViolation,
    LpSpace,
    Schedule,
    build_witness,
    certify_nonmembership,
    estimate_limit,
)
from dualitymap.coderivative import _CHECKPOINT
from dualitymap.serialize import space_from_descriptor
from witness_draws import CLOSED_FORM_DRAWS, draw_cor48, draw_thm31, stable_seed


def run(space, theorem, params, schedule=None):
    witness = build_witness(space, theorem, params)
    cert = certify_nonmembership(witness.query, witness.curve, witness.claimed_bound, schedule)
    return witness, cert


def test_hand_checked_bounds():
    _, cert = run(LpSpace(2.0), "thm33", {"x": [1.0, 0.0], "a": 3.0})
    assert cert.claimed_bound == pytest.approx(1.0)
    assert cert.estimate.limit == pytest.approx(1.0, abs=1e-12)

    _, cert = run(FiniteMeasureSpace([1.0, 1.0]), "thm46", {"k_star": [1.0, 0.0], "D": [0]})
    assert cert.claimed_bound == pytest.approx(0.5)
    assert cert.estimate.limit == pytest.approx(0.5, abs=1e-12)

    _, cert = run(
        FiniteMeasureSpace([1.0, 1.0]),
        "thm47",
        {"f": [2.0, 1.0], "D": [0], "a": 1.5},
    )
    assert cert.claimed_bound == pytest.approx(3.0)  # = ||f||_1
    assert cert.estimate.limit == pytest.approx(3.0, abs=1e-12)

    _, cert = run(
        C01Space(),
        "thm53",
        {
            "f": {"breakpoints": [0.0, 1.0], "values": [1.0, 1.0]},
            "selection": {"type": "plateau", "a": 0.0, "b": 1.0},
        },
    )
    assert cert.claimed_bound == pytest.approx(0.5)  # = ||f|| / 2
    assert cert.verdict == "certified"


@pytest.mark.parametrize("params, b, e", [
    ({"b": 1.5}, 1.5, [0.0, 1.0, 1.0]),  # E = {u* >= ||f||_1 + b}
    ({}, 2.0, [0.0, 0.0, 1.0]),  # b is half the largest margin, E = {u* > ||f||_1 + b}
])
def test_cor48_without_e_claims_half_its_margin(params, b, e):
    # ||f||_1 = 3, so the margins u* - ||f||_1 are 1, 2 and 4
    space = FiniteMeasureSpace([1.0, 1.0, 1.0])
    witness, cert = run(space, "cor48", {"f": [1.0, 1.0, 1.0], "u_star": [4.0, 5.0, 7.0], **params})
    assert witness.claimed_bound == b / 2.0 and witness.one_sided
    assert witness.curve.affine.tangent.tolist() == e  # the bump chi_E
    assert cert.verdict == "certified"


def test_l1_membership_tolerance_scales_with_norm():
    # The same witness at scale 1 and 1000: ||f||_1**2 ~ 9e6 puts the rounding
    # of <g, f> past an absolute 1e-10, so only a relative tolerance certifies.
    space = FiniteMeasureSpace([1.0, 1.0])
    for scale in (1.0, 1000.0):
        _, cert = run(space, "thm45_case1", {"f": [2.0 * scale, scale], "k_star": [1.0, 0.0]})
        assert cert.verdict == "certified"
        assert cert.estimate.limit == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_thm58_plateau_example():
    _, cert = run(
        C01Space(),
        "thm58",
        {
            "f": {"breakpoints": [0.0, 1.0], "values": [1.0, 1.0]},
            "selection": {"type": "plateau", "a": 0.0, "b": 1.0},
            "c": 2.0,
        },
    )
    assert cert.estimate.limit == pytest.approx(0.5, abs=1e-12)
    assert cert.verdict == "certified"


def test_hypothesis_guards():
    with pytest.raises(HypothesisViolation, match="c != 1"):
        build_witness(
            C01Space(),
            "thm58",
            {"f": {"breakpoints": [0.0, 1.0], "values": [1.0, 1.0]}, "c": 1.0},
        )
    with pytest.raises(HypothesisViolation, match="<J\\(x\\), y> != 0"):
        build_witness(LpSpace(2.0), "thm32", {"x": [1.0, 0.0], "y": [0.0, 1.0]})
    with pytest.raises(HypothesisViolation, match="nonempty"):
        build_witness(FiniteMeasureSpace([1.0, 1.0]), "thm46", {"k_star": [1.0, 0.0], "D": []})
    with pytest.raises(HypothesisViolation, match="one strict sign"):
        build_witness(FiniteMeasureSpace([1.0, 1.0]), "thm46", {"k_star": [1.0, -1.0], "D": [0, 1]})
    with pytest.raises(HypothesisViolation, match="share a point"):
        build_witness(
            C01Space(),
            "thm56",
            {
                "f": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]},
                "u": {"breakpoints": [0.0, 1.0], "values": [2.0, 0.0]},
            },
        )
    with pytest.raises(HypothesisViolation, match="increasing"):
        build_witness(
            C01Space(),
            "cor57",
            {
                "f": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.5]},
                "u": {"breakpoints": [0.0, 1.0], "values": [0.0, 2.0]},
            },
        )
    with pytest.raises(HypothesisViolation, match="strictly positive"):
        build_witness(
            FiniteMeasureSpace([1.0, 1.0]),
            "cor48",
            {"f": [1.0, 0.0], "u_star": [3.0, 3.0]},
        )
    with pytest.raises(KeyError):
        build_witness(LpSpace(2.0), "thm99", {})
    with pytest.raises(HypothesisViolation, match="model"):
        build_witness(LpSpace(2.0), "thm46", {"k_star": [1.0], "D": [0]})


@pytest.mark.parametrize("theorem", sorted(CLOSED_FORM_DRAWS))
def test_random_draws_match_closed_form(theorem):
    rng = np.random.default_rng(stable_seed(theorem))
    for _ in range(5):
        space, params, expected = CLOSED_FORM_DRAWS[theorem](rng)
        witness, cert = run(space, theorem, params)
        assert witness.claimed_bound == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert cert.verdict == "certified"
        assert cert.estimate.limit == pytest.approx(expected, abs=1e-5)


@pytest.mark.parametrize("theorem", sorted(CLOSED_FORM_DRAWS))
def test_reparametrization_invariance(theorem):
    rng = np.random.default_rng(stable_seed(theorem) + 1)
    space, params, _ = CLOSED_FORM_DRAWS[theorem](rng)
    witness = build_witness(space, theorem, params)
    t0 = min(0.25, witness.curve.t_max / 2.0)
    est_a = estimate_limit(witness.query, witness.curve, Schedule(t0, 0.5, 24))
    est_b = estimate_limit(witness.query, witness.curve, Schedule(t0 / 3.0, 0.7, 40))
    assert est_a.limit == pytest.approx(est_b.limit, abs=1e-5)


def test_thm31_reparametrization_invariance():
    # smooth regime: every coordinate of x nonzero
    rng = np.random.default_rng(59)
    for p in (1.5, 2.0, 3.0):
        space = LpSpace(p)
        x = rng.uniform(0.5, 3.0, 4) * rng.choice([-1.0, 1.0], 4)
        w = rng.uniform(-2.0, 2.0, 4)
        witness = build_witness(space, "thm31", {"x": x, "w": w})
        est_a = estimate_limit(witness.query, witness.curve, Schedule(0.25, 0.5, 24))
        est_b = estimate_limit(witness.query, witness.curve, Schedule(0.25 / 3, 0.7, 40))
        assert est_a.limit == pytest.approx(est_b.limit, abs=1e-5)


def test_thm31_closed_form_cases():
    # at the origin the bound is |w_m| / 2 for every exponent
    for p in (1.2, 2.0, 3.5):
        witness, cert = run(LpSpace(p), "thm31", {"x": [0.0, 0.0, 0.0], "w": [0.0, -0.8, 0.3]})
        assert cert.claimed_bound == pytest.approx(0.4)
        assert cert.estimate.limit == pytest.approx(0.4, abs=1e-12)
        assert cert.verdict == "certified"

    # Hilbert case: bound |w_m| / 2 at any base point
    witness, cert = run(LpSpace(2.0), "thm31", {"x": [1.0, 2.0], "w": [3.0, -1.0]})
    assert cert.estimate.limit == pytest.approx(1.5, abs=1e-12)
    assert cert.verdict == "certified"


def test_thm31_general_branch_positive_and_settling():
    rng = np.random.default_rng(61)
    for p in (1.5, 3.0):
        space = LpSpace(p)
        for _ in range(5):
            dim = int(rng.integers(2, 9))
            x = rng.uniform(0.3, 3.0, dim) * rng.choice([-1.0, 1.0], dim)
            w = rng.uniform(-2.0, 2.0, dim)
            witness = build_witness(space, "thm31", {"x": x, "w": w})
            assert witness.claimed_bound is None
            est = estimate_limit(witness.query, witness.curve)
            assert all(q > 0.0 for q in est.quotients)
            head = est.quotients[:3]
            tail = est.quotients[-3:]
            assert max(tail) - min(tail) <= max(max(head) - min(head), 1e-12)


def test_thm31_at_p_not_2_samples_past_the_first_checkpoint_and_settles():
    # p = 1.5 and x != 0: the quotient turns with t, so its first 8 samples do not
    # settle; the estimate goes on toward smaller t and stops where the tail settles
    rng = np.random.default_rng(stable_seed("thm31"))
    space, params, _ = [draw_thm31(rng) for _ in range(2)][1]
    assert space.p != 2.0 and np.any(params["x"])
    witness, cert = run(space, "thm31", params)
    assert not estimate_limit(witness.query, witness.curve, Schedule(steps=_CHECKPOINT)).settled
    assert cert.verdict == "certified" and cert.estimate.settled
    assert _CHECKPOINT < len(cert.estimate.ts) < Schedule().steps


def test_cor48_certifies_at_1024_coordinates():
    # at all 24 samples of the default schedule, rounding at t down to 3e-8 left
    # this draw inconclusive; its quotient is b / 2 at every t
    space, params, limit = draw_cor48(np.random.default_rng(stable_seed("cor48")), 1024)
    _, cert = run(space, "cor48", params)
    assert cert.verdict == "certified" and len(cert.estimate.ts) == _CHECKPOINT
    assert cert.estimate.limit == pytest.approx(limit, rel=1e-9)


def test_thm45_case2_all_sign_variants():
    # D inside {f > a} or {f < -a}, with k* strictly negative or positive on D;
    # each instance has <k*, f> = 0 and quotient limit 1/2
    space = FiniteMeasureSpace([1.0, 1.0, 1.0])
    cases = [
        ([2.0, 1.0, -1.0], [-1.0, 1.0, -1.0]),  # f > a, k* < 0 on D
        ([2.0, -1.0, 1.0], [1.0, 1.0, -1.0]),   # f > a, k* > 0 on D
        ([-2.0, 1.0, -1.0], [-1.0, -1.0, 1.0]),  # f < -a, k* < 0 on D
        ([-2.0, 1.0, -1.0], [1.0, 0.5, -1.5]),   # f < -a, k* > 0 on D
    ]
    for f, k_star in cases:
        _, cert = run(
            space, "thm45_case2", {"f": f, "k_star": k_star, "D": [0], "a": 0.5}
        )
        assert cert.verdict == "certified"
        assert cert.estimate.limit == pytest.approx(0.5, abs=1e-12)


def test_thm46_mirrored_branch():
    _, cert = run(
        FiniteMeasureSpace([1.0, 1.0]), "thm46", {"k_star": [-1.0, 0.0], "D": [0]}
    )
    assert cert.verdict == "certified"
    assert cert.estimate.limit == pytest.approx(0.5, abs=1e-12)


def test_thm31_explicit_direction_override():
    witness = build_witness(
        LpSpace(2.0), "thm31", {"x": [1.0, 2.0], "w": [3.0, -1.0], "m": 1}
    )
    assert witness.claimed_bound == pytest.approx(0.5)
    with pytest.raises(HypothesisViolation):
        build_witness(LpSpace(2.0), "thm31", {"x": [1.0, 2.0], "w": [3.0, 0.0], "m": 1})
    for outside in (2, -1):  # no coordinate of w
        with pytest.raises(HypothesisViolation, match="0 <= m < dim w"):
            build_witness(LpSpace(2.0), "thm31", {"x": [1.0, 2.0], "w": [3.0, -1.0], "m": outside})


@pytest.mark.parametrize("bad", [0.6, 1.5, float("inf"), float("nan")])
def test_an_index_that_is_not_a_finite_integer_is_rejected(bad):
    # int() used to truncate these to another index, or raise OverflowError
    message = rf"params (m|D\[[01]\]|E\[0\]) must be a finite integer, got {bad!r}"
    with pytest.raises(ValueError, match=message):
        build_witness(LpSpace(2.0), "thm31", {"x": [1.0, 2.0], "w": [3.0, -1.0], "m": bad})
    three = FiniteMeasureSpace([1.0, 1.0, 1.0])
    scenarios = {
        "thm45_case2": {"f": [2.0, 1.0, -1.0], "k_star": [1.0, 1.0, 3.0], "D": [bad], "a": 0.5},
        "thm46": {"k_star": [1.0, 1.0, -1.0], "D": [0, bad]},
        "thm47": {"f": [2.0, 2.0, 2.0], "D": [bad], "a": 0.5},
        "cor48": {"f": [1.0, 1.0, 1.0], "u_star": [4.0, 4.0, 4.0], "E": [bad]},
    }
    for theorem, params in scenarios.items():
        with pytest.raises(ValueError, match=message):
            build_witness(three, theorem, params)


def test_membership_holds_along_catalog_curves():
    rng = np.random.default_rng(67)
    for theorem, draw in sorted(CLOSED_FORM_DRAWS.items()):
        space, params, _ = draw(rng)
        witness = build_witness(space, theorem, params)
        sch = Schedule(min(0.25, witness.curve.t_max / 2.0), 0.5, 12)
        for k in range(sch.steps):
            pair = witness.curve.at(sch.t0 * sch.ratio**k)
            assert space.is_member(pair.point, pair.dual, 1e-9)


def test_every_catalog_curve_is_affine_and_batches():
    # A curve that fell back to one t at a time would still certify, only
    # slower; this catches it.  The fixture file holds every catalog theorem.
    scenarios = json.loads((Path(__file__).parent.parent / "fixtures" / "all.json").read_text())["scenarios"]
    assert {s["theorem"] for s in scenarios} == set(THEOREM_IDS)
    for s in scenarios:
        space = space_from_descriptor(s["space"])
        curve = build_witness(space, s["theorem"], s.get("params", {})).curve
        # estimate_limit samples every curve with an affine form as one batch
        assert isinstance(curve.affine, AffineForm), s["theorem"]
