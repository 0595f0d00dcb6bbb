"""Affine probe curves sampled as one batch: bitwise the per-t samples, same checks."""

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
    build_witness,
    certify_nonmembership,
    estimate_limit,
)
from witness_draws import CLOSED_FORM_DRAWS, draw_thm31, stable_seed

LP_L1_DRAWS = {
    "thm31": draw_thm31,
    **{
        name: CLOSED_FORM_DRAWS[name]
        for name in ("thm32", "thm33", "thm45_case1", "thm45_case2", "thm46", "thm47", "cor48")
    },
}


def _generator_only(curve: ProbeCurve) -> ProbeCurve:
    """The same curve without its affine form, so it is sampled one t at a time."""
    return ProbeCurve(curve.curve_id, curve.generator, curve.t_max)


def _never(t):
    raise AssertionError("the batched path evaluates no generator")


def _batched_only(curve: ProbeCurve) -> ProbeCurve:
    """The same affine form with a generator that fails the test if it is called."""
    return ProbeCurve(curve.curve_id, _never, curve.t_max, curve.affine)


def _outcome(witness, curve, schedule):
    try:
        cert = certify_nonmembership(witness.query, curve, witness.claimed_bound, schedule)
    except ValueError as exc:
        return ("ValueError", str(exc))
    est = cert.estimate
    return (
        [t.hex() for t in est.ts],
        [q.hex() for q in est.quotients],
        est.limit.hex(),
        est.settled,
        cert.verdict,
    )


@pytest.mark.parametrize("theorem", sorted(LP_L1_DRAWS))
def test_batched_certificates_are_bitwise_per_t(theorem):
    rng = np.random.default_rng(stable_seed(theorem) + 7)
    sizes = [None] * 6 + [1024] * 2
    kinds = set()
    for n in sizes:
        space, params, _ = LP_L1_DRAWS[theorem](rng, n)
        witness = build_witness(space, theorem, params)
        curve = witness.curve
        assert curve.affine is not None
        if theorem == "thm31":
            kinds.add((space.p == 2.0, bool(np.any(params["x"]))))
        t0 = min(0.25, curve.t_max / 2.0)
        for schedule in (None, Schedule(t0 / 3.0, 0.7, 40)):
            batched = _outcome(witness, _batched_only(curve), schedule)
            assert batched[0] != "ValueError", batched
            assert batched == _outcome(witness, _generator_only(curve), schedule)
    if theorem == "thm31":
        assert (False, True) in kinds  # p != 2 and x != 0, the branch without a closed form


@pytest.mark.parametrize(
    "space", [LpSpace(1.2), LpSpace(2.0), LpSpace(3.0), FiniteMeasureSpace([1.0, 0.5, 2.0, 1.5])]
)
def test_row_forms_equal_the_methods_row_by_row(space):
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, (6, 4))
    x[1] = 0.0
    x[2] = [-0.0, 0.0, -0.0, 0.0]
    x[3, :2] = 0.0
    x[5] = [1.0, 0.0, 0.0, 0.0]
    u = space.canonical_dual_rows(x)
    for row, dual in zip(x, u):
        expected = space.canonical_dual(row)
        assert np.array_equal(dual, expected)
        assert np.array_equal(np.signbit(dual), np.signbit(expected))
    u[4] = rng.uniform(-3.0, 3.0, 4)  # a row off the graph
    u[5] = [1.0, 5.0, 0.0, 0.0]  # <u, x> = ||x||**2, but ||u||_* != ||x||
    y = rng.uniform(-3.0, 3.0, 4)

    def same(rows, values):
        assert [float(v).hex() for v in rows] == [float(v).hex() for v in values]

    same(space.norm_rows(x), [space.norm(r) for r in x])
    same(space.dual_norm_rows(u), [space.dual_norm(r) for r in u])
    same(space.pair_rows(u, x), [space.pair(a, b) for a, b in zip(u, x)])
    same(space.pair_rows(y, x), [space.pair(y, r) for r in x])
    same(space.pair_rows(u, y), [space.pair(r, y) for r in u])
    member = space.is_member_rows(x, u, 1e-9)
    assert member.tolist() == [space.is_member(a, b, 1e-9) for a, b in zip(x, u)]
    assert not member[4] and not member[5]


def _lp_query(x=(1.0, -2.0)):
    space = LpSpace(3.0)
    x = np.array(x)
    return CoderivativeQuery(space, GraphPair(x, space.canonical_dual(x)), np.array([0.5, 1.0]))


def _l1_query(f=(1.0, -2.0)):
    space = FiniteMeasureSpace([1.0, 2.0])
    f = np.array(f)
    return CoderivativeQuery(
        space, GraphPair(f, space.canonical_dual(f)), np.array([0.5, 1.0]), second_dual=[1.0, 0.0]
    )


def _both_raise(query, curve, match, schedule=None):
    with pytest.raises(ValueError, match=match) as batched:
        estimate_limit(query, _batched_only(curve), schedule)
    with pytest.raises(ValueError, match=match) as per_t:
        estimate_limit(query, _generator_only(curve), schedule)
    assert str(batched.value) == str(per_t.value)


@pytest.mark.parametrize("make_query", [_lp_query, _l1_query])
def test_batched_path_keeps_every_check(make_query):
    query = make_query()
    space, base = query.space, query.base
    e0 = np.array([1.0, 0.0])

    def curve(t_max=0.5, **form):
        return ProbeCurve("probe", t_max=t_max, affine=AffineForm(space, base, **form))

    # a tangent that overflowed upstream, on the point and on the dual
    with np.errstate(over="ignore"):
        overflowed = np.array([1e308, 0.0]) * 10.0
    _both_raise(query, curve(tangent=overflowed, dual_tangent=e0), "finite")
    _both_raise(query, curve(tangent=e0, dual_tangent=overflowed), "finite")
    # (1 + t) x paired with the base dual x*: off the graph
    _both_raise(query, curve(tangent=base.point, dual_tangent=np.zeros(2)), "outside gph J")
    # a zero tangent never leaves the base point
    _both_raise(query, curve(tangent=np.zeros(2)), "degenerate")

    # A window so narrow that the shrunk schedule underflows to t = 0; from
    # the origin a large tangent keeps every earlier sample away from the base.
    origin = make_query((0.0, 0.0))
    narrow = AffineForm(space, origin.base, tangent=np.array([1e300, 0.0]))
    _both_raise(origin, ProbeCurve("narrow", t_max=1e-320, affine=narrow), "only valid on",
                Schedule(0.25, 0.5, 24))


def test_batched_lp_dimension_mismatch():
    query = _lp_query()
    space = query.space
    x3 = np.array([1.0, -2.0, 0.5])
    wide = AffineForm(space, GraphPair(x3, space.canonical_dual(x3)), scale=-1.0)
    _both_raise(query, ProbeCurve("wide", t_max=0.5, affine=wide), "dimension mismatch")
    y3 = CoderivativeQuery(space, query.base, query.candidate, second_dual=x3)
    _both_raise(y3, ProbeCurve("shrink", t_max=0.5, affine=AffineForm(space, query.base, scale=-1.0)),
                "dimension mismatch")


def test_probe_curve_needs_a_generator_or_an_affine_form():
    with pytest.raises(ValueError, match="generator or an affine form"):
        ProbeCurve("empty")
