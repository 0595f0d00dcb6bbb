"""The backend protocol: every space implements it, and checks run once per sample."""

import warnings

import numpy as np
import pytest

from dualitymap import (
    C01Space,
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
from dualitymap import c01, serialize
from dualitymap.coderivative import _CHECKPOINT, AffineForm, Space, duality_gaps
from dualitymap.witnesses import _ShiftForm

PROTOCOL = [name for name in vars(Space) if not name.startswith("_")]


def test_protocol_lists_every_method():
    assert sorted(PROTOCOL) == sorted(
        ["check", "check_dual", "check_rows", "check_dual_rows", "norm", "dual_norm", "pair",
         "sub", "dual_sub", "scale", "dual_scale", "canonical_dual", "is_member",
         "in_second_dual_domain", "descriptor"]
    )


@pytest.mark.parametrize("cls", [LpSpace, FiniteMeasureSpace, C01Space])
def test_every_space_has_every_protocol_method(cls):
    # a space inherits only is_member from Space; every other method is its own, not a stub
    missing = [name for name in PROTOCOL if not callable(getattr(cls, name, None))]
    assert not missing
    stubs = [name for name in PROTOCOL if getattr(cls, name) is getattr(Space, name)]
    assert stubs == ["is_member"]


def _batches():
    """Each space with a (point, dual) pair of one element and a batch of three rows."""
    x = np.array([[1.0, -2.0], [0.5, 0.0], [0.0, 0.0]])
    lp3, l1 = LpSpace(3.0), FiniteMeasureSpace([1.0, 2.0])
    values = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    f = c01._on_checked_grid(c01.PwlFunction, np.array([0.0, 0.5, 1.0]), values)
    mu = c01._measure(np.array([0.5]), np.array([[2.0], [-1.0], [0.0]]))
    one_c01 = c01.PwlFunction(f.breakpoints, f.values[0])
    return [
        (lp3, (x[0], lp3.canonical_dual(x[0])), (x, np.array([lp3.canonical_dual(r) for r in x]))),
        (l1, (x[0], l1.canonical_dual(x[0])), (x, np.array([l1.canonical_dual(r) for r in x]))),
        (C01Space(), (one_c01, c01.canonical_duality_measure(one_c01)), (f, mu)),
    ]


def test_row_forms_on_every_space():
    # norm, dual_norm, pair and is_member take a batch and give one value per row
    for space, _, (x, u) in _batches():
        for values in (space.norm(x), space.dual_norm(u), space.pair(u, x)):
            assert isinstance(values, np.ndarray) and values.shape == (3,)
        assert space.is_member(x, u, 1e-9).tolist() == [True, True, True]
        if not isinstance(space, C01Space):  # no c01 curve needs the canonical dual of a batch
            assert np.array_equal(space.canonical_dual(x), u)


@pytest.mark.parametrize("space, one, rows", _batches())
def test_one_element_gives_python_floats(space, one, rows):
    x, u = one
    for value in (space.norm(x), space.dual_norm(u), space.pair(u, x)):
        assert type(value) is float
    assert type(space.is_member(x, u, 1e-9)) is bool


def test_a_tangent_needs_array_elements():
    base = GraphPair(c01.pwl_tent(), c01.canonical_duality_measure(c01.pwl_tent()))
    AffineForm(C01Space(), base, scale=-1.0)
    with pytest.raises(TypeError, match="needs array elements"):
        AffineForm(C01Space(), base, tangent=c01.pwl_tent())
    with pytest.raises(TypeError, match="needs array elements"):
        AffineForm(C01Space(), base, tangent=np.ones(3), dual_tangent=np.ones(3))
    space = LpSpace(2.0)
    x = np.array([1.0, 0.0])
    with pytest.raises(TypeError, match="needs array elements"):
        AffineForm(space, GraphPair(x, x), tangent=[0.0, 1.0])


def _lp_base():
    space = LpSpace(2.0)
    x = np.array([1.0, -2.0, 0.5])
    return space, GraphPair(x, space.canonical_dual(x))


def test_a_form_with_neither_scale_nor_tangent_is_refused():
    space, base = _lp_base()
    for form in ({}, {"scale": 0.0}, {"dual_tangent": base.dual}):
        with pytest.raises(ValueError, match="an affine form needs a scale or a tangent"):
            AffineForm(space, base, **form)
    # a dual tangent is checked before that refusal, and a scaling checks a tangent it is given
    with pytest.raises(ValueError, match=r"dual_tangent has shape \(2,\), but the base has \(3,\)"):
        AffineForm(space, base, dual_tangent=np.ones(2))
    with pytest.raises(ValueError, match="vector coordinates must be finite"):
        AffineForm(space, base, scale=1.0, tangent=np.array([np.nan, 0.0, 0.0]))
    assert AffineForm(space, base, scale=-1.0).tangent is None


def test_a_tangent_of_another_length_is_refused():
    # a length-1 tangent would broadcast to (1, 1, 1) and probe along another curve
    space, base = _lp_base()
    with pytest.raises(ValueError, match=r"tangent has shape \(1,\), but the base has \(3,\)"):
        AffineForm(space, base, tangent=np.array([1.0]))
    with pytest.raises(ValueError, match=r"dual_tangent has shape \(2,\)"):
        AffineForm(space, base, tangent=np.ones(3), dual_tangent=np.ones(2))


def test_a_tangent_stack_is_refused():
    # the per-t path's check refuses a (1, 3) tangent, so the form does too
    space, base = _lp_base()
    with pytest.raises(ValueError, match="one-dimensional"):
        AffineForm(space, base, tangent=np.ones((1, 3)))


def test_a_non_finite_tangent_is_refused_when_built():
    space, base = _lp_base()
    with pytest.raises(ValueError, match="finite"):
        AffineForm(space, base, tangent=np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="finite"):
        AffineForm(space, base, tangent=np.ones(3), dual_tangent=np.array([np.inf, 0.0, 0.0]))


def test_an_affine_form_needs_a_scale_or_a_tangent():
    space = LpSpace(2.0)
    x = np.array([1.0, -2.0])
    base = GraphPair(x, space.canonical_dual(x))
    with pytest.raises(ValueError, match="needs a scale or a tangent"):
        AffineForm(space, base)
    with pytest.raises(ValueError, match="needs a scale or a tangent"):
        AffineForm(space, base, dual_tangent=np.ones(2))
    assert AffineForm(space, base, scale=0.5).at(0.1).point.tolist() == ((1.0 + 0.5 * 0.1) * x).tolist()
    assert AffineForm(space, base, tangent=np.ones(2)).at(0.5).point.tolist() == [1.5, -1.5]
    # A subclass with its own evaluation needs neither field.
    f = c01.pwl_tent()
    shift = _ShiftForm(
        C01Space(), GraphPair(f, c01.canonical_duality_measure(f)), shift=1.0,
        points=np.array([0.5]), alphas=np.array([1.0]), values=f(np.array([0.5])),
    )
    assert shift.at(0.25).point(0.5) == f(0.5) + 0.25


def _shrink_query(space, x):
    x_star = space.canonical_dual(x)
    return CoderivativeQuery(space, GraphPair(x, x_star), np.zeros(x.size)), x_star


@pytest.mark.parametrize("space", [LpSpace(3.0), FiniteMeasureSpace([1.0, 2.0])])
def test_non_finite_curve_element_raises(space):
    x = np.array([1.0, -2.0])
    query, x_star = _shrink_query(space, x)

    def gen(t):
        if t <= 0.25 * 0.5 ** (_CHECKPOINT - 1):  # the last t of the first checkpoint
            return GraphPair(np.array([np.nan, 0.0]), (1 - t) * x_star)
        return GraphPair((1 - t) * x, (1 - t) * x_star)

    with pytest.raises(ValueError, match="finite"):
        estimate_limit(query, ProbeCurve("nan", gen, t_max=0.5))

    def gen_dual(t):
        return GraphPair((1 - t) * x, np.array([np.inf, 0.0]))

    with pytest.raises(ValueError, match="finite"):
        estimate_limit(query, ProbeCurve("inf", gen_dual, t_max=0.5))


def _counting(cls):
    calls = []

    class Counting(cls):
        def check(self, x):
            calls.append("check")
            return super().check(x)

        def check_dual(self, u):
            calls.append("check_dual")
            return super().check_dual(u)

        def check_rows(self, x):
            calls.append("check_rows")
            return super().check_rows(x)

        def check_dual_rows(self, u):
            calls.append("check_dual_rows")
            return super().check_dual_rows(u)

    return Counting, calls


@pytest.mark.parametrize(
    "cls, args",
    [(LpSpace, (2.0,)), (FiniteMeasureSpace, ([1.0, 0.5],))],
)
def test_checks_run_once_per_sampled_pair(cls, args):
    counting, calls = _counting(cls)
    space = counting(*args)
    x = np.array([1.0, 2.0])
    query, x_star = _shrink_query(space, x)
    # base point, base dual and candidate; no second dual
    assert calls == ["check", "check_dual", "check_dual"]
    curve = ProbeCurve("shrink", lambda t: GraphPair((1 - t) * x, (1 - t) * x_star), t_max=0.5)
    affine = ProbeCurve("shrink", t_max=0.5, affine=AffineForm(space, query.base, scale=-1.0))
    # the affine curve stripped to its generator is sampled one t at a time
    generator_only = ProbeCurve(affine.curve_id, affine.generator, affine.t_max)
    # the quotient is 0 at every t, so each estimate stops on its first checkpoint
    for steps in (8, 20):
        for each_t in (curve, generator_only):
            del calls[:]
            assert len(estimate_limit(query, each_t, Schedule(0.25, 0.5, steps)).ts) == _CHECKPOINT
            assert calls == ["check", "check_dual"] * _CHECKPOINT
        # the affine curve checks the rows of a checkpoint at once
        del calls[:]
        estimate_limit(query, affine, Schedule(0.25, 0.5, steps))
        assert calls == ["check_rows", "check_dual_rows"]


# -- one duality-set test, relative to the size of the numbers compared -------

THREE_PEAKS = c01.PwlFunction(np.array([0.0, 0.25, 0.5, 0.75, 1.0]), np.array([1.1, 0.0, 1.1, 0.0, 1.1]))
UNIT_ELEMENTS = [
    (LpSpace(3.0), np.array([1.0, -2.0, 0.5])),
    (LpSpace(1.5), np.array([0.0, 3.0, -1.0])),
    (FiniteMeasureSpace([1.0, 0.5, 2.0]), np.array([1.0, 0.0, -2.5])),
    (C01Space(), c01.pwl_tent()),
    (C01Space(), THREE_PEAKS),
]
FACTORS = np.array([[0.3], [0.9], [1.3]])


@pytest.mark.parametrize("alpha", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("space, unit", UNIT_ELEMENTS)
def test_scaled_canonical_pairs_are_members_at_every_magnitude(space, unit, alpha):
    # J is positively homogeneous, so (c x, c J(x)) lies in gph J for c > 0,
    # whatever the magnitude alpha
    x = space.scale(unit, alpha)
    u = space.canonical_dual(x)
    for c in FACTORS.ravel().tolist():
        assert space.is_member(space.scale(x, c), space.dual_scale(u, c)) is True
        assert space.is_member(space.scale(x, c), space.dual_scale(u, 1.01 * c)) is False
    rows = space.scale(x, FACTORS)
    assert space.is_member(rows, space.dual_scale(u, FACTORS)).tolist() == [True] * 3
    assert space.is_member(rows, space.dual_scale(u, 1.01 * FACTORS)).tolist() == [False] * 3


@pytest.mark.parametrize("space, unit", UNIT_ELEMENTS)
def test_duality_gaps_are_relative(space, unit):
    # with u* = 1.01 J(x): |0.01 ||x|| | / max(1, ||x||) and |0.01 ||x||**2| / max(1, ||x||**2)
    u = space.canonical_dual(unit)
    for alpha in (1e-3, 1e3):
        norm_gap, pair_gap = duality_gaps(space, space.scale(unit, alpha), space.dual_scale(u, 1.01 * alpha))
        r = alpha * space.norm(unit)
        assert norm_gap == pytest.approx(0.01 * r / max(1.0, r), rel=1e-6)
        assert pair_gap == pytest.approx(0.01 * r * r / max(1.0, r * r), rel=1e-6)


def test_zero_element_is_a_member_of_small_duals_only():
    for space, unit in UNIT_ELEMENTS:
        zero, u = space.scale(unit, 0.0), space.canonical_dual(unit)
        assert space.is_member(zero, space.dual_scale(u, 0.0)) is True
        assert space.is_member(zero, space.dual_scale(u, 1e-10 / space.dual_norm(u))) is True
        assert space.is_member(zero, space.dual_scale(u, 1e-8 / space.dual_norm(u))) is False


def test_overflowing_gaps_raise_no_warning():
    # ||x||**2 and <u, x> overflow to inf: the pairing gap, inf - inf, is
    # found again on the pair scaled by 1/||x||, so the pair is a member,
    # without a floating-point warning
    space = FiniteMeasureSpace([1.0])
    x = np.array([1e200])
    assert space.is_member(x, space.canonical_dual(x)) is True


def huge_pairs():
    """(space, x, a member of J(x), a non-member) with ||x|| = 1e200: L1 and a c01 peak."""
    l1, x = FiniteMeasureSpace([1.0]), np.array([1e200])
    peak = c01.PwlFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1e200, 0.0]))
    return [
        (l1, x, np.array([1e200]), np.array([-1e200])),
        (C01Space(), peak, c01.atom_measure([(0.5, 1e200)]), c01.atom_measure([(0.5, -1e200)])),
    ]


@pytest.mark.parametrize("space, x, member, other", huge_pairs())
def test_pairs_beyond_the_square_root_of_the_float_range_are_members(space, x, member, other):
    # ||x||**2 and <u, x> overflow; the pair gap is found on the pair scaled
    # by 1/||x||, so a member of that size is a member and builds a query
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert space.is_member(x, member) is True
        assert space.is_member(x, other) is False
        assert duality_gaps(space, x, other)[1] == 2.0
        CoderivativeQuery(space, GraphPair(x, member), candidate=member)
        with pytest.raises(ValueError, match="membership"):
            CoderivativeQuery(space, GraphPair(x, other), candidate=member)


def test_a_batch_rescales_only_its_overflowing_rows():
    space = FiniteMeasureSpace([1.0, 2.0])
    x = np.array([[1e200, 0.0], [1.0, -3.0], [0.0, -1e200], [0.0, 0.0]])
    u = np.array([[1e200, 0.0], [7.0, -7.0], [0.0, -2e200], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm_gap, pair_gap = duality_gaps(space, x, u)
        assert space.is_member(x, u).tolist() == [True, True, True, True]
        assert space.is_member(x, -u).tolist() == [False, False, False, True]
    for i in (1, 3):  # rows in range: the gaps of the row alone, bit for bit
        assert [g.hex() for g in (norm_gap[i], pair_gap[i])] == [g.hex() for g in duality_gaps(space, x[i], u[i])]


@pytest.mark.parametrize("theorem, params", [("thm53", {}), ("thm58", {"c": 1.5})])
def test_large_three_peak_witness_samples_inside_gph_j(theorem, params):
    # the sampled pairs, of norm about 1e6, lie in gph J only under a relative rule
    f = c01.pwl_scale(THREE_PEAKS, 1e6)
    witness = build_witness(C01Space(), theorem, {"f": serialize.pwl_to_json(f), **params})
    certify_nonmembership(witness.query, witness.curve, witness.claimed_bound)
