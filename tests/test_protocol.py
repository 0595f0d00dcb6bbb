"""The backend protocol: every space implements it, and checks run once per sample."""

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
    estimate_limit,
)
from dualitymap import c01
from dualitymap.coderivative import ROW_FORMS, AffineForm, Space

PROTOCOL = [name for name in vars(Space) if not name.startswith("_")]


def test_protocol_lists_every_method():
    assert sorted(PROTOCOL) == sorted(
        ["check", "check_dual", "norm", "dual_norm", "pair", "sub", "dual_sub", "scale",
         "dual_scale", "canonical_dual", "is_member", "in_second_dual_domain", "descriptor"]
    )


@pytest.mark.parametrize("cls", [LpSpace, FiniteMeasureSpace, C01Space])
def test_every_space_has_every_protocol_method(cls):
    missing = [name for name in PROTOCOL if not callable(getattr(cls, name, None))]
    assert not missing


def test_row_forms_on_every_space():
    assert sorted(ROW_FORMS) == sorted(
        ["check_rows", "check_dual_rows", "norm_rows", "dual_norm_rows", "pair_rows",
         "is_member_rows"]
    )
    for cls in (LpSpace, FiniteMeasureSpace, C01Space):
        assert all(callable(getattr(cls, name, None)) for name in ROW_FORMS)
    # a curve with a canonical dual also needs canonical_dual_rows; no c01 curve has one
    for cls in (LpSpace, FiniteMeasureSpace):
        assert callable(getattr(cls, "canonical_dual_rows", None))
    base = GraphPair(c01.pwl_tent(), c01.canonical_duality_measure(c01.pwl_tent()))
    assert AffineForm(C01Space(), base, scale=-1.0).batches_in(C01Space())
    assert not AffineForm(C01Space(), base, tangent=c01.pwl_tent()).batches_in(C01Space())


def _shrink_query(space, x):
    x_star = space.canonical_dual(x)
    return CoderivativeQuery(space, GraphPair(x, x_star), np.zeros(x.size)), x_star


@pytest.mark.parametrize("space", [LpSpace(3.0), FiniteMeasureSpace([1.0, 2.0])])
def test_non_finite_curve_element_raises(space):
    x = np.array([1.0, -2.0])
    query, x_star = _shrink_query(space, x)

    def gen(t):
        if t < 1e-3:
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
    for steps in (8, 20):
        for each_t in (curve, generator_only):
            del calls[:]
            estimate_limit(query, each_t, Schedule(0.25, 0.5, steps))
            assert calls == ["check", "check_dual"] * steps
        # the affine curve checks all its rows at once
        del calls[:]
        estimate_limit(query, affine, Schedule(0.25, 0.5, steps))
        assert calls == ["check_rows", "check_dual_rows"]
