"""One checkpoint of a limit estimate: the schedule's t, the rows' membership test, the overflow hand-off."""

from dataclasses import replace

import numpy as np
import pytest

from dualitymap import (
    AffineForm,
    C01Space,
    CoderivativeQuery,
    FiniteMeasureSpace,
    GraphPair,
    LpSpace,
    ProbeCurve,
    Schedule,
    build_witness,
    c01,
    coderivative,
    estimate_limit,
)
from dualitymap.coderivative import _CHECKPOINT, default_schedule
from test_batched import _batched_only, _generator_only, _outcome

# ||x|| = 1e200, so ||u||**2 and <u*, u> overflow on every sampled row
HUGE = [
    (C01Space(), "thm54", {"f": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 1e200, 0.0]},
                           "lambda": {"atoms": [[0.3, 1.0]]}}, 0.3),
    (FiniteMeasureSpace([1.0, 2.0]), "thm45_case1", {"f": [1e200, -3e199], "k_star": [1.0, 0.5]},
     0.21874999999999922),
    (LpSpace(3.0), "thm32", {"x": [1e200, 1.0], "y": [1.0, 1.0]}, 0.5000000000000063),
]


@pytest.mark.parametrize("space, theorem, params, limit", HUGE, ids=[h[1] for h in HUGE])
def test_a_checkpoint_whose_pair_gaps_overflow_is_rescaled_and_certifies(space, theorem, params, limit, monkeypatch):
    witness = build_witness(space, theorem, params)
    rescaled, unit_pair_gap = [], coderivative._unit_pair_gap

    def spy(space, x, u, c):
        rescaled.append(np.shape(c))
        return unit_pair_gap(space, x, u, c)

    monkeypatch.setattr(coderivative, "_unit_pair_gap", spy)
    batched = _outcome(witness, _batched_only(witness.curve), None)
    # one checkpoint, its 8 rows handed to the array branch of duality_gaps at once
    assert rescaled == [(_CHECKPOINT, 1)]
    assert batched[3:] == (True, "certified")
    assert batched[2] == limit.hex() and len(batched[0]) == _CHECKPOINT
    rescaled.clear()
    assert _outcome(witness, _generator_only(witness.curve), None) == batched
    assert rescaled == [()] * _CHECKPOINT  # the per-t path rescales each of its 8 pairs


def test_the_default_schedule_is_built_once_and_samples_0_25_times_0_5_to_the_k():
    assert default_schedule(0.5) == Schedule() and default_schedule(1.0) == Schedule()
    assert default_schedule(0.5) is default_schedule(1e300)
    assert default_schedule(0.4) == Schedule(0.2, 0.5, 23)
    space = LpSpace(3.0)
    x = np.array([1.0, -2.0])
    query = CoderivativeQuery(space, GraphPair(x, space.canonical_dual(x)), np.array([0.5, 1.0]))
    curve = ProbeCurve("scaling", t_max=1.0, affine=AffineForm(space, query.base, scale=1.0))
    est = estimate_limit(query, curve)
    assert [t.hex() for t in est.ts] == [(0.25 * 0.5**k).hex() for k in range(len(est.ts))]
    assert len(est.ts) == _CHECKPOINT
    # a replaced schedule computes its own t, on both paths
    for schedule in (replace(Schedule(), t0=0.1), replace(Schedule(), ratio=0.7, steps=9)):
        want = [(schedule.t0 * schedule.ratio**k).hex() for k in range(schedule.steps)]
        for probe in (curve, _generator_only(curve)):
            est = estimate_limit(query, probe, schedule)
            assert [t.hex() for t in est.ts] == want[:_CHECKPOINT]


def _off_graph_curves():
    """(query, an affine curve whose every row leaves gph J) on each backend: (1 - t)(x, 2 x*)."""
    cases = []
    for space, x in ((LpSpace(3.0), np.array([1.0, -2.0])), (FiniteMeasureSpace([1.0, 2.0]), np.array([1.0, -2.0])),
                     (C01Space(), c01.PwlFunction([0.0, 0.5, 1.0], [1.0, 2.0, 0.5]))):
        base = GraphPair(x, space.canonical_dual(x))
        query = CoderivativeQuery(space, base, base.dual)
        doubled = GraphPair(x, space.dual_scale(base.dual, 2.0))
        cases.append((query, ProbeCurve("doubled", t_max=0.5, affine=AffineForm(space, doubled, scale=-1.0))))
    return cases


@pytest.mark.parametrize("query, curve", _off_graph_curves(), ids=["lp", "l1", "c01"])
def test_a_checkpoint_off_the_graph_is_refused_before_any_difference(query, curve, monkeypatch):
    differences = []
    cls = type(query.space)
    for name in ("sub", "dual_sub"):
        def spy(self, a, b, name=name, method=getattr(cls, name)):
            differences.append(name)
            return method(self, a, b)

        monkeypatch.setattr(cls, name, spy)
    for probe in (_batched_only(curve), _generator_only(curve)):
        with pytest.raises(ValueError, match="outside gph J"):
            estimate_limit(query, probe)
    assert differences == []
