"""Difference quotients of the regular coderivative along probe curves in gph J.

For a base pair (x, x*) with x* in J(x), a candidate dual element z*, and a
second-dual argument y** (either the zero functional or an embedded
nonnegative primal element h), the quotient at a graph pair (u, u*) is

    ( <z*, u - x>  -  <y**, u* - x*> ) / ( ||u - x|| + ||u* - x*||_* )

with <y**, u* - x*> evaluated as 0 for the zero functional and as the
pairing <u* - x*, h> for an embedded h.  A probe curve is a one-parameter
family t -> (u_t, u_t*) in gph J converging to the base point as t drops to
zero.  The membership condition "z* belongs to the coderivative value"
requires the limsup of the quotient over *all* graph points approaching the
base to be <= 0, which no finite computation can verify; a single curve
whose quotient limit is positive, however, falsifies it.  Everything here is
therefore built around non-membership certificates: sample the quotient on a
geometric schedule, in checkpoints of ``_CHECKPOINT`` t and only until its
tail settles, estimate the tail limit, and certify when the tail is settled,
positive, and at or above a claimed closed-form bound.

A curve affine in t can carry its data as an ``AffineForm``: the base pair
(x, x*), a point tangent d and a dual tangent d*, with u_t = x + t d and
u_t* = x* + t d*, or u_t* = canonical_dual(u_t) when d* is None; or the
scaling (1 + s t)(x, x*).  The catalog's scaling curves (every model) and
bump curves (``lp``, ``L1``, thm46's included) are of this form, and the
``c01`` shifts are a subclass that rounds its dual weights its own way
(``witnesses``).  ``estimate_limit`` samples such a curve in batches with
one element per row, consecutive blocks of t of at most ``_BLOCK_BYTES`` of
array rows within a checkpoint (a ``c01`` batch is one block a checkpoint):
each ``Space`` method takes a batch as it takes one element and returns one
value per row, and each block passes the checks of the per-t path.  The
batched floats are bitwise those of the per-t path, which stops at the
same t: sums reduce along each row, an ``lp`` pairing runs the
``np.dot`` kernel on each row (``np.vecdot``) and the l_p root stays one
scalar power per row (a matrix product or an array power rounds
differently), a scaling curve evaluates as (1 + s t) x, never as
x + t (s x), and ``c01`` rows follow the rules in the ``c01`` docstring.
Generator-only curves are sampled one t at a time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace
from typing import Callable, Protocol

import numpy as np

__all__ = [
    "Space",
    "duality_gaps",
    "GraphPair",
    "AffineForm",
    "CoderivativeQuery",
    "ProbeCurve",
    "Schedule",
    "Tolerances",
    "LimitEstimate",
    "NonMembershipCertificate",
    "FalsificationLead",
    "default_schedule",
    "quotient",
    "estimate_limit",
    "certify_nonmembership",
    "reverify_certificate",
    "falsify_membership_search",
]

SETTLE_TOL = 1e-6
CERT_TOL = 1e-6
MEMBERSHIP_TOL = 1e-9
# The last quotients of a schedule that the limit estimate averages and the verdict tests.
_TAIL = 3
# Upper bound on Schedule.steps, the most samples an estimate takes (24 for the default schedule).
MAX_STEPS = 100
# Samples between two tests of whether an estimate may stop, and the least
# Schedule.steps, so no estimate stops on fewer.  Where the exact quotient is
# the same at every t (every catalog curve but thm31 with p != 2 and x != 0),
# 8 samples settle, and smaller t add only rounding, which grows like 1/t: on
# the benchmark decks of seeds 1 and 7 the worst relative error of a limit
# fell from 2.1e-7 at 24 samples to 1.7e-12 at 8 (n <= 16) and from 9.9e-9 to
# 2.0e-11 (n = 1024), where 37 of 40 cor48 probe rows had failed to certify.
_CHECKPOINT = 8
# Bytes of one block of array rows that ``estimate_limit`` samples at once,
# within a checkpoint.  Each temporary of a block stays under glibc's default
# 128 KiB mmap threshold, so it comes from the heap; a (24, 1024) float batch
# is 192 KiB, whose temporaries glibc maps and unmaps on every certificate
# (about 200 page faults each time).  96 KiB (12 rows at n = 1024) certified the
# lp and L1 rows of the n = 1024 benchmark deck fastest of blocks of 32, 64,
# 96 and 128 KiB, each size timed in its own process over 24 samples a curve.
_BLOCK_BYTES = 96 * 1024


def _floor(size):
    """max(1, size), entry by entry for an array: the scale a relative tolerance divides by, absolute up to size 1."""
    return np.maximum(1.0, size) if isinstance(size, np.ndarray) else max(1.0, size)


def _allowance(tol: float, *sizes: float) -> float:
    """tol * ``_floor`` of the largest of ``sizes``: the room a comparison of numbers of these sizes allows."""
    return tol * _floor(max(sizes))


def _finite(field: str, value, kind: str):
    """``value`` when it is a finite ``kind`` ("number", "number >= 0" or "integer"), else a ValueError naming ``field``.

    A bool is refused, though Python counts it as an int; a numpy integer or
    float64 (a float) is taken, a narrower numpy float is not.  An integer
    past the float range is not finite.
    """
    types = (int, np.integer) if kind == "integer" else (int, float, np.integer)
    least = 0.0 if kind == "number >= 0" else -sys.float_info.max
    if isinstance(value, bool) or not isinstance(value, types) or not least <= value <= sys.float_info.max:
        raise ValueError(f"{field} must be a finite {kind}, got {value!r}")
    return value


def _finite_list(field: str, values, kind: str) -> np.ndarray:
    """``values``, a list of finite ``kind``s ("number" or "integer") by the rule of ``_finite``, as a float array.

    A list of one Python type, floats with a finite sum or ints no larger
    than the largest float, or a one-dimensional array of finite float64s
    or of integers (integers alone for "integer"), is read as one array;
    any other list or array goes entry by entry through ``_finite``, which
    names the first bad entry ``field[i]``, so both paths take the same
    lists.
    """
    if isinstance(values, list):
        if kind == "integer":  # Python compares an int with a float exactly
            top = sys.float_info.max
            whole = set(map(type, values)) <= {int} and -top <= min(values, default=0) <= max(values, default=0) <= top
        else:  # a sum of finite floats is finite, or overflows and goes entry by entry
            whole = set(map(type, values)) <= {float} and math.isfinite(sum(values))
    elif isinstance(values, np.ndarray) and values.ndim == 1:
        whole = values.dtype.kind in "iu" or (kind == "number" and values.dtype == np.float64 and np.isfinite(values).all())
    else:
        raise ValueError(f"{field} must be a list of finite {kind}s, got {values!r}")
    if not whole:
        for i, v in enumerate(values):
            _finite(f"{field}[{i}]", v, kind)
    return np.asarray(values, dtype=float)


def _indices(field: str, values, n: int) -> np.ndarray:
    """``values``, a list of integers in [0, n) by the rule of ``_finite_list``, as an index array."""
    at = _finite_list(field, values, "integer")
    outside = np.flatnonzero((at < 0) | (at >= n))
    if outside.size:
        raise ValueError(f"{field}[{outside[0]}] must be an integer in [0, {n}), got {values[outside[0]]!r}")
    return at.astype(np.intp)


@dataclass(frozen=True)
class Tolerances:
    """The tolerances of a certificate, named as in a scenario file's ``tolerances``.

    ``cert_tol`` is the room of the bound check (``certify_nonmembership``),
    ``settle_tol`` the largest tail spread of a settled estimate and
    ``membership_tol`` the room of each duality gap of a sampled pair
    (``Space.is_member``).  Each must be a finite number >= 0 by the rule of
    ``_finite``; it is checked here, once, and stored as a float.
    """

    cert_tol: float = CERT_TOL
    settle_tol: float = SETTLE_TOL
    membership_tol: float = MEMBERSHIP_TOL

    def __post_init__(self):
        for field in fields(self):
            value = _finite(f"tolerance {field.name}", getattr(self, field.name), "number >= 0")
            object.__setattr__(self, field.name, float(value))


# The tolerances of a call that names none.
DEFAULT_TOLERANCES = Tolerances()


VERDICT_CERTIFIED = "certified"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_NOT_CERTIFIED = "not_certified"


class Space(Protocol):
    """The backend protocol of ``LpSpace``, ``FiniteMeasureSpace`` and ``C01Space``.

    ``check`` / ``check_dual`` validate an outside primal / dual value once and
    return the form the other methods take; those assume checked arguments.
    A batch holds one element per row: (steps, n) arrays, or a
    ``c01.PwlFunction`` with (steps, breakpoints) values and a
    ``c01.RcaMeasure`` with (steps, atoms) weights; ``check_rows`` /
    ``check_dual_rows`` validate one.
    ``norm``, ``dual_norm``, ``pair`` and ``is_member`` take a batch as they
    take one element and give one value per row, bitwise that row's (a Python
    float or bool for one element); ``pair``, ``sub`` and ``dual_sub`` take one
    element against a batch, ``scale`` and ``dual_scale`` a column of factors,
    and ``canonical_dual`` a batch in ``lp`` and ``L1``.
    """

    def check(self, x): ...
    def check_dual(self, u): ...
    def check_rows(self, x): ...
    def check_dual_rows(self, u): ...
    def norm(self, x): ...
    def dual_norm(self, u): ...
    def pair(self, u, x): ...
    def sub(self, x, y): ...
    def dual_sub(self, u, v): ...
    def scale(self, x, c): ...
    def dual_scale(self, u, c): ...
    def canonical_dual(self, x): ...

    def is_member(self, x, u, tol: float = MEMBERSHIP_TOL):
        """u in J(x): both ``duality_gaps`` at most ``tol``; every backend inherits this test."""
        norm_gap, pair_gap = duality_gaps(self, x, u)
        member = (norm_gap <= tol) & (pair_gap <= tol)
        return member if isinstance(member, np.ndarray) else bool(member)

    def in_second_dual_domain(self, y) -> bool: ...
    def descriptor(self) -> dict: ...


def duality_gaps(space: Space, x, u) -> tuple:
    """|‖u‖* - ‖x‖| / max(1, ‖x‖) and |<u, x> - ‖x‖²| / max(1, ‖x‖²), per row of a batch.

    u is in J(x) iff both are 0; an overflow gives inf or NaN, without a warning.
    One element takes Python-float arithmetic, which rounds as numpy does at
    a fraction of the cost; ``max`` there drops a NaN norm, but that norm
    makes both numerators NaN, so the gaps are NaN either way.

    Where ‖x‖² or <u, x> overflows (‖x‖ from about 1.34e154), the pair gap
    of a row with a finite ‖x‖ >= 1 is found again on the pair scaled by
    1/‖x‖, as |<u/‖x‖, x/‖x‖> - 1|, the same quotient; every finite gap
    keeps its bits.
    """
    with np.errstate(all="ignore"):  # as Python float arithmetic
        norm = space.norm(x)
        square = norm * norm
        norm_gap = abs(space.dual_norm(u) - norm) / _floor(norm)
        pair_gap = abs(space.pair(u, x) - square) / _floor(square)
        if not isinstance(norm, np.ndarray):
            if not math.isfinite(pair_gap) and 1.0 <= norm < math.inf:
                pair_gap = _unit_pair_gap(space, x, u, 1.0 / norm)
        elif not np.isfinite(pair_gap).all():
            redo = ~np.isfinite(pair_gap) & (norm >= 1.0) & (norm < math.inf)
            c = np.where(redo, 1.0 / norm, 1.0)[:, None]  # the other rows are not used
            pair_gap = np.where(redo, _unit_pair_gap(space, x, u, c), pair_gap)
    return norm_gap, pair_gap


def _unit_pair_gap(space: Space, x, u, c):
    """|<c u, c x> - 1|, the pair gap of (x, u) for c = 1/‖x‖ <= 1 (a column of them for a batch)."""
    return abs(space.pair(space.dual_scale(u, c), space.scale(x, c)) - 1.0)


@dataclass(frozen=True, eq=False)
class GraphPair:
    """A point of gph J: a primal element with one of its duality selections."""

    point: object
    dual: object


class _OffGraph(ValueError):
    """The base pair of a query is not in gph J."""


@dataclass(frozen=True, eq=False)
class CoderivativeQuery:
    """Frozen inputs of the quotient: base pair, y** argument, candidate z*.

    ``second_dual`` is None for the zero functional, otherwise a primal
    element embedded by integration, which ``space.in_second_dual_domain``
    restricts to the positive cone where the space is not reflexive.  Every
    value passes the space's ``check``/``check_dual`` once, here, and the
    checked values are the ones stored.
    """

    space: Space
    base: GraphPair
    candidate: object
    second_dual: object = None

    def __post_init__(self):
        space = self.space
        base = GraphPair(space.check(self.base.point), space.check_dual(self.base.dual))
        if not space.is_member(base.point, base.dual):
            raise _OffGraph("base dual element fails the duality membership test")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "candidate", space.check_dual(self.candidate))
        if self.second_dual is not None:
            embedded = space.check(self.second_dual)
            object.__setattr__(self, "second_dual", embedded)
            if not space.in_second_dual_domain(embedded):
                raise ValueError("second-dual argument is not representable in this model")


@dataclass(frozen=True, eq=False)
class AffineForm:
    """A probe curve affine in t, as data in the model ``space``.

    With ``scale`` s != 0 the curve is the scaling (1 + s t)(x, x*) of the
    base pair, evaluated as (1 + s t) x: x + t (s x) rounds differently
    unless t is dyadic.  Otherwise u_t = x + t d for the ``tangent`` d, and
    u_t* = x* + t d* for the ``dual_tangent`` d*, or canonical_dual(u_t) when
    d* is None; x + t d needs array elements, so a tangent is only accepted
    in ``lp`` and ``L1``, and it must pass ``check`` (``check_dual`` for d*)
    with the shape of x (of x*).  ``at`` evaluates one t; ``rows`` evaluates a
    column of t as a batch.  A subclass may evaluate both in its own way by
    overriding ``_evaluate``; otherwise a form needs a scale or a tangent.
    """

    space: Space
    base: GraphPair
    tangent: object = None
    dual_tangent: object = None
    scale: float = 0.0

    def __post_init__(self):
        given = [v for v in (self.tangent, self.dual_tangent) if v is not None]
        elements = (self.base.point, self.base.dual, *given)
        if given and not all(isinstance(v, np.ndarray) for v in elements):
            raise TypeError("a point or dual tangent needs array elements (lp, L1)")
        checks = (("tangent", self.space.check, self.base.point),
                  ("dual_tangent", self.space.check_dual, self.base.dual))
        for name, check, like in checks:
            value = getattr(self, name)
            if value is not None and check(value).shape != like.shape:
                raise ValueError(f"{name} has shape {value.shape}, but the base has {like.shape}")
        if not self.scale and self.tangent is None and type(self)._evaluate is AffineForm._evaluate:
            raise ValueError("an affine form needs a scale or a tangent")

    def _evaluate(self, t) -> tuple:
        space, x, x_star = self.space, self.base.point, self.base.dual
        if self.scale:
            c = 1.0 + self.scale * t
            return space.scale(x, c), space.dual_scale(x_star, c)
        u = x + t * self.tangent
        if self.dual_tangent is None:
            return u, space.canonical_dual(u)
        return u, x_star + t * self.dual_tangent

    def at(self, t: float) -> GraphPair:
        return GraphPair(*self._evaluate(t))

    def rows(self, ts: np.ndarray) -> tuple:
        return self._evaluate(ts[:, None])


@dataclass(frozen=True, eq=False)
class ProbeCurve:
    """t -> (u_t, u_t*) in gph J, valid for 0 < t <= t_max.

    A curve given by an ``affine`` form and no generator gets
    ``affine.at`` as its generator; ``estimate_limit`` samples a curve with
    an affine form from the form, in blocks of t, and ``at`` from the
    generator.
    """

    curve_id: str
    generator: Callable[[float], GraphPair] | None = None
    t_max: float = 1.0
    affine: AffineForm | None = None

    def __post_init__(self):
        if not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"curve {self.curve_id} needs a finite t_max > 0, got {self.t_max}")
        if self.generator is None:
            if self.affine is None:
                raise ValueError("a probe curve needs a generator or an affine form")
            object.__setattr__(self, "generator", self.affine.at)

    def _check_window(self, t: float) -> None:
        if not 0.0 < t <= self.t_max:
            raise ValueError(f"curve {self.curve_id} is only valid on (0, {self.t_max}]")

    def at(self, t: float) -> GraphPair:
        self._check_window(t)
        return self.generator(float(t))


@dataclass(frozen=True)
class Schedule:
    """Geometric sampling schedule t_k = t0 * ratio**k, k = 0..steps-1.

    t0 and ratio are finite numbers and steps an integer; a bool is neither.
    ``estimate_limit`` samples the t in order, in checkpoints of
    ``_CHECKPOINT``, and stops where the tail settles, so ``steps`` (at least
    one checkpoint, at most ``MAX_STEPS``) caps the samples.
    """

    t0: float = 0.25
    ratio: float = 0.5
    steps: int = 24

    def __post_init__(self):
        for name, kind in (("t0", "number"), ("ratio", "number"), ("steps", "integer")):
            _finite(f"schedule {name}", getattr(self, name), kind)
        if self.t0 <= 0.0:
            raise ValueError("t0 must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie strictly between 0 and 1")
        if self.steps < _CHECKPOINT:
            raise ValueError(f"need at least {_CHECKPOINT} steps")
        if self.steps > MAX_STEPS:
            raise ValueError(f"at most {MAX_STEPS} steps")
        if not self.t0 * self.ratio ** (self.steps - 1) > 0.0:
            raise ValueError("the last sample t0 * ratio**(steps-1) underflows to 0")


def default_schedule(t_max: float) -> Schedule:
    """Geometric schedule from min(0.25, t_max/2), capped at 7 decades of t.

    When the curve's validity window forces t0 below 0.25, the step count
    shrinks so the smallest t stays near the 0.25 * 0.5**23 floor: digging
    further erodes the dual-side differences to rounding noise.  A curve
    whose tail settles is sampled on the first 8 t alone.  0.25, 0.5 and 24
    are ``Schedule``'s defaults.
    """
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ValueError(f"t_max must be finite and > 0, got {t_max}")
    t0 = min(Schedule.t0, t_max / 2.0)
    steps = Schedule.steps
    if t0 < Schedule.t0:
        # a difference of logs: 0.25 / t0 overflows for a subnormal t0
        steps = max(_CHECKPOINT, Schedule.steps - math.ceil(math.log2(Schedule.t0) - math.log2(t0)))
    return Schedule(t0=t0, steps=steps)


@dataclass(frozen=True)
class LimitEstimate:
    """Sampled quotients plus the tail estimate of their limit."""

    ts: tuple
    quotients: tuple
    limit: float
    settled: bool
    settle_tol: float
    t0_shrunk: bool = False

    def tail(self) -> tuple:
        """The last ``_TAIL`` quotients, whose mean is ``limit``."""
        return self.quotients[-_TAIL:]


@dataclass(frozen=True)
class NonMembershipCertificate:
    """Evidence that a candidate fails the limsup <= 0 membership condition.

    ``claimed_bound`` None means the certificate claims positivity only.
    The verdict is re-checkable from the stored samples alone.
    """

    curve_id: str
    estimate: LimitEstimate
    claimed_bound: float | None
    cert_tol: float
    verdict: str


@dataclass(frozen=True)
class FalsificationLead:
    """Best probe direction found by a search over a curve family."""

    curve_id: str
    best_limit: float
    estimates: dict


# ``np.any`` / ``np.all`` of one element's bool or a batch's array of them;
# on a Python bool the numpy functions take several microseconds.
def _any(test) -> bool:
    return test.any() if isinstance(test, np.ndarray) else test


def _all(test) -> bool:
    return test.all() if isinstance(test, np.ndarray) else test


def _float_or_rows(values):
    """A Python float for one element; a batch's values, one per row, stay an array."""
    return values if values.ndim else float(values)


def _quotient(query: CoderivativeQuery, u, u_star) -> tuple:
    """Quotient and graph distance at the checked graph pair (u, u*), or per row of a batch."""
    space = query.space
    du = space.sub(u, query.base.point)
    dstar = space.dual_sub(u_star, query.base.dual)
    den = space.norm(du) + space.dual_norm(dstar)
    if _any(den <= 0.0):
        raise ValueError("degenerate pair: zero distance to the base point")
    num = space.pair(query.candidate, du)
    if query.second_dual is not None:
        num = num - space.pair(dstar, query.second_dual)
    return num / den, den


def quotient(query: CoderivativeQuery, pair: GraphPair) -> float:
    """Coderivative difference quotient of the query at one graph pair."""
    space = query.space
    return _quotient(query, space.check(pair.point), space.check_dual(pair.dual))[0]


def _sample(query: CoderivativeQuery, u, u_star, membership_tol: float) -> tuple:
    """``_quotient`` at a checked graph pair or batch, validating duality membership first.

    A batch runs each check on all rows in turn; where rows fail different
    checks, the first check in that order is reported, not the first
    failing t.  ``estimate_limit`` hands it blocks of t in order, so of a
    curve whose rows fail in more than one block, the first such block's
    report is raised.
    """
    if not _all(query.space.is_member(u, u_star, membership_tol)):
        raise ValueError("probe curve produced a pair outside gph J")
    return _quotient(query, u, u_star)


def _tail_estimate(quotients, settle_tol: float) -> tuple:
    """Mean of the last ``_TAIL`` quotients, and whether their spread is <= settle_tol."""
    tail = quotients[-_TAIL:]
    # np.mean, bitwise: numpy sums fewer than 8 terms left to right from +0.0
    # (so three -0.0 give +0.0)
    limit = sum(tail, 0.0) / len(tail)
    if not math.isfinite(limit) and all(map(math.isfinite, tail)):  # the sum overflowed
        # term by term, kept in the tail's range: three rounded MAX / 3 add up past MAX
        limit = min(max(sum([q / len(tail) for q in tail], 0.0), min(tail)), max(tail))
    return float(limit), (max(tail) - min(tail)) <= settle_tol


def estimate_limit(
    query: CoderivativeQuery,
    curve: ProbeCurve,
    schedule: Schedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> LimitEstimate:
    """Sample the quotient along the curve and estimate its t -> 0 limit.

    The t of the schedule are sampled in order, in checkpoints of
    ``_CHECKPOINT``; after a checkpoint the sampling stops when the distance
    to the base fell at the last t and the last three quotients settle, by
    the rule of ``_tail_estimate``; otherwise it goes on, up to the
    schedule's ``steps``.  A quotient that is not finite fails the estimate
    wherever the sampling stops, so the rule does not test it.  The
    estimate holds the t sampled and their quotients; its limit is the mean
    of the last three, ``settled`` when their spread is at most
    ``tolerances.settle_tol``, and each sampled pair must pass ``is_member``
    within ``tolerances.membership_tol``.  A schedule whose t0 exceeds the
    curve's validity window is shrunk to half the window and flagged; the
    shrunk schedule passes the checks of ``Schedule`` again, so a last t that
    underflows to 0 is reported as such.  A curve with an affine form is
    sampled in blocks of t within each checkpoint, each at most
    ``_BLOCK_BYTES`` of array rows (one row where a row is larger; a ``c01``
    batch is one block), in order, so a failing pair is reported by the
    first block that holds one, as ``_sample`` reports it, and the t sampled
    do not depend on the block size.  A quotient that is not finite raises
    ``ValueError``, without a numpy warning for the curve or the quotient
    that overflowed on the way.  A tail of finite quotients whose sum
    overflows is averaged term by term and kept between its least and
    greatest quotient, so the limit is finite, and every other limit keeps
    the bits of the plain mean.
    """
    membership_tol, settle_tol = tolerances.membership_tol, tolerances.settle_tol
    sch = schedule if schedule is not None else default_schedule(curve.t_max)
    shrunk = sch.t0 > curve.t_max
    if shrunk:
        sch = Schedule(curve.t_max / 2.0, sch.ratio, sch.steps)
    ts = [sch.t0 * sch.ratio**k for k in range(sch.steps)]
    space, affine = query.space, curve.affine
    if affine is not None:
        curve._check_window(min(ts))  # every t lies between these two
        curve._check_window(max(ts))
        x = affine.base.point
        rows = max(1, _BLOCK_BYTES // (8 * x.size)) if isinstance(x, np.ndarray) else _CHECKPOINT
    qs, dists = [], []
    # once per estimate: a curve or a pairing of the quotient past the float
    # range comes out inf or NaN, which the checks and the tests below refuse
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(ts), _CHECKPOINT):
            stop = min(start + _CHECKPOINT, len(ts))
            if affine is not None:
                for k in range(start, stop, rows):
                    u, u_star = affine.rows(np.array(ts[k:min(k + rows, stop)]))
                    q, dist = _sample(query, space.check_rows(u), space.check_dual_rows(u_star), membership_tol)
                    qs += q.tolist()
                    dists += dist.tolist()
            else:
                for t in ts[start:stop]:
                    pair = curve.at(t)
                    q, dist = _sample(query, space.check(pair.point), space.check_dual(pair.dual), membership_tol)
                    qs.append(q)
                    dists.append(dist)
            if dists[-1] < dists[-2] and _tail_estimate(qs, settle_tol)[1]:
                break
    if dists[-1] >= dists[-2]:
        raise ValueError(
            f"curve {curve.curve_id} does not approach the base point as t drops"
        )
    if not all(map(math.isfinite, qs)):
        raise ValueError(f"curve {curve.curve_id} gives a difference quotient that is not finite")
    limit, settled = _tail_estimate(qs, settle_tol)
    return LimitEstimate(tuple(ts[:len(qs)]), tuple(qs), limit, settled, settle_tol, shrunk)


def _verdict(estimate: LimitEstimate, claimed_bound: float | None, cert_tol: float) -> str:
    if not estimate.settled:
        return VERDICT_INCONCLUSIVE
    tail = estimate.tail()
    if not all(q > 0.0 for q in tail):
        return VERDICT_NOT_CERTIFIED
    if claimed_bound is None:  # a positive tail has a positive mean
        return VERDICT_CERTIFIED
    if estimate.limit >= claimed_bound - cert_tol and min(tail) >= claimed_bound - 2.0 * cert_tol:
        return VERDICT_CERTIFIED
    return VERDICT_NOT_CERTIFIED


def certify_nonmembership(
    query: CoderivativeQuery,
    curve: ProbeCurve,
    claimed_bound: float | None,
    schedule: Schedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> NonMembershipCertificate:
    """Run the limit estimate and issue a verdict against the claimed bound.

    ``certified`` requires a settled estimate, strictly positive tail
    quotients, an estimated limit of at least ``claimed_bound`` minus
    ``cert_tol`` and tail quotients of at least ``claimed_bound`` minus twice
    ``cert_tol``, the soundness margin (positivity alone when no bound is
    claimed), each tolerance read from ``tolerances``.  A tail settled
    within 1.5 ``cert_tol`` meets the margin whenever its mean meets the
    bound.  An unsettled estimate is ``inconclusive``, never a false
    certificate.
    """
    estimate = estimate_limit(query, curve, schedule, tolerances)
    verdict = _verdict(estimate, claimed_bound, tolerances.cert_tol)
    return NonMembershipCertificate(
        curve_id=curve.curve_id,
        estimate=estimate,
        claimed_bound=None if claimed_bound is None else float(claimed_bound),
        cert_tol=tolerances.cert_tol,
        verdict=verdict,
    )


def reverify_certificate(cert: NonMembershipCertificate) -> bool:
    """Re-check a certificate from its stored samples alone.

    Recomputes the tail estimate and the verdict, by the rule of
    ``certify_nonmembership`` and its soundness margin, from the recorded
    quotients, and compares them with the stored ones.
    """
    est = cert.estimate
    limit, settled = _tail_estimate(est.quotients, est.settle_tol)
    if abs(limit - est.limit) > 1e-12 or settled != est.settled:
        return False
    return _verdict(replace(est, limit=limit), cert.claimed_bound, cert.cert_tol) == cert.verdict


def falsify_membership_search(
    query: CoderivativeQuery,
    curve_family,
    schedule: Schedule | None = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> FalsificationLead:
    """Estimate the limit along every curve and report the best direction.

    A positive best limit is a falsification lead against membership; it is
    not a certificate unless the winning estimate is settled.
    """
    curves = list(curve_family)
    if not curves:
        raise ValueError("curve family must be nonempty")
    estimates = {}
    for curve in curves:
        estimates[curve.curve_id] = estimate_limit(query, curve, schedule, tolerances)
    best_id = max(estimates, key=lambda cid: estimates[cid].limit)
    return FalsificationLead(best_id, estimates[best_id].limit, estimates)
