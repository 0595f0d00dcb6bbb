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
geometric schedule, estimate the tail limit, and certify when the tail is
settled, positive, and at or above a claimed closed-form bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GraphPair",
    "CoderivativeQuery",
    "ProbeCurve",
    "Schedule",
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
# Upper bound on Schedule.steps; the default schedule takes 24.
MAX_STEPS = 100

VERDICT_CERTIFIED = "certified"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True, eq=False)
class GraphPair:
    """A point of gph J: a primal element with one of its duality selections."""

    point: object
    dual: object


@dataclass(frozen=True, eq=False)
class CoderivativeQuery:
    """Frozen inputs of the quotient: base pair, y** argument, candidate z*.

    ``second_dual`` is None for the zero functional, otherwise a primal
    element embedded by integration (which the backend restricts to its
    positive cone where the space is not reflexive); an embedding handle
    with a ``function`` attribute is unwrapped to its primal element.
    """

    space: object
    base: GraphPair
    candidate: object
    second_dual: object = None

    def __post_init__(self):
        if not self.space.is_member(self.base.point, self.base.dual, MEMBERSHIP_TOL):
            raise ValueError("base dual element fails the duality membership test")
        if self.second_dual is not None:
            embedded = getattr(self.second_dual, "function", self.second_dual)
            object.__setattr__(self, "second_dual", embedded)
            if not self.space.in_second_dual_domain(embedded):
                raise ValueError("second-dual argument is not representable in this model")


@dataclass(frozen=True, eq=False)
class ProbeCurve:
    """t -> (u_t, u_t*) in gph J, valid for 0 < t <= t_max."""

    curve_id: str
    generator: Callable[[float], GraphPair]
    t_max: float = 1.0

    def at(self, t: float) -> GraphPair:
        if not 0.0 < t <= self.t_max:
            raise ValueError(f"curve {self.curve_id} is only valid on (0, {self.t_max}]")
        return self.generator(float(t))


@dataclass(frozen=True)
class Schedule:
    """Geometric sampling schedule t_k = t0 * ratio**k, k = 0..steps-1."""

    t0: float = 0.25
    ratio: float = 0.5
    steps: int = 24

    def __post_init__(self):
        if self.t0 <= 0.0:
            raise ValueError("t0 must be positive")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie strictly between 0 and 1")
        if self.steps < 8:
            raise ValueError("need at least 8 steps")
        if self.steps > MAX_STEPS:
            raise ValueError(f"at most {MAX_STEPS} steps")
        if not self.t0 * self.ratio ** (self.steps - 1) > 0.0:
            raise ValueError("the last sample t0 * ratio**(steps-1) underflows to 0")


def default_schedule(t_max: float = 1.0) -> Schedule:
    """Geometric schedule from min(0.25, t_max/2) spanning 7 decades of t.

    When the curve's validity window forces t0 below 0.25, the step count
    shrinks so the smallest sample stays near the 0.25 * 0.5**23 floor:
    digging further erodes the dual-side differences to rounding noise.
    """
    t0 = min(0.25, t_max / 2.0)
    steps = 24
    if t0 < 0.25:
        steps = max(8, 24 - int(np.ceil(np.log2(0.25 / t0))))
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

    def tail(self, k: int = 3) -> tuple:
        return self.quotients[-k:]


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


def quotient(query: CoderivativeQuery, pair: GraphPair) -> float:
    """Coderivative difference quotient of the query at one graph pair."""
    space = query.space
    du = space.sub(pair.point, query.base.point)
    dstar = space.dual_sub(pair.dual, query.base.dual)
    den = space.norm(du) + space.dual_norm(dstar)
    if den <= 0.0:
        raise ValueError("degenerate pair: zero distance to the base point")
    num = space.pair(query.candidate, du)
    if query.second_dual is not None:
        num -= space.pair(dstar, query.second_dual)
    return num / den


def _sample(query: CoderivativeQuery, pair: GraphPair, membership_tol: float):
    """Quotient plus graph distance, validating duality membership of the pair."""
    space = query.space
    if not space.is_member(pair.point, pair.dual, membership_tol):
        raise ValueError("probe curve produced a pair outside gph J")
    du = space.sub(pair.point, query.base.point)
    dstar = space.dual_sub(pair.dual, query.base.dual)
    den = space.norm(du) + space.dual_norm(dstar)
    if den <= 0.0:
        raise ValueError("degenerate pair: zero distance to the base point")
    num = space.pair(query.candidate, du)
    if query.second_dual is not None:
        num -= space.pair(dstar, query.second_dual)
    return num / den, den


def estimate_limit(
    query: CoderivativeQuery,
    curve: ProbeCurve,
    schedule: Schedule | None = None,
    settle_tol: float = SETTLE_TOL,
    membership_tol: float = MEMBERSHIP_TOL,
) -> LimitEstimate:
    """Sample the quotient along the curve and estimate its t -> 0 limit.

    The estimate is the mean of the last three quotients; it is ``settled``
    when their spread is at most ``settle_tol``.  A schedule whose t0 exceeds
    the curve's validity window is shrunk to half the window and flagged.
    """
    sch = schedule if schedule is not None else default_schedule(curve.t_max)
    t0 = sch.t0
    shrunk = False
    if t0 > curve.t_max:
        t0 = curve.t_max / 2.0
        shrunk = True
    ts, qs, dists = [], [], []
    for k in range(sch.steps):
        t = t0 * sch.ratio**k
        q, dist = _sample(query, curve.at(t), membership_tol)
        ts.append(t)
        qs.append(q)
        dists.append(dist)
    if dists[-1] >= dists[-2]:
        raise ValueError(
            f"curve {curve.curve_id} does not approach the base point as t drops"
        )
    tail = qs[-3:]
    limit = float(np.mean(tail))
    settled = (max(tail) - min(tail)) <= settle_tol
    return LimitEstimate(tuple(ts), tuple(qs), limit, settled, settle_tol, shrunk)


def _verdict(estimate: LimitEstimate, claimed_bound: float | None, cert_tol: float) -> str:
    if not estimate.settled:
        return VERDICT_INCONCLUSIVE
    tail = estimate.tail()
    if not all(q > 0.0 for q in tail):
        return VERDICT_NOT_CERTIFIED
    if claimed_bound is None:
        return VERDICT_CERTIFIED if estimate.limit > 0.0 else VERDICT_NOT_CERTIFIED
    if estimate.limit >= claimed_bound - cert_tol:
        return VERDICT_CERTIFIED
    return VERDICT_NOT_CERTIFIED


def certify_nonmembership(
    query: CoderivativeQuery,
    curve: ProbeCurve,
    claimed_bound: float | None,
    schedule: Schedule | None = None,
    cert_tol: float = CERT_TOL,
    settle_tol: float = SETTLE_TOL,
    membership_tol: float = MEMBERSHIP_TOL,
) -> NonMembershipCertificate:
    """Run the limit estimate and issue a verdict against the claimed bound.

    ``certified`` requires a settled estimate, strictly positive tail
    quotients, and an estimated limit of at least ``claimed_bound`` minus
    ``cert_tol`` (positivity alone when no bound is claimed).  An unsettled
    estimate is ``inconclusive``, never a false certificate.
    """
    estimate = estimate_limit(query, curve, schedule, settle_tol, membership_tol)
    verdict = _verdict(estimate, claimed_bound, cert_tol)
    return NonMembershipCertificate(
        curve_id=curve.curve_id,
        estimate=estimate,
        claimed_bound=None if claimed_bound is None else float(claimed_bound),
        cert_tol=cert_tol,
        verdict=verdict,
    )


def reverify_certificate(cert: NonMembershipCertificate) -> bool:
    """Re-check a certificate from its stored samples alone.

    Recomputes the tail estimate and verdict from the recorded quotients and
    confirms the soundness margin: a certified verdict implies every tail
    quotient is at least the claimed bound minus twice the certificate
    tolerance.
    """
    est = cert.estimate
    tail = est.quotients[-3:]
    limit = float(np.mean(tail))
    settled = (max(tail) - min(tail)) <= est.settle_tol
    if abs(limit - est.limit) > 1e-12 or settled != est.settled:
        return False
    recomputed = _verdict(
        LimitEstimate(est.ts, est.quotients, limit, settled, est.settle_tol),
        cert.claimed_bound,
        cert.cert_tol,
    )
    if recomputed != cert.verdict:
        return False
    if cert.verdict == VERDICT_CERTIFIED and cert.claimed_bound is not None:
        margin = cert.claimed_bound - 2.0 * cert.cert_tol
        if not all(q >= margin for q in tail):
            return False
    return True


def falsify_membership_search(
    query: CoderivativeQuery,
    curve_family,
    schedule: Schedule | None = None,
    settle_tol: float = SETTLE_TOL,
    membership_tol: float = MEMBERSHIP_TOL,
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
        estimates[curve.curve_id] = estimate_limit(
            query, curve, schedule, settle_tol, membership_tol
        )
    best_id = max(estimates, key=lambda cid: estimates[cid].limit)
    return FalsificationLead(best_id, estimates[best_id].limit, estimates)
