"""Catalog of non-membership witnesses: probe curves with closed-form limits.

Each builder returns the exact construction used to disprove membership of a
candidate in the coderivative value: a base pair in gph J, a probe curve, and
the closed-form limit of the difference quotient where one exists.  The
curves fall into three families:

* scaling curves (1 +- t) x paired with (1 +- t) x*, valid in every model by
  homogeneity of J (``_scaling_curve``);
* coordinate / indicator bumps x + t e_m and f +- t chi_D, whose duality
  selections follow the sign-template of the set-valued models
  (``_bump_curve``; thm46 pairs its bump with a non-canonical selection);
* constant shifts f +- t in the sup-norm model, where the shifted function
  keeps (part of) the maximizing set; the atoms of the selection stay at
  their points and only their weights move with t (``_shift_curve``).

Every curve is affine in t and carries its data as a
``coderivative.AffineForm``, so every model samples it in batches; the
shifts use a subclass whose dual weights round as alpha_j (f(s_j) + shift t).

Hypothesis validation is strict: a violated hypothesis raises
``HypothesisViolation`` naming the failed condition rather than producing a
curve outside its validity window.

Each input is checked once, where it is read (``serialize._Fields`` and the
space's ``check`` / ``check_dual``), and each builder computes the norm of
its base point once, for its bound and for the membership test of the base
pair: it hands its checked values and that norm to
``CoderivativeQuery._of_checked``, which tests the base pair and the
second-dual argument and checks nothing again.  A value a builder computes
that can leave the float range keeps its check: thm33's candidate a J(x),
thm58's c mu, the pairings <J(x), y>, <k*, f> and <lambda, f>
(``_finite_pair``), thm55's lambda[0,1], and every claimed bound
(``build_witness``); each is refused by name, without a numpy warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import c01, l1, lp, serialize
from .coderivative import AffineForm, CoderivativeQuery, GraphPair, ProbeCurve, _allowance, _finite, _OffGraph

__all__ = ["HypothesisViolation", "Witness", "build_witness", "THEOREM_IDS"]


class HypothesisViolation(ValueError):
    """A witness request whose parameters break the theorem's hypotheses."""

    def __init__(self, hypothesis: str):
        self.hypothesis = hypothesis
        super().__init__(f"hypothesis violated: {hypothesis}")


@dataclass(frozen=True, eq=False)
class Witness:
    """A ready-to-run non-membership scenario.

    ``claimed_bound`` is the closed-form quotient limit where the
    construction computes one, or None when only positivity is claimed.
    """

    theorem: str
    query: CoderivativeQuery
    curve: ProbeCurve
    claimed_bound: float | None


def _require(condition: bool, hypothesis: str):
    if not condition:
        raise HypothesisViolation(hypothesis)


def _scaling_curve(query: CoderivativeQuery, theorem: str, s: float) -> ProbeCurve:
    """(1 + s t)(x, x*) from the query's base: stays in gph J by positive homogeneity of J."""
    affine = AffineForm(query.space, query.base, scale=s)
    return ProbeCurve(f"{theorem}:scale[{s:+.0f}]", t_max=0.5, affine=affine)


def _bump_curve(query: CoderivativeQuery, curve_id: str, direction, t_max: float) -> ProbeCurve:
    """x + t d paired with canonical_dual(x + t d), free values 0 where J is set-valued."""
    affine = AffineForm(query.space, query.base, tangent=direction)
    return ProbeCurve(curve_id, t_max=t_max, affine=affine)


def _finite_pair(space, u, x, name: str) -> float:
    """<u, x>; a ValueError naming it ``name`` where it leaves the float range, which would pass any test against it."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused below
        ip = space.pair(u, x)
    if not math.isfinite(ip):
        raise ValueError(f"{name} overflows")
    return ip


def _sign_mask_uniform(values: np.ndarray, mask: np.ndarray, name: str) -> float:
    """Common nonzero sign of ``values`` on ``mask``; violation otherwise."""
    vals = values[mask]
    if (vals > 0.0).all():
        return 1.0
    if (vals < 0.0).all():
        return -1.0
    raise HypothesisViolation(f"{name} must have one strict sign on D")


def _indicator_bump(space: l1.FiniteMeasureSpace, k_star: np.ndarray, mask: np.ndarray) -> tuple:
    """(sigma, chi_D, mu(D), sigma <k*, chi_D> / (2 mu(D))): the bump sigma chi_D and the bound of thm45 case 2 and thm46."""
    sigma = _sign_mask_uniform(k_star, mask, "k*")
    chi = l1.indicator(space, mask)
    mu_d = space.measure(mask)
    return sigma, chi, mu_d, sigma * space.pair(k_star, chi) / (2.0 * mu_d)


# ---------------------------------------------------------------------------
# l_p witnesses
# ---------------------------------------------------------------------------


def _pick_direction(x: np.ndarray, w: np.ndarray, p: float, params: dict) -> int:
    """Coordinate m with w_m != 0, preferring x_m != 0; for p < 2 and x != 0, x_m = 0 is refused.

    Along the bump x + t e_m the dual difference behaves like t**(p-1) at a
    zero coordinate, which for p < 2 dominates t and drives the quotient to
    zero, too slowly for any schedule to see (w is then a member); a
    coordinate with x_m != 0 keeps the map locally Lipschitz along the ray
    and the limit positive.
    """
    if params.get("m") is not None:
        m = int(_finite("params m", params["m"], "integer"))
        _require(0 <= m < w.size and w[m] != 0.0, "0 <= m < dim w and w_m != 0 at the requested m")
    else:
        nonzero = np.flatnonzero(w)
        _require(nonzero.size > 0, "w != 0")
        preferred = [m for m in nonzero if x[m] != 0.0]
        m = int(max(preferred or list(nonzero), key=lambda m: abs(w[m])))
    _require(p >= 2.0 or x[m] != 0.0 or not x.any(), f"x_m != 0 at the bump coordinate m = {m}, as p < 2 and x != 0")
    return m


def _thm31(space: lp.LpSpace, params: dict) -> Witness:
    x = space.check(params.numbers("x"))
    w = space.check_dual(params.numbers("w"))
    _require(x.size == w.size, "x and w share a dimension")
    m = _pick_direction(x, w, space.p, params)
    s = float(np.sign(w[m]))
    direction = np.zeros_like(x)
    direction[m] = s
    x_star = space.canonical_dual(x)
    at_origin = not x.any()
    bound = abs(w[m]) / 2.0 if (at_origin or space.p == 2.0) else None
    query = CoderivativeQuery._of_checked(space, GraphPair(x, x_star), w, None, space.norm(x))
    curve = _bump_curve(query, f"thm31:bump[m={m},sign={s:+.0f}]", direction, 1.0)
    return Witness("thm31", query, curve, bound)


def _thm32(space: lp.LpSpace, params: dict) -> Witness:
    x = space.check(params.numbers("x"))
    y = space.check(params.numbers("y"))
    x_star = space.canonical_dual(x)
    ip = _finite_pair(space, x_star, y, "<J(x), y>")
    _require(ip != 0.0, "<J(x), y> != 0")
    s = -1.0 if ip > 0.0 else 1.0
    norm = space.norm(x)
    query = CoderivativeQuery._of_checked(space, GraphPair(x, x_star), np.zeros_like(x), y, norm)
    curve = _scaling_curve(query, "thm32", s)
    return Witness("thm32", query, curve, abs(ip) / (2.0 * norm))


def _thm33(space: lp.LpSpace, params: dict) -> Witness:
    x = space.check(params.numbers("x"))
    a = params.number("a")
    _require(x.any(), "x != 0")
    _require(a > 0.0, "a > 0")
    _require(a != 1.0, "a != 1")
    x_star = space.canonical_dual(x)
    s = 1.0 if a > 1.0 else -1.0
    with np.errstate(over="ignore"):  # inf, refused below
        candidate = space.dual_scale(x_star, a)
    norm = space.norm(x)
    query = CoderivativeQuery._of_checked(space, GraphPair(x, x_star), candidate, x, norm)
    space.check_dual(candidate)  # inf where a J(x) overflows: refused after the membership test of the base pair
    curve = _scaling_curve(query, "thm33", s)
    return Witness("thm33", query, curve, abs(a - 1.0) * norm / 2.0)


# ---------------------------------------------------------------------------
# L_1 witnesses
# ---------------------------------------------------------------------------


def _thm45_case1(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    f = space.check(params.numbers("f"))
    k_star = space.check_dual(params.numbers("k_star"))
    _require(bool((f != 0.0).all()), "mu{f = 0} = 0 (f has no zero values)")
    ip = _finite_pair(space, k_star, f, "<k*, f>")
    _require(ip != 0.0, "<k*, f> != 0")
    norm = space.norm(f)
    s = 1.0 if ip > 0.0 else -1.0
    query = CoderivativeQuery._of_checked(space, GraphPair(f, l1._canonical(f, norm)), k_star, None, norm)
    curve = _scaling_curve(query, "thm45_case1", s)
    return Witness("thm45_case1", query, curve, abs(ip) / (2.0 * norm))


def _thm45_case2(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    f = space.check(params.numbers("f"))
    k_star = space.check_dual(params.numbers("k_star"))
    mask = l1.mask_from_indices(space, params["D"], "params D")
    a = params.number("a")
    _require(bool((f != 0.0).all()), "mu{f = 0} = 0 (f has no zero values)")
    norm = space.norm(f)
    allowed = _allowance(1e-9, space.dual_norm(k_star) * norm)
    _require(abs(_finite_pair(space, k_star, f, "<k*, f>")) <= allowed, "<k*, f> = 0")
    _require(bool(mask.any()), "D is nonempty")
    _require(a > 0.0, "a > 0")
    fd = f[mask]
    _require(
        bool((fd > a).all()) or bool((fd < -a).all()),
        "f has one strict sign beyond a on D",
    )
    sigma, chi, _, bound = _indicator_bump(space, k_star, mask)
    query = CoderivativeQuery._of_checked(space, GraphPair(f, l1._canonical(f, norm)), k_star, None, norm)
    # t < a keeps the signs of f, so J(f + t sigma chi_D) is a singleton.
    curve = _bump_curve(query, f"thm45_case2:bump[{sigma:+.0f}*chi_D]", sigma * chi, a / 2.0)
    return Witness("thm45_case2", query, curve, bound)


def _thm46(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    k_star = space.check_dual(params.numbers("k_star"))
    mask = l1.mask_from_indices(space, params["D"], "params D")
    _require(bool(k_star.any()), "k* != 0*")
    _require(bool(mask.any()), "D is nonempty")
    sigma, chi, mu_d, bound = _indicator_bump(space, k_star, mask)
    theta = np.zeros(space.n)
    query = CoderivativeQuery._of_checked(space, GraphPair(theta, theta.copy()), k_star, None, 0.0)
    # t sigma chi_D paired with t mu(D) (sigma on D, -sigma off D), a member
    # of J(t sigma chi_D) with the free values off D set to -sigma ||.||_1.
    selection = np.where(mask, sigma * mu_d, -sigma * mu_d)
    affine = AffineForm(space, query.base, tangent=sigma * chi, dual_tangent=selection)
    curve = ProbeCurve(f"thm46:bump[{sigma:+.0f}*chi_D]", t_max=1.0, affine=affine)
    return Witness("thm46", query, curve, bound)


def _thm47(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    f = space.check(params.numbers("f"))
    mask = l1.mask_from_indices(space, params["D"], "params D")
    a = params.number("a")
    _require(bool((f >= 0.0).all()) and bool(f.any()), "f in L1+ \\ {0}")
    _require(a > 0.0, "a > 0")
    _require(bool(mask.any()), "D is nonempty")
    _require(bool((f[mask] > a).all()), "D subset {f > a}")
    norm = space.norm(f)
    f_star = l1._canonical(f, norm)
    query = CoderivativeQuery._of_checked(space, GraphPair(f, f_star), -f_star, f, norm)
    # For t < a, f - t chi_D is positive on D and equals f elsewhere, so its
    # canonical selection is ||f - t chi_D||_1 on {f > 0} and 0 on {f = 0}.
    curve = _bump_curve(query, "thm47:bump[-chi_D]", -l1.indicator(space, mask), a / 2.0)
    return Witness("thm47", query, curve, norm)


def _cor48(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    f = space.check(params.numbers("f"))
    u_star = space.check_dual(params.numbers("u_star"))
    _require(bool((f > 0.0).all()), "f strictly positive")
    norm = space.norm(f)
    margins = u_star - norm
    _require(bool((margins > 0.0).all()), "u* > J(f) pointwise")
    if params.get("E") is not None:
        mask = l1.mask_from_indices(space, params["E"], "params E")
        _require(bool(mask.any()), "E is nonempty")
        b = params.number("b") if params.get("b") is not None else float(np.min(margins[mask]))
        _require(b > 0.0, "margin b > 0")
        _require(bool((margins[mask] >= b - _allowance(1e-12, b, norm)).all()), "u* >= ||f||_1 + b on E")
    elif params.get("b") is not None:
        b = params.number("b")
        _require(b > 0.0, "margin b > 0")
        mask = margins >= b
        _require(bool(mask.any()), "E = {u* >= ||f||_1 + b} is nonempty")
    else:
        b = float(np.max(margins)) / 2.0
        mask = margins > b
    query = CoderivativeQuery._of_checked(space, GraphPair(f, l1._canonical(f, norm)), u_star, f, norm)
    curve = _bump_curve(query, "cor48:bump[+chi_E]", l1.indicator(space, mask), 1.0)
    return Witness("cor48", query, curve, b / 2.0)


# ---------------------------------------------------------------------------
# C[0,1] witnesses
# ---------------------------------------------------------------------------


def _resolve_measure(params: dict, f: c01.PwlFunction, norm: float) -> c01.RcaMeasure:
    """mu for J(f), f != 0 of sup norm ``norm``: explicit params, a selection spec, or canonical.

    ``mu`` and ``selection`` name one measure two ways, so params that give
    both (neither null) are refused.  A selection spec is a plateau
    (``type`` "plateau", ``a``, ``b``) or atoms (``points``, optional
    ``alphas``; no ``type`` or any other string).

    Its membership is tested once, with the base pair (``_query_at``).
    """
    mu, sel = params.get("mu"), params.get("selection")
    if mu is not None and sel is not None:
        raise ValueError("params give both mu and selection; a measure is named by one of them")
    if mu is not None:
        return serialize.measure_from_json(mu)
    if sel is not None:
        kind = sel.get("type", "") if isinstance(sel, dict) else ""
        if not isinstance(kind, str):
            raise ValueError(f"selection type must be a string, got {kind!r}")
        sel = serialize._Fields(sel, "selection", ("type", "a", "b") if kind == "plateau" else ("type", "points", "alphas"))
        if kind == "plateau":
            return c01._plateau_measure(f, norm, sel.number("a"), sel.number("b"))
        alphas = None if sel.get("alphas") is None else sel.numbers("alphas")
        return c01._atomic_measure(f, c01._maximizing_set(f, norm), sel.numbers("points"), alphas)
    return c01._canonical_measure(f, norm)


def _query_at(space: c01.C01Space, f: c01.PwlFunction, mu: c01.RcaMeasure, candidate, second_dual, norm: float) -> CoderivativeQuery:
    """The query at the base pair (f, mu), ||f|| = ``norm``, whose membership test stands for the hypothesis mu in J(f)."""
    try:
        return CoderivativeQuery._of_checked(space, GraphPair(f, mu), candidate, second_dual, norm)
    except _OffGraph:
        raise HypothesisViolation("mu in J(f)") from None


@dataclass(frozen=True, eq=False, kw_only=True)
class _ShiftForm(AffineForm):
    """f + shift t paired with atoms alpha_j (v_j + shift t) at fixed points s_j, v_j = f(s_j).

    The atoms stay at the s_j and only their weights move.  A weight is
    evaluated as alpha_j (v_j + shift t), as ``c01.atomic_duality_measure``
    weighs f + shift t there; alpha_j v_j + t (alpha_j shift) rounds
    differently.
    """

    shift: float
    points: np.ndarray
    alphas: np.ndarray
    values: np.ndarray

    def _evaluate(self, t) -> tuple:
        u = c01._shift(self.base.point, self.shift * t)
        return u, c01._measure(*c01._merge(self.points, self.alphas * (self.values + self.shift * t)))


def _shift_curve(theorem: str, query: CoderivativeQuery, shift: float, points, alphas, values, t_max: float) -> ProbeCurve:
    """f + shift t with atoms alpha_j (v_j + shift t) on points s_j where f peaks, given v_j = f(s_j)."""
    points, alphas, values = (np.array(a, dtype=float) for a in (points, alphas, values))
    order = points.argsort(kind="stable")  # sorted once, so the atoms need no sorting at each t
    affine = _ShiftForm(
        query.space, query.base, shift=shift, points=points[order], alphas=alphas[order], values=values[order]
    )
    return ProbeCurve(f"{theorem}:shift[{shift:+.0f}]", t_max=t_max, affine=affine)


def _nonnegative(params: dict, *names: str) -> list:
    """The functions ``params`` gives under ``names``, all parsed first, then each checked to be nonnegative."""
    functions = [serialize.pwl_from_json(params[name]) for name in names]
    for name, g in zip(names, functions):
        _require(bool((g.values >= 0.0).all()), f"{name} in C+[0,1]")
    return functions


def _thm53(space: c01.C01Space, params: dict) -> Witness:
    (f,) = _nonnegative(params, "f")
    norm = space.norm(f)
    _require(norm > 0.0, "||f|| > 0")
    mu = _resolve_measure(params, f, norm)
    query = _query_at(space, f, mu, c01.zero_measure(), f, norm)
    curve = _scaling_curve(query, "thm53", -1.0)
    return Witness("thm53", query, curve, norm / 2.0)


def _thm54(space: c01.C01Space, params: dict) -> Witness:
    f = serialize.pwl_from_json(params["f"])
    lam = serialize.measure_from_json(params["lambda"])
    ip = _finite_pair(space, lam, f, "<lambda, f>")
    _require(ip != 0.0, "<lambda, f> != 0")  # so f != 0
    norm = space.norm(f)
    mu = _resolve_measure(params, f, norm)
    s = 1.0 if ip > 0.0 else -1.0
    query = _query_at(space, f, mu, lam, None, norm)
    curve = _scaling_curve(query, "thm54", s)
    return Witness("thm54", query, curve, abs(ip) / (2.0 * norm))


def _thm55(space: c01.C01Space, params: dict) -> Witness:
    f = serialize.pwl_from_json(params["f"])
    lam = serialize.measure_from_json(params["lambda"])
    mass = _finite("lambda[0,1]", c01.total_mass(lam), "number")  # inf or NaN where it overflows
    _require(mass != 0.0, "lambda[0,1] != 0")
    sgn = 1.0 if mass > 0.0 else -1.0
    norm = space.norm(f)
    t_max = 1.0
    if norm == 0.0:
        # At the origin the shifted constant attains its norm everywhere; one
        # atom suffices.
        pts, alph, vals, mu = [0.5], [1.0], [float(f(0.5))], c01.zero_measure()
    else:
        # Shifting by sgn keeps the peaks at sgn * ||f|| maximizing for every
        # t; the opposite peaks stay maximizing while t is below half the gap
        # to the largest value of sgn * f.  The peaks come from M(f) and the
        # alphas are uniform, so mu takes f's values there without a test.
        mset = c01._maximizing_set(f, norm)
        pts, vals = c01._peak_points(f, norm, mset, int(sgn))
        if not pts:
            pts, vals = c01._peak_points(f, norm, mset, -int(sgn))
            extreme = float(np.max(sgn * f.values))  # max of sgn * f, < norm here
            t_max = (norm - extreme) / 2.0 / 2.0
        alph = [1.0 / len(pts)] * len(pts)
        mu = c01._atoms(pts, alph, vals)
    query = CoderivativeQuery._of_checked(space, GraphPair(f, mu), lam, None, norm)
    curve = _shift_curve("thm55", query, sgn, pts, alph, vals, t_max)
    return Witness("thm55", query, curve, abs(mass) / 2.0)


def _thm56(space: c01.C01Space, params: dict) -> Witness:
    f, u = _nonnegative(params, "f", "u")
    return _shared_peak_witness(space, f, u, params)


def _shared_peak_witness(space: c01.C01Space, f: c01.PwlFunction, u: c01.PwlFunction, params: dict) -> Witness:
    """thm56 for nonnegative f and u, at ``points`` with ``alphas`` when params give them.

    Given points must lie in M(f) and M(u), the sets the atoms of mu and
    lambda must sit on.  Otherwise the points are f's peak points at which u
    is within ``VALUE_TOL`` of ||u||, each in M(u); f and u are read there
    once, for mu, lambda and the curve.  Given alphas are checked, the
    uniform ones are not.
    """
    norm_f, norm_u = space.norm(f), space.norm(u)
    _require(norm_f > 0.0, "||f|| > 0")
    _require(norm_u > norm_f, "||u|| > ||f||")
    mset_f, mset_u = c01._maximizing_set(f, norm_f), c01._maximizing_set(u, norm_u)
    if params.get("points") is not None:
        pts = params.numbers("points").tolist()
        _require(all(mset_f.contains(s) and mset_u.contains(s) for s in pts), "points lie in M(u) and M(f)")
        f_at, u_at = f(np.array(pts)).tolist(), u(np.array(pts)).tolist()
    else:
        pts, f_at = c01._peak_points(f, norm_f, mset_f, 1)
        u_at, tol = u(np.array(pts)).tolist(), _allowance(c01.VALUE_TOL, norm_u)
        shared = [i for i, v in enumerate(u_at) if abs(v - norm_u) <= tol]
        _require(bool(shared), "M(u) and M(f) share a point")
        pts, f_at, u_at = ([a[i] for i in shared] for a in (pts, f_at, u_at))
        _require(all(mset_u.contains(s) for s in pts), "points lie in M(u) and M(f)")
    alph = c01._alphas(pts, None if params.get("alphas") is None else params.numbers("alphas").tolist())
    mu, lam = c01._atoms(pts, alph, f_at), c01._atoms(pts, alph, u_at)
    query = CoderivativeQuery._of_checked(space, GraphPair(f, mu), lam, f, norm_f)
    curve = _shift_curve("thm56", query, 1.0, pts, alph, f_at, 1.0)
    return Witness("thm56", query, curve, (norm_u - norm_f) / 2.0)


def _cor57(space: c01.C01Space, params: dict) -> Witness:
    f, u = _nonnegative(params, "f", "u")
    _require(bool((np.diff(f.values) >= 0.0).all()), "f increasing")
    _require(bool((np.diff(u.values) >= 0.0).all()), "u increasing")
    _require(float(f(1.0)) > 0.0, "f(1) > 0")
    _require(float(u(1.0)) > float(f(1.0)), "u(1) > f(1)")
    # Increasing nonnegative functions peak at the right endpoint; this is a
    # thm56 instance with the endpoint atoms mu = f(1) delta_1, lambda = u(1) delta_1.
    witness = _shared_peak_witness(space, f, u, serialize._Fields({"points": [1.0], "alphas": [1.0]}, "params", ("points", "alphas")))
    return replace(witness, theorem="cor57")


def _thm58(space: c01.C01Space, params: dict) -> Witness:
    (f,) = _nonnegative(params, "f")
    c = params.number("c")
    norm = space.norm(f)
    _require(norm > 0.0, "||f|| > 0")
    _require(c > 0.0, "c > 0")
    _require(c != 1.0, "c != 1")
    mu = _resolve_measure(params, f, norm)
    s = 1.0 if c > 1.0 else -1.0
    query = _query_at(space, f, mu, c01.measure_scale(mu, c), f, norm)
    curve = _scaling_curve(query, "thm58", s)
    return Witness("thm58", query, curve, abs(c - 1.0) * norm / 2.0)


# Each theorem's model, builder and the fields its params may hold.
_CATALOG = {
    "thm31": (lp.LpSpace, _thm31, ("x", "w", "m")),
    "thm32": (lp.LpSpace, _thm32, ("x", "y")),
    "thm33": (lp.LpSpace, _thm33, ("x", "a")),
    "thm45_case1": (l1.FiniteMeasureSpace, _thm45_case1, ("f", "k_star")),
    "thm45_case2": (l1.FiniteMeasureSpace, _thm45_case2, ("f", "k_star", "D", "a")),
    "thm46": (l1.FiniteMeasureSpace, _thm46, ("k_star", "D")),
    "thm47": (l1.FiniteMeasureSpace, _thm47, ("f", "D", "a")),
    "cor48": (l1.FiniteMeasureSpace, _cor48, ("f", "u_star", "E", "b")),
    "thm53": (c01.C01Space, _thm53, ("f", "mu", "selection")),
    "thm54": (c01.C01Space, _thm54, ("f", "lambda", "mu", "selection")),
    "thm55": (c01.C01Space, _thm55, ("f", "lambda")),
    "thm56": (c01.C01Space, _thm56, ("f", "u", "points", "alphas")),
    "cor57": (c01.C01Space, _cor57, ("f", "u")),
    "thm58": (c01.C01Space, _thm58, ("f", "c", "mu", "selection")),
}

THEOREM_IDS = tuple(_CATALOG)


def build_witness(space, theorem_id: str, params: dict) -> Witness:
    """Build the catalog witness ``theorem_id`` for the given space and params, a JSON object of the fields it declares."""
    if not isinstance(theorem_id, str):
        raise ValueError(f"theorem must be a string naming a catalog entry, got {theorem_id!r}")
    if theorem_id not in _CATALOG:
        raise KeyError(f"unknown theorem id: {theorem_id}")
    space_type, builder, keys = _CATALOG[theorem_id]
    if not isinstance(space, space_type):
        raise HypothesisViolation(
            f"{theorem_id} lives in the {space_type.__name__} model"
        )
    witness = builder(space, serialize._Fields(params, "params", keys))
    if witness.claimed_bound is not None and not math.isfinite(witness.claimed_bound):
        raise ValueError(f"the claimed bound of {theorem_id} overflows")
    return witness
