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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import c01, l1, lp, serialize
from .coderivative import AffineForm, CoderivativeQuery, GraphPair, ProbeCurve, _allowance, _OffGraph

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
    ``one_sided`` marks bounds that are lower estimates rather than exact
    limits.
    """

    theorem: str
    query: CoderivativeQuery
    curve: ProbeCurve
    claimed_bound: float | None
    one_sided: bool = False


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
    """Coordinate m with w_m != 0, preferring x_m != 0.

    Along the bump x + t e_m the dual difference behaves like t**(p-1) at a
    zero coordinate, which for p < 2 dominates t and drives the quotient to
    zero; a coordinate with x_m != 0 keeps the map locally Lipschitz along
    the ray and the limit positive.
    """
    if "m" in params and params["m"] is not None:
        m = l1._index(params["m"], w.size)
        _require(w[m] != 0.0, "w_m != 0 at the requested m")
        return m
    nonzero = np.flatnonzero(w)
    _require(nonzero.size > 0, "w != 0")
    preferred = [m for m in nonzero if x[m] != 0.0]
    pool = preferred if preferred else list(nonzero)
    return int(max(pool, key=lambda m: abs(w[m])))


def _thm31(space: lp.LpSpace, params: dict) -> Witness:
    x = space.check(params["x"])
    w = space.check_dual(params["w"])
    _require(x.size == w.size, "x and w share a dimension")
    m = _pick_direction(x, w, space.p, params)
    s = float(np.sign(w[m]))
    direction = np.zeros_like(x)
    direction[m] = s
    x_star = space.canonical_dual(x)
    at_origin = not x.any()
    bound = abs(w[m]) / 2.0 if (at_origin or space.p == 2.0) else None
    query = CoderivativeQuery(space, GraphPair(x, x_star), candidate=w)
    curve = _bump_curve(query, f"thm31:bump[m={m},sign={s:+.0f}]", direction, 1.0)
    return Witness("thm31", query, curve, bound, one_sided=bound is None)


def _thm32(space: lp.LpSpace, params: dict) -> Witness:
    x = space.check(params["x"])
    y = space.check(params["y"])
    x_star = space.canonical_dual(x)
    ip = space.pair(x_star, y)
    _require(ip != 0.0, "<J(x), y> != 0")
    s = -1.0 if ip > 0.0 else 1.0
    query = CoderivativeQuery(
        space, GraphPair(x, x_star), candidate=np.zeros_like(x), second_dual=y
    )
    curve = _scaling_curve(query, "thm32", s)
    return Witness("thm32", query, curve, abs(ip) / (2.0 * space.norm(x)))


def _thm33(space: lp.LpSpace, params: dict) -> Witness:
    x = space.check(params["x"])
    a = float(params["a"])
    _require(x.any(), "x != 0")
    _require(a > 0.0, "a > 0")
    _require(a != 1.0, "a != 1")
    x_star = space.canonical_dual(x)
    s = 1.0 if a > 1.0 else -1.0
    with np.errstate(over="ignore"):  # inf, which the query's check refuses
        candidate = space.dual_scale(x_star, a)
    query = CoderivativeQuery(space, GraphPair(x, x_star), candidate=candidate, second_dual=x)
    curve = _scaling_curve(query, "thm33", s)
    return Witness("thm33", query, curve, abs(a - 1.0) * space.norm(x) / 2.0)


# ---------------------------------------------------------------------------
# L_1 witnesses
# ---------------------------------------------------------------------------


def _pair_k_star_f(space: l1.FiniteMeasureSpace, k_star: np.ndarray, f: np.ndarray) -> float:
    """<k*, f>; ValueError where it leaves the float range, which would pass any test against it."""
    with np.errstate(over="ignore"):  # inf, refused below
        ip = space.pair(k_star, f)
    if not np.isfinite(ip):
        raise ValueError("<k*, f> overflows")
    return ip


def _thm45_case1(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    f = space.check(params["f"])
    k_star = space.check_dual(params["k_star"])
    _require(bool((f != 0.0).all()), "mu{f = 0} = 0 (f has no zero values)")
    ip = _pair_k_star_f(space, k_star, f)
    _require(ip != 0.0, "<k*, f> != 0")
    f_star = space.canonical_dual(f)
    s = 1.0 if ip > 0.0 else -1.0
    query = CoderivativeQuery(space, GraphPair(f, f_star), candidate=k_star)
    curve = _scaling_curve(query, "thm45_case1", s)
    return Witness("thm45_case1", query, curve, abs(ip) / (2.0 * space.norm(f)))


def _thm45_case2(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    f = space.check(params["f"])
    k_star = space.check_dual(params["k_star"])
    mask = l1.mask_from_indices(space, params["D"])
    a = float(params["a"])
    _require(bool((f != 0.0).all()), "mu{f = 0} = 0 (f has no zero values)")
    allowed = _allowance(1e-9, space.dual_norm(k_star) * space.norm(f))
    _require(abs(_pair_k_star_f(space, k_star, f)) <= allowed, "<k*, f> = 0")
    _require(bool(mask.any()), "D is nonempty")
    _require(a > 0.0, "a > 0")
    fd = f[mask]
    _require(
        bool((fd > a).all()) or bool((fd < -a).all()),
        "f has one strict sign beyond a on D",
    )
    sigma, chi, _, bound = _indicator_bump(space, k_star, mask)
    query = CoderivativeQuery(space, GraphPair(f, space.canonical_dual(f)), candidate=k_star)
    # t < a keeps the signs of f, so J(f + t sigma chi_D) is a singleton.
    curve = _bump_curve(query, f"thm45_case2:bump[{sigma:+.0f}*chi_D]", sigma * chi, a / 2.0)
    return Witness("thm45_case2", query, curve, bound)


def _thm46(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    k_star = space.check_dual(params["k_star"])
    mask = l1.mask_from_indices(space, params["D"])
    _require(bool(k_star.any()), "k* != 0*")
    _require(bool(mask.any()), "D is nonempty")
    sigma, chi, mu_d, bound = _indicator_bump(space, k_star, mask)
    theta = np.zeros(space.n)
    query = CoderivativeQuery(space, GraphPair(theta, theta.copy()), candidate=k_star)
    # t sigma chi_D paired with t mu(D) (sigma on D, -sigma off D), a member
    # of J(t sigma chi_D) with the free values off D set to -sigma ||.||_1.
    selection = np.where(mask, sigma * mu_d, -sigma * mu_d)
    affine = AffineForm(space, query.base, tangent=sigma * chi, dual_tangent=selection)
    curve = ProbeCurve(f"thm46:bump[{sigma:+.0f}*chi_D]", t_max=1.0, affine=affine)
    return Witness("thm46", query, curve, bound)


def _thm47(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    f = space.check(params["f"])
    mask = l1.mask_from_indices(space, params["D"])
    a = float(params["a"])
    _require(bool((f >= 0.0).all()) and bool(f.any()), "f in L1+ \\ {0}")
    _require(a > 0.0, "a > 0")
    _require(bool(mask.any()), "D is nonempty")
    _require(bool((f[mask] > a).all()), "D subset {f > a}")
    f_star = space.canonical_dual(f)
    query = CoderivativeQuery(
        space, GraphPair(f, f_star), candidate=-f_star, second_dual=f
    )
    # For t < a, f - t chi_D is positive on D and equals f elsewhere, so its
    # canonical selection is ||f - t chi_D||_1 on {f > 0} and 0 on {f = 0}.
    curve = _bump_curve(query, "thm47:bump[-chi_D]", -l1.indicator(space, mask), a / 2.0)
    return Witness("thm47", query, curve, space.norm(f))


def _cor48(space: l1.FiniteMeasureSpace, params: dict) -> Witness:
    f = space.check(params["f"])
    u_star = space.check_dual(params["u_star"])
    _require(bool((f > 0.0).all()), "f strictly positive")
    norm = space.norm(f)
    margins = u_star - norm
    _require(bool((margins > 0.0).all()), "u* > J(f) pointwise")
    if params.get("E") is not None:
        mask = l1.mask_from_indices(space, params["E"])
        _require(bool(mask.any()), "E is nonempty")
        b = float(params["b"]) if params.get("b") is not None else float(np.min(margins[mask]))
        _require(b > 0.0, "margin b > 0")
        _require(bool((margins[mask] >= b - _allowance(1e-12, b, norm)).all()), "u* >= ||f||_1 + b on E")
    elif params.get("b") is not None:
        b = float(params["b"])
        _require(b > 0.0, "margin b > 0")
        mask = margins >= b
        _require(bool(mask.any()), "E = {u* >= ||f||_1 + b} is nonempty")
    else:
        b = float(np.max(margins)) / 2.0
        mask = margins > b
    query = CoderivativeQuery(
        space, GraphPair(f, space.canonical_dual(f)), candidate=u_star, second_dual=f
    )
    curve = _bump_curve(query, "cor48:bump[+chi_E]", l1.indicator(space, mask), 1.0)
    return Witness("cor48", query, curve, b / 2.0, one_sided=True)


# ---------------------------------------------------------------------------
# C[0,1] witnesses
# ---------------------------------------------------------------------------


def _resolve_measure(params: dict, f: c01.PwlFunction, norm: float) -> c01.RcaMeasure:
    """mu for J(f), f != 0 of sup norm ``norm``: explicit params, a selection spec, or canonical.

    Its membership is tested once, with the base pair (``_query_at``).
    """
    if params.get("mu") is not None:
        return serialize.measure_from_json(params["mu"])
    if params.get("selection") is not None:
        sel = serialize._Fields(params["selection"], "selection")
        if sel.get("type") == "plateau":
            return c01._plateau_measure(f, norm, sel["a"], sel["b"])
        return c01._atomic_measure(f, c01._maximizing_set(f, norm), sel["points"], sel.get("alphas"))
    return c01._canonical_measure(f, norm)


def _query_at(space: c01.C01Space, f: c01.PwlFunction, mu: c01.RcaMeasure, **query) -> CoderivativeQuery:
    """The query at the base pair (f, mu), whose membership test stands for the hypothesis mu in J(f)."""
    try:
        return CoderivativeQuery(space, GraphPair(f, mu), **query)
    except _OffGraph:
        raise HypothesisViolation("mu in J(f)") from None


@dataclass(frozen=True, eq=False)
class _ShiftForm(AffineForm):
    """f + shift t paired with atoms alpha_j (v_j + shift t) at fixed points s_j, v_j = f(s_j).

    The atoms stay at the s_j and only their weights move.  A weight is
    evaluated as alpha_j (v_j + shift t), as ``c01.atomic_duality_measure``
    weighs f + shift t there; alpha_j v_j + t (alpha_j shift) rounds
    differently.
    """

    shift: float = 0.0
    points: np.ndarray = None
    alphas: np.ndarray = None
    values: np.ndarray = None

    def _evaluate(self, t) -> tuple:
        u = c01.pwl_shift(self.base.point, self.shift * t)
        return u, c01._measure(*c01._merge(self.points, self.alphas * (self.values + self.shift * t)))


def _shift_curve(theorem: str, query: CoderivativeQuery, shift: float, points, alphas, t_max: float) -> ProbeCurve:
    """f + shift t with atoms alpha_j (f(s_j) + shift t) on points s_j where f peaks."""
    points, alphas = np.array(points, dtype=float), np.array(alphas, dtype=float)
    order = points.argsort(kind="stable")  # sorted once, so the atoms need no sorting at each t
    points, alphas = points[order], alphas[order]
    affine = _ShiftForm(
        query.space, query.base, shift=shift, points=points, alphas=alphas, values=query.base.point(points)
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
    query = _query_at(space, f, mu, candidate=c01.zero_measure(), second_dual=f)
    curve = _scaling_curve(query, "thm53", -1.0)
    return Witness("thm53", query, curve, norm / 2.0)


def _thm54(space: c01.C01Space, params: dict) -> Witness:
    f = serialize.pwl_from_json(params["f"])
    lam = serialize.measure_from_json(params["lambda"])
    ip = space.pair(lam, f)
    _require(ip != 0.0, "<lambda, f> != 0")  # so f != 0
    norm = space.norm(f)
    mu = _resolve_measure(params, f, norm)
    s = 1.0 if ip > 0.0 else -1.0
    query = _query_at(space, f, mu, candidate=lam)
    curve = _scaling_curve(query, "thm54", s)
    return Witness("thm54", query, curve, abs(ip) / (2.0 * norm))


def _thm55(space: c01.C01Space, params: dict) -> Witness:
    f = serialize.pwl_from_json(params["f"])
    lam = serialize.measure_from_json(params["lambda"])
    mass = c01.total_mass(lam)
    _require(mass != 0.0, "lambda[0,1] != 0")
    sgn = 1.0 if mass > 0.0 else -1.0
    norm = space.norm(f)
    t_max = 1.0
    if norm == 0.0:
        # At the origin the shifted constant attains its norm everywhere; one
        # atom suffices.
        pts, alph, mu = [0.5], [1.0], c01.zero_measure()
    else:
        # Shifting by sgn keeps the peaks at sgn * ||f|| maximizing for every
        # t; the opposite peaks stay maximizing while t is below half the gap
        # to the largest value of sgn * f.
        mset = c01._maximizing_set(f, norm)
        pts = c01._peak_points(f, norm, mset, int(sgn))
        if not pts:
            pts = c01._peak_points(f, norm, mset, -int(sgn))
            extreme = float(np.max(sgn * f.values))  # max of sgn * f, < norm here
            t_max = (norm - extreme) / 2.0 / 2.0
        alph = [1.0 / len(pts)] * len(pts)
        mu = c01._atomic_measure(f, mset, pts, alph)
    query = CoderivativeQuery(space, GraphPair(f, mu), candidate=lam)
    curve = _shift_curve("thm55", query, sgn, pts, alph, t_max)
    return Witness("thm55", query, curve, abs(mass) / 2.0)


def _thm56(space: c01.C01Space, params: dict) -> Witness:
    f, u = _nonnegative(params, "f", "u")
    return _shared_peak_witness(space, f, u, params)


def _shared_peak_witness(space: c01.C01Space, f: c01.PwlFunction, u: c01.PwlFunction, params: dict) -> Witness:
    """thm56 for nonnegative f and u, at ``points`` with ``alphas`` when params give them."""
    norm_f, norm_u = space.norm(f), space.norm(u)
    _require(norm_f > 0.0, "||f|| > 0")
    _require(norm_u > norm_f, "||u|| > ||f||")
    mset_f = c01._maximizing_set(f, norm_f)
    if params.get("points") is not None:
        pts = [float(s) for s in params["points"]]
        for s, v in zip(pts, u(np.array(pts)).tolist()):
            _require(
                mset_f.contains(s) and abs(v - norm_u) <= _allowance(1e-9, norm_u),
                "points lie in M(u) and M(f)",
            )
    else:
        peaks = c01._peak_points(f, norm_f, mset_f, 1)
        pts = [
            s
            for s, v in zip(peaks, u(np.array(peaks)).tolist())
            if abs(v - norm_u) <= _allowance(c01.VALUE_TOL, norm_u)
        ]
        _require(bool(pts), "M(u) and M(f) share a point")
    alph = params.get("alphas")
    alph = [1.0 / len(pts)] * len(pts) if alph is None else [float(a) for a in alph]
    mu = c01._atomic_measure(f, mset_f, pts, alph)
    lam = c01._atomic_measure(u, c01._maximizing_set(u, norm_u), pts, alph)
    query = CoderivativeQuery(space, GraphPair(f, mu), candidate=lam, second_dual=f)
    curve = _shift_curve("thm56", query, 1.0, pts, alph, 1.0)
    return Witness("thm56", query, curve, (norm_u - norm_f) / 2.0)


def _cor57(space: c01.C01Space, params: dict) -> Witness:
    f, u = _nonnegative(params, "f", "u")
    _require(bool((np.diff(f.values) >= 0.0).all()), "f increasing")
    _require(bool((np.diff(u.values) >= 0.0).all()), "u increasing")
    _require(float(f(1.0)) > 0.0, "f(1) > 0")
    _require(float(u(1.0)) > float(f(1.0)), "u(1) > f(1)")
    # Increasing nonnegative functions peak at the right endpoint; this is a
    # thm56 instance with the endpoint atoms mu = f(1) delta_1, lambda = u(1) delta_1.
    witness = _shared_peak_witness(space, f, u, {"points": [1.0], "alphas": [1.0]})
    return replace(witness, theorem="cor57")


def _thm58(space: c01.C01Space, params: dict) -> Witness:
    (f,) = _nonnegative(params, "f")
    c = float(params["c"])
    norm = space.norm(f)
    _require(norm > 0.0, "||f|| > 0")
    _require(c > 0.0, "c > 0")
    _require(c != 1.0, "c != 1")
    mu = _resolve_measure(params, f, norm)
    s = 1.0 if c > 1.0 else -1.0
    query = _query_at(space, f, mu, candidate=space.dual_scale(mu, c), second_dual=f)
    curve = _scaling_curve(query, "thm58", s)
    return Witness("thm58", query, curve, abs(c - 1.0) * norm / 2.0)


_CATALOG = {
    "thm31": (lp.LpSpace, _thm31),
    "thm32": (lp.LpSpace, _thm32),
    "thm33": (lp.LpSpace, _thm33),
    "thm45_case1": (l1.FiniteMeasureSpace, _thm45_case1),
    "thm45_case2": (l1.FiniteMeasureSpace, _thm45_case2),
    "thm46": (l1.FiniteMeasureSpace, _thm46),
    "thm47": (l1.FiniteMeasureSpace, _thm47),
    "cor48": (l1.FiniteMeasureSpace, _cor48),
    "thm53": (c01.C01Space, _thm53),
    "thm54": (c01.C01Space, _thm54),
    "thm55": (c01.C01Space, _thm55),
    "thm56": (c01.C01Space, _thm56),
    "cor57": (c01.C01Space, _cor57),
    "thm58": (c01.C01Space, _thm58),
}

THEOREM_IDS = tuple(_CATALOG)


def build_witness(space, theorem_id: str, params: dict) -> Witness:
    """Build the catalog witness ``theorem_id`` for the given space and params (a JSON object)."""
    if theorem_id not in _CATALOG:
        raise KeyError(f"unknown theorem id: {theorem_id}")
    space_type, builder = _CATALOG[theorem_id]
    if not isinstance(space, space_type):
        raise HypothesisViolation(
            f"{theorem_id} lives in the {space_type.__name__} model"
        )
    return builder(space, serialize._Fields(params, "params"))
