"""Exact-equality tests of the fast paths of one certificate against the formulas they replaced.

Each reference below is the form the library used before: ``np.mean`` for
the tail estimate (but where the sum of three finite quotients overflows,
which is now averaged term by term), numpy scalars for the duality gaps of one element, the
per-atom loop of ``atom_rows``, the grid union of ``dual_sub`` and builders
that computed ||f|| and M(f) per helper call.  The fast paths must give the
same floats, bit for bit, signed zeros included.  The per-atom sum of
``pairing_c`` is checked against ``ref_pairing`` in ``test_c01_kernels``.
"""

import itertools
import math
import warnings

import numpy as np
import pytest

from dualitymap import C01Space, FiniteMeasureSpace, LpSpace, c01, serialize
from dualitymap.c01 import MeasureRows, RcaMeasure, atom_measure, atom_rows
from dualitymap.coderivative import CoderivativeQuery, GraphPair, _quotient, _sample, _tail_estimate, duality_gaps
from dualitymap.witnesses import HypothesisViolation, build_witness
from witness_draws import CLOSED_FORM_DRAWS, draw_cor57, random_pwl, stable_seed

C01_THEOREMS = ("thm53", "thm54", "thm55", "thm56", "cor57", "thm58")


def same(x, y) -> bool:
    """The same float, signed zeros apart; any NaN matches any NaN."""
    x, y = float(x), float(y)
    return (math.isnan(x) and math.isnan(y)) or x.hex() == y.hex()


def same_array(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def same_measure(mu: RcaMeasure, nu: RcaMeasure) -> bool:
    atoms = len(mu.atoms) == len(nu.atoms) and all(
        same(a, c) and same(b, d) for (a, b), (c, d) in zip(mu.atoms, nu.atoms)
    )
    if mu.density is None or nu.density is None:
        return atoms and mu.density is nu.density
    return atoms and same_array(mu.density.values, nu.density.values) and same_array(
        mu.density.breakpoints, nu.density.breakpoints
    )


# -- the tail estimate ----------------------------------------------------------


def test_tail_mean_is_np_mean():
    rng = np.random.default_rng(11)
    triples = (rng.standard_normal((3000, 3)) * 10.0 ** rng.integers(-300, 300, (3000, 3))).tolist()
    triples.append([1e16, 1.0, 1.0])  # (a + b) + c, not a + (b + c)
    special = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e308, 5e-324)
    triples += [list(t) for t in itertools.product(special, repeat=3)]
    overflows = 0
    for tail in triples:
        with np.errstate(all="ignore"):
            want = float(np.mean(tail))
        if math.isinf(want) and all(map(math.isfinite, tail)):
            # the plain sum overflows: the mean of finite terms is taken term by term
            want, overflows = float(np.sum(np.divide(tail, 3.0))), overflows + 1
            assert math.isfinite(want), tail
        got, _ = _tail_estimate([0.5] * 5 + tail, 1e-6)
        assert type(got) is float and same(got, want), tail
    assert overflows  # such as [1e308, 1e308, 0.0]
    assert math.copysign(1.0, _tail_estimate([-0.0] * 3, 1e-6)[0]) == 1.0


# -- the duality gaps of one element ---------------------------------------------


def ref_gaps(space, x, u) -> tuple:
    with np.errstate(all="ignore"):
        norm = space.norm(x)
        norm_gap = abs(space.dual_norm(u) - norm) / np.maximum(1.0, norm)
        pair_gap = abs(space.pair(u, x) - norm * norm) / np.maximum(1.0, norm * norm)
    return norm_gap, pair_gap


def ref_scaled_pair_gap(space, x, u) -> float:
    """The pair gap of one pair with a finite ||x|| >= 1, on the pair scaled by 1/||x||."""
    c = 1.0 / space.norm(x)
    with np.errstate(all="ignore"):
        return abs(space.pair(space.dual_scale(u, c), space.scale(x, c)) - 1.0)


def gap_cases():
    rng = np.random.default_rng(stable_seed("gaps"))
    cases = []
    for p in (1.5, 2.0, 3.0):
        space = LpSpace(p)
        x = rng.uniform(-5.0, 5.0, 4)
        cases += [(space, x, space.canonical_dual(x)), (space, x, rng.uniform(-5.0, 5.0, 4))]
    space = FiniteMeasureSpace([1.0, 0.5, 2.0])
    f = rng.uniform(-5.0, 5.0, 3)
    cases += [(space, f, space.canonical_dual(f)), (space, f, rng.uniform(-5.0, 5.0, 3))]
    # ||x||^2 and <u, x> overflow: inf - inf is NaN, so the pair gap is found
    # on the pair scaled by 1/||x|| (a member, and a non-member)
    one = FiniteMeasureSpace([1.0])
    cases.append((one, np.array([1e200]), np.array([1e200])))
    cases.append((one, np.array([1e200]), np.array([-1e200])))
    space = C01Space()
    for _ in range(4):
        f = random_pwl(rng)
        if c01.sup_norm(f):
            cases += [(space, f, c01.canonical_duality_measure(f)), (space, f, atom_measure([(0.3, 1.0)]))]
    big = c01.PwlFunction(np.array([0.0, 1.0]), np.array([1e200, 1e200]))
    cases.append((space, big, atom_measure([(0.5, 1e200)])))
    # the TV norm and the pairing overflow against a finite ||f||
    one = c01.pwl_constant(1.0)
    cases.append((space, one, atom_measure([(0.25, 1e308), (0.75, 1e308)])))
    return cases


def test_one_element_gaps_are_the_numpy_gaps_without_a_warning():
    seen_inf = False
    rescaled = 0
    for space, x, u in gap_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = duality_gaps(space, x, u)
        want = ref_gaps(space, x, u)
        with np.errstate(all="ignore"):
            norm = space.norm(x)
        if not np.isfinite(want[1]) and 1.0 <= norm < math.inf:
            want, rescaled = (want[0], ref_scaled_pair_gap(space, x, u)), rescaled + 1
        assert all(type(g) is float for g in got)
        assert same(got[0], want[0]) and same(got[1], want[1]), (space, x, u)
        assert space.is_member(x, u) == bool((want[0] <= 1e-9) & (want[1] <= 1e-9))
        seen_inf |= any(math.isinf(g) for g in got)
    assert seen_inf and rescaled == 4
    # an ||x|| that overflows raises in every backend, so no checked pair has a NaN gap
    with pytest.raises(ValueError, match="overflows"):
        duality_gaps(FiniteMeasureSpace([1.0, 1.0]), np.array([1e308, 1e308]), np.array([1e308, 1e308]))


def test_batch_gaps_are_unchanged():
    # rows in range keep every bit; row 0 overflows and is found on the scaled pair
    space = FiniteMeasureSpace([1.0, 0.5, 2.0])
    rows = np.random.default_rng(3).uniform(-5.0, 5.0, (6, 3))
    rows[0] = 1e200
    duals = space.canonical_dual(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = duality_gaps(space, rows, duals)
    want = ref_gaps(space, rows, duals)
    assert np.isnan(want[1][0])
    want[1][0] = ref_scaled_pair_gap(space, rows[0], duals[0])
    for g, w in zip(got, want):
        assert isinstance(g, np.ndarray)
        assert same_array(g, w)
    assert space.is_member(rows, duals).all()


def test_one_bad_row_fails_a_batch():
    # the batch tests reduce over rows as np.all / np.any did: one row decides
    space = LpSpace(2.0)
    x = np.array([1.0, 2.0])
    query = CoderivativeQuery(space, GraphPair(x, space.canonical_dual(x)), candidate=np.zeros(2))
    u = np.array([[1.5, 3.0], [1.25, 2.5], [1.1, 2.2]])
    u_star = space.canonical_dual(u)
    assert _sample(query, u, u_star, 1e-9)[0].shape == (3,)
    wrong = u_star.copy()
    wrong[1, 0] += 0.5
    with pytest.raises(ValueError, match="outside gph J"):
        _sample(query, u, wrong, 1e-9)
    u[2], u_star[2] = x, query.base.dual
    with pytest.raises(ValueError, match="zero distance"):
        _quotient(query, u, u_star)


# -- atom rows ------------------------------------------------------------------


def ref_atom_rows(points, weights: np.ndarray) -> tuple:
    locations, slot = np.unique(np.asarray(points, dtype=float), return_inverse=True)
    merged = np.zeros((weights.shape[0], locations.size))
    with np.errstate(over="ignore"):
        for j, k in enumerate(slot.tolist()):
            merged[:, k] += weights[:, j]
    return locations, merged


@pytest.mark.parametrize(
    "points",
    [[0.25, 0.5, 1.0], [0.5], [], [0.5, 0.5], [0.75, 0.25, 0.75, 0.0], [1.0, 0.5, 0.5, 0.5, 0.0]],
    ids=["sorted", "one", "none", "repeated", "unsorted", "unsorted-repeated"],
)
def test_atom_rows_match_the_loop(points):
    rng = np.random.default_rng(len(points))
    weights = rng.uniform(-2.0, 2.0, (7, len(points)))
    weights[0] = -0.0
    weights[1] = 0.0
    weights[2, ::2] = -0.0
    if len(points) > 1:
        weights[3, 1] = -weights[3, 0]  # two atoms at one point cancel
    got = atom_rows(points, weights)
    want = ref_atom_rows(points, weights)
    assert same_array(got.locations, want[0])
    assert same_array(got.weights, want[1])


# -- dual_sub of rows at the measure's own locations --------------------------------


def ref_sub_rows(mu: MeasureRows, nu: RcaMeasure) -> tuple:
    nu_locations = np.array([loc for loc, _ in nu.atoms])
    nu_weights = np.array([w for _, w in nu.atoms])
    locations = np.union1d(mu.locations, nu_locations)
    weights = np.zeros((mu.weights.shape[0], locations.size))
    weights[:, locations.searchsorted(mu.locations)] += mu.weights
    weights[:, locations.searchsorted(nu_locations)] -= nu_weights
    return locations, weights


def test_dual_sub_at_equal_locations_matches_the_union():
    space = C01Space()
    nu = atom_measure([(0.0, 1.5), (0.25, -0.5), (1.0, 2.0)])
    locations = np.array([loc for loc, _ in nu.atoms])  # equal to nu's, not the same array
    weights = np.array([[1.5, -0.5, 2.0], [-0.0, 0.0, -0.0], [3.0, -0.0, 2.0], [1.5, 1.0, -2.0]])
    same_place = MeasureRows(locations, weights)
    elsewhere = MeasureRows(np.array([0.0, 0.5, 1.0]), weights)  # the union path
    scaled = space.dual_scale(nu, np.array([[1.0], [-0.0], [2.0]]))
    for mu in (same_place, elsewhere, scaled):
        got = space.dual_sub(mu, nu)
        want = ref_sub_rows(mu, nu)
        assert same_array(got.locations, want[0])
        assert same_array(got.weights, want[1])
        assert got.density is None
    # the first row of same_place is nu itself: every weight is +0.0, no -0.0
    assert same_array(space.dual_sub(same_place, nu).weights[0], np.zeros(3))


# -- the c01 builders --------------------------------------------------------------


def ref_resolve(params: dict, f: c01.PwlFunction) -> RcaMeasure:
    if params.get("mu") is not None:
        return serialize.measure_from_json(params["mu"])
    if params.get("selection") is not None:
        sel = params["selection"]
        if sel.get("type") == "plateau":
            return c01.plateau_duality_measure(f, sel["a"], sel["b"])
        return c01.atomic_duality_measure(f, sel["points"], sel.get("alphas"))
    return c01.canonical_duality_measure(f)


def ref_shared_peaks(f, u) -> list:
    norm_u = c01.sup_norm(u)
    return [s for s in c01.peak_points(f, 1) if abs(float(u(s)) - norm_u) <= c01.VALUE_TOL * max(1.0, norm_u)]


def ref_witness(theorem: str, params: dict) -> tuple:
    """(bound, curve id, t_max, base dual, candidate, shift points, alphas), each helper finding ||f|| and M(f) anew."""
    f = serialize.pwl_from_json(params["f"])
    if theorem in ("thm53", "thm54", "thm58"):
        mu = ref_resolve(params, f)
        if theorem == "thm53":
            return c01.sup_norm(f) / 2.0, "thm53:scale[-1]", 0.5, mu, c01.zero_measure(), None, None
        if theorem == "thm54":
            lam = serialize.measure_from_json(params["lambda"])
            ip = c01.pairing_c(lam, f)
            s = 1.0 if ip > 0.0 else -1.0
            return abs(ip) / (2.0 * c01.sup_norm(f)), f"thm54:scale[{s:+.0f}]", 0.5, mu, lam, None, None
        c = float(params["c"])
        s = 1.0 if c > 1.0 else -1.0
        bound = abs(c - 1.0) * c01.sup_norm(f) / 2.0
        return bound, f"thm58:scale[{s:+.0f}]", 0.5, mu, c01.measure_scale(mu, c), None, None
    if theorem == "thm55":
        lam = serialize.measure_from_json(params["lambda"])
        mass = c01.total_mass(lam)
        sgn = 1.0 if mass > 0.0 else -1.0
        norm, t_max = c01.sup_norm(f), 1.0
        if norm == 0.0:
            pts, alph, mu = [0.5], [1.0], c01.zero_measure()
        else:
            pts = c01.peak_points(f, int(sgn))
            if not pts:
                pts = c01.peak_points(f, -int(sgn))
                t_max = (norm - float(np.max(sgn * f.values))) / 2.0 / 2.0
            alph = [1.0 / len(pts)] * len(pts)
            mu = c01.atomic_duality_measure(f, pts, alph)
        return abs(mass) / 2.0, f"thm55:shift[{sgn:+.0f}]", t_max, mu, lam, pts, alph
    u = serialize.pwl_from_json(params["u"])
    pts, alph = ([1.0], [1.0]) if theorem == "cor57" else (ref_shared_peaks(f, u), None)
    alph = [1.0 / len(pts)] * len(pts) if alph is None else alph
    mu = c01.atomic_duality_measure(f, pts, alph)
    lam = c01.atomic_duality_measure(u, pts, alph)
    bound = (c01.sup_norm(u) - c01.sup_norm(f)) / 2.0
    return bound, "thm56:shift[+1]", 1.0, mu, lam, pts, alph


def c01_scenarios():
    out = []
    for theorem in C01_THEOREMS:
        rng = np.random.default_rng(stable_seed("fast " + theorem))
        draw = draw_cor57 if theorem == "cor57" else CLOSED_FORM_DRAWS[theorem]
        out += [(theorem, draw(rng)[1]) for _ in range(12)]
    tent = {"breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0], "values": [0.0, 1.0, 0.5, 1.0, 0.0]}
    flat = {"breakpoints": [0.0, 1.0], "values": [1.0, 1.0]}
    out += [
        ("thm53", {"f": flat, "selection": {"type": "plateau", "a": 0.0, "b": 1.0}}),
        ("thm53", {"f": tent, "selection": {"points": [0.25, 0.75], "alphas": [0.25, 0.75]}}),
        ("thm58", {"f": tent, "c": 0.5, "mu": {"atoms": [[0.75, 1.0]]}}),
        ("thm54", {"f": tent, "lambda": {"atoms": [[0.25, 1.0]]}, "selection": {"points": [0.75]}}),
        # the opposite peak: f peaks at -1 only and lambda has positive mass
        ("thm55", {"f": {"breakpoints": [0.0, 0.5, 1.0], "values": [0.25, -1.0, 0.5]},
                   "lambda": {"atoms": [[0.5, 1.0]]}}),
        ("thm55", {"f": {"breakpoints": [0.0, 1.0], "values": [0.0, 0.0]}, "lambda": {"atoms": [[0.5, -1.0]]}}),
    ]
    return out


def counting_space():
    class Counting(C01Space):
        member_tests = 0

        def is_member(self, x, u, tol=1e-9):
            type(self).member_tests += 1
            return super().is_member(x, u, tol)

    return Counting()


@pytest.mark.parametrize("theorem, params", c01_scenarios())
def test_c01_witness_matches_the_old_builder(theorem, params):
    space = counting_space()
    witness = build_witness(space, theorem, params)
    bound, curve_id, t_max, mu, candidate, pts, alph = ref_witness(theorem, params)
    assert same(witness.claimed_bound, bound)
    assert witness.curve.curve_id == curve_id and same(witness.curve.t_max, t_max)
    assert same_measure(witness.query.base.dual, mu)
    assert same_measure(witness.query.candidate, candidate)
    if pts is not None:
        form = witness.curve.affine
        assert same_array(form.points, np.array(pts, dtype=float))
        assert same_array(form.alphas, np.array(alph, dtype=float))
        assert same_array(form.values, witness.query.base.point(np.array(pts, dtype=float)))
    assert type(space).member_tests == 1  # the base pair, once


@pytest.mark.parametrize("theorem", ["thm53", "thm54", "thm58"])
def test_a_given_mu_outside_j_names_mu(theorem):
    tent = {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]}
    params = {"f": tent, "mu": {"atoms": [[0.25, 1.0]]}, "lambda": {"atoms": [[0.5, 1.0]]}, "c": 2.0}
    with pytest.raises(HypothesisViolation, match=r"mu in J\(f\)"):
        build_witness(C01Space(), theorem, params)
