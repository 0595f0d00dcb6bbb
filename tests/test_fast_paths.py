"""Exact-equality tests of the fast paths of one certificate against the formulas they replaced.

Each reference below is the form the library used before: ``np.mean`` for
the tail estimate (but where the sum of three finite quotients overflows,
which is now averaged term by term), numpy scalars for the duality gaps of one element, the
per-atom loop of the atom merge (``c01._merge``), the grid union of ``dual_sub`` and builders
that computed ||f|| and M(f) per helper call.  The fast paths must give the
same floats, bit for bit, signed zeros included.  The per-atom sum of
``pairing_c`` is checked against ``ref_pairing`` in ``test_c01_kernels``,
and here for atoms that all sit on f's grid, which are read by index.  A
certificate on such a grid enters ``np.errstate`` once, and no public c01
entry point warns on an overflow.
"""

import itertools
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dualitymap import C01Space, FiniteMeasureSpace, LpSpace, c01, serialize
from dualitymap.c01 import RcaMeasure, atom_measure
from dualitymap.coderivative import (
    CoderivativeQuery, GraphPair, _quotient, _sample, _tail_estimate, certify_nonmembership, duality_gaps, quotient,
)
from dualitymap.witnesses import HypothesisViolation, build_witness
from test_c01_kernels import ref_pairing
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


def test_a_pinned_tail_keeps_its_mean_on_every_python():
    # a thm58 tail of the seed-1 catalog deck: added left to right it gives the pinned
    # limit, added with compensation (``sum`` of floats from Python 3.12 on) the exact one
    tail = [0.4038903264108517, 0.4038903264108519, 0.4038903264108519]
    assert _tail_estimate(tail, 1e-6)[0] == 0.40389032641085176 == float(np.mean(tail))
    assert math.fsum(tail) / 3 == 0.4038903264108518


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


def batch_gap_cases():
    """(space, batch, its duals, the rows as one-element pairs) per backend; row 0's ||x||**2 overflows."""
    rng = np.random.default_rng(3)
    cases = []
    space = FiniteMeasureSpace([1.0, 0.5, 2.0])
    rows = rng.uniform(-5.0, 5.0, (6, 3))
    rows[0] = 1e200
    cases.append((space, rows, space.canonical_dual(rows)))
    # the suite's lp stacks: dimensions 1-7 as 7 columns, +0.0 beyond each dimension
    for p in (1.5, 3.0):
        space = LpSpace(p)
        rows = rng.uniform(-10.0, 10.0, (6, 7))
        rows[np.arange(7) >= rng.integers(1, 8, 6)[:, None]] = 0.0
        rows[0, 0] = 1e200
        cases.append((space, rows, space.canonical_dual(rows)))
    cases = [(space, rows, duals, list(zip(rows, duals))) for space, rows, duals in cases]
    # a c01 stack with a grid per row, padded to the longest grid
    fs = [c01.PwlFunction(np.array([0.0, 0.4, 1.0]), np.array([1e200, -3e199, 2e199]))]
    fs += [random_pwl(rng) for _ in range(5)]
    stack = c01.pwl_rows([f.breakpoints for f in fs], [f.values for f in fs])
    mu = c01.canonical_duality_measure(stack)
    rows = [RcaMeasure(tuple(zip(mu.locations[i].tolist(), mu.weights[i].tolist()))) for i in range(len(fs))]
    cases.append((C01Space(), stack, mu, list(zip(fs, rows))))
    return cases


def test_batch_gaps_are_unchanged():
    # on each backend rows in range keep every bit; row 0 overflows and is found on the scaled pair
    for space, rows, duals, pairs in batch_gap_cases():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = duality_gaps(space, rows, duals)
            member = space.is_member(rows, duals)
        want = ref_gaps(space, rows, duals)
        assert np.isnan(want[1][0]) and np.isfinite(want[1][1:]).all(), space
        want[1][0] = ref_scaled_pair_gap(space, *pairs[0])
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray)
            assert same_array(g, w), space
        assert member.dtype == bool and member.tolist() == [space.is_member(x, u) for x, u in pairs], space
        assert member.all(), space


def test_one_bad_row_fails_a_batch():
    # the batch tests reduce over rows as np.all / np.any did: one row decides
    space = LpSpace(2.0)
    x = np.array([1.0, 2.0])
    query = CoderivativeQuery(space, GraphPair(x, space.canonical_dual(x)), candidate=np.zeros(2))
    u = np.array([[1.5, 3.0], [1.25, 2.5], [1.1, 2.2]])
    u_star = space.canonical_dual(u)
    assert len(_sample(query, u, u_star, 1e-9)[0]) == 3  # one quotient per row, as a list
    wrong = u_star.copy()
    wrong[1, 0] += 0.5
    with pytest.raises(ValueError, match="outside gph J"):
        _sample(query, u, wrong, 1e-9)
    u[2], u_star[2] = x, query.base.dual
    with pytest.raises(ValueError, match="zero distance"):
        _quotient(query, u, u_star)


# -- atom rows ------------------------------------------------------------------


def ref_merge(points, weights: np.ndarray) -> tuple:
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
    got = c01._merge(np.asarray(points, dtype=float), weights)
    want = ref_merge(points, weights)
    assert same_array(got[0], want[0])
    assert same_array(got[1], want[1])


# -- dual_sub of rows at the measure's own locations --------------------------------


def ref_sub_rows(mu: RcaMeasure, nu: RcaMeasure) -> tuple:
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
    same_place = c01._measure(locations, weights)
    elsewhere = c01._measure(np.array([0.0, 0.5, 1.0]), weights)  # the union path
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


def ref_peak_points(f, sign: int) -> list:
    """The points of M(f) where f is sign ||f||, f read at each on its own."""
    norm = c01.sup_norm(f)
    return [s for s in c01.maximizing_set(f).points() if abs(float(f(s)) - sign * norm) <= c01.VALUE_TOL * max(1.0, norm)]


def ref_atomic(f, pts, alph) -> RcaMeasure:
    """Atoms alpha_j f(s_j), f read at each point on its own."""
    return RcaMeasure([(s, a * float(f(s))) for s, a in zip(pts, alph)])


def ref_shared_peaks(f, u) -> list:
    norm_u = c01.sup_norm(u)
    return [s for s in ref_peak_points(f, 1) if abs(float(u(s)) - norm_u) <= c01.VALUE_TOL * max(1.0, norm_u)]


def ref_witness(theorem: str, params: dict) -> tuple:
    """(bound, curve id, t_max, base dual, candidate, shift points, alphas), each helper finding ||f|| and M(f) anew."""
    f = serialize.pwl_from_json(params["f"])
    if theorem in ("thm53", "thm54", "thm58"):
        mu = ref_resolve(params, f)
        if theorem == "thm53":
            return c01.sup_norm(f) / 2.0, "thm53:scale[-1]", 0.5, mu, c01.zero_measure(), None, None
        if theorem == "thm54":
            lam = serialize.measure_from_json(params["lambda"])
            ip = ref_pairing(lam, f)
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
            pts = ref_peak_points(f, int(sgn))
            if not pts:
                pts = ref_peak_points(f, -int(sgn))
                t_max = (norm - float(np.max(sgn * f.values))) / 2.0 / 2.0
            alph = [1.0 / len(pts)] * len(pts)
            mu = ref_atomic(f, pts, alph)
        return abs(mass) / 2.0, f"thm55:shift[{sgn:+.0f}]", t_max, mu, lam, pts, alph
    u = serialize.pwl_from_json(params["u"])
    pts, alph = ([1.0], [1.0]) if theorem == "cor57" else (ref_shared_peaks(f, u), None)
    alph = [1.0 / len(pts)] * len(pts) if alph is None else alph
    mu, lam = ref_atomic(f, pts, alph), ref_atomic(u, pts, alph)
    bound = (c01.sup_norm(u) - c01.sup_norm(f)) / 2.0
    return bound, "thm56:shift[+1]", 1.0, mu, lam, pts, alph


def c01_scenarios():
    out = []
    for theorem in C01_THEOREMS:
        rng = np.random.default_rng(stable_seed("fast " + theorem))
        draw = draw_cor57 if theorem == "cor57" else CLOSED_FORM_DRAWS[theorem]
        out += [(theorem, draw(rng)[1]) for _ in range(12)]
        if theorem in ("thm54", "thm55"):  # lambda off f's grid, half of them with a density, at the wide deck's size
            out += [(theorem, draw(rng, n=1024)[1]) for _ in range(4)]
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
        # the catalog deck's lambdas: atoms off f's grid, one at 1.0, and a density on [0, 1/2, 1]
        ("thm54", {"f": tent, "lambda": {"atoms": [[0.1, 0.5], [0.6, -1.5], [1.0, 0.25]]}}),
        ("thm54", {"f": tent, "lambda": {"atoms": [[0.3, 1.0]], "density": {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, 0.0]}}}),
        ("thm55", {"f": tent, "lambda": {"atoms": [[0.6, -1.5], [1.0, 0.25]], "density": {"breakpoints": [0.0, 0.5, 1.0], "values": [-2.0, 1.0]}}}),
    ]
    return out


def counting_space():
    class Counting(C01Space):
        calls = {"norm": 0, "dual_norm": 0}

        def norm(self, f):
            type(self).calls["norm"] += 1
            return super().norm(f)

        def dual_norm(self, mu):  # taken by the membership test of the base pair alone
            type(self).calls["dual_norm"] += 1
            return super().dual_norm(mu)

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
        assert [v.hex() for v in form.values.tolist()] == [float(witness.query.base.point(s)).hex() for s in pts]
    # the base pair is tested once, and each sup norm (f's, and u's for thm56 and cor57) is computed once
    assert type(space).calls == {"norm": 2 if theorem in ("thm56", "cor57") else 1, "dual_norm": 1}
    f = witness.query.base.point
    if c01.sup_norm(f):
        assert all(c01.peak_points(f, sign) == ref_peak_points(f, sign) for sign in (1, -1))


@pytest.mark.parametrize("theorem", ["thm53", "thm54", "thm58"])
def test_a_given_mu_outside_j_names_mu(theorem):
    tent = {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 1.0, 0.0]}
    params = {"f": tent, "mu": {"atoms": [[0.25, 1.0]]}}
    params.update({"thm53": {}, "thm54": {"lambda": {"atoms": [[0.5, 1.0]]}}, "thm58": {"c": 2.0}}[theorem])
    with pytest.raises(HypothesisViolation, match=r"mu in J\(f\)"):
        build_witness(C01Space(), theorem, params)


# -- the pairing of atoms on f's grid, and the numpy scope of a certificate -------


def _on_grid_cases():
    """(measure, f, rows) triples: atoms on breakpoints (the ends included), some absent, one measure or a batch each side."""
    rng = np.random.default_rng(stable_seed("on-grid pairing"))
    bp = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    values = rng.uniform(-3.0, 1.0, (6, bp.size))  # mostly negative, so +-0.0 terms meet negative sums
    values[1] = -1.0
    f_rows = c01._on_checked_grid(c01.PwlFunction, bp, values)
    f_one = c01.PwlFunction(bp, values[0])
    cases = []
    for size in (1, 2, 3):
        for _ in range(4):
            locations = np.sort(rng.choice(bp, size, replace=False))
            weights = rng.uniform(-2.0, 2.0, (6, size))
            weights[0, 0], weights[1, -1], weights[2] = 0.0, -0.0, -0.0  # absent atoms
            one = c01._measure(locations, weights[3])
            rows = c01._measure(locations, weights)
            cases += [(one, f_rows, 6), (rows, f_one, 6), (rows, f_rows, 6)]
            cases += [(c01._measure(locations, weights[i]), f_one, None) for i in range(3)]
    return cases


def _row(v, i, rows):
    """Row i of a batch of measures or functions; v itself where it is one element."""
    return v if rows is None or (v.weights if isinstance(v, RcaMeasure) else v.values).ndim == 1 else c01.take_rows(v, i)


def _with_an_absent_atom_off_the_grid(mu: RcaMeasure) -> RcaMeasure:
    """mu with an atom of weight 0.0 at 0.3, between breakpoints: its pairing interpolates f."""
    at = int(np.searchsorted(mu.locations, 0.3))
    zero = np.zeros(mu.weights.shape[:-1] + (1,))
    weights = np.concatenate([mu.weights[..., :at], zero, mu.weights[..., at:]], axis=-1)
    return c01._measure(np.insert(mu.locations, at, 0.3), weights)


@pytest.mark.parametrize("mu, f, rows", _on_grid_cases())
def test_atoms_on_the_grid_pair_bitwise_as_the_per_atom_sum_and_the_interpolation(mu, f, rows):
    space = C01Space()
    found, interpolated = space.pair(mu, f), space.pair(_with_an_absent_atom_off_the_grid(mu), f)
    found = [found] if rows is None else found.tolist()
    interpolated = [interpolated] if rows is None else interpolated.tolist()
    want = [ref_pairing(_row(mu, i, rows), _row(f, i, rows)) for i in range(rows or 1)]
    assert [v.hex() for v in found] == [v.hex() for v in want] == [v.hex() for v in interpolated]
    assert [v.hex() for v in np.atleast_1d(c01.pairing_c(mu, f)).tolist()] == [v.hex() for v in want]


def _tent(peak: float) -> c01.PwlFunction:
    return c01.PwlFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, peak, 0.0]))


def test_no_public_entry_point_warns_on_a_c01_overflow():
    space, big = C01Space(), c01.atom_measure([(0.5, 1e300)])
    query = CoderivativeQuery(space, GraphPair(_tent(1.0), c01.atom_measure([(0.5, 1.0)])), big)
    huge = {"breakpoints": [0.0, 0.5, 1.0], "values": [0.0, 1e300, 0.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # <lambda, u - x> is inf
        assert quotient(query, GraphPair(_tent(1e300), big)) == math.inf
        assert c01.pairing_c(big, _tent(1e300)) == math.inf
        assert c01.tv_norm(c01.atom_measure([(0.25, 1e308), (0.5, 1e308)])) == math.inf
        assert space.is_member(_tent(1e300), big)  # <u, x> overflows: found again on the unit pair
        assert duality_gaps(space, _tent(1e300), big) == (0.0, 0.0)
        with pytest.raises(ValueError, match="<lambda, f> overflows"):
            build_witness(space, "thm54", {"f": huge, "lambda": {"atoms": [[0.5, 1e300]]}})
        with pytest.raises(ValueError, match="atom weights must be finite"):
            build_witness(space, "thm58", {"f": huge, "c": 1e10})


def _one_scope_witnesses() -> list:
    """Certificate rows that pair in Python floats or by index: every c01 row of the fixture, thm53 and thm58 on a tent,
    and thm54 and thm55 with lambda's atoms off f's grid (one at 1.0) or with a density on [0, 1/2, 1]."""
    scenarios = json.loads((Path(__file__).parent.parent / "fixtures" / "all.json").read_text())["scenarios"]
    rows = [(s["theorem"], s["params"]) for s in scenarios if s["space"]["space"] == "c01"]
    tent = {"breakpoints": [0.0, 0.25, 0.5, 0.75, 1.0], "values": [0.0, 1.0, 0.5, 1.0, 0.0]}
    off_grid = {"atoms": [[0.3, 1.0], [0.6, -0.25], [1.0, 0.5]]}
    density = {"atoms": [[0.4, 0.5]], "density": {"breakpoints": [0.0, 0.5, 1.0], "values": [1.0, -0.5]}}
    rows += [("thm53", {"f": tent}), ("thm58", {"f": tent, "c": 2.0}), ("thm58", {"f": tent, "c": 0.5})]
    rows += [(theorem, {"f": tent, "lambda": lam}) for theorem in ("thm54", "thm55") for lam in (off_grid, density)]
    return [build_witness(C01Space(), theorem, params) for theorem, params in rows]


def test_a_certificate_on_the_grid_enters_one_numpy_scope(monkeypatch):
    entered = []

    class Counting(np.errstate):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    witnesses = _one_scope_witnesses()
    monkeypatch.setattr(np, "errstate", Counting)
    for w in witnesses:
        entered.clear()
        cert = certify_nonmembership(w.query, w.curve, w.claimed_bound)
        assert cert.verdict == "certified" and len(entered) == 1, w.theorem


# -- off-grid atoms and densities on one grid, in Python floats and in numpy ------------


def _one_grid_cases(n: int) -> list:
    """(measure, f, rows) triples on one grid of n breakpoints: atoms off the grid, a density, both; one element or a batch each side.

    Some atoms are absent (weight 0.0), one sits at 1.0 beside atoms off
    the grid and one on a breakpoint; a density lies on a grid of its own,
    on [0, 1/2, 1] or on f's, with zero segments.
    """
    rng = np.random.default_rng(stable_seed(f"one-grid pairing {n}"))
    f_one = random_pwl(rng, n=n)
    bp = f_one.breakpoints
    f_rows = c01._on_checked_grid(c01.PwlFunction, bp, rng.uniform(-5.0, 5.0, (6, n)))
    locations = [np.sort(rng.uniform(0.0, 1.0, 3)), np.array([rng.uniform(0.0, bp[1]), bp[1], 1.0])]
    grids = [np.array([0.0, 0.5, 1.0]), bp, np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, n - 2)), [1.0]])]
    cases = []
    for at in locations:
        weights = rng.uniform(-2.0, 2.0, (6, at.size))
        weights[0, 0], weights[1] = 0.0, 0.0
        for grid in grids + [None]:
            dens = None if grid is None else rng.uniform(-2.0, 2.0, (6, grid.size - 1))
            if dens is not None:
                dens[:, ::3] = 0.0
            one = c01._measure(at, weights[2], None if grid is None else c01.StepDensity(grid, dens[2]))
            rows = c01._measure(at, weights, None if grid is None else c01._on_checked_grid(c01.StepDensity, grid, dens))
            shared = c01._measure(at, weights, None if grid is None else c01.StepDensity(grid, dens[3]))
            cases += [(one, f_one, None), (one, f_rows, 6), (rows, f_one, 6), (rows, f_rows, 6), (shared, f_rows, 6)]
    density_only = c01._measure(np.zeros(0), np.zeros(0), c01.StepDensity(grids[2], rng.uniform(-2.0, 2.0, n - 1)))
    return cases + [(density_only, f_one, None), (density_only, f_rows, 6)]


@pytest.mark.parametrize("n", (3, 16, 1024))
def test_off_grid_atoms_and_densities_pair_bitwise_in_floats_and_in_numpy(n, monkeypatch):
    space = C01Space()
    for mu, f, rows in _one_grid_cases(n):
        want = [ref_pairing(_row(mu, i, rows), _row(f, i, rows)).hex() for i in range(rows or 1)]
        for cost in (None, 0, 10**9):  # the module's size rule, numpy's arrays always, Python floats always
            if cost is not None:
                monkeypatch.setattr(c01, "_FLOAT_COST", cost)
            got = space.pair(mu, f)
            assert type(got) is (float if rows is None else np.ndarray)
            assert [v.hex() for v in np.atleast_1d(got).tolist()] == want, (cost, rows)
        monkeypatch.undo()


def test_a_steep_segment_pairs_as_the_per_atom_sum_with_an_absent_atom_where_f_reads_inf():
    # f rises from -1e300 to 1e300 over 1e-9: its slope is past the float range and f reads inf at 0.6 + 5e-10
    bp = np.array([0.0, 0.25, 0.6, 0.6 + 1e-9, 1.0])
    values = np.array([[0.5, -1.0, -1e300, 1e300, 2.0], [1.0, 2.0, 3.0, 4.0, 5.0], [0.5, -1.0, -1e300, 1e300, 2.0]])
    f = c01._on_checked_grid(c01.PwlFunction, bp, values)
    assert float(c01.take_rows(f, 0)(0.6 + 5e-10)) == math.inf
    at = np.array([0.1, 0.6 + 5e-10, 0.8, 1.0])
    weights = np.array([[1.0, 0.0, -0.5, 0.25], [1.0, 2.0, -0.5, 0.25], [1.0, -2.0, -0.5, 0.25]])  # absent, then present
    density = c01._on_checked_grid(c01.StepDensity, np.array([0.0, 0.6 + 5e-10, 1.0]), np.array([[0.0, 1.0], [1.0, 1.0], [0.0, 1.0]]))
    for mu in (c01._measure(at, weights), c01._measure(at, weights, density)):
        got = C01Space().pair(mu, f).tolist()  # no warning, as this suite turns one into an error
        with np.errstate(all="ignore"):  # the reference adds numpy scalars
            want = [ref_pairing(c01.take_rows(mu, i), c01.take_rows(f, i)) for i in range(3)]
        assert all(same(a, b) for a, b in zip(got, want))
    # on rows 0 and 2 f is steep: the absent atom at inf adds nothing, not 0 * inf = NaN; a present one makes -inf
    got = C01Space().pair(c01._measure(at, weights), f).tolist()
    assert math.isfinite(got[0]) and got[2] == -math.inf


def test_values_at_points_are_np_interp_with_its_nan_fallbacks():
    rng = np.random.default_rng(stable_seed("values at"))
    xp = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.6, 0.6 + 1e-9, 1.0])
    fp = rng.uniform(-3.0, 3.0, (6, xp.size))
    fp[1, 2:4] = [1e300, -1e300]
    fp[2, 4:6] = [-1e300, 1e300]  # a slope past the float range: inf inside the segment
    fp[3, :2] = np.inf  # a NaN slope, then a NaN from the right end too, with equal ends
    fp[4, 4:6] = [np.inf, -np.inf]
    fp[5, 1] = np.nan
    x = np.concatenate([xp, rng.uniform(0.0, 1.0, 20), [0.1, 0.6 + 5e-10]])
    got = c01._values_at(x, SimpleNamespace(breakpoints=xp, values=fp), 6)
    for row, values in zip(fp, got):
        assert [v.hex() for v in values] == [v.hex() for v in np.interp(x, xp, row).tolist()]
    assert c01._interp_at(0.1, 0.0, 0.25, math.inf, math.inf) == math.inf


def test_batches_of_unequal_rows_are_refused_on_both_paths(monkeypatch):
    bp = np.array([0.0, 0.5, 1.0])
    f = c01._on_checked_grid(c01.PwlFunction, bp, np.ones((3, 3)))
    mu = c01._measure(np.array([0.25]), np.ones((2, 1)))
    for cost in (0, 10**9):  # numpy's arrays, then Python floats
        monkeypatch.setattr(c01, "_FLOAT_COST", cost)
        with pytest.raises(ValueError):
            C01Space().pair(mu, f)
