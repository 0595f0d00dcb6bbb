"""Exact-equality tests of the c01 array kernels against per-segment loops.

The reference functions below are the loop forms the array kernels
replaced, and the union-grid form of ``pwl_sub`` that its shared-grid path
skips.  The kernels keep the arithmetic and the summation order, so every
float must agree bit for bit and every atom and interval tuple must be
identical.
"""

import numpy as np
import pytest

from dualitymap import C01Space, c01, PwlFunction, is_duality_member_c, maximizing_set, pairing_c
from dualitymap.c01 import (
    VALUE_TOL,
    MaximizingSet,
    MembershipReport,
    RcaMeasure,
    StepDensity,
    atom_measure,
    atomic_duality_measure,
    canonical_duality_measure,
    maximizer_runs,
    measure_scale,
    measure_sub,
    plateau_duality_measure,
    pwl_rows,
    pwl_scale,
    pwl_shift,
    pwl_sub,
    pwl_tent,
    sup_norm,
    total_mass,
    tv_norm,
)

SIZES = (2, 3, 16, 1024)


# -- reference loops ----------------------------------------------------------


def ref_value_in(density: StepDensity, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    idx = int(np.searchsorted(density.breakpoints, mid, side="right")) - 1
    return float(density.values[min(max(idx, 0), density.values.size - 1)])


def ref_left_sum(terms) -> float:
    """0.0 + terms[0] + terms[1] + ..., left to right: the builtin ``sum`` compensates its rounding from Python 3.12 on."""
    total = 0.0
    for term in terms:
        total += term
    return total


def ref_pairing(mu: RcaMeasure, f: PwlFunction) -> float:
    total = ref_left_sum(w * float(f(loc)) for loc, w in mu.atoms)
    if mu.density is not None:
        grid = np.union1d(mu.density.breakpoints, f.breakpoints)
        fvals = f(grid)
        for k in range(grid.size - 1):
            a, b = grid[k], grid[k + 1]
            d = ref_value_in(mu.density, a, b)
            if d != 0.0:
                total += d * (b - a) * 0.5 * (fvals[k] + fvals[k + 1])
    return float(total)


def ref_density_terms(d: StepDensity, f: PwlFunction) -> np.ndarray:
    """The density terms of a pairing with f interpolated on the whole union grid."""
    grid = np.union1d(d.breakpoints, f.breakpoints)
    fvals = f(grid)
    dens = d.values_on(grid)
    terms = dens * (grid[1:] - grid[:-1]) * 0.5 * (fvals[..., :-1] + fvals[..., 1:])
    return np.where(dens != 0.0, terms, 0.0)


def ref_tv_norm(mu: RcaMeasure) -> float:
    tv = ref_left_sum(abs(w) for _, w in mu.atoms)
    if mu.density is not None:
        tv += float(np.sum(np.abs(mu.density.values) * np.diff(mu.density.breakpoints)))
    return float(tv)


def ref_measure_scale(mu: RcaMeasure, c: float) -> RcaMeasure:
    density = None if mu.density is None else StepDensity(mu.density.breakpoints, mu.density.values * c)
    return RcaMeasure(atoms=tuple((loc, c * w) for loc, w in mu.atoms), density=density)


def ref_canonical_rows(f: PwlFunction) -> RcaMeasure:
    """The canonical measures of a stack with f interpolated at every atom location."""
    first, last = c01._runs(f, sup_norm(f))
    bp, cols = f.breakpoints, np.arange(f.breakpoints.shape[-1])
    end = np.minimum.accumulate(np.where(last, cols, cols[-1])[:, ::-1], axis=-1)[:, ::-1]
    locations = np.where(last, bp, 0.5 * (bp + bp[np.arange(bp.shape[0])[:, None], end]))
    weights = (1.0 / first.sum(-1))[:, None] * f(locations)
    return c01._measure(locations, np.where(first, weights, 0.0))


def ref_pwl_sub(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    grid = np.union1d(f.breakpoints, g.breakpoints)
    return PwlFunction(grid, f(grid) - g(grid))


def ref_measure_sub(mu: RcaMeasure, nu: RcaMeasure) -> RcaMeasure:
    merged = {}
    for loc, w in list(mu.atoms) + [(loc, -w) for loc, w in nu.atoms]:
        merged[loc] = merged.get(loc, 0.0) + w
    atoms = sorted((loc, w) for loc, w in merged.items() if w != 0.0)
    density = None
    if mu.density is not None or nu.density is not None:
        grids = [d.breakpoints for d in (mu.density, nu.density) if d is not None]
        grid = grids[0] if len(grids) == 1 else np.union1d(grids[0], grids[1])
        vals = np.zeros(grid.size - 1)
        for k in range(grid.size - 1):
            a, b = grid[k], grid[k + 1]
            left = ref_value_in(mu.density, a, b) if mu.density is not None else 0.0
            right = ref_value_in(nu.density, a, b) if nu.density is not None else 0.0
            vals[k] = left - right
        density = StepDensity(grid, vals)
    return RcaMeasure(atoms=tuple(atoms), density=density)


def ref_total_mass(mu: RcaMeasure) -> float:
    mass = ref_left_sum(w for _, w in mu.atoms)
    if mu.density is not None:
        mass += float(np.sum(mu.density.values * np.diff(mu.density.breakpoints)))
    return float(mass)


def ref_merged_sub(mu: RcaMeasure, nu: RcaMeasure) -> RcaMeasure:
    """mu - nu of two measures with a row of locations each, every row's atoms merged."""
    locations = np.concatenate([mu.locations, nu.locations], -1)
    return c01._measure(*c01._merge(locations, np.concatenate([mu.weights, -nu.weights], -1)))


def ref_maximizing_set(f: PwlFunction) -> MaximizingSet:
    norm = float(np.max(np.abs(f.values)))
    bp, vals = f.breakpoints, f.values
    at_max = np.abs(np.abs(vals) - norm) <= VALUE_TOL
    nseg = bp.size - 1
    plateau = [
        bool(at_max[i] and at_max[i + 1] and abs(vals[i] - vals[i + 1]) <= VALUE_TOL)
        for i in range(nseg)
    ]
    intervals = []
    i = 0
    while i < nseg:
        if plateau[i]:
            j = i
            while j + 1 < nseg and plateau[j + 1]:
                j += 1
            intervals.append((float(bp[i]), float(bp[j + 1])))
            i = j + 1
        else:
            i += 1
    atoms = [
        float(bp[i])
        for i in range(bp.size)
        if at_max[i] and not (i > 0 and plateau[i - 1]) and not (i < nseg and plateau[i])
    ]
    return MaximizingSet(tuple(atoms), tuple(intervals))


def ref_is_duality_member(mu: RcaMeasure, f: PwlFunction, tol: float = 1e-9) -> MembershipReport:
    # the relative rule of every model: each gap over max(1, its right side)
    norm = sup_norm(f)
    member = (
        abs(tv_norm(mu) - norm) / max(1.0, norm) <= tol
        and abs(ref_pairing(mu, f) - norm * norm) / max(1.0, norm * norm) <= tol
    )
    mset = ref_maximizing_set(f)
    support_ok = all(mset.contains(loc, tol) for loc, _ in mu.atoms)
    if support_ok and mu.density is not None:
        bp, vals = mu.density.breakpoints, mu.density.values
        for k in range(vals.size):
            if vals[k] != 0.0:
                inside = any(
                    a - tol <= bp[k] and bp[k + 1] <= b + tol for a, b in mset.intervals
                )
                if not inside:
                    support_ok = False
                    break
    return MembershipReport(member, support_ok)


# -- bitwise comparisons ------------------------------------------------------


def same_float(x: float, y: float) -> bool:
    return type(x) is type(y) is float and x.hex() == y.hex()


def same_array(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def same_floats(x: tuple, y: tuple) -> bool:
    return len(x) == len(y) and all(same_float(a, b) for a, b in zip(x, y))


def same_tuples(x: tuple, y: tuple) -> bool:
    return len(x) == len(y) and all(same_floats(p, q) for p, q in zip(x, y))


def same_pwl(f: PwlFunction, g: PwlFunction) -> bool:
    return same_array(f.breakpoints, g.breakpoints) and same_array(f.values, g.values)


def same_measure(mu: RcaMeasure, nu: RcaMeasure) -> bool:
    if not same_tuples(mu.atoms, nu.atoms):
        return False
    if mu.density is None or nu.density is None:
        return mu.density is None and nu.density is None
    return same_array(mu.density.breakpoints, nu.density.breakpoints) and same_array(
        mu.density.values, nu.density.values
    )


# -- draws --------------------------------------------------------------------


def grid(rng, n: int) -> np.ndarray:
    """n breakpoints from 0 to 1."""
    while True:
        interior = np.sort(rng.uniform(0.0, 1.0, n - 2))
        bp = np.concatenate([[0.0], interior, [1.0]])
        if np.all(np.diff(bp) > 0.0):
            return bp


def level_pwl(rng, n: int) -> PwlFunction:
    """Values from a few levels, so maxima tie, plateaus form and peaks flip sign."""
    top = float(rng.uniform(0.5, 3.0))
    levels = np.array([-top, -0.5 * top, 0.0, 0.25 * top, top])
    return PwlFunction(grid(rng, n), rng.choice(levels, n))


def ulp_pwl(rng, n: int) -> PwlFunction:
    """Values at +-top or half of it, each moved one ulp up or down or kept: exact
    ties and plateaus, and ties and plateaus whose values differ in the last bit."""
    top = float(rng.uniform(0.5, 3.0))
    v = rng.choice([-top, 0.5 * top, top], n)
    return PwlFunction(grid(rng, n), np.nextafter(v, v + rng.integers(-1, 2, n)))


def unequal_plateaus(fs: list) -> int:
    """The number of plateaus of M(f), over all f, whose two ends hold different values."""
    return sum(float(f(a)) != float(f(b)) for f in fs for a, b in maximizing_set(f).intervals)


def smooth_pwl(rng, n: int) -> PwlFunction:
    return PwlFunction(grid(rng, n), rng.uniform(-5.0, 5.0, n))


def special_pwls(n: int) -> list:
    """Constant, plateaus at 0 and 1, two plateaus split by one breakpoint, a negative peak."""
    bp = np.linspace(0.0, 1.0, n)
    fs = [PwlFunction(bp, np.full(n, 2.0)), PwlFunction(bp, np.full(n, -1.5))]
    ramp = np.linspace(-1.0, 1.0, n)
    fs.append(PwlFunction(bp, -ramp))  # single negative peak at s = 1
    if n >= 3:
        fs.append(PwlFunction(bp, np.minimum(3.0, 4.0 * np.abs(ramp))))  # plateaus at 0 and 1
        sag = np.full(n, 3.0)
        sag[n // 2] = 1.0
        fs.append(PwlFunction(bp, sag))  # [.., M, x, M, ..]: plateaus split by one breakpoint
        flip = np.where(np.arange(n) < n // 2, 3.0, -3.0)
        fs.append(PwlFunction(bp, flip))  # +M plateau next to a -M plateau
    return fs


def density_on(rng, f: PwlFunction, mode: str) -> StepDensity:
    if mode == "shared":
        bp = f.breakpoints
    elif mode == "partial":
        keep = f.breakpoints[rng.random(f.breakpoints.size) < 0.5]
        own = grid(rng, max(2, f.breakpoints.size // 2))
        bp = np.union1d(np.concatenate([[0.0, 1.0], keep]), own)
    else:
        bp = grid(rng, int(rng.integers(2, f.breakpoints.size + 3)))
    vals = rng.uniform(-2.0, 2.0, bp.size - 1)
    vals[rng.random(vals.size) < 0.3] = 0.0  # zero-valued segments
    return StepDensity(bp, vals)


def random_measure(rng, f: PwlFunction) -> RcaMeasure:
    k = int(rng.integers(0, 6))
    # k atoms on f's breakpoints and k off them
    locs = np.concatenate([rng.choice(f.breakpoints, k), rng.uniform(0.0, 1.0, k)])
    atoms = tuple(zip(locs.tolist(), rng.uniform(-2.0, 2.0, locs.size).tolist()))
    mode = rng.choice(["none", "shared", "partial", "own"])
    density = None if mode == "none" else density_on(rng, f, mode)
    return RcaMeasure(atoms=atoms, density=density)


def draws(n: int, count: int = 12):
    rng = np.random.default_rng(1000 + n)
    if n > 16:
        count = min(count, 2)  # the reference loops are slow at this size
    fs = special_pwls(n) + [level_pwl(rng, n) for _ in range(count)]
    fs += [smooth_pwl(rng, n) for _ in range(count)]
    return rng, fs


def members(f: PwlFunction) -> list:
    """Members of J(f): atomic on M(f), and a plateau density for each plateau."""
    mset = maximizing_set(f)
    out = [atomic_duality_measure(f, mset.points())]
    for a, b in mset.intervals:
        if np.all(f(np.array([a, b])) > 0.0):
            out.append(plateau_duality_measure(f, a, b))
    return out


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
def test_maximizing_set_matches_loop(n):
    rng, fs = draws(n)
    nudged = [ulp_pwl(rng, n) for _ in range(24)]
    for f in fs + nudged:
        got, want = maximizing_set(f), ref_maximizing_set(f)
        assert same_floats(got.atoms, want.atoms)
        assert same_tuples(got.intervals, want.intervals)
    assert unequal_plateaus(nudged)


@pytest.mark.parametrize("n", SIZES)
def test_pairing_matches_loop(n):
    rng, fs = draws(n)
    for f in fs:
        measures = [random_measure(rng, f) for _ in range(4)] + members(f)
        # an atom on every breakpoint
        measures.append(atom_measure([(float(s), 1.0) for s in f.breakpoints]))
        for mu in measures:
            assert same_float(pairing_c(mu, f), ref_pairing(mu, f))


@pytest.mark.parametrize("n", SIZES)
def test_measure_sub_matches_loop(n):
    rng, fs = draws(n, count=6)
    for f in fs:
        mus = [random_measure(rng, f) for _ in range(4 if n <= 16 else 2)]
        for mu in mus:
            for nu in mus:
                assert same_measure(measure_sub(mu, nu), ref_measure_sub(mu, nu))


@pytest.mark.parametrize("n", SIZES)
def test_membership_report_matches_loop(n):
    rng, fs = draws(n)
    for f in fs:
        if sup_norm(f) == 0.0:
            continue
        for mu in members(f) + [random_measure(rng, f) for _ in range(3)]:
            assert is_duality_member_c(mu, f) == ref_is_duality_member(mu, f)


@pytest.mark.parametrize("n", SIZES)
def test_is_member_is_the_member_half(n):
    rng, fs = draws(n)
    space = C01Space()
    for f in fs:
        if sup_norm(f) == 0.0:
            continue
        norm = sup_norm(f)
        mset = maximizing_set(f)
        off = [s for s in f.breakpoints.tolist() if not mset.contains(s)][:3]
        measures = members(f) + [random_measure(rng, f) for _ in range(3)]
        measures += [atom_measure([(s, norm)]) for s in off]  # off-support atoms
        for mu in measures:
            assert space.is_member(f, mu) == is_duality_member_c(mu, f).member


def test_member_without_support():
    # The atom sits 1e-4 from the maximizer at 0 of a nearly flat f: the
    # norm and pairing tests pass within 1e-9, the support test does not.
    f = PwlFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0 - 1e-6]))
    mu = atom_measure([(1e-4, float(f(1e-4)))])
    report = is_duality_member_c(mu, f)
    assert report == MembershipReport(member=True, support_ok=False)
    assert C01Space().is_member(f, mu)


def test_support_scan_tolerance():
    # Density segments that overhang the plateau [0.25, 0.75] by less than
    # the tolerance count as supported; a larger overhang does not.
    f = PwlFunction(np.array([0.0, 0.25, 0.75, 1.0]), np.array([0.0, 2.0, 2.0, 0.0]))
    for eps, inside in ((5e-10, True), (5e-9, False)):
        bp = np.array([0.0, 0.25 - eps, 0.75 + eps, 1.0])
        mu = RcaMeasure(density=StepDensity(bp, np.array([0.0, 4.0, 0.0])))
        report = is_duality_member_c(mu, f)
        assert report == ref_is_duality_member(mu, f)
        assert report.support_ok is inside


def test_adjacent_float_breakpoints():
    # With adjacent floats a < b the midpoint rounds onto a or onto b (or
    # onto 1 for the last segment); the lookup must pick the same density
    # value as the per-segment loop.
    grids = [[0.0, a, float(np.nextafter(a, 1.0)), 1.0] for a in (0.5, 0.5 + 2.0**-53, 0.3)]
    grids.append([0.0, 0.5, float(np.nextafter(1.0, 0.0)), 1.0])
    nu = RcaMeasure(density=StepDensity(np.array([0.0, 0.4, 1.0]), np.array([-1.0, 5.0])))
    f = PwlFunction(np.array([0.0, 0.7, 1.0]), np.array([1.0, -2.0, 4.0]))
    for bp in grids:
        mu = RcaMeasure(density=StepDensity(np.array(bp), np.array([1.0, 2.0, 3.0])))
        assert same_float(pairing_c(mu, f), ref_pairing(mu, f))
        assert same_measure(measure_sub(mu, nu), ref_measure_sub(mu, nu))
        assert same_measure(measure_sub(nu, mu), ref_measure_sub(nu, mu))


def sub_partners(rng, f: PwlFunction) -> list:
    """Functions on f's grid (the same array, an equal copy), on that grid with
    one breakpoint moved by one ulp, and on unrelated grids."""
    n = f.breakpoints.size
    partners = [
        pwl_scale(f, 2.0),
        pwl_scale(f, -0.5),
        pwl_shift(f, 1.25),
        pwl_shift(f, -3.0),
        PwlFunction(f.breakpoints.copy(), rng.uniform(-5.0, 5.0, n)),
        smooth_pwl(rng, n),
        smooth_pwl(rng, max(2, n // 2)),
    ]
    if n >= 3:
        moved = f.breakpoints.copy()
        k = int(rng.integers(1, n - 1))
        moved[k] = np.nextafter(moved[k], moved[k + 1])
        if moved[k] < moved[k + 1]:
            partners.append(PwlFunction(moved, rng.uniform(-5.0, 5.0, n)))
    return partners


@pytest.mark.parametrize("n", SIZES)
def test_pwl_sub_matches_union_grid(n):
    rng, fs = draws(n)
    for f in fs:
        for g in sub_partners(rng, f):
            assert same_pwl(pwl_sub(f, g), ref_pwl_sub(f, g))
            assert same_pwl(pwl_sub(g, f), ref_pwl_sub(g, f))


def test_pwl_sub_adjacent_float_grid():
    # Segments one ulp wide with values +-1e300 have infinite slopes; at the
    # breakpoints themselves interpolation still returns the stored values.
    rng = np.random.default_rng(7)
    for a in (0.5, 0.3, float(np.nextafter(1.0, 0.0)) - 2.0**-52):
        bp = np.array([0.0, a, float(np.nextafter(a, 1.0)), 1.0])
        for vals in ([0.0, -1e300, 1e300, 0.0], [1.0, 2.0, -3.0, 4.0]):
            f = PwlFunction(bp, np.array(vals))
            for g in sub_partners(rng, f)[:5]:
                assert same_pwl(pwl_sub(f, g), ref_pwl_sub(f, g))
                assert same_pwl(pwl_sub(g, f), ref_pwl_sub(g, f))
        g = PwlFunction(np.array([0.0, 0.4, 1.0]), np.array([1.0, -1.0, 2.0]))
        assert same_pwl(pwl_sub(f, g), ref_pwl_sub(f, g))


def test_grid_is_reused_not_copied():
    f = PwlFunction(np.array([0.0, 0.25, 1.0]), np.array([1.0, -2.0, 0.5]))
    assert pwl_scale(f, 2.0).breakpoints is f.breakpoints
    assert pwl_shift(f, 2.0).breakpoints is f.breakpoints
    assert pwl_sub(f, pwl_scale(f, 2.0)).breakpoints is f.breakpoints
    mu = RcaMeasure(density=StepDensity(f.breakpoints, np.array([1.0, 2.0])))
    assert measure_scale(mu, 2.0).density.breakpoints is f.breakpoints


def test_overflow_on_a_reused_grid_raises():
    # refused with a ValueError, and without numpy's overflow warning
    bp = np.array([0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="finite"):
        pwl_scale(PwlFunction(bp, np.array([10.0, -20.0, 10.0])), 1e308)
    with pytest.raises(ValueError, match="finite"):
        pwl_shift(PwlFunction(bp, np.array([0.0, 1e308, 0.0])), 1e308)
    f = PwlFunction(bp, np.array([1e308, 0.0, 0.0]))
    g = PwlFunction(bp.copy(), np.array([-1e308, 0.0, 0.0]))
    for h in (g, PwlFunction(bp, g.values)):
        with pytest.raises(ValueError, match="finite"):
            pwl_sub(f, h)
    # on the union of two grids, one element and a stack
    h = PwlFunction(np.array([0.0, 0.25, 1.0]), np.array([-1e308, 0.0, 0.0]))
    for a, b in ((f, h), (pwl_rows([bp], [f.values]), pwl_rows([h.breakpoints], [h.values]))):
        with pytest.raises(ValueError, match="finite"):
            pwl_sub(a, b)
    mu = RcaMeasure(density=StepDensity(bp, np.array([10.0, 1.0])))
    with pytest.raises(ValueError, match="finite"):
        measure_scale(mu, 1e308)


def test_merged_atom_weights_that_overflow_raise():
    # each weight is finite, their sum at one point is not
    with pytest.raises(ValueError, match="atom weights must be finite"):
        RcaMeasure(((0.5, 1e308), (0.5, 1e308)))
    with pytest.raises(ValueError, match="atom weights must be finite"):
        measure_sub(atom_measure([(0.5, 1e308)]), atom_measure([(0.5, -1e308)]))
    rows = c01._measure(np.array([0.25, 0.5]), np.array([[1.0, 1.0], [0.0, 1e308]]))
    with pytest.raises(ValueError, match="atom weights must be finite"):
        C01Space().dual_sub(rows, atom_measure([(0.5, -1e308)]))


@pytest.mark.parametrize("n", SIZES)
def test_canonical_measure_is_the_atomic_member(n):
    _, fs = draws(n)
    for f in fs:
        if sup_norm(f) == 0.0:
            continue
        want = atomic_duality_measure(f, maximizing_set(f).points())
        assert same_measure(canonical_duality_measure(f), want)
    zero = PwlFunction(np.linspace(0.0, 1.0, n), np.zeros(n))
    assert same_measure(canonical_duality_measure(zero), RcaMeasure())


# -- stacks with one grid per row ---------------------------------------------


def row_atoms(mu: RcaMeasure, i: int) -> tuple:
    """The atoms row i of a stack holds, in its order: the weights that are not 0."""
    keep = mu.weights[i] != 0.0
    return tuple(zip(mu.locations[i][keep].tolist(), mu.weights[i][keep].tolist()))


def row_pwl(f: PwlFunction, i: int) -> PwlFunction:
    """Row i of a stack without its padding, which repeats the last breakpoint and value."""
    bp, vals = f.breakpoints[i], f.values[i]
    size = int(np.argmax(bp == 1.0)) + 1
    assert (bp[size:] == 1.0).all() and (vals[size:] == vals[size - 1]).all()
    return PwlFunction(bp[:size], vals[:size])


@pytest.mark.parametrize("n", (2, 3, 8, 16))
def test_stack_forms_match_each_row(n):
    rng, fs = draws(n)
    # rows with fewer breakpoints than the widest, which the stack pads
    fs += [level_pwl(rng, k) for k in range(2, n + 1)] + [smooth_pwl(rng, k) for k in range(2, n + 1)]
    fs.append(PwlFunction(np.linspace(0.0, 1.0, n), np.zeros(n)))
    # partners: the same function (every atom cancels, at 0 and 1 too), its
    # negative, one on the same grid, and one on a grid of its own
    gs = []
    for i, f in enumerate(fs):
        gs.append([f, pwl_scale(f, -1.0), level_pwl(rng, f.breakpoints.size), smooth_pwl(rng, n)][i % 4])
        if i % 4 == 2:
            gs[-1] = PwlFunction(f.breakpoints, gs[-1].values)
    x = pwl_rows([f.breakpoints for f in fs], [f.values for f in fs])
    y = pwl_rows([g.breakpoints for g in gs], [g.values for g in gs])
    assert x.breakpoints.shape == (len(fs), n)
    space = C01Space()
    jx, jy = space.canonical_dual(x), space.canonical_dual(y)
    diff, jdiff = space.sub(x, y), space.dual_sub(jx, jy)
    norm, tv, paired = space.norm(x), space.dual_norm(jdiff), space.pair(jdiff, diff)
    for i, (f, g) in enumerate(zip(fs, gs)):
        assert same_pwl(row_pwl(x, i), f)
        assert same_float(float(norm[i]), sup_norm(f))
        one_jx, one_jy = canonical_duality_measure(f), canonical_duality_measure(g)
        assert same_tuples(row_atoms(jx, i), one_jx.atoms)
        assert same_tuples(row_atoms(jy, i), one_jy.atoms)
        one_diff, one_jdiff = pwl_sub(f, g), ref_measure_sub(one_jx, one_jy)
        assert same_pwl(row_pwl(diff, i), one_diff)
        assert same_tuples(row_atoms(jdiff, i), one_jdiff.atoms)
        assert same_float(float(tv[i]), ref_tv_norm(one_jdiff))
        assert same_float(float(paired[i]), ref_pairing(one_jdiff, one_diff))
    nudged = [ulp_pwl(rng, n) for _ in range(24)]
    assert unequal_plateaus(nudged)
    nonzero = [f for f in fs if sup_norm(f) != 0.0] + nudged
    # maxima of +-3 at every other breakpoint, never side by side, so the
    # plateau test is skipped for a stack of these rows alone and runs for
    # one that mixes them with plateau rows
    spiky = []
    for _ in range(6):
        v = rng.uniform(-1.0, 1.0, n)
        v[::2] = rng.choice([-3.0, 3.0], v[::2].size)
        spiky.append(PwlFunction(grid(rng, n), v))
    for stack in (nonzero, spiky, spiky + nonzero):
        x = pwl_rows([f.breakpoints for f in stack], [f.values for f in stack])
        first, last = maximizer_runs(x)
        for i, f in enumerate(stack):
            bp, want = x.breakpoints[i], maximizing_set(f)
            assert same_floats(tuple(bp[first[i] & last[i]].tolist()), want.atoms)
            starts, ends = bp[first[i] & ~last[i]].tolist(), bp[last[i] & ~first[i]].tolist()
            assert same_tuples(tuple(zip(starts, ends)), want.intervals)
        assert (first == last).all() == (stack is spiky)  # atoms only, or some plateau


def test_stack_of_rows_is_checked():
    x = pwl_rows([[0.0, 1.0], [0.0, 0.5, 1.0]], [[1.0, 2.0], np.array([3.0, -4.0, 5.0])])
    assert x.breakpoints.tolist() == [[0.0, 1.0, 1.0], [0.0, 0.5, 1.0]]
    assert x.values.tolist() == [[1.0, 2.0, 2.0], [3.0, -4.0, 5.0]]
    bad = [
        (([], []), "match"),
        (([[0.0, 1.0]], [[1.0, 2.0, 3.0]]), "match"),
        (([[0.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]]), "match"),
        (([[0.0, 1.0], [1.0]], [[1.0, 2.0], [3.0]]), "two endpoint"),
        (([[0.0, 0.5]], [[1.0, 2.0]]), "start at 0 and end at 1"),
        (([[0.1, 1.0]], [[1.0, 2.0]]), "start at 0 and end at 1"),
        (([[0.0, 0.5, 0.5, 1.0]], [[1.0, 2.0, 3.0, 4.0]]), "strictly increasing"),
        (([[0.0, 1.0], [0.0, 0.6, 0.4, 1.0]], [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]]), "strictly increasing"),
        (([[0.0, np.nan, 1.0]], [[1.0, 2.0, 3.0]]), "strictly increasing"),
        (([[0.0, 1.0]], [[1.0, np.inf]]), "finite"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            pwl_rows(*args)
    with pytest.raises(ValueError, match="zero function"):
        maximizer_runs(pwl_rows([[0.0, 1.0], [0.0, 1.0]], [[1.0, 2.0], [0.0, -0.0]]))


def test_stacked_atoms_merge_as_rca_measure_merges_them():
    # equal locations, at 0 and 1 too, add up from one atom of each side;
    # an exact 0.0 is dropped, and the rest stay sorted by location
    mu = c01._measure(np.array([[0.0, 0.5, 1.0, 0.9], [1.0, 0.3, 0.0, 0.0]]),
                      np.array([[0.1, 0.2, 0.3, 0.0], [0.5, 0.0, 0.0, 0.25]]))
    nu = c01._measure(np.array([[1.0, 0.0, 0.7], [0.0, 1.0, 0.3]]),
                      np.array([[0.3, 0.4, 0.0], [0.25, 0.5, -0.3]]))
    got = C01Space().dual_sub(mu, nu)
    for i in range(2):
        one = lambda m: atom_measure(row_atoms(m, i))  # noqa: E731
        assert same_tuples(row_atoms(got, i), ref_measure_sub(one(mu), one(nu)).atoms)
    assert row_atoms(got, 0) == ((0.0, 0.1 - 0.4), (0.5, 0.2))
    assert row_atoms(got, 1) == ((0.3, 0.3),)


@pytest.mark.parametrize("n", SIZES)
def test_density_terms_read_f_at_its_breakpoints(n):
    # only the density's own breakpoints are interpolated; the terms are the
    # union-grid form's, bit for bit, for one f and for a batch of its scalings
    rng, fs = draws(n)
    for i, f in enumerate(fs):
        for mode in ("shared", "partial", "own"):
            d = density_on(rng, f, mode)
            assert same_array(c01._density_terms(d, f), ref_density_terms(d, f))
            factors = rng.uniform(-2.0, 2.0, (5, 1))
            rows, dens = pwl_scale(f, factors), c01._density_scale(d, factors[::-1])
            assert same_array(c01._density_terms(d, rows), ref_density_terms(d, rows))
            assert same_array(c01._density_terms(dens, rows), ref_density_terms(dens, rows))
    # a density breakpoint next to one of f's, and two in one segment of f
    f = PwlFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -2.0, 3.0]))
    for bp in ([0.0, np.nextafter(0.5, 0.0), 1.0], [0.0, 0.1, 0.2, 1.0], [0.0, 0.5, 0.75, 1.0]):
        d = StepDensity(np.array(bp), np.arange(1.0, len(bp)))
        assert same_array(c01._density_terms(d, f), ref_density_terms(d, f))


@pytest.mark.parametrize("n", (2, 3, 8, 16))
def test_canonical_rows_read_f_at_its_breakpoints(n):
    # an atom on a breakpoint takes f's value there, a plateau's atom is
    # interpolated at its midpoint: bit for bit the interpolation at every atom
    rng, fs = draws(n)
    fs += [level_pwl(rng, k) for k in range(2, n + 1)]  # padded rows, plateaus
    fs += [PwlFunction(np.linspace(0.0, 1.0, k), np.zeros(k)) for k in (2, n)]  # zero rows
    # a plateau whose ends differ by 4 ulps: its midpoint value is neither end's
    fs.append(PwlFunction(np.array([0.0, 0.25, 0.5, 1.0]), np.array([0.0, 3.0, 3.0 + 4 * np.spacing(3.0), -1.0])))
    smooth = [smooth_pwl(rng, k) for k in range(2, n + 1)]  # no plateau in the stack
    for rows in (fs, smooth, fs[-2:-1]):
        x = pwl_rows([f.breakpoints for f in rows], [f.values for f in rows])
        got, want = c01._canonical_rows(x), ref_canonical_rows(x)
        assert same_array(got.locations, want.locations) and same_array(got.weights, want.weights)
        assert not got.weights[sup_norm(x) == 0.0].any()  # a zero row: weights +-0.0, no atom
    first, last = maximizer_runs(pwl_rows([f.breakpoints for f in fs[-1:]], [f.values for f in fs[-1:]]))
    assert (first & ~last).tolist() == [[False, True, False, False]]


def test_take_rows_selects_rows_of_a_stack_and_of_its_measures():
    x = pwl_rows([[0.0, 1.0], [0.0, 0.5, 1.0], [0.0, 0.25, 1.0]], [[1.0, 2.0], [3.0, -4.0, 5.0], [0.0, 1.0, 1.0]])
    mu = C01Space().canonical_dual(x)
    for rows in (slice(1, 3), np.array([2, 0, 2])):
        sub = c01.take_rows(x, rows)
        assert same_array(sub.breakpoints, x.breakpoints[rows]) and same_array(sub.values, x.values[rows])
        nu = c01.take_rows(mu, rows)
        assert same_array(nu.locations, mu.locations[rows]) and same_array(nu.weights, mu.weights[rows])
    # a batch on shared locations with a density keeps both, and takes the density's rows
    one = RcaMeasure(((0.25, 1.0), (0.5, -2.0)), StepDensity(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0])))
    batch = measure_scale(one, np.array([[1.0], [2.0], [-3.0]]))
    for rows in (slice(1, 3), np.array([2, 0, 2])):
        nu = c01.take_rows(batch, rows)
        assert nu.locations is batch.locations and same_array(nu.weights, batch.weights[rows])
        assert same_array(nu.density.values, batch.density.values[rows])
        assert nu.atoms == tuple(batch.atoms[i] for i in np.arange(3)[rows])


def test_take_rows_keeps_the_shared_grid_of_a_batch():
    # rows [2, 0, 1] used to come back on the grid [1, 0, 0.5], and rows
    # [0, 0] were refused as values that do not match the breakpoints
    f = PwlFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -2.0, 3.0]))
    batch = pwl_scale(f, np.array([[1.0], [2.0], [-3.0]]))
    for rows in (np.array([2, 0, 1]), np.array([0, 0]), slice(1, 3), np.array([1])):
        sub = c01.take_rows(batch, rows)
        assert sub.breakpoints is batch.breakpoints and same_array(sub.values, batch.values[rows])
        assert same_array(sub(np.array([0.25, 0.75])), batch(np.array([0.25, 0.75]))[rows])


def test_pairing_c_refuses_a_density_against_a_stack():
    mu = c01.density_measure([0.0, 0.3, 1.0], [1.0, 2.0])
    x = pwl_rows([[0.0, 0.5, 1.0], [0.0, 1.0]], [[1.0, 2.0, 3.0], [4.0, 5.0]])
    with pytest.raises(ValueError, match=r"density on grid \(3,\) and a stack on grids \(2, 3\)"):
        pairing_c(mu, x)
    with pytest.raises(ValueError, match="without density against a stack"):
        pairing_c(measure_scale(mu, np.array([[1.0], [2.0]])), x)


def stack(fs: list) -> PwlFunction:
    return pwl_rows([f.breakpoints for f in fs], [f.values for f in fs])


@pytest.mark.parametrize("n", (2, 3, 8, 16))
def test_pwl_sub_of_two_stacks_is_np_interp_on_each_union_grid(n):
    # one interpolation over the rows of both stacks, padded to one width,
    # is bitwise np.interp of each row on its own union grid
    rng, fs = draws(n)
    x = stack(fs)
    same_width = [smooth_pwl(rng, n) for _ in fs]
    same_width[0] = PwlFunction(fs[0].breakpoints, same_width[0].values)  # a row on x's grid
    wider = [smooth_pwl(rng, int(k)) for k in rng.integers(2, n + 4, len(fs))]
    wider[-1] = smooth_pwl(rng, n + 3)
    for gs in (same_width, wider):
        y = stack(gs)
        for a, b in ((x, y), (y, x)):
            diff = pwl_sub(a, b)
            for i in range(len(fs)):
                fa, fb = row_pwl(a, i), row_pwl(b, i)
                grid = np.union1d(fa.breakpoints, fb.breakpoints)
                want = np.interp(grid, fa.breakpoints, fa.values) - np.interp(grid, fb.breakpoints, fb.values)
                assert same_pwl(row_pwl(diff, i), PwlFunction(grid, want))


def test_pwl_sub_refuses_a_stack_and_one_grid():
    x = stack([PwlFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0])), pwl_tent()])
    f = pwl_tent()
    batch = pwl_scale(f, np.array([[1.0], [2.0]]))  # two functions on one grid
    for one in (f, batch):
        with pytest.raises(ValueError, match=r"got grids \(3,\) and \(2, 3\)"):
            pwl_sub(one, x)
        with pytest.raises(ValueError, match=r"got grids \(2, 3\) and \(3,\)"):
            pwl_sub(x, one)
    three = stack([pwl_tent()] * 3)
    with pytest.raises(ValueError, match="as many rows"):
        pwl_sub(x, three)


@pytest.mark.parametrize("n", (2, 3, 8, 16))
def test_dual_sub_at_agreeing_row_locations_is_the_merge(n):
    # J(alpha x) - alpha J(x) of a stack: the atoms sit at the same row
    # locations, so the weights subtract one by one, with no merge, and the
    # TV norm and the pairings are the merged difference's, bit for bit
    rng, fs = draws(n)
    fs += [level_pwl(rng, k) for k in range(2, n + 1)]  # padded rows, plateaus
    fs.append(PwlFunction(np.linspace(0.0, 1.0, n), np.zeros(n)))  # a zero row
    x = stack(fs)
    alpha = rng.uniform(-3.0, 3.0, (len(fs), 1))
    alpha[0] = -1.0
    jax, ajx = canonical_duality_measure(pwl_scale(x, alpha)), measure_scale(canonical_duality_measure(x), alpha)
    assert same_array(jax.locations, ajx.locations)
    got, want = measure_sub(jax, ajx), ref_merged_sub(jax, ajx)
    assert got.locations is jax.locations
    assert same_array(tv_norm(got), tv_norm(want))
    for f in (x, stack([smooth_pwl(rng, n) for _ in fs])):
        assert same_array(pairing_c(got, f), pairing_c(want, f))
    for i in range(len(fs)):
        assert same_tuples(row_atoms(got, i), row_atoms(want, i))


def test_dual_sub_merges_rows_whose_locations_differ_or_hold_two_atoms_at_one():
    space = C01Space()
    f = stack([pwl_tent(), PwlFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -2.0, 3.0]))])
    locations = np.array([[0.25, 0.5, 1.0], [0.0, 0.5, 1.0]])
    mu = c01._measure(locations, np.array([[1.0, 0.5, 0.0], [2.0, 0.0, 0.0]]))
    # row 1 of nu sits elsewhere: every row is merged
    nu = c01._measure(np.array([[0.25, 0.5, 1.0], [0.0, 0.75, 1.0]]), np.array([[0.5, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    # one location twice, an atom of mu on the first, one of nu on the second
    twice = np.array([[0.25, 0.5, 0.5], [0.0, 0.5, 1.0]])
    mu2 = c01._measure(twice, np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0]]))
    nu2 = c01._measure(twice, np.array([[0.0, 0.0, 0.25], [0.0, 0.0, 0.0]]))
    # each measure sorted among its own atoms, but not the row: 0.3 holds an atom of both
    unsorted = np.array([[0.3, 0.5, 0.2, 0.3], [0.0, 0.5, 1.0, 1.0]])
    mu3 = c01._measure(unsorted, np.array([[1.0, 0.5, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]))
    nu3 = c01._measure(unsorted, np.array([[0.0, 0.0, 0.25, 0.75], [0.0, 0.0, 0.0, 0.0]]))
    for a, b in ((mu, nu), (mu2, nu2), (mu3, nu3)):
        got, want = space.dual_sub(a, b), ref_merged_sub(a, b)
        assert same_array(got.locations, want.locations) and same_array(got.weights, want.weights)
        for i in range(2):
            one = lambda m: atom_measure(row_atoms(m, i))  # noqa: E731
            assert same_tuples(row_atoms(got, i), ref_measure_sub(one(a), one(b)).atoms)
        assert same_array(space.pair(got, f), space.pair(want, f))
    assert space.dual_norm(space.dual_sub(mu2, nu2)).tolist() == [0.75, 2.0]  # not 1.25 in row 0
    assert space.dual_norm(space.dual_sub(mu3, nu3)).tolist() == [1.0, 2.0]  # not 2.5 in row 0


def test_pairing_reads_a_stack_at_the_atoms_present_only(monkeypatch):
    # one measure, a batch on shared locations and a row of locations each
    # pair with a stack as each row does alone; f is interpolated only where
    # a weight is not 0.0
    rng, fs = draws(8)
    x = stack(fs)
    one = atom_measure([(0.0, 1.0), (0.3, -2.0), (0.5, 0.0), (1.0, 0.5)])
    factors = rng.uniform(-2.0, 2.0, (len(fs), 1))
    factors[0] = 0.0
    batch = measure_scale(one, factors)
    rows = canonical_duality_measure(x)
    points = []
    interp = c01._interp_rows

    def spy(s, xp, fp, at=None):
        points.append(s.size)
        return interp(s, xp, fp, at)

    monkeypatch.setattr(c01, "_interp_rows", spy)
    for i, f in enumerate(fs):
        assert same_float(float(pairing_c(one, x)[i]), pairing_c(one, f))
        assert same_float(float(pairing_c(batch, x)[i]), pairing_c(measure_scale(one, float(factors[i, 0])), f))
        assert same_float(float(pairing_c(rows, x)[i]), ref_pairing(atom_measure(row_atoms(rows, i)), f))
    assert points[:3] == [3 * len(fs), 3 * (len(fs) - 1), np.count_nonzero(rows.weights)]


def test_a_stack_of_zero_rows_interpolates_nothing(monkeypatch):
    def spy(*args):
        raise AssertionError("interpolated")

    zero = stack([PwlFunction(np.linspace(0.0, 1.0, k), np.zeros(k)) for k in (2, 3, 5)])
    monkeypatch.setattr(c01, "_interp_rows", spy)
    mu = canonical_duality_measure(pwl_scale(zero, -1.0))  # weights of -0.0
    assert not mu.weights.any() and mu.atoms == ((), (), ())
    assert tv_norm(mu).tolist() == [0.0, 0.0, 0.0]


def test_total_mass_of_a_batch_is_each_rows():
    rng, fs = draws(8)
    for f in fs:
        for mu in members(f) + [random_measure(rng, f)]:
            assert same_float(total_mass(mu), ref_total_mass(mu))
            factors = rng.uniform(-2.0, 2.0, (3, 1))
            mass = total_mass(measure_scale(mu, factors))
            assert mass.shape == (3,)
            for c, m in zip(factors[:, 0].tolist(), mass.tolist()):
                assert same_float(m, ref_total_mass(measure_scale(mu, c)))
    rows = canonical_duality_measure(stack(fs))
    mass = total_mass(rows)
    for i in range(len(fs)):
        assert same_float(float(mass[i]), ref_total_mass(atom_measure(row_atoms(rows, i))))


def test_membership_report_refuses_a_batch():
    f = pwl_tent()
    mu = atomic_duality_measure(f, [0.5])
    col = np.array([[1.0], [2.0]])
    with pytest.raises(ValueError, match="expected one RcaMeasure, got a batch"):
        is_duality_member_c(measure_scale(mu, col), f)
    with pytest.raises(ValueError, match="expected one PwlFunction, got a batch"):
        is_duality_member_c(mu, pwl_scale(f, col))
    with pytest.raises(ValueError, match="expected one PwlFunction, got a batch"):
        is_duality_member_c(mu, stack([f, f]))
