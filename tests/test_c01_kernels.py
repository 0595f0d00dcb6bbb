"""Exact-equality tests of the c01 array kernels against per-segment loops.

The reference functions below are the loop forms the array kernels
replaced, and the union-grid form of ``pwl_sub`` that its shared-grid path
skips.  The kernels keep the arithmetic and the summation order, so every
float must agree bit for bit and every atom and interval tuple must be
identical.
"""

import numpy as np
import pytest

from dualitymap import C01Space, PwlFunction, is_duality_member_c, maximizing_set, pairing_c
from dualitymap.c01 import (
    VALUE_TOL,
    MaximizingSet,
    MembershipReport,
    RcaMeasure,
    StepDensity,
    atom_measure,
    atomic_duality_measure,
    canonical_duality_measure,
    measure_scale,
    measure_sub,
    plateau_duality_measure,
    pwl_scale,
    pwl_shift,
    pwl_sub,
    sup_norm,
    tv_norm,
)

SIZES = (2, 3, 16, 1024)


# -- reference loops ----------------------------------------------------------


def ref_value_in(density: StepDensity, a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    idx = int(np.searchsorted(density.breakpoints, mid, side="right")) - 1
    return float(density.values[min(max(idx, 0), density.values.size - 1)])


def ref_pairing(mu: RcaMeasure, f: PwlFunction) -> float:
    total = sum(w * float(f(loc)) for loc, w in mu.atoms)
    if mu.density is not None:
        grid = np.union1d(mu.density.breakpoints, f.breakpoints)
        fvals = f(grid)
        for k in range(grid.size - 1):
            a, b = grid[k], grid[k + 1]
            d = ref_value_in(mu.density, a, b)
            if d != 0.0:
                total += d * (b - a) * 0.5 * (fvals[k] + fvals[k + 1])
    return float(total)


def ref_pwl_sub(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    grid = np.union1d(f.breakpoints, g.breakpoints)
    return PwlFunction(grid, f(grid) - g(grid))


def ref_measure_sub(mu: RcaMeasure, nu: RcaMeasure) -> RcaMeasure:
    atoms = list(mu.atoms) + [(loc, -w) for loc, w in nu.atoms]
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


def ref_maximizing_set(f: PwlFunction, tol: float = VALUE_TOL) -> MaximizingSet:
    norm = float(np.max(np.abs(f.values)))
    bp, vals = f.breakpoints, f.values
    at_max = np.abs(np.abs(vals) - norm) <= tol
    nseg = bp.size - 1
    plateau = [
        bool(at_max[i] and at_max[i + 1] and abs(vals[i] - vals[i + 1]) <= tol)
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
    norm = sup_norm(f)
    member = abs(tv_norm(mu) - norm) <= tol and abs(ref_pairing(mu, f) - norm * norm) <= tol
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
    _, fs = draws(n)
    for f in fs:
        for tol in (VALUE_TOL, 0.3):
            got, want = maximizing_set(f, tol), ref_maximizing_set(f, tol)
            assert same_floats(got.atoms, want.atoms)
            assert same_tuples(got.intervals, want.intervals)


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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflow_on_a_reused_grid_raises():
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
    mu = RcaMeasure(density=StepDensity(bp, np.array([10.0, 1.0])))
    with pytest.raises(ValueError, match="finite"):
        measure_scale(mu, 1e308)


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
