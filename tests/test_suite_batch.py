"""Exact-equality tests of the stacked suites against per-sample loops.

The battery and the invariants draw all their samples at once, one ``rng``
call per quantity in the order the ``oracles`` docstring lists, and then
evaluate the L1 draws as one (samples, n) stack, the lp ones as two (the
draws of dimension 1-7 zero-padded to 7 columns and those of dimension 8)
and the c01 ones as one stack of functions, each row on its own grid of up
to 8 breakpoints.  The reference draws below re-implement that order
sample by sample from the same ``rng`` calls, building each instance on its
own (a c01 grid through ``set`` and ``sorted``), and the reference loops
are the per-sample loops the stacks replaced, with the one-element
``duality_selection`` they called.  They share no code with the stacks, so
every violation value must agree bit for bit, in draw order.
"""

import numpy as np
import pytest

from dualitymap import C01Space, FiniteMeasureSpace, LpSpace, PwlFunction, c01, duality_selection, oracles

SAMPLE_COUNTS = (1, 2, 20, 200)
WEIGHTS = ([1.0], [1.0, 0.5, 2.0], [0.3, 1.0, 7.0, 2.0, 1.0])
SEEDS = (0, 5, 123)


# -- reference draws: the documented bulk order, one sample at a time -----------


def ref_draw_lp(space, rng, n):
    dims = rng.integers(1, 9, n).tolist()
    xy = rng.uniform(-10.0, 10.0, (2, n, 8))
    coins = rng.random(n).tolist()
    at = rng.integers(0, dims).tolist()
    alphas = rng.uniform(-3.0, 3.0, n).tolist()
    draws = []
    for i, dim in enumerate(dims):
        x, y = xy[0, i, :dim].copy(), xy[1, i, :dim].copy()
        if dim > 1 and coins[i] < 0.3:
            x[at[i]] = 0.0
        draws.append((x, y, alphas[i]))
    return draws


def ref_l1_rows(rng, rows, n):
    values = rng.uniform(-5.0, 5.0, (rows, n))
    zeros = rng.random((rows, n)) < 0.25
    return [np.where(z, 0.0, v) for v, z in zip(values, zeros)]


def ref_draw_l1(space, rng, n):
    rows = ref_l1_rows(rng, 2 * n, space.n)
    while True:
        empty = [i for i, f in enumerate(rows) if not np.any(f)]
        if not empty:
            break
        for i, f in zip(empty, ref_l1_rows(rng, len(empty), space.n)):
            rows[i] = f
    alphas = rng.uniform(-3.0, 3.0, n).tolist()
    return [(rows[i], rows[n + i], alphas[i]) for i in range(n)]


def ref_pwl(count, points, values):
    interior = sorted(set(points[:count].tolist()))
    bp = np.array([0.0, *interior, 1.0])
    return PwlFunction(bp, values[: bp.size].copy())


def ref_pwl_draws(rng, k):
    counts = rng.integers(0, 7, k).tolist()
    points = rng.uniform(0.01, 0.99, (k, 6))
    values = rng.uniform(-5.0, 5.0, (k, 8))
    return [ref_pwl(c, pt, v) for c, pt, v in zip(counts, points, values)]


def ref_draw_c01(space, rng, n):
    fs = ref_pwl_draws(rng, 2 * n)
    alphas = rng.uniform(-3.0, 3.0, n).tolist()
    return [(fs[i], fs[n + i], alphas[i]) for i in range(n)]


# -- reference loops ----------------------------------------------------------


def ref_duality_selection(f, space, a):
    norm = space.norm(f)
    if norm == 0.0:
        raise ValueError("f = 0 is degenerate here")
    a = np.asarray(a, dtype=float)
    zero_set = np.flatnonzero(f == 0.0)
    if a.size != zero_set.size:
        raise ValueError("free parameter count")
    if a.size and np.max(np.abs(a)) > norm:
        raise ValueError("free values must satisfy |a(s)| <= ||f||_1")
    g = space.canonical_dual(f)
    g[zero_set] = a
    return g


def ref_battery(space, sample_count, seed, draw=ref_draw_l1):
    rng = np.random.default_rng(seed)
    hilbert = space.descriptor() == {"space": "lp", "p": 2.0}
    j2, j3, j4, j5, j6 = [], [], [], [], []
    for x, y, alpha in draw(space, rng, sample_count):
        jx, jy = space.canonical_dual(x), space.canonical_dual(y)
        if hilbert:
            j2.append(space.dual_norm(space.dual_sub(jx, x)))
        j3.append(space.dual_norm(space.canonical_dual(space.scale(x, 0.0))))
        j4.append(
            space.dual_norm(
                space.dual_sub(
                    space.canonical_dual(space.scale(x, alpha)), space.dual_scale(jx, alpha)
                )
            )
        )
        diff = space.sub(x, y)
        j5.append(max(0.0, -space.pair(space.dual_sub(jx, jy), diff)))
        mid = space.norm(x) ** 2 - space.norm(y) ** 2
        j6.append(
            max(
                0.0,
                2.0 * space.pair(jy, diff) - mid,
                mid - 2.0 * space.pair(jx, diff),
            )
        )
    return [("J2", j2), ("J3", j3), ("J4", j4), ("J5", j5), ("J6", j6)]


def ref_invariants(space, sample_count, seed):
    rng = np.random.default_rng(seed)
    fs = ref_l1_rows(rng, sample_count, space.n)
    for f in fs:
        if not np.any(f):
            f[0] = 1.0
    norms = [space.norm(f) for f in fs]
    counts = [int(np.sum(f == 0.0)) for f in fs]
    low = np.array([-norm for norm, count in zip(norms, counts) for _ in range(count)])
    free = rng.uniform(low, -low)
    alphas = rng.uniform(0.1, 4.0, sample_count).tolist()
    member, scaling, at = [], [], 0
    for f, norm, count, alpha in zip(fs, norms, counts, alphas):
        a = free[at : at + count]
        at += count
        sel = ref_duality_selection(f, space, a)
        member.append(
            max(
                abs(space.dual_norm(sel) - norm),
                abs(space.pair(sel, f) - norm * norm),
            )
        )
        scaling.append(
            float(np.max(np.abs(alpha * sel - ref_duality_selection(alpha * f, space, alpha * a))))
        )
    return [("selection_membership", member), ("positive_scaling", scaling)]


def ref_lp_invariants(space, sample_count, seed):
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 9, sample_count).tolist()
    block = rng.uniform(-10.0, 10.0, (sample_count, 8))
    identity, roundtrip = [], []
    conjugate = LpSpace(space.q)
    for dim, row in zip(dims, block):
        x = row[:dim].copy()
        nx = space.norm(x)
        jx = space.canonical_dual(x)
        identity.append(
            max(
                abs(space.pair(jx, x) - nx * nx) / max(1.0, nx * nx),
                abs(space.dual_norm(jx) - nx) / max(1.0, nx),
            )
        )
        back = conjugate.canonical_dual(jx)
        roundtrip.append(float(np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x)))))
    return [("pairing_identity", identity), ("inverse_roundtrip", roundtrip)]


def ref_c01_invariants(space, sample_count, seed):
    # J(f) comes from space.canonical_dual, as in the stacked invariants; on
    # C01Space that is atomic_duality_measure(f, mset.points()) bit for bit
    # (test_canonical_measure_is_the_atomic_member)
    rng = np.random.default_rng(seed)
    mset_scaling, exactness = [], []
    for f in ref_pwl_draws(rng, sample_count):
        mset = c01.maximizing_set(f)
        ok = all(
            c01.maximizing_set(c01.pwl_scale(f, t)).same_set(mset, tol=1e-12)
            for t in (-2.0, 0.5, 3.0)
        )
        mset_scaling.append(0.0 if ok else 1.0)
        mu = space.canonical_dual(f)
        norm = space.norm(f)
        exactness.append(
            max(
                abs(space.dual_norm(mu) - norm) / max(1.0, norm),
                abs(space.pair(mu, f) - norm * norm) / max(1.0, norm * norm),
            )
        )
    return [("maximizing_set_scaling", mset_scaling), ("atomic_member_exact", exactness)]


# -- helpers ------------------------------------------------------------------


class Distorted(FiniteMeasureSpace):
    """L1 with a wrong canonical dual, so that every property has nonzero violations."""

    def canonical_dual(self, f):
        return super().canonical_dual(f) - 0.3 * f * np.abs(f) - 0.1


class DistortedLp(LpSpace):
    """l_p with a wrong canonical dual that still maps each zero coordinate to 0.

    J4-J6 (J2 at p = 2) and both invariants get nonzero values; the factor
    makes each coordinate of the map fall beyond |x_i| = 5/3, so J5 fails
    too.  J3 stays 0: J(0) = 0 for any map that keeps zeros, and one that
    does not would give the padding columns of a stack values of their own.
    """

    def canonical_dual(self, x):
        return super().canonical_dual(x) * (1.0 - 0.3 * np.abs(x))


class Recording(LpSpace):
    """l_p that records the shape of every element its canonical dual maps."""

    def __init__(self, p):
        super().__init__(p)
        object.__setattr__(self, "shapes", [])

    def canonical_dual(self, x):
        self.shapes.append(x.shape)
        return super().canonical_dual(x)


class DistortedC01(C01Space):
    """C[0,1] with a wrong canonical dual: each atom weight times 1.5 minus its location.

    J4, J6 and atomic_member_exact get nonzero values.  The factor depends
    on the location alone, so one element and a row of a stack get the
    same bits.
    """

    def canonical_dual(self, f):
        mu = super().canonical_dual(f)
        if isinstance(mu, c01.MeasureRows):
            return c01.MeasureRows(mu.locations, mu.weights * (1.5 - mu.locations))
        return c01.atom_measure((loc, w * (1.5 - loc)) for loc, w in mu.atoms)


class RecordingC01(C01Space):
    """C[0,1] that records the breakpoint shape of every function its canonical dual maps."""

    def __init__(self):
        object.__setattr__(self, "shapes", [])

    def canonical_dual(self, f):
        self.shapes.append(f.breakpoints.shape)
        return super().canonical_dual(f)


def _spaces(weights):
    return [FiniteMeasureSpace(weights), Distorted(np.asarray(weights, dtype=float))]


def _hex(records):
    return [(pid, [float(v).hex() for v in values]) for pid, values in records]


def _recorded(monkeypatch, entry, space, sample_count, seed):
    """The violations each record of ``entry`` was built from, in order."""
    seen = []
    record = oracles._record

    def spy(property_id, violations, applicable=True):
        seen.append((property_id, list(np.ravel(violations))))
        return record(property_id, violations, applicable)

    monkeypatch.setattr(oracles, "_record", spy)
    return seen, entry(space, sample_count, seed)


# -- the stacked suite --------------------------------------------------------


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("sample_count", SAMPLE_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_battery_is_bitwise_per_sample(monkeypatch, weights, sample_count, seed):
    for space in _spaces(weights):
        seen, report = _recorded(monkeypatch, oracles.run_appendix_battery, space, sample_count, seed)
        expected = ref_battery(space, sample_count, seed)
        assert _hex(seen) == _hex(expected)
        for record, (_, values) in zip(report.records[1:], expected[1:]):
            assert record.samples == sample_count
            assert float(record.max_violation).hex() == float(max(values)).hex()


@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("sample_count", SAMPLE_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_stacked_invariants_are_bitwise_per_sample(monkeypatch, weights, sample_count, seed):
    for space in _spaces(weights):
        seen, records = _recorded(monkeypatch, oracles.run_backend_invariants, space, sample_count, seed)
        expected = ref_invariants(space, sample_count, seed)
        assert _hex(seen) == _hex(expected)
        assert [float(r.max_violation).hex() for r in records] == [
            float(max(values)).hex() for _, values in expected
        ]


@pytest.mark.parametrize("space", [LpSpace(2.0), LpSpace(3.0), LpSpace(1.5), C01Space()])
@pytest.mark.parametrize("sample_count", (1, 2, 20))
@pytest.mark.parametrize("seed", SEEDS)
def test_per_sample_battery_is_unchanged(monkeypatch, space, sample_count, seed):
    draw = ref_draw_c01 if isinstance(space, C01Space) else ref_draw_lp
    seen, _ = _recorded(monkeypatch, oracles.run_appendix_battery, space, sample_count, seed)
    assert _hex(seen) == _hex(ref_battery(space, sample_count, seed, draw))


LP_EXPONENTS = (1.2, 1.5, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("p", LP_EXPONENTS)
@pytest.mark.parametrize("sample_count", SAMPLE_COUNTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lp_stacks_are_bitwise_per_sample(monkeypatch, p, sample_count, seed):
    for space in (LpSpace(p), DistortedLp(p)):
        seen, report = _recorded(monkeypatch, oracles.run_appendix_battery, space, sample_count, seed)
        expected = ref_battery(space, sample_count, seed, ref_draw_lp)
        assert _hex(seen) == _hex(expected)
        assert [float(r.max_violation).hex() for r in report.records if r.applicable] == [
            float(max(values)).hex() for _, values in expected if values
        ]
        seen, records = _recorded(monkeypatch, oracles.run_backend_invariants, space, sample_count, seed)
        expected = ref_lp_invariants(space, sample_count, seed)
        assert _hex(seen) == _hex(expected)
        assert [float(r.max_violation).hex() for r in records] == [
            float(max(values)).hex() for _, values in expected
        ]


@pytest.mark.parametrize("seed", SEEDS)
def test_lp_suite_runs_at_most_two_stacks(seed):
    # 200 draws of dimension 1-8 hold both kinds; each property then sees a
    # 7-column stack of the shorter draws and an 8-column stack of the rest
    draws = ref_draw_lp(None, np.random.default_rng(seed), 200)
    short = sum(x.size < 8 for x, _, _ in draws)
    assert 0 < short < 200
    space = Recording(3.0)
    oracles.run_appendix_battery(space, 200, seed)
    # one call per stack maps [x; y; x; x], for J(x), J(y), J3 and J4; no per-draw call
    assert space.shapes == [(4 * short, 7), (4 * (200 - short), 8)]
    space.shapes.clear()
    oracles.run_backend_invariants(space, 200, seed)
    assert [shape[1] for shape in space.shapes] == [7, 8]
    assert sum(shape[0] for shape in space.shapes) == 200
    space.shapes.clear()
    oracles.run_appendix_battery(space, 1, seed)
    assert len(space.shapes) == 1 and space.shapes[0][0] == 4


@pytest.mark.parametrize("seed", range(60))
def test_c01_stack_is_bitwise_per_sample(monkeypatch, seed):
    # the per-draw loops at 200 samples are slow, so they run on SEEDS only
    for space in (C01Space(), DistortedC01()):
        for sample_count in (1, 3, 20, 200) if seed in SEEDS else (1, 3, 20):
            seen, report = _recorded(monkeypatch, oracles.run_appendix_battery, space, sample_count, seed)
            expected = ref_battery(space, sample_count, seed, ref_draw_c01)
            assert _hex(seen) == _hex(expected)
            assert [float(r.max_violation).hex() for r in report.records[1:]] == [
                float(max(values)).hex() for _, values in expected[1:]
            ]
            seen, records = _recorded(monkeypatch, oracles.run_backend_invariants, space, sample_count, seed)
            expected = ref_c01_invariants(space, sample_count, seed)
            assert _hex(seen) == _hex(expected)
            assert [float(r.max_violation).hex() for r in records] == [
                float(max(values)).hex() for _, values in expected
            ]


def test_distorted_c01_space_has_nonzero_violations():
    # guards the c01 tests: on C01Space every c01 value above is 0.0
    space = DistortedC01()
    values = dict(ref_battery(space, 20, 5, ref_draw_c01) + ref_c01_invariants(space, 20, 5))
    for property_id in ("J4", "J6", "atomic_member_exact"):
        assert max(values[property_id]) > 0.0, property_id


@pytest.mark.parametrize("seed", SEEDS)
def test_c01_suite_runs_one_stack(seed):
    space = RecordingC01()
    oracles.run_appendix_battery(space, 200, seed)
    # one call maps [x; y; x; x] for J(x), J(y), J3 and J4; 200 draws hold a grid of 8
    assert space.shapes == [(800, 8)]
    space.shapes.clear()
    oracles.run_backend_invariants(space, 200, seed)
    assert [shape[0] for shape in space.shapes] == [200]
    space.shapes.clear()
    oracles.run_appendix_battery(space, 1, seed)
    assert len(space.shapes) == 1 and space.shapes[0][0] == 4


@pytest.mark.parametrize("seed", SEEDS)
def test_c01_invariants_map_one_stack_of_scalings(monkeypatch, seed):
    # f and its scalings by -2, 0.5 and 3 as one stack of 4n rows: one
    # maximizer_runs call, and one comparison against the base runs tiled
    seen = []
    runs, same = c01.maximizer_runs, oracles._same_runs

    def runs_spy(f, *args):
        seen.append(("runs", f.breakpoints.shape))
        return runs(f, *args)

    def same_spy(bp, *args):
        seen.append(("same", bp.shape))
        return same(bp, *args)

    monkeypatch.setattr(c01, "maximizer_runs", runs_spy)
    monkeypatch.setattr(oracles, "_same_runs", same_spy)
    oracles.run_backend_invariants(C01Space(), 200, seed)
    assert seen == [("runs", (800, 8)), ("same", (600, 8))]


def test_same_runs_is_same_set_row_by_row():
    # maximizing_set_scaling reads 0.0 on every draw, so the comparison of
    # two sets is checked here: on grids with ties, plateaus, and maxima at
    # adjacent floats, which agree within the tolerance though their
    # breakpoints differ
    rng = np.random.default_rng(8)
    half = 0.5
    grids = [[0.0, half, np.nextafter(half, 1.0), 1.0], [0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0]] * 40
    levels = np.array([-2.0, -1.0, 1.0, 2.0])
    values = [rng.choice(levels, len(g)) for g in grids]
    others = [rng.choice(levels, len(g)) for g in grids]
    values[0], others[0] = np.array([0.0, 2.0, 1.0, 0.0]), np.array([0.0, 1.0, 2.0, 0.0])
    f, g = c01.pwl_rows(grids, values), c01.pwl_rows(grids, others)
    for tol in (1e-12, 0.0):
        got = oracles._same_runs(f.breakpoints, c01.maximizer_runs(f), c01.maximizer_runs(g), tol)
        want = [
            c01.maximizing_set(PwlFunction(np.array(bp), v)).same_set(
                c01.maximizing_set(PwlFunction(np.array(bp), w)), tol=tol
            )
            for bp, v, w in zip(grids, values, others)
        ]
        assert got.tolist() == want
        assert got[0] == (tol > 0.0) and 0 < sum(want) < len(want)


@pytest.mark.parametrize("p", LP_EXPONENTS + (1.01, 7.5, 40.0))
def test_padding_to_seven_columns_keeps_every_bit(p):
    # numpy sums fewer than 8 terms left to right, so trailing +0.0 terms
    # change no sum, no root of one, no pairing and no coordinate of J; only
    # a pairing whose terms are all -0.0 becomes +0.0, and the suite takes
    # every pairing through abs or max(0, .), which drop that sign
    space = LpSpace(p)
    rng = np.random.default_rng(17)
    dims = np.tile(np.arange(1, 8), 40)
    xs, us = [], []
    for dim in dims:
        x = rng.uniform(-10.0, 10.0, dim)
        x[rng.random(dim) < 0.2] = 0.0
        xs.append(x)
        us.append(rng.uniform(-10.0, 10.0, dim))
    used = np.arange(7) < dims[:, None]
    x, u = np.zeros(used.shape), np.zeros(used.shape)
    x[used], u[used] = np.concatenate(xs), np.concatenate(us)
    norm, dual_norm, pair, jx = space.norm(x), space.dual_norm(u), space.pair(u, x), space.canonical_dual(x)
    for i, (xi, ui) in enumerate(zip(xs, us)):
        assert norm[i].hex() == space.norm(xi).hex()
        assert dual_norm[i].hex() == space.dual_norm(ui).hex()
        assert (pair[i] + 0.0).hex() == (space.pair(ui, xi) + 0.0).hex()
        assert [v.hex() for v in jx[i].tolist()] == [
            v.hex() for v in space.canonical_dual(xi).tolist() + [0.0] * (7 - xi.size)
        ]


def test_distorted_lp_space_has_nonzero_violations():
    # guards the lp tests: J2 (p = 2), J4-J6 and both invariants are not all 0.0
    space = DistortedLp(2.0)
    battery = ref_battery(space, 20, 5, ref_draw_lp)
    for property_id, values in battery + ref_lp_invariants(space, 20, 5):
        if property_id != "J3":
            assert max(values) > 0.0, property_id


@pytest.mark.parametrize("seed", (4, 6, 30))
def test_stacked_j6_squares_each_norm_as_one_draw_does(monkeypatch, seed):
    # numpy squares an array as n * n, Python's float power can round the
    # other way; on the draws of seeds 4 and 6 that moves a J6 value by an ulp
    space = Distorted(np.array([1.0]))
    seen, _ = _recorded(monkeypatch, oracles.run_appendix_battery, space, 200, seed)
    assert _hex(seen) == _hex(ref_battery(space, 200, seed))
    norm = float.fromhex("0x1.332a5de044c8fp+3")
    assert oracles._squared(np.array([norm, norm]))[1].hex() == (norm**2).hex()


def test_distorted_space_has_nonzero_violations():
    # guards the stacked tests: on the distorted space the compared values are not all 0.0
    space = Distorted(np.array([1.0, 0.5, 2.0]))
    for _, values in ref_battery(space, 20, 5)[1:] + ref_invariants(space, 20, 5):
        assert max(values) > 0.0


def test_positive_part_is_max_with_zero_and_keeps_nan():
    values = np.array([-0.0, 0.0, -1.5, 2.5, np.nan])
    expected = [max(0.0, v) for v in values.tolist()[:4]]
    got = oracles._positive_part(values)
    assert [v.hex() for v in got[:4].tolist()] == [v.hex() for v in expected]
    assert np.isnan(got[4])


# -- the law of the bulk draws ------------------------------------------------


def _within_binomial(hits, trials, rate):
    """hits lies within 5 standard deviations of a Binomial(trials, rate) mean."""
    return abs(hits - trials * rate) <= 5.0 * np.sqrt(trials * rate * (1.0 - rate))


def test_lp_draws_keep_the_law_of_one_draw():
    n = 4000
    dims, xy, alpha = oracles._draw_lp(LpSpace(2.0), np.random.default_rng(1), n)
    assert xy.shape == (2, n, 8) and sorted(set(dims.tolist())) == list(range(1, 9))
    used = np.arange(8) < dims[:, None]
    assert (np.abs(xy) <= 10.0).all() and not np.signbit(xy[:, ~used]).any() and not xy[:, ~used].any()
    # y has no zero coordinate (U(-10, 10) gives none); x has one exactly when it was hit
    assert xy[1][used].all()
    zeros = np.count_nonzero((xy[0] == 0.0) & used, axis=1)
    assert zeros.max() == 1 and not zeros[dims == 1].any()
    assert _within_binomial(zeros.sum(), np.count_nonzero(dims > 1), 0.3)
    assert alpha.shape == (n,) and (np.abs(alpha) <= 3.0).all()


@pytest.mark.parametrize("weights", WEIGHTS)
def test_l1_draws_keep_the_law_of_one_draw(monkeypatch, weights):
    space, n = FiniteMeasureSpace(weights), 3000
    xy, alpha = oracles._draw_l1(space, np.random.default_rng(2), n)
    m = space.n
    assert xy.shape == (2 * n, m) and xy.any(-1).all() and (np.abs(xy) <= 5.0).all()
    # a value is 0 with rate 0.25, given that its row is not all zero
    rate = 0.25 * (1.0 - 0.25 ** (m - 1)) / (1.0 - 0.25**m)
    assert _within_binomial(np.count_nonzero(xy == 0.0), xy.size, rate)
    assert alpha.shape == (n,) and (np.abs(alpha) <= 3.0).all()
    # the invariants: f[0] = 1 on an all-zero row, free values U(-||f||, ||f||)
    seen = []
    select = oracles.l1.duality_selection

    def spy(f, space, free):
        seen.append((f, free))
        return select(f, space, free)

    monkeypatch.setattr(oracles.l1, "duality_selection", spy)
    oracles.run_backend_invariants(space, n, 3)
    f, free = seen[0]
    assert f.shape == (n, m) and f.any(-1).all()
    reset = ~f[:, 1:].any(-1) & (f[:, 0] == 1.0)
    assert _within_binomial(np.count_nonzero(reset), n, 0.25**m)
    bound = np.repeat(space.norm(f), np.count_nonzero(f == 0.0, axis=-1))
    share = free / bound
    if m > 1:
        assert (np.abs(share) <= 1.0).all() and share.min() < -0.9 and share.max() > 0.9
        assert abs(share.mean()) <= 5.0 / np.sqrt(3.0 * share.size)


def test_c01_draws_keep_the_law_of_one_draw():
    k = 3000
    f = oracles._pwl_draws(np.random.default_rng(4), k)
    bp, vals = f.breakpoints, f.values
    own = np.count_nonzero(np.diff(bp, axis=1) > 0.0, axis=1) + 1  # the padding repeats 1.0
    assert bp.shape == vals.shape == (k, 8) and sorted(set(own.tolist())) == list(range(2, 9))
    assert (bp[:, 0] == 0.0).all() and (bp[:, -1] == 1.0).all()
    for row, size in zip(bp, own):
        assert (np.diff(row[:size]) > 0.0).all() and (row[size:] == 1.0).all()
        assert (row[1 : size - 1] >= 0.01).all() and (row[1 : size - 1] < 0.99).all()
    assert (np.abs(vals) <= 5.0).all()
    pad = np.arange(8) >= own[:, None]
    assert (vals[pad] == np.broadcast_to(vals[np.arange(k), own - 1][:, None], vals.shape)[pad]).all()
    # each interior count 0-6 with rate 1/7
    assert all(_within_binomial(np.count_nonzero(own == size), k, 1.0 / 7.0) for size in range(2, 9))


@pytest.mark.parametrize("space", [LpSpace(2.0), FiniteMeasureSpace([1.0]), FiniteMeasureSpace([1.0, 0.5, 2.0]), C01Space()])
def test_one_sample_suite(space):
    report = oracles.run_appendix_battery(space, 1, 9)
    records = report.records + oracles.run_backend_invariants(space, 1, 9)
    assert report.sample_count == 1 and all(r.passed for r in records)
    assert all(r.samples == 1 for r in records if r.applicable)


@pytest.mark.parametrize("seed", SEEDS)
def test_l1_redraws_only_the_all_zero_rows(seed):
    # at one weight a quarter of the rows come out all zero; those alone are drawn again
    space, n = FiniteMeasureSpace([1.0]), 200
    xy, alpha = oracles._draw_l1(space, np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    first = rng.uniform(-5.0, 5.0, (2 * n, 1))
    first[rng.random((2 * n, 1)) < 0.25] = 0.0
    empty = ~first.any(-1)
    assert _within_binomial(np.count_nonzero(empty), 2 * n, 0.25)
    assert np.array_equal(xy[~empty], first[~empty]) and xy.all()
    second = rng.uniform(-5.0, 5.0, (np.count_nonzero(empty), 1))
    again = rng.random(second.shape) < 0.25
    assert np.array_equal(xy[empty][~again[:, 0]], second[~again[:, 0]])


def test_a_repeated_interior_point_merges():
    # U(0.01, 0.99) repeats a point with probability ~0, so one is injected
    counts = np.array([3, 4, 2, 0, 6])
    inner = np.array([
        [0.5, 0.2, 0.5, 0.9, 0.9, 0.9],  # 0.5 twice, then unused points
        [0.3, 0.3, 0.3, 0.3, 0.1, 0.1],  # 0.3 four times
        [0.7, 0.4, 0.4, 0.4, 0.4, 0.4],  # distinct
        [0.6, 0.6, 0.6, 0.6, 0.6, 0.6],  # none used
        [0.8, 0.1, 0.8, 0.2, 0.1, 0.8],  # 0.1 twice, 0.8 three times
    ])
    values = np.arange(40.0).reshape(5, 8)
    f = oracles._pwl_stack(counts, inner, values)
    for i, (count, points, row) in enumerate(zip(counts, inner, values)):
        want = ref_pwl(count, points, row)
        size = want.breakpoints.size
        assert f.breakpoints[i, :size].tolist() == want.breakpoints.tolist()
        assert f.values[i, :size].tolist() == want.values.tolist()
        assert (f.breakpoints[i, size:] == 1.0).all() and (f.values[i, size:] == row[size - 1]).all()
    assert f.breakpoints.shape == (5, 5)  # the widest grid: 0, 0.1, 0.2, 0.8, 1
    # the shared check refuses a repeated point that was not merged
    bp = np.array([[0.0, 0.5, 0.5, 1.0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        c01.pwl_padded_rows(bp, np.zeros((1, 4)), np.array([4]))
    with pytest.raises(ValueError, match="start at 0 and end at 1"):
        c01.pwl_padded_rows(np.array([[0.0, 0.5, 0.5]]), np.zeros((1, 3)), np.array([2]))
    # a padded column (past the row's size) may repeat the last breakpoint
    g = c01.pwl_padded_rows(np.array([[0.0, 1.0, 1.0]]), np.array([[1.0, 2.0, 2.0]]), np.array([2]))
    assert c01.sup_norm(g).tolist() == [2.0]


# -- duality_selection on a stack ---------------------------------------------


def _stack(space, rows, rng):
    f = rng.uniform(-5.0, 5.0, (rows, space.n))
    f[rng.random((rows, space.n)) < 0.4] = 0.0
    f[~f.any(axis=1), 0] = 1.0
    return f


@pytest.mark.parametrize("weights", WEIGHTS)
def test_stacked_selection_is_the_one_element_call_per_row(weights):
    space = FiniteMeasureSpace(weights)
    rng = np.random.default_rng(3)
    f = _stack(space, 50, rng)
    per_row = [rng.uniform(-1.0, 1.0, int(np.sum(r == 0.0))) * space.norm(r) for r in f]
    stacked = duality_selection(f, space, np.concatenate(per_row))
    assert stacked.shape == f.shape
    for row, free, got in zip(f, per_row, stacked):
        one = duality_selection(row, space, free)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in one.tolist()]
        assert np.array_equal(one, ref_duality_selection(row, space, free))


def test_stacked_selection_fills_free_values_row_by_row():
    space = FiniteMeasureSpace([1.0, 1.0, 1.0])
    f = np.array([[1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [3.0, 0.0, 1.0]])
    g = duality_selection(f, space, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert g.tolist() == [[1.0, 0.1, 0.2], [0.3, -2.0, 0.4], [4.0, 0.5, 4.0]]


def test_stacked_selection_checks_every_row():
    space = FiniteMeasureSpace([1.0, 1.0])
    f = np.array([[1.0, 0.0], [10.0, 0.0]])  # norms 1 and 10
    assert duality_selection(f, space, [1.0, 10.0]).tolist() == [[1.0, 1.0], [10.0, 10.0]]
    # a free value above its own row's norm, though below the other row's
    with pytest.raises(ValueError, match=r"\|a\(s\)\| <= \|\|f\|\|_1"):
        duality_selection(f, space, [5.0, 0.0])
    with pytest.raises(ValueError, match=r"\|a\(s\)\| <= \|\|f\|\|_1"):
        duality_selection(f, space, [0.0, -10.5])
    with pytest.raises(ValueError, match="f = 0 is degenerate"):
        duality_selection(np.array([[1.0, 0.0], [0.0, 0.0]]), space, [0.0, 0.0, 0.0])
    for free in ([0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="free parameter has"):
            duality_selection(f, space, free)
    with pytest.raises(ValueError, match="match"):
        duality_selection(np.ones((2, 3)), space, [])
    with pytest.raises(ValueError, match="finite"):
        duality_selection(np.array([[1.0, np.nan]]), space, [])
