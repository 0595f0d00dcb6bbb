"""Affine probe curves sampled one batch a checkpoint: bitwise the per-t samples, same checks."""

from dataclasses import dataclass

import numpy as np
import pytest

from dualitymap import (
    THEOREM_IDS,
    AffineForm,
    C01Space,
    CoderivativeQuery,
    FiniteMeasureSpace,
    GraphPair,
    LpSpace,
    ProbeCurve,
    PwlFunction,
    RcaMeasure,
    Schedule,
    build_witness,
    certify_nonmembership,
    estimate_limit,
)
from dualitymap import c01, serialize
from dualitymap.coderivative import _CHECKPOINT, default_schedule
from dualitymap.witnesses import _ShiftForm
from test_c01_kernels import ref_measure_scale, ref_measure_sub, ref_pairing, ref_pwl_sub, ref_tv_norm
from witness_draws import CLOSED_FORM_DRAWS, draw_cor57, draw_thm31, stable_seed

DRAWS = {"thm31": draw_thm31, "cor57": draw_cor57, **CLOSED_FORM_DRAWS}


def _generator_only(curve: ProbeCurve) -> ProbeCurve:
    """The same curve without its affine form, so it is sampled one t at a time."""
    return ProbeCurve(curve.curve_id, curve.generator, curve.t_max)


def _never(t):
    raise AssertionError("the batched path evaluates no generator")


def _batched_only(curve: ProbeCurve) -> ProbeCurve:
    """The same affine form with a generator that fails the test if it is called."""
    return ProbeCurve(curve.curve_id, _never, curve.t_max, curve.affine)


def _reference_shift(curve: ProbeCurve) -> ProbeCurve:
    """The c01 shift curve as the generator closure it was before it became an affine form."""
    form = curve.affine
    f, shift = form.base.point, form.shift
    points, alphas = form.points.tolist(), form.alphas.tolist()
    values = [float(f(s)) for s in points]

    def gen(t):
        h = c01.pwl_shift(f, shift * t)
        mu_t = c01.atom_measure((s, a * (v + shift * t)) for s, a, v in zip(points, alphas, values))
        return GraphPair(h, mu_t)

    return ProbeCurve(curve.curve_id, gen, curve.t_max)


def _outcome(witness, curve, schedule):
    try:
        cert = certify_nonmembership(witness.query, curve, witness.claimed_bound, schedule)
    except ValueError as exc:
        return ("ValueError", str(exc))
    est = cert.estimate
    return (
        [t.hex() for t in est.ts],
        [q.hex() for q in est.quotients],
        est.limit.hex(),
        est.settled,
        cert.verdict,
    )


def test_every_catalog_theorem_has_a_draw():
    assert sorted(DRAWS) == sorted(THEOREM_IDS)


def _spy_batches(monkeypatch) -> list:
    """The row count of each batch a space's ``check_rows`` is handed."""
    seen = []
    for cls in (LpSpace, FiniteMeasureSpace, C01Space):
        def spy(self, x, check_rows=cls.check_rows):
            seen.append(len(x) if isinstance(x, np.ndarray) else x.values.shape[0])
            return check_rows(self, x)

        monkeypatch.setattr(cls, "check_rows", spy)
    return seen


@pytest.mark.parametrize("theorem", sorted(DRAWS))
def test_batched_certificates_are_bitwise_per_t(theorem, monkeypatch):
    rng = np.random.default_rng(stable_seed(theorem) + 7)
    sizes = [None] * 6 + [1024] * 2 + [12289]
    kinds = set()
    batches = _spy_batches(monkeypatch)
    for n in sizes:
        space, params, _ = DRAWS[theorem](rng, n)
        witness = build_witness(space, theorem, params)
        curve = witness.curve
        assert curve.affine is not None
        if theorem == "thm31":
            kinds.add((space.p == 2.0, bool(np.any(params["x"]))))
        t0 = min(0.25, curve.t_max / 2.0)
        for schedule in (None, Schedule(t0 / 3.0, 0.7, 40)):
            batches.clear()
            batched = _outcome(witness, _batched_only(curve), schedule)
            assert batched[0] != "ValueError", batched
            # the samples stop at the end of a checkpoint of 8 t, or at the
            # schedule's last t; each checkpoint is one batch, on every backend
            # and at every size
            steps = len(batched[0])
            assert steps % _CHECKPOINT == 0 or steps == (schedule or default_schedule(curve.t_max)).steps
            assert batches == [min(_CHECKPOINT, steps - k) for k in range(0, steps, _CHECKPOINT)]
            assert batched == _outcome(witness, _generator_only(curve), schedule)
            if ":shift[" in curve.curve_id:
                assert batched == _outcome(witness, _reference_shift(curve), schedule)
    if theorem == "thm31":
        assert (False, True) in kinds  # p != 2 and x != 0, the branch without a closed form


@pytest.mark.parametrize(
    "space", [LpSpace(1.2), LpSpace(2.0), LpSpace(3.0), FiniteMeasureSpace([1.0, 0.5, 2.0, 1.5])]
)
def test_row_forms_equal_the_methods_row_by_row(space):
    rng = np.random.default_rng(5)
    x = rng.uniform(-3.0, 3.0, (6, 4))
    x[1] = 0.0
    x[2] = [-0.0, 0.0, -0.0, 0.0]
    x[3, :2] = 0.0
    x[5] = [1.0, 0.0, 0.0, 0.0]
    u = space.canonical_dual(x)
    for row, dual in zip(x, u):
        expected = space.canonical_dual(row)
        assert np.array_equal(dual, expected)
        assert np.array_equal(np.signbit(dual), np.signbit(expected))
    u[4] = rng.uniform(-3.0, 3.0, 4)  # a row off the graph
    u[5] = [1.0, 5.0, 0.0, 0.0]  # <u, x> = ||x||**2, but ||u||_* != ||x||
    y = rng.uniform(-3.0, 3.0, 4)

    def same(rows, values):
        assert [float(v).hex() for v in rows] == [float(v).hex() for v in values]

    same(space.norm(x), [space.norm(r) for r in x])
    same(space.dual_norm(u), [space.dual_norm(r) for r in u])
    same(space.pair(u, x), [space.pair(a, b) for a, b in zip(u, x)])
    same(space.pair(y, x), [space.pair(y, r) for r in x])
    same(space.pair(u, y), [space.pair(r, y) for r in u])
    member = space.is_member(x, u, 1e-9)
    assert member.tolist() == [space.is_member(a, b, 1e-9) for a, b in zip(x, u)]
    assert not member[4] and not member[5]


def _padded(values, n: int) -> np.ndarray:
    """``values`` followed by zeros, n floats in all."""
    return np.pad(np.array(values, dtype=float), (0, n - len(values)))


def _lp_query(x=(1.0, -2.0)):
    space = LpSpace(3.0)
    x = np.array(x)
    return CoderivativeQuery(space, GraphPair(x, space.canonical_dual(x)), _padded([0.5, 1.0], x.size))


def _l1_query(f=(1.0, -2.0)):
    f = np.array(f)
    space = FiniteMeasureSpace(np.resize([1.0, 2.0], f.size))
    return CoderivativeQuery(
        space, GraphPair(f, space.canonical_dual(f)), _padded([0.5, 1.0], f.size),
        second_dual=_padded([1.0], f.size),
    )


def _both_raise(query, curve, match, schedule=None):
    with pytest.raises(ValueError, match=match) as batched:
        estimate_limit(query, _batched_only(curve), schedule)
    with pytest.raises(ValueError, match=match) as per_t:
        estimate_limit(query, _generator_only(curve), schedule)
    assert str(batched.value) == str(per_t.value)


@dataclass(frozen=True, eq=False)
class _OffBelow(AffineForm):
    """u_t = x + t d with u_t* = J(u_t), but u_t* doubled, off gph J, for t below ``below``."""

    below: float = 0.0

    def _evaluate(self, t) -> tuple:
        u, u_star = super()._evaluate(t)
        return u, np.where(t < self.below, 2.0 * u_star, u_star)


@pytest.mark.parametrize("make_query", [_lp_query, _l1_query])
def test_batched_path_keeps_every_check(make_query):
    # n = 4096: a checkpoint of 8 rows is one batch of 256 KiB
    for n in (2, 4096):
        _both_paths_refuse_alike(make_query, n)


def _both_paths_refuse_alike(make_query, n: int):
    query = make_query(_padded([1.0, -2.0], n))
    space, base = query.space, query.base
    e0 = _padded([1.0], n)

    def curve(t_max=0.5, **form):
        return ProbeCurve("probe", t_max=t_max, affine=AffineForm(space, base, **form))

    # a tangent that overflowed upstream, on the point and on the dual, is
    # refused when the form is built
    with np.errstate(over="ignore"):
        overflowed = _padded([1e308], n) * 10.0
    for form in ({"tangent": overflowed, "dual_tangent": e0}, {"tangent": e0, "dual_tangent": overflowed}):
        with pytest.raises(ValueError, match="finite"):
            curve(**form)
    # a finite tangent whose x + t d (x* + t d*) overflows at the first sample:
    # the sampled pair's own check refuses it
    big, early = _padded([1.7e308], n), Schedule(2.0, 0.5, 8)
    with np.errstate(over="ignore"):
        _both_raise(query, curve(t_max=4.0, tangent=big, dual_tangent=e0), "finite", early)
        _both_raise(query, curve(t_max=4.0, tangent=e0, dual_tangent=big), "finite", early)
    # (1 + t) x paired with the base dual x*: off the graph
    _both_raise(query, curve(tangent=base.point, dual_tangent=np.zeros(n)), "outside gph J")
    # off the graph at the last t of the first checkpoint alone, its last row
    last = 0.25 * 0.5 ** (_CHECKPOINT - 1)
    off_last = _OffBelow(space, base, tangent=e0, below=1.5 * last)
    _both_raise(query, ProbeCurve("late", t_max=0.5, affine=off_last), "outside gph J")
    # a zero tangent never leaves the base point
    _both_raise(query, curve(tangent=np.zeros(n)), "degenerate")

    # A window so narrow that the shrunk schedule underflows to t = 0: the
    # schedule's own check reports it, on both paths.
    origin = make_query(np.zeros(n))
    narrow = AffineForm(space, origin.base, tangent=_padded([1e300], n))
    _both_raise(origin, ProbeCurve("narrow", t_max=1e-320, affine=narrow), "underflows to 0",
                Schedule(0.25, 0.5, 24))


def test_batched_lp_dimension_mismatch():
    query = _lp_query()
    space = query.space
    x3 = np.array([1.0, -2.0, 0.5])
    wide = AffineForm(space, GraphPair(x3, space.canonical_dual(x3)), scale=-1.0)
    _both_raise(query, ProbeCurve("wide", t_max=0.5, affine=wide), "dimension mismatch")
    y3 = CoderivativeQuery(space, query.base, query.candidate, second_dual=x3)
    _both_raise(y3, ProbeCurve("shrink", t_max=0.5, affine=AffineForm(space, query.base, scale=-1.0)),
                "dimension mismatch")


def test_probe_curve_needs_a_generator_or_an_affine_form():
    with pytest.raises(ValueError, match="generator or an affine form"):
        ProbeCurve("empty")


def _row_measure(mu: RcaMeasure, i: int) -> RcaMeasure:
    """Row i of a batch on shared locations; a density without a row axis is every row's."""
    density = None
    if mu.density is not None:
        values = mu.density.values
        density = c01.StepDensity(mu.density.breakpoints, values[i] if values.ndim > 1 else values)
    return RcaMeasure(tuple(zip(mu.locations.tolist(), mu.weights[i].tolist())), density)


def _same_measure(a: RcaMeasure, b: RcaMeasure):
    assert [(loc.hex(), w.hex()) for loc, w in a.atoms] == [(loc.hex(), w.hex()) for loc, w in b.atoms]
    assert (a.density is None) == (b.density is None)
    if a.density is not None:
        assert np.array_equal(a.density.breakpoints, b.density.breakpoints)
        assert a.density.values.tolist() == b.density.values.tolist()


def test_c01_row_forms_equal_the_methods_row_by_row():
    space = C01Space()
    rng = np.random.default_rng(11)
    half = 0.5
    # 0.5 and the next float: adjacent breakpoints, where np.interp's slope
    # of +-1e300 over one ulp is not finite; 0.6 and 0.6 + 1e-9 likewise
    bp = np.array([0.0, 0.25, half, np.nextafter(half, 1.0), 0.6, 0.6 + 1e-9, 0.75, 1.0])
    values = rng.uniform(-3.0, 3.0, (12, bp.size))
    values[1] = 0.0  # a zero row
    values[2, 2:4] = [1e300, -1e300]
    values[3, 4:6] = [-1e300, 1e300]  # +inf at 0.6 + 5e-10
    values[4] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0]  # peak 2 at 0.75
    values[5] = 1.5  # a plateau
    f = c01._on_checked_grid(PwlFunction, bp, values)
    # ten atoms, so a pairwise sum would round differently from a running
    # one: on breakpoints (0.25, 0.5, 0.75), between them, and inside the
    # one-nanometre segment (0.6 + 5e-10); a density grid that shares 0 and
    # 0.5 with bp, and the rest not
    locations = np.array([0.05, 0.1, 0.15, 0.25, 0.4, half, 0.6 + 5e-10, 0.7, 0.75, 0.9])
    weights = rng.uniform(-2.0, 2.0, (12, locations.size))
    weights[::2, 4] = 0.0  # absent atoms
    weights[3, 6] = 0.0  # absent where f_3 is +inf: 0 * inf is not added
    grid = np.array([0.0, 0.3, half, 0.8, 1.0])
    density = rng.uniform(-2.0, 2.0, (12, grid.size - 1))
    density[0, 1] = 0.0
    weights[1], density[1] = 0.0, 0.0  # J(0) = {0}
    weights[4], density[4] = 0.0, 0.0
    weights[4, 8] = 2.0  # 2 delta_0.75 in J(f_4)
    weights[5], density[5] = 0.0, 1.5  # the plateau density in J(f_5)
    mu = c01._measure(locations, weights, c01._on_checked_grid(c01.StepDensity, grid, density))
    fs = [PwlFunction(bp, row) for row in values]
    mus = [_row_measure(mu, i) for i in range(values.shape[0])]
    nu = RcaMeasure(((0.25, 1.0), (0.9, -0.5)), c01.StepDensity(np.array([0.0, 0.25, 0.6, 1.0]), [1.0, 0.0, -2.0]))
    g_same = PwlFunction(bp, rng.uniform(0.0, 2.0, bp.size))
    g_other = PwlFunction(np.array([0.0, 0.3, 0.55, 1.0]), [0.0, 2.0, 1.0, 0.5])

    def same(rows, values):
        assert [float(v).hex() for v in rows] == [float(v).hex() for v in values]

    same(space.norm(f), [space.norm(r) for r in fs])
    same(space.dual_norm(mu), [space.dual_norm(m) for m in mus])
    same(space.dual_norm(mu), [ref_tv_norm(m) for m in mus])
    same(space.pair(mu, f), [space.pair(m, r) for m, r in zip(mus, fs)])
    same(space.pair(mu, f), [ref_pairing(m, r) for m, r in zip(mus, fs)])
    same(space.pair(nu, f), [space.pair(nu, r) for r in fs])
    same(space.pair(nu, f), [ref_pairing(nu, r) for r in fs])
    for g in (g_same, g_other):
        same(space.pair(mu, g), [space.pair(m, g) for m in mus])
        same(space.pair(mu, g), [ref_pairing(m, g) for m in mus])
        diff = space.sub(f, g)
        for row, r in zip(diff.values, fs):
            for expected in (space.sub(r, g), ref_pwl_sub(r, g)):
                assert np.array_equal(diff.breakpoints, expected.breakpoints)
                same(row, expected.values)
    member = space.is_member(f, mu, 1e-9)
    assert member.tolist() == [space.is_member(r, m, 1e-9) for r, m in zip(fs, mus)]
    assert member[[1, 4, 5]].all() and not member[0]
    # f + f overflows on every segment; the one with a nonzero density gives
    # +inf, and the zero ones are skipped, not added as 0 * inf = NaN
    huge = c01._on_checked_grid(PwlFunction, bp, np.full((1, bp.size), 1e308))
    lone_density = c01._on_checked_grid(c01.StepDensity, grid, np.array([[0.0, 1.0, 0.0, 0.0]]))
    lone = c01._measure(locations[:0], np.zeros((1, 0)), lone_density)
    with np.errstate(over="ignore", invalid="ignore"):
        same(space.pair(lone, huge), [space.pair(_row_measure(lone, 0), PwlFunction(bp, huge.values[0]))])

    for i in range(values.shape[0]):
        _same_measure(_row_measure(space.dual_sub(mu, nu), i), space.dual_sub(mus[i], nu))
        _same_measure(_row_measure(space.dual_sub(mu, nu), i), ref_measure_sub(mus[i], nu))
    c = 1.0 + 0.5 * rng.uniform(-1.0, 1.0, (4, 1))
    scaled, scaled_mu = space.scale(fs[0], c), space.dual_scale(nu, c)
    for i, ci in enumerate(c[:, 0].tolist()):
        same(scaled.values[i], space.scale(fs[0], ci).values)
        _same_measure(_row_measure(scaled_mu, i), space.dual_scale(nu, ci))
        _same_measure(_row_measure(scaled_mu, i), ref_measure_scale(nu, ci))
    # equal points merge as RcaMeasure merges them: in order, from 0.0
    points = [0.75, 0.25, 0.75, 1.0, 0.75]
    atom_weights = rng.uniform(-1.0, 1.0, (40, len(points)))
    atom_weights[0, 3] = -0.0
    atom_weights[1, 0], atom_weights[1, 2], atom_weights[1, 4] = 0.3, -0.3, 0.0
    atom_weights[2] = [0.1, 0.5, 0.2, 0.7, 0.3]  # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1
    rows = c01._measure(*c01._merge(np.array(points), atom_weights))
    for i, row in enumerate(atom_weights):
        _same_measure(_row_measure(rows, i), c01.atom_measure(zip(points, row.tolist())))


def test_c01_rows_without_a_density_minus_a_measure_with_one():
    # A shift curve's atom rows minus a base dual with a density: every row
    # gets that density, negated.
    space = C01Space()
    rng = np.random.default_rng(13)
    bp = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    values = rng.uniform(-3.0, 3.0, (5, bp.size))
    values[0] = 1.5  # a plateau, whose J holds the density 1.5 on [0, 1]
    f = c01._on_checked_grid(PwlFunction, bp, values)
    weights = rng.uniform(-2.0, 2.0, (5, 3))
    weights[0] = [0.0, 1.0, 0.0]  # cancels nu's atom
    rows = c01._measure(*c01._merge(np.array([0.25, 0.5, 0.75]), weights))
    nu = RcaMeasure(((0.5, 1.0),), c01.StepDensity(np.array([0.0, 0.3, 0.6, 1.0]), [-1.5, -1.5, -1.5]))
    diff = space.dual_sub(rows, nu)
    mus = [_row_measure(rows, i) for i in range(5)]
    expected = [space.dual_sub(m, nu) for m in mus]
    for i in range(5):
        _same_measure(_row_measure(diff, i), expected[i])
        _same_measure(_row_measure(diff, i), ref_measure_sub(mus[i], nu))
    fs = [PwlFunction(bp, row) for row in values]
    g = PwlFunction(np.array([0.0, 0.4, 1.0]), [1.0, 2.0, 0.5])

    def same(rows, values):
        assert [float(v).hex() for v in rows] == [float(v).hex() for v in values]

    same(space.dual_norm(diff), [space.dual_norm(e) for e in expected])
    same(space.dual_norm(diff), [ref_tv_norm(e) for e in expected])
    same(space.pair(diff, g), [space.pair(e, g) for e in expected])
    same(space.pair(diff, g), [ref_pairing(e, g) for e in expected])
    same(space.pair(diff, f), [space.pair(e, r) for e, r in zip(expected, fs)])
    member = space.is_member(f, diff, 1e-9)
    assert member.tolist() == [space.is_member(r, e, 1e-9) for r, e in zip(fs, expected)]
    assert member[0] and not member[1:].any()


def test_a_c01_batch_is_refused_where_one_element_is_expected():
    space = C01Space()
    f = c01.pwl_tent()
    mu = c01.canonical_duality_measure(f)
    batch = c01.pwl_scale(f, np.array([[1.0], [2.0]]))
    assert batch.values.shape == (2, 3)
    with pytest.raises(ValueError, match="got a batch"):
        space.check(batch)
    with pytest.raises(ValueError, match="got a batch"):
        CoderivativeQuery(space, GraphPair(batch, mu), mu)
    with pytest.raises(ValueError, match="got a batch"):
        CoderivativeQuery(space, GraphPair(f, mu), mu, second_dual=batch)
    # a batch of measures is one RcaMeasure type too, and refused as one dual element
    duals = space.dual_scale(mu, np.array([[1.0], [2.0]]))
    assert isinstance(duals, RcaMeasure) and duals.weights.shape == (2, 1)
    with pytest.raises(ValueError, match="got a batch"):
        CoderivativeQuery(space, GraphPair(f, duals), mu)
    with pytest.raises(ValueError, match="got a batch"):
        space.check_dual(duals)
    two_d = {"breakpoints": [0.0, 0.5, 1.0], "values": batch.values.tolist()}
    with pytest.raises(ValueError, match=r"values\[0\] must be a finite number"):
        serialize.pwl_from_json(two_d)
    with pytest.raises(ValueError, match="one finite density value per grid segment"):
        c01.StepDensity(np.array([0.0, 0.5, 1.0]), np.ones((2, 2)))


def test_shift_weights_round_as_before():
    # three shared peaks, so alpha = 1/3 and alpha (v + t) differs in the
    # last bit from alpha v + t alpha at some t
    f = {"breakpoints": [0.0, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0], "values": [0.0, 1.0, 0.2, 1.0, 0.4, 1.0, 0.0]}
    u = {"breakpoints": f["breakpoints"], "values": [0.0, 3.0, 0.1, 3.0, 0.2, 3.0, 0.0]}
    witness = build_witness(C01Space(), "thm56", {"f": f, "u": u})
    curve = witness.curve
    assert curve.affine.alphas.tolist() == [1.0 / 3.0] * 3
    for schedule in (None, Schedule(0.25 / 3.0, 0.7, 40)):
        batched = _outcome(witness, _batched_only(curve), schedule)
        assert batched == _outcome(witness, _reference_shift(curve), schedule)
        assert batched == _outcome(witness, _generator_only(curve), schedule)


def _c01_query():
    space = C01Space()
    f = PwlFunction([0.0, 0.5, 1.0], [1.0, 2.0, 0.5])
    lam = RcaMeasure(((0.25, 1.0),), c01.StepDensity([0.0, 0.3, 1.0], [1.0, -0.5]))
    return CoderivativeQuery(space, GraphPair(f, c01.canonical_duality_measure(f)), lam, second_dual=f)


def test_c01_batched_path_keeps_every_check():
    query = _c01_query()
    space, base = query.space, query.base

    def scaling(point, dual, s=1.0):
        return ProbeCurve("probe", t_max=0.5, affine=AffineForm(space, GraphPair(point, dual), scale=s))

    # (1 + t) 1.7e308 overflows at the first sample, t = 0.25
    big = PwlFunction([0.0, 1.0], [1.7e308, 1.7e308])
    with np.errstate(over="ignore"):  # the overflow is the input here
        _both_raise(query, scaling(big, base.dual), "finite")
        _both_raise(query, scaling(base.point, c01.measure_scale(base.dual, 0.85e308)), "finite")
        big_density = c01.density_measure([0.0, 1.0], [1.7e308])
        _both_raise(query, scaling(base.point, big_density), "finite")
    # (1 - t)(f, 2 mu): twice the dual of J((1 - t) f)
    _both_raise(query, scaling(base.point, c01.measure_scale(base.dual, 2.0), -1.0), "outside gph J")
    # (1 + t)(0, 0) never leaves the base point 0 of gph J
    zero = c01.pwl_constant(0.0)
    at_zero = CoderivativeQuery(space, GraphPair(zero, c01.zero_measure()), query.candidate)
    _both_raise(at_zero, scaling(zero, c01.zero_measure()), "degenerate")
    # two atoms at one point whose finite weights add up past the largest float
    merged = _ShiftForm(space, base, shift=1.7e308, points=np.array([0.5, 0.5]),
                        alphas=np.ones(2), values=base.point(np.array([0.5, 0.5])))
    _both_raise(query, ProbeCurve("merge", t_max=1.0, affine=merged), "atom weights must be finite",
                Schedule(0.9, 0.5, 24))


def test_each_row_of_a_batch_on_one_grid_reads_as_that_row_alone():
    # a batch used to raise at a scalar (ValueError) and at a list (TypeError)
    rng = np.random.default_rng(stable_seed("batch read at points"))
    bp = np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.6, 0.6 + 1e-9, 1.0])
    values = rng.uniform(-3.0, 3.0, (5, bp.size))
    values[1, 4:6] = [-1e300, 1e300]  # a slope past the float range: inf inside the segment
    values[2, 2:4] = [1e300, -1e300]
    batch = c01._on_checked_grid(PwlFunction, bp, values)
    points = np.concatenate([bp, rng.uniform(0.0, 1.0, 12), [0.1, 0.6 + 5e-10]])
    for s in (0.25, 0.6 + 5e-10, points.tolist(), points):
        got = batch(s)
        assert got.shape == (5,) + np.shape(s)
        for i, row in enumerate(values):
            want = np.asarray(PwlFunction(bp, row)(s))
            assert [v.hex() for v in np.atleast_1d(got[i]).tolist()] == [v.hex() for v in np.atleast_1d(want).tolist()]
    # the public route to a batch: a column of factors
    scaled = c01.pwl_scale(c01.pwl_tent(), np.array([[1.0], [2.0]]))
    assert scaled(0.25).tolist() == [0.5, 1.0] and scaled([0.25, 0.5]).tolist() == [[0.5, 1.0], [1.0, 2.0]]


def test_row_interp_on_a_grid_per_row_is_np_interp():
    rng = np.random.default_rng(4)
    grids = [
        np.array([0.0, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.6, 0.6 + 1e-9, 1.0]),
        np.array([0.0, 1.0]),
        np.array([0.0, 0.3, 0.7, 1.0]),
    ] * 2
    stack = c01.pwl_rows(grids, [rng.uniform(-3.0, 3.0, g.size) for g in grids])
    xp, fp = stack.breakpoints, stack.values.copy()
    fp[0, 2:4] = [1e300, -1e300]  # an infinite slope inside the segment
    fp[2, :2] = np.inf  # a NaN slope, and then a NaN from the right end too
    fp[3, 1] = np.nan
    fp[4, 1:] = np.inf  # the padding repeats the last value
    fp[5, 2:] = -np.inf
    ends = np.tile([0.1, 0.6 + 5e-10, 0.0, 1.0, -0.5, 1.5], (6, 1))
    x = np.concatenate([xp, rng.uniform(0.0, 1.0, (6, 20)), ends], axis=1)
    for i, got in enumerate(c01._interp_rows(x, xp, fp)):
        size = grids[i].size
        want = np.interp(x[i], xp[i, :size], fp[i, :size])
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
