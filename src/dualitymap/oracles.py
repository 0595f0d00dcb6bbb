"""Independent oracles and the appendix-property battery.

Three cross-checks that never reuse the code paths they test:

* a central finite-difference gradient of 0.5 * ||.||_p**2, which must agree
  with the duality map in the smooth sequence model;
* a brute-force enumeration of grid selections passing the duality-set test
  in the finite L1 model, which must recover exactly the sign-template
  family;
* a seeded battery of the classical duality-map properties (identity on the
  Hilbert case, zero at zero, homogeneity, monotonicity, and the two-sided
  norm inequality) run over random instances of each backend.

Set-valued backends quantify the pairwise properties over canonical
selections: free values zero on zero sets, uniform atom weights on
maximizing representatives.

The battery and the invariants draw all their samples at once, one ``rng``
call per quantity, in this order (n samples; "block" means one call):

* lp battery: the dimensions (n, 1-8); an (2, n, 8) block of U(-10, 10)
  coordinates, x then y; n U(0, 1) coins, and for each sample a coordinate
  below its dimension, which is set to 0 in x when the coin is < 0.3 and
  the dimension > 1; n alphas U(-3, 3).  Coordinates beyond a sample's
  dimension are +0.0.  lp invariants: the dimensions, then an (n, 8) block.
* L1 battery: a (2n, m) block of U(-5, 5) values, x then y, and a (2n, m)
  block of U(0, 1), each < 0.25 setting its value to 0; while some row is
  all zero, those rows alone are drawn again, by the same two calls; then
  n alphas U(-3, 3).  L1 invariants: the two (n, m) blocks, f[0] = 1 on an
  all-zero row, one U(-||f||, ||f||) free value per zero of f, row by row,
  and n alphas U(0.1, 4).
* c01 (2n functions x then y for the battery, then n alphas U(-3, 3); n
  functions for the invariants): the interior breakpoint counts (0-6); a
  (k, 6) block of U(0.01, 0.99) points, of which row i keeps its first
  counts[i], sorted, an equal pair merged; a (k, 8) block of U(-5, 5)
  values, of which a grid of s breakpoints takes the first s.

So sample i depends on the sample count, and every sample has the law of
one drawn alone.  Each property is then computed once per stack, each row
bitwise its value alone, in draw order.  L1: one stack.  lp draws have 1-8
coordinates: one stack of 1-7 zero-padded to 7 columns, one of 8.  Zeros
change no l_p norm, pairing or J, and numpy sums fewer than 8 terms left to
right (``np.dot`` too, at these sizes), so they move no bit but a zero
pairing's sign; from 8 terms its sums unroll 8 ways.  c01: one stack of
functions, each row on its own grid of 2-8 breakpoints
(``c01.pwl_padded_rows``), x and y in one stack, so of one width.  The sup
norm and M(f) are maxima and masks, and the atom sums run left to right
over each row's sorted atoms, an absent atom adding +0.0.

J is evaluated once per stack: the battery maps [x; y; x; x] scaled by the
factor column [1; 1; 0; alpha] with one ``canonical_dual`` call and splits
it into J(x), J(y), J(0 x) and J(alpha x), which 1 * x = x keeps bitwise.
The c01 invariants find M(f) of f and its scalings by -2, 0.5 and 3 as one
stack of four times the samples, and compare each scaled row with its base
row mask for mask: rows whose masks agree are the same set, and only the
others (none on random draws) build both sets and compare them with
``MaximizingSet.same_set``.

On c01 the stacks skip work whose result is known: J(0 x), a zero row,
interpolates nothing; x - y reads x and y on each row's union grid with
one interpolation; J(alpha x) - alpha J(x), whose atoms sit where alpha
J(x)'s do, subtracts weight by weight without a merge; and each of the
three pairings with x - y reads it at the atoms present only, one to three
a row, each on a breakpoint of x - y unless it is a plateau midpoint.
M(f) of a stack tests for plateau segments only where two maximizers sit
side by side, so the invariants' draws, which have none, skip that test.
The draws fill one padded grid in place.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import getitem

import numpy as np

from . import c01, l1, lp
from .coderivative import _floor, duality_gaps

__all__ = [
    "GradientOracle",
    "gradient_oracle_lp",
    "brute_force_duality_l1",
    "PropertyRecord",
    "SuiteReport",
    "run_appendix_battery",
    "run_backend_invariants",
]

BATTERY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class GradientOracle:
    """Finite-difference gradient; flagged coordinates were skipped (nan)."""

    values: np.ndarray
    flagged: np.ndarray


def gradient_oracle_lp(x, p: float, step: float = 1e-5) -> GradientOracle:
    """Central finite differences of v -> 0.5 * ||v||_p**2 at x.

    In the smooth model this gradient *is* the duality map, so it serves as
    an oracle that never touches the closed-form implementation.  For p < 2
    the map is not Lipschitz across coordinate zeros; coordinates with
    |x_i| <= 10 * step are skipped and flagged instead of differenced.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    v = lp.as_vector(x)
    values = np.full(v.size, np.nan)
    flagged = np.zeros(v.size, dtype=bool)
    for i in range(v.size):
        if p < 2.0 and abs(v[i]) <= 10.0 * step:
            flagged[i] = True
            continue
        bump = np.zeros_like(v)
        bump[i] = step
        hi = 0.5 * lp.lp_norm(v + bump, p) ** 2
        lo = 0.5 * lp.lp_norm(v - bump, p) ** 2
        values[i] = (hi - lo) / (2.0 * step)
    return GradientOracle(values, flagged)


def brute_force_duality_l1(
    f, space: l1.FiniteMeasureSpace, grid_steps: int = 21
) -> list:
    """All grid selections passing the duality-set test, by exhaustion.

    Selections range over the uniform grid on [-||f||_1, ||f||_1] in every
    coordinate; a selection passes when both membership conditions hold
    within half a grid step, which separates the sign-template family from
    every off-template grid point.
    """
    f = space.check(f)
    if space.n > 4:
        raise ValueError("combinatorial budget exceeded: need at most 4 points")
    if not 2 <= grid_steps <= 41:
        raise ValueError("combinatorial budget exceeded: need 2 <= grid_steps <= 41")
    norm = l1.l1_norm(f, space)
    if norm == 0.0:
        return [l1.zero_selection(space)]
    grid = np.linspace(-norm, norm, grid_steps)
    tol = (grid[1] - grid[0]) / 2.0
    mesh = np.stack(
        np.meshgrid(*([grid] * space.n), indexing="ij"), axis=-1
    ).reshape(-1, space.n)
    sup = np.max(np.abs(mesh), axis=1)
    pairs = mesh @ (f * space.weights)
    keep = (np.abs(sup - norm) <= tol) & (np.abs(pairs - norm * norm) <= tol)
    return [row.copy() for row in mesh[keep]]


# ---------------------------------------------------------------------------
# Appendix battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyRecord:
    property_id: str
    applicable: bool
    samples: int
    max_violation: float
    tolerance: float
    passed: bool

    def to_json(self) -> dict:
        """The fields in order, ``property_id`` under the key "property"."""
        record = asdict(self)
        return {"property": record.pop("property_id"), **record}


@dataclass(frozen=True)
class SuiteReport:
    space: dict
    seed: int
    sample_count: int
    records: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "seed": self.seed,
            "sample_count": self.sample_count,
            "all_passed": self.all_passed,
            "records": [r.to_json() for r in self.records],
        }


def _record(property_id: str, violations, applicable: bool = True) -> PropertyRecord:
    # A NaN anywhere is the worst violation and fails; max() keeps it only when first.
    worst = float(np.asarray(violations).max()) if len(violations) else 0.0
    return PropertyRecord(
        property_id,
        applicable,
        len(violations),
        worst,
        BATTERY_TOL,
        (worst <= BATTERY_TOL) if applicable else True,
    )


def _lp_vectors(rng, n: int, copies: int) -> tuple:
    """n dimensions 1-8 and a (copies, n, 8) block of U(-10, 10) coordinates, +0.0 beyond each dimension."""
    dims = rng.integers(1, 9, n)
    block = rng.uniform(-10.0, 10.0, (copies, n, 8))
    block[:, np.arange(8) >= dims[:, None]] = 0.0
    return dims, block


def _draw_lp(space: lp.LpSpace, rng, n: int) -> tuple:
    """The dimensions, the (2, n, 8) block of x and y, and the alphas of n lp draws."""
    dims, xy = _lp_vectors(rng, n, 2)
    hit = (rng.random(n) < 0.3) & (dims > 1)
    xy[0, hit, rng.integers(0, dims)[hit]] = 0.0
    return dims, xy, rng.uniform(-3.0, 3.0, n)


def _lp_stacks(dims: np.ndarray, block: np.ndarray):
    """(rows, the rows of ``block``): draws of dimension 1-7 as 7 columns, then those of 8."""
    for rows, width in ((np.flatnonzero(dims < 8), 7), (np.flatnonzero(dims == 8), 8)):
        if rows.size:
            yield rows, block[..., rows, :width]


def _group_lp(draws: tuple):
    dims, xy, alpha = draws
    for rows, stack in _lp_stacks(dims, xy):
        yield rows, stack.reshape(-1, stack.shape[-1]), alpha[rows]


def _l1_values(rng, shape: tuple) -> np.ndarray:
    f = rng.uniform(-5.0, 5.0, shape)
    f[rng.random(shape) < 0.25] = 0.0
    return f


def _draw_l1(space: l1.FiniteMeasureSpace, rng, n: int) -> tuple:
    """The (2n, m) stack of x and y, no row all zero, and the alphas of n L1 draws."""
    xy = _l1_values(rng, (2 * n, space.n))
    redraw = ~xy.any(-1)
    while redraw.any():
        xy[redraw] = _l1_values(rng, (np.count_nonzero(redraw), space.n))
        redraw = ~xy.any(-1)
    return xy, rng.uniform(-3.0, 3.0, n)


def _pwl_stack(counts: np.ndarray, inner: np.ndarray, values: np.ndarray) -> c01.PwlFunction:
    """Row i on [0, 1] with the first counts[i] points of ``inner[i]`` inside, valued by ``values[i]``.

    The grids fill one array in place: 0, then the row's points, then 1.0.
    An unused or repeated point becomes 1.0, so a sort leaves each row's
    interior distinct and increasing, then the 1.0 that pads the grid.
    """
    k, cols = inner.shape
    bp = np.ones((k, cols + 2))
    bp[:, 0] = 0.0
    interior = bp[:, 1:-1]
    np.copyto(interior, inner, where=np.arange(cols) < counts[:, None])
    interior.sort(axis=1)
    repeated = (interior[:, 1:] == interior[:, :-1]) & (interior[:, 1:] < 1.0)
    if repeated.any():  # a repeated point merges with its first copy, as a set merges it
        interior[:, 1:][repeated] = 1.0
        interior.sort(axis=1)
    sizes = np.count_nonzero(interior < 1.0, axis=1) + 2
    width = sizes.max()
    vals = values[np.arange(k)[:, None], np.minimum(np.arange(width), sizes[:, None] - 1)]
    return c01.pwl_padded_rows(bp[:, :width], vals, sizes)


def _pwl_draws(rng, k: int) -> c01.PwlFunction:
    """k random piecewise-linear functions on [0, 1] with 2-8 breakpoints (a.s. nonzero), one stack."""
    counts = rng.integers(0, 7, k)
    return _pwl_stack(counts, rng.uniform(0.01, 0.99, (k, 6)), rng.uniform(-5.0, 5.0, (k, 8)))


def _draw_c01(space: c01.C01Space, rng, n: int) -> tuple:
    return _pwl_draws(rng, 2 * n), rng.uniform(-3.0, 3.0, n)


def _one_stack(draws: tuple) -> list:
    xy, alpha = draws
    return [(slice(None), xy, alpha)]


def _lp_invariants(space: lp.LpSpace, rng, sample_count: int) -> tuple:
    conjugate = lp.LpSpace(space.q)
    dims, (xs,) = _lp_vectors(rng, sample_count, 1)
    identity, roundtrip = np.empty(sample_count), np.empty(sample_count)
    for rows, x in _lp_stacks(dims, xs):
        jx = space.canonical_dual(x)
        identity[rows] = np.maximum(*duality_gaps(space, x, jx))
        back = conjugate.canonical_dual(jx)
        roundtrip[rows] = (np.abs(back - x) / _floor(np.abs(x))).max(-1)
    return (
        _record("pairing_identity", identity),
        _record("inverse_roundtrip", roundtrip),
    )


def _l1_invariants(space: l1.FiniteMeasureSpace, rng, sample_count: int) -> tuple:
    f = _l1_values(rng, (sample_count, space.n))
    f[~f.any(-1), 0] = 1.0
    norm, zero = space.norm(f), f == 0.0
    bound = np.repeat(norm, np.count_nonzero(zero, axis=-1))
    free = rng.uniform(-bound, bound)
    alpha = rng.uniform(0.1, 4.0, sample_count)[:, None]
    sel = l1.duality_selection(f, space, free)
    member = np.maximum(
        abs(space.dual_norm(sel) - norm),
        abs(space.pair(sel, f) - norm * norm),
    )
    scaled_free = np.broadcast_to(alpha, f.shape)[zero] * free
    scaling = np.abs(alpha * sel - l1.duality_selection(alpha * f, space, scaled_free)).max(-1)
    return (
        _record("selection_membership", member),
        _record("positive_scaling", scaling),
    )


def _same_runs(bp: np.ndarray, runs: tuple, base: tuple) -> np.ndarray:
    """``MaximizingSet.same_set`` row by row, for ``c01.maximizer_runs`` on the grids ``bp`` and n base runs.

    Row i of ``runs`` is compared with row i % n of ``base``, on the grid
    they share.  Where the two rows' masks agree, they mark the same
    breakpoints of one grid: the same set.  Only the other rows (none on
    random draws) build both sets and call ``same_set``.
    """
    first, last = runs
    n, width = base[0].shape
    same = ((first.reshape(-1, n, width) == base[0]) & (last.reshape(-1, n, width) == base[1])).all(-1).ravel()
    for i in (~same).nonzero()[0].tolist():
        j = i % n
        same[i] = c01._run_set(bp[i], first[i], last[i]).same_set(c01._run_set(bp[i], base[0][j], base[1][j]))
    return same


def _c01_invariants(space: c01.C01Space, rng, sample_count: int) -> tuple:
    n = sample_count
    f = _pwl_draws(rng, n)
    # f and its scalings by -2, 0.5 and 3 as one stack, each scaling's M(f) against f's
    factors = np.repeat([1.0, -2.0, 0.5, 3.0], n)[:, None]
    scaled = c01.pwl_scale(c01.take_rows(f, np.arange(4 * n) % n), factors)
    first, last = c01.maximizer_runs(scaled)
    same = _same_runs(scaled.breakpoints[n:], (first[n:], last[n:]), (first[:n], last[:n]))
    exactness = np.maximum(*duality_gaps(space, f, space.canonical_dual(f)))
    return (
        _record("maximizing_set_scaling", np.where(same.reshape(3, -1).all(0), 0.0, 1.0)),
        _record("atomic_member_exact", exactness),
    )


# Per backend: the battery draw of n samples (x and y, two primal elements
# each, and a scalar alpha each, as arrays), the backend-specific
# invariants, the grouping of the draws into (rows, xy, alpha) stacks, rows
# indexing the draws, xy their x then their y, one row each: one stack (L1,
# c01) or two (lp, see above); and the selection of rows of a stack or of
# its J; keyed by ``descriptor()["space"]``.
_BACKENDS = {
    "lp": (_draw_lp, _lp_invariants, _group_lp, getitem),
    "l1": (_draw_l1, _l1_invariants, _one_stack, getitem),
    "c01": (_draw_c01, _c01_invariants, _one_stack, c01.take_rows),
}


def _backend(space, sample_count: int) -> tuple:
    """The ``_BACKENDS`` entry of ``space``; both suite entry points check here."""
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    try:
        return _BACKENDS[space.descriptor()["space"]]
    except (AttributeError, KeyError):
        raise TypeError(f"no suite for {type(space).__name__}") from None


def _squared(norm: np.ndarray) -> np.ndarray:
    """norm ** 2 per row of a stack, by Python's float power: numpy's n * n can round otherwise.

    Raises ValueError where a square leaves the float range (L1 weights past
    about 1e153).
    """
    try:
        return np.array([n**2 for n in norm.tolist()])
    except OverflowError:
        raise ValueError("a squared norm of the suite's draws overflows") from None


def _battery_terms(space, take, hilbert: bool, xy, alpha: np.ndarray) -> tuple:
    """The J3-J6 terms of a stack of draws, row by row, then J2's on l_2.

    ``xy`` holds the n draws' x in its first n rows and their y in the next
    n.  One ``canonical_dual`` call maps the stack [x; y; x; x] scaled by
    the factor column [1; 1; 0; alpha], and ``take`` splits it into J(x),
    J(y), J(0 x) and J(alpha x); each row is bitwise its own call's, as
    1 * x is x.  The three pairings with x - y are one ``pair`` call each
    over the stack; c01 reads x - y there only at each row's atoms, so
    sharing its evaluation between them would save little (and pairing
    [J(x); J(y)] against x - y taken twice measured slower on lp and L1).
    The J5 violation is max(0, the third term), the J6
    violation max(0, the fourth, the fifth); the caller takes those maxima
    over all draws at once.
    """
    n = alpha.size
    factors = np.concatenate([np.ones(2 * n), np.zeros(n), alpha])[:, None]
    rows = np.concatenate([np.arange(2 * n), np.arange(n), np.arange(n)])  # [x; y; x; x]
    j = space.canonical_dual(space.scale(take(xy, rows), factors))
    jx, jy, j0, jax = (take(j, slice(k * n, (k + 1) * n)) for k in range(4))
    x, y, alpha = take(xy, slice(n)), take(xy, slice(n, 2 * n)), alpha[:, None]
    diff = space.sub(x, y)
    mid = _squared(space.norm(x)) - _squared(space.norm(y))
    terms = (
        space.dual_norm(j0),
        space.dual_norm(space.dual_sub(jax, space.dual_scale(jx, alpha))),
        -space.pair(space.dual_sub(jx, jy), diff),
        2.0 * space.pair(jy, diff) - mid,
        mid - 2.0 * space.pair(jx, diff),
    )
    return terms + (space.dual_norm(space.dual_sub(jx, x)),) if hilbert else terms


def _positive_part(v: np.ndarray) -> np.ndarray:
    """max(0, v) as Python's max(0.0, v) gives it (+0.0 for -0.0), but NaN stays NaN."""
    return np.where(v <= 0.0, 0.0, v)


def run_appendix_battery(space, sample_count: int, seed: int) -> SuiteReport:
    """Run every applicable appendix property on seeded random instances.

    J2 (J is the identity) applies to l_2 only.  Differences of dual elements
    are measured in the dual norm.  All draws come first, one ``rng`` call
    per quantity (see the module docstring); the backend then
    evaluates them as one stack (L1, c01) or two zero-padded stacks (lp),
    with one J call per stack, and every value goes back to its draw's place.
    """
    draw, _, group, take = _backend(space, sample_count)
    rng = np.random.default_rng(seed)
    hilbert = space.descriptor() == {"space": "lp", "p": 2.0}
    terms = np.empty((5 + hilbert, sample_count))  # one value per sample, in draw order
    for rows, xy, alpha in group(draw(space, rng, sample_count)):
        terms[:, rows] = _battery_terms(space, take, hilbert, xy, alpha)
    j3, j4, j5, j6_lo, j6_hi, *j2 = terms
    records = (
        _record("J2", j2[0] if hilbert else (), applicable=hilbert),
        _record("J3", j3),
        _record("J4", j4),
        _record("J5", _positive_part(j5)),
        _record("J6", _positive_part(np.maximum(j6_lo, j6_hi))),
    )
    return SuiteReport(space.descriptor(), int(seed), int(sample_count), records)


def run_backend_invariants(space, sample_count: int, seed: int) -> tuple:
    """Backend-specific invariant records, same shape as the battery rows.

    Sequence model: the pairing/norm identities of the map and the inverse
    round trip.  L1: selection membership and exact positive scaling.
    C[0,1]: scaling invariance of the maximizing set and exactness of the
    atomic duality measures.  The draws are valid, so the space methods,
    which do not re-check them, take them directly: lp as the battery's two
    zero-padded stacks, L1 and c01 as one stack.  Each stack has one J call;
    c01 also finds M(f) once, for f and its three scalings stacked.
    """
    invariants = _backend(space, sample_count)[1]
    return invariants(space, np.random.default_rng(seed), sample_count)
