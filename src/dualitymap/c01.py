"""Piecewise-linear model of C[0,1] with sup norm and measure duals.

Functions are piecewise linear over a breakpoint grid on [0,1], which makes
the sup norm and the maximizing set M(f) = {s : |f(s)| = ||f||} exactly
computable: |f| is convex on each linear piece, so maxima sit at breakpoints,
and a whole segment belongs to M(f) only when both endpoint values equal the
same signed maximum.  Constant shifts f + t and scalings (1 +- t) f stay in
the class, so the probe curves of the coderivative engine are exact.

Dual elements model rca[0,1] as finitely many atoms plus a piecewise-constant
density; every duality measure used here is of that form.  Atomic members of
J(f) put weight alpha_j * f(s_j) on points s_j of M(f) with alpha_j > 0
summing to one; a plateau of f at +||f|| on [a,b] carries the density member
with constant density ||f|| / (b-a).

The dual norm implemented by ``tv_norm`` is the standard total variation
(sum of absolute atom weights plus the integral of |density|); for the
single-signed differences that arise along the probe curves it agrees with
the sup-over-sets variation.

Cost: ``pairing_c``, ``measure_sub`` and the density-support scan of
``is_duality_member_c`` each make one pass of whole-array numpy operations
over the union of the breakpoint grids, with no per-segment Python loop.
``maximizing_set`` finds the breakpoints at the maximum with one array pass
and then walks only those, so its Python work is linear in the number of
maximizers (usually one to three).  The array forms keep the arithmetic and
the left-to-right summation order of the per-segment loops they replace, so
every result is bitwise unchanged.

The probe curves keep the base point's grid: ``pwl_scale`` and ``pwl_shift``
reuse ``f.breakpoints``, and ``pwl_sub`` of two functions on the same grid
(the same array, or an element-wise equal one) subtracts the values without
merging grids or interpolating.  ``np.interp`` returns ``fp[j]`` exactly at
``x == xp[j]``, so that result is bitwise the one the merged grid gives.  An
element built on a grid that was already checked checks only its new values
(shape and finiteness, so an overflow to inf still raises); every other
construction checks the grid too.  ``canonical_duality_measure`` evaluates f
at all maximizing representatives with one ``np.interp`` call.

Batches: ``PwlRows`` holds the values of a probe curve at every t as one
(steps, breakpoints) array on the base grid, and ``MeasureRows`` its duals as
(steps, atoms) weights at shared sorted locations plus (steps, segments)
density values on a shared grid.  ``C01Space`` has the row forms of
``coderivative.RowSpace`` on them.  Work that every row shares is done once
per batch: grid unions, segment indices, interpolation indices, and the
values of a fixed function such as the second-dual argument.  Each row is
bitwise its per-element result: interpolation follows the C kernel of
``np.interp`` (its ``x == xp[j]`` branch and NaN fallbacks included), atom
and density terms are summed left to right from 0.0, and an absent atom or a
zero density segment adds +0.0, which leaves such a total unchanged.  There
is no ``canonical_dual_rows``: no ``c01`` probe curve needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PwlFunction",
    "StepDensity",
    "RcaMeasure",
    "MaximizingSet",
    "MembershipReport",
    "C01Space",
    "pwl_constant",
    "pwl_tent",
    "pwl_shift",
    "pwl_scale",
    "pwl_sub",
    "sup_norm",
    "maximizing_set",
    "peak_points",
    "atomic_duality_measure",
    "plateau_duality_measure",
    "canonical_duality_measure",
    "zero_measure",
    "atom_measure",
    "density_measure",
    "measure_scale",
    "measure_sub",
    "total_mass",
    "tv_norm",
    "pairing_c",
    "is_duality_member_c",
    "PwlRows",
    "MeasureRows",
    "atom_rows",
]

# Value comparisons against the exact piecewise-linear model only need to
# absorb representation rounding.
VALUE_TOL = 1e-12
POSITION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PwlFunction:
    """Continuous piecewise-linear function on [0,1].

    ``values[i]`` is the function value at ``breakpoints[i]``; the function
    interpolates linearly in between.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least the two endpoint breakpoints")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if not (bp[1:] > bp[:-1]).all():  # also rejects a NaN breakpoint
            raise ValueError("breakpoints must be strictly increasing")
        if vals.shape != bp.shape or not np.isfinite(vals).all():
            raise ValueError("values must be finite and match the breakpoints")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, s):
        return np.interp(s, self.breakpoints, self.values)


def pwl_constant(c: float) -> PwlFunction:
    return PwlFunction(np.array([0.0, 1.0]), np.array([float(c), float(c)]))


def pwl_tent() -> PwlFunction:
    """The unit tent: 0 at the endpoints, peak 1 at 1/2."""
    return PwlFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))


def _on_checked_grid(cls, bp: np.ndarray, vals: np.ndarray):
    """A ``PwlFunction`` or ``StepDensity`` on the grid of one already built.

    The grid was checked then, so only the new values are checked here: one
    per breakpoint (per segment for a density), all finite.
    """
    size = bp.size if cls is PwlFunction else bp.size - 1
    if vals.shape != (size,) or not np.isfinite(vals).all():
        raise ValueError("values must be finite and match the grid")
    obj = object.__new__(cls)
    object.__setattr__(obj, "breakpoints", bp)
    object.__setattr__(obj, "values", vals)
    return obj


def pwl_shift(f: PwlFunction, c: float) -> PwlFunction:
    return _on_checked_grid(PwlFunction, f.breakpoints, f.values + float(c))


def pwl_scale(f: PwlFunction, c: float) -> PwlFunction:
    return _on_checked_grid(PwlFunction, f.breakpoints, f.values * float(c))


def _same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (a.size == b.size and (a == b).all())


def pwl_sub(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    """f - g on the union of the two breakpoint grids (value by value on a shared one)."""
    bp = f.breakpoints
    if _same_grid(g.breakpoints, bp):
        return _on_checked_grid(PwlFunction, bp, f.values - g.values)
    grid = np.union1d(bp, g.breakpoints)
    return PwlFunction(grid, f(grid) - g(grid))


def sup_norm(f: PwlFunction) -> float:
    """max |f| over [0,1]; attained at a breakpoint by piecewise linearity."""
    return float(abs(f.values).max())


@dataclass(frozen=True)
class MaximizingSet:
    """Exact set where |f| attains the sup norm: isolated atoms plus plateaus."""

    atoms: tuple
    intervals: tuple

    def contains(self, s: float, tol: float = POSITION_TOL) -> bool:
        s = float(s)
        if any(abs(s - a) <= tol for a in self.atoms):
            return True
        return any(a - tol <= s <= b + tol for a, b in self.intervals)

    def points(self) -> list:
        """One representative per component: atoms plus interval midpoints."""
        return list(self.atoms) + [0.5 * (a + b) for a, b in self.intervals]

    def same_set(self, other: "MaximizingSet", tol: float = 1e-9) -> bool:
        if len(self.atoms) != len(other.atoms) or len(self.intervals) != len(other.intervals):
            return False
        return all(
            abs(a - b) <= tol for a, b in zip(sorted(self.atoms), sorted(other.atoms))
        ) and all(
            abs(i[0] - j[0]) <= tol and abs(i[1] - j[1]) <= tol
            for i, j in zip(sorted(self.intervals), sorted(other.intervals))
        )


def maximizing_set(f: PwlFunction, tol: float = VALUE_TOL) -> MaximizingSet:
    """M(f) = {s : |f(s)| = ||f||}; rejects f = 0 where the set is undefined.

    A segment is a plateau when both endpoints sit at the same signed
    maximum; runs of plateau segments merge into one interval and every
    other maximizing breakpoint is an atom.
    """
    norm = sup_norm(f)
    if norm == 0.0:
        raise ValueError("maximizing set undefined for the zero function")
    idx = (abs(abs(f.values) - norm) <= tol).nonzero()[0]
    pos, vals = f.breakpoints[idx].tolist(), f.values[idx].tolist()
    idx = idx.tolist()
    atoms, intervals = [], []
    start = 0  # first maximizer of the current run
    for j in range(1, len(idx) + 1):
        if j < len(idx) and idx[j] == idx[j - 1] + 1 and abs(vals[j - 1] - vals[j]) <= tol:
            continue  # a plateau segment joins maximizer j to the run
        if start == j - 1:
            atoms.append(pos[start])
        else:
            intervals.append((pos[start], pos[j - 1]))
        start = j
    return MaximizingSet(tuple(atoms), tuple(intervals))


def peak_points(f: PwlFunction, sign: int, tol: float = VALUE_TOL) -> list:
    """Representative points where f equals sign * ||f|| (sign is +1 or -1)."""
    norm = sup_norm(f)
    target = float(sign) * norm
    pts = []
    for s in maximizing_set(f).points():
        if abs(float(f(s)) - target) <= tol * max(1.0, norm):
            pts.append(float(s))
    return pts


@dataclass(frozen=True, eq=False)
class StepDensity:
    """Piecewise-constant density over a breakpoint grid on [0,1]."""

    breakpoints: np.ndarray
    values: np.ndarray  # one value per segment

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("density grid must run from 0 to 1")
        if not (bp[1:] > bp[:-1]).all():  # also rejects a NaN breakpoint
            raise ValueError("density grid must be strictly increasing")
        if vals.shape != (bp.size - 1,) or not np.isfinite(vals).all():
            raise ValueError("need one finite density value per grid segment")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def values_on(self, grid: np.ndarray) -> np.ndarray:
        """Density value on each segment of ``grid``, a refinement of this grid."""
        return self.values[_segments(self.breakpoints, grid)]


def _segments(bp: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Index of the segment of ``bp`` that holds each segment of ``grid``, a refinement."""
    mids = 0.5 * (grid[:-1] + grid[1:])
    # Segment k of bp holds the midpoints in [bp[k], bp[k+1]); a search over
    # the interior breakpoints also sends a midpoint that rounds onto 1 to the
    # last segment.
    return bp[1:-1].searchsorted(mids, side="right")


@dataclass(frozen=True, eq=False)
class RcaMeasure:
    """Signed measure on [0,1]: finitely many atoms plus an optional density."""

    atoms: tuple = ()
    density: StepDensity | None = None

    def __post_init__(self):
        merged: dict[float, float] = {}
        for loc, w in self.atoms:
            loc, w = float(loc), float(w)
            if not (0.0 <= loc <= 1.0):
                raise ValueError(f"atom location {loc} outside [0,1]")
            if not math.isfinite(w):
                raise ValueError("atom weights must be finite")
            merged[loc] = merged.get(loc, 0.0) + w
        cleaned = tuple(sorted((loc, w) for loc, w in merged.items() if w != 0.0))
        object.__setattr__(self, "atoms", cleaned)


def zero_measure() -> RcaMeasure:
    return RcaMeasure()


def atom_measure(atoms) -> RcaMeasure:
    return RcaMeasure(atoms=tuple((float(l), float(w)) for l, w in atoms))


def density_measure(breakpoints, values) -> RcaMeasure:
    return RcaMeasure(density=StepDensity(np.asarray(breakpoints), np.asarray(values)))


def measure_scale(mu: RcaMeasure, c: float) -> RcaMeasure:
    c = float(c)
    atoms = tuple((loc, c * w) for loc, w in mu.atoms)
    density = None
    if mu.density is not None:
        density = _on_checked_grid(StepDensity, mu.density.breakpoints, mu.density.values * c)
    return RcaMeasure(atoms=atoms, density=density)


def measure_sub(mu: RcaMeasure, nu: RcaMeasure) -> RcaMeasure:
    atoms = list(mu.atoms) + [(loc, -w) for loc, w in nu.atoms]
    density = None
    if mu.density is not None or nu.density is not None:
        grids = [d.breakpoints for d in (mu.density, nu.density) if d is not None]
        grid = grids[0] if len(grids) == 1 else np.union1d(grids[0], grids[1])
        left = mu.density.values_on(grid) if mu.density is not None else 0.0
        right = nu.density.values_on(grid) if nu.density is not None else 0.0
        density = StepDensity(grid, left - right)
    return RcaMeasure(atoms=tuple(atoms), density=density)


def total_mass(mu: RcaMeasure) -> float:
    """mu([0,1]): signed sum of atom weights plus the density integral."""
    mass = sum(w for _, w in mu.atoms)
    if mu.density is not None:
        mass += float(np.sum(mu.density.values * np.diff(mu.density.breakpoints)))
    return float(mass)


def tv_norm(mu: RcaMeasure) -> float:
    """Total variation: sum |atom weights| + integral of |density|."""
    tv = sum(abs(w) for _, w in mu.atoms)
    if mu.density is not None:
        tv += float(np.sum(np.abs(mu.density.values) * np.diff(mu.density.breakpoints)))
    return float(tv)


def pairing_c(mu: RcaMeasure, f: PwlFunction) -> float:
    """<mu, f> = integral of f d(mu), exact for atoms + step density vs linear f."""
    total = sum(w * float(f(loc)) for loc, w in mu.atoms)
    if mu.density is not None:
        grid = np.union1d(mu.density.breakpoints, f.breakpoints)
        fvals = f(grid)
        d = mu.density.values_on(grid)
        terms = d * (grid[1:] - grid[:-1]) * 0.5 * (fvals[:-1] + fvals[1:])
        # Zero-density segments add nothing; the running sum keeps the
        # left-to-right order of a segment-by-segment accumulation.
        total = np.concatenate(([total], terms[d != 0.0])).cumsum()[-1]
    return float(total)


@dataclass(frozen=True)
class MembershipReport:
    """``member`` is the duality-set test; ``support_ok`` checks the measure
    lives on M(f), which is necessary for membership but reported separately."""

    member: bool
    support_ok: bool


def _in_duality_set(mu: RcaMeasure, f: PwlFunction, norm: float, tol: float) -> bool:
    return abs(tv_norm(mu) - norm) <= tol and abs(pairing_c(mu, f) - norm * norm) <= tol


def is_duality_member_c(mu: RcaMeasure, f: PwlFunction, tol: float = 1e-9) -> MembershipReport:
    """Membership of mu in J(f) plus the support check of mu on M(f); needs f != 0.

    Membership: tv norm ||f|| and <mu, f> = ||f||**2, each within tol.
    """
    mset = maximizing_set(f)
    member = _in_duality_set(mu, f, sup_norm(f), tol)
    support_ok = all(mset.contains(loc, tol) for loc, _ in mu.atoms)
    if support_ok and mu.density is not None:
        bp, vals = mu.density.breakpoints, mu.density.values
        nz = vals.nonzero()[0]
        lo, hi = bp[nz], bp[nz + 1]
        inside = np.zeros(nz.size, dtype=bool)
        for a, b in mset.intervals:
            inside |= (a - tol <= lo) & (hi <= b + tol)
        support_ok = bool(inside.all())
    return MembershipReport(member, support_ok)


def atomic_duality_measure(f: PwlFunction, points, alphas=None) -> RcaMeasure:
    """Atomic member of J(f): weight alpha_j * f(s_j) at points s_j of M(f).

    The alphas must be positive and sum to one; they default to uniform.
    """
    norm = sup_norm(f)
    if norm == 0.0:
        raise ValueError("degenerate: the zero function has J(0) = {0*}")
    points = [float(s) for s in points]
    if not points:
        raise ValueError("need at least one atom point")
    if alphas is None:
        alphas = [1.0 / len(points)] * len(points)
    alphas = [float(a) for a in alphas]
    if len(alphas) != len(points):
        raise ValueError("alphas must pair with points")
    if any(a <= 0.0 for a in alphas):
        raise ValueError("alphas must be strictly positive")
    if abs(sum(alphas) - 1.0) > 1e-12:
        raise ValueError("alphas must sum to 1")
    mset = maximizing_set(f)
    for s in points:
        if not mset.contains(s):
            raise ValueError(f"point {s} is not in the maximizing set of f")
    return atom_measure((s, a * float(f(s))) for s, a in zip(points, alphas))


def plateau_duality_measure(f: PwlFunction, a: float, b: float) -> RcaMeasure:
    """Density member of J(f) for a plateau f = ||f|| on [a, b]."""
    a, b = float(a), float(b)
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
    norm = sup_norm(f)
    if norm == 0.0:
        raise ValueError("degenerate: ||f|| = 0")
    grid = [s for s in f.breakpoints if a < s < b] + [a, b]
    if any(abs(float(f(s)) - norm) > VALUE_TOL * max(1.0, norm) for s in grid):
        raise ValueError(f"f is not constant at ||f|| on [{a}, {b}]")
    bp = [0.0] + sorted({a, b}) + [1.0]
    bp = sorted(set(bp))
    vals = [norm / (b - a) if a <= 0.5 * (bp[k] + bp[k + 1]) <= b else 0.0 for k in range(len(bp) - 1)]
    return density_measure(np.array(bp), np.array(vals))


def canonical_duality_measure(f: PwlFunction) -> RcaMeasure:
    """Canonical member of J(f): uniform atoms on the maximizing representatives.

    The same measure as ``atomic_duality_measure(f, maximizing_set(f).points())``
    without re-testing points that come from the maximizing set.
    """
    if sup_norm(f) == 0.0:
        return zero_measure()
    points = maximizing_set(f).points()
    weights = (1.0 / len(points)) * f(np.array(points))
    return atom_measure(zip(points, weights.tolist()))


# ---------------------------------------------------------------------------
# Rows: one element per row of a (steps, n) array, for the batched sampling of
# ``coderivative.AffineForm`` curves.  Each row form repeats, row by row, the
# arithmetic of the per-element function, so every float is bitwise the same.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PwlRows:
    """Piecewise-linear functions on one grid: ``values`` (steps, breakpoints)."""

    breakpoints: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class MeasureRows:
    """Measures with atoms at shared sorted ``locations`` and a step density on a shared ``grid``.

    ``weights`` is (steps, atoms), a zero weight standing for no atom, as
    ``RcaMeasure`` drops it; ``density`` is (steps, segments), or None with
    ``grid`` None when there is no density.
    """

    locations: np.ndarray
    weights: np.ndarray
    grid: np.ndarray | None = None
    density: np.ndarray | None = None


def atom_rows(points, weights: np.ndarray) -> MeasureRows:
    """Rows of ``atom_measure(zip(points, row))``: weights at equal points add up in order."""
    locations, slot = np.unique(np.asarray(points, dtype=float), return_inverse=True)
    merged = np.zeros((weights.shape[0], locations.size))
    for j, k in enumerate(slot.tolist()):
        merged[:, k] += weights[:, j]
    return MeasureRows(locations, merged)


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, row)`` for each row of ``fp``, by the rules of numpy's C kernel.

    At or past an end, or on a breakpoint, the value there; in between
    slope * (x - xp[j]) + fp[j], or from the right end when that is NaN, or
    fp[j] when that is NaN too and both ends are equal.  The kernel raises
    no floating-point warnings, so neither does this.
    """
    last = xp.size - 1
    j = xp.searchsorted(x, side="right") - 1  # xp[j] <= x < xp[j + 1]
    on = np.maximum(j, 0)
    out = fp[:, on]
    between = ((j >= 0) & (j < last) & (xp[on] != x)).nonzero()[0]
    if between.size:
        x, k = x[between], j[between]
        left, right = fp[:, k], fp[:, k + 1]
        with np.errstate(all="ignore"):
            slope = (right - left) / (xp[k + 1] - xp[k])
            inner = slope * (x - xp[k]) + left
            nan = np.isnan(inner)
            if nan.any():
                back = slope * (x - xp[k + 1]) + right
                back = np.where(np.isnan(back) & (left == right), left, back)
                inner = np.where(nan, back, inner)
        out[:, between] = inner
    return out


def _atoms_of(mu) -> tuple:
    if isinstance(mu, MeasureRows):
        return mu.locations, mu.weights
    return np.array([loc for loc, _ in mu.atoms]), np.array([w for _, w in mu.atoms])


def _density_of(mu) -> tuple:
    if isinstance(mu, MeasureRows):
        return mu.grid, mu.density
    if mu.density is None:
        return None, None
    return mu.density.breakpoints, mu.density.values


def _values_at(f, x: np.ndarray) -> np.ndarray:
    if isinstance(f, PwlRows):
        return _interp_rows(x, f.breakpoints, f.values)
    return f(x)


def _pairing_rows(mu, f) -> np.ndarray:
    """``pairing_c`` row by row, for measure rows, function rows or both.

    The atom terms and then the density terms are summed left to right from
    0.0, as the per-element sum and running ``cumsum`` do; a term that the
    per-element form skips (an absent atom, a zero density) adds +0.0, which
    leaves a running total unchanged because it is never -0.0.
    """
    locations, weights = _atoms_of(mu)
    # Python float products raise no warnings; 0 * inf of an absent atom is dropped
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [np.where(weights != 0.0, weights * _values_at(f, locations), 0.0)]
    bp, density = _density_of(mu)
    if density is not None:
        grid = np.union1d(bp, f.breakpoints)
        fvals = _values_at(f, grid)
        d = density[..., _segments(bp, grid)]
        segment = d * (grid[1:] - grid[:-1]) * 0.5 * (fvals[..., :-1] + fvals[..., 1:])
        terms.append(np.where(d != 0.0, segment, 0.0))
    start = np.zeros((terms[0].shape[0], 1))
    return np.concatenate([start, *terms], axis=1).cumsum(axis=1)[:, -1]


def _tv_rows(mu: MeasureRows) -> np.ndarray:
    """``tv_norm`` row by row: the atoms summed left to right, then the density sum."""
    steps = mu.weights.shape[0]
    tv = np.concatenate([np.zeros((steps, 1)), np.abs(mu.weights)], axis=1).cumsum(axis=1)[:, -1]
    if mu.density is not None:
        tv = tv + np.sum(np.abs(mu.density) * np.diff(mu.grid), axis=1)
    return tv


def _sub_rows(f: PwlRows, g: PwlFunction) -> PwlRows:
    """``pwl_sub`` of each row and one function, with its checks and messages."""
    bp = f.breakpoints
    if _same_grid(g.breakpoints, bp):
        values, message = f.values - g.values, "values must be finite and match the grid"
    else:
        bp = np.union1d(bp, g.breakpoints)
        values = _interp_rows(bp, f.breakpoints, f.values) - g(bp)
        message = "values must be finite and match the breakpoints"
    if not np.isfinite(values).all():
        raise ValueError(message)
    return PwlRows(bp, values)


def _measure_sub_rows(mu: MeasureRows, nu: RcaMeasure) -> MeasureRows:
    """``measure_sub`` of each row and one measure: atoms merge by location, densities on the union grid."""
    nu_locations, nu_weights = _atoms_of(nu)
    steps = mu.weights.shape[0]
    locations = np.union1d(mu.locations, nu_locations)
    weights = np.zeros((steps, locations.size))
    weights[:, locations.searchsorted(mu.locations)] += mu.weights
    weights[:, locations.searchsorted(nu_locations)] -= nu_weights
    nu_bp, nu_density = _density_of(nu)
    grids = [g for g in (mu.grid, nu_bp) if g is not None]
    if not grids:
        return MeasureRows(locations, weights)
    grid = grids[0] if len(grids) == 1 else np.union1d(grids[0], grids[1])
    left = mu.density[:, _segments(mu.grid, grid)] if mu.grid is not None else 0.0
    right = nu_density[_segments(nu_bp, grid)] if nu_bp is not None else 0.0
    density = np.broadcast_to(left - right, (steps, grid.size - 1))
    if not np.isfinite(density).all():
        raise ValueError("need one finite density value per grid segment")
    return MeasureRows(locations, weights, grid, density)


@dataclass(frozen=True)
class C01Space:
    """Space descriptor and engine backend for the piecewise-linear C[0,1] model.

    ``PwlFunction`` and ``RcaMeasure`` validate when they are built, so
    ``check`` and ``check_dual`` only confirm the type.  The row forms take
    ``PwlRows`` and ``MeasureRows``, which are built unchecked, so
    ``check_rows`` and ``check_dual_rows`` test their values; ``sub``,
    ``dual_sub``, ``scale`` and ``dual_scale`` also take rows, or a column
    of factors.
    """

    def check(self, f) -> PwlFunction:
        if not isinstance(f, PwlFunction):
            raise TypeError(f"expected a PwlFunction, got {type(f).__name__}")
        return f

    def check_dual(self, mu) -> RcaMeasure:
        if not isinstance(mu, RcaMeasure):
            raise TypeError(f"expected an RcaMeasure, got {type(mu).__name__}")
        return mu

    def norm(self, f: PwlFunction) -> float:
        return sup_norm(f)

    def dual_norm(self, mu: RcaMeasure) -> float:
        return tv_norm(mu)

    def pair(self, mu: RcaMeasure, f: PwlFunction) -> float:
        return pairing_c(mu, f)

    def sub(self, f, g: PwlFunction):
        return _sub_rows(f, g) if isinstance(f, PwlRows) else pwl_sub(f, g)

    def dual_sub(self, mu, nu: RcaMeasure):
        return _measure_sub_rows(mu, nu) if isinstance(mu, MeasureRows) else measure_sub(mu, nu)

    def scale(self, f: PwlFunction, c):
        if isinstance(c, np.ndarray):
            return PwlRows(f.breakpoints, f.values * c)
        return pwl_scale(f, c)

    def dual_scale(self, mu: RcaMeasure, c):
        if isinstance(c, np.ndarray):
            locations, weights = _atoms_of(mu)
            bp, density = _density_of(mu)
            return MeasureRows(locations, c * weights, bp, None if density is None else density * c)
        return measure_scale(mu, c)

    def canonical_dual(self, f: PwlFunction) -> RcaMeasure:
        return canonical_duality_measure(f)

    def is_member(self, f: PwlFunction, mu: RcaMeasure, tol: float = 1e-9) -> bool:
        norm = sup_norm(f)
        if norm == 0.0:
            return tv_norm(mu) <= tol
        return _in_duality_set(mu, f, norm, tol)

    # -- row forms (coderivative.RowSpace): PwlRows and MeasureRows --------
    def check_rows(self, f: PwlRows) -> PwlRows:
        if not np.isfinite(f.values).all():
            raise ValueError("values must be finite and match the grid")
        return f

    def check_dual_rows(self, mu: MeasureRows) -> MeasureRows:
        # measure_scale builds the density before the atoms, so it fails first
        if mu.density is not None and not np.isfinite(mu.density).all():
            raise ValueError("values must be finite and match the grid")
        if not np.isfinite(mu.weights).all():
            raise ValueError("atom weights must be finite")
        return mu

    def norm_rows(self, f: PwlRows) -> np.ndarray:
        return np.abs(f.values).max(axis=1)

    def dual_norm_rows(self, mu: MeasureRows) -> np.ndarray:
        return _tv_rows(mu)

    def pair_rows(self, mu, f) -> np.ndarray:
        return _pairing_rows(mu, f)

    def is_member_rows(self, f: PwlRows, mu: MeasureRows, tol: float = 1e-9) -> np.ndarray:
        norm, tv = self.norm_rows(f), _tv_rows(mu)
        paired = _pairing_rows(mu, f)
        with np.errstate(all="ignore"):  # Python float arithmetic in is_member
            in_set = (abs(tv - norm) <= tol) & (abs(paired - norm * norm) <= tol)
        return np.where(norm == 0.0, tv <= tol, in_set)

    def in_second_dual_domain(self, h: PwlFunction) -> bool:
        # Only the nonnegative cone of C[0,1] embeds into the second dual.
        return bool(np.all(h.values >= 0.0))

    def descriptor(self) -> dict:
        return {"space": "c01"}
