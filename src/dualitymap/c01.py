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
maximizers (usually one to three).  ``pairing_c``,
``atomic_duality_measure`` and ``peak_points`` evaluate f at all their
points with one ``np.interp`` call.  The density terms of a batch read f
at its own breakpoints and interpolate it only at the density's other
breakpoints.  Measure rows whose atoms sit at the
subtrahend's own locations (every scaling and shift curve) subtract weight
by weight, with no union of locations.  A caller that knows ||f|| or M(f)
passes it to the private forms (``_maximizing_set``, ``_peak_points``,
``_atomic_measure``, ``_canonical_measure``, ``_plateau_measure``), so one
witness finds each once.

The probe curves keep the base point's grid: ``pwl_scale`` and ``pwl_shift``
reuse ``f.breakpoints``, and ``pwl_sub`` of two functions on the same grid
(the same array, or an element-wise equal one) subtracts the values without
merging grids or interpolating.  ``np.interp`` returns ``fp[j]`` exactly at
``x == xp[j]``, so that result is bitwise the one the merged grid gives.  An
element built on a grid that was already checked, or on the union of two
such grids, checks only its new values (shape and finiteness, so an
overflow to inf still raises); the public constructors check the grid too.
``canonical_duality_measure`` evaluates f at all maximizing representatives
with one ``np.interp`` call.

Batches: a probe curve at every t is one ``PwlFunction`` whose ``values``
is (steps, breakpoints) on the base grid (``pwl_scale`` and ``pwl_shift``
take a column of factors or shifts), and its duals one ``MeasureRows``:
(steps, atoms) weights at shared sorted locations plus a ``StepDensity``
whose ``values`` is (steps, segments).  The function and density formulas
reduce over the last axis, so one body serves one element and a batch; the
atom sums keep a Python-float form for one ``RcaMeasure`` and an array form
for ``MeasureRows``.  Only ``C01Space`` methods and ``pwl_rows`` build
batches, and they check them as they build them; the other public
constructors take one element.
Work that every row shares is done once per batch: grid unions, segment
indices, interpolation indices, and the values of a fixed function such as
the second-dual argument.  Each row is bitwise its per-element result:
interpolation follows the C kernel of ``np.interp`` (its ``x == xp[j]``
branch and NaN fallbacks included), atom and density terms are summed left
to right from 0.0, and an absent atom or a zero density segment adds +0.0,
which leaves such a total unchanged.

Stacks: the suite evaluates many functions, each on its own grid, as one
``PwlFunction`` from ``pwl_rows`` (or ``pwl_padded_rows``, for grids
padded already): (rows, width) breakpoints and values, a
shorter row padded by repeating its last breakpoint (1.0) and value, which
changes neither the function nor its sup norm; a padded column is one whose
breakpoint does not increase.  ``sup_norm``, ``pwl_scale``, ``pwl_sub`` (on
each row's union grid), ``maximizer_runs`` (M(f) as masks) and
``canonical_duality_measure`` take a stack, and ``take_rows`` selects rows
of one.  The last returns ``MeasureRows`` with a sorted row of atom
locations each, its atoms on breakpoints taking f's values there and only
plateau midpoints interpolated, for the atom
pairing, the TV norm and ``C01Space.dual_sub`` of two such rows, which adds
one atom of each side at a location and drops a sum of 0.0, as
``RcaMeasure`` does; densities stay on shared grids.  Interpolation counts
a row's breakpoints at or below each point, exact and cheap at these
widths.  On one element ``maximizing_set`` walks only the maximizers, at a
third of the cost of the masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coderivative import MEMBERSHIP_TOL, Space

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
    "MeasureRows",
    "atom_rows",
    "pwl_rows",
    "pwl_padded_rows",
    "maximizer_runs",
    "take_rows",
]

# Value comparisons against the exact piecewise-linear model only need to
# absorb representation rounding.
VALUE_TOL = 1e-12
POSITION_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PwlFunction:
    """Continuous piecewise-linear function on [0,1].

    ``values[i]`` is the function value at ``breakpoints[i]``; the function
    interpolates linearly in between.  A batch built by ``C01Space`` holds
    one function per row of a (steps, breakpoints) ``values``; a stack built
    by ``pwl_rows`` also has one grid per row of a (rows, width)
    ``breakpoints``.
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
        if self.values.ndim == 1:
            return np.interp(s, self.breakpoints, self.values)
        return _interp_rows(s, self.breakpoints, self.values)


def pwl_constant(c: float) -> PwlFunction:
    return PwlFunction(np.array([0.0, 1.0]), np.array([float(c), float(c)]))


def pwl_tent() -> PwlFunction:
    """The unit tent: 0 at the endpoints, peak 1 at 1/2."""
    return PwlFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))


def _on_checked_grid(cls, bp: np.ndarray, vals: np.ndarray):
    """A ``PwlFunction`` or ``StepDensity`` on the grid of one already built.

    The grid was checked then, so only the new values are checked here: one
    per breakpoint (per segment for a density) in each row, all finite.
    """
    size = bp.shape[-1] if cls is PwlFunction else bp.shape[-1] - 1
    if vals.shape[-1:] != (size,) or not np.isfinite(vals).all():
        raise ValueError("values must be finite and match the grid")
    obj = object.__new__(cls)
    object.__setattr__(obj, "breakpoints", bp)
    object.__setattr__(obj, "values", vals)
    return obj


def pwl_shift(f: PwlFunction, c) -> PwlFunction:
    return _on_checked_grid(PwlFunction, f.breakpoints, f.values + c)


def pwl_scale(f: PwlFunction, c) -> PwlFunction:
    return _on_checked_grid(PwlFunction, f.breakpoints, f.values * c)


def pwl_rows(grids, values) -> PwlFunction:
    """A stack of functions, row i on ``grids[i]`` with ``values[i]``, each checked as one element is.

    Every row is padded to the longest grid by repeating its last
    breakpoint (1.0) and value, which leaves the function unchanged.
    """
    sizes = np.array([len(g) for g in grids])
    if not sizes.size or [len(v) for v in values] != sizes.tolist():
        raise ValueError("values must be finite and match the breakpoints")
    if sizes.min() < 2:
        raise ValueError("need at least the two endpoint breakpoints")
    width = np.arange(sizes.max())
    at = (sizes.cumsum() - sizes)[:, None] + np.minimum(width, sizes[:, None] - 1)
    bp, vals = (np.asarray(np.concatenate(x), dtype=float)[at] for x in (grids, values))
    return pwl_padded_rows(bp, vals, sizes)


def pwl_padded_rows(bp: np.ndarray, vals: np.ndarray, sizes: np.ndarray) -> PwlFunction:
    """A stack of functions on (rows, width) grids padded as ``pwl_rows`` pads them.

    Row i's own grid is its first ``sizes[i]`` breakpoints; the columns
    after them repeat its last breakpoint (1.0) and value.  Each grid is
    checked as one element's is: it starts at 0, ends at 1 and increases
    strictly; and the values are finite.
    """
    if not ((bp[:, 0] == 0.0) & (bp[:, -1] == 1.0)).all():
        raise ValueError("breakpoints must start at 0 and end at 1")
    if not ((bp[:, 1:] > bp[:, :-1]) | (np.arange(1, bp.shape[1]) >= sizes[:, None])).all():  # NaN fails too
        raise ValueError("breakpoints must be strictly increasing")
    return _on_checked_grid(PwlFunction, bp, vals)


def _same_grid(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (a.shape == b.shape and (a == b).all())


def _union_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d`` of each pair of rows of two padded stacks of grids, padded the same way."""
    both = np.sort(np.concatenate([a, b], axis=-1), axis=-1)
    new = np.ones(both.shape, dtype=bool)
    new[:, 1:] = both[:, 1:] != both[:, :-1]
    grid = np.ones((both.shape[0], new.sum(-1).max()))  # a row's last distinct value is 1.0
    grid[new.nonzero()[0], new.cumsum(-1)[new] - 1] = both[new]
    return grid


def pwl_sub(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    """f - g on the union of the two breakpoint grids (value by value on a shared one), by row for a stack."""
    bp = f.breakpoints
    if _same_grid(g.breakpoints, bp):
        return _on_checked_grid(PwlFunction, bp, f.values - g.values)
    grid = np.union1d(bp, g.breakpoints) if bp.ndim == 1 else _union_rows(bp, g.breakpoints)
    return _on_checked_grid(PwlFunction, grid, f(grid) - g(grid))


def sup_norm(f: PwlFunction):
    """max |f| over [0,1], attained at a breakpoint by piecewise linearity; one per row of a batch."""
    norm = np.abs(f.values).max(-1)
    return norm if norm.ndim else float(norm)


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
    return _maximizing_set(f, norm, tol)


def _maximizing_set(f: PwlFunction, norm: float, tol: float = VALUE_TOL) -> MaximizingSet:
    """``maximizing_set`` of an f != 0 whose sup norm ``norm`` is known."""
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


def _runs(f: PwlFunction, norm, tol: float) -> tuple:
    """Masks over the breakpoints of the first and the last maximizer of each run of M(f).

    The maximizers and plateau segments of ``maximizing_set``, by the same
    arithmetic; a column that pads a row of a stack holds no maximizer.
    """
    v, bp = f.values, f.breakpoints
    top = abs(abs(v) - norm[..., None]) <= tol
    top[..., 1:] &= bp[..., 1:] > bp[..., :-1]
    plateau = top[..., :-1] & top[..., 1:] & (abs(v[..., :-1] - v[..., 1:]) <= tol)
    first, last = top.copy(), top
    first[..., 1:] &= ~plateau
    last[..., :-1] &= ~plateau
    return first, last


def maximizer_runs(f: PwlFunction, tol: float = VALUE_TOL) -> tuple:
    """M(f) of a stack, row by row, as masks over the breakpoints; rejects a zero row.

    ``(first, last)``: a run of M(f) spans the breakpoints from a ``first``
    column to the next ``last`` one, an atom where both hold.  On one
    element ``maximizing_set`` is cheaper: it walks only the maximizers.
    """
    norm = sup_norm(f)
    if not np.all(norm):
        raise ValueError("maximizing set undefined for the zero function")
    return _runs(f, norm, tol)


def peak_points(f: PwlFunction, sign: int, tol: float = VALUE_TOL) -> list:
    """Representative points where f equals sign * ||f|| (sign is +1 or -1)."""
    norm = sup_norm(f)
    return _peak_points(f, norm, maximizing_set(f), sign, tol)


def _peak_points(f: PwlFunction, norm: float, mset: MaximizingSet, sign: int, tol: float = VALUE_TOL) -> list:
    """``peak_points`` of f given its sup norm and M(f)."""
    target, points = float(sign) * norm, mset.points()
    values = f(np.array(points)).tolist()
    return [float(s) for s, v in zip(points, values) if abs(v - target) <= tol * max(1.0, norm)]


@dataclass(frozen=True, eq=False)
class StepDensity:
    """Piecewise-constant density over a breakpoint grid on [0,1]; a batch has (steps, segments) values."""

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
        return self.values[..., _segments(self.breakpoints, grid)]


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
            merged[loc] = merged.get(loc, 0.0) + w
        # a non-finite input weight leaves its sum non-finite; a finite sum may overflow
        if not all(map(math.isfinite, merged.values())):
            raise ValueError("atom weights must be finite")
        cleaned = tuple(sorted((loc, w) for loc, w in merged.items() if w != 0.0))
        object.__setattr__(self, "atoms", cleaned)


def zero_measure() -> RcaMeasure:
    return RcaMeasure()


def atom_measure(atoms) -> RcaMeasure:
    return RcaMeasure(atoms=tuple((float(l), float(w)) for l, w in atoms))


def density_measure(breakpoints, values) -> RcaMeasure:
    return RcaMeasure(density=StepDensity(np.asarray(breakpoints), np.asarray(values)))


def _density_scale(d: StepDensity | None, c) -> StepDensity | None:
    return None if d is None else _on_checked_grid(StepDensity, d.breakpoints, d.values * c)


def _density_sub(d: StepDensity | None, e: StepDensity | None, absent=0.0) -> StepDensity | None:
    """d - e on the union of their grids, an absent density counting as ``absent``."""
    if d is None and e is None:
        return None
    grids = [x.breakpoints for x in (d, e) if x is not None]
    grid = grids[0] if len(grids) == 1 else np.union1d(grids[0], grids[1])
    left = d.values_on(grid) if d is not None else absent
    right = e.values_on(grid) if e is not None else 0.0
    return _on_checked_grid(StepDensity, grid, left - right)


def _density_tv(d: StepDensity):
    return np.sum(np.abs(d.values) * np.diff(d.breakpoints), axis=-1)


def _density_terms(d: StepDensity, f: PwlFunction) -> np.ndarray:
    """Per-segment terms of <d, f> on the union grid; a zero-density segment gives +0.0.

    One f is interpolated on the union grid by ``np.interp``, which returns
    f's values on its own breakpoints.  A batch takes its values there and
    the in-between rule of the ``np.interp`` kernel only at the density's
    other breakpoints, each strictly inside a segment of f.
    """
    bp, dbp, fvals = f.breakpoints, d.breakpoints, f.values
    if fvals.ndim == 1:
        grid = np.union1d(dbp, bp)
        fvals = f(grid)
    else:
        at = bp.searchsorted(dbp)  # bp[at - 1] < dbp <= bp[at]
        new = bp[at] != dbp
        grid = bp
        if new.any():
            at, s = at[new], dbp[new]
            inner = _between(s, bp[at - 1], bp[at], fvals[:, at - 1], fvals[:, at])
            slots = at + np.arange(at.size)  # the new points' columns in the union grid
            own = np.ones(bp.size + at.size, dtype=bool)
            own[slots] = False
            own = own.nonzero()[0]
            grid = np.empty(own.size + at.size)
            # column-major, as a gather along the last axis lays it out: each column is one write
            merged = np.empty((grid.size, fvals.shape[0])).T
            grid[own], grid[slots] = bp, s
            merged[:, own], merged[:, slots] = fvals, inner
            fvals = merged
    dens = d.values_on(grid)
    terms = dens * (grid[1:] - grid[:-1]) * 0.5 * (fvals[..., :-1] + fvals[..., 1:])
    return np.where(dens != 0.0, terms, 0.0)


def measure_scale(mu: RcaMeasure, c: float) -> RcaMeasure:
    c = float(c)
    density = _density_scale(mu.density, c)
    return RcaMeasure(atoms=tuple((loc, c * w) for loc, w in mu.atoms), density=density)


def measure_sub(mu: RcaMeasure, nu: RcaMeasure) -> RcaMeasure:
    atoms = list(mu.atoms) + [(loc, -w) for loc, w in nu.atoms]
    return RcaMeasure(atoms=tuple(atoms), density=_density_sub(mu.density, nu.density))


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
        tv += float(_density_tv(mu.density))
    return float(tv)


def pairing_c(mu: RcaMeasure, f: PwlFunction) -> float:
    """<mu, f> = integral of f d(mu), exact for atoms + step density vs linear f."""
    total = 0
    if mu.atoms:
        locations, weights = zip(*mu.atoms)
        total = sum(w * v for w, v in zip(weights, f(locations).tolist()))
    if mu.density is not None:
        # The running sum keeps the left-to-right order of a segment-by-segment
        # accumulation; the +0.0 of a zero-density segment leaves it unchanged,
        # since a total that starts at +0.0 is never -0.0.
        total = np.concatenate(([total], _density_terms(mu.density, f))).cumsum()[-1]
    return float(total)


@dataclass(frozen=True)
class MembershipReport:
    """``member`` is the duality-set test; ``support_ok`` checks the measure
    lives on M(f), which is necessary for membership but reported separately."""

    member: bool
    support_ok: bool


def is_duality_member_c(mu: RcaMeasure, f: PwlFunction, tol: float = MEMBERSHIP_TOL) -> MembershipReport:
    """Membership of mu in J(f) (``C01Space.is_member``) plus the support check of mu
    on M(f), whose positions are compared within tol; needs f != 0."""
    mset = maximizing_set(f)
    member = C01Space().is_member(f, mu, tol)
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
    return _atomic_measure(f, _maximizing_set(f, norm), points, alphas)


def _atomic_measure(f: PwlFunction, mset: MaximizingSet, points, alphas=None) -> RcaMeasure:
    """``atomic_duality_measure`` of an f != 0 whose M(f) is known."""
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
    for s in points:
        if not mset.contains(s):
            raise ValueError(f"point {s} is not in the maximizing set of f")
    values = f(np.array(points)).tolist()
    return atom_measure(zip(points, [a * v for a, v in zip(alphas, values)]))


def plateau_duality_measure(f: PwlFunction, a: float, b: float) -> RcaMeasure:
    """Density member of J(f) for a plateau f = ||f|| on [a, b]."""
    return _plateau_measure(f, sup_norm(f), a, b)


def _plateau_measure(f: PwlFunction, norm: float, a: float, b: float) -> RcaMeasure:
    """``plateau_duality_measure`` of f given its sup norm."""
    a, b = float(a), float(b)
    if not (0.0 <= a < b <= 1.0):
        raise ValueError("need 0 <= a < b <= 1")
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
    without re-testing points that come from the maximizing set.  Of a stack
    built by ``pwl_rows``, the measure of each row as ``MeasureRows``.
    """
    if f.breakpoints.ndim > 1:
        return _canonical_rows(f)
    return _canonical_measure(f, sup_norm(f))


def _canonical_measure(f: PwlFunction, norm: float) -> RcaMeasure:
    """``canonical_duality_measure`` of one f given its sup norm."""
    if norm == 0.0:
        return zero_measure()
    points = _maximizing_set(f, norm).points()
    weights = (1.0 / len(points)) * f(np.array(points))
    return atom_measure(zip(points, weights.tolist()))


# ---------------------------------------------------------------------------
# Measure rows, for the batched sampling of ``coderivative.AffineForm`` curves.
# The row kernels repeat the Python-float atom sums of one measure row by row,
# so every float is bitwise the same.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MeasureRows:
    """Measures with atoms at shared sorted ``locations`` and an optional step ``density``.

    ``weights`` is (steps, atoms), a zero weight standing for no atom, as
    ``RcaMeasure`` drops it; the density holds (steps, segments) values.
    The weights must be finite, as ``RcaMeasure`` requires of its atoms.
    ``locations`` may also be (steps, atoms), one row each: a row's atoms
    then sit at distinct locations, sorted, with absent ones anywhere.
    """

    locations: np.ndarray
    weights: np.ndarray
    density: StepDensity | None = None

    def __post_init__(self):
        if not np.isfinite(self.weights).all():
            raise ValueError("atom weights must be finite")


def _canonical_rows(f: PwlFunction) -> MeasureRows:
    """``canonical_duality_measure`` of each row of a stack, an atom at the first column of each run.

    An atom on a breakpoint (every ``last`` column) takes f's value there,
    which is what interpolation returns on a breakpoint; only the midpoints
    of plateaus are interpolated.  A zero row gets weights of +-0.0, no
    atom, as the zero measure has none.
    """
    first, last = _runs(f, sup_norm(f), VALUE_TOL)
    bp, cols = f.breakpoints, np.arange(f.breakpoints.shape[-1])
    end = np.minimum.accumulate(np.where(last, cols, cols[-1])[:, ::-1], axis=-1)[:, ::-1]
    locations = np.where(last, bp, 0.5 * (bp + bp[np.arange(bp.shape[0])[:, None], end]))
    values = f.values.copy()
    r, c = (first & ~last).nonzero()  # the plateau starts: their atoms sit at midpoints
    if r.size:
        values[r, c] = _interp_rows(locations[r, c, None], bp[r], f.values[r])[:, 0]
    weights = (1.0 / first.sum(-1))[:, None] * values
    return MeasureRows(locations, np.where(first, weights, 0.0))


def take_rows(v, rows):
    """The rows ``rows`` of a stack from ``pwl_rows``, or of its ``MeasureRows`` (no density)."""
    if isinstance(v, MeasureRows):
        return MeasureRows(v.locations[rows], v.weights[rows])
    return _on_checked_grid(PwlFunction, v.breakpoints[rows], v.values[rows])


def atom_rows(points, weights: np.ndarray) -> MeasureRows:
    """Rows of ``atom_measure(zip(points, row))``: weights at equal points add up in order.

    Points already sorted and distinct keep one atom each, at 0.0 + weight.
    """
    points = np.asarray(points, dtype=float)
    if (points[1:] > points[:-1]).all():
        return MeasureRows(points, 0.0 + weights)
    locations, slot = np.unique(points, return_inverse=True)
    merged = np.zeros((weights.shape[0], locations.size))
    with np.errstate(over="ignore"):  # MeasureRows rejects an overflowed sum
        np.add.at(merged, (slice(None), slot), weights)  # column by column, in order
    return MeasureRows(locations, merged)


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, row)`` for each row of ``fp``, by the rules of numpy's C kernel.

    At or past an end, or on a breakpoint, the value there; in between
    slope * (x - xp[j]) + fp[j], or from the right end when that is NaN, or
    fp[j] when that is NaN too and both ends are equal.  The kernel raises
    no floating-point warnings, so neither does this.  With one grid per
    row of ``xp`` (padded by ``pwl_rows``), ``x`` holds each row's points.
    """
    last = xp.shape[-1] - 1
    if xp.ndim > 1:
        # a broadcast count over a row is exact and, at these widths, cheap
        j = (xp[:, None, :] <= x[..., None]).sum(-1) - 1  # xp[j] <= x < xp[j + 1]
        rows, on = np.arange(j.shape[0])[:, None], np.maximum(j, 0)
        out = fp[rows, on]
        r, c = ((j >= 0) & (j < last) & (xp[rows, on] != x)).nonzero()
        k = j[r, c]
        out[r, c] = _between(x[r, c], xp[r, k], xp[r, k + 1], fp[r, k], fp[r, k + 1])
        return out
    j = xp.searchsorted(x, side="right") - 1  # xp[j] <= x < xp[j + 1]
    on = np.maximum(j, 0)
    out = fp[:, on]
    between = ((j >= 0) & (j < last) & (xp[on] != x)).nonzero()[0]
    if between.size:
        k = j[between]
        out[:, between] = _between(x[between], xp[k], xp[k + 1], fp[:, k], fp[:, k + 1])
    return out


def _between(x, x0, x1, left, right):
    """The value at x inside the segment from (x0, left) to (x1, right), as ``np.interp`` finds it."""
    with np.errstate(all="ignore"):
        slope = (right - left) / (x1 - x0)
        inner = slope * (x - x0) + left
        nan = np.isnan(inner)
        if nan.any():
            back = slope * (x - x1) + right
            back = np.where(np.isnan(back) & (left == right), left, back)
            inner = np.where(nan, back, inner)
    return inner


def _atoms_of(mu) -> tuple:
    if isinstance(mu, MeasureRows):
        return mu.locations, mu.weights
    return np.array([loc for loc, _ in mu.atoms]), np.array([w for _, w in mu.atoms])


def _pairing_rows(mu, f: PwlFunction) -> np.ndarray:
    """``pairing_c`` row by row, for measure rows, function rows or both.

    The atom terms and then the density terms are summed left to right from
    0.0, as the per-element sum and running ``cumsum`` do; a term that the
    per-element form skips (an absent atom, a zero density) adds +0.0, which
    leaves a running total unchanged because it is never -0.0.
    """
    locations, weights = _atoms_of(mu)
    terms = []
    if weights.shape[-1]:  # no atoms add nothing
        # Python float products raise no warnings; 0 * inf of an absent atom is dropped
        with np.errstate(over="ignore", invalid="ignore"):
            terms.append(np.where(weights != 0.0, weights * f(locations), 0.0))
    if mu.density is not None:
        terms.append(_density_terms(mu.density, f))
    start = np.zeros((len(weights) if weights.ndim > 1 else len(f.values), 1))
    return np.concatenate([start, *terms], axis=1).cumsum(axis=1)[:, -1]


def _tv_rows(mu: MeasureRows) -> np.ndarray:
    """``tv_norm`` row by row: the atoms summed left to right, then the density sum."""
    steps = mu.weights.shape[0]
    tv = np.concatenate([np.zeros((steps, 1)), np.abs(mu.weights)], axis=1).cumsum(axis=1)[:, -1]
    if mu.density is not None:
        tv = tv + _density_tv(mu.density)
    return tv


def _measure_sub_rows(mu: MeasureRows, nu) -> MeasureRows:
    """``measure_sub`` of each row and one measure, or of two rows each with its own locations.

    Atoms merge by location, a missing density is 0.  Rows at the measure's
    own locations (every scaling and shift curve) subtract weight by weight,
    as 0.0 + w - v, which is what the merge adds up at each location.
    """
    nu_locations, nu_weights = _atoms_of(nu)
    steps = mu.weights.shape[0]
    with np.errstate(over="ignore"):  # MeasureRows raises, after the density as measure_sub does
        if mu.locations.ndim > 1:
            locations, weights = _merge_rows(mu.locations, mu.weights, nu_locations, -nu_weights)
        elif _same_grid(mu.locations, nu_locations):
            locations, weights = mu.locations, 0.0 + mu.weights - nu_weights
        else:
            locations = np.union1d(mu.locations, nu_locations)
            weights = np.zeros((steps, locations.size))
            weights[:, locations.searchsorted(mu.locations)] += mu.weights
            weights[:, locations.searchsorted(nu_locations)] -= nu_weights
    density = _density_sub(mu.density, nu.density, absent=np.zeros((steps, 1)))
    return MeasureRows(locations, weights, density)


def _merge_rows(loc_a, w_a, loc_b, w_b) -> tuple:
    """The atoms of two rows of measures, sorted by location, two at one location added up.

    Each side has at most one atom at a location, so a merged weight is one
    sum, as ``RcaMeasure`` forms it; a sum of exactly 0.0 is no atom.
    """
    loc, w = np.concatenate([loc_a, loc_b], axis=-1), np.concatenate([w_a, w_b], axis=-1)
    key = np.where(w != 0.0, loc, np.inf)  # absent atoms last, so they pair with no atom
    at = np.arange(w.shape[0])[:, None], np.argsort(key, axis=-1, kind="stable")
    key, loc, w = key[at], loc[at], w[at]
    pair = (key[:, :-1] == key[:, 1:]) & (key[:, 1:] < np.inf)  # slots i and i + 1
    merged = w.copy()
    merged[:, :-1][pair] += w[:, 1:][pair]
    merged[:, 1:][pair] = 0.0
    return loc, merged


def _confirm(x, cls):
    if not isinstance(x, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(x).__name__}")
    return x


@dataclass(frozen=True)
class C01Space(Space):
    """Space descriptor and engine backend for the piecewise-linear C[0,1] model.

    ``PwlFunction`` and ``RcaMeasure`` validate when they are built, so
    ``check`` and ``check_dual`` only confirm the type and that a function is
    one element.  Every method but ``canonical_dual`` also takes a batch (a
    ``PwlFunction`` with (steps, breakpoints) values, or ``MeasureRows``) and
    then returns one value per row; ``scale`` and ``dual_scale`` build one
    from a column of factors.  A stack with one grid per row (``pwl_rows``)
    goes to ``norm``, ``sub``, ``scale`` and ``canonical_dual``, whose
    ``MeasureRows`` hold a row of atom locations each; ``dual_norm``,
    ``pair`` (with a stack), ``dual_scale`` and ``dual_sub`` (of two such
    rows) take those.  Batches too are checked when they are built, so
    ``check_rows`` and ``check_dual_rows`` only confirm the type.
    ``is_member`` is the relative test of ``Space`` (``coderivative.duality_gaps``).
    """

    def check(self, f) -> PwlFunction:
        if _confirm(f, PwlFunction).values.ndim != 1:
            raise ValueError("expected one PwlFunction, got a batch")
        return f

    def check_dual(self, mu) -> RcaMeasure:
        return _confirm(mu, RcaMeasure)

    def check_rows(self, f) -> PwlFunction:
        return _confirm(f, PwlFunction)

    def check_dual_rows(self, mu) -> MeasureRows:
        return _confirm(mu, MeasureRows)

    def norm(self, f):
        return sup_norm(f)

    def dual_norm(self, mu):
        return _tv_rows(mu) if isinstance(mu, MeasureRows) else tv_norm(mu)

    def pair(self, mu, f):
        if isinstance(mu, MeasureRows) or f.values.ndim > 1:
            return _pairing_rows(mu, f)
        return pairing_c(mu, f)

    def sub(self, f, g: PwlFunction):
        return pwl_sub(f, g)

    def dual_sub(self, mu, nu):
        return _measure_sub_rows(mu, nu) if isinstance(mu, MeasureRows) else measure_sub(mu, nu)

    def scale(self, f: PwlFunction, c):
        return pwl_scale(f, c)

    def dual_scale(self, mu, c):
        if isinstance(c, np.ndarray):
            locations, weights = _atoms_of(mu)
            return MeasureRows(locations, c * weights, _density_scale(mu.density, c))
        return measure_scale(mu, c)

    def canonical_dual(self, f: PwlFunction):
        return canonical_duality_measure(f)

    def in_second_dual_domain(self, h: PwlFunction) -> bool:
        # Only the nonnegative cone of C[0,1] embeds into the second dual.
        return bool((h.values >= 0.0).all())

    def descriptor(self) -> dict:
        return {"space": "c01"}
