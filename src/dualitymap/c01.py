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

Atoms merge only at equal floats: weights at one location add up, and
atoms at two different floats stay two atoms, however close, so the TV
norm of delta(0.1 + 0.2) - delta(0.3) is 2.  In this exact model each float
is its own point of [0,1]: a function with a breakpoint between the two
floats tells the atoms apart, and merging within a tolerance would make
the pairing depend on which of the two locations was kept.

Cost: ``measure_sub`` and the density-support scan of
``is_duality_member_c`` each make one pass of whole-array numpy operations
over the union of the breakpoint grids.
``maximizing_set`` finds the breakpoints at the maximum with one array pass
and then walks only those, so its Python work is linear in the number of
maximizers (usually one to three).  ``pairing_c`` of a batch locates the
atoms on f's grid with one ``searchsorted``: where they all sit on
breakpoints and there is no density (most probe curves), it reads f's
values there by index.  Otherwise, on one grid, it pairs in Python floats
while rows times atoms plus twice the breakpoints of f and of a density
are at most ``_FLOAT_COST``: one function is read at the
atoms by one ``np.interp`` call, and a batch only at the two columns of
each atom's segment, by the kernel's formula; a density is paired over the
union of the two grids, f's own values read as they are and interpolated
only at the density's breakpoints.  Past that size, and for a stack, one
numpy pass interpolates f at every atom and on the union grid.
``atomic_duality_measure`` and ``peak_points`` evaluate f at all their
points with one ``np.interp`` call.  At catalog sizes (up to 16
breakpoints, one to three atoms) each numpy call costs more than its
arithmetic, ``np.errstate`` included, so the ``C01Space`` methods run under
their caller's scope, as the other backends' do: a certificate whose
pairings are read by index or in Python floats, which never warn, enters
one, ``estimate_limit``'s.  The pairing enters its own only for its numpy
pass, and each public function of this module that can overflow enters
its own (``_quiet``).  A batch of measures whose atoms sit at the
subtrahend's own locations (every scaling and shift curve) subtracts weight
by weight.  A caller that knows ||f|| or M(f) passes it to the private
forms (``_maximizing_set``, ``_peak_points``, ``_atomic_measure``,
``_canonical_measure``, ``_plateau_measure``), so one witness finds each
once; ``_peak_points`` also hands back f's values at the points it keeps,
from which ``_atoms`` builds an atomic member without reading f again.

The probe curves keep the base point's grid: ``pwl_scale`` and ``pwl_shift``
reuse ``f.breakpoints``, and ``pwl_sub`` of two functions on the same grid
(the same array, or an element-wise equal one) subtracts the values without
merging grids or interpolating.  ``np.interp`` returns ``fp[j]`` exactly at
``x == xp[j]``, so that result is bitwise the one the merged grid gives.  An
element built on a grid that was already checked, or on the union of two
such grids, checks only its new values (shape and finiteness, so an
overflow to inf still raises, as a ValueError and without numpy's warning);
the public constructors check the grid too.
``canonical_duality_measure`` evaluates f at all maximizing representatives
with one ``np.interp`` call.

Batches: a probe curve at every t is one ``PwlFunction`` whose ``values``
is (steps, breakpoints) on the base grid (``pwl_scale`` and ``pwl_shift``
take a column of factors or shifts), and its duals one ``RcaMeasure``
whose ``weights`` is (steps, atoms) at shared sorted ``locations``, a
weight of 0.0 standing for no atom, with a ``StepDensity`` whose
``values`` is (steps, segments) or one row for all.  Every formula, of
functions and of measures, reduces over the last axis, so one body serves
one element and a batch and returns a Python float for one element.  Only
``C01Space`` methods and ``pwl_rows`` build batches, and they check them
as they build them; the other public constructors take one element.
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
breakpoint does not increase.  ``sup_norm``, ``pwl_scale``, ``pwl_sub`` (of
two stacks, on each row's union grid, with one interpolation over the rows
of both), ``maximizer_runs`` (M(f) as masks, testing for plateau segments
only where two maximizers sit side by side) and
``canonical_duality_measure`` take a stack.  The last returns an
``RcaMeasure`` with a row of atom locations each, sorted among the atoms
present, its atoms on breakpoints taking f's values there and only the
plateau midpoints of nonzero rows interpolated.  ``take_rows`` selects rows
of a stack, of a batch on one grid, which keeps that grid, or of a batch
of measures.  The pairing, the TV norm, the scaling and the difference take such
measures.  The pairing with a stack reads it at the atoms present only.
The difference subtracts weight by weight where the two rows of locations
agree and hold at most one atom at a location, and otherwise merges each
row's atoms as ``RcaMeasure`` merges atoms; densities stay on shared grids.
Interpolation on a grid per row finds each point's segment as the first
breakpoint above it, exact and cheap at these widths, for a row of points
each or for points that each name their row.  On one element
``maximizing_set`` walks only the maximizers, at a third of the cost of
the masks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .coderivative import MEMBERSHIP_TOL, Space, _allowance, _float_or_rows

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
    "pwl_rows",
    "pwl_padded_rows",
    "maximizer_runs",
    "take_rows",
]

# Value comparisons against the exact piecewise-linear model only need to
# absorb representation rounding.  M(f), its runs and its peak points are
# found within VALUE_TOL, and ``MaximizingSet.same_set`` compares positions
# within POSITION_TOL.
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
    _VALUES = "values must be finite and match the breakpoints"

    def __post_init__(self):
        _check_one(self)

    def __call__(self, s):
        if self.values.ndim == 1:
            return np.interp(s, self.breakpoints, self.values)
        return _interp_rows(s, self.breakpoints, self.values)


def pwl_constant(c: float) -> PwlFunction:
    return PwlFunction(np.array([0.0, 1.0]), np.array([float(c), float(c)]))


def pwl_tent() -> PwlFunction:
    """The unit tent: 0 at the endpoints, peak 1 at 1/2."""
    return PwlFunction(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))


def _check_one(obj) -> None:
    """Check and store one ``PwlFunction`` or ``StepDensity``: a grid from 0 to 1 that increases strictly, then its values."""
    bp, vals = np.asarray(obj.breakpoints, dtype=float), np.asarray(obj.values, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ValueError("need at least the two endpoint breakpoints")
    if bp[0] != 0.0 or bp[-1] != 1.0:
        raise ValueError("breakpoints must start at 0 and end at 1")
    if not (bp[1:] > bp[:-1]).all():  # also rejects a NaN breakpoint
        raise ValueError("breakpoints must be strictly increasing")
    if vals.ndim != 1:
        raise ValueError(obj._VALUES)
    _on_grid(obj, bp, vals)


def _on_grid(obj, bp: np.ndarray, vals: np.ndarray):
    """obj on the checked grid ``bp`` with ``vals``: one per breakpoint (per segment for a density) in each row, all finite."""
    size = bp.shape[-1] - 1 if isinstance(obj, StepDensity) else bp.shape[-1]
    if vals.shape[-1:] != (size,) or not np.isfinite(vals).all():
        raise ValueError(obj._VALUES)
    object.__setattr__(obj, "breakpoints", bp)
    object.__setattr__(obj, "values", vals)
    return obj


def _on_checked_grid(cls, bp: np.ndarray, vals: np.ndarray):
    """A ``PwlFunction`` or ``StepDensity`` on the grid of one already built, so only its values are checked."""
    return _on_grid(object.__new__(cls), bp, vals)


def _quiet(op, *args):
    """op(*args) under one ``np.errstate`` that ignores overflow and invalid results: a public function's own scope.

    The private forms (``_shift``, ``_scale``, ``_sub``, ``_pairing``,
    ``_tv_norm``, ``_measure_scale``, ``_measure_sub``) and the
    ``C01Space`` methods that call them run under their caller's
    ``np.errstate``, as the ``LpSpace`` and ``FiniteMeasureSpace`` methods
    do; each inf or NaN they make is refused as a value that is not finite,
    or returned, as Python float arithmetic returns it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return op(*args)


def pwl_shift(f: PwlFunction, c) -> PwlFunction:
    return _quiet(_shift, f, c)


def _shift(f: PwlFunction, c) -> PwlFunction:
    return _on_checked_grid(PwlFunction, f.breakpoints, f.values + c)


def pwl_scale(f: PwlFunction, c) -> PwlFunction:
    return _quiet(_scale, f, c)


def _scale(f: PwlFunction, c) -> PwlFunction:
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


def _widen(a: np.ndarray, width: int) -> np.ndarray:
    """The rows of a padded stack padded on to ``width`` columns, as ``pwl_rows`` pads them."""
    return a if a.shape[1] == width else a[:, np.minimum(np.arange(width), a.shape[1] - 1)]


def pwl_sub(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    """f - g on the union of the two breakpoint grids (value by value on a shared one), by row for two stacks.

    Two stacks of as many rows (from ``pwl_rows``) are read on each row's
    union grid with one interpolation over the rows of f and g stacked,
    padded to one width.  A stack and a function on one grid are refused.
    """
    return _quiet(_sub, f, g)


def _sub(f: PwlFunction, g: PwlFunction) -> PwlFunction:
    bp, other = f.breakpoints, g.breakpoints
    if _same_grid(other, bp):
        grid, fv, gv = bp, f.values, g.values
    elif bp.ndim == other.ndim == 1:
        grid = np.union1d(bp, other)
        fv, gv = f(grid), g(grid)
    elif bp.ndim != other.ndim or bp.shape[0] != other.shape[0]:
        raise ValueError(f"pwl_sub needs two stacks of as many rows or two functions, got grids {bp.shape} and {other.shape}")
    else:
        grid, n, width = _union_rows(bp, other), bp.shape[0], max(bp.shape[1], other.shape[1])
        xp, fp = (np.concatenate([_widen(a, width), _widen(b, width)]) for a, b in ((bp, other), (f.values, g.values)))
        both = _interp_rows(np.concatenate([grid, grid]), xp, fp)
        fv, gv = both[:n], both[n:]
    return _on_checked_grid(PwlFunction, grid, fv - gv)


def sup_norm(f: PwlFunction):
    """max |f| over [0,1], attained at a breakpoint by piecewise linearity; one per row of a batch."""
    return _float_or_rows(np.abs(f.values).max(-1))


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

    def same_set(self, other: "MaximizingSet") -> bool:
        """The same atoms and intervals, each end within ``POSITION_TOL``."""
        if len(self.atoms) != len(other.atoms) or len(self.intervals) != len(other.intervals):
            return False
        return all(
            abs(a - b) <= POSITION_TOL for a, b in zip(sorted(self.atoms), sorted(other.atoms))
        ) and all(
            abs(i[0] - j[0]) <= POSITION_TOL and abs(i[1] - j[1]) <= POSITION_TOL
            for i, j in zip(sorted(self.intervals), sorted(other.intervals))
        )


def maximizing_set(f: PwlFunction) -> MaximizingSet:
    """M(f) = {s : |f(s)| = ||f||}; rejects f = 0 where the set is undefined.

    A breakpoint is a maximizer when |f| there is within ``VALUE_TOL`` of
    ||f||, and a segment is a plateau when both endpoints sit at the same
    signed maximum, within ``VALUE_TOL``; runs of plateau segments merge
    into one interval and every other maximizing breakpoint is an atom.
    """
    norm = sup_norm(f)
    if norm == 0.0:
        raise ValueError("maximizing set undefined for the zero function")
    return _maximizing_set(f, norm)


def _maximizing_set(f: PwlFunction, norm: float) -> MaximizingSet:
    """``maximizing_set`` of an f != 0 whose sup norm ``norm`` is known."""
    idx = (abs(abs(f.values) - norm) <= VALUE_TOL).nonzero()[0]
    pos, vals = f.breakpoints[idx].tolist(), f.values[idx].tolist()
    idx = idx.tolist()
    atoms, intervals = [], []
    start = 0  # first maximizer of the current run
    for j in range(1, len(idx) + 1):
        if j < len(idx) and idx[j] == idx[j - 1] + 1 and abs(vals[j - 1] - vals[j]) <= VALUE_TOL:
            continue  # a plateau segment joins maximizer j to the run
        if start == j - 1:
            atoms.append(pos[start])
        else:
            intervals.append((pos[start], pos[j - 1]))
        start = j
    return MaximizingSet(tuple(atoms), tuple(intervals))


def _runs(f: PwlFunction, norm) -> tuple:
    """Masks over the breakpoints of the first and the last maximizer of each run of M(f).

    The maximizers and plateau segments of ``maximizing_set``, by the same
    arithmetic; a column that pads a row of a stack holds no maximizer.
    The plateau test |v[j] - v[j+1]| <= ``VALUE_TOL`` runs only when some
    row with a nonzero sup norm has two maximizers side by side; otherwise every
    maximizer is an atom, and ``first`` and ``last`` both mark them all.  So
    a zero row, where every breakpoint is a maximizer, is all atoms.
    """
    v, bp = f.values, f.breakpoints
    top = abs(abs(v) - norm[..., None]) <= VALUE_TOL
    top[..., 1:] &= bp[..., 1:] > bp[..., :-1]
    first, last = top.copy(), top
    side_by_side = top[..., :-1] & top[..., 1:] & (norm != 0.0)[..., None]
    if side_by_side.any():
        plateau = side_by_side & (abs(v[..., :-1] - v[..., 1:]) <= VALUE_TOL)
        first[..., 1:] &= ~plateau
        last[..., :-1] &= ~plateau
    return first, last


def maximizer_runs(f: PwlFunction) -> tuple:
    """M(f) of a stack, row by row, as masks over the breakpoints; rejects a zero row.

    ``(first, last)``: a run of M(f) spans the breakpoints from a ``first``
    column to the next ``last`` one, an atom where both hold.  On one
    element ``maximizing_set`` is cheaper: it walks only the maximizers.
    """
    norm = sup_norm(f)
    if not norm.all():
        raise ValueError("maximizing set undefined for the zero function")
    return _runs(f, norm)


def _run_set(bp: np.ndarray, first: np.ndarray, last: np.ndarray) -> MaximizingSet:
    """The ``MaximizingSet`` of one row of ``maximizer_runs`` on its grid ``bp``.

    An atom where a run starts and ends; an interval from each other start
    to the end that follows it.
    """
    starts, ends = bp[first & ~last].tolist(), bp[last & ~first].tolist()
    return MaximizingSet(tuple(bp[first & last].tolist()), tuple(zip(starts, ends)))


def peak_points(f: PwlFunction, sign: int) -> list:
    """Representative points where f equals sign * ||f|| (sign is +1 or -1), within ``VALUE_TOL``."""
    norm = sup_norm(f)
    return _peak_points(f, norm, maximizing_set(f), sign)[0]


def _peak_points(f: PwlFunction, norm: float, mset: MaximizingSet, sign: int) -> tuple:
    """``peak_points`` of f given its sup norm and M(f), and f's values there: two lists, of points and of values."""
    target, points = float(sign) * norm, mset.points()
    tol = _allowance(VALUE_TOL, norm)
    peaks = [(float(s), v) for s, v in zip(points, f(np.array(points)).tolist()) if abs(v - target) <= tol]
    return [s for s, _ in peaks], [v for _, v in peaks]


@dataclass(frozen=True, eq=False)
class StepDensity:
    """Piecewise-constant density over a breakpoint grid on [0,1]; a batch has (steps, segments) values."""

    breakpoints: np.ndarray
    values: np.ndarray  # one value per segment
    _VALUES = "need one finite density value per grid segment"

    def __post_init__(self):
        _check_one(self)

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


@dataclass(frozen=True, eq=False, init=False)
class RcaMeasure:
    """Signed measure on [0,1]: atoms of ``weights`` at ``locations`` plus an optional step ``density``.

    ``RcaMeasure(atoms, density)`` takes (location, weight) pairs, each
    location in [0,1]; weights at one location add up in order from 0.0,
    and every sum must be finite.  ``atoms`` gives the atoms back as pairs
    sorted by location, without those of weight 0.0, which stand for no
    atom.  A batch holds one measure per row: (rows, atoms) ``weights`` at
    shared sorted ``locations`` or at a row of them each, and a density
    whose ``values`` may be (rows, segments); its ``atoms`` is one tuple of
    pairs per row.
    """

    locations: np.ndarray
    weights: np.ndarray
    density: StepDensity | None = None

    def __init__(self, atoms=(), density=None):
        pairs = [(float(loc), float(w)) for loc, w in atoms]
        weights = np.array([w for _, w in pairs], dtype=float)
        _fill(self, *_merge(_located([loc for loc, _ in pairs]), weights), density)

    @property
    def atoms(self) -> tuple:
        if self.weights.ndim == 1:
            return _pairs(self.locations.tolist(), self.weights.tolist())
        locations = np.broadcast_to(self.locations, self.weights.shape)
        return tuple(map(_pairs, locations.tolist(), self.weights.tolist()))


def _located(locations: list) -> np.ndarray:
    """Atom locations, Python floats each in [0,1], as an array."""
    for loc in locations:
        if not 0.0 <= loc <= 1.0:
            raise ValueError(f"atom location {loc} outside [0,1]")
    return np.array(locations, dtype=float)


def _pairs(locations: list, weights: list) -> tuple:
    return tuple((loc, w) for loc, w in zip(locations, weights) if w != 0.0)


def _every(mask: np.ndarray) -> bool:
    """``mask.all()`` by one C count; ``ndarray.all`` costs several times more on the small arrays of one element."""
    return np.count_nonzero(mask) == mask.size


def _fill(mu: RcaMeasure, locations: np.ndarray, weights: np.ndarray, density) -> RcaMeasure:
    # a non-finite input weight leaves its sum non-finite; a finite sum may overflow
    if not _every(np.isfinite(weights)):
        raise ValueError("atom weights must be finite")
    object.__setattr__(mu, "locations", locations)
    object.__setattr__(mu, "weights", weights)
    object.__setattr__(mu, "density", density)
    return mu


def _measure(locations: np.ndarray, weights: np.ndarray, density: StepDensity | None = None) -> RcaMeasure:
    """The ``RcaMeasure`` of atoms merged already: sorted, at most one at a location (in a row)."""
    return _fill(object.__new__(RcaMeasure), locations, weights, density)


def _merge(locations: np.ndarray, weights: np.ndarray) -> tuple:
    """The atoms sorted by location, the weights at one location added up in order from 0.0.

    ``weights`` may have a leading row axis.  Shared ``locations`` stay
    shared.  With a row of locations each, each row is merged on its own
    and padded with absent atoms (0.0) at its last location.  A sum that
    is not finite is left to ``_fill`` to reject.
    """
    if locations.ndim == 1 and _every(locations[1:] > locations[:-1]):
        return locations, 0.0 + weights
    rows = np.arange(locations.shape[0])[:, None] if locations.ndim > 1 else ...
    order = locations.argsort(axis=-1, kind="stable")
    locations, weights = locations[rows, order], weights[rows, order]
    new = np.ones(locations.shape, dtype=bool)
    new[..., 1:] = locations[..., 1:] != locations[..., :-1]
    slot = new.cumsum(-1) - 1
    merged = np.zeros(weights.shape[:-1] + (slot.max(initial=-1) + 1,))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(merged, (rows, slot), weights)  # in order along each row
    if rows is ...:
        return locations[new], merged
    at = np.repeat(locations[:, -1:], merged.shape[1], axis=1)
    at[rows, slot] = locations
    return at, merged


def _cat(*arrays: np.ndarray) -> np.ndarray:
    """The arrays joined along the last axis, each broadcast over the leading axes of the others."""
    if len(arrays) == 1:
        return arrays[0]
    lead = {a.shape[:-1] for a in arrays}
    if len(lead) > 1:
        shape = np.broadcast_shapes(*lead)
        arrays = [np.broadcast_to(a, shape + a.shape[-1:]) for a in arrays]
    return np.concatenate(arrays, -1)


def _sum_left(terms: np.ndarray):
    """0.0 + terms[..., 0] + terms[..., 1] + ..., left to right, as a running Python sum adds them.

    ``cumsum`` starts from the first term instead, which differs only where
    every term is -0.0: it gives -0.0, which adding 0.0 turns into the +0.0
    of the running sum, a total that is never -0.0 and so keeps its bits.
    One term needs no ``cumsum``.
    """
    if terms.shape[-1] < 2:
        return terms[..., 0] + 0.0 if terms.shape[-1] else np.zeros(terms.shape[:-1])
    return terms.cumsum(-1)[..., -1] + 0.0


def zero_measure() -> RcaMeasure:
    return RcaMeasure()


def atom_measure(atoms) -> RcaMeasure:
    return RcaMeasure(atoms)


def density_measure(breakpoints, values) -> RcaMeasure:
    return RcaMeasure(density=StepDensity(np.asarray(breakpoints), np.asarray(values)))


def _density_scale(d: StepDensity | None, c) -> StepDensity | None:
    return None if d is None else _on_checked_grid(StepDensity, d.breakpoints, d.values * c)


def _density_sub(d: StepDensity | None, e: StepDensity | None) -> StepDensity | None:
    """d - e on the union of their grids, an absent density counting as 0."""
    if d is None and e is None:
        return None
    grids = [x.breakpoints for x in (d, e) if x is not None]
    grid = grids[0] if len(grids) == 1 else np.union1d(grids[0], grids[1])
    left = d.values_on(grid) if d is not None else 0.0
    right = e.values_on(grid) if e is not None else 0.0
    return _on_checked_grid(StepDensity, grid, left - right)


def _integral(d: StepDensity, values: np.ndarray):
    """The integral of the step function with ``values`` on the segments of d's grid; one per row of a batch."""
    return np.sum(values * np.diff(d.breakpoints), axis=-1)


def _density_terms(d: StepDensity, f: PwlFunction) -> np.ndarray:
    """Per-segment terms of <d, f>, f read on the union of the two grids; a zero-density segment gives +0.0."""
    grid = np.union1d(d.breakpoints, f.breakpoints)
    fvals = f(grid)
    dens = d.values_on(grid)
    terms = dens * (grid[1:] - grid[:-1]) * 0.5 * (fvals[..., :-1] + fvals[..., 1:])
    return np.where(dens != 0.0, terms, 0.0)


def measure_scale(mu: RcaMeasure, c) -> RcaMeasure:
    """c mu; a column of factors gives one row per factor."""
    return _quiet(_measure_scale, mu, c)


def _measure_scale(mu: RcaMeasure, c) -> RcaMeasure:
    return _measure(mu.locations, c * mu.weights, _density_scale(mu.density, c))  # the density is checked first


def measure_sub(mu: RcaMeasure, nu: RcaMeasure) -> RcaMeasure:
    """mu - nu, atoms at one location added up as ``RcaMeasure`` adds them; per row of a batch.

    A missing density counts as 0.  Where nu's locations equal mu's (every
    scaling and shift curve, and J(alpha x) against alpha J(x) in the
    suite) the weights subtract one by one, as 0.0 + w - v, which is what
    the merge adds up at each location.  With a row of locations each, that
    also needs the atoms of mu or nu in each row at strictly increasing
    locations (repeats are padding, of weight 0.0); otherwise every row is
    merged.
    """
    return _quiet(_measure_sub, mu, nu)


def _measure_sub(mu: RcaMeasure, nu: RcaMeasure) -> RcaMeasure:
    density = _density_sub(mu.density, nu.density)
    at = mu.locations
    if _same_grid(at, nu.locations) and (at.ndim == 1 or _one_atom_each(at, (mu.weights != 0.0) | (nu.weights != 0.0))):
        return _measure(at, 0.0 + mu.weights - nu.weights, density)
    return _measure(*_merge(_cat(at, nu.locations), _cat(mu.weights, -nu.weights)), density)


def _one_atom_each(locations: np.ndarray, held: np.ndarray) -> bool:
    """Whether the ``held`` columns of each row sit at strictly increasing locations.

    Then no two of them share a location, and the row is sorted among them,
    whatever order the columns that hold no atom take.
    """
    r, c = held.nonzero()
    at = locations[r, c]  # row by row, each in column order
    return not ((at[1:] <= at[:-1]) & (r[1:] == r[:-1])).any()


def total_mass(mu: RcaMeasure):
    """mu([0,1]): signed sum of atom weights plus the density integral; one per row of a batch."""
    with np.errstate(over="ignore", invalid="ignore"):  # as Python float sums
        mass = _sum_left(mu.weights)
        if mu.density is not None:
            mass = mass + _integral(mu.density, mu.density.values)
    return _float_or_rows(mass)


def tv_norm(mu: RcaMeasure):
    """Total variation: sum |atom weights| + integral of |density|; one per row of a batch."""
    return _quiet(_tv_norm, mu)


def _tv_norm(mu: RcaMeasure):
    tv = _sum_left(np.abs(mu.weights))
    if mu.density is not None:
        tv = tv + _integral(mu.density, np.abs(mu.density.values))
    return _float_or_rows(tv)


def pairing_c(mu: RcaMeasure, f: PwlFunction):
    """<mu, f> = integral of f d(mu), exact for atoms + step density vs linear f; one per row.

    A batch of measures, of functions or of both gives one value per row.
    A stack (a grid per row, the suite's) is read only where an atom is
    present, the only terms that are not +0.0: its canonical measures hold
    one to three atoms in rows padded to the widest; a measure with a
    density against a stack is refused.  One function or a
    batch on one grid (the probe curves, whose atoms are mostly all
    present) is read at every location, and an absent atom's term set to
    +0.0 after; reading only the atoms present doubles the cost of the atom
    terms of one element with 1024 atoms.
    The atom terms and then the density terms are summed left to right
    from 0.0; an absent atom or a zero density segment adds +0.0, which
    leaves the total unchanged, since a total that starts at +0.0 is never
    -0.0.  A batch whose atoms all sit on breakpoints of its one grid, with
    no density (most probe curves), reads f's values there by index: f's
    values are finite, so an absent atom's term is 0 v = +-0.0, which adds
    to the total as +0.0 does.  Any other pairing on one grid goes in Python
    floats (``_float_pairing``) up to the size ``_FLOAT_COST``, and past it
    in one numpy pass; both give these terms and sums bit for bit.
    """
    return _quiet(_pairing, mu, f)


def _pairing(mu: RcaMeasure, f: PwlFunction):
    """``pairing_c`` under its caller's ``np.errstate``, and under its own for its numpy pass.

    Read between breakpoints, a finite f may be infinite (a slope past the
    float range), which ``np.interp`` returns and Python floats give without
    a warning; so ``C01Space.pair`` of such a function and measure is silent
    too.  Only a batch whose atoms sit on f's grid, read by index, may warn
    outside a scope, as lp's and L1's pairings may.
    """
    w, at, bp, d = mu.weights, mu.locations, f.breakpoints, mu.density
    if bp.ndim == 1:
        if d is None and (w.ndim > 1 or f.values.ndim > 1):  # a batch
            j = bp.searchsorted(at, side="right") - 1  # bp[j] <= at < bp[j + 1]
            if _every(bp[j] == at):
                return _float_or_rows(_sum_left(w * f.values[..., j]))
        lead = [a.shape[0] for a in ((w, f.values) if d is None else (w, f.values, d.values)) if a.ndim > 1]
        rows = max(lead, default=1)
        if rows * at.size + (0 if d is None else 2 * (bp.size + d.breakpoints.size)) <= _FLOAT_COST:
            totals = _float_pairing(mu, f, rows)
            return np.array(totals) if lead else totals[0]
    with np.errstate(over="ignore", invalid="ignore"):  # as Python float products
        if bp.ndim > 1:
            if d is not None:
                raise ValueError(
                    f"pairing_c needs a measure without density against a stack, got a density on grid "
                    f"{d.breakpoints.shape} and a stack on grids {bp.shape}"
                )
            shape = (bp.shape[0], w.shape[-1])
            w, locations = (a if a.shape == shape else np.broadcast_to(a, shape) for a in (w, at))
            held = w.nonzero()
            terms = [np.zeros(shape)]
            terms[0][held] = w[held] * _interp_rows(locations[held], bp, f.values, held[0])
        else:
            terms = [np.where(w != 0.0, w * f(at), 0.0)]  # an absent atom adds +0.0, not 0 * inf = NaN
        if d is not None:
            terms.append(_density_terms(d, f))
        return _float_or_rows(_sum_left(_cat(*terms)))


# A pairing on one grid that is not read by index goes in Python floats while
# rows * atoms + 2 * (f's and the density's breakpoints, with a density) is at
# most this, and in one numpy pass past it.  Measured with one row and with 8
# (a checkpoint's batch): the two paths cost the same at about 64 atoms times
# rows, and at about 25-30 breakpoints of f and a density together.
_FLOAT_COST = 64


def _float_pairing(mu: RcaMeasure, f: PwlFunction, rows: int) -> list:
    """The ``_pairing`` of mu and f on one grid, one Python float total per row of ``rows``.

    Each total adds up, left to right from 0.0, the terms w f(s) of the
    atoms present and then the terms of the density's nonzero segments on
    the union of the two grids, where f is read as ``np.interp`` reads it
    (``_values_at``).  A segment of the union grid takes the density of the
    segment of its own grid that holds its midpoint, as
    ``StepDensity.values_on`` finds it.  These are ``_pairing``'s numpy
    terms and sum, bit for bit: an absent atom or a zero density segment
    adds +0.0 there, which leaves a total that starts at +0.0 unchanged.
    """
    d = mu.density
    totals = []
    for weights, values in zip(_repeat(_lists(mu.weights), rows), _values_at(mu.locations, f, rows)):
        total = 0.0
        for w, v in zip(weights, values):
            if w != 0.0:  # an absent atom adds +0.0, not 0 * inf = NaN
                total += w * v
        totals.append(total)
    if d is None:
        return totals
    bp, own = f.breakpoints.tolist(), d.breakpoints.tolist()
    grid = sorted(set(bp).union(own))  # np.union1d
    on_f = set(bp)
    # the density's own breakpoints inside a segment j of f, where f is interpolated
    inside = [(k, s, bisect_right(bp, s) - 1) for k, s in enumerate(grid) if s not in on_f]

    def on_grid(v: list) -> list:
        """f's values on the union grid, from its values ``v`` on its own."""
        between = [_interp_at(s, bp[j], bp[j + 1], v[j], v[j + 1]) for _, s, j in inside]
        for (k, _, _), value in zip(inside, between):  # in increasing k, so each lands at its place
            v.insert(k, value)
        return v

    hi = len(own) - 1
    segments = [(k, bisect_right(own, 0.5 * (a + b), 1, hi) - 1, b - a) for k, (a, b) in enumerate(zip(grid, grid[1:]))]
    terms = [[(k, dens[m] * width * 0.5) for k, m, width in segments if dens[m] != 0.0] for dens in _lists(d.values)]
    values = [on_grid(v) for v in _lists(f.values)]
    for r, (row_terms, v) in enumerate(zip(_repeat(terms, rows), _repeat(values, rows))):
        total = totals[r]
        for k, c in row_terms:
            total += c * (v[k] + v[k + 1])
        totals[r] = total
    return totals


def _lists(a: np.ndarray) -> list:
    """The rows of a batch, or one element as one row, as lists of Python floats."""
    return a.tolist() if a.ndim > 1 else [a.tolist()]


def _repeat(lists: list, rows: int) -> list:
    """A list of ``rows`` rows: ``lists`` itself, or its one row ``rows`` times, as numpy broadcasts a row."""
    if len(lists) == rows:
        return lists
    if len(lists) == 1:
        return lists * rows
    raise ValueError(f"a batch of {len(lists)} rows does not pair with one of {rows}")


def _values_at(x: np.ndarray, f: PwlFunction, rows: int) -> list:
    """f's values at the points x of [0,1] as ``np.interp`` finds them, a list of Python floats per row.

    One function is read by ``np.interp``.  A batch on one grid is read at
    the two columns of each point's segment alone, by the kernel's formula
    (``_interp_at``), and not at every breakpoint.
    """
    bp, v = f.breakpoints, f.values
    if v.ndim == 1:
        return [np.interp(x, bp, v).tolist()] * rows
    j = bp.searchsorted(x, side="right") - 1  # bp[j] <= x < bp[j + 1]
    n = x.size
    cols = np.concatenate([j, np.minimum(j + 1, bp.size - 1)])
    ends = bp[cols].tolist()
    segments = list(zip(x.tolist(), ends[:n], ends[n:], range(n)))
    return _repeat([[_interp_at(s, x0, x1, c[i], c[n + i]) for s, x0, x1, i in segments] for c in v[..., cols].tolist()], rows)


def _interp_at(x: float, x0: float, x1: float, left: float, right: float) -> float:
    """``np.interp`` at x of the segment from (x0, left) to (x1, right), x0 <= x < x1, in Python floats.

    The C kernel's rules: fp[j] on the breakpoint; slope * (x - x0) + left
    between, or from the right end when that is NaN, or ``left`` when that
    is NaN too and both ends are equal.  Python floats give inf or NaN
    without a warning, as the kernel does.
    """
    if x == x0:
        return left
    slope = (right - left) / (x1 - x0)
    value = slope * (x - x0) + left
    if value != value:
        value = slope * (x - x1) + right
        if value != value and left == right:
            value = left
    return value


@dataclass(frozen=True)
class MembershipReport:
    """``member`` is the duality-set test; ``support_ok`` checks the measure
    lives on M(f), which is necessary for membership but reported separately."""

    member: bool
    support_ok: bool


def is_duality_member_c(mu: RcaMeasure, f: PwlFunction) -> MembershipReport:
    """Membership of mu in J(f) (``C01Space.is_member``) plus the support check of mu
    on M(f), whose positions are compared within ``MEMBERSHIP_TOL``; needs one f != 0 and one mu."""
    space = C01Space()
    f, mu = space.check(f), space.check_dual(mu)
    mset = maximizing_set(f)
    member = space.is_member(f, mu)
    support_ok = all(mset.contains(loc, MEMBERSHIP_TOL) for loc, _ in mu.atoms)
    if support_ok and mu.density is not None:
        bp, vals = mu.density.breakpoints, mu.density.values
        nz = vals.nonzero()[0]
        lo, hi = bp[nz], bp[nz + 1]
        inside = np.zeros(nz.size, dtype=bool)
        for a, b in mset.intervals:
            inside |= (a - MEMBERSHIP_TOL <= lo) & (hi <= b + MEMBERSHIP_TOL)
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


def _atomic_measure(f: PwlFunction, mset: MaximizingSet, points, alphas) -> RcaMeasure:
    """``atomic_duality_measure`` of an f != 0 whose M(f) is known."""
    points = [float(s) for s in points]
    alphas = _alphas(points, alphas)
    for s in points:
        if not mset.contains(s):
            raise ValueError(f"point {s} is not in the maximizing set of f")
    return _atoms(points, alphas, f(np.array(points)).tolist())


def _alphas(points: list, alphas) -> list:
    """The alphas of atoms at ``points``, at least one: uniform where ``alphas`` is None, else checked.

    Given alphas must pair with the points, be positive and sum to one
    within 1e-12, a sum taken exactly (``math.fsum``), so that the room
    bounds the alphas on every Python and not the order of the sum.
    """
    if not points:
        raise ValueError("need at least one atom point")
    if alphas is None:
        return [1.0 / len(points)] * len(points)
    alphas = [float(a) for a in alphas]
    if len(alphas) != len(points):
        raise ValueError("alphas must pair with points")
    if not all(a > 0.0 for a in alphas):  # so a NaN alpha is refused here
        raise ValueError("alphas must be strictly positive")
    if not abs(math.fsum(alphas) - 1.0) <= 1e-12:
        raise ValueError("alphas must sum to 1")
    return alphas


def _atoms(points: list, alphas: list, values: list) -> RcaMeasure:
    """Atoms alpha_j v_j at the points s_j, with v_j = f(s_j): the measure of ``atomic_duality_measure``, built as ``RcaMeasure`` builds it."""
    return _measure(*_merge(_located(points), np.array([a * v for a, v in zip(alphas, values)])))


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
    if any(abs(float(f(s)) - norm) > _allowance(VALUE_TOL, norm) for s in grid):
        raise ValueError(f"f is not constant at ||f|| on [{a}, {b}]")
    bp = [0.0] + sorted({a, b}) + [1.0]
    bp = sorted(set(bp))
    vals = [norm / (b - a) if a <= 0.5 * (bp[k] + bp[k + 1]) <= b else 0.0 for k in range(len(bp) - 1)]
    return density_measure(np.array(bp), np.array(vals))


def canonical_duality_measure(f: PwlFunction) -> RcaMeasure:
    """Canonical member of J(f): uniform atoms on the maximizing representatives.

    The same measure as ``atomic_duality_measure(f, maximizing_set(f).points())``
    without re-testing points that come from the maximizing set.  Of a stack
    built by ``pwl_rows``, the measure of each row, with a row of locations each.
    """
    if f.breakpoints.ndim > 1:
        return _canonical_rows(f)
    return _canonical_measure(f, sup_norm(f))


def _canonical_measure(f: PwlFunction, norm: float) -> RcaMeasure:
    """``canonical_duality_measure`` of one f given its sup norm."""
    if norm == 0.0:
        return zero_measure()
    points = np.array(sorted(_maximizing_set(f, norm).points()))  # distinct
    return _measure(points, (1.0 / points.size) * f(points))


def _canonical_rows(f: PwlFunction) -> RcaMeasure:
    """``canonical_duality_measure`` of each row of a stack, an atom at the first column of each run.

    An atom on a breakpoint (every ``last`` column) takes f's value there,
    which is what interpolation returns on a breakpoint; only the midpoints
    of plateaus are interpolated.  A zero row has no plateau in ``_runs``:
    its weights are f's +-0.0 over the number of its breakpoints, so +-0.0,
    no atom, as the zero measure has none.
    """
    first, last = _runs(f, sup_norm(f))
    bp, cols = f.breakpoints, np.arange(f.breakpoints.shape[-1])
    end = np.minimum.accumulate(np.where(last, cols, cols[-1])[:, ::-1], axis=-1)[:, ::-1]
    locations = np.where(last, bp, 0.5 * (bp + bp[np.arange(bp.shape[0])[:, None], end]))
    values = f.values.copy()
    r, c = (first & ~last).nonzero()  # the plateau starts: their atoms sit at midpoints
    if r.size:
        values[r, c] = _interp_rows(locations[r, c], bp, f.values, r)
    weights = (1.0 / first.sum(-1))[:, None] * values
    return _measure(locations, np.where(first, weights, 0.0))


def take_rows(v, rows):
    """The rows ``rows`` of a batch or a stack of functions, or of a batch of measures."""
    def at(a):  # a shared grid, shared locations or shared density values stay shared
        return a if a.ndim == 1 else a[rows]

    if isinstance(v, RcaMeasure):
        d = v.density
        density = None if d is None else _on_checked_grid(StepDensity, d.breakpoints, at(d.values))
        return _measure(at(v.locations), v.weights[rows], density)
    return _on_checked_grid(PwlFunction, at(v.breakpoints), v.values[rows])


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray, rows=None) -> np.ndarray:
    """``np.interp(x, xp, row)`` for each row of ``fp``, by the rules of numpy's C kernel.

    At or past an end, or on a breakpoint, the value there; in between
    slope * (x - xp[j]) + fp[j], or from the right end when that is NaN, or
    fp[j] when that is NaN too and both ends are equal.  The kernel raises
    no floating-point warnings, so neither does this.  With one grid per
    row of ``xp`` (padded by ``pwl_rows``), ``x`` holds each row's points,
    or, given ``rows``, ``x[i]`` is a point of row ``rows[i]``.
    """
    last = xp.shape[-1] - 1
    if xp.ndim > 1:
        each = rows is None
        if each:
            rows = np.arange(xp.shape[0])[:, None]
        # a grid never decreases along its row, so its breakpoints at or below x come first
        below = xp[rows] <= x[..., None]
        j = np.where(below[..., -1], last, below.argmin(-1) - 1)  # xp[j] <= x < xp[j + 1]
        on = np.maximum(j, 0)
        out = fp[rows, on]
        at = ((j >= 0) & (j < last) & (xp[rows, on] != x)).nonzero()
        if at[0].size:
            r, k = at[0] if each else rows[at], j[at]
            out[at] = _between(x[at], xp[r, k], xp[r, k + 1], fp[r, k], fp[r, k + 1])
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


def _confirm(x, cls):
    if not isinstance(x, cls):
        raise TypeError(f"expected {cls.__name__}, got {type(x).__name__}")
    return x


@dataclass(frozen=True)
class C01Space(Space):
    """Space descriptor and engine backend for the piecewise-linear C[0,1] model.

    ``PwlFunction`` and ``RcaMeasure`` validate when they are built, so
    ``check`` and ``check_dual`` only confirm the type and that the value is
    one element.  Every method but ``canonical_dual`` also takes a batch (a
    ``PwlFunction`` with (steps, breakpoints) values, or an ``RcaMeasure``
    with (steps, atoms) weights) and then returns one value per row;
    ``scale`` and ``dual_scale`` build one from a column of factors.  A
    stack with one grid per row (``pwl_rows``) goes to ``norm``, ``sub``,
    ``scale`` and ``canonical_dual``, whose measures hold a row of atom
    locations each; ``dual_norm``, ``pair`` (with a stack), ``dual_scale``
    and ``dual_sub`` (of two such measures) take those.  Batches too are
    checked when they are built, so ``check_rows`` and ``check_dual_rows``
    only confirm the type.  ``is_member`` is the relative test of ``Space``
    (``coderivative.duality_gaps``).
    """

    def check(self, f) -> PwlFunction:
        if _confirm(f, PwlFunction).values.ndim != 1:
            raise ValueError("expected one PwlFunction, got a batch")
        return f

    def check_dual(self, mu) -> RcaMeasure:
        if _confirm(mu, RcaMeasure).weights.ndim != 1:
            raise ValueError("expected one RcaMeasure, got a batch")
        return mu

    def check_rows(self, f) -> PwlFunction:
        return _confirm(f, PwlFunction)

    def check_dual_rows(self, mu) -> RcaMeasure:
        return _confirm(mu, RcaMeasure)

    def norm(self, f):
        return sup_norm(f)

    def dual_norm(self, mu):
        return _tv_norm(mu)

    def pair(self, mu, f):
        return _pairing(mu, f)

    def sub(self, f, g: PwlFunction):
        return _sub(f, g)

    def dual_sub(self, mu, nu):
        return _measure_sub(mu, nu)

    def scale(self, f: PwlFunction, c):
        return _scale(f, c)

    def dual_scale(self, mu, c):
        return _measure_scale(mu, c)

    def canonical_dual(self, f: PwlFunction):
        return canonical_duality_measure(f)

    def in_second_dual_domain(self, h: PwlFunction) -> bool:
        # Only the nonnegative cone of C[0,1] embeds into the second dual.
        return bool((h.values >= 0.0).all())

    def descriptor(self) -> dict:
        return {"space": "c01"}
