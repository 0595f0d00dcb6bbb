"""Set-valued normalized duality mapping on L1 over a finite weighted measure space.

The measure space has n atoms with strictly positive weights, so every
measurable set is a union of atoms and "a set of measure zero" can only be
the empty set.  L1 functions and L-infinity selections are value lists over
the atoms.  A selection j(f) of the duality set J(f) takes the value
+||f||_1 where f > 0, -||f||_1 where f < 0, and a free value a(s) with
|a(s)| <= ||f||_1 on the zero set; J(f) is a singleton exactly when f has no
zero values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coderivative import Space

__all__ = [
    "FiniteMeasureSpace",
    "DualityClassification",
    "l1_norm",
    "linf_norm",
    "pairing_l1",
    "zero_selection",
    "duality_selection",
    "is_duality_member",
    "duality_set_classify",
    "strict_convexity_counterexample",
    "indicator",
    "mask_from_indices",
]


def _float_or_rows(values):
    """A Python float for one element; a stack's values per row stay an array."""
    return values if values.ndim else float(values)


@dataclass(frozen=True, eq=False)
class FiniteMeasureSpace(Space):
    """n-point measure space; ``weights[i]`` is the measure of the i-th atom."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a one-dimensional list with n >= 1")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("all weights must be strictly positive and finite")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.size

    def measure(self, mask) -> float:
        """mu(D) for a boolean mask D."""
        return float(np.sum(self.weights[self._mask(mask)]))

    def _mask(self, mask) -> np.ndarray:
        m = np.asarray(mask, dtype=bool)
        if m.shape != (self.n,):
            raise ValueError("mask length does not match the point count")
        return m

    def check(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.n,):
            raise ValueError(
                f"value list of length {v.size} does not match the {self.n}-point space"
            )
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        return v

    check_dual = check

    def check_rows(self, values) -> np.ndarray:
        if values.shape[-1] != self.n:
            raise ValueError(
                f"value list of length {values.shape[-1]} does not match the {self.n}-point space"
            )
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        return values

    check_dual_rows = check_rows

    # -- engine protocol: checked value lists, or (steps, n) stacks of them --
    def norm(self, f):
        """||f||_1, one per row of a stack; raises when one overflows."""
        norm = (np.abs(f) * self.weights).sum(-1)
        if norm.ndim:
            finite = np.isfinite(norm).all()
        else:
            norm = float(norm)
            finite = math.isfinite(norm)
        if not finite:
            raise ValueError("L1 norm overflows")
        return norm

    def dual_norm(self, g):
        return _float_or_rows(np.abs(g).max(-1))

    def pair(self, g, f):
        return _float_or_rows((g * f * self.weights).sum(-1))

    def sub(self, f, g) -> np.ndarray:
        return f - g

    dual_sub = sub

    def scale(self, f, c: float) -> np.ndarray:
        return c * f

    dual_scale = scale

    def canonical_dual(self, f) -> np.ndarray:
        """The selection with free values 0: +-||f||_1 on the sign sets."""
        norm = np.asarray(self.norm(f))[..., None]
        return np.where(f > 0.0, norm, np.where(f < 0.0, -norm, 0.0))

    def in_second_dual_domain(self, h) -> bool:
        # Only the positive cone embeds into the second dual.
        return bool((h >= 0.0).all())

    def descriptor(self) -> dict:
        return {"space": "l1", "weights": [float(w) for w in self.weights]}


def _index(i, n: int) -> int:
    """``i`` as an int; a ValueError naming it unless it is an integer value in [0, n)."""
    try:
        if int(i) == i and 0 <= i < n:
            return int(i)
    except (TypeError, ValueError, OverflowError):  # not a number, NaN, +-inf
        pass
    raise ValueError(f"index {i!r} is not an integer in [0, {n})")


def mask_from_indices(space: FiniteMeasureSpace, indices) -> np.ndarray:
    """Boolean mask over the atoms from a list of 0-based indices.

    A list of integer values in range is checked as one array; any other
    list goes entry by entry through ``_index``, which names the first bad
    entry, so both accept the same lists.
    """
    n = space.n
    mask = np.zeros(n, dtype=bool)
    try:
        at = np.asarray(indices)
    except (TypeError, ValueError):  # a ragged list
        at = None
    if at is not None and at.ndim == 1 and at.dtype.kind in "iuf" and (
        (at >= 0) & (at < n) & (at == np.trunc(at))
    ).all():  # a NaN fails every test
        mask[at.astype(np.intp)] = True
    else:
        mask[[_index(i, n) for i in indices]] = True
    return mask


def indicator(space: FiniteMeasureSpace, mask) -> np.ndarray:
    """Indicator function of a subset, as an L1 value list."""
    return space._mask(mask).astype(float)


def l1_norm(f, space: FiniteMeasureSpace) -> float:
    """Weighted absolute sum: sum |f_i| * weight_i; raises ValueError when that overflows."""
    return space.norm(space.check(f))


def linf_norm(g, space: FiniteMeasureSpace) -> float:
    """Essential sup = max |g_i| (every atom has positive weight)."""
    return space.dual_norm(space.check(g))


def pairing_l1(g, f, space: FiniteMeasureSpace) -> float:
    """Canonical pairing <g, f> = sum g_i f_i weight_i."""
    return space.pair(space.check(g), space.check(f))


def zero_selection(space: FiniteMeasureSpace) -> np.ndarray:
    """The origin of the dual space; J(0) = {0*}."""
    return np.zeros(space.n)


def duality_selection(f, space: FiniteMeasureSpace, a=()) -> np.ndarray:
    """One member of J(f): +-||f||_1 on the sign sets, free values on the zero set.

    ``a`` lists the free values in zero-set position order and must satisfy
    |a_k| <= ||f||_1.  For f = 0 use ``zero_selection``; the selection
    template needs f != 0.  A (samples, n) stack f gives one selection per
    row: ``a`` then lists the free values row by row, each row's in
    zero-set order, and every check holds for each row.
    """
    f = np.asarray(f, dtype=float)
    f = space.check_rows(f) if f.ndim == 2 else space.check(f)
    norm = space.norm(f)
    if np.any(norm == 0.0):
        raise ValueError("f = 0 is degenerate here: J(0) = {0*}, use zero_selection")
    a = np.asarray(a, dtype=float)
    zero = f == 0.0
    counts = np.count_nonzero(zero, axis=-1)
    if a.size != np.sum(counts):
        raise ValueError(
            f"free parameter has {a.size} values but the zero set has {np.sum(counts)} points"
        )
    if np.any(np.abs(a) > np.repeat(norm, counts)):
        raise ValueError("free values must satisfy |a(s)| <= ||f||_1")
    g = space.canonical_dual(f)
    g[zero] = a
    return g


def is_duality_member(g, f, space: FiniteMeasureSpace, tol: float = 1e-10) -> bool:
    """True iff ||g||_inf = ||f||_1 and <g, f> = ||f||_1**2, each within tol relative to max(1, rhs)."""
    return space.is_member(space.check(f), space.check(g), tol)


@dataclass(frozen=True, eq=False)
class DualityClassification:
    """Shape of the duality set J(f): singleton or an infinite template family."""

    singleton: bool
    free_points: np.ndarray  # boolean mask of the zero set
    selection: np.ndarray  # the canonical member (free values 0)


def duality_set_classify(f, space: FiniteMeasureSpace) -> DualityClassification:
    """Classify J(f): a singleton iff f has no zero values (all atoms weigh > 0).

    For f = 0 the report is the singleton {0*} with no free points.
    """
    f = space.check(f)
    if not np.any(f):
        return DualityClassification(True, np.zeros(space.n, dtype=bool), zero_selection(space))
    zero_mask = f == 0.0
    return DualityClassification(not bool(np.any(zero_mask)), zero_mask, space.canonical_dual(f))


def strict_convexity_counterexample(space: FiniteMeasureSpace, mask_a, mask_b):
    """Unit vectors f, g with ||(f+g)/2||_1 = 1: the classical failure of strict convexity.

    f and g are the normalized indicators of two disjoint positive-measure
    sets.  Returns (f, g, midpoint_norm).
    """
    ma = space._mask(mask_a)
    mb = space._mask(mask_b)
    if np.any(ma & mb):
        raise ValueError("the two sets must be disjoint")
    mu_a = space.measure(ma)
    mu_b = space.measure(mb)
    if mu_a == 0.0 or mu_b == 0.0:
        raise ValueError("both sets must have positive measure")
    f = indicator(space, ma) / mu_a
    g = indicator(space, mb) / mu_b
    midpoint_norm = l1_norm((f + g) / 2.0, space)
    return f, g, midpoint_norm
