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

import sys
from dataclasses import dataclass

import numpy as np

from .coderivative import Space, _float_or_rows, _indices

_MAX = sys.float_info.max

__all__ = [
    "FiniteMeasureSpace",
    "DualityClassification",
    "l1_norm",
    "linf_norm",
    "pairing_l1",
    "zero_selection",
    "duality_selection",
    "duality_set_classify",
    "strict_convexity_counterexample",
    "indicator",
    "mask_from_indices",
]


@dataclass(frozen=True, eq=False)
class FiniteMeasureSpace(Space):
    """n-point measure space; ``weights[i]`` is the measure of the i-th atom."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a one-dimensional list with n >= 1")
        if not np.isfinite(w).all() or (w <= 0.0).any():
            raise ValueError("all weights must be strictly positive and finite")
        object.__setattr__(self, "weights", w)
        # |f_i| cut at _cut[i] gives a term of at most MAX / 2n, and n of them sum below MAX
        with np.errstate(over="ignore"):  # inf: a weight too small for any cut
            object.__setattr__(self, "_cut", _MAX / (2 * w.size) / w)

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
        return self._checked(np.asarray(values, dtype=float), 1)

    check_dual = check

    def check_rows(self, values) -> np.ndarray:
        return self._checked(values, 2)

    check_dual_rows = check_rows

    def _checked(self, v: np.ndarray, ndim: int) -> np.ndarray:
        """v if it has ``ndim`` axes (2 for a stack, a value list per row) of n finite values each."""
        if v.ndim != ndim or v.shape[-1] != self.n:
            raise ValueError(f"values of shape {v.shape} do not match the {self.n}-point space")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        return v

    # -- engine protocol: checked value lists, or (steps, n) stacks of them --
    def norm(self, f):
        """||f||_1, one per row of a stack; raises when one overflows.

        The terms |f_i| w_i are summed with |f_i| cut at ``_cut``, so the sum
        cannot overflow (nor warn); only a norm from MAX / 4n on, where a term
        may have been cut, is summed again as it is, and raises if that
        overflows.
        """
        terms = np.abs(f)  # cut and weighted in place: one temporary, as |f| w takes
        np.minimum(terms, self._cut, out=terms)
        terms *= self.weights
        norm = terms.sum(-1)
        if (norm.max() if norm.ndim else norm) >= _MAX / (4 * self.n):
            with np.errstate(over="ignore"):  # an overflow raises below
                norm = (np.abs(f) * self.weights).sum(-1)
            if not np.isfinite(norm).all():
                raise ValueError("L1 norm overflows")
        return _float_or_rows(norm)

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
        return _canonical(f, np.asarray(self.norm(f))[..., None])

    def in_second_dual_domain(self, h) -> bool:
        # Only the positive cone embeds into the second dual.
        return bool((h >= 0.0).all())

    def descriptor(self) -> dict:
        return {"space": "l1", "weights": [float(w) for w in self.weights]}


def _canonical(f: np.ndarray, norm) -> np.ndarray:
    """``canonical_dual`` of f given ||f||_1, a float for one f (a column of norms for a stack)."""
    return np.where(f > 0.0, norm, np.where(f < 0.0, -norm, 0.0))


def mask_from_indices(space: FiniteMeasureSpace, indices, field: str) -> np.ndarray:
    """Boolean mask over the atoms from ``indices``, a list of 0-based indices named ``field`` in a refusal.

    Each index is an integer in [0, n) by the rule of ``coderivative._indices``.
    """
    mask = np.zeros(space.n, dtype=bool)
    mask[_indices(field, indices, space.n)] = True
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
    if not np.asarray(norm).all():
        raise ValueError("f = 0 is degenerate here: J(0) = {0*}, use zero_selection")
    a = np.asarray(a, dtype=float)
    zero = f == 0.0
    counts = np.count_nonzero(zero, axis=-1)
    total = counts.sum()
    if a.size != total:
        raise ValueError(f"free parameter has {a.size} values but the zero set has {total} points")
    if (np.abs(a) > np.repeat(norm, counts)).any():
        raise ValueError("free values must satisfy |a(s)| <= ||f||_1")
    g = space.canonical_dual(f)
    g[zero] = a
    return g


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
