"""Normalized duality mapping on the finite-support model of l_p, 1 < p < inf.

Vectors are finitely supported real sequences stored as their first n
coordinates.  All formulas restrict exactly to this model, so there is no
truncation error.  The duality map sends x to the l_q vector with i-th
coordinate sign(x_i) |x_i|**(p-1) / ||x||_p**(p-2); its inverse is the same
formula with the conjugate exponent q = p / (p - 1), and the canonical
pairing between l_q and l_p is the plain dot product.

The coordinate rule sign(x_i) * |x_i|**(p-1) avoids evaluating 0 to a
negative power when p < 2: the coordinate value at x_i = 0 is 0.  p = 2 is
deliberately not special-cased; the identity behavior must emerge from the
formula itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coderivative import Space

__all__ = [
    "conjugate_exponent",
    "as_vector",
    "lp_norm",
    "duality_map",
    "dual_duality_map",
    "pairing",
    "LpSpace",
]


# The smallest normal float: a sum of powers below it has lost precision.
_TINY = sys.float_info.min


def _check_exponent(p: float) -> float:
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {p}")
    return p


def conjugate_exponent(p: float) -> float:
    """Exponent q with 1/p + 1/q = 1, computed as q = p / (p - 1)."""
    p = _check_exponent(p)
    return p / (p - 1.0)


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-d float array and reject non-finite coordinates."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("vector must be one-dimensional with at least one coordinate")
    if not np.isfinite(v).all():
        raise ValueError("vector coordinates must be finite")
    return v


def _norm(v: np.ndarray, p: float):
    """||v||_p as a float, or one norm per row of a stack; raises when one is out of range.

    A sum of |v_i|**p that overflows, or that falls below the smallest
    normal float for v != 0, is taken again on v / max|v_i| and the root
    multiplied back, as BLAS nrm2 scales; every other norm keeps the bits of
    the plain sum's root.
    """
    # One scalar root per vector (C pow): an array power rounds differently.
    a = np.abs(v)
    sums, root = (a**p).sum(-1), 1.0 / p
    if v.ndim == 1:
        s = float(sums)
        if _TINY <= s < math.inf or not v.any():
            return s**root
        return float(_rescaled(a[None], p, root)[0])
    each = sums.tolist()
    norm = np.array([s**root for s in each])
    if min(each) < _TINY or max(each) == math.inf:
        redo = ((sums < _TINY) | (sums == math.inf)) & v.any(-1)  # a zero row's norm is 0
        if redo.any():
            norm[redo] = _rescaled(a[redo], p, root)
    return norm


def _rescaled(a: np.ndarray, p: float, root: float) -> np.ndarray:
    """max a * (sum (a / max a)**p) ** root per row of a stack of |v| with no zero row."""
    big = a.max(-1)
    sums = ((a / big[:, None]) ** p).sum(-1)
    norm = np.array([b * s**root for b, s in zip(big.tolist(), sums.tolist())])
    if not (norm < math.inf).all():
        raise ValueError(f"l_{p} norm overflows")
    return norm


def _same_dimension(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")


def _pair(u: np.ndarray, x: np.ndarray):
    _same_dimension(u, x)
    if u.ndim == x.ndim == 1:
        return float(np.dot(u, x))
    # np.vecdot runs the kernel of np.dot on each row; a matrix product
    # rounds differently.
    return np.vecdot(u, x)


def lp_norm(x, p: float) -> float:
    """(sum |x_i|**p)**(1/p); raises ValueError when that overflows."""
    return _norm(as_vector(x), _check_exponent(p))


def duality_map(x, p: float) -> np.ndarray:
    """Normalized duality map J: l_p -> l_q applied to x.

    Returns the zero vector for x = 0 (J(0) = 0 in the dual), otherwise the
    vector with coordinates sign(x_i) |x_i|**(p-1) / ||x||_p**(p-2).  The
    result u satisfies <u, x> = ||x||_p**2 and ||u||_q = ||x||_p.  Raises
    ValueError when ||x||_p or ||x||_p**(p-2) overflows.
    """
    return LpSpace(p).duality(as_vector(x))


def dual_duality_map(u, q: float) -> np.ndarray:
    """Duality map J*: l_q -> l_p; same formula with the exponent q.

    With q conjugate to p this inverts ``duality_map``: J* o J = identity.
    """
    return duality_map(u, q)


def pairing(u, x) -> float:
    """Canonical pairing <u, x> = sum u_i x_i between l_q and l_p."""
    return _pair(as_vector(u), as_vector(x))


@dataclass(frozen=True)
class LpSpace(Space):
    """The space descriptor for l_p; also the backend hook used by the engine.

    Primal elements and dual elements are both plain 1-d arrays; the dual
    space is l_q with q = p / (p - 1).  The methods after ``check`` take
    checked vectors and only compare their dimensions.  Each also takes a
    (steps, n) stack of vectors, one per row, and then returns one value per
    row, bitwise the value of that row alone; ``check_rows`` checks a stack.
    """

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _check_exponent(self.p))

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    # -- engine protocol -------------------------------------------------
    def check(self, x) -> np.ndarray:
        return as_vector(x)

    check_dual = check

    def check_rows(self, x) -> np.ndarray:
        if x.shape[-1] < 1:
            raise ValueError("vector must be one-dimensional with at least one coordinate")
        if not np.isfinite(x).all():
            raise ValueError("vector coordinates must be finite")
        return x

    check_dual_rows = check_rows

    def norm(self, x):
        return _norm(x, self.p)

    def dual_norm(self, u):
        return _norm(u, self.q)

    def pair(self, u, x):
        return _pair(u, x)

    def sub(self, x, y) -> np.ndarray:
        _same_dimension(x, y)
        return x - y

    dual_sub = sub

    def scale(self, x, c: float) -> np.ndarray:
        return c * x

    dual_scale = scale

    def _divisor(self, norm: float) -> float:
        """||x|| ** (p - 2), the divisor of J(x); 1 for x = 0, which maps 0 to 0 = J(0)."""
        if not norm:
            return 1.0
        try:
            return norm ** (self.p - 2.0)
        except OverflowError:
            raise ValueError(f"||x||_{self.p} ** (p - 2) overflows") from None

    def duality(self, x) -> np.ndarray:
        norm = _norm(x, self.p)
        if x.ndim == 1:
            divisor = self._divisor(norm)
        else:
            divisor = np.array([self._divisor(n) for n in norm.tolist()])[:, None]
        return np.sign(x) * np.abs(x) ** (self.p - 1.0) / divisor

    canonical_dual = duality

    def in_second_dual_domain(self, y) -> bool:
        # l_p is reflexive: every primal vector represents a second dual.
        return True

    def descriptor(self) -> dict:
        return {"space": "lp", "p": self.p}
