"""Normalized duality mapping on the finite-support model of l_p, 1 < p < inf.

Vectors are finitely supported real sequences stored as their first n
coordinates.  All formulas restrict exactly to this model, so there is no
truncation error.  The duality map sends x to the l_q vector with i-th
coordinate sign(x_i) |x_i|**(p-1) / ||x||_p**(p-2); its inverse is the same
formula with the conjugate exponent q (1/p + 1/q = 1), and the canonical
pairing between l_q and l_p is the plain dot product.

The coordinate rule sign(x_i) * |x_i|**(p-1) avoids evaluating 0 to a
negative power when p < 2: the coordinate value at x_i = 0 is 0.  p = 2 is
deliberately not special-cased; the identity behavior must emerge from the
formula itself.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .coderivative import Space, _every, _some

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
_MAX = sys.float_info.max


def _check_exponent(p: float) -> float:
    """p as a float, refused unless 1 < p < inf and its conjugate p / (p - 1) is above 1.

    The conjugate rounds to 1 from about p = 2**53 (9.007e15) on, where
    the dual l_q would be l_1, which this model does not hold; 2**52 still
    gives q > 1.
    """
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ValueError(f"exponent must satisfy 1 < p < inf, got {p}")
    if p / (p - 1.0) == 1.0:
        raise ValueError(f"exponent p = {p} is too large: its conjugate p / (p - 1) rounds to 1")
    return p


def conjugate_exponent(p: float) -> float:
    """Exponent q with 1/p + 1/q = 1, as ``LpSpace(p).q`` computes it."""
    return LpSpace(p).q


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-d float array and reject non-finite coordinates."""
    return _vectors(np.asarray(x, dtype=float), 1)


def _vectors(v: np.ndarray, ndim: int) -> np.ndarray:
    """v if it has ``ndim`` axes (2 for a stack, a vector per row) and finite vectors of at least one coordinate."""
    if v.ndim != ndim or v.shape[-1] < 1:
        raise ValueError("vector must be one-dimensional with at least one coordinate")
    if not _every(np.isfinite(v)):
        raise ValueError("vector coordinates must be finite")
    return v


def _norm(v: np.ndarray, p: float):
    """||v||_p as a float, or one norm per row of a stack; raises when one is out of range (see ``_norms``)."""
    return _norms(v, p)[0]


def _norms(v: np.ndarray, p: float, finite: bool = True) -> tuple:
    """(||v||_p, plain): the norm or one per row, and whether each was found from its plain sum.

    The powers |v_i|**p are summed with each |v_i| cut at (MAX / 2n)**(1/p),
    so the sum of n of them cannot overflow (nor warn).  A sum from MAX / 4n
    on, where a term may have been cut, or below the smallest normal float
    for v != 0, is taken again on v / max|v_i| and the root multiplied back,
    as BLAS nrm2 scales; every other norm keeps the bits of the plain sum's
    root.  With ``finite`` false a norm past the float range is inf instead
    of raising.
    """
    # One scalar root per vector (C pow): an array power rounds differently.
    n, root = v.shape[-1], 1.0 / p
    cut, top = (_MAX / (2 * n)) ** root, _MAX / (4 * n)
    if p > 2.0**51:
        cut, top = _lowered_cut(cut, n, p)
    powers = np.abs(v)  # cut and raised in place: one temporary, as |v|**p takes
    np.minimum(powers, cut, out=powers)
    powers **= p
    sums = powers.sum(-1)
    if v.ndim == 1:
        s = float(sums)
        if _TINY <= s < top or not _some(v):
            return s**root, True
        return float(_rescaled(np.abs(v)[None], p, root, finite)[0]), False
    each = sums.tolist()
    norm = np.array([s**root for s in each])
    if min(each) >= _TINY and max(each) < top:
        return norm, True
    redo = ((sums < _TINY) | (sums >= top)) & v.any(-1)  # a zero row's norm is 0
    plain = not _some(redo)
    if not plain:
        norm[redo] = _rescaled(np.abs(v[redo]), p, root, finite)
    return norm, plain


def _lowered_cut(cut: float, n: int, p: float) -> tuple:
    """(cut, top) of ``_norms`` past p = 2**51, from its cut (MAX / 2n)**(1/p).

    A cut term adds its power, about MAX / 2n, so n of them cannot overflow
    and a sum that holds one reaches top = MAX / 4n.  The rounded root moves
    that power by a factor up to exp(p 2**-52), which stays under 2 up to
    p = 2**51, and past it can hide a cut term or make the sum overflow.
    So the cut is lowered an ulp at a time until its power is at most
    MAX / 2n, and top is at most that power.
    """
    while True:
        try:
            power = cut**p
        except OverflowError:
            power = math.inf
        if power <= _MAX / (2 * n):
            return cut, min(_MAX / (4 * n), power)
        cut = math.nextafter(cut, 0.0)


def _rescaled(a: np.ndarray, p: float, root: float, finite: bool) -> np.ndarray:
    """max a * (sum (a / max a)**p) ** root per row of a stack of |v| with no zero row."""
    big = a.max(-1)
    sums = ((a / big[:, None]) ** p).sum(-1)
    norm = np.array([b * s**root for b, s in zip(big.tolist(), sums.tolist())])
    if finite and not _every(norm < math.inf):
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
    ValueError only when J(x) itself overflows (see ``LpSpace.duality``).
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
    space is l_q for the conjugate exponent ``q``.  The methods after
    ``check`` take checked vectors and only compare their dimensions.  Each
    also takes a (steps, n) stack of vectors, one per row, and then returns
    one value per row, bitwise the value of that row alone; ``check_rows``
    checks a stack.
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
        return _vectors(x, 2)

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
        """||x|| ** (p - 2), the divisor of J(x), or inf past the float range; 1 for x = 0, which maps 0 to 0 = J(0)."""
        if not norm:
            return 1.0
        try:
            return norm ** (self.p - 2.0)
        except OverflowError:
            return math.inf

    def duality(self, x) -> np.ndarray:
        """J(x), or J of each row of a stack; raises ValueError where J(x) itself overflows.

        The plain form sign(x_i) |x_i|**(p-1) / ||x||**(p-2) leaves the float
        range where the divisor does, or a term of an x_i != 0 comes out 0 or
        not finite.  Such a row is found as m J(x / m), m = max|x_i|,
        each term taken as sign(x_i) |x_i| (y_i / ||y||)**(p-2) with
        y = |x| / m, which equals m y_i**(p-1) / ||y||**(p-2) without the
        power y_i**(p-1) that underflows.  Every other row keeps the bits of
        the plain form.
        """
        p = self.p
        norm, plain = _norms(x, p, finite=False)
        if x.ndim == 1:
            divisor = self._divisor(norm)
        else:
            divisor = np.array([self._divisor(n) for n in norm.tolist()])[:, None]
        # Where every norm comes from its plain sum of powers, that sum bounds
        # each divisor within the float range and each power |x_i|**(p-1) and
        # term |J(x)_i| <= ||x|| below MAX: a term can only underflow to 0.
        with contextlib.nullcontext() if plain else np.errstate(all="ignore"):
            j = np.sign(x) * np.abs(x) ** (p - 1.0) / divisor
        if plain and np.count_nonzero(j) == np.count_nonzero(x):
            return j
        lost = np.reshape((divisor < _TINY) | (divisor == math.inf), x.shape[:-1])
        lost |= (np.count_nonzero(j, axis=-1) < np.count_nonzero(x, axis=-1)) | ~np.isfinite(j).all(-1)
        if not _some(lost):
            return j
        a = np.abs(x[lost])  # one row per row lost; of one vector, that row
        y = a / a.max(-1, keepdims=True)
        with np.errstate(all="ignore"):
            scaled = np.sign(x[lost]) * np.where(a > 0.0, a * (y / _norm(y, p)[:, None]) ** (p - 2.0), 0.0)
        if not _every(np.isfinite(scaled)):
            raise ValueError(f"J(x) overflows in l_{p}")
        j[lost] = scaled
        return j

    canonical_dual = duality

    def in_second_dual_domain(self, y) -> bool:
        # l_p is reflexive: every primal vector represents a second dual.
        return True

    def descriptor(self) -> dict:
        return {"space": "lp", "p": self.p}
