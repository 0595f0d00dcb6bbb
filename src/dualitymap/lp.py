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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "conjugate_exponent",
    "as_vector",
    "lp_norm",
    "duality_map",
    "dual_duality_map",
    "pairing",
    "is_duality_member_lp",
    "LpSpace",
]


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
    if not np.all(np.isfinite(v)):
        raise ValueError("vector coordinates must be finite")
    return v


def _norm(v: np.ndarray, p: float) -> float:
    norm = float(np.sum(np.abs(v) ** p) ** (1.0 / p))
    if not math.isfinite(norm):
        raise ValueError(f"l_{p} norm overflows")
    return norm


def _same_dimension(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def _pair(u: np.ndarray, x: np.ndarray) -> float:
    _same_dimension(u, x)
    return float(np.dot(u, x))


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


def is_duality_member_lp(u, x, p: float, tol: float = 1e-9) -> bool:
    """Check <u, x> = ||x||_p**2 and ||u||_q = ||x||_p to relative tol."""
    return LpSpace(p).is_member(as_vector(x), as_vector(u), tol)


@dataclass(frozen=True)
class LpSpace:
    """The space descriptor for l_p; also the backend hook used by the engine.

    Primal elements and dual elements are both plain 1-d arrays; the dual
    space is l_q with q = p / (p - 1).  The methods after ``check`` take
    checked vectors and only compare their dimensions.
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

    def norm(self, x) -> float:
        return _norm(x, self.p)

    def dual_norm(self, u) -> float:
        return _norm(u, self.q)

    def pair(self, u, x) -> float:
        return _pair(u, x)

    def sub(self, x, y) -> np.ndarray:
        _same_dimension(x, y)
        return x - y

    dual_sub = sub

    def scale(self, x, c: float) -> np.ndarray:
        return c * x

    dual_scale = scale

    def duality(self, x) -> np.ndarray:
        norm = _norm(x, self.p)
        if norm == 0.0:
            return np.zeros_like(x)
        try:
            scale = norm ** (self.p - 2.0)
        except OverflowError:
            raise ValueError(f"||x||_{self.p} ** (p - 2) overflows") from None
        return np.sign(x) * np.abs(x) ** (self.p - 1.0) / scale

    canonical_dual = duality

    def is_member(self, x, u, tol: float = 1e-9) -> bool:
        nx = _norm(x, self.p)
        pair_err = abs(_pair(u, x) - nx * nx)
        norm_err = abs(_norm(u, self.q) - nx)
        return pair_err <= tol * max(1.0, nx * nx) and norm_err <= tol * max(1.0, nx)

    def in_second_dual_domain(self, y) -> bool:
        # l_p is reflexive: every primal vector represents a second dual.
        return True

    def descriptor(self) -> dict:
        return {"space": "lp", "p": self.p}
