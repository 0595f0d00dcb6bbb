"""Random hypothesis-satisfying parameter draws for the witness catalog.

Each ``draw_*`` function returns (space, params, expected_limit) with the
parameters guaranteed to satisfy the theorem's hypotheses, so the resulting
certificate must come back certified with the estimated limit matching the
closed-form bound.  The ``lp`` and ``l1`` draws take an optional size ``n``
(coordinates or atoms) in place of their small random one.
"""

from __future__ import annotations

import zlib

import numpy as np

from dualitymap import (
    C01Space,
    FiniteMeasureSpace,
    LpSpace,
    PwlFunction,
    duality_map,
    l1_norm,
    lp_norm,
    pairing,
    pairing_c,
    pairing_l1,
    sup_norm,
)
from dualitymap.c01 import RcaMeasure, StepDensity, total_mass
from dualitymap.serialize import measure_to_json, pwl_to_json

P_GRID = (1.2, 1.5, 2.0, 3.0, 4.0)


def stable_seed(name: str) -> int:
    """Process-independent seed for a named draw (no PYTHONHASHSEED drift)."""
    return zlib.crc32(name.encode())


def _lp_space(rng) -> LpSpace:
    return LpSpace(float(rng.choice(P_GRID)))


def _nonzero_vector(rng, dim: int, lo=0.2, hi=5.0) -> np.ndarray:
    return rng.uniform(lo, hi, dim) * rng.choice([-1.0, 1.0], dim)


def _l1_space(rng, n: int | None = None) -> FiniteMeasureSpace:
    n = int(rng.integers(2, 7)) if n is None else n
    return FiniteMeasureSpace(rng.uniform(0.5, 2.0, n))


def random_pwl(rng, max_breakpoints: int = 16, lo: float = -5.0, hi: float = 5.0) -> PwlFunction:
    interior = np.unique(rng.uniform(0.02, 0.98, int(rng.integers(0, max_breakpoints - 1))))
    bp = np.concatenate([[0.0], interior, [1.0]])
    return PwlFunction(bp, rng.uniform(lo, hi, bp.size))


def random_pwl_nonneg(rng, max_breakpoints: int = 16) -> PwlFunction:
    f = random_pwl(rng, max_breakpoints)
    return PwlFunction(f.breakpoints, np.abs(f.values))


def random_measure(rng) -> RcaMeasure:
    atoms = [
        (float(rng.uniform(0.0, 1.0)), float(rng.uniform(-2.0, 2.0)))
        for _ in range(int(rng.integers(1, 4)))
    ]
    density = None
    if rng.random() < 0.5:
        density = StepDensity(
            np.array([0.0, 0.5, 1.0]), rng.uniform(-2.0, 2.0, 2)
        )
    return RcaMeasure(atoms=tuple(atoms), density=density)


def _dimension(rng, n):
    return int(rng.integers(1, 9)) if n is None else n


def draw_thm31(rng, n=None):
    """thm31 at x = 0 (one time in four) or a nonzero x; a closed form only at x = 0 or p = 2."""
    space = _lp_space(rng)
    dim = _dimension(rng, n)
    x = np.zeros(dim) if rng.random() < 0.25 else _nonzero_vector(rng, dim)
    w = rng.uniform(-2.0, 2.0, dim)
    return space, {"x": x, "w": w}, None


def draw_thm32(rng, n=None):
    space = _lp_space(rng)
    x = _nonzero_vector(rng, _dimension(rng, n))
    jx = duality_map(x, space.p)
    while True:
        y = rng.uniform(-5.0, 5.0, x.size)
        ip = pairing(jx, y)
        if abs(ip) > 0.1:
            break
    return space, {"x": x, "y": y}, abs(ip) / (2.0 * lp_norm(x, space.p))


def draw_thm33(rng, n=None):
    space = _lp_space(rng)
    x = _nonzero_vector(rng, _dimension(rng, n))
    a = float(rng.uniform(0.2, 3.0))
    while abs(a - 1.0) < 0.1:
        a = float(rng.uniform(0.2, 3.0))
    return space, {"x": x, "a": a}, abs(a - 1.0) * lp_norm(x, space.p) / 2.0


def draw_thm45_case1(rng, n=None):
    space = _l1_space(rng, n)
    f = _nonzero_vector(rng, space.n)
    while True:
        k_star = rng.uniform(-3.0, 3.0, space.n)
        ip = pairing_l1(k_star, f, space)
        if abs(ip) > 0.1:
            break
    return space, {"f": f, "k_star": k_star}, abs(ip) / (2.0 * l1_norm(f, space))


def draw_thm45_case2(rng, n=None):
    space = _l1_space(rng, n)
    f = _nonzero_vector(rng, space.n, lo=0.5)
    branch = 1.0 if np.any(f > 0.0) else -1.0
    candidates = np.flatnonzero(branch * f > 0.0)
    d_idx = rng.choice(candidates, int(rng.integers(1, candidates.size + 1)), replace=False)
    # keep one index off D free to cancel <k*, f> exactly
    off = [i for i in range(space.n) if i not in set(int(j) for j in d_idx)]
    if not off:
        d_idx = d_idx[:-1] if d_idx.size > 1 else d_idx
        off = [i for i in range(space.n) if i not in set(int(j) for j in d_idx)]
    if not off:  # one-point space cannot cancel; enlarge
        return draw_thm45_case2(rng, n)
    a = float(np.min(branch * f[d_idx]) / 2.0)
    sigma = float(rng.choice([-1.0, 1.0]))
    k_star = rng.uniform(-2.0, 2.0, space.n)
    k_star[d_idx] = sigma * rng.uniform(0.2, 2.0, d_idx.size)
    j = off[-1]
    rest = [i for i in range(space.n) if i != j]
    k_star[j] = -np.sum(k_star[rest] * f[rest] * space.weights[rest]) / (
        f[j] * space.weights[j]
    )
    mask_pair = float(
        np.sum(k_star[d_idx] * space.weights[d_idx])
    )
    mu_d = float(np.sum(space.weights[d_idx]))
    expected = sigma * mask_pair / (2.0 * mu_d)
    return space, {"f": f, "k_star": k_star, "D": [int(i) for i in d_idx], "a": a}, expected


def draw_thm46(rng, n=None):
    space = _l1_space(rng, n)
    sigma = float(rng.choice([-1.0, 1.0]))
    d_idx = rng.choice(space.n, int(rng.integers(1, space.n + 1)), replace=False)
    k_star = rng.uniform(-2.0, 2.0, space.n)
    k_star[d_idx] = sigma * rng.uniform(0.2, 2.0, d_idx.size)
    mask_pair = float(np.sum(k_star[d_idx] * space.weights[d_idx]))
    mu_d = float(np.sum(space.weights[d_idx]))
    return space, {"k_star": k_star, "D": [int(i) for i in d_idx]}, sigma * mask_pair / (2.0 * mu_d)


def draw_thm47(rng, n=None):
    space = _l1_space(rng, n)
    f = rng.uniform(0.0, 5.0, space.n)
    f[rng.random(space.n) < 0.3] = 0.0
    f[int(rng.integers(0, space.n))] = float(rng.uniform(1.0, 5.0))
    candidates = np.flatnonzero(f > 0.5)
    d_idx = rng.choice(candidates, int(rng.integers(1, candidates.size + 1)), replace=False)
    a = float(np.min(f[d_idx]) / 2.0)
    return space, {"f": f, "D": [int(i) for i in d_idx], "a": a}, l1_norm(f, space)


def draw_cor48(rng, n=None):
    space = _l1_space(rng, n)
    f = rng.uniform(0.2, 3.0, space.n)
    norm = l1_norm(f, space)
    b = float(rng.uniform(0.1, 1.0))
    e_idx = rng.choice(space.n, int(rng.integers(1, space.n + 1)), replace=False)
    u_star = norm + b + rng.uniform(0.1, 1.0, space.n)
    u_star[e_idx] = norm + b  # exact margin on E makes the limit exactly b/2
    return space, {"f": f, "u_star": u_star, "E": [int(i) for i in e_idx], "b": b}, b / 2.0


def draw_thm53(rng):
    f = random_pwl_nonneg(rng)
    return C01Space(), {"f": pwl_to_json(f)}, sup_norm(f) / 2.0


def draw_thm54(rng):
    f = random_pwl(rng)
    while True:
        lam = random_measure(rng)
        ip = pairing_c(lam, f)
        if abs(ip) > 0.05:
            break
    return (
        C01Space(),
        {"f": pwl_to_json(f), "lambda": measure_to_json(lam)},
        abs(ip) / (2.0 * sup_norm(f)),
    )


def draw_thm55(rng):
    f = random_pwl(rng)
    while True:
        lam = random_measure(rng)
        mass = total_mass(lam)
        if abs(mass) > 0.05:
            break
    return (
        C01Space(),
        {"f": pwl_to_json(f), "lambda": measure_to_json(lam)},
        abs(mass) / 2.0,
    )


def draw_thm56(rng):
    f = random_pwl_nonneg(rng)
    vals = f.values.copy()
    peak = int(rng.integers(0, vals.size))
    vals[peak] = float(np.max(vals) + rng.uniform(0.5, 2.0))
    f = PwlFunction(f.breakpoints, vals)
    c = float(rng.uniform(1.2, 3.0))
    factors = rng.uniform(0.3, 1.0, vals.size)
    factors[peak] = 1.0
    u = PwlFunction(f.breakpoints, c * vals * factors)
    return (
        C01Space(),
        {"f": pwl_to_json(f), "u": pwl_to_json(u)},
        (sup_norm(u) - sup_norm(f)) / 2.0,
    )


def draw_thm58(rng):
    f = random_pwl_nonneg(rng)
    c = float(rng.uniform(0.2, 3.0))
    while abs(c - 1.0) < 0.1:
        c = float(rng.uniform(0.2, 3.0))
    return (
        C01Space(),
        {"f": pwl_to_json(f), "c": c},
        abs(c - 1.0) * sup_norm(f) / 2.0,
    )


CLOSED_FORM_DRAWS = {
    "thm32": draw_thm32,
    "thm33": draw_thm33,
    "thm45_case1": draw_thm45_case1,
    "thm45_case2": draw_thm45_case2,
    "thm46": draw_thm46,
    "thm47": draw_thm47,
    "cor48": draw_cor48,
    "thm53": draw_thm53,
    "thm54": draw_thm54,
    "thm55": draw_thm55,
    "thm56": draw_thm56,
    "thm58": draw_thm58,
}
