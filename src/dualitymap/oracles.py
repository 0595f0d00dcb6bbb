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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import c01, l1, lp

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
        return {
            "property": self.property_id,
            "applicable": self.applicable,
            "samples": self.samples,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


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
    worst = float(max(violations)) if violations else 0.0
    return PropertyRecord(
        property_id,
        applicable,
        len(violations),
        worst,
        BATTERY_TOL,
        (worst <= BATTERY_TOL) if applicable else True,
    )


def _draw_lp(space: lp.LpSpace, rng) -> tuple:
    dim = int(rng.integers(1, 9))
    x = rng.uniform(-10.0, 10.0, dim)
    if dim > 1 and rng.random() < 0.3:
        x[rng.integers(0, dim)] = 0.0
    y = rng.uniform(-10.0, 10.0, x.size)
    return x, y, float(rng.uniform(-3.0, 3.0))


def _nonzero_values(space: l1.FiniteMeasureSpace, rng) -> np.ndarray:
    while True:
        f = rng.uniform(-5.0, 5.0, space.n)
        zeros = rng.random(space.n) < 0.25
        f[zeros] = 0.0
        if np.any(f):
            return f


def _draw_l1(space: l1.FiniteMeasureSpace, rng) -> tuple:
    return _nonzero_values(space, rng), _nonzero_values(space, rng), float(rng.uniform(-3.0, 3.0))


def random_pwl(rng, max_breakpoints: int = 8, scale: float = 5.0) -> c01.PwlFunction:
    """Random piecewise-linear function on [0,1] (a.s. nonzero)."""
    interior = np.unique(rng.uniform(0.01, 0.99, int(rng.integers(0, max_breakpoints - 1))))
    bp = np.concatenate([[0.0], interior, [1.0]])
    return c01.PwlFunction(bp, rng.uniform(-scale, scale, bp.size))


def _draw_c01(space: c01.C01Space, rng) -> tuple:
    return random_pwl(rng), random_pwl(rng), float(rng.uniform(-3.0, 3.0))


# One draw per backend: two checked primal elements x, y and a scalar alpha.
_DRAWS = {"lp": _draw_lp, "l1": _draw_l1, "c01": _draw_c01}


def run_appendix_battery(space, sample_count: int, seed: int) -> SuiteReport:
    """Run every applicable appendix property on seeded random instances.

    J2 (J is the identity) applies to l_2 only.  Differences of dual elements
    are measured in the dual norm.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    try:
        draw = _DRAWS[space.descriptor()["space"]]
    except (AttributeError, KeyError):
        raise TypeError(f"no battery for {type(space).__name__}") from None
    rng = np.random.default_rng(seed)
    hilbert = space.descriptor() == {"space": "lp", "p": 2.0}
    j2, j3, j4, j5, j6 = [], [], [], [], []
    for _ in range(sample_count):
        x, y, alpha = draw(space, rng)
        jx, jy = space.canonical_dual(x), space.canonical_dual(y)
        if hilbert:
            j2.append(space.dual_norm(space.dual_sub(jx, x)))
        j3.append(space.dual_norm(space.canonical_dual(space.scale(x, 0.0))))
        j4.append(
            space.dual_norm(
                space.dual_sub(
                    space.canonical_dual(space.scale(x, alpha)), space.dual_scale(jx, alpha)
                )
            )
        )
        diff = space.sub(x, y)
        j5.append(max(0.0, -space.pair(space.dual_sub(jx, jy), diff)))
        mid = space.norm(x) ** 2 - space.norm(y) ** 2
        j6.append(
            max(
                0.0,
                2.0 * space.pair(jy, diff) - mid,
                mid - 2.0 * space.pair(jx, diff),
            )
        )
    records = (
        _record("J2", j2, applicable=hilbert),
        _record("J3", j3),
        _record("J4", j4),
        _record("J5", j5),
        _record("J6", j6),
    )
    return SuiteReport(space.descriptor(), int(seed), int(sample_count), records)


def run_backend_invariants(space, sample_count: int, seed: int) -> tuple:
    """Backend-specific invariant records, same shape as the battery rows.

    Sequence model: the pairing/norm identities of the map and the inverse
    round trip.  L1: selection membership and exact positive scaling.
    C[0,1]: scaling invariance of the maximizing set and exactness of the
    atomic duality measures.  The draws are valid arrays, so the loops call
    the space methods, which do not re-check them.
    """
    rng = np.random.default_rng(seed)
    if isinstance(space, lp.LpSpace):
        identity, roundtrip = [], []
        conjugate = lp.LpSpace(space.q)
        for _ in range(sample_count):
            x = rng.uniform(-10.0, 10.0, int(rng.integers(1, 9)))
            nx = space.norm(x)
            jx = space.duality(x)
            identity.append(
                max(
                    abs(space.pair(jx, x) - nx * nx) / max(1.0, nx * nx),
                    abs(space.dual_norm(jx) - nx) / max(1.0, nx),
                )
            )
            back = conjugate.duality(jx)
            roundtrip.append(
                float(np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x))))
            )
        return (
            _record("pairing_identity", identity),
            _record("inverse_roundtrip", roundtrip),
        )
    if isinstance(space, l1.FiniteMeasureSpace):
        member, scaling = [], []
        for _ in range(sample_count):
            f = rng.uniform(-5.0, 5.0, space.n)
            f[rng.random(space.n) < 0.25] = 0.0
            if not np.any(f):
                f[0] = 1.0
            norm = space.norm(f)
            free = rng.uniform(-norm, norm, int(np.sum(f == 0.0)))
            sel = l1.duality_selection(f, space, free)
            member.append(
                max(
                    abs(space.dual_norm(sel) - norm),
                    abs(space.pair(sel, f) - norm * norm),
                )
            )
            alpha = float(rng.uniform(0.1, 4.0))
            scaling.append(
                float(
                    np.max(
                        np.abs(
                            alpha * sel
                            - l1.duality_selection(alpha * f, space, alpha * free)
                        )
                    )
                )
            )
        return (
            _record("selection_membership", member),
            _record("positive_scaling", scaling),
        )
    if isinstance(space, c01.C01Space):
        mset_scaling, exactness = [], []
        for _ in range(sample_count):
            f = random_pwl(rng)
            mset = c01.maximizing_set(f)
            ok = all(
                c01.maximizing_set(c01.pwl_scale(f, t)).same_set(mset, tol=1e-12)
                for t in (-2.0, 0.5, 3.0)
            )
            mset_scaling.append(0.0 if ok else 1.0)
            mu = c01.atomic_duality_measure(f, mset.points())
            norm = c01.sup_norm(f)
            exactness.append(
                max(
                    abs(c01.tv_norm(mu) - norm) / max(1.0, norm),
                    abs(c01.pairing_c(mu, f) - norm * norm) / max(1.0, norm * norm),
                )
            )
        return (
            _record("maximizing_set_scaling", mset_scaling),
            _record("atomic_member_exact", exactness),
        )
    raise TypeError(f"no invariants for {type(space).__name__}")
