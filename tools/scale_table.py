"""Print the false certificates and misses of each closed-form theorem when its inputs are scaled by alpha.

J is positively homogeneous, so scaling a theorem's inputs by alpha scales
its closed-form limit by alpha and should leave every verdict as it was.
For each theorem of ``tests/witness_draws.CLOSED_FORM_DRAWS``, 20 draws
seeded by ``stable_seed(theorem)`` are scaled by each alpha: every element
param (arrays, the values of a c01 function or density, and atom weights)
and the thresholds ``a`` (thm45_case2, thm47) and ``b`` (cor48); the ratios
(thm33 ``a``, thm58 ``c``), breakpoints, atom locations and index lists are
not.  Each cell then counts, at the default tolerances:

* false: draws that certify twice the scaled closed form (false certificates);
* miss: draws whose scaled closed form is not ``certified``.

A witness or certificate that raises counts as not certified.  With
scale-covariant verdicts every cell reads 0 / 0.  Only the stdlib and numpy
are used, beside the package and the draws of its tests:

    python tools/scale_table.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from dualitymap import build_witness, certify_nonmembership  # noqa: E402
from witness_draws import CLOSED_FORM_DRAWS, stable_seed  # noqa: E402

ALPHAS = (1e-6, 1e-3, 1.0, 1e3, 1e6)
DRAWS = 20
# The scalar params that are thresholds on element values, and so scale with them.
THRESHOLDS = {"thm45_case2": "a", "thm47": "a", "cor48": "b"}


def _scaled(value, alpha: float):
    """An element param scaled by ``alpha``: an array, a function or density (its values) or a measure (its weights)."""
    if isinstance(value, np.ndarray):
        return alpha * value
    if "atoms" in value:
        return {"atoms": [[loc, alpha * w] for loc, w in value["atoms"]],
                "density": None if value["density"] is None else _scaled(value["density"], alpha)}
    return {"breakpoints": value["breakpoints"], "values": [alpha * v for v in value["values"]]}


def scale_params(theorem: str, params: dict, alpha: float) -> dict:
    """``params`` with its elements and its threshold, if any, scaled by ``alpha``."""
    out = {}
    for key, value in params.items():
        if isinstance(value, (np.ndarray, dict)):
            out[key] = _scaled(value, alpha)
        elif key == THRESHOLDS.get(theorem):
            out[key] = alpha * value
        else:
            out[key] = value
    return out


def _certified(space, theorem: str, params: dict, bound: float) -> bool:
    try:
        witness = build_witness(space, theorem, params)
        return certify_nonmembership(witness.query, witness.curve, bound).verdict == "certified"
    except ValueError:  # a violated hypothesis or a sampled pair off gph J
        return False


def table() -> dict:
    """{theorem: [(false, miss) for each alpha of ``ALPHAS``]}."""
    cells = {}
    for theorem, draw in CLOSED_FORM_DRAWS.items():
        rng = np.random.default_rng(stable_seed(theorem))
        draws = [draw(rng) for _ in range(DRAWS)]
        row = []
        for alpha in ALPHAS:
            false = miss = 0
            for space, params, expected in draws:
                scaled, bound = scale_params(theorem, params, alpha), alpha * expected
                false += _certified(space, theorem, scaled, 2.0 * bound)
                miss += not _certified(space, theorem, scaled, bound)
            row.append((false, miss))
        cells[theorem] = row
    return cells


def main() -> None:
    cells = table()
    print(f"false / miss of {DRAWS} draws per theorem, inputs scaled by alpha")
    print("| theorem | " + " | ".join(f"alpha = {alpha:g}" for alpha in ALPHAS) + " |")
    print("|---" * (len(ALPHAS) + 1) + "|")
    for theorem, row in cells.items():
        print(f"| {theorem} | " + " | ".join(f"{false} / {miss}" for false, miss in row) + " |")
    totals = [tuple(map(sum, zip(*column))) for column in zip(*cells.values())]
    print("| total | " + " | ".join(f"{false} / {miss}" for false, miss in totals) + " |")


if __name__ == "__main__":
    main()
