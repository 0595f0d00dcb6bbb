"""JSON encodings for spaces, elements, certificates, and suite reports.

Everything is plain JSON so certificates and reports stay diffable and
auditable: vectors and value lists are arrays of numbers, space descriptors
are ``{"space": "lp", "p": ...}`` / ``{"space": "l1", "weights": [...]}`` /
``{"space": "c01"}``, piecewise-linear functions are
``{"breakpoints": [...], "values": [...]}``, and measures are
``{"atoms": [[loc, weight], ...], "density": {...} | null}``.
"""

from __future__ import annotations

import numpy as np

from .c01 import C01Space, PwlFunction, RcaMeasure, StepDensity, pwl_tent
from .coderivative import NonMembershipCertificate, _finite
from .l1 import FiniteMeasureSpace
from .lp import LpSpace

__all__ = [
    "space_from_descriptor",
    "pwl_to_json",
    "pwl_from_json",
    "measure_to_json",
    "measure_from_json",
    "certificate_to_json",
]


def space_from_descriptor(descriptor: dict):
    """The space a descriptor names; ``p`` must be a finite number and ``weights`` a list of them."""
    descriptor = _Fields(descriptor, "a space descriptor")
    name = descriptor.get("space")
    if name == "lp":
        return LpSpace(float(_finite("space descriptor", "p", descriptor["p"], "number")))
    if name == "l1":
        return FiniteMeasureSpace(_weights(descriptor["weights"]))
    if name == "c01":
        return C01Space()
    raise ValueError(f"unknown space descriptor: {descriptor!r}")


def _weights(weights) -> np.ndarray:
    """A list of finite numbers, by the rule of ``_finite``, as an array.

    A list of floats alone is read as one array, whose finiteness
    ``FiniteMeasureSpace`` checks; any other list goes entry by entry
    through ``_finite``, which names the first bad entry.
    """
    if not isinstance(weights, list):
        raise ValueError(f"space descriptor weights must be a list of finite numbers, got {weights!r}")
    if not set(map(type, weights)) <= {float}:
        for i, w in enumerate(weights):
            _finite("space descriptor", f"weights[{i}]", w, "number")
    return np.asarray(weights, dtype=float)


def pwl_to_json(f: PwlFunction | StepDensity) -> dict:
    return {
        "breakpoints": [float(s) for s in f.breakpoints],
        "values": [float(v) for v in f.values],
    }


class _Fields(dict):
    """A JSON object, ``what``; looking up a key it lacks raises a ``ValueError`` that names both."""

    def __init__(self, obj, what: str):
        if not isinstance(obj, dict):
            raise ValueError(f"{what} must be a JSON object, got {obj!r}")
        super().__init__(obj)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"{self.what} needs the key {key!r}")


def _on_grid(cls, obj, what: str):
    """A ``PwlFunction`` or ``StepDensity`` from an object with ``breakpoints`` and ``values``."""
    obj = _Fields(obj, what)
    return cls(np.asarray(obj["breakpoints"], dtype=float), np.asarray(obj["values"], dtype=float))


def pwl_from_json(obj) -> PwlFunction:
    if obj == "tent":  # convenience shorthand used by the CLI
        return pwl_tent()
    return _on_grid(PwlFunction, obj, "a piecewise-linear function")


def measure_to_json(mu: RcaMeasure) -> dict:
    density = None if mu.density is None else pwl_to_json(mu.density)
    return {"atoms": [[float(l), float(w)] for l, w in mu.atoms], "density": density}


def measure_from_json(obj) -> RcaMeasure:
    obj = _Fields(obj, "a measure")
    density = obj.get("density")
    if density is not None:
        density = _on_grid(StepDensity, density, "a measure density")
    return RcaMeasure(obj.get("atoms", []), density)


def certificate_to_json(cert: NonMembershipCertificate, scenario: dict | None = None) -> dict:
    """Certificate record: query echo plus the stored samples and verdict."""
    record = {
        "curve": cert.curve_id,
        "t": [float(t) for t in cert.estimate.ts],
        "quotient": [float(q) for q in cert.estimate.quotients],
        "estimated_limit": float(cert.estimate.limit),
        "settled": bool(cert.estimate.settled),
        "settle_tol": float(cert.estimate.settle_tol),
        "t0_shrunk": bool(cert.estimate.t0_shrunk),
        "claimed_bound": None if cert.claimed_bound is None else float(cert.claimed_bound),
        "cert_tol": float(cert.cert_tol),
        "verdict": cert.verdict,
    }
    if scenario is not None:
        record["scenario"] = scenario
    return record
