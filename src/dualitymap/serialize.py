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
from .coderivative import NonMembershipCertificate, _finite, _finite_list
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


# The fields of each space's descriptor.
_DESCRIPTOR = {"lp": ("space", "p"), "l1": ("space", "weights"), "c01": ("space",)}


def space_from_descriptor(descriptor: dict):
    """The space a descriptor names, from the fields that space takes: ``p``, a finite number, or ``weights``, a list of them."""
    # str(): a name that is not a string, such as a list, names no space
    keys = _DESCRIPTOR.get(str(descriptor.get("space"))) if isinstance(descriptor, dict) else ()
    if keys is None:
        raise ValueError(f"unknown space descriptor: {descriptor!r}")
    descriptor = _Fields(descriptor, "a space descriptor", keys)
    if descriptor["space"] == "lp":
        return LpSpace(descriptor.number("p"))
    if descriptor["space"] == "l1":
        return FiniteMeasureSpace(descriptor.numbers("weights"))
    return C01Space()


def pwl_to_json(f: PwlFunction | StepDensity) -> dict:
    return {
        "breakpoints": [float(s) for s in f.breakpoints],
        "values": [float(v) for v in f.values],
    }


class _Fields(dict):
    """The JSON object ``what``, each key one of ``keys``; looking up a key it lacks raises a ``ValueError`` naming both.

    ``number`` and ``numbers`` read a value by the rules of
    ``coderivative._finite`` and ``_finite_list``, naming it ``what key``.
    """

    def __init__(self, obj, what: str, keys: tuple):
        if not isinstance(obj, dict):
            raise ValueError(f"{what} must be a JSON object, got {obj!r}")
        for key in obj:
            if key not in keys:
                raise ValueError(f"{what} has no field {key!r}; its fields are {', '.join(keys)}")
        super().__init__(obj)
        self.what = what

    def __missing__(self, key):
        raise ValueError(f"{self.what} needs the key {key!r}")

    def number(self, key: str) -> float:
        return float(_finite(f"{self.what} {key}", self[key], "number"))

    def numbers(self, key: str) -> np.ndarray:
        return _finite_list(f"{self.what} {key}", self[key], "number")


def _on_grid(cls, obj, what: str):
    """A ``PwlFunction`` or ``StepDensity`` from an object of ``breakpoints`` and ``values``, two lists of numbers."""
    obj = _Fields(obj, what, ("breakpoints", "values"))
    return cls(obj.numbers("breakpoints"), obj.numbers("values"))


def pwl_from_json(obj) -> PwlFunction:
    if obj == "tent":  # convenience shorthand used by the CLI
        return pwl_tent()
    return _on_grid(PwlFunction, obj, "a piecewise-linear function")


def measure_to_json(mu: RcaMeasure) -> dict:
    density = None if mu.density is None else pwl_to_json(mu.density)
    return {"atoms": [[float(l), float(w)] for l, w in mu.atoms], "density": density}


def measure_from_json(obj) -> RcaMeasure:
    """A measure whose ``atoms`` are [location, weight] pairs of finite numbers; a bad pair is named ``atoms[i]``."""
    obj = _Fields(obj, "a measure", ("atoms", "density"))
    density = obj.get("density")
    if density is not None:
        density = _on_grid(StepDensity, density, "a measure density")
    atoms = obj.get("atoms", [])
    if not isinstance(atoms, list):
        raise ValueError(f"a measure's atoms must be a list of [location, weight] pairs, got {atoms!r}")
    for i, atom in enumerate(atoms):
        if len(_finite_list(f"a measure's atoms[{i}]", atom, "number")) != 2:
            raise ValueError(f"a measure's atoms[{i}] must be a [location, weight] pair, got {atom!r}")
    return RcaMeasure(atoms, density)


def certificate_to_json(cert: NonMembershipCertificate, scenario: dict) -> dict:
    """Certificate record: the stored samples and verdict, then the query echo ``scenario``."""
    return {
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
        "scenario": scenario,
    }
