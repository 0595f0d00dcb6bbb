"""Batch front end: evaluate duality maps, run witness scenarios, run suites.

Three subcommands, JSON in and JSON out everywhere:

* ``eval``  -- print J(element) for one element of one space (for the
  set-valued backends: the classification plus a canonical selection);
* ``run``   -- execute a scenario file of witness requests, write one
  non-membership certificate per scenario, print a summary table;
* ``suite`` -- run the appendix property battery plus backend invariants
  and write the report.

Exit codes: 0 on full success, 1 when a verdict or property fails, 2 on
malformed input, unknown theorem ids, or violated hypotheses.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import c01, l1, serialize
from .coderivative import Schedule, certify_nonmembership
from .oracles import SuiteReport, run_appendix_battery, run_backend_invariants
from .witnesses import HypothesisViolation, build_witness


def _space_from_args(args):
    if args.space == "lp" and args.p is None:
        raise ValueError("--space lp requires --p")
    if args.space == "l1" and args.weights is None:
        raise ValueError("--space l1 requires --weights")
    weights = None if args.weights is None else json.loads(args.weights)
    return serialize.space_from_descriptor({"space": args.space, "p": args.p, "weights": weights})


def cmd_eval(args) -> int:
    space = _space_from_args(args)
    if args.space == "lp":
        if args.vector is None:
            raise ValueError("--space lp requires --vector")
        x = space.check(json.loads(args.vector))
        out = [float(v) for v in space.canonical_dual(x)]
    elif args.space == "l1":
        if args.values is None:
            raise ValueError("--space l1 requires --values")
        f = space.check(json.loads(args.values))
        info = l1.duality_set_classify(f, space)
        out = {
            "singleton": info.singleton,
            "free_points": [int(i) for i in np.flatnonzero(info.free_points)],
            "selection": [float(v) for v in info.selection],
        }
    else:
        if args.f is None:
            raise ValueError("--space c01 requires --f")
        raw = args.f
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError:
            pass  # named shorthand such as "tent"
        f = serialize.pwl_from_json(raw)
        mset = None
        if space.norm(f) != 0.0:
            found = c01.maximizing_set(f)
            mset = {"atoms": list(found.atoms), "intervals": [list(iv) for iv in found.intervals]}
        selection = serialize.measure_to_json(space.canonical_dual(f))
        out = {"maximizing_set": mset, "selection": selection}
    print(json.dumps(out, allow_nan=False))
    return 0


# The fields of a scenario file's ``tolerances`` and of a scenario's
# ``schedule``, each with the kind of JSON number it takes.
_TOLERANCES = dict.fromkeys(("cert_tol", "settle_tol", "membership_tol"), "number >= 0")
_SCHEDULE = {"t0": "number", "ratio": "number", "steps": "integer"}
_KINDS = {  # the types a number of each kind may have, and its least value
    "number >= 0": ((int, float), 0.0),
    "number": ((int, float), -sys.float_info.max),
    "integer": ((int,), -sys.float_info.max),
}


def _numbers(obj, what: str, item: str, fields: dict) -> dict:
    """The JSON object ``what``, each key one of ``fields`` and each value a finite number of the kind named there.

    A refusal names the field, as ``item`` and its key.  A number that is
    not an integer comes back as a float.
    """
    given = serialize._Fields(obj, what)
    for name, value in given.items():
        if name not in fields:
            raise ValueError(f"{what} has no field {name!r}; its fields are {', '.join(fields)}")
        types, least = _KINDS[fields[name]]
        # type(), not isinstance: a JSON true is a bool, and a bool is an int
        if type(value) not in types or not least <= value <= sys.float_info.max:
            raise ValueError(f"{item} {name} must be a finite {fields[name]}, got {value!r}")
    return {name: value if fields[name] == "integer" else float(value) for name, value in given.items()}


def _load_scenarios(path: Path):
    """Scenarios, the tolerances given and the output path."""
    data = json.loads(path.read_text())
    if isinstance(data, list):
        data = {"scenarios": data}
    if not isinstance(data, dict):
        raise ValueError("a scenario file must hold a JSON list or object")
    scenarios = data.get("scenarios", [])
    if not isinstance(scenarios, list) or not all(isinstance(s, dict) for s in scenarios):
        raise ValueError("scenarios must be a JSON list of objects")
    tolerances = _numbers(data.get("tolerances", {}), "tolerances", "tolerance", _TOLERANCES)
    return scenarios, tolerances, data.get("out")


def cmd_run(args) -> int:
    path = Path(args.scenario_file)
    scenarios, tolerances, file_out = _load_scenarios(path)

    records = []
    rows = []
    for scenario in scenarios:
        scenario = serialize._Fields(scenario, "a scenario")
        space = serialize.space_from_descriptor(scenario["space"])
        theorem = scenario["theorem"]
        witness = build_witness(space, theorem, scenario.get("params", {}))
        given = scenario.get("schedule")  # absent, null or {}: the default schedule of the curve
        given = {} if given is None else _numbers(given, "a schedule", "schedule", _SCHEDULE)
        schedule = Schedule(**given) if given else None
        cert = certify_nonmembership(
            witness.query, witness.curve, witness.claimed_bound, schedule, **tolerances
        )
        echo = {
            "theorem": theorem,
            "space": scenario["space"],
            "params": scenario.get("params", {}),
        }
        records.append(serialize.certificate_to_json(cert, echo))
        rows.append((theorem, cert.claimed_bound, cert.estimate.limit, cert.verdict))

    out_path = Path(args.out or file_out or path.with_suffix(".certificates.json"))
    out_path.write_text(json.dumps(records, indent=2, allow_nan=False))

    print(f"{'theorem':<14}{'bound':>14}{'limit':>18}  verdict")
    for theorem, bound, limit, verdict in rows:
        bound_txt = "positive" if bound is None else f"{bound:.8f}"
        print(f"{theorem:<14}{bound_txt:>14}{limit:>18.10f}  {verdict}")
    print(f"certificates: {out_path}")
    return 0 if all(r[3] == "certified" for r in rows) else 1


def cmd_suite(args) -> int:
    space = _space_from_args(args)
    battery = run_appendix_battery(space, args.samples, args.seed)
    extra = run_backend_invariants(space, args.samples, args.seed)
    report = SuiteReport(
        battery.space, battery.seed, battery.sample_count, battery.records + extra
    )
    out_path = Path(args.out or "suite_report.json")
    out_path.write_text(json.dumps(report.to_json(), indent=2, allow_nan=False))
    for rec in report.records:
        status = "pass" if rec.passed else "FAIL"
        extra = "" if rec.applicable else " (not applicable)"
        print(f"{rec.property_id}: {status}  max_violation={rec.max_violation:.3e}{extra}")
    print(f"report: {out_path}")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualitymap",
        description="duality maps and coderivative non-membership certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the duality map at one element")
    p_eval.add_argument("--space", required=True, choices=["lp", "l1", "c01"])
    p_eval.add_argument("--p", type=float, help="exponent for the lp space")
    p_eval.add_argument("--weights", help="JSON array of atom weights (l1)")
    p_eval.add_argument("--vector", help="JSON array (lp element)")
    p_eval.add_argument("--values", help="JSON array (l1 element)")
    p_eval.add_argument("--f", help='piecewise-linear function JSON, or "tent"')
    p_eval.set_defaults(func=cmd_eval)

    p_run = sub.add_parser("run", help="run a scenario file and emit certificates")
    p_run.add_argument("scenario_file")
    p_run.add_argument("--out", help="certificate output path")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run the appendix property battery")
    p_suite.add_argument("--space", required=True, choices=["lp", "l1", "c01"])
    p_suite.add_argument("--p", type=float)
    p_suite.add_argument("--weights")
    p_suite.add_argument("--samples", type=int, default=100)
    p_suite.add_argument("--seed", type=int, default=0)
    p_suite.add_argument("--out", help="report output path")
    p_suite.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
