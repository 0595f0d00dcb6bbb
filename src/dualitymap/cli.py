"""Batch front end: evaluate duality maps, run witness scenarios, run suites.

Three subcommands, JSON in and JSON out everywhere:

* ``eval``  -- print J(element) for one element of one space (for the
  set-valued backends: the classification plus a canonical selection);
* ``run``   -- read a scenario file of witness requests, building and
  checking every scenario before the first certificate (a refusal names
  ``scenarios[i]``), then write one non-membership certificate per
  scenario and print a summary table;
* ``suite`` -- run the appendix property battery plus backend invariants
  and write the report.

Exit codes: 0 on full success, 1 when a verdict or property fails, 2 on
malformed input, unknown theorem ids, or violated hypotheses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import c01, l1, serialize
from .coderivative import Schedule, Tolerances, _finite_list, certify_nonmembership
from .oracles import SuiteReport, run_appendix_battery, run_backend_invariants
from .witnesses import build_witness


# The option each space needs, and the only ones it takes: to build the
# space, and for ``eval`` the element.
_SPACE_OPTION = {"lp": "p", "l1": "weights"}
_ELEMENT_OPTION = {"lp": "vector", "l1": "values", "c01": "f"}


def _required(args, options: dict):
    """The value of the option ``options`` names for ``args.space``, refused when it is not given.

    An option that ``options`` names for another space is refused when it
    is given, as a scenario file refuses a field it does not name.
    """
    for space, name in options.items():
        if space != args.space and getattr(args, name) is not None:
            raise ValueError(f"--space {args.space} does not take --{name}")
    name = options.get(args.space)
    if name is not None and getattr(args, name) is None:
        raise ValueError(f"--space {args.space} requires --{name}")
    return None if name is None else getattr(args, name)


def _space_from_args(args):
    name, value = _SPACE_OPTION.get(args.space), _required(args, _SPACE_OPTION)
    given = {} if name is None else {name: json.loads(value) if name == "weights" else value}
    return serialize.space_from_descriptor({"space": args.space, **given})


def cmd_eval(args) -> int:
    space = _space_from_args(args)
    raw = _required(args, _ELEMENT_OPTION)
    if args.space == "lp":
        x = space.check(_finite_list("--vector", json.loads(raw), "number"))
        out = [float(v) for v in space.canonical_dual(x)]
    elif args.space == "l1":
        f = space.check(_finite_list("--values", json.loads(raw), "number"))
        info = l1.duality_set_classify(f, space)
        out = {
            "singleton": info.singleton,
            "free_points": [int(i) for i in np.flatnonzero(info.free_points)],
            "selection": [float(v) for v in info.selection],
        }
    else:
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


# The fields of a scenario file and of a scenario; ``Schedule`` and
# ``Tolerances`` name and check the fields of a scenario's ``schedule`` and
# of a file's ``tolerances``.
_FILE = ("scenarios", "tolerances", "out")
_SCENARIO = ("space", "theorem", "params", "schedule")
_SCHEDULE = tuple(f.name for f in fields(Schedule))


def _out_option(args):
    """The ``--out`` path, None when it is not given; "" names no file, as in a scenario file's ``out``."""
    if args.out == "":
        raise ValueError("--out must be a nonempty path, got ''")
    return args.out


def _load_scenarios(path: Path):
    """The file's scenarios, each built into a (witness, schedule, echo) triple, its ``Tolerances`` and its output path.

    Every check is made here, before any certificate: the file's fields,
    then each scenario's fields, space, theorem, params, schedule and
    hypotheses, a refusal naming its scenario ``scenarios[i]``.  The echo is
    the scenario as given, ``schedule`` included when it has one.
    """
    data = json.loads(path.read_text())
    if isinstance(data, list):
        data = {"scenarios": data}
    if not isinstance(data, dict):
        raise ValueError("a scenario file must hold a JSON list or object")
    data = serialize._Fields(data, "a scenario file", _FILE)
    scenarios = data.get("scenarios", [])
    if not isinstance(scenarios, list) or not all(isinstance(s, dict) for s in scenarios):
        raise ValueError("scenarios must be a JSON list of objects")
    given = serialize._Fields(data.get("tolerances", {}), "tolerances", tuple(f.name for f in fields(Tolerances)))
    out = data.get("out")
    if out is not None and not (isinstance(out, str) and out):  # "" names no file
        raise ValueError(f"a scenario file's out must be a string path, got {out!r}")
    tolerances, built = Tolerances(**given), []
    for i, scenario in enumerate(scenarios):
        try:
            scenario = serialize._Fields(scenario, "a scenario", _SCENARIO)
            space, theorem = serialize.space_from_descriptor(scenario["space"]), scenario["theorem"]
            witness = build_witness(space, theorem, scenario.get("params", {}))
            given = scenario.get("schedule")  # absent, null or {}: the default schedule of the curve
            given = {} if given is None else serialize._Fields(given, "a schedule", _SCHEDULE)
            echo = {"theorem": theorem, "space": scenario["space"], "params": scenario.get("params", {})}
            if "schedule" in scenario:  # as given, so the record replays from its echo
                echo["schedule"] = scenario["schedule"]
            built.append((witness, Schedule(**given) if given else None, echo))
        except (KeyError, ValueError, TypeError) as exc:
            # str() of a KeyError is the repr of its key, quotes included
            raise ValueError(f"scenarios[{i}]: {exc.args[0] if isinstance(exc, KeyError) else exc}") from exc
    return built, tolerances, out


def _write_json(path: Path, obj) -> None:
    """Write obj to path as indented JSON, streamed into a file beside it that then replaces it.

    The text is never held whole.  A value JSON cannot hold, or any other
    error, removes that file, so the target is either written whole or
    left as it was; an error of the file system names the target.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, allow_nan=False)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def cmd_run(args) -> int:
    out = _out_option(args)
    path = Path(args.scenario_file)
    scenarios, tolerances, file_out = _load_scenarios(path)
    records = [
        serialize.certificate_to_json(certify_nonmembership(w.query, w.curve, w.claimed_bound, schedule, tolerances), echo)
        for w, schedule, echo in scenarios
    ]

    out_path = Path(out or file_out or path.with_suffix(".certificates.json"))
    _write_json(out_path, records)  # only once every certificate is made

    print(f"{'theorem':<14}{'bound':>14}{'limit':>18}  verdict")
    for r in records:
        bound = "positive" if r["claimed_bound"] is None else f"{r['claimed_bound']:.8f}"
        print(f"{r['scenario']['theorem']:<14}{bound:>14}{r['estimated_limit']:>18.10f}  {r['verdict']}")
    print(f"certificates: {out_path}")
    return 0 if all(r["verdict"] == "certified" for r in records) else 1


def cmd_suite(args) -> int:
    out_path = Path(_out_option(args) or "suite_report.json")
    if args.samples < 1:
        raise ValueError(f"--samples must be a positive integer, got {args.samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    space = _space_from_args(args)
    battery = run_appendix_battery(space, args.samples, args.seed)
    extra = run_backend_invariants(space, args.samples, args.seed)
    report = SuiteReport(
        battery.space, battery.seed, battery.sample_count, battery.records + extra
    )
    _write_json(out_path, report.to_json())
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
    except (ValueError, OSError, TypeError) as exc:  # a json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
