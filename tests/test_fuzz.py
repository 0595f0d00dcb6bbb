"""Property-based fuzzing of the CLI boundary.

Each example runs one subcommand through ``cli.main`` in-process: ``run``
on the fixture scenarios with one or two leaves replaced, and ``suite`` and
``eval`` with drawn arguments of bounded size (1-50 samples, at most 16
coordinates or breakpoints; the suite allocates its whole draw block at
once, so ``--samples`` stays small).  Whatever the input, the command must
exit 0, 1 or 2 without a traceback, every file it writes and every line it
prints must be strict JSON (no NaN or Infinity), and a ``certified``
certificate must carry a finite limit.  The examples are derandomized, so
every run tests the same inputs.
"""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualitymap.cli import main

FIXTURE = json.loads((Path(__file__).resolve().parent.parent / "fixtures" / "all.json").read_text())

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    # capsys is read, and so emptied, in every example
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


def _strict(text: str):
    def refuse(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _leaves(node, path=()):
    """The path to every scalar of a JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    else:
        yield path


def _replace(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


LEAVES = list(_leaves(FIXTURE))

floats = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 5e-324, 1e300, -1e300, 1.7e308]),
    st.floats(allow_nan=True, allow_infinity=True),
)
leaf_values = st.one_of(
    floats,
    st.integers(-3, 20),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "tent", "plateau", "atoms", "thm31", "thm55", "c01", "lp", "l1"]),
    st.lists(floats, max_size=16),
    st.just({}),
)


def _run(argv: list, capsys) -> tuple:
    """Exit code and captured stdout of one ``cli.main`` call; any exception propagates."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing an argument
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    return code, out


@FUZZ
@given(mutations=st.lists(st.tuples(st.sampled_from(LEAVES), leaf_values), min_size=1, max_size=2))
def test_run_on_mutated_fixture_scenarios(mutations, capsys):
    doc = json.loads(json.dumps(FIXTURE))
    for path, value in mutations:
        _replace(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        scenarios, out = Path(tmp) / "scenarios.json", Path(tmp) / "certificates.json"
        scenarios.write_text(json.dumps(doc))  # NaN and Infinity are written as such
        code, _ = _run(["run", str(scenarios), "--out", str(out)], capsys)
        if code != 2:
            records = _strict(out.read_text())
            assert len(records) == len(doc["scenarios"])
            for record in records:
                if record["verdict"] == "certified":
                    assert math.isfinite(record["estimated_limit"])
            assert (code == 0) == all(r["verdict"] == "certified" for r in records)


space_args = st.one_of(
    st.tuples(st.just("lp"), st.one_of(st.floats(1.01, 12.0), st.sampled_from([0.5, 1.0, 2.0, float("nan"), float("inf")]))).map(
        lambda a: ["--space", "lp", f"--p={a[1]!r}"]
    ),
    st.lists(st.one_of(st.floats(0.01, 10.0), st.sampled_from([0.0, -1.0, 1e300])), min_size=1, max_size=16).map(
        lambda w: ["--space", "l1", "--weights", json.dumps(w)]
    ),
    st.just(["--space", "c01"]),
)


@FUZZ
@given(space=space_args, samples=st.integers(1, 50), seed=st.integers(0, 2**32))
def test_suite_with_drawn_arguments(space, samples, seed, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code, _ = _run(["suite", *space, "--samples", str(samples), "--seed", str(seed), "--out", str(out)], capsys)
        if code != 2:
            report = _strict(out.read_text())
            assert report["sample_count"] == samples and report["all_passed"] == (code == 0)


@st.composite
def pwl_json(draw) -> str:
    size = draw(st.integers(2, 16))
    inner = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=size - 2, max_size=size - 2)))
    values = draw(st.lists(floats, min_size=size, max_size=size))
    return json.dumps({"breakpoints": [0.0, *inner, 1.0], "values": values})


@st.composite
def eval_args(draw):
    kind = draw(st.sampled_from(["lp", "l1", "c01"]))
    if kind == "lp":
        p = draw(st.one_of(st.floats(1.01, 12.0), st.sampled_from([1.0, 2.0, 1e6])))
        vector = draw(st.lists(floats, min_size=1, max_size=16))
        return ["--space", "lp", f"--p={p!r}", "--vector", json.dumps(vector)]
    if kind == "l1":
        n = draw(st.integers(1, 16))
        weights = draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n))
        values = draw(st.lists(floats, min_size=draw(st.sampled_from([n, n, n, 1])), max_size=n))
        return ["--space", "l1", "--weights", json.dumps(weights), "--values", json.dumps(values)]
    return ["--space", "c01", "--f", draw(st.one_of(st.just("tent"), pwl_json()))]


@FUZZ
@given(args=eval_args())
def test_eval_with_drawn_arguments(args, capsys):
    code, out = _run(["eval", *args], capsys)
    assert code in (0, 2)
    if code == 0:
        _strict(out)
