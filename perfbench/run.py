#!/usr/bin/env python3
"""Certificate-pipeline benchmark of dualitymap.

Run from the root of the repository:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

The workload seed generates every input before timing starts.  Every output
is checked.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds the details (environment, failures by backend and
class, sample counts).  Both are also written to
``.perfbench_out/BENCH_<workload>_seed<seed>_trace<trace>.json``.
"""

import os

# One BLAS thread, set before numpy is first imported; child interpreters
# inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog", "wide", "suite")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny decks, for the smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/dualitymap/__init__.py", "fixtures/all.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: the program is not in {ROOT}: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    details, result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, ROOT)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
