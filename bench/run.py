"""floerforge benchmark: the ladder, verify and cli_corpus workloads.

Run from the root of a checkout, with no installation step:

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats whole passes, then probe calls, for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` runs plain and traced
passes and reports per-layer metrics.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--check`` runs every operation once, untimed, against the reference;
``--record`` rewrites ``bench/reference/<workload>.json`` from the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["ladder", "verify", "cli_corpus"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="run every operation once, untimed")
    mode.add_argument("--record", action="store_true", help="rewrite the reference outputs")
    mode.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "floerforge"
    if not (package / "__init__.py").is_file():
        print(f"error: no floerforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import floerforge

    if Path(floerforge.__file__).resolve().parent != package.resolve():
        print(f"error: imported floerforge from {floerforge.__file__}, not {package}", file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.setup_only:
        workloads.Workload(args.workload, args.seed, workloads.load_reference(args.workload))
        return 0
    if args.record:
        reference = harness.record(args.workload)
        print(f"recorded {len(reference['outputs'])} outputs for {args.workload}")
        return 0
    if args.check:
        wl = workloads.Workload(args.workload, args.seed, workloads.load_reference(args.workload))
        result = harness.run_pass(wl.ops, wl.reference)
        for error in result.errors:
            print(f"failure: {error}")
        print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                          "failed": result.failed}))
        return 0 if result.failed == 0 else 1
    m = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out = harness.report(args.workload, args.seed, args.seconds, bool(args.trace), m)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
