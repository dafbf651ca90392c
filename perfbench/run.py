"""Run one benchmark workload against the irreducia checkout this file sits in.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced pass. The lines before it repeat the numbers by name, with
units and sample counts.

Two untimed checks run on their own:

    python3 perfbench/run.py --fingerprint   # full deg<=5, |c|<=5 audit
    python3 perfbench/run.py --defects       # known failing inputs

The program is imported from ``src/`` next to this directory; the run fails
before printing a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep", "analyze-mix", "factor", "cli-cold")
DEFAULT_SEED = 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program and build the inputs, then exit")
    parser.add_argument("--fingerprint", action="store_true",
                        help="audit the full deg<=5, |c|<=5 corpus and check its counts")
    parser.add_argument("--defects", action="store_true",
                        help="run the known failing inputs and count the failures")
    return parser


def _import_program():
    """Import irreducia from this checkout's src/, or exit with code 2."""
    if not (SRC / "irreducia" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'irreducia'} not found; run from a full checkout")
    sys.path[0:1] = [str(SRC), str(ROOT)]  # replaces this script's directory
    import irreducia

    if Path(irreducia.__file__).resolve().parent != SRC / "irreducia":
        sys.exit(f"perfbench: imported irreducia from {irreducia.__file__}, not {SRC}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    _import_program()
    from perfbench import probes, workloads
    from perfbench.inputs import GENERATORS

    record = json.loads((ROOT / "perfbench" / "baseline.json").read_text())
    if args.fingerprint:
        return probes.full_corpus_fingerprint(record)
    if args.defects:
        return probes.known_defects(args.seed, record, ROOT)
    if args.workload is None:
        _parser().error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.setup_only:
        GENERATORS[args.workload](args.seed, seconds)
        return 0
    ctx = workloads.Context(
        seed=args.seed, seconds=seconds, root=ROOT, jobs=workloads.nproc(), record=record
    )
    result, lines = workloads.run(args.workload, ctx, bool(args.trace))
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
