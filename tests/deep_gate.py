"""The deep exhaustive gate: the audit of every primitive polynomial of degree
<= 6 with coefficients in [-5, 5] (8,825,096 of them), whose summary must
match `deep_gate_summary.txt` byte for byte. A violation there is a
criterion's fault; the corpus is never made smaller to clear it. pytest does
not collect this file, so tier-1 stays fast; run it from the repository root:

    PYTHONPATH=src python tests/deep_gate.py [--jobs N]

It runs `python -m irreducia audit --max-degree 6 --coeff-bound 5` and exits
0 when the command exits 0 and prints the recorded summary, 1 otherwise.
"""

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path

SUMMARY = Path(__file__).with_name("deep_gate_summary.txt")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    run = subprocess.run(
        [sys.executable, "-m", "irreducia", "audit", "--max-degree", "6", "--coeff-bound", "5",
         "--jobs", str(args.jobs)],
        capture_output=True,
    )
    sys.stderr.buffer.write(run.stderr)
    want = SUMMARY.read_bytes()
    if run.returncode == 0 and run.stdout == want:
        print(f"deep gate: the summary matches {SUMMARY.name}")
        return 0
    print(f"deep gate: exit {run.returncode}; the summary differs from {SUMMARY.name}:")
    sys.stdout.writelines(difflib.unified_diff(
        want.decode().splitlines(keepends=True), run.stdout.decode().splitlines(keepends=True),
        SUMMARY.name, "this run"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
