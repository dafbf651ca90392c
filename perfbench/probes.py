"""Untimed checks that run outside the workloads: the full-corpus audit
fingerprint and the known failing inputs."""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from irreducia import audit, criteria, numtheory
from irreducia.criteria import AnalyzeConfig
from irreducia.poly import Polynomial

from .workloads import (
    DeadlineExceeded,
    alarm_handler,
    audit_fingerprint,
    call_with_deadline,
    irreducia_env,
    nproc,
)

# The audit's correctness fingerprint over all 798,518 polynomials of
# degree <= 5 with |c| <= 5.
FULL_CORPUS_KEYS = (
    "total",
    "oracle_calls",
    "violations",
    "cor1_checked",
    "middle_prime_power.fired",
    "rootloc_checked",
)
DEFECT_DEADLINE_S = 2.0
SEMIPRIME_INPUTS = 3


def full_corpus_fingerprint(record: dict) -> int:
    """Audit the whole corpus at jobs = nproc and compare the six counts with
    the recorded ones. Exit code 0 when they all match."""
    want = record["full_corpus_fingerprint"]
    t0 = time.perf_counter()
    result = audit.audit_exhaustive(5, 5, jobs=nproc())
    wall = time.perf_counter() - t0
    fp = audit_fingerprint(result)
    got = {key: fp.get(key, 0) for key in FULL_CORPUS_KEYS}
    for key in FULL_CORPUS_KEYS:
        mark = "ok" if got[key] == want[key] else f"MISMATCH, recorded {want[key]}"
        print(f"# {key} = {got[key]} ({mark})")
    print(f"# wall_s = {wall:.1f} s at jobs={nproc()}")
    print(json.dumps({"matches": got == want, "counts": got, "wall_s": wall}))
    return 0 if got == want else 1


def _prime_near(rng: random.Random, bits: int) -> int:
    n = rng.randrange(2 ** (bits - 1), 2**bits) | 1
    while not numtheory.is_prime(n):
        n += 2
    return n


def semiprime_inputs(seed: int) -> list[Polynomial]:
    """Polynomials with one coefficient the product of two primes near 2^60,
    which numtheory.factorize cannot split in bounded time."""
    rng = random.Random(f"defects:{seed}")
    shapes = ([None, 1, 1], [1, None, 1], [None, 3, 0, 1])
    out = []
    for k in range(SEMIPRIME_INPUTS):
        n = _prime_near(rng, 61) * _prime_near(rng, 60)
        out.append(Polynomial([n if c is None else c for c in shapes[k % len(shapes)]]))
    return out


def known_defects(seed: int, record: dict, root: Path) -> int:
    """Run the inputs the program is known to fail on and count the
    failures: analyze on a semiprime coefficient near 2^120 under a
    per-call deadline, and a CLI polynomial written with a leading minus."""
    cases = []
    with alarm_handler():
        for f in semiprime_inputs(seed):
            t0 = time.perf_counter()
            try:
                call_with_deadline(DEFECT_DEADLINE_S, criteria.analyze, f, AnalyzeConfig(oracle="off"))
                outcome = "ok"
            except DeadlineExceeded:
                outcome = f"no result within {DEFECT_DEADLINE_S} s"
            except Exception as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            cases.append({"input": f"analyze {list(f.coeffs)}", "outcome": outcome,
                          "wall_s": time.perf_counter() - t0})
    argv = ["analyze", "--poly", "-z^2+1", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "irreducia", *argv], cwd=root, env=irreducia_env(root),
        capture_output=True, text=True, timeout=60,
    )
    cases.append({
        "input": "irreducia " + " ".join(argv),
        "outcome": "ok" if proc.returncode == 0 else
                   f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1]}",
    })
    failed = sum(case["outcome"] != "ok" for case in cases)
    expected = record["known_defects"]["failed"]
    for case in cases:
        print(f"# {case['input']}: {case['outcome']}")
    print(f"# failed_ratio = {failed / len(cases):.4g} ({failed}/{len(cases)}); "
          f"recorded baseline {expected}/{len(cases)}")
    print(json.dumps({"attempted": len(cases), "failed": failed,
                      "failed_ratio": failed / len(cases), "cases": cases}))
    return 0
