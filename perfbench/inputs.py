"""Seeded inputs for the four workloads.

Every generator takes the workload seed and the run length in seconds and
returns the same list for the same pair. Input counts scale with the run
length at fixed rates, so a run's sample count, and with it the tail
percentile it reports, does not depend on how fast the program is.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from irreducia import corpus
from irreducia.poly import Polynomial

SWEEP_MAX_DEGREE = 5
SWEEP_COEFF_BOUND = 5
SWEEP_CORPUS_SIZE = 798_518  # len(gen_exhaustive(5, 5))

# inputs per second of run length
SWEEP_RATE = 3000
ANALYZE_RATE = 500
FACTOR_RATE = 40
CLI_RATE = 3
CLI_MIN_CALLS = 40  # enough for a p75 with ten samples beyond it

# (class, share, degree range, coefficient bound, numeric root mode)
ANALYZE_CLASSES = (
    ("small", 0.40, (2, 8), 20, False),
    ("high_degree", 0.20, (9, 24), 10**3, False),
    ("big_1e9", 0.20, (2, 8), 10**9, False),
    ("big_1e12", 0.04, (2, 8), 10**12, False),
    ("numeric", 0.16, (2, 8), 20, True),
)

# (class, share, factor degrees multiplied together, coefficient bound)
FACTOR_CLASSES = (
    ("rand_c3", 0.40, None, 3),
    ("rand_c20", 0.30, None, 20),
    ("prod_4x4", 0.10, (4, 4), 5),
    ("prod_3x3x2", 0.20, (3, 3, 2), 5),
)
FACTOR_RANDOM_DEGREES = (6, 8)
FACTOR_STRATA = 4  # candidates drawn per kept input (see factor_inputs)


@dataclass(frozen=True)
class Item:
    """One operation's input: the polynomial plus what the workload needs
    to run and check it."""

    cls: str
    poly: Polynomial
    parts: int = 1  # factors multiplied together to build poly
    numeric: bool = False  # analyze with numeric root location
    argv: tuple[str, ...] = field(default=())  # CLI arguments


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _class_counts(n: int, shares) -> list[int]:
    counts = [round(n * share) for share in shares]
    counts[0] += n - sum(counts)
    return counts


def _random_poly(
    rng: random.Random, degree: int, bound: int, *, nonzero_constant: bool
) -> Polynomial:
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        if cs[-1] != 0 and (cs[0] != 0 or not nonzero_constant):
            return Polynomial(cs)


# ---------------------------------------------------------------------------
# sweep


def sweep_size(seconds: int) -> int:
    return SWEEP_RATE * seconds


def sweep_inputs(seed: int, seconds: int) -> list[Item]:
    """A uniform random sample, in random order, of the degree <= 5,
    |c| <= 5 exhaustive corpus. The corpus is streamed once and only the
    sampled members are kept."""
    rng = _rng("sweep", seed)
    picks = rng.sample(range(SWEEP_CORPUS_SIZE), sweep_size(seconds))
    slot = {index: k for k, index in enumerate(picks)}
    out: list[Item | None] = [None] * len(picks)
    seen = 0
    for index, f in enumerate(corpus.gen_exhaustive(SWEEP_MAX_DEGREE, SWEEP_COEFF_BOUND)):
        k = slot.get(index)
        if k is not None:
            out[k] = Item("corpus", f)
        seen += 1
    if seen != SWEEP_CORPUS_SIZE:
        raise RuntimeError(
            f"gen_exhaustive({SWEEP_MAX_DEGREE}, {SWEEP_COEFF_BOUND}) yielded {seen} "
            f"polynomials, expected {SWEEP_CORPUS_SIZE}"
        )
    return out


# ---------------------------------------------------------------------------
# analyze-mix


def analyze_inputs(seed: int, seconds: int) -> list[Item]:
    """Fixed counts per input class and, within a class, per degree,
    shuffled into one stream."""
    rng = _rng("analyze-mix", seed)
    n = ANALYZE_RATE * seconds
    items: list[Item] = []
    counts = _class_counts(n, [c[1] for c in ANALYZE_CLASSES])
    for (cls, _, (lo, hi), bound, numeric), count in zip(ANALYZE_CLASSES, counts):
        for k in range(count):
            degree = lo + k % (hi - lo + 1)  # every degree equally often
            f = _random_poly(rng, degree, bound, nonzero_constant=False)
            items.append(Item(cls, f, numeric=numeric))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# factor


def _divisor_count(v: int) -> int:
    v = abs(v)
    count = 1
    p = 2
    while p * p <= v:
        e = 0
        while v % p == 0:
            v //= p
            e += 1
        count *= e + 1
        p += 1
    return count * (2 if v > 1 else 1)


def kronecker_size(f: Polynomial) -> float:
    """log of the number of divisor tuples Kronecker's method may visit:
    the sum over candidate factor degrees e of the product of the divisor
    counts of f at e + 1 sample points. 0 when a sample value is zero
    (a rational root the oracle strips first)."""
    points = (0, 1, -1, 2, -2, 3, -3, 4, -4)[: f.degree // 2 + 1]
    values = [f.evaluate(x) for x in points]
    if any(v == 0 for v in values):
        return 0.0
    counts = [_divisor_count(v) for v in values]
    total = sum(math.prod(counts[: e + 1]) for e in range(2, f.degree // 2 + 1))
    return math.log(total) if total else 0.0


def _factor_candidate(rng: random.Random, k: int, degrees, bound: int) -> Polynomial:
    """The k-th candidate of a class: a random polynomial whose degree
    cycles through FACTOR_RANDOM_DEGREES, or a product of random factors."""
    if degrees is None:
        lo, hi = FACTOR_RANDOM_DEGREES
        return _random_poly(rng, lo + k % (hi - lo + 1), bound, nonzero_constant=True)
    out = Polynomial([1])
    for d in degrees:
        out = out * _random_poly(rng, d, bound, nonzero_constant=True)
    return out


def factor_inputs(seed: int, seconds: int) -> list[Item]:
    """Fixed counts per class. Within a class the kept inputs are a
    stratified sample on degree and kronecker_size: draw FACTOR_STRATA
    candidates per kept input, group them by degree, sort each group by that
    size, and keep one at random from each consecutive block. Every input is
    still a draw from its class, and each run holds the class's hard and easy
    inputs in the same proportion, so runs with different seeds differ less."""
    rng = _rng("factor", seed)
    n = FACTOR_RATE * seconds
    items: list[Item] = []
    counts = _class_counts(n, [c[1] for c in FACTOR_CLASSES])
    for (cls, _, degrees, bound), count in zip(FACTOR_CLASSES, counts):
        parts = len(degrees) if degrees else 1
        pool = [
            _factor_candidate(rng, k, degrees, bound) for k in range(FACTOR_STRATA * count)
        ]
        pool.sort(key=lambda f: (f.degree, kronecker_size(f)))
        for k in range(count):
            block = pool[k * FACTOR_STRATA : (k + 1) * FACTOR_STRATA]
            items.append(Item(cls, rng.choice(block), parts=parts))
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# cli-cold


def typed_poly(f: Polynomial) -> str:
    """The sparse form a user types: highest power first, "3z^2 - z + 4"."""
    text = ""
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        body = "" if mag == 1 and k > 0 else str(mag)
        body += "" if k == 0 else "z" if k == 1 else f"z^{k}"
        if not text:
            text = ("-" if c < 0 else "") + body
        else:
            text += (" - " if c < 0 else " + ") + body
    return text


def cli_size(seconds: int) -> int:
    return max(CLI_MIN_CALLS, CLI_RATE * seconds)


def cli_inputs(seed: int, seconds: int) -> list[Item]:
    """Alternating analyze and factor calls on small polynomials with a
    positive leading coefficient, typed either as a sparse expression or,
    when the constant term is positive, as a lowest-first coefficient list."""
    rng = _rng("cli-cold", seed)
    items: list[Item] = []
    for k in range(cli_size(seconds)):
        f = _random_poly(rng, rng.randint(2, 6), 9, nonzero_constant=True)
        if f.leading_coefficient < 0:
            f = -f
        if f.constant_term > 0 and rng.random() < 0.3:
            text = ",".join(str(c) for c in f.coeffs)
        else:
            text = typed_poly(f)
        command = "analyze" if k % 2 == 0 else "factor"
        items.append(Item(command, f, argv=(command, "--poly", text, "--format", "json")))
    return items


GENERATORS = {
    "sweep": sweep_inputs,
    "analyze-mix": analyze_inputs,
    "factor": factor_inputs,
    "cli-cold": cli_inputs,
}
