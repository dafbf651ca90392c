"""The golden outcome file: every `analyze` report, and one audit's summary,
on a fixed, seeded and stratified set of inputs. `tests/test_golden.py`
rebuilds the lines and compares them with `golden_outcomes.txt.gz`; a
change that moves an output on purpose rewrites the file, and says why in
CHANGES.md:

    PYTHONPATH=src python tests/golden.py

A line is compact JSON: the coefficients, the root mode, the oracle
setting, and `cli.report_to_dict` of the report without "input" (or the
error's type and message). The audit's `summary_lines()` come last. Lines
stay the same on every platform and supported Python because numeric mode
runs only up to `rootloc.EXACT_MAX_DEGREE`, where Schur-Cohn decides
exactly (above it, floating-point roots and so the platform's libm would),
and no coefficient passes Python's 4,300-digit int-to-str limit (which
Python 3.10 does not have).
"""

import gzip
import itertools
import json
import math
import random
from pathlib import Path

from irreducia import audit, cli, criteria, numtheory, oracle, rootloc
from irreducia.corpus import gen_exhaustive, gen_random
from irreducia.poly import Polynomial, normalize

from generators import gen_dominant_second, next_prime

GOLDEN = Path(__file__).with_name("golden_outcomes.txt.gz")
PSI12 = 318_665_857_834_031_151_167_461  # composite: the 13th base proves it
PSI13 = numtheory.PROVEN_PRIME_BOUND  # a probable prime to every base: a limit
HARD = (2**61 - 1) * (2**60 + 33)  # resists one rho budget: a limit


def _primitive(coeffs):
    return normalize(Polynomial(coeffs)).primitive_part


def _prime_power_product(rng, bound):
    """+-(powers of up to four distinct primes up to 13), at most bound."""
    n = 1
    for p in rng.sample((2, 3, 5, 7, 11, 13), rng.randint(1, 4)):
        e = rng.randint(1, 6)
        while e and n * p**e > bound:
            e -= 1
        n *= p**e
    return rng.choice((1, -1)) * n


def competing_witnesses(rng):
    """Degree 1-12: a_0 and one middle coefficient are prime-power products
    or primes, and the lower coefficients often share a factor g, so many
    primes compete in Weintraub's, the generalized Eisenstein and both disk
    criteria."""
    m, g = rng.randint(1, 12), abs(_prime_power_product(rng, 10**3))
    shared = rng.random() < 0.5

    def draw(product):
        if shared:
            return g * (_prime_power_product(rng, 10**3) if product else rng.randint(-6, 6))
        if product:
            return _prime_power_product(rng, 10**6) if rng.random() < 0.5 else next_prime(rng.randint(2, 10**6))
        return rng.choice((rng.randint(-6, 6), g * rng.randint(-6, 6), _prime_power_product(rng, 10**6)))

    coeffs = [draw(False) for _ in range(m)]
    coeffs[0] = draw(True)
    if m >= 2:
        coeffs[rng.randint(1, m - 1)] = draw(True)
    return _primitive(coeffs + [rng.choice((rng.randint(-6, 6), _prime_power_product(rng, 10**6))) or 1])


def _split(rng):
    """Up to three primes below 10^3 of one coefficient, the product of
    their powers, and up to two primes above 10^3."""
    primes = rng.sample(numtheory._SMALL_PRIMES, rng.randint(0, 3))
    smooth = math.prod(p ** rng.randint(1, 3) for p in primes)
    return primes, smooth, [next_prime(rng.randint(10**3, 10**5)) for _ in range(rng.randint(0, 2))]


def split_coefficients(rng):
    """Degree 1-6 with a_0, a_1 and a_m built from primes on both sides of
    10^3, so the cofactor of a_0 above 10^3 can, or cannot, change the
    generalized Eisenstein witness and the leading-coefficient q."""
    m = rng.randint(1, 6)
    primes, smooth, big = _split(rng)
    if rng.random() < 0.25:
        primes, smooth = [], 1
    rest = math.prod(big)
    a0, t = rng.choice((1, -1)) * smooth * rest, rng.randint(-6, 6)
    _, smooth1, big1 = _split(rng)
    a1 = rng.choice((smooth1 * math.prod(big1), rest * t, big[0] * t if big else t,
                     math.prod(primes) * t, a0 * t, t))
    _, smooth_m, big_m = _split(rng)
    am = rng.choice((smooth_m * math.prod(big_m), rng.randint(1, 12) * rest))
    return _primitive([a0, a1 or am] if m == 1 else [a0, a1, *(rng.randint(-6, 6) for _ in range(m - 2)), am])


def dominated(rng):
    """One or two coefficients far above the others, often prime powers,
    with |a_m| on both sides of 32 and of 10^3; or a_1 next to b a_0 for
    the divisor b of a_m nearest 32, so the dominance witness b lies on
    either side of the divisor table's range."""
    m = rng.randint(1, 8)
    am = rng.choice((1, 2, 3, 6, 31, 32, 33, 64, 210, 2 * 997, 3 * 1009, 10**12 + 39,
                     rng.choice((2, 3, 31)) * next_prime(rng.randint(10**3, 10**6))))
    if m >= 2 and rng.random() < 0.3:
        divisors = numtheory.positive_divisors(am)
        b = rng.choice([d for d in divisors if d <= 32][-1:] + [d for d in divisors if d > 32][:1])
        a0 = rng.randint(1, 3)
        return _primitive([a0, rng.choice((1, -1)) * (b * a0 + rng.randint(-2, 1)),
                           *(rng.randint(-3, 3) for _ in range(m - 2)), am])
    coeffs = [rng.randint(-4, 4) for _ in range(m)] + [am]
    for j in rng.sample(range(m), min(m, rng.randint(1, 2))):
        big = rng.randint(1, 10**6) if rng.random() < 0.5 else rng.choice((2, 3, 5, 7)) ** rng.randint(1, 40)
        coeffs[j] = rng.choice((1, -1)) * big
    return _primitive([coeffs[0] or 1, *coeffs[1:]])


def band_quadratic(rng):
    """c z^2 + b z + p d with p / (1.004 d) <= c < p / d: complex roots of
    modulus in (d, 1.002 d], on either side of the numeric margin."""
    d, p = rng.randint(1, 6), rng.choice((2003, 4001, 7919, 10007))
    return _primitive([p * d, rng.randint(-3, 3), rng.randint(-(-250 * p // (251 * d)), -(-p // d) - 1)])


def product(rng):
    """Content, perhaps z, and 2 or 3 factors of degree 1-4 with |c| <= 5,
    of total degree at most 8, for the oracle's Kronecker search."""
    f = Polynomial([rng.randint(1, 3) * rng.choice((1, -1))] if rng.random() < 0.3 else [1])
    f = f * Polynomial([0, 1]) if rng.random() < 0.2 else f
    for _ in range(rng.randint(2, 3)):
        if f.degree < 8:
            k = rng.randint(1, min(4, 8 - f.degree))
            f = f * Polynomial([rng.randint(-5, 5) for _ in range(k)] + [rng.randint(-5, 5) or 1])
    return f


SPECIAL = [
    [PSI13, 3863508546782, 1],  # probable-prime warnings, AtMostFactors(2)
    [0, PSI13, PSI13, 1],  # a z-power, and Weintraub stopped too
    [PSI12, 1, 1], [PSI12, PSI12, 1],  # composite: rho splits it
    [HARD, 1, 1],  # a factorization limit, not a probable prime
    [4, -4, 1],  # (z - 2)^2: only numeric mode certifies d = 1
    [1013, 1, 1009],  # root moduli 1.00198: a numeric certificate at d = 1
    [-4004, 4000, -1001, 1000], [-4004, 6999, 2000],  # a root just past the radius
    [6, 4], [0, 0, 2, 4, 6], [-3, 0, 9], [3, 5], [-7, 1], [7], [-12],  # content, z-powers, degree <= 1
    [1, 12, 64], [1, 1, 2 * 997], [1, 995, 2 * 997], [1, 104, 64], [2, 1000, 3027],  # b past 32 or 10^3
    [1, 10**6, 10**12 + 39], [1, 66, 64], [1, 4, 64, 1], [2, 6, 1, 1],
    [2 * 1009, 3 * 1009, 1, 1], [4 * 1009, 2, 0, 1], [1009 * 1013, 1, 0, 0, 1013],  # cofactors above 10^3
    [52489, 0, 0, 72], [193, 0, 12], [36, 36, -12, -6, 5], [30, 15, 0, -1],  # later candidates win
]


def inputs():
    """(polynomial, oracle setting) for every stratum, in a fixed order."""
    rng = random.Random(20261020)
    yield from ((f, "auto") for f in itertools.islice(gen_exhaustive(5, 5), 0, None, 2003))
    for count, degree, bound, seed in ((60, 8, 9, 1), (60, 8, 10**9, 2), (60, 8, 10**12, 3), (40, 24, 10**6, 4)):
        yield from ((f, "auto") for f in gen_random(count, degree, bound, seed))
    for build, count in ((competing_witnesses, 120), (split_coefficients, 120), (dominated, 150), (band_quadratic, 30)):
        yield from ((build(rng), "off") for _ in range(count))
    yield from ((f, "on") for f in gen_dominant_second(20, seed=5))
    yield from ((product(rng), "on") for _ in range(60))
    yield from ((Polynomial(coeffs), "auto") for coeffs in SPECIAL)


def _line(f, mode, oracle_mode):
    try:
        report = cli.report_to_dict(criteria.analyze(f, criteria.AnalyzeConfig(root_mode=mode, oracle=oracle_mode)))
        del report["input"]
    except (ValueError, criteria.SoundnessError, oracle.OracleLimitError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
    return json.dumps([list(f.coeffs), mode.value, oracle_mode, report], separators=(",", ":"))


def audit_summary():
    """One audit of every 7th polynomial of degree <= 4, |c| <= 3, seeded
    random ones, some past the oracle's coefficient bound, and two whose
    criteria stop at a limit."""
    polys = itertools.chain(itertools.islice(gen_exhaustive(4, 3), 0, None, 7), gen_random(200, 6, 60, 5),
                            gen_random(20, 4, 10**9, 7), gen_dominant_second(50, seed=6),
                            [Polynomial(SPECIAL[0]), Polynomial(SPECIAL[4])])
    return audit.audit_corpus(polys).summary_lines()


def build_lines():
    """Every golden line, from a cold factorization cache, so nothing that
    another caller left there under another rho budget can reach a line."""
    numtheory._factor_positive.cache_clear()
    both = tuple(rootloc.CertificateMode)  # symbolic, then numeric
    return [_line(f, mode, oracle_mode) for f, oracle_mode in inputs()
            for mode in (both if f.degree <= rootloc.EXACT_MAX_DEGREE else both[:1])] + audit_summary()


def read_lines():
    return gzip.decompress(GOLDEN.read_bytes()).decode().splitlines()


def main():
    new = build_lines()
    old = read_lines() if GOLDEN.exists() else []
    changed = [(a, b) for a, b in itertools.zip_longest(old, new) if a != b]
    if changed:
        GOLDEN.write_bytes(gzip.compress("\n".join(new).encode() + b"\n", mtime=0))
    print(f"{len(changed)} of {len(new)} lines changed")
    for a, b in changed[:20]:
        print(f"old: {a}\nnew: {b}")


if __name__ == "__main__":
    main()
