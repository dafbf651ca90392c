"""Generators for the built-in polynomial families P1-P4 and for the
exhaustive and seeded-random audit corpora.

Family generation is strict: every side condition is re-checked in exact
arithmetic and a violated condition raises FamilyConditionError naming it,
never a silently wrong polynomial.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, Sequence

from . import numtheory
from .poly import Polynomial, is_primitive


class FamilyConditionError(ValueError):
    """A family parameter set violates one of its side conditions."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise FamilyConditionError(message)


def gen_p1(p: int, m: int, n: int, sign: int = 1) -> Polynomial:
    """p^(m-1) * (1 + z + ... + z^(n-1)) +- z^m for a prime p, m >= n >= 2.

    The constant block carries p^(m-1) exactly, the leading coefficient is a
    unit, and gcd(m-1, m) = 1, so the prime-power prefix criterion applies
    with j = m and certifies irreducibility.
    """
    _check(numtheory.is_prime(p), f"p must be a proven prime, got {p}")
    _check(m >= n >= 2, f"need m >= n >= 2, got m={m}, n={n}")
    _check(sign in (1, -1), "sign must be +-1")
    block = p ** (m - 1)
    coeffs = [block] * n + [0] * (m - n) + [sign]
    return Polynomial(coeffs)


def gen_p2(
    p: int, k: int, d: int, m: int, tail: Sequence[int], sign: int = 1
) -> Polynomial:
    """+-p^k d + a_1 z + ... + a_m z^m with p^k > m * max|a_i| d^(i-1).

    The dominance condition keeps every zero outside the closed disk
    |z| <= d, so the constant-term criterion applies with this (p, k, d).
    """
    _check(numtheory.is_prime(p), f"p must be a proven prime, got {p}")
    _check(k >= 1 and d >= 1, "need k >= 1 and d >= 1")
    _check(m >= 2, f"need m >= 2, got {m}")
    _check(d % p != 0, f"p={p} must not divide d={d}")
    _check(sign in (1, -1), "sign must be +-1")
    tail = [int(a) for a in tail]
    _check(len(tail) == m, f"need exactly m={m} tail coefficients, got {len(tail)}")
    _check(tail[-1] != 0, "leading coefficient must be nonzero")
    biggest = max(abs(a) * d ** (i - 1) for i, a in enumerate(tail, start=1))
    _check(
        p**k > m * biggest,
        f"dominance condition fails: p^k={p**k} <= m*max = {m * biggest}",
    )
    f = Polynomial([sign * p**k * d] + tail)
    _check(is_primitive(f), "generated polynomial is not primitive")
    return f


def gen_p3(
    p: int, k: int, d: int, m: int, a0: int, middle: Sequence[int], sign: int = 1
) -> Polynomial:
    """a_0 + ... + a_(m-1) z^(m-1) +- (p^k d) z^m with a dominant constant
    term and the size condition |a_0 / q| <= p^k d (q = smallest prime
    divisor of a_0), so the leading-coefficient criterion applies."""
    _check(numtheory.is_prime(p), f"p must be a proven prime, got {p}")
    _check(k >= 1 and d >= 1, "need k >= 1 and d >= 1")
    _check(m >= 2, f"need m >= 2, got {m}")
    _check(d % p != 0, f"p={p} must not divide d={d}")
    _check(sign in (1, -1), "sign must be +-1")
    _check(a0 != 0, "a0 must be nonzero")
    middle = [int(a) for a in middle]
    _check(len(middle) == m - 1, f"need m-1={m - 1} middle coefficients, got {len(middle)}")
    lead = p**k * d
    candidates = [abs(a) * d**i for i, a in enumerate(middle, start=1)]
    candidates.append(p**k * d ** (m + 1))
    biggest = max(candidates)
    _check(
        abs(a0) > m * biggest,
        f"dominance condition fails: |a0|={abs(a0)} <= m*max = {m * biggest}",
    )
    q = numtheory.prime_factors(abs(a0))[0][0]
    _check(
        abs(a0) <= q * lead,
        f"size condition fails: |a0/q| = {abs(a0)}/{q} > p^k d = {lead}",
    )
    f = Polynomial([a0] + middle + [sign * lead])
    _check(is_primitive(f), "generated polynomial is not primitive")
    return f


def gen_p4(
    a: int, b: int, m: int, j: int, signs: Sequence[int] | None = None
) -> Polynomial:
    """1 +- a z +- a^2 z^2 +- ... +- a^(j-1) z^(j-1) +- (a^j - b^j + 1) z^j
    +- b z^m, with m >= 3, 1 <= j <= m-1, and b < a - b.

    The z^j coefficient dominates, so the dominant-coefficient criterion
    fires with divisor b and delta = 1/b, bounding the factor count by m - j.
    signs, when given, lists the j+1 sign choices for powers 1..j and m.
    """
    _check(m >= 3, f"need m >= 3, got {m}")
    _check(1 <= j <= m - 1, f"need 1 <= j <= m-1, got j={j}")
    _check(a >= 1 and b >= 1, "need a, b >= 1")
    _check(b < a - b, f"need b < a - b, got b={b}, a-b={a - b}")
    if signs is None:
        signs = [1] * (j + 1)
    signs = [int(s) for s in signs]
    _check(len(signs) == j + 1, f"need {j + 1} sign choices, got {len(signs)}")
    _check(all(s in (1, -1) for s in signs), "signs must be +-1")
    # the dominance inequality scaled by b^(m-1-j):
    # (a^j - b^j + 1) b^(m-1-j) > b^(m-j) (a^j - b^j)/(a-b) + 1
    lhs = (a**j - b**j + 1) * b ** (m - 1 - j)
    geo = sum(a**i * b ** (j - i) for i in range(j))  # == b (a^j - b^j)/(a-b)
    rhs = geo * b ** (m - 1 - j) + 1
    _check(lhs > rhs, f"dominance condition fails: {lhs} <= {rhs}")
    coeffs = [0] * (m + 1)
    coeffs[0] = 1
    for i in range(1, j):
        coeffs[i] = signs[i - 1] * a**i
    coeffs[j] = signs[j - 1] * (a**j - b**j + 1)
    coeffs[m] = signs[j] * b
    return Polynomial(coeffs)


# Each family's generator and the names of its parameters.
FAMILIES = {
    "P1": (gen_p1, ("p", "m", "n", "sign")),
    "P2": (gen_p2, ("p", "k", "d", "m", "tail", "sign")),
    "P3": (gen_p3, ("p", "k", "d", "m", "a0", "middle", "sign")),
    "P4": (gen_p4, ("a", "b", "m", "j", "signs")),
}


def gen_family(name: str, params: dict) -> Polynomial:
    """Build a member of family `name` from its parameters, validating all
    conditions."""
    if name not in FAMILIES:
        raise FamilyConditionError(f"unknown family {name!r}")
    fn, names = FAMILIES[name]
    unknown = set(params) - set(names)
    if unknown:
        raise FamilyConditionError(
            f"unknown parameters for {name}: {', '.join(sorted(unknown))}"
        )
    return fn(**params)


# Most coefficient tuples (before the gcd filter) an exhaustive corpus may span: about
# six days of audit at 20,000 polynomials/s, above degree <= 8, |coeff| <= 5 (1.07e9).
MAX_CORPUS_SIZE = 10**10


def gen_exhaustive(max_degree: int, coeff_bound: int) -> Iterator[Polynomial]:
    """All primitive polynomials with nonzero constant term, degree in
    [1, max_degree], coefficients in [-coeff_bound, coeff_bound], one
    representative per global-sign pair (leading coefficient positive).
    Deterministic order: degree ascending, coefficient tuples lexicographic
    with the lowest coefficient varying slowest. Each product tuple already
    holds ints with a positive last entry, so it becomes a Polynomial as it
    is. Bounds past MAX_CORPUS_SIZE tuples are refused before any is built."""
    if max_degree < 1:
        raise ValueError(f"invalid bound: max degree must be >= 1, got {max_degree}")
    if coeff_bound < 1:
        raise ValueError(f"invalid bound: coefficient bound must be >= 1, got {coeff_bound}")
    bound = coeff_bound
    # sum over degrees d of 2B (2B+1)^(d-1) B tuples is B ((2B+1)^D - 1);
    # capping D at 64 keeps the power small and changes no verdict (3^64 > limit)
    if bound * ((2 * bound + 1) ** min(max_degree, 64) - 1) > MAX_CORPUS_SIZE:
        raise ValueError(f"invalid bound: degree <= {max_degree}, |coeff| <= {bound} "
                         f"spans more than {MAX_CORPUS_SIZE} coefficient tuples")
    nonzero = [c for c in range(-bound, bound + 1) if c != 0]
    full = range(-bound, bound + 1)
    lead = range(1, bound + 1)
    gcd, make = math.gcd, Polynomial._from_canonical
    for degree in range(1, max_degree + 1):
        ranges = [nonzero] + [full] * (degree - 1) + [lead]
        for tup in itertools.product(*ranges):
            if gcd(*tup) == 1:
                yield make(tup)


def gen_random(
    count: int, max_degree: int, coeff_bound: int, seed: int
) -> list[Polynomial]:
    """Seeded random primitive polynomials with nonzero constant and leading
    coefficients (rejection sampling; identical seed, identical list)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if max_degree < 1 or coeff_bound < 1:
        raise ValueError("invalid bound")
    rng = random.Random(seed)
    out: list[Polynomial] = []
    while len(out) < count:
        degree = rng.randint(1, max_degree)
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree + 1)]
        if coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        if math.gcd(*coeffs) != 1:
            continue
        out.append(Polynomial(coeffs))
    return out
