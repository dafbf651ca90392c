"""Generators for the built-in polynomial families P1-P4 and for the
exhaustive and seeded-random audit corpora. The exhaustive corpus comes one
polynomial at a time (`gen_exhaustive`) or one sign class at a time
(`gen_sign_classes`, `sign_class`): the polynomials that share |a_0|, ...,
|a_m|, with a_m > 0.

Family generation is strict: each side condition is checked exactly, and a
failed one raises FamilyConditionError naming it. No check builds a power past
|a_0| d: P2 and P3 share one dominance test, and P4's follows from b < a - b.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from typing import Iterator, Sequence

from . import numtheory
from .poly import Polynomial, PolyParseError, _check_degree, _int_text, _refuse_digits, is_primitive


class FamilyConditionError(ValueError):
    """A family parameter set violates one of its side conditions."""


def _check(condition: bool, message: str, *values) -> None:
    """FamilyConditionError unless condition holds; only then is the message
    formatted, with an int past Python's digit limit named by its digit count."""
    if not condition:
        raise FamilyConditionError(message.format(*map(_int_text, values)))


def _check_size(m: int, power: int, base: int, exponent: int, factor: int = 1) -> None:
    """parse_poly's limits on m and on factor * base^exponent (at z^power), before it is built."""
    _check_degree(m)
    if exponent.bit_length() > 1000:  # past the float range; 2^exponent has > 10^300 digits
        raise PolyParseError(f"coefficient of z^{power} has more than 10^300 digits")
    _refuse_digits(power, int(exponent * math.log10(base) + math.log10(factor)) + 1)


def _check_prime_power(p: int, k: int, d: int, m: int, sign: int, power: int) -> None:
    """The side conditions P2 and P3 share: p^k d with p prime, k, d >= 1
    and p missing d, degree m >= 2, a sign +-1, and _check_size on p^k d."""
    _check(numtheory.is_prime(p), "p must be a proven prime, got {}", p)
    _check(k >= 1 and d >= 1, "need k >= 1 and d >= 1")
    _check(m >= 2, "need m >= 2, got {}", m)
    _check(d % p != 0, "p={} must not divide d={}", p, d)
    _check(sign in (1, -1), "sign must be +-1")
    _check_size(m, power, p, k, d)


def _check_dominance(coeffs: list[int], d: int) -> None:
    """P2's and P3's |a_0| > m |a_i| d^i for i = 1..m; no power past |a_0| d is built."""
    a0, m, power = abs(coeffs[0]), len(coeffs) - 1, 1
    for i, a in enumerate(coeffs[1:], start=1):
        power *= d
        if power >= a0:  # then the z^m term fails, as a_m != 0
            i = m
        elif m * abs(a) * power < a0:
            continue
        raise FamilyConditionError(f"dominance condition fails at z^{i}: |a_0| <= m |a_{i}| d^{i}")


def gen_p1(p: int, m: int, n: int, sign: int = 1) -> Polynomial:
    """p^(m-1) * (1 + z + ... + z^(n-1)) +- z^m for a prime p, m >= n >= 2.

    The constant block carries p^(m-1) exactly, the leading coefficient is a
    unit, and gcd(m-1, m) = 1, so the prime-power prefix criterion applies
    with j = m and certifies irreducibility.
    """
    _check(numtheory.is_prime(p), "p must be a proven prime, got {}", p)
    _check(m >= n >= 2, "need m >= n >= 2, got m={}, n={}", m, n)
    _check(sign in (1, -1), "sign must be +-1")
    _check_size(m, 0, p, m - 1)
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
    _check_prime_power(p, k, d, m, sign, 0)
    tail = [int(a) for a in tail]
    _check(len(tail) == m, "need exactly m={} tail coefficients, got {}", m, len(tail))
    _check(tail[-1] != 0, "leading coefficient must be nonzero")
    coeffs = [sign * p**k * d] + tail
    _check_dominance(coeffs, d)
    f = Polynomial(coeffs)
    _check(is_primitive(f), "generated polynomial is not primitive")
    return f


def gen_p3(
    p: int, k: int, d: int, m: int, a0: int, middle: Sequence[int], sign: int = 1
) -> Polynomial:
    """a_0 + ... + a_(m-1) z^(m-1) +- (p^k d) z^m with a dominant constant
    term and the size condition |a_0 / q| <= p^k d (q = smallest prime
    divisor of a_0), so the leading-coefficient criterion applies."""
    _check_prime_power(p, k, d, m, sign, m)
    _check(a0 != 0, "a0 must be nonzero")
    middle = [int(a) for a in middle]
    _check(len(middle) == m - 1, "need m-1={} middle coefficients, got {}", m - 1, len(middle))
    lead = p**k * d
    coeffs = [a0] + middle + [sign * lead]
    _check_dominance(coeffs, d)
    q = numtheory.least_prime_factor(abs(a0))
    _check(abs(a0) <= q * lead, "size condition fails: |a0/q| = {}/{} > p^k d = {}",
           abs(a0), q, lead)
    f = Polynomial(coeffs)
    _check(is_primitive(f), "generated polynomial is not primitive")
    return f


def gen_p4(
    a: int, b: int, m: int, j: int, signs: Sequence[int] | None = None
) -> Polynomial:
    """1 +- a z +- a^2 z^2 +- ... +- a^(j-1) z^(j-1) +- (a^j - b^j + 1) z^j
    +- b z^m, with m >= 3, 1 <= j <= m-1, and b < a - b.

    The z^j coefficient dominates, so the dominant-coefficient criterion
    fires with divisor b and delta = 1/b, bounding the factor count by m - j.
    b < a - b implies its inequality: (a^j - b^j + 1) - sum_{i<j} a^i b^(j-i)
    = (a^j - b^j)(a - 2b)/(a - b) + 1 >= 2.
    signs, when given, lists the j+1 sign choices for powers 1..j and m.
    """
    _check(m >= 3, "need m >= 3, got {}", m)
    _check(1 <= j <= m - 1, "need 1 <= j <= m-1, got j={}", j)
    _check(a >= 1 and b >= 1, "need a, b >= 1")
    _check_size(m, j, a, j)
    _check(b < a - b, "need b < a - b, got b={}, a-b={}", b, a - b)
    if signs is None:
        signs = [1] * (j + 1)
    signs = [int(s) for s in signs]
    _check(len(signs) == j + 1, "need {} sign choices, got {}", j + 1, len(signs))
    _check(all(s in (1, -1) for s in signs), "signs must be +-1")
    coeffs = [0] * (m + 1)
    coeffs[0] = 1
    for i in range(1, j):
        coeffs[i] = signs[i - 1] * a**i
    coeffs[j] = signs[j - 1] * (a**j - b**j + 1)
    coeffs[m] = signs[j] * b
    return Polynomial(coeffs)


# Each family's generator; its signature names the family's parameters.
FAMILIES = {"P1": gen_p1, "P2": gen_p2, "P3": gen_p3, "P4": gen_p4}


def gen_family(name: str, params: dict) -> Polynomial:
    """Build a member of family `name` from its parameters, validating all
    conditions. The generator's signature names the parameters: one it lacks
    is refused, and those it gives no default (all but the signs) are required."""
    _check(name in FAMILIES, "unknown family {!r}", name)
    parameters = inspect.signature(FAMILIES[name]).parameters
    missing = [key for key, param in parameters.items()
               if param.default is param.empty and key not in params]
    _check(not missing, "family {} needs --{}", name, ", --".join(missing))
    unknown = params.keys() - parameters.keys()
    _check(not unknown, "unknown parameters for {}: {}", name, ", ".join(sorted(unknown)))
    return FAMILIES[name](**params)


# Most coefficient tuples (before the gcd filter) an exhaustive corpus may span: about
# six days of audit at 20,000 polynomials/s, above degree <= 8, |coeff| <= 5 (1.07e9).
MAX_CORPUS_SIZE = 10**10


def _check_bounds(max_degree: int, coeff_bound: int) -> None:
    """ValueError naming a max degree or a coefficient bound below 1."""
    if max_degree < 1:
        raise ValueError(f"invalid bound: max degree must be >= 1, got {max_degree}")
    if coeff_bound < 1:
        raise ValueError(f"invalid bound: coefficient bound must be >= 1, got {coeff_bound}")


def _check_corpus(max_degree: int, coeff_bound: int) -> None:
    """_check_bounds, then ValueError for a corpus past MAX_CORPUS_SIZE tuples."""
    _check_bounds(max_degree, coeff_bound)
    bound = coeff_bound
    # sum over degrees d of 2B (2B+1)^(d-1) B tuples is B ((2B+1)^D - 1);
    # capping D at 64 keeps the power small and changes no verdict (3^64 > limit)
    if bound * ((2 * bound + 1) ** min(max_degree, 64) - 1) > MAX_CORPUS_SIZE:
        raise ValueError(f"invalid bound: degree <= {max_degree}, |coeff| <= {bound} "
                         f"spans more than {MAX_CORPUS_SIZE} coefficient tuples")


def gen_exhaustive(max_degree: int, coeff_bound: int) -> Iterator[Polynomial]:
    """All primitive polynomials with nonzero constant term, degree in
    [1, max_degree], coefficients in [-coeff_bound, coeff_bound], one
    representative per global-sign pair (leading coefficient positive).
    Deterministic order: degree ascending, coefficient tuples lexicographic
    with the lowest coefficient varying slowest. Each product tuple already
    holds ints with a positive last entry, so it becomes a Polynomial as it
    is. The bounds are checked at the call, so bounds past MAX_CORPUS_SIZE
    tuples are refused before any is built or any worker is started."""
    _check_corpus(max_degree, coeff_bound)
    return _enumerate_exhaustive(max_degree, coeff_bound)


def _enumerate_exhaustive(max_degree: int, bound: int) -> Iterator[Polynomial]:
    nonzero = [c for c in range(-bound, bound + 1) if c != 0]
    full = range(-bound, bound + 1)
    lead = range(1, bound + 1)
    gcd, make = math.gcd, Polynomial._from_canonical
    for degree in range(1, max_degree + 1):
        ranges = [nonzero] + [full] * (degree - 1) + [lead]
        for tup in itertools.product(*ranges):
            if gcd(*tup) == 1:
                yield make(tup)


def gen_sign_classes(max_degree: int, coeff_bound: int) -> Iterator[tuple[int, ...]]:
    """The sign classes of `gen_exhaustive`'s corpus, each once: every
    magnitude tuple (|a_0|, ..., |a_m|) with |a_0|, |a_m| >= 1 and gcd 1, by
    degree ascending, then lexicographically. `sign_class` lists a class's
    members. The bounds are checked at the call, as `gen_exhaustive` checks
    them, so an oversized corpus is refused before any tuple is built."""
    _check_corpus(max_degree, coeff_bound)
    nonzero, full = range(1, coeff_bound + 1), range(coeff_bound + 1)
    return (tup for degree in range(1, max_degree + 1)
            for tup in itertools.product(nonzero, *[full] * (degree - 1), nonzero)
            if math.gcd(*tup) == 1)


def sign_class(mags: tuple[int, ...]) -> list[Polynomial]:
    """The members of `gen_exhaustive`'s corpus with these magnitudes, the
    last one positive: one per choice of sign of each nonzero coefficient
    below the leading one, in `gen_exhaustive`'s order."""
    choices = [(-a, a) if a else (0,) for a in mags[:-1]]
    choices.append(mags[-1:])
    make = Polynomial._from_canonical
    return [make(tup) for tup in itertools.product(*choices)]


def gen_random(count: int, max_degree: int, coeff_bound: int, seed: int) -> Iterator[Polynomial]:
    """Seeded random primitive polynomials with nonzero constant and leading
    coefficients, yielded as drawn (rejection sampling; identical seed,
    identical sequence). The bounds are checked at the call."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_bounds(max_degree, coeff_bound)
    _check_degree(max_degree)
    return _draw_random(count, max_degree, coeff_bound, random.Random(seed))


def _draw_random(count: int, max_degree: int, bound: int, rng: random.Random) -> Iterator[Polynomial]:
    while count:
        degree = rng.randint(1, max_degree)
        coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        if coeffs[0] and coeffs[-1] and math.gcd(*coeffs) == 1:
            count -= 1
            yield Polynomial(coeffs)
