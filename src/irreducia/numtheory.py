"""Integer factorization utilities: prime decompositions, p-adic valuations,
divisor enumeration.

These back the witness searches of the criteria: every candidate prime comes
from the factorization of a single coefficient, so inputs stay at desk scale.
`prime_factors(n)` gives the sorted (prime, exponent) pairs of n >= 1, and is
what the criteria and `positive_divisors` read; `factorize` wraps it in a
signed PrimePowerDecomposition record. Both read one lru cache,
`_factor_positive`, which is the only memo of factorizations in the package.
It keeps failures too: each rho attempt starts from fixed values, so under
the fixed budget the outcome for each n is a function of n alone, and an
integer that resists costs one rho budget per process, whoever asks for it.
It holds two stages, so one `cache_clear` empties both. The first,
`small_prime_factors(n)`, is one gcd with the product of the primes below
10^3: those dividing n, with exponents, and the cofactor they leave; it never
raises, and a search the primes below 10^3 can settle reads it alone. The
second stage builds on it: trial division by 6k+-1 goes on to 10^6 only while
the cofactor is at or above DEFAULT_FACTOR_BOUND. A survivor that trial
division has not proved prime goes through Miller-Rabin; a composite one
is split by one gcd with the product of the primes in (10^3, 10^4) when
that gives a proper divisor, and by Pollard rho otherwise, under an
iteration budget (one per cofactor below DEFAULT_FACTOR_BOUND, one shared
by the larger ones), so every call returns or raises
FactorizationLimitError in bounded time. A cofactor at or above
PROVEN_PRIME_BOUND that passes Miller-Rabin is only a probable prime, so it
raises FactorizationLimitError too, and `is_prime` is False there, true
primes included: it says yes only with a proof, and no verdict rests on an
unproven prime. `positive_divisors(n)` lists n's divisors; `_ascending_divisors(n)`
walks them upward for a caller that stops early, factorizing n only past 10^3.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from typing import NamedTuple

# Trial-division limits. Below DEFAULT_FACTOR_BOUND, Miller-Rabin and rho
# finish a cofactor faster than dividing on to 10^6 (a prime near 10^12:
# 0.05 ms against 55 ms, Python 3.11 on a 2-vCPU VM). Above it the large limit
# stays, so that a huge power of a prime above 10^3 (say 1009**1400) is
# stripped by division, not handed to rho at thousands of digits.
_SMALL_TRIAL_LIMIT = 10**3
_TRIAL_LIMIT = 10**6

# The primes below 10^3 and their product: one gcd with it finds which of
# them divide n (Bernstein, "How to find smooth parts of integers", 2004),
# and only those are divided out.
_sieve = bytearray([1]) * _SMALL_TRIAL_LIMIT
for _p in range(2, 32):
    _sieve[_p * _p::_p] = bytes(len(_sieve[_p * _p::_p]))
_SMALL_PRIMES = tuple(p for p in range(2, _SMALL_TRIAL_LIMIT) if _sieve[p])
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)

# One more gcd, with the product of the primes in (10^3, 10^4), splits off
# those the 6k+-1 wheel has not reached before rho runs on a composite
# cofactor: 4 us on a 40-bit one, where a rho attempt takes about 15 us
# (Python 3.11 on a 2-vCPU VM). A wider range costs more per gcd: 14 us up
# to 2^15, 43 us up to 10^5.
_MID_LIMIT = 10**4


@cache
def _mid_primorial() -> int:
    """The product of the primes in (10^3, 10^4), built on first use: at
    import it would cost every process about 0.3 ms, and a call on small
    coefficients never needs it. An odd number in the range is prime when no prime below 10^2
    divides it."""
    sieve = bytearray([1]) * _MID_LIMIT
    for p in _SMALL_PRIMES[:25]:  # the primes below 10^2
        sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    return math.prod(p for p in range(_SMALL_TRIAL_LIMIT + 1, _MID_LIMIT, 2) if sieve[p])

_TABLE_TOP = 32  # _SMALL_DIVISORS[n] holds n's divisors, ascending: a walk up to it is one lookup
_SMALL_DIVISORS = tuple(tuple(b for b in range(1, n + 1) if n % b == 0)
                        for n in range(_TABLE_TOP + 1))

# Brent iterations for the rho attempts on each cofactor below
# DEFAULT_FACTOR_BOUND, and for those on all cofactors at or above it
# together. One budget spent on a 122- to 150-bit composite that resists
# takes about 0.5 s of process time (Python 3.11.7, 2-vCPU VM), more on a
# longer one. Splitting a composite below the bound takes about
# 1.25 * sqrt(p) <= 10^5 iterations for its smaller prime p < 2^32, whatever
# the trial-division limit left to rho; a larger composite may run out and
# raise.
_RHO_STEPS = 1 << 20

# Integers below this bound factor well within the rho budget; past it a
# composite with two large prime factors may raise. Coefficients in practice are
# tiny and the audit corpus guarantees it.
DEFAULT_FACTOR_BOUND = 2**64


class FactorizationLimitError(ValueError):
    """A composite resisted factorization within the configured budget."""


class PrimePowerDecomposition(NamedTuple):
    """Signed prime factorization: n = sign * prod(p**e)."""

    n: int
    sign: int
    factors: tuple[tuple[int, int], ...]

    def reconstruct(self) -> int:
        out = self.sign
        for p, e in self.factors:
            out *= p**e
        return out


# Miller-Rabin bases, and (bound, k): below bound the first k bases decide
# primality. Each bound is psi_k, the least strong pseudoprime to the first k
# bases, so the table is tight (psi_7 = psi_8, psi_9 = psi_10 = psi_11;
# Sorenson and Webster 2017). All 13 decide it below psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (
    (2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
    (2_152_302_898_747, 5), (3_474_749_660_383, 6), (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9), (318_665_857_834_031_151_167_461, 12),
)
PROVEN_PRIME_BOUND = 3_317_044_064_679_887_385_961_981  # psi_13 = 1287836182261 * 2575672364521
_MR_BASE_PRODUCT = math.prod(_MR_BASES)


def is_prime(n: int) -> bool:
    """Whether n is proven prime: False at or above PROVEN_PRIME_BOUND."""
    return n < PROVEN_PRIME_BOUND and _passes_miller_rabin(n)


def _passes_miller_rabin(n: int) -> bool:
    """Miller-Rabin to as many of the bases 2, ..., 41 as the size of n needs:
    a proof for n < PROVEN_PRIME_BOUND, a strong probable-prime test above."""
    if n < 2:
        return False
    if math.gcd(n, _MR_BASE_PRODUCT) > 1:  # a base divides n
        return n in _MR_BASES
    k = next((k for bound, k in _MR_BOUNDS if n < bound), len(_MR_BASES))
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, start: tuple[int, int], steps: int) -> tuple[int | None, int]:
    """One Brent-cycle attempt at a nontrivial factor of odd composite n,
    walking y -> y^2 + c mod n from start = (y, c), giving up once it has
    spent `steps` iterations: the walk ahead and each batch stop at the
    budget, so it never spends more. Returns the factor (None on failure)
    and the iterations spent."""
    y, c = start
    m = 128
    g = r = q = 1
    x = ys = y
    spent = 0
    while g == 1:
        x = y
        walk = min(r, steps - spent)
        for _ in range(walk):
            y = (y * y + c) % n
        spent += walk
        k = 0
        while k < r and g == 1:
            if spent >= steps:
                return None, spent
            ys = y
            batch = min(m, r - k, steps - spent)
            for _ in range(batch):
                y = (y * y + c) % n
                q = q * (x - y) % n  # gcd(-q, n) = gcd(q, n): no abs needed
            g = math.gcd(q, n)
            spent += batch
            k += m
        r *= 2
    if g == n:
        # the batch overshot: step again one by one (at most m steps)
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
    return (g if g != n else None), spent


@lru_cache(maxsize=1 << 16)
def _factor_positive(n: int, full: bool = True):
    """The (prime, exponent) pairs of n >= 1, ascending by prime, or the
    limit message when rho runs out of budget or a cofactor at or above
    PROVEN_PRIME_BOUND passes Miller-Rabin, which proves nothing there.
    With full=False, the first stage only: the pairs of the primes below
    10^3 and the cofactor they leave, whose primes are all above 10^3. The
    walk over g = gcd(n, primorial) stops once p^2 > g: g is squarefree with
    no prime below p left, so it is then 1 or one prime, the largest."""
    if not full:
        small = []
        g = math.gcd(n, _SMALL_PRIMORIAL)  # the product of the primes below 10^3 dividing n
        for p in _SMALL_PRIMES:
            if p * p > g:
                break
            if g % p == 0:
                g //= p
                small.append((p, e := valuation(p, n)))
                n //= p**e
        if g > 1:
            small.append((g, e := valuation(g, n)))
            n //= g**e
        return tuple(small), n
    small, n = _factor_positive(n, False)
    powers = dict(small)
    d = _SMALL_TRIAL_LIMIT + 1  # the 6k-1 after 997
    while d * d <= n and d <= _TRIAL_LIMIT and n >= DEFAULT_FACTOR_BOUND:
        for step in (0, 2):  # 6k-1, 6k+1 wheel
            q = d + step
            while n % q == 0:
                powers[q] = powers.get(q, 0) + 1
                n //= q
        d += 6
    # no prime below d is left, so a cofactor of n below d^2 is prime
    stack = [n] if n > 1 else []
    shared = _RHO_STEPS  # for the splits of cofactors above the bound
    while stack:
        m = stack.pop()
        if m < d * d or _passes_miller_rabin(m):
            if m >= PROVEN_PRIME_BOUND:
                return (f"factorization limit reached on {m}: "
                        "a probable prime, not proven prime")
            # take its full power out of every cofactor left, so each
            # distinct prime costs one split
            e, rest = 1, []
            for r in stack:
                while r % m == 0:
                    r //= m
                    e += 1
                if r > 1:
                    rest.append(r)
            powers[m], stack = e, rest
            continue
        # one gcd takes the primes in (10^3, 10^4) the wheel left; rho runs
        # only when they are none or all of m's primes
        g = math.gcd(m, _mid_primorial()) if d < _MID_LIMIT else 1
        if g == 1 or g == m:
            steps = _RHO_STEPS if m < DEFAULT_FACTOR_BOUND else shared
            g, c = None, 0
            while g is None and steps > 0:
                c += 1  # attempt c walks from y = 2 with this c: n alone fixes the outcome
                g, spent = _pollard_rho(m, (2, c), steps)
                steps -= spent
            if m >= DEFAULT_FACTOR_BOUND:
                shared = steps
            if g is None:
                return (f"factorization limit reached on {m}: no factor within "
                        f"{_RHO_STEPS} Pollard rho steps")
        stack.extend(sorted((g, m // g), reverse=True))  # the smaller first
    return tuple(sorted(powers.items()))


def prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending
    by prime; () for n = 1. Cached, so callers get the same tuple back;
    raises FactorizationLimitError, every time it is asked, for an n that
    resisted rho."""
    if n < 1:
        raise ValueError(f"prime_factors needs n >= 1, got {n}")
    found = _factor_positive(n)
    if isinstance(found, str):
        raise FactorizationLimitError(found)
    return found


def small_prime_factors(n: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The first stage of `prime_factors(n)` for n >= 1: the (prime,
    exponent) pairs of the primes below 10^3 that divide n, ascending, and
    the cofactor they leave. Cached with it; never raises."""
    return _factor_positive(n, False)


def least_prime_factor(n: int) -> int:
    """The least prime dividing n >= 2, from the first stage when it has one."""
    return (_factor_positive(n, False)[0] or prime_factors(n))[0][0]


def factorize(n: int) -> PrimePowerDecomposition:
    """Complete prime factorization of a nonzero integer."""
    if n == 0:
        raise ValueError("zero has no prime factorization")
    sign = 1 if n > 0 else -1
    return PrimePowerDecomposition(n=n, sign=sign, factors=prime_factors(abs(n)))


def valuation(p: int, n: int) -> int:
    """Largest e with p**e dividing n (n nonzero, p >= 2)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError("valuation base must be at least 2")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def _ascending_divisors(n: int):
    """The positive divisors of n >= 1, ascending and lazily, for a caller
    that stops early: one tuple from the table for n <= 32; above it those
    up to 32 by trial division, then those up to 10^3 from the first stage,
    and n is factorized only for a caller that reads past 10^3 (so an n that
    resists rho yields those up to 10^3 before FactorizationLimitError)."""
    return _SMALL_DIVISORS[n] if n <= _TABLE_TOP else _divisors_past_table(n)


def _divisors_past_table(n: int):
    yield from (b for b in range(1, _TABLE_TOP + 1) if n % b == 0)
    small = _divisors_up_to(_factor_positive(n, False)[0], _SMALL_TRIAL_LIMIT)
    yield from sorted(b for b in small if b > _TABLE_TOP)
    yield from (b for b in positive_divisors(n) if b > _SMALL_TRIAL_LIMIT)


def _divisors_up_to(pairs, cap: int) -> list[int]:
    """The divisors up to cap of the product of p^e over the (prime,
    exponent) pairs, unsorted."""
    divs = [1]
    for p, e in pairs:
        block = divs
        for _ in range(e):
            block = [q for b in block if (q := b * p) <= cap]
            divs = divs + block
    return divs


def positive_divisors(n: int) -> list[int]:
    """All positive divisors of |n| in increasing order (n nonzero)."""
    n = abs(n)
    return sorted(_divisors_up_to(prime_factors(n), n))
