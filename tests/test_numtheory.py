"""Prime decompositions, valuations, divisor enumeration."""

import math
import random
import time

import pytest

from irreducia import numtheory
from irreducia.numtheory import (
    DEFAULT_FACTOR_BOUND,
    FactorizationLimitError,
    factorize,
    is_prime,
    positive_divisors,
    prime_factors,
    valuation,
)


def test_factorize_examples():
    assert factorize(50).factors == ((2, 1), (5, 2))
    assert factorize(50).sign == 1
    assert factorize(-12) == factorize(-12)
    assert factorize(-12).sign == -1
    assert factorize(-12).factors == ((2, 2), (3, 1))
    assert factorize(75).factors == ((3, 1), (5, 2))
    assert factorize(1).factors == ()


def test_factorize_zero_rejected():
    with pytest.raises(ValueError):
        factorize(0)
    for n in (0, -12):  # prime_factors takes n >= 1 only
        with pytest.raises(ValueError):
            prime_factors(n)


def test_factorize_reconstruction_dense_range():
    for n in range(1, 20001):
        assert factorize(n).reconstruct() == n
        assert factorize(-n).reconstruct() == -n


def test_factorize_reconstruction_random_large():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randint(1, 10**6) * rng.choice((1, -1))
        assert factorize(n).reconstruct() == n


def test_factorize_beyond_trial_division():
    # both prime and above 10^3, where trial division stops below 2^64:
    # Miller-Rabin finds n composite and Pollard rho splits it
    n = 1000003 * 1000033
    assert factorize(n).factors == ((1000003, 1), (1000033, 1))


def _prime_in(lo, hi, rng):
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def test_primes_near_10_12_and_semiprimes_factor_quickly():
    # trial division up to the square root spends about 55 ms on each of these
    rng = random.Random(50)
    expected = {}
    for _ in range(25):
        p = _prime_in(10**12 - 10**9, 10**12, rng)
        expected[p] = ((p, 1),)
    for _ in range(25):
        p, q = sorted(_prime_in(10**6 - 10**5, 10**6 + 10**5, rng) for _ in range(2))
        expected[p * q] = ((p, 2),) if p == q else ((p, 1), (q, 1))
    numtheory._factor_positive.cache_clear()
    start = time.perf_counter()
    found = {n: factorize(n).factors for n in expected}
    elapsed = time.perf_counter() - start
    assert found == expected
    assert elapsed < 1.0


def test_products_of_primes_just_above_the_small_limit():
    # the smallest composites that trial division below 2^64 leaves whole
    primes = [p for p in range(1000, 1200) if is_prime(p)]
    for i, p in enumerate(primes):
        assert factorize(p**3).factors == ((p, 3),)
        for q in primes[i + 1:]:
            assert factorize(p * q).factors == ((p, 1), (q, 1))
            assert factorize(p * p * q).factors == ((p, 2), (q, 1))


def test_huge_power_of_a_prime_above_the_small_limit():
    # above 2^64 trial division goes on to 10^6, so rho never sees 4,206 digits
    n = 1009**1400
    numtheory._factor_positive.cache_clear()
    start = time.perf_counter()
    assert factorize(n).factors == ((1009, 1400),)
    assert time.perf_counter() - start < 1.0


def test_valuation_examples():
    assert valuation(2, 4) == 2
    assert valuation(5, 50) == 2
    assert valuation(3, 5) == 0
    assert valuation(2, -24) == 3


def test_valuation_rejects_zero_and_small_bases():
    with pytest.raises(ValueError, match="valuation of zero"):
        valuation(2, 0)
    with pytest.raises(ValueError, match="base must be at least 2"):
        valuation(1, 4)


def test_valuation_matches_factorization():
    for n in list(range(-300, 0)) + list(range(1, 301)):
        exponents = dict(factorize(n).factors)
        for p in (2, 3, 5, 7, 11):
            assert valuation(p, n) == exponents.get(p, 0)


def test_positive_divisors():
    assert positive_divisors(12) == [1, 2, 3, 4, 6, 12]
    assert positive_divisors(1) == [1]
    assert positive_divisors(-5) == [1, 5]


def test_divisor_count_and_divisibility():
    for n in range(1, 500):
        divs = positive_divisors(n)
        expected_len = 1
        for _, e in factorize(n).factors:
            expected_len *= e + 1
        assert len(divs) == expected_len
        assert all(n % d == 0 for d in divs)
        assert divs == sorted(divs)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


@pytest.mark.parametrize("n", [
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    399_165_290_221 * 798_330_580_441,  # psi_12, a strong pseudoprime to 2..37
    numtheory.PROVEN_PRIME_BOUND,  # psi_13 = 1287836182261 * 2575672364521, to 2..41
])
def test_least_strong_pseudoprimes_to_the_first_bases_are_composite(n):
    assert not is_prime(n)


def test_is_prime_says_yes_only_with_a_proof():
    # Miller-Rabin proves nothing at or above psi_13, so true primes there
    # are refused too, until a proof of their primality is implemented
    assert not is_prime(2**89 - 1)
    assert not is_prime(2**127 - 1)
    assert is_prime(2**61 - 1)


def test_is_prime_matches_a_sieve():
    # past the first two bounds of the base table, 2,047 and 1,373,653
    limit = 1_400_000
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n) != sieve[n]] == []


def _prime_near(bits, rng):
    while True:
        n = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(n):
            return n


def test_semiprimes_below_the_factor_bound_split():
    # two ~2^32 primes: the hardest composites below 2^64 for Pollard rho
    rng = random.Random(32)
    for _ in range(12):
        p, q = sorted((_prime_near(32, rng), _prime_near(32, rng)))
        assert p * q < DEFAULT_FACTOR_BOUND
        assert factorize(p * q).factors == (((p, 2),) if p == q else ((p, 1), (q, 1)))


def test_large_semiprime_hits_the_rho_budget_quickly():
    rng = random.Random(121)
    n = _prime_near(61, rng) * _prime_near(60, rng)
    start = time.perf_counter()
    with pytest.raises(FactorizationLimitError, match="factorization limit"):
        factorize(n)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("n", [
    numtheory.PROVEN_PRIME_BOUND,  # psi_13 = 1287836182261 * 2575672364521
    2**89 - 1,  # prime, but Miller-Rabin is no proof at its size
    1073741789 * (2**89 - 1),  # rho splits off the prime below 2^30 first
])
def test_probable_prime_cofactor_is_a_limit(n):
    # at or above psi_13 a cofactor that passes every base is not taken for
    # a prime, and no rho budget is spent on it
    with pytest.raises(FactorizationLimitError, match="a probable prime, not proven prime"):
        prime_factors(n)
    assert prime_factors(2**61 - 1) == ((2**61 - 1, 1),)  # below psi_13: a proof


def test_each_cofactor_below_the_factor_bound_gets_its_own_rho_budget():
    # 288 bits of primes near 2^32: every split is cheap, but together the
    # splits cost more than one budget (p^2 below 2^64 alone takes ~0.4 of
    # it after the larger cofactors have taken ~0.8)
    p, q = 4294766087, 4294187803
    numtheory._factor_positive.cache_clear()
    assert factorize(p**6 * q**3).factors == ((q, 3), (p, 6))


@pytest.mark.parametrize("e", [4, 5])
def test_each_prime_above_the_factor_bound_costs_one_rho_split(e):
    # 384 and 480 bits of two primes near 2^32: once a prime is found its
    # full power leaves every cofactor, so two splits share the budget above
    # 2^64 instead of one split per prime factor
    p, q = 4294766087, 4294187803
    numtheory._factor_positive.cache_clear()
    start = time.perf_counter()
    assert factorize(p ** (2 * e) * q**e).factors == ((q, e), (p, 2 * e))
    assert time.perf_counter() - start < 5.0
