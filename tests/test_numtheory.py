"""Prime decompositions, valuations, divisor enumeration."""

import random
import time

import pytest

from irreducia.numtheory import (
    DEFAULT_FACTOR_BOUND,
    FactorizationLimitError,
    factorize,
    is_prime,
    positive_divisors,
    primes_dividing,
    smallest_prime_divisor,
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
    n = 1000003 * 1000033  # both prime, above the trial-division cutoff
    assert factorize(n).factors == ((1000003, 1), (1000033, 1))


def test_valuation_examples():
    assert valuation(2, 4) == 2
    assert valuation(5, 50) == 2
    assert valuation(3, 5) == 0
    assert valuation(2, -24) == 3


def test_valuation_matches_factorization():
    for n in list(range(-300, 0)) + list(range(1, 301)):
        exponents = dict(factorize(n).factors)
        for p in (2, 3, 5, 7, 11):
            assert valuation(p, n) == exponents.get(p, 0)


def test_smallest_prime_divisor():
    assert smallest_prime_divisor(50) == 2
    assert smallest_prime_divisor(7) == 7
    assert smallest_prime_divisor(-15) == 3
    with pytest.raises(ValueError, match="no prime divisor"):
        smallest_prime_divisor(1)
    with pytest.raises(ValueError, match="no prime divisor"):
        smallest_prime_divisor(0)


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


def test_primes_dividing():
    assert primes_dividing(60) == [2, 3, 5]
    assert primes_dividing(-7) == [7]


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
