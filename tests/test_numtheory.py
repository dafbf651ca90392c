"""Prime decompositions, valuations, divisor enumeration."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

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


@pytest.fixture
def rho_calls(monkeypatch):
    """Each call of _pollard_rho as (n, start, result), with the
    factorization cache emptied before and after the test."""
    calls, rho = [], numtheory._pollard_rho

    def recording(n, start, steps):
        calls.append((n, start, found := rho(n, start, steps)))
        return found

    monkeypatch.setattr(numtheory, "_pollard_rho", recording)
    numtheory._factor_positive.cache_clear()
    yield calls
    numtheory._factor_positive.cache_clear()


@pytest.mark.parametrize("n, factors", [
    (1009 * 1000003, ((1009, 1), (1000003, 1))),
    (9973**2 * 1000003, ((9973, 2), (1000003, 1))),
    (1009**2 * 1013, ((1009, 2), (1013, 1))),  # the gcd 1009 * 1013 leaves 1009
    (1013 * 4294967311, ((1013, 1), (4294967311, 1))),
])
def test_primes_in_the_gcd_range_split_a_cofactor_without_rho(rho_calls, n, factors):
    # one gcd with the product of the primes in (10^3, 10^4) gives a proper
    # divisor of the cofactor, so rho never runs
    assert prime_factors(n) == factors
    assert rho_calls == []


def test_a_cofactor_of_primes_in_the_gcd_range_alone_goes_to_rho(rho_calls):
    # the gcd gives the whole cofactor, which says nothing, so rho splits it;
    # with a prime below 10^4 to find, each split is one attempt of at most
    # one batch of 128 steps
    assert prime_factors(1009 * 1013 * 9973) == ((1009, 1), (1013, 1), (9973, 1))
    assert rho_calls == [(1009 * 1013 * 9973, (2, 1), (1013, 62)),
                         (1009 * 9973, (2, 1), (1009, 126))]


@pytest.mark.parametrize("n, attempts", [
    (10007 * 1000003, [((2, 1), (10007, 126))]),
    # the first walk meets both primes in the same batch, so a second one runs
    (10007 * 10099, [((2, 1), (None, 126)), ((2, 2), (10007, 254))]),
])
def test_a_least_prime_above_the_gcd_range_reaches_rho_from_fixed_starts(rho_calls, n, attempts):
    # attempt c walks from y = 2 with constant c, so the outcome is a function of n
    assert prime_factors(n) == ((10007, 1), (n // 10007, 1))
    assert rho_calls == [(n, *attempt) for attempt in attempts]


def test_a_resisting_integer_spends_one_budget_then_reads_the_cache(monkeypatch, rho_calls):
    # the second request reads the failure back: the two together spend one
    # shortened budget, in attempts c = 1, 2, ..., on the whole integer
    monkeypatch.setattr(numtheory, "_RHO_STEPS", 1000)
    hard = (2**61 - 1) * (2**89 - 1)
    for _ in range(2):
        with pytest.raises(FactorizationLimitError, match="no factor within 1000"):
            prime_factors(hard)
    assert {n for n, _, _ in rho_calls} == {hard}
    assert sum(spent for _, _, (_, spent) in rho_calls) == 1000
    assert [start for _, start, _ in rho_calls] == [(2, c) for c in range(1, len(rho_calls) + 1)]


def test_the_gcd_range_product_is_built_on_first_use():
    # an import pays nothing for it; the first cofactor that needs it builds it
    code = ("from irreducia import numtheory as nt; "
            "print(nt._mid_primorial.cache_info().currsize, end=' '); "
            "nt.prime_factors(1009 * 1000003); "
            "print(nt._mid_primorial.cache_info().currsize)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0 1\n"), proc.stderr


def test_first_stage_shares_the_factorization_cache():
    # the primes below 10^3 and their cofactor are one entry of the cache
    # that holds the full factorizations, so one cache_clear empties both
    n = 2**5 * 997 * 1009 * 1013
    numtheory._factor_positive.cache_clear()
    assert numtheory.small_prime_factors(n) == (((2, 5), (997, 1)), 1009 * 1013)
    assert numtheory._factor_positive.cache_info().currsize == 1
    assert prime_factors(n) == ((2, 5), (997, 1), (1009, 1), (1013, 1))
    assert numtheory._factor_positive.cache_info()[:2] == (1, 2)  # hits, misses
    numtheory._factor_positive.cache_clear()
    assert numtheory._factor_positive.cache_info().currsize == 0


def test_first_stage_leaves_the_cofactor_whole(monkeypatch):
    # no rho, no Miller-Rabin: the first stage answers for a cofactor that
    # resists, or that is a probable prime at or above PROVEN_PRIME_BOUND
    big = (2**61 - 1) * (2**60 + 33)  # resists rho
    numtheory._factor_positive.cache_clear()
    monkeypatch.setattr(numtheory, "_pollard_rho", None)  # any call would fail
    monkeypatch.setattr(numtheory, "_passes_miller_rabin", None)
    assert numtheory.small_prime_factors(997 * big) == (((997, 1),), big)
    assert numtheory.small_prime_factors(big) == ((), big)
    assert numtheory.small_prime_factors(2**200 * 3) == (((2, 200), (3, 1)), 1)
    assert numtheory.small_prime_factors(1) == ((), 1)
    assert numtheory.least_prime_factor(997 * big) == 997
    monkeypatch.undo()
    # with no prime below 10^3, the least prime needs the full factorization
    assert numtheory.least_prime_factor(1013 * 1009**2) == 1009
    numtheory._factor_positive.cache_clear()


def _first_stage_by_trial(n):
    """The primes below 10^3 of n with exponents, and the cofactor, by
    dividing by each of them in turn."""
    pairs = []
    for p in numtheory._SMALL_PRIMES:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            pairs.append((p, e))
    return tuple(pairs), n


def test_first_stage_matches_trial_division_up_to_2e5():
    # the walk over the gcd's primes stops once p^2 exceeds what is left of
    # it; the uncached function is called, so the shared cache is untouched
    first_stage = numtheory._factor_positive.__wrapped__
    spf = list(range(200_001))  # least prime factor, by sieve
    for p in range(2, 448):
        if spf[p] == p:
            for q in range(p * p, 200_001, p):
                if spf[q] == q:
                    spf[q] = p
    for n in range(1, 200_001):
        pairs, rest, r = [], 1, n
        while r > 1:
            p, e = spf[r], 0
            while r % p == 0:
                r //= p
                e += 1
            if p < 1000:
                pairs.append((p, e))
            else:
                rest *= p**e
        assert first_stage(n, False) == (tuple(pairs), rest), n


@pytest.mark.parametrize("n", [2 * 997, 991 * 997, 3**4 * 983**2, (2**61 - 1) * 997,
                               997**3, 2 * 3 * 5 * 7 * 991, 31 * 37, 31**2 * 37,
                               (2**61 - 1) * (2**60 + 33) * 2**7 * 983])
def test_first_stage_around_the_square_root_of_the_gcd(n):
    # primes of the gcd on both sides of its square root: the last one left
    # after the walk stops is taken whole, with its exponent
    assert numtheory._factor_positive.__wrapped__(n, False) == _first_stage_by_trial(n)


def test_divisor_walk_matches_positive_divisors():
    # the table up to 32 (so 31, 32), trial division to 32 and the first
    # stage to 10^3 above it (33, 64, 2 * 997), then the full factorization
    # (991 * 997, the prime 10^12 + 39): every divisor once, ascending
    for n in [*range(1, 2 * 10**4 + 1), 991 * 997, 10**12 + 39]:
        assert list(numtheory._ascending_divisors(n)) == positive_divisors(n), n
    assert numtheory._ascending_divisors(32) is numtheory._SMALL_DIVISORS[32]  # one lookup


def test_divisor_walk_reaches_a_thousand_before_a_factorization_limit(monkeypatch):
    # 6 (2^61 - 1)(2^89 - 1) resists rho: its divisors up to 10^3 come from
    # trial division and the first stage, and only the next one needs the
    # factorization; the budget is cut and the cache emptied before and
    # after, so the failure costs little and leaks to no other test
    monkeypatch.setattr(numtheory, "_RHO_STEPS", 1000)
    monkeypatch.setattr(numtheory, "_TRIAL_LIMIT", 10**4)
    numtheory._factor_positive.cache_clear()
    try:
        walk = iter(numtheory._ascending_divisors(6 * (2**61 - 1) * (2**89 - 1)))
        assert [next(walk) for _ in range(4)] == [1, 2, 3, 6]
        with pytest.raises(FactorizationLimitError):
            next(walk)
    finally:
        numtheory._factor_positive.cache_clear()
