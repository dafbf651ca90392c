"""Kronecker factorization oracle: prime-value test, factor, count, verify."""

import random
import time

import pytest

from irreducia import numtheory, oracle, poly
from irreducia.corpus import gen_exhaustive, gen_random
from irreducia.criteria import AnalyzeConfig, analyze
from irreducia.oracle import (
    FactorizationResult,
    OracleLimitError,
    factor,
    verify,
)
from irreducia.poly import Polynomial, is_primitive, rational_roots


def P(*coeffs):
    return Polynomial(coeffs)


class TestFactor:
    def test_difference_of_squares(self):
        result = factor(P(-1, 0, 1))
        assert result.content == 1
        assert result.factors == ((P(-1, 1), 1), (P(1, 1), 1))

    def test_non_monic_split(self):
        result = factor(P(1, 5, 6))
        assert result.factors == ((P(1, 2), 1), (P(1, 3), 1))

    def test_irreducible_cubic(self):
        result = factor(P(4, 4, 0, 1))
        assert result.factors == ((P(4, 4, 0, 1), 1),)

    def test_content_and_z_power(self):
        f = P(0, 0, -4, -8, -4)  # -4 z^2 (z+1)^2
        result = factor(f)
        assert result.content == -4
        assert result.factors == ((P(0, 1), 2), (P(1, 1), 2))
        assert result.recompose() == f

    def test_quartic_into_quadratics(self):
        f = P(1, 0, 1) * P(2, 1, 3)
        result = factor(f)
        assert result.factors == ((P(1, 0, 1), 1), (P(2, 1, 3), 1))

    def test_repeated_quadratic(self):
        f = P(1, 0, 1) ** 2 * P(2, 1, 1)
        result = factor(f)
        assert dict((g, m) for g, m in result.factors) == {P(1, 0, 1): 2, P(2, 1, 1): 1}

    def test_cubic_pair_degree_six(self):
        f = P(1, 1, 0, 1) * P(1, 0, 1, 1)
        result = factor(f)
        assert {g for g, _ in result.factors} == {P(1, 1, 0, 1), P(1, 0, 1, 1)}

    def test_canonical_order(self):
        result = factor(P(0, -2, 2))  # 2z(z - 1) with negative content twist
        degrees = [g.degree for g, _ in result.factors]
        assert degrees == sorted(degrees)
        coeff_lists = [g.coeffs for g, _ in result.factors if g.degree == 1]
        assert coeff_lists == sorted(coeff_lists)

    def test_degree_limit(self):
        with pytest.raises(OracleLimitError, match="degree"):
            factor(Polynomial([1] + [0] * 9 + [1]))

    def test_coeff_limit(self):
        with pytest.raises(OracleLimitError, match="coefficient"):
            factor(P(10**9, 1))  # above the 10^8 bound

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_STEP_BUDGET", 3)
        f = P(1, 1, 0, 1) * P(1, 0, 1, 1) * P(1, 1)
        with pytest.raises(OracleLimitError, match="budget"):
            factor(f)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(Polynomial())

    def test_factorization_limit_on_a_sample_value(self, monkeypatch):
        # (z^2 + 1)(z^2 + 2) goes to Kronecker's search, which factors its
        # value 30 at z = 2; no criterion asks for 30, which is no coefficient
        real = numtheory.prime_factors

        def resisting(n):
            if n == 30:
                raise numtheory.FactorizationLimitError("factorization limit reached on 30")
            return real(n)

        monkeypatch.setattr(numtheory, "prime_factors", resisting)
        f = P(2, 0, 3, 0, 1)
        with pytest.raises(OracleLimitError) as exc:
            factor(f)
        assert str(exc.value).startswith("oracle limit: factorization limit")
        # auto mode skips the oracle with a warning, not an error
        report = analyze(f, AnalyzeConfig(oracle="auto"))
        assert report.oracle_result is None
        assert "oracle skipped: oracle limit: factorization limit reached on 30" in report.warnings

    def test_degree_8_search_picks_nodes_with_few_divisors(self):
        # this input's values at the first nine sample points have so many
        # divisors that a search with those points as nodes exhausts the
        # 10^7-step budget (about 45 s); the e + 7 points sampled at degree e
        # offer points with fewer
        f = P(99792000, 43046721, -99999999, 720720, 720720, -67108864, -720720, 67108864, 1)
        start = time.perf_counter()
        report = analyze(f, AnalyzeConfig(oracle="on"))
        assert time.perf_counter() - start < 5.0
        assert report.oracle_result.factors == ((f, 1),)


class TestKroneckerSearch:
    def test_root_after_a_value_that_resists_factorization(self):
        # h(0) = -3N, and N = (2^61 - 1)(2^89 - 1) is out of rho's reach;
        # h vanishes at 3, the sixth sample point, so nothing is factorized
        n = (2**61 - 1) * (2**89 - 1)
        h = P(-3, 1) * P(n, 0, 1)
        start = time.perf_counter()
        found = oracle._kronecker_search(h, oracle._Budget(oracle.DEFAULT_STEP_BUDGET))
        assert time.perf_counter() - start < 0.5
        assert found == (P(-3, 1), P(n, 0, 1))

    def test_nodes_are_chosen_afresh_at_each_degree(self):
        # the two fewest-divisor points among the first eight are 0, 1; among
        # the first nine, -4 sorts between them, so the degree-2 nodes are
        # 0, -4, 1 in that order. The step count pins the order: keeping
        # 0, 1 first and adding -4 last costs 201 steps, not 108
        h = P(-3, 4, 1) * P(2, 5, 1)
        budget = oracle._Budget(oracle.DEFAULT_STEP_BUDGET)
        assert oracle._kronecker_search(h, budget) == (P(-3, 4, 1), P(2, 5, 1))
        assert oracle.DEFAULT_STEP_BUDGET - budget.remaining == 108


class TestNoSharedRootFinder:
    # the audit checks the criteria's rational-root scan against the oracle,
    # so the oracle must find linear factors on its own

    @pytest.mark.parametrize("f, expected", [
        (P(1, 2) ** 2 * P(1, 1, 1), ((P(1, 2), 2), (P(1, 1, 1), 1))),
        (P(-3, 1) * P(2, 3) * P(0, 0, 1), ((P(-3, 1), 1), (P(0, 1), 2), (P(2, 3), 1))),
        (P(1, 2) ** 4, ((P(1, 2), 4),)),
    ])
    def test_factor_and_verify_without_rational_roots(self, monkeypatch, f, expected):
        def refuse(*args):
            raise AssertionError("rational_roots called")

        for module in (poly, oracle):
            monkeypatch.setattr(module, "rational_roots", refuse)
        for name in ("_rational_roots", "_has_rational_root"):  # the search and the criteria's flag
            monkeypatch.setattr(poly, name, refuse)
        result = factor(f)
        assert result.factors == expected
        assert result.content == 1
        assert verify(result, f)

    def test_linear_factor_with_many_divisors_at_both_ends(self):
        # 73513440 has 768 divisors: a scan of p/q candidates takes about
        # 0.2 s, the degree-1 Kronecker search a fraction of a millisecond
        f = P(73513440, 1, 73513440)
        numtheory._factor_positive.cache_clear()
        start = time.process_time()
        result = factor(f)
        assert time.process_time() - start < 0.05
        assert result.factors == ((f, 1),)


class TestCount:
    def test_examples(self):
        assert factor(P(-1, 0, 0, 0, 1)).nonconstant_factor_count() == 3  # z^4 - 1
        assert factor(P(4, 4, 0, 1)).nonconstant_factor_count() == 1
        assert factor(P(0, 0, 1) * P(1, 1)).nonconstant_factor_count() == 3  # z, z, z+1

    def test_factor_degrees_leave_out_z_and_the_content(self):
        result = factor(P(0, 0, 3) * P(1, 1) ** 2 * P(1, 0, 1))  # 3 z^2 (z+1)^2 (z^2+1)
        assert result.factor_degrees() == (1, 1, 2)
        assert result.nonconstant_factor_count() == 5
        assert factor(P(0, 1)).factor_degrees() == ()

    def test_linear_factors_match_rational_roots(self):
        for f in gen_random(80, 4, 3, seed=3):
            result = factor(f)
            linear = sum(m for g, m in result.factors if g.degree == 1)
            # multiplicity-weighted count of rational roots
            expected = 0
            for root in rational_roots(f):
                lin = Polynomial([-root.numerator, root.denominator])
                rem = f
                while True:
                    from irreducia.poly import divides_exactly

                    q = divides_exactly(lin, rem)
                    if q is None:
                        break
                    expected += 1
                    rem = q
            assert linear == expected, f


def _random_product(rng):
    """g * k with g, k primitive of degree 1-3 and coefficients in [-30, 30]."""
    def primitive_factor():
        while True:
            degree = rng.randint(1, 3)
            g = Polynomial([rng.randint(-30, 30) for _ in range(degree)] + [rng.randint(1, 30)])
            if is_primitive(g):
                return g

    return primitive_factor() * primitive_factor()


class TestPrimeValueCertificate:
    def test_certifies_no_product(self):
        rng = random.Random(18)
        for _ in range(20_000):
            h = _random_product(rng)
            assert not oracle._prime_value_certifies(h), h

    def test_cofactor_of_the_prime_may_exceed_one(self):
        # z^2 + z + 2 is even at every integer; R = 3, and at x = -5 the
        # value 22 = 2 * 11 has d = 2 <= n - R
        assert oracle._root_radius(P(2, 1, 1)) == 3
        assert oracle._prime_value_certifies(P(2, 1, 1))

    def test_factor_agrees_with_kronecker_alone(self, monkeypatch):
        corpus = list(gen_exhaustive(4, 4))
        assert len(corpus) == 24_912
        results = [factor(f) for f in corpus]
        monkeypatch.setattr(oracle, "_prime_value_certifies", lambda h: False)
        assert [factor(f) for f in corpus] == results

    def test_verify_runs_kronecker_alone(self, monkeypatch):
        def refuse(h):
            raise AssertionError("prime-value test called")

        f = P(4, 4, 0, 1) * P(1, 1)
        result = factor(f)
        monkeypatch.setattr(oracle, "_prime_value_certifies", refuse)
        assert verify(result, f)
        assert not verify(FactorizationResult(content=1, factors=((f, 1),)), f)


class TestVerify:
    def test_round_trip_on_corpus(self):
        for f in gen_random(60, 5, 4, seed=11):
            assert verify(factor(f), f)

    def test_wrong_factors_rejected(self):
        good = factor(P(1, 5, 6))
        bad = good._replace(factors=((P(1, 2), 1), (P(1, 4), 1)))
        assert not verify(bad, P(1, 5, 6))

    def test_smuggled_content_rejected(self):
        good = factor(P(1, 5, 6))
        bad = good._replace(content=2)
        assert not verify(bad, P(1, 5, 6))

    def test_imprimitive_factor_rejected(self):
        f = P(2, 0, 2)
        bad = FactorizationResult(content=1, factors=((P(2, 0, 2), 1),))
        assert not verify(bad, f)

    def test_reducible_factor_rejected(self):
        f = P(-1, 0, 1)
        bad = FactorizationResult(content=1, factors=((f, 1),))
        assert not verify(bad, f)

    def test_negative_leading_factor_rejected(self):
        f = P(-1, 0, 1)
        bad = FactorizationResult(
            content=-1, factors=((P(1, -1), 1), (P(1, 1), 1))
        )
        assert not verify(bad, f) or bad.recompose() != f

    @pytest.mark.parametrize("extra", [(P(1), 1), (P(0, 1), 0)])
    def test_unit_factor_or_zero_multiplicity_rejected(self, extra):
        # either extra entry leaves the product z^2 - 1 as it was
        f = P(-1, 0, 1)
        good = factor(f)
        bad = good._replace(factors=good.factors + (extra,))
        assert verify(good, f) and bad.recompose() == f
        assert not verify(bad, f)

    def test_factorization_limit_is_a_rejection(self, monkeypatch):
        f = P(2, 0, 3, 0, 1)  # (z^2 + 1)(z^2 + 2)
        result = factor(f)
        assert verify(result, f)

        def resisting(n):
            raise numtheory.FactorizationLimitError(f"factorization limit reached on {n}")

        # Kronecker's search on each factor factors its sample values
        monkeypatch.setattr(numtheory, "prime_factors", resisting)
        assert verify(result, f) is False


class TestMultiplicativity:
    def test_products(self):
        fs = gen_random(40, 4, 3, seed=21)
        gs = gen_random(40, 4, 3, seed=22)
        for f, g in zip(fs, gs):
            prod = f * g
            assert factor(prod).nonconstant_factor_count() == (
                factor(f).nonconstant_factor_count() + factor(g).nonconstant_factor_count()
            ), (f, g)
