"""Kronecker factorization oracle: factor, count, verify."""

import time

import pytest

from irreducia import criteria, numtheory, oracle, poly
from irreducia.corpus import gen_random
from irreducia.criteria import AnalyzeConfig, analyze
from irreducia.oracle import (
    FactorizationResult,
    OracleLimitError,
    count_irreducible_factors,
    factor,
    verify,
)
from irreducia.poly import Polynomial, rational_roots


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

    def test_degree_8_search_picks_nodes_with_few_divisors(self):
        # this input's values at the first nine sample points have so many
        # divisors that a search with those points as nodes exhausts the
        # 10^7-step budget (about 45 s); the pool offers points with fewer
        f = P(99792000, 43046721, -99999999, 720720, 720720, -67108864, -720720, 67108864, 1)
        start = time.perf_counter()
        report = analyze(f, AnalyzeConfig(oracle="on"))
        assert time.perf_counter() - start < 5.0
        assert report.oracle_result.factors == ((f, 1),)


class TestNoSharedRootFinder:
    # the audit checks the criteria's rational-root scan against the oracle,
    # so the oracle must find linear factors on its own

    @pytest.mark.parametrize("f, expected", [
        (P(1, 2) ** 2 * P(1, 1, 1), ((P(1, 2), 2), (P(1, 1, 1), 1))),
        (P(-3, 1) * P(2, 3) * P(0, 0, 1), ((P(-3, 1), 1), (P(0, 1), 2), (P(2, 3), 1))),
        (P(1, 2) ** 4, ((P(1, 2), 4),)),
    ])
    def test_factor_and_verify_without_rational_roots(self, monkeypatch, f, expected):
        def refuse(f):
            raise AssertionError("rational_roots called")

        for module in (poly, criteria, oracle):
            monkeypatch.setattr(module, "rational_roots", refuse)
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
        assert count_irreducible_factors(P(-1, 0, 0, 0, 1)) == 3  # z^4 - 1
        assert count_irreducible_factors(P(4, 4, 0, 1)) == 1
        assert count_irreducible_factors(P(0, 0, 1) * P(1, 1)) == 3  # z, z, z+1

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


class TestMultiplicativity:
    def test_products(self):
        fs = gen_random(40, 4, 3, seed=21)
        gs = gen_random(40, 4, 3, seed=22)
        for f, g in zip(fs, gs):
            prod = f * g
            assert count_irreducible_factors(prod) == (
                count_irreducible_factors(f) + count_irreducible_factors(g)
            ), (f, g)
