"""Criterion witness searches, conclusions, and the aggregate analysis."""

import math
import pickle
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irreducia import criteria, numtheory, oracle, rootloc
from irreducia.corpus import gen_exhaustive, gen_random
from irreducia.criteria import (
    AnalyzeConfig,
    Conclusion,
    ConclusionKind,
    PolyFacts,
    analyze,
    constant_term_criterion,
    dominant_coefficient,
    eisenstein_generalized,
    leading_coeff_criterion,
    middle_prime_power_check,
    perron_nonmonic,
    weintraub_check,
)
from irreducia.poly import Polynomial, normalize, parse_poly
from irreducia.rootloc import CertificateMode


@pytest.fixture
def fresh_factor_cache():
    """Empty numtheory's factorization cache before and after the test, so
    what it finds (a failure under a shortened rho budget, say) does not
    reach other tests, and its counts start from nothing."""
    numtheory._factor_positive.cache_clear()
    yield numtheory._factor_positive
    numtheory._factor_positive.cache_clear()


IRR = ConclusionKind.IRREDUCIBLE
AMF = ConclusionKind.AT_MOST_FACTORS
FDB = ConclusionKind.FACTOR_DEGREE_BOUND
NONE = ConclusionKind.NO_CONCLUSION


def P(*coeffs):
    return Polynomial(coeffs)


class TestWeintraub:
    def test_classical_eisenstein_case(self):
        out = weintraub_check(PolyFacts(P(2, 2, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 2, "k0": 0}

    def test_k0_one_without_rational_root(self):
        # p = 2 misses a_1 squared; candidates +-1, +-2, +-4 are not roots
        out = weintraub_check(PolyFacts(P(4, 2, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 2, "k0": 1}

    def test_no_admissible_prime(self):
        assert weintraub_check(PolyFacts(P(-1, 0, 1))).conclusion.kind is NONE

    def test_k0_one_with_rational_root_degrades(self):
        # (z + 2)(z^2 + 2): p = 2, k0 = 1, but -2 is a root
        f = P(2, 1) * P(2, 0, 1)
        out = weintraub_check(PolyFacts(f))
        assert out.conclusion == Conclusion.factor_degree(1)

    def test_requires_primitive(self):
        with pytest.raises(ValueError, match="normalize first"):
            weintraub_check(PolyFacts(P(2, 4, 2)))

    def test_rational_root_flag_needs_no_factorization(self, monkeypatch, fresh_factor_cache):
        # a_2 = (2^61 - 1)(2^89 - 1) resists rho; k0 = 1 at p = 2 asks for
        # the rational-root flag, which needs no divisors of a_2
        def refuse(n, rng, steps):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(numtheory, "_pollard_rho", refuse)
        out = weintraub_check(PolyFacts(P(4, 2 * 3**80, (2**61 - 1) * (2**89 - 1))))
        assert out.witnesses == {"p": 2, "k0": 1}
        assert out.conclusion.kind is IRR

    def test_k0_one_on_a_square_at_degree_two(self):
        # (z + 3)^2: p = 3, k0 = 1, and the rational-root flag is asked of a
        # polynomial that is not squarefree
        out = weintraub_check(PolyFacts(P(9, 6, 1)))
        assert out.witnesses == {"p": 3, "k0": 1}
        assert out.conclusion == Conclusion.factor_degree(1)


def test_rational_root_flag_is_asked_only_of_squarefree_polynomials(monkeypatch):
    # PolyFacts.has_rational_root: weintraub at k0 = 1 and eisenstein_generalized
    # at j = m-1 have already limited f to "irreducible, or linear times
    # irreducible", squarefree beyond degree 2
    asked = []
    real = criteria.rational_roots
    monkeypatch.setattr(criteria, "rational_roots", lambda f: asked.append(f) or real(f))
    for f in gen_exhaustive(4, 4):
        facts = PolyFacts(f)
        weintraub_check(facts)
        eisenstein_generalized(facts)
    assert len(asked) > 100
    for f in asked:
        assert all(mult == 1 for _, mult in oracle.factor(f).factors), f


class TestEisensteinGeneralized:
    def test_geometric_block_family_member(self):
        out = eisenstein_generalized(PolyFacts(P(4, 4, 0, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 2, "k": 2, "j": 3}

    def test_prefix_at_full_degree(self):
        out = eisenstein_generalized(PolyFacts(P(2, 2, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 2, "k": 1, "j": 2}

    def test_witness_scan_exhausts(self):
        # only p = 2 available; 4 does not divide a_1 = 2, so j = 1 needs
        # p missing a_1, which fails; no (p, k, j) satisfies everything
        assert eisenstein_generalized(PolyFacts(P(4, 2, 2, 1))).conclusion.kind is NONE

    def test_j_below_top_gives_degree_bound(self):
        # p = 2, k = 1, prefix stops at j = 2 (a_2 odd), m = 4
        f = P(2, 2, 1, 2, 1)
        out = eisenstein_generalized(PolyFacts(f))
        assert out.conclusion == Conclusion.factor_degree(2)
        assert out.witnesses == {"p": 2, "k": 1, "j": 2}

    def test_coprimality_required(self):
        # p = 2, k = 2 and the only candidate j = 2 share a factor
        f = P(4, 4, 1)  # prefix for 4: a_0, a_1; j = 2 has gcd(2, 2) = 2
        out = eisenstein_generalized(PolyFacts(f))
        assert out.conclusion.kind is NONE


class TestConstantTerm:
    def test_irreducible_at_k_one(self):
        out = constant_term_criterion(PolyFacts(P(5, 1, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 5, "k": 1, "j": 1, "d": 1}
        assert out.certificate_mode == "exact"

    def test_bound_two(self):
        # p=5: k=2, d=2, certificate 50 > 5*2 + 4, j=2 -> min(2,2)
        out = constant_term_criterion(PolyFacts(P(50, 5, 1)))
        assert out.conclusion == Conclusion.at_most(2)
        assert out.witnesses == {"p": 5, "k": 2, "j": 2, "d": 2}
        # sound but not tight: the polynomial is actually irreducible
        assert oracle.factor(P(50, 5, 1)).nonconstant_factor_count() == 1

    def test_irreducible_at_j_one(self):
        out = constant_term_criterion(PolyFacts(P(75, 1, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 5, "k": 2, "j": 1, "d": 3}

    def test_unit_constant_is_no_conclusion(self):
        assert constant_term_criterion(PolyFacts(P(1, 1, 1))).conclusion.kind is NONE

    def test_numeric_mode_flagged(self):
        out = constant_term_criterion(PolyFacts(P(5, 1, 1), CertificateMode.NUMERIC_HEURISTIC))
        assert out.conclusion.kind is IRR
        assert out.certificate_mode == "numeric-conditional"

    def test_unit_disk_test_is_symbolic_only(self):
        # (z - 2)^2: the exact test fails at d = 1 (4 > 4 + 1 is false), but
        # both roots have modulus 2, so numeric mode certifies d = 1
        f = P(4, -4, 1)
        assert not PolyFacts(f).unit_disk_certified
        assert constant_term_criterion(PolyFacts(f)).conclusion.kind is NONE
        out = constant_term_criterion(PolyFacts(f, CertificateMode.NUMERIC_HEURISTIC))
        assert out.conclusion == Conclusion.at_most(2)
        assert out.witnesses == {"p": 2, "k": 2, "j": 2, "d": 1}
        assert out.certificate_mode == "numeric-conditional"

    def test_failed_unit_disk_test_factors_neither_end(self, monkeypatch, fresh_factor_cache):
        calls = []
        real = numtheory.prime_factors

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(numtheory, "prime_factors", counting)
        facts = PolyFacts(P(6, 1, 5))  # 6 > 1 + 5 fails, at equality; 6 <= 2 * 5
        assert not facts.unit_disk_certified
        assert constant_term_criterion(facts).conclusion.kind is NONE
        assert leading_coeff_criterion(facts).conclusion.kind is NONE
        assert [facts.certified_radius(i) for i in (0, 2)] == [0, 0]
        assert calls == []
        facts = PolyFacts(P(30, 5, 1, 20))  # passes at d = 1: both ends are factored
        assert facts.unit_disk_certified
        constant_term_criterion(facts)
        leading_coeff_criterion(facts)
        # 30 is asked for its radii and again for q; the cache factors it once
        assert sorted(calls) == [20, 30, 30]
        assert fresh_factor_cache.cache_info().misses == 2

    def test_unit_radius_needs_no_certificate(self, monkeypatch):
        # 3 + 2z^3 passes the exact test at d = 1, the only radius at either
        # end, so both disk criteria fire with no further certificate
        calls, certify = [], rootloc.certify_outside_disk
        monkeypatch.setattr(rootloc, "certify_outside_disk",
                            lambda *a, **k: calls.append(a) or certify(*a, **k))
        facts = PolyFacts(P(3, 0, 0, 2))
        assert constant_term_criterion(facts).witnesses == {"p": 3, "k": 1, "j": 3, "d": 1}
        out = leading_coeff_criterion(facts)
        assert out.witnesses == {"p": 2, "k": 1, "j": 3, "d": 1, "q": 3}
        assert out.conclusion.kind is IRR and out.certificate_mode == "exact"
        assert calls == []

    def test_strong_pseudoprime_constant_term_is_no_prime(self):
        # (z + 399165290221)(z + 798330580441): a_0 is psi_12, which passes
        # Miller-Rabin to the bases 2..37; as a prime it would make the
        # polynomial irreducible. The oracle skips it on the coefficient bound.
        f = P(318665857834031151167461, 1197495870662, 1)
        report = analyze(f, AnalyzeConfig(oracle="off"))
        assert [o.criterion for o in report.outcomes if o.conclusion.kind is IRR] == []
        assert report.strongest.conclusion == Conclusion.at_most(2)
        out = eisenstein_generalized(PolyFacts(f))
        assert out.conclusion == Conclusion.factor_degree(1)
        assert out.witnesses["p"] == 399165290221


class TestLeadingCoeff:
    def test_irreducible_instance(self):
        out = leading_coeff_criterion(PolyFacts(P(7, 1, 5)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 5, "k": 1, "j": 1, "d": 1, "q": 7}

    def test_prime_constant_blocks_nothing(self):
        out = leading_coeff_criterion(PolyFacts(P(11, 1, 5)))
        assert out.conclusion.kind is IRR

    def test_unit_leading_is_no_conclusion(self):
        assert leading_coeff_criterion(PolyFacts(P(7, 1, 1))).conclusion.kind is NONE

    def test_size_condition_enforced(self):
        # |a_0 / q| = 49/7 = 7 > |a_m| = 5
        assert leading_coeff_criterion(PolyFacts(P(49, 1, 5))).conclusion.kind is NONE


class TestDominantCoefficient:
    def test_interior_dominance(self):
        out = dominant_coefficient(PolyFacts(P(1, 3, 9, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"b": 1, "delta": Fraction(1), "j": 2}

    def test_classical_shape(self):
        assert dominant_coefficient(PolyFacts(P(1, 1, 10, 1))).conclusion.kind is IRR

    def test_vacuous_j_zero(self):
        out = dominant_coefficient(PolyFacts(P(10, 1, 1)))
        assert out.conclusion == Conclusion(AMF, 2)
        assert out.witnesses["j"] == 0

    def test_divisor_witness_needed(self):
        # 1 + 5z + 4z^2 + 2z^3 at j=1: b=1 fails (5 <= 2+4+2) but b=2
        # shrinks the tail to 4/2 + 2/4 and 5 > 2 + 2 + 1/2
        out = dominant_coefficient(PolyFacts(P(1, 5, 4, 2)))
        assert out.conclusion == Conclusion.at_most(2)
        assert out.witnesses == {"b": 2, "delta": Fraction(1, 2), "j": 1}

    def test_no_dominance(self):
        assert dominant_coefficient(PolyFacts(P(1, 1, 1))).conclusion.kind is NONE


class TestDeltaMonotonicity:
    def test_smallest_delta_is_weakest_test(self):
        # the dominance right side grows with delta, so firing anywhere on a
        # grid in [1/b, 1] implies firing at delta = 1/b: testing only 1/b
        # loses nothing
        from irreducia.numtheory import positive_divisors

        def rhs(f, j, b, delta):
            m = f.degree
            am = abs(f.leading_coefficient)
            low = sum(abs(f.coeffs[i]) * am ** (j - i) for i in range(j))
            high = sum(abs(f.coeffs[i]) * delta ** (i - j) for i in range(j + 1, m + 1))
            return low + high

        for f in list(gen_exhaustive(4, 3))[::41]:
            m = f.degree
            if m < 2:
                continue
            for b in positive_divisors(f.leading_coefficient):
                base = Fraction(1, b)
                grid = [base, (base + 1) / 2, Fraction(1)]
                for j in range(m):
                    if f.coeffs[j] == 0:
                        continue
                    fired = [abs(f.coeffs[j]) > rhs(f, j, b, d) for d in grid]
                    if any(fired):
                        assert fired[0], (f, b, j)


class TestPerronNonmonic:
    def test_monic_shape(self):
        assert perron_nonmonic(PolyFacts(P(1, 5, 1))).conclusion.kind is IRR

    def test_nonmonic_shape(self):
        # 10 > 1 + |a_0| * |a_m| = 1 + 6
        assert perron_nonmonic(PolyFacts(P(3, 10, 2))).conclusion.kind is IRR

    def test_below_threshold(self):
        assert perron_nonmonic(PolyFacts(P(1, 1, 1))).conclusion.kind is NONE

    def test_oracle_agrees(self):
        for f in (P(1, 5, 1), P(3, 10, 2)):
            assert oracle.factor(f).nonconstant_factor_count() == 1


class TestMiddlePrimePower:
    def test_plain_power(self):
        out = middle_prime_power_check(PolyFacts(P(1, 1, 16, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 2, "j": 2, "N": 4, "s": 0}

    def test_shared_prime_in_neighbour(self):
        # s = 1 on the z coefficient: 16 > 4 + 4 + 1
        out = middle_prime_power_check(PolyFacts(P(1, 2, 16, 1)))
        assert out.conclusion.kind is IRR
        assert out.witnesses == {"p": 2, "j": 2, "N": 4, "s": 1}

    def test_odd_middles_no_conclusion(self):
        assert middle_prime_power_check(PolyFacts(P(1, 3, 5, 1))).conclusion.kind is NONE

    def test_bound_below_top(self):
        # fires at j = 1 on a cubic: at most 2 factors
        out = middle_prime_power_check(PolyFacts(P(1, 25, 1, 1)))
        assert out.conclusion == Conclusion.at_most(2)
        assert out.witnesses["j"] == 1
        assert oracle.factor(P(1, 25, 1, 1)).nonconstant_factor_count() <= 2

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_never_beats_dominant_coefficient(self, data):
        # the middle test at j is the dominance test at j with b = |a_m|
        # and a lower sum at least low[j], so the dominance search, which
        # starts at j = m-1, stops at j or above
        m = data.draw(st.integers(2, 8))
        coeffs = data.draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m))
        coeffs.append(data.draw(st.sampled_from((1, -1, 2, -2, 3))))
        j = data.draw(st.integers(1, m - 1))
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        coeffs[j] = p ** data.draw(st.integers(1, 30)) * data.draw(st.integers(-9, 9))
        coeffs[0] = coeffs[0] or 1
        f = normalize(Polynomial(coeffs)).primitive_part
        assume(f.degree >= 2)
        middle = middle_prime_power_check(PolyFacts(f))
        assume(middle.conclusion.fired())
        dominant = dominant_coefficient(PolyFacts(f))
        assert dominant.conclusion.fired()
        assert f.degree - dominant.witnesses["j"] <= f.degree - middle.witnesses["j"]
        assert dominant.rank() < middle.rank()

    def test_dense_big_coefficients_skip_hopeless_indices(self):
        # at degree 1,000 with 12-digit coefficients almost no index has
        # |a_j| > low[j]; each such index must be dropped at once
        polys = []
        for seed in range(3):
            rng = random.Random(seed)
            polys.append(P(*(rng.choice((-1, 1)) * rng.randrange(10**11, 10**12)
                             for _ in range(1001))))
        start = time.process_time()
        for f in polys:
            analyze(f, AnalyzeConfig(oracle="off"))
        assert time.process_time() - start < 0.3


@pytest.mark.parametrize("mode", list(CertificateMode))
def test_criteria_read_the_records_mode(mode):
    # criterion(PolyFacts(f, mode)) is the outcome analyze reports in that
    # mode, on every 40th polynomial of the deg<=4, |c|<=4 corpus and on
    # (z - 2)^2, where only numeric mode certifies d = 1
    config = AnalyzeConfig(root_mode=mode, oracle="off")
    numeric = 0
    for f in [*list(gen_exhaustive(4, 4))[::40], P(4, -4, 1)]:
        reported = {o.criterion: o for o in analyze(f, config).outcomes}
        for name, criterion in criteria.CRITERIA.items():
            try:
                outcome = criterion(PolyFacts(f, mode))
            except rootloc.NonConvergenceError:
                assert not reported[name].conclusion.fired()
                continue
            assert outcome == reported[name]
            numeric += outcome.certificate_mode == criteria.NUMERIC_CONDITIONAL
    # numeric mode reaches numeric-conditional verdicts; symbolic mode none
    assert (numeric > 0) == (mode is CertificateMode.NUMERIC_HEURISTIC)


def test_probable_prime_constant_term_gives_no_verdict():
    # a_0 = psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to all
    # 13 bases; the polynomial is the product of z + each factor
    report = analyze(
        parse_poly("z^2 + 3863508546782z + 3317044064679887385961981"), AnalyzeConfig(oracle="off")
    )
    by_name = {o.criterion: o for o in report.outcomes}
    assert all(o.conclusion.kind is not IRR for o in report.outcomes)
    for name in ("constant_term", "eisenstein_generalized"):
        assert by_name[name].conclusion.kind is NONE
    assert [w.split(":")[0] for w in report.warnings] == ["constant_term", "eisenstein_generalized"]
    assert all("a probable prime, not proven prime" in w for w in report.warnings)
    assert report.strongest.conclusion == Conclusion.at_most(2)  # dominant_coefficient, b = 1


class TestSharedValues:
    """Conclusions for small bounds are prebuilt and shared, and `low` fills
    its capped tail without arithmetic; each must equal what it stands for."""

    SIZE = criteria._SHARED_BOUNDS

    def test_prebuilt_conclusions_equal_fresh_tuples(self):
        for n in range(2 * self.SIZE + 1):
            fresh = Conclusion(IRR) if n == 1 else Conclusion(AMF, n)
            shared = Conclusion.at_most(n)
            assert (shared, shared.kind, shared.bound) == (fresh, fresh.kind, fresh.bound)
            assert hash(shared) == hash(fresh)
            fresh = Conclusion(FDB, n)
            shared = Conclusion.factor_degree(n)
            assert (shared, shared.kind, shared.bound) == (fresh, fresh.kind, fresh.bound)
            assert pickle.loads(pickle.dumps(shared)) == fresh
            assert shared._replace(bound=n + 1) == Conclusion(FDB, n + 1)
            assert Conclusion.factor_degree(n) == shared  # unchanged by _replace

    def test_at_most_one_is_irreducible(self):
        assert Conclusion.at_most(1) == Conclusion.irreducible() == Conclusion(IRR)
        assert Conclusion.none() == Conclusion(NONE)

    @pytest.mark.parametrize("n", [-1, -2, -SIZE + 1, -SIZE, -SIZE - 1, -2 * SIZE])
    def test_negative_bound_is_never_a_prebuilt_instance(self, n):
        assert Conclusion.at_most(n) == Conclusion(AMF, n)
        assert Conclusion.factor_degree(n) == Conclusion(FDB, n)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_low_is_the_capped_direct_sum(self, data):
        bound = data.draw(st.sampled_from((1, 5, 10**3, 10**12)))
        m = data.draw(st.integers(1, 8))
        nonzero = st.tuples(st.integers(1, bound), st.sampled_from((1, -1))).map(math.prod)
        am = data.draw(st.one_of(st.sampled_from((1, -1)), nonzero))
        middle = data.draw(st.lists(st.integers(-bound, bound), min_size=m - 1, max_size=m - 1))
        coeffs = [data.draw(nonzero), *middle, am]
        g = math.gcd(*coeffs)
        mags = [abs(c) // g for c in coeffs]
        facts = PolyFacts(Polynomial([c // g for c in coeffs]))
        assert facts.low == [
            min(sum(mags[i] * mags[m] ** (j - i) for i in range(j)), max(mags))
            for j in range(m + 1)
        ]


class TestInputGuards:
    def test_zero_polynomial_distinct_error(self):
        criteria = (
            weintraub_check,
            eisenstein_generalized,
            constant_term_criterion,
            leading_coeff_criterion,
            dominant_coefficient,
            perron_nonmonic,
            middle_prime_power_check,
        )
        for crit in criteria:
            with pytest.raises(ValueError, match="zero polynomial"):
                crit(PolyFacts(Polynomial()))

    def test_non_primitive_rejected_everywhere(self):
        for crit in (
            weintraub_check,
            eisenstein_generalized,
            constant_term_criterion,
            leading_coeff_criterion,
            dominant_coefficient,
            perron_nonmonic,
            middle_prime_power_check,
        ):
            with pytest.raises(ValueError, match="normalize first"):
                crit(PolyFacts(P(2, 4, 6)))

    def test_zero_constant_term_rejected_everywhere(self):
        for crit in (
            weintraub_check,
            eisenstein_generalized,
            constant_term_criterion,
            leading_coeff_criterion,
            dominant_coefficient,
            perron_nonmonic,
            middle_prime_power_check,
        ):
            with pytest.raises(ValueError, match="normalize first: constant term is zero"):
                crit(PolyFacts(P(0, 2, 1)))  # z^2 + 2z

    def test_invalid_oracle_mode(self):
        with pytest.raises(ValueError, match="oracle mode"):
            analyze(P(1, 1), AnalyzeConfig(oracle="maybe"))

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="criterion needs degree >= 1"):
            PolyFacts(P(1))


@pytest.mark.parametrize("text, names, count", [
    ("-9 + 360z - 1019z^2 + 427z^3 + 248z^4 - 7z^5",
     ("dominant_coefficient", "middle_prime_power"), 4),
    ("-21 + 9z - 2z^2 - 8z^3", ("leading_coeff",), 2),
    ("27 + 9z + 3z^2 - 6z^3 - 2z^4 + 4z^5", ("constant_term",), 3),
    ("15 - 133z - 79z^2 + 136z^3 + 67z^4 - 3z^5 - 3z^6", ("dominant_coefficient",), 5),
])
def test_sharp_bound_witnesses(text, names, count):
    # each bound is attained: the polynomial has exactly as many factors
    f = parse_poly(text)
    assert oracle.factor(f).nonconstant_factor_count() == count
    facts = PolyFacts(f)
    for name in names:
        assert criteria.CRITERIA[name](facts).conclusion == Conclusion.at_most(count)


class TestWitnessValidity:
    """Reported witnesses re-verify their defining conditions independently."""

    def test_over_corpus(self):
        from irreducia.numtheory import valuation

        for f in list(gen_exhaustive(4, 4))[::23]:
            out = eisenstein_generalized(PolyFacts(f))
            if out.conclusion.fired():
                p, k, j = out.witnesses["p"], out.witnesses["k"], out.witnesses["j"]
                assert valuation(p, f.constant_term) == k
                assert all(f.coeffs[i] % p**k == 0 for i in range(j))
                assert f.coeffs[j] % p != 0
                from math import gcd
                assert gcd(k, j) == 1

            out = constant_term_criterion(PolyFacts(f))
            if out.conclusion.fired():
                p, k, j, d = (out.witnesses[key] for key in ("p", "k", "j", "d"))
                assert abs(f.constant_term) == p**k * d and d % p != 0
                assert f.coeffs[j] % p != 0
                assert all(f.coeffs[i] % p == 0 for i in range(1, j))
                assert abs(f.constant_term) > sum(
                    abs(c) * d**i for i, c in enumerate(f.coeffs) if i >= 1
                )


class TestSymmetryInvariance:
    def test_sign_and_reflection_invariance(self):
        criteria = (
            weintraub_check,
            eisenstein_generalized,
            constant_term_criterion,
            leading_coeff_criterion,
            dominant_coefficient,
            perron_nonmonic,
            middle_prime_power_check,
        )
        for f in gen_random(120, 4, 4, seed=99):
            if f.constant_term == 0:
                continue
            flipped = -f
            reflected = Polynomial(
                [(-1) ** i * c for i, c in enumerate(f.coeffs)]
            )
            for crit in criteria:
                base = crit(PolyFacts(f)).conclusion
                assert crit(PolyFacts(flipped)).conclusion == base, (f, crit.__name__)
                assert crit(PolyFacts(reflected)).conclusion == base, (f, crit.__name__)


class TestAnalyze:
    def test_content_and_z_factor_noted(self):
        report = analyze(P(0, 8, 4))  # 4z^2 + 8z
        assert report.content == 4 and report.z_power == 1
        assert report.primitive_part == P(2, 1)
        assert report.strongest is not None
        assert report.strongest.conclusion.kind is IRR
        assert any("z^1" in w or "add 1" in w for w in report.warnings)

    def test_strongest_via_eisenstein(self):
        report = analyze(P(4, 4, 0, 1))
        assert report.strongest.criterion == "eisenstein_generalized"
        assert report.strongest.conclusion.kind is IRR

    def test_all_inconclusive_with_oracle(self):
        report = analyze(P(-1, 0, 0, 0, 1))  # z^4 - 1
        assert report.strongest is None
        assert report.oracle_result is not None
        assert report.oracle_result.nonconstant_factor_count() == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            analyze(Polynomial())

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError, match="unknown criteria"):
            analyze(P(1, 1), AnalyzeConfig(criteria=("nope",)))

    def test_oracle_off(self):
        report = analyze(P(4, 4, 0, 1), AnalyzeConfig(oracle="off"))
        assert report.oracle_result is None

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300, reason="not the default limit"
    )
    def test_coefficient_above_int_str_limit_refused_first(self, monkeypatch):
        # str() cannot write 10^4400; analyze says so before any criterion runs
        def refuse(*args):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr(criteria, "run_criteria", refuse)
        with pytest.raises(ValueError, match=r"^coefficient of z\^1 has 4401 digits"):
            analyze(P(1, 10**4400), AnalyzeConfig(oracle="off"))

    def test_renders_nothing(self, monkeypatch):
        # 2z^4 + 8z^2 + 8z: content 2 and z^1 split off, then the criteria run
        f = P(0, 8, 8, 0, 2)

        def refuse(self):
            raise AssertionError("analyze rendered a polynomial")

        with monkeypatch.context() as patched:
            patched.setattr(Polynomial, "to_sparse_string", refuse)
            for mode in CertificateMode:
                report = analyze(f, AnalyzeConfig(root_mode=mode, oracle="off"))
        assert report.strongest is not None
        assert report.input_text == f.to_sparse_string() == "2z^4 + 8z^2 + 8z"

    def test_oracle_auto_skips_large_degree(self):
        f = Polynomial([3] + [0] * 10 + [1])
        report = analyze(f)
        assert report.oracle_result is None

    def test_oracle_on_forces(self):
        f = Polynomial([3] + [0] * 10 + [1])
        report = analyze(f, AnalyzeConfig(oracle="on"))
        assert report.oracle_result is not None
        assert report.oracle_result.nonconstant_factor_count() == 1

    def test_oracle_limit_warns_under_auto_and_raises_under_on(self):
        f = P(10**9, 1, 1)  # a coefficient above the oracle's bound
        report = analyze(f)
        assert report.oracle_result is None
        assert report.warnings == ("oracle skipped: oracle limit: coefficient magnitude",)
        with pytest.raises(oracle.OracleLimitError, match="coefficient magnitude"):
            analyze(f, AnalyzeConfig(oracle="on"))

    def test_constant_primitive_part_skips_criteria(self):
        report = analyze(P(0, 0, 6))  # 6z^2
        assert report.outcomes == () and report.strongest is None
        assert report.warnings[-1] == "primitive part is constant; criteria skipped"

    @pytest.mark.parametrize("coeffs, criterion, conclusion", [
        # a 4,014-digit a_m: no sum of size |a_m|^(m-j) may be built
        ([3] + [1] * 999 + [2**13333], "dominant_coefficient", Conclusion.at_most(1000)),
        # a 4,015-digit a_0: the disk radius 2^13333 is refused without a sum
        ([3 * 2**13333] + [0] * 999 + [1], "eisenstein_generalized", Conclusion.irreducible()),
    ])
    def test_huge_end_coefficient_at_degree_1000_in_under_a_second(
        self, coeffs, criterion, conclusion
    ):
        f = Polynomial(coeffs)
        start = time.process_time()
        report = analyze(f, AnalyzeConfig(oracle="off"))
        assert time.process_time() - start < 1.0
        assert (report.strongest.criterion, report.strongest.conclusion) == (criterion, conclusion)

    def test_degree_one_trivially_irreducible(self):
        report = analyze(P(1, 1))
        assert report.strongest.criterion == "degree_one"
        assert report.strongest.conclusion.kind is IRR

    def test_outcomes_sorted_and_retained(self):
        report = analyze(P(4, 4, 0, 1))
        names = [o.criterion for o in report.outcomes]
        assert names == sorted(names)
        assert len(names) == 7

    def test_strongest_is_minimum_bound(self):
        for f in gen_random(60, 5, 4, seed=5):
            report = analyze(f, AnalyzeConfig(oracle="off"))
            if report.strongest is None:
                continue
            ranks = [o.rank() for o in report.outcomes if o.conclusion.fired()]
            assert report.strongest.rank() == min(ranks)

    def test_factorization_limit_is_no_conclusion(self, monkeypatch, fresh_factor_cache):
        # a_0 = (2^61 - 1)(2^59 - 55) resists a shortened rho budget; the
        # criteria that need its primes report NoConclusion and say why
        monkeypatch.setattr(numtheory, "_RHO_STEPS", 1000)
        report = analyze(P((2**61 - 1) * (2**59 - 55), 1, 1), AnalyzeConfig(oracle="off"))
        by_name = {o.criterion: o for o in report.outcomes}
        limited = ("constant_term", "eisenstein_generalized")
        for name in limited:
            assert not by_name[name].conclusion.fired()
            assert by_name[name].conclusion.kind is NONE
        assert [w.split(":")[0] for w in report.warnings] == list(limited)
        assert all("factorization limit" in w for w in report.warnings)
        assert by_name["dominant_coefficient"].conclusion == Conclusion.at_most(2)

    def test_failed_unit_disk_test_needs_no_factorization(self, monkeypatch, fresh_factor_cache):
        # both ends resist the shortened rho budget, but |a_0| > sum |a_i|
        # fails, so the disk criteria never factor them and do not warn;
        # dominant_coefficient finds its witness b = 3 by trial division
        # below a_m's factorization, so only eisenstein_generalized warns
        monkeypatch.setattr(numtheory, "_RHO_STEPS", 1000)
        big = (2**61 - 1) * (2**59 - 55)
        report = analyze(P(big, 5, 5, big + 2), AnalyzeConfig(oracle="off"))
        (fired,) = [o for o in report.outcomes if o.conclusion.fired()]
        assert fired.criterion == "dominant_coefficient"
        assert fired.conclusion == Conclusion.at_most(3)
        assert (fired.witnesses["b"], fired.witnesses["j"]) == (3, 0)
        assert [w.split(":")[0] for w in report.warnings] == ["eisenstein_generalized"]
        assert all("factorization limit" in w for w in report.warnings)

    def test_resisting_coefficient_costs_one_rho_run_per_process(
        self, monkeypatch, fresh_factor_cache
    ):
        # n = (2^61 - 1)(2^89 - 1) resists rho. On n + nz + z^2,
        # eisenstein_generalized asks for the primes of a_0 = n and weintraub
        # for those of gcd(a_0, a_1) = n; both reach the one cache, so rho
        # runs on n once, and a second analyze reads the failure back
        # without running it again
        n = (2**61 - 1) * (2**89 - 1)
        calls = []
        rho = numtheory._pollard_rho

        def counting(n, rng, steps):
            calls.append(n)
            return rho(n, rng, steps)

        monkeypatch.setattr(numtheory, "_pollard_rho", counting)
        f = P(n, n, 1)
        first = analyze(f, AnalyzeConfig(oracle="off"))
        assert calls.count(n) == 1
        second = analyze(f, AnalyzeConfig(oracle="off"))
        assert calls.count(n) == 1
        assert [w.split(":")[0] for w in first.warnings] == [
            "eisenstein_generalized", "weintraub"
        ]
        assert all("factorization limit" in w for w in first.warnings)
        assert second.warnings == first.warnings

    def test_no_conclusion_is_shared_and_read_only(self):
        first = perron_nonmonic(PolyFacts(P(1, 1, 1)))
        assert first.conclusion.kind is NONE
        assert perron_nonmonic(PolyFacts(P(2, 1, 3))) is first
        report = analyze(P(1, 1, 1), AnalyzeConfig(oracle="off"))
        assert next(o for o in report.outcomes if o.criterion == "perron_nonmonic") is first
        assert first.witnesses == {}
        with pytest.raises(TypeError):
            first.witnesses["p"] = 2
        assert weintraub_check(PolyFacts(P(1, 1, 1))) is not first

    def test_numeric_mode_finds_roots_once(self, monkeypatch):
        # -11 - 8z + 2z^2: both disk criteria try d = 1, which no exact test
        # refuses (2 < 11, f(1) = -17, f(-1) = -1), so each needs the roots
        # (moduli 1.08 and 5.08); one root set answers both
        calls = []
        real = rootloc.numeric_roots

        def counting(f, *args, **kwargs):
            calls.append(f)
            return real(f, *args, **kwargs)

        monkeypatch.setattr(rootloc, "numeric_roots", counting)
        config = AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC)
        report = analyze(P(-11, -8, 2), config)
        assert calls == [P(-11, -8, 2)]
        by_name = {o.criterion: o for o in report.outcomes}
        for name in ("constant_term", "leading_coeff"):
            assert by_name[name].witnesses["d"] == 1
            assert by_name[name].certificate_mode == "numeric-conditional"

    def test_nonconvergence_is_no_conclusion(self, monkeypatch):
        # both disk criteria need a numeric certificate of -11 - 8z + 2z^2 at
        # d = 1; the iteration is attempted once and each criterion reports
        # NoConclusion with a warning
        calls = []

        def failing(f, *args, **kwargs):
            calls.append(f)
            raise rootloc.NonConvergenceError(0.5)

        monkeypatch.setattr(rootloc, "numeric_roots", failing)
        report = analyze(
            P(-11, -8, 2), AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC)
        )
        assert len(calls) == 1
        by_name = {o.criterion: o for o in report.outcomes}
        for name in ("constant_term", "leading_coeff"):
            assert not by_name[name].conclusion.fired()
            assert by_name[name].conclusion.kind is NONE
        assert list(report.warnings) == [
            f"{name}: no conclusion: root iteration did not converge (best residual 5.000e-01)"
            for name in ("constant_term", "leading_coeff")
        ]

    def test_iteration_cap_is_nonconvergence(self, monkeypatch):
        # one Aberth sweep leaves -11 - 8z + 2z^2 short of its backward-error
        # target: the iteration stops at the cap with its worst residual, and
        # both disk criteria, which need it at d = 1, report NoConclusion
        monkeypatch.setattr(rootloc, "MAX_ITERATIONS", 1)
        with pytest.raises(rootloc.NonConvergenceError) as info:
            rootloc.numeric_roots(P(-11, -8, 2))
        assert info.value.best_residual == pytest.approx(0.7396, abs=1e-4)
        report = analyze(
            P(-11, -8, 2), AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC)
        )
        by_name = {o.criterion: o for o in report.outcomes}
        for name in ("constant_term", "leading_coeff"):
            assert by_name[name].conclusion.kind is NONE
        assert list(report.warnings) == [
            f"{name}: no conclusion: root iteration did not converge (best residual 7.396e-01)"
            for name in ("constant_term", "leading_coeff")
        ]

    @pytest.mark.parametrize("coeffs", [(30, 1, 1, 1, 6), (6, 1, 6)])
    def test_exactly_refused_radii_need_no_roots(self, monkeypatch, coeffs):
        # every radius of these is refused by an exact test: the radii 15, 10
        # and 6 of 30 + z + z^2 + z^3 + 6z^4 start refused (d >= 4 =
        # 2^ceil(bitlen(30) / 4)), and leading_coeff stops at its size
        # condition 30 > 2 * 6; the radii 3 and 2 of 6 + z + 6z^2 have
        # 6 d^2 >= 6 at both ends
        def failing(f, *args, **kwargs):
            raise AssertionError("no root iteration expected")

        monkeypatch.setattr(rootloc, "numeric_roots", failing)
        report = analyze(
            P(*coeffs), AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC)
        )
        by_name = {o.criterion: o for o in report.outcomes}
        for name in ("constant_term", "leading_coeff"):
            assert by_name[name].conclusion.kind is NONE
        assert report.warnings == ()

    def test_oracle_consistency_predicate(self):
        from irreducia.criteria import conclusion_holds

        split = oracle.factor(P(-1, 0, 1))  # (z-1)(z+1)
        irr = Conclusion.irreducible()
        two = Conclusion.at_most(2)
        fdb1 = Conclusion.factor_degree(1)
        assert not conclusion_holds(irr, split, 0)
        assert conclusion_holds(two, split, 0)
        assert conclusion_holds(fdb1, split, 0)  # linear factor witnesses it

        whole = oracle.factor(P(1, 0, 1) * P(2, 1, 3))  # two quadratics
        assert not conclusion_holds(fdb1, whole, 0)

        # the audit's case: a degree-2 factor within a bound of 2, the z
        # factors of the full input left out of both count and degrees
        mixed = oracle.factor(P(1, 0, 1) * P(1, 1, 0, 1))  # quadratic * cubic
        assert conclusion_holds(Conclusion.factor_degree(2), mixed)
        assert not conclusion_holds(Conclusion.factor_degree(1), mixed)
        shifted = oracle.factor(P(0, 0, 1, 0, 1) * P(1, 1, 0, 1))
        assert conclusion_holds(Conclusion.factor_degree(2), shifted, 2)
        assert not conclusion_holds(Conclusion.factor_degree(1), shifted, 2)
        assert conclusion_holds(Conclusion.at_most(2), shifted, 2)
