"""Criterion witness searches, conclusions, and the aggregate analysis."""

import copy
import math
import multiprocessing
import pickle
import random
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irreducia import criteria, numtheory, oracle, poly, rootloc
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
    # irreducible", squarefree beyond degree 2, so the search it makes skips
    # the squarefree step
    asked = []
    real = poly._rational_roots
    monkeypatch.setattr(poly, "_rational_roots",
                        lambda coeffs: asked.append(coeffs) or real(coeffs))
    monkeypatch.setattr(poly, "_squarefree_part", lambda coeffs: pytest.fail("squarefree step"))
    for f in gen_exhaustive(4, 4):
        facts = PolyFacts(f)
        weintraub_check(facts)
        eisenstein_generalized(facts)
    assert len(asked) > 100
    for coeffs in asked:
        f = Polynomial(coeffs)
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
        # 30 is asked for its radii; q = 2 comes from its first stage, which
        # that full factorization cached, so each end is factored once: one
        # cache entry for each first stage and one for each full factorization
        assert sorted(calls) == [20, 30]
        assert fresh_factor_cache.cache_info().misses == 4

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


def _divisors_by_trial(n):
    return [b for b in range(1, n + 1) if n % b == 0]


def test_small_divisor_table_is_trial_division():
    table = numtheory._SMALL_DIVISORS
    assert len(table) == numtheory._TABLE_TOP + 1
    for n in range(1, numtheory._TABLE_TOP + 1):
        assert list(table[n]) == _divisors_by_trial(n)


@st.composite
def dominance_polys(draw):
    """Degree 2-6, |a_m| from 1 to 120 (on both sides of the table's 32)
    or up to 5,000, and one coefficient often large enough to dominate."""
    m = draw(st.integers(2, 6))
    am = draw(st.one_of(st.integers(1, 120), st.integers(1, 5000)))
    coeffs = draw(st.lists(st.integers(-12, 12), min_size=m, max_size=m))
    coeffs.append(am * draw(st.sampled_from((1, -1))))
    j = draw(st.integers(0, m - 1))
    coeffs[j] = draw(st.integers(-10**6, 10**6))
    assume(coeffs[0] != 0)
    g = math.gcd(*coeffs)
    return Polynomial([c // g for c in coeffs])


@settings(max_examples=400, deadline=None)
@given(dominance_polys())
def test_dominant_coefficient_takes_the_least_passing_divisor(f):
    # the witness b is the least divisor of |a_m|, found by trial division,
    # at which |a_j| exceeds the exact sums on both sides of j
    c, m = [abs(a) for a in f.coeffs], f.degree

    def passes(j, b):
        low = sum(c[i] * c[m] ** (j - i) for i in range(j))
        high = sum(Fraction(c[i], b ** (i - j)) for i in range(j + 1, m + 1))
        return c[j] > low + high

    divisors = _divisors_by_trial(c[m])
    out = dominant_coefficient(PolyFacts(f))
    if not out.conclusion.fired():
        assert not any(passes(j, b) for j in range(m) for b in divisors)
        return
    j, b = out.witnesses["j"], out.witnesses["b"]
    assert out.conclusion == Conclusion.at_most(m - j)
    assert out.witnesses["delta"] == Fraction(1, b)
    assert b == next(d for d in divisors if passes(j, d))


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


@pytest.mark.parametrize("mode", list(CertificateMode))
def test_a_records_mode_given_as_its_value_is_the_member(mode):
    # (z - 2)^2: only numeric mode certifies d = 1, so a value read as the
    # other mode moves the radius
    facts = PolyFacts(P(4, -4, 1), mode.value)
    assert facts.mode is mode
    numeric = mode is CertificateMode.NUMERIC_HEURISTIC
    assert facts.certified_radius(0) == PolyFacts(P(4, -4, 1), mode).certified_radius(0) == numeric


def test_an_unknown_mode_is_refused_by_the_record():
    with pytest.raises(ValueError, match="'bogus' is not a valid CertificateMode"):
        PolyFacts(P(98, 1, 6), "bogus")


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
    """Conclusions are shared, one per bound, and `low` fills its capped
    tail without arithmetic; each must equal what it stands for."""

    SIZE = 16  # bounds tried reach 2 * SIZE

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

    def test_text_forms(self):
        cases = [(Conclusion.irreducible(), "Irreducible"), (Conclusion.none(), "NoConclusion"),
                 (Conclusion.at_most(2), "AtMostFactors(2)"),
                 (Conclusion.at_most(2 * self.SIZE), f"AtMostFactors({2 * self.SIZE})"),
                 (Conclusion.factor_degree(0), "FactorDegreeBound(0)")]
        for conclusion, text in cases:
            assert str(conclusion) == f"{conclusion}" == text
        # repr stays the named tuple's
        assert repr(Conclusion.at_most(2)) == (
            "Conclusion(kind=<ConclusionKind.AT_MOST_FACTORS: 'AtMostFactors'>, bound=2)"
        )

    def test_at_most_one_is_irreducible(self):
        assert Conclusion.at_most(1) == Conclusion.irreducible() == Conclusion(IRR)
        assert Conclusion.none() == Conclusion(NONE)

    def test_every_bound_is_one_shared_instance(self):
        assert Conclusion.at_most(40) is Conclusion.at_most(40)
        assert Conclusion.factor_degree(40) is Conclusion.factor_degree(40)

    @pytest.mark.parametrize("n", [-1, -2, -SIZE + 1, -SIZE, -SIZE - 1, -2 * SIZE])
    def test_negative_bound_is_never_a_prebuilt_instance(self, n):
        assert Conclusion.at_most(n) == Conclusion(AMF, n)
        assert Conclusion.factor_degree(n) == Conclusion(FDB, n)

    def grid(self):
        """Every shared conclusion with a bound up to 12."""
        return ([Conclusion.irreducible(), Conclusion.none()]
                + [Conclusion.at_most(n) for n in range(13)]
                + [Conclusion.factor_degree(k) for k in range(13)])

    def test_rank_orders_by_kind_then_bound(self):
        kinds = list(ConclusionKind)  # definition order: the strongest first
        grid = self.grid()
        by_rank = sorted(grid, key=Conclusion.rank)
        assert by_rank == sorted(grid, key=lambda c: (kinds.index(c.kind), c.bound or 0))
        assert [c.kind for c in by_rank[:2]] == [IRR, IRR]  # irreducible() and at_most(1)
        assert by_rank[-1] == Conclusion.none()

    def test_fired_vacuous_and_holds_match_their_definitions(self):
        def partitions(n, top=None):
            """The factor degrees a degree-n polynomial can split into."""
            if n == 0:
                yield []
            for d in range(min(n, top or n), 0, -1):
                for rest in partitions(n - d, d):
                    yield [d, *rest]

        defined = {  # a conclusion's claim on the factor degrees
            IRR: lambda c, ds: len(ds) == 1,
            AMF: lambda c, ds: len(ds) <= c.bound,
            FDB: lambda c, ds: len(ds) <= 1 or min(ds) <= c.bound,
            NONE: lambda c, ds: True,
        }
        for c in self.grid():
            assert c.fired() is (c.kind is not NONE)
            for degree in range(1, 9):
                splits = list(partitions(degree))
                for ds in splits:
                    assert c.holds(ds) is defined[c.kind](c, ds)
                    assert c.holds(ds[::-1]) is c.holds(ds)
                # vacuous: no split breaks it; never for Irreducible or NoConclusion
                unbreakable = c.kind in (AMF, FDB) and all(defined[c.kind](c, ds) for ds in splits)
                assert c.vacuous(degree) is unbreakable, (c, degree)

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

    @staticmethod
    def assert_constructor_facts_are_their_definitions(f):
        # low: the capped direct sum; dominant: (j, floor of the upper sum)
        # at the one index where the dominance inequality holds in exact
        # rationals, found by trying every j, and None below degree 2
        mags, m = [abs(c) for c in f.coeffs], f.degree
        facts = PolyFacts(f)
        assert facts.low == [min(sum(mags[i] * mags[m] ** (j - i) for i in range(j)), max(mags))
                             for j in range(m + 1)]
        hits = []
        for j in range(m):
            upper = sum(Fraction(mags[i], mags[m] ** (i - j)) for i in range(j + 1, m + 1))
            if mags[j] > sum(mags[i] * mags[m] ** (j - i) for i in range(j)) + upper:
                hits.append((j, math.floor(upper)))
        assert len(hits) <= 1
        assert facts.dominant == (hits[0] if hits and m >= 2 else None)

    @pytest.mark.parametrize("coeffs", [
        (7, 1), (-3, 5), (10**30, -1), (1, 10**30),  # degree 1: no index dominates
        (1, 1, 10, 1), (1, -3, 1), (2, 0, 0, 1), (1, 1, 1, 1, 1), (5, 0, -1),  # |a_m| = 1
        (3, 10**30 + 1, 7, 10**30 - 1), (10**30 + 7, -(10**29), 10**15, 2),
        (1, 2 * 10**30, 3, 10**30 + 3), (10**30, 1, 10**30 - 1, 10**30 + 1),
    ])
    def test_constructor_facts_on_edge_inputs(self, coeffs):
        self.assert_constructor_facts_are_their_definitions(Polynomial(coeffs))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_constructor_facts_are_their_definitions(self, data):
        bound = data.draw(st.sampled_from((1, 6, 10**6, 10**30)))
        m = data.draw(st.integers(1, 8))
        coeffs = data.draw(st.lists(st.integers(-bound, bound), min_size=m + 1, max_size=m + 1))
        coeffs[0] = coeffs[0] or 1
        coeffs[m] = data.draw(st.sampled_from((coeffs[m] or 1, 1, -1)))
        g = math.gcd(*coeffs)
        self.assert_constructor_facts_are_their_definitions(Polynomial([c // g for c in coeffs]))


# the witness names each criterion reports, in the report's order
WITNESS_ORDER = {
    "constant_term": ["p", "k", "j", "d"],
    "degree_one": [],
    "dominant_coefficient": ["b", "delta", "j"],
    "eisenstein_generalized": ["p", "k", "j"],
    "leading_coeff": ["p", "k", "j", "d", "q"],
    "middle_prime_power": ["p", "j", "N", "s"],
    "perron_nonmonic": [],
    "weintraub": ["p", "k0"],
}
# the outcome builders, each an lru_cache keyed on what its outcome holds
BUILDERS = ("_weintraub_fired", "_eisenstein_fired", "_disk_fired", "_dominant_fired",
            "_middle_fired")


def _fresh(outcome):
    """The same outcome built with a plain dict of witnesses."""
    return criteria.CriterionOutcome(outcome.criterion, dict(outcome.witnesses),
                                     outcome.conclusion, outcome.certificate_mode)


class TestSharedOutcomes:
    """Fired outcomes come from bounded caches: equal witnesses give one
    shared, read-only outcome, and every value the outcome holds is in the
    key, so inputs with the same witnesses but another conclusion or
    certificate mode get their own."""

    def corpus_outcomes(self):
        for f in gen_exhaustive(3, 3):
            for mode in CertificateMode:
                yield from criteria.run_criteria(PolyFacts(f, mode))[0]
        for f in (P(1, 1), P(2, 3)):
            yield from analyze(f, AnalyzeConfig(oracle="off")).outcomes

    def test_equal_witnesses_give_one_read_only_outcome_in_report_order(self):
        first = {}
        fired, shared = set(), set()
        for o in self.corpus_outcomes():
            assert o == _fresh(o)
            assert list(o.witnesses) == (WITNESS_ORDER[o.criterion] if o.conclusion.fired() else [])
            with pytest.raises(TypeError):
                o.witnesses["p"] = 0
            key = (o.criterion, tuple(o.witnesses.items()), o.conclusion, o.certificate_mode)
            if key in first:
                assert first[key] is o
            if o.conclusion.fired():
                (shared if key in first else fired).add(o.criterion)
            first[key] = o
        assert fired == shared == set(WITNESS_ORDER)  # each fires, and again with equal witnesses

    def test_the_certificate_mode_is_in_the_disk_key(self):
        # z^2 + z + 3 is certified outside |z| <= 1 in either mode, by the
        # same witnesses; each mode is asked twice, so a stale entry shows
        f = P(3, 1, 1)
        for mode, cert in [("symbolic", "exact"), ("numeric", "numeric-conditional")] * 2:
            out = constant_term_criterion(PolyFacts(f, mode))
            assert dict(out.witnesses) == {"p": 3, "k": 1, "j": 1, "d": 1}
            assert (out.conclusion, out.certificate_mode) == (Conclusion.irreducible(), cert)

    def test_the_irreducible_flag_is_in_the_weintraub_key(self):
        # p = 2, k0 = 1 in both: z^3 + 2z + 4 has no rational root,
        # (z + 2)(z^2 + 2) has -2
        cases = [(P(4, 2, 0, 1), Conclusion.irreducible()),
                 (P(4, 2, 2, 1), Conclusion.factor_degree(1))] * 2
        for f, conclusion in cases:
            out = weintraub_check(PolyFacts(f))
            assert (dict(out.witnesses), out.conclusion) == ({"p": 2, "k0": 1}, conclusion)

    def test_the_bound_is_in_the_eisenstein_key(self):
        # p = 2, k = 1, j = 1 at degrees 3 and 4: factor degree at most m - 1
        for f, bound in [(P(2, 1, 0, 1), 2), (P(2, 1, 0, 0, 1), 3)] * 2:
            out = eisenstein_generalized(PolyFacts(f))
            assert dict(out.witnesses) == {"p": 2, "k": 1, "j": 1}
            assert out.conclusion == Conclusion.factor_degree(bound)

    def test_caches_stay_within_their_bound(self, fresh_factor_cache):
        # one distinct witness per prime p > 10^6 in each builder
        bound = criteria._SHARED_OUTCOMES
        primes = []
        n = 10**6
        while len(primes) < bound + 64:
            n += 1
            if numtheory.is_prime(n):
                primes.append(n)
        builders = [getattr(criteria, name) for name in BUILDERS]
        misses = [b.cache_info().misses for b in builders]
        for p in primes:
            for f in (P(p, p, 1), P(p, 1, 1), P(1, 2 * p, p), P(1, p, 1)):
                criteria.run_criteria(PolyFacts(f))
        for builder, before in zip(builders, misses):
            info = builder.cache_info()
            assert info.maxsize == bound
            assert info.misses - before > bound, builder  # the inputs did press the bound
            assert info.currsize <= bound, builder

    def test_outcomes_pickle_and_copy_read_only(self):
        report = analyze(P(4, 4, 0, 1))  # eisenstein_generalized fires, the rest do not
        assert report.strongest.conclusion.fired()
        assert any(not o.conclusion.fired() for o in report.outcomes)
        pairs = [(report, copy.copy(report)), (report, copy.deepcopy(report))]
        pairs += [(report, pickle.loads(pickle.dumps(report, proto))) for proto in range(2, 6)]
        for o in (*report.outcomes, criteria.NO_STRONGEST):
            pairs += [(o, pickle.loads(pickle.dumps(o, proto))) for proto in range(6)]
            pairs.append((o, copy.deepcopy(o)))
        for original, copied in pairs:
            assert copied == original
            if isinstance(original, criteria.AnalysisReport):
                assert copied.strongest == original.strongest
                pairs += zip(original.outcomes, copied.outcomes)
                continue
            assert list(copied.witnesses.items()) == list(original.witnesses.items())
            with pytest.raises(TypeError):
                copied.witnesses["p"] = 0

    def test_reports_come_back_from_worker_processes(self):
        polys = [P(4, 4, 0, 1), P(3, 1, 1), P(1, 1), P(1, 2 * 1000003, 1000003)]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            reports = pool.map_async(analyze, polys).get(timeout=60)
        assert reports == [analyze(f) for f in polys]

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

    @pytest.mark.parametrize("config, message", [
        ({"criteria": ("weintraub", "nope")}, "unknown criteria: nope "),
        ({"oracle": "maybe"}, "oracle mode must be on/off/auto, got 'maybe'"),
        # a bare string is refused whole, not read letter by letter
        ({"criteria": "weintraub"},
         "criteria must be a sequence of names, not the string 'weintraub'"),
        # an unhashable field, or a name that is no string
        ({"root_mode": ["symbolic"]}, "['symbolic'] is not a valid CertificateMode"),
        ({"oracle": ["off"]}, "oracle mode must be on/off/auto, got ['off']"),
        ({"criteria": [["weintraub"]]},
         "criteria must be a sequence of names, got [['weintraub']]"),
        ({"criteria": [1]}, "unknown criteria: 1 (known: "),
        ({"criteria": [None]}, "unknown criteria: None (known: "),
        ({"criteria": 5}, "criteria must be a sequence of names, got 5"),
    ])
    def test_invalid_config_raises_on_every_call(self, config, message):
        # refused when built, and when a valid config is changed to it
        for build in (lambda: AnalyzeConfig(**config),
                      lambda: AnalyzeConfig()._replace(**config)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value).startswith(message)

    @pytest.mark.parametrize("f", [P(5), P(98, 1, 6)])
    def test_unknown_root_mode_is_refused_on_every_call(self, f):
        # the config refuses it when built, so a constant input, which
        # builds no PolyFacts record, is refused too
        for _ in range(2):
            with pytest.raises(ValueError, match="'bogus' is not a valid CertificateMode"):
                analyze(f, AnalyzeConfig(root_mode="bogus"))

    def test_criteria_list_reports_as_the_tuple(self):
        names = ["weintraub", "constant_term", "weintraub", "dominant_coefficient"]
        f = P(6, 4, 0, 2, 1)
        for mode in CertificateMode:
            expected = analyze(f, AnalyzeConfig(criteria=tuple(names), root_mode=mode))
            for _ in range(2):  # a list is kept as the tuple of its names
                assert analyze(f, AnalyzeConfig(criteria=names, root_mode=mode)) == expected
        assert [o.criterion for o in expected.outcomes] == sorted(set(names))

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(st.sampled_from(tuple(criteria.CRITERIA)), max_size=10),
           form=st.sampled_from([tuple, list, iter, lambda names: (name for name in names)]),
           mode=st.sampled_from(CertificateMode), by_value=st.booleans(),
           f=st.sampled_from([P(6, 4, 0, 2, 1), P(4, 4, 0, 1), P(1013, 1, 1009), P(2, 3, 5, 7)]))
    def test_any_names_in_any_form_report_as_their_distinct_tuple(self, names, form, mode,
                                                                  by_value, f):
        distinct = tuple(dict.fromkeys(names))
        expected = analyze(f, AnalyzeConfig(distinct, mode, "off"))
        assert [o.criterion for o in expected.outcomes] == sorted(distinct)
        config = AnalyzeConfig(form(names), mode.value if by_value else mode, "off")
        assert config == (distinct, mode, "off")
        for _ in range(2):  # an iterator or generator is read once, when the config is built
            assert analyze(f, config) == expected
        clone = pickle.loads(pickle.dumps(config))
        assert type(clone) is AnalyzeConfig and clone == config
        assert analyze(f, clone) == expected
        for change in ({"criteria": (*names, "nope")}, {"criteria": "weintraub"},
                       {"root_mode": "bogus"}, {"oracle": "maybe"}):
            with pytest.raises(ValueError):
                config._replace(**change)

    def test_repeated_name_runs_its_criterion_once(self, monkeypatch):
        calls = []
        original = criteria.CRITERIA["perron_nonmonic"]

        def counting(facts):
            calls.append(facts)
            return original(facts)

        monkeypatch.setitem(criteria.CRITERIA, "perron_nonmonic", counting)
        config = AnalyzeConfig(criteria=("perron_nonmonic", "weintraub", "perron_nonmonic"),
                               oracle="off")
        for expected in (1, 2):  # once on every call
            report = analyze(P(1, 5, 1), config)
            assert len(calls) == expected
        assert [o.criterion for o in report.outcomes] == ["perron_nonmonic", "weintraub"]

    def test_criteria_run_in_the_given_order_and_report_sorted(self):
        # both criteria stop on a_0 = psi_13, a probable prime; the warnings
        # follow the order given, the outcomes the names' order
        f = parse_poly("z^2 + 3863508546782z + 3317044064679887385961981")
        config = AnalyzeConfig(criteria=("eisenstein_generalized", "constant_term"), oracle="off")
        report = analyze(f, config)
        assert [w.split(":")[0] for w in report.warnings] == [
            "eisenstein_generalized", "constant_term"
        ]
        assert [o.criterion for o in report.outcomes] == ["constant_term", "eisenstein_generalized"]

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

    def test_oracle_judges_every_fired_outcome(self, monkeypatch):
        # (z^2 + 1)(z^2 + 2) has no linear factor: a true AtMostFactors(2) is
        # the strongest outcome, and the false FactorDegreeBound(1) below it
        # must still be judged
        def fake(name, conclusion):
            return lambda facts: criteria.CriterionOutcome(name, {}, conclusion)

        monkeypatch.setitem(criteria.CRITERIA, "constant_term",
                            fake("constant_term", Conclusion.at_most(2)))
        monkeypatch.setitem(criteria.CRITERIA, "weintraub",
                            fake("weintraub", Conclusion.factor_degree(1)))
        config = AnalyzeConfig(criteria=("constant_term", "weintraub"), oracle="on")
        with pytest.raises(criteria.SoundnessError, match="^criterion weintraub concluded "
                                                          r"FactorDegreeBound\(1\)"):
            analyze(P(2, 0, 3, 0, 1), config)

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

    def test_rational_root_flag_skips_the_squarefree_step_at_degree_400(self):
        # 3..17 divide a_0 and a_1, so z = 0 is a double root modulo each of
        # the first six primes; weintraub at k0 = 1 asks for the flag of a
        # squarefree f, and its squarefree part alone once took 11 s of CPU time
        rng = random.Random(1)
        f = Polynomial([1021020, 510510, *(2 * rng.randint(1, 4) for _ in range(2, 400)), 1])
        start = time.process_time()
        report = analyze(f, AnalyzeConfig(oracle="off"))
        assert time.process_time() - start < 1.0
        weintraub = next(o for o in report.outcomes if o.criterion == "weintraub")
        assert (weintraub.conclusion, weintraub.witnesses) == (Conclusion.irreducible(),
                                                               {"p": 2, "k0": 1})

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

    def test_small_witnesses_leave_a_resisting_cofactor_alone(self, fresh_factor_cache):
        # a_0 = 6N with N = (2^61 - 1)(2^60 + 33), which resists rho. Only
        # constant_term needs all of a_0's primes: eisenstein_generalized's
        # witness is 2, the least prime of a_0 missing a_1, and N shares no
        # prime with a_1; leading_coeff's q is 2, the least prime of a_0
        big = (2**61 - 1) * (2**60 + 33)
        cases = [
            (P(6 * big, 5, 3, 1, 1), "eisenstein_generalized",
             Conclusion.factor_degree(3), {"p": 2, "k": 1, "j": 1}),
            (P(6 * big, 1, 2**123), "leading_coeff",
             Conclusion.irreducible(), {"p": 2, "k": 123, "j": 1, "d": 1, "q": 2}),
        ]
        for f, name, conclusion, witnesses in cases:
            start = time.perf_counter()
            report = analyze(f, AnalyzeConfig(oracle="off"))
            assert time.perf_counter() - start < 10.0
            out = next(o for o in report.outcomes if o.criterion == name)
            assert (out.conclusion, out.witnesses) == (conclusion, witnesses)
            assert [w.split(":")[0] for w in report.warnings] == ["constant_term"]
        # N divides a_1, so a prime of N could be the witness: a_0 is read
        # in full, and the limit stands
        report = analyze(P(6 * big, 5 * big, 3, 7 * big, 2), AnalyzeConfig(oracle="off"))
        assert [w.split(":")[0] for w in report.warnings] == ["eisenstein_generalized"]
        assert all("factorization limit" in w for w in report.warnings)

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
        # 1109 + 100z^5 + 1009z^10: both disk criteria try d = 1, which no
        # exact test settles (the inequality at 1.001 fails by the middle
        # coefficient); above the degree cap each needs the roots (least
        # modulus 1.0095), and one root set answers both
        calls = []
        real = rootloc.numeric_roots

        def counting(f, *args, **kwargs):
            calls.append(f)
            return real(f, *args, **kwargs)

        monkeypatch.setattr(rootloc, "numeric_roots", counting)
        config = AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC)
        f = P(1109, *[0] * 4, 100, *[0] * 4, 1009)
        report = analyze(f, config)
        assert calls == [f]
        by_name = {o.criterion: o for o in report.outcomes}
        for name in ("constant_term", "leading_coeff"):
            assert by_name[name].witnesses["d"] == 1
            assert by_name[name].certificate_mode == "numeric-conditional"

    def test_nonconvergence_is_no_conclusion(self, monkeypatch):
        # both disk criteria need a numeric certificate of 1013 + z + 1009z^10
        # at d = 1, above the degree cap; the iteration is attempted once and
        # each criterion reports NoConclusion with a warning
        calls = []

        def failing(f, *args, **kwargs):
            calls.append(f)
            raise rootloc.NonConvergenceError(0.5)

        monkeypatch.setattr(rootloc, "numeric_roots", failing)
        report = analyze(
            P(1013, 1, *[0] * 8, 1009),
            AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC),
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
        # one Aberth sweep leaves 1013 + z + 1009z^10 short of its
        # backward-error target: the iteration stops at the cap with its
        # worst residual, and both disk criteria, which need it at d = 1,
        # report NoConclusion
        monkeypatch.setattr(rootloc, "MAX_ITERATIONS", 1)
        with pytest.raises(rootloc.NonConvergenceError) as info:
            rootloc.numeric_roots(P(1013, 1, *[0] * 8, 1009))
        assert info.value.best_residual == pytest.approx(0.9365, abs=1e-4)
        report = analyze(
            P(1013, 1, *[0] * 8, 1009),
            AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC),
        )
        by_name = {o.criterion: o for o in report.outcomes}
        for name in ("constant_term", "leading_coeff"):
            assert by_name[name].conclusion.kind is NONE
        assert list(report.warnings) == [
            f"{name}: no conclusion: root iteration did not converge (best residual 9.365e-01)"
            for name in ("constant_term", "leading_coeff")
        ]

    @pytest.mark.parametrize("coeffs", [(30, 1, 1, 1, 6), (6, 1, 6)])
    def test_exactly_refused_radii_need_no_roots(self, monkeypatch, coeffs):
        # every radius of these is refused by an exact test: rootloc refuses
        # the radii 15, 10 and 6 of 30 + z + z^2 + z^3 + 6z^4 by size (each
        # is at least 4 = 2^2, and 2 * 4 >= bitlen(30)), and leading_coeff
        # stops at its size condition 30 > 2 * 6; the radii 3 and 2 of
        # 6 + z + 6z^2 have 6 d^2 >= 6 at both ends
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

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(-10**6, 10**6), min_size=2,
                 max_size=rootloc.EXACT_MAX_DEGREE + 1).filter(lambda c: c[-1]),
        # p + b z + c z^m with c just below p: roots of modulus near 1, at the
        # radius d = 1 that the prime p gives at a_0
        st.builds(lambda p, b, m, gap: [p, b, *[0] * (m - 2), p - gap],
                  st.sampled_from((1009, 1013, 1109, 2003, 10007)), st.integers(-3, 3),
                  st.integers(2, rootloc.EXACT_MAX_DEGREE), st.integers(1, 40)),
    ))
    def test_numeric_mode_needs_no_roots_below_the_degree_cap(self, coeffs):
        # up to the cap root_free decides every radius exactly: a run whose
        # root iteration always fails reports what the real one reports
        config = AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC)
        f = P(*coeffs)
        expected = analyze(f, config)

        def failing(g, *args, **kwargs):
            raise rootloc.NonConvergenceError(math.inf)

        with mock.patch.object(rootloc, "numeric_roots", failing):
            report = analyze(f, config)
        assert not any("did not converge" in w for w in report.warnings)
        assert report == expected

    @pytest.mark.parametrize("above", [0, 1])
    def test_exact_disk_tests_stop_at_the_degree_cap(self, monkeypatch, above):
        # (z - 2)^m: constant_term tries d = 1, which no exact test settles
        # above the cap (the inequality at 1.001 fails by the middle
        # coefficients), and every root has modulus 2; up to the cap one
        # root_free call certifies it with no roots, above the cap the roots
        # do and root_free never runs
        calls = []

        def counting(name):
            real = getattr(rootloc, name)

            def call(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return call

        for name in ("root_free", "numeric_roots"):
            monkeypatch.setattr(rootloc, name, counting(name))
        m = rootloc.EXACT_MAX_DEGREE + above
        report = analyze(
            P(-2, 1) ** m,
            AnalyzeConfig(oracle="off", root_mode=CertificateMode.NUMERIC_HEURISTIC),
        )
        assert calls == (["numeric_roots"] if above else ["root_free"])
        outcome = next(o for o in report.outcomes if o.criterion == "constant_term")
        assert outcome.witnesses["d"] == 1
        assert outcome.certificate_mode == "numeric-conditional"

    def test_oracle_consistency_predicate(self):
        split = oracle.factor(P(-1, 0, 1)).factor_degrees()  # (z-1)(z+1)
        irr = Conclusion.irreducible()
        two = Conclusion.at_most(2)
        fdb1 = Conclusion.factor_degree(1)
        assert not irr.holds(split)
        assert two.holds(split)
        assert fdb1.holds(split)  # linear factor witnesses it

        whole = oracle.factor(P(1, 0, 1) * P(2, 1, 3)).factor_degrees()  # two quadratics
        assert not fdb1.holds(whole)

        # the audit's case: a degree-2 factor within a bound of 2, the z
        # factors of the full input left out of both count and degrees
        mixed = oracle.factor(P(1, 0, 1) * P(1, 1, 0, 1)).factor_degrees()  # quadratic * cubic
        assert Conclusion.factor_degree(2).holds(mixed)
        assert not Conclusion.factor_degree(1).holds(mixed)
        shifted = oracle.factor(P(0, 0, 1, 0, 1) * P(1, 1, 0, 1)).factor_degrees()
        assert Conclusion.factor_degree(2).holds(shifted)
        assert not Conclusion.factor_degree(1).holds(shifted)
        assert Conclusion.at_most(2).holds(shifted)
