"""Library routines against slower references that restate the
mathematics and must give exactly the same results. Whether a change moved
any output at all is decided by the golden outcome file
(`tests/test_golden.py`); the references here check what it is right for
an output to be, on input streams drawn far wider than the golden set.

- The criteria and audit predicates that read a shared PolyFacts record,
  against direct sums that recompute every sum, power and factorization
  from the polynomial for each (j, b) or (j, p) pair; the disk criteria
  certify every radius in either root mode. Outcomes, witnesses and the
  audit's largest certified radius must agree. The dominance witness b
  must be the least divisor of |a_m| that passes, with the divisors
  read once each, in increasing order.
- The numeric disk-radius search, whose certificate refuses without roots
  every radius that `rootloc.has_root_in_disk` proves holds a root, and up
  to `rootloc.EXACT_MAX_DEGREE` decides every radius without roots, against
  a search that applies the numeric rule to the roots at every radius.
- `rootloc.certify_outside_disk` in both modes and `has_root_in_disk`,
  which refuse a radius too large for the root product by bit lengths,
  against the forms that build every power in full.
- Weintraub's criterion, the generalized Eisenstein criterion and the disk
  criteria's shared search, which keep their best witness as plain values,
  against lists of every candidate witness, of which the first of the
  strongest wins; and `eisenstein_generalized` and `leading_coeff`, which
  read the cofactor of a_0 above 10^3 only when it can change the witness
  or q, against searches over the full factorization of a_0.
- `numtheory.prime_factors` against trial division to 10^6;
  `numtheory._ascending_divisors` against the full divisor list; and
  `PolyFacts.dominant` against a scan of every index in exact rationals,
  of which at most one passes. Pollard rho spends at most its budget,
  and its factor and steps spent match recorded values.
- `poly.rational_roots` against the scan over every candidate p/q with
  p | a_0 and q | a_m, and the rational-root flag against it.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irreducia import audit, criteria, numtheory, rootloc
from irreducia.corpus import gen_exhaustive, gen_random
from irreducia.criteria import (
    CRITERIA,
    AnalyzeConfig,
    Conclusion,
    CriterionOutcome,
    PolyFacts,
    analyze,
    constant_term_criterion,
    dominant_coefficient,
    leading_coeff_criterion,
    middle_prime_power_check,
    perron_nonmonic,
)
from irreducia.poly import Polynomial, normalize, rational_roots

from generators import next_prime

SYM = rootloc.CertificateMode.SYMBOLIC_SUFFICIENT
NUM = rootloc.CertificateMode.NUMERIC_HEURISTIC


def _no_conclusion(name):
    return CriterionOutcome(name, witnesses={}, conclusion=Conclusion.none())


def ref_dominant_coefficient(f):
    name = "dominant_coefficient"
    m = f.degree
    if m < 2:
        return _no_conclusion(name)
    mags = [abs(c) for c in f.coeffs]
    am = mags[m]
    for j in range(m - 1, -1, -1):
        if mags[j] == 0:
            continue
        low = sum(mags[i] * am ** (j - i) for i in range(j))
        for b in numtheory.positive_divisors(am):
            scale = b ** (m - j)
            high = sum(mags[i] * b ** (m - i) for i in range(j + 1, m + 1))
            if mags[j] * scale > low * scale + high:
                return CriterionOutcome(
                    name, {"b": b, "delta": Fraction(1, b), "j": j},
                    Conclusion.at_most(m - j),
                )
    return _no_conclusion(name)


def ref_perron_nonmonic(f):
    name = "perron_nonmonic"
    m = f.degree
    if m < 2:
        return _no_conclusion(name)
    am = abs(f.leading_coefficient)
    rhs = 1 + sum(abs(f.coeffs[i]) * am ** (m - 1 - i) for i in range(m - 1))
    if abs(f.coeffs[m - 1]) > rhs:
        return CriterionOutcome(name, {}, Conclusion.irreducible())
    return _no_conclusion(name)


def ref_middle_prime_power_check(f):
    name = "middle_prime_power"
    m = f.degree
    if m < 2 or f.constant_term == 0:
        return _no_conclusion(name)
    c = f.coeffs
    am = abs(c[m])
    for j in range(m - 1, 0, -1):
        if c[j] == 0 or c[j - 1] == 0:
            continue
        scale = am ** (m - j)
        high = sum(abs(c[i]) * am ** (m - i) for i in range(j + 1, m + 1))
        for p, _ in numtheory.prime_factors(abs(c[j])):
            n_exp = numtheory.valuation(p, c[j])
            s_exp = numtheory.valuation(p, c[j - 1])
            reduced_prev = abs(c[j - 1]) // p**s_exp
            rhs = am * reduced_prev * p ** (2 * s_exp) * scale
            rhs += sum(
                am**i * abs(c[j - i]) * p ** (i * s_exp) * scale for i in range(2, j + 1)
            )
            rhs += high
            if abs(c[j]) * scale > rhs:
                return CriterionOutcome(
                    name, {"p": p, "j": j, "N": n_exp, "s": s_exp},
                    Conclusion.at_most(m - j),
                )
    return _no_conclusion(name)


def _ref_disk_outcome(name, p, k, j, d, mode, witnesses=()):
    return CriterionOutcome(
        name,
        {"p": p, "k": k, "j": j, "d": d, **dict(witnesses)},
        Conclusion.at_most(min(k, j)),
        certificate_mode="exact" if mode is SYM else "numeric-conditional",
    )


def ref_constant_term_criterion(f, mode=SYM):
    name = "constant_term"
    c, m = f.coeffs, f.degree
    a0 = c[0]
    if abs(a0) == 1:
        return _no_conclusion(name)
    best = None
    for p, k in numtheory.prime_factors(abs(a0)):
        d = abs(a0) // p**k
        if not rootloc.certify_outside_disk(f, d, mode):
            continue
        j = next(j for j in range(1, m + 1) if c[j] % p != 0)
        candidate = _ref_disk_outcome(name, p, k, j, d, mode)
        if best is None or candidate.rank() < best.rank():
            best = candidate
    return best if best is not None else _no_conclusion(name)


def ref_leading_coeff_criterion(f, mode=SYM):
    name = "leading_coeff"
    c, m = f.coeffs, f.degree
    a0, am = c[0], c[m]
    if abs(am) == 1 or abs(a0) == 1:
        return _no_conclusion(name)
    q = numtheory.prime_factors(abs(a0))[0][0]
    if abs(a0) > q * abs(am):
        return _no_conclusion(name)
    best = None
    for p, k in numtheory.prime_factors(abs(am)):
        d = abs(am) // p**k
        if not rootloc.certify_outside_disk(f, d, mode):
            continue
        j = next(j for j in range(1, m + 1) if c[m - j] % p != 0)
        candidate = _ref_disk_outcome(name, p, k, j, d, mode, {"q": q})
        if best is None or candidate.rank() < best.rank():
            best = candidate
    return best if best is not None else _no_conclusion(name)


def ref_cor1_best_j(f):
    m = f.degree
    if m < 2:
        return None
    mags = [abs(c) for c in f.coeffs]
    am = mags[m]
    for j in range(m - 1, -1, -1):
        if mags[j] == 0:
            continue
        scale = am ** (m - j)
        lhs = mags[j] * scale
        rhs = mags[j + 1] * am ** (m - j - 1)
        rhs += sum(mags[i] * am ** (j - i) for i in range(j)) * scale
        rhs += sum(mags[i] * am ** (m - i) for i in range(j + 2, m + 1))
        if lhs > rhs:
            return j
    return None


def _audit_radius(facts):
    """The radius the audit's root-location check reads."""
    return max(facts.certified_radius(i) for i in (0, facts.degree))


def ref_symbolic_disk_radii(f):
    radii = []
    for source in (f.constant_term, f.leading_coefficient):
        if abs(source) < 2:
            continue
        for p, _ in numtheory.prime_factors(abs(source)):
            d = abs(source) // p ** numtheory.valuation(p, source)
            if rootloc.certify_outside_disk(f, d, SYM):
                radii.append(d)
    return radii


REFERENCES = {
    "constant_term": ref_constant_term_criterion,
    "dominant_coefficient": ref_dominant_coefficient,
    "leading_coeff": ref_leading_coeff_criterion,
    "middle_prime_power": ref_middle_prime_power_check,
    "perron_nonmonic": ref_perron_nonmonic,
}

# Small magnitudes make the dominance inequalities fire; large ones give
# many primes and divisors.
_coefficient = st.one_of(st.integers(-6, 6), st.integers(-10**6, 10**6))


@st.composite
def primitive_polys(draw, min_size=2, max_size=13):
    coeffs = draw(st.lists(_coefficient, min_size=min_size, max_size=max_size))
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    g = math.gcd(*coeffs)
    return Polynomial([c // g for c in coeffs])


@st.composite
def dominant_constant_polys(draw):
    """|a_0| > sum_{i>=1} |a_i|, so the exact disk test at d = 1 passes and
    the disk criteria search on; half the time a_0 = +-p^k d with
    p^k d > sum |a_i| d^i, so the radius d is certified too."""
    tail = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=8))
    tail[-1] = tail[-1] or draw(st.integers(1, 6))
    if draw(st.booleans()):
        p, d = draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(1, 4))
        while d % p == 0:
            d += 1
        pk = p ** draw(st.integers(1, 3))
        while pk * d <= sum(abs(a) * d**i for i, a in enumerate(tail, start=1)):
            pk *= p
        a0 = pk * d
    else:
        a0 = sum(map(abs, tail)) + draw(st.one_of(st.integers(1, 6), st.integers(1, 10**6)))
    coeffs = [draw(st.sampled_from((1, -1))) * a0, *tail]
    g = math.gcd(*coeffs)
    return Polynomial([c // g for c in coeffs])


@settings(max_examples=300, deadline=None)
@given(st.one_of(primitive_polys(), dominant_constant_polys()))
def test_facts_criteria_match_direct_sums(f):
    facts = PolyFacts(f)
    for name, reference in REFERENCES.items():
        expected = reference(f)
        assert CRITERIA[name](PolyFacts(f)) == expected  # own record
        assert CRITERIA[name](facts) == expected  # shared record
    assert audit.cor1_best_j(facts) == ref_cor1_best_j(f)
    assert _audit_radius(facts) == max(ref_symbolic_disk_radii(f), default=0)
    # numeric mode: the same search, over every radius the references try
    facts = PolyFacts(f, NUM)
    for name in ("constant_term", "leading_coeff"):
        try:
            expected = REFERENCES[name](f, NUM)
        except rootloc.NonConvergenceError:
            # the library asks for the roots only at a radius that no exact
            # test refuses: it fails too, or refuses every radius without them
            try:
                outcome = CRITERIA[name](facts)
            except rootloc.NonConvergenceError:
                continue
            assert not outcome.conclusion.fired()
        else:
            assert CRITERIA[name](facts) == expected


def ref_numeric_certified(d, roots):
    """The numeric rule read off the roots alone: every root modulus above
    d (1 + MARGIN), for a radius d within the float range."""
    return d <= sys.float_info.max and min(map(abs, roots)) > float(d) * (1 + rootloc.MARGIN)


def ref_numeric_radius(f, i, roots):
    """The largest radius |a_i| / p^k whose numeric certificate holds, with
    every radius decided from the roots."""
    a = abs(f.coeffs[i])
    radii = [a // p**k for p, k in numtheory.prime_factors(a)]
    return max((d for d in radii if ref_numeric_certified(d, roots)), default=0)


@st.composite
def band_quadratics(draw):
    """c z^2 + b z + p d, with p a prime above 250 d and p / (1.004 d) <= c
    < p / d: a pair of complex roots of modulus sqrt(p d / c) in
    (d, 1.002 d], just outside the radius d that p gives at a_0, on either
    side of the margin d (1 + MARGIN) that the numeric certificate needs."""
    d = draw(st.integers(1, 6))
    p = draw(st.sampled_from((2003, 4001, 7919, 10007)))
    c = draw(st.integers(-(-250 * p // (251 * d)), -(-p // d) - 1))
    b = draw(st.integers(-3, 3))
    assume(math.gcd(c, b, p * d) == 1)
    return Polynomial([p * d, b, c])


@settings(max_examples=300, deadline=None)
@given(st.one_of(primitive_polys(min_size=3, max_size=17), band_quadratics()))  # degree 2-16
def test_exact_refusals_match_numeric_certificates(f):
    try:
        roots = rootloc.numeric_roots(f)
    except rootloc.NonConvergenceError:
        assume(False)
    facts = PolyFacts(f, NUM)
    m = f.degree
    for i in (0, m):
        assert facts.certified_radius(i) == ref_numeric_radius(f, i, roots)
    radii = {d for i in (0, m) for _, _, d in facts.disk_radii(i)} | set(range(1, 9))

    def no_roots():
        raise AssertionError("roots asked for below the degree cap")

    for d in radii:
        certified = ref_numeric_certified(d, roots)
        assert rootloc.certify_outside_disk(f, d, NUM, roots=lambda: roots) is certified
        if rootloc.has_root_in_disk(f, d):
            assert not certified
        if m <= rootloc.EXACT_MAX_DEGREE:
            assert rootloc.certify_outside_disk(f, d, NUM, roots=no_roots) is certified


def ref_has_root_in_disk(f, d):
    """|a_m| d^m >= |a_0| with d^m built in full, or a sign change of f on
    [0, d] or [-d, 0], with f(+-d) = E +- O from the even and odd parts."""
    c = f.coeffs
    if abs(c[-1]) * d**f.degree >= abs(c[0]):
        return True
    d2, even, odd = d * d, 0, 0
    for a in reversed(c[0::2]):
        even = even * d2 + a
    for a in reversed(c[1::2]):
        odd = odd * d2 + a
    odd *= d
    return c[0] * (even + odd) <= 0 or c[0] * (even - odd) <= 0


def ref_certify_outside_disk(f, d, mode, roots):
    """The symbolic Horner test alone, or the numeric rule after the exact
    refusals of `ref_has_root_in_disk`; below the degree cap, Schur-Cohn at
    d and then at SCALE d."""
    if mode is SYM:
        rhs = 0
        for a in reversed(f.coeffs[1:]):
            rhs = rhs * d + abs(a)
        return abs(f.constant_term) > rhs * d
    if f.degree == 0:
        return True
    if ref_has_root_in_disk(f, d):
        return False
    if f.degree <= rootloc.EXACT_MAX_DEGREE:
        return rootloc.root_free(f, d) and rootloc.root_free(f, d * rootloc.SCALE)
    return ref_numeric_certified(d, roots())


@st.composite
def polys_and_radii_near_the_size_bound(draw):
    """Degree 1-16 with |a_i| up to 10^30, and a radius within 2 of
    2^ceil(bitlen(|a_0|) / m), where the bit-length refusal starts for an
    integer radius, or a rational radius u / v below about that size."""
    m = draw(st.integers(1, 16))
    big = st.integers(-10**30, 10**30)
    coeffs = draw(st.lists(st.one_of(st.integers(-6, 6), big), min_size=m + 1, max_size=m + 1))
    coeffs[0] = coeffs[0] or draw(big.filter(bool))
    coeffs[-1] = coeffs[-1] or 1
    f = Polynomial(coeffs)
    start = 1 << -(-abs(coeffs[0]).bit_length() // m)
    if draw(st.booleans()):
        d = max(1, start + draw(st.integers(-2, 2)))
    else:
        v = draw(st.integers(2, 1000))
        d = Fraction(draw(st.integers(1, (start + 2) * v)), v)
    return f, d


def _answer(decide):
    """decide(), or the type of the error it raised."""
    try:
        return decide()
    except rootloc.NonConvergenceError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(polys_and_radii_near_the_size_bound())
def test_size_refusals_match_full_power_certificates(case):
    f, d = case
    assert rootloc.has_root_in_disk(f, d) is ref_has_root_in_disk(f, d)
    found = []

    def roots():  # one root set, or one error, shared by both sides
        if not found:
            found.append(_answer(lambda: rootloc.numeric_roots(f)))
        if found[0] is rootloc.NonConvergenceError:
            raise rootloc.NonConvergenceError(math.inf)
        return found[0]

    for mode in (SYM, NUM):
        assert _answer(lambda: rootloc.certify_outside_disk(f, d, mode, roots=roots)) == (
            _answer(lambda: ref_certify_outside_disk(f, d, mode, roots)))


def test_a_root_past_the_radius_is_not_certified():
    # a root in (d, SCALE d] that the exact refusals leave open:
    # (1000z - 1001)(z^2 + 4) at d = 1, and (2000z - 1001)(z + 4) at d = 1/2.
    # Schur-Cohn finds no root in |z| <= d and one in |z| <= SCALE d, which
    # is what the numeric rule asks about, so d is refused without roots
    for coeffs, d in (([-4004, 4000, -1001, 1000], 1), ([-4004, 6999, 2000], Fraction(1, 2))):
        f = Polynomial(coeffs)
        assert not rootloc.has_root_in_disk(f, d)
        assert rootloc.root_free(f, d)
        assert not rootloc.root_free(f, d * rootloc.SCALE)
        assert rootloc.certify_outside_disk(f, d, NUM) is False


def test_references_fire_on_known_instances():
    # the properties against these references would pass vacuously if the
    # references never fired
    assert ref_dominant_coefficient(Polynomial([1, 3, 9, 1])) == dominant_coefficient(
        PolyFacts(Polynomial([1, 3, 9, 1]))
    )
    assert ref_perron_nonmonic(Polynomial([3, 10, 2])).conclusion.fired()
    assert perron_nonmonic(PolyFacts(Polynomial([3, 10, 2]))).conclusion.fired()
    mpp = ref_middle_prime_power_check(Polynomial([1, 1, 16, 1]))
    assert mpp.conclusion.fired()
    assert middle_prime_power_check(PolyFacts(Polynomial([1, 1, 16, 1]))) == mpp
    # p^s > 1 in the coefficient below: 3 + 4z + 96z^2 + z^3, s = 2 at p = 2
    f = Polynomial([3, 4, 96, 1])
    assert ref_middle_prime_power_check(f).witnesses["s"] == 2
    assert middle_prime_power_check(PolyFacts(f)) == ref_middle_prime_power_check(f)
    assert ref_cor1_best_j(Polynomial([1, 1, 10, 1])) == 2
    f = Polynomial([24, 1, 1])  # 8 * 3: d = 8 fails, d = 3 is certified
    assert ref_constant_term_criterion(f).witnesses == {"p": 2, "k": 3, "j": 1, "d": 3}
    assert constant_term_criterion(PolyFacts(f)) == ref_constant_term_criterion(f)
    f = Polynomial([11, 0, 5])
    assert ref_leading_coeff_criterion(f).witnesses == {"p": 5, "k": 1, "j": 2, "d": 1, "q": 11}
    assert leading_coeff_criterion(PolyFacts(f)) == ref_leading_coeff_criterion(f)
    assert ref_symbolic_disk_radii(Polynomial([24, 1, 1])) == [3]
    assert _audit_radius(PolyFacts(Polynomial([24, 1, 1]))) == 3
    f = Polynomial([4, -4, 1])  # (z - 2)^2: only numeric mode certifies d = 1
    assert not ref_constant_term_criterion(f).conclusion.fired()
    out = ref_constant_term_criterion(f, NUM)
    assert out.witnesses == {"p": 2, "k": 2, "j": 2, "d": 1}
    assert constant_term_criterion(PolyFacts(f, NUM)) == out


def test_audit_one_certifies_each_radius_once(monkeypatch):
    calls: Counter = Counter()
    certify = rootloc.certify_outside_disk

    def counting(f, d, mode=rootloc.CertificateMode.SYMBOLIC_SUFFICIENT, **kwargs):
        calls[(f.coeffs, d, mode)] += 1
        return certify(f, d, mode, **kwargs)

    monkeypatch.setattr(rootloc, "certify_outside_disk", counting)
    # 1013 + z + 1009z^2 has roots of modulus 1.00198, where no integer test
    # refuses d = 1, so a numeric certificate is made there
    corpus = list(gen_exhaustive(3, 4))[::5] + list(gen_random(300, 6, 60, seed=11))
    corpus.append(Polynomial([1013, 1, 1009]))
    result = audit.AuditResult()
    numeric = AnalyzeConfig(root_mode=NUM, oracle="off")
    for f in corpus:
        audit.audit_one(f, result)
        analyze(f, numeric)
    assert result.rootloc_checked > 0
    assert {mode for _, _, mode in calls} == {SYM, NUM}
    assert max(calls.values()) == 1


def test_one_shot_criteria_iterator_matches_reference_on_every_call():
    # the config reads an iterator once, when it is built, so every call
    # runs the names it held
    f = Polynomial([6, 4, 0, 2, 1])
    names = ("weintraub", "constant_term", "weintraub")
    one_shot = AnalyzeConfig(iter(names), SYM, "off")
    expected = analyze(f, AnalyzeConfig(names, SYM, "off"))
    assert [o.criterion for o in expected.outcomes] == ["constant_term", "weintraub"]
    for _ in range(2):
        assert analyze(f, one_shot) == expected


# ---------------------------------------------------------------------------
# one outcome per witness search


def ref_strongest(name, candidates):
    """The first of the strongest candidates, or the shared NoConclusion."""
    if not candidates:
        return criteria._NO_CONCLUSIONS[name]
    return min(candidates, key=CriterionOutcome.rank)


def ref_weintraub_check(facts):
    name = "weintraub"
    c, m = facts.coeffs, facts.degree
    lower_gcd = math.gcd(*c[:m])
    if lower_gcd <= 1:
        return criteria._NO_CONCLUSIONS[name]
    candidates = []
    for p, _ in numtheory.prime_factors(lower_gcd):
        p2 = p * p
        k0 = next((k for k in range(m) if c[k] % p2 != 0), None)
        if k0 is None:
            continue
        if k0 == 0 or (k0 == 1 and not rational_roots(facts.poly)):
            conclusion = Conclusion.irreducible()
        else:
            conclusion = Conclusion.factor_degree(k0)
        candidates.append(CriterionOutcome(name, {"p": p, "k0": k0}, conclusion))
    return ref_strongest(name, candidates)


def ref_eisenstein_generalized(facts):
    name = "eisenstein_generalized"
    c, m = facts.coeffs, facts.degree
    candidates = []
    for p, k in numtheory.prime_factors(facts.mags[0]):
        pk = p**k
        prefix = 0
        while prefix <= m and c[prefix] % pk == 0:
            prefix += 1
        for j in range(min(prefix, m), 0, -1):
            if c[j] % p == 0 or math.gcd(k, j) != 1:
                continue
            if j == m or (j == m - 1 and not rational_roots(facts.poly)):
                conclusion = Conclusion.irreducible()
            else:
                conclusion = Conclusion.factor_degree(m - j)
            candidates.append(CriterionOutcome(name, {"p": p, "k": k, "j": j}, conclusion))
            break
    return ref_strongest(name, candidates)


def ref_disk_criterion(name, facts, i, q=None):
    limit = facts.certified_radius(i)
    if not limit:
        return criteria._NO_CONCLUSIONS[name]
    c, m = facts.coeffs, facts.degree
    step = 1 if i == 0 else -1
    cert_mode = "exact" if facts.mode is SYM else "numeric-conditional"
    candidates = []
    for p, k, d in facts.disk_radii(i):
        if d > limit:
            continue
        j = next(j for j in range(1, m + 1) if c[i + step * j] % p != 0)
        witnesses = {"p": p, "k": k, "j": j, "d": d}
        if q is not None:
            witnesses["q"] = q
        candidates.append(CriterionOutcome(
            name, witnesses, Conclusion.at_most(min(k, j)), certificate_mode=cert_mode
        ))
    return ref_strongest(name, candidates)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def prime_power_products(draw, bound):
    """+-(a product of powers of up to four distinct small primes), at most
    bound in magnitude."""
    n = 1
    for p in draw(st.lists(st.sampled_from(_SMALL_PRIMES), min_size=1, max_size=4, unique=True)):
        e = draw(st.integers(1, 6))
        while e and n * p**e > bound:
            e -= 1
        n *= p**e
    return draw(st.sampled_from((1, -1))) * n


@st.composite
def competing_witness_polys(draw):
    """Degree <= 12 and |c| <= 10^6. a_0 and one middle coefficient are
    products of several prime powers, or a_0 is a large prime (a large q
    for the leading-coefficient test). Half the time every coefficient
    below a_m is a multiple of one shared such product g; otherwise some
    are, and the rest are small (so a_0 may dominate and the disk tests
    pass) or products themselves. Many primes then compete in Weintraub's
    criterion, the generalized Eisenstein criterion and both disk criteria."""
    m = draw(st.integers(1, 12))
    g = abs(draw(prime_power_products(10**3)))
    small = st.integers(-6, 6)
    if draw(st.booleans()):
        lower = small.map(lambda t: g * t)
        products = prime_power_products(10**3).map(lambda a: g * a)
    else:
        lower = st.one_of(small, small.map(lambda t: g * t), prime_power_products(10**6))
        products = st.one_of(prime_power_products(10**6), st.integers(2, 10**6).map(next_prime))
    coeffs = [draw(lower) for _ in range(m)]
    coeffs[0] = draw(products)
    if m >= 2:
        coeffs[draw(st.integers(1, m - 1))] = draw(products)
    coeffs.append(draw(st.one_of(small, prime_power_products(10**6))) or 1)
    f = normalize(Polynomial(coeffs)).primitive_part
    assume(f.degree >= 1)
    return f


def _searched(search, *args):
    """The outcome with its witnesses in order, or the error raised."""
    try:
        outcome = search(*args)
    except rootloc.NonConvergenceError as exc:
        return type(exc)
    return outcome, list(outcome.witnesses.items())


def _one_outcome_searches(f, mode):
    """(library, reference) pairs of each search on f, each on its own record."""
    m = f.degree
    q = numtheory.prime_factors(abs(f.coeffs[0]))[0][0] if abs(f.coeffs[0]) > 1 else None
    return [
        (_searched(criteria.weintraub_check, PolyFacts(f)),
         _searched(ref_weintraub_check, PolyFacts(f))),
        (_searched(criteria.eisenstein_generalized, PolyFacts(f)),
         _searched(ref_eisenstein_generalized, PolyFacts(f))),
        (_searched(criteria._disk_criterion, "constant_term", PolyFacts(f, mode), 0),
         _searched(ref_disk_criterion, "constant_term", PolyFacts(f, mode), 0)),
        (_searched(criteria._disk_criterion, "leading_coeff", PolyFacts(f, mode), m, q),
         _searched(ref_disk_criterion, "leading_coeff", PolyFacts(f, mode), m, q)),
    ]


@settings(max_examples=500, deadline=None)
@given(competing_witness_polys(), st.sampled_from((SYM, NUM)))
def test_one_outcome_searches_match_candidate_lists(f, mode):
    for library, reference in _one_outcome_searches(f, mode):
        assert library == reference


def test_one_outcome_searches_keep_the_first_strongest():
    # the property above would pass vacuously if no later candidate ever
    # beat an earlier one, or if no two candidates tied; each case lists
    # the candidates in search order, the winner last
    cases = [
        # weintraub: k0 = 3 at p = 2, then 2 at p = 3
        ((36, 36, -12, -6, 5), 0, {"p": 3, "k0": 2}),
        # weintraub: k0 = 2 at p = 2, then 0 (irreducible) at p = 3
        ((-12, -12, -6, 5), 0, {"p": 3, "k0": 0}),
        # weintraub: k0 = 1 at both primes, and a rational root: the first wins
        ((36, -6, -6, 1), 0, {"p": 2, "k0": 1}),
        # eisenstein: j = 1 at p = 2, then j = 2 at p = 3 and at p = 5
        ((30, 15, 2, 1), 1, {"p": 3, "k": 1, "j": 2}),
        # eisenstein: j = 1 at p = 2, then j = m (irreducible) at p = 3
        ((30, 15, 0, -1), 1, {"p": 3, "k": 1, "j": 3}),
        # constant term: d = 3 and d = 2 both give a bound of 1
        ((6, -1), 2, {"p": 2, "k": 1, "j": 1, "d": 3}),
        # leading coefficient: bound 3 at d = 9, then 2 at d = 8
        ((52489, 0, 0, 72), 3, {"p": 3, "k": 2, "j": 3, "d": 8, "q": 52489}),
        # leading coefficient: bound 2 at d = 3, then 1 at d = 4
        ((193, 0, 12), 3, {"p": 3, "k": 1, "j": 2, "d": 4, "q": 193}),
    ]
    for coeffs, index, witnesses in cases:
        library, reference = _one_outcome_searches(Polynomial(coeffs), SYM)[index]
        assert library == reference
        assert library[1] == list(witnesses.items())


def ref_prime_factors(n):
    """Trial division by 2, 3 and 6k+-1 up to 10^6, then Miller-Rabin and
    Pollard rho on a survivor above 10^12."""
    if n == 1:
        return ()
    powers = {}
    for p in (2, 3):
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    d = 5
    while d <= 10**6 and d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                powers[q] = powers.get(q, 0) + 1
                n //= q
        d += 6
    if n > 1:
        if n <= 10**12 or numtheory.is_prime(n):
            powers[n] = powers.get(n, 0) + 1
        else:
            rng = random.Random(n)
            stack = [n]
            while stack:
                m = stack.pop()
                if numtheory.is_prime(m):
                    powers[m] = powers.get(m, 0) + 1
                    continue
                g = None
                while g is None:
                    start = (rng.randrange(1, m), rng.randrange(1, m))
                    g, _ = numtheory._pollard_rho(m, start, numtheory._RHO_STEPS)
                stack.extend((g, m // g))
    return tuple(sorted(powers.items()))


# prime powers that trial division to 10^3 leaves to rho: primes between
# 10^3 and 10^6, and at most two primes near 2^32, the hardest factors of a
# composite below 2^64 (more of those may exhaust the rho budget above 2^64,
# where raising is allowed)
_mid_prime_power = st.tuples(st.integers(10**3, 10**6).map(next_prime), st.integers(1, 3))
_big_prime = st.integers(2**32 - 2**20, 2**32 + 2**20).map(next_prime)
# primes above 10^3: a product of two is a composite cofactor that rho
# splits at once
_cofactor_prime = st.integers(10**3, 10**5).map(next_prime)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12))
def test_factorization_matches_trial_division(n):
    assert numtheory.prime_factors(n) == ref_prime_factors(n)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(_mid_prime_power, max_size=3),
    st.lists(_big_prime, max_size=2),
)
def test_factorization_of_prime_power_products(mid_prime_powers, big_primes):
    expected = Counter(big_primes)
    for p, e in mid_prime_powers:
        expected[p] += e
    n = math.prod(p**e for p, e in expected.items())
    factors = numtheory.prime_factors(n)
    assert factors == tuple(sorted(expected.items()))
    assert factors == ref_prime_factors(n)


# Around the gcd strip of the primes 5..997 and the 6k+-1 wheel from 1001:
# powers of the primes on either side of 10^3, and integers >= 2^64 whose
# primes below 10^3 come out before the wheel takes 1009 (with 1009^7 the
# cofactor stays >= 2^64, so the wheel runs; with 1009^4 it falls below, so
# rho splits it)
@pytest.mark.parametrize("n", [
    997, 997**2, 997**5, 991 * 997, 991**3 * 997**2, 983 * 991 * 997, 1009, 1013,
    1009**2, 1009 * 1013, 997 * 1009, 997**2 * 1013**3, 5**3 * 7 * 997 * 1009**2,
    2**70 * 997**3 * 1009**7, 2**40 * 997**2 * 1009**4, 3**45 * 991 * 1013**6,
    math.prod(numtheory._SMALL_PRIMES), 6 * math.prod(numtheory._SMALL_PRIMES) * 1009,
])
def test_factorization_around_small_prime_bound(n):
    assert numtheory.prime_factors(n) == ref_prime_factors(n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(((2**31 - 1) * (2**61 - 1), (2**61 - 1) * (2**60 + 33))),
       st.integers(0, 2**32), st.integers(1, 5000))
def test_pollard_rho_spends_at_most_its_budget(n, seed, steps):
    # products whose smaller prime needs far more than 5,000 steps: nearly
    # every attempt runs out, at a budget that may end inside a walk or a batch
    rng = random.Random(seed)
    factor, spent = numtheory._pollard_rho(n, (rng.randrange(1, n), rng.randrange(1, n)), steps)
    assert factor is None or n % factor == 0 and 1 < factor < n
    assert spent <= steps


@pytest.mark.parametrize("n, seed, steps, found", [
    (1000003 * 1000033, 0, 10**6, (1000033, 3326)),
    (1000003 * 1000033, 1, 10**6, (1000003, 894)),
    (10007 * 1000003, 0, 500, (10007, 500)),  # found in the batch the budget cut short
    ((2**31 - 1) * 4294967311, 1, 10**6, (2**31 - 1, 103678)),
])
def test_pollard_rho_factor_and_steps_are_recorded(n, seed, steps, found):
    # what a budget charges: the steps spent, a function of n, the seed and
    # the budget, recorded for Brent's walk with its gcd every 128 steps
    rng = random.Random(seed)
    assert numtheory._pollard_rho(n, (rng.randrange(1, n), rng.randrange(1, n)), steps) == found


def test_limit_message_names_the_cofactor_after_the_small_primes(monkeypatch):
    hard = (2**61 - 1) * (2**89 - 1)
    monkeypatch.setattr(numtheory, "_RHO_STEPS", 1000)
    numtheory._factor_positive.cache_clear()
    try:
        with pytest.raises(numtheory.FactorizationLimitError) as info:
            numtheory.prime_factors(997 * hard)
    finally:
        numtheory._factor_positive.cache_clear()
    assert str(info.value) == (
        f"factorization limit reached on {hard}: no factor within 1000 Pollard rho steps"
    )


@st.composite
def big_leading_polys(draw):
    """a_m up to 10^13, drawn smooth, prime, or a number below 10^3 times a
    large prime or times a composite of two primes above 10^3, or one next
    to the range bound 32 (31, 32, 33, 64, 2 * 997, or a prime below 32
    times a prime above 10^3), with a_0 up to 10^4 and middle coefficients
    up to 10^6, so the dominance witness b is found in the range up to 32,
    among the divisors up to 10^3 that `PolyFacts.dominant` reads from the
    primes below 10^3, and among those above, which it reads from the
    factorization of a_m."""
    kinds = ("smooth", "prime", "small times prime", "small times composite", "edge")
    kind = draw(st.sampled_from(kinds))
    if kind == "edge":
        big = next_prime(draw(st.integers(10**3, 10**6)))
        am = draw(st.sampled_from((31, 32, 33, 64, 2 * 997, draw(st.sampled_from((2, 3, 31))) * big)))
    elif kind == "smooth":
        am = 1
        for p in draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 31, 37, 997)), max_size=12)):
            if am * p <= 10**12:
                am *= p
    elif kind == "prime":
        am = next_prime(draw(st.integers(2, 10**12)))
    elif kind == "small times prime":
        am = draw(st.integers(1, 60)) * next_prime(draw(st.integers(10, 10**10)))
    else:
        cofactor = math.prod(draw(st.lists(_cofactor_prime, min_size=2, max_size=2)))
        am = draw(st.integers(1, 999)) * cofactor
    m = draw(st.integers(2, 5))
    if kind == "edge":  # a_1 just below b a_0, for b the divisor of a_m on either side of
        # 32 nearest it, makes b the witness at j = 0 when a_2, ..., a_(m-1) are small
        divisors = numtheory.positive_divisors(am)
        b = draw(st.sampled_from([b for b in divisors if b <= 32][-1:] + [b for b in divisors if b > 32][:1]))
        a0 = draw(st.integers(1, 3))
        a1 = (b * a0 + draw(st.integers(-2, 1))) * draw(st.sampled_from((1, -1)))
        below = [a0, a1, *draw(st.lists(st.integers(-3, 3), min_size=m - 2, max_size=m - 2))]
    else:
        middle = draw(st.lists(st.integers(-10**6, 10**6), min_size=m - 1, max_size=m - 1))
        below = [draw(st.integers(1, 10**4)), *middle]
    coeffs = [below[0] * draw(st.sampled_from((1, -1))), *below[1:], am]
    g = math.gcd(*coeffs)
    return Polynomial([c // g for c in coeffs])


@settings(max_examples=200, deadline=None)
@given(big_leading_polys(), st.sampled_from((1, 31, 32, 33, 999, 1000)))
def test_divisors_above_the_range_match_the_full_divisor_list(f, trial):
    am = abs(f.leading_coefficient)
    walk, full = list(numtheory._ascending_divisors(am)), numtheory.positive_divisors(am)
    assert walk == full
    assert [b for b in walk if b > trial] == [b for b in full if b > trial]


def ref_dominance_indices(f):
    """Every j at which |a_j| > sum_{i<j} |a_i| |a_m|^(j-i) + sum_{i>j}
    |a_i| / |a_m|^(i-j), in exact rationals, each with the floor of the sum
    over i > j."""
    mags = [abs(c) for c in f.coeffs]
    m, am = f.degree, mags[-1]
    hits = []
    for j in range(m):
        upper = sum(Fraction(mags[i], am ** (i - j)) for i in range(j + 1, m + 1))
        if mags[j] > sum(mags[i] * am ** (j - i) for i in range(j)) + upper:
            hits.append((j, math.floor(upper)))
    return hits


@st.composite
def dominated_polys(draw):
    """One coefficient a_j, often a prime power, far above the small others,
    sometimes with a second large one, and a_m on either side of the range
    bound 32, so both dominance criteria fire and the divisor walk finds b
    in the range and past it."""
    m = draw(st.integers(1, 8))
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=m + 1, max_size=m + 1))
    big = st.one_of(st.integers(1, 10**6),
                    st.builds(pow, st.sampled_from((2, 3, 5, 7)), st.integers(1, 40)))
    for j in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2)):
        coeffs[j] = draw(big) * draw(st.sampled_from((1, -1)))
    coeffs[0] = coeffs[0] or 1
    coeffs[m] = draw(st.sampled_from((1, 2, 3, 6, 31, 32, 33, 64, 210, 2 * 997, 10**12 + 39)))
    g = math.gcd(*coeffs)
    return Polynomial([c // g for c in coeffs])


@settings(max_examples=400, deadline=None)
@given(st.one_of(dominated_polys(), primitive_polys(), big_leading_polys()))
@example(Polynomial([1, 1, 10, 1]))
def test_at_most_one_index_dominates(f):
    hits = ref_dominance_indices(f)
    assert len(hits) <= 1
    assert PolyFacts(f).dominant == (hits[0] if hits and f.degree >= 2 else None)


@settings(max_examples=300, deadline=None)
@given(st.one_of(primitive_polys(), dominant_constant_polys(), big_leading_polys(),
                 dominated_polys()))
@example(Polynomial([1, 12, 64]))  # b = 32, the last of the range
@example(Polynomial([1, 1, 2 * 997]))  # b = 997, the first past the range
def test_dominant_witness_matches_full_divisor_scan(f):
    # b is the least divisor of |a_m| that passes, with delta = 1/b
    read, walk = [], numtheory._ascending_divisors

    def recorded(n):  # what the scan reads of the walk
        for b in walk(n):
            read.append(b)
            yield b

    with mock.patch.object(numtheory, "_ascending_divisors", recorded):
        outcome = dominant_coefficient(PolyFacts(f))
    expected = ref_dominant_coefficient(f)
    assert outcome == expected
    if expected.conclusion.fired():
        assert str(outcome.witnesses["delta"]) == str(expected.witnesses["delta"])
    # the walk reads each divisor once, in increasing order, and skips none
    assert read == sorted(set(read))
    assert read == numtheory.positive_divisors(f.leading_coefficient)[:len(read)]


def test_dominant_witness_on_both_sides_of_the_trial_bound():
    # the property above would pass vacuously if the witness never lay
    # past the range or past 10^3: a_2 = 3 * 101 gives b = 3 or 101 (from
    # the primes below 10^3), a_2 = 3 * 1009 gives b = 1009 and the prime
    # a_2 = 10^12 + 39 gives b = a_2 (both from the factorization of a_2).
    # At a_2 = 32 the divisors come from the table alone, at a_2 = 33, 64 and
    # 2 * 997 from trial division to 32 and then the first stage (which at 64
    # must not skip the witness 32); the outcome, delta = 1/b included, comes
    # from one bounded cache
    for coeffs, b in (
        ([50, 10, 303], 3), ([2, 100, 303], 101), ([2, 1000, 3027], 1009),
        ([1, 10**6, 10**12 + 39], 10**12 + 39),
        ([1, 100, 3], 1), ([1, 34, 32], 32), ([1, 35, 33], 33), ([1, 104, 64], 2),
        ([1, 12, 64], 32), ([1, 1, 2 * 997], 997), ([1, 995, 2 * 997], 2 * 997),
    ):
        f = Polynomial(coeffs)
        outcome = dominant_coefficient(PolyFacts(f))
        assert outcome == ref_dominant_coefficient(f)
        assert outcome.witnesses["b"] == b
        assert outcome.witnesses["delta"] == Fraction(1, b)
        assert str(outcome.witnesses["delta"]) == str(Fraction(1, b))


@settings(max_examples=400, deadline=None)
@given(st.one_of(dominated_polys(), big_leading_polys()))
@example(Polynomial([1, 66, 64]))  # middle_prime_power fires with |a_m| > 32, and b = 64
@example(Polynomial([1, 4, 64, 1]))  # middle_prime_power fires with s = 2
@example(Polynomial([2, 6, 1, 1]))  # p = 2 ties (6 - 2 * 2 = high = 2), so p = 3 fires
def test_dominance_witnesses_match_the_scans_they_replaced(f):
    # both dominance criteria read the one index PolyFacts.dominant finds;
    # the scans of every j, every divisor of |a_m| and every prime of |a_j|
    # in exact rationals must give the same outcomes, and middle_prime_power
    # fires only at the index where dominant_coefficient does
    facts = PolyFacts(f)
    middle = middle_prime_power_check(facts)
    assert middle == ref_middle_prime_power_check(f)
    dominant = dominant_coefficient(facts)
    assert dominant == ref_dominant_coefficient(f)
    if middle.conclusion.fired():
        assert dominant.conclusion.fired()
        assert middle.witnesses["j"] == dominant.witnesses["j"]


def test_dominance_scans_reach_both_sides_of_the_trial_bound():
    # the property above would pass vacuously if middle_prime_power never
    # fired, or the divisor walk never went past the range, at either |a_m|
    for coeffs, p, j, b in (([1, 66, 64], 2, 1, 64), ([1, 64, 33], 2, 1, 3),
                            ([1, 1, 16, 3], 2, 2, 1)):
        f = Polynomial(coeffs)
        facts = PolyFacts(f)
        middle = ref_middle_prime_power_check(f)
        assert (middle.witnesses["p"], middle.witnesses["j"]) == (p, j)
        assert middle_prime_power_check(facts) == middle
        expected = ref_dominant_coefficient(f)
        assert (expected.witnesses["j"], expected.witnesses["b"]) == (j, b)
        assert dominant_coefficient(facts) == expected


@st.composite
def split_coefficient(draw):
    """The primes below 10^3 (none to three), the product of their powers,
    and the primes above 10^3 (none to two; two make a composite cofactor)
    of one coefficient."""
    primes = draw(st.lists(st.sampled_from(numtheory._SMALL_PRIMES), max_size=3, unique=True))
    smooth = math.prod(p ** draw(st.integers(1, 3)) for p in primes)
    return primes, smooth, draw(st.lists(_cofactor_prime, max_size=2))


@st.composite
def split_coefficient_polys(draw):
    """Degree 1-6, with a_0, a_1 and a_m products of primes below and above
    10^3 and small middle coefficients. A quarter of the a_0 have no prime
    below 10^3. a_1 is a product of its own, or a multiple of a_0's
    cofactor, of one prime of it, of every prime of a_0 below 10^3, or of
    a_0, or small. a_m is a product of its own, or a small multiple of
    a_0's cofactor, so that |a_0 / q| <= |a_m| can hold. So the generalized
    Eisenstein search meets every case in which the cofactor can or cannot
    change its witness, and q comes from either side of 10^3."""
    m = draw(st.integers(1, 6))
    primes, smooth, big = draw(split_coefficient())
    if draw(st.integers(0, 3)) == 0:
        primes, smooth = [], 1
    rest = math.prod(big)
    a0 = draw(st.sampled_from((1, -1))) * smooth * rest
    t = draw(st.integers(-6, 6))
    _, smooth1, big1 = draw(split_coefficient())
    a1 = draw(st.sampled_from((
        smooth1 * math.prod(big1), rest * t, big[0] * t if big else t,
        math.prod(primes) * t, a0 * t, t,
    )))
    _, smooth_m, big_m = draw(split_coefficient())
    am = draw(st.sampled_from((smooth_m * math.prod(big_m), draw(st.integers(1, 12)) * rest)))
    if m == 1:
        coeffs = [a0, a1 or am]
    else:
        coeffs = [a0, a1, *[draw(st.integers(-6, 6)) for _ in range(m - 2)], am]
    f = normalize(Polynomial(coeffs)).primitive_part
    assume(f.degree == m)
    return f


@settings(max_examples=400, deadline=None)
@given(split_coefficient_polys(), st.sampled_from((SYM, NUM)))
def test_first_stage_witnesses_match_full_factorizations(f, mode):
    assert (_searched(criteria.eisenstein_generalized, PolyFacts(f, mode))
            == _searched(ref_eisenstein_generalized, PolyFacts(f, mode)))
    assert (_searched(leading_coeff_criterion, PolyFacts(f, mode))
            == _searched(ref_leading_coeff_criterion, f, mode))


def test_first_stage_witness_cases():
    # the property above would pass vacuously if the cofactor never could
    # change the witness, or always could; q = 1009 has no prime of a_0
    # below 10^3 to come from
    cases = [
        # 2 misses a_1: the least such prime, whatever the cofactor 1009 holds
        ((2 * 1009, 3, 1), {"p": 2, "k": 1, "j": 1}),
        # 2 misses a_1 = 3 * 1009 (j = 1), but 1009 divides it: j = 2 wins
        ((2 * 1009, 3 * 1009, 1, 1), {"p": 1009, "k": 1, "j": 2}),
        # 2 divides a_1 = 2 but 2^2 does not (no witness): 1009 is the least
        # prime missing a_1
        ((4 * 1009, 2, 0, 1), {"p": 1009, "k": 1, "j": 1}),
    ]
    for coeffs, witnesses in cases:
        f = Polynomial(coeffs)
        out = criteria.eisenstein_generalized(PolyFacts(f))
        assert out == ref_eisenstein_generalized(PolyFacts(f))
        assert out.witnesses == witnesses
    f = Polynomial([1009 * 1013, 1, 0, 0, 1013])
    out = leading_coeff_criterion(PolyFacts(f))
    assert out == ref_leading_coeff_criterion(f)
    assert out.witnesses["q"] == 1009


def ref_rational_roots(f):
    """Every candidate p/q (p | a_0, q | a_m, lowest terms) tested by exact
    evaluation."""
    m = f.degree
    roots = set()
    for q in numtheory.positive_divisors(f.leading_coefficient):
        for p_abs in numtheory.positive_divisors(f.constant_term):
            if math.gcd(p_abs, q) != 1:
                continue
            for p in (p_abs, -p_abs):
                if sum(a * p**i * q ** (m - i) for i, a in enumerate(f.coeffs)) == 0:
                    roots.add(Fraction(p, q))
    return roots


@st.composite
def polys_with_rational_roots(draw):
    """A random integer polynomial times up to three linear factors qz - p,
    with nonzero constant term; p = +-q gives the roots +-1."""
    coeffs = draw(st.lists(st.integers(-10**4, 10**4), min_size=1, max_size=6))
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    f = Polynomial(coeffs)
    for _ in range(draw(st.integers(0, 3))):
        p = draw(st.integers(-12, 12).filter(bool))
        q = draw(st.integers(1, 12))
        f = f * Polynomial([-p, q])
    return f


@st.composite
def polys_with_power_rich_constant_term(draw):
    """A polynomial whose constant term is +-2^a 3^b 5^c 7^d, up to 10^30
    with at most 400 divisors, times up to two linear factors qz - p: the
    divisor scan walks many candidates here, the lifting few."""
    a0, divisors = 1, 1
    for p in (2, 3, 5, 7):
        top = 0
        while a0 * p ** (top + 1) <= 10**30 and divisors * (top + 2) <= 400:
            top += 1
        e = draw(st.integers(0, top))
        a0, divisors = a0 * p**e, divisors * (e + 1)
    middle = draw(st.lists(st.integers(-10**4, 10**4), max_size=4))
    f = Polynomial([draw(st.sampled_from((a0, -a0))), *middle, draw(st.integers(1, 4))])
    for _ in range(draw(st.integers(0, 2))):
        f = f * Polynomial([draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 4))])
    return f


@st.composite
def polys_with_repeated_factors(draw):
    """A linear and a nonlinear factor with multiplicities up to 3, times a
    cofactor. A repeated linear factor gives a multiple root mod every
    prime, so those inputs reach the squarefree step."""
    linear = Polynomial([draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 5))])
    coeffs = draw(st.lists(st.integers(-10, 10), min_size=3, max_size=4))
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    cofactor = draw(st.lists(st.integers(-10, 10), min_size=1, max_size=3))
    cofactor[0] = cofactor[0] or 1
    cofactor[-1] = cofactor[-1] or 1
    return (
        linear ** draw(st.integers(0, 3))
        * Polynomial(coeffs) ** draw(st.integers(1, 3))
        * Polynomial(cofactor)
    )


@settings(max_examples=450, deadline=None)
@given(
    st.one_of(
        polys_with_rational_roots(),
        polys_with_power_rich_constant_term(),
        polys_with_repeated_factors(),
    )
)
def test_rational_roots_match_unfiltered_scan(f):
    assert rational_roots(f) == ref_rational_roots(f)


def test_rational_root_references_find_roots():
    # the property above would pass vacuously if no drawn input had a root
    f = Polynomial([-1, 1]) * Polynomial([1, 1]) * Polynomial([3, 2]) * Polynomial([5, 0, 7])
    expected = {Fraction(1), Fraction(-1), Fraction(-3, 2)}
    assert ref_rational_roots(f) == expected
    assert rational_roots(f) == expected


@st.composite
def quadratics(draw):
    """Primitive quadratics: random ones (disc < 0 or not a square, mostly),
    products of two linear factors, and squares of one (disc = 0)."""
    kind = draw(st.sampled_from(("random", "product", "square")))
    nonzero = st.integers(-10**6, 10**6).filter(bool)
    if kind == "random":
        coeffs = [draw(nonzero), draw(st.integers(-10**6, 10**6)), draw(nonzero)]
    else:
        linear = st.tuples(st.integers(1, 10**4), st.integers(-10**4, 10**4).filter(bool))
        (a, b) = draw(linear)
        (c, d) = (a, b) if kind == "square" else draw(linear)
        coeffs = [b * d, a * d + b * c, a * c]  # (az + b)(cz + d)
    return normalize(Polynomial(coeffs)).primitive_part


@settings(max_examples=400, deadline=None)
@given(quadratics())
def test_quadratic_rational_root_flag_matches_rational_roots(f):
    assert PolyFacts(f).has_rational_root() is bool(rational_roots(f))


def test_quadratic_rational_root_flag_examples():
    # a square (disc = 0), disc < 0, a nonzero square disc, and a non-square
    for coeffs, flag in (((9, 6, 1), True), ((1, 1, 1), False), ((2, -3, 1), True),
                         ((-2, 0, 1), False)):
        f = Polynomial(coeffs)
        assert PolyFacts(f).has_rational_root() is flag
        assert bool(rational_roots(f)) is flag


def test_rational_root_flag_ends_on_a_repeated_factor():
    # the flag's search takes the squarefree step only when the modular
    # check finds a square factor, which no squarefree f shows; a repeated
    # factor with a root mod every prime still gets there
    h = Polynomial([-2, 0, 1]) * Polynomial([-3, 0, 1]) * Polynomial([-6, 0, 1])
    for f, flag in ((Polynomial([1, 1]) ** 2 * Polynomial([3, 0, 1]), True),
                    (h * h, False), (h * h * Polynomial([1, 3]), True)):
        assert PolyFacts(f).has_rational_root() is flag
        assert bool(rational_roots(f)) is flag
