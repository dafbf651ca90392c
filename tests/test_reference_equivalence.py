"""Library routines against slower reference implementations that must
give exactly the same results.

- The criteria and audit predicates that read a shared PolyFacts record,
  against direct sums that recompute every sum, power and factorization
  from the polynomial for each (j, b) or (j, p) pair; the library keeps
  running sums and memoised facts instead; the two disk criteria against
  the separate searches over a_0 and over a_m that they replaced, which
  certify every radius in either root mode. Outcomes, witnesses and the
  audit's largest certified radius must agree.
- The numeric disk-radius search, which refuses without roots every radius
  that `rootloc.has_root_in_disk` proves holds a root, against a search
  that certifies every radius from the roots; and each exact refusal
  against the numeric certificate at that radius.
- Weintraub's criterion, the generalized Eisenstein criterion and the disk
  criteria's shared search, which keep their best witness as plain values
  and build one outcome, against the forms that built an outcome for every
  candidate and kept the first of the strongest. Outcomes and the order of
  their witnesses must agree.
- `numtheory.prime_factors`, which strips the primes below 10^3 after one
  gcd and hands a cofactor below 2^64 to Miller-Rabin and Pollard rho,
  against the trial-division loop to 10^6 that it replaced.
- `dominant_coefficient`, which tries the divisors of a_m up to a small
  bound by division before it factorizes a_m, against a scan of every
  divisor from the full factorization.
- `poly.rational_roots`, which lifts the roots of f mod a small prime and
  reconstructs at most one candidate p/q from each, against the scan over
  every candidate p/q with p | a_0 and q | a_m that it replaced.
- `oracle.factor`, whose Kronecker search takes its nodes from a wider pool
  of sample points and filters candidates at the spare points, against the
  same factorization with the search that always used the first e + 1
  sample points. Both searches return the factor with its cofactor.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irreducia import audit, criteria, numtheory, oracle, rootloc
from irreducia.corpus import gen_exhaustive, gen_random
from irreducia.criteria import (
    CRITERIA,
    AnalyzeConfig,
    Conclusion,
    ConclusionKind,
    CriterionOutcome,
    PolyFacts,
    analyze,
    constant_term_criterion,
    dominant_coefficient,
    leading_coeff_criterion,
    middle_prime_power_check,
    perron_nonmonic,
)
from irreducia.poly import Polynomial, divides_exactly, normalize, rational_roots

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
        for p, _ in numtheory.factorize(c[j]).factors:
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


def _ref_disk_outcome(name, p, k, j, d, cert, witnesses=()):
    return CriterionOutcome(
        name,
        {"p": p, "k": k, "j": j, "d": d, **dict(witnesses)},
        Conclusion.at_most(min(k, j)),
        certificate_mode="exact" if cert.mode is SYM else "numeric-conditional",
    )


def ref_constant_term_criterion(f, mode=SYM):
    name = "constant_term"
    c, m = f.coeffs, f.degree
    a0 = c[0]
    if abs(a0) == 1:
        return _no_conclusion(name)
    best = None
    for p, k in numtheory.factorize(a0).factors:
        d = abs(a0) // p**k
        cert = rootloc.certify_outside_disk(f, d, mode)
        if not cert.certified:
            continue
        j = next(j for j in range(1, m + 1) if c[j] % p != 0)
        candidate = _ref_disk_outcome(name, p, k, j, d, cert)
        if best is None or candidate.rank() < best.rank():
            best = candidate
    return best if best is not None else _no_conclusion(name)


def ref_leading_coeff_criterion(f, mode=SYM):
    name = "leading_coeff"
    c, m = f.coeffs, f.degree
    a0, am = c[0], c[m]
    if abs(am) == 1 or abs(a0) == 1:
        return _no_conclusion(name)
    q = numtheory.factorize(a0).factors[0][0]
    if abs(a0) > q * abs(am):
        return _no_conclusion(name)
    best = None
    for p, k in numtheory.factorize(am).factors:
        d = abs(am) // p**k
        cert = rootloc.certify_outside_disk(f, d, mode)
        if not cert.certified:
            continue
        j = next(j for j in range(1, m + 1) if c[m - j] % p != 0)
        candidate = _ref_disk_outcome(name, p, k, j, d, cert, {"q": q})
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
        for p, _ in numtheory.factorize(source).factors:
            d = abs(source) // p ** numtheory.valuation(p, source)
            cert = rootloc.certify_outside_disk(f, d, SYM)
            if cert.certified:
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


def ref_numeric_radius(f, i, roots):
    """The largest radius |a_i| / p^k whose numeric certificate holds, with
    every radius certified from the roots."""
    a = abs(f.coeffs[i])
    radii = [a // p**k for p, k in numtheory.prime_factors(a)]
    return max((d for d in radii
                if rootloc.certify_outside_disk(f, d, NUM, roots=roots).certified), default=0)


@settings(max_examples=300, deadline=None)
@given(primitive_polys(min_size=3, max_size=17))  # degree 2-16
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
    for d in radii:
        if rootloc.has_root_in_disk(f, d):
            assert not rootloc.certify_outside_disk(f, d, NUM, roots=roots).certified


def test_references_fire_on_known_instances():
    # the property above would pass vacuously if the references never fired
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
    corpus = list(gen_exhaustive(3, 4))[::5] + gen_random(300, 6, 60, seed=11)
    result = audit.AuditResult()
    numeric = AnalyzeConfig(root_mode=NUM, oracle="off")
    for f in corpus:
        audit.audit_one(f, result)
        analyze(f, numeric)
    assert result.rootloc_checked > 0
    assert {mode for _, _, mode in calls} == {SYM, NUM}
    assert max(calls.values()) == 1


def ref_audit_one(f, result):
    """`audit.audit_one` as it was before it read the outcomes by kind, by
    dict and by index: `fired()`, `AuditResult.stats` and a scan for
    dominant_coefficient's outcome."""
    result.total += 1
    facts = PolyFacts(f)
    m = facts.degree
    outcomes, stopped = criteria.run_criteria(facts)
    for name, _ in stopped:
        result.stats(name).stopped += 1
    to_check = []
    for outcome in outcomes:
        if not outcome.conclusion.fired():
            continue
        stats = result.stats(outcome.criterion)
        stats.fired += 1
        if audit._is_vacuous(outcome.conclusion, m):
            stats.vacuous += 1
            stats.sound += 1
        else:
            to_check.append(outcome)
    if to_check:
        try:
            fact = oracle.factor(f)
        except oracle.OracleLimitError:
            result.oracle_skipped += 1
            for outcome in to_check:
                result.stats(outcome.criterion).unchecked += 1
        else:
            result.oracle_calls += 1
            count = fact.nonconstant_factor_count()
            for outcome in to_check:
                stats = result.stats(outcome.criterion)
                if criteria.conclusion_holds(outcome.conclusion, fact):
                    stats.sound += 1
                else:
                    stats.violations.add((f.coeffs, outcome.criterion,
                                          outcome.conclusion.kind.value,
                                          outcome.conclusion.bound, count))
    try:
        j = audit.cor1_best_j(facts)
    except numtheory.FactorizationLimitError:
        j = None
    if j is not None:
        result.cor1_checked += 1
        dom = next(o.conclusion for o in outcomes if o.criterion == "dominant_coefficient")
        if dom != Conclusion.at_most(m - j):
            result.cor1_violations.add((f.coeffs, j, dom.kind.value, dom.bound))
    try:
        worst = max(facts.certified_radius(0), facts.certified_radius(m))
    except numtheory.FactorizationLimitError:
        worst = 0
    if worst:
        result.rootloc_checked += 1
        try:
            roots = facts.roots()
        except rootloc.NonConvergenceError as exc:
            result.nonconvergences.add((f.coeffs, exc.best_residual))
        else:
            min_modulus = min(abs(r) for r in roots)
            if min_modulus <= worst * (1.0 - audit.ROOT_MARGIN):
                result.rootloc_violations.add((f.coeffs, worst, min_modulus))


def _audits_agree(polys):
    result, ref = audit.AuditResult(), audit.AuditResult()
    for f in polys:
        audit.audit_one(f, result)
        ref_audit_one(f, ref)
    assert result == ref
    assert result.violation_count() == ref.violation_count()
    return result


_AUDIT_FAKES = {
    "dominant_coefficient":
        lambda facts: CriterionOutcome("dominant_coefficient", {}, Conclusion.at_most(facts.degree)),
    "perron_nonmonic": lambda facts: CriterionOutcome("perron_nonmonic", {}, Conclusion.irreducible()),
    "weintraub":
        lambda facts: CriterionOutcome("weintraub", {}, Conclusion(ConclusionKind.NO_CONCLUSION)),
}


@pytest.mark.parametrize("fakes", [{}, _AUDIT_FAKES], ids=["criteria", "fakes"])
def test_audit_one_matches_reference_classification(monkeypatch, fakes):
    # the fakes reach the violation lists, cor1's and a fresh NoConclusion;
    # the 40-digit coefficients reach the factorization limits
    for name, fake in fakes.items():
        monkeypatch.setitem(criteria.CRITERIA, name, fake)
    polys = list(gen_exhaustive(4, 3))[::7] + gen_random(2, 2, 10**40, 1)
    result = _audits_agree(polys)
    stopped = sum(s.stopped for s in result.criteria.values())
    assert result.oracle_calls > 0 and result.rootloc_checked > 0 and stopped > 0
    if fakes:
        assert result.cor1_violations.found > 0
        assert result.criteria["perron_nonmonic"].violations.found > 0
        assert "weintraub" not in result.criteria


@st.composite
def audit_polys(draw):
    """Primitive, degree 1-8, |c| <= 10^3, nonzero constant term."""
    coeffs = draw(st.lists(st.integers(-10**3, 10**3), min_size=2, max_size=9))
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    g = math.gcd(*coeffs)
    return Polynomial([c // g for c in coeffs])


@settings(max_examples=200, deadline=None)
@given(st.lists(audit_polys(), min_size=1, max_size=4))
def test_audit_one_matches_reference_on_random_polys(polys):
    _audits_agree(polys)


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
        if k0 == 0 or (k0 == 1 and not facts.has_rational_root()):
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
            if j == m or (j == m - 1 and not facts.has_rational_root()):
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
        products = st.one_of(prime_power_products(10**6), st.integers(2, 10**6).map(_next_prime))
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
                    g, _ = numtheory._pollard_rho(m, rng, numtheory._RHO_STEPS)
                stack.extend((g, m // g))
    return tuple(sorted(powers.items()))


def _next_prime(n):
    while not numtheory.is_prime(n):
        n += 1
    return n


# prime powers that trial division to 10^3 leaves to rho: primes between
# 10^3 and 10^6, and at most two primes near 2^32, the hardest factors of a
# composite below 2^64 (more of those may exhaust the rho budget above 2^64,
# where raising is allowed)
_mid_prime_power = st.tuples(st.integers(10**3, 10**6).map(_next_prime), st.integers(1, 3))
_big_prime = st.integers(2**32 - 2**20, 2**32 + 2**20).map(_next_prime)


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
    """a_m up to 10^12, drawn smooth, prime, or a small number times a large
    prime, with a_0 up to 10^4 and middle coefficients up to 10^6, so the
    dominance witness b is found both among the divisors up to 32 that
    `PolyFacts.dominant` tries by division and among those above, which it
    reads from the factorization of a_m."""
    kind = draw(st.sampled_from(("smooth", "prime", "small times prime")))
    if kind == "smooth":
        am = 1
        for p in draw(st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 31, 37, 997)), max_size=12)):
            if am * p <= 10**12:
                am *= p
    elif kind == "prime":
        am = _next_prime(draw(st.integers(2, 10**12)))
    else:
        am = draw(st.integers(1, 60)) * _next_prime(draw(st.integers(10, 10**10)))
    m = draw(st.integers(2, 5))
    middle = draw(st.lists(st.integers(-10**6, 10**6), min_size=m - 1, max_size=m - 1))
    coeffs = [draw(st.integers(1, 10**4)) * draw(st.sampled_from((1, -1))), *middle, am]
    g = math.gcd(*coeffs)
    return Polynomial([c // g for c in coeffs])


@settings(max_examples=300, deadline=None)
@given(big_leading_polys())
def test_dominant_witness_matches_full_divisor_scan(f):
    assert dominant_coefficient(PolyFacts(f)) == ref_dominant_coefficient(f)


def test_dominant_witness_on_both_sides_of_the_trial_bound():
    # the property above would pass vacuously if the witness never lay
    # above the divisors tried by division: a_2 = 3 * 101 gives b = 3 or
    # 101, and the prime a_2 = 10^12 + 39 gives b = a_2. At a_2 = 32 the
    # divisors come from a plain range, at a_2 = 33 and 64 from the divisor
    # generator; delta = 1/b is shared for b <= 32 and built above it
    for coeffs, b in (
        ([50, 10, 303], 3), ([2, 100, 303], 101), ([1, 10**6, 10**12 + 39], 10**12 + 39),
        ([1, 100, 3], 1), ([1, 34, 32], 32), ([1, 35, 33], 33), ([1, 104, 64], 2),
    ):
        f = Polynomial(coeffs)
        assert dominant_coefficient(PolyFacts(f)) == ref_dominant_coefficient(f)
        assert dominant_coefficient(PolyFacts(f)).witnesses["b"] == b
        delta = dominant_coefficient(PolyFacts(f)).witnesses["delta"]
        assert delta == Fraction(1, b)
        assert str(delta) == str(Fraction(1, b))


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


def ref_kronecker_search(h, budget):
    """Kronecker's search from degree 1: z - x at the first of the
    e + 1 + _SPARE_POINTS sample points where h vanishes, else the first
    e + 1 sample points as nodes, taken in order of their values' divisor
    counts, and the exact division as the only test of a complete
    candidate. Returns the factor and its cofactor h / g."""
    m = h.degree
    for e in range(1, m // 2 + 1):
        for x in oracle._sample_points(e + 1 + oracle._SPARE_POINTS):
            if h.evaluate(x) == 0:
                return Polynomial([-x, 1]), divides_exactly(Polynomial([-x, 1]), h)
        raw_points = oracle._sample_points(e + 1)
        values = [h.evaluate(x) for x in raw_points]
        try:
            choice_lists = [
                [d for pos in numtheory.positive_divisors(v) for d in (pos, -pos)]
                for v in values
            ]
        except numtheory.FactorizationLimitError as exc:
            raise oracle.OracleLimitError(f"oracle limit: {exc}") from exc
        order = sorted(range(e + 1), key=lambda i: len(choice_lists[i]))
        nodes = [raw_points[i] for i in order]
        choices = [choice_lists[i] for i in order]
        choices[0] = [d for d in choices[0] if d > 0]
        stack = [(0, [], [])]
        while stack:
            depth, trail, newton = stack.pop()
            for d in choices[depth]:
                budget.spend()
                new_trail = [d]
                ok = True
                for k in range(1, depth + 1):
                    step, rem = divmod(
                        new_trail[k - 1] - trail[k - 1], nodes[depth] - nodes[depth - k]
                    )
                    if rem:
                        ok = False
                        break
                    new_trail.append(step)
                if not ok:
                    continue
                if depth < e:
                    stack.append((depth + 1, new_trail, newton + [new_trail[-1]]))
                    continue
                if new_trail[-1] == 0:
                    continue
                g = oracle._expand_newton(nodes, newton + [new_trail[-1]])
                quotient = divides_exactly(g, h) if g.degree == e else None
                if quotient is not None:
                    return (g, quotient) if g.leading_coefficient > 0 else (-g, -quotient)
    return None


@st.composite
def products_up_to_degree_8(draw):
    """Up to four factors of degree 1-4 with |c| <= 5, total degree 2-8."""
    f = Polynomial([draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))])
    for _ in range(draw(st.integers(1, 4))):
        room = 8 - f.degree
        if room < 1:
            break
        k = draw(st.integers(1, min(4, room)))
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=k + 1, max_size=k + 1))
        coeffs[-1] = coeffs[-1] or 1
        f = f * Polynomial(coeffs)
    return f


@settings(max_examples=150, deadline=None)
@given(products_up_to_degree_8())
def test_factor_matches_reference_kronecker_search(f):
    expected = oracle.factor(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_kronecker_search", ref_kronecker_search)
        assert oracle.factor(f) == expected


def test_reference_kronecker_search_splits_products():
    # the property above would pass vacuously if no search found a factor
    f = Polynomial([1, 1, 1]) * Polynomial([2, 0, 1, 1]) * Polynomial([3, -1, 0, 2])
    budget = oracle._Budget(oracle.DEFAULT_STEP_BUDGET)
    split = (Polynomial([1, 1, 1]), Polynomial([2, 0, 1, 1]) * Polynomial([3, -1, 0, 2]))
    assert ref_kronecker_search(f, budget) == split
    assert oracle._kronecker_search(f, budget) == split
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_kronecker_search", ref_kronecker_search)
        expected = oracle.factor(f)
    assert [g for g, _ in expected.factors] == [
        Polynomial([1, 1, 1]), Polynomial([2, 0, 1, 1]), Polynomial([3, -1, 0, 2])
    ]
    assert oracle.factor(f) == expected
