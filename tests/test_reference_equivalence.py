"""Library routines against slower reference implementations that must
give exactly the same results.

- The criteria and audit predicates that read a shared PolyFacts record,
  against direct sums that recompute every sum, power and factorization
  from the polynomial for each (j, b) or (j, p) pair; the library keeps
  running sums and memoised facts instead; the two disk criteria against
  the separate searches over a_0 and over a_m that they replaced, which
  certify every radius in either root mode. Outcomes, witnesses and the
  audit's largest certified radius must agree.
- `numtheory.prime_factors`, which hands a cofactor below 2^64 to
  Miller-Rabin and Pollard rho after trial division to 10^3, against the
  trial-division loop to 10^6 that it replaced.
- `poly.rational_roots`, which skips candidates p/q unless q - p divides
  f(1) and q + p divides f(-1), against the unfiltered candidate scan.
- `oracle.factor`, whose Kronecker search takes its nodes from a wider pool
  of sample points and filters candidates at the spare points, against the
  same factorization with the search that always used the first e + 1
  sample points.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irreducia import audit, numtheory, oracle, rootloc
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
from irreducia.poly import Polynomial, divides_exactly, rational_roots

SYM = rootloc.CertificateMode.SYMBOLIC_SUFFICIENT
NUM = rootloc.CertificateMode.NUMERIC_HEURISTIC


def _no_conclusion(name):
    return CriterionOutcome(name, applicable=False, witnesses={}, conclusion=Conclusion.none())


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
                    name, True, {"b": b, "delta": Fraction(1, b), "j": j},
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
        return CriterionOutcome(name, True, {}, Conclusion.irreducible())
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
                    name, True, {"p": p, "j": j, "N": n_exp, "s": s_exp},
                    Conclusion.at_most(m - j),
                )
    return _no_conclusion(name)


def _ref_disk_outcome(name, p, k, j, d, cert, witnesses=()):
    return CriterionOutcome(
        name,
        True,
        {"p": p, "k": k, "j": j, "d": d, **dict(witnesses)},
        Conclusion.at_most(min(k, j)),
        certificate_mode="exact" if cert.is_exact() else "numeric-conditional",
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
    return max(facts.certified_radius(i, SYM) for i in (0, facts.degree))


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
def primitive_polys(draw):
    coeffs = draw(st.lists(_coefficient, min_size=2, max_size=13))
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
        assert CRITERIA[name](f) == expected  # own record
        assert CRITERIA[name](facts) == expected  # shared record
    assert audit.cor1_best_j(facts) == ref_cor1_best_j(f)
    assert _audit_radius(facts) == max(ref_symbolic_disk_radii(f), default=0)
    # numeric mode: the same search, over every radius the references try
    for name in ("constant_term", "leading_coeff"):
        try:
            expected = REFERENCES[name](f, NUM)
        except rootloc.NonConvergenceError:
            with pytest.raises(rootloc.NonConvergenceError):
                CRITERIA[name](facts, NUM)
        else:
            assert CRITERIA[name](facts, NUM) == expected


def test_references_fire_on_known_instances():
    # the property above would pass vacuously if the references never fired
    assert ref_dominant_coefficient(Polynomial([1, 3, 9, 1])) == dominant_coefficient(
        Polynomial([1, 3, 9, 1])
    )
    assert ref_perron_nonmonic(Polynomial([3, 10, 2])).conclusion.fired()
    assert perron_nonmonic(Polynomial([3, 10, 2])).conclusion.fired()
    mpp = ref_middle_prime_power_check(Polynomial([1, 1, 16, 1]))
    assert mpp.conclusion.fired()
    assert middle_prime_power_check(Polynomial([1, 1, 16, 1])) == mpp
    # p^s > 1 in the coefficient below: 3 + 4z + 96z^2 + z^3, s = 2 at p = 2
    f = Polynomial([3, 4, 96, 1])
    assert ref_middle_prime_power_check(f).witnesses["s"] == 2
    assert middle_prime_power_check(f) == ref_middle_prime_power_check(f)
    assert ref_cor1_best_j(Polynomial([1, 1, 10, 1])) == 2
    f = Polynomial([24, 1, 1])  # 8 * 3: d = 8 fails, d = 3 is certified
    assert ref_constant_term_criterion(f).witnesses == {"p": 2, "k": 3, "j": 1, "d": 3}
    assert constant_term_criterion(f) == ref_constant_term_criterion(f)
    f = Polynomial([11, 0, 5])
    assert ref_leading_coeff_criterion(f).witnesses == {"p": 5, "k": 1, "j": 2, "d": 1, "q": 11}
    assert leading_coeff_criterion(f) == ref_leading_coeff_criterion(f)
    assert ref_symbolic_disk_radii(Polynomial([24, 1, 1])) == [3]
    assert _audit_radius(PolyFacts(Polynomial([24, 1, 1]))) == 3
    f = Polynomial([4, -4, 1])  # (z - 2)^2: only numeric mode certifies d = 1
    assert not ref_constant_term_criterion(f).conclusion.fired()
    out = ref_constant_term_criterion(f, NUM)
    assert out.witnesses == {"p": 2, "k": 2, "j": 2, "d": 1}
    assert constant_term_criterion(f, NUM) == out


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


@settings(max_examples=300, deadline=None)
@given(polys_with_rational_roots())
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
    candidate."""
    m = h.degree
    for e in range(1, m // 2 + 1):
        for x in oracle._sample_points(e + 1 + oracle._SPARE_POINTS):
            if h.evaluate(x) == 0:
                return Polynomial([-x, 1])
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
                if g.degree == e and divides_exactly(g, h) is not None:
                    return g if g.leading_coefficient > 0 else -g
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
    assert ref_kronecker_search(f, budget) == Polynomial([1, 1, 1])
    assert oracle._kronecker_search(f, budget) == Polynomial([1, 1, 1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_kronecker_search", ref_kronecker_search)
        expected = oracle.factor(f)
    assert [g for g, _ in expected.factors] == [
        Polynomial([1, 1, 1]), Polynomial([2, 0, 1, 1]), Polynomial([3, -1, 0, 2])
    ]
    assert oracle.factor(f) == expected
