"""Acceptance gate: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s to see them live).

The exhaustive sweep (degree <= 5, coefficients in [-5, 5], primitive,
nonzero constant term, one representative per global sign) backs criteria
1, 6 and 7 and runs once per session; expect a couple of minutes.
"""

import os
from fractions import Fraction

import pytest

from irreducia import audit, oracle
from irreducia.corpus import gen_random
from irreducia.criteria import ConclusionKind, PolyFacts, perron_nonmonic

from generators import gen_dominant_second

JOBS = max(1, min(4, os.cpu_count() or 1))


def record(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def exhaustive_result():
    return audit.audit_exhaustive(5, 5, jobs=JOBS)


def test_criterion_1_exhaustive_soundness(exhaustive_result):
    result = exhaustive_result
    # frozen from the deterministic enumeration, as is every count of the
    # correctness fingerprint these tests pin (ROADMAP)
    expected_total = 798518
    criterion_violations = {
        name: stats.violations for name, stats in result.criteria.items()
    }
    ok = (
        result.total == expected_total
        and result.oracle_calls == 42964
        and result.violation_count() == 0
        and all(not v for v in criterion_violations.values())
        and result.oracle_skipped == 0
    )
    record(
        "1 exhaustive soundness (deg<=5, |coeff|<=5)",
        ok,
        f"{result.total} polynomials, {result.oracle_calls} oracle calls, "
        f"{result.violation_count()} violations",
    )


def test_criterion_2_geometric_block_family():
    checked, violations = audit.audit_family("P1")
    # 3 primes x 15 (n, m) pairs x 2 signs
    ok = checked == 90 and not violations
    record("2 P1 family (irreducible, witnesses p, k=m-1, j=m)", ok,
           f"{checked} instances")


def test_criterion_3_constant_dominant_family():
    k1 = sum(1 for _ in audit.p2_grid_k1())
    k2 = sum(1 for _ in audit.p2_grid_k2())
    checked, violations = audit.audit_family("P2")
    ok = k1 > 0 and k2 > 0 and checked == k1 + k2 and not violations
    record(
        "3 P2 family (k=1 irreducible via exact certificate; k=2 bound exactly 2)",
        ok,
        f"{k1} + {k2} instances",
    )


def test_criterion_4_gap_family():
    checked = 0
    bad = []
    for a, b, m, j, f in audit.p4_grid():
        checked += 1
        # the dominance display re-verified in exact rational arithmetic
        lhs = Fraction(a**j - b**j + 1)
        rhs = Fraction(b * (a**j - b**j), a - b) + Fraction(1, b ** (m - 1 - j))
        if not lhs > rhs:
            bad.append((a, b, m, j, "display inequality"))
    _, violations = audit.audit_family("P4")
    ok = checked == 27 and not bad and not violations
    record("4 P4 family (bound m-j, display inequality re-verified)", ok,
           f"{checked} instances")


def test_criterion_5_dominant_second_regression():
    polys = gen_dominant_second(200, max_degree=6, seed=20260809)
    bad = []
    for f in polys:
        out = perron_nonmonic(PolyFacts(f))
        if out.conclusion.kind is not ConclusionKind.IRREDUCIBLE:
            bad.append((f.coeffs, "criterion missed"))
        elif oracle.factor(f).nonconstant_factor_count() != 1:
            bad.append((f.coeffs, "oracle disagrees"))
    ok = len(polys) == 200 and not bad
    record("5 dominant-second-coefficient regression (200 seeded)", ok,
           f"{len(polys)} polynomials, degrees 2..6")


def test_criterion_6_unit_divisor_subsumption(exhaustive_result):
    result = exhaustive_result
    middle = result.criteria.get("middle_prime_power")
    ok = (
        result.cor1_checked == 537728
        and not result.cor1_violations
        and middle is not None
        and middle.fired == 16576
        and not middle.violations
    )
    record(
        "6 unit-divisor dominance subsumption + middle-prime-power soundness",
        ok,
        f"{result.cor1_checked} subsumption checks, {middle.fired} middle-prime fires",
    )


def test_criterion_7_root_location_cross_validation(exhaustive_result):
    result = exhaustive_result
    ok = (
        result.rootloc_checked == 970
        and not result.rootloc_violations
        and not result.nonconvergences
    )
    record(
        "7 root-location cross-validation (margin 1e-6)",
        ok,
        f"{result.rootloc_checked} certified polynomials",
    )


def test_criterion_8_oracle_self_consistency():
    fs = gen_random(500, 4, 3, seed=101)
    gs = gen_random(500, 4, 3, seed=202)
    bad = []
    for f, g in zip(fs, gs):
        prod = f * g
        result = oracle.factor(prod)
        if not oracle.verify(result, prod):
            bad.append((f.coeffs, g.coeffs, "verify"))
            continue
        if result.nonconstant_factor_count() != (
            oracle.factor(f).nonconstant_factor_count()
            + oracle.factor(g).nonconstant_factor_count()
        ):
            bad.append((f.coeffs, g.coeffs, "multiplicativity"))
    ok = not bad
    record("8 oracle self-consistency (500 seeded pairs, product degree <= 8)",
           ok, "verify + multiplicativity")
