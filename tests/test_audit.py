"""Audit machinery: soundness sweep, subsumption predicate, parallel merge."""

import multiprocessing
import os

import pytest

from irreducia import audit, criteria, oracle, poly
from irreducia.corpus import gen_exhaustive, gen_random
from irreducia.criteria import (
    Conclusion,
    ConclusionKind,
    CriterionOutcome,
    PolyFacts,
    dominant_coefficient,
)
from irreducia.poly import Polynomial


def test_small_exhaustive_audit_is_clean():
    result = audit.audit_exhaustive(3, 3)
    assert result.violation_count() == 0
    assert result.total == sum(1 for _ in gen_exhaustive(3, 3))
    assert result.oracle_calls > 0
    assert result.rootloc_checked > 0
    assert result.cor1_checked > 0


def test_parallel_merge_matches_serial():
    serial = audit.audit_exhaustive(3, 2)
    parallel = audit.audit_exhaustive(3, 2, jobs=2)
    assert serial.total == parallel.total
    assert serial.oracle_calls == parallel.oracle_calls
    for name, stats in serial.criteria.items():
        other = parallel.criteria[name]
        assert (stats.fired, stats.sound, stats.vacuous) == (
            other.fired, other.sound, other.vacuous,
        )
        assert stats.violations == other.violations


def test_merge_of_two_halves_is_the_whole_audit(monkeypatch):
    # every counter and every finding list: one left out of the merge differs
    def always_irreducible(f):
        return CriterionOutcome("perron_nonmonic", {}, Conclusion.irreducible())

    monkeypatch.setitem(criteria.CRITERIA, "perron_nonmonic", always_irreducible)
    polys = list(gen_exhaustive(3, 2))
    whole, first, second = audit.AuditResult(), audit.AuditResult(), audit.AuditResult()
    for i, f in enumerate(polys):
        audit.audit_one(f, whole)
        audit.audit_one(f, first if i < len(polys) // 2 else second)
    first.merge(second)
    assert first == whole
    assert first.summary_lines() == whole.summary_lines()
    assert whole.violation_count() > 0 and whole.cor1_checked > 0 and whole.rootloc_checked > 0


def test_criteria_are_looked_up_at_each_call(monkeypatch):
    # a traced run counts criterion calls by wrapping the entries of
    # CRITERIA; a hot path that bound the criteria early would miss them
    calls = []
    original = criteria.CRITERIA["dominant_coefficient"]

    def counting(facts):
        calls.append(facts)
        return original(facts)

    monkeypatch.setitem(criteria.CRITERIA, "dominant_coefficient", counting)
    audit.audit_corpus(gen_random(10, 4, 5, 3))
    assert len(calls) == 10
    calls.clear()
    criteria.analyze(Polynomial([4, 4, 0, 1]), criteria.AnalyzeConfig(oracle="off"))
    assert len(calls) == 1


def test_a_fresh_no_conclusion_is_not_a_fire(monkeypatch):
    # a criterion may build its own NoConclusion rather than return the
    # shared one; the audit must skip it by kind, not by identity
    fresh = Conclusion(ConclusionKind.NO_CONCLUSION)
    assert fresh is not Conclusion.none()
    polys = list(gen_exhaustive(3, 2))
    monkeypatch.setitem(criteria.CRITERIA, "perron_nonmonic",
                        lambda facts: CriterionOutcome("perron_nonmonic", {}, Conclusion.none()))
    shared = audit.audit_corpus(polys)
    monkeypatch.setitem(criteria.CRITERIA, "perron_nonmonic",
                        lambda facts: CriterionOutcome("perron_nonmonic", {}, fresh))
    result = audit.audit_corpus(polys)
    assert result.criteria.get("perron_nonmonic", audit.CriterionStats()).fired == 0
    assert result.oracle_calls == shared.oracle_calls > 0  # none made for the fake
    assert result == shared


def test_cor1_reads_the_dominant_coefficient_outcome(monkeypatch):
    # AtMostFactors(m) is weaker than the real bound m - j wherever j >= 1,
    # so cor1 must flag it on dominant_coefficient, and only there
    polys = list(gen_exhaustive(3, 3))
    found = {}
    for name in ("dominant_coefficient", "constant_term"):
        with monkeypatch.context() as patch:
            patch.setitem(
                criteria.CRITERIA, name,
                lambda facts, name=name: CriterionOutcome(name, {}, Conclusion.at_most(facts.degree)),
            )
            result = audit.audit_corpus(polys)
        assert result.cor1_checked > 0
        found[name] = result.cor1_violations.found
    assert found["dominant_coefficient"] >= 1
    assert found["constant_term"] == 0


def test_parallel_audit_starts_at_most_one_worker_per_cpu(monkeypatch):
    real_pool = multiprocessing.Pool
    sizes = []

    def capped_pool(processes):
        sizes.append(processes)
        assert processes <= 2  # before any worker starts
        return real_pool(processes)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", capped_pool)
    polys = list(gen_exhaustive(2, 2))
    parallel = audit.audit_corpus(polys, jobs=5000)
    assert sizes == [2]
    assert parallel.total == audit.audit_corpus(polys).total == len(polys)


def test_cor1_predicate_matches_dominant_at_unit_divisor():
    # wherever the predicate fires, the dominant-coefficient criterion must
    # reach at least the same bound (it scans all divisors including |a_m|)
    for f in list(gen_exhaustive(4, 3))[::17]:
        j = audit.cor1_best_j(PolyFacts(f))
        if j is None:
            continue
        out = dominant_coefficient(PolyFacts(f))
        assert out.conclusion.kind in (
            ConclusionKind.IRREDUCIBLE, ConclusionKind.AT_MOST_FACTORS,
        )
        bound = 1 if out.conclusion.kind is ConclusionKind.IRREDUCIBLE else out.conclusion.bound
        assert bound <= f.degree - j


def test_cor1_instance():
    # 1 + z + 10z^2 + z^3: unit leading coefficient, j = 2 dominates
    assert audit.cor1_best_j(PolyFacts(Polynomial([1, 1, 10, 1]))) == 2
    assert audit.cor1_best_j(PolyFacts(Polynomial([1, 1, 1]))) is None
    # 7 + z: 7 > 1 passes the inequality at j = 0, but dominance needs
    # degree >= 2, and the record says so to every reader
    facts = PolyFacts(Polynomial([7, 1]))
    assert facts.dominant() is None
    assert audit.cor1_best_j(facts) is None
    for criterion in (dominant_coefficient, criteria.middle_prime_power_check):
        assert criterion(facts).conclusion.kind is ConclusionKind.NO_CONCLUSION


def test_results_with_unequal_counts_differ():
    # the same single kept example, found once and 99 times
    once, often = audit.AuditResult(), audit.AuditResult()
    for result in (once, often):
        result.cor1_violations.add(((1, 1, 10, 1), 2, "AtMostFactors", 3))
    often.cor1_violations.found = 99
    assert once.cor1_violations != often.cor1_violations
    assert once != often
    assert not once == often


def test_vacuous_classification():
    from irreducia.criteria import Conclusion

    assert audit._is_vacuous(Conclusion.at_most(3), 3)
    assert not audit._is_vacuous(Conclusion.at_most(2), 3)
    assert audit._is_vacuous(Conclusion.factor_degree(2), 4)
    assert not audit._is_vacuous(Conclusion.factor_degree(1), 4)


def test_family_audits_clean():
    for name in ("P1", "P2", "P3", "P4"):
        checked, violations = audit.audit_family(name)
        assert checked > 0
        assert violations == []


def test_family_audit_reports_oracle_disagreement(monkeypatch):
    # the oracle, as the audit reads it, splits one P1 instance in two
    target = next(f for *_, f in audit.p1_grid())
    real = audit.oracle.factor

    def disagreeing(f):
        if f == target:
            return real(Polynomial([1, 1]) * Polynomial([1, 0, 1]))
        return real(f)

    monkeypatch.setattr(audit.oracle, "factor", disagreeing)
    checked, violations = audit.audit_family("P1")
    assert checked == 90
    assert violations == [(target.coeffs, "P1", (2, 2, 2, 1))]


def test_audit_catches_a_rational_root_scan_that_misses_fractions(monkeypatch):
    # the oracle finds linear factors without the criteria's root scan, so a
    # scan that loses every root p/q with q > 1 shows as violations
    real = poly.rational_roots

    def integer_roots_only(f):
        return {r for r in real(f) if r.denominator == 1}

    for module in (poly, criteria, oracle):
        monkeypatch.setattr(module, "rational_roots", integer_roots_only)
    assert audit.audit_exhaustive(3, 3).violation_count() >= 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_violation_count_is_exact_past_the_example_cap(monkeypatch, jobs):
    def always_irreducible(f):
        return CriterionOutcome("perron_nonmonic", {}, Conclusion.irreducible())

    monkeypatch.setitem(criteria.CRITERIA, "perron_nonmonic", always_irreducible)
    result = audit.audit_exhaustive(4, 3, jobs=jobs)
    stats = result.criteria["perron_nonmonic"]
    assert result.total == stats.fired == 7040
    assert result.violation_count() == stats.fired - stats.sound - stats.unchecked == 1442
    assert len(stats.violations) == audit._EXAMPLE_CAP
    assert "violations 1442" in "\n".join(result.summary_lines())


def test_factorization_limit_is_no_conclusion_in_the_audit():
    # 40-digit coefficients: some resist factorization within the limits
    result = audit.audit_corpus(gen_random(20, 2, 10**40, 1))
    assert result.total == 20
    stopped = sum(s.stopped for s in result.criteria.values())
    assert stopped > 0
    assert "stopped by a limit" in "\n".join(result.summary_lines())
