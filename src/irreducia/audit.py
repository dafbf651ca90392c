"""Corpus audits: run every criterion against the exact factorization oracle
and count fired / sound / inconclusive outcomes per criterion.

Three cross-checks ride along on the same sweep:
  * soundness   -- every fired conclusion is compared with the oracle count
                   (bounds that hold for trivial reasons, such as a factor
                   count bound of at least the degree, are tallied as
                   vacuously sound without an oracle call);
  * cor1        -- wherever the unit-divisor dominance inequality holds at
                   index j, the dominant-coefficient conclusion must equal
                   AtMostFactors(m - j). Both read `PolyFacts.dominant()`, so
                   this no longer tests the inequality on its own; it catches
                   a conclusion that does not match that index (missing,
                   weaker or stronger). `ref_cor1_best_j` in the tests is the
                   independent form;
  * rootloc     -- wherever a symbolic disk certificate fires at a radius the
                   constant/leading witness search tries, every numerically
                   computed root must clear the largest such radius, read
                   from `PolyFacts.certified_radius` at both ends, the
                   search the disk criteria make.

`audit_family` replays the constructions P1-P4 over fixed grids; each
instance is judged against the oracle by the same `conclusion_holds`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from itertools import islice, product
from typing import Iterable, Iterator

from . import corpus as corpus_mod
from . import numtheory, oracle, rootloc
from .criteria import (
    CRITERIA,
    EXACT,
    Conclusion,
    ConclusionKind,
    CriterionOutcome,
    PolyFacts,
    conclusion_holds,
    constant_term_criterion,
    dominant_coefficient,
    eisenstein_generalized,
    leading_coeff_criterion,
    run_criteria,
)
from .corpus import gen_exhaustive
from .poly import Polynomial

ROOT_MARGIN = 1e-6
_EXAMPLE_CAP = 50  # examples kept per list; the counts stay exact
_CHUNK_SIZE = 4096  # polynomials per task sent to a worker in a parallel audit


class Findings(list):
    """The first _EXAMPLE_CAP findings of one kind; `found` counts them all,
    and two are equal when their examples and their counts are."""

    found = 0

    def __eq__(self, other):
        if not isinstance(other, Findings):
            return NotImplemented
        return self.found == other.found and list.__eq__(self, other)

    __ne__ = object.__ne__  # the negation of __eq__; list's own ignores `found`

    def add(self, item) -> None:
        self.found += 1
        if len(self) < _EXAMPLE_CAP:
            self.append(item)

    def merge(self, other: "Findings") -> None:
        self.found += other.found
        self.extend(other[: _EXAMPLE_CAP - len(self)])


def _merge_fields(into, other) -> None:
    """Add other's int fields to into's and merge its Findings; no others."""
    for f in fields(into):
        mine = getattr(into, f.name)
        if isinstance(mine, Findings):
            mine.merge(getattr(other, f.name))
        elif isinstance(mine, int):
            setattr(into, f.name, mine + getattr(other, f.name))


@dataclass
class CriterionStats:
    fired: int = 0
    sound: int = 0
    vacuous: int = 0
    unchecked: int = 0  # oracle unavailable for this item
    stopped: int = 0  # runs stopped by a factorization limit (no conclusion)
    violations: Findings = field(default_factory=Findings)

    def merge(self, other: "CriterionStats") -> None:
        _merge_fields(self, other)


@dataclass
class AuditResult:
    total: int = 0
    oracle_calls: int = 0
    oracle_skipped: int = 0
    criteria: dict = field(default_factory=dict)
    cor1_checked: int = 0
    cor1_violations: Findings = field(default_factory=Findings)
    rootloc_checked: int = 0
    rootloc_violations: Findings = field(default_factory=Findings)
    nonconvergences: Findings = field(default_factory=Findings)

    def stats(self, name: str) -> CriterionStats:
        if name not in self.criteria:
            self.criteria[name] = CriterionStats()
        return self.criteria[name]

    def merge(self, other: "AuditResult") -> None:
        _merge_fields(self, other)
        for name, stats in other.criteria.items():
            self.stats(name).merge(stats)

    def violation_count(self) -> int:
        return (
            sum(s.violations.found for s in self.criteria.values())
            + self.cor1_violations.found
            + self.rootloc_violations.found
        )

    def summary_lines(self) -> list[str]:
        lines = [f"audited {self.total} polynomials "
                 f"(oracle calls {self.oracle_calls}, skipped {self.oracle_skipped})"]
        for name in sorted(self.criteria):
            s = self.criteria[name]
            inconclusive = self.total - s.fired
            stopped = f"  stopped by a limit {s.stopped}" if s.stopped else ""
            lines.append(
                f"  {name:22s} fired {s.fired:8d}  sound {s.sound:8d} "
                f"(vacuous {s.vacuous})  no-conclusion {inconclusive:8d}  "
                f"violations {s.violations.found}{stopped}"
            )
        if self.cor1_checked:
            lines.append(
                f"  unit-divisor dominance subsumption: {self.cor1_checked} checked, "
                f"{self.cor1_violations.found} violations"
            )
        if self.rootloc_checked:
            lines.append(
                f"  root-location cross-check: {self.rootloc_checked} certificates, "
                f"{self.rootloc_violations.found} contradictions, "
                f"{self.nonconvergences.found} non-convergent"
            )
        lines.append(f"total violations: {self.violation_count()}")
        return lines


def cor1_best_j(facts: PolyFacts) -> int | None:
    """Largest j for which the dominance inequality with b = |a_m| and
    delta = 1/|a_m| holds (audit predicate for the subsumption check):

        |a_j| > |a_{j+1}/a_m| + sum_{i<j} |a_i||a_m|^(j-i)
                + sum_{i>j+1} |a_i| |a_m|^-(i-j),

    which is the dominant-coefficient inequality at the single divisor
    b = |a_m|. It holds at some divisor of a_m exactly when it holds at
    |a_m|, so this is the index of the record's `dominant()`. `audit_one`
    compares the criterion's conclusion with AtMostFactors(m - j).
    """
    hit = facts.dominant()
    return None if hit is None else hit[0]


_NO_CONCLUSION = ConclusionKind.NO_CONCLUSION
_DOMINANT_INDEX = list(CRITERIA).index("dominant_coefficient")  # run_criteria keeps CRITERIA's order


def _is_vacuous(conclusion: Conclusion, degree: int) -> bool:
    """Bounds no factorization can violate: a factor-count bound of at least
    the degree, or a factor-degree bound at least floor(degree/2)."""
    if conclusion.kind is ConclusionKind.AT_MOST_FACTORS:
        return conclusion.bound >= degree
    if conclusion.kind is ConclusionKind.FACTOR_DEGREE_BOUND:
        return conclusion.bound >= degree // 2
    return False


def audit_one(f: Polynomial, result: AuditResult) -> None:
    """Audit a single primitive polynomial with nonzero constant term."""
    result.total += 1
    facts = PolyFacts(f)
    m = facts.degree
    outcomes, stopped = run_criteria(facts)
    criteria = result.criteria
    for name, _ in stopped:
        result.stats(name).stopped += 1

    to_check: list[CriterionOutcome] = []
    for outcome in outcomes:
        if outcome.conclusion.kind is _NO_CONCLUSION:
            continue
        stats = criteria.get(outcome.criterion) or result.stats(outcome.criterion)
        stats.fired += 1
        if _is_vacuous(outcome.conclusion, m):
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
                criteria[outcome.criterion].unchecked += 1
        else:
            result.oracle_calls += 1
            count = fact.nonconstant_factor_count()
            for outcome in to_check:
                stats = criteria[outcome.criterion]
                if conclusion_holds(outcome.conclusion, fact):
                    stats.sound += 1
                else:
                    stats.violations.add((f.coeffs, outcome.criterion,
                                          outcome.conclusion.kind.value,
                                          outcome.conclusion.bound, count))

    # a limit that stopped a criterion stops its cross-check too: skip it
    try:
        j = cor1_best_j(facts)
    except numtheory.FactorizationLimitError:
        j = None
    if j is not None:
        result.cor1_checked += 1
        dom = outcomes[_DOMINANT_INDEX].conclusion
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
            if min_modulus <= worst * (1.0 - ROOT_MARGIN):
                result.rootloc_violations.add((f.coeffs, worst, min_modulus))


def _audit_chunk(chunk: list[tuple[int, ...]]) -> AuditResult:
    result = AuditResult()
    for coeffs in chunk:
        audit_one(Polynomial(coeffs), result)
    return result


def _chunks(items: Iterable[Polynomial], size: int) -> Iterator[list[tuple[int, ...]]]:
    it = iter(items)
    while block := [f.coeffs for f in islice(it, size)]:
        yield block


def audit_corpus(polys: Iterable[Polynomial], jobs: int = 1) -> AuditResult:
    """Audit an iterable of primitive polynomials, optionally in parallel
    with at most `os.cpu_count()` worker processes, however many jobs are
    asked for.

    Items are pure-function audits, so every count in the merge is
    deterministic regardless of worker scheduling; which examples the
    (sorted, capped) listings keep may differ between runs.
    """
    result = AuditResult()
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        for f in polys:
            audit_one(f, result)
    else:
        import multiprocessing  # only a parallel audit needs it

        with multiprocessing.Pool(jobs) as pool:
            for partial in pool.imap_unordered(_audit_chunk, _chunks(polys, _CHUNK_SIZE)):
                result.merge(partial)
    for stats in result.criteria.values():
        stats.violations.sort()
    result.cor1_violations.sort()
    result.rootloc_violations.sort()
    result.nonconvergences.sort()
    return result


def audit_exhaustive(max_degree: int, coeff_bound: int, jobs: int = 1) -> AuditResult:
    """Audit the full sign-deduplicated primitive corpus."""
    return audit_corpus(gen_exhaustive(max_degree, coeff_bound), jobs=jobs)


# ---------------------------------------------------------------------------
# family grids and their expected conclusions


def p1_grid() -> Iterator[tuple[int, int, int, int, Polynomial]]:
    """(p, m, n, sign, polynomial) over p in {2,3,5}, 2 <= n <= m <= 6."""
    for p in (2, 3, 5):
        for m in range(2, 7):
            for n in range(2, m + 1):
                for sign in (1, -1):
                    yield p, m, n, sign, corpus_mod.gen_p1(p, m, n, sign)


def p2_grid_k1() -> Iterator[tuple[int, int, int, tuple[int, ...], int, Polynomial]]:
    """(p, d, m, tail, sign, polynomial) for exponent k = 1 instances over
    p in {3,5,7}, d in {1,2}, m in {2,3,4}, small tails that satisfy the
    dominance side condition."""
    for p, d, m, sign in product((3, 5, 7), (1, 2), (2, 3, 4), (1, -1)):
        for tail in product((-1, 0, 1), repeat=m):
            if tail[-1] == 0:
                continue
            try:
                f = corpus_mod.gen_p2(p, 1, d, m, list(tail), sign)
            except corpus_mod.FamilyConditionError:
                continue
            yield p, d, m, tail, sign, f


def p2_grid_k2() -> Iterator[tuple[int, int, tuple[int, ...], Polynomial]]:
    """(p, m, tail, polynomial) for exponent k = 2, d = 1 instances whose
    first coefficient is divisible by p, so the criterion's witness index j
    is at least 2 and the factor bound is exactly min(2, j) = 2."""
    for p, m in product((3, 5, 7), (2, 3, 4)):
        for first in (0, p, -p):
            for rest in product((-1, 0, 1), repeat=m - 1):
                if rest[-1] == 0:
                    continue
                try:
                    f = corpus_mod.gen_p2(p, 2, 1, m, [first, *rest])
                except corpus_mod.FamilyConditionError:
                    continue
                yield p, m, (first, *rest), f


def p3_grid() -> Iterator[tuple[int, int, int, Polynomial]]:
    """(p, m, a0, polynomial) with k = d = 1, zero middle coefficients, and
    a0 the least prime above m*p (which satisfies both side conditions)."""
    for p, m in product((5, 7, 11), (2, 3, 4)):
        a0 = m * p + 1
        while not numtheory.is_prime(a0):
            a0 += 1
        for sign in (1, -1):
            yield p, m, a0, corpus_mod.gen_p3(p, 1, 1, m, a0, [0] * (m - 1), sign)


def p4_grid() -> Iterator[tuple[int, int, int, int, Polynomial]]:
    """(a, b, m, j, polynomial) over a in {3,4,5}, b = 1, m in {3,4,5},
    1 <= j <= m-1, all signs positive."""
    for a, m in product((3, 4, 5), (3, 4, 5)):
        for j in range(1, m):
            yield a, 1, m, j, corpus_mod.gen_p4(a, 1, m, j)


# Each family lists its parts: (label, grid, criterion, expect), where
# expect(*params) gives the conclusion the construction guarantees and the
# witnesses the criterion must report for the grid instance with those params.
_FAMILY_CHECKS = {
    "P1": [("P1", p1_grid, eisenstein_generalized,
            lambda p, m, n, sign: (Conclusion.irreducible(), {"p": p, "k": m - 1, "j": m}))],
    "P2": [("P2 k=1", p2_grid_k1, constant_term_criterion,
            lambda *_: (Conclusion.irreducible(), {})),
           ("P2 k=2", p2_grid_k2, constant_term_criterion,
            lambda *_: (Conclusion.at_most(2), {}))],
    "P3": [("P3", p3_grid, leading_coeff_criterion,
            lambda *_: (Conclusion.irreducible(), {}))],
    "P4": [("P4", p4_grid, dominant_coefficient,
            lambda a, b, m, j: (Conclusion.at_most(m - j), {"j": j}))],
}


def audit_family(name: str) -> tuple[int, list]:
    """Check every grid instance of a family: its criterion must reach the
    expected conclusion with the expected witnesses and an exact
    certificate, and the oracle's factorization must support that
    conclusion (`conclusion_holds`). Returns (instances checked,
    violations), each violation (coeffs, label, params)."""
    if name not in _FAMILY_CHECKS:
        raise ValueError(f"unknown family {name!r}")
    checked = 0
    violations: list = []
    for label, grid, criterion, expect in _FAMILY_CHECKS[name]:
        for *params, f in grid():
            checked += 1
            conclusion, witnesses = expect(*params)
            out = criterion(PolyFacts(f))
            ok = (
                out.conclusion == conclusion
                and witnesses.items() <= out.witnesses.items()
                and out.certificate_mode == EXACT
                and conclusion_holds(conclusion, oracle.factor(f))
            )
            if not ok:
                violations.append((f.coeffs, label, tuple(params)))
    return checked, violations
