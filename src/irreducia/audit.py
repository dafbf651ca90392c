"""Corpus audits: run every criterion against the exact factorization oracle
and count fired / sound / inconclusive outcomes per criterion.

`audit_corpus` audits each polynomial it is given on its own.
`audit_exhaustive` audits `gen_exhaustive`'s corpus one sign class at a
time: the members share their |a_i|, so in symbolic mode the criteria, which
read only sizes and divisibility, run once for the class, and a class whose
run read the rational-root flag is audited member by member. The oracle and
the root iteration still run on every member that needs them.

Three cross-checks ride along on the same sweep:
  * soundness   -- every fired conclusion is judged by `Conclusion.holds`
                   on the oracle's factor degrees (bounds that hold for
                   trivial reasons, `Conclusion.vacuous`, such as a factor
                   count bound of at least the degree, are tallied as
                   vacuously sound without an oracle call);
  * cor1        -- wherever the unit-divisor dominance inequality holds at
                   its one index j, the dominant-coefficient conclusion
                   must equal AtMostFactors(m - j), unless a factorization
                   limit stopped that criterion. Both read
                   `PolyFacts.dominant`, so this catches a conclusion that
                   does not match that index (missing, weaker or stronger).
                   `ref_cor1_best_j` in the tests is the independent form;
  * rootloc     -- wherever a symbolic disk certificate fires at a radius the
                   constant/leading witness search tries, every numerically
                   computed root must clear the largest such radius, read
                   from `PolyFacts.certified_radius` at both ends, the
                   search the disk criteria make.

`audit_family` replays the constructions P1-P4 over fixed grids; each
instance is judged against the oracle by the same `Conclusion.holds`. Its
criteria are named by their `CRITERIA` keys and read from that registry at
each call, as `run_criteria` reads them, so a patched entry is seen by both.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import islice, product
from typing import Iterable, Iterator, Sequence

from . import corpus as corpus_mod
from . import numtheory, oracle, rootloc
from .criteria import (CRITERIA, EXACT, Conclusion, ConclusionKind, CriterionOutcome, PolyFacts,
                       run_criteria)
from .poly import Polynomial

ROOT_MARGIN = 1e-6
_EXAMPLE_CAP = 50  # examples kept per list; the counts stay exact
_CHUNK_SIZE = 4096  # polynomials per task sent to a worker in a parallel audit
_CLASSES_PER_TASK = 256  # sign classes per task: about 5,000 polynomials at degree <= 5


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


@dataclass
class AuditResult:
    total: int = 0
    oracle_calls: int = 0
    oracle_skipped: int = 0
    criteria: dict = field(default_factory=lambda: defaultdict(CriterionStats))
    cor1_checked: int = 0
    cor1_violations: Findings = field(default_factory=Findings)
    rootloc_checked: int = 0
    rootloc_violations: Findings = field(default_factory=Findings)
    nonconvergences: Findings = field(default_factory=Findings)

    def merge(self, other: "AuditResult") -> None:
        _merge_fields(self, other)
        for name, stats in other.criteria.items():
            _merge_fields(self.criteria[name], stats)

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
            unchecked = f"  unchecked {s.unchecked}" if s.unchecked else ""
            stopped = f"  stopped by a limit {s.stopped}" if s.stopped else ""
            lines.append(
                f"  {name:22s} fired {s.fired:8d}  sound {s.sound:8d} "
                f"(vacuous {s.vacuous})  no-conclusion {inconclusive:8d}  "
                f"violations {s.violations.found}{unchecked}{stopped}"
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
    """The one j for which the dominance inequality with b = |a_m| and
    delta = 1/|a_m| holds (audit predicate for the subsumption check):

        |a_j| > |a_{j+1}/a_m| + sum_{i<j} |a_i||a_m|^(j-i)
                + sum_{i>j+1} |a_i| |a_m|^-(i-j),

    which is the dominant-coefficient inequality at the single divisor
    b = |a_m|. It holds at some divisor of a_m exactly when it holds at
    |a_m|, so this is the index of the record's `dominant`. `audit_one`
    compares the criterion's conclusion with AtMostFactors(m - j).
    """
    hit = facts.dominant
    return None if hit is None else hit[0]


_NO_CONCLUSION = ConclusionKind.NO_CONCLUSION
_NONE = Conclusion.none()
_DOMINANT_INDEX = list(CRITERIA).index("dominant_coefficient")  # run_criteria keeps CRITERIA's order


def audit_one(f: Polynomial, result: AuditResult,
              members: Sequence[Polynomial] | None = None) -> None:
    """Audit a single primitive polynomial with nonzero constant term, or,
    given `members`, the sign class f stands for: f with nonnegative
    coefficients, and members every polynomial of the class
    (`corpus.sign_class`). In symbolic mode the criteria read only the |a_i|
    and the divisibility of the a_i, save the rational-root flag, so they run
    once for the class and their tallies count every member. A class whose
    run read the flag is audited member by member instead. The oracle and
    the root iteration read the signs, so they run on each member that needs
    them, and a finding names the member."""
    facts = PolyFacts(f)
    outcomes, stopped = run_criteria(facts)
    if members is None:
        n = 1
    elif facts.asked_rational_root:
        for g in members:
            audit_one(g, result)
        return
    else:
        n = len(members)
    result.total += n
    m = facts.degree
    criteria = result.criteria
    for name, _ in stopped:
        criteria[name].stopped += n

    to_check: list[CriterionOutcome] = []
    for outcome in outcomes:
        conclusion = outcome.conclusion
        if conclusion is _NONE or conclusion.kind is _NO_CONCLUSION:  # the shared one first
            continue
        stats = criteria[outcome.criterion]
        stats.fired += n
        if conclusion.vacuous(m):
            stats.vacuous += n
            stats.sound += n
        else:
            to_check.append(outcome)

    if to_check:
        for g in members or (f,):
            try:
                fact = oracle.factor(g)
            except oracle.OracleLimitError:
                result.oracle_skipped += 1
                for outcome in to_check:
                    criteria[outcome.criterion].unchecked += 1
            else:
                result.oracle_calls += 1
                degrees = fact.factor_degrees()
                for outcome in to_check:
                    stats = criteria[outcome.criterion]
                    if outcome.conclusion.holds(degrees):
                        stats.sound += 1
                    else:
                        stats.violations.add((g.coeffs, outcome.criterion,
                                              outcome.conclusion.kind.value,
                                              outcome.conclusion.bound, len(degrees)))

    # a limit that stopped the criterion's divisor walk skips its cross-check
    j = cor1_best_j(facts)
    if j is not None and (not stopped or "dominant_coefficient" not in dict(stopped)):
        result.cor1_checked += n
        dom = outcomes[_DOMINANT_INDEX].conclusion
        if dom != Conclusion.at_most(m - j):
            for g in members or (f,):
                result.cor1_violations.add((g.coeffs, j, dom.kind.value, dom.bound))

    try:  # symbolic mode certifies no radius, at either end, without the unit disk
        worst = facts.unit_disk_certified and max(facts.certified_radius(0),
                                                  facts.certified_radius(m))
    except numtheory.FactorizationLimitError:
        worst = 0
    if worst:
        result.rootloc_checked += n
        for g in members or (f,):
            try:
                roots = rootloc.numeric_roots(g)
            except rootloc.NonConvergenceError as exc:
                result.nonconvergences.add((g.coeffs, exc.best_residual))
            else:
                min_modulus = min(abs(r) for r in roots)
                if min_modulus <= worst * (1.0 - ROOT_MARGIN):
                    result.rootloc_violations.add((g.coeffs, worst, min_modulus))


def _audit_polys(polys: Iterable[Polynomial]) -> AuditResult:
    result = AuditResult()
    for f in polys:
        audit_one(f, result)
    return result


def _audit_classes(classes: Iterable[tuple[int, ...]]) -> AuditResult:
    """Audit the sign class of each magnitude tuple; a worker builds the members."""
    result = AuditResult()
    make, sign_class = Polynomial._from_canonical, corpus_mod.sign_class
    for mags in classes:
        audit_one(make(mags), result, sign_class(mags))
    return result


def _audit(audit_items, items: Iterable, jobs: int, block: int) -> AuditResult:
    """audit_items(items), or the merge of it over blocks of `block` items in
    at most `os.cpu_count()` worker processes, however many jobs are asked
    for; then each list of examples is sorted.

    Items are pure-function audits, so every count in the merge is
    deterministic regardless of worker scheduling; which examples the
    (sorted, capped) listings keep may differ between runs."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        result = audit_items(items)
    else:
        import multiprocessing  # only a parallel audit needs it

        result = AuditResult()
        it = iter(items)
        with multiprocessing.Pool(jobs) as pool:
            blocks = iter(lambda: list(islice(it, block)), [])
            for partial in pool.imap_unordered(audit_items, blocks):
                result.merge(partial)
    for stats in result.criteria.values():
        stats.violations.sort()
    result.cor1_violations.sort()
    result.rootloc_violations.sort()
    result.nonconvergences.sort()
    return result


def audit_corpus(polys: Iterable[Polynomial], jobs: int = 1) -> AuditResult:
    """Audit an iterable of primitive polynomials one by one, with `jobs`
    worker processes at most (see `_audit`)."""
    return _audit(_audit_polys, polys, jobs, _CHUNK_SIZE)


def audit_exhaustive(max_degree: int, coeff_bound: int, jobs: int = 1) -> AuditResult:
    """Audit `gen_exhaustive`'s corpus one sign class at a time
    (`corpus.gen_sign_classes`), with jobs as `audit_corpus` has them. Every
    count equals `audit_corpus(gen_exhaustive(...))`'s; past `_EXAMPLE_CAP`
    findings of one kind, the examples kept are the first in class order.
    An oversized corpus is refused before any worker starts."""
    classes = corpus_mod.gen_sign_classes(max_degree, coeff_bound)
    return _audit(_audit_classes, classes, jobs, _CLASSES_PER_TASK)


# ---------------------------------------------------------------------------
# family grids and their expected conclusions


def _members(build, grid: Iterable[tuple]) -> Iterator[tuple]:
    """(*params, build(*params)) for each params in grid, skipping those
    whose side conditions the family generator refuses."""
    for params in grid:
        try:
            f = build(*params)
        except corpus_mod.FamilyConditionError:
            continue
        yield (*params, f)


def p1_grid() -> Iterator[tuple[int, int, int, int, Polynomial]]:
    """(p, m, n, sign, polynomial) over p in {2,3,5}, 2 <= n <= m <= 6."""
    return _members(corpus_mod.gen_p1, product((2, 3, 5), range(2, 7), range(2, 7), (1, -1)))


def p2_grid_k1() -> Iterator[tuple[int, int, int, tuple[int, ...], int, Polynomial]]:
    """(p, d, m, tail, sign, polynomial) for exponent k = 1 instances over
    p in {3,5,7}, d in {1,2}, m in {2,3,4}, small tails that satisfy the
    dominance side condition."""
    grid = ((p, d, m, tail, sign)
            for p, d, m, sign in product((3, 5, 7), (1, 2), (2, 3, 4), (1, -1))
            for tail in product((-1, 0, 1), repeat=m))
    return _members(lambda p, d, m, tail, sign: corpus_mod.gen_p2(p, 1, d, m, tail, sign), grid)


def p2_grid_k2() -> Iterator[tuple[int, int, tuple[int, ...], Polynomial]]:
    """(p, m, tail, polynomial) for exponent k = 2, d = 1 instances whose
    first coefficient is divisible by p, so the criterion's witness index j
    is at least 2 and the factor bound is exactly min(2, j) = 2."""
    grid = ((p, m, tail) for p, m in product((3, 5, 7), (2, 3, 4))
            for tail in product((0, p, -p), *[(-1, 0, 1)] * (m - 1)))
    return _members(lambda p, m, tail: corpus_mod.gen_p2(p, 2, 1, m, tail), grid)


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
    return _members(corpus_mod.gen_p4, product((3, 4, 5), (1,), (3, 4, 5), range(1, 5)))


# Each family lists its parts: (label, grid, criterion, expect), where
# criterion is a CRITERIA key and expect(*params) gives the conclusion the
# construction guarantees and the witnesses the criterion must report for the
# grid instance with those params.
_FAMILY_CHECKS = {
    "P1": [("P1", p1_grid, "eisenstein_generalized",
            lambda p, m, n, sign: (Conclusion.irreducible(), {"p": p, "k": m - 1, "j": m}))],
    "P2": [("P2 k=1", p2_grid_k1, "constant_term", lambda *_: (Conclusion.irreducible(), {})),
           ("P2 k=2", p2_grid_k2, "constant_term", lambda *_: (Conclusion.at_most(2), {}))],
    "P3": [("P3", p3_grid, "leading_coeff", lambda *_: (Conclusion.irreducible(), {}))],
    "P4": [("P4", p4_grid, "dominant_coefficient",
            lambda a, b, m, j: (Conclusion.at_most(m - j), {"j": j}))],
}


def audit_family(name: str) -> tuple[int, list]:
    """Check every grid instance of a family: its criterion must reach the
    expected conclusion with the expected witnesses and an exact
    certificate, and the oracle's factorization must support that
    conclusion (`Conclusion.holds`). Returns (instances checked,
    violations), each violation (coeffs, label, params)."""
    if name not in _FAMILY_CHECKS:
        raise ValueError(f"unknown family {name!r}")
    checked = 0
    violations: list = []
    for label, grid, criterion, expect in _FAMILY_CHECKS[name]:
        for *params, f in grid():
            checked += 1
            conclusion, witnesses = expect(*params)
            out = CRITERIA[criterion](PolyFacts(f))
            ok = (
                out.conclusion == conclusion
                and witnesses.items() <= out.witnesses.items()
                and out.certificate_mode == EXACT
                and conclusion.holds(oracle.factor(f).factor_degrees())
            )
            if not ok:
                violations.append((f.coeffs, label, tuple(params)))
    return checked, violations
