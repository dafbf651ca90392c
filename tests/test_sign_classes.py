"""Sign classes: the exhaustive audit runs the criteria once per magnitude
tuple |a_0|, ..., |a_m| and counts the result for every sign pattern, so
what it reports must equal the audit of each polynomial on its own.

- In symbolic mode the criteria conclude alike for every sign pattern,
  unless a run read the rational-root flag (then the audit takes the class
  member by member).
- The class enumerator covers `gen_exhaustive`'s corpus exactly, and
  refuses an oversized one at the call, before any worker or tuple exists.
- `audit_exhaustive` at jobs 1 and 2 equals `audit_corpus` over
  `gen_exhaustive`, with real criteria, with a criterion that fires falsely
  everywhere, and with a rational-root scan that loses roots.
"""

import math
import multiprocessing
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from irreducia import audit, corpus, criteria, poly
from irreducia.corpus import MAX_CORPUS_SIZE, gen_exhaustive, gen_sign_classes, sign_class
from irreducia.criteria import Conclusion, CriterionOutcome, PolyFacts, run_criteria
from irreducia.poly import Polynomial

# small magnitudes make the dominance and disk criteria fire; prime powers
# give Eisenstein and Weintraub witnesses; large ones many primes
_coefficient = st.one_of(
    st.integers(-6, 6),
    st.builds(lambda p, k, u: p**k * u, st.sampled_from((2, 3, 5, 7)), st.integers(1, 12),
              st.sampled_from((1, -1, 2, -3, 5))),
    st.integers(-10**15, 10**15),
)


@st.composite
def signed_pairs(draw):
    """A primitive polynomial with nonzero constant term, and the same one
    with the signs of any of its coefficients flipped."""
    coeffs = draw(st.lists(_coefficient, min_size=2, max_size=13))
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or 1
    g = math.gcd(*coeffs)
    coeffs = [c // g for c in coeffs]
    flips = draw(st.lists(st.booleans(), min_size=len(coeffs), max_size=len(coeffs)))
    return Polynomial(coeffs), Polynomial([-c if s else c for c, s in zip(coeffs, flips)])


@settings(max_examples=500, deadline=None)
@given(signed_pairs())
@example((Polynomial([4, 4, 0, 1]), Polynomial([-4, 4, 0, -1])))
@example((Polynomial([1, 1, 10, 1]), Polynomial([1, -1, -10, 1])))
def test_criteria_outcomes_do_not_depend_on_signs(pair):
    facts, flipped = PolyFacts(pair[0]), PolyFacts(pair[1])
    outcomes, stopped = run_criteria(facts)
    flipped_outcomes, flipped_stopped = run_criteria(flipped)
    if facts.asked_rational_root or flipped.asked_rational_root:
        return  # the one fact that reads signs: the audit takes such a class member by member
    assert flipped_outcomes == outcomes
    assert [name for name, _ in flipped_stopped] == [name for name, _ in stopped]


def test_the_rational_root_flag_is_reported_when_read():
    # 2 + z + z^2: Eisenstein at p = 2, j = 1 = m - 1 asks for a rational root
    facts = PolyFacts(Polynomial([2, 1, 1]))
    assert not facts.asked_rational_root
    run_criteria(facts)
    assert facts.asked_rational_root
    facts = PolyFacts(Polynomial([1, 1, 10, 1]))  # no criterion asks
    run_criteria(facts)
    assert not facts.asked_rational_root


def test_classes_cover_the_exhaustive_corpus():
    members = [g.coeffs for mags in gen_sign_classes(4, 3) for g in sign_class(mags)]
    assert len(members) == len(set(members))
    assert set(members) == {f.coeffs for f in gen_exhaustive(4, 3)}
    for mags in gen_sign_classes(3, 2):
        assert [tuple(map(abs, g.coeffs)) for g in sign_class(mags)] == [mags] * (
            2 ** sum(1 for a in mags[:-1] if a))


def test_an_oversized_corpus_is_refused_before_anything_is_built(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the bound was checked")

    monkeypatch.setattr(multiprocessing, "Pool", unreachable)
    monkeypatch.setattr(audit, "audit_one", unreachable)
    monkeypatch.setattr(corpus, "sign_class", unreachable)
    for degree, bound in ((5, 10**4), (1, 10**30), (MAX_CORPUS_SIZE, 2)):
        with pytest.raises(ValueError, match="invalid bound"):
            gen_sign_classes(degree, bound)  # at the call, not at the first tuple
        for jobs in (1, 2):
            with pytest.raises(ValueError, match="invalid bound"):
                audit.audit_exhaustive(degree, bound, jobs=jobs)
    with pytest.raises(ValueError, match="invalid bound"):
        gen_sign_classes(0, 3)
    assert next(gen_sign_classes(8, 5)) == (1, 1)


def test_gen_exhaustive_refuses_bad_bounds_at_the_call(monkeypatch):
    # the bounds are checked before the stream is returned, so a refused
    # corpus raises where it is asked for, before audit_corpus starts a worker
    def unreachable(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", unreachable)
    for degree, bound in ((0, 5), (5, 10**4)):
        with pytest.raises(ValueError, match="invalid bound"):
            gen_exhaustive(degree, bound)
        with pytest.raises(ValueError, match="invalid bound"):
            audit.audit_corpus(gen_exhaustive(degree, bound), jobs=2)


def _flat(record) -> dict:
    """A record's int fields, and each Findings' total."""
    counts = {}
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, (int, audit.Findings)):
            counts[f.name] = value.found if isinstance(value, audit.Findings) else value
    return counts


def _counts(result: audit.AuditResult) -> dict:
    """Every count of an audit result, each criterion's stats included."""
    return {**_flat(result),
            "criteria": {name: _flat(stats) for name, stats in result.criteria.items()}}


@pytest.mark.parametrize("jobs", [1, 2])
def test_class_audit_equals_the_per_polynomial_audit(jobs):
    per_polynomial = audit.audit_corpus(gen_exhaustive(4, 3))
    by_class = audit.audit_exhaustive(4, 3, jobs=jobs)
    assert _counts(by_class) == _counts(per_polynomial)
    assert by_class == per_polynomial  # no findings, so the examples agree too
    assert by_class.total == 7040 and by_class.oracle_calls > 0
    assert by_class.cor1_checked > 0 and by_class.rootloc_checked > 0


def test_class_audit_counts_every_member_of_a_false_criterion(monkeypatch):
    # a criterion that claims irreducibility everywhere: the oracle judges
    # every member, so each reducible one is a violation of its own
    monkeypatch.setitem(criteria.CRITERIA, "perron_nonmonic",
                        lambda facts: CriterionOutcome("perron_nonmonic", {}, Conclusion.irreducible()))
    by_class = audit.audit_exhaustive(4, 3)
    assert _counts(by_class) == _counts(audit.audit_corpus(gen_exhaustive(4, 3)))
    assert by_class.criteria["perron_nonmonic"].violations.found == 1442


def test_class_audit_follows_a_wrong_rational_root_scan(monkeypatch):
    # a scan that loses every root p/q with q > 1 changes conclusions only
    # where the flag is read, and those classes are audited member by member
    real = poly._rational_roots
    monkeypatch.setattr(poly, "_rational_roots",
                        lambda coeffs: {r for r in real(coeffs) if r.denominator == 1})
    by_class = audit.audit_exhaustive(3, 3)
    assert by_class.violation_count() >= 1
    assert _counts(by_class) == _counts(audit.audit_corpus(gen_exhaustive(3, 3)))
