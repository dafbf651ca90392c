"""Irreducibility and factor-count criteria with automatic witness search.

Every criterion has the signature criterion(facts): facts is the PolyFacts
record of a primitive polynomial, `PolyFacts(f)` in symbolic mode or
`PolyFacts(f, mode)`; the record carries the root-location certificate mode,
which only the two disk criteria read. Each searches the finite witness space
its hypothesis allows (primes dividing a single coefficient, divisors of the
leading coefficient, coefficient indices), and returns a structured outcome
carrying the witnesses found. Every inequality is evaluated in exact integer
arithmetic; the two disk-based criteria additionally consume a root location
certificate and propagate whether it was exact or numeric.

Outcomes are shared: each search gets its fired outcome from one builder per
criterion, an `lru_cache` of `_SHARED_OUTCOMES` entries keyed on every value
the outcome holds, so equal witnesses give one object. Outcomes that hold no
witness are module constants.

Conclusion kinds:
  Irreducible          -- the polynomial has exactly one irreducible factor.
  AtMostFactors(n)     -- at most n irreducible integer factors.
  FactorDegreeBound(k) -- reducible only with some factor of degree <= k.
  NoConclusion         -- hypothesis not satisfiable for this input.
"""

from __future__ import annotations

import enum
import functools
import math
from fractions import Fraction
from types import MappingProxyType
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import numtheory, oracle, rootloc
from .poly import Polynomial, _check_digits, _has_rational_root, normalize
from .rootloc import CertificateMode


class ConclusionKind(enum.Enum):
    IRREDUCIBLE = "Irreducible"
    AT_MOST_FACTORS = "AtMostFactors"
    FACTOR_DEGREE_BOUND = "FactorDegreeBound"
    NO_CONCLUSION = "NoConclusion"


class Conclusion(NamedTuple):
    """A criterion's verdict. The constructors hand out shared instances:
    one each for `irreducible()` and `none()`, and one per bound, kept by
    `functools.cache`, for `at_most` and `factor_degree`. A named tuple is
    immutable, so sharing one is safe, and it compares, hashes and pickles
    by value as a fresh one does."""

    kind: ConclusionKind
    bound: int | None = None

    @staticmethod
    def irreducible() -> "Conclusion":
        return _IRREDUCIBLE

    @staticmethod
    @functools.cache  # a criterion's bound is at most the degree
    def at_most(n: int) -> "Conclusion":
        """At most n factors; a bound of 1 is irreducibility."""
        return _IRREDUCIBLE if n == 1 else Conclusion(_AT_MOST_FACTORS, n)

    @staticmethod
    @functools.cache
    def factor_degree(k: int) -> "Conclusion":
        return Conclusion(_FACTOR_DEGREE_BOUND, k)

    @staticmethod
    def none() -> "Conclusion":
        return _NONE

    def fired(self) -> bool:
        return self.kind is not _NO_CONCLUSION

    def rank(self) -> tuple[int, int]:
        """Sort key: stronger conclusions first, by kind in definition order
        (found by identity in a tuple: no enum member is hashed), then bound."""
        return (_KINDS.index(self.kind), self.bound or 0)

    def holds(self, degrees: Sequence[int]) -> bool:
        """Whether a polynomial whose irreducible factors other than z have
        these degrees (one entry per factor, counted with multiplicity, in
        any order) bears the conclusion out."""
        kind = self.kind
        if kind is _IRREDUCIBLE_KIND:
            return len(degrees) == 1
        if kind is _AT_MOST_FACTORS:
            return len(degrees) <= self.bound
        if kind is _FACTOR_DEGREE_BOUND:
            return len(degrees) <= 1 or min(degrees) <= self.bound
        return True

    def vacuous(self, degree: int) -> bool:
        """Whether no factorization of a polynomial of this degree can break
        the conclusion: a factor-count bound of at least the degree, or a
        factor-degree bound at least floor(degree/2). Irreducible is never
        vacuous, not even at degree 1, so the audit checks every such claim."""
        if self.kind is _AT_MOST_FACTORS:
            return self.bound >= degree
        if self.kind is _FACTOR_DEGREE_BOUND:
            return self.bound >= degree // 2
        return False

    def __str__(self) -> str:
        kind = self.kind.value
        return kind if self.bound is None else f"{kind}({self.bound})"


# module names for the members read per outcome: a class attribute read costs more
_KINDS = tuple(ConclusionKind)  # strongest first
_IRREDUCIBLE_KIND, _AT_MOST_FACTORS, _FACTOR_DEGREE_BOUND, _NO_CONCLUSION = _KINDS

_IRREDUCIBLE = Conclusion(_IRREDUCIBLE_KIND)
_NONE = Conclusion(_NO_CONCLUSION)


EXACT = "exact"
NUMERIC_CONDITIONAL = "numeric-conditional"
SYMBOLIC = CertificateMode.SYMBOLIC_SUFFICIENT  # read per polynomial; faster than the member


class CriterionOutcome(NamedTuple):
    """A criterion's result. `witnesses` is a read-only mapping, in report
    order, on every outcome the criteria and `analyze` build, so one outcome
    can be shared; pickling and copying write it as a plain dict and read it
    back read-only."""

    criterion: str
    witnesses: Mapping[str, object]
    conclusion: Conclusion
    certificate_mode: str = EXACT

    def rank(self) -> tuple[int, int, str]:
        return (*self.conclusion.rank(), self.criterion)

    def __reduce__(self):
        # a mappingproxy neither pickles nor deep-copies
        return _outcome, (self.criterion, dict(self.witnesses), self.conclusion,
                          self.certificate_mode)


def _outcome(criterion: str | None, witnesses: dict, conclusion: Conclusion,
             certificate_mode: str = EXACT) -> CriterionOutcome:
    """An outcome holding a read-only view of `witnesses`."""
    return CriterionOutcome(criterion, MappingProxyType(witnesses), conclusion, certificate_mode)


# the most outcomes each builder keeps: witnesses come from coefficients of any size
_SHARED_OUTCOMES = 1 << 10
_shared = functools.lru_cache(maxsize=_SHARED_OUTCOMES)


def _lower_sum(mags: list[int], j: int, t: int) -> int:
    """sum_{i<j} |a_i| t^(j-i) by Horner's rule, or a partial sum once it
    reaches |a_j|: with t >= 1 the sum only grows, and no test can pass
    from there."""
    acc = 0
    for a in mags[:j]:
        acc = (acc + a) * t
        if acc >= mags[j]:
            break
    return acc


class PolyFacts:
    """Coefficient facts about one primitive polynomial of degree >= 1 with
    nonzero constant term, shared by every criterion and by the audit's
    cross-checks, in one root-location certificate mode (`mode`, symbolic
    unless asked, a `CertificateMode` or its value; anything else raises
    ValueError): the mode the two disk criteria certify in.

    The input is validated once on construction, and the facts every run of
    the criteria reads are worked out there too, from the sizes |a_i| alone:

    * `unit_disk_certified`: the exact disk test at radius 1, |a_0| >
      sum_{i>=1} |a_i| (one sum), the symbolic certificate at d = 1, where
      `certified_radius` starts;
    * `low`: low[j] = sum_{i<j} |a_i| |a_m|^(j-i) for j = 0..m, by Horner's
      rule in j, capped at max |a_i|. It only grows with j, and every test
      that reads it fails once low[j] >= |a_j|; once the running sum reaches
      the cap, every later entry is the cap, since (cap + a) |a_m| >= cap,
      so the rest of the list is filled without arithmetic;
    * `dominant`: (j, high) for the one index j at which the dominance
      inequality |a_j| - low[j] > sum_{i>j} |a_i| / |a_m|^(i-j) holds, with
      high the floor of that sum, or None (always below degree 2). The
      integer on the left exceeds the sum exactly when it exceeds its
      floor, and one running floor t = (|a_i| + t) // |a_m| serves every j,
      falling from m-1. No second index j < j' passes: low[j'] < |a_j'|
      puts low[j'] below its cap, so |a_j'| > |a_j| |a_m|^(j'-j); that term
      of the sum gives high(j) >= |a_j|, and j fails. At a divisor b < |a_m|
      the sum only grows, so the dominant-coefficient and middle-prime-power
      criteria, and the audit's unit-divisor check, can fire at this j alone.

    Nothing there is factorized and nothing raises. Everything else is
    worked out on first use and kept, so a fact no caller asks for is never
    computed: in particular a coefficient is factorized only when a witness
    search reaches it. Factorizations, and the factorization limit failures,
    are kept in `numtheory`'s one cache, not here. In symbolic mode
    `has_rational_root()` is the one fact that reads the signs of the
    coefficients, not only their sizes and divisibility, and
    `asked_rational_root` says whether a caller read it. `roots()` finds the
    numeric roots once, for `rootloc.certify_outside_disk` above its degree
    cap; a root iteration that did not converge is remembered, and asking
    again raises it again.
    The disk radii are searched again on each call of `certified_radius`,
    but from one pair shared by both ends, the largest radius certified and
    the smallest refused so far, so a radius the pair settles needs no
    second certificate.
    """

    __slots__ = ("poly", "coeffs", "degree", "mags", "mode", "unit_disk_certified", "low",
                 "dominant", "_rational_root", "_roots", "_bounds")

    def __init__(self, f: Polynomial, mode: CertificateMode = SYMBOLIC):
        coeffs = f.coeffs
        if not coeffs:
            raise ValueError("zero polynomial: no criterion applies")
        if math.gcd(*coeffs) != 1:
            raise ValueError("normalize first: input is not primitive")
        if len(coeffs) < 2:
            raise ValueError("criterion needs degree >= 1")
        if coeffs[0] == 0:
            raise ValueError("normalize first: constant term is zero")
        self.poly = f
        self.coeffs = coeffs
        self.degree = m = len(coeffs) - 1
        self.mags = mags = list(map(abs, coeffs))
        self.mode = mode = mode if type(mode) is CertificateMode else CertificateMode(mode)
        self.unit_disk_certified = 2 * mags[0] > sum(mags)
        am, cap = mags[m], max(mags)
        self.low = low = [0]
        acc = 0
        for a in mags[:m]:
            acc = (acc + a) * am
            if acc >= cap:
                low += [cap] * (m + 1 - len(low))
                break
            low.append(acc)
        dominant = None
        high = 0  # floor(sum_{i>j} |a_i| / |a_m|^(i-j)), kept as j falls
        for j in range(m - 1, -1, -1) if m > 1 else ():
            high = (mags[j + 1] + high) // am
            if mags[j] - low[j] > high:
                dominant = (j, high)
                break
        self.dominant = dominant
        self._rational_root: bool | None = None
        self._roots: list[complex] | rootloc.NonConvergenceError | None = None
        self._bounds: list | None = None  # made by the first `certified_radius` call

    def has_rational_root(self) -> bool:
        """Whether f has a rational root, by `poly._has_rational_root`, fast
        for a squarefree f. Only Weintraub at k0 = 1 and the generalized
        Eisenstein criterion at j = m-1 ask, and each has then limited f to
        "irreducible, or linear times irreducible", squarefree above degree 2."""
        if self._rational_root is None:
            self._rational_root = _has_rational_root(self.coeffs)
        return self._rational_root

    @property
    def asked_rational_root(self) -> bool:
        """Whether `has_rational_root()` was read, the one fact that depends
        on the signs of the coefficients: where it was not, the criteria
        concluded alike for every polynomial with these |a_i| (symbolic mode)."""
        return self._rational_root is not None

    def roots(self) -> list[complex]:
        """All complex roots from one numeric root iteration."""
        if self._roots is None:
            try:
                self._roots = rootloc.numeric_roots(self.poly)
            except rootloc.NonConvergenceError as exc:
                self._roots = exc
        if isinstance(self._roots, rootloc.NonConvergenceError):
            raise self._roots
        return self._roots

    def disk_radii(self, i: int) -> list[tuple[int, int, int]]:
        """(p, k, d) for each prime power p^k exactly dividing a_i, i in
        {0, m}, with d = |a_i| / p^k: the radii the disk criteria try. Empty
        when |a_i| = 1. Built afresh from numtheory's cached factorization."""
        a = self.mags[i]
        return [(p, k, a // p**k) for p, k in numtheory.prime_factors(a)]

    def certified_radius(self, i: int) -> int:
        """The largest disk radius d at a_i, i in {0, m}, at which every root
        is certified outside |z| <= d in `mode`, or 0 if there is none.
        Both tests are monotone in d (see `rootloc`), so the radii are tried
        from the largest down, and one at or below the largest certified so
        far, or at or above the smallest refused so far (at either end), is
        settled without a certificate. Every radius is an integer >= 1, so
        the symbolic search starts certified at 1, and stops before a_i is
        factorized when `unit_disk_certified` is false. Each radius left open
        is decided by `rootloc.certify_outside_disk`, from the one shared
        `roots()` above its cap; it refuses a radius too large for the root
        product |a_0 / a_m| by bit lengths alone, in either mode."""
        if self.mode is SYMBOLIC and not self.unit_disk_certified:
            return 0
        bounds = self._bounds
        if bounds is None:  # the largest radius certified so far, and the least refused
            bounds = self._bounds = [1 if self.mode is SYMBOLIC else 0, math.inf]
        for d in sorted((d for _, _, d in self.disk_radii(i)), reverse=True):
            if d >= bounds[1]:
                continue
            if d <= bounds[0] or rootloc.certify_outside_disk(self.poly, d, self.mode,
                                                              roots=self.roots):
                bounds[0] = max(bounds[0], d)
                return d
            bounds[1] = d
        return 0


# ---------------------------------------------------------------------------
# coefficient-divisibility criteria


def weintraub_check(facts: PolyFacts) -> CriterionOutcome:
    """Eisenstein-style dichotomy from a prime dividing every non-leading
    coefficient: with k0 the lowest index whose coefficient misses p^2, any
    factorization has a factor of degree <= k0. k0 = 0 is irreducibility;
    k0 = 1 upgrades to irreducibility when there is no rational root. p never
    divides a_m: it divides every other coefficient, and f is primitive."""
    name = "weintraub"
    c, m = facts.coeffs, facts.degree
    lower_gcd = math.gcd(*c[:m])
    if lower_gcd <= 1:
        return _NO_CONCLUSIONS[name]
    best = None  # (p, k0) with the smallest k0, the first on a tie
    for p, _ in numtheory.prime_factors(lower_gcd):
        p2 = p * p
        k0 = next((k for k in range(m) if c[k] % p2 != 0), None)
        if k0 is None:
            continue
        if k0 == 0 or (k0 == 1 and not facts.has_rational_root()):
            return _weintraub_fired(p, k0, True)
        if best is None or k0 < best[1]:
            best = (p, k0)
    if best is None:
        return _NO_CONCLUSIONS[name]
    return _weintraub_fired(*best, False)


@_shared
def _weintraub_fired(p: int, k0: int, irreducible: bool) -> CriterionOutcome:
    return _outcome("weintraub", {"p": p, "k0": k0},
                    _IRREDUCIBLE if irreducible else Conclusion.factor_degree(k0))


def eisenstein_generalized(facts: PolyFacts) -> CriterionOutcome:
    """Prime-power prefix criterion: p^k exactly divides a_0, p^k divides all
    coefficients below index j, p misses a_j, and gcd(k, j) = 1. j = m gives
    irreducibility; j = m-1 does too when no rational root exists; otherwise
    any nontrivial factorization has a factor of degree <= m - j."""
    name = "eisenstein_generalized"
    c, m = facts.coeffs, facts.degree
    # of the primes missing a_1 (j = 1) only the least can be the witness, so
    # those above 10^3 are read only if one divides a_1 or all below 10^3 do
    factors, rest = numtheory.small_prime_factors(facts.mags[0])
    if rest > 1 and (math.gcd(rest, c[1]) > 1 or all(c[1] % p == 0 for p, _ in factors)):
        factors = numtheory.prime_factors(facts.mags[0])
    best = None  # (p, k, j) with the largest j, the first on a tie
    for p, k in factors:
        pk = p**k
        j = 1  # p^k divides a_0; f is primitive, so it misses some a_j with j <= m
        while c[j] % pk == 0:
            j += 1
        if c[j] % p == 0 or math.gcd(k, j) != 1:
            continue  # p divides every a_i below j, so no other j can pass
        if j == m or (j == m - 1 and not facts.has_rational_root()):
            return _eisenstein_fired(p, k, j, None)
        if best is None or j > best[2]:
            best = (p, k, j)
    if best is None:
        return _NO_CONCLUSIONS[name]
    return _eisenstein_fired(*best, m - best[2])


@_shared
def _eisenstein_fired(p: int, k: int, j: int, bound: int | None) -> CriterionOutcome:
    """The outcome with factor-degree bound `bound`, or Irreducible for None."""
    return _outcome("eisenstein_generalized", {"p": p, "k": k, "j": j},
                    _IRREDUCIBLE if bound is None else Conclusion.factor_degree(bound))


# ---------------------------------------------------------------------------
# disk-certificate criteria


def _disk_criterion(name: str, facts: PolyFacts, i: int, q: int | None = None) -> CriterionOutcome:
    """The search both disk criteria share, at the end a_i with i in {0, m}:
    each a_i = +-p^k d with every root certified outside |z| <= d gives at
    most min(k, j) irreducible factors, where j counts the steps from i
    toward the other end up to the first coefficient that p misses. The
    certified radii are those up to `PolyFacts.certified_radius`."""
    limit = facts.certified_radius(i)
    if not limit:
        return _NO_CONCLUSIONS[name]
    c, m = facts.coeffs, facts.degree
    step = 1 if i == 0 else -1
    best = None  # (bound, p, k, j, d) with the smallest bound, the first on a tie
    for p, k, d in facts.disk_radii(i):
        if d > limit:
            continue
        j = next(j for j in range(1, m + 1) if c[i + step * j] % p != 0)
        bound = min(k, j)
        if best is None or bound < best[0]:
            best = (bound, p, k, j, d)
            if bound == 1:
                break  # irreducible: no later radius is stronger
    _, p, k, j, d = best  # never None: limit is one of the radii
    cert_mode = EXACT if facts.mode is SYMBOLIC else NUMERIC_CONDITIONAL
    return _disk_fired(name, p, k, j, d, q, cert_mode)


@_shared
def _disk_fired(name: str, p: int, k: int, j: int, d: int, q: int | None,
                cert_mode: str) -> CriterionOutcome:
    witnesses = {"p": p, "k": k, "j": j, "d": d}
    if q is not None:  # last, as the report's witness order has it
        witnesses["q"] = q
    return _outcome(name, witnesses, Conclusion.at_most(min(k, j)), cert_mode)


def constant_term_criterion(facts: PolyFacts) -> CriterionOutcome:
    """Constant-term decomposition a_0 = +-p^k d with p missing d, all roots
    certified outside |z| <= d, and j the lowest index with p missing a_j:
    at most min(k, j) irreducible factors."""
    return _disk_criterion("constant_term", facts, 0)


def leading_coeff_criterion(facts: PolyFacts) -> CriterionOutcome:
    """Mirror of the constant-term criterion on a_m = +-p^k d, with the extra
    size condition |a_0 / q| <= |a_m| for q the smallest prime divisor of
    a_0; j is the lowest index with p missing a_{m-j}."""
    name = "leading_coeff"
    a0, am = facts.mags[0], facts.mags[-1]
    if am == 1 or a0 == 1:
        return _NO_CONCLUSIONS[name]
    if facts.mode is SYMBOLIC and not facts.unit_disk_certified:
        return _NO_CONCLUSIONS[name]  # before a_0 is factorized for q
    q = numtheory.least_prime_factor(a0)
    if a0 > q * am:  # |a0/q| <= |am| as an exact comparison
        return _NO_CONCLUSIONS[name]
    return _disk_criterion(name, facts, facts.degree, q)


# ---------------------------------------------------------------------------
# dominant-coefficient criteria


def dominant_coefficient(facts: PolyFacts) -> CriterionOutcome:
    """One coefficient dominating the rest forces a root split and hence a
    factor-count bound: if for a positive divisor b of a_m and delta = 1/b

        |a_j| > sum_{i<j} |a_i| |a_m|^(j-i) + sum_{i>j} |a_i| delta^(i-j)

    then at most m - j irreducible factors; j = m-1 gives irreducibility.
    The right side grows with delta, so testing delta = 1/b is exhaustive
    over [1/b, 1], and j can only be `PolyFacts.dominant`'s one index. The
    divisors b of a_m come upward from `numtheory`'s walk, which factorizes
    a_m only past 10^3 (so an a_m that resists rho still gives every b up to
    10^3), and the least that passes is the witness. Each b below |a_m| is
    tested against the floor of the sum over i > j; b = |a_m| is where
    `dominant` found j, so the walk ends there with no test."""
    name = "dominant_coefficient"
    hit = facts.dominant
    if hit is None:
        return _NO_CONCLUSIONS[name]
    j = hit[0]
    mags, m = facts.mags, facts.degree
    am = mags[m]
    excess = mags[j] - facts.low[j]
    for b in numtheory._ascending_divisors(am):
        if b == am:
            break
        t = 0
        for a in mags[m:j:-1]:
            t = (a + t) // b
        if excess > t:
            break
    return _dominant_fired(b, j, m - j)


@_shared
def _dominant_fired(b: int, j: int, bound: int) -> CriterionOutcome:
    return _outcome("dominant_coefficient", {"b": b, "delta": Fraction(1, b), "j": j},
                    Conclusion.at_most(bound))


def perron_nonmonic(facts: PolyFacts) -> CriterionOutcome:
    """Non-monic Perron test: |a_{m-1}| > 1 + sum_{i<=m-2} |a_i| |a_m|^(m-1-i)
    forces irreducibility (all but one root of the rescaled monic polynomial
    fall inside the unit disk)."""
    name = "perron_nonmonic"
    m = facts.degree
    if m < 2:
        return _NO_CONCLUSIONS[name]
    if facts.mags[m - 1] > 1 + facts.low[m - 1]:
        return _PERRON_FIRED
    return _NO_CONCLUSIONS[name]


_PERRON_FIRED = _outcome("perron_nonmonic", {}, _IRREDUCIBLE)


def middle_prime_power_check(facts: PolyFacts) -> CriterionOutcome:
    """A large prime power p^N inside the coefficient of z^j (1 <= j <= m-1)
    dominating a weighted sum of the others bounds the factor count by m - j.

    Writing coeff(z^j) = p^N a_j and coeff(z^(j-1)) = p^s a_(j-1) with p
    missing both reduced parts, the test is

        p^N |a_j| > |a_m a_(j-1)| p^(2s)
                    + sum_{i=2..j} |a_m^i a_(j-i)| p^(is)
                    + sum_{i=j+1..m} |a_i| / |a_m|^(i-j).

    The first two terms together are sum_{i<j} |coeff(z^i)| t^(j-i) with
    t = |a_m| p^s, which is low[j] when s = 0 and never less. The last sum
    is compared by its floor, `high` of `PolyFacts.dominant`. Every prime's
    test is then at least as hard as the dominance test at b = |a_m|, so
    only `dominant`'s one index can pass, where the bound m - j is the
    dominant-coefficient criterion's.
    """
    name = "middle_prime_power"
    hit = facts.dominant
    c = facts.coeffs
    if hit is None or hit[0] == 0 or c[hit[0] - 1] == 0:
        return _NO_CONCLUSIONS[name]
    j, high = hit
    mags, m = facts.mags, facts.degree
    for p, n_exp in numtheory.prime_factors(mags[j]):
        s_exp = numtheory.valuation(p, c[j - 1])
        lower = facts.low[j] if s_exp == 0 else _lower_sum(mags, j, mags[m] * p**s_exp)
        if mags[j] - lower > high:
            return _middle_fired(p, j, n_exp, s_exp, m - j)
    return _NO_CONCLUSIONS[name]


@_shared
def _middle_fired(p: int, j: int, n_exp: int, s_exp: int, bound: int) -> CriterionOutcome:
    return _outcome("middle_prime_power", {"p": p, "j": j, "N": n_exp, "s": s_exp},
                    Conclusion.at_most(bound))


# ---------------------------------------------------------------------------
# aggregate analysis

CRITERIA = {
    "constant_term": constant_term_criterion,
    "dominant_coefficient": dominant_coefficient,
    "eisenstein_generalized": eisenstein_generalized,
    "leading_coeff": leading_coeff_criterion,
    "middle_prime_power": middle_prime_power_check,
    "perron_nonmonic": perron_nonmonic,
    "weintraub": weintraub_check,
}

_NO_CONCLUSIONS = {name: _outcome(name, {}, _NONE) for name in CRITERIA}
# what the CLI reports as strongest when no criterion concludes
NO_STRONGEST = _outcome(None, {}, _NONE)
_DEGREE_ONE = _outcome("degree_one", {}, _IRREDUCIBLE)
_BY_NAME = itemgetter(0)  # an outcome's criterion


class SoundnessError(RuntimeError):
    """A criterion conclusion contradicted the factorization oracle."""


class _AnalyzeFields(NamedTuple):
    criteria: tuple[str, ...]
    root_mode: CertificateMode
    oracle: str


class AnalyzeConfig(_AnalyzeFields):
    """Which criteria `analyze` runs, the root mode the disk criteria certify
    in, and whether the oracle judges them (on | off | auto). A config is
    checked when it is built, and again by `_replace` and by unpickling:
    `criteria` becomes the tuple of its distinct names in the order given,
    and `root_mode` its `CertificateMode` member. A bare string, something
    that is no sequence of names, an unknown name or oracle mode, or a root
    mode that is no member or value raises ValueError."""

    __slots__ = ()

    def __new__(cls, criteria: Iterable[str] = tuple(CRITERIA),
                root_mode: CertificateMode | str = SYMBOLIC,
                oracle: str = "auto") -> "AnalyzeConfig":
        if isinstance(criteria, str):  # tuple() would read it letter by letter
            raise ValueError(f"criteria must be a sequence of names, not the string {criteria!r}")
        try:
            names = tuple(dict.fromkeys(criteria))  # a repeated name runs once
        except TypeError:  # no iterable, or an unhashable name
            raise ValueError(f"criteria must be a sequence of names, got {criteria!r}") from None
        unknown = [name for name in names if name not in CRITERIA]
        if unknown:
            known = ", ".join(CRITERIA)
            raise ValueError(f"unknown criteria: {', '.join(map(str, unknown))} (known: {known})")
        if oracle not in ("on", "off", "auto"):
            raise ValueError(f"oracle mode must be on/off/auto, got {oracle!r}")
        return super().__new__(cls, names, CertificateMode(root_mode), oracle)

    @classmethod
    def _make(cls, iterable: Iterable) -> "AnalyzeConfig":
        """As the base `_make`, which `_replace` calls, but through `__new__`."""
        return cls(*iterable)


class AnalysisReport(NamedTuple):
    input: Polynomial
    content: int
    z_power: int
    primitive_part: Polynomial
    outcomes: tuple[CriterionOutcome, ...]
    strongest: CriterionOutcome | None
    oracle_result: oracle.FactorizationResult | None
    warnings: tuple[str, ...] = ()

    @property
    def input_text(self) -> str:
        """The input in sparse form, written on each read."""
        return self.input.to_sparse_string()


def run_criteria(
    facts: PolyFacts, names: Iterable[str] = CRITERIA
) -> tuple[list[CriterionOutcome], list[tuple[str, Exception]]]:
    """Each named criterion's outcome on facts, in its certificate mode, in
    order, and (name, error) for each one stopped by a factorization limit
    or a root iteration that did not converge; a stopped criterion's outcome
    is NoConclusion."""
    outcomes: list[CriterionOutcome] = []
    stopped: list[tuple[str, Exception]] = []
    for name in names:
        try:
            outcomes.append(CRITERIA[name](facts))
        except (numtheory.FactorizationLimitError, rootloc.NonConvergenceError) as exc:
            outcomes.append(_NO_CONCLUSIONS[name])
            stopped.append((name, exc))
    return outcomes, stopped


def analyze(f: Polynomial, config: AnalyzeConfig = AnalyzeConfig()) -> AnalysisReport:
    """Run every enabled criterion on the primitive part of f, pick the
    strongest conclusion, and optionally judge every fired one by the oracle.
    The config was checked when it was built. The criteria run in its order,
    and so do the warnings of those stopped by a limit; the outcomes are
    reported sorted by name. A coefficient too long for str() is refused
    before any criterion runs; the report holds no text, and its
    `input_text` is written only when read."""
    if f.is_zero():
        raise ValueError("cannot analyze the zero polynomial")
    _check_digits(f.coeffs)
    norm = normalize(f)
    prim = norm.primitive_part
    warnings: list[str] = []
    if norm.z_power:
        warnings.append(
            f"input splits as content * z^{norm.z_power} * primitive part; "
            f"add {norm.z_power} to any factor-count bound for the original input"
        )

    outcomes: list[CriterionOutcome] = []
    if prim.degree == 0:
        warnings.append("primitive part is constant; criteria skipped")
    else:
        outcomes, stopped = run_criteria(PolyFacts(prim, config.root_mode), config.criteria)
        warnings.extend(f"{name}: no conclusion: {exc}" for name, exc in stopped)
        if prim.degree == 1:
            outcomes.append(_DEGREE_ONE)
        outcomes.sort(key=_BY_NAME)

    fired, strongest, numeric = [], None, False
    for o in outcomes:  # by name, so the first of equal conclusions is the rank's tie-break
        conclusion = o.conclusion
        if conclusion is _NONE or not conclusion.fired():  # the shared one, at no call
            continue
        fired.append(o)
        rank = conclusion.rank()
        if strongest is None or rank < best:
            strongest, best = o, rank
        numeric = numeric or o.certificate_mode == NUMERIC_CONDITIONAL
    if numeric:
        warnings.append("some conclusions rely on numeric root location and are not proofs")

    oracle_result = None
    if config.oracle == "on" or (
        config.oracle == "auto" and f.degree <= oracle.DEFAULT_MAX_DEGREE
    ):
        try:
            oracle_result = oracle.factor(f, max_degree=f.degree)
        except oracle.OracleLimitError as exc:
            if config.oracle == "on":
                raise
            warnings.append(f"oracle skipped: {exc}")
        if oracle_result is not None:
            degrees = oracle_result.factor_degrees()  # the primitive part's: z is left out
            for o in fired:
                if not o.conclusion.holds(degrees):
                    raise SoundnessError(
                        f"criterion {o.criterion} concluded {o.conclusion} "
                        f"but the oracle found {len(degrees)} factors for {f!r}"
                    )

    return AnalysisReport(f, norm.content, norm.z_power, prim, tuple(outcomes), strongest,
                          oracle_result, tuple(warnings))
