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

Conclusion kinds:
  Irreducible          -- the polynomial has exactly one irreducible factor.
  AtMostFactors(n)     -- at most n irreducible integer factors.
  FactorDegreeBound(k) -- reducible only with some factor of degree <= k.
  NoConclusion         -- hypothesis not satisfiable for this input.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, NamedTuple

from . import numtheory, oracle, rootloc
from .poly import Polynomial, _check_digits, normalize, rational_roots
from .rootloc import CertificateMode


class ConclusionKind(enum.Enum):
    IRREDUCIBLE = "Irreducible"
    AT_MOST_FACTORS = "AtMostFactors"
    FACTOR_DEGREE_BOUND = "FactorDegreeBound"
    NO_CONCLUSION = "NoConclusion"


class Conclusion(NamedTuple):
    """A criterion's verdict. The constructors hand out shared instances:
    one each for `irreducible()` and `none()`, and one per bound below
    _SHARED_BOUNDS for `at_most` and `factor_degree`. A named tuple is
    immutable, so sharing one is safe, and it compares, hashes and pickles
    by value as a fresh one does."""

    kind: ConclusionKind
    bound: int | None = None

    @staticmethod
    def irreducible() -> "Conclusion":
        return _IRREDUCIBLE

    @staticmethod
    def at_most(n: int) -> "Conclusion":
        """At most n factors; a bound of 1 is irreducibility."""
        if 0 <= n < _SHARED_BOUNDS:
            return _AT_MOST[n]
        return Conclusion(ConclusionKind.AT_MOST_FACTORS, n)

    @staticmethod
    def factor_degree(k: int) -> "Conclusion":
        if 0 <= k < _SHARED_BOUNDS:
            return _FACTOR_DEGREE[k]
        return Conclusion(ConclusionKind.FACTOR_DEGREE_BOUND, k)

    @staticmethod
    def none() -> "Conclusion":
        return _NONE

    def fired(self) -> bool:
        return self.kind is not ConclusionKind.NO_CONCLUSION

    def rank(self) -> tuple[int, int]:
        """Sort key: stronger conclusions first."""
        return (_KIND_ORDER[self.kind], self.bound or 0)


_KIND_ORDER = {kind: i for i, kind in enumerate(ConclusionKind)}  # strongest first

_SHARED_BOUNDS = 16  # bounds below this get a prebuilt Conclusion
_IRREDUCIBLE = Conclusion(ConclusionKind.IRREDUCIBLE)
_NONE = Conclusion(ConclusionKind.NO_CONCLUSION)
_AT_MOST = [
    _IRREDUCIBLE if n == 1 else Conclusion(ConclusionKind.AT_MOST_FACTORS, n)
    for n in range(_SHARED_BOUNDS)
]
_FACTOR_DEGREE = [Conclusion(ConclusionKind.FACTOR_DEGREE_BOUND, k) for k in range(_SHARED_BOUNDS)]


EXACT = "exact"
NUMERIC_CONDITIONAL = "numeric-conditional"
SYMBOLIC = CertificateMode.SYMBOLIC_SUFFICIENT  # read per polynomial; faster than the member


class CriterionOutcome(NamedTuple):
    criterion: str
    witnesses: dict
    conclusion: Conclusion
    certificate_mode: str = EXACT

    def rank(self) -> tuple[int, int, str]:
        return (*self.conclusion.rank(), self.criterion)


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


_DOMINANT_TRIAL = 32  # see `PolyFacts.dominant`
_DELTAS = tuple(Fraction(1, b) for b in range(1, _DOMINANT_TRIAL + 1))  # _DELTAS[b - 1] = 1/b


class PolyFacts:
    """Coefficient facts about one primitive polynomial of degree >= 1 with
    nonzero constant term, shared by every criterion and by the audit's
    cross-checks, in one root-location certificate mode (`mode`, symbolic
    unless asked): the mode the two disk criteria certify in.

    The input is validated once on construction, and the exact disk test at
    radius 1, |a_0| > sum_{i>=1} |a_i|, is made there too (one sum): it is
    the symbolic certificate at d = 1, where `certified_radius` starts.
    Everything else is worked out on first use and kept, so a fact no caller
    asks for is never computed: in particular a coefficient is factorized
    only when a witness search reaches it. Factorizations, and the
    factorization limit failures, are kept in `numtheory`'s one cache, not
    here. The numeric roots are found only when a numeric disk radius
    passes the exact tests of `rootloc.has_root_in_disk`. A root iteration
    that did not converge is remembered, and asking again raises the same
    error. The dominance index and divisor of `dominant()`, which both the
    dominant-coefficient criterion and the audit's unit-divisor check read,
    are found once, and so is the largest certified disk radius at each end,
    which both disk criteria and the audit's root-location check read.
    """

    __slots__ = ("poly", "coeffs", "degree", "mags", "mode", "unit_disk_certified", "_low",
                 "_dominant", "_rational_root", "_roots", "_bounds")

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
        self.degree = len(coeffs) - 1
        self.mags = mags = list(map(abs, coeffs))
        self.mode = mode
        self.unit_disk_certified = 2 * mags[0] > sum(mags)
        self._low: list[int] | None = None
        self._dominant = False if self.degree > 1 else None  # False: not yet found
        self._rational_root: bool | None = None
        self._roots: list[complex] | rootloc.NonConvergenceError | None = None
        self._bounds: list[int] | None = None  # [largest radius certified, smallest refused]

    @property
    def low(self) -> list[int]:
        """low[j] = sum_{i<j} |a_i| |a_m|^(j-i) for j = 0..m, by Horner's
        rule in j, capped at max |a_i|: it only grows with j, and every
        test that reads it fails once low[j] >= |a_j|. Once the running sum
        reaches the cap, every later entry is the cap, since (cap + a) |a_m|
        >= cap, so the rest of the list is filled without arithmetic."""
        if self._low is None:
            mags = self.mags
            am, cap = mags[-1], max(mags)
            low = [0]
            acc = 0
            for a in mags[:-1]:
                acc = (acc + a) * am
                if acc >= cap:
                    low += [cap] * (len(mags) - len(low))
                    break
                low.append(acc)
            self._low = low
        return self._low

    def has_rational_root(self) -> bool:
        """Whether f has a rational root, by `poly.rational_roots`.

        Only Weintraub at k0 = 1 and the generalized Eisenstein criterion at
        j = m-1 ask, and each has then already limited f to "irreducible, or
        linear times irreducible". Such an f is squarefree, except at degree
        2, where it may be the square of a linear polynomial (Weintraub at
        p = 3 on z^2 + 6z + 9). So the squarefree step of `rational_roots`,
        whose cost grows steeply with the degree, runs here only on such a
        square, or when the first primes it tries all divide disc(f)."""
        if self._rational_root is None:
            self._rational_root = bool(rational_roots(self.poly))
        return self._rational_root

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
        factorized when `unit_disk_certified` is false. Both modes start
        refused at d = 2^ceil(bitlen(|a_0|) / m), where d^m >= 2^bitlen(|a_0|)
        > |a_0|: the symbolic test needs |a_0| > |a_m| d^m, and the root
        moduli multiply to |a_0 / a_m| <= d^m. This bound keeps d^m and
        f(+-d) small at high degree. Numeric mode refuses a radius that
        `rootloc.has_root_in_disk` proves holds a root with no roots at all,
        and runs the root iteration only for a radius that passes it."""
        symbolic = self.mode is SYMBOLIC
        if symbolic and not self.unit_disk_certified:
            return 0
        radii = self.disk_radii(i)
        if self._bounds is None:
            refused = 1 << -(-self.mags[0].bit_length() // self.degree)
            self._bounds = [1 if symbolic else 0, refused]
        bounds = self._bounds
        for d in sorted((d for _, _, d in radii), reverse=True):
            if d >= bounds[1]:
                continue
            if d <= bounds[0] or self._certified(d):
                bounds[0] = max(bounds[0], d)
                return d
            bounds[1] = d
        return 0

    def _certified(self, d: int) -> bool:
        """Whether the certificate holds at radius d in `mode`. Numeric mode
        asks for the roots only when no exact test proves a root in the
        disk."""
        if self.mode is SYMBOLIC:
            return rootloc.certify_outside_disk(self.poly, d, self.mode).certified
        if rootloc.has_root_in_disk(self.poly, d):
            return False
        return rootloc.certify_outside_disk(self.poly, d, self.mode, roots=self.roots()).certified

    def dominant(self) -> tuple[int, int] | None:
        """(j, b) with j the largest index and b the smallest positive
        divisor of a_m for which the dominance inequality

            |a_j| - low[j] > sum_{i>j} |a_i| / b^(i-j)

        holds, or None (always below degree 2). The right side falls as b
        grows, so j is the first index, falling from m-1, at which it holds for
        b = |a_m|. The divisors of a_m are then scanned upward at that j only,
        those up to _DOMINANT_TRIAL by division: b is nearly always one of
        them, and a_m is factorized only if it is not (so an a_m that resists
        still gives a small b). For |a_m| <= _DOMINANT_TRIAL the scan is a
        plain range, with no divisor generator. The integer on the left exceeds
        the sum exactly when it exceeds its floor, built without a power of b
        as t = (|a_i| + t) // b from i = m down to j + 1 (each step keeps the
        floor exact); for b = |a_m| one running floor serves every j."""
        if self._dominant is False:
            hit = None
            mags, low, m = self.mags, self.low, self.degree
            am = mags[m]
            high = 0  # floor(sum_{i>j} |a_i| / |a_m|^(i-j)), kept as j falls
            for j in range(m - 1, -1, -1):
                high = (mags[j + 1] + high) // am
                excess = mags[j] - low[j]
                if excess > high:
                    if am <= _DOMINANT_TRIAL:
                        divisors = range(1, am + 1)  # filtered by the test below
                    else:
                        divisors = numtheory._divisors_upward(am, _DOMINANT_TRIAL)
                    for b in divisors:  # to |a_m| at most
                        if am % b:
                            continue
                        t = 0
                        for a in mags[m:j:-1]:
                            t = (a + t) // b
                        if excess > t:
                            hit = (j, b)
                            break
                    break
            self._dominant = hit
        return self._dominant


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
    best = None  # the witnesses of the smallest k0, the first on a tie
    for p, _ in numtheory.prime_factors(lower_gcd):
        p2 = p * p
        k0 = next((k for k in range(m) if c[k] % p2 != 0), None)
        if k0 is None:
            continue
        if k0 == 0 or (k0 == 1 and not facts.has_rational_root()):
            return CriterionOutcome(name, {"p": p, "k0": k0}, Conclusion.irreducible())
        if best is None or k0 < best["k0"]:
            best = {"p": p, "k0": k0}
    if best is None:
        return _NO_CONCLUSIONS[name]
    return CriterionOutcome(name, best, Conclusion.factor_degree(best["k0"]))


def eisenstein_generalized(facts: PolyFacts) -> CriterionOutcome:
    """Prime-power prefix criterion: p^k exactly divides a_0, p^k divides all
    coefficients below index j, p misses a_j, and gcd(k, j) = 1. j = m gives
    irreducibility; j = m-1 does too when no rational root exists; otherwise
    any nontrivial factorization has a factor of degree <= m - j."""
    name = "eisenstein_generalized"
    c, m = facts.coeffs, facts.degree
    best = None  # the witnesses of the largest j, the first on a tie
    for p, k in numtheory.prime_factors(facts.mags[0]):
        pk = p**k
        prefix = 0
        while prefix <= m and c[prefix] % pk == 0:
            prefix += 1
        for j in range(min(prefix, m), 0, -1):
            if c[j] % p == 0 or math.gcd(k, j) != 1:
                continue
            if j == m or (j == m - 1 and not facts.has_rational_root()):
                return CriterionOutcome(name, {"p": p, "k": k, "j": j}, Conclusion.irreducible())
            if best is None or j > best["j"]:
                best = {"p": p, "k": k, "j": j}
            break  # largest admissible j is the strongest for this prime
    if best is None:
        return _NO_CONCLUSIONS[name]
    return CriterionOutcome(name, best, Conclusion.factor_degree(m - best["j"]))


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
    bound, p, k, j, d = best  # never None: limit is one of the radii
    witnesses = {"p": p, "k": k, "j": j, "d": d}
    if q is not None:  # last, as the report's witness order has it
        witnesses["q"] = q
    cert_mode = EXACT if facts.mode is SYMBOLIC else NUMERIC_CONDITIONAL
    return CriterionOutcome(name, witnesses, Conclusion.at_most(bound), cert_mode)


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
    q = numtheory.prime_factors(a0)[0][0]
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
    over [1/b, 1]. Evaluated in integers, against the floor of the sum over
    i > j (see `PolyFacts.dominant`)."""
    name = "dominant_coefficient"
    hit = facts.dominant()
    if hit is None:
        return _NO_CONCLUSIONS[name]
    j, b = hit
    delta = _DELTAS[b - 1] if b <= _DOMINANT_TRIAL else Fraction(1, b)  # immutable, so shared
    witnesses = {"b": b, "delta": delta, "j": j}
    return CriterionOutcome(name, witnesses, Conclusion.at_most(facts.degree - j))


def perron_nonmonic(facts: PolyFacts) -> CriterionOutcome:
    """Non-monic Perron test: |a_{m-1}| > 1 + sum_{i<=m-2} |a_i| |a_m|^(m-1-i)
    forces irreducibility (all but one root of the rescaled monic polynomial
    fall inside the unit disk)."""
    name = "perron_nonmonic"
    m = facts.degree
    if m < 2:
        return _NO_CONCLUSIONS[name]
    if facts.mags[m - 1] > 1 + facts.low[m - 1]:
        return CriterionOutcome(name, {}, Conclusion.irreducible())
    return _NO_CONCLUSIONS[name]


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
    is compared by its floor, as in `PolyFacts.dominant`.
    """
    name = "middle_prime_power"
    c, mags, m = facts.coeffs, facts.mags, facts.degree
    low, am = facts.low, mags[m]
    high = 0  # floor(sum_{i>j} |a_i| / |a_m|^(i-j)), kept as j falls
    for j in range(m - 1, 0, -1):
        high = (mags[j + 1] + high) // am
        excess = mags[j] - low[j]  # <= 0 when c[j] == 0
        if excess <= high or c[j - 1] == 0:
            continue  # fails for every prime: their lower sums are >= low[j]
        for p, n_exp in numtheory.prime_factors(mags[j]):
            s_exp = numtheory.valuation(p, c[j - 1])
            lower = low[j] if s_exp == 0 else _lower_sum(mags, j, am * p**s_exp)
            if mags[j] - lower > high:
                return CriterionOutcome(
                    name, {"p": p, "j": j, "N": n_exp, "s": s_exp}, Conclusion.at_most(m - j)
                )
    return _NO_CONCLUSIONS[name]


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

_NO_CONCLUSIONS = {
    name: CriterionOutcome(name, MappingProxyType({}), Conclusion.none()) for name in CRITERIA
}


class SoundnessError(RuntimeError):
    """A criterion conclusion contradicted the factorization oracle."""


class AnalyzeConfig(NamedTuple):
    criteria: tuple[str, ...] = tuple(CRITERIA)
    root_mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
    oracle: str = "auto"  # on | off | auto


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


def conclusion_holds(
    conclusion: Conclusion, result: oracle.FactorizationResult, z_power: int = 0
) -> bool:
    """Does the oracle factorization of z^z_power times a primitive
    polynomial support the conclusion reached about that polynomial?"""
    count = result.nonconstant_factor_count() - z_power
    kind = conclusion.kind
    if kind is ConclusionKind.IRREDUCIBLE:
        return count == 1
    if kind is ConclusionKind.AT_MOST_FACTORS:
        return count <= conclusion.bound
    if kind is ConclusionKind.FACTOR_DEGREE_BOUND:
        if count <= 1:
            return True
        degs = [g.degree for g, _ in result.factors if g.degree >= 1 and g.constant_term != 0]
        return min(degs) <= conclusion.bound
    return True


def analyze(f: Polynomial, config: AnalyzeConfig = AnalyzeConfig()) -> AnalysisReport:
    """Run every enabled criterion on the primitive part of f, pick the
    strongest conclusion, and optionally cross-check against the oracle. A
    coefficient too long for str() is refused before any criterion runs; the
    report holds no text, and its `input_text` is written only when read."""
    if f.is_zero():
        raise ValueError("cannot analyze the zero polynomial")
    names = dict.fromkeys(config.criteria)  # a repeated name runs once
    unknown = [name for name in names if name not in CRITERIA]
    if unknown:
        known = ", ".join(CRITERIA)
        raise ValueError(f"unknown criteria: {', '.join(unknown)} (known: {known})")
    if config.oracle not in ("on", "off", "auto"):
        raise ValueError(f"oracle mode must be on/off/auto, got {config.oracle!r}")

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
        outcomes, stopped = run_criteria(PolyFacts(prim, config.root_mode), names)
        warnings.extend(f"{name}: no conclusion: {exc}" for name, exc in stopped)
        if prim.degree == 1:
            outcomes.append(CriterionOutcome("degree_one", {}, Conclusion.irreducible()))
    outcomes.sort(key=lambda o: o.criterion)

    fired = [o for o in outcomes if o.conclusion.fired()]
    strongest = min(fired, key=CriterionOutcome.rank) if fired else None
    if any(o.certificate_mode == NUMERIC_CONDITIONAL for o in fired):
        warnings.append(
            "some conclusions rely on numeric root location and are not proofs"
        )

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
        if oracle_result is not None and strongest is not None:
            if not conclusion_holds(strongest.conclusion, oracle_result, norm.z_power):
                raise SoundnessError(
                    f"criterion {strongest.criterion} concluded "
                    f"{strongest.conclusion.kind.value}"
                    f"({strongest.conclusion.bound}) but the oracle found "
                    f"{oracle_result.nonconstant_factor_count()} factors "
                    f"for {f!r}"
                )

    return AnalysisReport(
        input=f,
        content=norm.content,
        z_power=norm.z_power,
        primitive_part=prim,
        outcomes=tuple(outcomes),
        strongest=strongest,
        oracle_result=oracle_result,
        warnings=tuple(warnings),
    )
