"""Irreducibility and factor-count criteria with automatic witness search.

Every criterion has the signature (f, mode): f is a primitive polynomial
or the PolyFacts record built from one, and mode is the root-location
certificate mode, which only the two disk criteria read. Each searches the
finite witness space its hypothesis allows (primes dividing a single
coefficient, divisors of the leading coefficient, coefficient indices), and
returns a structured outcome carrying the witnesses found. Every inequality
is evaluated in exact integer arithmetic; the two disk-based criteria
additionally consume a root location certificate and propagate whether it
was exact or numeric.

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
from .oracle import DEFAULT_MAX_DEGREE
from .poly import Polynomial, is_primitive, normalize, rational_roots
from .rootloc import CertificateMode


class ConclusionKind(enum.Enum):
    IRREDUCIBLE = "Irreducible"
    AT_MOST_FACTORS = "AtMostFactors"
    FACTOR_DEGREE_BOUND = "FactorDegreeBound"
    NO_CONCLUSION = "NoConclusion"


class Conclusion(NamedTuple):
    kind: ConclusionKind
    bound: int | None = None

    @staticmethod
    def irreducible() -> "Conclusion":
        return Conclusion(ConclusionKind.IRREDUCIBLE)

    @staticmethod
    def at_most(n: int) -> "Conclusion":
        # a factor-count bound of 1 is irreducibility
        if n == 1:
            return Conclusion.irreducible()
        return Conclusion(ConclusionKind.AT_MOST_FACTORS, n)

    @staticmethod
    def factor_degree(k: int) -> "Conclusion":
        return Conclusion(ConclusionKind.FACTOR_DEGREE_BOUND, k)

    @staticmethod
    def none() -> "Conclusion":
        return Conclusion(ConclusionKind.NO_CONCLUSION)

    def fired(self) -> bool:
        return self.kind is not ConclusionKind.NO_CONCLUSION

    def rank(self) -> tuple[int, int]:
        """Sort key: stronger conclusions first."""
        return (_KIND_ORDER[self.kind], self.bound or 0)


_KIND_ORDER = {kind: i for i, kind in enumerate(ConclusionKind)}  # strongest first


EXACT = "exact"
NUMERIC_CONDITIONAL = "numeric-conditional"
SYMBOLIC = CertificateMode.SYMBOLIC_SUFFICIENT  # read per polynomial; faster than the member


class CriterionOutcome(NamedTuple):
    criterion: str
    applicable: bool
    witnesses: dict
    conclusion: Conclusion
    certificate_mode: str = EXACT

    def rank(self) -> tuple[int, int, str]:
        return (*self.conclusion.rank(), self.criterion)


def _strongest(name: str, candidates: list[CriterionOutcome]) -> CriterionOutcome:
    """The first of the strongest candidates, or the criterion's shared
    NoConclusion when there are none."""
    if not candidates:
        return _NO_CONCLUSIONS[name]
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=CriterionOutcome.rank)


def _lower_sum(mags: list[int], j: int, t: int) -> int:
    """sum_{i<j} |a_i| t^(j-i) by Horner's rule."""
    acc = 0
    for a in mags[:j]:
        acc = (acc + a) * t
    return acc


class PolyFacts:
    """Coefficient facts about one primitive polynomial of degree >= 1 with
    nonzero constant term, shared by every criterion and by the audit's
    cross-checks.

    The input is validated once on construction, and the exact disk test at
    radius 1, |a_0| > sum_{i>=1} |a_i|, is made there too (one sum): it is
    the symbolic certificate at d = 1, where `certified_radius` starts.
    Everything else is worked out on first use and kept, so a fact no caller
    asks for is never computed: in particular a coefficient is factorized
    only when a witness search reaches it. Factorizations, and the
    factorization limit failures, are kept in `numtheory`'s one cache, not
    here. A root iteration that did not converge is remembered, and asking
    again raises the same error. The dominance index and divisor of
    `dominant()`, which both the dominant-coefficient criterion and the
    audit's unit-divisor check read, are found once, and so are the disk
    radii at each end and the largest certified among them, which both disk
    criteria and the audit's root-location check read.
    """

    __slots__ = ("poly", "coeffs", "degree", "mags", "unit_disk_certified", "_low",
                 "_dominant", "_rational_root", "_roots", "_radii", "_bounds")

    def __init__(self, f: Polynomial):
        if f.is_zero():
            raise ValueError("zero polynomial: no criterion applies")
        if not is_primitive(f):
            raise ValueError("normalize first: input is not primitive")
        if f.degree < 1:
            raise ValueError("criterion needs degree >= 1")
        if f.coeffs[0] == 0:
            raise ValueError("normalize first: constant term is zero")
        self.poly = f
        self.coeffs = f.coeffs
        self.degree = f.degree
        self.mags = mags = [abs(c) for c in f.coeffs]
        self.unit_disk_certified = 2 * mags[0] > sum(mags)
        self._low: list[int] | None = None
        self._dominant: tuple[int, int] | None | bool = False  # False: not yet found
        self._rational_root: bool | None = None
        self._roots: list[complex] | rootloc.NonConvergenceError | None = None
        self._radii: dict = {}
        self._bounds: dict = {}  # per mode: [largest radius certified, smallest refused]

    @classmethod
    def of(cls, f: "Polynomial | PolyFacts") -> "PolyFacts":
        return f if isinstance(f, PolyFacts) else cls(f)

    @property
    def low(self) -> list[int]:
        """low[j] = sum_{i<j} |a_i| |a_m|^(j-i) for j = 0..m, by Horner's
        rule in j."""
        if self._low is None:
            am = self.mags[-1]
            low = [0]
            for a in self.mags[:-1]:
                low.append((low[-1] + a) * am)
            self._low = low
        return self._low

    def has_rational_root(self) -> bool:
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
        when |a_i| = 1."""
        radii = self._radii.get(i)
        if radii is None:
            a = self.mags[i]
            radii = [(p, k, a // p**k) for p, k in numtheory.prime_factors(a)]
            self._radii[i] = radii
        return radii

    def certified_radius(self, i: int, mode: CertificateMode) -> int:
        """The largest disk radius d at a_i, i in {0, m}, at which every root
        is certified outside |z| <= d in this mode, or 0 if there is none.
        Both tests are monotone in d (see `rootloc`), so the radii are tried
        from the largest down, and one at or below the largest certified so
        far, or at or above the smallest refused so far (at either end), is
        settled without a certificate. Every radius is an integer >= 1, so
        the symbolic search starts certified at 1, and stops before a_i is
        factorized when `unit_disk_certified` is false."""
        symbolic = mode is SYMBOLIC
        if symbolic and not self.unit_disk_certified:
            return 0
        radii = self.disk_radii(i)
        roots = self.roots() if radii and not symbolic else None
        bounds = self._bounds.setdefault(mode, [1 if symbolic else 0, math.inf])
        for d in sorted((d for _, _, d in radii), reverse=True):
            if d >= bounds[1]:
                continue
            if d <= bounds[0] or rootloc.certify_outside_disk(
                self.poly, d, mode, roots=roots
            ).certified:
                bounds[0] = max(bounds[0], d)
                return d
            bounds[1] = d
        return 0

    def dominant(self) -> tuple[int, int] | None:
        """(j, b) with j the largest index and b the smallest positive
        divisor of a_m for which the dominance inequality

            |a_j| b^(m-j) > low[j] b^(m-j) + sum_{i>j} |a_i| b^(m-i)

        holds, or None. Divided by b^(m-j), the right side falls as b
        grows, so j is the first index, falling from m-1, at which it holds
        for b = |a_m|; one running sum finds it. The divisors of a_m are
        then scanned at that j only, and only then is a_m factorized."""
        if self._dominant is False:
            hit = None
            mags, low, m = self.mags, self.low, self.degree
            am = mags[m]
            high, scale = 0, 1  # sum_{i>j} |a_i| |a_m|^(m-i) and |a_m|^(m-j), kept as j falls
            for j in range(m - 1, -1, -1):
                high += mags[j + 1] * scale
                scale *= am
                excess = mags[j] - low[j]
                if excess > 0 and excess * scale > high:
                    for b in numtheory.positive_divisors(am):  # ends by b = |a_m| at the latest
                        rhs = 0
                        for a in mags[j + 1:]:
                            rhs = rhs * b + a
                        if excess * b ** (m - j) > rhs:
                            hit = (j, b)
                            break
                    break
            self._dominant = hit
        return self._dominant


# ---------------------------------------------------------------------------
# coefficient-divisibility criteria


def weintraub_check(
    f: Polynomial | PolyFacts, mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
) -> CriterionOutcome:
    """Eisenstein-style dichotomy from a prime dividing every non-leading
    coefficient: with k0 the lowest index whose coefficient misses p^2, any
    factorization has a factor of degree <= k0. k0 = 0 is irreducibility;
    k0 = 1 upgrades to irreducibility when there is no rational root."""
    name = "weintraub"
    facts = PolyFacts.of(f)
    c, m = facts.coeffs, facts.degree
    lower_gcd = math.gcd(*c[:m])
    if lower_gcd <= 1:
        return _NO_CONCLUSIONS[name]
    candidates = []
    for p, _ in numtheory.prime_factors(lower_gcd):
        if c[m] % p == 0:
            continue
        p2 = p * p
        k0 = next((k for k in range(m) if c[k] % p2 != 0), None)
        if k0 is None:
            continue
        if k0 == 0 or (k0 == 1 and not facts.has_rational_root()):
            conclusion = Conclusion.irreducible()
        else:
            conclusion = Conclusion.factor_degree(k0)
        candidates.append(CriterionOutcome(name, True, {"p": p, "k0": k0}, conclusion))
    return _strongest(name, candidates)


def eisenstein_generalized(
    f: Polynomial | PolyFacts, mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
) -> CriterionOutcome:
    """Prime-power prefix criterion: p^k exactly divides a_0, p^k divides all
    coefficients below index j, p misses a_j, and gcd(k, j) = 1. j = m gives
    irreducibility; j = m-1 does too when no rational root exists; otherwise
    any nontrivial factorization has a factor of degree <= m - j."""
    name = "eisenstein_generalized"
    facts = PolyFacts.of(f)
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
            candidates.append(CriterionOutcome(name, True, {"p": p, "k": k, "j": j}, conclusion))
            break  # largest admissible j is the strongest for this prime
    return _strongest(name, candidates)


# ---------------------------------------------------------------------------
# disk-certificate criteria


def _disk_criterion(
    name: str, facts: PolyFacts, i: int, mode: CertificateMode, q: int | None = None
) -> CriterionOutcome:
    """The search both disk criteria share, at the end a_i with i in {0, m}:
    each a_i = +-p^k d with every root certified outside |z| <= d gives at
    most min(k, j) irreducible factors, where j counts the steps from i
    toward the other end up to the first coefficient that p misses. The
    certified radii are those up to `PolyFacts.certified_radius`."""
    limit = facts.certified_radius(i, mode)
    if not limit:
        return _NO_CONCLUSIONS[name]
    c, m = facts.coeffs, facts.degree
    step = 1 if i == 0 else -1
    cert_mode = EXACT if mode is SYMBOLIC else NUMERIC_CONDITIONAL
    candidates = []
    for p, k, d in facts.disk_radii(i):
        if d > limit:
            continue
        j = next(j for j in range(1, m + 1) if c[i + step * j] % p != 0)
        witnesses = {"p": p, "k": k, "j": j, "d": d}
        if q is not None:  # last, as the report's witness order has it
            witnesses["q"] = q
        candidates.append(CriterionOutcome(
            name,
            True,
            witnesses,
            Conclusion.at_most(min(k, j)),
            certificate_mode=cert_mode,
        ))
    return _strongest(name, candidates)


def constant_term_criterion(
    f: Polynomial | PolyFacts, mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
) -> CriterionOutcome:
    """Constant-term decomposition a_0 = +-p^k d with p missing d, all roots
    certified outside |z| <= d, and j the lowest index with p missing a_j:
    at most min(k, j) irreducible factors."""
    return _disk_criterion("constant_term", PolyFacts.of(f), 0, mode)


def leading_coeff_criterion(
    f: Polynomial | PolyFacts, mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
) -> CriterionOutcome:
    """Mirror of the constant-term criterion on a_m = +-p^k d, with the extra
    size condition |a_0 / q| <= |a_m| for q the smallest prime divisor of
    a_0; j is the lowest index with p missing a_{m-j}."""
    name = "leading_coeff"
    facts = PolyFacts.of(f)
    a0, am = facts.mags[0], facts.mags[-1]
    if am == 1 or a0 == 1:
        return _NO_CONCLUSIONS[name]
    if mode is SYMBOLIC and not facts.unit_disk_certified:
        return _NO_CONCLUSIONS[name]  # before a_0 is factorized for q
    q = numtheory.prime_factors(a0)[0][0]
    if a0 > q * am:  # |a0/q| <= |am| as an exact comparison
        return _NO_CONCLUSIONS[name]
    return _disk_criterion(name, facts, facts.degree, mode, q)


# ---------------------------------------------------------------------------
# dominant-coefficient criteria


def dominant_coefficient(
    f: Polynomial | PolyFacts, mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
) -> CriterionOutcome:
    """One coefficient dominating the rest forces a root split and hence a
    factor-count bound: if for a positive divisor b of a_m and delta = 1/b

        |a_j| > sum_{i<j} |a_i| |a_m|^(j-i) + sum_{i>j} |a_i| delta^(i-j)

    then at most m - j irreducible factors; j = m-1 gives irreducibility.
    The right side grows with delta, so testing delta = 1/b is exhaustive
    over [1/b, 1]. Evaluated with both sides scaled by b^(m-j)."""
    name = "dominant_coefficient"
    facts = PolyFacts.of(f)
    m = facts.degree
    if m < 2:
        return _NO_CONCLUSIONS[name]
    hit = facts.dominant()
    if hit is None:
        return _NO_CONCLUSIONS[name]
    j, b = hit
    return CriterionOutcome(
        name, True, {"b": b, "delta": Fraction(1, b), "j": j}, Conclusion.at_most(m - j)
    )


def perron_nonmonic(
    f: Polynomial | PolyFacts, mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
) -> CriterionOutcome:
    """Non-monic Perron test: |a_{m-1}| > 1 + sum_{i<=m-2} |a_i| |a_m|^(m-1-i)
    forces irreducibility (all but one root of the rescaled monic polynomial
    fall inside the unit disk)."""
    name = "perron_nonmonic"
    facts = PolyFacts.of(f)
    m = facts.degree
    if m < 2:
        return _NO_CONCLUSIONS[name]
    if facts.mags[m - 1] > 1 + facts.low[m - 1]:
        return CriterionOutcome(name, True, {}, Conclusion.irreducible())
    return _NO_CONCLUSIONS[name]


def middle_prime_power_check(
    f: Polynomial | PolyFacts, mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
) -> CriterionOutcome:
    """A large prime power p^N inside the coefficient of z^j (1 <= j <= m-1)
    dominating a weighted sum of the others bounds the factor count by m - j.

    Writing coeff(z^j) = p^N a_j and coeff(z^(j-1)) = p^s a_(j-1) with p
    missing both reduced parts, the test (scaled by |a_m|^(m-j)) is

        p^N |a_j| > |a_m a_(j-1)| p^(2s)
                    + sum_{i=2..j} |a_m^i a_(j-i)| p^(is)
                    + sum_{i=j+1..m} |a_i| / |a_m|^(i-j).

    The first two terms together are sum_{i<j} |coeff(z^i)| t^(j-i) with
    t = |a_m| p^s, which is low[j] when s = 0 and never less.
    """
    name = "middle_prime_power"
    facts = PolyFacts.of(f)
    c, mags, m = facts.coeffs, facts.mags, facts.degree
    if m < 2:
        return _NO_CONCLUSIONS[name]
    low, am = facts.low, mags[m]
    high, scale = 0, 1  # sum_{i>j} |a_i| |a_m|^(m-i) and |a_m|^(m-j), kept as j falls
    for j in range(m - 1, 0, -1):
        high += mags[j + 1] * scale
        scale *= am
        # excess <= 0 (as when c[j] == 0) fails without the big product,
        # since high >= |a_m| > 0
        excess = mags[j] - low[j]
        if excess <= 0 or c[j - 1] == 0 or excess * scale <= high:
            continue  # fails for every prime: their lower sums are >= low[j]
        for p, n_exp in numtheory.prime_factors(mags[j]):
            s_exp = numtheory.valuation(p, c[j - 1])
            lower = low[j] if s_exp == 0 else _lower_sum(mags, j, am * p**s_exp)
            if (mags[j] - lower) * scale > high:
                return CriterionOutcome(
                    name,
                    True,
                    {"p": p, "j": j, "N": n_exp, "s": s_exp},
                    Conclusion.at_most(m - j),
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
    name: CriterionOutcome(
        name, applicable=False, witnesses=MappingProxyType({}), conclusion=Conclusion.none()
    )
    for name in CRITERIA
}


class SoundnessError(RuntimeError):
    """A criterion conclusion contradicted the factorization oracle."""


class AnalyzeConfig(NamedTuple):
    criteria: tuple[str, ...] = tuple(CRITERIA)
    root_mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT
    oracle: str = "auto"  # on | off | auto
    max_oracle_degree: int = DEFAULT_MAX_DEGREE  # the field `oracle` hides the module here


class AnalysisReport(NamedTuple):
    input: Polynomial
    input_text: str
    content: int
    z_power: int
    primitive_part: Polynomial
    outcomes: tuple[CriterionOutcome, ...]
    strongest: CriterionOutcome | None
    oracle_result: oracle.FactorizationResult | None
    warnings: tuple[str, ...] = ()


def run_criteria(
    facts: PolyFacts, names: Iterable[str] = CRITERIA, mode: CertificateMode = SYMBOLIC
) -> tuple[list[CriterionOutcome], list[tuple[str, Exception]]]:
    """Each named criterion's outcome, in order, and (name, error) for each
    one stopped by a factorization limit or a root iteration that did not
    converge; a stopped criterion's outcome is NoConclusion."""
    outcomes: list[CriterionOutcome] = []
    stopped: list[tuple[str, Exception]] = []
    for name in names:
        try:
            outcomes.append(CRITERIA[name](facts, mode))
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
        return bool(degs) and min(degs) <= conclusion.bound
    return True


def analyze(f: Polynomial, config: AnalyzeConfig = AnalyzeConfig()) -> AnalysisReport:
    """Run every enabled criterion on the primitive part of f, pick the
    strongest conclusion, and optionally cross-check against the oracle."""
    if f.is_zero():
        raise ValueError("cannot analyze the zero polynomial")
    unknown = [name for name in config.criteria if name not in CRITERIA]
    if unknown:
        known = ", ".join(CRITERIA)
        raise ValueError(f"unknown criteria: {', '.join(unknown)} (known: {known})")
    if config.oracle not in ("on", "off", "auto"):
        raise ValueError(f"oracle mode must be on/off/auto, got {config.oracle!r}")

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
        outcomes, stopped = run_criteria(PolyFacts(prim), config.criteria, config.root_mode)
        warnings.extend(f"{name}: no conclusion: {exc}" for name, exc in stopped)
        if prim.degree == 1:
            outcomes.append(
                CriterionOutcome("degree_one", True, {}, Conclusion.irreducible())
            )
    outcomes.sort(key=lambda o: o.criterion)

    fired = [o for o in outcomes if o.conclusion.fired()]
    strongest = min(fired, key=lambda o: o.rank()) if fired else None
    if any(o.certificate_mode == NUMERIC_CONDITIONAL for o in fired):
        warnings.append(
            "some conclusions rely on numeric root location and are not proofs"
        )

    oracle_result = None
    if config.oracle == "on" or (
        config.oracle == "auto" and f.degree <= config.max_oracle_degree
    ):
        max_degree = f.degree if config.oracle == "on" else config.max_oracle_degree
        try:
            oracle_result = oracle.factor(f, max_degree=max_degree)
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
        input_text=f.to_sparse_string(),
        content=norm.content,
        z_power=norm.z_power,
        primitive_part=prim,
        outcomes=tuple(outcomes),
        strongest=strongest,
        oracle_result=oracle_result,
        warnings=tuple(warnings),
    )
