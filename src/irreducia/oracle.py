"""Exact brute-force factorization of integer polynomials at desk scale.

This is the ground truth the criteria are audited against, so it avoids all
probabilistic machinery and shares no root finder with them: content and
z-power extraction, then on each primitive part h left a prime-value test
and, if that proves nothing, Kronecker's method from factor degree 1 up.
The prime-value test (after Ram Murty, Amer. Math. Monthly 109, 2002) takes
the least integer R >= 1 with |a_m| R^m > sum_{i<m} |a_i| R^i, so every
root has modulus < R. If |h(x)| = p * d with p prime and 1 <= d <= n - R at
some x = +-n, R < n <= R + 10, then h is irreducible: a factor g of positive
degree has |g(x)| >= prod |x - alpha| > (n - R)^deg g >= n - R, while if
h = g k and p divides g(x), |k(x)| divides d. `numtheory.is_prime` says yes
only with a proof; without one, h goes to Kronecker's method, which `verify`
runs alone as an independent check.
Kronecker's method interpolates candidate factors through divisor tuples of
the polynomial's values at small integer points and tests exact
divisibility. For degree e the polynomial is evaluated at the first e + 7
points of 0, 1, -1, 2, ...; a value of 0 at x gives the factor z - x, and
otherwise the e + 1 points whose values have the fewest divisors become the
interpolation nodes. A candidate reaches the exact division only if its
leading coefficient divides the polynomial's and its value at each of the
six spare points is nonzero and divides the polynomial's value there; both
tests are exact, as every sampled value is nonzero by then. Adequate for
degree <= 8 with coefficients up to 10^8.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import numtheory
from .numtheory import FactorizationLimitError
from .poly import Z, Polynomial, divides_exactly, is_primitive, normalize
from .poly import rational_roots  # noqa: F401  unused; perfbench's tracer patches it

DEFAULT_MAX_DEGREE = 8
DEFAULT_COEFF_BOUND = 10**8
DEFAULT_STEP_BUDGET = 10**7


class OracleLimitError(RuntimeError):
    """Input outside the oracle's degree/coefficient/step limits."""


class FactorizationResult(NamedTuple):
    """content * prod(factor**multiplicity) == input, with primitive
    positive-leading irreducible factors sorted by (degree, coefficients).
    The input's sign lives in the content."""

    content: int
    factors: tuple[tuple[Polynomial, int], ...]

    def recompose(self) -> Polynomial:
        out = Polynomial([self.content])
        for g, mult in self.factors:
            out = out * g**mult
        return out

    def nonconstant_factor_count(self) -> int:
        return sum(mult for g, mult in self.factors if g.degree >= 1)

    def factor_degrees(self) -> tuple[int, ...]:
        """The degree of each irreducible factor other than z, the one with
        constant term 0, repeated by its multiplicity: what
        `Conclusion.holds` reads about the input's primitive part."""
        return tuple(g.degree for g, mult in self.factors
                     if g.degree >= 1 and g.constant_term != 0 for _ in range(mult))


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        self.remaining = steps

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise OracleLimitError("oracle limit: step budget exhausted")


def _sample_points(count: int) -> list[int]:
    return [(k + 1) // 2 * (-1) ** (k + 1) for k in range(count)]  # 0, 1, -1, 2, -2, ...


def _expand_newton(nodes: list[int], coeffs: list[int]) -> Polynomial:
    """Polynomial from Newton form sum c_k * prod_{t<k} (z - x_t)."""
    out = [coeffs[-1]]
    for k in range(len(coeffs) - 2, -1, -1):
        # out <- out * (z - x_k) + c_k, lowest degree first
        x = nodes[k]
        out.insert(0, 0)
        for i in range(len(out) - 1):
            out[i] -= x * out[i + 1]
        out[0] += coeffs[k]
    return Polynomial(out)


# Sample points beyond the e + 1 nodes a degree-e search needs: the nodes
# are the points whose values have the fewest divisors, and the rest filter
# candidates before the exact division.
_SPARE_POINTS = 6


def _kronecker_search(h: Polynomial, budget: _Budget) -> tuple[Polynomial, Polynomial] | None:
    """(g, h / g) for a smallest-degree proper factor g of h, or None.

    Requires h primitive with positive leading coefficient. For each degree
    e from 1, h is evaluated at the first e + 1 + _SPARE_POINTS sample
    points; the first vanishing value h(x) returns z - x, and otherwise the
    e + 1 points whose values have the fewest divisors become the nodes.
    Nothing but the budget is kept across degrees: the factorizations of
    the values come again from numtheory's cache. Candidate factors of
    degree e are interpolated through divisor tuples of h's values at the
    nodes; branches die as soon as a Newton divided difference turns
    non-integral (divided differences of an integer polynomial at integer
    nodes are integers). A complete candidate g reaches the exact division
    only if lc(g) divides lc(h) and, at every spare point x, g(x) is
    nonzero and divides h(x); a true factor passes both tests, since h(x)
    is nonzero.
    """
    m = h.degree
    lead = h.leading_coefficient
    for e in range(1, m // 2 + 1):
        points = _sample_points(e + 1 + _SPARE_POINTS)
        values = [h.evaluate(x) for x in points]
        if 0 in values:
            g = Polynomial([-points[values.index(0)], 1])
            return g, divides_exactly(g, h)
        try:
            # fewest divisors first; ties keep the sample order
            counts = [math.prod(k + 1 for _, k in numtheory.prime_factors(abs(v))) for v in values]
            order = sorted(range(len(points)), key=counts.__getitem__)
            divisors = [numtheory.positive_divisors(values[i]) for i in order[: e + 1]]
        except FactorizationLimitError as exc:
            raise OracleLimitError(f"oracle limit: {exc}") from exc
        nodes = [points[i] for i in order[: e + 1]]
        spares = [(points[i], values[i]) for i in order[e + 1:]]
        # +-g both divide, so fix the sign at the first node.
        choices = divisors[:1] + [[d for pos in ds for d in (pos, -pos)] for ds in divisors[1:]]

        # DFS over divisor tuples with incremental trailing divided
        # differences; trail[k] = [x_{t-k}..x_t]g, so trail[-1] is the
        # Newton coefficient c_t.
        stack: list[tuple[int, list[int], list[int]]] = [(0, [], [])]
        while stack:
            depth, trail, newton = stack.pop()
            for d in choices[depth]:
                budget.spend()
                new_trail = [d]
                ok = True
                for k in range(1, depth + 1):
                    num = new_trail[k - 1] - trail[k - 1]
                    den = nodes[depth] - nodes[depth - k]
                    step, rem = divmod(num, den)
                    if rem:
                        ok = False
                        break
                    new_trail.append(step)
                if not ok:
                    continue
                if depth < e:
                    stack.append((depth + 1, new_trail, newton + [new_trail[-1]]))
                    continue
                top = new_trail[-1]  # lc(g)
                if top == 0:
                    continue  # degree < e: covered by an earlier e
                if lead % top:
                    continue
                coeffs = newton + [top]
                for x, v in spares:
                    gx = top  # g(x) from the Newton form by Horner's rule
                    for k in range(e - 1, -1, -1):
                        gx = gx * (x - nodes[k]) + coeffs[k]
                    if gx == 0 or v % gx:
                        break
                else:
                    g = _expand_newton(nodes, coeffs)
                    quotient = divides_exactly(g, h)
                    if quotient is not None:
                        return (g, quotient) if top > 0 else (-g, -quotient)
    return None


def _root_radius(h: Polynomial) -> int:
    """Least R >= 1 with |a_m| R^m > sum_{i<m} |a_i| R^i, by doubling and bisection."""
    gap = Polynomial([-abs(c) for c in h.coeffs[:-1]] + [abs(h.leading_coefficient)])
    hi = 1
    while gap.evaluate(hi) <= 0:
        hi *= 2
    lo = hi // 2  # fails the test, or is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if gap.evaluate(mid) > 0 else (mid, hi)
    return hi


def _prime_value_certifies(h: Polynomial) -> bool:
    """Whether a value of h proves it irreducible (the module docstring
    says how); False means no proof, not that h is reducible."""
    r = _root_radius(h)
    # 10 values of n settle all but one of the 2,993 irreducible oracle
    # inputs of a 60,000-polynomial sample of the deg<=5, |c|<=5 corpus
    for n in range(r + 1, r + 11):
        for x in (n, -n):
            v = abs(h.evaluate(x))
            for d in range(1, n - r + 1):
                if v % d == 0 and numtheory.is_prime(v // d):
                    return True
    return False


def factor(f: Polynomial, *, max_degree: int = DEFAULT_MAX_DEGREE) -> FactorizationResult:
    """Complete irreducible factorization over the integers, within
    DEFAULT_COEFF_BOUND and DEFAULT_STEP_BUDGET."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > max_degree:
        raise OracleLimitError(f"oracle limit: degree {f.degree} exceeds {max_degree}")
    if max(abs(c) for c in f.coeffs) > DEFAULT_COEFF_BOUND:
        raise OracleLimitError("oracle limit: coefficient magnitude")

    norm = normalize(f)
    sign = 1 if f.leading_coefficient > 0 else -1
    cont = sign * norm.content
    prim = norm.primitive_part if sign > 0 else -norm.primitive_part

    budget = _Budget(DEFAULT_STEP_BUDGET)
    counts = {Z: norm.z_power} if norm.z_power else {}
    while prim.degree >= 1:
        # a factor of least degree is irreducible, and so is prim if it has none
        found = None if _prime_value_certifies(prim) else _kronecker_search(prim, budget)
        g, prim = found or (prim, Polynomial([1]))
        counts[g] = counts.get(g, 0) + 1

    ordered = tuple(sorted(counts.items(), key=lambda gm: (gm[0].degree, gm[0].coeffs)))
    return FactorizationResult(content=cont, factors=ordered)


def verify(result: FactorizationResult, f: Polynomial) -> bool:
    """Exact recomposition check plus a fresh no-proper-divisor search on
    every listed factor. Returns False on any violation, never raises."""
    try:
        if result.recompose() != f:
            return False
        budget = _Budget(DEFAULT_STEP_BUDGET)
        for g, mult in result.factors:
            if mult < 1 or g.degree < 1:
                return False
            if g.leading_coefficient <= 0 or not is_primitive(g):
                return False
            if _kronecker_search(g, budget) is not None:
                return False
        return True
    except (OracleLimitError, ValueError):
        return False
