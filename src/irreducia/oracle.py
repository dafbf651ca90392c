"""Exact brute-force factorization of integer polynomials at desk scale.

This is the ground truth the criteria are audited against, so it avoids all
probabilistic machinery and shares no root finder with them: content and
z-power extraction, then Kronecker's method from factor degree 1 up
(interpolate candidate factors through divisor tuples of the polynomial's
values at small integer points and test exact divisibility). For degree e
the polynomial is evaluated at the first e + 7 points of 0, 1, -1, 2, ...;
a value of 0 at x gives the factor z - x, and otherwise the e + 1 points
whose values have the fewest divisors become the interpolation nodes. A
candidate reaches the exact division only if its leading coefficient
divides the polynomial's and its value at each of the six spare points is
nonzero and divides the polynomial's value there; both tests are exact, as
every sampled value is nonzero by then. Adequate for degree <= 8 with
coefficients up to 10^8.
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


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        self.remaining = steps

    def spend(self, n: int = 1) -> None:
        self.remaining -= n
        if self.remaining < 0:
            raise OracleLimitError("oracle limit: step budget exhausted")


def _sample_points(count: int) -> list[int]:
    # 0, 1, -1, 2, -2, ...
    pts = [0]
    k = 1
    while len(pts) < count:
        pts.append(k)
        if len(pts) < count:
            pts.append(-k)
        k += 1
    return pts[:count]


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


def _kronecker_search(h: Polynomial, budget: _Budget) -> Polynomial | None:
    """Smallest-degree proper factor of h, or None.

    Requires h primitive with positive leading coefficient. For each degree
    e from 1, h is evaluated at the first e + 1 + _SPARE_POINTS sample
    points; a vanishing value h(x) returns z - x, and otherwise the e + 1
    points whose values have the fewest divisors become the nodes.
    Candidate factors of degree e are interpolated through divisor tuples of
    h's values at the nodes; branches die as soon as a Newton divided
    difference turns non-integral (divided differences of an integer
    polynomial at integer nodes are integers). A complete candidate g
    reaches the exact division only if lc(g) divides lc(h) and, at every
    spare point x, g(x) is nonzero and divides h(x); a true factor passes
    both tests, since h(x) is nonzero.
    """
    m = h.degree
    lead = h.leading_coefficient
    # the pool of sample points, kept across e: values (nonzero, as a zero
    # returns at once), their divisor counts and, once a point is a node,
    # its signed divisors
    points: list[int] = []
    values: list[int] = []
    counts: list[int] = []
    signed: dict[int, list[int]] = {}
    for e in range(1, m // 2 + 1):
        try:
            for x in _sample_points(e + 1 + _SPARE_POINTS)[len(points):]:
                points.append(x)
                values.append(h.evaluate(x))
                if not values[-1]:
                    return Polynomial([-x, 1])
                factors = numtheory.prime_factors(abs(values[-1]))
                counts.append(math.prod(k + 1 for _, k in factors))
            # fewest divisors first; ties keep the sample order
            order = sorted(range(len(points)), key=counts.__getitem__)
            for i in order[: e + 1]:
                if i not in signed:
                    signed[i] = [
                        d for pos in numtheory.positive_divisors(values[i]) for d in (pos, -pos)
                    ]
        except FactorizationLimitError as exc:
            raise OracleLimitError(f"oracle limit: {exc}") from exc
        nodes = [points[i] for i in order[: e + 1]]
        choices = [signed[i] for i in order[: e + 1]]
        spares = [(points[i], values[i]) for i in order[e + 1:]]
        # +-g both divide, so fix the sign at the first node.
        choices[0] = [d for d in choices[0] if d > 0]

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
                    if divides_exactly(g, h) is not None:
                        return g if top > 0 else -g
    return None


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
        g = _kronecker_search(prim, budget) or prim
        counts[g] = counts.get(g, 0) + 1
        prim = divides_exactly(g, prim)

    ordered = tuple(sorted(counts.items(), key=lambda gm: (gm[0].degree, gm[0].coeffs)))
    return FactorizationResult(content=cont, factors=ordered)


def count_irreducible_factors(f: Polynomial) -> int:
    """Number of irreducible factors with multiplicity (z factors included)."""
    return factor(f).nonconstant_factor_count()


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
