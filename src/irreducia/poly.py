"""Exact univariate polynomials over the integers.

A polynomial is a dense, lowest-degree-first tuple of arbitrary-precision
integers: Polynomial([4, 4, 0, 1]) is 4 + 4z + z^3. The zero polynomial is
the empty tuple. All values are immutable and every operation is pure.

parse_poly reads the text format (a coefficient list or a sparse expression);
Polynomial.to_sparse_string writes it back.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple

from . import numtheory


class Polynomial:
    """Dense integer polynomial, coefficients indexed by power of z."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _from_canonical(cls, coeffs: tuple[int, ...]) -> Polynomial:
        """The polynomial with exactly these coefficients, without the
        checks of __init__. Precondition: coeffs is a tuple of ints whose
        last entry is nonzero, or the empty tuple."""
        f = object.__new__(cls)
        f.coeffs = coeffs
        return f

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> int:
        """Coefficient of z^i (0 beyond the degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def leading_coefficient(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: Polynomial) -> Polynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self.coeffs])

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, int):
            return Polynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def evaluate(self, x):
        """Horner evaluation; exact for int and Fraction arguments."""
        out = x * 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    # -- display ------------------------------------------------------------

    def to_sparse_string(self) -> str:
        """Canonical sparse form, highest power first, e.g. 'z^3 + 4z + 4'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "z" if i == 1 else f"z^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial('{self.to_sparse_string()}')"


Z = Polynomial([0, 1])

# Highest power of z that parse_poly accepts. The dense list it builds is
# sized by the highest power named, so this caps the memory one input can ask
# for; symbolic analyze with the oracle off stays well under a second here.
MAX_INPUT_DEGREE = 1000


class PolyParseError(ValueError):
    pass


_TERM = re.compile(r"([+-]?)(\d*)(z(?:\^(\d+))?)?$")
_CHUNK = re.compile(r"[+-]?[^+-]+")


def _check_degree(power: int) -> None:
    if power > MAX_INPUT_DEGREE:
        raise PolyParseError(f"degree {power} above the maximum {MAX_INPUT_DEGREE}")


def parse_poly(text: str) -> Polynomial:
    """Parse either comma-separated lowest-first coefficients ("4,4,0,1") or
    a sparse expression ("z^3 + 4z + 4"); duplicate powers are summed.
    parse_poly(f.to_sparse_string()) == f."""
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial")
    if "," in s:
        tokens = s.split(",")
        _check_degree(len(tokens) - 1)
        try:
            return Polynomial(int(tok.strip()) for tok in tokens)
        except ValueError as exc:
            raise PolyParseError(f"bad coefficient list {text!r}: {exc}") from exc
    compact = s.replace(" ", "").replace("*", "")
    chunks = _CHUNK.findall(compact)
    if "".join(chunks) != compact:
        raise PolyParseError(f"malformed polynomial {text!r}")
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        match = _TERM.match(chunk)
        if not match or (not match.group(2) and not match.group(3)):
            raise PolyParseError(f"malformed term {chunk!r} in {text!r}")
        sign = -1 if match.group(1) == "-" else 1
        coeff = int(match.group(2)) if match.group(2) else 1
        if match.group(3):
            power = int(match.group(4)) if match.group(4) else 1
        else:
            power = 0
        _check_degree(power)
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    out = [0] * (max(coeffs) + 1)
    for power, value in coeffs.items():
        out[power] = value
    return Polynomial(out)


class NormalizedInput(NamedTuple):
    """f = content * z**z_power * primitive_part, with the primitive part
    having gcd-1 coefficients and nonzero constant and leading terms."""

    content: int
    z_power: int
    primitive_part: Polynomial


def content(f: Polynomial) -> int:
    """Positive gcd of the coefficients."""
    if f.is_zero():
        raise ValueError("zero polynomial has no content")
    return math.gcd(*f.coeffs) if len(f.coeffs) > 1 else abs(f.coeffs[0])


def is_primitive(f: Polynomial) -> bool:
    return not f.is_zero() and content(f) == 1


def normalize(f: Polynomial) -> NormalizedInput:
    """Split off content and z-power so criteria see a primitive polynomial
    with nonzero constant term."""
    if f.is_zero():
        raise ValueError("cannot normalize the zero polynomial")
    c = content(f)
    t = 0
    while f.coeffs[t] == 0:
        t += 1
    prim = Polynomial([a // c for a in f.coeffs[t:]])
    return NormalizedInput(content=c, z_power=t, primitive_part=prim)


def divmod_exact(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial, bool]:
    """Integer polynomial division with an exactness flag.

    Returns (q, r, exact) with f = q*g + r always. exact is True precisely
    when g divides f over the integers; otherwise q and r hold the state
    where division stopped (the first non-integral quotient step, or the
    nonzero final remainder).
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(f.coeffs)
    gl = g.leading_coefficient
    gd = g.degree
    q = [0] * max(len(rem) - gd, 0)
    for k in range(len(rem) - gd - 1, -1, -1):
        top = rem[k + gd]
        if top == 0:
            continue
        step, residue = divmod(top, gl)
        if residue:
            return Polynomial(q), Polynomial(rem), False
        q[k] = step
        for j, gc in enumerate(g.coeffs):
            rem[k + j] -= step * gc
    r = Polynomial(rem)
    return Polynomial(q), r, r.is_zero()


def divides_exactly(g: Polynomial, f: Polynomial) -> Polynomial | None:
    """Quotient f/g when g divides f over the integers, else None."""
    q, _, exact = divmod_exact(f, g)
    return q if exact else None


def _divides(d: int, n: int) -> bool:
    return n == 0 if d == 0 else n % d == 0


def rational_roots(f: Polynomial) -> set[Fraction]:
    """All rational roots p/q in lowest terms, via the divisor candidate scan
    (p | constant term, q | leading coefficient) with exact verification.

    A root p/q makes the primitive qz - p divide f over the integers (Gauss's
    lemma), so q - p divides f(1) and q + p divides f(-1); candidates that
    fail either test are skipped before f(p/q) is evaluated.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.constant_term == 0:
        raise ValueError("rational root scan requires a nonzero constant term")
    if f.degree == 0:
        return set()
    m = f.degree
    at_one = sum(f.coeffs)
    at_minus_one = sum(f.coeffs[0::2]) - sum(f.coeffs[1::2])
    roots: set[Fraction] = set()
    for q in numtheory.positive_divisors(f.leading_coefficient):
        qpow = [q**e for e in range(m + 1)]
        for p_abs in numtheory.positive_divisors(f.constant_term):
            if math.gcd(p_abs, q) != 1:
                continue
            for p in (p_abs, -p_abs):
                if not (_divides(q - p, at_one) and _divides(q + p, at_minus_one)):
                    continue
                # sum a_i p^i q^(m-i) == 0 <=> f(p/q) == 0
                acc = 0
                pk = 1
                for i, a in enumerate(f.coeffs):
                    if a:
                        acc += a * pk * qpow[m - i]
                    pk *= p
                if acc == 0:
                    roots.add(Fraction(p, q))
    return roots
