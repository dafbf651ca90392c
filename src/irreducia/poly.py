"""Exact univariate polynomials over the integers.

A polynomial is a dense, lowest-degree-first tuple of arbitrary-precision
integers: Polynomial([4, 4, 0, 1]) is 4 + 4z + z^3. The zero polynomial is
the empty tuple. All values are immutable and every operation is pure.

parse_poly reads the text format (a coefficient list or a sparse expression);
Polynomial.to_sparse_string writes it back.

rational_roots finds every rational root without walking the divisors of
the end coefficients: it takes the roots mod a small prime, lifts them by
Newton's iteration, reconstructs the one candidate p/q each lift can stand
for and checks it exactly (Loos, SIAM J. Comput. 12, 1983). A polynomial
whose repeated factors defeat every prime is first made squarefree, once a
check modulo one large prime finds it is not.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .numtheory import is_prime


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

    def __reduce__(self):
        # pickle and copy by value, at every protocol: __slots__ without
        # __getstate__ pickles only at protocol 2 and up
        return Polynomial, (self.coeffs,)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __mul__(self, other: Polynomial) -> Polynomial:
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

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
        try:
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
        except ValueError:  # str() refused a coefficient: name it
            _check_digits(self.coeffs)
            raise
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial('{self.to_sparse_string()}')"


Z = Polynomial([0, 1])

# Highest power of z that parse_poly accepts. The dense list it builds is
# sized by the highest power named, so this caps the memory one input can ask
# for; symbolic analyze with the oracle off stays well under a second here.
MAX_INPUT_DEGREE = 1000
_BIG = 1 << 2000  # the least magnitude of over 2,000 bits; see _check_digits


class PolyParseError(ValueError):
    pass


_TERM = re.compile(r"([+-]?)(\d*)(z(?:\^(\d+))?)?$")
_CHUNK = re.compile(r"[+-]?[^+-]+")


def _check_degree(power: int) -> None:
    if power > MAX_INPUT_DEGREE:
        raise PolyParseError(f"degree {_int_text(power)} above the maximum {MAX_INPUT_DEGREE}")


def _int_text(n) -> str:
    """str(n), or an int's digit count where str() would refuse it."""
    try:
        return str(n)
    except ValueError:
        return f"{'-' if n < 0 else ''}<{Decimal(abs(n)).adjusted() + 1} digits>"


def _excerpt(text: str) -> str:
    """text for an error message: in full if short, else its start and length."""
    return repr(text) if len(text) <= 40 else f"{text[:30]!r}... ({len(text)} characters)"


def _refuse_digits(power: int, digits: int) -> None:
    """PolyParseError past Python's int-to-str digit limit (none if 0 or absent)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise PolyParseError(
            f"coefficient of z^{power} has {digits} digits, above Python's limit of {limit}"
        )


def _check_digits(coeffs) -> None:
    """_refuse_digits on each coefficient past 2,000 bits; no limit is below 640
    digits. coeffs is not empty; none is read alone when max and min are in bounds."""
    if -_BIG < min(coeffs) and max(coeffs) < _BIG:
        return
    for power, c in enumerate(coeffs):
        if c.bit_length() > 2000:
            _refuse_digits(power, Decimal(abs(c)).adjusted() + 1)  # str() would refuse


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
        for power, tok in enumerate(tokens):
            _refuse_digits(power, sum(map(str.isdigit, tok)))
        try:
            return Polynomial(int(tok.strip()) for tok in tokens)
        except ValueError:  # int()'s message would repeat the token in full
            raise PolyParseError(f"bad coefficient list {_excerpt(s)}") from None
    if re.search(r"\d[\s*]+\d", s):  # "z^2*3" or "z^1 0" is not z^23 or z^10
        raise PolyParseError(f"digits split by a space or '*' in {_excerpt(s)}")
    compact = s.replace(" ", "").replace("*", "")
    chunks = _CHUNK.findall(compact)
    if "".join(chunks) != compact:
        raise PolyParseError(f"malformed polynomial {_excerpt(s)}")
    coeffs: dict[int, int] = {}
    for chunk in chunks:
        match = _TERM.match(chunk)
        if not match or (not match.group(2) and not match.group(3)):
            raise PolyParseError(f"malformed term {_excerpt(chunk)} in {_excerpt(s)}")
        sign = -1 if match.group(1) == "-" else 1
        if match.group(3):
            digits = (match.group(4) or "1").lstrip("0")
            if len(digits) > len(str(MAX_INPUT_DEGREE)):  # before int(), which may refuse it
                raise PolyParseError(
                    f"degree of {len(digits)} digits above the maximum {MAX_INPUT_DEGREE}"
                )
            power = int(digits or "0")
        else:
            power = 0
        _check_degree(power)
        _refuse_digits(power, len(match.group(2)))
        coeff = int(match.group(2)) if match.group(2) else 1
        coeffs[power] = coeffs.get(power, 0) + sign * coeff
    out = [0] * (max(coeffs) + 1)
    for power, value in coeffs.items():
        out[power] = value
    _check_digits(out)  # a sum of literals may pass the limit
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
    return math.gcd(*f.coeffs)


def is_primitive(f: Polynomial) -> bool:
    return not f.is_zero() and content(f) == 1


def normalize(f: Polynomial) -> NormalizedInput:
    """Split off content and z-power so criteria see a primitive polynomial
    with nonzero constant term. An f that is already one (content 1, a_0 != 0)
    is returned itself as its primitive part; a Polynomial is immutable."""
    coeffs = f.coeffs
    if not coeffs:
        raise ValueError("cannot normalize the zero polynomial")
    c = math.gcd(*coeffs)
    if c == 1 and coeffs[0]:
        return NormalizedInput(1, 0, f)
    t = 0
    while coeffs[t] == 0:
        t += 1
    coeffs = coeffs[t:] if c == 1 else tuple(a // c for a in coeffs[t:])
    return NormalizedInput(c, t, Polynomial._from_canonical(coeffs))


def divides_exactly(g: Polynomial, f: Polynomial) -> Polynomial | None:
    """Quotient f/g when g divides f over the integers, else None: None at
    the first non-integral quotient step or on a nonzero final remainder."""
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
            return None
        q[k] = step
        for j, gc in enumerate(g.coeffs):
            rem[k + j] -= step * gc
    return Polynomial(q) if not any(rem) else None


# Failed primes after which a polynomial is checked for squarefreeness, and
# the prime it is checked modulo (2^61 - 1); see rational_roots.
_PRIMES_BEFORE_SQUAREFREE = 6
_SQUAREFREE_PRIME = 2**61 - 1


def _value_and_slope(coeffs: tuple[int, ...] | list[int], x: int, mod: int) -> tuple[int, int]:
    """f(x) and f'(x) modulo mod, by one Horner pass."""
    value = slope = 0
    for a in reversed(coeffs):
        slope = (slope * x + value) % mod
        value = (value * x + a) % mod
    return value, slope


def _roots_mod(coeffs: tuple[int, ...], ell: int) -> list[int] | None:
    """The roots of f modulo the prime ell, or None if one of them is a
    multiple root."""
    reduced = [a % ell for a in coeffs]
    roots = []
    for r in range(ell):
        value, slope = _value_and_slope(reduced, r, ell)
        if value == 0:
            if slope == 0:
                return None
            roots.append(r)
    return roots


def _primitive(coeffs: list[int]) -> list[int]:
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs] if g > 1 else coeffs


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^k * a mod b for some k >= 0: the remainder up to a constant
    factor, in integers. Each step scales by lc(b) only while deg >= deg b."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    while len(r) > db:
        top, shift = r[-1], len(r) - 1 - db
        r = [c * lead for c in r]
        for j, c in enumerate(b):
            r[shift + j] -= top * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _squarefree_mod(coeffs: tuple[int, ...]) -> bool:
    """Whether P = _SQUAREFREE_PRIME does not divide a_m and gcd(f, f') is
    constant modulo P, for f of degree >= 1; if so, f is squarefree. A
    square factor g^2 of f makes g divide f and f', and P does not divide
    lc(g), whose square divides a_m, so g keeps its degree mod P and divides
    the gcd there. Each pseudo-remainder, reduced mod P, is a unit times the
    remainder mod P, as P does not divide the leading coefficient it was
    taken by."""
    if coeffs[-1] % _SQUAREFREE_PRIME == 0:
        return False
    a, b = _reduced(coeffs), _reduced([i * c for i, c in enumerate(coeffs)][1:])
    while len(b) > 1:
        a, b = b, _reduced(_pseudo_remainder(a, b))
    return len(b) == 1


def _reduced(coeffs) -> list[int]:
    """coeffs modulo _SQUAREFREE_PRIME, without leading zeros."""
    r = [c % _SQUAREFREE_PRIME for c in coeffs]
    while r and r[-1] == 0:
        r.pop()
    return r


def _squarefree_part(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """f / gcd(f, f') in exact integers: the same roots, none repeated. The
    gcd is taken by the primitive remainder sequence (each pseudo-remainder
    divided by its content). Its coefficients grow with the degree m, and so
    does its cost, roughly as m^4: on (z+1)^2 h with h random of degree
    m - 2 and |c| <= 9, 0.04 s at m = 100, 0.6 s at 200 and 11 s at 400."""
    a = _primitive(list(coeffs))
    b = _primitive([i * c for i, c in enumerate(coeffs)][1:])
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    # a is the gcd, primitive, so it divides f over the integers (Gauss)
    return divides_exactly(Polynomial(a), Polynomial(coeffs)).coeffs


def _lift_roots(coeffs: tuple[int, ...], ell: int, residues: list[int]) -> set[Fraction]:
    """The rational roots of f, given all of its roots mod the prime ell,
    each of them simple (see rational_roots)."""
    a0, am = coeffs[0], coeffs[-1]
    p_bound = abs(a0)
    bound = 2 * p_bound * abs(am)
    k = max(1, math.ceil(bound.bit_length() / math.log2(ell)))
    while ell**k <= bound:
        k += 1
    # each Newton step doubles the precision: lift to ell^ceil(k/2), then ell^k
    moduli = []
    while k > 1:
        moduli.insert(0, ell**k)
        k = (k + 1) // 2
    mod = moduli[-1] if moduli else ell
    roots: set[Fraction] = set()
    for r in residues:
        for step_mod in moduli:
            value, slope = _value_and_slope(coeffs, r, step_mod)
            r = (r - value * pow(slope, -1, step_mod)) % step_mod
        # half-extended Euclid on (mod, r): r_i = t_i r (mod mod), and the
        # first r_i <= |a_0| gives the only candidate p/q = r_i / t_i
        r0, r1, t0, t1 = mod, r, 0, 1
        while r1 > p_bound:
            quo = r0 // r1
            r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
        p, q = (r1, t1) if t1 > 0 else (-r1, -t1)
        if not p or a0 % p or am % q:
            continue
        # sum a_i p^i q^(m-i) == 0 <=> f(p/q) == 0
        acc, qk = 0, 1
        for a in reversed(coeffs):
            acc = acc * p + a * qk
            qk *= q
        if acc == 0:
            roots.add(Fraction(p, q))
    return roots


def rational_roots(f: Polynomial) -> set[Fraction]:
    """All rational roots p/q in lowest terms, by l-adic lifting (Loos,
    "Computing rational zeros of integral polynomials by p-adic expansion",
    SIAM J. Comput. 12, 1983), each verified exactly.

    A root p/q in lowest terms has p | a_0 and q | a_m. For a prime l that
    does not divide a_m, q is invertible mod l, so p/q mod l is a root of f
    mod l: if f has no root mod l, it has no rational root. If every root r
    mod l is simple (f'(r) != 0 mod l), Newton's iteration lifts each one to
    the unique root mod l^k above it, for the least k with
    l^k > 2|a_0 a_m|; the image of a rational root p/q is among them. The
    half-extended Euclidean algorithm on (l^k, r) then gives the only p/q
    with |p| <= |a_0| and 0 < q <= |a_m| that is congruent to r, if there is
    one, and p/q is kept only if sum a_i p^i q^(m-i) == 0. Primes 3, 5, 7,
    ... are tried in turn, skipping those that divide a_m. A prime fails only
    when f shows a multiple root mod l; for a squarefree f only the finitely
    many primes dividing a_m disc(f) fail, so the search is not capped.

    A repeated factor with a root mod every prime (a repeated linear factor,
    or e.g. ((z^2-2)(z^2-3)(z^2-6))^2) would defeat every prime. So after
    _PRIMES_BEFORE_SQUAREFREE failed primes f is checked once by
    _squarefree_mod, a gcd of coefficients below 2^61. If that proves f
    squarefree, the search goes on with no limit; otherwise f is replaced by
    its squarefree part f / gcd(f, f'), which has the same roots, but whose
    gcd grows steeply with the degree (see _squarefree_part).
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.constant_term == 0:
        raise ValueError("rational root scan requires a nonzero constant term")
    return _rational_roots(f.coeffs)


def _has_rational_root(coeffs: tuple[int, ...]) -> bool:
    """Whether f, given by its coefficients (a_0 != 0), has a rational root:
    at degree 2, whether a_1^2 - 4 a_0 a_2 is a square (0 included); else
    whether _rational_roots finds one, as rational_roots does."""
    if len(coeffs) == 3:
        disc = coeffs[1] * coeffs[1] - 4 * coeffs[0] * coeffs[2]
        return disc >= 0 and math.isqrt(disc) ** 2 == disc
    return bool(_rational_roots(coeffs))


def _rational_roots(coeffs: tuple[int, ...]) -> set[Fraction]:
    """rational_roots of a polynomial with nonzero constant term, which is
    replaced by its squarefree part, once _PRIMES_BEFORE_SQUAREFREE primes
    have failed, unless _squarefree_mod proves it squarefree then."""
    ell, failed = 1, 0
    while len(coeffs) > 1:
        ell += 2
        if not is_prime(ell) or coeffs[-1] % ell == 0:
            continue
        residues = _roots_mod(coeffs, ell)
        if residues is not None:
            return _lift_roots(coeffs, ell, residues)
        failed += 1
        if failed == _PRIMES_BEFORE_SQUAREFREE and not _squarefree_mod(coeffs):
            coeffs = _squarefree_part(coeffs)
    return set()
