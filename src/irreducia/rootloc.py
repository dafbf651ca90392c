"""Root-location certificates: prove all complex zeros avoid a closed disk
|z| <= d.

`certify_outside_disk(f, d, mode)` owns the whole decision and answers True
or False. Two modes, each the `CertificateMode` member or its value. The
symbolic mode checks the sufficient coefficient inequality |a_0| >
sum_{i>=1} |a_i| d^i in exact arithmetic: on |z| <= d that forces |f(z)|
>= |a_0| - sum |a_i| d^i > 0, so the disk is root-free. It is sound but
incomplete. The numeric mode certifies d when every root modulus is above
d (1 + MARGIN), and consumers flag it as not a proof. Both tests are
monotone in d: one that holds at d holds at every smaller radius.

In both modes `has_root_in_disk` first refuses d by exact tests that prove
a root in the disk, so none fires where the symbolic inequality holds; it
refuses a d too large for the root product |a_0 / a_m| by bit lengths alone.
In numeric mode, up to degree EXACT_MAX_DEGREE, the Schur-Cohn test
(`root_free`) then decides the rule exactly, with no roots: no root lies in
|z| <= SCALE d. Above the cap the symbolic inequality at SCALE d, which
proves that rule, is tried first; then the roots decide, from an
Aberth-Ehrlich iteration from Bini's Newton-polygon starts (Numer.
Algorithms 13, 1996); there one root set costs less than `root_free`, whose
rows grow by about 10 bits per degree at SCALE d.

The three disk tests read f and the radius through one check, `_radius`.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from fractions import Fraction
from typing import Callable

from .poly import Polynomial

MARGIN = 1e-3  # numeric mode: relative gap each root modulus must keep from d
SCALE = 1 + Fraction(str(MARGIN))  # 1001/1000: no root in |z| <= SCALE d is the numeric rule
EXACT_MAX_DEGREE = 9  # numeric mode runs root_free up to here; above, one root set is cheaper
MAX_ITERATIONS = 100  # Aberth sweeps over the roots not yet accepted
START_ANGLE = 0.7  # radians: keeps starting points off the real axis


class CertificateMode(enum.Enum):
    SYMBOLIC_SUFFICIENT = "symbolic"
    NUMERIC_HEURISTIC = "numeric"


class NonConvergenceError(RuntimeError):
    """Root iteration missed its backward-error target within MAX_ITERATIONS
    sweeps (best_residual is then the worst root's relative backward error),
    or could not run in floats (best_residual is inf)."""

    def __init__(self, best_residual: float):
        super().__init__(f"root iteration did not converge (best residual {best_residual:.3e})")
        self.best_residual = best_residual


def certify_outside_disk(
    f: Polynomial,
    d,
    mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT,
    *,
    roots: Callable[[], list[complex]] | None = None,
) -> bool:
    """Whether every complex zero of f is certified to have modulus greater
    than d, a positive rational, in `mode` (a `CertificateMode` or its value;
    anything else raises ValueError), after `has_root_in_disk`.

    In numeric mode `roots`, a zero-argument callable that gives all roots
    of f (by default `numeric_roots(f)`), is called only above the degree
    cap, so a caller can share one root set, or one NonConvergenceError,
    between radii."""
    if type(mode) is not CertificateMode:  # its value; anything else raises ValueError
        mode = CertificateMode(mode)
    d = _radius(f, d)
    if not d:
        raise ValueError("disk radius must be positive")
    if f.constant_term == 0:
        raise ValueError("root at origin inside every disk")

    if has_root_in_disk(f, d):
        return False
    if mode is CertificateMode.SYMBOLIC_SUFFICIENT:
        return _dominates(f, d)

    if f.degree <= EXACT_MAX_DEGREE:
        return root_free(f, d * SCALE)
    if _dominates(f, d * SCALE):
        return True
    moduli = map(abs, numeric_roots(f) if roots is None else roots())
    # a radius beyond the float range exceeds every root modulus
    return d <= sys.float_info.max and min(moduli) > float(d) * (1.0 + MARGIN)


def _radius(f: Polynomial, r) -> int | Fraction:
    """r as an int if it is one, else as a Fraction, once f is known not to be
    the zero polynomial and r to be finite and at least 0 (else ValueError)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if type(r) is not int:  # an integer radius stays in integers
        try:
            r = Fraction(r)
        except (ValueError, OverflowError):  # a NaN; an infinity
            raise ValueError("disk radius must be finite and at least 0") from None
        r = r.numerator if r.denominator == 1 else r
    if r < 0:  # a test would answer for |r|, where the disk is empty
        raise ValueError("disk radius must be finite and at least 0")
    return r


def _dominates(f: Polynomial, r) -> bool:
    """|a_0| > sum_{i>=1} |a_i| r^i: on |z| <= r it forces |f(z)| >= |a_0| -
    sum |a_i| r^i > 0, so no root lies in the disk."""
    return 2 * abs(f.constant_term) > Polynomial(map(abs, f.coeffs)).evaluate(r)


def has_root_in_disk(f: Polynomial, d) -> bool:
    """Whether an exact test proves a root of f in the closed disk |z| <= d,
    for a nonzero f and a finite rational d >= 0 (else ValueError): f has
    degree >= 1, and |a_m| d^m >= |a_0|, or f(0) f(d) <= 0, or f(0) f(-d)
    <= 0. The first is tried from bit lengths before d^m is built: 2^lo <= d
    and lo m >= bitlen(|a_0|) give d^m > |a_0|. So an integer radius that
    reaches d^m and f(+-d) has d^m < 2^(bitlen(|a_0|) + m)."""
    d = _radius(f, d)
    c, m, a0 = f.coeffs, f.degree, abs(f.constant_term)
    if m == 0:  # a nonzero constant has no root
        return False
    u, v = d.numerator, d.denominator  # an int is its own numerator, over 1
    lo = u.bit_length() - 1 - (v.bit_length() if v > 1 else 0)  # 2^lo <= d
    if lo * m >= a0.bit_length() or abs(c[-1]) * d**m >= a0:
        return True
    return c[0] * f.evaluate(d) <= 0 or c[0] * f.evaluate(-d) <= 0


def root_free(f: Polynomial, r) -> bool:
    """Whether no root of f lies in the closed disk |z| <= r, for a nonzero
    f, a finite rational r >= 0 (else ValueError) and a_0 != 0; exact and
    complete (Schur-Cohn; A. Cohn, Math. Z. 14, 1922). With r = u / v, the roots of
    h(z) = sum_k a_(m-k) u^(m-k) v^k z^k, the reversal of v^m f(r z), are
    r / (the roots of f), so f is root-free in the disk exactly when every
    root of h lies in |z| < 1. If |h_n| <= |h_0|, the root moduli of h
    multiply to at least 1, so one is at least 1 (at the first step this is
    the Vieta test of `has_root_in_disk`). Otherwise T h = (h_n h - h_0 h~)
    / z, with h~ the reversal of h, has degree n - 1 (its top coefficient is
    h_n^2 - h_0^2), and by Rouche's theorem on |z| = 1 (where |h~| = |h|,
    and a root of h on the circle is a root of T h) it has all its roots in
    |z| < 1 exactly when h has. Each row is divided by its content, so the
    coefficients grow linearly in bits with the degree, not exponentially."""
    r = _radius(f, r)
    u, v, m = r.numerator, r.denominator, f.degree
    h = [a * u ** (m - k) * v**k for k, a in enumerate(reversed(f.coeffs))]
    while len(h) > 1:
        h0, hn = h[0], h[-1]
        if abs(hn) <= abs(h0):
            return False
        h = [hn * a - h0 * b for a, b in zip(h[1:], h[-2::-1])]
        g = math.gcd(*h)
        h = [a // g for a in h]
    return True


def numeric_roots(f: Polynomial) -> list[complex]:
    """All complex roots of f. A zero low coefficient is an exact root at 0;
    Aberth-Ehrlich iteration in Gauss-Seidel order finds the other n from
    Bini's starts. A root is accepted, and no longer updated, once its
    relative backward error |f(r)| / sum |a_i| |r|^i is at most 4 n eps.
    Where |r| > 1, f and f' are read off the reversed polynomial at 1/r, so
    no power of |r| is formed. Raises NonConvergenceError after
    MAX_ITERATIONS sweeps, or at once when a ratio a_i / a_m is beyond the
    float range, iterates coincide or a derivative vanishes."""
    if f.degree < 1:
        raise ValueError("need degree >= 1 for root finding")
    zeros = next(i for i, c in enumerate(f.coeffs) if c)
    coeffs = f.coeffs[zeros:]
    try:
        a = [c / f.leading_coefficient for c in coeffs]  # lowest degree first
        mags = [abs(c) for c in a]
        n = len(a) - 1
        # a ratio that underflowed, or a coefficient sum that overflows
        if any(c and not x for c, x in zip(coeffs, mags)) or not n * sum(mags) < math.inf:
            raise NonConvergenceError(math.inf)
        a_rev, mags_rev = a[::-1], mags[::-1]
        bound = 4 * n * sys.float_info.epsilon
        z = _starts(mags)
        errors = [math.inf] * n
        live = range(n)
        for _ in range(MAX_ITERATIONS):
            still = []
            for i in live:
                r = z[i]
                inside = abs(r) <= 1.0
                if inside:
                    v, dv, scale = _horner(a_rev, mags_rev, r)
                else:  # v = r^-n f(r) = sum a_i y^(n-i) at y = 1/r
                    y = 1.0 / r
                    v, dv, scale = _horner(a, mags, y)
                errors[i] = abs(v) / scale
                if errors[i] <= bound:
                    continue
                still.append(i)
                ratio = v / dv if inside else r * v / (n * v - y * dv)  # f / f'
                pull = sum([1.0 / (r - w) for j, w in enumerate(z) if j != i])
                step = ratio / (1.0 - ratio * pull)
                if not abs(step) < math.inf:
                    raise NonConvergenceError(math.inf)
                z[i] = r - step
            live = still
            if not live:
                return [0j] * zeros + z
    except (ZeroDivisionError, OverflowError):
        raise NonConvergenceError(math.inf) from None
    raise NonConvergenceError(max(errors))


def _horner(coeffs: list[float], mags: list[float], x: complex) -> tuple[complex, complex, float]:
    """p(x), p'(x) and sum |c_k| |x|^k for p with coefficients (and their
    moduli) listed highest degree first."""
    v, dv, scale, ax = 0j, 0j, 0.0, abs(x)
    for c, mc in zip(coeffs, mags):
        dv = dv * x + v
        v = v * x + c
        scale = scale * ax + mc
    return v, dv, scale


def _starts(mags: list[float]) -> list[complex]:
    """Bini's starts for the roots of sum a_i z^i (a_0 != 0, mags[i] = |a_i|):
    each edge of the upper convex hull of (i, log|a_i|), from i to k, puts
    k - i points evenly on the circle of radius (|a_i| / |a_k|)^(1/(k-i))."""
    n = len(mags) - 1
    points = [(k, math.log(c)) for k, c in enumerate(mags) if c]
    z: list[complex] = []
    i, log_i = points[0]
    while i < n:
        # the edge from i ends at the steepest point, the farthest on a tie
        k, log_k = max((p for p in points if p[0] > i),
                       key=lambda p: ((p[1] - log_i) / (p[0] - i), p[0]))
        radius = math.exp((log_i - log_k) / (k - i))
        z += [cmath.rect(radius, 2.0 * math.pi * (j / (k - i) + i / n) + START_ANGLE)
              for j in range(k - i)]
        i, log_i = k, log_k
    return z
