"""Root-location certificates: prove all complex zeros avoid a closed disk
|z| <= d.

Two modes. The symbolic mode checks the sufficient coefficient inequality
|a_0| > sum_{i>=1} |a_i| d^i in exact arithmetic: on |z| <= d that forces
|f(z)| >= |a_0| - sum |a_i| d^i > 0, so the disk is root-free. It is sound
but incomplete. The numeric mode approximates all roots simultaneously
(Aberth-Ehrlich iteration from the Newton-polygon starts of Bini, Numer.
Algorithms 13, 1996) and compares moduli against d with a relative margin;
complete in practice but not a proof, so consumers flag it. Both tests are
monotone in d: one that holds at d holds at every smaller radius. So
`criteria.PolyFacts.certified_radius` looks for the largest certified radius
from the top down and certifies no radius twice.

Two integer facts prove a root inside |z| <= d without finding any roots
(`has_root_in_disk`): the root moduli multiply to |a_0 / a_m|, so
|a_m| d^m >= |a_0| leaves the smallest at most d; and a sign change of f on
[0, d] or [-d, 0] puts a real root there. Numeric mode would refuse such a
radius too, so `certified_radius` refuses it before any root iteration runs.
The first fact alone refuses every d >= 2^ceil(bitlen(|a_0|) / m), where
d^m > |a_0|; that is where the search starts refused in both modes.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .poly import Polynomial

MARGIN = 1e-3  # numeric mode: relative gap each root modulus must keep from d
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


class RootLocationCertificate(NamedTuple):
    """Outcome of a disk-exclusion check at radius d."""

    radius: Fraction
    mode: CertificateMode
    certified: bool
    detail: dict


def certify_outside_disk(
    f: Polynomial,
    d,
    mode: CertificateMode = CertificateMode.SYMBOLIC_SUFFICIENT,
    *,
    roots: list[complex] | None = None,
) -> RootLocationCertificate:
    """Certify that every complex zero of f has modulus greater than d.

    In numeric mode, roots (all roots of f, from numeric_roots) spares
    computing them again for each radius."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.constant_term == 0:
        raise ValueError("root at origin inside every disk")
    d = Fraction(d)
    if d <= 0:
        raise ValueError("disk radius must be positive")

    if mode is CertificateMode.SYMBOLIC_SUFFICIENT:
        lhs = abs(f.constant_term)
        x = d.numerator if d.denominator == 1 else d  # an integer radius stays in integers
        rhs = 0
        for a in reversed(f.coeffs[1:]):  # sum_{i>=1} |a_i| x^i by Horner's rule
            rhs = rhs * x + abs(a)
        rhs *= x
        return RootLocationCertificate(
            radius=d,
            mode=mode,
            certified=lhs > rhs,
            detail={"lhs": lhs, "rhs": rhs},
        )

    if f.degree == 0:
        return RootLocationCertificate(radius=d, mode=mode, certified=True,
                                       detail={"moduli": [], "margin": MARGIN})
    if roots is None:
        roots = numeric_roots(f)
    moduli = sorted(abs(r) for r in roots)
    # a radius beyond the float range exceeds every root modulus
    certified = d <= sys.float_info.max and moduli[0] > float(d) * (1.0 + MARGIN)
    return RootLocationCertificate(
        radius=d, mode=mode, certified=certified,
        detail={"moduli": moduli, "margin": MARGIN},
    )


def has_root_in_disk(f: Polynomial, d: int) -> bool:
    """Whether an exact integer test proves a root of f in |z| <= d, for an
    integer d >= 1 and a_0 != 0: |a_m| d^m >= |a_0|, or f(0) f(d) <= 0, or
    f(0) f(-d) <= 0. f(+-d) = E +- O from the even and odd parts, each by
    Horner's rule in d^2."""
    c = f.coeffs
    if abs(c[-1]) * d**f.degree >= abs(c[0]):
        return True
    d2, even, odd = d * d, 0, 0
    for a in reversed(c[0::2]):
        even = even * d2 + a
    for a in reversed(c[1::2]):
        odd = odd * d2 + a
    odd *= d
    return c[0] * (even + odd) <= 0 or c[0] * (even - odd) <= 0


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
