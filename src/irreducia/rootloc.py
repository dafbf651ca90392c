"""Root-location certificates: prove all complex zeros avoid a closed disk
|z| <= d.

Two modes. The symbolic mode checks the sufficient coefficient inequality
|a_0| > sum_{i>=1} |a_i| d^i in exact arithmetic: on |z| <= d that forces
|f(z)| >= |a_0| - sum |a_i| d^i > 0, so the disk is root-free. It is sound
but incomplete. Its right side grows with d, so a test that fails at d = 1
fails at every d >= 1; as every radius the disk criteria try is an integer
d >= 1, `criteria.PolyFacts` makes the test at d = 1 once and skips the
symbolic search when it fails. The numeric mode approximates all roots
simultaneously and compares moduli against d with a relative margin;
complete in practice but not a proof, so consumers flag it.
"""

from __future__ import annotations

import cmath
import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .poly import Polynomial

MARGIN = 1e-3  # numeric mode: relative gap each root modulus must keep from d
TOLERANCE = 1e-10  # scaled residual at which the root iteration has converged
MAX_ITERATIONS = 400  # Weierstrass steps per attempt
RESTARTS = 6  # attempts, the first from the unperturbed start


class CertificateMode(enum.Enum):
    SYMBOLIC_SUFFICIENT = "symbolic"
    NUMERIC_HEURISTIC = "numeric"


class NonConvergenceError(RuntimeError):
    """Root iteration missed the residual target within the retry budget."""

    def __init__(self, best_residual: float):
        super().__init__(f"root iteration did not converge (best residual {best_residual:.3e})")
        self.best_residual = best_residual


@dataclass(frozen=True)
class RootLocationCertificate:
    """Outcome of a disk-exclusion check at radius d."""

    radius: Fraction
    mode: CertificateMode
    certified: bool
    detail: dict

    def is_exact(self) -> bool:
        return self.mode is CertificateMode.SYMBOLIC_SUFFICIENT


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
        if d.denominator == 1:
            # integer radius: pure integer Horner on |a_i|
            di = d.numerator
            rhs = 0
            for a in reversed(f.coeffs[1:]):
                rhs = rhs * di + abs(a)
            rhs *= di
        else:
            rhs = sum(abs(a) * d**i for i, a in enumerate(f.coeffs) if i > 0)
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
    certified = moduli[0] > float(d) * (1.0 + MARGIN)
    return RootLocationCertificate(
        radius=d, mode=mode, certified=certified,
        detail={"moduli": moduli, "margin": MARGIN},
    )


def numeric_roots(f: Polynomial) -> list[complex]:
    """All complex roots by simultaneous (Weierstrass) iteration.

    Converged when the scaled residual max |f(r)| / (|a_m| max(1,|r|)^m)
    drops below TOLERANCE; stagnating attempts restart from perturbed
    initial points. Raises NonConvergenceError after the retry budget, or at
    once when a coefficient ratio a_i / a_m is beyond the float range.
    """
    m = f.degree
    if m < 1:
        raise ValueError("need degree >= 1 for root finding")
    lead = f.leading_coefficient
    try:
        highest_first = [complex(c / lead) for c in reversed(f.coeffs)]
    except OverflowError:
        raise NonConvergenceError(math.inf) from None

    def value(r: complex) -> complex:
        acc = 0j
        for c in highest_first:
            acc = acc * r + c
        return acc

    def residual(z: list[complex]) -> float:
        vals = [abs(value(r)) / max(1.0, abs(r)) ** m for r in z]
        return max(vals) if sum(vals) < math.inf else math.inf  # inf or nan: diverged

    radius = 1.0 + max(abs(c) for c in highest_first[1:])  # Cauchy root bound
    start = [
        cmath.rect(radius ** ((k + 1) / m), 2.0 * math.pi * k / m + 0.4) for k in range(m)
    ]
    rng = None  # seeded on the first restart; most calls converge without one
    best_res = math.inf
    for attempt in range(RESTARTS):
        z = start
        if attempt:
            rng = rng or random.Random(0x5EED)
            re_part = [rng.gauss(0.0, 1.0) for _ in range(m)]
            im_part = [rng.gauss(0.0, 1.0) for _ in range(m)]
            z = [
                r * (1.0 + 0.2 * attempt) + complex(x, y) * 0.1 * radius
                for r, x, y in zip(z, re_part, im_part)
            ]
        try:
            z = _weierstrass(z, value)
            res = residual(z)
        except (ZeroDivisionError, OverflowError):  # coincident or escaping iterates
            continue
        best_res = min(best_res, res)
        if res <= TOLERANCE:
            return z
    raise NonConvergenceError(best_res)


def _weierstrass(z: list[complex], value: Callable[[complex], complex]) -> list[complex]:
    """Jacobi-style Weierstrass steps from z until the step is negligible or
    has not shrunk for more than 20 steps in a row."""
    prev_step = math.inf
    stagnant = 0
    for _ in range(MAX_ITERATIONS):
        update = []
        for i, r in enumerate(z):
            denom = 1.0
            for s in z[:i]:
                denom *= r - s
            for s in z[i + 1:]:
                denom *= r - s
            update.append(value(r) / denom)
        z = [r - u for r, u in zip(z, update)]
        sizes = [abs(u) for u in update]
        if not sum(sizes) < math.inf:  # an inf or nan step: the attempt diverged
            break
        step = max(sizes)
        if step < 1e-15 * max(1.0, max(abs(r) for r in z)):
            break
        if step >= prev_step:
            stagnant += 1
            if stagnant > 20:
                break
        else:
            stagnant = 0
        prev_step = step
    return z
