"""Disk-exclusion certificates and numeric roots."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irreducia.corpus import gen_exhaustive
from irreducia.poly import Polynomial
from irreducia.rootloc import (
    CertificateMode,
    NonConvergenceError,
    certify_outside_disk,
    numeric_roots,
)

SYM = CertificateMode.SYMBOLIC_SUFFICIENT
NUM = CertificateMode.NUMERIC_HEURISTIC


class TestSymbolicCertificate:
    def test_certified_instance(self):
        cert = certify_outside_disk(Polynomial([5, 1, 1]), 1, SYM)
        assert cert.certified  # 5 > 1 + 1
        assert cert.detail == {"lhs": 5, "rhs": 2}

    def test_boundary_root_not_certified(self):
        # roots of z^2 - 4 sit exactly on |z| = 2, and 4 > 4 fails
        cert = certify_outside_disk(Polynomial([-4, 0, 1]), 2, SYM)
        assert not cert.certified

    def test_small_radius_reduces_to_constant(self):
        cert = certify_outside_disk(Polynomial([1, 9, 9, 9]), Fraction(1, 100), SYM)
        assert cert.certified
        assert cert.radius == Fraction(1, 100)

    def test_rational_radius_exactness(self):
        # 3 > 2*(3/2) = 3 must fail on exact arithmetic
        assert not certify_outside_disk(Polynomial([3, 2]), Fraction(3, 2), SYM).certified
        assert certify_outside_disk(Polynomial([4, 2]), Fraction(3, 2), SYM).certified

    def test_rejects_root_at_origin(self):
        with pytest.raises(ValueError, match="origin"):
            certify_outside_disk(Polynomial([0, 1, 1]), 1, SYM)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            certify_outside_disk(Polynomial([5, 1]), 0, SYM)


class TestNumericRoots:
    def test_square_roots_of_one(self):
        roots = sorted(numeric_roots(Polynomial([-1, 0, 1])), key=lambda r: r.real)
        assert abs(roots[0] - (-1)) < 1e-8 and abs(roots[1] - 1) < 1e-8

    def test_moduli_of_shifted_square(self):
        roots = numeric_roots(Polynomial([-4, 0, 1]))
        assert all(abs(abs(r) - 2) < 1e-8 for r in roots)

    def test_split_moduli(self):
        # 1 + 5z + z^2: product of root moduli is 1, sum -5, so one root
        # inside and one outside the unit circle
        moduli = sorted(abs(r) for r in numeric_roots(Polynomial([1, 5, 1])))
        assert moduli[0] < 1 < moduli[1]

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            numeric_roots(Polynomial([3]))

    def test_roots_whose_powers_leave_the_float_range(self):
        # |r|^2 = 1e200 and the residual's terms are read at 1/r, so the
        # roots +-10^100 i come out to full precision
        roots = sorted(numeric_roots(Polynomial([10**200, 0, 1])), key=lambda r: r.imag)
        for got, want in zip(roots, (-1e100j, 1e100j)):
            assert abs(got - want) <= 1e-12 * 1e100

    def test_coefficient_ratio_beyond_float_range_is_nonconvergence(self):
        # a_0 / a_m = 10^400 has no float value
        with pytest.raises(NonConvergenceError) as info:
            numeric_roots(Polynomial([10**400, 1, 1]))
        assert info.value.best_residual == math.inf

    def test_widely_scaled_cubic(self):
        # 7z^3 + 10^11 z^2 - 1: two roots near +-3.2e-6, one near -1.4e10
        f = Polynomial([-1, 0, 10**11, 7])
        moduli = sorted(abs(r) for r in numeric_roots(f))
        assert math.prod(moduli) == pytest.approx(1 / 7, rel=1e-12)
        assert moduli[2] == pytest.approx(10**11 / 7, rel=1e-12)

    def test_dense_degree_100(self):
        rng = random.Random(100)
        coeffs = [rng.randint(-10, 10) for _ in range(101)]
        coeffs[0], coeffs[-1] = coeffs[0] or 1, coeffs[-1] or 1
        roots = numeric_roots(Polynomial(coeffs))
        assert len(roots) == 100
        prod = math.prod(abs(r) for r in roots)
        assert prod == pytest.approx(abs(coeffs[0] / coeffs[-1]), rel=1e-9)

    def test_zero_low_coefficients_are_exact_roots(self):
        roots = numeric_roots(Polynomial([0, 0, -4, 0, 1]))
        assert roots[:2] == [0j, 0j]
        assert all(abs(abs(r) - 2) < 1e-12 for r in roots[2:])

    def test_coefficients_beyond_float_sums_are_nonconvergence(self):
        # 10^-400 underflows to 0.0 and would pass for a root at 0; ratios
        # of 10^308 sum beyond the float range, and an infinite sum would
        # accept any point as a root
        for f in (Polynomial([1, 0, 10**400]), Polynomial([-10**308, 10**308, 1])):
            with pytest.raises(NonConvergenceError) as info:
                numeric_roots(f)
            assert info.value.best_residual == math.inf

    def test_repeated_roots(self):
        roots = numeric_roots(Polynomial([1, 2, 1]))  # (z+1)^2
        assert all(abs(r + 1) < 1e-5 for r in roots)

    def test_root_product_law(self):
        for f in list(gen_exhaustive(4, 3))[::97]:
            if f.constant_term == 0:
                continue
            roots = numeric_roots(f)
            prod = math.prod(abs(r) for r in roots)
            expect = abs(f.constant_term / f.leading_coefficient)
            assert abs(prod - expect) <= 1e-6 * max(1.0, expect), f


def _well_separated(roots, gap=1e-3) -> bool:
    """Simple roots, with every pair apart by more than gap relative to
    the larger modulus, so their moduli are well conditioned."""
    return all(
        abs(r - s) > gap * max(1.0, abs(r), abs(s))
        for i, r in enumerate(roots)
        for s in roots[i + 1:]
    )


@st.composite
def _polys_with_nonzero_ends(draw):
    coeffs = draw(st.lists(st.integers(-1000, 1000), min_size=2, max_size=13))
    assume(coeffs[0] != 0 and coeffs[-1] != 0)
    return Polynomial(coeffs)


@st.composite
def _widely_scaled_polys(draw):
    """Degree 2-8, each coefficient 0, +-1 or +-10^k with k <= 12, the
    two ends nonzero."""
    nonzero = st.builds(lambda sign, k: sign * 10**k, st.sampled_from([1, -1]), st.integers(0, 12))
    middle = draw(st.lists(st.one_of(st.just(0), nonzero), min_size=1, max_size=7))
    return Polynomial([draw(nonzero), *middle, draw(nonzero)])


class TestNumericRootsReference:
    @settings(max_examples=300, deadline=None)
    @given(_polys_with_nonzero_ends())
    def test_moduli_match_numpy(self, f):
        np = pytest.importorskip("numpy")
        reference = [complex(r) for r in np.roots(f.coeffs[::-1])]
        assume(_well_separated(reference))
        moduli = sorted(abs(r) for r in numeric_roots(f))
        expected = sorted(abs(r) for r in reference)
        assert len(moduli) == f.degree
        for got, want in zip(moduli, expected):
            assert got == pytest.approx(want, rel=1e-6)
        product = math.prod(moduli)
        assert product == pytest.approx(abs(f.constant_term / f.leading_coefficient), rel=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(_widely_scaled_polys())
    def test_widely_scaled_moduli_match_mpmath(self, f):
        # numpy.roots loses digits on this class (on 2,242 seeded sparse
        # inputs its moduli were off by up to 2.5e-4), so the reference is
        # mpmath at 30 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            reference = mpmath.polyroots(f.coeffs[::-1], maxsteps=500, extraprec=200)
            assume(_well_separated([complex(r) for r in reference]))
            expected = sorted(float(abs(r)) for r in reference)
        moduli = sorted(abs(r) for r in numeric_roots(f))
        for got, want in zip(moduli, expected):
            assert got == pytest.approx(want, rel=1e-10)

    def test_deterministic(self):
        # the last input spans twelve orders of magnitude
        for f in (Polynomial([1, 2, 1]), Polynomial([30, 1, 1, 1, 6]),
                  Polynomial([-7, 3, 0, 0, 11, 0, 0, 0, 5, -2, 1]),
                  Polynomial([-1, 1, 10**12, 100, 1])):
            assert numeric_roots(f) == numeric_roots(f)


class TestNumericCertificate:
    def test_mode_recorded(self):
        cert = certify_outside_disk(Polynomial([5, 1, 1]), 1, NUM)
        assert cert.mode is NUM
        assert cert.certified
        assert cert.detail["margin"] == pytest.approx(1e-3)

    def test_constant_has_no_roots(self):
        cert = certify_outside_disk(Polynomial([5]), 1, NUM)
        assert cert.certified
        assert cert.detail["moduli"] == []

    def test_margin_blocks_boundary(self):
        # exact moduli 2: not certified for d=2 with a positive margin
        cert = certify_outside_disk(Polynomial([-4, 0, 1]), 2, NUM)
        assert not cert.certified

    def test_radius_beyond_float_range_is_refused(self):
        # 3*2^1100 + 2^1100 z + (5*2^1100 + 1) z^2 has roots of modulus
        # about 0.77 and the disk radius 2^1100 at p = 3
        f = Polynomial([3 * 2**1100, 2**1100, 5 * 2**1100 + 1])
        assert not certify_outside_disk(f, 2**1100, NUM).certified
        assert certify_outside_disk(f, Fraction(1, 2), NUM).certified


class TestSymbolicSoundness:
    def test_certified_disks_are_root_free(self):
        # wherever the exact inequality fires, every numeric root clears d
        checked = 0
        for f in list(gen_exhaustive(4, 4))[::7]:
            for d in (1, 2):
                if certify_outside_disk(f, d, SYM).certified:
                    checked += 1
                    assert min(abs(r) for r in numeric_roots(f)) > d * (1 - 1e-9)
        assert checked > 25
