"""Disk-exclusion certificates and numeric roots."""

import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irreducia.corpus import gen_exhaustive
from irreducia.poly import Polynomial, _squarefree_part
from irreducia.rootloc import (
    CertificateMode,
    NonConvergenceError,
    certify_outside_disk,
    has_root_in_disk,
    numeric_roots,
    root_free,
)

SYM = CertificateMode.SYMBOLIC_SUFFICIENT
NUM = CertificateMode.NUMERIC_HEURISTIC


class TestSymbolicCertificate:
    def test_certified_instance(self):
        assert certify_outside_disk(Polynomial([5, 1, 1]), 1, SYM) is True  # 5 > 1 + 1

    def test_boundary_root_not_certified(self):
        # roots of z^2 - 4 sit exactly on |z| = 2, and 4 > 4 fails
        assert certify_outside_disk(Polynomial([-4, 0, 1]), 2, SYM) is False

    def test_small_radius_reduces_to_constant(self):
        assert certify_outside_disk(Polynomial([1, 9, 9, 9]), Fraction(1, 100), SYM) is True

    def test_rational_radius_exactness(self):
        # 3 > 2*(3/2) = 3 must fail on exact arithmetic
        assert certify_outside_disk(Polynomial([3, 2]), Fraction(3, 2), SYM) is False
        assert certify_outside_disk(Polynomial([4, 2]), Fraction(3, 2), SYM) is True

    def test_rejects_root_at_origin(self):
        with pytest.raises(ValueError, match="origin"):
            certify_outside_disk(Polynomial([0, 1, 1]), 1, SYM)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            certify_outside_disk(Polynomial([5, 1]), 0, SYM)

    @pytest.mark.parametrize("mode", [SYM, NUM])
    def test_rejects_infinite_and_nan_radius(self, mode):
        # Fraction(inf) raises OverflowError; the radius is refused first
        for d in (math.inf, -math.inf):
            with pytest.raises(ValueError, match="disk radius must be finite"):
                certify_outside_disk(Polynomial([5, 1]), d, mode)
        with pytest.raises(ValueError):
            certify_outside_disk(Polynomial([5, 1]), math.nan, mode)

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            certify_outside_disk(Polynomial(), 1)


@pytest.mark.parametrize("mode", [SYM, NUM])
def test_a_mode_given_as_its_value_is_the_member(mode):
    # (z - 2)^2 at d = 1: only numeric mode certifies it
    f = Polynomial([4, -4, 1])
    assert certify_outside_disk(f, 1, mode.value) is certify_outside_disk(f, 1, mode) is (mode is NUM)


def test_an_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="'bogus' is not a valid CertificateMode"):
        certify_outside_disk(Polynomial([5, 1, 1]), 1, "bogus")


@pytest.mark.parametrize("mode", [SYM, NUM])
def test_radius_too_large_for_the_root_product_is_refused_at_once(mode):
    # 3*2^13333 + z + ... + z^1000 at d = 3^8000: d^1000, f(+-d) and the
    # symbolic sum would each have about 12.7 million bits; bit lengths alone
    # refuse d, as (bitlen(3^8000) - 1) * 1000 >= bitlen(3*2^13333)
    f = Polynomial([3 * 2**13333] + [1] * 1000)
    start = time.process_time()
    assert certify_outside_disk(f, 3**8000, mode) is False
    assert time.process_time() - start < 1.0


@pytest.mark.parametrize("test", [
    has_root_in_disk,
    root_free,
    lambda f, d: certify_outside_disk(f, d, SYM),
    lambda f, d: certify_outside_disk(f, d, NUM),
], ids=["has_root_in_disk", "root_free", "certify symbolic", "certify numeric"])
@pytest.mark.parametrize("coeffs, r, message", [
    ((7, 1, 1), -3, "disk radius must be finite and at least 0"),  # |z| <= -3 is empty
    ((7, 1, 1), Fraction(-1, 2), "disk radius must be finite and at least 0"),
    ((7, 1, 1), -0.5, "disk radius must be finite and at least 0"),
    ((7, 1, 1), math.inf, "disk radius must be finite and at least 0"),
    ((7, 1, 1), -math.inf, "disk radius must be finite and at least 0"),
    ((7, 1, 1), math.nan, "disk radius must be finite and at least 0"),
    ((7, 1, 1), Decimal("NaN"), "disk radius must be finite and at least 0"),
    ((), 1, "zero polynomial"),  # it vanishes everywhere, so no disk is root-free
    ((), math.inf, "zero polynomial"),
], ids=["negative int", "negative Fraction", "negative float", "inf", "-inf", "nan",
        "Decimal nan", "zero polynomial", "zero polynomial, inf"])
def test_every_disk_test_refuses_the_same_inputs(test, coeffs, r, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        test(Polynomial(list(coeffs)), r)


@pytest.mark.parametrize("r, found", [
    (Fraction(3, 2), False), (1.5, False), (3, True), (3.0, True), (0, False), (0.0, False),
])
def test_has_root_in_disk_reads_a_float_radius_as_its_fraction(r, found):
    # 7 + z + z^2 has roots of modulus sqrt(7) = 2.65; at 3, 3^2 >= 7
    assert has_root_in_disk(Polynomial([7, 1, 1]), r) is found


def test_a_constant_has_no_root_in_any_disk():
    for r in (0, Fraction(1, 2), 1, 10**100):
        assert has_root_in_disk(Polynomial([5]), r) is False
        assert root_free(Polynomial([5]), r) is True


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
        assert certify_outside_disk(Polynomial([5, 1, 1]), 1, NUM) is True

    def test_constant_has_no_roots(self):
        assert certify_outside_disk(Polynomial([5]), 1, NUM) is True

    def test_margin_blocks_boundary(self):
        # exact moduli 2: not certified for d=2 with a positive margin
        assert certify_outside_disk(Polynomial([-4, 0, 1]), 2, NUM) is False

    def test_radius_beyond_float_range_is_refused(self):
        # 3*2^1100 + 2^1100 z + (5*2^1100 + 1) z^2 has roots of modulus
        # about 0.77 and the disk radius 2^1100 at p = 3
        f = Polynomial([3 * 2**1100, 2**1100, 5 * 2**1100 + 1])
        assert certify_outside_disk(f, 2**1100, NUM) is False
        assert certify_outside_disk(f, Fraction(1, 2), NUM) is True

    def test_roots_beyond_the_float_range_are_not_needed(self):
        # a_0 / a_m = 10^400 has no float value, so no root iteration runs;
        # the exact tests certify d = 2^400 (the radius p = 5 gives at a_0),
        # where the roots have modulus about 10^200
        assert certify_outside_disk(Polynomial([10**400, 1, 1]), 2**400, NUM) is True

    @pytest.mark.parametrize("coeffs, d, certified", [
        ((5, 1, 1), 1, True),  # moduli sqrt(5): no root within 1.001
        ((10, 11, 11, 1), 2, False),  # (z^2 + z + 1)(z + 10): roots of modulus 1
        ((3, 2), Fraction(3, 2), False),  # a rational radius: the root -3/2 is on it
        ((4, 2), Fraction(3, 2), True),
        ((1013, 1, 1009), 1, True),  # moduli 1.00198, above 1.001 by less than 0.1%
        ((-1001, 1000), 1, False),  # the root 1.001 is on the margin: refused
        ((-1002, 1000), 1, True),
        # above the degree cap, |a_0| > sum_{i>=1} |a_i| (1.001 d)^i proves
        # the rule: least modulus 1.0094, and 1109 > 1.001 + 1009 * 1.001^10
        ((1109, 1, *[0] * 8, 1009), 1, True),
        # 2^13333 is past the float range, so no root iteration could run
        ((3 * 2**13333, *[0] * 999, 1), 3, True),
    ])
    def test_exact_tests_settle_without_roots(self, coeffs, d, certified):
        def roots():
            raise AssertionError("roots asked for")

        assert certify_outside_disk(Polynomial(list(coeffs)), d, NUM, roots=roots) is certified

    def test_roots_asked_for_once_in_the_band(self):
        # above the degree cap the roots decide d = 1, which no exact test
        # settles: least moduli 2 (certified; (z - 2)^10 fails the
        # inequality at 1.001 by its middle coefficients), 1.0003 and 1.0007
        # (refused; 2 + z^1000 passes the inequality at d = 1 itself)
        for f, certified in ((Polynomial([-2, 1]) ** 10, True),
                             (Polynomial([1013, 1, *[0] * 8, 1009]), False),
                             (Polynomial([2, *[0] * 999, 1]), False)):
            calls = []

            def roots():
                calls.append(f)
                return numeric_roots(f)

            assert certify_outside_disk(f, 1, NUM, roots=roots) is certified
            assert calls == [f]


class TestRootFree:
    @pytest.mark.parametrize("coeffs, r, free", [
        ((1, 0, 1), 1, False),  # roots +-i on the circle
        ((1, 0, 1), Fraction(99, 100), True),
        ((4, -4, 1), 2, False),  # (z - 2)^2: a double root on the circle
        ((4, -4, 1), Fraction(19, 10), True),
        ((1013, 1, 1009), 1, True),  # moduli 1.00198
        ((1013, 1, 1009), Fraction(501, 500), False),
        ((-3, 1), 3, False),
        ((-3, 1), Fraction(299, 100), True),
    ])
    def test_roots_on_and_near_the_circle(self, coeffs, r, free):
        assert root_free(Polynomial(list(coeffs)), r) is free

    def test_refuses_a_negative_or_non_finite_radius(self):
        # the disk |z| <= -3 is empty, but |z| <= 3 holds the roots of modulus
        # sqrt(7); Fraction(inf) would raise OverflowError
        f = Polynomial([7, 1, 1])
        for r in (-3, Fraction(-1, 2), math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^disk radius must be finite and at least 0$"):
                root_free(f, r)
        assert root_free(f, 0) is True  # the disk {0}, and a_0 != 0

    @settings(max_examples=100, deadline=None)
    @given(_polys_with_nonzero_ends(),
           st.fractions(min_value=Fraction(1, 20), max_value=60, max_denominator=20))
    def test_matches_mpmath_moduli(self, f, r):
        # the exact answer is "the smallest root modulus exceeds r"; the
        # reference finds the roots of the squarefree part, which are simple
        # and so good to about 50 digits, and moduli within 10^-20 of r are
        # ties it cannot settle
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            try:
                roots = mpmath.polyroots(_squarefree_part(f.coeffs)[::-1], maxsteps=200,
                                         extraprec=200)
            except mpmath.libmp.NoConvergence:
                assume(False)
            gap = min(abs(z) for z in roots) - mpmath.mpf(r.numerator) / r.denominator
            assume(abs(gap) > mpmath.mpf(10) ** -20)
            assert root_free(f, r) is (gap > 0)


class TestSymbolicSoundness:
    def test_certified_disks_are_root_free(self):
        # wherever the exact inequality fires, every numeric root clears d
        checked = 0
        for f in list(gen_exhaustive(4, 4))[::7]:
            for d in (1, 2):
                if certify_outside_disk(f, d, SYM):
                    checked += 1
                    assert min(abs(r) for r in numeric_roots(f)) > d * (1 - 1e-9)
        assert checked > 25
