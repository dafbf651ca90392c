"""Family generators and audit corpora."""

import itertools
import math

import pytest

from irreducia.corpus import (
    FamilyConditionError,
    gen_exhaustive,
    gen_family,
    gen_p1,
    gen_p2,
    gen_p3,
    gen_p4,
    gen_random,
)
from irreducia.poly import Polynomial, is_primitive

from generators import gen_dominant_second


def p4_display_forms_agree(a: int, b: int, m: int, j: int) -> bool:
    """Whether truncating the low sum at i < j-1 (dropping the a^(j-1) b term)
    changes the pass/fail verdict of the P4 dominance inequality, both sides
    scaled by b^(m-1-j)."""
    lhs = (a**j - b**j + 1) * b ** (m - 1 - j)
    rhs = sum(a**i * b ** (j - i) for i in range(j)) * b ** (m - 1 - j) + 1
    truncated = rhs - a ** (j - 1) * b * b ** (m - 1 - j)
    return (lhs > rhs) == (lhs > truncated)


class TestP1:
    def test_reference_instance(self):
        assert gen_p1(2, 3, 2, 1) == Polynomial([4, 4, 0, 1])

    def test_negative_sign(self):
        assert gen_p1(2, 3, 2, -1) == Polynomial([4, 4, 0, -1])

    def test_block_length(self):
        f = gen_p1(3, 5, 3, 1)
        assert f.coeffs == (81, 81, 81, 0, 0, 1)

    def test_conditions(self):
        with pytest.raises(FamilyConditionError, match="prime"):
            gen_p1(4, 3, 2)
        with pytest.raises(FamilyConditionError, match="m >= n >= 2"):
            gen_p1(2, 2, 3)


@pytest.mark.parametrize("make", [
    lambda p: gen_p1(p, 2, 2),
    lambda p: gen_p2(p, 1, 1, 2, [1, 1]),
    lambda p: gen_p3(p, 1, 1, 2, 11, [1]),
], ids=["P1", "P2", "P3"])
def test_psi13_is_not_taken_for_a_prime(make):
    # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to every
    # base is_prime tries, and is composite
    with pytest.raises(FamilyConditionError, match="p must be a proven prime"):
        make(3_317_044_064_679_887_385_961_981)


class TestP2:
    def test_reference_instance(self):
        assert gen_p2(5, 1, 1, 2, [1, 1]) == Polynomial([5, 1, 1])

    def test_dominance_checked(self):
        # 5 > 2 * max(3, 1) fails
        with pytest.raises(FamilyConditionError, match="dominance"):
            gen_p2(5, 1, 1, 2, [3, 1])

    def test_p_divides_d_rejected(self):
        with pytest.raises(FamilyConditionError, match="divide"):
            gen_p2(5, 1, 5, 2, [1, 1])

    def test_zero_leading_rejected(self):
        with pytest.raises(FamilyConditionError, match="leading"):
            gen_p2(5, 1, 1, 2, [1, 0])

    def test_primitivity_checked(self):
        # 27 + 3z + 3z^2 passes dominance (27 > 2*3) but has content 3
        with pytest.raises(FamilyConditionError, match="primitive"):
            gen_p2(3, 3, 1, 2, [3, 3])


class TestP3:
    def test_reference_instance(self):
        assert gen_p3(5, 1, 1, 2, 11, [1]) == Polynomial([11, 1, 5])

    def test_size_condition_checked(self):
        # a0 = 25: |a0/q| = 5 <= 5 passes; a0 = 35: q = 5, 7 > 5 fails
        with pytest.raises(FamilyConditionError, match="size condition"):
            gen_p3(5, 1, 1, 2, 35, [0])

    def test_dominance_checked(self):
        with pytest.raises(FamilyConditionError, match="dominance"):
            gen_p3(5, 1, 1, 2, 7, [0])


class TestP4:
    def test_reference_instance(self):
        assert gen_p4(3, 1, 3, 2) == Polynomial([1, 3, 9, 1])

    def test_gap_and_signs(self):
        f = gen_p4(3, 1, 5, 2, signs=[-1, 1, -1])
        assert f.coeffs == (1, -3, 9, 0, 0, -1)

    def test_side_conditions(self):
        with pytest.raises(FamilyConditionError, match="b < a - b"):
            gen_p4(4, 2, 3, 1)
        with pytest.raises(FamilyConditionError, match="m >= 3"):
            gen_p4(3, 1, 2, 1)
        with pytest.raises(FamilyConditionError, match="1 <= j <= m-1"):
            gen_p4(3, 1, 3, 3)

    def test_display_truncation_always_differs_in_value_not_verdict(self):
        # dropping the i = j-1 term changes the sum but never the verdict
        # for valid parameter ranges
        for a in (3, 4, 5):
            for m in (3, 4, 5):
                for j in range(1, m):
                    assert p4_display_forms_agree(a, 1, m, j)


class TestGenFamily:
    def test_dispatch(self):
        assert gen_family("P1", {"p": 2, "m": 3, "n": 2, "sign": 1}) == Polynomial([4, 4, 0, 1])

    def test_unknown_family(self):
        with pytest.raises(FamilyConditionError, match="unknown family"):
            gen_family("P9", {})

    def test_unknown_parameter(self):
        with pytest.raises(FamilyConditionError, match="unknown parameters"):
            gen_family("P1", {"p": 2, "m": 3, "n": 2, "weird": 1})


class TestExhaustive:
    def test_degree_one_unit_bound(self):
        polys = list(gen_exhaustive(1, 1))
        assert set(polys) == {Polynomial([1, 1]), Polynomial([-1, 1])}

    def test_contains_reference(self):
        assert Polynomial([1, 1, 1]) in set(gen_exhaustive(2, 1))

    def test_all_primitive_nonzero_ends_canonical(self):
        for f in gen_exhaustive(3, 2):
            assert is_primitive(f)
            assert f.constant_term != 0
            assert f.leading_coefficient > 0  # global-sign representative

    def test_count_formula(self):
        # degree d: a_0 in +-[1..B], middles in [-B..B], lead in [1..B],
        # minus imprimitive tuples; at B = 1 everything is primitive:
        # 2 degree-1 polys plus 2*3 degree-2 polys
        assert len(list(gen_exhaustive(2, 1))) == 2 + 2 * 3
        assert len(list(gen_exhaustive(1, 2))) == len(
            [
                (a, b)
                for a in (-2, -1, 1, 2)
                for b in (1, 2)
                if math.gcd(a, b) == 1
            ]
        )

    def test_same_stream_as_checked_constructor(self):
        # the stream skips Polynomial's checks; building each tuple through
        # them must give the same polynomials in the same order
        def checked(max_degree, bound):
            nonzero = [c for c in range(-bound, bound + 1) if c != 0]
            full = range(-bound, bound + 1)
            for degree in range(1, max_degree + 1):
                ranges = [nonzero] + [full] * (degree - 1) + [range(1, bound + 1)]
                for tup in itertools.product(*ranges):
                    if math.gcd(*tup) == 1:
                        yield Polynomial(tup)

        polys = list(gen_exhaustive(3, 4))
        assert [f.coeffs for f in polys] == [f.coeffs for f in checked(3, 4)]
        assert all(type(c) is int for f in polys for c in f.coeffs)

    def test_sweep_corpus_size(self):
        assert sum(1 for _ in gen_exhaustive(5, 5)) == 798_518

    def test_invalid_bounds(self):
        with pytest.raises(ValueError, match="invalid bound"):
            list(gen_exhaustive(0, 3))
        with pytest.raises(ValueError, match="invalid bound"):
            list(gen_exhaustive(3, 0))

    def test_corpus_too_large_to_build(self):
        # refused before any range is built; degree <= 8, |c| <= 5 stays allowed
        with pytest.raises(ValueError, match="invalid bound"):
            next(gen_exhaustive(5, 10**4))
        with pytest.raises(ValueError, match="invalid bound"):
            next(gen_exhaustive(1, 10**30))
        assert next(gen_exhaustive(8, 5)) == Polynomial([-5, 1])


class TestRandom:
    def test_determinism(self):
        a = gen_random(25, 4, 5, seed=42)
        b = gen_random(25, 4, 5, seed=42)
        assert a == b
        assert gen_random(25, 4, 5, seed=43) != a

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            gen_random(0, 4, 5, seed=1)
        with pytest.raises(ValueError, match="invalid bound"):
            gen_random(1, 0, 3, 0)

    def test_count_and_filters(self):
        polys = gen_random(50, 4, 5, seed=1)
        assert len(polys) == 50
        for f in polys:
            assert is_primitive(f)
            assert f.constant_term != 0 and f.leading_coefficient != 0


class TestDominantSecond:
    def test_inequality_holds_by_construction(self):
        for f in gen_dominant_second(100, seed=8):
            m = f.degree
            am = abs(f.leading_coefficient)
            rhs = 1 + sum(
                abs(f.coeffs[i]) * am ** (m - 1 - i) for i in range(m - 1)
            )
            assert abs(f.coeffs[m - 1]) > rhs
            assert is_primitive(f)

    def test_determinism(self):
        assert gen_dominant_second(10, seed=5) == gen_dominant_second(10, seed=5)
