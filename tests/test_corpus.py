"""Family generators and audit corpora."""

import inspect
import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irreducia.corpus import (
    FAMILIES,
    FamilyConditionError,
    gen_exhaustive,
    gen_family,
    gen_p1,
    gen_p2,
    gen_p3,
    gen_p4,
    gen_random,
)
from irreducia.poly import MAX_INPUT_DEGREE, Polynomial, PolyParseError, is_primitive

from generators import gen_dominant_second


def p4_display_sides(a: int, b: int, m: int, j: int) -> tuple[int, int]:
    """Both sides of the P4 dominance inequality as displayed, scaled by
    b^(m-1-j): (a^j - b^j + 1) b^(m-1-j) and sum_{i<j} a^i b^(j-i) b^(m-1-j) + 1."""
    lhs = (a**j - b**j + 1) * b ** (m - 1 - j)
    rhs = sum(a**i * b ** (j - i) for i in range(j)) * b ** (m - 1 - j) + 1
    return lhs, rhs


def p4_display_forms_agree(a: int, b: int, m: int, j: int) -> bool:
    """Whether truncating the low sum at i < j-1 (dropping the a^(j-1) b term)
    changes the pass/fail verdict of the P4 dominance inequality, both sides
    scaled by b^(m-1-j)."""
    lhs, rhs = p4_display_sides(a, b, m, j)
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


# each family at a degree one above the parser's maximum; P2 and P3 are
# refused before their coefficient lists are counted
@pytest.mark.parametrize("make", [
    lambda m: gen_p1(3, m, 2),
    lambda m: gen_p2(5, 1, 1, m, [1]),
    lambda m: gen_p3(5, 1, 1, m, 11, [1]),
    lambda m: gen_p4(3, 1, m, 2),
], ids=["P1", "P2", "P3", "P4"])
def test_degree_above_the_input_maximum_is_refused(make):
    with pytest.raises(PolyParseError, match=f"^degree {MAX_INPUT_DEGREE + 1} above"):
        make(MAX_INPUT_DEGREE + 1)


needs_digit_limit = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000,
    reason="no int-to-string digit limit below 5,001 digits",
)


# p = 2^61 - 1 has 19 digits: p^999 has 18,343 and p^300 has 5,509, so
# each of these coefficients is past the limit, and is refused unbuilt
@needs_digit_limit
@pytest.mark.parametrize("make, power", [
    (lambda p: gen_p1(p, 1000, 2), 0),
    (lambda p: gen_p2(p, 300, 1, 2, [1, 1]), 0),
    (lambda p: gen_p3(p, 300, 1, 2, 11, [1]), 2),
    (lambda p: gen_p4(p, 1, 1000, 300), 300),
], ids=["P1", "P2", "P3", "P4"])
def test_coefficient_past_the_digit_limit_is_refused(make, power):
    with pytest.raises(PolyParseError, match=rf"^coefficient of z\^{power} has \d+ digits"):
        make(2**61 - 1)


# the dominance tests keep one running power of d and stop once it reaches
# |a_0|, and P4's inequality is implied by b < a - b, so none of these builds
# d^1000 or b^998
@pytest.mark.parametrize("make, refused", [
    (lambda: gen_p2(3, 1, 10**4000 + 1, 1000, [1] * 1000), True),
    (lambda: gen_p3(3, 1, 10**2000 + 1, 1000, 10**4000 + 1, [1] * 999), True),
    (lambda: gen_p4(10**4000 + 7, 10**3999, 1000, 1), False),
], ids=["P2", "P3", "P4"])
def test_big_parameters_are_decided_at_once(make, refused):
    start = time.perf_counter()
    if refused:
        with pytest.raises(FamilyConditionError, match="^dominance condition fails"):
            make()
    else:
        assert make().degree == 1000
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("make, error", [
    (lambda: gen_p1(3, 10**5000, 2), PolyParseError),  # m past the digit limit
    (lambda: gen_p1(10**5000 + 1, 2, 2), FamilyConditionError),  # not a prime
    (lambda: gen_p2(3, 1, 3 * 10**5000 + 3, 2, [1, 1]), FamilyConditionError),  # p | d
    (lambda: gen_p4(3, 10**5000, 3, 1), FamilyConditionError),  # b >= a - b
    (lambda: gen_p4(10**5000, 1, 10**5000, 1), PolyParseError),  # m past the digit limit
    # an exponent past the float range: the digit estimate would overflow
    (lambda: gen_p2(3, 10**400, 1, 2, [1, 1]), PolyParseError),
    (lambda: gen_p3(3, 10**400, 1, 2, 5, [1]), PolyParseError),
], ids=["P1-m", "P1-p", "P2-d", "P4-b", "P4-m", "P2-k", "P3-k"])
def test_oversized_parameters_are_refused_at_once(make, error):
    start = time.process_time()
    with pytest.raises(error):
        make()
    assert time.process_time() - start < 1.0


@needs_digit_limit
def test_oversized_parameter_is_named_by_its_digit_count():
    with pytest.raises(FamilyConditionError, match=r"^p=3 must not divide d=<5001 digits>$"):
        gen_p2(3, 1, 3 * 10**5000 + 3, 2, [1, 1])
    with pytest.raises(FamilyConditionError, match=r"^need b < a - b, got b=<5001 digits>, "
                                                   r"a-b=-<5000 digits>$"):
        gen_p4(3, 10**5000, 3, 1)
    with pytest.raises(PolyParseError, match=r"^degree <5001 digits> above the maximum"):
        gen_p1(3, 10**5000, 2)
    # in the limit, the numbers are written in full
    with pytest.raises(FamilyConditionError, match=r"^p=3 must not divide d=6$"):
        gen_p2(3, 1, 6, 2, [1, 1])


coefficient = st.integers(-3, 3)


@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(1, 4),
       st.sampled_from((1, -1)), st.data())
@settings(max_examples=300, deadline=None)
def test_p2_dominance_is_the_full_power_inequality(p, k, d, sign, data):
    assume(d % p != 0)
    m = data.draw(st.integers(2, 5))
    tail = data.draw(st.lists(coefficient, min_size=m, max_size=m).filter(lambda t: t[-1]))
    holds = p**k > m * max(abs(a) * d ** (i - 1) for i, a in enumerate(tail, start=1))
    try:
        f = gen_p2(p, k, d, m, tail, sign)
    except FamilyConditionError as exc:  # a refusal for primitivity comes after dominance
        assert str(exc).startswith("dominance condition fails") == (not holds)
    else:
        assert holds and f.coeffs == (sign * p**k * d, *tail)


@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 3), st.integers(1, 4),
       st.sampled_from((1, -1)), st.data())
@settings(max_examples=300, deadline=None)
def test_p3_dominance_is_the_full_power_inequality(p, k, d, sign, data):
    assume(d % p != 0)
    m = data.draw(st.integers(2, 5))
    middle = data.draw(st.lists(coefficient, min_size=m - 1, max_size=m - 1))
    biggest = max([abs(a) * d**i for i, a in enumerate(middle, start=1)] + [p**k * d ** (m + 1)])
    # a_0 within 3 of the threshold m * biggest (>= 4), with either sign
    a0 = data.draw(st.sampled_from((1, -1))) * (m * biggest + data.draw(coefficient))
    holds = abs(a0) > m * biggest
    try:
        f = gen_p3(p, k, d, m, a0, middle, sign)
    except FamilyConditionError as exc:  # the size and primitivity tests come after it
        assert str(exc).startswith("dominance condition fails") == (not holds)
    else:
        assert holds and f.coeffs == (a0, *middle, sign * p**k * d)


@given(st.integers(1, 10**30), st.integers(1, 10**30), st.integers(3, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_p4_accepts_only_where_the_display_inequality_holds(a, b, m, data):
    j = data.draw(st.integers(1, m - 1))
    try:
        gen_p4(a, b, m, j)
    except FamilyConditionError as exc:
        assert str(exc).startswith("need b < a - b") and b >= a - b
    else:
        lhs, rhs = p4_display_sides(a, b, m, j)
        assert lhs > rhs


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

    @pytest.mark.parametrize("name, params, signs", [
        ("P1", {"p": 2, "m": 3, "n": 2}, {"sign": 1}),
        ("P2", {"p": 5, "k": 1, "d": 1, "m": 2, "tail": [1, 1]}, {"sign": 1}),
        ("P3", {"p": 5, "k": 1, "d": 1, "m": 2, "a0": 11, "middle": [1]}, {"sign": 1}),
        ("P4", {"a": 5, "b": 1, "m": 4, "j": 2}, {"signs": [1, 1, 1]}),
    ])
    def test_missing_parameter(self, name, params, signs):
        # every parameter but the signs is required, as the generator's
        # signature says; a missing one is the family's error, not a TypeError
        for key in params:
            with pytest.raises(FamilyConditionError, match=f"^family {name} needs --{key}$"):
                gen_family(name, {k: v for k, v in params.items() if k != key})
        # the signs left out are all +
        assert gen_family(name, params) == gen_family(name, {**params, **signs})

    @pytest.mark.parametrize("name, params", [
        ("P1", {"p": 2, "m": 3, "n": 2, "sign": -1}),
        ("P2", {"p": 5, "k": 1, "d": 1, "m": 2, "tail": [1, 1], "sign": -1}),
        ("P3", {"p": 5, "k": 1, "d": 1, "m": 2, "a0": 11, "middle": [1], "sign": -1}),
        ("P4", {"a": 5, "b": 1, "m": 4, "j": 2, "signs": [-1, 1, -1]}),
    ])
    def test_every_parameter_in_the_signature_is_accepted(self, name, params):
        # FAMILIES maps a name to its generator, whose signature is the
        # family's parameter list
        generator = FAMILIES[name]
        assert list(params) == list(inspect.signature(generator).parameters)
        assert gen_family(name, params) == generator(**params)

    def test_missing_parameters_are_named_in_signature_order(self):
        with pytest.raises(FamilyConditionError, match="^family P3 needs --d, --a0$"):
            gen_family("P3", {"middle": [1], "p": 5, "k": 1, "m": 2})


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


def ref_gen_random(count, max_degree, coeff_bound, seed):
    """`gen_random` as it was: the whole list, built before it is returned."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        degree = rng.randint(1, max_degree)
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree + 1)]
        if coeffs[0] == 0 or coeffs[-1] == 0:
            continue
        if math.gcd(*coeffs) != 1:
            continue
        out.append(Polynomial(coeffs))
    return out


class TestRandom:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_same_sequence_as_the_list_it_replaced(self, seed):
        assert list(gen_random(400, 6, 4, seed)) == ref_gen_random(400, 6, 4, seed)

    def test_yields_before_drawing_the_rest(self):
        # the first of 10^12 polynomials comes at once, with no list built
        start = time.perf_counter()
        first = next(iter(gen_random(10**12, 3, 3, 0)))
        assert time.perf_counter() - start < 1
        assert first == ref_gen_random(1, 3, 3, 0)[0]

    def test_degree_above_the_input_maximum(self):
        # refused at the call with the parser's message, as the families are
        with pytest.raises(PolyParseError, match=f"degree {MAX_INPUT_DEGREE + 1} above the maximum"):
            gen_random(1, MAX_INPUT_DEGREE + 1, 1, 0)
        assert next(gen_random(1, MAX_INPUT_DEGREE, 1, 0)).degree <= MAX_INPUT_DEGREE

    def test_determinism(self):
        a = list(gen_random(25, 4, 5, seed=42))
        b = list(gen_random(25, 4, 5, seed=42))
        assert a == b
        assert list(gen_random(25, 4, 5, seed=43)) != a

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            gen_random(0, 4, 5, seed=1)
        with pytest.raises(ValueError, match="^invalid bound: max degree must be >= 1, got 0$"):
            gen_random(1, 0, 3, 0)
        with pytest.raises(ValueError, match="^invalid bound: coefficient bound must be >= 1, "
                                             "got -2$"):
            gen_random(1, 3, -2, 0)

    def test_count_and_filters(self):
        polys = list(gen_random(50, 4, 5, seed=1))
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
