"""Exact polynomial arithmetic, normalization, rational roots."""

import copy
import pickle
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from irreducia import poly
from irreducia.corpus import gen_exhaustive
from irreducia.criteria import PolyFacts
from irreducia.poly import (
    Polynomial,
    PolyParseError,
    content,
    divides_exactly,
    is_primitive,
    normalize,
    rational_roots,
)


def naive_eval(f, x):
    """Power-by-power evaluation, independent of Horner."""
    return sum(c * x**i for i, c in enumerate(f.coeffs))


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=7).map(Polynomial)
P = poly._SQUAREFREE_PRIME  # the prime of the modular squarefree check


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0, 0]).is_zero()
        assert Polynomial().degree == -1

    def test_degree_and_accessors(self):
        f = Polynomial([4, 4, 0, 1])
        assert f.degree == 3
        assert f.leading_coefficient == 1
        assert f.constant_term == 4
        assert f.coeffs[2] == 0

    def test_negative_power_and_zero_leading_coefficient(self):
        with pytest.raises(ValueError, match="negative power"):
            Polynomial([1, 1]) ** -1
        with pytest.raises(ValueError, match="no leading coefficient"):
            Polynomial().leading_coefficient

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Polynomial([1.5, 2])

    def test_pickles_and_copies_at_every_protocol(self):
        # a class with __slots__ pickles at protocols 0 and 1 only through its
        # own __reduce__, and reports and factorizations hold polynomials
        from irreducia.criteria import analyze
        from irreducia.oracle import factor

        values = [Polynomial([4, 4, 0, 1]), Polynomial(), Polynomial([-(10**40), 3]),
                  factor(Polynomial([-4, 0, 1]) * Polynomial([1, 1, 1])),
                  analyze(Polynomial([4, 4, 0, 1])), analyze(Polynomial([0, 6, 4])),
                  analyze(Polynomial([6, 4, 0, 2, 1]))]
        for value in values:
            copies = [pickle.loads(pickle.dumps(value, proto))
                      for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
            for copied in (*copies, copy.copy(value), copy.deepcopy(value)):
                assert copied == value
                assert type(copied) is type(value)

    def test_sparse_string(self):
        assert Polynomial([4, 4, 0, 1]).to_sparse_string() == "z^3 + 4z + 4"
        assert Polynomial([-1, 0, 1]).to_sparse_string() == "z^2 - 1"
        assert Polynomial([0, -1]).to_sparse_string() == "-z"
        assert Polynomial().to_sparse_string() == "0"

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000,
        reason="no int-to-string digit limit below 5,001 digits",
    )
    def test_sparse_string_names_a_coefficient_past_the_digit_limit(self):
        with pytest.raises(PolyParseError, match=r"^coefficient of z\^0 has 5001 digits"):
            Polynomial([10**5000, 1]).to_sparse_string()

    @given(small_polys, small_polys, st.integers(-5, 5))
    def test_ring_homomorphism_at_points(self, f, g, x):
        assert (f + g).evaluate(x) == f.evaluate(x) + g.evaluate(x)
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)
        assert (f - g).evaluate(x) == f.evaluate(x) - g.evaluate(x)


class TestContentNormalize:
    def test_content_examples(self):
        assert content(Polynomial([4, 0, 2])) == 2  # 2z^2 + 4
        assert content(Polynomial([4, 4, 0, 1])) == 1  # unit leading coefficient
        # gcd chain by hand: gcd(6, 10) = 2, gcd(2, 2) = 2
        assert content(Polynomial([6, 10, 2])) == 2

    def test_content_zero_rejected(self):
        with pytest.raises(ValueError, match="content"):
            content(Polynomial())

    def test_normalize_examples(self):
        n = normalize(Polynomial([0, 8, 4]))  # 4z^2 + 8z
        assert (n.content, n.z_power) == (4, 1)
        assert n.primitive_part == Polynomial([2, 1])

        n = normalize(Polynomial([4, 4, 0, 1]))
        assert (n.content, n.z_power) == (1, 0)
        assert n.primitive_part == Polynomial([4, 4, 0, 1])

        n = normalize(Polynomial([50, 5, 1]))
        assert (n.content, n.z_power) == (1, 0)

    def test_normalize_returns_a_normalized_input_itself(self):
        for coeffs in ([4, 4, 0, 1], [3, 1, -2], [-1], [5, 0, 0, -7]):
            f = Polynomial(coeffs)
            n = normalize(f)
            assert (n.content, n.z_power) == (1, 0)
            assert n.primitive_part is f

    @pytest.mark.parametrize("coeffs, content_, z_power, prim", [
        ([6, 4, 2], 2, 0, [3, 2, 1]),  # content > 1
        ([0, 0, 3, 1], 1, 2, [3, 1]),  # a power of z
        ([0, 6, 0, -4], 2, 1, [3, 0, -2]),  # both, with a negative leading coefficient
        ([-4, 2, -6], 2, 0, [-2, 1, -3]),
        ([0, -5], 5, 1, [-1]),
    ])
    def test_normalize_splits_off_content_and_z_power(self, coeffs, content_, z_power, prim):
        f = Polynomial(coeffs)
        n = normalize(f)
        assert (n.content, n.z_power, n.primitive_part) == (content_, z_power, Polynomial(prim))
        assert n.primitive_part is not f

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(Polynomial())

    def test_normalize_reconstruction(self):
        # content * z^zPower * primitive part == original, over a mixed corpus
        sample = [
            Polynomial([0, 0, -6, 9]),
            Polynomial([-4, 8]),
            Polynomial([0, 5]),
            Polynomial([7]),
        ] + list(gen_exhaustive(3, 2))
        for f in sample:
            n = normalize(f)
            rebuilt = Polynomial([0] * n.z_power + [n.content]) * n.primitive_part
            assert rebuilt == f
            assert is_primitive(n.primitive_part)
            assert n.primitive_part.constant_term != 0


class TestEvaluate:
    def test_hand_checked_values(self):
        f = Polynomial([4, 2, 2, 1])  # z^3 + 2z^2 + 2z + 4
        assert f.evaluate(-2) == 0  # -8 + 8 - 4 + 4
        assert f.evaluate(0) == f.constant_term
        assert Polynomial([2, 2, 1]).evaluate(1) == 5

    def test_horner_matches_naive_on_rationals(self):
        polys = list(gen_exhaustive(3, 2))[::37]
        points = [Fraction(1, 2), Fraction(-3, 7), Fraction(5), Fraction(-2, 9)]
        for f in polys:
            for x in points:
                assert f.evaluate(x) == naive_eval(f, x)


class TestMulDiv:
    def test_schoolbook_products(self):
        assert Polynomial([-1, 1]) * Polynomial([1, 1]) == Polynomial([-1, 0, 1])
        # (2z+1)(3z+1): constant 1, z: 2+3, z^2: 6
        assert Polynomial([1, 2]) * Polynomial([1, 3]) == Polynomial([1, 5, 6])

    def test_divmod_exact_quotient(self):
        assert divides_exactly(Polynomial([-1, 1]), Polynomial([-1, 0, 1])) == Polynomial([1, 1])

    def test_divmod_reports_non_divisibility(self):
        # (z^2 + 1) / (z - 1): every step is integral, the remainder 2 is not zero
        assert divides_exactly(Polynomial([-1, 1]), Polynomial([1, 0, 1])) is None

    def test_divmod_non_integral_step(self):
        # z^2 / 2z: the first quotient step 1/2 is not an integer
        assert divides_exactly(Polynomial([0, 2]), Polynomial([0, 0, 1])) is None

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divides_exactly(Polynomial(), Polynomial([1]))

    @given(small_polys, small_polys)
    def test_mul_divmod_round_trip(self, f, g):
        if g.is_zero():
            return
        assert divides_exactly(g, f * g) == f


class TestRationalRoots:
    def test_candidate_scan_example(self):
        f = Polynomial([4, 2, 2, 1])
        # independent scan: all p/q with p | 4, q | 1
        expected = {
            Fraction(p, q)
            for q in (1,)
            for p in (1, -1, 2, -2, 4, -4)
            if naive_eval(f, Fraction(p, q)) == 0
        }
        assert expected == {Fraction(-2)}
        assert rational_roots(f) == {Fraction(-2)}

    def test_no_real_roots(self):
        assert rational_roots(Polynomial([1, 0, 1])) == set()

    def test_roots_from_factorization(self):
        # oracle gives (2z+1)(3z+1), hence roots -1/2 and -1/3
        assert rational_roots(Polynomial([1, 5, 6])) == {Fraction(-1, 2), Fraction(-1, 3)}

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(Polynomial([0, 1]))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            rational_roots(Polynomial())

    def test_power_rich_constant_term_is_fast(self):
        # a scan over p | a_0 walks the 1,002,001 divisors of 10^1000
        f = Polynomial([10**1000, 1, 1])
        start = time.perf_counter()
        assert rational_roots(f) == set()
        assert time.perf_counter() - start < 0.1

    def test_repeated_factors_with_a_root_mod_every_prime(self, monkeypatch):
        # one of 2, 3 and 6 is a square mod every odd prime, so the square of
        # g shows a multiple root mod every prime that can be tried, and only
        # its squarefree part settles it
        g = Polynomial([-2, 0, 1]) * Polynomial([-3, 0, 1]) * Polynomial([-6, 0, 1])
        reductions = []
        real = poly._squarefree_part
        monkeypatch.setattr(
            poly, "_squarefree_part", lambda coeffs: reductions.append(coeffs) or real(coeffs)
        )
        assert rational_roots(g * g) == set()
        assert rational_roots(g * g * Polynomial([3, 2]) ** 2) == {Fraction(-3, 2)}
        assert len(reductions) == 2

    def test_squarefree_degree_400_is_fast(self):
        # 3..17 divide a_0 and a_1, so z = 0 is a double root modulo each of
        # the first six primes; the modular check then proves f squarefree,
        # and the exact squarefree part, seconds at this degree, is not taken
        rng = random.Random(1)
        f = Polynomial([1021020, 510510, *(2 * rng.randint(1, 4) for _ in range(2, 400)), 1])
        start = time.process_time()
        assert rational_roots(f) == set()
        assert time.process_time() - start < 0.5

    @pytest.mark.parametrize("f, roots", [
        # P = 2^61 - 1 divides a_m, so the modular check cannot speak, and
        # (Pz + 1) has a double root mod every other prime
        (Polynomial([1, P]) ** 2, {Fraction(-1, P)}),
        (Polynomial([1, P]) ** 2 * Polynomial([-2, 1]), {Fraction(-1, P), Fraction(2)}),
        (Polynomial([1, P]) ** 2 * Polynomial([-3, 2]) ** 2 * Polynomial([1, 0, 1]),
         {Fraction(-1, P), Fraction(3, 2)}),
        (Polynomial([1, 2 * P]) * Polynomial([-3, 0, 1]) ** 2, {Fraction(-1, 2 * P)}),
    ])
    def test_leading_coefficient_divisible_by_the_check_prime(self, f, roots):
        assert rational_roots(f) == roots
        assert PolyFacts(f).has_rational_root() is True

    def test_squarefree_part(self):
        squarefree = Polynomial([1, 1]) * Polynomial([1, 0, 1]) * Polynomial([-3, 2])
        f = Polynomial([1, 1]) ** 3 * Polynomial([1, 0, 1]) ** 2 * Polynomial([-3, 2])
        assert Polynomial(poly._squarefree_part(f.coeffs)) in (squarefree, -squarefree)
        assert Polynomial(poly._squarefree_part(squarefree.coeffs)) in (squarefree, -squarefree)

    def test_completeness_over_candidates(self):
        from irreducia.numtheory import positive_divisors

        for f in list(gen_exhaustive(3, 3))[::11]:
            candidates = {
                Fraction(sp * p, q)
                for p in positive_divisors(f.constant_term)
                for q in positive_divisors(f.leading_coefficient)
                for sp in (1, -1)
            }
            expected = {r for r in candidates if naive_eval(f, r) == 0}
            assert rational_roots(f) == expected


_factors = st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda c: c[-1])


@st.composite
def _squarefree_mod_inputs(draw):
    """g^2 h, with g and h of degree >= 1: as drawn, with P times the leading
    coefficient of g or of h, or with g a constant modulo P."""
    g, h = Polynomial(draw(_factors)), Polynomial(draw(_factors))
    kind = draw(st.sampled_from(("plain", "g", "h", "g constant mod P")))
    if kind == "g":
        g = Polynomial([*g.coeffs[:-1], P * g.coeffs[-1]])
    elif kind == "h":
        h = Polynomial([*h.coeffs[:-1], P * h.coeffs[-1]])
    elif kind == "g constant mod P":
        g = Polynomial([g.coeffs[0] or 1, *(P * c for c in g.coeffs[1:])])
    return g * g * h


class TestSquarefreeCheck:
    @given(st.one_of(_factors.map(Polynomial), _squarefree_mod_inputs()))
    @example(Polynomial([1, P]) ** 2 * Polynomial([-2, 1]))  # (Pz + 1)^2 is 1 mod P
    @example(Polynomial([3, 2]) ** 2 * Polynomial([1, 0, 1]))
    def test_never_calls_a_square_factor_squarefree(self, f):
        squarefree = len(poly._squarefree_part(f.coeffs)) == len(f.coeffs)
        if poly._squarefree_mod(f.coeffs):
            assert squarefree, f
        if f.leading_coefficient % P == 0:
            assert not poly._squarefree_mod(f.coeffs)

    def test_proves_these_squarefree(self):
        for f in (Polynomial([1, 1]), Polynomial([1021020, 510510, 0, 1]),
                  Polynomial([-2, 0, 1]) * Polynomial([-3, 0, 1]) * Polynomial([-6, 0, 1])):
            assert poly._squarefree_mod(f.coeffs) is True


class TestRationalRootFlag:
    def test_matches_rational_roots_on_quadratics(self):
        # the discriminant test: no root, two roots, and a square (disc = 0)
        quadratics = [f for f in gen_exhaustive(2, 6) if f.degree == 2]
        quadratics += [Polynomial([1, 1]) ** 2, Polynomial([3, 2]) ** 2 * Polynomial([-1]),
                       Polynomial([-9, 0, 4])]
        for f in quadratics:
            assert poly._has_rational_root(f.coeffs) is bool(rational_roots(f)), f

    def test_ends_on_a_cubic_with_a_repeated_factor(self, monkeypatch):
        # (z + 1)^2 (2z + 3) has a double root mod every prime, so only its
        # squarefree part settles it, once the modular check has failed
        f = Polynomial([1, 1]) ** 2 * Polynomial([3, 2])
        reductions = []
        real = poly._squarefree_part
        monkeypatch.setattr(
            poly, "_squarefree_part", lambda coeffs: reductions.append(coeffs) or real(coeffs)
        )
        assert poly._has_rational_root(f.coeffs) is bool(rational_roots(f)) is True
        assert len(reductions) == 2

    def test_takes_no_squarefree_step_on_a_squarefree_cubic(self, monkeypatch):
        # 3..17 divide a_0 and a_1, so z = 0 is a multiple root modulo each
        # of the first six primes; the modular check then proves f
        # squarefree, so neither scan reaches the costly squarefree step
        f = Polynomial([1021020, 510510, 0, 1])
        monkeypatch.setattr(poly, "_squarefree_part", lambda coeffs: pytest.fail("squarefree step"))
        assert poly._has_rational_root(f.coeffs) is bool(rational_roots(f)) is False

    @pytest.mark.parametrize("m", [40, 80])
    def test_a_repeated_linear_factor_is_fast(self, m):
        # (z + 1)^2 h, h random: a double root mod every prime, so the
        # modular check must find the square factor at once
        rng = random.Random(3)
        h = [rng.randint(-9, 9) for _ in range(m - 1)]
        h[0], h[-1] = h[0] or 1, h[-1] or 1
        f = Polynomial([1, 1]) ** 2 * Polynomial(h)
        start = time.process_time()
        assert PolyFacts(f).has_rational_root() is True
        assert time.process_time() - start < 0.5
        assert Fraction(-1) in rational_roots(f)
