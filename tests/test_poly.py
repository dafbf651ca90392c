"""Exact polynomial arithmetic, normalization, rational roots."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from irreducia import poly
from irreducia.corpus import gen_exhaustive
from irreducia.poly import (
    Polynomial,
    content,
    divides_exactly,
    divmod_exact,
    is_primitive,
    normalize,
    rational_roots,
)


def naive_eval(f, x):
    """Power-by-power evaluation, independent of Horner."""
    return sum(c * x**i for i, c in enumerate(f.coeffs))


small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=7).map(Polynomial)


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

    def test_sparse_string(self):
        assert Polynomial([4, 4, 0, 1]).to_sparse_string() == "z^3 + 4z + 4"
        assert Polynomial([-1, 0, 1]).to_sparse_string() == "z^2 - 1"
        assert Polynomial([0, -1]).to_sparse_string() == "-z"
        assert Polynomial().to_sparse_string() == "0"

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
        q, r, exact = divmod_exact(Polynomial([-1, 0, 1]), Polynomial([-1, 1]))
        assert (q, r.is_zero(), exact) == (Polynomial([1, 1]), True, True)

    def test_divmod_reports_non_divisibility(self):
        f, g = Polynomial([1, 0, 1]), Polynomial([-1, 1])
        q, r, exact = divmod_exact(f, g)
        assert not exact
        assert q * g + r == f  # partial state still satisfies the identity

    def test_divmod_non_integral_step(self):
        q, r, exact = divmod_exact(Polynomial([0, 0, 1]), Polynomial([0, 2]))
        assert not exact
        assert q * Polynomial([0, 2]) + r == Polynomial([0, 0, 1])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod_exact(Polynomial([1]), Polynomial())

    @given(small_polys, small_polys)
    def test_mul_divmod_round_trip(self, f, g):
        if g.is_zero():
            return
        q, r, exact = divmod_exact(f * g, g)
        assert exact and q == f and r.is_zero()
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
