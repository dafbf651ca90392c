"""The exact brute-force factorization oracle: divisor-tuple interpolation
(Kronecker's method, from degree-1 factors up) after content and z-power
extraction.

Run:  python3 demos/04_factorization_oracle.py
"""

from irreducia import Polynomial, count_irreducible_factors, factor, verify
from irreducia.cli import render_factorization

SAMPLES = [
    Polynomial([-1, 0, 1]),                       # z^2 - 1
    Polynomial([1, 5, 6]),                        # non-monic split
    Polynomial([4, 4, 0, 1]),                     # irreducible cubic
    Polynomial([0, 0, -4, -8, -4]),               # content, z^2, square
    Polynomial([1, 0, 1]) * Polynomial([2, 1, 3]),  # two quadratics
    Polynomial([1, 1, 0, 1]) * Polynomial([1, 0, 1, 1]),  # two cubics
    Polynomial([-1, 0, 0, 0, 0, 0, 1]),           # z^6 - 1
]

for f in SAMPLES:
    result = factor(f)
    print(f"{str(f):34s} = {render_factorization(result):30s} "
          f"({result.nonconstant_factor_count()} factors, "
          f"verified={verify(result, f)})")

# count is multiplicative over products, which the audit leans on
f, g = Polynomial([1, 2, 3]), Polynomial([2, 0, 0, 1])
print("\ncount(f) + count(g) =",
      count_irreducible_factors(f) + count_irreducible_factors(g),
      " count(f*g) =", count_irreducible_factors(f * g))
