"""Tour of the exact polynomial layer: construction, arithmetic,
normalization and rational roots.

Run:  python3 demos/01_polynomials_and_normalization.py
"""

from fractions import Fraction

from irreducia import (
    Polynomial,
    content,
    divides_exactly,
    normalize,
    rational_roots,
)

# Coefficients are stored lowest power first: [4, 4, 0, 1] is 4 + 4z + z^3.
f = Polynomial([4, 4, 0, 1])
print("f =", f)
print("degree:", f.degree, " leading:", f.leading_coefficient)

# Arithmetic is exact at any size.
g = Polynomial([1, 2]) * Polynomial([1, 3])
print("\n(2z+1)(3z+1) =", g)
big = Polynomial([10**30, 1]) ** 3
print("(z + 10^30)^3 constant term has", len(str(big.constant_term)), "digits")

# Division is exact or nothing: divides_exactly(g, f) is f/g when g divides
# f over the integers, and None otherwise (no rational quotients).
print("\n(z^2-1) / (z-1) ->", divides_exactly(Polynomial([-1, 1]), Polynomial([-1, 0, 1])))
print("(z^2+1) / (z-1) ->", divides_exactly(Polynomial([-1, 1]), Polynomial([1, 0, 1])))

# Every criterion works on a primitive polynomial with nonzero constant
# term; normalize() peels off the content and any power of z.
messy = Polynomial([0, 8, 4])  # 4z^2 + 8z
n = normalize(messy)
print("\nnormalize(4z^2 + 8z):")
print("  content      =", n.content)
print("  z-power      =", n.z_power)
print("  primitive    =", n.primitive_part)
print("  content of primitive part:", content(n.primitive_part))

# Rational roots come from l-adic lifting, each verified exactly.
h = Polynomial([1, 5, 6])
print("\nrational roots of 6z^2+5z+1:", sorted(rational_roots(h)))
print("evaluate at -1/2:", h.evaluate(Fraction(-1, 2)))
