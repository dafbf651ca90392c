"""One showcase polynomial per criterion, with the witnesses it found.

Run:  python3 demos/02_criteria_tour.py
"""

from irreducia import (
    PolyFacts,
    Polynomial,
    analyze,
    constant_term_criterion,
    dominant_coefficient,
    eisenstein_generalized,
    leading_coeff_criterion,
    middle_prime_power_check,
    perron_nonmonic,
    weintraub_check,
)

SHOWCASES = [
    (weintraub_check, Polynomial([4, 2, 1]),
     "2 divides both lower coefficients, 4 misses a_1, no rational root"),
    (eisenstein_generalized, Polynomial([4, 4, 0, 1]),
     "p=2 with k=2 covers the prefix, j=3=m, gcd(2,3)=1"),
    (constant_term_criterion, Polynomial([75, 1, 1]),
     "75 = 3 * 5^2; the p=5 cofactor d=3 gives a root-free disk"),
    (leading_coeff_criterion, Polynomial([7, 1, 5]),
     "leading 5 is a bare prime, constant 7/7 = 1 <= 5"),
    (dominant_coefficient, Polynomial([1, 3, 9, 1]),
     "middle 9 dominates 1+3 below and 1 above"),
    (perron_nonmonic, Polynomial([3, 10, 2]),
     "10 > 1 + 3*2 with a non-monic leading coefficient"),
    (middle_prime_power_check, Polynomial([1, 1, 16, 1]),
     "16 = 2^4 in the z^2 slot beats 1 + 1 + 1"),
]

for fn, f, why in SHOWCASES:
    out = fn(PolyFacts(f))
    kind = out.conclusion.kind.value
    if out.conclusion.bound is not None:
        kind += f"({out.conclusion.bound})"
    witnesses = ", ".join(f"{k}={v}" for k, v in out.witnesses.items()) or "-"
    print(f"{fn.__name__:26s} {str(f):24s} -> {kind:16s} [{witnesses}]")
    print(f"{'':26s} {why}")

# analyze() runs everything on the primitive part and keeps the strongest
# conclusion, cross-checked against the exact factorization oracle.
print()
report = analyze(Polynomial([-1, 0, 0, 0, 1]))  # z^4 - 1
print("analyze(z^4 - 1): strongest =", report.strongest)
print("oracle factors  =", report.oracle_result)
