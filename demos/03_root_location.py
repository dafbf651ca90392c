"""Root-location certificates: the exact sufficient inequality versus the
numeric root check.

Run:  python3 demos/03_root_location.py
"""

from irreducia import (
    CertificateMode,
    Polynomial,
    certify_outside_disk,
    numeric_roots,
)

f = Polynomial([75, 1, 1])

# Symbolic mode proves |a_0| > sum |a_i| d^i, which keeps |f| positive on
# the whole disk |z| <= d. Sound, exact, but one-sided.
for d in (1, 2, 3, 4, 8, 9):
    cert = certify_outside_disk(f, d, CertificateMode.SYMBOLIC_SUFFICIENT)
    print(f"symbolic d={d}: certified={cert.certified}  "
          f"(|a0|={cert.detail['lhs']} vs {cert.detail['rhs']})")

# The actual root moduli: both roots sit just inside |z| = 8.7, so the
# symbolic test is conservative near the boundary, as it must be.
roots = numeric_roots(f)
print("\nnumeric moduli:", sorted(round(abs(r), 4) for r in roots))

for d in (8, 9):
    cert = certify_outside_disk(f, d, CertificateMode.NUMERIC_HEURISTIC)
    print(f"numeric  d={d}: certified={cert.certified} (margin {cert.detail['margin']})")
