"""Built-in polynomial families and the criteria-vs-oracle audit.

Each family is constructed so a specific criterion provably fires; the audit
then replays every criterion against the exact oracle over a corpus and
counts fired / sound / inconclusive outcomes.

Run:  python3 demos/05_families_and_audit.py
"""

from irreducia import analyze, gen_family
from irreducia.audit import audit_exhaustive

MEMBERS = [
    ("P1", {"p": 2, "m": 3, "n": 2, "sign": 1}),
    ("P2", {"p": 5, "k": 1, "d": 1, "m": 2, "tail": [1, 1]}),
    ("P3", {"p": 5, "k": 1, "d": 1, "m": 2, "a0": 11, "middle": [1]}),
    ("P4", {"a": 3, "b": 1, "m": 3, "j": 2}),
]

for name, params in MEMBERS:
    f = gen_family(name, params)
    report = analyze(f)
    strongest = report.strongest
    print(f"{name}{str(params):48s} -> {f}")
    print(f"    strongest: {strongest.conclusion} via {strongest.criterion}, "
          f"oracle count {report.oracle_result.nonconstant_factor_count()}")

# A small audit: every primitive polynomial with degree <= 3 and
# coefficients in [-3, 3], checked against the oracle. The acceptance suite
# runs the same sweep at degree <= 5, coefficients in [-5, 5].
print("\nmini audit (degree <= 3, |coeff| <= 3):")
result = audit_exhaustive(3, 3)
for line in result.summary_lines():
    print(line)
