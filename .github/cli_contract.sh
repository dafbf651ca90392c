#!/bin/bash
# The command-line contract of a plain install: exit codes, refusals and the
# lines the reports must (or must not) hold. Runs as a CI step runs it, under
# `bash -e` with no pipefail. Usage, after `pip install .`:
#   .github/cli_contract.sh
# or from a checkout, with no install:
#   IRREDUCIA="python -m irreducia" PYTHONPATH=src .github/cli_contract.sh
set -e
IRREDUCIA=${IRREDUCIA:-irreducia}  # split into words: it may be "python -m irreducia"
tmp=${RUNNER_TEMP:-$(mktemp -d)}
$IRREDUCIA analyze --poly "z^3+4z+4"
# the criteria take the PolyFacts record, which the package exports
python -c "import irreducia as i; print(i.weintraub_check(i.PolyFacts(i.Polynomial([4, 2, 1]))).conclusion.kind.value)" | grep -Fx Irreducible
status=0
$IRREDUCIA analyze --poly "-z^2+1" || status=$?
test "$status" -eq 3
$IRREDUCIA factor --poly "z^4-1"
# linear factors come from the oracle's own Kronecker search, not a root scan
$IRREDUCIA factor --poly "16z^4+32z^3+24z^2+8z+1" | grep -Fx "(2z+1)^4"
$IRREDUCIA factor --poly "73513440z^2+z+73513440" | grep -Fx "irreducible factors: 1"
# the prime-value test finds its root radius (about 6.7*10^7 here) by bisection
timeout 10 $IRREDUCIA factor --poly "99792000,43046721,-99999999,720720,720720,-67108864,-720720,67108864,1" | grep -Fx "irreducible factors: 1"
# a_0 = psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the
# bases 2..37; is_prime also tries 41, so constant_term takes it for no prime
$IRREDUCIA analyze --oracle off --poly "z^2 + 1197495870662z + 318665857834031151167461" > "$tmp/psi12.txt"
if grep -E "^  constant_term +Irreducible" "$tmp/psi12.txt"; then exit 1; fi
# a_0 = psi_13 = 1287836182261 * 2575672364521 passes all 13 bases; at or above
# psi_13 a cofactor that passes is only a probable prime, and no verdict rests on it
$IRREDUCIA analyze --oracle off --poly "z^2 + 3863508546782z + 3317044064679887385961981" > "$tmp/psi13.txt"
if grep -E "^  (constant_term|eisenstein_generalized) +Irreducible" "$tmp/psi13.txt"; then exit 1; fi
grep "probable prime" "$tmp/psi13.txt"
# the criteria run in the order given, but the report is sorted by name: the
# seven names reversed print the bytes `all` prints, in both root modes
reversed_names=weintraub,perron_nonmonic,middle_prime_power,leading_coeff,eisenstein_generalized,dominant_coefficient,constant_term
for mode in symbolic numeric; do
  $IRREDUCIA analyze --oracle off --format json --root-mode "$mode" --poly "30,1,1,1,6" --criteria all > "$tmp/all.json"
  $IRREDUCIA analyze --oracle off --format json --root-mode "$mode" --poly "30,1,1,1,6" --criteria "$reversed_names" > "$tmp/reversed.json"
  cmp "$tmp/all.json" "$tmp/reversed.json"
done
# the warnings of stopped criteria keep the order given: eisenstein's comes first
status=0
$IRREDUCIA analyze --oracle off --criteria eisenstein_generalized,constant_term --poly "z^2 + 3863508546782z + 3317044064679887385961981" > "$tmp/order.txt" || status=$?
test "$status" -eq 3
grep -n "no conclusion" "$tmp/order.txt" | head -1 | grep -F "warning: eisenstein_generalized:"
# is_prime says yes only with a proof, so a family generator refuses psi_13 as p
status=0
$IRREDUCIA gen --family P1 --p 3317044064679887385961981 --m 2 --n 2 || status=$?
test "$status" -eq 1
# a family coefficient past Python's digit limit, or a degree above the
# input maximum, is refused before its power is built
status=0
timeout 10 $IRREDUCIA gen --family P1 --p 3 --m 30000000 --n 2 || status=$?
test "$status" -eq 1
# an exponent past 2^1000 is refused by its size, before any float estimate of its digits
status=0
timeout 10 $IRREDUCIA gen --family P2 --p 3 --k "$(python -c 'print(10**400)')" --d 1 --m 2 --tail 1,1 2> "$tmp/exponent.txt" || status=$?
test "$status" -eq 1
if grep Traceback "$tmp/exponent.txt"; then exit 1; fi
# the P2/P3 dominance test stops once its running power of d reaches |a_0|,
# so d = 10^4000 + 1 at degree 1000 is refused with no d^1000 built
status=0
timeout 10 $IRREDUCIA gen --family P2 --p 3 --k 1 --d "$(python -c "print(10**4000 + 1)")" --m 1000 --tail "$(python -c "print(','.join(['1'] * 1000))")" || status=$?
test "$status" -eq 1
# b < a - b implies P4's dominance inequality, so no b^998 is built for it
timeout 10 $IRREDUCIA gen --family P4 --a "$(python -c "print(10**4000 + 7)")" --b "$(python -c "print(10**3999)")" --m 1000 --j 1 > /dev/null
# a family option the family does not take is refused, not dropped
status=0
$IRREDUCIA gen --family P1 --p 3 --m 3 --n 2 --k 5 || status=$?
test "$status" -eq 1
# a required family option left out is refused by gen_family itself, so the
# command line and the library give one error, and neither a TypeError
status=0
$IRREDUCIA gen --family P1 --p 2 --m 3 2> "$tmp/missing.txt" || status=$?
test "$status" -eq 1
grep -Fx "error: family P1 needs --n" "$tmp/missing.txt"
if grep Traceback "$tmp/missing.txt"; then exit 1; fi
python -c "
import irreducia
try:
    irreducia.gen_family('P1', {'p': 2, 'm': 3})
except irreducia.FamilyConditionError as exc:
    print(type(exc).__name__, exc)
" | grep -Fx "FamilyConditionError family P1 needs --n"
# a corpus too large to build is refused at once as an input error
status=0
timeout 10 $IRREDUCIA gen --exhaustive --max-degree 1 --coeff-bound 1000000000000 || status=$?
test "$status" -eq 1
# a list value may start with a minus, with no `=` between option and value
$IRREDUCIA gen --family P2 --p 5 --k 1 --d 1 --m 2 --tail -1,1 | grep -Fx "5,-1,1"
# factor loads neither the criteria, the corpus nor dataclasses; -v lists
# every module loaded (-X importtime misses those loaded by `from . import`)
python -v -m irreducia factor --poly "z^4-1" 2> "$tmp/imports.txt"
if grep -E "^import '(dataclasses|irreducia\.(criteria|rootloc|corpus))'" "$tmp/imports.txt"; then exit 1; fi
# a usage error is an input error (1), not audit violations (2)
status=0
$IRREDUCIA analyze || status=$?
test "$status" -eq 1
# (z-2)^2: the exact disk test fails at d = 1, numeric mode certifies d = 1
status=0
$IRREDUCIA analyze --poly "z^2-4z+4" --oracle off || status=$?
test "$status" -eq 3
$IRREDUCIA analyze --poly "z^2-4z+4" --oracle off --root-mode numeric --format json > "$tmp/disk.json"
grep numeric-conditional "$tmp/disk.json"
# a root mode is the CertificateMode member or its value: the value "symbolic"
# certifies 98 + z + 6z^2 exactly, and a name that is neither is refused
python -c "
import irreducia as i
report = i.analyze(i.parse_poly('98,1,6'), i.AnalyzeConfig(root_mode='symbolic', oracle='off'))
print(next(o.certificate_mode for o in report.outcomes if o.criterion == 'constant_term'))
" | grep -Fx exact
python -c "
import irreducia as i
try:
    i.analyze(i.parse_poly('98,1,6'), i.AnalyzeConfig(root_mode='bogus'))
except ValueError as exc:
    print(type(exc).__name__)
" | grep -Fx ValueError
# widely scaled coefficients: a_0 is prime, so the one radius is d = 1, and
# the exact Schur-Cohn tests find no root within 1.001 (the roots are near 10
# and 10^10), so numeric mode certifies it with no root iteration
$IRREDUCIA analyze --poly "z^2-10000000000z+100000000003" --root-mode numeric --oracle off > "$tmp/numeric.txt"
grep numeric-conditional "$tmp/numeric.txt"
if grep "did not converge" "$tmp/numeric.txt"; then exit 1; fi
# roots of modulus 1.00198, within 0.1% of the margin 1.001 at d = 1: below
# the degree cap the exact test decides it, with no root iteration
$IRREDUCIA analyze --poly "1009z^2+z+1013" --root-mode numeric --oracle off > "$tmp/margin.txt"
grep -E "^  constant_term +Irreducible" "$tmp/margin.txt"
grep numeric-conditional "$tmp/margin.txt"
if grep "did not converge" "$tmp/margin.txt"; then exit 1; fi
# 10^400 + z + z^2: a_0 / a_m has no float value, so the root iteration cannot
# run; the exact tests certify d = 2^400 (p = 5) without it
$IRREDUCIA analyze --poly "1$(printf '0%.0s' $(seq 400)),1,1" --root-mode numeric --oracle off > "$tmp/overflow.txt"
grep -E "^  constant_term +Irreducible +p=5, k=400," "$tmp/overflow.txt"
if grep "did not converge" "$tmp/overflow.txt"; then exit 1; fi
# the public certificate makes the same decision: it runs the exact tests itself
python -c "import irreducia as i; print(i.certify_outside_disk(i.Polynomial([10**400, 1, 1]), 2**400, i.CertificateMode.NUMERIC_HEURISTIC))" | grep -Fx True
# a_2 = (2^61-1)(2^89-1) resists rho: dominant_coefficient, which needs its
# divisors, says so; weintraub's rational-root flag does not need them
$IRREDUCIA analyze --oracle off --poly "1427247692705959880439315947500961989719490561z^2+295617658828691846632166420412766595202z+4" > "$tmp/limit.txt"
grep "dominant_coefficient: no conclusion: factorization limit" "$tmp/limit.txt"
grep -E "^  weintraub +Irreducible" "$tmp/limit.txt"
# dominant_coefficient's least passing divisor b of a_m: a_m = 30 reads its
# divisors from the table of those of 1..32; a_m = 60, above the table,
# finds those up to 32 by trial division before walking on
$IRREDUCIA analyze --oracle off --poly=-9,-271,-4,30 | grep -E "^  dominant_coefficient +AtMostFactors\(2\) +b=10, delta=1/10, j=1$"
$IRREDUCIA analyze --oracle off --poly=-2,127,4,60 | grep -E "^  dominant_coefficient +AtMostFactors\(2\) +b=4, delta=1/4, j=1$"
# a_0 = 6N with N = (2^61-1)(2^60+33), which resists rho: the generalized
# Eisenstein witness p = 2 and leading_coeff's q = 2 come from the primes of
# a_0 below 10^3, so neither search factors N, and eisenstein_generalized
# does not warn
six_n=$(python -c "print(6 * (2**61 - 1) * (2**60 + 33))")
timeout 10 $IRREDUCIA analyze --oracle off --poly "$six_n,5,3,1,1" > "$tmp/reach-eisenstein.txt"
grep -E "^  eisenstein_generalized +FactorDegreeBound\(3\) +p=2, k=1, j=1$" "$tmp/reach-eisenstein.txt"
if grep "eisenstein_generalized: no conclusion" "$tmp/reach-eisenstein.txt"; then exit 1; fi
timeout 10 $IRREDUCIA analyze --oracle off --poly "$six_n,1,$(python -c "print(2**123)")" > "$tmp/reach-leading.txt"
grep -E "^  leading_coeff +Irreducible +p=2, k=123, j=1, d=1, q=2$" "$tmp/reach-leading.txt"
if grep "eisenstein_generalized: no conclusion" "$tmp/reach-leading.txt"; then exit 1; fi
# 10^1000 + z + z^2: the rational-root flag walks no divisors of a_0
timeout 10 $IRREDUCIA analyze --oracle off --poly "1$(printf '0%.0s' $(seq 1000)),1,1"
# degree 400 with 3, 5, ..., 17 dividing a_0 and a_1: z = 0 is a double root
# mod each of the first six primes, and weintraub's rational-root flag, asked
# of a squarefree f, must not fall back on the squarefree part (12 s)
crafted=$(python -c "import random; r = random.Random(1); print(','.join(map(str, [1021020, 510510] + [2 * r.randint(1, 4) for _ in range(2, 400)] + [1])))")
timeout 10 $IRREDUCIA analyze --poly "$crafted" > "$tmp/crafted.txt"
grep -E "^  weintraub +Irreducible +p=2, k0=1$" "$tmp/crafted.txt"
# degree 1,000 with a 4,014-digit a_m, and with a 4,015-digit a_0 over z^1000:
# no sum of size |a_m|^(m-j) is built, and the radius 2^13333 is refused unsummed
big=$(python -c "print(2**13333)")
timeout 10 $IRREDUCIA analyze --oracle off --poly "3,$(printf '1,%.0s' $(seq 999))$big"
timeout 10 $IRREDUCIA analyze --oracle off --poly "$(python -c "print(3*2**13333)"),$(printf '0,%.0s' $(seq 999))1"
# rootloc refuses such a radius by size, from bit lengths, in both modes, so
# neither d^1000 nor f(+-d) is built for a radius near 2^13333; at degree 1000
# the exact Schur-Cohn tests, far above rootloc.EXACT_MAX_DEGREE, must not run
timeout 10 $IRREDUCIA analyze --oracle off --root-mode numeric --poly "3,$(printf '1,%.0s' $(seq 999))$big"
timeout 10 $IRREDUCIA analyze --oracle off --root-mode numeric --poly "$(python -c "print(3*2**13333)"),$(printf '0,%.0s' $(seq 999))1"
# the public certificate refuses by size too: d = 3^8000 at degree 1000, in both modes
timeout 10 python -c "import irreducia as i; f = i.Polynomial([3 * 2**13333] + [1] * 1000); print(any(i.certify_outside_disk(f, 3**8000, m) for m in i.CertificateMode))" | grep -Fx False
$IRREDUCIA audit --max-degree 3 --coeff-bound 3
$IRREDUCIA audit --families P1,P2,P3,P4
status=0
$IRREDUCIA audit --families P9 || status=$?
test "$status" -eq 1
# an empty families list is a usage error, as an empty criteria list is
status=0
$IRREDUCIA audit --families , || status=$?
test "$status" -eq 1
# a reader that stops early must not leave a traceback
$IRREDUCIA gen --exhaustive --max-degree 4 --coeff-bound 4 2> "$tmp/gen-stderr.txt" | head -1
if grep Traceback "$tmp/gen-stderr.txt"; then exit 1; fi
# gen --random prints each polynomial as it is drawn, so a huge count still
# prints its first line at once, and a degree the parser refuses is refused
timeout 10 $IRREDUCIA gen --random --count 100000000 | head -1 | grep -E '^-?[0-9]'
status=0
$IRREDUCIA gen --random --max-degree 1001 2> "$tmp/random-degree.txt" || status=$?
test "$status" -eq 1
grep -Fx "error: degree 1001 above the maximum 1000" "$tmp/random-degree.txt"
