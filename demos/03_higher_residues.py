"""Two-dimensional residue symbols, three ways.

For monomial entries the symbol is a trace-weighted determinant of
exponents; the three evaluators compute it through entirely different
routes and must agree exactly.
"""

from fractions import Fraction

from resym import (DifferentialForm, GoodIdempotents, LaurentPoly, QQ,
                   hkr_antisymmetrize, phi_c, phi_hh_closed, phi_hh_zigzag,
                   residue_coeff_oracle, residue_form, residue_monomial_det)

t1 = LaurentPoly.variable(2, 1)
t2 = LaurentPoly.variable(2, 2)

print("== the diagonal form ==")
form = DifferentialForm(LaurentPoly.monomial(2, (-1, -1)), [t1, t2])
print("  res t1^-1 t2^-1 dt1^dt2 =", residue_form(form))

print()
print("== the determinant law ==")
rows = [[-3, -2], [2, 1], [1, 1]]
beta = Fraction(2, 3)
form = DifferentialForm(
    LaurentPoly.monomial(2, tuple(rows[0]), beta),
    [LaurentPoly.monomial(2, tuple(rows[1])), LaurentPoly.monomial(2, tuple(rows[2]))])
print("  exponent rows:", rows, " beta =", beta)
print("  residue_form        =", residue_form(form))
print("  residue_monomial_det =", residue_monomial_det(rows, beta),
      "  (beta * det [[2,1],[1,1]])")

print()
print("== three paths, one value ==")
f0 = LaurentPoly(2, coeffs={(-1, -2): 1, (0, -2): Fraction(1, 2)})
form = DifferentialForm(f0, [t1 * t2, t2])
chain = hkr_antisymmetrize(form)
closed = phi_hh_closed(chain)
zigzag = phi_hh_zigzag(chain)
excision = phi_c(chain)
print("  closed formula :", closed)
print("  homotopy zigzag:", zigzag)
print("  connecting maps:", excision, " (carries the sign (-1)^{n(n-1)/2} = -1)")
assert zigzag == closed and excision == -closed

print()
print("== the coefficient oracle ==")
f = LaurentPoly(2, coeffs={(-1, -1): Fraction(7, 5), (2, -3): 4, (0, 0): 1})
form = DifferentialForm(f, [t1, t2])
print("  res f dt1^dt2       =", residue_form(form))
print("  coefficient oracle  =", residue_coeff_oracle(f))

print()
print("== independence of the projector window ==")
for m in (-2, 0, 3):
    idem = GoodIdempotents(2, QQ, thresholds=(m, m))
    print(f"  threshold {m:+d}: phi =", phi_hh_closed(chain, idempotents=idem))
