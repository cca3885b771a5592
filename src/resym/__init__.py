"""Exact computation of higher residue symbols on multi-Laurent series.

The library realizes the residue of f_0 df_1 ^ .. ^ df_n on
k((t_1))..((t_n)) through a concrete operator algebra: multiplication
operators and exponent projectors in a windowed-shift normal form, the
compact/discrete operator ideals they generate, and the finite-potent
trace.  Three independent evaluators (a closed product formula, a
homotopy staircase, and an iterated connecting map) compute the same
functional and cross-check each other exactly, over Q or over a declared
extension field Q[x]/(p).
"""

from .errors import (DecompositionError, DimensionMismatch, FieldMismatch,
                     MembershipError, NotACycle, NotProvablyFinitePotent,
                     ParseError, PrecisionError, ResymError,
                     UnsupportedFactorization, ValuationError)
from .homology import (HochschildChain, LabeledChain, LieChain, ce_delta,
                       ce_delta_coefficients, chain_is_zero, chains_equal,
                       commutator_formula, cyclic_t, epsilon,
                       hkr_antisymmetrize, hochschild_b, homotopy_H, i_prime,
                       label_degree, labels_of_degree, lambda_toeplitz,
                       n_partial, phi_c, phi_hh_closed, phi_hh_zigzag, psi)
from .laurent import (DifferentialForm, LaurentPoly, TruncatedSeries,
                      binomial_series, substitute_1d)
from .operators import (GoodIdempotents, WindowedOperator, ideal_member,
                        in_trace_ideal, is_finite_rank, mul_op,
                        operator_from_json, projector, tate_trace)
from .parser import (parse_expression, parse_extension_modulus, parse_form,
                     parse_laurent, parse_rational_function, parse_scalar,
                     render_form, render_laurent, render_rational_function)
from .polynomials import PolyQ, factor_monic, is_irreducible
from .residue import (Place, RationalFunction, coordinate_invariance_check_1d,
                      expand_at_place, global_residue_sum,
                      nodal_factorization_check, residue_at_place,
                      residue_coeff_oracle, residue_form, residue_monomial_det)
from .scalars import QQ, ExtensionField, ExtElem, field_trace, render_scalar

__all__ = [name for name in dir() if not name.startswith("_")]
