"""The expansion route to Lemma 3.2's balance conditions, kept as a test oracle.

The library decides balance in the symbols (`sympoly._balance_conditions`).
This module decides it in a and b instead: N and D are expanded into
polynomials and the quotient rule is taken with D cleared,
b_i (dN/da_i D - N dD/da_i).  For a symmetric N/D, residual i is residual 1
with indices 1 and i swapped, so residual 1 decides.
"""

from superinv.sympoly import coefficient_matrix


def balance_residual(num, den, i):
    """b_i (dN/da_i D - N dD/da_i) for polynomials N and D; a denominator
    equal to 1, as a polynomial or the integer, leaves b_i dN/da_i."""
    if den == 1:
        return num.derivative(i).odd_multiply(i)
    return (num.derivative(i) * den - num * den.derivative(i)).odd_multiply(i)


def residual_rows(polys, den):
    """Coefficient matrix of the first balance residuals, one column per
    symmetric candidate numerator N; its kernel holds the N with N/D invariant."""
    return coefficient_matrix([balance_residual(poly, den, 1).terms for poly in polys])
