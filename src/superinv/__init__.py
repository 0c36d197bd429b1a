"""Exact invariants and canonical forms of matrices over Grassmann algebras.

Everything is computed over the rationals with no floating point: scalar
arithmetic, matrix reductions, symmetric-function rewriting, and the
semi-invariant pipeline all return exact values, and every identity the
library claims is checked by seeded property suites (`superinv verify`).
"""

from .errors import (
    GeneratorCountMismatch,
    InputError,
    InternalError,
    MultipleEigenvalue,
    NonSplitting,
    NotBlockDiagonalSquare,
    NotInL,
    NotInvariant,
    NotSymmetric,
    PreconditionError,
    SamplingError,
    ShapeMismatch,
    SharedEigenvalue,
    SingularBody,
    SingularZ,
    SuperInvError,
    UnconstrainedParity,
    ValidationError,
    ZeroBody,
    ZeroDiscriminant,
    ZeroEigenvalue,
)
from .grassmann import GrassmannScalar, generator_cap, set_generator_cap
from .supermatrix import (
    ANY,
    EVEN,
    ODD,
    GroupElement,
    Queer,
    Standard,
    SuperMatrix,
    random_group_element,
    random_matrix,
)
from .reduction import (
    RationalSpectrum,
    SpectralDecomposition,
    antidiagonalize,
    block_diagonalize,
    diagonalize,
    rational_spectrum,
    reduce_odd,
    solve_sylvester,
)
from .sympoly import (
    BalancedExpression,
    SuperPolynomial,
    TTauExpression,
    assemble_invariant,
    elementary_from_roots,
    invariant_decomposition,
    invariant_normal_form,
    is_balanced,
    power_sum_even,
    power_sum_odd,
    rewrite_symmetric,
    signed_elementary_poly,
    vandermonde_adjoint,
    verify_recurrence,
)
from .invariants import (
    balanced_corpus,
    body_signed_elementary,
    compute_s,
    eigendata,
    evaluate_invariant,
    evaluate_invariants,
    indistinguishable,
    l_invariants,
    q2_closed_form,
    qet_generating_coefficients,
)
from .verify import SUITES, run_suite

__version__ = "0.1.0"
