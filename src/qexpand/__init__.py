"""Exact q-series engine for expansions over z^n (az;q)_n/(bz;q)_n.

Everything symbolic is computed over an exact rational-function ring
(integer-coefficient multivariate polynomials and their quotients), so a
passing check is a proof at the stated truncation order.  The numeric
module is an independent high-precision cross-check.
"""

from .errors import (
    DomainError,
    NonInvertibleError,
    OrderError,
    ParseError,
    PoleError,
    QExpandError,
    SingularMatrixError,
    StructureError,
)
from .identities import (
    CHECKS,
    FirstFailure,
    IdentityReport,
    IdentitySides,
    build_sides,
    check_names,
    check_theorem16,
    compare,
    run_all,
    run_check,
)
from .inversion import (
    ExpansionResult,
    LTMatrix,
    b_column1,
    base_matrix,
    carlitz_coeffs,
    coro310_coeffs,
    expand_theorem15,
    expand_triangular,
    gn_polynomials,
    lt_inverse,
    matrix_entry_thm25,
    matrix_thm25,
    reconstruct,
    sn_polynomial,
)
from .numeric import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    NumericReport,
    check_identity_numeric,
    check_qqq,
    default_numeric_reports,
    numeric_check_names,
    qpoch_num,
    spot_check_series,
)
from .ring import (
    MultiPoly,
    RatFun,
    SymbolTable,
    parse_ratfun,
    symbols,
)
from .series import (
    TruncSeries,
    base_element,
    inv_pochhammer_infinite,
    partial_theta,
    pochhammer_finite,
    pochhammer_infinite,
    qhyper,
    qpoch_param,
    qpoch_param_range,
    qpow,
    substitute_in_series,
    sum_series,
)

__version__ = "0.1.0"
