"""Exact q-series engine for expansions over z^n (az;q)_n/(bz;q)_n.

Everything symbolic is computed over an exact rational-function ring
(integer-coefficient multivariate polynomials and their quotients), so a
passing check is a proof at the stated truncation order.  The numeric
module is an independent high-precision cross-check.

The names below are exported lazily (PEP 562): `import qexpand` loads no
submodule, and the first access to a name imports the module that defines
it, so the numeric battery can run without the symbolic engine.
"""

from importlib import import_module

# submodule -> the names it exports
_EXPORTS = {
    "errors": """DomainError NonInvertibleError OrderError ParseError PoleError
        QExpandError SingularMatrixError StructureError""",
    "identities": """CHECKS FirstFailure IdentityReport IdentitySides build_sides
        check_names check_theorem16 compare run_all run_check""",
    "inversion": """ExpansionResult LTMatrix b_column1 base_matrix carlitz_coeffs
        coro310_coeffs expand_theorem15 expand_triangular gn_polynomials
        lt_inverse matrix_entry_thm25 matrix_thm25 reconstruct sn_polynomial""",
    "numeric": """DEFAULT_PRECISION DEFAULT_TOLERANCE NumericReport
        check_identity_numeric check_qqq default_numeric_reports
        numeric_check_names""",
    "ring": "MultiPoly RatFun SymbolTable parse_ratfun symbols",
    "series": """TruncSeries base_element inv_pochhammer_infinite partial_theta
        pochhammer_infinite qhyper sum_series""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        # not an export: the import system then looks for a submodule, so
        # `from qexpand import identities` still works
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
