"""Base change between powers of z and the elements z^n (az;q)_n/(bz;q)_n.

The expansion elements e_n = z^n (az;q)_n / (bz;q)_n are lower triangular
over the monomials z^n with unit diagonal, so the base-change matrix

    A[n][k] = [z^(n-k)] (az;q)_k / (bz;q)_k

is invertible; its inverse B gives z^k = sum_n B[n][k] e_n.  This module
computes both matrices, expands arbitrary truncated series over the e_n by
two independent routes (triangular solve against A, and the closed
coefficient formula driven by the first column B[n][1]), and carries the
specialized expansions for a = 0 and b = a q.

The closed coefficient formula for F = sum c_n e_n reads

    c_n = [z^n]{F (bz;q)_(n-1) / (az;q)_n}
          - a sum_(k<n) B[n-k][1] q^((n-k)k) [z^k]{F (bz;q)_k / (az;q)_(k+1)}

with (bz;q)_(-1) = 1/(1 - bz/q) entering at n = 0.  The same kernel with
F = 1 yields every matrix entry of B directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .errors import OrderError, SingularMatrixError, StructureError
from .ring import RatFun, SymbolTable, _dot
from .series import TruncSeries, _element, _ratio_chain, sum_series


@dataclass
class ExpansionResult:
    """Coefficients of a series over the expansion elements, with the route used."""

    coeffs: List[RatFun]
    method: str  # "triangular_solve" | "theorem15" | "carlitz" | "b_eq_aq"


class LTMatrix:
    """Lower triangular matrix of RatFun entries, rows 0..n."""

    __slots__ = ("table", "rows")

    def __init__(self, table: SymbolTable, rows: List[List[RatFun]]):
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise StructureError(f"row {i} must have {i + 1} entries")
        self.table = table
        self.rows = rows

    @property
    def size(self) -> int:
        return len(self.rows) - 1

    def entry(self, n: int, k: int) -> RatFun:
        if not 0 <= n <= self.size:
            raise OrderError(f"row {n} out of range")
        if not 0 <= k <= n:
            return RatFun.zero(self.table)
        return self.rows[n][k]

    def __matmul__(self, other: "LTMatrix") -> "LTMatrix":
        if self.size != other.size:
            raise StructureError("size mismatch")
        zero = RatFun.zero(self.table)
        rows = [[_dot(((self.rows[n][i], other.rows[i][k]) for i in range(k, n + 1)), zero)
                 for k in range(n + 1)]
                for n in range(self.size + 1)]
        return LTMatrix(self.table, rows)

    def is_identity(self) -> bool:
        for n in range(self.size + 1):
            for k in range(n + 1):
                want = 1 if n == k else 0
                if not self.rows[n][k] == want:
                    return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, LTMatrix):
            return NotImplemented
        if self.size != other.size:
            return False
        return all(
            self.rows[n][k] == other.rows[n][k]
            for n in range(self.size + 1)
            for k in range(n + 1)
        )

    __hash__ = None


def base_matrix(a: RatFun, b: RatFun, n: int) -> LTMatrix:
    """A[i][k] = [z^(i-k)] (az;q)_k/(bz;q)_k for 0 <= k <= i <= n."""
    ratios = _ratio_chain(a, b, n, a.table)
    return LTMatrix(a.table, [[ratios[k].coeffs[i - k] for k in range(i + 1)]
                              for i in range(n + 1)])


def lt_inverse(m: LTMatrix) -> LTMatrix:
    """Inverse by forward substitution; the diagonal must be exactly 1."""
    for i in range(m.size + 1):
        if not m.rows[i][i] == 1:
            raise SingularMatrixError(f"diagonal entry {i} is {m.rows[i][i]}, not 1")
    table = m.table
    zero = RatFun.zero(table)
    inv = [[zero] * (i + 1) for i in range(m.size + 1)]
    for k in range(m.size + 1):
        inv[k][k] = RatFun.one(table)
        for n in range(k + 1, m.size + 1):
            inv[n][k] = -_dot(((m.rows[n][i], inv[i][k]) for i in range(k, n)), zero)
    return LTMatrix(table, inv)


def b_column1(a: RatFun, b: RatFun, n: int) -> List[RatFun]:
    """First column B[1][1]..B[n][1] of the inverse, by greedy peeling.

    Returns a list c with c[m] = B[m][1] (c[0] = 0): peel z = sum_m c[m] e_m
    one expansion element at a time.  Independent of lt_inverse.
    """
    ratios = _ratio_chain(a, b, n, a.table)
    rest = TruncSeries.z_power(a.table, 1, n).coeffs
    col = [rest[0]]
    for m in range(1, n + 1):
        c = rest[m]
        col.append(c)
        if not c.is_zero():
            for j, x in enumerate(ratios[m].coeffs):
                rest[m + j] = rest[m + j] - x * c
    return col


def expand_triangular(f: TruncSeries, a: RatFun, b: RatFun) -> ExpansionResult:
    """Expansion coefficients by forward-solving against the base matrix."""
    n = f.order
    m = base_matrix(a, b, n)
    coeffs: List[RatFun] = []
    # f_i - x0*c0 - x1*c1 - ... as a fold of f_i + x*(-c): the same sums, one negation per c
    neg: List[RatFun] = []
    for i, row in enumerate(m.rows):
        c = _dot(((row[k], neg[k]) for k in range(i)), f.coeffs[i])
        coeffs.append(c)
        neg.append(-c)
    return ExpansionResult(coeffs, "triangular_solve")


def _kernel_chain(f: TruncSeries, a: RatFun, b: RatFun) -> List[TruncSeries]:
    """W_n = f (bz;q)_(n-1) / (az;q)_n for n = 0..order, sharing one chain."""
    table = f.table
    q = RatFun.sym(table, "q")
    w = f.div_linear(b / q)  # f * (bz;q)_{-1}
    chain = [w]
    for n in range(1, f.order + 1):
        w = w.mul_linear(b * q ** (n - 2)).div_linear(a * q ** (n - 1))
        chain.append(w)
    return chain


def _thm25_entry(chain: List[TruncSeries], col: List[RatFun], a: RatFun,
                 m: int, k: int) -> RatFun:
    """[z^(m-k)] W_m - a sum_(k<=i<m) B[m-i][1] q^((m-i)i) [z^(i-k)] W_(i+1).

    With chain = _kernel_chain(1, a, b) this is the inverse-matrix entry
    B[m][k]; with chain = _kernel_chain(f, a, b) and k = 0 it is the m-th
    expansion coefficient of f.  col = b_column1(a, b, n).
    """
    table = a.table
    q = RatFun.sym(table, "q")
    pairs = ((col[m - i] * q ** ((m - i) * i), chain[i + 1].coeffs[i - k])
             for i in range(k, m) if not col[m - i].is_zero())
    return chain[m].coeffs[m - k] - a * _dot(pairs, RatFun.zero(table))


def expand_theorem15(f: TruncSeries, a: RatFun, b: RatFun) -> ExpansionResult:
    """Expansion coefficients by the closed formula (no triangular solve)."""
    col = b_column1(a, b, f.order)
    chain = _kernel_chain(f, a, b)
    return ExpansionResult(
        [_thm25_entry(chain, col, a, m, 0) for m in range(f.order + 1)], "theorem15"
    )


def matrix_thm25(a: RatFun, b: RatFun, n: int) -> LTMatrix:
    """Inverse matrix built entry-by-entry from the closed formula."""
    col = b_column1(a, b, n)
    chain = _kernel_chain(TruncSeries.one(a.table, n), a, b)
    return LTMatrix(a.table, [[_thm25_entry(chain, col, a, m, k) for k in range(m + 1)]
                              for m in range(n + 1)])


def matrix_entry_thm25(n: int, k: int, a: RatFun, b: RatFun) -> RatFun:
    """Single inverse-matrix entry B[n][k] from the closed formula."""
    if k > n:
        return RatFun.zero(a.table)
    col = b_column1(a, b, n)
    chain = _kernel_chain(TruncSeries.one(a.table, n), a, b)
    return _thm25_entry(chain, col, a, n, k)


def reconstruct(coeffs: List[RatFun], a: RatFun, b: RatFun, order: int) -> TruncSeries:
    """sum_n coeffs[n] * z^n (az;q)_n/(bz;q)_n, for round-trip checks."""
    table = a.table
    if any(not c.is_zero() for c in coeffs[order + 1 :]):
        raise OrderError(f"a nonzero coefficient lies beyond truncation order {order}")
    ratios = _ratio_chain(a, b, order, table)
    parts = [
        _element(ratios[m], m, order).scale(c)
        for m, c in enumerate(coeffs)
        if not c.is_zero()
    ]
    return sum_series(parts, table=table, order=order)


# ---------------------------------------------------------------------------
# specializations


def gn_polynomials(n: int, table: SymbolTable) -> List[RatFun]:
    """g_1..g_n with g_m = 1 - sum_(i=1..m-1) g_(m-i) q^((m-i)i); g[0] unused.

    These satisfy B[m][1](a, aq) = g_m(q) a^(m-1).
    """
    one = RatFun.one(table)
    g = [RatFun.zero(table), one]
    if n < 1:
        return g[: n + 1]
    zero = RatFun.zero(table)
    q = RatFun.sym(table, "q")
    for m in range(2, n + 1):
        g.append(one - _dot(((g[m - k], q ** ((m - k) * k)) for k in range(1, m)), zero))
    return g


def carlitz_coeffs(f: TruncSeries, b: RatFun) -> ExpansionResult:
    """Expansion over z^n/(bz;q)_n (the a = 0 base): c_n = [z^n]{f (bz;q)_(n-1)},
    the kernel at a = 0, where dividing by (az;q)_n changes no coefficient."""
    chain = _kernel_chain(f, RatFun.zero(f.table), b)
    return ExpansionResult([w.coeffs[n] for n, w in enumerate(chain)], "carlitz")


def coro310_coeffs(f: TruncSeries, a: RatFun) -> ExpansionResult:
    """Expansion over z^n (az;q)_n/(aqz;q)_n = z^n (1-az)/(1-azq^n).

    c_n = sum_(k<n) g_(n-k) q^((n-k)k) [z^n]{(f - f_k)/(1 - az)} with f_k the
    k-th truncation of f; c_0 = f(0).
    """
    table = f.table
    n = f.order
    g = gn_polynomials(n, table)
    q = RatFun.sym(table, "q")
    zero = RatFun.zero(table)
    # tails[k] = (f - f_k)/(1 - az), needed at [z^m] for m > k
    tails = []
    for k in range(n):
        cut = [zero] * (k + 1) + f.coeffs[k + 1 :]
        tails.append(TruncSeries(table, n, cut).div_linear(a))
    coeffs = [f.coeffs[0]]
    for m in range(1, n + 1):
        pairs = ((g[m - k] * q ** ((m - k) * k), tails[k].coeffs[m])
                 for k in range(m) if not g[m - k].is_zero())
        coeffs.append(_dot(pairs, zero))
    return ExpansionResult(coeffs, "b_eq_aq")


# ---------------------------------------------------------------------------
# the generating polynomial S_n(y) behind the closed row sums


def sn_polynomial(n: int, a: RatFun, b: RatFun, y: RatFun) -> RatFun:
    """Cleared row-sum polynomial S_n(y) with S_n(y)/prod_(j<n)(y-aq^j) = sum_k B[n][k] y^k.

    S_n(y) = y^(n+1) prod_(i<=n-2)(y - bq^i)
             - a sum_(k<n) B[n-k][1] q^((n-k)k) y^(k+1)
               prod_(i<k)(y - bq^i) prod_(k<j<n)(y - aq^j)

    Divisible by (y - aq^k) for every 0 <= k <= n-1.
    """
    if n < 1:
        raise OrderError("S_n is defined for n >= 1")
    table = a.table
    q = RatFun.sym(table, "q")
    col = b_column1(a, b, n)

    def prod(factors) -> RatFun:
        acc = RatFun.one(table)
        for v in factors:
            acc = acc * v
        return acc

    lead = y ** (n + 1) * prod(y - b * q**i for i in range(n - 1))
    pairs = (
        (col[n - k] * q ** ((n - k) * k) * y ** (k + 1)
         * prod(y - b * q**i for i in range(k)),
         prod(y - a * q**j for j in range(k + 1, n)))
        for k in range(n) if not col[n - k].is_zero()
    )
    return lead - a * _dot(pairs, RatFun.zero(table))
