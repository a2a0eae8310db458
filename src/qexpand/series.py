"""Truncated power series in z with exact rational-function coefficients.

A TruncSeries of order N stores coefficients c_0..c_N of a series
sum_n c_n z^n, each an exact RatFun over the ambient symbol table; every
operation truncates at the smaller order of its operands.  The series
variable z is *not* a table symbol -- it exists only through the
coefficient list -- so substituting q-shifts (z -> z q^k) and extracting
coefficients stay O(N) scalar operations.

Constructors cover infinite q-Pochhammer products via Euler's expansions
(never by truncating the product), the expansion elements
z^n (az;q)_n / (bz;q)_n, basic hypergeometric sums with z-free
parameters, and partial theta sums; a finite product is a chain of
mul_linear or div_linear steps.

Every q-dependent constructor requires the ambient table to declare a
symbol named "q".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Union

from .errors import NonInvertibleError, OrderError, PoleError, StructureError
from .ring import RatFun, SymbolTable, _check_tables, _coerce_scalar, _dot

Scalar = Union[RatFun, int, Fraction]


class TruncSeries:
    """Series in z modulo z^(order+1) with RatFun coefficients."""

    __slots__ = ("table", "order", "coeffs")

    def __init__(self, table: SymbolTable, order: int, coeffs: Sequence[RatFun]):
        if order < 0:
            raise OrderError(f"order must be >= 0, got {order}")
        if len(coeffs) != order + 1:
            raise OrderError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        self.table = table
        self.order = order
        self.coeffs = list(coeffs)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable, order: int) -> "TruncSeries":
        z = RatFun.zero(table)
        return TruncSeries(table, order, [z] * (order + 1))

    @staticmethod
    def one(table: SymbolTable, order: int) -> "TruncSeries":
        return TruncSeries.z_power(table, 0, order)

    @staticmethod
    def z_power(table: SymbolTable, n: int, order: int, coeff: Scalar = 1) -> "TruncSeries":
        """The monomial coeff * z^n, or the zero series when n > order."""
        out = TruncSeries.zero(table, order)
        if 0 <= n <= order:
            out.coeffs[n] = _coerce_scalar(table, coeff)
        elif n < 0:
            raise OrderError(f"negative z-power {n}")
        return out

    @staticmethod
    def from_coeffs(table: SymbolTable, coeffs: Sequence[Scalar], order: int) -> "TruncSeries":
        """Series with the given low-order coefficients, zero-padded to order."""
        if len(coeffs) > order + 1:
            coeffs = coeffs[: order + 1]
        padded = [_coerce_scalar(table, c) for c in coeffs]
        padded += [RatFun.zero(table)] * (order + 1 - len(padded))
        return TruncSeries(table, order, padded)

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common_order(other)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    __hash__ = None

    def _common_order(self, other: "TruncSeries") -> int:
        _check_tables(self, other)
        return min(self.order, other.order)

    # -- ring operations (truncate to the smaller order) ----------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common_order(other)
        return TruncSeries(
            self.table, n, [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return TruncSeries(self.table, self.order, [-c for c in self.coeffs])

    def __mul__(self, other):
        """The series product, or each coefficient times a RatFun operand."""
        if isinstance(other, RatFun):
            return TruncSeries(self.table, self.order, [x * other for x in self.coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common_order(other)
        a, b = self.coeffs, other.coeffs
        zero = RatFun.zero(self.table)
        out = [_dot(((a[i], b[m - i]) for i in range(m + 1)), zero) for m in range(n + 1)]
        return TruncSeries(self.table, n, out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "TruncSeries":
        return self * _coerce_scalar(self.table, c)

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise NonInvertibleError("series has zero constant term")
        inv0 = 1 / c0
        out = [inv0]
        a = self.coeffs
        zero = RatFun.zero(self.table)
        for m in range(1, self.order + 1):
            out.append(-inv0 * _dot(((a[i], out[m - i]) for i in range(1, m + 1)), zero))
        return TruncSeries(self.table, self.order, out)

    # -- structural maps --------------------------------------------------

    def shift_q(self, k: int) -> "TruncSeries":
        """Substitute z -> z q^k: multiplies c_n by q^(k n)."""
        if k == 0:
            return self
        q = RatFun.sym(self.table, "q")
        return TruncSeries(self.table, self.order, [
            c if c.is_zero() else c * q ** (k * n) for n, c in enumerate(self.coeffs)])

    def mul_z(self, j: int) -> "TruncSeries":
        """Multiply by z^j at fixed order (top coefficients fall off)."""
        if j == 0:
            return self
        if j < 0:
            raise OrderError(f"negative z-shift {j}")
        zero = RatFun.zero(self.table)
        kept = self.coeffs[: max(self.order + 1 - j, 0)]
        return TruncSeries(self.table, self.order, [zero] * min(j, self.order + 1) + kept)

    def truncated(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise OrderError(f"cannot extend order {self.order} to {order}")
        return TruncSeries(self.table, order, self.coeffs[: order + 1])

    def mul_linear(self, u: Scalar) -> "TruncSeries":
        """Multiply by (1 - u z) in O(order) coefficient operations."""
        u = _coerce_scalar(self.table, u)
        a = self.coeffs
        out = [a[0]]
        for m in range(1, self.order + 1):
            out.append(a[m] - u * a[m - 1])
        return TruncSeries(self.table, self.order, out)

    def div_linear(self, u: Scalar) -> "TruncSeries":
        """Divide by (1 - u z) in O(order) coefficient operations."""
        u = _coerce_scalar(self.table, u)
        a = self.coeffs
        out = [a[0]]
        for m in range(1, self.order + 1):
            out.append(a[m] + u * out[m - 1])
        return TruncSeries(self.table, self.order, out)

    # -- output -----------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            zs = "" if n == 0 else ("z" if n == 1 else f"z^{n}")
            cs = str(c)
            if zs and not (cs == "1"):
                cs = f"({cs})*{zs}" if ("+" in cs or " - " in cs or cs.startswith("(")) else f"{cs}*{zs}"
            elif zs:
                cs = zs
            parts.append(cs)
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncSeries({self})"


# ---------------------------------------------------------------------------
# series constructors


def pochhammer_infinite(c: Scalar, order: int, table: SymbolTable) -> TruncSeries:
    """(cz;q)_inf via Euler: sum_m (-c)^m q^(m(m-1)/2) z^m / (q;q)_m."""
    c = _coerce_scalar(table, c)
    q = RatFun.sym(table, "q")
    coeffs = [RatFun.one(table)]
    t = coeffs[0]
    for m in range(1, order + 1):
        t = t * (-c) * q ** (m - 1) / (1 - q**m)
        coeffs.append(t)
    return TruncSeries(table, order, coeffs)


def inv_pochhammer_infinite(c: Scalar, order: int, table: SymbolTable) -> TruncSeries:
    """1/(cz;q)_inf via Euler: sum_m c^m z^m / (q;q)_m."""
    return qhyper([], [], c, order, table)


def _ratio_chain(a: Scalar, b: Scalar, order: int, table: SymbolTable) -> List[TruncSeries]:
    """ratio[m] = (az;q)_m/(bz;q)_m as a series of order (order - m), m = 0..order.

    The one builder of these quotients: the base matrix, the expansion
    elements and the identities built on them all read it.  Ratio m+1 is
    built from ratio m cut to order - m - 1: coefficient i of a product or
    quotient by a linear factor reads only coefficients 0..i, so the cut
    drops no work a later ratio uses.
    """
    q = RatFun.sym(table, "q")
    out = []
    r = TruncSeries.one(table, order)
    for m in range(order + 1):
        out.append(r)
        if m < order:
            r = r.truncated(order - m - 1).mul_linear(a * q**m).div_linear(b * q**m)
    return out


def _element(ratio: TruncSeries, n: int, order: int) -> TruncSeries:
    """z^n times ratio (a series of order order - n), as a series of the given order."""
    return TruncSeries(ratio.table, order, [RatFun.zero(ratio.table)] * n + ratio.coeffs)


def base_element(n: int, a: Scalar, b: Scalar, order: int, table: SymbolTable) -> TruncSeries:
    """The expansion element z^n (az;q)_n / (bz;q)_n.

    Vanishes identically below z^n and has coefficient 1 at z^n.
    """
    if n < 0:
        raise OrderError(f"base element index must be >= 0, got {n}")
    if n > order:
        raise OrderError(f"base element index {n} beyond truncation order {order}")
    a = _coerce_scalar(table, a)
    b = _coerce_scalar(table, b)
    return _element(_ratio_chain(a, b, order, table)[n], n, order)


def qhyper(
    uppers: Sequence[Scalar],
    lowers: Sequence[Scalar],
    c: Scalar,
    order: int,
    table: SymbolTable,
) -> TruncSeries:
    """Basic hypergeometric series with z-free parameters and argument cz.

    Term n carries prod (u;q)_n over the uppers divided by (q;q)_n and
    prod (l;q)_n over the lowers, times (cz)^n.
    """
    us = [_coerce_scalar(table, u) for u in uppers]
    ls = [_coerce_scalar(table, l) for l in lowers]
    c = _coerce_scalar(table, c)
    q = RatFun.sym(table, "q")
    coeffs = [RatFun.one(table)]
    t = coeffs[0]
    for n in range(1, order + 1):
        for u in us:
            t = t * (1 - u * q ** (n - 1))
        t = t * c
        den = 1 - q**n
        for j, l in enumerate(ls):
            factor = 1 - l * q ** (n - 1)
            if factor.is_zero():
                raise PoleError(f"lower parameter {j} makes term {n} undefined")
            den = den * factor
        t = t / den
        coeffs.append(t)
    return TruncSeries(table, order, coeffs)


def partial_theta(baseexp: int, c: Scalar, p: int, order: int, table: SymbolTable) -> TruncSeries:
    """sum_k (-1)^k q^(baseexp*k(k-1)/2) c^k z^(p k), truncated at the order.

    baseexp sets the theta base q^baseexp; p spaces the powers of z.
    """
    if baseexp < 1 or p < 1:
        raise OrderError("baseexp and p must be positive")
    c = _coerce_scalar(table, c)
    q = RatFun.sym(table, "q")
    out = TruncSeries.zero(table, order)
    term = RatFun.one(table)
    for k in range(order // p + 1):
        out.coeffs[p * k] = term
        # step k -> k+1 multiplies by -c q^(baseexp*k)
        term = term * (-c) * q ** (baseexp * k)
    return out


def sum_series(terms: Iterable[TruncSeries], table=None, order=None) -> TruncSeries:
    """Balanced sum of many series (keeps intermediate coefficients small).

    Each round adds items 2i and 2i+1 into slot i and carries an odd last
    item up unchanged.  Unreduced RatFun sums render differently when
    regrouped, so this pairing is the one order every balanced sum uses.
    """
    items = list(terms)
    if not items:
        if table is None or order is None:
            raise StructureError("empty sum needs an explicit table and order")
        return TruncSeries.zero(table, order)
    n = len(items)
    while n > 1:
        for i in range(0, n - 1, 2):
            items[i // 2] = items[i] + items[i + 1]
        if n % 2:
            items[n // 2] = items[n - 1]
        n = (n + 1) // 2
    return items[0]

