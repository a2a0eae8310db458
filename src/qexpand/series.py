"""Truncated power series in z with exact rational-function coefficients.

A TruncSeries of order N stores coefficients c_0..c_N of a series
sum_n c_n z^n, each an exact RatFun over the ambient symbol table; every
operation truncates at the smaller order of its operands.  The series
variable z is *not* a table symbol -- it exists only through the
coefficient list -- so substituting q-shifts (z -> z q^k) and extracting
coefficients stay O(N) scalar operations.

Constructors cover the q-Pochhammer toolkit: finite products (cz;q)_n for
any integer n (negative n via the reciprocal convention
(cz;q)_{-m} = 1 / prod_{j=1..m} (1 - c z q^{-j})), infinite products via
Euler's expansions (never by truncating the product), the expansion
elements z^n (az;q)_n / (bz;q)_n, basic hypergeometric sums with z-free
parameters, and partial theta sums.

Every q-dependent constructor requires the ambient table to declare a
symbol named "q".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence, Union

from .errors import NonInvertibleError, OrderError, PoleError, StructureError
from .ring import MultiPoly, RatFun, SymbolTable, _dot, _poly_substitute

Scalar = Union[RatFun, int, Fraction]


def _q(table: SymbolTable) -> RatFun:
    return qpow(table, 1)


def qpow(table: SymbolTable, e: int) -> RatFun:
    """The monomial q^e as a RatFun: q^e over 1, or 1 over q^-e when e < 0."""
    if "q" not in table:
        raise StructureError('the symbol table must declare "q"')
    one = MultiPoly.const(table, 1)
    mono = MultiPoly.monomial(table, {"q": abs(e)})
    return RatFun(mono, one) if e >= 0 else RatFun(one, mono)


def _coerce_scalar(table: SymbolTable, c: Scalar) -> RatFun:
    if isinstance(c, RatFun):
        return c
    if isinstance(c, int):
        return RatFun.from_int(table, c)
    if isinstance(c, Fraction):
        return RatFun.from_fraction(table, c)
    raise StructureError(f"bad coefficient {c!r}")


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
        return TruncSeries.const(table, 1, order)

    @staticmethod
    def const(table: SymbolTable, c: Scalar, order: int) -> "TruncSeries":
        out = TruncSeries.zero(table, order)
        out.coeffs[0] = _coerce_scalar(table, c)
        return out

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

    def coefficient(self, n: int) -> RatFun:
        if not 0 <= n <= self.order:
            raise OrderError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        if not self.table.same_as(other.table):
            raise StructureError("mixed symbol tables")
        n = min(self.order, other.order)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    __hash__ = None

    def _common_order(self, other: "TruncSeries") -> int:
        if not self.table.same_as(other.table):
            raise StructureError("mixed symbol tables")
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
        n = self._common_order(other)
        return TruncSeries(
            self.table, n, [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)]
        )

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
        q = _q(self.table)
        out = []
        step = q**k
        fac = RatFun.one(self.table)
        for n, c in enumerate(self.coeffs):
            if n:
                fac = fac * step
            out.append(c if c.is_zero() else c * fac)
        return TruncSeries(self.table, self.order, out)

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

    def embed(self, table: SymbolTable) -> "TruncSeries":
        return TruncSeries(table, self.order, [c.embed(table) for c in self.coeffs])

    # -- output -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

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
# z-free q-Pochhammer scalars


def qpoch_param(c: Scalar, n: int, table: SymbolTable) -> RatFun:
    """(c;q)_n as a RatFun, for any integer n (z-free parameter Pochhammer)."""
    if n >= 0:
        return qpoch_param_range(c, 0, n, table)
    return 1 / qpoch_param_range(c, n, 0, table)


def qpoch_param_range(c: Scalar, lo: int, hi: int, table: SymbolTable) -> RatFun:
    """prod_{i=lo}^{hi-1} (1 - c q^i) as a RatFun (empty product for hi<=lo)."""
    c = _coerce_scalar(table, c)
    q = _q(table)
    prod = RatFun.one(table)
    f = c * q**lo
    for _ in range(hi - lo):
        prod = prod * (1 - f)
        f = f * q
    return prod


# ---------------------------------------------------------------------------
# series constructors


def pochhammer_finite(c: Scalar, n: int, order: int, table: SymbolTable) -> TruncSeries:
    """(cz;q)_n for any integer n, including the reciprocal convention n<0."""
    c = _coerce_scalar(table, c)
    q = _q(table)
    out = TruncSeries.one(table, order)
    f = c
    if n >= 0:
        for _ in range(n):
            out = out.mul_linear(f)
            f = f * q
    else:
        for _ in range(-n):
            f = f / q
            out = out.div_linear(f)
    return out


def pochhammer_infinite(c: Scalar, order: int, table: SymbolTable) -> TruncSeries:
    """(cz;q)_inf via Euler: sum_m (-c)^m q^(m(m-1)/2) z^m / (q;q)_m."""
    c = _coerce_scalar(table, c)
    q = _q(table)
    coeffs = [RatFun.one(table)]
    t = coeffs[0]
    qm = RatFun.one(table)  # q^(m-1) at step m
    for m in range(1, order + 1):
        t = t * (-c) * qm / (1 - q**m)
        qm = qm * q
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
    q = _q(table)
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
    q = _q(table)
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
    q = _q(table)
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


# ---------------------------------------------------------------------------
# substitution of series values for ring symbols (used by specialization
# checks, e.g. replacing a parameter by z or z/q inside an identity)


def substitute_in_series(s: TruncSeries, vals: Mapping[str, TruncSeries]) -> TruncSeries:
    """Replace table symbols by series values inside a series.

    Each coefficient c_n is mapped to a series in z and re-attached at z^n;
    denominators must stay invertible after substitution.
    """
    table = s.table
    order = s.order
    for nm, v in vals.items():
        if nm not in table:
            raise StructureError(f"unknown symbol {nm!r}")
        if not v.table.same_as(table):
            raise StructureError("substitution values must share the table")
    one, zero = TruncSeries.one(table, order), TruncSeries.zero(table, order)
    result = zero
    for n, cn in enumerate(s.coeffs):
        if cn.is_zero():
            continue
        ns = _poly_substitute(cn.num, vals, one, zero)
        ds = _poly_substitute(cn.den, vals, one, zero)
        result = result + (ns * ds.invert()).mul_z(n)
    return result
