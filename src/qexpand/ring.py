"""Exact coefficient arithmetic: multivariate polynomials and their quotients.

This is the coefficient ring for every series computation in the package:
polynomials over arbitrary-precision integers in a fixed, ordered set of
symbols, and formal quotients of such polynomials.

Representation.  A polynomial is a dict mapping packed exponent keys to
nonzero int coefficients.  The packed key of a monomial with exponents
(e_0, ..., e_{m-1}) is

    sum(e) << m*W  |  e_0 << (m-1)*W  |  ...  |  e_{m-1}

with field width W = 24 bits.  Putting the total degree in the topmost
field makes plain integer comparison of keys agree with graded
lexicographic order on the declared symbols, so max(terms) is the leading
monomial, and key addition is exponent-vector addition.  Both need every
field below 2**24, which is enforced, not assumed: `SymbolTable.pack` and
`MultiPoly.__mul__` raise StructureError when an exponent could reach it.

Multiplication.  A one-term factor shifts the other's keys.  Any other
product is a Kronecker substitution in the first symbol (q in every table
the package builds): each run of q-powers becomes one Python int, so that
CPython's big-int multiply does the convolution (see _kron_mul).

Quotients are *not* reduced by multivariate gcd -- that is a deliberate
trade: normalization is limited to integer content, a common monomial
factor, and the sign of the denominator's leading coefficient.  Equality
is still exact, decided by cross-multiplication.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from fractions import Fraction
from functools import reduce
from typing import Mapping, Optional, Sequence, Union

from .errors import ParseError, PoleError, StructureError

_WIDTH = 24
_LIMIT = 1 << _WIDTH
_MASK = _LIMIT - 1

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# unsigned array typecodes by item size, for packing Kronecker slots in C
_ARRAY_CODES = {array(c).itemsize: c for c in "BHILQ"}
_ORDER = sys.byteorder


class SymbolTable:
    """Fixed, ordered collection of symbol names shared by ring values."""

    __slots__ = ("names", "_pos", "_shifts", "_degshift")

    def __init__(self, names: Sequence[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise StructureError(f"duplicate symbol names in {names!r}")
        for nm in names:
            if not _NAME_RE.fullmatch(nm):
                raise StructureError(f"invalid symbol name {nm!r}")
        self.names = names
        self._pos = {nm: i for i, nm in enumerate(names)}
        m = len(names)
        self._shifts = tuple((m - 1 - i) * _WIDTH for i in range(m))
        self._degshift = m * _WIDTH

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._pos

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise StructureError(f"unknown symbol {name!r}") from None

    def with_symbols(self, *extra: str) -> "SymbolTable":
        """New table extending this one; existing values must be re-embedded."""
        new = [nm for nm in extra if nm not in self._pos]
        return SymbolTable(self.names + tuple(new))

    def pack(self, exps: Sequence[int]) -> int:
        total = sum(exps)
        # exponents are nonnegative, so the sum bounds each of them
        if total >= _LIMIT:
            raise StructureError(f"exponents {tuple(exps)} reach the field bound 2**{_WIDTH}")
        key = total << self._degshift
        for e, sh in zip(exps, self._shifts):
            key |= e << sh
        return key

    def unpack(self, key: int):
        return tuple((key >> sh) & _MASK for sh in self._shifts)

    def same_as(self, other: "SymbolTable") -> bool:
        return self is other or self.names == other.names

    def __repr__(self) -> str:
        return f"SymbolTable({', '.join(self.names)})"


def _check_tables(x, y) -> None:
    if not x.table.same_as(y.table):
        raise StructureError(
            f"mixed symbol tables: {x.table.names} vs {y.table.names}"
        )


def _mul_terms(t1: dict, t2: dict) -> dict:
    # the schoolbook pair loop; tests check _kron_mul against it
    out: dict = {}
    get = out.get
    items2 = list(t2.items())
    for k1, c1 in t1.items():
        for k2, c2 in items2:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _kron_mul(t1: dict, t2: dict, sh: int, step: int) -> dict:
    """Product of two term dicts of two or more terms each, by Kronecker
    substitution in the field at `sh`, whose key increment is `step`.

    With no field overflowing (the caller checks), a key is linear in the
    exponent vector: it splits as g + e*step, e the exponent in that field.
    Each group sharing g becomes one int with the coefficient of e in a w-bit
    slot at bit w*(e - lo).  An output coefficient sums at most min(n1, n2)
    pair products, so w >= bitlen(max|c1|*max|c2|*min(n1, n2)) + 2 keeps
    every slot below 2**(w - 2) in magnitude, and slots biased by 2**(w - 1)
    pack and unpack as unsigned with no carry between them.
    """
    bound = max(map(abs, t1.values())) * max(map(abs, t2.values())) * min(len(t1), len(t2))
    nbytes = (bound.bit_length() + 9) >> 3
    if nbytes <= 8:
        # a power of two is an array item size, which packs and unpacks in C
        nbytes = 1 << (nbytes - 1).bit_length()
    code = _ARRAY_CODES.get(nbytes)
    w = nbytes << 3
    half = 1 << (w - 1)
    half_bytes = half.to_bytes(nbytes, _ORDER)
    packed = []
    for terms in (t1, t2):
        runs: dict = {}
        for k, c in terms.items():
            e = (k >> sh) & _MASK
            runs.setdefault(k - e * step, {})[e] = c
        groups = []
        for g, run in runs.items():
            lo = min(run)
            slots = [half] * (max(run) - lo + 1)
            for e, c in run.items():
                slots[e - lo] = half + c
            raw = (array(code, slots).tobytes() if code
                   else b"".join([v.to_bytes(nbytes, _ORDER) for v in slots]))
            bias = int.from_bytes(half_bytes * len(slots), _ORDER)
            groups.append((g, lo, int.from_bytes(raw, _ORDER) - bias))
        packed.append(groups)
    groups1, groups2 = packed
    acc: dict = {}
    get = acc.get
    for g1, lo1, x1 in groups1:
        for g2, lo2, x2 in groups2:
            g = g1 + g2
            acc[g] = get(g, 0) + (x1 * x2 << w * (lo1 + lo2))
    out: dict = {}
    for g, x in acc.items():
        if not x:
            continue
        # the lowest and highest nonzero slots, from the bit lengths
        lo = ((x & -x).bit_length() - 1) // w
        nslots = abs(x).bit_length() // w - lo + 1
        bias = int.from_bytes(half_bytes * nslots, _ORDER)
        raw = ((x >> w * lo) + bias).to_bytes(nslots * nbytes, _ORDER)
        slots = (array(code, raw) if code else
                 [int.from_bytes(raw[i:i + nbytes], _ORDER) for i in range(0, len(raw), nbytes)])
        key = g + lo * step
        for v in slots:
            if v != half:
                out[key] = v - half
            key += step
    return out


def _add_terms(t1: dict, t2: dict) -> dict:
    if len(t2) > len(t1):
        t1, t2 = t2, t1
    out = dict(t1)
    get = out.get
    for k, c in t2.items():
        v = get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


class MultiPoly:
    """Multivariate polynomial with int coefficients over a symbol table.

    The terms dict maps packed exponent keys to nonzero ints and is frozen
    by convention: every operation builds a new dict.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: SymbolTable, terms: dict):
        self.table = table
        self.terms = terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "MultiPoly":
        return MultiPoly(table, {})

    @staticmethod
    def const(table: SymbolTable, c: int) -> "MultiPoly":
        return MultiPoly(table, {0: c} if c else {})

    @staticmethod
    def monomial(table: SymbolTable, exps: Mapping[str, int], coeff: int = 1) -> "MultiPoly":
        if not coeff:
            return MultiPoly(table, {})
        vec = [0] * len(table)
        for nm, e in exps.items():
            if e < 0:
                raise StructureError(f"negative exponent for {nm!r} in a polynomial")
            vec[table.position(nm)] = e
        return MultiPoly(table, {table.pack(vec): coeff})

    @staticmethod
    def symbol(table: SymbolTable, name: str) -> "MultiPoly":
        return MultiPoly.monomial(table, {name: 1})

    # -- predicates and queries ---------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> int:
        return self.terms.get(0, 0)

    def leading_coeff(self) -> int:
        """Coefficient of the graded-lex leading monomial (0 for the zero poly)."""
        if not self.terms:
            return 0
        return self.terms[max(self.terms)]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.terms) >> self.table._degshift

    def degree(self, name: str) -> int:
        """Degree in one symbol; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        sh = self.table._shifts[self.table.position(name)]
        return max((k >> sh) & _MASK for k in self.terms)

    def content(self) -> int:
        """Positive gcd of the integer coefficients (0 for the zero poly)."""
        return reduce(math.gcd, self.terms.values(), 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == ({0: other} if other else {})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.table.same_as(other.table) and self.terms == other.terms

    __hash__ = None  # mutable-ish container; never used as a dict key

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.table, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        _check_tables(self, other)
        return MultiPoly(self.table, _add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.table, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.table, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _check_tables(self, other)
        table = self.table
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        if not small:
            return MultiPoly(table, {})
        # the total degree bounds every field, and both branches below rely
        # on no field of a product key overflowing
        degshift = table._degshift
        if (max(small) >> degshift) + (max(big) >> degshift) >= _LIMIT:
            raise StructureError(f"a product reaches total degree 2**{_WIDTH}")
        if len(small) == 1:
            ((k1, c1),) = small.items()
            return MultiPoly(table, {k1 + k: c1 * c for k, c in big.items()})
        sh = table._shifts[0]
        return MultiPoly(table, _kron_mul(small, big, sh, (1 << sh) + (1 << degshift)))

    __rmul__ = __mul__

    def scaled(self, c: int) -> "MultiPoly":
        if not c:
            return MultiPoly(self.table, {})
        if c == 1:
            return self
        return MultiPoly(self.table, {k: c * v for k, v in self.terms.items()})

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise StructureError("negative power of a polynomial; use RatFun")
        result = MultiPoly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- monomial content helpers (used by RatFun normalization) ------

    def min_exponents(self, caps: Optional[Sequence[int]] = None) -> list:
        """Componentwise minimum exponents over the terms of a nonzero poly,
        each capped by caps[i] (default: none); a field capped at 0 is not
        scanned."""
        if caps is None:
            caps = [_MASK] * len(self.table)
        mins = []
        for sh, mn in zip(self.table._shifts, caps):
            if mn:
                for k in self.terms:
                    e = (k >> sh) & _MASK
                    if e < mn:
                        mn = e
                        if not mn:
                            break
            mins.append(mn)
        return mins

    def shift_down(self, packed: int) -> "MultiPoly":
        """Divide every term by the given packed monomial (must divide all)."""
        if packed == 0:
            return self
        return MultiPoly(self.table, {k - packed: c for k, c in self.terms.items()})

    # -- evaluation and embedding -------------------------------------

    def evaluate(self, point: Mapping[str, Union[int, Fraction]]) -> Fraction:
        vals = []
        for nm in self.table.names:
            if nm not in point:
                raise StructureError(f"evaluation point misses symbol {nm!r}")
            vals.append(Fraction(point[nm]))
        total = Fraction(0)
        for k, c in self.terms.items():
            term = Fraction(c)
            for v, e in zip(vals, self.table.unpack(k)):
                if e:
                    term *= v**e
            total += term
        return total

    def embed(self, table: SymbolTable) -> "MultiPoly":
        """Recoded copy over a table containing all of this poly's symbols."""
        if table.same_as(self.table):
            return MultiPoly(table, dict(self.terms))
        old = self.table
        out: dict = {}
        for k, c in self.terms.items():
            vec = [0] * len(table)
            for nm, e in zip(old.names, old.unpack(k)):
                if e:
                    vec[table.position(nm)] = e
            out[table.pack(vec)] = c
        return MultiPoly(table, out)

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def render_poly(p: MultiPoly) -> str:
    """Canonical text: graded-lex descending terms, explicit * and ^."""
    if not p.terms:
        return "0"
    pieces = []
    for k in sorted(p.terms, reverse=True):
        c = p.terms[k]
        mono = "*".join(
            nm if e == 1 else f"{nm}^{e}"
            for nm, e in zip(p.table.names, p.table.unpack(k))
            if e
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = [body if sign == "+" else f"-{body}"]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


class RatFun:
    """Quotient of two MultiPoly values, normalized but not gcd-reduced.

    Normalization: zero numerator forces denominator 1; integer content and
    any monomial dividing every term of both numerator and denominator are
    cancelled; the denominator's leading coefficient is made positive.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        _check_tables(num, den)
        if den.is_zero():
            raise PoleError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = MultiPoly.const(num.table, 1)
            return
        nt, dt = num.terms, den.terms
        cn = num.content()
        cd = den.content()
        g = math.gcd(cn, cd)
        if g > 1:
            nt = {k: c // g for k, c in nt.items()}
            dt = {k: c // g for k, c in dt.items()}
            num = MultiPoly(num.table, nt)
            den = MultiPoly(den.table, dt)
        if 0 not in nt and 0 not in dt:
            # the denominator first: it often has one term, which leaves
            # few numerator fields to scan
            lo = num.min_exponents(den.min_exponents())
            if any(lo):
                lo = num.table.pack(lo)
                num = num.shift_down(lo)
                den = den.shift_down(lo)
        if den.leading_coeff() < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int(table: SymbolTable, c: int) -> "RatFun":
        return RatFun(MultiPoly.const(table, c), MultiPoly.const(table, 1))

    @staticmethod
    def from_fraction(table: SymbolTable, fr: Fraction) -> "RatFun":
        fr = Fraction(fr)
        return RatFun(
            MultiPoly.const(table, fr.numerator),
            MultiPoly.const(table, fr.denominator),
        )

    @staticmethod
    def sym(table: SymbolTable, name: str) -> "RatFun":
        return RatFun(MultiPoly.symbol(table, name), MultiPoly.const(table, 1))

    @staticmethod
    def zero(table: SymbolTable) -> "RatFun":
        return RatFun.from_int(table, 0)

    @staticmethod
    def one(table: SymbolTable) -> "RatFun":
        return RatFun.from_int(table, 1)

    @property
    def table(self) -> SymbolTable:
        return self.num.table

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.terms == self.den.terms

    def is_poly(self) -> bool:
        return self.den.is_const() or len(self.den.terms) == 1

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_tables(self, other)
        # exact: cross-multiplied difference must vanish identically
        if self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        return (self.num * other.den).terms == (other.num * self.den).terms

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, int):
            return RatFun.from_int(self.table, other)
        if isinstance(other, Fraction):
            return RatFun.from_fraction(self.table, other)
        if isinstance(other, MultiPoly):
            return RatFun(other, MultiPoly.const(other.table, 1))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_tables(self, other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.terms == other.den.terms:
            return RatFun(self.num + other.num, self.den)
        if other.den.is_const() and other.den.const_value() == 1:
            return RatFun(self.num + other.num * self.den, self.den)
        if self.den.is_const() and self.den.const_value() == 1:
            return RatFun(other.num + self.num * other.den, other.den)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_tables(self, other)
        if self.num.is_zero() or other.num.is_zero():
            return RatFun.zero(self.table)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_tables(self, other)
        if other.num.is_zero():
            raise PoleError("division by zero")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            if self.num.is_zero():
                raise PoleError("negative power of zero")
            return RatFun(self.den ** (-n), self.num ** (-n))
        return RatFun(self.num**n, self.den**n)

    # -- structural operations ------------------------------------------

    def substitute(self, assignments) -> "RatFun":
        """Simultaneously replace symbols by RatFun values.

        `assignments` maps symbol names to RatFun / int / Fraction values;
        a list of (name, value) pairs is also accepted.  Unassigned symbols
        stay themselves.
        """
        if not isinstance(assignments, Mapping):
            pairs = list(assignments)
            names = [nm for nm, _ in pairs]
            if len(set(names)) != len(names):
                raise StructureError("assignments target a symbol twice")
            assignments = dict(pairs)
        table = self.table
        vals = {}
        for nm, v in assignments.items():
            if nm not in table:
                raise StructureError(f"unknown symbol {nm!r}")
            r = RatFun.one(table)._coerce(v)
            if r is NotImplemented:
                raise StructureError(f"bad substitution value for {nm!r}")
            _check_tables(self, r)
            vals[nm] = r
        num = _poly_substitute(self.num, vals)
        den = _poly_substitute(self.den, vals)
        if den.is_zero():
            raise PoleError("substitution sends the denominator to zero")
        return num / den

    def evaluate(self, point: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Exact rational value at a full assignment of the symbols."""
        d = self.den.evaluate(point)
        if d == 0:
            raise PoleError(f"denominator vanishes at {dict(point)!r}")
        return self.num.evaluate(point) / d

    def embed(self, table: SymbolTable) -> "RatFun":
        return RatFun(self.num.embed(table), self.den.embed(table))

    def __str__(self) -> str:
        if self.den == 1:
            return render_poly(self.num)
        return f"({render_poly(self.num)})/({render_poly(self.den)})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


def _poly_substitute(p: MultiPoly, vals: Mapping[str, RatFun]) -> RatFun:
    table = p.table
    touched = {table.position(nm) for nm in vals}
    powers = {nm: [RatFun.one(table)] for nm in vals}

    def power_of(nm: str, e: int) -> RatFun:
        cache = powers[nm]
        while len(cache) <= e:
            cache.append(cache[-1] * vals[nm])
        return cache[e]

    total = RatFun.zero(table)
    for k, c in p.terms.items():
        vec = table.unpack(k)
        rest = [0] * len(table)
        factor = RatFun.from_int(table, c)
        for i, e in enumerate(vec):
            if i in touched:
                if e:
                    factor = factor * power_of(table.names[i], e)
            else:
                rest[i] = e
        mono = MultiPoly(table, {table.pack(rest): 1})
        total = total + factor * mono
    return total


def symbols(names: Union[str, Sequence[str]]):
    """Build a table and its symbols in one go: `t, (q, a) = symbols("q a")`."""
    if isinstance(names, str):
        names = names.split()
    table = SymbolTable(names)
    return table, tuple(RatFun.sym(table, nm) for nm in table.names)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            break
        if m.lastgroup == "int":
            out.append(("int", int(m.group("int"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"bad character {text[pos:].strip()[0]!r} at position {pos}")
    return out


def expression_symbols(text: str):
    """Symbol names appearing in an expression, in first-use order."""
    seen = []
    for kind, val in _tokenize(text):
        if kind == "name" and val not in seen:
            seen.append(val)
    return seen


class _Parser:
    def __init__(self, tokens, table: SymbolTable):
        self.tokens = tokens
        self.pos = 0
        self.table = table

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val = self.take()
        if kind != "op" or val != op:
            got = "end of expression" if kind is None else repr(val)
            raise ParseError(f"expected {op!r}, got {got}")

    def parse(self) -> RatFun:
        v = self.expr()
        if self.pos != len(self.tokens):
            raise ParseError(f"trailing input near {self.peek()[1]!r}")
        return v

    def expr(self) -> RatFun:
        v = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self) -> RatFun:
        v = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            w = self.unary()
            v = v * w if op == "*" else v / w
        return v

    def unary(self) -> RatFun:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> RatFun:
        v = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            neg = False
            if self.peek() == ("op", "-"):
                self.take()
                neg = True
            kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal")
            return v ** (-val if neg else val)
        return v

    def atom(self) -> RatFun:
        kind, val = self.take()
        if kind == "int":
            return RatFun.from_int(self.table, val)
        if kind == "name":
            return RatFun.sym(self.table, val)
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_op(")")
            return v
        if kind is None:
            raise ParseError("unexpected end of expression")
        raise ParseError(f"unexpected token {val!r}")


def parse_ratfun(text: str, table: SymbolTable) -> RatFun:
    """Parse `+ - * / ^` expressions over integers and table symbols."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    for kind, val in tokens:
        if kind == "name" and val not in table:
            raise StructureError(f"unknown symbol {val!r}")
    return _Parser(tokens, table).parse()
