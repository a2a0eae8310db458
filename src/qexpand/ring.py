"""Exact coefficient arithmetic: multivariate polynomials and their quotients.

This is the coefficient ring for every series computation in the package:
polynomials over arbitrary-precision integers in a fixed, ordered set of
symbols, and formal quotients of such polynomials.

Representation.  A monomial with exponents (e_0, ..., e_{m-1}) has the
packed key

    sum(e) << m*W  |  e_0 << (m-1)*W  |  ...  |  e_{m-1}

with field width W = 24 bits.  Putting the total degree in the topmost
field makes plain integer comparison of keys agree with graded
lexicographic order on the declared symbols, and key addition is
exponent-vector addition.  Both need every field below 2**24, which is
enforced, not assumed: `SymbolTable.pack`, `MultiPoly.__mul__`,
`MultiPoly.__pow__` and _poly_from_symmetric raise StructureError when an
exponent could reach it.

A polynomial groups its terms by the part of the key free of the first
symbol x (q in every table the package builds), whose coefficients come in
long dense runs of consecutive powers.  Each run is stored as (lo, X): the
coefficient of x^e sits in a signed w-bit slot of the one int X at bit
w*(e - lo), and the slot of x^lo is nonzero.  Slots are 32 bits wide while
a tracked bound on the coefficients' magnitude is below 2**31, then 64
bits, and grow in steps of 64 bits past that, so coefficients of any size
stay exact.  The bound is carried through every operation (a sum's is the
sum of its operands' bounds) and made exact by one scan of the value when
it would overflow the slots and exact bounds could keep them narrower, or
when a large product can use narrower slots for it.  The arithmetic works
on whole runs: an add is one int add per shared run, negation and scaling
are one int operation per run, and degrees, minimum exponents and the
leading coefficient read run keys and bit positions.
The term dict `MultiPoly.terms` is decoded only when read.

Multiplication.  A one-term factor shifts the other's run keys and scales
its runs, and a power of one term is one term, built in one step; only a
power of a sum multiplies, by binary powering.  Any other product is a
Kronecker substitution in x that needs no conversion: each pair of runs
multiplies as two ints, so that CPython's big-int multiply does the
convolution.  A pair product is added to its output run at that run's
own lowest power, so no int is wider than the run it builds.  That
run-pair accumulator is written once (_add_products): a single product
is its one-pair case, and a sum of products over denominator 1 runs all
its pairs through it, with no intermediate product or sum (see _dot and
_sum_products).  The binomials
1 - q^k of a (q;q) quotient take a slot shift and a subtract per run
each where q is x, else a RatFun product each (see _times_binomials).
A poly in E = A + B and F = AB maps to one in A and B by integer
multiples of its runs (see _poly_from_symmetric).

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
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import ParseError, PoleError, StructureError

_WIDTH = 24
_LIMIT = 1 << _WIDTH
_MASK = _LIMIT - 1

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# run slots convert to and from bytes as little-endian
_BIG_ENDIAN = sys.byteorder == "big"
_new = object.__new__


class SymbolTable:
    """Fixed, ordered collection of symbol names shared by ring values."""

    __slots__ = ("names", "_pos", "_shifts", "_degshift", "_step")

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
        # the key increment of one more power of the first symbol
        self._step = (1 << self._degshift) + (1 << self._shifts[0] if m else 0)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._pos

    def position(self, name: str) -> int:
        try:
            return self._pos[name]
        except KeyError:
            raise StructureError(f"unknown symbol {name!r}") from None

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

    def __repr__(self) -> str:
        return f"SymbolTable({', '.join(self.names)})"


def _check_tables(x, y) -> None:
    if x.table is not y.table and x.table.names != y.table.names:
        raise StructureError(
            f"mixed symbol tables: {x.table.names} vs {y.table.names}"
        )


def _check_degree(p, r) -> None:
    # the total degree bounds every field, and no field of a product key
    # may overflow
    if p.deg + r.deg >= _LIMIT and p.total_degree() + r.total_degree() >= _LIMIT:
        raise StructureError(f"a product reaches total degree 2**{_WIDTH}")


# -- runs: the coefficients of x^lo, x^(lo+1), ... in the slots of one int --


def _width(bits: int) -> int:
    """Slot width for coefficients below 2**bits in magnitude: 32 while
    bits <= 31, else the least multiple of 64 that leaves the sign bit free."""
    return 32 if bits < 32 else ((bits >> 6) + 1) << 6


# a signed array typecode for each slot width that a C type matches in
# size: 32-bit and 64-bit slots convert through arrays, any other width
# through int.from_bytes slot by slot
_TYPECODES = {8 * array(tc).itemsize: tc for tc in "bhilq"}

_BIASES: dict = {}


def _bias(w: int, n: int) -> int:
    """2**(w - 1) in each of n w-bit slots, cached up to 2**14 bits."""
    bias = _BIASES.get((w, n))
    if bias is None:
        bias = int.from_bytes((1 << (w - 1)).to_bytes(w >> 3, "little") * n, "little")
        if n * w <= 1 << 14:
            _BIASES[w, n] = bias
    return bias


def _slots(x: int, w: int):
    """The signed w-bit slots of a run, lowest first, up to the top nonzero one.

    Every slot lies in (-2**(w-1), 2**(w-1)), so the lower slots move x by
    less than half the top slot's unit: x has w*(n-1) to w*n - 1 bits.
    Adding the bias makes every slot nonnegative with no carry between
    slots, and the xor turns slot c + 2**(w-1) into c in two's complement.
    """
    n = x.bit_length() // w + 1
    nb = w >> 3
    bias = _bias(w, n)
    raw = ((x + bias) ^ bias).to_bytes(n * nb, "little")
    tc = _TYPECODES.get(w)
    if tc is None:
        return [int.from_bytes(raw[i:i + nb], "little", signed=True)
                for i in range(0, len(raw), nb)]
    slots = array(tc, raw)
    if _BIG_ENDIAN:
        slots.byteswap()
    return slots


def _run(slots, w: int) -> int:
    """The int whose w-bit slots are `slots` (the inverse of _slots)."""
    tc = _TYPECODES.get(w)
    if tc is None:
        nb = w >> 3
        raw = b"".join([c.to_bytes(nb, "little", signed=True) for c in slots])
    else:
        packed = array(tc, slots)
        if _BIG_ENDIAN:
            packed.byteswap()
        raw = packed.tobytes()
    bias = _bias(w, len(slots))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _scan(p: "MultiPoly") -> int:
    """2**b - 1 for the bit length b of p's largest coefficient, exact.

    One pass over all of p's runs: each run plus its bias holds c + 2**(w-1)
    in every slot (see _slots), and their bytes joined make one int u with
    every slot of p.  A slot with its top bit set holds c >= 0, and a few
    whole-int operations turn every slot into |c|; halving folds then or
    the upper half of the slots into the lower half until one is left.
    """
    w = p.w
    nb = w >> 3
    parts = []
    for _, x in p.runs.values():
        n = x.bit_length() // w + 1
        parts.append((x + _bias(w, n)).to_bytes(n * nb, "little"))
    raw = b"".join(parts)
    n = len(raw) // nb
    u = int.from_bytes(raw, "little")
    bias = _bias(w, n)
    ones = bias >> (w - 1)
    pos = (u >> (w - 1)) & ones
    # c >= 0: |c| = u ^ 2**(w-1);  c < 0: |c| = ((2**(w-1) - 1) ^ u) + 1
    a = (u ^ (bias - ones) ^ pos * ((1 << w) - 1)) + (ones - pos)
    while n > 1:
        n = (n + 1) >> 1
        a = (a >> w * n) | (a & ((1 << w * n) - 1))
    return (1 << a.bit_length()) - 1


def _low(x: int, w: int) -> int:
    """The lowest slot of a run."""
    c = x & ((1 << w) - 1)
    return c - (1 << w) if c >> (w - 1) else c


def _top(x: int, w: int) -> int:
    """The highest slot of a run: x rounded to a multiple of its unit."""
    sh = x.bit_length() // w * w
    return (x + (1 << sh >> 1)) >> sh


class MultiPoly:
    """Multivariate polynomial with int coefficients over a symbol table.

    `runs` maps the packed key g of a monomial free of the first symbol x
    to (lo, X), where X = sum(c_e << w*(e - lo)) holds the coefficient c_e
    of g*x^e in a signed w-bit slot and the slot of x^lo is nonzero.  Every
    |c_e| is at most `_bound`, a tracked bound, and w is
    _width(_bound.bit_length()) or wider: 32, 64, 128, ... bits.  `_exact`
    says that a scan (_tighten) would not lower `_bound`: it holds for a
    value built from its terms, whose `_bound` is its largest |c_e|, and
    for a scanned one, whose `_bound` is 2**b - 1 for that |c_e|'s bit
    length b.  At one width the runs are canonical, so equal polys have
    equal runs.
    `deg` bounds the total degree from above (exact after a multiply).
    Values are immutable by convention: every operation builds new runs.
    """

    __slots__ = ("table", "runs", "w", "deg", "_bound", "_exact", "_terms")

    def __init__(self, table: SymbolTable, terms: Mapping[int, int]):
        """From a dict of packed keys to int coefficients (zeros are dropped)."""
        step = table._step
        sh = table._shifts[0] if table._shifts else 0
        groups: dict = {}
        deg = -1
        for k, c in terms.items():
            if c:
                e = (k >> sh) & _MASK
                groups.setdefault(k - e * step, {})[e] = c
                deg = max(deg, k >> table._degshift)
        bound = max(map(abs, terms.values()), default=0)
        w = _width(bound.bit_length())
        runs = {}
        for g, run in groups.items():
            lo = min(run)
            slots = [0] * (max(run) - lo + 1)
            for e, c in run.items():
                slots[e - lo] = c
            runs[g] = (lo, _run(slots, w))
        self.table, self.runs, self.w, self._bound, self.deg = table, runs, w, bound, deg
        self._exact = True

    @property
    def terms(self) -> Mapping[int, int]:
        """Read-only dict of packed keys to nonzero coefficients, decoded on
        first use; the arithmetic never reads it."""
        try:
            return self._terms
        except AttributeError:
            pass
        step, w = self.table._step, self.w
        out = {}
        for g, (lo, x) in self.runs.items():
            k = g + lo * step
            for c in _slots(x, w):
                if c:
                    out[k] = c
                k += step
        self._terms = MappingProxyType(out)
        return self._terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "MultiPoly":
        return _poly(table, {}, 32, 0, -1, True)

    @staticmethod
    def const(table: SymbolTable, c: int) -> "MultiPoly":
        if not c:
            return MultiPoly.zero(table)
        return _poly(table, {0: (0, c)}, _width(c.bit_length()), abs(c), 0, True)

    @staticmethod
    def monomial(table: SymbolTable, exps: Mapping[str, int], coeff: int = 1) -> "MultiPoly":
        if not coeff:
            return MultiPoly.zero(table)
        vec = [0] * len(table)
        for nm, e in exps.items():
            if e < 0:
                raise StructureError(f"negative exponent for {nm!r} in a polynomial")
            vec[table.position(nm)] = e
        key = table.pack(vec)
        return _poly(table, {key - vec[0] * table._step: (vec[0], coeff)},
                     _width(coeff.bit_length()), abs(coeff), sum(vec), True)

    @staticmethod
    def symbol(table: SymbolTable, name: str) -> "MultiPoly":
        return MultiPoly.monomial(table, {name: 1})

    # -- predicates and queries ---------------------------------------

    def is_zero(self) -> bool:
        return not self.runs

    def _one_term(self) -> Optional[Tuple[int, int, int]]:
        """(g, lo, c) when the poly is the one term c*g*x^lo, else None."""
        if len(self.runs) == 1:
            ((g, (lo, c)),) = self.runs.items()
            if c.bit_length() < self.w:  # a run of one slot
                return g, lo, c
        return None

    def is_term(self) -> bool:
        """Whether the poly is one term: an integer times a monomial."""
        return self._one_term() is not None

    def const_value(self) -> int:
        lo, x = self.runs.get(0, (1, 0))
        return 0 if lo else _low(x, self.w)

    def leading_coeff(self) -> int:
        """Coefficient of the graded-lex leading monomial (0 for the zero poly)."""
        if not self.runs:
            return 0
        w, step = self.w, self.table._step
        # a run's largest key is its top slot's; the keys grow with x's exponent
        _, (_, x) = max(self.runs.items(),
                        key=lambda it: it[0] + (it[1][0] + it[1][1].bit_length() // w) * step)
        return _top(x, w)

    def total_degree(self) -> int:
        if not self.runs:
            return -1
        w, ds = self.w, self.table._degshift
        return max((g >> ds) + lo + x.bit_length() // w for g, (lo, x) in self.runs.items())

    def content(self, g: int = 0) -> int:
        """Nonnegative gcd of g and the integer coefficients (|g| for the
        zero poly); the scan stops once the gcd reaches 1."""
        w = self.w
        # the lowest slots first: they are cheap to read and usually settle it
        for _, x in self.runs.values():
            g = math.gcd(g, _low(x, w))
            if g == 1:
                return 1
        for _, x in self.runs.values():
            if x.bit_length() >= w:  # a one-slot run was read above
                g = math.gcd(g, *_slots(x, w))
                if g == 1:
                    return 1
        return abs(g)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.runs == ({0: (0, other)} if other else {})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.table is not other.table and self.table.names != other.table.names:
            return False
        if self.w == other.w:
            return self.runs == other.runs
        w = max(self.w, other.w)
        return self._at(w) == other._at(w)

    __hash__ = None  # mutable-ish container; never used as a dict key

    # -- slot width ---------------------------------------------------

    def _at(self, w: int) -> dict:
        """The runs re-packed at slot width w (which must hold them)."""
        v = self.w
        if w == v:
            return self.runs
        return {g: (lo, _run(_slots(x, v), w)) for g, (lo, x) in self.runs.items()}

    def _tighten(self) -> None:
        """Make the bound exact (one scan per value), and narrow the slots
        if it allows; the value is unchanged."""
        if not self._exact:
            self._bound = _scan(self)
            self._exact = True
        w = _width(self._bound.bit_length())
        if w < self.w:
            self.runs = self._at(w)
            self.w = w

    def _term_room(self, c_abs: int) -> tuple:
        """(w, bound) for self times a term of coefficient +-c_abs: self's
        slots unless the bound overflows them."""
        bound = self._bound * c_abs
        if bound.bit_length() >= self.w:
            return _make_room(lambda b: b * c_abs, self)
        return self.w, bound

    def _term_mul(self, g1: int, lo1: int, c: int, deg1: int) -> "MultiPoly":
        # times c*g1*x^lo1 of total degree deg1, by a key and lo shift per run
        if c == 1 and not (g1 or lo1):
            return self
        c_abs = abs(c)
        w, bound = self._term_room(c_abs)
        runs = self._at(w)
        if c == 1:
            out = {g + g1: (lo + lo1, x) for g, (lo, x) in runs.items()}
        else:
            out = {g + g1: (lo + lo1, x * c) for g, (lo, x) in runs.items()}
        return _poly(self.table, out, w, bound, self.deg + deg1,
                     self._exact and c_abs == 1)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.const(self.table, other)
        elif not isinstance(other, MultiPoly):
            return NotImplemented
        _check_tables(self, other)
        if not other.runs:
            return self
        if not self.runs:
            return other
        bound = self._bound + other._bound
        w = max(self.w, other.w)
        if bound.bit_length() >= w:
            w, bound = _make_room(lambda b1, b2: b1 + b2, self, other)
        r1, r2 = self._at(w), other._at(w)
        if len(r1) < len(r2):
            r1, r2 = r2, r1
        out = dict(r1)
        mask = (1 << w) - 1
        for g, (lo2, x2) in r2.items():
            run = out.get(g)
            if run is None:
                out[g] = (lo2, x2)
                continue
            lo, x = run
            if lo < lo2:
                out[g] = (lo, x + (x2 << w * (lo2 - lo)))
            elif lo > lo2:
                out[g] = (lo2, x2 + (x << w * (lo - lo2)))
            else:
                x += x2
                if x & mask:
                    out[g] = (lo, x)
                elif x:  # the lowest slot cancelled
                    s = ((x & -x).bit_length() - 1) // w
                    out[g] = (lo + s, x >> w * s)
                else:
                    del out[g]
        return _poly(self.table, out, w, bound, max(self.deg, other.deg))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.table, {g: (lo, -x) for g, (lo, x) in self.runs.items()},
                     self.w, self._bound, self.deg, self._exact)

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
        if not self.runs or not other.runs:
            return MultiPoly.zero(self.table)
        _check_degree(self, other)
        for p, r in ((self, other), (other, self)):
            term = r._one_term()
            if term is not None:
                g, lo, c = term
                return p._term_mul(g, lo, c, (g >> self.table._degshift) + lo)
        return _add_products(MultiPoly.zero(self.table), ((self, other),),
                             *_runs_room(self, other))

    __rmul__ = __mul__

    def scaled(self, c: int) -> "MultiPoly":
        if not c:
            return MultiPoly.zero(self.table)
        return self._term_mul(0, 0, c, 0)

    def __pow__(self, n: int) -> "MultiPoly":
        """The n-th power, n >= 0.  A power of one term c*g*x^lo is the one
        term c^n*g^n*x^(lo*n), built in one step with its exact bound |c|^n
        and behind the total-degree guard a product has; a power of a sum
        is taken by binary powering.  The zero poly's 0th power is 1."""
        if n < 0:
            raise StructureError("negative power of a polynomial; use RatFun")
        term = self._one_term()
        if term is not None:
            g, lo, c = term
            deg = ((g >> self.table._degshift) + lo) * n
            if deg >= _LIMIT:
                raise StructureError(f"a product reaches total degree 2**{_WIDTH}")
            c **= n
            bound = abs(c)
            return _poly(self.table, {g * n: (lo * n, c)}, _width(bound.bit_length()),
                         bound, deg, True)
        result = MultiPoly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def _exact_div(self, c: int) -> "MultiPoly":
        # c > 0 divides every coefficient, so it divides each run exactly
        return _poly(self.table, {g: (lo, x // c) for g, (lo, x) in self.runs.items()},
                     self.w, self._bound // c, self.deg)

    # -- monomial content helpers (used by RatFun normalization) ------

    def min_exponents(self, caps: Optional[Sequence[int]] = None) -> list:
        """Componentwise minimum exponents over the terms of a nonzero poly,
        each capped by caps[i] (default: none); a field capped at 0 is not
        scanned."""
        if caps is None:
            caps = [_MASK] * len(self.table)
        mins = []
        for i, (sh, mn) in enumerate(zip(self.table._shifts, caps)):
            if mn:
                exps = ((g >> sh) & _MASK for g in self.runs) if i else (
                    lo for lo, _ in self.runs.values())
                for e in exps:
                    if e < mn:
                        mn = e
                        if not mn:
                            break
            mins.append(mn)
        return mins

    # -- evaluation ---------------------------------------------------

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

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _poly(table: SymbolTable, runs: dict, w: int, bound: int, deg: int,
          exact: bool = False) -> MultiPoly:
    p = _new(MultiPoly)
    p.table = table
    p.runs = runs
    p.w = w
    p._bound = bound
    p._exact = exact
    p.deg = deg
    return p


def _make_room(bound, *polys: MultiPoly) -> tuple:
    """(w, bound) for a result whose coefficients are at most
    bound(*operand bounds), called when that overflows the operands'
    slots.  The operand bounds are made exact first, unless even bounds
    of 1 would need slots as wide as the tracked bounds do: then no scan
    can narrow the result."""
    b = bound(*[p._bound for p in polys])
    if _width(bound(*[1] * len(polys)).bit_length()) < _width(b.bit_length()):
        for p in polys:
            p._tighten()
        b = bound(*[p._bound for p in polys])
    return max(_width(b.bit_length()), *[p.w for p in polys]), b


def _runs_room(p: MultiPoly, r: MultiPoly) -> tuple:
    """(w, bound) for the run-pair product p*r.

    An output coefficient sums at most n = min(n1, n2) pair products, n1
    and n2 the slot counts, so it is at most bound1 * bound2 * n.  The
    width is chosen once, from that bound.  Exact operand bounds let more
    products into 32-bit slots, so they are scanned for when the slot
    pairs outnumber the scanned slots sixteen to one (about where narrow
    slots began to pay for a scan on one long run, a 32x32-slot product);
    each operand is scanned once.  The product keeps the wider operand's
    slots unless its bound overflows them; a scanned operand's slots are
    the narrowest its bound allows.
    """
    n1 = sum(x.bit_length() // p.w + 1 for _, x in p.runs.values())
    n2 = sum(x.bit_length() // r.w + 1 for _, x in r.runs.values())
    n = min(n1, n2)
    if n1 * n2 > 16 * (n1 + n2):
        p._tighten()
        r._tighten()
    w = max(p.w, r.w)
    bound = p._bound * r._bound * n
    if bound.bit_length() >= w:
        w, bound = _make_room(lambda b1, b2: b1 * b2 * n, p, r)
    return w, bound


def _add_products(seed: MultiPoly, pairs: Iterable[Tuple[MultiPoly, MultiPoly]],
                  w: int, bound: int) -> MultiPoly:
    """seed plus the product of each pair of polys, at slot width w, with
    `bound` the result's coefficient bound.

    The one run-pair loop: each pair of runs multiplies as two ints, and
    the product is added to its output run (lo, X) at that run's own
    lowest power.  The first product for a key sets it; a later one is
    shifted up to it, or it up to the later one, as __add__ aligns runs,
    so a run far above the operands' lowest powers never becomes a wide
    int.  The runs whose lowest slots cancelled are shifted down or
    dropped once, at the end.
    """
    acc = dict(seed._at(w))
    get = acc.get
    deg = seed.deg
    for p, r in pairs:
        deg = max(deg, p.deg + r.deg)
        r2 = r._at(w)
        for g1, (lo1, x1) in p._at(w).items():
            for g2, (lo2, x2) in r2.items():
                g = g1 + g2
                lo = lo1 + lo2
                run = get(g)
                if run is None:
                    acc[g] = (lo, x1 * x2)
                elif run[0] <= lo:
                    acc[g] = (run[0], run[1] + (x1 * x2 << w * (lo - run[0])))
                else:
                    acc[g] = (lo, x1 * x2 + (run[1] << w * (run[0] - lo)))
    return _poly(seed.table, _uncancelled(acc, w), w, bound, deg)


def _uncancelled(acc: dict, w: int) -> dict:
    """The runs of `acc` with each cancelled lowest slot shifted out, and
    each run that cancelled dropped."""
    out = {}
    mask = (1 << w) - 1
    for g, (lo, x) in acc.items():
        if x & mask:
            out[g] = (lo, x)
        elif x:  # the lowest slot cancelled
            s = ((x & -x).bit_length() - 1) // w
            out[g] = (lo + s, x >> w * s)
    return out


def _product_room(p: MultiPoly, r: MultiPoly) -> tuple:
    """(w, bound) that MultiPoly.__mul__ gives p*r: _term_room's for a
    one-term factor, else _runs_room's."""
    for s, t in ((p, r), (r, p)):
        term = t._one_term()
        if term is not None:
            return s._term_room(abs(term[2]))
    return _runs_room(p, r)


def _sum_products(acc: MultiPoly, pairs: Sequence[Tuple[MultiPoly, MultiPoly]]) -> MultiPoly:
    """acc + sum(p*r over the pairs of nonzero polys), each group of
    consecutive pairs built in one run accumulator.

    Each pair's slots and bound are the ones MultiPoly.__mul__ gives its
    product (_product_room).  A group takes the widest of its pairs' slots
    and its seed's, and pairs join it, in order, while the summed bound
    fits those slots: no add of the left fold acc + p*r + ... would make
    room there, so the group has the fold's slots, unless a partial sum
    of the fold cancels to zero and so drops the slots it had.  The first
    group is seeded with acc.  A pair whose bound would overflow the group
    starts the next group, and the groups' sums are added as the fold
    adds, which makes room from exact bounds.  A sum that cancels is the
    zero poly.
    """
    table = acc.table
    sums = []
    seed, w, bound, group = acc, acc.w if acc.runs else 32, acc._bound, []
    for p, r in pairs:
        wp, bp = _product_room(p, r)
        if (bound + bp).bit_length() >= max(w, wp):
            sums.append(_add_products(seed, group, w, bound) if group else seed)
            seed, w, bound, group = MultiPoly.zero(table), wp, bp, [(p, r)]
        else:
            w, bound = max(w, wp), bound + bp
            group.append((p, r))
    sums.append(_add_products(seed, group, w, bound))
    total = sums[0]
    for s in sums[1:]:
        total = total + s
    return total if total.runs else MultiPoly.zero(table)


_BINOMIAL_NORMS: dict = {}


def _binomials_norm(ks: tuple) -> int:
    """The sum of the absolute coefficients of prod_(k in ks) (1 - y^k),
    computed once per exponent tuple."""
    norm = _BINOMIAL_NORMS.get(ks)
    if norm is None:
        f = [1]
        for k in ks:
            f = [c - d for c, d in zip(f + [0] * k, [0] * k + f)]
        norm = _BINOMIAL_NORMS[ks] = sum(map(abs, f))
    return norm


def _times_binomials(c: "RatFun", ks: Sequence[int]) -> "RatFun":
    """c * prod_(k in ks) (1 - q^k), every k >= 1: the (q;q) clearings.

    Where q is the table's first symbol x, a run X is its polynomial's
    value at 2**w, and X times 1 - x^k is the int X - (X << w*k): one
    shift and one subtract per run and binomial, and no multiply.  The
    slots may overflow on the way, as the ints are exact; only the final
    coefficients must fit, and they are at most the bound times the
    factor's l1 norm, which sets the width once.  The factor's constant
    term and content are 1 and no monomial divides it, so every run keeps
    its key and lowest slot and the denominator passes through: the
    result is c * factor in RatFun's normal form, as the RatFun product
    gives it, and that product is taken over any other table.
    """
    ks = tuple(ks)
    p = c.num
    if not ks or not p.runs:
        return c
    table = p.table
    if table.names[0] != "q":
        q = RatFun.sym(table, "q")
        for k in ks:
            c = c * (1 - q**k)
        return c
    s = sum(ks)
    if p.deg + s >= _LIMIT and p.total_degree() + s >= _LIMIT:
        raise StructureError(f"a product reaches total degree 2**{_WIDTH}")
    w, bound = p._term_room(_binomials_norm(ks))
    shifts = [w * k for k in ks]
    out = {}
    for g, (lo, x) in p._at(w).items():
        for sh in shifts:
            x -= x << sh
        out[g] = (lo, x)
    return _ratfun(_poly(table, out, w, bound, p.deg + s), c.den)


def _poly_from_symmetric(p: MultiPoly, table: SymbolTable) -> MultiPoly:
    """p over (x, E, F, ...) at E = A + B, F = AB, as a poly over `table`
    = (x, A, B, ...), whose other symbols are p's.

    E^i F^j = sum_(t=0..i) binom(i, t) A^(t+j) B^(i-t+j), so the run X of
    key E^i F^j g, g free of E and F, adds binom(i, t) X into the run of
    key A^(t+j) B^(i-t+j) g: no term is decoded and no product taken.  The
    image is symmetric in A and B, so only the t <= i/2 are added, into
    the runs with no more A than B, and each of those runs is also the
    run of its mirror, A and B swapped.  A run lands at its own lowest
    power, as _add_products lands products, and runs and lowest slots
    that cancel (E^2 - 2F = A^2 + B^2 loses its AB run) are dropped.  An
    output coefficient sums binom(i, t) c
    over the (i, j) of one i + 2j, so it is at most p's bound times
    binom(I, I//2) + binom(I-2, (I-2)//2) + ..., I the largest power of
    E; that sets the slots once, as for a term of that coefficient.
    """
    src = p.table
    if len(table) != len(src):
        raise StructureError(f"cannot map {src.names} to {table.names}")
    if not p.runs:
        return MultiPoly.zero(table)
    ds, s1, s2 = src._degshift, src._shifts[1], src._shifts[2]
    top = most = 0  # the largest powers of E and of F
    for g in p.runs:
        i, j = (g >> s1) & _MASK, (g >> s2) & _MASK
        if i > top:
            top = i
        if j > most:
            most = j
    # each term's total degree grows by its power of F
    deg = p.deg + most
    if deg >= _LIMIT:
        v = p.w
        deg = max((g >> ds) + ((g >> s2) & _MASK) + lo + x.bit_length() // v
                  for g, (lo, x) in p.runs.items())
        if deg >= _LIMIT:
            raise StructureError(f"the image reaches total degree 2**{_WIDTH}")
    w, bound = p._term_room(sum(math.comb(i, i // 2) for i in range(top, -1, -2)))
    step = (1 << s1) - (1 << s2)  # one power of A for one of B
    acc = {}
    get = acc.get
    for g, (lo, x) in p._at(w).items():
        i, j = (g >> s1) & _MASK, (g >> s2) & _MASK
        key = g + (j << ds) + ((j - i) << s1) + (i << s2)  # A^j B^(i+j) g
        c = 1
        for t in range(i // 2 + 1):  # no more A than B: the rest mirror
            y = x if c == 1 else x * c
            run = get(key)
            if run is None:
                acc[key] = (lo, y)
            elif run[0] <= lo:
                acc[key] = (run[0], run[1] + (y << w * (lo - run[0])))
            else:
                acc[key] = (lo, y + (run[1] << w * (run[0] - lo)))
            key += step
            c = c * (i - t) // (t + 1)
    runs = _uncancelled(acc, w)
    for g, run in list(runs.items()):
        d = ((g >> s2) & _MASK) - ((g >> s1) & _MASK)
        if d:  # the run of A^a B^b is the one of A^b B^a
            runs[g + d * step] = run
    return _poly(table, runs, w, bound, deg)


def _from_symmetric(c: "RatFun", table: SymbolTable) -> "RatFun":
    """c over (x, E, F, ...) at E = A + B, F = AB, over `table` = (x, A,
    B, ...): num and den each mapped by _poly_from_symmetric.

    The pair is in normal form as it stands, once its denominator's
    leading coefficient is positive.  E and F are algebraically
    independent over every prime field, so the map is injective mod every
    prime and keeps integer content.  It keeps each term's powers of the
    other symbols, so it keeps their monomial content, and A^k (as B^k)
    divides the image of a poly exactly when F^k divides the poly.  Where
    the denominator is free of E and F, it is mapped as it stands.
    """
    num, den = _poly_from_symmetric(c.num, table), _poly_from_symmetric(c.den, table)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return _ratfun(num, den)


def render_poly(p: MultiPoly) -> str:
    """Canonical text: graded-lex descending terms, explicit * and ^.

    A coefficient of more than _MAX_DIGITS digits raises StructureError,
    decided by comparing ints (the bound first) before any becomes text.
    """
    if not p.runs:
        return "0"
    table = p.table
    names = table.names
    x, step, w = names[0], table._step, p.w
    terms = []
    for g, (lo, v) in p.runs.items():
        # the text of the monomial free of x, once per run
        rest = "*".join(nm if e == 1 else f"{nm}^{e}"
                        for nm, e in zip(names[1:], table.unpack(g)[1:]) if e)
        key, e = g + lo * step, lo
        for c in _slots(v, w):
            if c:
                terms.append((key, c, e, rest))
            key += step
            e += 1
    if p._bound >= _MAX_INT and max(abs(t[1]) for t in terms) >= _MAX_INT:
        raise StructureError(f"a coefficient passes the {_MAX_DIGITS}-digit integer limit")
    terms.sort(reverse=True)
    out = []
    for _, c, e, rest in terms:
        mono = (x if e == 1 else f"{x}^{e}") if e else ""
        if rest:
            mono = f"{mono}*{rest}" if mono else rest
        a = -c if c < 0 else c
        if not mono:
            body = str(a)
        elif a == 1:
            body = mono
        else:
            body = f"{a}*{mono}"
        out.append(f" - {body}" if c < 0 else f" + {body}")
    text = "".join(out)
    return "-" + text[3:] if text[1] == "-" else text[3:]


def _cancel(num: MultiPoly, den: MultiPoly) -> tuple:
    """A nonzero num and den divided by their one-term common factor: the
    gcd of their contents times the monomial dividing every term of both."""
    cd = den.content()
    g = num.content(cd) if cd > 1 else 1
    if g > 1:
        num = num._exact_div(g)
        den = den._exact_div(g)
    if not num.const_value() and not den.const_value():
        # the denominator first: it often has one term, which leaves
        # few numerator fields to scan
        lo = num.min_exponents(den.min_exponents())
        if any(lo):
            shift = (lo[0] * num.table._step - num.table.pack(lo), -lo[0], 1, -sum(lo))
            num = num._term_mul(*shift)
            den = den._term_mul(*shift)
    return num, den


class RatFun:
    """Quotient of two MultiPoly values, normalized but not gcd-reduced.

    Normalization: zero numerator forces denominator 1; the one-term common
    factor of numerator and denominator is cancelled (_cancel); the
    denominator's leading coefficient is made positive.  Normalizing
    (X*G, Y*G) for a one-term G with positive coefficient gives what (X, Y)
    gives: both contents scale by G's coefficient, both monomial contents
    shift by G's monomial, and no sign changes.  So the arithmetic cancels
    before it multiplies, and its results equal full normalization's:

    - A sum over a one-term denominator d2 is taken over d1*(d2/G), G the
      one-term common factor of d1 and d2, which is then gcd(d1, d2).
    - A product first cancels each numerator against the other
      denominator, and is then normal as it stands: content is
      multiplicative (Gauss's lemma), monomial contents add, and leading
      coefficients multiply.
    - The negation and the powers of a normal value are normal.  A
      negative power swaps numerator and denominator and makes the new
      denominator's leading coefficient positive.
    - A quotient is the product with the divisor's inverse, its power -1.
    - Over denominator 1 on both sides, a product or a sum is normal as
      it stands: the content is 1, no monomial divides the constant 1,
      and the denominator's leading coefficient is 1.  So neither is
      cancelled; a sum that is zero already has denominator 1.
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
        num, den = _cancel(num, den)
        if den.leading_coeff() < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int(table: SymbolTable, c: int) -> "RatFun":
        return _ratfun(MultiPoly.const(table, c), MultiPoly.const(table, 1))

    @staticmethod
    def from_fraction(table: SymbolTable, fr: Fraction) -> "RatFun":
        fr = Fraction(fr)
        return _ratfun(MultiPoly.const(table, fr.numerator),
                       MultiPoly.const(table, fr.denominator))

    @staticmethod
    def sym(table: SymbolTable, name: str) -> "RatFun":
        return _ratfun(MultiPoly.symbol(table, name), MultiPoly.const(table, 1))

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
        return self.num == self.den

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_tables(self, other)
        # exact: cross-multiplied difference must vanish identically
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFun):
            return other
        if isinstance(other, (int, Fraction)):
            return _coerce_scalar(self.table, other)
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
        if self.den == other.den:
            if self.den == 1:
                return _ratfun(self.num + other.num, self.den)
            return RatFun(self.num + other.num, self.den)
        for x, y in ((self, other), (other, self)):
            if y.den.is_term():
                dx, dy = _cancel(x.den, y.den)
                return RatFun(x.num * dy + y.num * dx, x.den * dy)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _ratfun(-self.num, self.den)

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
        if self.den == 1 and other.den == 1:
            return _ratfun(self.num * other.num, self.den)
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return _ratfun(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        _check_tables(self, other)
        if other.num.is_zero():
            raise PoleError("division by zero")
        return self * other ** -1

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RatFun":
        if n >= 0:
            return _ratfun(self.num**n, self.den**n)
        if self.num.is_zero():
            raise PoleError("negative power of zero")
        num, den = self.den, self.num
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return _ratfun(num ** -n, den ** -n)

    # -- evaluation and rendering ------------------------------------------

    def evaluate(self, point: Mapping[str, Union[int, Fraction]]) -> Fraction:
        """Exact rational value at a full assignment of the symbols."""
        d = self.den.evaluate(point)
        if d == 0:
            raise PoleError(f"denominator vanishes at {dict(point)!r}")
        return self.num.evaluate(point) / d

    def __str__(self) -> str:
        if self.den == 1:
            return render_poly(self.num)
        return f"({render_poly(self.num)})/({render_poly(self.den)})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


def _coerce_scalar(table: SymbolTable, c: Union[RatFun, int, Fraction]) -> RatFun:
    if isinstance(c, RatFun):
        return c
    if isinstance(c, int):
        return RatFun.from_int(table, c)
    if isinstance(c, Fraction):
        return RatFun.from_fraction(table, c)
    raise StructureError(f"bad coefficient {c!r}")


def _ratfun(num: MultiPoly, den: MultiPoly) -> RatFun:
    """A RatFun from a num and den already in normal form."""
    r = _new(RatFun)
    r.num = num
    r.den = den
    return r


def _dot(pairs: Iterable[Tuple[RatFun, RatFun]], acc: RatFun) -> RatFun:
    """acc + x*y over the pairs, left to right, skipping any pair with a zero factor.

    While acc and both factors have denominator 1, the products go into
    one run accumulator (_sum_products), with no intermediate product or
    sum: a polynomial has one set of runs at a width, and rendering reads
    values, so the grouping changes no byte.  Any other pair is folded,
    acc = acc + x*y, once the pending products are summed into acc.  The
    fold order binds only there, where a denominator is not 1: unreduced
    RatFun sums render differently when regrouped, and the package's exact
    output prints them.  Each pair keeps the fold's guards, checked in the
    fold's order: mixed symbol tables and the total-degree bound raise the
    StructureError that RatFun's * and + raise.
    """
    polys = []
    for x, y in pairs:
        if x.is_zero() or y.is_zero():
            continue
        if x.den == 1 and y.den == 1 and acc.den == 1:
            _check_tables(x, y)
            _check_degree(x.num, y.num)
            _check_tables(acc, x)
            polys.append((x.num, y.num))
            continue
        if polys:
            acc = _ratfun(_sum_products(acc.num, polys), acc.den)
            polys = []
        acc = acc + x * y
    if polys:
        acc = _ratfun(_sum_products(acc.num, polys), acc.den)
    return acc


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

# CPython's default bound on int <-> str conversion; past it an integer
# can be neither read nor printed
_MAX_DIGITS = 4300
_MAX_INT = 10**_MAX_DIGITS


def _power_too_long(p: MultiPoly, e: int) -> bool:
    """Whether p**e provably has a coefficient of more than _MAX_DIGITS
    digits, decided before the power is taken.

    At a point x with every symbol at 1 or -1, |p(x)|^e = |p^e(x)| is at
    most the sum of p^e's absolute coefficients, so at most T times the
    largest one, where T = prod_i (e span_i + 1) bounds p^e's number of
    terms (span_i is the range of p's exponents of symbol i).  The points
    tried are all ones and each symbol alone at -1.  For one term, T = 1
    and the test is exact.
    """
    unpack = p.table.unpack
    terms = [(unpack(k), c) for k, c in p.terms.items()]
    spans = [max(col) - min(col) for col in zip(*(v for v, _ in terms))]
    limit = _MAX_INT
    for span in spans:
        limit *= e * span + 1
    values = [sum(c for _, c in terms)] + [
        sum(-c if v[i] & 1 else c for v, c in terms)
        for i, span in enumerate(spans) if span
    ]
    v = max(map(abs, values))
    # the bit length settles most cases before any power is taken
    return (v.bit_length() - 1) * e >= limit.bit_length() or v**e >= limit


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            break
        kind, val = m.lastgroup, m.group(m.lastgroup)
        if kind == "int" and len(val) > _MAX_DIGITS:
            raise ParseError(f"integer literal of {len(val)} digits passes the "
                             f"{_MAX_DIGITS}-digit limit at position {m.start(kind)}")
        out.append((kind, int(val) if kind == "int" else val))
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
    """Recursive descent; each open parenthesis costs five frames, so the
    nesting is capped well inside Python's recursion limit."""

    MAX_DEPTH = 100

    def __init__(self, tokens, table: SymbolTable):
        self.tokens = tokens
        self.pos = 0
        self.table = table
        self.depth = 0

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
        while self.peek() in (("op", "+"), ("op", "-")):
            _, op = self.take()
            v = v + self.term() if op == "+" else v - self.term()
        return v

    def term(self) -> RatFun:
        v = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            _, op = self.take()
            v = v * self.unary() if op == "*" else v / self.unary()
        return v

    def unary(self) -> RatFun:
        neg = False
        while self.peek() == ("op", "-"):
            self.take()
            neg = not neg
        v = self.power()
        return -v if neg else v

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
            if val >= _LIMIT:
                raise ParseError(f"exponent {val} reaches the bound 2**{_WIDTH}")
            for p in (v.num, v.den):
                if _power_too_long(p, val):
                    raise ParseError(f"a power to {val} passes the {_MAX_DIGITS}-digit "
                                     "integer limit")
            return v ** (-val if neg else val)
        return v

    def atom(self) -> RatFun:
        kind, val = self.take()
        if kind == "int":
            return RatFun.from_int(self.table, val)
        if kind == "name":
            return RatFun.sym(self.table, val)
        if kind == "op" and val == "(":
            if self.depth == self.MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than {self.MAX_DEPTH}")
            self.depth += 1
            v = self.expr()
            self.expect_op(")")
            self.depth -= 1
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
