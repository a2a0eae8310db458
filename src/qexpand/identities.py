"""Mechanically verified q-series identities, coefficient by coefficient.

Each check builds both sides of one identity as truncated z-series with
exact coefficients over the identity's own symbol table, then compares
every coefficient 0..N by exact cross-multiplication.  The right side is
kept as one summed series, and its summands are available as separate
term series -- built on first read where a builder sums them another way
-- so a harness can scale any single term by (1+q) and confirm the check
fails exactly where the perturbation first lands.

`compare` stops at the first coefficient where the sides differ.  With
term j scaled by (1+q), coefficient m of the right side is rhs[m] +
q term_j[m] (rhs[m] itself where term j's is zero): the value a full
re-sum gives.  Where every right-side denominator is one term, as in
every registered check, RatFun normalization is a full gcd reduction, so
the value also fixes the failure text; with multi-term denominators the
unreduced text may be grouped differently.  The failure keeps the two
compared coefficients and maps, divides out and renders their text on
first read.

Both sides of a check may be multiplied by one common nonzero scale -- a
product of z-free Pochhammer factors such as (q;q)_N -- chosen so that
every coefficient that enters an addition is a polynomial (denominator
blow-up is the one thing the unreduced RatFun representation cannot
absorb).  The verdict is unaffected and reported failure values are
divided back out.  Checks whose coefficients carry one-term denominators
go further: they are built where every coefficient is a polynomial, and
one whose factors are all symmetric in two of its parameters A and B is
built over E = A + B and F = AB.  IdentitySides keeps the sides as built
and is the one place where built values become read values: each
coefficient a caller reads goes through the builder's map (divided back,
and mapped to A and B) on first read, and compare runs over the built
polynomials, so a compare that passes divides and maps nothing.  Where a
read value's denominator is one term, as in every registered check, it
has one normal form, so it has the bytes of the build at the caller's
point.

Every sum over expansion-like terms truncates soundly at N because term n
always carries z-valuation >= n.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import OrderError, PoleError, StructureError
from .inversion import b_column1, base_matrix, lt_inverse, _kernel_chain
from .ring import (MultiPoly, RatFun, SymbolTable, _coerce_scalar, _dot, _from_symmetric,
                   _times_binomials, symbols)
from .series import (
    Scalar,
    TruncSeries,
    _element,
    _ratio_chain,
    inv_pochhammer_infinite,
    partial_theta,
    pochhammer_infinite,
    sum_series,
)

# read(c, m): built coefficient m as a caller reads it (see IdentitySides)
_ReadMap = Callable[[RatFun, int], RatFun]


def _unscaled(c: RatFun, scale: RatFun) -> RatFun:
    return c if scale.is_one() else c / scale


def _over(c: RatFun, v: Union[MultiPoly, int]) -> RatFun:
    """c / v, v a one-term poly or a positive int, normalized once."""
    return c if c.is_zero() else RatFun(c.num, c.den * v)


def _same(terms: List[TruncSeries], kept: Optional[Tuple[TruncSeries, ...]]) -> bool:
    """Whether `terms` holds exactly the objects of `kept`, in order."""
    return kept is not None and len(terms) == len(kept) and all(
        x is y for x, y in zip(terms, kept))


class FirstFailure:
    """The first index where the sides differ, with both values as read.

    It keeps the two compared coefficients, the sides' map `read` (None
    where they are compared as read) and the scale; `lhs` and `rhs` map,
    unscale and render on first read, once each, so a caller that reads
    only `index` pays for no map, division or text.
    """

    def __init__(self, index: int, lhs: RatFun, rhs: RatFun,
                 read: Optional[_ReadMap], scale: RatFun):
        self.index = index
        self._compared = (lhs, rhs)
        self._read, self._scale = read, scale

    def _text(self, c: RatFun) -> str:
        if self._read is not None:
            c = self._read(c, self.index)
        return str(_unscaled(c, self._scale))

    @cached_property
    def lhs(self) -> str:
        return self._text(self._compared[0])

    @cached_property
    def rhs(self) -> str:
        return self._text(self._compared[1])

    def to_json_dict(self) -> dict:
        return {"index": self.index, "lhs": self.lhs, "rhs": self.rhs}


@dataclass
class IdentityReport:
    name: str
    parameters: List[Tuple[str, str]]
    order: int
    passed: bool
    first_failure: Optional[FirstFailure]

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": [[s, v] for s, v in self.parameters],
            "order": self.order,
            "passed": self.passed,
            "first_failure": self.first_failure.to_json_dict() if self.first_failure else None,
        }


class IdentitySides:
    """Both sides of an identity as built, scaled by a common nonzero
    factor, and the values a caller reads.

    A builder gives the left side and either the right side's terms as a
    list, summed here with `sum_series`, or their sum as `rhs_sum` with
    `rhs_terms` a function that builds the list; that function runs on
    the first read of `rhs_terms`, so an unperturbed compare builds no
    term.  `scale` is given as the caller reads it, over the caller's
    `table`.  `read(c, m)`, where given, maps built coefficient m to the
    value the caller reads, over `table`; `lhs`, `rhs()` and `rhs_terms`
    are mapped on first read, so a compare that passes maps nothing.

    `compare` reads the built sides while `rhs_terms` holds the terms it
    first showed.  Once the list is assigned, or an entry replaced, it
    compares the read `lhs` against that list, re-summed with
    `sum_series` whenever its length or any entry's identity changes.
    """

    def __init__(self, name: str, parameters: List[Tuple[str, str]], lhs: TruncSeries,
                 rhs_terms: Union[List[TruncSeries], Callable[[], List[TruncSeries]]],
                 scale: RatFun, rhs_sum: Optional[TruncSeries] = None,
                 read: Optional[_ReadMap] = None):
        self.name = name
        self.parameters = parameters
        self.order = lhs.order
        self.table = scale.table
        self.scale = scale
        self._lhs, self._read = lhs, read
        if rhs_sum is None:
            self._built, self._build = rhs_terms, None
            rhs_sum = sum_series(rhs_terms, lhs.table, lhs.order)
        else:
            self._built, self._build = None, rhs_terms
        self._sum = rhs_sum
        # the caller's list, the terms it first showed, and (the terms the
        # caller's list held when summed, that sum)
        self._terms = self._shown = self._resummed = None

    def _mapped(self, s: TruncSeries) -> TruncSeries:
        read = self._read
        if read is None:
            return s
        return TruncSeries(self.table, s.order, [read(c, m) for m, c in enumerate(s.coeffs)])

    @cached_property
    def lhs(self) -> TruncSeries:
        return self._mapped(self._lhs)

    @cached_property
    def _rhs(self) -> TruncSeries:
        return self._mapped(self._sum)

    def _built_terms(self) -> List[TruncSeries]:
        if self._built is None:
            # taken first: the build replaces its inputs in place, so one
            # that fails part way must never run again
            build, self._build = self._build, None
            self._built = build()
        return self._built

    @property
    def rhs_terms(self) -> List[TruncSeries]:
        if self._terms is None:
            self._terms = [self._mapped(t) for t in self._built_terms()]
            self._shown = tuple(self._terms)
        return self._terms

    @rhs_terms.setter
    def rhs_terms(self, terms: List[TruncSeries]) -> None:
        self._terms = terms

    def _edited(self) -> bool:
        """Whether `rhs_terms` is other than the terms it first showed."""
        return self._terms is not None and not _same(self._terms, self._shown)

    def rhs(self) -> TruncSeries:
        if not self._edited():
            return self._rhs
        terms, kept = self._terms, self._resummed
        if kept is None or not _same(terms, kept[0]):
            kept = self._resummed = (tuple(terms), sum_series(terms, self.table, self.order))
        return kept[1]

    def unscaled_coeff(self, c: RatFun) -> RatFun:
        return _unscaled(c, self.scale)

    def unscaled_lhs(self) -> List[RatFun]:
        return [self.unscaled_coeff(c) for c in self.lhs.coeffs]

    def unscaled_rhs(self) -> List[RatFun]:
        return [self.unscaled_coeff(c) for c in self.rhs().coeffs]


def compare(sides: IdentitySides, perturb: Optional[int] = None) -> IdentityReport:
    """Compare the two sides; optionally scale RHS term `perturb` by (1+q).

    The built sides are compared, and a failure reads its two values
    through the sides' map, unless `rhs_terms` has been edited: then the
    read left side is compared against the caller's list.
    """
    edited = sides._edited()
    if edited:
        lhs, rhs, read = sides.lhs, sides.rhs(), None
    else:
        lhs, rhs, read = sides._lhs, sides._sum, sides._read
    term = None
    if perturb is not None:
        terms = sides.rhs_terms if edited else sides._built_terms()
        if not 0 <= perturb < len(terms):
            raise OrderError(f"no RHS term {perturb} (have {len(terms)})")
        term = terms[perturb].coeffs
    table, lhs, rhs = lhs.table, lhs.coeffs, rhs.coeffs
    for m in range(sides.order + 1):
        r = rhs[m]
        if term is not None and not term[m].is_zero():
            r = r + term[m] * RatFun.sym(table, "q")
        if not lhs[m] == r:
            failure = FirstFailure(m, lhs[m], r, read, sides.scale)
            return IdentityReport(sides.name, sides.parameters, sides.order, False, failure)
    return IdentityReport(sides.name, sides.parameters, sides.order, True, None)


# ---------------------------------------------------------------------------
# Coogan-Ono and its companion


def build_coogan_ono(order: int) -> IdentitySides:
    """sum_n z^n (z;q)_n/(-z;q)_(n+1) = sum_k (-1)^k q^(k^2) z^(2k)."""
    table, (q,) = symbols("q")
    ratios = _ratio_chain(1, -q, order, table)  # (z;q)_n/(-zq;q)_n
    lhs = sum_series([_element(r, n, order) for n, r in enumerate(ratios)]).div_linear(-1)
    rhs_terms = [
        TruncSeries.z_power(table, 2 * k, order, (-1) ** k * q ** (k * k))
        for k in range(order // 2 + 1)
    ]
    return IdentitySides("coogan_ono", [], lhs, rhs_terms, RatFun.one(table))


def build_lemma13(order: int) -> IdentitySides:
    """sum_n z^n (z;q)_(n+1)/(-zq;q)_n = 1 + 2 sum_(k>=1) (-1)^k q^(k^2) z^(2k)."""
    table, (q,) = symbols("q")
    ratios = _ratio_chain(q, -q, order, table)  # (zq;q)_n/(-zq;q)_n
    lhs = sum_series([_element(r, n, order) for n, r in enumerate(ratios)]).mul_linear(1)
    rhs_terms = [TruncSeries.one(table, order)] + [
        TruncSeries.z_power(table, 2 * k, order, 2 * (-1) ** k * q ** (k * k))
        for k in range(1, order // 2 + 1)
    ]
    return IdentitySides("lemma13", [], lhs, rhs_terms, RatFun.one(table))


def build_rogers_fine(order: int) -> IdentitySides:
    """(1-z) sum_n z^n (aq;q)_n/(bq;q)_n
    = sum_n (1-azq^(2n+1)) (bz)^n q^(n^2) (aq;q)_n (azq/b;q)_n / ((bq;q)_n (zq;q)_n).

    Both sides scaled by (bq;q)_N, and built at argument bz, where term n
    is (1-abzq^(2n+1)) b^(2n) z^n q^(n^2) (aq;q)_n (azq;q)_n / ((bq;q)_n
    (bzq;q)_n) and every coefficient is a polynomial (the expansion base
    is homogeneous in its argument: at uz it is u^n z^n (uaz;q)_n/(ubz;q)_n).
    Each coefficient m a caller reads is divided by b^m on its first
    read; compare runs over the built polynomials.
    """
    table, (q, a, b) = symbols("q a b")
    cof = [RatFun.one(table)]  # (bq;q)_N/(bq;q)_n, built from n = N down
    for n in range(order, 0, -1):
        cof.insert(0, cof[0] * (1 - b * q**n))
    lhs_coeffs, rhs_terms = [], []
    pa = RatFun.one(table)  # (aq;q)_n
    for n, ratio in enumerate(_ratio_chain(a * q, b * q, order, table)):  # (azq;q)_n/(bzq;q)_n
        lhs_coeffs.append(pa * cof[n] * b**n)
        scalar = lhs_coeffs[n] * b**n * q ** (n * n)
        piece = ratio.mul_linear(a * b * q ** (2 * n + 1))
        rhs_terms.append(_element(piece, n, order).scale(scalar))
        pa = pa * (1 - a * q ** (n + 1))
    lhs = TruncSeries(table, order, lhs_coeffs).mul_linear(b)
    return IdentitySides("rogers_fine", [], lhs, rhs_terms, cof[0],
                         read=lambda c, m: _over(c, b.num ** m))


# ---------------------------------------------------------------------------
# the transformation theorem and its corollaries: every right side comes
# from _telescoped_sides, with inner coefficients from _cleared_hyper when G
# is hypergeometric


def _euler_ratio_cleared(a: RatFun, b: RatFun, order: int) -> TruncSeries:
    """(az;q)_inf/(bz;q)_inf (q;q)_N with polynomial coefficients.

    The quotient F satisfies (1-bz) F(z) = (1-az) F(qz), so its m-th
    coefficient is prod_(j<m) (b - aq^j) / (q;q)_m, the 1phi0 of
    _cleared_hyper whose step j adds b - aq^j; clearing with
    (q;q)_N/(q;q)_m keeps every coefficient a polynomial (the two Euler
    sums multiplied term by term would drag unreduced (q;q)_j (q;q)_(m-j)
    denominators through every addition instead).  Coefficient 0 is
    (q;q)_N.
    """
    q = RatFun.sym(a.table, "q")
    return TruncSeries(a.table, order,
                       _cleared_hyper(lambda j: b - a * q**j, RatFun.one(a.table), order))


def _telescoped_sides(
    name: str,
    lhs: TruncSeries,
    inner: List[RatFun],
    a: RatFun,
    b: RatFun,
    order: int,
    scale: RatFun,
    divide: bool = False,
    read: Optional[_ReadMap] = None,
) -> IdentitySides:
    """The transformation's right side for inner coefficients `inner`.

    Term n of sum_n (aq/b;q)_n (az;q)_n / ((q;q)_n (bz;q)_n) (bz)^n q^(n(n-1))
    times the bracketed inner series collapses to

        (aq/b;q)_n b^n q^(n(n-1)) cof[n]
        sum_k inner[k] q^(nk) z^(n+k) (az;q)_(n+k)/(bz;q)_(n+k) (1 - azq^(2n+k))

    once the n-th base prefactor is folded into the inner sum through
    (az;q)_n (azq^n;q)_k = (az;q)_(n+k) and the bracket in front of the
    inner sum is cancelled against its k-th Pochhammer quotient, leaving
    one linear factor per k.  inner[k] carries everything z-free of the
    k-th inner coefficient except the explicit q^(nk), cleared by the same
    factors in every term; cof[n] = (q;q)_order/(q;q)_n
    = prod_(k=n+1)^order (1 - q^k) clears 1/(q;q)_n.  `divide` divides
    each term by (1 - az), the one factor coro_tlnew's bracket leaves
    over.  lhs, scale and read are passed through to IdentitySides.

    Term n is assembled in three steps.  The pieces inner[k] q^(nk)
    z^(n+k) ratios[n+k] (1 - azq^(2n+k)) are summed into one coefficient
    list, coefficient m as one ring _dot over k ascending of the pairs
    (piece coefficient, inner[k] q^(nk)): the order of the fold, and over
    denominator 1 one run accumulator with no intermediate product or
    sum.  The list is divided by (1 - az) when `divide` is set.  Each
    coefficient is multiplied by cof[n] as the chain of its binomials
    1 - q^k (ring's _times_binomials), in the normal form and the bytes of
    the product with cof[n], with multi-term denominators too.  That gives
    X_n, term n without its prefactor P_n = (aq/b;q)_n b^n q^(n(n-1)), so
    the dense products of the pieces never carry it.

    P_(n+1) = P_n r_n with the binomial r_n = (b - aq^(n+1)) q^(2n), so the
    right side sum_n P_n X_n is H_0 of the Horner recursion
    H_order = X_order, H_n = X_n + r_n H_(n+1): each step multiplies by
    one binomial, where scaling term n by its whole P_n multiplies by a
    prefactor that grows with n.  Term n has z-valuation >= n, so
    coefficient m of H_(m+1) is zero and each coefficient m runs its own
    recursion from n = m down to 0; only one partial sum is alive at a
    time.  Each step is the _dot of the one pair (H_(n+1)[m], r_n) seeded
    with X_n[m], which over denominator 1 adds the product's runs into
    X_n[m]'s.  The terms P_n X_n, with the products of the eager assembly
    in the same order, are built only when `rhs_terms` is first read, each
    replacing its X_n.

    Regrouping the sum is byte-safe where every coefficient's denominator
    is one term (an integer times a monomial), as for every registered
    check: there RatFun's normalization is a full gcd reduction, each
    value has one representation, and H_0 renders as the balanced sum of
    the terms does.  With multi-term denominators only the values agree.
    """
    table = a.table
    q = RatFun.sym(table, "q")
    zero = RatFun.zero(table)
    ratios = _ratio_chain(a, b, order, table)
    xs = []
    for n in range(order + 1):
        pieces = [(n + k, ratios[n + k].mul_linear(a * q ** (2 * n + k)).coeffs,
                   inner[k] * q ** (n * k))
                  for k in range(order - n + 1) if not inner[k].is_zero()]
        term = TruncSeries(table, order, [
            _dot(((cs[m - s], sc) for s, cs, sc in pieces if s <= m), zero)
            for m in range(order + 1)])
        if divide:
            term = term.div_linear(a)
        ks = range(n + 1, order + 1)
        xs.append(TruncSeries(table, order, [_times_binomials(c, ks) for c in term.coeffs]))
    rs = [(b - a * q ** (n + 1)) * q ** (2 * n) for n in range(order)]
    h = []
    for m in range(order + 1):
        # coefficient m of H_n, from n = m (where H_(m+1) is zero) down to 0
        acc = xs[m].coeffs[m]
        for n in range(m - 1, -1, -1):
            acc = _dot(((acc, rs[n]),), xs[n].coeffs[m])
        h.append(acc)
    return IdentitySides(name, [], lhs, lambda: _prefactored_terms(xs, rs), scale,
                         rhs_sum=TruncSeries(table, order, h), read=read)


def _prefactored_terms(xs: List[TruncSeries], rs: List[RatFun]) -> List[TruncSeries]:
    """The telescoped terms P_n X_n, P_n = r_0 ... r_(n-1) from the Horner
    ratios `rs`, each built in place of its X_n in `xs`, so no X_n
    outlives its term."""
    p = None
    for n, r in enumerate(rs, 1):
        p = r if p is None else p * r  # P_n; P_0 = 1 leaves X_0 as it is
        x = xs[n]
        xs[n] = TruncSeries(x.table, x.order, [c if c.is_zero() else c * p for c in x.coeffs])
    return xs


def _lower_tails(lowers: Sequence[Scalar], table: SymbolTable, order: int) -> List[RatFun]:
    """prod_L (Lq^k;q)_(N-k) for k = 0..N, built from k = N down.  A lower
    with 1 - Lq^j = 0, j < N, raises PoleError as qhyper does."""
    q = RatFun.sym(table, "q")
    tails = [RatFun.one(table)]
    for k in range(order - 1, -1, -1):
        tails.insert(0, tails[0])
        for l in lowers:
            tails[0] = tails[0] * (1 - l * q**k)
    if tails[0].is_zero():
        k, i = next((k, i) for k in range(order) for i, l in enumerate(lowers)
                    if (1 - l * q**k).is_zero())
        raise PoleError(f"lower parameter {i} makes term {k + 1} undefined")
    return tails


def _cleared_hyper(
    upper: Callable[[int], RatFun], carg: RatFun, order: int,
    tails: Optional[List[RatFun]] = None,
) -> List[RatFun]:
    """Coefficients of r+1_phi_r(U;L;q,cz) cleared by (q;q)_N prod (L;q)_N.

    upper(j) is the factor prod_U (v - uq^j) that step j adds, each upper
    in the form (u/v;q)_k v^k = prod_(j<k) (v - uq^j): an upper C/A at
    argument AB is A - Cq^j at argument B.  coeffs[k] = prod_(j<k)
    upper(j) c^k (q;q)_N/(q;q)_k tails[k], with tails the lowers'
    prod_L (Lq^k;q)_(N-k) from _lower_tails (none: no lowers), each
    Pochhammer a running product but (q;q)_N/(q;q)_k, ring's
    _times_binomials; coefficient 0 is the scale.  In the telescoped
    assembly these are also the z-free parts of the inner series'
    summands, whose only remaining n-dependence is q^(nk).
    """
    table = carg.table
    coeffs = []
    p = RatFun.one(table)  # prod_(j<k) upper(j) c^k
    for k in range(order + 1):
        sc = _times_binomials(p, range(k + 1, order + 1))
        coeffs.append(sc if tails is None else sc * tails[k])
        if k < order:
            p = p * upper(k)
            p = p if carg.is_one() else p * carg
    return coeffs


def _theorem16_sides(
    name: str, t: List[RatFun], a: RatFun, b: RatFun, order: int, t_scale: Union[RatFun, int] = 1,
    read: Optional[_ReadMap] = None,
) -> IdentitySides:
    """(az;q)_inf/(bz;q)_inf G(z) = sum_n (aq/b;q)_n (az;q)_n / ((q;q)_n (bz;q)_n)
    (bz)^n q^(n(n-1)) (Gt(zq^n;a,b) - azq^(2n) Gt(zq^(n+1);a/q,b/q))

    with G = sum t_n z^n plain and Gt = sum t_n z^n (az;q)_n/(bz;q)_n.  The
    two Gt evaluations pair up k-by-k into the telescoped shape with
    inner = t (the a/q, b/q arguments at zq^(n+1) reproduce the same
    Pochhammers as the first evaluation).  Scale: (q;q)_N times t_scale,
    the factor t is cleared by; `read` as for IdentitySides.
    """
    euler = _euler_ratio_cleared(a, b, order)
    lhs = euler * TruncSeries(a.table, order, t)
    return _telescoped_sides(name, lhs, t, a, b, order, euler.coeffs[0] * t_scale, read=read)


def build_theorem16_const(order: int) -> IdentitySides:
    """G = 1: (az;q)_inf/(bz;q)_inf as a sum over the expansion base."""
    table, (q, a, b) = symbols("q a b")
    t = [RatFun.one(table)] + [RatFun.zero(table)] * order
    return _theorem16_sides("theorem16_const", t, a, b, order)


def build_theorem16_3phi2(order: int) -> IdentitySides:
    """G a 1phi0-style series: t_k = (A;q)_k B^k/(q;q)_k, cleared by (q;q)_N.

    Scale: (q;q)_N^2.
    """
    table, (q, a, b, A, B) = symbols("q a b A B")
    t = _cleared_hyper(lambda j: 1 - A * q**j, B, order)
    return _theorem16_sides("theorem16_3phi2", t, a, b, order, t[0])


def theorem16_random_t(order: int, seed: int) -> List[Fraction]:
    """The documented deterministic t-vector used by theorem16_random."""
    rng = random.Random(f"{seed}:theorem16_random")
    return [
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(order + 1)
    ]


def build_theorem16_random(order: int, seed: int = 0) -> IdentitySides:
    """G with seed-derived rational coefficients.

    Both sides are linear in t, so they are built from the integers D t, D
    the lcm of t's denominators, where every coefficient is a polynomial.
    Each coefficient a caller reads is divided by D on its first read (D
    stays out of the scale, which is (q;q)_N as the caller reads it);
    compare runs over the built polynomials.
    """
    table, (q, a, b) = symbols("q a b")
    t = theorem16_random_t(order, seed)
    d = math.lcm(*(f.denominator for f in t))
    cleared = [RatFun.from_int(table, int(f * d)) for f in t]
    return _theorem16_sides("theorem16_random", cleared, a, b, order,
                            read=lambda c, m: _over(c, d))


def _over_table_of(a: Scalar, b: Scalar, *rest: Scalar) -> List[RatFun]:
    """a, b and rest as RatFuns over the table of a or b, whichever is one."""
    table = next((x.table for x in (a, b) if isinstance(x, RatFun)), None)
    if table is None:
        raise StructureError("a or b must be a RatFun, to give the symbol table")
    return [_coerce_scalar(table, x) for x in (a, b, *rest)]


def check_theorem16(t: Sequence, order: int, a: Scalar = None, b: Scalar = None) -> IdentityReport:
    """Verify the transformation for an arbitrary coefficient list t.

    Missing entries count as zero; entries past t_order cannot influence
    the truncated comparison and are dropped.  a and b are given together,
    or neither is and they are fresh symbols; one may be an int or Fraction.
    """
    if (a is None) != (b is None):
        raise StructureError("check_theorem16 needs both a and b, or neither")
    if a is None:
        table, (q, a, b) = symbols("q a b")
    a, b = _over_table_of(a, b)
    t_eff = TruncSeries.from_coeffs(a.table, list(t), order).coeffs
    return compare(_theorem16_sides("theorem16", t_eff, a, b, order))


def build_coro_tlnew(
    order: int,
    uppers: Optional[Sequence[Scalar]] = None,
    lowers: Optional[Sequence[Scalar]] = None,
    carg: Optional[Scalar] = None,
    a: Optional[Scalar] = None,
    b: Optional[Scalar] = None,
) -> IdentitySides:
    """(azq;q)_inf/(bz;q)_inf r+1_phi_r(U;L;q,cz)
    = sum_n (aq/b;q)_n (az;q)_n / ((q;q)_n (bz;q)_n) (bz)^n q^(n(n-1))
      (1-azq^(2n))/(1-az) * r+3_phi_(r+2)[azq^n, azq^(2n+1), U; bzq^n, azq^(2n), L; q, czq^n]

    Term n telescopes: (1-azq^(2n)) cancels against (azq^(2n+1);q)_k /
    (azq^(2n);q)_k leaving (1-azq^(2n+k)), and the base prefactor absorbs
    the zq^n-shifted Pochhammers, so only the final 1/(1-az) remains as a
    series division.  Without uppers it builds the registered r = 0
    instance with symbolic upper A and argument coefficient c, and takes
    none of lowers, carg, a, b; with r + 1 uppers it needs r lowers, carg,
    a and b, where a or b is a RatFun and the rest may be ints or Fractions.
    Scale: (q;q)_N^2 prod_L (L;q)_N.
    """
    if uppers is None:
        if any(x is not None for x in (lowers, carg, a, b)):
            raise StructureError("lowers, carg, a and b need custom uppers")
        table, (q, a, b, A, c) = symbols("q a b A c")
        uppers, lowers, carg = [A], [], c
    else:
        if carg is None or a is None or b is None:
            raise StructureError("custom uppers need carg, a and b")
        a, b, carg = _over_table_of(a, b, carg)
        table = a.table
        q = RatFun.sym(table, "q")
        lowers = list(lowers or [])
    if len(lowers) != len(uppers) - 1:
        raise StructureError(f"need one lower fewer than uppers, got {len(uppers)} uppers "
                             f"and {len(lowers)} lowers")

    inner = _cleared_hyper(
        lambda j: math.prod((1 - u * q**j for u in uppers[1:]), start=1 - uppers[0] * q**j),
        carg, order, _lower_tails(lowers, table, order) if lowers else None)
    euler = _euler_ratio_cleared(a * q, b, order)
    lhs = euler * TruncSeries(table, order, inner)
    return _telescoped_sides(
        "coro_tlnew", lhs, inner, a, b, order, euler.coeffs[0] * inner[0], divide=True
    )


def build_2phi1_to_4phi3(order: int) -> IdentitySides:
    """2phi1(A,B;C;q,z) = sum_n (ABq/C;q)_n (ABz/C;q)_n / ((q;q)_n (z;q)_n)
    z^n q^(n(n-1)) (1 - ABzq^(2n)/C)
    4phi3[ABzq^n/C, ABzq^(2n+1)/C, C/A, C/B; C, zq^n, ABzq^(2n)/C; q, ABzq^n/C].

    The corollary at a = AB/C, b = 1 with uppers C/A, C/B, lower C and
    argument az; the same telescoped per-term assembly applies with no
    trailing geometric division.  Scale: (q;q)_N^2 (C;q)_N.

    Both sides are built at argument Cz, where every coefficient is a
    polynomial: the 2phi1 at argument C, the inner one at AB (uppers C/A
    and C/B as A - Cq^j and B - Cq^j at 1), the telescoped sum at a = AB,
    b = C, and the base at a = AB/C, b = 1 taken at Cz.  Each coefficient
    m a caller reads is divided by C^m on its first read.

    Every factor is symmetric in A and B, so the sides are built and
    compared over (q, E, F, C), E = A + B and F = AB:
    (A;q)_k (B;q)_k = prod_(j<k) (1 - Eq^j + Fq^(2j)) and (A - Cq^j)(B -
    Cq^j) = F - ECq^j + C^2 q^(2j).  E and F are algebraically independent
    (B. Sturmfels, Algorithms in Invariant Theory, 1.1), so E -> A + B,
    F -> AB is injective and the verdict is the one over (q, A, B, C), so
    compare runs over the built polynomials.  Each value a caller reads,
    once divided, is mapped there on its first read (ring's
    _from_symmetric), the scale here.  Each coefficient's denominator is
    an integer times a monomial in q and C, which the map leaves as it
    is, and over (q, A, B, C) such a value has one normal form, so each
    mapped value has the bytes of the build over (q, A, B, C).
    """
    table, (q, E, F, C) = symbols("q E F C")
    tails = _lower_tails([C], table, order)
    # the 2phi1 cleared like the inner series, then by one more (q;q)_N;
    # its coefficient 0 is the scale
    qq = range(1, order + 1)
    lhs = TruncSeries(table, order, [
        _times_binomials(c, qq)
        for c in _cleared_hyper(lambda j: 1 - E * q**j + F * q ** (2 * j), C, order, tails)])
    ec, cc = E * C, C * C
    inner = _cleared_hyper(lambda j: F - ec * q**j + cc * q ** (2 * j),
                           RatFun.one(table), order, tails)
    roots = SymbolTable(("q", "A", "B", "C"))
    return _telescoped_sides(
        "2phi1_to_4phi3", lhs, inner, F, C, order, _from_symmetric(lhs.coeffs[0], roots),
        read=lambda c, m: _from_symmetric(_over(c, C.num ** m), roots))


def build_partial_theta(order: int) -> IdentitySides:
    """(zq;q)_inf/(-zq;q)_inf + sum_n w_n (-z)^n q^(n^2+n)
    = sum_n w_n (1 + q^n + zq^n - zq^(2n)) (-z)^n q^(n^2) theta(z^2 q^(2n+1); q^2)

    with w_n = (-1;q)_n (z;q)_n / ((q;q)_n (-zq;q)_n).  Scale: (q;q)_N.
    """
    table, (q,) = symbols("q")
    qq = range(1, order + 1)
    piece1 = pochhammer_infinite(q, order, table) * inv_pochhammer_infinite(-q, order, table)
    # cleared by (q;q)_N; its coefficient 0 is 1, so the cleared one is the scale
    piece1 = TruncSeries(table, order, [_times_binomials(c, qq) for c in piece1.coeffs])

    lhs_parts = [piece1]
    pm1 = RatFun.one(table)  # (-1;q)_n
    rhs_terms = []
    for n, ratio in enumerate(_ratio_chain(1, -q, order, table)):  # (z;q)_n/(-zq;q)_n
        common = _times_binomials(pm1, range(n + 1, order + 1)) * (-1) ** n
        lhs_parts.append(_element(ratio, n, order).scale(common * q ** (n * n + n)))
        fact = TruncSeries.from_coeffs(
            table, [1 + q**n, q**n - q ** (2 * n)], order
        )
        theta = partial_theta(2, q ** (2 * n + 1), 2, order, table)
        rhs_terms.append(
            _element(ratio * fact * theta, n, order).scale(common * q ** (n * n))
        )
        pm1 = pm1 * (1 + q**n)
    lhs = sum_series(lhs_parts)
    return IdentitySides("partial_theta", [], lhs, rhs_terms, piece1.coeffs[0])


# ---------------------------------------------------------------------------
# coefficient identities driven by the inverse matrix


def build_1psi1_coeff(order: int) -> IdentitySides:
    """All expansion coefficients of f = sum_k z^k (aqz;q)_k/(bqz;q)_k equal 1.

    The one-sided form of the bilateral coefficient identity: the closed
    formula applied to f at base (aq, bq) returns c_n = 1 for every n.  The
    left side is the all-ones vector; RHS term 0 carries the kernel values
    [z^n]{f (bqz;q)_(n-1)/(aqz;q)_n}, term k+1 the k-th correction summand.
    """
    table, (q, a, b) = symbols("q a b")
    aq, bq = a * q, b * q
    ratios = _ratio_chain(aq, bq, order, table)
    f = sum_series([_element(r, k, order) for k, r in enumerate(ratios)])
    chain = _kernel_chain(f, aq, bq)
    col = b_column1(aq, bq, order)
    lhs = TruncSeries(table, order, [RatFun.one(table)] * (order + 1))
    zero = RatFun.zero(table)
    rhs_terms = [
        TruncSeries(table, order, [chain[n].coeffs[n] for n in range(order + 1)])
    ]
    for k in range(order):
        wk = chain[k + 1].coeffs[k]
        coeffs = [zero] * (order + 1)
        for n in range(k + 1, order + 1):
            coeffs[n] = -aq * col[n - k] * q ** ((n - k) * k) * wk
        rhs_terms.append(TruncSeries(table, order, coeffs))
    return IdentitySides("1psi1_coeff", [], lhs, rhs_terms, RatFun.one(table))


def build_floor_sum(order: int) -> IdentitySides:
    """sum_k B[n][2k](1,-q) (-1)^k q^(k^2) + sum_k B[n][2k+1](1,-q) (-1)^k q^(k^2) = 1.

    The inverse-matrix form of Coogan-Ono: the expansion coefficients of its
    theta side against the base at (a,b) = (1,-q) are all 1.  RHS term m
    carries column m of the inverse weighted by the theta coefficient.
    """
    table, (q,) = symbols("q")
    one = RatFun.one(table)
    binv = lt_inverse(base_matrix(one, -q, order))
    lhs = TruncSeries(table, order, [one] * (order + 1))
    zero = RatFun.zero(table)
    rhs_terms = []
    for m in range(order + 1):
        k, rem = divmod(m, 2)
        weight = (-1) ** k * q ** (k * k)
        coeffs = [zero] * (order + 1)
        for n in range(m, order + 1):
            e = binv.entry(n, m)
            if not e.is_zero():
                coeffs[n] = e * weight
        rhs_terms.append(TruncSeries(table, order, coeffs))
    return IdentitySides("floor_sum", [("a", "1"), ("b", "-q")], lhs, rhs_terms, one)


# ---------------------------------------------------------------------------
# registry


def _seedless(builder: Callable[[int], IdentitySides]):
    return lambda order, seed: builder(order)


CHECKS: Dict[str, Callable[[int, int], IdentitySides]] = {
    "coogan_ono": _seedless(build_coogan_ono),
    "lemma13": _seedless(build_lemma13),
    "rogers_fine": _seedless(build_rogers_fine),
    "theorem16_const": _seedless(build_theorem16_const),
    "theorem16_3phi2": _seedless(build_theorem16_3phi2),
    "theorem16_random": build_theorem16_random,
    "coro_tlnew": _seedless(build_coro_tlnew),
    "2phi1_to_4phi3": _seedless(build_2phi1_to_4phi3),
    "partial_theta": _seedless(build_partial_theta),
    "1psi1_coeff": _seedless(build_1psi1_coeff),
    "floor_sum": _seedless(build_floor_sum),
}


def check_names() -> List[str]:
    return sorted(CHECKS)


def build_sides(name: str, order: int, seed: int = 0) -> IdentitySides:
    try:
        builder = CHECKS[name]
    except KeyError:
        raise StructureError(
            f"unknown check {name!r}; known: {', '.join(check_names())}"
        ) from None
    return builder(order, seed)


def run_check(name: str, order: int, seed: int = 0, perturb: Optional[int] = None) -> IdentityReport:
    return compare(build_sides(name, order, seed), perturb=perturb)


def run_all(order: int = 10, name_filter: Optional[str] = None, seed: int = 0) -> List[IdentityReport]:
    """Reports for every registered check (or those whose name contains the filter)."""
    reports = []
    for name in check_names():
        if name_filter and name_filter not in name:
            continue
        reports.append(run_check(name, order, seed))
    return reports
