"""Arbitrary-precision numeric cross-checks of the analytic identities.

The symbolic checks prove coefficientwise equality to order N; the checks
here corroborate the full analytic statements at sample points inside
their convergence regions, entirely independently of the exact engine
(both sides are summed or multiplied term by term in mpmath, sharing
nothing beyond the q-Pochhammer evaluator).  One registered identity, qqq,
the finite theta-sum specialization at z = q^(-m), lives only here,
because its theta tails are unbounded in the q-degree and a truncated
symbolic comparison would not be a verification.

Precision is per call, never global: every entry point wraps its work in
mpmath.workprec with guard bits and rounds the result back to the
requested precision.  Comparisons always use an explicit tolerance.
Points are read and checked here before any evaluation: each coordinate
is an exact rational (an int, a Fraction or text like "1/10") of at most
4300 digits, so a point is the same number at every precision.

Infinite sums stop after 5 consecutive terms fall below tol/100 (one rule,
_sum_terms).  The n-th theta sum of the finite specialization at
z = q^(-m) has q-exponents k(k + 2n - 2m), not positive up to k = 2(m - n),
so it counts small terms only from k = force = 2(m - n) + 2 on.  Infinite
products stop when the log-remainder tail bound
sum_(i>=I) |cq^i|/(1-|cq^i|) drops below the precision target.  That bound
is at least |cq^I|, so each factor is first tested by one comparison,
|cq^I| < 2^-(prec-9) at the kernel's precision prec, and the bound's
division runs only for the last few factors; the truncation index, every
product and every rounding are those of testing the bound at every factor.

Real values run on a small integer kernel (_Kernel): a value is a signed
int mantissa m and an exponent e, and each +, -, * and / is computed
exactly on ints and rounded once to the working precision, half to even.
mpmath's mpf_add, mpf_mul and mpf_div at round_nearest are correctly
rounded too (on operands of at most the working precision, which all of
ours are), so both give the one nearest value and the kernel's bits are
the mpf operators' bits, without an mpf object or a normalization per
step.  Integer powers are the exception: mpf_pow_int's binary powering is
not correctly rounded, so the kernel takes its result as it is rather than
recompute it, once per base and exponent within an evaluation.  Values
become mpf only where _report rounds and prints them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple, Union

import mpmath
from mpmath.libmp import from_man_exp, mpf_pow_int, round_nearest

from .errors import DomainError, ParseError, StructureError

DEFAULT_PRECISION = 128
DEFAULT_TOLERANCE = Fraction(1, 10**25)

_MAX_TERMS = 200_000

PointValue = Union[int, str, Fraction]
Point = Dict[str, PointValue]


class NumericReport(NamedTuple):
    """Outcome of one numeric comparison.

    status is "passed" when the rounded gap is within the tolerance, else
    "failed"; passed is True exactly when it is "passed".  An
    "inconclusive" status (a truncation tail too large to decide) waits
    for the proven tail bounds of ROADMAP item 4b.
    """

    name: str
    point: Dict[str, str]
    lhs: str
    rhs: str
    abs_diff: str
    tolerance: str
    precision: int
    status: str

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "point": dict(self.point), "passed": self.passed}


def _to_mp(v):
    """Exact rational (or mpf) -> mpf at the working precision."""
    if isinstance(v, mpmath.mpf):
        return +v
    f = Fraction(v)
    return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)


def _to_fraction(value, where: str) -> Fraction:
    """A coordinate as an exact rational: an int or a Fraction as it is,
    anything else read as text."""
    if type(value) not in (int, Fraction):
        text = str(value)
        # A report prints the coordinate, and CPython prints ints of at most
        # 4300 digits.  An exponent of 10000 or more puts any nonzero value
        # past that, and is refused before Fraction computes 10 to its power.
        exponent = text.strip().lower().partition("e")[2].replace("_", "").lstrip("+-").lstrip("0")
        if exponent.isdecimal() and len(exponent) > 4:
            value = 10**4300  # past the limit, without computing it
        else:
            try:
                value = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"{where}: {exc}") from None
    if max(abs(value.numerator), value.denominator) >= 10**4300:
        raise ParseError(f"{where}: a numerator or denominator passes the 4300-digit limit")
    return Fraction(value)


def _nstr(x) -> str:
    return mpmath.nstr(x, 30)


def _report(k: _Kernel, name: str, point: Dict[str, str], precision: int,
            lhs, rhs, tol) -> NumericReport:
    """Round the kernel values lhs and rhs, their gap and the mpf tol back
    to precision, and judge the rounded gap against the rounded tolerance."""
    diff = k.to_mpf(k.abs(k.sub(lhs, rhs)))
    with mpmath.workprec(precision):
        lhs, rhs, diff, tol = +k.to_mpf(lhs), +k.to_mpf(rhs), +diff, +tol
    status = "passed" if diff <= tol else "failed"
    return NumericReport(
        name=name,
        point=point,
        lhs=_nstr(lhs),
        rhs=_nstr(rhs),
        abs_diff=_nstr(diff),
        tolerance=_nstr(tol),
        precision=precision,
        status=status,
    )


_ZERO = (0, 0)
_ONE = (1, 0)


def _round(m: int, e: int, prec: int) -> Tuple[int, int]:
    """m * 2^e rounded to prec bits, half to even; m may be negative."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    t = m >> (n - 1)  # a floor shift, so the test below holds for either sign
    if t & 1 and (t & 2 or m & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, e + n
    return t >> 1, e + n


def _from_raw(x) -> Tuple[int, int]:
    sign, man, exp, _ = x
    return (-man if sign else man), exp


class _Kernel:
    """Real values as (m, e) int pairs, the number m * 2^e, at prec bits.

    +, -, * and / are computed exactly on ints and rounded once to prec
    bits, half to even.  Every value the kernel makes or is given has at
    most prec significant bits.  Powers come from mpf_pow_int and are
    cached per (base, exponent) for the kernel's lifetime, which is one
    evaluation.
    """

    __slots__ = ("prec", "_powers")

    def __init__(self, prec: int):
        self.prec = prec
        self._powers: Dict[Tuple[Tuple[int, int], int], Tuple[int, int]] = {}

    @staticmethod
    def from_mpf(x) -> Tuple[int, int]:
        return _from_raw(x._mpf_)

    @staticmethod
    def to_mpf(x) -> "mpmath.mpf":
        return mpmath.mp.make_mpf(from_man_exp(*x))

    def add(self, x, y):
        (xm, xe), (ym, ye) = x, y
        if xe < ye:
            xm, xe, ym, ye = ym, ye, xm, xe
        if not ym:
            return xm, xe
        if not xm:
            return ym, ye
        d = xe - ye
        # |y| below a sixteenth of x's last place cannot move the rounding
        # of x (which has at most prec bits), so x + y rounds to x
        if d + xm.bit_length() - ym.bit_length() > self.prec + 4:
            return xm, xe
        return _round((xm << d) + ym, ye, self.prec)

    def sub(self, x, y):
        return self.add(x, (-y[0], y[1]))

    def mul(self, x, y):
        return _round(x[0] * y[0], x[1] + y[1], self.prec)

    def div(self, x, y):
        (xm, xe), (ym, ye) = x, y
        if not ym:
            raise ZeroDivisionError("division by zero")
        # a quotient of at least prec + 2 bits, then a sticky bit for any
        # remainder: the rounding position sees the exact quotient's side
        extra = max(0, self.prec + 2 - xm.bit_length() + ym.bit_length())
        quot, rem = divmod(xm << extra, ym)
        if rem:
            return _round(2 * quot + 1, xe - ye - extra - 1, self.prec)
        return _round(quot, xe - ye - extra, self.prec)

    @staticmethod
    def neg(x):
        return -x[0], x[1]

    @staticmethod
    def abs(x):
        return (-x[0], x[1]) if x[0] < 0 else x

    @staticmethod
    def lt(x, y) -> bool:
        (xm, xe), (ym, ye) = x, y
        if (xm < 0) != (ym < 0) or not xm or not ym:
            return xm < ym
        tx, ty = xm.bit_length() + xe, ym.bit_length() + ye
        if tx != ty:
            return (tx < ty) == (xm > 0)
        d = xe - ye  # under either mantissa's bit length
        return (xm << d) < ym if d >= 0 else xm < (ym << -d)

    def pow(self, x, n: int):
        """x^n exactly as the mpf operator ** gives it, through mpf_pow_int."""
        key = (x, n)
        try:
            return self._powers[key]
        except KeyError:
            value = _from_raw(mpf_pow_int(from_man_exp(*x), n, self.prec, round_nearest))
            self._powers[key] = value
            return value


def _sum_terms(k: _Kernel, terms: Iterator, tol, force: int = 0):
    """Sum until 5 consecutive terms fall below tol/100 in magnitude.

    Terms before index force are summed but never counted as small.
    """
    add, lt, absv = k.add, k.lt, k.abs
    cutoff = k.div(tol, (100, 0))
    total = _ZERO
    small = 0
    for count, t in enumerate(terms):
        total = add(total, t)
        if count >= force and lt(absv(t), cutoff):
            small += 1
            if small == 5:
                return total
        else:
            small = 0
        if count > _MAX_TERMS:
            raise DomainError(
                f"series did not settle within {_MAX_TERMS} terms; "
                "point too close to the region boundary"
            )
    return total


def _qpoch_inf_real(k: _Kernel, c, q):
    """(c;q)_inf with its log-remainder tail bound for real c and q, on
    the kernel; needs |q| < 1.

    Truncated at the first index I where |cq^I| < 1/2 and the bound
    sum_(i>=I) |cq^i|/(1-|cq^i|) <= |cq^I| / ((1-|q|)(1-|cq^I|))
    falls below eps = 2^-(k.prec-8); the bound is returned alongside.

    The division is only tried once |cq^I| < min(1/2, 2 eps).  That test
    cannot move I: both factors of the denominator are at most 1, and so
    is their rounded product, so the rounded bound is at least |cq^I| up
    to one rounding, and a bound below eps needs |cq^I| < 2 eps.  Each
    kernel operation returns the bits of the mpf operator it stands for.
    """
    absq = k.abs(q)
    if not k.lt(absq, _ONE):
        raise DomainError(f"(c;q)_inf needs |q| < 1, got |q| = {_nstr(k.to_mpf(absq))}")
    mul, sub, lt, absv = k.mul, k.sub, k.lt, k.abs
    eps = (1, 8 - k.prec)
    near = (1, -max(1, k.prec - 9))  # min(1/2, 2 eps)
    one_minus_absq = sub(_ONE, absq)
    out = _ONE
    cur = c
    for _ in range(_MAX_TERMS):
        mag = absv(cur)
        if lt(mag, near):
            bound = k.div(mag, mul(one_minus_absq, sub(_ONE, mag)))
            if lt(bound, eps):
                return out, bound
        out = mul(out, sub(_ONE, cur))
        cur = mul(cur, q)
    raise DomainError("infinite product did not converge (|q| too close to 1)")


# ---------------------------------------------------------------------------
# identity evaluators: each side summed on its own, on the kernel


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(f"point outside convergence region: {message}")


def _region_q_z(v) -> None:
    _require(abs(v["q"]) < 1, "|q| < 1")
    _require(abs(v["z"]) < 1, "|z| < 1")


def _ratio_terms(k, a, b, z, q, qn):
    """(a qn;q)_n/(b qn;q)_n z^n for n = 0, 1, ..., incrementally."""
    mul, sub, div = k.mul, k.sub, k.div
    cur = _ONE
    while True:
        yield cur
        cur = div(mul(mul(cur, z), sub(_ONE, mul(a, qn))), sub(_ONE, mul(b, qn)))
        qn = mul(qn, q)


def _rogers_fine_lhs(k, v, tol):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]
    return k.mul(k.sub(_ONE, z), _sum_terms(k, _ratio_terms(k, a, b, z, q, q), tol))


def _rogers_fine_rhs(k, v, tol):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]
    mul, sub, div, power = k.mul, k.sub, k.div, k.pow
    az = mul(a, z)

    def terms():
        base = _ONE
        n = 0
        while True:
            q_odd, q_next = power(q, 2 * n + 1), power(q, n + 1)
            yield mul(base, sub(_ONE, mul(az, q_odd)))
            # base * b z q^(2n+1) (1 - a q^(n+1)) (1 - a z q^(n+1) / b)
            #   / ((1 - b q^(n+1)) (1 - z q^(n+1)))
            num = mul(mul(mul(base, b), z), q_odd)
            num = mul(mul(num, sub(_ONE, mul(a, q_next))), sub(_ONE, div(mul(az, q_next), b)))
            base = div(num, mul(sub(_ONE, mul(b, q_next)), sub(_ONE, mul(z, q_next))))
            n += 1

    return _sum_terms(k, terms(), tol)


def _coogan_ono_lhs(k, v, tol):
    q, z = v["q"], v["z"]
    add, mul, sub, div, power = k.add, k.mul, k.sub, k.div, k.pow

    def terms():
        cur = div(_ONE, add(_ONE, z))
        n = 0
        while True:
            yield cur
            num = mul(mul(cur, z), sub(_ONE, mul(z, power(q, n))))
            cur = div(num, add(_ONE, mul(z, power(q, n + 1))))
            n += 1

    return _sum_terms(k, terms(), tol)


def _theta_z2_terms(k, q, z):
    """(-1)^k q^(k^2) z^(2k), incrementally."""
    mul, power = k.mul, k.pow
    cur = _ONE
    i = 0
    while True:
        yield cur
        cur = mul(mul(mul(cur, k.neg(power(q, 2 * i + 1))), z), z)
        i += 1


def _coogan_ono_rhs(k, v, tol):
    return _sum_terms(k, _theta_z2_terms(k, v["q"], v["z"]), tol)


def _lemma13_lhs(k, v, tol):
    q, z = v["q"], v["z"]
    add, mul, sub, div, power = k.add, k.mul, k.sub, k.div, k.pow

    def terms():
        cur = sub(_ONE, z)
        n = 0
        while True:
            yield cur
            zq = mul(z, power(q, n + 1))
            cur = div(mul(mul(cur, z), sub(_ONE, zq)), add(_ONE, zq))
            n += 1

    return _sum_terms(k, terms(), tol)


def _lemma13_rhs(k, v, tol):
    gen = _theta_z2_terms(k, v["q"], v["z"])
    next(gen)  # k = 0 term enters with weight 1, the rest with weight 2
    return k.add(_ONE, k.mul((2, 0), _sum_terms(k, gen, tol)))


def _region_1psi1(v) -> None:
    _require(abs(v["q"]) < 1, "|q| < 1")
    _require(v["a"] != 0 and v["z"] != 0, "a, z nonzero")
    _require(abs(v["b"] / v["a"]) < abs(v["z"]), "|b/a| < |z|")
    _require(abs(v["z"]) < 1, "|z| < 1")


def _1psi1_lhs(k, v, tol):
    """sum_(k=-inf)^inf (a;q)_k/(b;q)_k z^k as two one-sided sums."""
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]
    mul, sub, div = k.mul, k.sub, k.div

    def negative():
        # (c;q)_(-m) = 1/prod_(j=1..m)(1 - c q^-j)
        cur = _ONE
        qmj = _ONE
        while True:
            qmj = div(qmj, q)
            cur = div(mul(cur, sub(_ONE, mul(b, qmj))), mul(sub(_ONE, mul(a, qmj)), z))
            yield cur

    nonneg = _ratio_terms(k, a, b, z, q, _ONE)
    return k.add(_sum_terms(k, nonneg, tol), _sum_terms(k, negative(), tol))


def _1psi1_rhs(k, v, tol):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]
    mul, div = k.mul, k.div
    az = mul(a, z)
    num = [az, div(q, az), q, div(b, a)]
    den = [z, div(b, az), b, div(q, a)]
    out = _ONE
    for c in num:
        out = mul(out, _qpoch_inf_real(k, c, q)[0])
    for c in den:
        out = div(out, _qpoch_inf_real(k, c, q)[0])
    return out


def _region_qqq(v) -> None:
    _require(v["m"] >= 1, "need m >= 1")
    _require(0 < v["q"] < 1, "0 < q < 1")
    if v["m"] > 1000:  # the work grows as m^2: 3 s of CPU at m = 1000
        raise DomainError("qqq takes m up to 1000")


def _partial_theta_terms(k, z, q):
    """(-1)^k q^(k(k-1)/2) z^k for k = 0, 1, ..., incrementally."""
    mul = k.mul
    term = _ONE
    qk = _ONE
    while True:
        yield term
        term = mul(mul(term, k.neg(qk)), z)
        qk = mul(qk, q)


def _qqq_common(k, m: int, q):
    """(-1;q)_n/(-q^(1-m);q)_n [m n]_q for n = 0, 1, ..., m, the factor
    term n of both sides has, with the bits of computing each n alone."""
    add, sub, mul, div, power = k.add, k.sub, k.mul, k.div, k.pow
    factors = [sub(_ONE, power(q, i)) for i in range(m + 1)]  # 1 - q^i
    qq_m = _ONE  # (q;q)_m
    for i in range(1, m + 1):
        qq_m = mul(qq_m, factors[i])
    pre = _ONE  # (-1;q)_n / (-q^(1-m);q)_n
    for n in range(m + 1):
        binom = qq_m  # (q;q)_m / ((q;q)_n (q;q)_(m-n))
        for i in range(1, n + 1):
            binom = div(binom, factors[i])
        for i in range(1, m - n + 1):
            binom = div(binom, factors[i])
        yield mul(pre, binom)
        pre = mul(pre, div(add(_ONE, power(q, n)), add(_ONE, power(q, 1 - m + n))))


# The sides of check_qqq's identity.  m is an integer, so its kernel
# exponent is at least 0; the z-exponents n(3n +/- 1)/2 are integers.


def _qqq_lhs(k, v, tol):
    m, q = v["m"][0] << v["m"][1], v["q"]
    total = _ZERO
    for n, common in enumerate(_qqq_common(k, m, q)):
        total = k.add(total, k.mul(common, k.pow(q, n * (3 * n + 1) // 2 - 2 * n * m)))
    return total


def _qqq_rhs(k, v, tol):
    m, q = v["m"][0] << v["m"][1], v["q"]
    add, sub, mul, power = k.add, k.sub, k.mul, k.pow
    total = _ZERO
    for n, common in enumerate(_qqq_common(k, m, q)):
        bracket = sub(add(add(_ONE, power(q, n)), power(q, n - m)), power(q, 2 * n - m))
        theta = _sum_terms(
            k, _partial_theta_terms(k, power(q, 2 * n - 2 * m + 1), mul(q, q)), tol,
            force=max(0, 2 * (m - n) + 2),
        )
        term = mul(common, power(q, n * (3 * n - 1) // 2 - 2 * n * m))
        total = add(total, mul(mul(term, bracket), theta))
    return total


class _IdentityNumeric(NamedTuple):
    """One identity.  region(v) tests the mpf point; each side is called as
    side(k, v, tol) with the point and tol as kernel values.  The symbols in
    integers must have integer values."""

    symbols: Tuple[str, ...]
    region: Callable
    lhs: Callable
    rhs: Callable
    integers: Tuple[str, ...] = ()


# in battery order, which numeric_check_names() keeps
NUMERIC_CHECKS: Dict[str, _IdentityNumeric] = {
    "coogan_ono": _IdentityNumeric(
        ("q", "z"), _region_q_z, _coogan_ono_lhs, _coogan_ono_rhs
    ),
    "lemma13": _IdentityNumeric(
        ("q", "z"), _region_q_z, _lemma13_lhs, _lemma13_rhs
    ),
    "ramanujan_1psi1": _IdentityNumeric(
        ("q", "a", "b", "z"), _region_1psi1, _1psi1_lhs, _1psi1_rhs
    ),
    "rogers_fine": _IdentityNumeric(
        ("q", "a", "b", "z"), _region_q_z, _rogers_fine_lhs, _rogers_fine_rhs
    ),
    "qqq": _IdentityNumeric(("m", "q"), _region_qqq, _qqq_lhs, _qqq_rhs, ("m",)),
}

# in-region sample points, exact rationals so every precision sees the
# same numbers
DEFAULT_POINTS: Dict[str, List[Point]] = {
    "rogers_fine": [
        {"q": Fraction(1, 10), "a": Fraction(3, 10), "b": Fraction(1, 2), "z": Fraction(1, 5)},
        {"q": Fraction(1, 5), "a": Fraction(-2, 5), "b": Fraction(3, 10), "z": Fraction(3, 10)},
        {"q": Fraction(3, 10), "a": Fraction(1, 4), "b": Fraction(-1, 5), "z": Fraction(2, 5)},
    ],
    "coogan_ono": [
        {"q": Fraction(3, 10), "z": Fraction(2, 5)},
        {"q": Fraction(1, 2), "z": Fraction(1, 4)},
        {"q": Fraction(1, 5), "z": Fraction(-1, 2)},
    ],
    "lemma13": [
        {"q": Fraction(3, 10), "z": Fraction(2, 5)},
        {"q": Fraction(1, 2), "z": Fraction(1, 4)},
        {"q": Fraction(1, 5), "z": Fraction(-1, 2)},
    ],
    "ramanujan_1psi1": [
        {"q": Fraction(1, 5), "a": Fraction(2), "b": Fraction(1, 10), "z": Fraction(1, 2)},
        {"q": Fraction(1, 10), "a": Fraction(3), "b": Fraction(1, 5), "z": Fraction(2, 5)},
        {"q": Fraction(3, 10), "a": Fraction(5, 2), "b": Fraction(1, 8), "z": Fraction(3, 5)},
    ],
    # the finite theta-sum cases, m outer, q inner
    "qqq": [{"m": m, "q": qv} for m in (1, 2, 3) for qv in (Fraction(1, 2), Fraction(1, 3))],
}


def numeric_check_names() -> List[str]:
    return list(NUMERIC_CHECKS)


def check_identity_numeric(
    name: str,
    point: Point,
    tol=DEFAULT_TOLERANCE,
    precision: int = DEFAULT_PRECISION,
) -> NumericReport:
    """Evaluate both sides of a named identity at one in-region point."""
    try:
        check = NUMERIC_CHECKS[name]
    except KeyError:
        raise StructureError(
            f"unknown numeric check {name!r}; known: {', '.join(numeric_check_names())}"
        ) from None
    exact = {s: _to_fraction(x, s) for s, x in point.items()}
    missing = [s for s in check.symbols if s not in point]
    if missing:
        raise StructureError(f"point misses symbols {missing} for {name}")
    extra = sorted(set(point) - set(check.symbols))
    if extra:
        raise StructureError(f"point has symbols {extra} that {name} does not take")
    for s in check.integers:
        if exact[s].denominator != 1:
            raise ParseError(f"{s}: not an integer: {exact[s]}")
    with mpmath.workprec(precision + 16):
        v = {s: _to_mp(exact[s]) for s in check.symbols}
        tolv = _to_mp(tol)
        check.region(v)
        k = _Kernel(mpmath.mp.prec)
        kv = {s: k.from_mpf(x) for s, x in v.items()}
        ktol = k.from_mpf(tolv)
        try:
            lhs = check.lhs(k, kv, ktol)
            rhs = check.rhs(k, kv, ktol)
        except ZeroDivisionError:
            raise DomainError(
                f"{name} has a pole at this point: a denominator factor vanishes"
            ) from None
    return _report(k, name, {s: str(exact[s]) for s in sorted(exact)}, precision, lhs, rhs, tolv)


def check_qqq(
    m: int,
    q,
    tol=DEFAULT_TOLERANCE,
    precision: int = DEFAULT_PRECISION,
) -> NumericReport:
    """The finite identity at z = q^(-m), m >= 1:

    sum_(n=0)^m (-1;q)_n/(-q^(1-m);q)_n [m n]_q q^(n(3n+1)/2 - 2nm)
    = sum_(n=0)^m (-1;q)_n/(-q^(1-m);q)_n [m n]_q q^(n(3n-1)/2 - 2nm)
      (1 + q^n + q^(n-m) - q^(2n-m)) theta(q^(2n-2m+1); q^2)

    with [m n]_q the q-binomial.  Everything is a finite sum except the
    theta tails, whose q-exponents k(k + 2n - 2m) force the summation
    past k = 2(m-n) before smallness testing.
    """
    return check_identity_numeric("qqq", {"m": m, "q": q}, tol, precision)


def default_numeric_reports(
    tol=DEFAULT_TOLERANCE, precision: int = DEFAULT_PRECISION
) -> List[NumericReport]:
    """Every registered identity at its default point grid."""
    return [
        check_identity_numeric(name, point, tol, precision)
        for name in numeric_check_names()
        for point in DEFAULT_POINTS[name]
    ]
