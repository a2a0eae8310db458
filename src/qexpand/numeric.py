"""Arbitrary-precision numeric cross-checks of the analytic identities.

The symbolic checks prove coefficientwise equality to order N; the checks
here corroborate the full analytic statements at sample points inside
their convergence regions, entirely independently of the exact engine
(both sides are summed or multiplied term by term in mpmath, sharing
nothing beyond the q-Pochhammer evaluator).  One identity -- the finite
theta-sum specialization at z = q^(-m) -- lives only here, because its
theta tails are unbounded in the q-degree and a truncated symbolic
comparison would not be a verification.

Precision is per call, never global: every entry point wraps its work in
mpmath.workprec with guard bits and rounds the result back to the
requested precision.  Comparisons always use an explicit tolerance.
Points are taken as exact rationals (Fractions or strings like "1/10")
so a point is the same number at every precision.

Infinite sums stop after 5 consecutive terms fall below tol/100 (one rule,
_sum_terms).  The n-th theta sum of the finite specialization at
z = q^(-m) has q-exponents k(k + 2n - 2m), not positive up to k = 2(m - n),
so it counts small terms only from k = force = 2(m - n) + 2 on.  Infinite
products stop when the log-remainder tail bound
sum_(i>=I) |cq^i|/(1-|cq^i|) drops below the precision target.  That bound
is at least |cq^I|, so each factor is first tested by one comparison,
|cq^I| < 2^-(precision+7), and the bound's division runs only for the last
few factors; the truncation index, every product and every rounding are
those of testing the bound at every factor.  For real c and q the loop
runs on the raw _mpf_ tuples: it calls the mpmath.libmp functions that the
mpf operators call (mpf_mul, mpf_sub, mpf_abs, mpf_lt, mpf_div), at the
context's working precision with round-to-nearest, so every factor and
rounding is the operators' own without an mpf object per step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

import mpmath
from mpmath.libmp import fone, mpf_abs, mpf_div, mpf_lt, mpf_mul, mpf_sub, round_nearest

from .errors import DomainError, StructureError

if TYPE_CHECKING:  # the battery runs without the symbolic engine
    from .series import TruncSeries

DEFAULT_PRECISION = 128
DEFAULT_TOLERANCE = Fraction(1, 10**25)

_MAX_TERMS = 200_000

PointValue = Union[int, str, Fraction]
Point = Dict[str, PointValue]


class NumericReport(NamedTuple):
    """Outcome of one numeric comparison.

    status is "passed", "failed", or "inconclusive" (truncation tail too
    large to decide, which is distinct from a genuine mismatch); passed is
    True only for conclusive agreement within tolerance.
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
        return {
            "name": self.name,
            "point": dict(self.point),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_diff": self.abs_diff,
            "tolerance": self.tolerance,
            "precision": self.precision,
            "status": self.status,
            "passed": self.passed,
        }


def _to_mp(v):
    """Exact rational (or mp number) -> mpf/mpc at the working precision."""
    if isinstance(v, (mpmath.mpf, mpmath.mpc)):
        return +v
    if isinstance(v, complex):
        return mpmath.mpc(v.real, v.imag)
    f = Fraction(v)
    return mpmath.mpf(f.numerator) / mpmath.mpf(f.denominator)


def _point_str(point: Point) -> Dict[str, str]:
    return {k: str(Fraction(v)) for k, v in sorted(point.items())}


def _nstr(x) -> str:
    return mpmath.nstr(x, 30)


def _report(name: str, point: Dict[str, str], precision: int,
            lhs, rhs, diff, tol, status: Optional[str] = None) -> NumericReport:
    """Round the values back to precision and report them.

    Without an explicit status the rounded gap is judged against the
    rounded tolerance.
    """
    with mpmath.workprec(precision):
        lhs, rhs, diff, tol = +lhs, +rhs, +diff, +tol
    if status is None:
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


def _sum_terms(terms: Iterator, tol, force: int = 0) -> "mpmath.mpf":
    """Sum until 5 consecutive terms fall below tol/100 in magnitude.

    Terms before index force are summed but never counted as small.
    """
    cutoff = tol / 100
    total = mpmath.mpf(0)
    small = 0
    for count, t in enumerate(terms):
        total += t
        if count >= force and abs(t) < cutoff:
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


def _qpoch_inf(c, q, precision: int):
    """(c;q)_inf with its log-remainder tail bound; needs |q| < 1.

    Truncated at the first index I where |cq^I| < 1/2 and the bound
    sum_(i>=I) |cq^i|/(1-|cq^i|) <= |cq^I| / ((1-|q|)(1-|cq^I|))
    falls below eps = 2^-(precision+8); the bound is returned alongside.

    The division is only tried once |cq^I| < min(1/2, 2 eps).  That test
    cannot move I: both factors of the denominator are at most 1, and so
    is their rounded product, so the rounded bound is at least |cq^I| up
    to one rounding, and a bound below eps needs |cq^I| < 2 eps.

    For real c and q the loop works on the raw _mpf_ tuples and calls the
    mpmath.libmp functions that the mpf operators call, with the context's
    working precision and round-to-nearest, so each factor, the index I
    and the bound are bit-identical to the operator loop that complex
    inputs take.
    """
    absq = abs(q)
    if absq >= 1:
        raise DomainError(f"(c;q)_inf needs |q| < 1, got |q| = {_nstr(absq)}")
    eps = mpmath.mpf(2) ** (-(precision + 8))
    near = min(mpmath.mpf("0.5"), 2 * eps)
    one_minus_absq = 1 - absq
    if isinstance(c, mpmath.mpf) and isinstance(q, mpmath.mpf):
        prec, rnd = mpmath.mp.prec, round_nearest
        eps, near, one_minus_absq = eps._mpf_, near._mpf_, one_minus_absq._mpf_
        qv = q._mpf_
        out = fone
        cur = c._mpf_
        for _ in range(_MAX_TERMS):
            mag = mpf_abs(cur, prec, rnd)
            if mpf_lt(mag, near):
                bound = mpf_div(
                    mag,
                    mpf_mul(one_minus_absq, mpf_sub(fone, mag, prec, rnd), prec, rnd),
                    prec, rnd,
                )
                if mpf_lt(bound, eps):
                    return mpmath.mp.make_mpf(out), mpmath.mp.make_mpf(bound)
            out = mpf_mul(out, mpf_sub(fone, cur, prec, rnd), prec, rnd)
            cur = mpf_mul(cur, qv, prec, rnd)
    else:
        out = mpmath.mpf(1)
        cur = c
        for _ in range(_MAX_TERMS):
            mag = abs(cur)
            if mag < near:
                bound = mag / (one_minus_absq * (1 - mag))
                if bound < eps:
                    return out, bound
            out = out * (1 - cur)
            cur = cur * q
    raise DomainError("infinite product did not converge (|q| too close to 1)")


def qpoch_num(c, n, q, precision: int = DEFAULT_PRECISION):
    """(c;q)_n numerically: any integer n, or infinity (requires |q| < 1)."""
    with mpmath.workprec(precision + 16):
        cv = _to_mp(c)
        qv = _to_mp(q)
        if n == mpmath.inf:
            value = _qpoch_inf(cv, qv, precision)[0]
        elif isinstance(n, int):
            value = mpmath.mpf(1)
            if n >= 0:
                cur = cv
                for _ in range(n):
                    value *= 1 - cur
                    cur *= qv
            else:
                cur = cv
                for _ in range(-n):
                    cur /= qv
                    factor = 1 - cur
                    if factor == 0:
                        raise DomainError("(c;q)_n at negative n hits a zero factor")
                    value /= factor
        else:
            raise StructureError(f"n must be an integer or mpmath.inf, got {n!r}")
    with mpmath.workprec(precision):
        return +value


# ---------------------------------------------------------------------------
# identity evaluators: each side summed on its own


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(f"point outside convergence region: {message}")


def _region_q_z(v) -> None:
    _require(abs(v["q"]) < 1, "|q| < 1")
    _require(abs(v["z"]) < 1, "|z| < 1")


def _ratio_terms(a, b, z, q, qn):
    """(a qn;q)_n/(b qn;q)_n z^n for n = 0, 1, ..., incrementally."""
    cur = mpmath.mpf(1)
    while True:
        yield cur
        cur = cur * z * (1 - a * qn) / (1 - b * qn)
        qn *= q


def _rogers_fine_lhs(v, tol, precision):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]
    return (1 - z) * _sum_terms(_ratio_terms(a, b, z, q, q), tol)


def _rogers_fine_rhs(v, tol, precision):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]

    def terms():
        base = mpmath.mpf(1)
        n = 0
        while True:
            yield base * (1 - a * z * q ** (2 * n + 1))
            base = (
                base
                * b * z * q ** (2 * n + 1)
                * (1 - a * q ** (n + 1)) * (1 - a * z * q ** (n + 1) / b)
                / ((1 - b * q ** (n + 1)) * (1 - z * q ** (n + 1)))
            )
            n += 1

    return _sum_terms(terms(), tol)


def _coogan_ono_lhs(v, tol, precision):
    q, z = v["q"], v["z"]

    def terms():
        cur = 1 / (1 + z)
        n = 0
        while True:
            yield cur
            cur = cur * z * (1 - z * q**n) / (1 + z * q ** (n + 1))
            n += 1

    return _sum_terms(terms(), tol)


def _theta_z2_terms(q, z):
    """(-1)^k q^(k^2) z^(2k), incrementally."""
    cur = mpmath.mpf(1)
    k = 0
    while True:
        yield cur
        cur = cur * (-(q ** (2 * k + 1))) * z * z
        k += 1


def _coogan_ono_rhs(v, tol, precision):
    return _sum_terms(_theta_z2_terms(v["q"], v["z"]), tol)


def _lemma13_lhs(v, tol, precision):
    q, z = v["q"], v["z"]

    def terms():
        cur = 1 - z
        n = 0
        while True:
            yield cur
            cur = cur * z * (1 - z * q ** (n + 1)) / (1 + z * q ** (n + 1))
            n += 1

    return _sum_terms(terms(), tol)


def _lemma13_rhs(v, tol, precision):
    gen = _theta_z2_terms(v["q"], v["z"])
    next(gen)  # k = 0 term enters with weight 1, the rest with weight 2
    return 1 + 2 * _sum_terms(gen, tol)


def _region_1psi1(v) -> None:
    _require(abs(v["q"]) < 1, "|q| < 1")
    _require(v["a"] != 0 and v["z"] != 0, "a, z nonzero")
    _require(abs(v["b"] / v["a"]) < abs(v["z"]), "|b/a| < |z|")
    _require(abs(v["z"]) < 1, "|z| < 1")


def _1psi1_lhs(v, tol, precision):
    """sum_(k=-inf)^inf (a;q)_k/(b;q)_k z^k as two one-sided sums."""
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]

    def negative():
        # (c;q)_(-m) = 1/prod_(j=1..m)(1 - c q^-j)
        cur = mpmath.mpf(1)
        qmj = mpmath.mpf(1)
        while True:
            qmj /= q
            cur = cur * (1 - b * qmj) / ((1 - a * qmj) * z)
            yield cur

    nonneg = _ratio_terms(a, b, z, q, mpmath.mpf(1))
    return _sum_terms(nonneg, tol) + _sum_terms(negative(), tol)


def _1psi1_rhs(v, tol, precision):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]
    num = [a * z, q / (a * z), q, b / a]
    den = [z, b / (a * z), b, q / a]
    out = mpmath.mpf(1)
    for c in num:
        out *= _qpoch_inf(c, q, precision)[0]
    for c in den:
        out /= _qpoch_inf(c, q, precision)[0]
    return out


class _IdentityNumeric(NamedTuple):
    """One identity; each side is called as side(v, tol, precision)."""

    symbols: Tuple[str, ...]
    region: Callable
    lhs: Callable
    rhs: Callable


NUMERIC_CHECKS: Dict[str, _IdentityNumeric] = {
    "rogers_fine": _IdentityNumeric(
        ("q", "a", "b", "z"), _region_q_z, _rogers_fine_lhs, _rogers_fine_rhs
    ),
    "coogan_ono": _IdentityNumeric(
        ("q", "z"), _region_q_z, _coogan_ono_lhs, _coogan_ono_rhs
    ),
    "lemma13": _IdentityNumeric(
        ("q", "z"), _region_q_z, _lemma13_lhs, _lemma13_rhs
    ),
    "ramanujan_1psi1": _IdentityNumeric(
        ("q", "a", "b", "z"), _region_1psi1, _1psi1_lhs, _1psi1_rhs
    ),
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
}


# the finite theta-sum cases of the default battery, m outer, q inner
DEFAULT_QQQ_POINTS: List[Point] = [
    {"m": m, "q": qv} for m in (1, 2, 3) for qv in (Fraction(1, 2), Fraction(1, 3))
]


def numeric_check_names() -> List[str]:
    return sorted(NUMERIC_CHECKS)


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
    missing = [s for s in check.symbols if s not in point]
    if missing:
        raise StructureError(f"point misses symbols {missing} for {name}")
    with mpmath.workprec(precision + 16):
        v = {k: _to_mp(point[k]) for k in check.symbols}
        tolv = _to_mp(tol)
        check.region(v)
        try:
            lhs = check.lhs(v, tolv, precision)
            rhs = check.rhs(v, tolv, precision)
        except ZeroDivisionError:
            raise DomainError(
                f"{name} has a pole at this point: a denominator factor vanishes"
            ) from None
        diff = abs(lhs - rhs)
    point = _point_str({k: point[k] for k in check.symbols})
    return _report(name, point, precision, lhs, rhs, diff, tolv)


# ---------------------------------------------------------------------------
# the finite theta-sum specialization (z = q^(-m))


def _partial_theta_terms(z, q):
    """(-1)^k q^(k(k-1)/2) z^k for k = 0, 1, ..., incrementally."""
    term = mpmath.mpf(1)
    qk = mpmath.mpf(1)
    while True:
        yield term
        term = term * (-qk) * z
        qk *= q


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
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    qf = Fraction(q)
    if not 0 < qf < 1:
        raise DomainError(f"need 0 < q < 1, got {qf}")
    with mpmath.workprec(precision + 16):
        qv = _to_mp(qf)
        tolv = _to_mp(tol)
        lhs = mpmath.mpf(0)
        rhs = mpmath.mpf(0)
        for n in range(m + 1):
            pre = mpmath.mpf(1)  # (-1;q)_n / (-q^(1-m);q)_n
            for i in range(n):
                pre *= (1 + qv**i) / (1 + qv ** (1 - m + i))
            binom = mpmath.mpf(1)  # (q;q)_m / ((q;q)_n (q;q)_(m-n))
            for i in range(1, m + 1):
                binom *= 1 - qv**i
            for i in range(1, n + 1):
                binom /= 1 - qv**i
            for i in range(1, m - n + 1):
                binom /= 1 - qv**i
            common = pre * binom
            # z-exponents n(3n +/- 1)/2 are integers for every n
            lhs += common * qv ** (n * (3 * n + 1) // 2 - 2 * n * m)
            bracket = 1 + qv**n + qv ** (n - m) - qv ** (2 * n - m)
            theta = _sum_terms(
                _partial_theta_terms(qv ** (2 * n - 2 * m + 1), qv * qv), tolv,
                force=max(0, 2 * (m - n) + 2),
            )
            rhs += (
                common * qv ** (n * (3 * n - 1) // 2 - 2 * n * m)
                * bracket * theta
            )
        diff = abs(lhs - rhs)
    return _report("qqq", {"m": str(m), "q": str(qf)}, precision, lhs, rhs, diff, tolv)


# ---------------------------------------------------------------------------
# numeric side of the symbolic engine: truncated series at a point


def spot_check_series(
    s: TruncSeries,
    point: Point,
    closedform: Callable,
    tol=Fraction(1, 10**20),
    precision: int = DEFAULT_PRECISION,
) -> NumericReport:
    """Compare sum c_n(point) z^n against a closed form at the same point.

    The truncation tail is estimated geometrically from the last three
    term magnitudes; when the estimate exceeds the tolerance the report
    is inconclusive rather than failed.  Coefficients are evaluated
    exactly (the point is rational) before rounding.
    """
    fpoint = {k: Fraction(v) for k, v in point.items()}
    zf = fpoint.pop("z")
    exact = [s.coefficient(n).evaluate(fpoint) for n in range(s.order + 1)]
    with mpmath.workprec(precision + 16):
        zv = _to_mp(zf)
        tolv = _to_mp(tol)
        terms = []
        zp = mpmath.mpf(1)
        for n, c in enumerate(exact):
            terms.append(_to_mp(c) * zp)
            zp *= zv
        total = mpmath.fsum(terms)
        # the tail stays infinite unless the last three terms bound it
        mags = [abs(t) for t in terms[-3:]]
        tail = mpmath.mpf("inf")
        if len(mags) == 3 and not any(mags):
            tail = mpmath.mpf(0)
        elif len(mags) == 3 and mags[0] and mags[1]:
            rho = max(mags[1] / mags[0], mags[2] / mags[1])
            if rho < 1:
                tail = mags[2] * rho / (1 - rho)
        cf = closedform({k: _to_mp(v) for k, v in point.items()}, precision)
        diff = abs(total - cf)
        if tail > tolv:
            status = "inconclusive"
        else:
            status = "passed" if diff <= tolv else "failed"
    return _report("spot_check", _point_str(point), precision, total, cf, diff, tolv, status)


def default_numeric_reports(
    tol=DEFAULT_TOLERANCE, precision: int = DEFAULT_PRECISION
) -> List[NumericReport]:
    """Every registered identity at its default point grid, plus the
    finite theta-sum cases used for acceptance."""
    reports = []
    for name in numeric_check_names():
        for point in DEFAULT_POINTS[name]:
            reports.append(check_identity_numeric(name, point, tol, precision))
    for case in DEFAULT_QQQ_POINTS:
        reports.append(check_qqq(case["m"], case["q"], tol, precision))
    return reports
