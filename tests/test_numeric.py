"""Numeric cross-checks: q-Pochhammer products against exact Fractions,
mpmath.qp and the loop that tests its tail bound at every factor, the
identity battery on its default grid and its byte-pinned reports,
region/domain errors, verdict stability under precision doubling, and the
three statuses (passed / failed / inconclusive) of a test-local spot check
of truncated series against closed forms."""

import hashlib
import json
import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_lt,
    mpf_mul,
    mpf_pow_int,
    mpf_sub,
    round_nearest,
)

from qexpand import numeric
from qexpand.errors import DomainError, ParseError, PoleError, StructureError
from qexpand.numeric import (
    DEFAULT_POINTS,
    DEFAULT_TOLERANCE,
    NUMERIC_CHECKS,
    _MAX_TERMS,
    _Kernel,
    _partial_theta_terms,
    _qpoch_inf_real,
    _sum_terms,
    _to_mp,
    check_identity_numeric,
    check_qqq,
    default_numeric_reports,
    numeric_check_names,
)
from qexpand.ring import RatFun, symbols
from qexpand.series import TruncSeries
from reference import qpoch

# -- q-Pochhammer products ----------------------------------------------------


def _qpoch_fraction(c, n, q):
    """(c;q)_n over Fraction for any integer n; n < 0 is 1/(cq^n;q)_(-n)."""
    if n >= 0:
        return math.prod((1 - c * q**i for i in range(n)), start=Fraction(1))
    return 1 / math.prod((1 - c * q**i for i in range(n, 0)), start=Fraction(1))


def _qpoch_at(c, n, q):
    """(c;q)_n as a RatFun in symbolic q (the test-local reference), evaluated at q."""
    table, _ = symbols("q")
    return qpoch(RatFun.from_fraction(table, c), n, table).evaluate({"q": q})


def test_qpoch_num_finite_matches_exact_fractions():
    c, q = Fraction(1, 3), Fraction(1, 4)
    expected = Fraction(1)
    cur = c
    for n in range(7):
        assert _qpoch_fraction(c, n, q) == expected
        assert _qpoch_at(c, n, q) == expected
        expected *= 1 - cur
        cur *= q


def _qpoch_inf_kernel(cv, qv):
    """_qpoch_inf_real on mpf inputs at the working precision, as mpf."""
    k = _Kernel(mpmath.mp.prec)
    out, bound = _qpoch_inf_real(k, k.from_mpf(cv), k.from_mpf(qv))
    return k.to_mpf(out), k.to_mpf(bound)


@pytest.mark.parametrize(
    "c,q",
    [
        (Fraction(1, 2), Fraction(1, 3)),
        (Fraction(-3, 4), Fraction(1, 2)),
        (Fraction(2), Fraction(1, 10)),
    ],
)
def test_qpoch_num_infinite_matches_mpmath_qp(c, q):
    for precision in (128, 1024):
        with mpmath.workprec(precision + 16):
            ours = _qpoch_inf_kernel(_mp(c), _mp(q))[0]
        with mpmath.workprec(precision + 12):
            ref = mpmath.qp(_mp(c), _mp(q))
            assert abs(ours - ref) < mpmath.mpf(2) ** -(precision - 18)


def _mp(f):
    return mpmath.mpf(f.numerator) / f.denominator


def _qpoch_inf_every_factor(c, q, precision):
    """(c;q)_inf with the tail bound divided out at every factor."""
    absq = abs(q)
    eps = mpmath.mpf(2) ** (-(precision + 8))
    out = mpmath.mpf(1)
    cur = c
    while True:
        mag = abs(cur)
        if mag < mpmath.mpf("0.5") and mag / ((1 - absq) * (1 - mag)) < eps:
            return out, mag / ((1 - absq) * (1 - mag))
        out = out * (1 - cur)
        cur = cur * q


def _qpoch_inf_operator_loop(c, q, precision):
    """(c;q)_inf on mpf/mpc operators, dividing out the bound only once
    |cq^I| < min(1/2, 2 eps): _qpoch_inf_real's loop for complex inputs."""
    absq = abs(q)
    eps = mpmath.mpf(2) ** (-(precision + 8))
    near = min(mpmath.mpf("0.5"), 2 * eps)
    one_minus_absq = 1 - absq
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
    raise AssertionError("no convergence")


_QPOCH_INF_CASES = {
    "real": ("1/3", "1/4"),
    "real_large": ("5/2", "1/5"),
    "half": ("1/2", "1/3"),
    "minus_half": ("-1/2", "3/10"),
    "one": ("1", "1/5"),
    "zero": ("0", "1/2"),
    "negative_q": ("2/3", "-1/2"),
    "q_nine_tenths": ("7/10", "9/10"),
    "negative_q_nine_tenths": ("-3", "-9/10"),
    "complex": (("1/3", "1/2"), "1/5"),
    "complex_large": (("-4/5", "3/5"), "-2/5"),
    "complex_q": (("3/4", "-1/4"), ("27/50", "18/25")),
}


def _mp_value(v):
    if isinstance(v, tuple):
        return mpmath.mpc(*(_mp(Fraction(x)) for x in v))
    return _mp(Fraction(v))


@pytest.mark.parametrize("precision", [64, 128, 256, 1024])
@pytest.mark.parametrize("case", sorted(_QPOCH_INF_CASES))
def test_qpoch_inf_matches_every_factor_bound_loop(case, precision):
    # real cases run on the kernel; complex ones check the operator loop
    # that the kernel loop was written from.  Both must stop where testing
    # the bound at every factor stops, and agree with mpmath.qp
    c, q = _QPOCH_INF_CASES[case]
    with mpmath.workprec(precision + 16):
        cv, qv = _mp_value(c), _mp_value(q)
        if isinstance(cv, mpmath.mpc) or isinstance(qv, mpmath.mpc):
            got = _qpoch_inf_operator_loop(cv, qv, precision)
        else:
            got = _qpoch_inf_kernel(cv, qv)
        want = _qpoch_inf_every_factor(cv, qv, precision)
        ref = mpmath.qp(cv, qv)
    assert type(got[0]) is type(want[0])
    assert got[0] == want[0] and got[1] == want[1]
    assert mpmath.mpf(0) <= got[1] < mpmath.mpf(2) ** -(precision + 8)
    assert abs(got[0] - ref) <= mpmath.mpf(2) ** -(precision - 8) * max(1, abs(ref))


_rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12))
# |q| <= 9/10 keeps the 1100-bit products under about 8000 factors
_q_in_disc = st.integers(2, 10).flatmap(
    lambda d: st.builds(Fraction, st.integers(1 - d, d - 1), st.just(d))
)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_rationals, _q_in_disc, st.integers(8, 1100))
@example(Fraction(1), Fraction(9, 10), 1100)
@example(Fraction(-7, 3), Fraction(-1, 2), 8)
def test_qpoch_inf_real_loop_matches_operator_loop(c, q, precision):
    # the kernel loop against mpf operators, bit for bit; c = 1 makes the
    # product exactly 0
    with mpmath.workprec(precision + 16):
        cv, qv = _mp(c), _mp(q)
        got = _qpoch_inf_kernel(cv, qv)
        want = _qpoch_inf_every_factor(cv, qv, precision)
    assert type(got[0]) is type(want[0]) is mpmath.mpf
    assert got[0]._mpf_ == want[0]._mpf_ and got[1]._mpf_ == want[1]._mpf_


def test_qpoch_num_quotient_law():
    # (c;q)_n (cq^n;q)_inf = (c;q)_inf, the finite part exact
    c, q = Fraction(2, 5), Fraction(1, 3)
    with mpmath.workprec(176):
        for n in (0, 1, 4, 9):
            lhs = _mp(_qpoch_fraction(c, n, q)) * _qpoch_inf_kernel(
                _mp(c * q**n), _mp(q))[0]
            rhs = _qpoch_inf_kernel(_mp(c), _mp(q))[0]
            assert abs(lhs - rhs) < mpmath.mpf(2) ** -140


def test_qpoch_num_negative_index():
    c, q, m = Fraction(1, 3), Fraction(1, 5), 3
    expected = Fraction(1)
    for j in range(1, m + 1):
        expected /= 1 - c * q**-j
    assert _qpoch_fraction(c, -m, q) == expected
    assert _qpoch_at(c, -m, q) == expected


def test_qpoch_num_domain_errors():
    # (1/2;q)_(-1) = 1/(1 - 1/(2q)) has a pole at q = 1/2, and the product
    # to infinity needs |q| < 1
    with pytest.raises(PoleError, match="vanishes"):
        _qpoch_at(Fraction(1, 2), -1, Fraction(1, 2))
    k = _Kernel(96)
    with pytest.raises(DomainError, match=r"\|q\| < 1"):
        _qpoch_inf_real(k, (1, -1), (1, 0))


# -- the integer kernel against mpmath.libmp ------------------------------------


def _raw(v):
    return from_man_exp(*v)


@st.composite
def _kernel_cases(draw):
    """A precision, two libmp values of at most that many bits (exponents
    close or more than 100 apart, where mpf_add takes its shortcut), and an
    integer power."""
    prec = draw(st.integers(8, 1100))

    def value(exp):
        if draw(st.integers(0, 19)) == 0:
            return fzero
        bits = draw(st.integers(1, prec))
        man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        return from_man_exp(-man if draw(st.booleans()) else man, exp)

    exp = draw(st.integers(-2000, 2000))
    gap = draw(st.one_of(
        st.integers(-4, 4), st.integers(-prec - 8, prec + 8), st.integers(-4000, 4000),
    ))
    return prec, value(exp), value(exp + gap), draw(st.integers(-60, 60))


def _mf(man, exp=0):
    return from_man_exp(man, exp)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_kernel_cases())
# mul ties at 8 bits: 129 * 3 = 0b110000011 rounds up to the even 194,
# 131 * 3 = 0b110001001 stays at the even 196
@example((8, _mf(129), _mf(3), 2))
@example((8, _mf(131), _mf(3), 2))
# add ties: 255 + 1/2 rounds up to 256, a power of two; 254 + 1/2 stays
@example((8, _mf(255), _mf(1, -1), 1))
@example((8, _mf(254), _mf(1, -1), -1))
# 255 + 3/4 rounds up to 256 without a tie; x - x is an exact zero
@example((8, _mf(255), _mf(3, -2), 0))
@example((8, _mf(-77, 5), _mf(-77, 5), -3))
# far apart: the small operand only perturbs the large one
@example((53, _mf(1), _mf(-1, -200), -1))
@example((1100, _mf((1 << 1100) - 1, -1100), _mf(1, -1210), 7))
# division with no remainder, operands of each sign, and zero divisors
@example((8, _mf(6), _mf(3), 3))
@example((8, _mf(-6), _mf(3), -3))
@example((8, _mf(6), _mf(-3), -2))
@example((8, _mf(-6), _mf(-3), 5))
@example((64, _mf(5), fzero, -1))
@example((64, fzero, fzero, 2))
def test_kernel_ops_match_libmp(case):
    prec, x, y, n = case
    k = _Kernel(prec)
    kx, ky = k.from_mpf(mpmath.mp.make_mpf(x)), k.from_mpf(mpmath.mp.make_mpf(y))
    rnd = round_nearest
    assert _raw(k.mul(kx, ky)) == mpf_mul(x, y, prec, rnd)
    assert _raw(k.add(kx, ky)) == mpf_add(x, y, prec, rnd)
    assert _raw(k.sub(kx, ky)) == mpf_sub(x, y, prec, rnd)
    assert _raw(k.sub(ky, kx)) == mpf_sub(y, x, prec, rnd)
    if y == fzero:
        with pytest.raises(ZeroDivisionError):
            mpf_div(x, y, prec, rnd)
        with pytest.raises(ZeroDivisionError):
            k.div(kx, ky)
    else:
        assert _raw(k.div(kx, ky)) == mpf_div(x, y, prec, rnd)
    if x == fzero and n < 0:
        with pytest.raises(ZeroDivisionError):
            k.pow(kx, n)
    else:
        assert _raw(k.pow(kx, n)) == mpf_pow_int(x, n, prec, rnd)
        assert k.pow(kx, n) is k.pow(kx, n)  # one evaluation per (base, exponent)
    assert k.lt(kx, ky) == mpf_lt(x, y)
    assert k.lt(ky, kx) == mpf_lt(y, x)
    assert not k.lt(kx, kx)
    assert _raw(k.abs(kx)) == mpf_abs(x, prec, rnd)
    assert k.to_mpf(kx)._mpf_ == x


def test_kernel_exact_zero_at_the_1psi1_point():
    # at the first default 1psi1 point a*z = 1, so 1 - a*z is exactly 0, the
    # right side is exactly 0, and dividing by that factor raises
    point = DEFAULT_POINTS["ramanujan_1psi1"][0]
    with mpmath.workprec(144):
        a, z = _to_mp(point["a"]), _to_mp(point["z"])
        k = _Kernel(mpmath.mp.prec)
        factor = k.sub((1, 0), k.mul(k.from_mpf(a), k.from_mpf(z)))
        assert _raw(factor) == fzero == (1 - a * z)._mpf_
        with pytest.raises(ZeroDivisionError):
            k.div((1, 0), factor)
    assert mpmath.mpf(check_identity_numeric("ramanujan_1psi1", point).rhs) == 0


# -- identity battery ---------------------------------------------------------


def test_default_grid_all_pass():
    reports = default_numeric_reports()
    assert len(reports) == 18
    for r in reports:
        assert r.status == "passed"
        assert r.passed
    assert sorted({r.name for r in reports}) == sorted(numeric_check_names())


# sha256 of the sorted-key JSON of default_numeric_reports(precision=P).
# lhs, rhs and abs_diff are printed to 30 digits; at 96 and 128 bits that
# reaches the last bits of the products in _qpoch_inf, so a changed rounding
# or a changed truncation index there changes a digest.  From 200 bits on
# the 30 printed digits stop well above the last bits: there the digests pin
# truncation indices and the stop rule, and test_sides_match_mpf_operators
# pins the bits.
GOLDEN_BATTERY_SHA256 = {
    96: "e261d45073d708562e60f79cb87a4243b584108f269c4084d48a1cf7196d525c",
    128: "2e97bdadd54043888672b6363d056df8ebc198e59d9e1e796ff85bb8c0f93d50",
    200: "d63e41ff1bd87e8816ead70d717bb4cd82d8b861015793035ff42a5232b27697",
    256: "25b55135de1e5c276971e86fbfe626d66f89bf5b986d0b5a7e662fd0751cee44",
    512: "f87ba9d462f270f6e20292661c6a11fead50eb12e54b6ce80cc36db94a946331",
    1024: "9db14e7ffc70285a997d3482b0e87f5aa99b4af9a08553db9906922366b98285",
}


@pytest.mark.parametrize("precision", sorted(GOLDEN_BATTERY_SHA256))
def test_battery_reports_are_byte_stable(precision):
    reports = [r.to_json_dict() for r in default_numeric_reports(precision=precision)]
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_BATTERY_SHA256[precision]


# The mpf-operator sides the kernel replaced, kept as the reference for
# test_sides_match_mpf_operators: each is the operator code the battery ran
# before, side(v, tol, precision) on mpf values.


def _mpf_sum_terms(terms, tol, force=0):
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
    raise AssertionError("unreachable")


def _mpf_ratio_terms(a, b, z, q, qn):
    cur = mpmath.mpf(1)
    while True:
        yield cur
        cur = cur * z * (1 - a * qn) / (1 - b * qn)
        qn *= q


def _mpf_theta_z2_terms(q, z):
    cur = mpmath.mpf(1)
    i = 0
    while True:
        yield cur
        cur = cur * (-(q ** (2 * i + 1))) * z * z
        i += 1


def _mpf_rogers_fine_lhs(v, tol, precision):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]
    return (1 - z) * _mpf_sum_terms(_mpf_ratio_terms(a, b, z, q, q), tol)


def _mpf_rogers_fine_rhs(v, tol, precision):
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

    return _mpf_sum_terms(terms(), tol)


def _mpf_coogan_ono_lhs(v, tol, precision):
    q, z = v["q"], v["z"]

    def terms():
        cur = 1 / (1 + z)
        n = 0
        while True:
            yield cur
            cur = cur * z * (1 - z * q**n) / (1 + z * q ** (n + 1))
            n += 1

    return _mpf_sum_terms(terms(), tol)


def _mpf_coogan_ono_rhs(v, tol, precision):
    return _mpf_sum_terms(_mpf_theta_z2_terms(v["q"], v["z"]), tol)


def _mpf_lemma13_lhs(v, tol, precision):
    q, z = v["q"], v["z"]

    def terms():
        cur = 1 - z
        n = 0
        while True:
            yield cur
            cur = cur * z * (1 - z * q ** (n + 1)) / (1 + z * q ** (n + 1))
            n += 1

    return _mpf_sum_terms(terms(), tol)


def _mpf_lemma13_rhs(v, tol, precision):
    gen = _mpf_theta_z2_terms(v["q"], v["z"])
    next(gen)
    return 1 + 2 * _mpf_sum_terms(gen, tol)


def _mpf_1psi1_lhs(v, tol, precision):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]

    def negative():
        cur = mpmath.mpf(1)
        qmj = mpmath.mpf(1)
        while True:
            qmj /= q
            cur = cur * (1 - b * qmj) / ((1 - a * qmj) * z)
            yield cur

    nonneg = _mpf_ratio_terms(a, b, z, q, mpmath.mpf(1))
    return _mpf_sum_terms(nonneg, tol) + _mpf_sum_terms(negative(), tol)


def _mpf_1psi1_rhs(v, tol, precision):
    q, a, b, z = v["q"], v["a"], v["b"], v["z"]
    num = [a * z, q / (a * z), q, b / a]
    den = [z, b / (a * z), b, q / a]
    out = mpmath.mpf(1)
    for c in num:
        out *= _qpoch_inf_every_factor(c, q, precision)[0]
    for c in den:
        out /= _qpoch_inf_every_factor(c, q, precision)[0]
    return out


def _mpf_partial_theta_terms(z, q):
    term = mpmath.mpf(1)
    qk = mpmath.mpf(1)
    while True:
        yield term
        term = term * (-qk) * z
        qk *= q


def _mpf_qqq_common(m, qv, n):
    pre = mpmath.mpf(1)
    for i in range(n):
        pre *= (1 + qv**i) / (1 + qv ** (1 - m + i))
    binom = mpmath.mpf(1)
    for i in range(1, m + 1):
        binom *= 1 - qv**i
    for i in range(1, n + 1):
        binom /= 1 - qv**i
    for i in range(1, m - n + 1):
        binom /= 1 - qv**i
    return pre * binom


def _mpf_qqq_lhs(v, tol, precision):
    m, qv = int(v["m"]), v["q"]
    lhs = mpmath.mpf(0)
    for n in range(m + 1):
        lhs += _mpf_qqq_common(m, qv, n) * qv ** (n * (3 * n + 1) // 2 - 2 * n * m)
    return lhs


def _mpf_qqq_rhs(v, tol, precision):
    m, qv = int(v["m"]), v["q"]
    rhs = mpmath.mpf(0)
    for n in range(m + 1):
        bracket = 1 + qv**n + qv ** (n - m) - qv ** (2 * n - m)
        theta = _mpf_sum_terms(
            _mpf_partial_theta_terms(qv ** (2 * n - 2 * m + 1), qv * qv), tol,
            force=max(0, 2 * (m - n) + 2),
        )
        rhs += (_mpf_qqq_common(m, qv, n) * qv ** (n * (3 * n - 1) // 2 - 2 * n * m)
                * bracket * theta)
    return rhs


_MPF_SIDES = {
    "rogers_fine": (_mpf_rogers_fine_lhs, _mpf_rogers_fine_rhs),
    "coogan_ono": (_mpf_coogan_ono_lhs, _mpf_coogan_ono_rhs),
    "lemma13": (_mpf_lemma13_lhs, _mpf_lemma13_rhs),
    "ramanujan_1psi1": (_mpf_1psi1_lhs, _mpf_1psi1_rhs),
    "qqq": (_mpf_qqq_lhs, _mpf_qqq_rhs),
}


@pytest.fixture
def summed_terms(monkeypatch):
    """Every term that the kernel's _sum_terms and the reference
    _mpf_sum_terms add, as libmp tuples: (kernel terms, reference terms)."""
    kernel, reference = [], []
    kernel_sum_terms, mpf_sum_terms = numeric._sum_terms, _mpf_sum_terms

    def logged(terms, log, raw):
        for t in terms:
            log.append(raw(t))
            yield t

    monkeypatch.setattr(numeric, "_sum_terms", lambda k, terms, tol, force=0: kernel_sum_terms(
        k, logged(terms, kernel, _raw), tol, force))
    monkeypatch.setattr(sys.modules[__name__], "_mpf_sum_terms", lambda terms, tol, force=0: (
        mpf_sum_terms(logged(terms, reference, lambda t: t._mpf_), tol, force)))
    return kernel, reference


_SIDE_PRECISIONS = [53, 128, 200, 256, 512, 1024]


@pytest.mark.parametrize("name", numeric_check_names())
@pytest.mark.parametrize("precision", _SIDE_PRECISIONS)
def test_sides_match_mpf_operators(summed_terms, precision, name):
    # each side on the kernel, and every term its sums add, equals the mpf
    # operator code bit for bit at the working precision, before _report
    # rounds and prints it
    check = NUMERIC_CHECKS[name]
    kernel_terms, mpf_terms = summed_terms
    with mpmath.workprec(precision + 16):
        tol = _to_mp(DEFAULT_TOLERANCE)
        for point in DEFAULT_POINTS[name]:
            v = {s: _to_mp(point[s]) for s in check.symbols}
            for side, ref in zip((check.lhs, check.rhs), _MPF_SIDES[name]):
                del kernel_terms[:], mpf_terms[:]
                k = _Kernel(mpmath.mp.prec)
                kv = {s: k.from_mpf(x) for s, x in v.items()}
                got = side(k, kv, k.from_mpf(tol))
                assert _raw(got) == ref(v, tol, precision)._mpf_, (point, side.__name__)
                assert kernel_terms == mpf_terms, (point, side.__name__)


@pytest.mark.parametrize("name", numeric_check_names())
def test_verdict_stable_under_precision_doubling(name):
    point = DEFAULT_POINTS[name][0]
    lo = check_identity_numeric(name, point, precision=128)
    hi = check_identity_numeric(name, point, precision=256)
    assert lo.passed and hi.passed
    assert hi.precision == 256


# The first default 1psi1 point has a*z = 1, so its right side is exactly 0
# and only the left sum's truncation is tested there.  This point has
# a*z = 2/3; it stays out of DEFAULT_POINTS so the battery digests keep.
_1PSI1_NONZERO = {"q": Fraction(1, 5), "a": Fraction(2), "b": Fraction(1, 10), "z": Fraction(1, 3)}


@pytest.mark.parametrize("precision", [128, 1024])
def test_1psi1_point_with_nonzero_right_side(precision):
    r = check_identity_numeric("ramanujan_1psi1", _1PSI1_NONZERO, precision=precision)
    assert r.status == "passed"
    with mpmath.workprec(128):
        rhs = mpmath.mpf(r.rhs)
        assert rhs != 0
        # the product side against mpmath's own q-Pochhammer symbol
        q, a, b, z = (_mp(_1PSI1_NONZERO[k]) for k in "qabz")
        expected = (mpmath.qp(a * z, q) * mpmath.qp(q / (a * z), q) * mpmath.qp(q, q)
                    * mpmath.qp(b / a, q)) / (mpmath.qp(z, q) * mpmath.qp(b / (a * z), q)
                                              * mpmath.qp(b, q) * mpmath.qp(q / a, q))
        assert abs(rhs - expected) < mpmath.mpf(10) ** -25


def test_out_of_region_points_raise():
    with pytest.raises(DomainError, match="convergence region"):
        check_identity_numeric("coogan_ono", {"q": Fraction(1, 2), "z": 2})
    with pytest.raises(DomainError, match="convergence region"):
        check_identity_numeric(
            "rogers_fine",
            {"q": 1, "a": Fraction(1, 3), "b": Fraction(1, 4), "z": Fraction(1, 5)},
        )
    # bilateral sum needs |b/a| < |z| on top of |q|, |z| < 1
    with pytest.raises(DomainError, match="b/a"):
        check_identity_numeric(
            "ramanujan_1psi1",
            {"q": Fraction(1, 5), "a": Fraction(1, 2), "b": Fraction(1, 3), "z": Fraction(1, 2)},
        )


def test_unknown_name_and_missing_symbols():
    with pytest.raises(StructureError, match="unknown numeric check"):
        check_identity_numeric("nosuch", {"q": Fraction(1, 2)})
    with pytest.raises(StructureError, match="misses symbols"):
        check_identity_numeric("coogan_ono", {"q": Fraction(1, 2)})


def test_extra_symbols_are_rejected():
    # a symbol the identity does not have was once dropped without a word
    with pytest.raises(StructureError, match=r"symbols \['b'\] that lemma13 does not take"):
        check_identity_numeric("lemma13", {"q": "1/2", "z": "1/2", "b": 7})


def test_report_json_shape():
    r = check_identity_numeric("lemma13", {"q": "3/10", "z": "2/5"})
    d = r.to_json_dict()
    assert set(d) == {
        "name", "point", "lhs", "rhs", "abs_diff",
        "tolerance", "precision", "status", "passed",
    }
    assert d["point"] == {"q": "3/10", "z": "2/5"}
    assert d["passed"] is (d["status"] == "passed")


# -- finite theta-sum specialization ------------------------------------------


def test_check_qqq_value_at_m1():
    r = check_qqq(1, Fraction(1, 2))
    assert r.passed
    # both sides reduce to 1 + [1 1]_q q^(2-2m) = 2 at m = 1
    assert mpmath.mpf(r.lhs) == 2


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1, 3)])
def test_check_qqq_grid(m, q):
    assert check_qqq(m, q).passed
    assert check_qqq(m, q, precision=256).passed


def _theta_loop(z, q, tol, force):
    # the dedicated theta-sum stop loop that check_qqq once ran, kept as
    # the reference for the shared stop rule
    cutoff = tol / 100
    total = mpmath.mpf(0)
    term = mpmath.mpf(1)
    qk = mpmath.mpf(1)
    small = 0
    for k in range(_MAX_TERMS):
        total += term
        if k >= force:
            if abs(term) < cutoff:
                small += 1
                if small == 5:
                    return total
            else:
                small = 0
        term = term * (-qk) * z
        qk *= q
    raise AssertionError("theta sum did not settle")


@pytest.mark.parametrize("precision", [128, 1024])
@pytest.mark.parametrize("m", range(4, 9))
def test_theta_sums_match_the_dedicated_loop(m, precision):
    # every theta sum check_qqq would take at this m, beyond the battery's
    # m <= 3.  At the default tolerance no term before the force index is
    # small; at tolerance 1000 the early terms are, so the force start decides
    # where the sum stops.
    with mpmath.workprec(precision + 16):
        for tolf in (DEFAULT_TOLERANCE, Fraction(1000)):
            tol = mpmath.mpf(tolf.numerator) / tolf.denominator
            for qf in (Fraction(1, 2), Fraction(1, 3)):
                q = mpmath.mpf(qf.numerator) / qf.denominator
                for n in range(m + 1):
                    z = q ** (2 * n - 2 * m + 1)
                    for force in (0, max(0, 2 * (m - n) + 2)):
                        want = _theta_loop(z, q * q, tol, force)
                        k = _Kernel(mpmath.mp.prec)
                        terms = _partial_theta_terms(k, k.from_mpf(z), k.from_mpf(q * q))
                        got = _sum_terms(k, terms, k.from_mpf(tol), force=force)
                        assert k.to_mpf(got)._mpf_ == want._mpf_, (tolf, qf, n, force)


def test_check_qqq_domain_errors():
    with pytest.raises(DomainError, match="m >= 1"):
        check_qqq(0, Fraction(1, 2))
    with pytest.raises(DomainError, match="0 < q < 1"):
        check_qqq(2, 2)
    with pytest.raises(DomainError, match="0 < q < 1"):
        check_qqq(2, 0)
    # q = 1 - 10^-75 rounds to 1 at the working precision; it once ended in
    # a ZeroDivisionError
    with pytest.raises(DomainError, match="0 < q < 1"):
        check_qqq(2, Fraction(10**75 - 1, 10**75))
    # the work grows as m^2, so m is bounded
    with pytest.raises(DomainError, match="m up to 1000"):
        check_qqq(10**8, Fraction(1, 2))


@pytest.mark.parametrize("m,message", [
    (Fraction(5, 2), "m: not an integer: 5/2"),
    # judged on the exact value: this m rounds to 1000 at 144 bits
    (1000 + Fraction(1, 10**60), f"m: not an integer: {1000 * 10**60 + 1}/1{'0' * 60}"),
    ("two", "m: Invalid literal for Fraction: 'two'"),
], ids=["five_halves", "just_above_1000", "text"])
def test_check_qqq_takes_only_integer_m(m, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        check_qqq(m, Fraction(1, 2))


def test_coordinates_past_4300_digits_are_refused_before_evaluation(monkeypatch):
    # an int or a Fraction is checked by numerator and denominator; this point
    # was once evaluated, then printing it ended in a bare ValueError
    monkeypatch.setattr(numeric, "_Kernel", None)
    for point in ({"q": Fraction(1, 10**5000), "z": Fraction(1, 2)},
                  {"q": Fraction(1, 2), "z": -(10**5000)}):
        with pytest.raises(ParseError, match="4300-digit limit"):
            check_identity_numeric("lemma13", point)


# -- truncated series at a point ----------------------------------------------


def _spot_check(s, point, closedform, tol=Fraction(1, 10**20), precision=128):
    """Status of sum c_n(point) z^n against a closed form at the point.

    The coefficients are evaluated exactly; the truncation tail is
    estimated geometrically from the last three term magnitudes, and when
    the estimate exceeds tol the status is inconclusive, not failed.
    Returns (status, |sum - closed form|).
    """
    fpoint = {k: Fraction(v) for k, v in point.items()}
    zf = fpoint.pop("z")
    exact = [s.coeffs[n].evaluate(fpoint) * zf**n for n in range(s.order + 1)]
    with mpmath.workprec(precision + 16):
        terms = [_mp(t) for t in exact]
        total = mpmath.fsum(terms)
        # the tail stays infinite unless the last three terms bound it
        mags = [abs(t) for t in terms[-3:]]
        tail = mpmath.inf
        if len(mags) == 3 and not any(mags):
            tail = 0
        elif len(mags) == 3 and mags[0] and mags[1]:
            rho = max(mags[1] / mags[0], mags[2] / mags[1])
            if rho < 1:
                tail = mags[2] * rho / (1 - rho)
        diff = abs(total - closedform({k: _mp(Fraction(v)) for k, v in point.items()}))
        tolv = _mp(Fraction(tol))
        if tail > tolv:
            return "inconclusive", diff
        return ("passed" if diff <= tolv else "failed"), diff


def _geometric(order):
    table, (q,) = symbols("q")
    one = TruncSeries.one(table, order)
    return TruncSeries(table, order, [one.coeffs[0]] * (order + 1))


def _closed_geometric(vals):
    return 1 / (1 - vals["z"])


_HALF = {"q": Fraction(1, 10), "z": Fraction(1, 2)}


def test_spot_check_passes_when_tail_is_small():
    assert _spot_check(_geometric(80), _HALF, _closed_geometric)[0] == "passed"


def test_spot_check_inconclusive_when_tail_dominates():
    assert _spot_check(_geometric(8), _HALF, _closed_geometric)[0] == "inconclusive"


def test_spot_check_fails_on_wrong_closed_form():
    status, _ = _spot_check(_geometric(80), _HALF, lambda vals: 1 / (1 - vals["z"]) + 1)
    assert status == "failed"


def test_spot_check_polynomial_has_zero_tail():
    table, (q,) = symbols("q")
    s = TruncSeries.from_coeffs(table, [1, 2, 3], 10)
    status, diff = _spot_check(
        s, {"q": "1/7", "z": "1/2"}, lambda vals: 1 + 2 * vals["z"] + 3 * vals["z"] ** 2
    )
    assert status == "passed" and diff == 0


def test_spot_check_too_short_is_inconclusive():
    assert _spot_check(_geometric(1), _HALF, _closed_geometric)[0] == "inconclusive"
