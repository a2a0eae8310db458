"""Truncated series in z: arithmetic, Pochhammer constructors, theta sums.

The q-Pochhammer conventions under test: (cz;q)_n is the finite product
for n >= 0 and the reciprocal 1/prod_(j=1..m)(1 - czq^(-j)) for n = -m;
infinite Pochhammers come from the closed Euler expansions, and the
definitional quotient (cz;q)_inf = (cz;q)_n (czq^n;q)_inf ties the two
together exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qexpand.errors import NonInvertibleError, OrderError, PoleError
from qexpand.ring import MultiPoly, RatFun, SymbolTable, parse_ratfun
from qexpand.series import (
    TruncSeries,
    _ratio_chain,
    base_element,
    inv_pochhammer_infinite,
    partial_theta,
    pochhammer_finite,
    pochhammer_infinite,
    qhyper,
    qpoch_param,
    qpoch_param_range,
    qpow,
    substitute_in_series,
    sum_series,
)

N = 8


@pytest.fixture(scope="module")
def t():
    return SymbolTable(("q", "a", "b"))


@pytest.fixture(scope="module")
def syms(t):
    return tuple(RatFun.sym(t, nm) for nm in ("q", "a", "b"))


# ---------------------------------------------------------------------------
# arithmetic


def test_mul_example(t):
    one_plus = TruncSeries.from_coeffs(t, [1, 1], 2)
    one_minus = TruncSeries.from_coeffs(t, [1, -1], 2)
    assert one_plus * one_minus == TruncSeries.from_coeffs(t, [1, 0, -1], 2)


def test_scale_geometric(t, syms):
    q, a, b = syms
    geo = TruncSeries.one(t, N).div_linear(b)  # 1/(1-bz)
    scaled = geo.scale(b)
    assert scaled.coeffs[0] == b and scaled.coeffs[1] == b**2


def test_add_neg_cancels(t, syms):
    q, a, b = syms
    s = pochhammer_infinite(a, N, t)
    assert (s + (-s)).is_zero()


def test_order_mismatch_truncates(t):
    s = TruncSeries.one(t, 6)
    r = TruncSeries.from_coeffs(t, [1, 2, 3], 2)
    assert (s * r).order == 2
    assert (s + r).order == 2


def test_invert_examples(t, syms):
    q, a, b = syms
    geo = TruncSeries.from_coeffs(t, [1, -1 * b], N).invert()
    assert all(geo.coeffs[n] == b**n for n in range(N + 1))
    assert TruncSeries.one(t, N).invert() == TruncSeries.one(t, N)
    with pytest.raises(NonInvertibleError):
        TruncSeries.z_power(t, 1, N).invert()


def test_invert_pochhammer_multiply_back(t, syms):
    q, a, b = syms
    p2 = pochhammer_finite(b, 2, N, t)
    assert p2 * p2.invert() == TruncSeries.one(t, N)


def test_shift_q_examples(t, syms):
    q, a, b = syms
    s = TruncSeries.from_coeffs(t, [1, 1], 3)
    assert s.shift_q(1).coeffs[1] == q
    ones = TruncSeries.from_coeffs(t, [1] * (N + 1), N)
    assert all(ones.shift_q(2).coeffs[n] == q ** (2 * n) for n in range(N + 1))
    r = pochhammer_infinite(a, N, t)
    assert r.shift_q(1).shift_q(-1) == r


# ---------------------------------------------------------------------------
# Pochhammer constructors


def test_pochhammer_finite_examples(t, syms):
    q, a, b = syms
    assert pochhammer_finite(a, 1, N, t) == TruncSeries.from_coeffs(t, [1, -a], N)
    p2 = pochhammer_finite(a, 2, N, t)
    assert p2.coeffs[1] == -a * (1 + q)
    assert p2.coeffs[2] == a**2 * q
    assert all(p2.coeffs[m].is_zero() for m in range(3, N + 1))


def test_pochhammer_negative_index(t, syms):
    q, a, b = syms
    # (bz;q)_(-1) = 1/(1 - bz/q)
    pm1 = pochhammer_finite(b, -1, N, t)
    assert all(pm1.coeffs[n] == (b / q) ** n for n in range(N + 1))
    # (bz;q)_(-2) multiplied back by both linear factors
    pm2 = pochhammer_finite(b, -2, N, t)
    back = pm2.mul_linear(b / q).mul_linear(b / q**2)
    assert back == TruncSeries.one(t, N)


def test_pochhammer_infinite_euler_coefficients(t, syms):
    q, a, b = syms
    s = pochhammer_infinite(a, N, t)
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == -a / (1 - q)
    assert s.coeffs[2] == a**2 * q / ((1 - q) * (1 - q**2))
    r = inv_pochhammer_infinite(a, N, t)
    assert r.coeffs[1] == a / (1 - q)
    assert s * r == TruncSeries.one(t, N)
    assert inv_pochhammer_infinite(RatFun.zero(t), N, t) == TruncSeries.one(t, N)


@given(st.integers(0, 6), st.integers(0, 6))
def test_pochhammer_product_law(n, m):
    t = SymbolTable(("q", "a", "b"))
    q = RatFun.sym(t, "q")
    a = RatFun.sym(t, "a")
    lhs = pochhammer_finite(a, n, N, t) * pochhammer_finite(a * q**n, m, N, t)
    assert lhs == pochhammer_finite(a, n + m, N, t)


def test_pochhammer_infinite_quotient_law(t, syms):
    q, a, b = syms
    for n in (1, 2, 5):
        lhs = pochhammer_finite(a, n, N, t) * pochhammer_infinite(a * q**n, N, t)
        assert lhs == pochhammer_infinite(a, N, t)


def test_pochhammer_infinite_functional_equation(t, syms):
    q, a, b = syms
    # (az;q)_inf = (1 - az)(azq;q)_inf
    assert pochhammer_infinite(a, N, t) == pochhammer_infinite(a * q, N, t).mul_linear(a)


def test_qpoch_param_values(t, syms):
    q, a, b = syms
    assert qpoch_param(a, 0, t) == 1
    assert qpoch_param(a, 2, t) == (1 - a) * (1 - a * q)
    assert qpoch_param(a, -1, t) == 1 / (1 - a / q)
    assert qpoch_param_range(a, 2, 4, t) == (1 - a * q**2) * (1 - a * q**3)
    assert qpoch_param(a, -3, t) == 1 / ((1 - a / q) * (1 - a / q**2) * (1 - a / q**3))
    with pytest.raises(PoleError, match="division by zero"):
        qpoch_param(q, -1, t)  # (q;q)_(-1) hits the factor 1 - q/q


# ---------------------------------------------------------------------------
# expansion elements, hypergeometric series, theta sums


def test_base_element_examples(t, syms):
    q, a, b = syms
    assert base_element(0, a, b, N, t) == TruncSeries.one(t, N)
    e1 = base_element(1, a, b, N, t)
    assert e1.coeffs[0].is_zero()
    assert e1.coeffs[1] == 1
    assert e1.coeffs[2] == b - a
    assert e1.coeffs[3] == b * (b - a)
    for n in range(N + 1):
        en = base_element(n, a, b, N, t)
        assert all(en.coeffs[m].is_zero() for m in range(n))
        assert en.coeffs[n] == 1
    with pytest.raises(OrderError):
        base_element(N + 1, a, b, N, t)


def _full_order_ratios(a, b, order, t):
    """Every ratio (az;q)_m/(bz;q)_m built at the full order, then cut."""
    q = RatFun.sym(t, "q")
    out = []
    r = TruncSeries.one(t, order)
    for m in range(order + 1):
        out.append(r.truncated(order - m))
        r = r.mul_linear(a * q**m).div_linear(b * q**m)
    return out


@pytest.mark.parametrize("pair", ["symbolic", "coogan_ono", "shifted"])
def test_ratio_chain_equals_full_order_then_truncate(t, syms, pair):
    # ratio m+1 is built from ratio m already cut to order - m - 1; the cut
    # must change no coefficient's text, not only its value
    q, a, b = syms
    a_, b_ = {"symbolic": (a, b), "coogan_ono": (1, -q), "shifted": (q / b, a * q)}[pair]
    for order in range(N + 1):
        got = _ratio_chain(a_, b_, order, t)
        want = _full_order_ratios(a_, b_, order, t)
        assert [r.order for r in got] == list(range(order, -1, -1))
        assert [[str(c) for c in r.coeffs] for r in got] == \
            [[str(c) for c in r.coeffs] for r in want], order


def test_qhyper_examples(t, syms):
    q, a, b = syms
    s = qhyper([a], [], b, N, t)  # 1phi0 with upper a, argument bz
    assert s.coeffs[0] == 1
    assert s.coeffs[1] == (1 - a) * b / (1 - q)
    r = qhyper([], [], b, N, t)  # 0phi(-1)-style bare term: b^n/(q;q)_n
    assert r.coeffs[2] == b**2 / ((1 - q) * (1 - q**2))
    with pytest.raises(PoleError):
        qhyper([a], [1 / q**2], b, N, t)  # lower q^(-2) zeroes term 3


def test_partial_theta_examples(t, syms):
    q, a, b = syms
    one = RatFun.one(t)
    s = partial_theta(1, one, 1, 4, t)
    assert [str(c) for c in s.coeffs] == ["1", "-1", "q", "-q^3", "q^6"]
    r = partial_theta(2, q, 2, N, t)
    for k in range(N // 2 + 1):
        sign = -1 if k % 2 else 1
        assert r.coeffs[2 * k] == sign * qpow(t, k * k)
        if 2 * k + 1 <= N:
            assert r.coeffs[2 * k + 1].is_zero()
    assert partial_theta(2, RatFun.zero(t), 2, N, t) == TruncSeries.one(t, N)


def test_sum_series_balanced(t, syms):
    q, a, b = syms
    parts = [TruncSeries.z_power(t, n, N, coeff=n + 1) for n in range(N + 1)]
    total = sum_series(parts)
    assert all(total.coeffs[n] == n + 1 for n in range(N + 1))
    assert sum_series([], table=t, order=3) == TruncSeries.zero(t, 3)


def test_substitute_in_series_composes(t, syms):
    q, a, b = syms
    # replace the parameter a by the series bz inside (az;q)_1 = 1 - az:
    # the result must be 1 - bz^2
    s = pochhammer_finite(a, 1, 4, t)
    bz = TruncSeries.z_power(t, 1, 4, coeff=b)
    out = substitute_in_series(s, {"a": bz})
    assert out == TruncSeries.from_coeffs(t, [1, 0, -1 * b], 4)


_SUB_TABLE = SymbolTable(("q", "a", "b"))
_SUB_ORDER = 3
# the values have no pole at this point
_SUB_POINT = {"q": Fraction(3, 7), "a": Fraction(-5, 11), "b": Fraction(2, 13)}
_SUB_VALUES = ["0", "1", "-2/3", "q", "a*q", "b - q^2", "1/(1 + q)", "q/(a - 2*b)"]


def _sub_poly(terms):
    acc = MultiPoly.zero(_SUB_TABLE)
    for (eq, ea, eb), c in terms:
        acc = acc + MultiPoly.monomial(_SUB_TABLE, {"q": eq, "a": ea, "b": eb}, c)
    return acc


_sub_polys = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), st.integers(-4, 4)), max_size=3
).map(_sub_poly)

_sub_series = st.lists(
    st.tuples(_sub_polys, _sub_polys.filter(lambda p: not p.is_zero())),
    min_size=_SUB_ORDER + 1, max_size=_SUB_ORDER + 1,
).map(lambda nds: TruncSeries(_SUB_TABLE, _SUB_ORDER, [RatFun(n, d) for n, d in nds]))

# one or two of the three symbols, so at least one is always kept
_sub_assignments = st.dictionaries(
    st.sampled_from(["q", "a", "b"]), st.sampled_from(_SUB_VALUES), min_size=1, max_size=2)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_sub_series, _sub_assignments)
@example(s=TruncSeries.from_coeffs(_SUB_TABLE, [parse_ratfun("a*q^2 - b", _SUB_TABLE)] * 4,
                                   _SUB_ORDER),
         assignments={"a": "q/(a - 2*b)"})
@example(s=TruncSeries.from_coeffs(
             _SUB_TABLE, [parse_ratfun(e, _SUB_TABLE) for e in
                          ["1", "a^2*b/(1 + q*b)", "0", "(a - b)/(q + 2)"]], _SUB_ORDER),
         assignments={"a": "b - q^2", "b": "0"})
@example(s=TruncSeries.from_coeffs(_SUB_TABLE, [parse_ratfun("1/a", _SUB_TABLE)], _SUB_ORDER),
         assignments={"a": "0"})
def test_substitute_in_series_matches_ratfun_substitute(s, assignments):
    # z-free values: every coefficient maps to its own RatFun substitution
    rvals = {nm: parse_ratfun(v, _SUB_TABLE) for nm, v in assignments.items()}
    svals = {nm: TruncSeries.const(_SUB_TABLE, r, _SUB_ORDER) for nm, r in rvals.items()}
    try:
        want = [c.substitute(rvals) for c in s.coeffs]
    except PoleError:
        with pytest.raises(NonInvertibleError):
            substitute_in_series(s, svals)
        assume(False)  # a denominator vanishes under the substitution
    got = substitute_in_series(s, svals)
    assert got.order == _SUB_ORDER
    assert [str(c) for c in got.coeffs] == [str(c) for c in want]
    # and both agree with substituting the values' values at a point
    point = {**_SUB_POINT, **{nm: r.evaluate(_SUB_POINT) for nm, r in rvals.items()}}
    assert [c.evaluate(_SUB_POINT) for c in want] == [c.evaluate(point) for c in s.coeffs]


def test_series_times_ratfun_scales_each_coefficient(t, syms):
    q, a, b = syms
    s = pochhammer_finite(a, 2, 3, t)
    assert (s * (b / q)).coeffs == s.scale(b / q).coeffs
    assert (s * RatFun.zero(t)).is_zero()


def test_ratfun_times_series_scales_each_coefficient(t, syms):
    # RatFun * TruncSeries once raised TypeError; scale is the same product
    q, a, b = syms
    s = pochhammer_finite(a, 2, 3, t)
    for c in (q, b / q, RatFun.zero(t)):
        want = [str(x * c) for x in s.coeffs]
        assert [str(x) for x in (c * s).coeffs] == [str(x) for x in (s * c).coeffs] == want
        assert [str(x) for x in s.scale(c).coeffs] == want
    zero = s.scale(0)
    assert zero.is_zero() and zero.order == s.order
    assert s.scale(Fraction(-3, 2)) == s * RatFun.from_fraction(t, Fraction(-3, 2))


def test_json_rendering(t, syms):
    q, a, b = syms
    s = pochhammer_finite(a, 1, 2, t)
    assert s.to_json_dict() == {"order": 2, "coeffs": ["1", "-a", "0"]}
