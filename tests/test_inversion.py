"""Base-change matrices, the closed coefficient formula, and their relations.

The triangular solve against A is the definitional oracle; the closed
formula (and every consequence: matrix entries, recurrences, generating
functions, specializations) must reproduce it exactly.  Randomized
series use rational coefficients in [-9, 9] from a fixed seed.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpand import inversion
from qexpand.errors import OrderError, SingularMatrixError, StructureError
from qexpand.inversion import (
    LTMatrix,
    _kernel_chain,
    _thm25_entry,
    b_column1,
    base_matrix,
    carlitz_coeffs,
    coro310_coeffs,
    expand_theorem15,
    expand_triangular,
    gn_polynomials,
    lt_inverse,
    matrix_entry_thm25,
    matrix_thm25,
    reconstruct,
    sn_polynomial,
)
from qexpand.ring import MultiPoly, RatFun, SymbolTable, parse_ratfun
from qexpand.series import TruncSeries
from reference import poch, qpoch, substitute

N = 8


@pytest.fixture(scope="module")
def t():
    return SymbolTable(("q", "a", "b"))


@pytest.fixture(scope="module")
def syms(t):
    return tuple(RatFun.sym(t, nm) for nm in ("q", "a", "b"))


@pytest.fixture(scope="module")
def pair(t, syms):
    q, a, b = syms
    m = base_matrix(a, b, N)
    return m, lt_inverse(m)


def _random_series(table, order, rng):
    return TruncSeries(table, order, [
        RatFun.from_fraction(table, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(order + 1)
    ])


# ---------------------------------------------------------------------------
# the matrices themselves


def test_base_matrix_entries(t, syms, pair):
    q, a, b = syms
    m, _ = pair
    assert m.entry(0, 0) == 1
    assert m.entry(1, 0).is_zero()  # column 0 is the constant series 1
    assert m.entry(2, 1) == b - a
    assert m.entry(3, 1) == b * (b - a)
    assert m.entry(3, 2) == (1 + q) * (b - a)
    for n in range(N + 1):
        assert m.entry(n, n) == 1
    assert m.entry(2, 5).is_zero()  # above the diagonal


def test_inverse_entries(t, syms, pair):
    q, a, b = syms
    _, inv = pair
    assert inv.entry(1, 1) == 1
    assert inv.entry(2, 1) == a - b
    assert inv.entry(3, 1) == (a - b) * (a * (1 + q) - b * q)
    assert inv.entry(3, 2) == (1 + q) * (a - b)
    for n in range(1, N + 1):
        assert inv.entry(n, 0).is_zero()  # z^0 never needs a higher element
        assert inv.entry(n, n) == 1


def test_inverse_pair_is_identity(pair):
    m, inv = pair
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()


def test_matrix_size_zero(t, syms):
    q, a, b = syms
    m = base_matrix(a, b, 0)
    assert m.size == 0 and m.entry(0, 0) == 1
    assert lt_inverse(m).is_identity()


def test_lt_inverse_rejects_non_unit_diagonal(t, syms):
    q, a, b = syms
    bad = LTMatrix(t, [[RatFun.one(t)], [a, 2 * RatFun.one(t)]])
    with pytest.raises(SingularMatrixError):
        lt_inverse(bad)


def test_ltmatrix_shape_validation(t):
    with pytest.raises(StructureError):
        LTMatrix(t, [[RatFun.one(t)], [RatFun.one(t)]])


def test_b_column1_matches_inverse_column(t, syms, pair):
    q, a, b = syms
    _, inv = pair
    col = b_column1(a, b, N)
    assert col[0].is_zero()
    for n in range(1, N + 1):
        assert col[n] == inv.entry(n, 1)


def test_entry_formula_matches_inverse(t, syms, pair):
    q, a, b = syms
    _, inv = pair
    assert matrix_thm25(a, b, N) == inv
    for n, k in ((0, 0), (3, 1), (5, 2), (N, 0), (N, N), (2, 5)):
        assert matrix_entry_thm25(n, k, a, b) == inv.entry(n, k)


def test_entry_formula_edges_match_ltmatrix(t, syms):
    # off the triangle both give zero, and a negative row raises in both
    q, a, b = syms
    inv = lt_inverse(base_matrix(a, b, 5))
    for n in (-1, 0, 3, 5):
        for k in (-1, 0, 3, 5):
            if n < 0:
                with pytest.raises(OrderError, match="row -1 out of range"):
                    inv.entry(n, k)
                with pytest.raises(OrderError, match="row -1 out of range"):
                    matrix_entry_thm25(n, k, a, b)
            else:
                assert matrix_entry_thm25(n, k, a, b) == inv.entry(n, k), (n, k)


# ---------------------------------------------------------------------------
# expansion routes


def test_dual_path_agreement_random(t, syms):
    q, a, b = syms
    rng = random.Random(20260814)
    for _ in range(5):
        f = _random_series(t, N, rng)
        r1 = expand_triangular(f, a, b)
        r2 = expand_theorem15(f, a, b)
        assert r1.coeffs == r2.coeffs
        assert reconstruct(r1.coeffs, a, b, N) == f


def test_expand_constant_and_unit(t, syms):
    q, a, b = syms
    one = TruncSeries.one(t, N)
    for route in (expand_triangular, expand_theorem15):
        r = route(one, a, b)
        assert r.coeffs[0] == 1
        assert all(c.is_zero() for c in r.coeffs[1:])
    z = TruncSeries.z_power(t, 1, N)
    col = b_column1(a, b, N)
    assert expand_theorem15(z, a, b).coeffs == col  # definition of column 1


def test_expand_order_zero(t, syms):
    q, a, b = syms
    f = TruncSeries.z_power(t, 0, 0, 7)
    assert expand_theorem15(f, a, b).coeffs == [RatFun.from_int(t, 7)]


def _kernel_inputs(monkeypatch):
    """The series each inversion._kernel_chain call runs on, in call order."""
    seen = []
    chain = inversion._kernel_chain

    def spy(f, a, b):
        seen.append(f)
        return chain(f, a, b)

    monkeypatch.setattr(inversion, "_kernel_chain", spy)
    return seen


# a and b with one-term denominators, 0 among them; f's coefficients with
# fractions, zeros and monomial denominators in q, a and b
_ONE_TERM_PARAMS = ("0", "a", "-b", "2/3", "q/5", "q/b", "a*q^2", "3*a/(7*b^2)")
_ONE_TERM_COEFFS = ("0", "0", "7", "-3/4", "q/7", "a/(9*q^2)", "b/4", "1+q",
                    "(a-q)/(2*b)", "5/(6*a*q)", "q^3*b/11")


def test_cleared_route_renders_as_the_kernel_on_f(t, monkeypatch):
    # over one-term denominators every normalized value is gcd-reduced, so
    # clearing f out of the kernel changes no byte of any coefficient
    seen = _kernel_inputs(monkeypatch)
    rng = random.Random(29)
    orders = (0, 1, 3, 6)
    for i, (at, bt) in enumerate((x, y) for x in _ONE_TERM_PARAMS for y in _ONE_TERM_PARAMS):
        a, b = parse_ratfun(at, t), parse_ratfun(bt, t)
        n = orders[i % len(orders)]
        f = TruncSeries(t, n, [parse_ratfun(rng.choice(_ONE_TERM_COEFFS), t)
                               for _ in range(n + 1)])
        seen.clear()
        got = [str(c) for c in expand_theorem15(f, a, b).coeffs]
        assert seen and all(s is not f for s in seen)  # the cleared route ran
        col = b_column1(a, b, n)
        chain = _kernel_chain(f, a, b)
        want = [str(_thm25_entry(chain, col, a, m, 0)) for m in range(n + 1)]
        assert got == want, (str(f), at, bt)


@pytest.mark.parametrize("coeffs, at, bt, on_f", [
    (("1/3", "2/5", "q/7"), "a/(9*q^2)", "b/4", False),
    (("1/(1-q)", "a*q"), "a", "b", True),
    (("1", "q"), "1/(1-a)", "b", True),
    (("1", "q"), "a", "q/(1-a)", True),
])
def test_multi_term_denominators_keep_the_kernel_on_f(t, monkeypatch, coeffs, at, bt, on_f):
    seen = _kernel_inputs(monkeypatch)
    f = TruncSeries.from_coeffs(t, [parse_ratfun(c, t) for c in coeffs], 4)
    a, b = parse_ratfun(at, t), parse_ratfun(bt, t)
    got = expand_theorem15(f, a, b).coeffs
    assert (seen[0] is f) == on_f and len(seen) == 1
    assert got == expand_triangular(f, a, b).coeffs


def test_cleared_route_normalizes_only_its_lcm_steps(t, syms, monkeypatch):
    # the kernel on f made 378 normalizations and 1358 MultiPoly products on
    # this series, and the f-free chain makes 989 products; its only
    # normalizations are the steps of the lcm of f's denominators, at most
    # one per coefficient
    q, a, b = syms
    n = 12
    f = _random_series(t, n, random.Random(20261020))
    calls, products = [], []
    init, mul = RatFun.__init__, MultiPoly.__mul__

    def counting(self, num, den):
        calls.append(self)
        init(self, num, den)

    def counting_mul(self, other):
        products.append(self)
        return mul(self, other)

    monkeypatch.setattr(RatFun, "__init__", counting)
    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    got = expand_theorem15(f, a, b).coeffs
    assert len(calls) <= n + 1
    assert len(products) <= 989
    monkeypatch.undo()
    assert got == expand_triangular(f, a, b).coeffs


@settings(max_examples=10)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                min_size=1, max_size=7))
def test_dual_path_agreement_property(coeffs):
    t = SymbolTable(("q", "a", "b"))
    a, b = RatFun.sym(t, "a"), RatFun.sym(t, "b")
    n = len(coeffs) - 1
    f = TruncSeries(t, n, [RatFun.from_fraction(t, c) for c in coeffs])
    assert expand_triangular(f, a, b).coeffs == expand_theorem15(f, a, b).coeffs


# ---------------------------------------------------------------------------
# recurrences and functional equations for the inverse entries


def test_recurrence_row_sum(t, syms, pair):
    # B_(n,k+1) + (b-a) sum_(i=k+2..n) b^(i-k-2) B_(n,i) = q^(n-k-1) B_(n-1,k)
    q, a, b = syms
    _, inv = pair
    for n in range(1, N + 1):
        for k in range(n):
            acc = inv.entry(n, k + 1)
            for i in range(k + 2, n + 1):
                acc = acc + (b - a) * b ** (i - k - 2) * inv.entry(n, i)
            assert acc == q ** (n - k - 1) * inv.entry(n - 1, k), (n, k)


def test_three_term_relation(t, syms, pair):
    # B_(n,k) - a B_(n,k+1) = q^(n-k) B_(n-1,k-1) - b q^(n-k-1) B_(n-1,k)
    q, a, b = syms
    _, inv = pair
    for n in range(1, N + 1):
        for k in range(1, n + 1):
            lhs = inv.entry(n, k) - a * inv.entry(n, k + 1)
            rhs = q ** (n - k) * inv.entry(n - 1, k - 1) \
                - b * q ** (n - k - 1) * inv.entry(n - 1, k)
            assert lhs == rhs, (n, k)


def test_column_functional_equation(t, syms, pair):
    # G_k(z) - a G_(k+1)(z) = z q^(1-k) G_(k-1)(qz) - b z q^(-k) G_k(qz)
    q, a, b = syms
    _, inv = pair

    def col_series(k):
        return TruncSeries(t, N, [inv.entry(n, k) for n in range(N + 1)])

    for k in range(1, 7):
        lhs = col_series(k) - col_series(k + 1).scale(a)
        rhs = col_series(k - 1).shift_q(1).mul_z(1).scale(q ** (1 - k)) \
            - col_series(k).shift_q(1).mul_z(1).scale(b * q ** (-k))
        assert lhs == rhs, k


def test_homogeneity_in_a_and_b():
    # B_(n,k)(a t, b t) = B_(n,k)(a, b) t^(n-k)
    t4 = SymbolTable(("q", "a", "b", "t"))
    a, b, tt = (RatFun.sym(t4, nm) for nm in ("a", "b", "t"))
    inv = lt_inverse(base_matrix(a, b, 6))
    for n in range(6 + 1):
        for k in range(n + 1):
            scaled = substitute(inv.entry(n, k), {"a": a * tt, "b": b * tt}, RatFun.one(t4))
            assert scaled == inv.entry(n, k) * tt ** (n - k), (n, k)


def test_k0_peeling_identity(t, syms):
    # [z^n]{(bz;q)_(n-1)/(az;q)_n}
    #   = a sum_(i<n) B_(n-i,1) q^((n-i)i) [z^i]{(bz;q)_i/(az;q)_(i+1)}
    q, a, b = syms
    col = b_column1(a, b, N)

    def kernel_coeff(num_n, den_n, at):
        s = poch(b, num_n, at, t) * poch(a, den_n, at, t).invert()
        return s.coeffs[at]

    for n in range(1, N + 1):
        lhs = kernel_coeff(n - 1, n, n)
        rhs = RatFun.zero(t)
        for i in range(n):
            rhs = rhs + col[n - i] * q ** ((n - i) * i) * kernel_coeff(i, i + 1, i)
        assert lhs == a * rhs, n


# ---------------------------------------------------------------------------
# finite generating function in y and the cleared polynomial S_n


def _y_setup(n):
    ty = SymbolTable(("q", "a", "b", "y"))
    q, a, b, y = (RatFun.sym(ty, nm) for nm in ("q", "a", "b", "y"))
    inv = lt_inverse(base_matrix(a, b, n))
    return ty, q, a, b, y, inv


def test_row_generating_function_in_y():
    # sum_k B_(n,k) y^k = (b/y;q)_(n-1)/(a/y;q)_n y^n
    #   - a sum_(k<n) B_(n-k,1) q^((n-k)k) (b/y;q)_k/(a/y;q)_(k+1) y^k
    nmax = 6
    ty, q, a, b, y, inv = _y_setup(nmax)
    col = [RatFun.zero(ty)] + [inv.entry(m, 1) for m in range(1, nmax + 1)]
    for n in range(1, nmax + 1):
        lhs = RatFun.zero(ty)
        for k in range(n + 1):
            lhs = lhs + inv.entry(n, k) * y**k
        rhs = qpoch(b / y, n - 1, ty) / qpoch(a / y, n, ty) * y**n
        for k in range(n):
            rhs = rhs - a * col[n - k] * q ** ((n - k) * k) \
                * qpoch(b / y, k, ty) / qpoch(a / y, k + 1, ty) * y**k
        assert lhs == rhs, n


def test_sn_polynomial_clears_the_row_sum():
    nmax = 6
    ty, q, a, b, y, inv = _y_setup(nmax)
    for n in range(1, nmax + 1):
        sn = sn_polynomial(n, a, b, y)
        prod = RatFun.one(ty)
        for j in range(n):
            prod = prod * (y - a * q**j)
        rowsum = RatFun.zero(ty)
        for k in range(n + 1):
            rowsum = rowsum + inv.entry(n, k) * y**k
        assert sn == rowsum * prod, n


def test_sn_vanishes_at_a_q_powers():
    nmax = 6
    ty, q, a, b, y, _ = _y_setup(1)
    for n in range(1, nmax + 1):
        sn = sn_polynomial(n, a, b, y)
        for k in range(n):
            assert substitute(sn, {"y": a * q**k}, RatFun.one(ty)).is_zero(), (n, k)
    with pytest.raises(OrderError):
        sn_polynomial(0, a, b, y)


# ---------------------------------------------------------------------------
# specializations: a = 0 (Carlitz), b = 0, b = aq, and the g_n polynomials


def test_gn_values(t):
    g = gn_polynomials(12, t)
    q = RatFun.sym(t, "q")
    assert g[1] == 1
    assert g[2] == 1 - q
    assert g[3] == 1 - 2 * q**2 + q**3
    # recurrence restated: g_n = 1 - sum_(i<n) g_(n-i) q^((n-i)i)
    for n in range(2, 13):
        acc = RatFun.one(t)
        for i in range(1, n):
            acc = acc - g[n - i] * q ** ((n - i) * i)
        assert g[n] == acc


def test_gn_specialization_of_column1(t, syms):
    # B_(n,1)(a, aq) = g_n(q) a^(n-1)
    q, a, b = syms
    col = b_column1(a, a * q, N)
    g = gn_polynomials(N, t)
    for n in range(1, N + 1):
        assert col[n] == g[n] * a ** (n - 1), n


def test_carlitz_is_a_eq_0(t, syms):
    q, a, b = syms
    rng = random.Random(5)
    zero = RatFun.zero(t)
    for _ in range(3):
        f = _random_series(t, N, rng)
        assert carlitz_coeffs(f, b).coeffs == expand_triangular(f, zero, b).coeffs


def test_b_eq_0_uses_the_same_formula(t, syms):
    q, a, b = syms
    rng = random.Random(6)
    zero = RatFun.zero(t)
    for _ in range(3):
        f = _random_series(t, N, rng)
        assert expand_theorem15(f, a, zero).coeffs == expand_triangular(f, a, zero).coeffs


def test_coro310_is_b_eq_aq(t, syms):
    q, a, b = syms
    rng = random.Random(7)
    for _ in range(3):
        f = _random_series(t, N, rng)
        assert coro310_coeffs(f, a).coeffs == expand_triangular(f, a, a * q).coeffs


def test_polynomial_input_truncated_sum_bound(t, syms):
    # for F = (1-az) prod_(i<=m)(1-t_i z), the b = aq coefficients reduce to
    # c_n = sum_(k=0..min(m,n-1)) g_(n-k) q^((n-k)k) [z^n]{P - F_k/(1-az)}
    # with P the bare product and F_k the k-th truncation of F; the bound
    # min(m, n-1) printed in the source holds because F_k = F for k > m
    q, a, b = syms
    g = gn_polynomials(N, t)
    zero = RatFun.zero(t)
    for m, ts in ((2, (Fraction(1, 2), Fraction(-2, 3))),
                  (3, (Fraction(1, 3), Fraction(2), Fraction(-1, 4)))):
        p = TruncSeries.one(t, N)
        for tv in ts:
            p = p.mul_linear(RatFun.from_fraction(t, tv))
        f = p.mul_linear(a)
        want = expand_triangular(f, a, a * q).coeffs
        assert want[0] == 1
        for n in range(1, N + 1):
            acc = RatFun.zero(t)
            for k in range(min(m, n - 1) + 1):
                fk = TruncSeries(t, N, f.coeffs[: k + 1] + [zero] * (N - k))
                bracket = p - fk.div_linear(a)
                acc = acc + g[n - k] * q ** ((n - k) * k) * bracket.coeffs[n]
            assert acc == want[n], (m, n)
