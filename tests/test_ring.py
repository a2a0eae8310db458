"""Exact polynomial/rational arithmetic: axioms, equality, parsing, the
Kronecker multiply against the pair-loop reference, exponent bounds, and
the run form against plain term-dict references.

Randomized values are built over the fixed table (q, a, b) with small
exponents and coefficients; everything is compared by exact equality
(cross-multiplication for quotients), never numerically.
"""

import math
import operator
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qexpand import ring
from qexpand.errors import ParseError, PoleError, StructureError
from qexpand.ring import (
    MultiPoly,
    RatFun,
    SymbolTable,
    _cancel,
    _dot,
    expression_symbols,
    parse_ratfun,
    symbols,
)
from reference import substitute

TABLE = SymbolTable(("q", "a", "b"))


def _mul_terms(t1, t2):
    """The schoolbook pair loop over term dicts: the reference the run-form
    multiply is checked against."""
    out = {}
    get = out.get
    items2 = list(t2.items())
    for k1, c1 in t1.items():
        for k2, c2 in items2:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def _mk_poly(termlist):
    acc = MultiPoly.zero(TABLE)
    for (eq, ea, eb), c in termlist:
        acc = acc + MultiPoly.monomial(TABLE, {"q": eq, "a": ea, "b": eb}, c)
    return acc


def polys(max_terms=4, max_exp=3, max_coeff=9):
    term = st.tuples(
        st.tuples(st.integers(0, max_exp), st.integers(0, max_exp),
                  st.integers(0, max_exp)),
        st.integers(-max_coeff, max_coeff),
    )
    return st.lists(term, max_size=max_terms).map(_mk_poly)


def ratfuns():
    return st.tuples(polys(), polys().filter(lambda p: not p.is_zero())).map(
        lambda nd: RatFun(nd[0], nd[1])
    )


# ---------------------------------------------------------------------------
# ring axioms and equality


@settings(max_examples=200)
@given(polys(), polys(), polys())
def test_poly_ring_axioms(p, r, s):
    assert p + r == r + p
    assert (p + r) + s == p + (r + s)
    assert p * r == r * p
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@given(ratfuns(), polys().filter(lambda p: not p.is_zero()))
def test_ratfun_equality_is_stable_under_common_factors(f, s):
    g = RatFun(f.num * s, f.den * s)
    assert f == f
    assert f == g and g == f
    h = RatFun(g.num * s, g.den * s)
    assert g == h and f == h  # transitivity across two rescalings


@given(ratfuns().filter(lambda f: not f.is_zero()))
def test_mul_inverse(f):
    assert f * (1 / f) == 1


def _vanishes_at_a_q1_b23(p):
    """Whether p is identically zero at a = q + 1, b = 2/3: its term dict
    expanded by binomial coefficients, with no ring arithmetic."""
    out = {}
    for k, c in p.terms.items():
        eq, ea, eb = TABLE.unpack(k)
        for i in range(ea + 1):
            out[eq + i] = out.get(eq + i, 0) + c * math.comb(ea, i) * Fraction(2, 3) ** eb
    return not any(out.values())


@given(ratfuns(), ratfuns())
# g's denominator 3*q^2*b^2*(3*b - 2) vanishes at b = 2/3
@example(f=RatFun.zero(TABLE), g=parse_ratfun("1/(9*q^2*b^3 - 6*q^2*b^2)", TABLE))
def test_substitute_commutes_with_arithmetic(f, g):
    q = RatFun.sym(TABLE, "q")
    assignments = {"a": q + 1, "b": RatFun.from_fraction(TABLE, Fraction(2, 3))}

    def sub(h):
        return substitute(h, assignments, RatFun.one(TABLE))

    poles = [_vanishes_at_a_q1_b23(h.den) for h in (f, g)]
    for h, pole in zip((f, g), poles):
        if pole:
            with pytest.raises(PoleError):
                sub(h)
    assume(not any(poles))  # the identity holds only where f and g are defined
    fs, gs = sub(f), sub(g)
    assert sub(f * g) == fs * gs
    assert sub(f + g) == fs + gs


def test_ratfun_arith_examples(qab):
    q, a, b = qab
    t = q.table
    # (1-q)(1+q) = 1-q^2 and the quotient collapses back
    assert (1 - q) * (1 + q) == 1 - q**2
    assert (1 - q**2) / (1 - q) == 1 + q
    assert a / b * b == a
    # the divisor is tested before it is inverted
    for x in (a, RatFun.zero(t), 1):
        with pytest.raises(PoleError, match="division by zero"):
            x / RatFun.zero(t)
    with pytest.raises(PoleError, match="division by zero"):
        a / 0
    with pytest.raises(PoleError, match="negative power of zero"):
        RatFun.zero(t) ** (-1)


def test_evaluate_examples(qab):
    q, a, b = qab
    assert (1 + q).evaluate({"q": Fraction(1, 2), "a": 0, "b": 0}) == Fraction(3, 2)
    assert (b - a).evaluate({"q": 0, "a": 1, "b": 2}) == 1
    with pytest.raises(PoleError):
        (1 / (1 - q)).evaluate({"q": 1, "a": 0, "b": 0})


@given(ratfuns(), ratfuns())
def test_evaluate_is_a_homomorphism(f, g):
    point = {"q": Fraction(1, 3), "a": Fraction(-2, 5), "b": Fraction(7, 4)}
    try:
        fv, gv = f.evaluate(point), g.evaluate(point)
    except PoleError:
        return  # denominator vanishes at the probe point; nothing to compare
    assert (f + g).evaluate(point) == fv + gv
    assert (f * g).evaluate(point) == fv * gv


def _factors():
    q, a = RatFun.sym(TABLE, "q"), RatFun.sym(TABLE, "a")
    # zero, and shared denominators, whose sums render by grouping
    pool = [RatFun.zero(TABLE), 1 / (1 - q), 1 / (1 + q), a / (1 - q**2), q + 1]
    return st.one_of(st.sampled_from(pool), ratfuns())


@settings(max_examples=60)
@given(_factors(), st.lists(st.tuples(_factors(), _factors()), max_size=5))
def test_dot_renders_as_the_left_fold(acc, pairs):
    # unreduced sums render by grouping, so equality of values is not enough
    fold = reduce(lambda s, xy: s + xy[0] * xy[1], pairs, acc)
    assert str(_dot(iter(pairs), acc)) == str(fold)


def test_dot_keeps_the_fold_order(qab):
    q = qab[0]
    one, u, v = RatFun.one(q.table), 1 / (1 - q), 1 / (1 + q)
    zero = RatFun.zero(q.table)
    # regrouped, u + (u + v) renders (-q^2 - 2*q + 3)/(q^3 - q^2 - q + 1)
    assert str(_dot([(one, u), (one, u), (one, v)], zero)) == "(-q - 3)/(q^2 - 1)"
    # balanced, (u + u) + (v + v) renders (-4)/(q^2 - 1)
    assert (str(_dot([(one, u), (one, u), (one, v), (one, v)], zero))
            == "(-4*q - 4)/(q^3 + q^2 - q - 1)")
    # acc last, v + (u + u) renders (-q - 3)/(q^2 - 1)
    assert str(_dot([(one, u), (one, u)], v)) == "(-q^2 - 2*q + 3)/(q^3 - q^2 - q + 1)"


def test_dot_skips_pairs_with_a_zero_factor(qab):
    q = qab[0]
    zero = RatFun.zero(q.table)

    class Unmultipliable:
        def is_zero(self):
            return False

        def __mul__(self, other):
            raise AssertionError("a pair with a zero factor was multiplied")

        __rmul__ = __mul__

    never = Unmultipliable()
    assert _dot([(zero, never), (never, zero)], q) is q


# ---------------------------------------------------------------------------
# parsing and rendering


@given(ratfuns())
def test_parse_render_round_trip(f):
    assert parse_ratfun(str(f), TABLE) == f


def test_parse_examples():
    t, (q, a, b) = symbols("q a b")
    assert parse_ratfun("q^2 - 1", t) == q * q - 1
    assert parse_ratfun("-q", t) == -q
    assert parse_ratfun("a/b + 1/2", t) == a / b + Fraction(1, 2) * RatFun.one(t)
    assert parse_ratfun("q^-2", t) == 1 / q**2
    assert parse_ratfun("(1-q)*(1+q)", t) == 1 - q**2
    assert parse_ratfun("2*a*(b - 3)", t) == 2 * a * (b - 3)


def test_parse_errors():
    t = SymbolTable(("q", "a", "b"))
    for bad in ("", "((", "q +", "1 ** 2", "q^a", "3..5"):
        with pytest.raises(ParseError):
            parse_ratfun(bad, t)
    with pytest.raises(StructureError):
        parse_ratfun("q + w", t)  # symbol not in the table


def test_parse_caps_parenthesis_nesting():
    t = SymbolTable(("q",))
    q = RatFun.sym(t, "q")
    assert parse_ratfun("(" * 100 + "q" + ")" * 100, t) == q
    with pytest.raises(ParseError, match="nested deeper than 100"):
        parse_ratfun("(" * 101 + "q" + ")" * 101, t)
    with pytest.raises(ParseError, match="nested deeper"):
        parse_ratfun("(" * 200 + "q" + ")" * 200, t)


def test_parse_long_unary_minus_chains():
    t = SymbolTable(("q",))
    q = RatFun.sym(t, "q")
    assert parse_ratfun("-" * 1200 + "q", t) == q
    assert parse_ratfun("-" * 1201 + "q", t) == -q
    assert str(parse_ratfun("---(1 + q)/(1 - q)", t)) == str(-((1 + q) / (1 - q)))


def test_parse_caps_literal_exponents_like_pack():
    t = SymbolTable(("q",))
    for text in ("2^16777216", "2^-16777216", "q^16777216"):
        with pytest.raises(ParseError, match=r"reaches the bound 2\*\*24"):
            parse_ratfun(text, t)
    assert parse_ratfun("2^3", t) == RatFun.from_int(t, 8)


def test_parse_caps_integer_literals_by_digits():
    # past 4300 digits CPython can neither read nor print an int
    t = SymbolTable(("q",))
    assert parse_ratfun("9" * 4300, t) == RatFun.from_int(t, 10**4300 - 1)
    with pytest.raises(ParseError, match="5000 digits passes the 4300-digit limit"):
        parse_ratfun("q + " + "9" * 5000, t)


def test_parse_caps_integer_powers_by_digits():
    t = SymbolTable(("q",))
    assert parse_ratfun("10^4299", t) == RatFun.from_int(t, 10**4299)
    assert parse_ratfun("2^14284", t) == RatFun.from_int(t, 2**14284)
    assert parse_ratfun("1^16777215", t) == RatFun.one(t)
    assert parse_ratfun("(2/3)^-5000", t) == Fraction(3**5000, 2**5000) * RatFun.one(t)
    # 10^4300 is refused once taken, the others from bit lengths alone
    for text in ("10^4300", "2^14285", "2^20000", "(2*q)^20000", "(1/2)^-14285"):
        with pytest.raises(ParseError, match="passes the 4300-digit integer limit"):
            parse_ratfun(text, t)


def test_power_of_a_base_with_one_term_per_run():
    # each a^k*q^k of (1 + a*q)^1000 sits in its own one-slot run, so the
    # squarings multiply hundreds of runs by hundreds of runs
    t = SymbolTable(("q", "a"))
    f = parse_ratfun("(1+a*q)^1000", t)
    binomial = MultiPoly(t, {t.pack((k, k)): math.comb(1000, k) for k in range(1001)})
    assert f.den == 1 and f.num == binomial


def test_expression_symbols_first_use_order():
    assert expression_symbols("b*q + c0*(b - d)") == ["b", "q", "c0", "d"]


def test_render_is_deterministic(qab):
    q, a, b = qab
    # denominator sign is normalized (leading coefficient positive)
    f = (a - b) / (1 - q)
    assert str(f) == "(-a + b)/(q - 1)"
    assert str(a - b) == "a - b"
    assert str(RatFun.zero(q.table)) == "0"


# ---------------------------------------------------------------------------
# the Kronecker multiply agrees with the pair-loop reference


def _random_poly(rng, table, nterms, max_exp, max_coeff):
    acc = {}
    for _ in range(nterms):
        key = table.pack([rng.randrange(max_exp + 1) for _ in table.names])
        acc[key] = acc.get(key, 0) + rng.randint(-max_coeff, max_coeff)
    return MultiPoly(table, {k: c for k, c in acc.items() if c})


def _assert_matches_reference(p, r):
    small, big = sorted((p.terms, r.terms), key=len)
    reference = _mul_terms(small, big)
    assert (p * r).terms == reference
    assert (r * p).terms == reference


@pytest.mark.parametrize("names", [("q",), ("a", "q"), ("q", "a", "b"), ("q", "A", "B", "C")],
                         ids="_".join)
@pytest.mark.parametrize("max_coeff", [9, 10**12, 10**20])
def test_mul_matches_pair_loop_reference(names, max_coeff):
    # 10**12 and 10**20 need slots wider than 64 bits; ("a", "q") groups
    # the terms by a symbol other than q
    import random

    rng = random.Random(11)
    table = SymbolTable(names)
    for nterms, max_exp in ((300, 18), (40, 3), (2, 50), (1, 7), (0, 1)):
        p = _random_poly(rng, table, nterms, max_exp, max_coeff)
        r = _random_poly(rng, table, 300, 18, max_coeff)
        _assert_matches_reference(p, r)
        _assert_matches_reference(p, p)


@pytest.mark.parametrize("names", [("q",), ("a", "q"), ("q", "A", "B", "C")], ids="_".join)
def test_mul_cancels_to_sparse_products(names):
    table = SymbolTable(names)
    x = MultiPoly.symbol(table, names[0])
    y = MultiPoly.symbol(table, names[-1])
    # (x - y) * sum x^i y^(k-i) = x^(k+1) - y^(k+1): every middle term cancels
    geo = MultiPoly.zero(table)
    for i in range(40):
        geo = geo + x**i * y ** (39 - i)
    _assert_matches_reference(x - y, geo)
    assert (x - y) * geo == x**40 - y**40
    _assert_matches_reference(x - 1, (x + 1) * (x**2 + 1))
    assert (x - 1) * ((x + 1) * (x**2 + 1)) == x**4 - 1


@settings(max_examples=200)
@given(polys(max_terms=12, max_exp=6, max_coeff=2**70), polys(max_terms=12, max_exp=6))
def test_mul_matches_pair_loop_reference_random(p, r):
    _assert_matches_reference(p, r)


# ---------------------------------------------------------------------------
# packed exponent fields never overflow silently


def test_pack_rejects_exponents_at_the_field_bound():
    assert TABLE.unpack(TABLE.pack((2**24 - 1, 0, 0))) == (2**24 - 1, 0, 0)
    for exps in ((2**24, 0, 0), (0, 0, 2**24), (2**23, 2**23, 0)):
        with pytest.raises(StructureError):
            TABLE.pack(exps)
    with pytest.raises(StructureError):
        MultiPoly.monomial(TABLE, {"a": 2**24})


def test_mul_rejects_products_at_the_field_bound():
    q = MultiPoly.symbol(TABLE, "q")
    a = MultiPoly.symbol(TABLE, "a")
    big = MultiPoly.monomial(TABLE, {"q": 2**24 - 1})
    three = MultiPoly.const(TABLE, 3)
    assert (big * three).terms == {TABLE.pack((2**24 - 1, 0, 0)): 3}
    for other in (q, a, q + a, q * q + 1):
        with pytest.raises(StructureError):
            big * other
        with pytest.raises(StructureError):
            other * (big + 1)
    with pytest.raises(StructureError):
        q ** (2**24)


# ---------------------------------------------------------------------------
# a power of one term c*g*x^lo is one term, built in one step


POWER_COEFFS = [1, -1, -3, 2**31 - 1, -(2**63 - 1), 2**64 + 1]
POWER_EXPS = [0, 1, 2, 5, 31]
# (a, b, q) keeps its runs in a, so q's powers are key powers there
POWER_TABLES = [SymbolTable(names) for names in (("q",), ("q", "a", "b"), ("a", "b", "q"))]


def _power_bases(table, coeff):
    """coeff times a monomial in each symbol alone, and in all of them."""
    exps = [{nm: 3} for nm in table.names] + [{nm: i + 1 for i, nm in enumerate(table.names)}]
    return [MultiPoly.monomial(table, e, coeff) for e in exps]


@pytest.mark.parametrize("coeff", POWER_COEFFS)
@pytest.mark.parametrize("table", POWER_TABLES, ids=lambda t: "_".join(t.names))
def test_power_of_one_term_is_the_repeated_product(table, coeff):
    one = MultiPoly.const(table, 1)
    for p in _power_bases(table, coeff):
        for n in POWER_EXPS:
            got = p**n
            ref = reduce(operator.mul, [p] * n, one)
            w = max(got.w, ref.w)
            assert got._at(w) == ref._at(w)
            assert got.terms == ref.terms and str(got) == str(ref)
            assert got.is_term()
            assert got._bound >= abs(coeff) ** n
            assert got.w >= ring._width(got._bound.bit_length())
            assert got.deg == got.total_degree() == ref.total_degree()


@pytest.mark.parametrize("table", POWER_TABLES[1:], ids=lambda t: "_".join(t.names))
def test_power_of_one_term_keeps_the_degree_guard(table):
    # the message binary powering raises from its products, for a sum too
    guard = r"a product reaches total degree 2\*\*24"
    for base, n in (({"q": 2**23}, 2), ({"a": 1, "b": 2**22}, 4)):
        p = MultiPoly.monomial(table, base)
        for power in (p, p + 1):
            with pytest.raises(StructureError, match=guard):
                power**n
    for base, n, deg in (({"q": 2**23 - 1}, 2, 2**24 - 2), ({"a": 1, "b": 2**22 - 2}, 4, 2**24 - 4)):
        got = MultiPoly.monomial(table, base) ** n
        assert got.total_degree() == got.deg == deg
        assert got.terms == {table.pack([base.get(nm, 0) * n for nm in table.names]): 1}


def test_powers_of_zero_and_constants():
    zero = MultiPoly.zero(TABLE)
    assert zero**0 == 1 and (zero**0).terms == {0: 1} and (zero**0).deg == 0
    assert (zero**1).is_zero() and (zero**3).is_zero()
    for c in (1, -1, 7, -(2**40), 2**64 + 1):
        for n in (0, 1, 3):
            got = MultiPoly.const(TABLE, c) ** n
            assert got == c**n and got.const_value() == c**n and got.deg == 0
    assert RatFun.zero(TABLE) ** 0 == 1
    with pytest.raises(PoleError):
        RatFun.zero(TABLE) ** -1


def test_power_of_one_term_multiplies_nothing(monkeypatch):
    table = SymbolTable(("a", "b", "q"))
    q = RatFun.sym(table, "q")
    powers = [(MultiPoly.monomial(table, {"q": 2, "b": 1}, -3), 5),
              (MultiPoly.const(table, 5), 5), (q, 7), (q, -7), (-2 * q, -3)]
    want = [str(x**n) for x, n in powers]

    def refuse(*args):
        raise AssertionError("a one-term power multiplied or normalized")

    monkeypatch.setattr(MultiPoly, "__mul__", refuse)
    monkeypatch.setattr(RatFun, "__init__", refuse)
    got = [str(x**n) for x, n in powers]
    assert got == want == ["-243*b^5*q^10", "3125", "q^7", "(1)/(q^7)", "(-1)/(8*q^3)"]


def test_min_exponents_with_caps():
    p = MultiPoly(TABLE, {TABLE.pack((2, 1, 3)): 1, TABLE.pack((5, 1, 0)): -2})
    assert p.min_exponents() == [2, 1, 0]
    assert p.min_exponents([1, 4, 0]) == [1, 1, 0]
    assert (p * MultiPoly.monomial(TABLE, {"b": 2})).min_exponents() == [2, 1, 2]


def test_normalization_cancels_monomial_content(qab):
    q, a, b = qab
    f = (q**2 * a) / (q**3 * a * b)
    assert str(f) == "(1)/(q*b)"
    g = RatFun.from_int(q.table, 6) / 4
    assert str(g) == "(3)/(2)"


def test_monomial_cancel_scans_each_side_once(monkeypatch):
    # _cancel finds the common monomial with one scan of each side and
    # shifts both by the exponents found, with no scan to re-check them
    q, a, b = (MultiPoly.symbol(TABLE, nm) for nm in ("q", "a", "b"))
    num, den = q**3 * a * (1 + b), q**2 * a**2
    calls = []
    scan = MultiPoly.min_exponents
    monkeypatch.setattr(MultiPoly, "min_exponents",
                        lambda self, *caps: calls.append(self) or scan(self, *caps))
    f = RatFun(num, den)
    assert len(calls) == 2
    assert str(f) == "(q*b + q)/(a)"


# ---------------------------------------------------------------------------
# arithmetic that cancels before it multiplies against full normalization


def _full(op, x, y):
    """The reference: each result built through RatFun.__init__ on the
    cross-multiplied form (a sum over equal denominators adds numerators)."""
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    if op in ("+", "-"):
        add = operator.add if op == "+" else operator.sub
        if d1 == d2:
            return RatFun(add(n1, n2), d1)
        return RatFun(add(n1 * d2, n2 * d1), d1 * d2)
    if op == "*":
        return RatFun(n1 * n2, d1 * d2)
    return RatFun(n1 * d2, d1 * n2)


def _same_form(got, ref):
    assert got.num == ref.num and got.den == ref.den
    assert str(got) == str(ref)


def _one_term(coeff, exps):
    return MultiPoly.monomial(TABLE, dict(zip(("q", "a", "b"), exps)), coeff)


# coefficients and monomials that pairs share, as 6q^2 and 10aq^5 do
one_terms = st.builds(
    _one_term,
    st.sampled_from([1, 2, 3, 6, 10, 15, -4, -6, 2**65, 3 * 2**70, -(10 * 2**64)]),
    st.tuples(*[st.integers(0, 5)] * 3),
)
multi_terms = polys(max_terms=4, max_exp=3, max_coeff=2**70).filter(
    lambda p: not p.is_zero() and not p.is_term())
numerators = st.one_of(st.just(MultiPoly.zero(TABLE)), one_terms, polys(),
                       polys(max_coeff=2**70), st.builds(operator.mul, one_terms, polys()))
# the constant 1 makes polynomials, whose products and sums skip normalization
denominators = st.one_of(st.just(MultiPoly.const(TABLE, 1)), one_terms, multi_terms,
                         st.builds(operator.mul, one_terms, multi_terms))
normal_ratfuns = st.builds(RatFun, numerators, denominators)

_6q2 = RatFun(MultiPoly.const(TABLE, 1), _one_term(6, (2, 0, 0)))
_10aq5 = RatFun(MultiPoly.const(TABLE, 1), _one_term(10, (5, 1, 0)))
_poly = RatFun(_one_term(4, (1, 2, 0)) - _one_term(6, (0, 0, 3)), MultiPoly.const(TABLE, 1))
# multi-term numerators and denominators that share the one-term factor 2q
_over_multi = RatFun(_one_term(6, (2, 0, 0)) * (_one_term(3, (0, 1, 1)) - MultiPoly.const(TABLE, 1)),
                     _one_term(1, (0, 0, 2)) + MultiPoly.const(TABLE, 2))
# its numerator's leading coefficient is negative, so its inverse changes sign
_neg_lead = RatFun(_one_term(2, (1, 0, 0)) * (_one_term(-2, (1, 1, 0)) + _one_term(5, (0, 0, 1))),
                   _one_term(1, (2, 0, 0)) + _one_term(3, (0, 1, 0)))


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
@settings(max_examples=80, derandomize=True)
@given(normal_ratfuns, normal_ratfuns)
@example(x=_6q2, y=_10aq5)
@example(x=_6q2, y=1 / _10aq5)
@example(x=-1 / _6q2, y=-_10aq5)
@example(x=_poly, y=-_poly)
@example(x=_poly, y=_6q2)
@example(x=_over_multi, y=_neg_lead)
@example(x=RatFun.zero(TABLE), y=_neg_lead)
def test_arithmetic_matches_full_normalization(op, x, y):
    if op == "/" and y.is_zero():
        return
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[op]
    _same_form(fn(x, y), _full(op, x, y))


@settings(max_examples=80, derandomize=True)
@given(normal_ratfuns, st.integers(-3, 4))
@example(x=-1 / _6q2, k=-3)
@example(x=_poly, k=3)
def test_negation_and_powers_match_full_normalization(x, k):
    _same_form(-x, RatFun(-x.num, x.den))
    if k < 0 and x.is_zero():
        return
    ref = RatFun(x.num**k, x.den**k) if k >= 0 else RatFun(x.den**-k, x.num**-k)
    _same_form(x**k, ref)


# ---------------------------------------------------------------------------
# the run form against plain term-dict references


RUN_TABLES = [SymbolTable(names) for names in (("q",), ("a", "q"), ("q", "a", "b"))]

# small coefficients keep 32-bit slots; up to 2**200 their products need
# wider ones, so sums and equality meet operands of different widths
coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200))


@st.composite
def term_dicts(draw, table, max_terms=10, max_exp=6):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(table))
    terms = draw(st.dictionaries(exps, coeffs, max_size=max_terms))
    return {table.pack(e): c for e, c in terms.items() if c}


@st.composite
def tables_with_dicts(draw, count):
    table = draw(st.sampled_from(RUN_TABLES))
    return table, [draw(term_dicts(table)) for _ in range(count)]


def _add_ref(t1, t2):
    out = dict(t1)
    for k, c in t2.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _neg_ref(t):
    return {k: -c for k, c in t.items()}


@settings(max_examples=300)
@given(tables_with_dicts(3), st.integers(-(2**70), 2**70), st.integers(0, 3))
def test_run_arithmetic_matches_dict_references(td, c, n):
    table, (d1, d2, d3) = td
    p1, p2, p3 = (MultiPoly(table, d) for d in (d1, d2, d3))
    assert p1.terms == d1 and MultiPoly(table, p1.terms) == p1
    assert (p1 + p2).terms == _add_ref(d1, d2)
    assert (p1 - p2).terms == _add_ref(d1, _neg_ref(d2))
    assert (-p1).terms == _neg_ref(d1)
    prod = _mul_terms(d1, d2)
    assert (p1 * p2).terms == prod
    # a product (often of wide slots) plus a narrow poly, and back
    assert (p1 * p2 + p3).terms == _add_ref(prod, d3)
    assert (p1 * p2 + p3 - p3) == p1 * p2
    assert p1.scaled(c).terms == {k: c * v for k, v in d1.items() if c}
    power = {0: 1}
    for _ in range(n):
        power = _mul_terms(power, d1)
    assert (p1**n).terms == power
    assert (p1 == p2) == (d1 == d2)
    assert (p1 * p2 == p3) == (prod == d3)


@settings(max_examples=300)
@given(tables_with_dicts(1))
def test_run_queries_match_dict_references(td):
    table, (d,) = td
    p = MultiPoly(table, d)
    if not d:
        assert (p.content(), p.leading_coeff(), p.total_degree()) == (0, 0, -1)
        return
    vecs = [table.unpack(k) for k in d]
    assert p.content() == reduce(math.gcd, d.values(), 0)
    assert p.leading_coeff() == d[max(d)]
    assert p.total_degree() == max(map(sum, vecs))
    mins = [min(v[i] for v in vecs) for i in range(len(table))]
    assert p.min_exponents() == mins
    assert p.min_exponents([1] * len(table)) == [min(m, 1) for m in mins]
    assert p.const_value() == d.get(0, 0)
    # _cancel against the lowest monomial of p divides every term by it
    m = table.pack(mins)
    num, den = _cancel(p, MultiPoly(table, {m: 1}))
    assert (num.terms, den.terms) == ({k - m: c for k, c in d.items()}, {0: 1})


@settings(max_examples=300)
@given(tables_with_dicts(1), coeffs)
# the run -6 + q has exactly w bits though it holds two slots
@example(td=(RUN_TABLES[0], [{RUN_TABLES[0].pack((0,)): -6, RUN_TABLES[0].pack((1,)): 1}]),
         g=0)
def test_content_from_a_starting_gcd(td, g):
    # RatFun normalization passes the denominator's content in, so the
    # numerator scan may stop early; it must still give the full gcd, for
    # multi-slot runs, for runs of one slot (each group's lowest term), and
    # when the lowest slots share a factor that a higher slot lacks
    table, (d,) = td
    lowest = {}
    for k in d:
        group = k - table.unpack(k)[0] * table._step
        lowest[group] = min(k, lowest.get(group, k))
    one_slot = {k: d[k] for k in lowest.values()}
    low_shared = {k: 6 * c if k in one_slot else c for k, c in d.items()}
    for terms in (d, one_slot, low_shared):
        p = MultiPoly(table, terms)
        assert p.content(g) == reduce(math.gcd, terms.values(), abs(g))
        assert p.content(g) == math.gcd(g, p.content())


@settings(max_examples=300)
@given(tables_with_dicts(1), st.data())
def test_run_sums_that_cancel(td, data):
    table, (d,) = td
    p = MultiPoly(table, d)
    keys = sorted(d)
    part = {k: d[k] for k in data.draw(st.lists(st.sampled_from(keys), unique=True)
                                         if keys else st.just([]))}
    s = MultiPoly(table, part)
    rest = {k: c for k, c in d.items() if k not in part}
    assert (p - s).terms == rest
    assert (p - s) + s == p
    assert (p - p).is_zero() and p - p == 0
    assert p + (-p) == MultiPoly.zero(table)


@pytest.mark.parametrize("names", [("q",), ("a", "q"), ("q", "a", "b")], ids="_".join)
def test_runs_lose_their_lowest_slots(names):
    table = SymbolTable(names)
    x = MultiPoly.symbol(table, names[0])
    y = MultiPoly.symbol(table, names[-1])
    powers = [0, 1, 2, 5]
    p = y * (1 + x + x**2 + x**5)
    for i, e in enumerate(powers):
        p = p - y * x**e
        left = [y * x**f for f in powers[i + 1:]]
        expected = {}
        for mono in left:
            expected = _add_ref(expected, mono.terms)
        assert p.terms == expected
        if left:
            assert p.min_exponents() == left[0].min_exponents()
            num, _ = _cancel(p, MultiPoly(table, {table.pack(p.min_exponents()): 1}))
            assert num.const_value() == 1
    assert p.is_zero()


def test_equality_across_slot_widths():
    x = MultiPoly(TABLE, {TABLE.pack((1, 0, 0)): 3, TABLE.pack((0, 2, 0)): -5})
    big = MultiPoly.const(TABLE, 2**300) * (1 + MultiPoly.symbol(TABLE, "q"))
    wide = (x + big) - big
    assert wide.w > x.w
    assert wide == x and x == wide
    assert wide.terms == x.terms
    assert wide + 1 != x and x != wide * 2
    assert RatFun(wide, x) == 1


def test_slot_width_grows_exactly_past_64_bits():
    q = MultiPoly.symbol(TABLE, "q")
    p = (2**30 - 1) * (1 + q)
    assert p.w == 32 and (p + p).w == 32  # 2**31 - 2 still fits a signed 32-bit slot
    assert (p + p + p).w == 64
    assert (p + p + p).terms == {0: 3 * (2**30 - 1), TABLE.pack((1, 0, 0)): 3 * (2**30 - 1)}
    assert (46340 * q).w == 32 and (46341 * q).w == 32
    assert (46340 * q * 46340).w == 32 and (46341 * q * 46341).w == 64  # 2**31 lies between
    p = (2**62 - 1) * (1 + q)
    assert (p + p).w == 64  # 2**63 - 2 still fits a signed 64-bit slot
    assert (p + p + p).w == 128
    assert (p + p + p).terms == {0: 3 * (2**62 - 1), TABLE.pack((1, 0, 0)): 3 * (2**62 - 1)}
    # 100 products of 31-bit coefficients sum to 69 bits in one slot
    run = MultiPoly(TABLE, {TABLE.pack((e, 1, 0)): 2**31 - 1 for e in range(100)})
    assert run.w == 32  # 2**31 - 1 is the widest coefficient of 32-bit slots
    assert (run * run).terms == _mul_terms(run.terms, run.terms)
    assert max((run * run).terms.values()).bit_length() == 69
    # a long sum whose bound grows past 32 bits while its value stays
    # small tightens its bound instead of widening
    big = 2**29 * (1 + q)
    s = MultiPoly.zero(TABLE)
    for _ in range(300):
        s = s + big + (1 + q) - big
    assert s.w == 32 and s == 300 * (1 + q)


# coefficients at the slot width boundaries: 32-bit slots hold magnitudes
# below 2**31, 64-bit slots below 2**63
BOUNDARY = [2**31 - 1, 2**31, 2**31 + 1, 2**63 - 1, 2**63, 2**63 + 1]
boundary_coeffs = st.one_of(st.integers(-9, 9),
                            st.sampled_from(BOUNDARY + [-c for c in BOUNDARY]),
                            st.integers(-(2**32), 2**32))


def _widened(p, how):
    """p unchanged in value, its runs re-packed at 64-bit or at 320-bit slots."""
    if how == "as built":
        return p
    big = MultiPoly.const(p.table, 2**40 if how == "64" else 2**300)
    return (p + big) - big


@st.composite
def boundary_operands(draw):
    table = draw(st.sampled_from(RUN_TABLES))
    exps = st.tuples(*[st.integers(0, 4)] * len(table))
    out = []
    for _ in range(2):
        terms = draw(st.dictionaries(exps, boundary_coeffs, max_size=6))
        d = {table.pack(e): c for e, c in terms.items() if c}
        how = draw(st.sampled_from(["as built", "64", "320"]))
        out.append((d, _widened(MultiPoly(table, d), how)))
    return table, out


def _cancel_ref(table, n, d):
    g = reduce(math.gcd, [*n.values(), *d.values()])
    keys = [table.unpack(k) for k in (*n, *d)]
    m = table.pack([min(v[i] for v in keys) for i in range(len(table))])
    return ({k - m: c // g for k, c in n.items()}, {k - m: c // g for k, c in d.items()})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(boundary_operands())
def test_width_boundaries_match_dict_references(ops):
    table, ((d1, p1), (d2, p2)) = ops
    total = _add_ref(d1, d2)
    prod = _mul_terms(d1, d2)
    assert (p1 + p2).terms == total and (p2 + p1).terms == total
    assert (p1 - p2).terms == _add_ref(d1, _neg_ref(d2))
    assert (p1 * p2).terms == prod and (p2 * p1).terms == prod
    # a sum or product that crosses a width, then back
    assert ((p1 * p2 + p1) * p2).terms == _mul_terms(_add_ref(prod, d1), d2)
    assert (p1 * p2 + p2) - p2 == p1 * p2
    assert (p1 == p2) == (d1 == d2) and (p1 == MultiPoly(table, d1))
    assert (p1 * p2 == MultiPoly(table, prod)) and (p1 + p2 == MultiPoly(table, total))
    for d, p in ((d1, p1), (d2, p2), (total, p1 + p2), (prod, p1 * p2)):
        assert p.content() == reduce(math.gcd, d.values(), 0)
        assert p.leading_coeff() == (d[max(d)] if d else 0)
        assert p.is_term() == (len(d) == 1)
    if d1 and d2:
        num, den = _cancel(p1, p2)
        assert (num.terms, den.terms) == _cancel_ref(table, d1, d2)
        num, den = _cancel(p1 * p2, p2)
        assert (num.terms, den.terms) == _cancel_ref(table, prod, d2)


# ---------------------------------------------------------------------------
# products of runs, each output run accumulated at its own lowest power


# scales that put the products of coefficients of at most 3 times s into
# 32-, 64- and 128-bit slots
MUL_SCALES = {32: 1, 64: 2**20, 128: 2**40}


def _assert_product_matches_reference(table, d1, d2, w):
    s = MUL_SCALES[w]
    d1 = {k: c * s for k, c in d1.items()}
    d2 = {k: c * s for k, c in d2.items()}
    p1, p2 = MultiPoly(table, d1), MultiPoly(table, d2)
    reference = _mul_terms(d1, d2)
    for prod in (p1 * p2, p2 * p1):
        assert prod.terms == reference
        assert prod == MultiPoly(table, reference)
        # canonical runs: the slot of each run's lowest power is nonzero
        assert all(ring._low(x, prod.w) for _, x in prod.runs.values())
        if d1 and d2:
            assert prod.w == w


def _mul_cases(table):
    x = MultiPoly.symbol(table, table.names[0])
    y = MultiPoly.symbol(table, table.names[-1])
    return [
        # a one-run operand, on either side
        (y * (2 + x - x**3), 1 - x * y + 3 * x**2 * y**2 + x**4),
        # pair products that land on the key y at x^1 and at x^8, added
        # in both orders: (y + x^3)(x^5*y + x)
        (y + x**3, x**5 * y + x),
        # y*(1 + x)*x - x*y cancels the lowest slot of the key y and leaves
        # x^2*y: (x + y)(y + x*y - x) = y^2 + x*y^2 + x^2*y - x^2
        (x + y, y + x * y - x),
        # several keys, each summed from pair products at several powers
        (x - 2 * y + 3 * x**2 * y, 2 * x * y - x**2 + y + 3 * x**3 * y),
    ]


@pytest.mark.parametrize("w", sorted(MUL_SCALES))
@pytest.mark.parametrize("table", RUN_TABLES, ids=lambda t: "_".join(t.names))
def test_mul_runs_accumulate_at_each_runs_own_base(table, w):
    for p, r in _mul_cases(table):
        _assert_product_matches_reference(table, p.terms, r.terms, w)


@st.composite
def small_term_dicts(draw, table):
    # coefficients of +-1 on few exponents make pair products cancel often
    exps = st.tuples(*[st.integers(0, 2)] * len(table))
    terms = draw(st.dictionaries(exps, st.sampled_from([-1, 1]), max_size=6))
    return {table.pack(e): c for e, c in terms.items()}


@settings(max_examples=200, derandomize=True)
@given(st.sampled_from(RUN_TABLES).flatmap(
    lambda t: st.tuples(st.just(t), small_term_dicts(t), small_term_dicts(t))),
    st.sampled_from(sorted(MUL_SCALES)))
def test_mul_runs_match_pair_loop_reference_at_each_width(td, w):
    table, d1, d2 = td
    _assert_product_matches_reference(table, d1, d2, w)


# ---------------------------------------------------------------------------
# _dot over polynomials: every pair product added in one run accumulator


def _poly_ratfun(p):
    return RatFun(p, MultiPoly.const(p.table, 1))


def _assert_dot_is_the_fold(pairs, acc):
    """_dot equals the left fold in value and text; over denominator 1 its
    runs are canonical, its slots no wider than the fold's, and its terms
    the pair-loop reference's."""
    got = _dot(pairs, acc)
    fold = reduce(lambda s, xy: s + xy[0] * xy[1], pairs, acc)
    assert got == fold and str(got) == str(fold)
    if all(v.den == 1 for xy in pairs for v in xy) and acc.den == 1:
        p = got.num
        assert got.den == 1
        assert all(ring._low(x, p.w) for _, x in p.runs.values())
        assert all(abs(c) <= p._bound for c in p.terms.values())
        assert p.w >= ring._width(p._bound.bit_length())
        assert p.w <= fold.num.w
        reference = acc.num.terms
        for x, y in pairs:
            reference = _add_ref(reference, _mul_terms(x.num.terms, y.num.terms))
        assert p.terms == reference
    return got


def _scaled_cases(table, w):
    s = MUL_SCALES[w]
    return [(_poly_ratfun(p.scaled(s)), _poly_ratfun(r.scaled(s))) for p, r in _mul_cases(table)]


@pytest.mark.parametrize("w", sorted(MUL_SCALES))
@pytest.mark.parametrize("table", RUN_TABLES, ids=lambda t: "_".join(t.names))
def test_dot_of_polynomials_is_the_fold_at_each_width(table, w):
    pairs = _scaled_cases(table, w)
    zero = RatFun.zero(table)
    x = RatFun.sym(table, table.names[0])
    y = RatFun.sym(table, table.names[-1])
    _assert_dot_is_the_fold(pairs, zero)
    # a nonzero acc, a pair in both orders, and the reversed sum
    _assert_dot_is_the_fold(pairs + [(b, a) for a, b in pairs], pairs[1][0])
    _assert_dot_is_the_fold(pairs[::-1], pairs[0][1] * pairs[2][0])
    # one-term operands on either side, and a one-run one
    three = RatFun.from_int(table, 3 * MUL_SCALES[w])
    _assert_dot_is_the_fold([(3 * x**2 * y, pairs[0][0]), (pairs[3][1], three),
                             (x * y, -y), (1 + x, three)], x + 2)
    _assert_dot_is_the_fold([(pairs[0][0], y * (1 - 2 * x**3))], zero)


@pytest.mark.parametrize("w", sorted(MUL_SCALES))
@pytest.mark.parametrize("table", RUN_TABLES, ids=lambda t: "_".join(t.names))
def test_dot_of_polynomials_that_cancel_is_the_zero_poly(table, w):
    (p, r), (u, v) = _scaled_cases(table, w)[2:]
    zero = RatFun.zero(table)
    for pairs, acc in (([(p, r), (-p, r)], zero),
                       ([(p, r), (u, v), (-u, v)], -(p * r)),
                       ([(p, r), (u, v), (v, -u)], -(r * p))):
        got = _assert_dot_is_the_fold(pairs, acc)
        assert got.is_zero() and got.den == 1 and str(got) == "0"
        assert got.num.deg == -1 and got.num.w == 32 and got.num._bound == 0
    # a zero acc that a cancelled sum left in wide slots widens nothing
    x = RatFun.sym(table, table.names[0])
    y = RatFun.sym(table, table.names[-1])
    wide_zero = u * v - v * u
    assert wide_zero.is_zero() and wide_zero.num.w == w
    _assert_dot_is_the_fold([(x, y + 1), (x - 1, x + y)], wide_zero)
    # the lowest slot of the key y cancels across two pairs' products
    _assert_dot_is_the_fold([(x + y, y + x * y), (x + y, -x)], zero)


def test_dot_of_polynomials_past_the_summed_bound_keeps_the_folds_slots():
    table, (x,) = symbols("q")
    zero = RatFun.zero(table)
    c = 2**28
    # each product c*x^(4i)*(1 - x^4) is bounded by 2c, so the summed
    # bound 10c overflows 32-bit slots; the sum telescopes to c*(1 - x^20)
    quad = c * (1 + x + x**2 + x**3)
    narrow = _assert_dot_is_the_fold([(quad * x ** (4 * i), 1 - x) for i in range(5)], zero)
    assert narrow.num.terms == {table.pack((0,)): c, table.pack((20,)): -c}
    assert narrow.num.w == 32
    # 3*30000*30000 needs 64-bit slots
    r = 30000 * (1 + x)
    wide = _assert_dot_is_the_fold([(RatFun.from_int(table, 30000), r)] * 3, zero)
    assert wide.num.w == 64


def test_dot_folds_from_a_pair_with_a_denominator():
    table, (q, a, b) = symbols("q a b")
    u, v = 1 / (1 - q), 1 / (1 + q)
    polys = [(q + a, b - 1), (2 * a, q * q - b), (q - 1, q + 1)]
    # a fraction in the middle, first, last, and as acc: the pairs after
    # it fold, and the ones before it are summed into acc first
    for pairs, acc in ((polys[:2] + [(u, a)] + polys[2:] + [(v, q)], RatFun.zero(table)),
                       ([(u, q)] + polys, a),
                       (polys + [(q, v)], RatFun.zero(table)),
                       (polys, u)):
        got = _assert_dot_is_the_fold(pairs, acc)
        assert got.den != 1


def test_dot_of_polynomials_keeps_the_product_guards():
    table, (q, a, b) = symbols("q a b")
    other = symbols("q a b c")[1][0]
    zero = RatFun.zero(table)
    big = RatFun(MultiPoly.monomial(table, {"q": 2**24 - 1}), MultiPoly.const(table, 1))
    with pytest.raises(StructureError, match=r"^a product reaches total degree 2\*\*24$"):
        _dot([(q, a), (big, q + a)], zero)
    with pytest.raises(StructureError, match=r"^a product reaches total degree 2\*\*24$"):
        _dot([(a + 1, big + 1)], q)
    mixed = r"^mixed symbol tables: \('q', 'a', 'b'\) vs \('q', 'a', 'b', 'c'\)$"
    with pytest.raises(StructureError, match=mixed):
        _dot([(q, a), (q, other)], zero)
    # a pair of another table, and a pair whose table is not acc's
    for pairs, acc in (([(q, other)], zero), ([(other, other)], q)):
        with pytest.raises(StructureError, match=mixed) as fused:
            _dot(pairs, acc)
        with pytest.raises(StructureError) as folded:
            reduce(lambda s, xy: s + xy[0] * xy[1], pairs, acc)
        assert str(fused.value) == str(folded.value)
    # a pair with a zero factor is skipped before any check
    assert _dot([(zero, other), (big, zero)], q) is q
    assert _dot([], q) is q


@settings(max_examples=150, derandomize=True)
@given(st.sampled_from(RUN_TABLES).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(st.tuples(small_term_dicts(t), small_term_dicts(t)),
                                             max_size=4), small_term_dicts(t))),
    st.sampled_from(sorted(MUL_SCALES)))
def test_dot_of_polynomials_matches_the_fold_at_each_width(tds, w):
    table, dicts, acc = tds
    s = MUL_SCALES[w]
    pairs = [(_poly_ratfun(MultiPoly(table, d1).scaled(s)), _poly_ratfun(MultiPoly(table, d2)))
             for d1, d2 in dicts]
    _assert_dot_is_the_fold(pairs, _poly_ratfun(MultiPoly(table, acc).scaled(s * s)))


# ---------------------------------------------------------------------------
# a product with the binomials 1 - q^k of a (q;q) quotient: a slot shift
# per run where q is x, the table's first symbol, else a RatFun product


def _binomials(table, ks):
    """prod_(k in ks) (1 - q^k) as a RatFun, by whole products."""
    q = RatFun.sym(table, "q")
    return reduce(operator.mul, [1 - q**k for k in ks], RatFun.one(table))


def _assert_chain_matches_product(c, ks):
    got = ring._times_binomials(c, ks)
    ref = c * _binomials(c.table, ks)
    # MultiPoly equality compares the runs at one width
    assert got.num == ref.num and got.den == ref.den
    assert got.num.terms == ref.num.terms and got.den.terms == ref.den.terms
    assert str(got) == str(ref)
    # canonical runs in slots that hold the tracked bound
    p = got.num
    assert all(ring._low(x, p.w) for _, x in p.runs.values())
    assert max(map(abs, p.terms.values()), default=0) <= p._bound
    assert p.w >= ring._width(p._bound.bit_length())
    assert p.deg == ref.num.deg or not p.runs


# times (1 - x) twice, c (1 - x) doubles its middle coefficient: past 2**31
# and 2**63 that leaves 32- and 64-bit slots, past 2**127 128-bit ones
CHAIN_COEFFS = [2**31 - 1, 2**63 - 1, 2**64 + 1, 2**127 - 1]
CHAIN_KS = [(), (1,), (1, 1), (3, 1, 2), (2, 2, 5), tuple(range(1, 9))]
# (a, q) and (a, b, q) keep their runs in a, so their binomials in q are
# RatFun products
CHAIN_TABLES = RUN_TABLES + [SymbolTable(("a", "b", "q"))]


def _chain_operands(table, coeff):
    x = MultiPoly.symbol(table, table.names[0])
    y = MultiPoly.symbol(table, table.names[-1])
    one = MultiPoly.const(table, 1)
    nums = [coeff * (1 - x),
            # several runs when y is not x
            coeff * (1 - x) + 3 * y * x**2 - coeff * y**2 * (x - x**4),
            -coeff * x**3 * y + (coeff - 1) * x**5 * y]
    dens = [one, 6 * x * y, 1 + coeff * x * y, (1 - x) * (2 + y**3)]
    return [RatFun(n, d) for n in nums for d in dens]


@pytest.mark.parametrize("how", ["as built", "64", "320"])
@pytest.mark.parametrize("coeff", CHAIN_COEFFS)
@pytest.mark.parametrize("table", CHAIN_TABLES, ids=lambda t: "_".join(t.names))
def test_binomial_chain_matches_the_product(table, coeff, how):
    # the operand's own slots are 32, 64 or 128 bits wide as built, then
    # re-packed at 64 and at 320 bits
    for c in _chain_operands(table, coeff):
        c = ring._ratfun(_widened(c.num, how), c.den)
        for ks in CHAIN_KS:
            _assert_chain_matches_product(c, ks)
    assert ring._times_binomials(c, ()) is c
    zero = RatFun.zero(table)
    assert ring._times_binomials(zero, (1, 2)) is zero


@settings(max_examples=150, derandomize=True, deadline=None)
@given(boundary_operands(), st.lists(st.integers(1, 6), max_size=5),
       st.sampled_from(["one", "as drawn", "1 + x*y"]))
def test_binomial_chain_matches_the_product_random(ops, ks, den):
    table, ((d1, p1), (d2, p2)) = ops
    if den == "one" or not d2:
        p2 = MultiPoly.const(table, 1)
    elif den == "1 + x*y":
        p2 = 1 + p2 * MultiPoly.symbol(table, table.names[0])
    _assert_chain_matches_product(RatFun(p1, p2), ks)


def test_binomial_chain_keeps_the_degree_guard():
    # total degree 2**24 - 10 in symbols other than q, whose runs are
    # short where q leads; the slot path over (q, a, b) and the RatFun
    # products over (a, b, q) raise alike
    for table in (TABLE, SymbolTable(("a", "b", "q"))):
        one = MultiPoly.const(table, 1)
        for mono in ({"a": 2**24 - 11, "q": 1}, {"a": 2**24 - 12, "b": 1, "q": 1}):
            big = RatFun(MultiPoly.monomial(table, mono) + 1, one)
            _assert_chain_matches_product(big, (4, 5))
            for ks in ((10,), (4, 6), (1, 2, 3, 4)):
                with pytest.raises(StructureError):
                    ring._times_binomials(big, ks)
                with pytest.raises(StructureError):
                    big * _binomials(table, ks)


def test_no_scan_where_exact_bounds_cannot_narrow_the_slots(monkeypatch):
    # a scan walks every slot of a run, so a sparse run costs its full length
    sparse = MultiPoly.monomial(TABLE, {"q": 1 << 16}) + 1
    sparse = sparse + sparse  # a tracked bound of 4 on coefficients of 2
    scans = []
    scan = ring._scan
    monkeypatch.setattr(ring, "_scan", lambda p: scans.append(p) or scan(p))
    # any nonzero coefficient times 2**40 needs 64-bit slots: no scan
    s = sparse.scaled(2**40)
    assert scans == [] and s.w == 64
    assert s.terms == {k: c << 40 for k, c in sparse.terms.items()}
    # 4 * 2**29 overflows 32-bit slots but the exact 2 * 2**29 does not
    s = sparse.scaled(2**29)
    assert scans == [sparse] and s.w == 32
    assert s.terms == {k: c << 29 for k, c in sparse.terms.items()}
    # a bound already exact is not scanned again
    assert sparse.scaled(2**30).w == 64 and len(scans) == 1
    exact = MultiPoly(TABLE, {0: 3, TABLE.pack((1 << 16, 0, 0)): 2})
    assert exact.scaled(2**30).w == 64 and len(scans) == 1


def test_array_fallback_gives_the_same_runs_and_text(monkeypatch):
    # slots convert through arrays where a C type matches their width, else
    # through int.from_bytes; both paths must agree on every run and byte
    def compute():
        t, (q, a, b) = symbols("q a b")
        values = [(1 - a * q) ** 3 / (1 - b * q**2), (2**31 - 1) * q + 5 * a - b**2,
                  (2**40 + q) ** 2 - a * (2**62 + 7) * q**3, (2**63 + 1) * a * q**2 - 1]
        out = []
        for x in values:
            for y in values:
                for r in (x + y, x * y, x - y * y):
                    out.append(((r.num.w, r.num.runs, r.den.w, r.den.runs), str(r)))
        return out

    fast = compute()
    assert {w for (w, _, _, _), _ in fast} >= {32, 64, 128}
    monkeypatch.setattr(ring, "_TYPECODES", {})
    assert compute() == fast


def test_terms_is_read_only():
    p = MultiPoly(TABLE, {0: 1, TABLE.pack((2, 1, 0)): -4})
    with pytest.raises(TypeError):
        p.terms[0] = 2
    assert p.terms == {0: 1, TABLE.pack((2, 1, 0)): -4}
