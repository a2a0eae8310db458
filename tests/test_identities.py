"""Identity corpus: registry behaviour, frozen low-order coefficients,
specializations relating the checks to one another, and the perturbation
harness that must pinpoint an injected failure."""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from qexpand import identities, ring
from qexpand.errors import OrderError, PoleError, StructureError
from qexpand.identities import (
    IdentitySides,
    _cleared_hyper,
    _euler_ratio_cleared,
    _lower_tails,
    _telescoped_sides,
    _theorem16_sides,
    build_2phi1_to_4phi3,
    build_1psi1_coeff,
    build_coogan_ono,
    build_coro_tlnew,
    build_lemma13,
    build_partial_theta,
    build_rogers_fine,
    build_sides,
    build_theorem16_random,
    check_names,
    check_theorem16,
    compare,
    run_all,
    run_check,
    theorem16_random_t,
)
from qexpand.ring import (
    MultiPoly,
    RatFun,
    _times_binomials,
    expression_symbols,
    parse_ratfun,
    symbols,
)
from qexpand.series import (
    TruncSeries,
    _element,
    _ratio_chain,
    base_element,
    inv_pochhammer_infinite,
    pochhammer_infinite,
    qhyper,
    sum_series,
)
from reference import poch, qpoch, substitute, substitute_series

N = 6

# the checks whose right side _telescoped_sides builds
TELESCOPED = [
    "2phi1_to_4phi3", "coro_tlnew", "theorem16_3phi2", "theorem16_const", "theorem16_random",
]


# -- registry ---------------------------------------------------------------


def test_every_registered_check_passes():
    reports = run_all(N)
    assert [r.name for r in reports] == check_names()
    for r in reports:
        assert r.passed and r.first_failure is None
        assert r.order == N


def test_run_all_filter():
    reports = run_all(N, name_filter="rogers")
    assert [r.name for r in reports] == ["rogers_fine"]
    assert reports[0].passed


def test_run_all_degenerate_order():
    assert all(r.passed for r in run_all(0))


def test_partial_theta_deeper():
    assert run_check("partial_theta", 8).passed


def test_unknown_check_name():
    with pytest.raises(StructureError, match="unknown check"):
        build_sides("nosuch", 4)


# -- frozen low-order coefficients ------------------------------------------


def test_coogan_ono_low_coefficients():
    sides = build_coogan_ono(4)
    q = RatFun.sym(sides.table, "q")
    for coeffs in (sides.unscaled_lhs(), sides.unscaled_rhs()):
        assert coeffs[0] == 1
        assert coeffs[1] == 0
        assert coeffs[2] == -q


def test_lemma13_low_coefficients():
    sides = build_lemma13(4)
    q = RatFun.sym(sides.table, "q")
    for coeffs in (sides.unscaled_lhs(), sides.unscaled_rhs()):
        assert coeffs[0] == 1
        assert coeffs[1] == 0
        assert coeffs[2] == -2 * q


def test_partial_theta_constant_term_is_two():
    sides = build_partial_theta(4)
    assert sides.unscaled_lhs()[0] == 2
    assert sides.unscaled_rhs()[0] == 2


def test_rogers_fine_unscaled_first_coefficient():
    sides = build_rogers_fine(3)
    q = RatFun.sym(sides.table, "q")
    a = RatFun.sym(sides.table, "a")
    b = RatFun.sym(sides.table, "b")
    expected = q * (b - a) / (1 - b * q)
    assert sides.unscaled_lhs()[1] == expected
    assert sides.unscaled_rhs()[1] == expected


# -- specializations between checks -----------------------------------------


def _unscaled_series(sides):
    lhs = TruncSeries(sides.table, sides.order, sides.unscaled_lhs())
    rhs = TruncSeries(sides.table, sides.order, sides.unscaled_rhs())
    return lhs, rhs


def _embed(s, table):
    """The series s over a wider table, by rendering and parsing each coefficient."""
    return TruncSeries(table, s.order, [parse_ratfun(str(c), table) for c in s.coeffs])


def test_rogers_fine_specializes_to_lemma13():
    # a = z, b = -z turns (aq;q)_n/(bq;q)_n into (zq;q)_n/(-zq;q)_n and the
    # front factor completes (z;q)_(n+1); both sides land on lemma13 exactly.
    rf = build_rogers_fine(N)
    z = TruncSeries.z_power(rf.table, 1, N)
    vals = {"a": z, "b": -z}
    lem = build_lemma13(N)
    for ours, target in zip(_unscaled_series(rf), _unscaled_series(lem)):
        got = substitute_series(ours, vals)
        assert got == _embed(target, rf.table)


def test_rogers_fine_specializes_to_coogan_ono():
    # a = z/q, b = -z gives (z;q)_n/(-zq;q)_n; relative to coogan_ono the
    # denominator is missing its (1+z) and the front factor adds (1-z), so
    # both substituted sides equal (1 - z^2) times the coogan_ono sides.
    rf = build_rogers_fine(N)
    q = RatFun.sym(rf.table, "q")
    vals = {
        "a": TruncSeries.z_power(rf.table, 1, N, RatFun.one(rf.table) / q),
        "b": TruncSeries.z_power(rf.table, 1, N, -1),
    }
    co = build_coogan_ono(N)
    factor = TruncSeries.from_coeffs(rf.table, [1, 0, -1], N)
    for ours, target in zip(_unscaled_series(rf), _unscaled_series(co)):
        got = substitute_series(ours, vals)
        assert got == factor * _embed(target, rf.table)


def test_2phi1_collapse_A_equals_C():
    sides = build_2phi1_to_4phi3(5)
    A = RatFun.sym(sides.table, "A")
    one = RatFun.one(sides.table)
    lhs = [substitute(c, {"C": A}, one) for c in sides.unscaled_lhs()]
    rhs = [substitute(c, {"C": A}, one) for c in sides.unscaled_rhs()]
    assert lhs == rhs


def test_coro_tlnew_collapse_A_equals_q():
    sides = build_coro_tlnew(5)
    q = RatFun.sym(sides.table, "q")
    one = RatFun.one(sides.table)
    lhs = [substitute(c, {"A": q}, one) for c in sides.unscaled_lhs()]
    rhs = [substitute(c, {"A": q}, one) for c in sides.unscaled_rhs()]
    assert lhs == rhs


def test_partial_theta_collapses_at_q_zero():
    sides = build_partial_theta(N)
    one, zero = RatFun.one(sides.table), RatFun.zero(sides.table)
    lhs = [substitute(c, {"q": zero}, one) for c in sides.unscaled_lhs()]
    rhs = [substitute(c, {"q": zero}, one) for c in sides.unscaled_rhs()]
    assert lhs == rhs


def test_1psi1_collapses_at_a_equals_b():
    sides = build_1psi1_coeff(5)
    a = RatFun.sym(sides.table, "a")
    rhs = [substitute(c, {"b": a}, RatFun.one(sides.table)) for c in sides.unscaled_rhs()]
    assert rhs == [RatFun.one(sides.table)] * 6


# -- displayed forms, rebuilt naively -----------------------------------------


def test_rogers_fine_terms_match_displayed_form():
    # the incremental assembly must reproduce, term by term,
    #   (1-azq^(2n+1)) (bz)^n q^(n^2) (aq;q)_n (azq/b;q)_n
    #     / ((bq;q)_n (zq;q)_n)
    # built here from scratch out of Pochhammer series and a division
    order = 5
    rf = build_rogers_fine(order)
    q = RatFun.sym(rf.table, "q")
    a = RatFun.sym(rf.table, "a")
    b = RatFun.sym(rf.table, "b")
    paq = RatFun.one(rf.table)  # (aq;q)_n
    pbq = RatFun.one(rf.table)  # (bq;q)_n
    for n in range(order + 1):
        scalar = paq / pbq * b**n * q ** (n * n)
        series = poch(a * q / b, n, order, rf.table) * poch(q, n, order, rf.table).invert()
        naive = series.mul_linear(a * q ** (2 * n + 1)).mul_z(n).scale(scalar)
        assert [rf.unscaled_coeff(c) for c in rf.rhs_terms[n].coeffs] == naive.coeffs, n
        paq = paq * (1 - a * q ** (n + 1))
        pbq = pbq * (1 - b * q ** (n + 1))

    acc = TruncSeries.zero(rf.table, order)
    paq = RatFun.one(rf.table)
    pbq = RatFun.one(rf.table)
    for n in range(order + 1):
        acc = acc + TruncSeries.z_power(rf.table, n, order, paq / pbq)
        paq = paq * (1 - a * q ** (n + 1))
        pbq = pbq * (1 - b * q ** (n + 1))
    naive_lhs = acc.mul_linear(1)
    assert [rf.unscaled_coeff(c) for c in rf.lhs.coeffs] == naive_lhs.coeffs


def test_theorem16_terms_match_displayed_form():
    # the telescoped assembly must reproduce, term by term,
    #   (aq/b;q)_n (az;q)_n/((q;q)_n (bz;q)_n) (bz)^n q^(n(n-1))
    #     (Gt(zq^n; a, b) - azq^(2n) Gt(zq^(n+1); a/q, b/q))
    # with Gt(z; a, b) = sum_k t_k z^k (az;q)_k/(bz;q)_k; the left side is
    # the plain Euler quotient times G
    order = 5
    sides = build_theorem16_random(order, seed=11)
    table = sides.table
    q = RatFun.sym(table, "q")
    a = RatFun.sym(table, "a")
    b = RatFun.sym(table, "b")
    t = [RatFun.from_fraction(table, f) for f in theorem16_random_t(order, 11)]

    def gt(aa, bb):
        return sum_series([
            base_element(k, aa, bb, order, table).scale(t[k])
            for k in range(order + 1)
        ])

    gt1 = gt(a, b)
    gt2 = gt(a / q, b / q)
    paqb = RatFun.one(table)  # (aq/b;q)_n
    pq = RatFun.one(table)  # (q;q)_n
    for n in range(order + 1):
        outer = paqb / pq * b**n * q ** (n * (n - 1))
        bracket = gt1.shift_q(n) \
            - gt2.shift_q(n + 1).mul_z(1).scale(a * q ** (2 * n))
        pref = poch(a, n, order, table) * poch(b, n, order, table).invert()
        naive = (pref * bracket).mul_z(n).scale(outer)
        got = [sides.unscaled_coeff(c) for c in sides.rhs_terms[n].coeffs]
        assert got == naive.coeffs, n
        paqb = paqb * (1 - (a * q / b) * q**n)
        pq = pq * (1 - q ** (n + 1))

    plain = TruncSeries.from_coeffs(table, t, order)
    euler = pochhammer_infinite(a, order, table) \
        * inv_pochhammer_infinite(b, order, table)
    naive_lhs = euler * plain
    assert [sides.unscaled_coeff(c) for c in sides.lhs.coeffs] == naive_lhs.coeffs


def _per_piece_sides(name, lhs, inner, a, b, order, scale, divide=False):
    """_telescoped_sides with the whole prefactor of term n folded into
    every piece before the pieces are summed: the reference assembly."""
    table = a.table
    q = RatFun.sym(table, "q")
    cof = [qpoch(q * q**n, order - n, table) for n in range(order + 1)]  # (q;q)_N/(q;q)_n
    ratios = _ratio_chain(a, b, order, table)
    rhs_terms = []
    paqb = RatFun.one(table)
    for n in range(order + 1):
        outer = paqb * cof[n] * q ** (n * (n - 1))
        term = TruncSeries.zero(table, order)
        for k in range(order - n + 1):
            if inner[k].is_zero():
                continue
            sc = inner[k] * q ** (n * k) * outer
            m = n + k
            piece = ratios[m].mul_linear(a * q ** (2 * n + k))
            term = term + _element(piece.scale(sc), m, order)
        rhs_terms.append(term.div_linear(a) if divide else term)
        if n < order:
            paqb = paqb * (b - a * q ** (n + 1))
    return IdentitySides(name, [], lhs, rhs_terms, scale)


def test_telescoped_coefficients_have_one_term_denominators():
    # the prefactor of each telescoped term is multiplied in after its
    # pieces are summed, and a perturbed compare adds q * term_j to the
    # summed right side instead of re-summing; that leaves every output
    # byte alone only because these denominators are one term each, where
    # normalization is a full gcd reduction and a value has one
    # representation.  The same holds for rogers_fine's sides and
    # summed right side, which _divided_sides divides out as it does two
    # of the telescoped checks'
    for name in [*TELESCOPED, "rogers_fine"]:
        sides = build_sides(name, 6, 5)
        for series in [sides.lhs, sides.rhs(), *sides.rhs_terms]:
            for m, c in enumerate(series.coeffs):
                assert len(c.den.terms) == 1, (name, m, str(c))
    for name in check_names():
        sides = build_sides(name, 8, 5)
        for series in [*sides.rhs_terms, sides.rhs()]:
            for m, c in enumerate(series.coeffs):
                assert len(c.den.terms) == 1, (name, m, str(c))


# the checks built at a point where every coefficient is a polynomial and
# divided back by _divided_sides
DIVIDED = ["2phi1_to_4phi3", "rogers_fine", "theorem16_random"]


@pytest.mark.parametrize("order", [6, 8])
@pytest.mark.parametrize("name", DIVIDED)
def test_divided_sides_receive_polynomial_coefficients(monkeypatch, name, order):
    # the byte argument of _divided_sides: every coefficient it divides,
    # of the left side, the right side's sum and every term, has
    # denominator 1, so no operation of the build normalized a fraction
    seen = []
    divide = identities._divided_sides

    def checking(sides, d, u):
        # rhs() before rhs_terms, so the sum checked is the builder's own
        for series in [sides.lhs, sides.rhs(), *sides.rhs_terms]:
            for m, c in enumerate(series.coeffs):
                assert c.den == 1, (name, m, str(c))
        seen.append((sides.name, d, str(u)))
        return divide(sides, d, u)

    monkeypatch.setattr(identities, "_divided_sides", checking)
    for seed in (0, 5, 11):
        assert compare(build_sides(name, order, seed)).passed
    divisor = {
        "2phi1_to_4phi3": lambda seed: (1, "C"),
        "rogers_fine": lambda seed: (1, "b"),
        "theorem16_random": lambda seed: (
            math.lcm(*(f.denominator for f in theorem16_random_t(order, seed))), "1"),
    }[name]
    assert seen == [(name, *divisor(seed)) for seed in (0, 5, 11)]


def _ref_cleared_hyper(uppers, lowers, carg, order):
    """_cleared_hyper's coefficients from whole products: prod_U (u;q)_k
    c^k (q;q)_N/(q;q)_k prod_L (L;q)_N/(L;q)_k, each upper a parameter."""
    table = carg.table
    q = RatFun.sym(table, "q")
    coeffs = []
    for k in range(order + 1):
        c = carg**k * qpoch(q * q**k, order - k, table)
        for u in uppers:
            c = c * qpoch(u, k, table)
        for l in lowers:
            c = c * qpoch(l * q**k, order - k, table)
        coeffs.append(c)
    return coeffs


def _ref_2phi1_to_4phi3(order):
    """build_2phi1_to_4phi3 on the route at argument z: a = AB/C, b = 1,
    the 2phi1 at argument 1 and the inner coefficients, with uppers C/A
    and C/B, at argument a."""
    table, (q, A, B, C) = symbols("q A B C")
    a = A * B / C
    qq = qpoch(q, order, table)
    one = RatFun.one(table)
    lhs_coeffs = _ref_cleared_hyper([A, B], [C], one, order)
    lhs = TruncSeries(table, order, [c * qq for c in lhs_coeffs])
    inner = _ref_cleared_hyper([C / A, C / B], [C], a, order)
    return _telescoped_sides("2phi1_to_4phi3", lhs, inner, a, one, order, qq * inner[0])


def _ref_rogers_fine(order):
    """build_rogers_fine on the route at argument z: the ratios
    (azq/b;q)_n/(zq;q)_n and eager terms, summed by rhs()."""
    table, (q, a, b) = symbols("q a b")
    cof = [qpoch(b * q * q**n, order - n, table) for n in range(order + 1)]  # (bq;q)_N/(bq;q)_n
    lhs_coeffs, rhs_terms = [], []
    pa = RatFun.one(table)
    for n, ratio in enumerate(_ratio_chain(a * q / b, q, order, table)):
        lhs_coeffs.append(pa * cof[n])
        scalar = lhs_coeffs[n] * b**n * q ** (n * n)
        piece = ratio.mul_linear(a * q ** (2 * n + 1))
        rhs_terms.append(_element(piece, n, order).scale(scalar))
        pa = pa * (1 - a * q ** (n + 1))
    lhs = TruncSeries(table, order, lhs_coeffs).mul_linear(1)
    return IdentitySides("rogers_fine", [], lhs, rhs_terms, cof[0])


def test_binomial_uppers_normalize_no_fraction(monkeypatch):
    # the uppers C/A and C/B go in as the binomials A - Cq^j and B - Cq^j,
    # whose product is F - ECq^j + C^2 q^(2j) over (q, E, F, C); as
    # fractions they made 16 normalizations, and the order-8 build and
    # compare of every check, terms unread, made 120 with them.  The same
    # pass makes 4259 MultiPoly products: by MultiPoly.__mul__, and the
    # pairs that _dot sums in its run accumulator
    calls, products = [], []
    init, mul, fused = RatFun.__init__, MultiPoly.__mul__, ring._sum_products

    def counting(self, num, den):
        calls.append(self)
        init(self, num, den)

    def counting_mul(self, other):
        products.append(self)
        return mul(self, other)

    def counting_fused(acc, pairs):
        products.extend(p for p, _ in pairs)
        return fused(acc, pairs)

    monkeypatch.setattr(RatFun, "__init__", counting)
    table, (q, E, F, C) = symbols("q E F C")
    inner = _cleared_hyper(lambda j: F - E * C * q**j + C**2 * q ** (2 * j),
                           RatFun.one(table), 8, _lower_tails([C], table, 8))
    assert calls == [] and all(c.den == 1 for c in inner)
    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    monkeypatch.setattr(ring, "_sum_products", counting_fused)
    for name in check_names():
        assert compare(build_sides(name, 8, 0)).passed
    assert len(calls) <= 104
    assert len(products) <= 4259


def _ref_theorem16_random(order, seed):
    """build_theorem16_random on the route with the Fraction t itself."""
    table, (q, a, b) = symbols("q a b")
    t = [RatFun.from_fraction(table, f) for f in theorem16_random_t(order, seed)]
    return _theorem16_sides("theorem16_random", t, a, b, order)


def _sides_text(sides):
    # rhs() first, so the sum compared is the builder's and not a re-sum
    return {
        "lhs": [str(c) for c in sides.lhs.coeffs],
        "rhs": [str(c) for c in sides.rhs().coeffs],
        "scale": str(sides.scale),
        "terms": [[str(c) for c in t.coeffs] for t in sides.rhs_terms],
        "reports": [compare(sides, perturb=j).to_json_dict()
                    for j in [None, *range(len(sides.rhs_terms))]],
    }


@pytest.mark.parametrize("order", [7, 8])
@pytest.mark.parametrize("name", DIVIDED)
def test_divided_checks_render_as_the_route_at_z(name, order):
    # past the goldens' orders: building at uz and dividing coefficient m
    # by d u^m changes no byte of either side, any term or any report
    reference, seeds = {
        "2phi1_to_4phi3": (lambda order, seed: _ref_2phi1_to_4phi3(order), [0]),
        "rogers_fine": (lambda order, seed: _ref_rogers_fine(order), [0]),
        "theorem16_random": (_ref_theorem16_random, [0, 5, 11]),
    }[name]
    for seed in seeds:
        want = _sides_text(reference(order, seed))
        got = _sides_text(build_sides(name, order, seed))
        assert got == want, (name, order, seed)


def test_non_monomial_parameters_match_the_per_piece_assembly(monkeypatch):
    # with a = q/(1+q) the denominators are not one term, so the grouping
    # may change the unreduced text, but never a value or a verdict
    table, (q, b, c) = symbols("q b c")
    a = q / (1 + q)
    t = [RatFun.from_fraction(table, f) for f in
         (Fraction(1), Fraction(1, 2), Fraction(-2), Fraction(0), Fraction(3, 7))]
    assert check_theorem16(t, 4, a=a, b=b).passed
    half = RatFun.from_fraction(table, Fraction(1, 2))

    def build_both():
        return [
            _theorem16_sides("theorem16", t, a, b, 4),
            build_coro_tlnew(4, uppers=[c], carg=half, a=a, b=b),
        ]

    new = build_both()
    monkeypatch.setattr(identities, "_telescoped_sides", _per_piece_sides)
    old = build_both()
    assert any(len(x.den.terms) > 1 for x in new[0].rhs_terms[1].coeffs)
    for ours, ref in zip(new, old):
        assert compare(ours).passed
        assert len(ours.rhs_terms) == len(ref.rhs_terms)
        for term, ref_term in zip(ours.rhs_terms, ref.rhs_terms):
            assert term.coeffs == ref_term.coeffs


def test_a_table_not_led_by_q_renders_as_the_per_piece_assembly(monkeypatch):
    # over (a, b, q) the runs are in a, so the (q;q) clearing multiplies
    # its RatFun binomials 1 - q^k; with one-term denominators that renders
    # as the per-piece assembly's whole products do
    table, (a, b, q) = symbols("a b q")
    t = [RatFun.from_fraction(table, f) for f in theorem16_random_t(5, 3)]
    half = RatFun.from_fraction(table, Fraction(1, 2))
    assert check_theorem16(t, 5, a=a, b=b).passed

    def build_both():
        return [
            _theorem16_sides("theorem16", t, a, b, 5),
            build_coro_tlnew(5, uppers=[q * b], carg=half, a=a, b=b),
        ]

    calls = []

    def chain(c, ks):
        calls.append(ks)
        return _times_binomials(c, ks)

    monkeypatch.setattr(identities, "_times_binomials", chain)
    new = build_both()
    assert any(calls)
    monkeypatch.setattr(identities, "_telescoped_sides", _per_piece_sides)
    old = build_both()
    for ours, ref in zip(new, old):
        assert compare(ours).passed
        assert [[str(c) for c in s.coeffs] for s in ours.rhs_terms] == \
            [[str(c) for c in s.coeffs] for s in ref.rhs_terms]
        assert [str(c) for c in ours.rhs().coeffs] == [str(c) for c in ref.rhs().coeffs]


# -- parametrized instances ---------------------------------------------------


def test_theorem16_arbitrary_coefficients():
    assert check_theorem16([1, Fraction(1, 2), -2, 0, Fraction(3, 7)], N).passed
    with pytest.raises(StructureError, match="bad coefficient"):
        check_theorem16(["nope"], 3)


def test_theorem16_needs_both_or_neither_of_a_b():
    table, (q, a, b, c) = symbols("q a b c")
    assert check_theorem16([1, 2], 3, a=c * q, b=b).passed
    with pytest.raises(StructureError, match="both a and b"):
        check_theorem16([1, 2], 3, a=c * q)
    with pytest.raises(StructureError, match="both a and b"):
        check_theorem16([1, 2], 3, b=c * q)
    with pytest.raises(StructureError, match="a or b must be a RatFun"):
        check_theorem16([1, 2], 3, a=2, b=Fraction(1, 2))


UNIVERSAL_N = 10


def test_theorem16_holds_for_every_g_at_order_10():
    # both sides are linear in t, so passing for the N + 1 unit vectors
    # e_0..e_N proves the transformation for every G at order N, with a
    # and b symbolic
    for k in range(UNIVERSAL_N + 1):
        assert check_theorem16([0] * k + [1], UNIVERSAL_N).passed, k


def test_corollary_holds_for_every_g_at_order_10():
    # (azq;q)_inf/(bz;q)_inf G(z) against the telescoped sum divided by
    # (1 - az), the form coro_tlnew instantiates: both sides are linear in
    # G's coefficients, so the N + 1 unit vectors prove it for every G at
    # order N
    table, (q, a, b) = symbols("q a b")
    euler = _euler_ratio_cleared(a * q, b, UNIVERSAL_N)
    for k in range(UNIVERSAL_N + 1):
        e = [RatFun.from_int(table, int(j == k)) for j in range(UNIVERSAL_N + 1)]
        lhs = euler * TruncSeries(table, UNIVERSAL_N, e)
        sides = _telescoped_sides("corollary", lhs, e, a, b, UNIVERSAL_N, euler.coeffs[0],
                                  divide=True)
        assert compare(sides).passed, k


def test_theorem16_random_is_seed_deterministic():
    assert theorem16_random_t(8, 7) == theorem16_random_t(8, 7)
    assert theorem16_random_t(8, 7) != theorem16_random_t(8, 8)
    r1 = run_check("theorem16_random", 5, seed=3)
    r2 = run_check("theorem16_random", 5, seed=3)
    assert r1 == r2
    assert r1.passed


def test_coro_tlnew_general_shape():
    table, (q, a, b) = symbols("q a b")
    half = RatFun.from_fraction(table, Fraction(1, 2))
    third = RatFun.from_fraction(table, Fraction(1, 3))
    report = compare(build_coro_tlnew(
        5, uppers=[q, half], lowers=[third], carg=half, a=a, b=b
    ))
    assert report.passed
    with pytest.raises(StructureError, match="^need one lower fewer than uppers, "
                                             "got 1 uppers and 1 lowers$"):
        build_coro_tlnew(4, uppers=[q], lowers=[third], carg=half, a=a, b=b)


# (a, b, carg), a string naming a symbol; each id names the plain scalar
@pytest.mark.parametrize("a, b, carg", [
    ("a", 1, "c"), ("a", 0, "c"), ("a", Fraction(1, 2), "c"),
    (2, "b", "c"), (Fraction(1, 3), "b", "c"), ("a", "b", 5), ("a", "b", Fraction(-2, 3)),
], ids=["1", "0", "b2", "a3", "a4", "carg5", "carg6"])
def test_plain_scalar_parameters_build_their_binomials(a, b, carg):
    # a and b enter the Euler quotient's binomials b - aq^m, the uppers 2
    # and the lower 3 theirs and carg the argument, as plain ints and
    # Fractions, as they enter RatFun arithmetic; the table comes from
    # whichever of a and b is a RatFun
    table, (q, *syms) = symbols("q a b c")
    named = dict(zip("abc", syms))
    a, b, carg = (named.get(x, x) for x in (a, b, carg))
    assert check_theorem16([1, q, q**2], 5, a=a, b=b).passed
    sides = build_coro_tlnew(4, uppers=[2, q], lowers=[3], carg=carg, a=a, b=b)
    assert compare(sides).passed


@pytest.mark.parametrize("lower, term", [("1", 1), ("1/q^2", 3)])
def test_coro_tlnew_lower_that_zeroes_its_pochhammer_raises(lower, term):
    # 1 - Lq^j = 0 for j < N leaves term j+1 undefined, as qhyper says,
    # and would make the scale 0
    table, (q, a, b, A, B, c) = symbols("q a b A B c")
    low = parse_ratfun(lower, table)
    message = f"lower parameter 0 makes term {term} undefined"
    with pytest.raises(PoleError, match=message):
        build_coro_tlnew(4, uppers=[A, B], lowers=[low], carg=c, a=a, b=b)
    with pytest.raises(PoleError, match=message):
        qhyper([A, B], [low], c, 4, table)


def test_coro_tlnew_rejects_missing_or_unused_arguments():
    table, (q, a, b) = symbols("q a b")
    with pytest.raises(StructureError, match="need carg, a and b"):
        build_coro_tlnew(3, uppers=[q])
    with pytest.raises(StructureError, match="need carg, a and b"):
        build_coro_tlnew(3, uppers=[q], a=a, b=b)
    with pytest.raises(StructureError, match="need carg, a and b"):
        build_coro_tlnew(3, uppers=[q], carg=q, a=a)
    with pytest.raises(StructureError, match="need custom uppers"):
        build_coro_tlnew(3, a=a, b=b)
    with pytest.raises(StructureError, match="a or b must be a RatFun"):
        build_coro_tlnew(3, uppers=[q], carg=q, a=2, b=1)


# -- perturbation harness -----------------------------------------------------


def _last_visible_term(sides):
    for j in range(len(sides.rhs_terms) - 1, -1, -1):
        if not sides.rhs_terms[j].is_zero():
            return j
    raise AssertionError("no nonzero RHS term")


def _first_nonzero_index(term):
    return next(m for m, c in enumerate(term.coeffs) if not c.is_zero())


@pytest.mark.parametrize("name", check_names())
def test_perturbation_flips_each_check(name):
    # scaling term j by (1+q) shifts the RHS by q * term_j, so the report
    # must fail exactly at that term's lowest nonzero coefficient
    order = 5
    sides = build_sides(name, order)
    j = _last_visible_term(sides)
    expected = _first_nonzero_index(sides.rhs_terms[j])
    report = run_check(name, order, perturb=j)
    assert not report.passed
    assert report.first_failure.index == expected


def test_perturbation_sweep_coogan_ono():
    sides = build_coogan_ono(N)
    assert len(sides.rhs_terms) == N // 2 + 1
    for j in range(len(sides.rhs_terms)):
        report = run_check("coogan_ono", N, perturb=j)
        assert not report.passed
        assert report.first_failure.index == 2 * j


def test_failure_values_are_reported_unscaled():
    sides = build_rogers_fine(4)
    assert not sides.scale.is_one()
    j = _last_visible_term(sides)
    idx = _first_nonzero_index(sides.rhs_terms[j])
    fail = run_check("rogers_fine", 4, perturb=j).first_failure
    assert fail.index == idx
    lhs_val = parse_ratfun(fail.lhs, sides.table)
    rhs_val = parse_ratfun(fail.rhs, sides.table)
    q = RatFun.sym(sides.table, "q")
    assert lhs_val == sides.unscaled_coeff(sides.lhs.coeffs[idx])
    assert rhs_val - lhs_val == q * sides.unscaled_coeff(sides.rhs_terms[j].coeffs[idx])


def test_perturb_index_out_of_range():
    with pytest.raises(OrderError):
        run_check("coogan_ono", 3, perturb=99)
    with pytest.raises(OrderError):
        run_check("coogan_ono", 3, perturb=-1)


def _eager_report(sides, j):
    """compare(sides, perturb=j) done the long way: scale, re-sum every
    term, scan, and render the failure at once."""
    q = RatFun.sym(sides.table, "q")
    terms = list(sides.rhs_terms)
    terms[j] = terms[j].scale(1 + q)
    rhs = sum_series(terms)
    failure = None
    for m in range(sides.order + 1):
        if not sides.lhs.coeffs[m] == rhs.coeffs[m]:
            failure = {
                "index": m,
                "lhs": str(sides.unscaled_coeff(sides.lhs.coeffs[m])),
                "rhs": str(sides.unscaled_coeff(rhs.coeffs[m])),
            }
            break
    return {
        "name": sides.name,
        "parameters": [[s, v] for s, v in sides.parameters],
        "order": sides.order,
        "passed": failure is None,
        "first_failure": failure,
    }


def _synthetic_sides(count):
    """`count` terms with unreduced denominators, so regrouping any sum
    changes its text; term i starts at z^(i % 3)."""
    table, (q, a) = symbols("q a")
    order = 3
    terms = [
        TruncSeries(table, order, [
            (i + 1) * a**m / (1 - a * q ** (i + m + 1)) for m in range(order + 1)
        ]).mul_z(i % 3)
        for i in range(count)
    ]
    scale = RatFun.one(table) if count % 2 else 1 - a * q
    lhs = sum_series(terms)
    return IdentitySides(f"synthetic{count}", [], lhs, terms, scale)


@pytest.mark.parametrize(
    "sides",
    [build_sides(name, 5) for name in check_names()]
    + [_synthetic_sides(n) for n in range(1, 10)],
    ids=lambda sides: sides.name,
)
def test_perturbed_compare_matches_a_full_resum(sides):
    # every j, terms invisible at this order included.  A registered check
    # must give the bytes of scaling term j and re-summing all terms; the
    # synthetic sides' multi-term denominators leave the sum's text
    # unreduced, so there only the index and the values must agree
    exact = sides.name in check_names()
    for j in range(len(sides.rhs_terms)):
        got = compare(sides, perturb=j).to_json_dict()
        want = _eager_report(sides, j)
        if exact:
            assert got == want, j
            continue
        fail, want_fail = got.pop("first_failure"), want.pop("first_failure")
        assert got == want, j
        assert fail["index"] == want_fail["index"], j
        for side in ("lhs", "rhs"):
            assert (parse_ratfun(fail[side], sides.table)
                    == parse_ratfun(want_fail[side], sides.table)), (j, side)


def _reassigned_rhs_terms_rebuild_the_kept_sums(name):
    sides = build_sides(name, 4)
    assert compare(sides).passed
    q = RatFun.sym(sides.table, "q")
    sides.rhs_terms = [sides.rhs_terms[0].scale(1 + q)] + sides.rhs_terms[1:]
    report = compare(sides)
    assert not report.passed
    assert report.first_failure.index == _first_nonzero_index(sides.rhs_terms[0])


def _in_place_edits_of_rhs_terms_rebuild_the_sum(name):
    sides = build_sides(name, 4)
    assert compare(sides).passed
    q = RatFun.sym(sides.table, "q")
    first = sides.rhs_terms[0]
    sides.rhs_terms[0] = first.scale(1 + q)
    report = compare(sides)
    assert not report.passed
    assert report.first_failure.index == _first_nonzero_index(first)
    sides.rhs_terms[0] = first
    assert compare(sides).passed
    sides.rhs_terms.append(first)
    assert compare(sides).first_failure.index == _first_nonzero_index(first)
    sides.rhs_terms.pop()
    assert compare(sides).passed


def test_reassigned_rhs_terms_rebuild_the_kept_sums():
    _reassigned_rhs_terms_rebuild_the_kept_sums("rogers_fine")


def test_in_place_edits_of_rhs_terms_rebuild_the_sum():
    _in_place_edits_of_rhs_terms_rebuild_the_sum("rogers_fine")


# the same for a check whose builder gives the sum and builds terms lazily


def test_reassigned_lazy_rhs_terms_rebuild_the_kept_sums():
    _reassigned_rhs_terms_rebuild_the_kept_sums("theorem16_const")


def test_in_place_edits_of_lazy_rhs_terms_rebuild_the_sum():
    _in_place_edits_of_rhs_terms_rebuild_the_sum("theorem16_const")


# the same for the check built over (q, E, F, C) and read over (q, A, B, C)


def test_reassigned_symmetric_rhs_terms_rebuild_the_kept_sums():
    _reassigned_rhs_terms_rebuild_the_kept_sums("2phi1_to_4phi3")
    # a compare of edited terms is the one over (q, A, B, C), text and all
    sides = build_sides("2phi1_to_4phi3", 4)
    q = RatFun.sym(sides.table, "q")
    sides.rhs_terms = [sides.rhs_terms[0].scale(1 + q)] + sides.rhs_terms[1:]
    assert compare(sides).to_json_dict() == _eager_report(build_sides("2phi1_to_4phi3", 4), 0)


def test_in_place_edits_of_symmetric_rhs_terms_rebuild_the_sum():
    _in_place_edits_of_rhs_terms_rebuild_the_sum("2phi1_to_4phi3")


def test_symmetric_sides_map_only_what_is_read(monkeypatch):
    # a passing compare, and a failing one whose index alone is read, map
    # nothing back from (q, E, F, C)
    calls = []
    mapping = ring._poly_from_symmetric

    def counting(p, table):
        calls.append(p)
        return mapping(p, table)

    monkeypatch.setattr(ring, "_poly_from_symmetric", counting)
    sides = build_sides("2phi1_to_4phi3", 8)
    assert compare(sides).passed
    assert calls == []
    report = compare(sides, perturb=3)
    index = report.first_failure.index
    assert calls == []
    assert index == _first_nonzero_index(sides.rhs_terms[3])
    del calls[:]
    # the text maps each of the two values once, with the scale it is
    # divided by, num and den each
    report.first_failure.to_json_dict()
    report.first_failure.to_json_dict()
    assert len(calls) == 8


def test_symmetric_sides_are_read_over_the_roots():
    roots = ("q", "A", "B", "C")
    sides = build_sides("2phi1_to_4phi3", 5)
    assert sides.table.names == roots
    series = [sides.lhs, sides.rhs(), *sides.rhs_terms]
    assert all(s.table.names == roots for s in series)
    values = [sides.scale, *sides.unscaled_lhs(), *sides.unscaled_rhs()]
    values += [c for s in series for c in s.coeffs]
    assert all(v.table.names == roots for v in values)
    fail = compare(sides, perturb=2).first_failure
    for text in (fail.lhs, fail.rhs):
        assert set(expression_symbols(text)) <= set(roots)


def _lazy_terms_are_built_once_and_only_when_read(monkeypatch, name, builder, at_build, builds):
    # `builder` is the module function that the build calls `at_build`
    # times and the first read of rhs_terms `builds` times more
    calls = []
    build = getattr(identities, builder)

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(identities, builder, counting)
    sides = build_sides(name, 5)
    assert len(calls) == at_build
    assert compare(sides).passed  # the builder's sum, and no term
    assert len(calls) == at_build
    first = sides.rhs_terms
    assert len(calls) == at_build + builds and len(first) == 6
    again = sides.rhs_terms
    assert len(calls) == at_build + builds and again is first
    assert all(x is y for x, y in zip(first, again))

    def no_sum(*args, **kwargs):
        raise AssertionError("the right side was re-summed")

    # the kept sum now stands for the built terms: perturbing re-sums nothing
    monkeypatch.setattr(identities, "sum_series", no_sum)
    j = _last_visible_term(sides)
    report = compare(sides, perturb=j)
    assert report.first_failure.index == _first_nonzero_index(sides.rhs_terms[j])
    assert len(calls) == at_build + builds


def test_telescoped_terms_are_built_once_and_only_when_read(monkeypatch):
    _lazy_terms_are_built_once_and_only_when_read(
        monkeypatch, "theorem16_const", "_prefactored_terms", 0, 1)


@pytest.mark.parametrize("name", ["rogers_fine", "2phi1_to_4phi3"])
def test_divided_terms_are_built_once_and_only_when_read(monkeypatch, name):
    # the build divides the left side and the sum; each of the six terms
    # is divided once, on the first read of rhs_terms
    _lazy_terms_are_built_once_and_only_when_read(monkeypatch, name, "_divided", 2, 6)


@pytest.mark.parametrize("order", [5, 6, 7, 8])
@pytest.mark.parametrize("name", TELESCOPED)
def test_horner_sum_equals_the_balanced_sum_of_the_terms(name, order):
    # the builder's sum regroups sum_n P_n X_n; with one-term denominators
    # that changes neither a value nor a byte of its text
    sides = build_sides(name, order, 5)
    horner = sides.rhs()
    balanced = sum_series(sides.rhs_terms)
    assert sides.rhs() is horner
    assert horner.coeffs == balanced.coeffs
    assert [str(c) for c in horner.coeffs] == [str(c) for c in balanced.coeffs]


def test_failure_text_is_rendered_once_on_first_read(monkeypatch):
    sides = build_sides("rogers_fine", 4)
    assert not sides.scale.is_one()
    j = _last_visible_term(sides)
    want = _eager_report(sides, j)["first_failure"]
    rendered, divided = [], []
    render_poly, truediv = ring.render_poly, RatFun.__truediv__

    def counting_render(p):
        rendered.append(p)
        return render_poly(p)

    def counting_truediv(x, y):
        divided.append(y)
        return truediv(x, y)

    monkeypatch.setattr(ring, "render_poly", counting_render)
    monkeypatch.setattr(RatFun, "__truediv__", counting_truediv)
    fail = compare(sides, perturb=j).first_failure
    assert rendered == [] and divided == []
    lhs = sides.unscaled_coeff(sides.lhs.coeffs[fail.index])
    del divided[:]
    assert fail.lhs == fail.lhs == want["lhs"]
    assert rendered == [lhs.num, lhs.den] and len(divided) == 1
    assert fail.to_json_dict() == want
    assert len(rendered) == 4 and len(divided) == 2  # rhs added once


# -- report serialization -----------------------------------------------------


# sha256 of the sorted-key JSON of every report below.  Failure values are
# RatFuns that are not gcd-reduced.  Where a denominator has more than one
# term, the text depends on the factors that built the coefficient, so a
# builder rewritten with other arithmetic could change the CLI's JSON
# while every verdict still holds.  Where every denominator is one term,
# as in the telescoped checks (see the one-term test above), normalization
# is a full reduction and the text depends on the value alone.
GOLDEN_REPORTS_SHA256 = (
    "4d0ba8160b7dbc5fd711a1d047f8b69c0fdb37917101db8344047eaca43740c5"
)


def test_reports_are_byte_stable():
    reports = []
    for name in check_names():
        sides = build_sides(name, 4, 5)
        for j in [None, *range(len(sides.rhs_terms))]:
            reports.append(compare(sides, perturb=j).to_json_dict())
    assert len(reports) == 62
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_REPORTS_SHA256


# sha256 of the text of every right-side term coefficient and the JSON of
# every perturbed report of the telescoped checks at orders 5 and 6, taken
# from the per-piece assembly (_per_piece_sides), so it pins that
# multiplying the prefactor in after the sum changed no byte.  Order 4
# above is too low to reach the larger regroupings.
GOLDEN_TELESCOPED_SHA256 = (
    "9ad20500369b3ba55fb606c0612cf24ec236e96cac4a54c1eb51c92481771db0"
)


# sha256 of the sorted-key JSON of every perturbed report of every check at
# order 8 (seed 0), where the regroupings and the chains are longest
GOLDEN_PERTURBED_8_SHA256 = (
    "07dd35e6a3b4e6b5e7e432828af915aba372c0c72b50420a7e13bf78830f4324"
)


def test_order_8_perturbed_reports_are_byte_stable():
    reports = []
    for name in check_names():
        sides = build_sides(name, 8, 0)
        reports += [compare(sides, perturb=j).to_json_dict() for j in range(len(sides.rhs_terms))]
    assert len(reports) == 91
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_PERTURBED_8_SHA256


def test_telescoped_terms_and_reports_are_byte_stable():
    blob = []
    for order in (5, 6):
        for name in TELESCOPED:
            sides = build_sides(name, order, 5)
            blob.append({
                "name": name,
                "order": order,
                "terms": [[str(c) for c in t.coeffs] for t in sides.rhs_terms],
                "reports": [
                    compare(sides, perturb=j).to_json_dict()
                    for j in range(len(sides.rhs_terms))
                ],
            })
    assert sum(len(b["reports"]) for b in blob) == 65
    digest = hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_TELESCOPED_SHA256



def test_report_json_shapes():
    ok = run_check("floor_sum", 3)
    assert ok.parameters == [("a", "1"), ("b", "-q")]
    assert ok.to_json_dict() == {
        "name": "floor_sum",
        "parameters": [["a", "1"], ["b", "-q"]],
        "order": 3,
        "passed": True,
        "first_failure": None,
    }
    bad = run_check("lemma13", 4, perturb=1).to_json_dict()
    assert bad["passed"] is False
    assert set(bad["first_failure"]) == {"index", "lhs", "rhs"}
    assert bad["first_failure"]["index"] == 2
