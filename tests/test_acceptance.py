"""Acceptance gate: the ten headline guarantees of the package, one test
per criterion at its stated size, tolerance, and time budget.

Each test prints a single summary line (visible with -s); the pytest
verdict per test is the pass/fail line for the criterion.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from qexpand.identities import build_sides, check_names, compare, run_check
from qexpand.inversion import (
    b_column1,
    base_matrix,
    expand_theorem15,
    expand_triangular,
    gn_polynomials,
    lt_inverse,
    matrix_entry_thm25,
    matrix_thm25,
    sn_polynomial,
)
from qexpand.numeric import (
    DEFAULT_POINTS,
    default_numeric_reports,
    numeric_check_names,
)
from qexpand.ring import RatFun, SymbolTable
from qexpand.series import TruncSeries, pochhammer_finite, qpoch_param, qpow


def _symbolic(names=("q", "a", "b")):
    table = SymbolTable(names)
    return (table,) + tuple(RatFun.sym(table, nm) for nm in names)


def _random_series(table, order, rng):
    return TruncSeries(table, order, [
        RatFun.from_fraction(table, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(order + 1)
    ])


def test_criterion_01_inverse_pair_n12_within_60s():
    table, q, a, b = _symbolic()
    t0 = time.perf_counter()
    m = base_matrix(a, b, 12)
    inv = lt_inverse(m)
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"criterion 1: PASS - A.B = B.A = I at n = 12 in {elapsed:.2f}s (limit 60s)")


def test_criterion_02_closed_formula_matches_triangular_solve_n10():
    table, q, a, b = _symbolic()
    rng = random.Random(20260814)
    for i in range(25):
        f = _random_series(table, 10, rng)
        assert expand_triangular(f, a, b).coeffs == expand_theorem15(f, a, b).coeffs, i
    inv = lt_inverse(base_matrix(a, b, 10))
    assert matrix_thm25(a, b, 10) == inv
    for k in range(11):
        assert matrix_entry_thm25(10, k, a, b) == inv.entry(10, k), k
    print("criterion 2: PASS - closed formula == triangular solve on 25 random "
          "series and every inverse entry at n = 10")


def test_criterion_03_coogan_ono_coefficients_all_one_to_20():
    # the theta series (1+z) sum (-1)^n z^(2n) q^(n^2) over the base at
    # a = 1, b = -q has every expansion coefficient equal to 1
    table = SymbolTable(("q",))
    q = RatFun.sym(table, "q")
    one = RatFun.one(table)
    order = 20
    coeffs = [RatFun.zero(table)] * (order + 1)
    n = 0
    while 2 * n <= order:
        s = qpow(table, n * n) if n % 2 == 0 else -qpow(table, n * n)
        coeffs[2 * n] = coeffs[2 * n] + s
        if 2 * n + 1 <= order:
            coeffs[2 * n + 1] = coeffs[2 * n + 1] + s
        n += 1
    f = TruncSeries(table, order, coeffs)
    r1 = expand_triangular(f, one, -q)
    r2 = expand_theorem15(f, one, -q)
    assert all(c == 1 for c in r1.coeffs)
    assert r1.coeffs == r2.coeffs
    print("criterion 3: PASS - theta-series expansion at (a, b) = (1, -q) is "
          "all ones for n <= 20, both routes")


def test_criterion_04_inverse_entry_recurrences_n10_k6():
    table, q, a, b = _symbolic()
    inv = lt_inverse(base_matrix(a, b, 10))

    # row sum:  B_(n,k+1) + (b-a) sum_(i=k+2..n) b^(i-k-2) B_(n,i)
    #           = q^(n-k-1) B_(n-1,k)
    for n in range(1, 11):
        for k in range(min(n, 7)):
            acc = inv.entry(n, k + 1)
            for i in range(k + 2, n + 1):
                acc = acc + (b - a) * b ** (i - k - 2) * inv.entry(n, i)
            assert acc == q ** (n - k - 1) * inv.entry(n - 1, k), (n, k)

    # three-term:  B_(n,k) - a B_(n,k+1)
    #              = q^(n-k) B_(n-1,k-1) - b q^(n-k-1) B_(n-1,k)
    for n in range(1, 11):
        for k in range(1, min(n, 6) + 1):
            lhs = inv.entry(n, k) - a * inv.entry(n, k + 1)
            rhs = q ** (n - k) * inv.entry(n - 1, k - 1) \
                - b * q ** (n - k - 1) * inv.entry(n - 1, k)
            assert lhs == rhs, (n, k)

    # column generating functions:  G_k(z) - a G_(k+1)(z)
    #   = z q^(1-k) G_(k-1)(qz) - b z q^(-k) G_k(qz)
    def col_series(k):
        return TruncSeries(table, 10, [inv.entry(n, k) for n in range(11)])

    for k in range(1, 7):
        lhs = col_series(k) - col_series(k + 1).scale(a)
        rhs = col_series(k - 1).shift_q(1).mul_z(1).scale(q ** (1 - k)) \
            - col_series(k).shift_q(1).mul_z(1).scale(b * q ** (-k))
        assert lhs == rhs, k

    # homogeneity:  B_(n,k)(a t, b t) = B_(n,k)(a, b) t^(n-k)
    t4, q4, a4, b4, tt = _symbolic(("q", "a", "b", "t"))
    inv4 = lt_inverse(base_matrix(a4, b4, 10))
    for n in range(11):
        for k in range(n + 1):
            scaled = inv4.entry(n, k).substitute({"a": a4 * tt, "b": b4 * tt})
            assert scaled == inv4.entry(n, k) * tt ** (n - k), (n, k)

    # k = 0 peeling:  [z^n]{(bz;q)_(n-1)/(az;q)_n}
    #   = a sum_(i<n) B_(n-i,1) q^((n-i)i) [z^i]{(bz;q)_i/(az;q)_(i+1)}
    col = b_column1(a, b, 10)

    def kernel_coeff(num_n, den_n, at):
        s = pochhammer_finite(b, num_n, at, table) \
            * pochhammer_finite(a, den_n, at, table).invert()
        return s.coeffs[at]

    for n in range(1, 11):
        rhs = RatFun.zero(table)
        for i in range(n):
            rhs = rhs + col[n - i] * qpow(table, (n - i) * i) * kernel_coeff(i, i + 1, i)
        assert kernel_coeff(n - 1, n, n) == a * rhs, n

    print("criterion 4: PASS - row-sum, three-term, column functional "
          "equation, homogeneity, and k = 0 peeling hold for n <= 10, k <= 6")


def test_criterion_05_row_generating_function_and_sn_divisibility():
    ty, q, a, b, y = _symbolic(("q", "a", "b", "y"))
    inv = lt_inverse(base_matrix(a, b, 8))
    col = [RatFun.zero(ty)] + [inv.entry(m, 1) for m in range(1, 9)]

    # sum_k B_(n,k) y^k = (b/y;q)_(n-1)/(a/y;q)_n y^n
    #   - a sum_(k<n) B_(n-k,1) q^((n-k)k) (b/y;q)_k/(a/y;q)_(k+1) y^k
    for n in range(1, 9):
        lhs = RatFun.zero(ty)
        for k in range(n + 1):
            lhs = lhs + inv.entry(n, k) * y**k
        rhs = qpoch_param(b / y, n - 1, ty) / qpoch_param(a / y, n, ty) * y**n
        for k in range(n):
            rhs = rhs - a * col[n - k] * qpow(ty, (n - k) * k) \
                * qpoch_param(b / y, k, ty) / qpoch_param(a / y, k + 1, ty) * y**k
        assert lhs == rhs, n

    # S_n(y) = rowsum * prod_(j<n)(y - aq^j) is a polynomial vanishing at
    # every y = aq^k, 0 <= k < n
    for n in range(1, 7):
        sn = sn_polynomial(n, a, b, y)
        prod = RatFun.one(ty)
        for j in range(n):
            prod = prod * (y - a * q**j)
        rowsum = RatFun.zero(ty)
        for k in range(n + 1):
            rowsum = rowsum + inv.entry(n, k) * y**k
        assert sn == rowsum * prod, n
        for k in range(n):
            assert sn.substitute({"y": a * q**k}).is_zero(), (n, k)

    print("criterion 5: PASS - row generating function in y for n <= 8; "
          "S_n(aq^k) = 0 for n <= 6")


def test_criterion_06_gn_polynomials_to_12():
    table, q, a, b = _symbolic()
    g = gn_polynomials(12, SymbolTable(("q",)))
    qq = RatFun.sym(SymbolTable(("q",)), "q")
    assert g[2] == 1 - qq
    assert g[3] == 1 - 2 * qq**2 + qq**3
    inv = lt_inverse(base_matrix(a, a * q, 12))
    for n in range(1, 13):
        assert inv.entry(n, 1) == g[n].embed(table) * a ** (n - 1), n
    print("criterion 6: PASS - B_(n,1)(a, aq) = g_n(q) a^(n-1) for n <= 12, "
          "with g_2 = 1 - q and g_3 = 1 - 2q^2 + q^3")


def test_criterion_07_identity_corpus_n10_within_5min():
    t0 = time.perf_counter()
    failures = []
    for name in check_names():
        order = 12 if name == "partial_theta" else 10
        report = run_check(name, order)
        if not report.passed:
            failures.append(name)
    elapsed = time.perf_counter() - t0
    assert failures == []
    assert elapsed <= 300.0
    print(f"criterion 7: PASS - all {len(check_names())} identity checks at "
          f"n = 10 (partial_theta at 12) in {elapsed:.1f}s (limit 300s)")


def test_criterion_08_any_perturbed_term_is_pinpointed():
    # scaling any single RHS term by (1+q) shifts the sum by q * term, so
    # the check must fail exactly at that term's lowest nonzero coefficient
    order = 6
    swept = 0
    for name in check_names():
        sides = build_sides(name, order)
        for j, term in enumerate(sides.rhs_terms):
            expected = next(
                (m for m, c in enumerate(term.coeffs) if not c.is_zero()), None
            )
            if expected is None:
                continue  # term invisible at this order; nothing to detect
            report = compare(sides, perturb=j)
            assert not report.passed, (name, j)
            assert report.first_failure.index == expected, (name, j)
            swept += 1
    assert swept >= 50
    print(f"criterion 8: PASS - {swept} single-term perturbations across "
          f"{len(check_names())} identities all detected at the right index")


def test_criterion_09_numeric_battery_and_precision_doubling():
    for name in numeric_check_names():
        assert len(DEFAULT_POINTS[name]) >= 3, name
    lo = default_numeric_reports()  # 128 bits, tolerance 1e-25
    hi = default_numeric_reports(precision=256)
    assert len(lo) == len(hi) == 18
    for rl, rh in zip(lo, hi):
        assert rl.passed, (rl.name, rl.point)
        assert rh.status == rl.status, (rl.name, rl.point)
    print(f"criterion 9: PASS - {len(lo)} numeric comparisons (4 identities "
          "x 3 points + 6 finite theta cases) within 1e-25 at 128 bits, "
          "verdicts unchanged at 256 bits")


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "qexpand.cli", *argv], capture_output=True
    )


def test_criterion_10_cli_determinism_and_exit_codes():
    args = ("verify-all", "--n", "10", "--seed", "7", "--output", "json")
    first = _cli(*args)
    second = _cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical
    reports = json.loads(first.stdout)
    assert [r["name"] for r in reports] == check_names()

    failing = _cli("verify", "coogan_ono", "--n", "6", "--perturb", "1")
    assert failing.returncode == 1

    usage = _cli("matrix", "--a", "((")
    assert usage.returncode == 2
    print("criterion 10: PASS - verify-all JSON byte-identical across runs; "
          "exit codes 0/1/2 observed")
