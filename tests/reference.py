"""Test-local references: substitution, and the z-free and series q-Pochhammers."""

from qexpand.ring import MultiPoly, RatFun
from qexpand.series import TruncSeries, sum_series


def substitute(r, vals, one):
    """The RatFun r with symbols replaced by RatFun or series values, whose unit is `one`."""
    table = r.table
    powers = {table.position(nm): [one, v] for nm, v in vals.items()}

    def walk(p):
        total = one - one
        for k, c in p.terms.items():
            exps = table.unpack(k)
            kept = [0 if i in powers else e for i, e in enumerate(exps)]
            term = RatFun(MultiPoly(table, {table.pack(kept): c}), MultiPoly.const(table, 1))
            used = [(powers[i], e) for i, e in enumerate(exps) if e and i in powers]
            for cache, e in used:  # each power is built once, then reused
                while len(cache) <= e:
                    cache.append(cache[-1] * cache[1])
                term = term * cache[e]
            total = total + (term if used else one * term)
        return total

    num, den = walk(r.num), walk(r.den)
    return num / den if isinstance(num, RatFun) else num * den.invert()


def substitute_series(s, vals):
    one = TruncSeries.one(s.table, s.order)
    return sum_series([substitute(c, vals, one).mul_z(n) for n, c in enumerate(s.coeffs)])


def qpoch(c, n, table):
    """(c;q)_n for a z-free c and any integer n; (c;q)_(-m) = 1/(cq^(-m);q)_m."""
    q = RatFun.sym(table, "q")
    prod = RatFun.one(table)
    for i in range(min(n, 0), max(n, 0)):
        prod = prod * (1 - c * q**i)
    return prod if n >= 0 else 1 / prod


def poch(c, n, order, table):
    """The series (cz;q)_n for any integer n: a chain of linear factors."""
    q = RatFun.sym(table, "q")
    s = TruncSeries.one(table, order)
    for i in range(min(n, 0), max(n, 0)):
        s = s.mul_linear(c * q**i) if n > 0 else s.div_linear(c * q**i)
    return s
