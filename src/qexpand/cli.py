"""Command-line front end: matrices, expansions, and the verification suites.

Subcommands
-----------
matrix          the base-change matrix A or its inverse B at order --n,
                symbolic by default, specialized through --a / --b
expand          expansion coefficients of a series over the elements
                z^n (az;q)_n/(bz;q)_n, computed by both routes
                (triangular solve and the closed formula) with agreement
gn              the polynomials g_n(q) of the b = aq specialization
verify          named symbolic identity checks at truncation order --n
verify-all      every registered symbolic check
numeric-verify  high-precision evaluation of one identity on a point
                grid (or the whole default battery)
bench           coarse wall-clock timings of representative computations

Parameters --a, --b and the entries of --coeffs use a small expression
grammar: integers, symbol names, + - * / ^ and parentheses.  The symbols
q, a, b are pre-declared; any other name is declared on first use.  The
series variable z is reserved and cannot appear in a coefficient.  The
--coeffs list is split on commas only, so an entry may contain spaces
("a * q, 1") and a list separated by spaces alone ("1 q") is an error.

Exit status is 0 when everything requested passed, 1 when any check
failed, and 2 for usage errors (malformed expressions, unknown names, a
verify-all filter that matches nothing, a --tol that is not a positive
rational, bad point files, out-of-region points, points where a
denominator factor vanishes).  For a fixed flag set and seed the --output
json stream is byte-identical across runs; bench is the one exception,
since it reports wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .errors import OrderError, ParseError, QExpandError, StructureError

# Each subcommand imports the engines it runs, so that numeric-verify never
# loads the symbolic stack and importing this module loads neither.
if TYPE_CHECKING:
    from .ring import RatFun, SymbolTable
    from .series import TruncSeries


# ---------------------------------------------------------------------------
# output and parameter plumbing


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _parameter_table(*exprs: str) -> SymbolTable:
    """q, a, b plus any other symbol the expressions mention, in first-use order."""
    from .ring import SymbolTable, expression_symbols

    names = ["q", "a", "b"]
    for text in exprs:
        for nm in expression_symbols(text):
            if nm == "z":
                raise ParseError("'z' is the series variable, not a coefficient symbol")
            if nm not in names:
                names.append(nm)
    return SymbolTable(names)


def _builtin_series(name: str, table: SymbolTable, a: RatFun, b: RatFun,
                    order: int, k: int) -> TruncSeries:
    from .series import TruncSeries, base_element, partial_theta, qpow

    if name == "one":
        return TruncSeries.one(table, order)
    if name == "basek":
        if not 0 <= k <= order:
            raise OrderError(f"--k must lie in 0..{order}, got {k}")
        return base_element(k, a, b, order, table)
    # (1 + z) sum_n (-1)^n z^(2n) q^(n^2)
    return partial_theta(2, qpow(table, 1), 2, order, table).mul_linear(-1)


# ---------------------------------------------------------------------------
# subcommands


def cmd_matrix(args) -> int:
    from .inversion import base_matrix, lt_inverse
    from .ring import parse_ratfun

    table = _parameter_table(args.a, args.b)
    a = parse_ratfun(args.a, table)
    b = parse_ratfun(args.b, table)
    m = base_matrix(a, b, args.n)
    if args.which == "B":
        m = lt_inverse(m)
    entries = [[str(e) for e in row] for row in m.rows]
    if args.output == "json":
        _emit_json({
            "which": args.which,
            "n": args.n,
            "a": str(a),
            "b": str(b),
            "entries": entries,
        })
    else:
        lines = [f"{args.which}  (n = {args.n}, a = {a}, b = {b})"]
        for i, row in enumerate(entries):
            lines.append(f"  [{i}]  " + ",  ".join(row))
        _emit("\n".join(lines))
    return 0


def cmd_expand(args) -> int:
    from .inversion import expand_theorem15, expand_triangular
    from .ring import parse_ratfun
    from .series import TruncSeries

    texts = []
    if args.coeffs is not None:
        texts = [t.strip() for t in args.coeffs.split(",") if t.strip()]
        if not texts:
            raise ParseError("--coeffs lists no coefficients")
    table = _parameter_table(args.a, args.b, *texts)
    a = parse_ratfun(args.a, table)
    b = parse_ratfun(args.b, table)
    if texts:
        if len(texts) > args.n + 1:
            raise OrderError(
                f"{len(texts)} coefficients exceed truncation order {args.n}"
            )
        given = [parse_ratfun(t, table) for t in texts]
        f = TruncSeries.from_coeffs(table, given, args.n)
    else:
        f = _builtin_series(args.builtin, table, a, b, args.n, args.k)
    r1 = expand_triangular(f, a, b)
    r2 = expand_theorem15(f, a, b)
    agree = all(x == y for x, y in zip(r1.coeffs, r2.coeffs))
    if args.output == "json":
        _emit_json({
            "n": args.n,
            "a": str(a),
            "b": str(b),
            "triangular_solve": [str(c) for c in r1.coeffs],
            "theorem15": [str(c) for c in r2.coeffs],
            "agree": agree,
        })
    else:
        lines = [f"expansion over z^n (az;q)_n/(bz;q)_n  (n = {args.n}, "
                 f"a = {a}, b = {b})"]
        for i, (x, y) in enumerate(zip(r1.coeffs, r2.coeffs)):
            note = "" if x == y else f"   closed formula disagrees: {y}"
            lines.append(f"  c[{i}] = {x}{note}")
        lines.append(f"methods agree: {'yes' if agree else 'NO'}")
        _emit("\n".join(lines))
    return 0 if agree else 1


def cmd_gn(args) -> int:
    from .inversion import gn_polynomials
    from .ring import SymbolTable

    table = SymbolTable(("q",))
    g = gn_polynomials(args.n, table)
    rendered = [str(g[m]) for m in range(1, args.n + 1)]
    if args.output == "json":
        _emit_json({"n": args.n, "g": rendered})
    else:
        lines = [f"g_{m} = {s}" for m, s in enumerate(rendered, start=1)]
        _emit("\n".join(lines) if lines else "(empty: --n 0)")
    return 0


def _emit_reports(args, reports, line, noun: str) -> int:
    """Print the reports as JSON, or one line(report) each and a count of
    the passed checks or points; exit 0 only if all of them passed."""
    if args.output == "json":
        _emit_json([r.to_json_dict() for r in reports])
    else:
        lines = [line(r) for r in reports]
        lines.append(f"{sum(r.passed for r in reports)}/{len(reports)} {noun} passed")
        _emit("\n".join(lines))
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify(args) -> int:
    """verify NAME ... and verify-all."""
    from .identities import check_names, run_all, run_check

    if args.command == "verify":
        reports = [
            run_check(name, args.n, args.seed, perturb=args.perturb)
            for name in args.names
        ]
    else:
        reports = run_all(args.n, args.filter, args.seed)
        if not reports:
            raise StructureError(
                f"no check matches {args.filter!r}; known: {', '.join(check_names())}"
            )

    def line(r):
        if r.passed:
            return f"{r.name}  (n = {r.order}): pass"
        f = r.first_failure
        return f"{r.name}  (n = {r.order}): FAIL at z^{f.index}: lhs = {f.lhs}, rhs = {f.rhs}"

    return _emit_reports(args, reports, line, "checks")


def _load_points(path: str) -> List[Dict[str, str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=str)  # kept exact, not rounded to a double
    # bad JSON, bad UTF-8, an int past 4300 digits; arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"points file {path}: {exc}") from None
    if not isinstance(data, list) or not all(isinstance(p, dict) for p in data):
        raise ParseError(f"points file {path}: expected a JSON array of objects")
    if not data:
        raise ParseError(f"points file {path}: lists no points")
    return data


def _positive_fraction(text: str) -> Fraction:
    """argparse type of --tol: a rational number above zero."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def cmd_numeric_verify(args) -> int:
    from .numeric import (
        DEFAULT_POINTS,
        check_identity_numeric,
        default_numeric_reports,
        numeric_check_names,
    )

    tol, prec = args.tol, args.precision
    if args.identity is None:
        if args.points:
            raise ParseError("--points requires --identity")
        reports = default_numeric_reports(tol, prec)
    else:
        name = args.identity
        if name not in DEFAULT_POINTS:
            known = ", ".join(numeric_check_names())
            raise ParseError(f"unknown identity {name!r}; known: {known}")
        points = _load_points(args.points) if args.points else DEFAULT_POINTS[name]
        reports = [check_identity_numeric(name, p, tol, prec) for p in points]

    def line(r):
        at = " ".join(f"{k}={v}" for k, v in r.point.items())
        return (f"{r.name} @ {at}: {r.status}  (|lhs - rhs| = {r.abs_diff}, "
                f"tol = {r.tolerance}, {r.precision} bits)")

    return _emit_reports(args, reports, line, "points")


def cmd_bench(args) -> int:
    import random

    from .identities import build_sides, check_names, compare
    from .inversion import base_matrix, expand_theorem15, expand_triangular, lt_inverse
    from .numeric import default_numeric_reports
    from .ring import RatFun, symbols
    from .series import TruncSeries

    rows = []

    def timed(task, fn):
        t0 = time.perf_counter()
        ok = bool(fn())
        rows.append({"task": task,
                     "seconds": round(time.perf_counter() - t0, 3),
                     "ok": ok})

    n = args.n
    table, (_, a, b) = symbols("q a b")

    def inverse_pair():
        m = base_matrix(a, b, n)
        return (lt_inverse(m) @ m).is_identity()

    def dual_expand():
        rng = random.Random(args.seed)
        coeffs = [
            RatFun.from_fraction(table, Fraction(rng.randint(-9, 9),
                                                 rng.randint(1, 9)))
            for _ in range(n + 1)
        ]
        f = TruncSeries(table, n, coeffs)
        r1 = expand_triangular(f, a, b)
        r2 = expand_theorem15(f, a, b)
        return all(x == y for x, y in zip(r1.coeffs, r2.coeffs))

    timed(f"base_matrix + lt_inverse + product check (n = {n})", inverse_pair)
    timed(f"expansion, both routes, random series (n = {n})", dual_expand)
    for name in check_names():
        t0 = time.perf_counter()
        sides = build_sides(name, n, args.seed)
        t1 = time.perf_counter()
        ok = compare(sides).passed
        t2 = time.perf_counter()
        rows.append({"task": f"identity {name} (n = {n})", "seconds": round(t2 - t0, 3),
                     "ok": ok, "build_s": round(t1 - t0, 3), "compare_s": round(t2 - t1, 3)})
    timed("numeric default battery",
          lambda: all(r.passed
                      for r in default_numeric_reports(args.tol, args.precision)))

    if args.output == "json":
        _emit_json(rows)
    else:
        lines = [
            f"{row['seconds']:>9.3f}s  {'ok  ' if row['ok'] else 'FAIL'}  {row['task']}"
            for row in rows
        ]
        lines.append(f"{sum(r['seconds'] for r in rows):>9.3f}s  total")
        _emit("\n".join(lines))
    return 0 if all(r["ok"] for r in rows) else 1


# ---------------------------------------------------------------------------
# argument parsing


# flags whose value may start with '-' (e.g. --b "-q"); folded to --flag=value
# before argparse sees them, since argparse would read "-q" as an option
_VALUE_FLAGS = ("--a", "--b", "--coeffs")


def _fold_negative_values(argv: List[str]) -> List[str]:
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok in _VALUE_FLAGS and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


class _HelpFormatter(argparse.HelpFormatter):
    """Fills in %(checks)s, the names of the symbolic checks, only when help
    is printed: listing them imports the whole symbolic engine."""

    def _get_help_string(self, action):
        text = action.help
        if "%(checks)s" in text:
            from .identities import check_names

            text = text.replace("%(checks)s", ", ".join(check_names()))
        return text


def build_parser() -> argparse.ArgumentParser:
    from .numeric import DEFAULT_PRECISION, DEFAULT_TOLERANCE, numeric_check_names

    parser = argparse.ArgumentParser(
        prog="qexpand",
        description="expansions over z^n (az;q)_n/(bz;q)_n and their verification",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(p, with_order=True):
        if with_order:
            p.add_argument("--n", type=int, default=10,
                           help="truncation order (default %(default)s)")
        p.add_argument("--output", choices=("text", "json"), default="text",
                       help="report format (default %(default)s)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized inputs (default %(default)s)")

    def numeric(p):
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                       help="working precision in bits (default %(default)s)")
        p.add_argument("--tol", type=_positive_fraction, default=DEFAULT_TOLERANCE,
                       metavar="T", help="absolute tolerance (default 1e-25)")

    def ab(p):
        p.add_argument("--a", default="a", metavar="EXPR",
                       help="value of a (default symbolic)")
        p.add_argument("--b", default="b", metavar="EXPR",
                       help="value of b (default symbolic)")

    p = sub.add_parser("matrix", help="base-change matrix A or inverse B")
    p.add_argument("--which", choices=("A", "B"), default="A",
                   help="which matrix (default %(default)s)")
    ab(p)
    common(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("expand", help="expansion coefficients by both routes")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=("coogan_ono", "one", "basek"),
                     help="named input series")
    src.add_argument("--coeffs", metavar="LIST",
                     help="series coefficients c0,c1,... (expressions)")
    p.add_argument("--k", type=int, default=1,
                   help="index for --builtin basek (default %(default)s)")
    ab(p)
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("gn", help="polynomials g_n(q) of the b = aq case")
    common(p)
    p.set_defaults(func=cmd_gn)

    p = sub.add_parser("verify", help="run named symbolic identity checks",
                       formatter_class=_HelpFormatter)
    p.add_argument("names", nargs="+", metavar="NAME", help="one of: %(checks)s")
    p.add_argument("--perturb", type=int, default=None, metavar="INDEX",
                   help="scale RHS term INDEX by (1+q); the check must then fail")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-all", help="run every symbolic identity check")
    p.add_argument("--filter", default=None, metavar="SUBSTRING",
                   help="only checks whose name contains SUBSTRING")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("numeric-verify",
                       help="high-precision numeric check of an identity")
    p.add_argument("--identity", default=None, metavar="NAME",
                   help=f"one of: {', '.join(numeric_check_names())} "
                        "(default: whole battery)")
    p.add_argument("--points", default=None, metavar="FILE",
                   help="JSON array of points, e.g. [{\"q\": \"0.1\", ...}]")
    numeric(p)
    common(p, with_order=False)
    p.set_defaults(func=cmd_numeric_verify)

    p = sub.add_parser("bench", help="wall-clock timings of the main computations")
    numeric(p)
    common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    raw = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_fold_negative_values(raw))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if getattr(args, "n", 0) < 0:
        print("error: --n must be >= 0", file=sys.stderr)
        return 2
    if getattr(args, "precision", 8) < 8:
        print("error: --precision must be >= 8 bits", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except QExpandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
