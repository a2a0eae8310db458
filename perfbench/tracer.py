"""Per-layer spans for the traced run, recorded from outside the package.

`install()` wraps public entry points of qexpand.ring, .series, .inversion,
.identities and .numeric; traced_cli.py adds qexpand.cli.main as one more
span in a child process.  Every wrapped call is a span; spans are aggregated per
name in memory -- calls, busy time (wall time of the outermost call of
that name) and self time (busy time minus the time covered by nested
spans) -- together with work counters read from the public
`MultiPoly.terms` mapping.  Nothing is written until the caller asks for
`snapshot()` at the end.

All layers run in one thread of one process and nothing queues between
them, so no wait time exists to record.
"""

from __future__ import annotations

import sys
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = {}  # name -> [calls, busy_s, self_s]
        self.counters = {}  # name -> summed count
        self.maxima = {}  # name -> largest value seen
        self._stack = []  # open spans: [start, covered_by_children]
        self._depth = {}  # name -> how many spans of that name are open
        self._patches = []  # (owner, attribute, original)
        self._seen_terms = {}  # id -> series summed by sum_series this pass

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args, kwargs, also=None):
        """Run fn(*args, **kwargs) as one span of `name` (and of `also`)."""
        frame = [_clock(), 0.0]
        stack = self._stack
        depth = self._depth
        stack.append(frame)
        depth[name] = depth.get(name, 0) + 1
        try:
            return fn(*args, **kwargs)
        finally:
            dur = _clock() - frame[0]
            stack.pop()
            if stack:
                stack[-1][1] += dur
            outer = depth[name] == 1
            depth[name] -= 1
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = [0, 0.0, 0.0]
            agg[0] += 1
            if outer:
                agg[1] += dur
            agg[2] += dur - frame[1]
            if also is not None:
                extra = self.spans.get(also)
                if extra is None:
                    extra = self.spans[also] = [0, 0.0, 0.0]
                extra[0] += 1
                extra[1] += dur
                extra[2] += dur - frame[1]

    def count(self, name, n):
        self.counters[name] = self.counters.get(name, 0) + n

    def peak(self, name, v):
        if v > self.maxima.get(name, 0):
            self.maxima[name] = v

    def end_pass(self):
        """Forget the identities of summed series (they belong to one pass)."""
        self._seen_terms.clear()

    def merge(self, snap):
        """Add a snapshot taken in another process (a traced CLI child)."""
        for name, (calls, busy, self_s) in snap["spans"].items():
            agg = self.spans.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += busy
            agg[2] += self_s
        for name, n in snap["counters"].items():
            self.count(name, n)
        for name, v in snap["maxima"].items():
            self.peak(name, v)

    def snapshot(self):
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }

    # -- wrapping ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, fn, wrapper):
        """Replace `fn` under every name a loaded qexpand module binds it to."""
        for modname, mod in list(sys.modules.items()):
            if modname != "qexpand" and not modname.startswith("qexpand."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, wrapper)

    def span_function(self, fn, name):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        self._patch_function(fn, wrapper)

    def span_method(self, cls, attrs, name):
        fn = getattr(cls, attrs[0])
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        for attr in attrs:
            self._patch(cls, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Wrap the public entry points of every in-process layer."""
        from qexpand import identities, inversion, numeric, ring, series

        call = self.call
        count = self.count
        peak = self.peak
        MultiPoly, RatFun = ring.MultiPoly, ring.RatFun

        poly_mul = MultiPoly.__mul__

        def traced_poly_mul(x, y):
            res = call("ring.poly_mul", poly_mul, (x, y), {})
            if isinstance(y, MultiPoly) and res is not NotImplemented:
                count("ring.poly_mul.term_pairs", len(x.terms) * len(y.terms))
                peak("ring.poly_mul.max_terms",
                     max(len(x.terms), len(y.terms), len(res.terms)))
                if res.terms:
                    peak("ring.max_coeff_bits",
                         max(abs(c) for c in res.terms.values()).bit_length())
            return res

        self._patch(MultiPoly, "__mul__", traced_poly_mul)
        self._patch(MultiPoly, "__rmul__", traced_poly_mul)
        self.span_method(MultiPoly, ("__add__", "__radd__"), "ring.poly_add")
        self.span_method(RatFun, ("__init__",), "ring.ratfun_norm")

        ratfun_eq = RatFun.__eq__

        def traced_ratfun_eq(x, y):
            if isinstance(y, RatFun):
                cross = x.den.terms != y.den.terms
            else:  # an int is coerced with denominator 1
                cross = isinstance(y, int) and x.den.terms != {0: 1}
            if cross:
                count("ring.ratfun_eq.cross_mul", 1)
            return call("ring.ratfun_eq", ratfun_eq, (x, y), {})

        self._patch(RatFun, "__eq__", traced_ratfun_eq)

        TruncSeries = series.TruncSeries
        self.span_method(TruncSeries, ("__mul__",), "series.mul")
        for op in ("mul_linear", "div_linear", "invert"):
            self.span_method(TruncSeries, (op,), "series." + op)

        sum_series = series.sum_series
        seen = self._seen_terms

        def traced_sum_series(terms, *args, **kwargs):
            items = list(terms)
            count("series.sum_series.terms_summed", len(items))
            for t in items:
                if id(t) not in seen:
                    seen[id(t)] = t  # held until end_pass so ids stay unique
                    count("series.sum_series.distinct_terms", 1)
            return call("series.sum_series", sum_series, (items,) + args, kwargs)

        self._patch_function(sum_series, traced_sum_series)

        for fn in (inversion.base_matrix, inversion.lt_inverse,
                   inversion.expand_triangular, inversion.expand_theorem15):
            self.span_function(fn, "inversion." + fn.__name__)
        self.span_method(inversion.LTMatrix, ("__matmul__",), "inversion.matmul")

        build_sides = identities.build_sides

        def traced_build_sides(name, *args, **kwargs):
            return call("identities.build", build_sides, (name,) + args, kwargs,
                        also=f"identities.build.{name}")

        self._patch_function(build_sides, traced_build_sides)
        self.span_function(identities.compare, "identities.compare")

        for fn in (numeric.check_identity_numeric, numeric.check_qqq):
            def traced_point(*args, _fn=fn, _name="numeric." + fn.__name__, **kwargs):
                count("numeric.points", 1)
                return call(_name, _fn, args, kwargs)

            self._patch_function(fn, traced_point)

        battery = numeric.default_numeric_reports

        def traced_battery(tol=numeric.DEFAULT_TOLERANCE, precision=numeric.DEFAULT_PRECISION):
            return call(f"numeric.battery.p{precision}", battery, (tol, precision), {})

        self._patch_function(battery, traced_battery)
