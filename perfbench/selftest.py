"""Self-test of the benchmark at a tiny order.

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced and a traced run emit exactly
the metrics BENCHMARK.json names, each with its unit (end-to-end ones never
0), that layers.json maps every layer metric, and that an injected wrong
verdict is counted as a failure -- correct false, error_rate above 0 --
instead of passing or aborting the run.  Exits 1 on the first broken
expectation.
"""

import contextlib
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from qexpand import identities, inversion, ring  # noqa: E402

SEED = 3


@contextlib.contextmanager
def patched(owner, attr, value):
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


def expect(cond, message):
    if not cond:
        print(f"selftest: FAIL: {message}")
        sys.exit(1)


def check_metrics(result, declared, label, never_zero):
    got = result["metrics"]
    expect(list(got) == [m["name"] for m in declared],
           f"{label}: emitted {sorted(got)}")
    for m in declared:
        value = got[m["name"]]
        expect(value["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        expect(isinstance(value["value"], float) and math.isfinite(value["value"]),
               f"{label}: value of {m['name']}")
        if never_zero:
            expect(value["value"] > 0, f"{label}: {m['name']} is 0")


def tiny(name, trace, spec, workload=None):
    return run.run(name, SEED, 0, trace, spec, sizes=workloads.TINY_SIZES,
                   workload=workload)


_build_sides = identities.build_sides
_compare = identities.compare


def wrong_build(name, order, seed=0):
    """build_sides with RHS term 0 of every check scaled by (1+q)."""
    sides = _build_sides(name, order, seed)
    q = ring.RatFun.sym(sides.table, "q")
    sides.rhs_terms = [sides.rhs_terms[0].scale(1 + q)] + sides.rhs_terms[1:]
    return sides


def injections():
    """One wrong verdict per workload, each through a different gate."""
    yield "corpus", patched(identities, "build_sides", wrong_build), None
    yield ("perturb_sweep",
           patched(identities, "compare",
                   lambda sides, perturb=None: _compare(sides)), None)
    yield "inversion", patched(inversion, "lt_inverse", lambda m: m), None
    w = workloads.make("cli_numeric", SEED, workloads.TINY_SIZES)
    w.argvs[0] = w.argvs[0] + ["--tol", "0"]
    yield "cli_numeric", contextlib.nullcontext(), w


def main():
    spec = json.loads(run.SPEC.read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(layers["workloads"]) == sorted(names), "layers.json workloads")
    for m in spec["per_layer"]:
        expect(m["name"] in layers["layers"], f"layers.json lacks {m['name']}")
        for move in layers["layers"][m["name"]]["moves"]:
            expect(move["workload"] in names, f"{m['name']}: unknown workload")
            expect(move["metric"] in [e["name"] for e in spec["end_to_end"]],
                   f"{m['name']}: unknown metric")

    for name in names:
        details, result = tiny(name, 0, spec)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{name}: untraced run not correct: {details['wrong_verdicts']}")
        check_metrics(result, spec["end_to_end"], name, never_zero=True)
        details, result = tiny(name, 1, spec)
        expect(result["correct"], f"{name}: traced run not correct")
        check_metrics(result, spec["per_layer"], name + " traced", never_zero=False)
        expect(result["metrics"]["trace.overhead_ratio"]["value"] > 0,
               f"{name}: no tracing overhead reported")
        print(f"selftest: {name}: {result['attempted']} verdicts, metrics complete")

    for name, injection, w in injections():
        with injection:
            details, result = tiny(name, 0, spec, workload=w)
        expect(not result["correct"] and result["failed"] >= 1,
               f"{name}: injected wrong verdict was not counted")
        expect(details["error_rate"] > 0, f"{name}: error_rate stayed 0")
        print(f"selftest: {name}: injected wrong verdict counted "
              f"({result['failed']}/{result['attempted']})")
    print("selftest: ok")


if __name__ == "__main__":
    main()
