"""qexpand benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The workloads and metrics are declared in BENCHMARK.json, and what each
layer metric should move is in perfbench/layers.json.

--trace 0 measures the end-to-end metrics.  Set-up is timed first: a fresh
interpreter imports qexpand and builds the seeded inputs, SETUP_REPS times
after one warm-up, and the median is reported.  Then one closed-loop
client runs passes until the next would end after --seconds (at least
MIN_PASSES), and each metric is the median over the passes.  The run and
its child processes are pinned to one CPU.  Times are
host-normalized seconds (see workloads.StepTimer): wall and CPU time
scaled by how fast a fixed reference loop runs just before and after each
step, so that the host's drifting speed cancels; the raw wall-clock
medians are reported beside them under "wall.".

--trace 1 runs passes untraced for a third of the time, then with every
layer wrapped (see tracer.py) for the rest, and reports the per-layer
metrics, per traced pass, and the tracing overhead between the two.

Every verdict is checked against a known answer.  The line before the
last gives the seed, the environment, every metric's median, quartiles and
sample count, each step's time in every pass, error_rate (wrong
verdicts / verdicts attempted), the first wrong verdicts and, when traced,
the span table.
The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPS = 5
MIN_PASSES = 3

_clock = time.perf_counter


def summarize(values):
    """Median, first and third quartile, and sample count."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- environment stamp --------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "none (not a git checkout)"
    return "unknown"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "mpmath": _version("mpmath"),
        "numpy": _version("numpy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- measurement ------------------------------------------------------------


def measure_setup(name, seed, timer):
    """Set-up steps: spawn, import and build the inputs, in a fresh interpreter."""
    import workloads

    probe = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]

    def spawn():
        rc, _, err, _ = workloads.run_child(probe)
        return rc == 0, err.decode(errors="replace")

    # the first spawn only fills the bytecode cache
    steps = [timer.step("setup", spawn, sample=False) for _ in range(SETUP_REPS + 1)][1:]
    bad = [s for s in steps if not s.ok]
    if bad:
        raise RuntimeError(f"set-up probe failed: {bad[0].detail}")
    return steps


def run_passes(w, timer, seconds, min_passes, tracer=None):
    """Closed loop: pass after pass until the next would end after `seconds`."""
    names = ("pass_s", "slowest_verdict_s", "cpu_s", "peak_rss_mb",
             "wall.pass_s", "wall.slowest_verdict_s")
    samples = {k: [] for k in names}
    steps = []
    start = _clock()
    while True:
        t0 = _clock()
        out = w.run_pass(timer, tracer)
        elapsed = _clock() - t0
        if tracer is not None:
            tracer.end_pass()
        steps.extend(out)
        verdicts = [s for s in out if s.verdict]
        samples["pass_s"].append(sum(s.seconds for s in out))
        samples["slowest_verdict_s"].append(max(s.seconds for s in verdicts))
        samples["cpu_s"].append(sum(s.cpu for s in out))
        samples["peak_rss_mb"].append(w.peak_rss_kb() / 1024)
        samples["wall.pass_s"].append(sum(s.wall for s in out))
        samples["wall.slowest_verdict_s"].append(max(s.wall for s in verdicts))
        if (len(samples["pass_s"]) >= min_passes
                and (_clock() - start) + elapsed > seconds):
            return samples, steps


def layer_metrics(tracer, passes, w, untraced, traced):
    """Per-layer numbers from one traced run, per traced pass."""
    m = {}
    for name, (calls, busy, self_s) in tracer.spans.items():
        m[name + ".calls"] = calls / passes
        m[name + ".busy_s"] = busy / passes
        m[name + ".self_s"] = self_s / passes
    for name, n in tracer.counters.items():
        m[name] = n / passes
    m.update(tracer.maxima)
    eq_calls = tracer.spans.get("ring.ratfun_eq", [0])[0]
    if eq_calls:
        m["ring.ratfun_eq.cross_mul_ratio"] = (
            tracer.counters.get("ring.ratfun_eq.cross_mul", 0) / eq_calls)
    distinct = tracer.counters.get("series.sum_series.distinct_terms", 0)
    if distinct:
        m["series.sum_series.resum_ratio"] = (
            tracer.counters["series.sum_series.terms_summed"] / distinct)
    if getattr(w, "startup", None):
        m["cli.startup_s"] = statistics.median(w.startup)
        m["cli.invoke_s"] = statistics.median(w.invoke)
    m["trace.untraced_pass_s"] = untraced
    m["trace.traced_pass_s"] = traced
    m["trace.overhead_ratio"] = traced / untraced
    return m


def run(name, seed, seconds, trace, spec, sizes=None, workload=None):
    """One benchmark run; returns (details, result) as printed by main()."""
    import workloads
    from tracer import Tracer

    # One CPU for this process and every child it spawns: the closed loop
    # uses one at a time anyway, and the reference loop must run on the CPU
    # whose speed it stands for (the two vCPUs of a shared host drift apart).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": dict(environment(), pinned_cpu=cpu)}
    w = workload or workloads.make(name, seed, sizes)
    timer = workloads.StepTimer()
    if not trace:
        setup = measure_setup(name, seed, timer)
        samples, steps = run_passes(w, timer, seconds, MIN_PASSES)
        samples["setup_s"] = [s.seconds for s in setup]
        samples["wall.setup_s"] = [s.wall for s in setup]
        summary = {k: summarize(v) for k, v in samples.items()}
        computed = {k: s["median"] for k, s in summary.items()}
        wanted = spec["end_to_end"]
    else:
        plain, steps = run_passes(w, timer, seconds / 3, 1)
        tracer = Tracer()
        tracer.install()
        try:
            samples, traced_steps = run_passes(w, timer, seconds * 2 / 3, 1, tracer)
        finally:
            tracer.uninstall()
        steps += traced_steps
        summary = {"untraced." + k: summarize(v) for k, v in plain.items()}
        summary.update({"traced." + k: summarize(v) for k, v in samples.items()})
        computed = layer_metrics(
            tracer, len(samples["pass_s"]), w,
            statistics.median(plain["pass_s"]), statistics.median(samples["pass_s"]))
        details["spans"] = {k: {"calls": c, "busy_s": b, "self_s": s}
                            for k, (c, b, s) in sorted(tracer.spans.items())}
        details["layers"] = computed
        wanted = spec["per_layer"]
    verdicts = [s for s in steps if s.verdict]
    failed = [v for v in verdicts if not v.ok]
    summary["reference_loop_s"] = summarize(timer.loops)
    details["summary"] = summary
    by_label = {}
    for s in steps:
        by_label.setdefault(s.label, []).append(s.seconds)
    details["step_seconds"] = by_label
    details["error_rate"] = len(failed) / len(verdicts)
    details["wrong_verdicts"] = [{"label": v.label, "detail": v.detail} for v in failed[:5]]
    result = {
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": float(computed.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in wanted},
    }
    return details, result


def main(argv=None):
    if not (SRC / "qexpand" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a qexpand checkout; {SRC / 'qexpand'} or {SPEC} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description="qexpand benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    details, result = run(args.workload, args.seed, args.seconds, args.trace, spec)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
