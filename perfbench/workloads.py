"""The four workloads: seeded inputs, one closed-loop pass, known answers.

Each workload is built from a seed in `make()` (the set-up the benchmark
times) and then run pass after pass by one single-threaded client; the next
operation starts only when the previous one has returned.  A pass is a list
of `Step`s timed by a `StepTimer`; most steps are verdicts checked against
a known answer.  A wrong answer, or an exception, is a failed verdict: it
is counted, never raised.  `peak_rss_kb()` gives the peak resident memory
of the process that did the work.

Why these four (see also layers.json):
  corpus         every registered identity at order 8, as `verify-all` runs
                 it; build-heavy, dominated by 2phi1_to_4phi3's dense
                 multiplies.
  perturb_sweep  every check built once at order 7, then one compare per
                 perturbable RHS term; compare-heavy, so series summation
                 and RatFun addition dominate.
  inversion      symbolic inverse pair at n = 14 and both expansion routes
                 on seeded random series at n = 12; tens of thousands of
                 small dict-path multiplies, almost no dense ones.
  cli_numeric    fresh `qexpand numeric-verify` processes at three
                 precisions; the only workload where the numeric and cli
                 layers carry the time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import selectors
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the caller puts the checkout's src/ on sys.path; the CLI module is part
# of every workload's set-up
import qexpand.cli  # noqa: E402,F401
from qexpand import identities, inversion, ring, series  # noqa: E402

_clock = time.perf_counter

SIZES = {
    "corpus": {"order": 8},
    "perturb_sweep": {"order": 7},
    "inversion": {"matrix_n": 14, "series_n": 12, "series_count": 5},
    "cli_numeric": {"precisions": [128, 256, 1024]},
}

# small enough that every workload passes in well under a second
TINY_SIZES = {
    "corpus": {"order": 3},
    "perturb_sweep": {"order": 3},
    "inversion": {"matrix_n": 4, "series_n": 3, "series_count": 2},
    "cli_numeric": {"precisions": [128]},
}


# Wall time of reference_loop() that defines one host-normalized second.
REFERENCE_S = 0.008


def reference_loop():
    """A fixed pure-Python integer loop; its time tracks the host's speed."""
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


def cpu_seconds():
    """CPU time of this process and of every child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Step:
    label: str
    verdict: bool  # a checked answer (else work such as a build)
    ok: bool
    detail: str
    wall: float  # seconds
    seconds: float  # host-normalized wall time
    cpu: float  # host-normalized CPU seconds, children included


class StepTimer:
    """Times steps in host-normalized seconds.

    The host's speed drifts: on the shared 2-vCPU machine this benchmark was
    written on, a fixed loop's time alternates between two levels about
    1.5x apart for tens of seconds at a time, which moves every wall time
    by as much.  So
    reference_loop() runs before and after every step (the one after is
    reused as the next one's before) and, inside a step run in this
    process, every SAMPLE_S from a SIGALRM handler.  A step's wall and CPU
    times, less the loops run inside it, are scaled by REFERENCE_S over the
    mean loop time: a step reads what it would take on a host where the
    loop takes REFERENCE_S.
    """

    SAMPLE_S = 0.5

    def __init__(self):
        self._last = None  # (loop seconds, clock at its end)
        self._inside = []  # (wall, cpu) of loops run inside the current step
        self.loops = []

    def _loop(self):
        t0 = _clock()
        reference_loop()
        t1 = _clock()
        self.loops.append(t1 - t0)
        self._last = (t1 - t0, t1)
        return t1 - t0

    def _sample(self, signum, frame):
        c0 = cpu_seconds()
        wall = self._loop()
        self._inside.append((wall, cpu_seconds() - c0))

    def step(self, label, work, verdict=True, sample=True):
        """Run work() -> (ok, detail); an exception makes ok False.

        sample=False for a step that waits on a child process, whose work
        a loop in this process would not slow down.
        """
        last = self._last
        before = last[0] if last and _clock() - last[1] < 0.05 else self._loop()
        self._inside = []
        if sample:
            old = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        c0 = cpu_seconds()
        t0 = _clock()
        try:
            ok, detail = work()
        except Exception:  # counted as a wrong verdict; the sweep keeps going
            ok, detail = False, traceback.format_exc(limit=3)
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            wall = _clock() - t0
            cpu = cpu_seconds() - c0
        wall -= sum(w for w, _ in self._inside)
        cpu -= sum(c for _, c in self._inside)
        loops = [before, *(w for w, _ in self._inside), self._loop()]
        scale = REFERENCE_S * len(loops) / sum(loops)
        return Step(label, verdict, ok, detail, wall, wall * scale, cpu * scale)


class Corpus:
    """Every registered check, built then compared; each must pass."""

    def __init__(self, seed, order):
        self.seed, self.order = seed, order
        self.names = identities.check_names()

    def run_pass(self, timer, tracer=None):
        out = []
        for name in self.names:
            def work(name=name):
                sides = identities.build_sides(name, self.order, self.seed)
                report = identities.compare(sides)
                return report.passed, "" if report.passed else f"{name} failed"
            out.append(timer.step(f"corpus:{name}", work))
        return out

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def lowest_nonzero(s):
    """Index of the first nonzero coefficient of a series, or None."""
    return next((m for m, c in enumerate(s.coeffs) if not c.is_zero()), None)


class PerturbSweep:
    """Each check built once; unperturbed it passes, and scaling RHS term j
    by (1+q) must make it fail exactly at that term's lowest nonzero index."""

    def __init__(self, seed, order):
        self.seed, self.order = seed, order
        self.names = identities.check_names()

    def run_pass(self, timer, tracer=None):
        out = []
        for name in self.names:
            built = {}

            def build(name=name):
                built["sides"] = identities.build_sides(name, self.order, self.seed)
                return True, ""

            step = timer.step(f"perturb:{name}:build", build, verdict=False)
            out.append(step)
            if not step.ok:  # counted as a failed verdict
                step.verdict = True
                continue
            sides = built["sides"]

            def baseline(sides=sides):
                report = identities.compare(sides)
                return report.passed, "" if report.passed else "unperturbed check failed"

            out.append(timer.step(f"perturb:{name}:none", baseline))
            expected = [lowest_nonzero(t) for t in sides.rhs_terms]
            for j, want in enumerate(expected):
                if want is None:
                    continue

                def work(sides=sides, j=j, want=want):
                    report = identities.compare(sides, perturb=j)
                    got = None if report.passed else report.first_failure.index
                    return got == want, f"term {j}: failed at {got}, expected {want}"

                out.append(timer.step(f"perturb:{name}:{j}", work))
        return out

    peak_rss_kb = Corpus.peak_rss_kb


def random_series(table, n, rng):
    return series.TruncSeries(table, n, [
        ring.RatFun.from_fraction(table, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for _ in range(n + 1)
    ])


class Inversion:
    """A and B = A^-1 multiply to the identity both ways, and the triangular
    solve and the closed formula give the same expansion of seeded series."""

    def __init__(self, seed, matrix_n, series_n, series_count):
        self.table = ring.SymbolTable(("q", "a", "b"))
        self.a = ring.RatFun.sym(self.table, "a")
        self.b = ring.RatFun.sym(self.table, "b")
        self.matrix_n = matrix_n
        rng = random.Random(f"{seed}:inversion")
        self.inputs = [random_series(self.table, series_n, rng)
                       for _ in range(series_count)]

    def run_pass(self, timer, tracer=None):
        a, b = self.a, self.b
        state = {}

        def forward():
            m = inversion.base_matrix(a, b, self.matrix_n)
            inv = inversion.lt_inverse(m)
            state["pair"] = (m, inv)
            return (m @ inv).is_identity(), "A@B is not the identity"

        def backward():
            m, inv = state["pair"]  # KeyError (a failed verdict) if forward raised
            return (inv @ m).is_identity(), "B@A is not the identity"

        out = [timer.step("inversion:A@B", forward), timer.step("inversion:B@A", backward)]
        for i, f in enumerate(self.inputs):
            def work(f=f):
                r1 = inversion.expand_triangular(f, a, b)
                r2 = inversion.expand_theorem15(f, a, b)
                agree = len(r1.coeffs) == len(r2.coeffs) and all(
                    x == y for x, y in zip(r1.coeffs, r2.coeffs))
                return agree, "expansion routes disagree"
            out.append(timer.step(f"inversion:routes:{i}", work))
        return out

    peak_rss_kb = Corpus.peak_rss_kb


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv, timeout=150):
    """Run a child process to completion; return (rc, stdout, stderr, rusage).

    Both pipes are drained by one selector loop, and the child is reaped
    with wait4 so its own CPU time and peak RSS are read, not the sum over
    all children.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=str(ROOT))
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = _clock() + timeout
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - _clock()
                if left <= 0:
                    raise TimeoutError(f"{argv[:4]} ran over {timeout} s")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:  # never leave the child running
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (proc.returncode, b"".join(chunks[proc.stdout]),
            b"".join(chunks[proc.stderr]), usage)


TRACE_MARK = "perfbench-trace "


class CliNumeric:
    """Fresh `qexpand numeric-verify --output json` processes: each exits 0,
    reports only "passed", and prints the same bytes on every pass."""

    def __init__(self, seed, precisions):
        self.argvs = [
            ["numeric-verify", "--output", "json", "--precision", str(p),
             "--seed", str(seed)]
            for p in precisions
        ]
        self.reference = {}  # argv -> sha256 of the first stdout seen
        self.pass_rss_kb = 0  # largest child peak RSS in the last pass
        self.startup = []  # traced children only: spawn to cli imported
        self.invoke = []  # traced children only: time inside cli.main

    def run_pass(self, timer, tracer=None):
        out = []
        self.pass_rss_kb = 0
        for argv in self.argvs:
            if tracer is None:
                cmd = [sys.executable, "-m", "qexpand.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]

            def work(argv=argv, cmd=cmd):
                spawned = time.time()
                rc, stdout, stderr, usage = run_child(cmd)
                self.pass_rss_kb = max(self.pass_rss_kb, usage.ru_maxrss)
                if tracer is not None:
                    self._take_trace(stderr, spawned, tracer)
                return self._judge(tuple(argv), rc, stdout)

            out.append(timer.step("cli:" + " ".join(argv), work, sample=False))
        return out

    def peak_rss_kb(self):
        return self.pass_rss_kb

    def _take_trace(self, stderr, spawned, tracer):
        lines = stderr.decode("utf-8", "replace").splitlines()
        marked = [ln for ln in lines if ln.startswith(TRACE_MARK)]
        if marked:
            snap = json.loads(marked[-1][len(TRACE_MARK):])
            self.startup.append(snap.pop("ready_at") - spawned)
            self.invoke.append(snap["spans"].get("cli.invoke", [0, 0.0])[1])
            tracer.merge(snap)

    def _judge(self, argv, rc, stdout):
        if rc != 0:
            return False, f"exit status {rc}"
        try:
            reports = json.loads(stdout)
        except ValueError:
            return False, "stdout is not JSON"
        bad = [r for r in reports if r.get("status") != "passed"]
        if not reports or bad:
            return False, f"{len(bad)} of {len(reports)} points not passed"
        digest = hashlib.sha256(stdout).hexdigest()
        first = self.reference.setdefault(argv, digest)
        if digest != first:
            return False, "stdout differs from the first pass"
        return True, ""


def make(name, seed, sizes=None):
    """Build workload `name` from `seed`; this is the timed set-up."""
    kinds = {
        "corpus": Corpus,
        "perturb_sweep": PerturbSweep,
        "inversion": Inversion,
        "cli_numeric": CliNumeric,
    }
    return kinds[name](seed, **(sizes or SIZES)[name])

