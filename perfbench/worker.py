"""One benchmark job in a fresh interpreter, as a CLI user pays for it.

Usage: python3 perfbench/worker.py '<job spec as JSON>'

The spec is {"kind": "cli", "argv": [...]} for a `shufflesc` command line,
{"kind": "lib", "call": "witness" | "classical", "m": m, "n": n} for a
library job, or {"kind": "import"} to check that the package imports.  A
"trace": true entry wraps the public layer functions in timing spans.

The CLI output goes to stdout untouched.  The last line of stderr is the
job's report: one JSON object after REPORT_TAG, holding the monotonic clock
reading once `shufflesc` is imported, the job's time and CPU time without
the speed probes, its peak resident set, the probes' median time, the exit
code, a library job's result and the spans.  CLOCK_MONOTONIC is system-wide,
so the parent subtracts its own spawn time from the import time to get the
set-up cost.
"""

import sys
import time

# Set-up, as the parent times it, ends once the package and its CLI are loaded.
import shufflesc
import shufflesc.cli

READY = time.perf_counter()

import gc  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from itertools import product  # noqa: E402

REPORT_TAG = "@@perfbench "
PROBE_INTERVAL_S = 0.05
PROBES_AROUND = 12


def probe():
    """Times one run of a fixed pure-Python kernel (integer hashing, a small
    dict and set, sorting) that touches nothing of the package."""
    was_enabled = gc.isenabled()
    gc.disable()  # a collection of the job's heap must not land in the probe
    start = time.perf_counter()
    x = 1
    table = {}
    for i in range(2000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        table[x >> 52] = (i, x & 0xFF)
    {frozenset((k & 7, k & 56, v[1])) for k, v in sorted(table.items())}
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


class SpeedProbe:
    """How fast this core runs Python around and during the job.

    Other tenants of a shared host slow it by up to a factor of two, changing
    within a second and differently on each core.  So the probe kernel runs
    PROBES_AROUND times just before and just after the job, and once every
    PROBE_INTERVAL_S during it from a timer signal.  The parent scales the
    job's times by the median probe time.  The time spent in probes during
    the job is taken out of the job's time, and, when traced, out of the
    span it interrupted.  No change to the package can move the probe, but
    the job's own data in the caches slows the probes taken during it a
    little (5-20% on these jobs), so a change to a job's memory footprint
    can move the scale by a part of that.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = []
        self.in_job_s = 0.0

    def around(self):
        self.samples += [probe() for _ in range(PROBES_AROUND)]

    def _tick(self, signum, frame):
        start = time.perf_counter()
        span = self.tracer.open("bench.probe") if self.tracer.installed else None
        self.samples.append(probe())
        if span is not None:
            self.tracer.close(span, None)
        self.in_job_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed_s(self, first=None):
        """Median probe time, over the first `first` samples or all."""
        return statistics.median(self.samples[:first])


def _final_pairs(args):
    m, n = args[0], args[1]
    return {"final_pairs": ((1 << m) - 1) * ((1 << n) - 1)}


def _masks(args):
    return {"masks": 1 << (args[0] * args[1])}


# (module, function, span name, counts from (positional args, result)).
# Every binding of the function inside the package is replaced, so calls
# between modules (conjecture -> monster, coeffs -> totals) are traced too.
LAYERS = (
    ("monster", "reachable_tableaux", "monster.reach",
     lambda a, r: {"states": r.count, "levels": len(r.depth_histogram())}),
    ("monster", "all_valid_tableaux", "monster.valid_scan", lambda a, r: _masks(a)),
    ("upair", "enumerate_dense", "upair.dense_scan", lambda a, r: _masks(a)),
    ("monster", "state_complexity_shuffle", "monster.refine", lambda a, r: _final_pairs(a)),
    ("upair", "generate_graded", "upair.graded", lambda a, r: {"vectors": len(r)}),
    ("conjecture", "verify_witnesses", "conjecture.witness",
     lambda a, r: {"cases": len(r.cases)}),
    ("enumeration", "r_total", "enumeration.totals", None),
    ("enumeration", "series_direct", "enumeration.series", None),
    ("enumeration", "series_closed", "enumeration.series", None),
    ("enumeration", "closed_form_coeffs", "enumeration.coeffs", None),
    ("enumeration", "succ_count_oracle", "enumeration.oracle",
     lambda a, r: {"maps": a[0] ** a[1]}),
    ("automata", "shuffle_nfa", "automata.shuffle_nfa", None),
    ("automata", "determinize", "automata.determinize",
     lambda a, r: {"states": r.state_count}),
    ("automata", "minimize", "automata.minimize", lambda a, r: {"classes": r.state_count}),
    # The CLI's self time, once the library calls above are taken out, is
    # argument parsing plus rendering the result.  A nonzero exit fails it.
    ("cli", "main", "cli.render", lambda a, r: {"failed": int(r != 0)}),
)


class Tracer:
    """Spans kept in memory: [id, parent id, name, start, end, counts, failed]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.installed = False

    def open(self, name):
        span = [len(self.spans), self.stack[-1][0] if self.stack else None, name,
                time.perf_counter(), None, {}, 0]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span, counts):
        span[4] = time.perf_counter()
        self.stack.pop()
        if counts:
            span[5] = counts

    def wrap(self, fn, name, count):
        if inspect.isgeneratorfunction(fn):
            # The span of a generator runs from its first step to exhaustion.
            def traced_gen(*args, **kwargs):
                span = self.open(name)
                try:
                    yield from fn(*args, **kwargs)
                except BaseException:
                    span[6] = 1
                    raise
                finally:
                    self.close(span, count(args, None) if count else None)

            return traced_gen

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = 1
                self.close(span, None)
                raise
            counts = count(args, result) if count else None
            if counts and "failed" in counts:
                span[6] = counts.pop("failed")
            self.close(span, counts)
            return result

        return traced

    def install(self):
        self.installed = True
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "shufflesc" or name.startswith("shufflesc."))]
        for mod_name, fn_name, span_name, count in LAYERS:
            original = getattr(sys.modules["shufflesc." + mod_name], fn_name)
            wrapper = self.wrap(original, span_name, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def _classical(m, n):
    """Shuffle NFA, subset construction and minimization of the two
    full-transition automata with finals {1} on the full letter set."""
    from shufflesc import MonsterLetter, Transformation
    from shufflesc.monster import monster_dfa

    letters = [
        MonsterLetter(Transformation(f), Transformation(g))
        for f in product(range(m), repeat=m)
        for g in product(range(n), repeat=n)
    ]
    left = monster_dfa(m, {1}, letters, "left")
    right = monster_dfa(n, {1}, letters, "right")
    return shufflesc.minimize(shufflesc.determinize(shufflesc.shuffle_nfa(left, right)))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(call, value):
    """A canonical form of a library job's result: its digest and the facts
    the parent checks."""
    if call == "witness":
        body = json.dumps(value.to_json(), sort_keys=True, separators=(",", ":"))
        return {"digest": _digest(body), "ok": value.ok()}
    rows = [[value.delta[(q, a)] for a in value.alphabet] for q in range(value.state_count)]
    body = json.dumps([value.state_count, value.initial, sorted(value.finals),
                       [[list(a.left.images), list(a.right.images)] for a in value.alphabet],
                       rows], separators=(",", ":"))
    return {"digest": _digest(body), "states": value.state_count}


def peak_rss_kib():
    """Peak resident set of this process since exec (VmHWM).  ru_maxrss is
    not used: Linux keeps it across exec, so it would include the parent's
    resident set at fork time."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    spec = json.loads(sys.argv[1])
    report = {"ready": READY, "exit": 0}
    tracer = Tracer()
    speed = SpeedProbe(tracer)
    speed.around()
    report["speed_before_s"] = speed.speed_s(PROBES_AROUND)
    if spec["kind"] == "import":
        report["package"] = shufflesc.__file__
        report["speed_s"] = speed.speed_s()
        print(REPORT_TAG + json.dumps(report), file=sys.stderr)
        return 0
    if spec.get("trace"):
        tracer.install()
    value = None
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        with speed:
            if spec["kind"] == "cli":
                report["exit"] = shufflesc.cli.main(spec["argv"])
            elif spec["call"] == "witness":
                value = shufflesc.verify_witnesses(spec["m"], spec["n"])
            else:
                value = _classical(spec["m"], spec["n"])
            sys.stdout.flush()
    except Exception:
        traceback.print_exc()
        report["exit"] = "exception"
    t1 = time.perf_counter()
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)
    report.update(
        work_s=t1 - t0 - speed.in_job_s,
        cpu_s=(cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime) - speed.in_job_s,
        rss_kib=peak_rss_kib(),
        spans=tracer.spans,
    )
    if value is not None:
        report["result"] = _canonical(spec["call"], value)
        del value
    speed.around()
    report["speed_s"] = speed.speed_s()
    report["probes"] = len(speed.samples)
    print(REPORT_TAG + json.dumps(report), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
