"""Benchmark of shufflesc: exact answers that take seconds to compute.

Usage (from the repository root):

    python3 perfbench/run.py --workload explore --seed 1 --seconds 30 --trace 0

A closed loop with one client: each job runs in a fresh interpreter, with
every cache cold, and only after the previous job has ended.  Interpreter
start plus `import shufflesc` is timed apart as set-up.  A run repeats the
workload's fixed job list, in an order shuffled by the seed, at least twice
and then while the time budget allows, and reports per-job medians over
those passes.  Every job's output is checked against golden digests
recorded at the seed commit and against known facts; a mismatch or a wrong
exit code counts as a failed job.

Times are reported in seconds at a nominal host speed.  On a shared host the
speed of Python drifts by up to a factor of two within seconds, so the
worker times a small fixed probe kernel before, during and after each job
(see worker.SpeedProbe), and each time is scaled by scale().  The raw wall
time and the probe's median time are printed as host.wall_s and
host.probe_s.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the passes alternate between untraced and traced; the traced ones
give the per-layer metrics (self times from spans the worker records around
the public layer functions) and the difference between the two kinds of
pass is the tracing overhead.  The spans and a result record stamped with
the environment are written under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".bench_out"
REPORT_TAG = "@@perfbench "
# No job starts after this many seconds of a run, and a job still running
# then is stopped and counted as failed, so a run ends within three minutes
# even when the program has become much slower.
DEADLINE_S = 150
# The median time of the worker's speed probe on the host the benchmark was
# tuned on (2 cores at 2.0 GHz, CPython 3.11.7).  Timings are reported in
# seconds at that speed; see scale().
PROBE_NOMINAL_S = 0.0018
# How a job's time follows the probe's time when the host slows: the slope of
# log(job time) on log(probe time), fitted per job over repeated runs of all
# fifteen jobs on that host, lies between 0.64 and 0.85 (pooled 0.74).
PROBE_ELASTICITY = 0.75


def f_bound(m, n):
    """Valid-tableau count, written out independently of the package."""
    return (1 << (m * n - 1)) + (1 << ((m - 1) * (n - 1))) * ((1 << (m - 1)) - 1) * (
        (1 << (n - 1)) - 1
    )


def _reach_facts(m, n, levels=None):
    def check(out, _):
        obj = json.loads(out)
        hist = {}
        for t in obj["tableaux"]:
            hist[t["depth"]] = hist.get(t["depth"], 0) + 1
        return (obj["count"] == f_bound(m, n) and obj["complete"]
                and (levels is None or [hist[d] for d in sorted(hist)] == levels))
    return check


def _conjecture_text_facts(m, n):
    def check(out, _):
        found = re.search(r": holds, (\d+)/(\d+) valid tableaux reached", out)
        return bool(found) and int(found[1]) == int(found[2]) == f_bound(m, n)
    return check


def _conjecture_json_facts(m, n):
    def check(out, _):
        obj = json.loads(out)
        return obj["status"] == "holds" and (
            obj["reachable_count"] == obj["valid_count"] == f_bound(m, n))
    return check


def _sc_facts(m, n, maximizers=None):
    def check(out, _):
        obj = json.loads(out)
        return obj["state_complexity"] == obj["reachable"] == obj["f_bound"] == f_bound(m, n) and (
            maximizers is None or len(obj["maximizers"]) == maximizers)
    return check


def _cli(line, facts=None):
    return {"id": line, "spec": {"kind": "cli", "argv": line.split()}, "facts": facts}


def _lib(call, m, n, facts):
    return {"id": f"{call} {m} {n}", "spec": {"kind": "lib", "call": call, "m": m, "n": n},
            "facts": facts}


# Why each workload: see BENCHMARK.json.  The sizes are part of the definition.
WORKLOADS = {
    "explore": [
        _cli("--format json reach 3 4", _reach_facts(3, 4, [1, 11, 398, 2684, 298])),
        _cli("--format json reach 2 6", _reach_facts(2, 6)),
        _cli("conjecture 3 4", _conjecture_text_facts(3, 4)),
        _cli("conjecture 3 4 --dense", _conjecture_text_facts(3, 4)),
        _cli("--format json conjecture 2 6", _conjecture_json_facts(2, 6)),
    ],
    "sc": [
        _cli("--format json sc 3 3", _sc_facts(3, 3, maximizers=36)),
        _cli("--format json sc 2 4", _sc_facts(2, 4)),
    ],
    "pathcalc": [
        _lib("witness", 5, 5, lambda out, res: res["ok"]),
        _cli("--format json graded 5 3",
             lambda out, _: (lambda o: o["count"] == len(o["vectors"]))(json.loads(out))),
        _cli("succ 7 5 2 --oracle", lambda out, _: "agree=True" in out),
        _cli("sequence 10 200"),
        _cli("series 40", lambda out, _: out.startswith("constructions agree: True\n")),
        _cli("coeffs 20"),
    ],
    "classical": [
        _lib("classical", 2, 4, lambda out, res: res["states"] == f_bound(2, 4)),
        _lib("classical", 3, 3, lambda out, res: res["states"] == f_bound(3, 3)),
    ],
}

END_TO_END = {"wall_s": "s", "max_job_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# Per-layer metrics: span name -> counts recorded on its spans.  Each layer
# also reports its self time (.s) and its failed calls (.failed); a count
# listed in RATES is also reported per second of self time.
LAYER_COUNTS = {
    "monster.reach": ("states", "levels"),
    "monster.valid_scan": ("masks",),
    "upair.dense_scan": ("masks",),
    "monster.refine": ("final_pairs",),
    "upair.graded": ("vectors",),
    "conjecture.witness": ("cases",),
    "enumeration.totals": (),
    "enumeration.series": (),
    "enumeration.coeffs": (),
    "enumeration.oracle": ("maps",),
    "automata.shuffle_nfa": (),
    "automata.determinize": ("states",),
    "automata.minimize": ("classes",),
    "cli.render": (),
}
RATES = {"monster.reach": "states", "monster.valid_scan": "masks",
         "upair.dense_scan": "masks", "monster.refine": "final_pairs",
         "upair.graded": "vectors"}


def per_layer_units():
    units = {}
    for layer, counts in LAYER_COUNTS.items():
        units[f"{layer}.s"] = "s"
        for c in counts:
            units[f"{layer}.{c}"] = "count"
        if layer in RATES:
            units[f"{layer}.{RATES[layer]}_per_s"] = "1/s"
        units[f"{layer}.failed"] = "count"
    units.update({"job.cpu_s": "s", "failed_ratio": "ratio", "trace.overhead_s": "s",
                  "host.wall_s": "s", "host.probe_s": "s"})
    return units


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Fixed hashing, so set iteration order, and with it the work done, is the
    # same on every run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(job, trace, env, timeout=DEADLINE_S):
    """Runs one job in a fresh interpreter and returns its record."""
    spec = dict(job["spec"], trace=trace)
    out_path = OUT_DIR / "job.out"
    # The job writes to a file, not a pipe, so a write never waits on this
    # process to drain it.
    with open(out_path, "wb") as out_file:
        spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT,
                                  env=env, stdout=out_file, stderr=subprocess.PIPE,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"id": job["id"], "traced": trace, "ok": False, "error": "timeout"}
    stdout = out_path.read_bytes()
    lines = proc.stderr.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith(REPORT_TAG):
        return {"id": job["id"], "traced": trace, "ok": False,
                "error": f"worker exit {proc.returncode}: " + "\n".join(lines[-5:])}
    rep = json.loads(lines[-1][len(REPORT_TAG):])
    record = {"id": job["id"], "traced": trace, "setup_s": rep["ready"] - spawn, "exit": rep["exit"],
              "speed_s": rep["speed_s"], "speed_before_s": rep["speed_before_s"]}
    if job["spec"]["kind"] == "import":
        record["ok"] = Path(rep["package"]).resolve().is_relative_to(ROOT / "src")
        if not record["ok"]:
            record["error"] = f"imported {rep['package']}"
        return record
    out = stdout.decode()
    result = rep.get("result") or {}
    digest = result.get("digest") or hashlib.sha256(stdout).hexdigest()
    record.update(work_s=rep["work_s"], cpu_s=rep["cpu_s"], probes=rep["probes"],
                  rss_mib=rep["rss_kib"] / 1024, digest=digest, spans=rep["spans"])
    ok = rep["exit"] == 0 and digest == job.get("golden")
    if ok and job["facts"] is not None:
        try:
            ok = bool(job["facts"](out, result))
        except (ValueError, KeyError, TypeError):
            ok = False
    record["ok"] = ok
    return record


def scale(rec, speed="speed_s"):
    """Factor from a job's measured seconds to seconds at the nominal speed."""
    return (PROBE_NOMINAL_S / rec[speed]) ** PROBE_ELASTICITY


def layer_metrics(records):
    """Per-layer totals of one traced pass: self time, counts and failures."""
    acc = {layer: {"s": 0.0, "failed": 0, **{c: 0 for c in counts}}
           for layer, counts in LAYER_COUNTS.items()}
    for rec in records:
        spans = rec.get("spans", [])
        child_s = [0.0] * len(spans)
        for sid, parent, _, start, end, _, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        for sid, _, name, start, end, counts, failed in spans:
            if name not in acc:
                continue  # speed probes: only taken out of their parent's self time
            layer = acc[name]
            layer["s"] += (end - start - child_s[sid]) * scale(rec)
            layer["failed"] += failed
            for c, v in counts.items():
                layer[c] += v
    flat = {}
    for layer, vals in acc.items():
        for k, v in vals.items():
            flat[f"{layer}.{k}"] = v
        if layer in RATES:
            count = vals[RATES[layer]]
            flat[f"{layer}.{RATES[layer]}_per_s"] = count / vals["s"] if vals["s"] else 0.0
    flat["job.cpu_s"] = sum(r["cpu_s"] * scale(r) for r in records if "cpu_s" in r)
    return flat


def job_medians(records, value):
    """Median of value(record) over the passes, per job."""
    by_job = {}
    for r in records:
        by_job.setdefault(r["id"], []).append(value(r))
    return {job: median(vals) for job, vals in by_job.items()}


def measure(workload, seed, seconds, trace, jobs=None, golden=None):
    """Runs passes over the workload's jobs for about `seconds`; returns the
    metrics, the job counts and the passes as (traced, job records)."""
    golden = json.loads(GOLDEN.read_text()) if golden is None else golden
    jobs = [dict(j, golden=golden.get(j["id"])) for j in (jobs or WORKLOADS[workload])]
    env = worker_env()
    OUT_DIR.mkdir(exist_ok=True)
    warm = run_job({"id": "import", "spec": {"kind": "import"}, "facts": None}, False, env)
    if not warm["ok"]:
        raise RuntimeError(f"cannot import shufflesc from {ROOT / 'src'}: {warm['error']}")
    rng = random.Random(seed)
    passes = []  # (traced, records)
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    while time.perf_counter() < deadline:
        traced = bool(trace) and len(passes) % 2 == 1
        records = []
        for job in rng.sample(jobs, len(jobs)):
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            records.append(run_job(job, traced, env, timeout=left))
        passes.append((traced, records))
        elapsed = time.perf_counter() - start
        # Two passes at least: a run that fits one pass only happens when the
        # host is slow, and one sample per job then spreads the results.
        if len(passes) >= 2 and elapsed + elapsed / len(passes) > seconds:
            break
    records = [r for _, recs in passes for r in recs]
    failed = sum(not r["ok"] for r in records)
    timed = [r for r in records if "work_s" in r]
    plain = [r for r in timed if not r["traced"]]
    if not plain:
        raise RuntimeError("no job ran to completion")
    work = job_medians(plain, lambda r: r["work_s"] * scale(r))
    metrics = {
        "wall_s": sum(work.values()),
        "max_job_s": max(work.values()),
        # Set-up ends just before the first probes, so it is scaled by those.
        "setup_s": median(r["setup_s"] * scale(r, "speed_before_s") for r in timed),
        "peak_rss_mib": max(job_medians(plain, lambda r: r["rss_mib"]).values()),
        "host.wall_s": sum(job_medians(plain, lambda r: r["work_s"]).values()),
        "host.probe_s": median(r["speed_s"] for r in timed),
    }
    traced_passes = [recs for traced, recs in passes if traced]
    if traced_passes:
        per_pass = [layer_metrics(recs) for recs in traced_passes]
        for name in per_pass[0]:
            metrics[name] = median(p[name] for p in per_pass)
        traced_work = job_medians([r for r in timed if r["traced"]],
                                  lambda r: r["work_s"] * scale(r))
        metrics["trace.overhead_s"] = sum(traced_work.values()) - metrics["wall_s"]
    metrics["failed_ratio"] = failed / len(records)
    return {"metrics": metrics, "attempted": len(records), "failed": failed,
            "passes": passes}


def read_commit():
    """The commit of the checkout, read from .git without running git."""
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
        pass
    return "unknown"


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def print_layer_table(metrics):
    """Per-layer self times of the traced passes, one row per layer."""
    print(f"{'layer':24} {'self_s':>10} {'failed':>6}  counts")
    for layer, counts in LAYER_COUNTS.items():
        shown = " ".join(f"{c}={metrics[f'{layer}.{c}']:g}" for c in counts)
        print(f"{layer:24} {metrics[f'{layer}.s']:10.4f} {metrics[f'{layer}.failed']:6g}  {shown}")


def main(argv=None, jobs=None):
    """Runs the benchmark; `jobs` narrows the workload's job list (for tests)."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not GOLDEN.is_file():
        print(f"error: golden digests missing: {GOLDEN}", file=sys.stderr)
        return 2
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)), "commit": read_commit(),
           "loadavg_start": loadavg()}
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace, jobs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = loadavg()
    passes = res["passes"]
    env["orders"] = [[r["id"] for r in recs] for _, recs in passes]
    print("env: " + json.dumps(env))
    for traced, recs in passes:
        for r in recs:
            if not r["ok"]:
                print(f"FAILED job {r['id']!r}: {r.get('error') or 'wrong exit code or output'}")
    if args.trace:
        print_layer_table(res["metrics"])
    else:
        print("host: raw wall %.4f s, probe %.6f s" % (res["metrics"]["host.wall_s"],
                                                    res["metrics"]["host.probe_s"]))
    units = per_layer_units() if args.trace else END_TO_END
    metrics = {k: {"value": res["metrics"][k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"{k:34} {m['value']:>16.6g} {m['unit']}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [{"pass": p, "job": r["id"], "id": s[0], "parent": s[1], "name": s[2], "start": s[3],
              "end": s[4], "counts": s[5], "failed": s[6]}
             for p, (traced, recs) in enumerate(passes) if traced
             for r in recs for s in r.get("spans", [])]
    (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps(spans))
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "metrics": res["metrics"], "attempted": res["attempted"],
         "failed": res["failed"],
         "jobs": [dict({k: v for k, v in r.items() if k != "spans"}, pass_no=p)
                  for p, (traced, recs) in enumerate(passes) for r in recs]}, indent=1))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
