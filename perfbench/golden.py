"""Records the golden output digest of every benchmark job.

Usage (from the repository root): python3 perfbench/golden.py

Runs each job of every workload once and writes perfbench/golden.json.  A
job that exits nonzero or breaks one of its known facts is not recorded, and
the script exits 1; rerun it only on a commit whose outputs are trusted.
"""

import json
import sys

import run


def main():
    env = run.worker_env()
    golden, bad = {}, []
    for jobs in run.WORKLOADS.values():
        for job in jobs:
            rec = run.run_job(dict(job, golden=None), False, env)
            if "digest" not in rec:
                bad.append(f"{job['id']}: {rec.get('error')}")
                continue
            rec = run.run_job(dict(job, golden=rec["digest"]), False, env)
            if rec["ok"]:
                golden[job["id"]] = rec["digest"]
            else:
                bad.append(f"{job['id']}: wrong exit code, unsteady output or broken fact")
    for line in bad:
        print(line, file=sys.stderr)
    if bad:
        return 1
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
