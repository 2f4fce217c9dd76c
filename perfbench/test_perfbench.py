"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json

import pytest

import run

SMALLEST = {
    "explore": "--format json reach 3 4",
    "sc": "--format json sc 2 4",
    "pathcalc": "coeffs 20",
    "classical": "classical 2 4",
}


def _job(workload):
    return [j for j in run.WORKLOADS[workload] if j["id"] == SMALLEST[workload]]


def _declared(kind):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("workload", sorted(SMALLEST))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], jobs=_job(workload))
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    table = "\n".join(lines[:-1])
    for name, unit in declared.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit
                   for line in table.splitlines() if line.strip()), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_golden_digest_counts_as_failed():
    res = run.measure("pathcalc", 7, 0, 0, jobs=_job("pathcalc"),
                      golden={SMALLEST["pathcalc"]: "0" * 64})
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]
    assert res["metrics"]["failed_ratio"] > 0
