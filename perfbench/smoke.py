"""Smoke check of the benchmark harness itself.

    python3 perfbench/smoke.py

Runs the scaled-down task list of every workload (``run.py --small``) and
asserts that the end-to-end and per-layer metric names are all reported
with their units, that every oracle check passes and is live (it rejects a
planted wrong answer), that the traced run writes spans for the layers it
exercised, and that two runs with the same seed produce identical input
and output digests while another seed changes the inputs.  Exits 0 when
every assertion holds.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

LAYERS_USED = {
    "groups": {"perms", "catalog", "gf", "cli"},
    "km": {"perms", "kramer_mesner", "designs", "cli"},
    "screen": {"admissibility", "blocktrans", "designs", "catalog", "cli"},
}


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, lines
    digests = {line.split()[1]: line.split()[3] for line in lines if line.startswith("# ")
               and " digest " in line}
    return result, digests


def check_metrics(result, expected_units):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected_units, set(got) ^ set(expected_units)
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def check_trace_file(workload, seed):
    path = os.path.join(ROOT, ".perfbench_out", "trace-%s-seed%s.jsonl" % (workload, seed))
    with open(path, "r", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    layers = {r["layer"] for r in records}
    assert LAYERS_USED[workload] <= layers, (workload, layers)
    assert all(r["task"] is not None and r["end"] >= r["start"] for r in records)
    ids = {r["id"] for r in records}
    assert all(r["parent"] is None or r["parent"] in ids for r in records)


def check_oracles_reject():
    """Each oracle family flags a planted wrong answer."""
    gens = [[1, 2, 3, 4, 5, 6, 0]]
    fano = json.dumps({"t": 2, "v": 7, "k": 3, "lambda": 1,
                       "blocks": [[0, 1, 3], [0, 2, 6], [0, 4, 5], [1, 2, 4], [1, 5, 6],
                                  [2, 3, 5], [3, 4, 6]]})
    km = {"t": 2, "k": 3, "lambda": 1, "generators": gens, "count": 1}
    assert oracles.check_km(km, 0, fano) is None
    assert oracles.check_km(dict(km, count=2), 0, fano)
    broken = fano.replace("[3, 4, 6]", "[3, 4, 5]")
    assert oracles.check_km(km, 0, broken)
    assert oracles.check_homogeneity({"transitivity": 3, "homogeneity": 3}, 0, json.dumps(
        {"transitivity_degree": 2, "homogeneity_degree": 3}))
    verify = {"witness": {"subset": [0, 1, 2], "count": 0}}
    report = {"is_design": False, "covered_lambda": None,
              "failing_witness": {"subset": [0, 1, 3], "count": 0}}
    assert oracles.check_verify(verify, 1, json.dumps(report))
    admissible = {"t": 2, "v": 7, "k": 3, "lambda": 1}
    wrong = {"admissible": False, "conditions": [
        {"condition": "integrality-all-s", "status": "fail"}]}
    assert oracles.check_admissible(admissible, 1, json.dumps(wrong))


def main():
    check_oracles_reject()
    e2e_units = dict(run.END_TO_END)
    layer_units = spans.metric_units()
    for workload in ("groups", "km", "screen"):
        first, d1 = bench(workload, 7, trace=1)
        check_metrics(first, layer_units)
        check_trace_file(workload, 7)
        assert first["metrics"]["trace.spans"]["value"] > 0
        second, d2 = bench(workload, 7, trace=0)
        check_metrics(second, e2e_units)
        assert d1 == d2 and d1["output"] != "None", (d1, d2)
        _, d3 = bench(workload, 8, trace=0)
        assert d3["input"] != d1["input"], "seeds 7 and 8 gave the same inputs"
        print("smoke %s: ok (%d tasks attempted, digests %s)" % (
            workload, first["attempted"], d1["input"][:12]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
