"""steinerkit benchmark: one seeded workload per run, checked by oracles.

    python3 perfbench/run.py --workload groups --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``workloads.py``):

  groups  structure queries on relabelled catalog groups (perms only)
  km      Kramer-Mesner searches on relabelled group files
  screen  parameter screens, sweeps, and large-design verify/derive

Each run generates its inputs from ``--seed``, measures the import of
``steinerkit`` in fresh processes (``setup_s``, median of several), then
runs the fixed task list in one fresh worker process as a closed loop with
one client, in at least MIN_PASSES passes and until ``--seconds`` of task
time are measured, then runs the short tasks again.  A task's latency is
its least calibrated latency over its runs: times are scaled to a
reference machine speed measured alongside (``speed.py``), because this
host's speed drifts.  Every output is
checked by an oracle; a failed check counts as a failed task and never
stops the run.  With ``--trace 1`` the worker also runs one pass with span
wrappers and the per-layer metrics replace the end-to-end ones.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs the three workloads in turn and prints every
metric by name.  ``--small`` runs a scaled-down task list (smoke check).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 6
MIN_PASSES = 2
# tasks under SHORT_TASK_S in the first pass run SHORT_TASK_RUNS times in all
SHORT_TASK_S = 0.3
SHORT_TASK_RUNS = 4
RUN_BUDGET_S = 170

sys.path.insert(0, HERE)
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("task_p50_s", "s"),
    ("task_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(Exception):
    pass


def percentile(values, share):
    """Nearest-rank percentile: at least (1 - share) of the values lie at or above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# a fixed string-hash seed: dict and set layouts, and so their speed, then
# repeat from run to run
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


def worker_command(*args):
    return [sys.executable, os.path.join(HERE, "worker.py"), *args]


def measure_setup(deadline):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(worker_command("--import-only", SRC), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()),
                              env=WORKER_ENV)
        if proc.returncode != 0:
            raise BenchError("import probe failed: %s" % proc.stderr.strip()[-500:])
        times.append(float(proc.stdout.split()[-1]))
    return times


def run_workload(workload, seed, seconds, trace, small):
    """Generate, run and check one workload; return (summary, metrics, units)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    setup_times = measure_setup(deadline)
    workdir = os.path.join(WORK, "%s-%s-%d" % (workload, seed, os.getpid()))
    os.makedirs(workdir)
    os.makedirs(OUT, exist_ok=True)
    try:
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        tasks, input_digest = workloads.generate(workload, seed, workdir, small=small)
        with open(os.path.join(workdir, "tasks.json"), "w", encoding="utf-8") as handle:
            json.dump(tasks, handle)
        trace_out = os.path.join(OUT, "trace-%s-seed%s.jsonl" % (workload, seed))
        spec = {"src": SRC, "tasks": "tasks.json", "seconds": seconds, "trace": trace,
                "min_passes": MIN_PASSES, "short_s": SHORT_TASK_S, "short_runs": SHORT_TASK_RUNS,
                "trace_out": trace_out}
        with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        proc = subprocess.run(
            worker_command("spec.json", "result.json"), cwd=workdir, capture_output=True,
            text=True, timeout=max(1.0, deadline - time.monotonic()), env=WORKER_ENV,
        )
        if proc.returncode != 0:
            raise BenchError("worker exited %d: %s" % (proc.returncode,
                                                       proc.stderr.strip()[-2000:]))
        with open(os.path.join(workdir, "result.json"), "r", encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = result["passes"] + ([result["traced"]] if trace else [])
    failures = [f for p in runs for f in p["failures"]]
    attempted = sum(len(p["ids"]) for p in runs)
    latencies = result["latencies"]
    walls = result["pass_walls"]
    summary = {
        "workload": workload, "seed": seed, "tasks": len(tasks), "passes": len(walls),
        "samples": result["samples"], "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted, "input_digest": input_digest,
        "output_digest": result["output_digest"], "failures": failures[:10],
        "pass_walls": walls, "probe_median_s": result["probe_median_s"],
    }
    if trace:
        metrics = dict(result["layers"])
        metrics["trace.overhead_s"] = result["traced"]["wall"] - statistics.median(walls)
        summary["trace_file"] = os.path.relpath(trace_out, ROOT)
        summary["traced_wall_s"] = result["traced"]["wall"]
        units = spans.metric_units()
    else:
        metrics = {
            "wall_s": sum(latencies),
            "task_p50_s": statistics.median(latencies),
            "task_p90_s": percentile(latencies, 0.9),
            "setup_s": statistics.median(setup_times + [result["setup"][1]]),
            "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        }
        units = dict(END_TO_END)
    return summary, metrics, units


def report(summary, metrics, units):
    print("# workload %(workload)s seed %(seed)s: %(tasks)d tasks, %(passes)d full passes, "
          "%(samples)d latency samples" % summary)
    print("# raw pass walls %s s; median probe %.6f s, reference %.6f s" % (
        ", ".join("%.3f" % w for w in summary["pass_walls"]), summary["probe_median_s"],
        speed.REFERENCE_S))
    print("# input digest %(input_digest)s" % summary)
    print("# output digest %s" % summary["output_digest"])
    if "trace_file" in summary:
        print("# traced pass %.3f s raw; spans in %s" % (summary["traced_wall_s"],
                                                      summary["trace_file"]))
    for failure in summary["failures"]:
        print("# FAILED task %(task)s: %(reason)s" % failure)
    for name, value in metrics.items():
        print("%-10s %-38s %-16r %s" % (summary["workload"], name, value, units[name]))
    print("%-10s %-38s %-16r %s" % (summary["workload"], "failed_frac", summary["failed_frac"],
                                    "ratio"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="scaled-down task lists")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "steinerkit", "__init__.py")):
        print("error: no steinerkit sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, combined = True, 0, 0, {}
    for name in names:
        try:
            summary, metrics, units = run_workload(name, args.seed, args.seconds,
                                                   bool(args.trace), args.small)
        except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        report(summary, metrics, units)
        correct = correct and summary["failed"] == 0
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for key, value in metrics.items():
            combined[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
