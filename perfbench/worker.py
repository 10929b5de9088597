"""One workload in a fresh, single-threaded process.

Run by ``run.py`` as ``python3 worker.py SPEC RESULT`` from the directory
holding the generated inputs.  It times the import of ``steinerkit`` and
``steinerkit.cli``, then runs the task list as a closed loop with one
client: each task starts when the previous one and its oracle check are
done.  Passes repeat until ``min_passes`` are done and ``seconds`` of task
time are measured, then the tasks shorter than ``short_s`` run until they
have ``short_runs`` runs, all with the speed probe of ``speed.py``
running; with ``trace`` set, one more pass runs with span wrappers
installed and no probe.  The result goes to RESULT as JSON.
``python3 worker.py --import-only SRC`` prints the raw and calibrated
import time alone.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import speed


def timed_import(src):
    """(raw, calibrated) seconds to import steinerkit and steinerkit.cli."""
    sys.path.insert(0, src)

    def measure():
        start = time.perf_counter()
        import steinerkit  # noqa: F401
        import steinerkit.cli  # noqa: F401

        return time.perf_counter() - start

    return speed.calibrated_once(measure)


def load_group(path):
    from steinerkit.perms import group_from_json_dict

    with open(path, "r", encoding="utf-8") as handle:
        return group_from_json_dict(json.load(handle))


def run_task(task):
    """Run one task; return (outcome, output digest text)."""
    kind = task["kind"]
    if kind == "cli":
        import steinerkit.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = steinerkit.cli.main(task["argv"])
        return (rc, out.getvalue(), err.getvalue()), "%d\n%s" % (rc, out.getvalue())
    group = load_group(task["group"])
    if kind == "setwise":
        stab = group.stabilizer_setwise(task["block"])
    elif kind == "point_in_block":
        stab = group.stabilizer_point_in_block(task["point"], task["block"])
    elif kind == "member":
        from steinerkit.perms import Permutation

        verdicts = [Permutation(images) in group for images in task["perms"]]
        return verdicts, json.dumps(verdicts)
    else:
        raise ValueError("unknown task kind %r" % (kind,))
    gens = sorted(list(g.images) for g in stab.generators)
    return (group, stab), json.dumps([stab.order, gens])


def check_task(task, outcome):
    import oracles

    check = task["check"]
    kind = task["kind"]
    if kind == "cli":
        rc, out, err = outcome
        if rc not in (0, 1):
            return "exit %d: %s" % (rc, err.strip()[-200:])
        return oracles.check_cli(check, rc, out)
    if kind == "member":
        return oracles.check_member(check, outcome)
    group, stab = outcome
    return oracles.check_setwise(check, task, group, stab)


def run_pass(tasks, clear_caches, reference=None, tracer=None):
    """One closed-loop pass over ``tasks``.

    ``reference`` maps task id to (output digest, oracle verdict) from the
    first pass, whose outputs all went through the oracles.  A later output
    must be byte-identical to the first; it then carries the same verdict.
    """
    clear_caches()
    gc.collect()  # no garbage from the previous pass, so peak memory repeats
    latencies, intervals, failures, outputs, errors = [], [], [], [], []
    for task in tasks:
        if tracer:
            tracer.task = task["id"]
            tracer.paused = False
        start = time.perf_counter()
        try:
            outcome, text = run_task(task)
            error = None
        except Exception:
            outcome, text, error = None, "", traceback.format_exc(limit=3)
        end = time.perf_counter()
        latencies.append(end - start)
        intervals.append((start, end))
        if tracer:
            tracer.paused = True
            if task["kind"] == "cli" and outcome:
                tracer.counts["cli.stdout_bytes"] += len(outcome[1])
        output = hashlib.sha256(text.encode()).hexdigest()
        if error is None:
            if reference is None:
                try:
                    error = check_task(task, outcome)
                except Exception:
                    error = "oracle raised: " + traceback.format_exc(limit=3)
            elif reference[task["id"]][0] != output:
                error = "output differs from the first pass"
            else:
                error = reference[task["id"]][1]
        outputs.append(output)
        errors.append(error)
        if error:
            failures.append({"task": task["id"], "reason": error})
    return {"ids": [task["id"] for task in tasks], "latencies": latencies,
            "intervals": intervals, "wall": sum(latencies), "failures": failures,
            "outputs": outputs, "errors": errors}


def main(argv):
    if argv[0] == "--import-only":
        print("%r %r" % timed_import(argv[1]))
        return 0
    with open(argv[0], "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    result = {"setup": timed_import(spec["src"])}
    import steinerkit.gf

    # each pass starts with a cold field cache, as a fresh CLI process would
    clear_caches = steinerkit.gf.field.cache_clear
    with open(spec["tasks"], "r", encoding="utf-8") as handle:
        tasks = json.load(handle)
    passes, reference = [], None
    with speed.SpeedProbe() as probe:
        while len(passes) < spec["min_passes"] or sum(p["wall"] for p in passes) < spec["seconds"]:
            passes.append(run_pass(tasks, clear_caches, reference))
            if reference is None:
                first = passes[0]
                reference = dict(zip(first["ids"], zip(first["outputs"], first["errors"])))
        full = len(passes)
        # short tasks jitter by 10% from run to run: give them more samples
        short = [t for t, lat in zip(tasks, passes[0]["latencies"]) if lat < spec["short_s"]]
        for _ in range(spec["short_runs"] - full):
            passes.append(run_pass(short, clear_caches, reference))
    samples = {task["id"]: [] for task in tasks}
    for p in passes:
        for task_id, interval in zip(p["ids"], p.pop("intervals")):
            samples[task_id].append(probe.calibrate(*interval))
    result["latencies"] = [min(samples[task["id"]]) for task in tasks]
    result["samples"] = sum(len(s) for s in samples.values())
    result["pass_walls"] = [p["wall"] for p in passes[:full]]
    result["probe_median_s"] = statistics.median(probe.durations)
    result["passes"] = passes
    result["output_digest"] = hashlib.sha256("".join(passes[0]["outputs"]).encode()).hexdigest()
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        traced = run_pass(tasks, clear_caches, reference, tracer)
        del traced["intervals"]
        tracer.paused = True
        tracer.write(spec["trace_out"])
        result["traced"] = traced
        result["layers"] = tracer.layer_metrics()
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
