"""Benchmark of the wreathprob CLI: cold-process jobs, one at a time.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 15 --trace 0

Each job of a workload is one ``wreathprob`` command in a fresh
interpreter, as a CLI user runs it: its ``@cache`` tables start empty.
A run repeats passes over the workload's jobs while its time lasts, always
at least one.  With ``--trace 0`` it reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs one untraced and one traced
pass and reports the per-layer metrics.  ``--workload all`` runs every
workload.  The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

# Fresh interpreters that only import, timed for set-up in every untraced
# pass on top of the jobs themselves.  They are spread between the jobs so
# that the median covers the whole pass, not one burst of host load.
SETUP_PROBES = 20
JOB_CAP_S = 100
RUN_CAP_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def per_layer_units():
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(
        {
            "partitions.cache_entries": "count",
            "indicators.cache_entries": "count",
            "indicators.product_coefficients.misses": "count",
            "indicators.product_coefficients.hit_ratio": "fraction",
            "wreath.moment.calls": "count",
            "bruteforce.groups_built": "count",
            "bruteforce.elements_built": "count",
            "sampling.boxes": "count",
            "sampling.boxes_per_s": "1/s",
            "sampling.tuple_p50_ms": "ms",
            "sampling.tuple_p90_ms": "ms",
            "cli.import_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


@dataclass
class JobResult:
    job: workloads.Job
    status: str
    detail: str
    setup_s: float
    wall_s: float
    rss_mb: float
    spans_path: Path | None = None


def _wait(proc, deadline):
    """Reap ``proc``; kill it at ``deadline``.  Returns (status, rusage, timed_out)."""
    timed_out = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() >= deadline:
            proc.kill()
            timed_out = True
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def launch(work, tag, cli_args, spans_path, cap_s):
    """Run child.py once; returns (rc, timed_out, marks, rss_mb, launched, reaped)."""
    marks_path = work / f"{tag}.marks"
    cmd = [sys.executable, str(CHILD), str(SRC), str(marks_path),
           str(spans_path or "-"), tag, *cli_args]
    with open(work / f"{tag}.out", "w") as out, open(work / f"{tag}.err", "w") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT)
        try:
            rc, usage, timed_out = _wait(proc, launched + cap_s)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
    reaped = time.monotonic()
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    return rc, timed_out, marks, usage.ru_maxrss / 1024, launched, reaped


def run_job(job, work, tag, traced, deadline, reference):
    cap = min(JOB_CAP_S, deadline - time.monotonic())
    if cap <= 0:
        return JobResult(job, checks.TIMEOUT, "not started before the run's deadline",
                         0.0, 0.0, 0.0)
    spans_path = work / f"{tag}.spans" if traced else None
    rc, timed_out, marks, rss, launched, reaped = launch(
        work, tag, job.argv, spans_path, cap
    )
    ready = marks.get("ready") or launched
    end = marks.get("end") or reaped
    text = (work / f"{tag}.out").read_text()
    status, detail = checks.judge(job, rc, timed_out, text, reference)
    if status != checks.OK:
        err = (work / f"{tag}.err").read_text().strip().splitlines()
        detail += f" ({err[-1]})" if err else ""
    return JobResult(job, status, detail, ready - launched, end - ready, rss,
                     spans_path if spans_path and spans_path.exists() else None)


def run_pass(jobs, work, label, traced, deadline, reference, probes=0):
    """Run each job once; ``probes`` set-up launches are spread between the jobs.

    Returns the job results and the set-up times of the probes.
    """
    results, setup_s = [], []
    per_job = -(-probes // len(jobs))
    for i, job in enumerate(jobs):
        setup_s += setup_probes(work, f"{label}-{i}-setup", per_job)
        r = run_job(job, work, f"{label}-{i}", traced, deadline, reference)
        print(f"job {r.job.key} setup_s={r.setup_s:.4f} wall_s={r.wall_s:.4f} "
              f"rss_mb={r.rss_mb:.1f} {r.status} {r.detail}".rstrip(), flush=True)
        results.append(r)
    return results, setup_s


def setup_probes(work, label, count):
    times = []
    for i in range(count):
        rc, timed_out, marks, _, launched, _ = launch(work, f"{label}-{i}", (), None, 60)
        if rc != 0 or timed_out or "ready" not in marks:
            raise RuntimeError(f"set-up probe failed: {(work / f'{label}-{i}.err').read_text()}")
        times.append(marks["ready"] - launched)
    return times


def end_to_end(passes, probe_times):
    results = [r for p in passes for r in p]
    statuses = [r.status for r in results]
    return {
        "setup_s": statistics.median(probe_times + [r.setup_s for r in results if r.setup_s]),
        "wall_s": statistics.median(sum(r.wall_s for r in p) for p in passes),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "ok_frac": 1 - checks.failed_fraction(statuses),
    }


def layer_metrics(results, untraced_wall):
    totals, tuple_s, wrapped = Counter(), [], {}
    for r in results:
        if r.spans_path is not None:
            doc = json.loads(r.spans_path.read_text())
            wrapped = doc["wrapped"]
            job_totals, job_tuple_s = spans.summarize_job(doc)
            totals.update(job_totals)
            tuple_s += job_tuple_s
    hits = totals["indicators.product_coefficients.hits"]
    misses = totals["indicators.product_coefficients.misses"]
    sample_s = sum(tuple_s)
    deciles = statistics.quantiles(tuple_s, n=10) if len(tuple_s) > 1 else [0.0] * 9
    derived = {
        "indicators.product_coefficients.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sampling.boxes_per_s": totals["sampling.boxes"] / sample_s if sample_s else 0.0,
        "sampling.tuple_p50_ms": 1000 * deciles[4],
        "sampling.tuple_p90_ms": 1000 * deciles[8],
        "trace.overhead_s": sum(r.wall_s for r in results) - untraced_wall,
    }
    metrics = {name: derived.get(name, totals[name]) for name in per_layer_units()}
    return metrics, wrapped


def coverage_problems(workload, metrics):
    """Heavy layers of the workload that no wrapped call reached."""
    return [
        f"layer {layer} made no wrapped call on {workload}"
        for layer in workloads.HEAVY_LAYERS[workload]
        if metrics[f"{layer}.calls"] == 0
    ]


def run_workload(name, seed, seconds, trace, work, reference):
    jobs = workloads.WORKLOADS[name](seed)
    start = time.monotonic()
    deadline = start + RUN_CAP_S
    if trace:
        untraced, _ = run_pass(jobs, work, f"{name}-plain", False, deadline, reference)
        traced, _ = run_pass(jobs, work, f"{name}-traced", True, deadline, reference)
        results = untraced + traced
        metrics, wrapped = layer_metrics(traced, sum(r.wall_s for r in untraced))
        for layer, names in wrapped.items():
            print(f"wrapped {layer} ({len(names)}): {' '.join(names)}")
        problems = coverage_problems(name, metrics)
        for problem in problems:
            print(f"COVERAGE {problem}", file=sys.stderr)
        units = per_layer_units()
    else:
        # the first launch in a checkout writes bytecode caches: keep it untimed
        setup_probes(work, f"{name}-warm", 1)
        passes, probe_s = [], []
        while not passes or time.monotonic() - start + pass_s <= seconds:
            t = time.monotonic()
            results, setup_s = run_pass(jobs, work, f"{name}-{len(passes)}", False,
                                        deadline, reference, SETUP_PROBES)
            passes.append(results)
            probe_s += setup_s
            pass_s = time.monotonic() - t
        results = [r for p in passes for r in p]
        metrics = end_to_end(passes, probe_s)
        problems = []
        units = END_TO_END
    failed = sum(1 for r in results if r.status != checks.OK)
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def machine():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model
            )
    except OSError:
        pass
    times = []
    for _ in range(3):
        t = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        times.append(time.perf_counter() - t)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        # not a gated metric: shows host speed drift between runs
        "calibration_s": statistics.median(times),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wreathprob" / "cli.py").is_file():
        print(f"no wreathprob sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    print("machine " + json.dumps(machine()), flush=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, work, reference)
            for metric, m in results[name]["metrics"].items():
                print(f"{name} {metric} {m['value']:.6g} {m['unit']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": m
                for name, r in results.items()
                for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
