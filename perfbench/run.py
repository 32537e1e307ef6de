"""deltainv benchmark: closed-loop batches of ``delta-inv`` jobs, checked.

Run from the repository root:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run first times fresh ``delta-inv`` processes for
``setup_s``.  It then runs the workload in four worker processes, one after
another, each for a quarter of ``--seconds`` (see ``worker.py``), and reports
the end-to-end metrics over all their jobs.  With ``--trace 1`` one worker
runs the untraced loop for ``--seconds``, replays its first round under the
span tracer, and the run reports the per-layer metrics.

Each worker has its own fixed ``PYTHONHASHSEED``.  The hash seed sets the
layout of every dict and set in the program, and one seed against another
changed the time of the heaviest ``generators`` jobs by up to 9%.  Fixed
seeds keep that out of the run-to-run spread, and four of them average it
within a run.  The job order comes from ``--seed``.

The full result document is printed first; the last line of standard output
is the summary object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

from menus import MENUS
from worker import BENCH, ROOT, Checker, load_golden

MIN_SAMPLES = 100
WORKERS = 4
SETUP_SPAWNS = 31
SETUP_ITEM = "hilbert --variant even --r 2 --terms 4"
UNCONTROLLED = [
    "the file cache was not dropped",
    "CPUs were not pinned; the process may migrate between cores",
    "the host may be shared with other workloads; nproc is recorded",
]


def _git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def host_probe_s():
    """Median time of a fixed pure-Python loop, before and after the run.

    A rough gauge of host speed: on a shared host a high reading marks a
    slow phase of the host rather than of the program."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(perf_counter() - start)
    return statistics.median(times)


def measure_setup(checker):
    """Median wall time of a fresh ``python -m deltainv.cli`` process."""
    cmd = [sys.executable, "-m", "deltainv.cli", *SETUP_ITEM.split()]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    times = []
    for spawn in range(SETUP_SPAWNS + 1):      # the first spawn warms up
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60)
        dt = perf_counter() - start
        checker.check(SETUP_ITEM, proc.returncode, proc.stdout)
        if spawn:
            times.append(dt)
    return statistics.median(times)


def run_worker(index, workload, seed, seconds, min_samples, trace):
    """Run one worker process to completion and return its result."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--order-seed", f"{seed}/{index}", "--seconds", str(seconds),
           "--min-samples", str(min_samples), "--trace", str(trace)]
    env = dict(os.environ, PYTHONHASHSEED=str(index + 1))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=150)
    if proc.returncode != 0:
        sys.exit(f"error: worker {index} exited {proc.returncode}:\n"
                 f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, checker):
    setup_s = measure_setup(checker)
    results = [run_worker(k, args.workload, args.seed, args.seconds / WORKERS,
                          math.ceil(MIN_SAMPLES / WORKERS), 0)
               for k in range(WORKERS)]
    done = [timed for r in results for timed in r["rounds"]]
    latencies = [dt for timed in done for _, dt in timed]
    deciles = statistics.quantiles(latencies, n=10)
    p90 = deciles[8]
    # The rate of a typical round: each item at its median latency over the
    # rounds, so a burst of contention from outside the process that slows a
    # few jobs does not move it.
    by_item = {}
    for timed in done:
        for item, dt in timed:
            by_item.setdefault(item, []).append(dt)
    round_s = sum(statistics.median(dts) for dts in by_item.values())
    metrics = {
        "jobs_per_s": (len(by_item) / round_s, "1/s"),
        "job_p50_s": (deciles[4], "s"),
        "job_p90_s": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    samples = {"jobs_per_s": len(latencies), "job_p50_s": len(latencies),
               "job_p90_s": len(latencies),
               "beyond_job_p90_s": sum(1 for t in latencies if t > p90),
               "setup_s": SETUP_SPAWNS}
    return metrics, results, {"workers": WORKERS, "rounds": len(done),
                              "jobs": len(latencies), "samples": samples}


def per_layer(args, checker):
    result = run_worker(0, args.workload, args.seed, args.seconds, 0, 1)
    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    return metrics, [result], {
        "workers": 1, "untraced_rounds": len(result["rounds"]),
        "traced_jobs": result["traced_jobs"], "spans": result["spans"],
        "spans_file": result["spans_file"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MENUS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "deltainv" / "cli.py").is_file():
        sys.exit(f"error: no deltainv sources under {ROOT / 'src'}")

    checker = Checker(load_golden())
    measure = per_layer if args.trace else end_to_end
    probe_before = host_probe_s()
    metrics, results, extra = measure(args, checker)
    probe = {"before": probe_before, "after": host_probe_s()}
    attempted = checker.attempted + sum(r["attempted"] for r in results)
    failed = checker.failed + sum(r["failed"] for r in results)
    failures = checker.failures + [f for r in results for f in r["failures"]]
    if not args.trace:
        metrics["failed_frac"] = (failed / attempted, "ratio")

    doc = {
        "benchmark": "deltainv",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "git_sha": _git_sha(),
            "host_probe_s": probe,
        },
        "uncontrolled": UNCONTROLLED,
        "client": "closed loop, one client, in-process, one worker at a time",
        "menu_items": len(MENUS[args.workload]),
        **extra,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(doc, indent=2))
    reported = {k: v for k, v in doc["metrics"].items() if k != "failed_frac"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
