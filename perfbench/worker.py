"""One benchmark worker: runs a workload's closed loop and reports raw results.

``run.py`` starts the workers, each with a fixed ``PYTHONHASHSEED``, and
merges what they print: one JSON object on the last line of stdout.

    python3 perfbench/worker.py --workload tables --order-seed 1/0 \\
        --seconds 5 --min-samples 25 --trace 0

One client runs the jobs in-process through ``deltainv.cli.main``, each
starting when the previous one returns, with standard output captured in
memory.  The loop runs whole rounds, each a seeded shuffle of the menu,
until ``--seconds`` have passed and ``--min-samples`` latencies are in hand.
Every output is checked against its golden SHA-256 and, after the loop, by
its oracle.  With ``--trace 1`` the first round is then replayed once under
the span tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from menus import MENUS, oracle_for, oracle_holds, rounds
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def load_program():
    """Import ``deltainv.cli`` from this checkout's sources, or exit 1."""
    src = ROOT / "src"
    if not (src / "deltainv" / "cli.py").is_file():
        sys.exit(f"error: no deltainv sources under {src}")
    sys.path.insert(0, str(src))
    import deltainv.cli

    if Path(deltainv.cli.__file__).resolve().parent != src / "deltainv":
        sys.exit(f"error: imported deltainv from {deltainv.cli.__file__}")
    return deltainv.cli.main


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden():
    return json.loads((BENCH / "golden.json").read_text())


class Checker:
    """Counts attempted and failed jobs against the golden corpus."""

    def __init__(self, golden):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._oracle_jobs = {}      # (item, sha) -> [stdout, job count]

    def _fail(self, item, reason):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"job": item, "reason": reason})

    def check(self, item, code, stdout):
        self.attempted += 1
        if code != 0:
            self._fail(item, f"exit {code}")
            return
        sha = sha256(stdout)
        if sha != self.golden.get(item):
            self._fail(item, f"stdout sha256 {sha} differs from golden")
            return
        if oracle_for(item) is not None:
            entry = self._oracle_jobs.setdefault((item, sha), [stdout, 0])
            entry[1] += 1

    def run_oracles(self):
        """Oracle checks, once per distinct output; every job that
        produced a rejected output fails."""
        for (item, _), (stdout, jobs) in self._oracle_jobs.items():
            try:
                holds = oracle_holds(item, stdout)
            except Exception as exc:            # a broken output must not stop the run
                holds = False
                item = f"{item} (oracle raised {type(exc).__name__}: {exc})"
            if not holds:
                for _ in range(jobs):
                    self._fail(item, "oracle check failed")
        self._oracle_jobs.clear()


def run_job(main, item, tracer=None, job_id=None):
    """Run one job in-process; returns (seconds, exit code, stdout).

    A full garbage collection first, outside the timed region, gives every
    job the clean collector state of a fresh ``delta-inv`` process, so a
    collection left pending by the previous job is not charged to this one.
    """
    argv = item.split()
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.run_job(job_id, lambda: main(argv))
    except (Exception, SystemExit) as exc:     # count it, keep the loop alive
        code = f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - start, code, out.getvalue()


def closed_loop(main, order_source, checker, seconds, min_samples):
    """Whole rounds until ``seconds`` have passed and ``min_samples``
    latencies are recorded; returns the rounds as lists of
    ``(item, latency)`` pairs, in run order."""
    done = []
    start = perf_counter()
    while True:
        timed = []
        for item in next(order_source):
            dt, code, stdout = run_job(main, item)
            timed.append((item, dt))
            checker.check(item, code, stdout)
        done.append(timed)
        if (perf_counter() - start >= seconds
                and sum(map(len, done)) >= min_samples):
            return done


def traced_round(main, items, checker, untraced_s, spans_path):
    """Replay ``items`` once under the tracer; returns the per-layer
    metrics and the number of spans written to ``spans_path``."""
    tracer = Tracer()
    output_bytes = 0
    traced_s = 0.0
    tracer.install()
    try:
        for job_id, item in enumerate(items):
            dt, code, stdout = run_job(main, item, tracer, job_id)
            traced_s += dt
            checker.check(item, code, stdout)
            output_bytes += len(stdout.encode())
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    return (tracer.layer_metrics(output_bytes, traced_s - untraced_s),
            len(tracer.spans))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(MENUS), required=True)
    parser.add_argument("--order-seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-samples", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    checker = Checker(load_golden())
    done = closed_loop(program, rounds(MENUS[args.workload], args.order_seed),
                       checker, args.seconds, args.min_samples)
    result = {"rounds": done}
    if args.trace:
        untraced_s = statistics.median(sum(dt for _, dt in timed)
                                       for timed in done)
        spans_path = (ROOT / ".bench_out" /
                      f"spans-{args.workload}-{args.order_seed.replace('/', '-')}.json.gz")
        metrics, spans = traced_round(program, [item for item, _ in done[0]],
                                      checker, untraced_s, spans_path)
        result.update(metrics=metrics, traced_jobs=len(done[0]), spans=spans,
                      spans_file=str(spans_path.relative_to(ROOT)))
    checker.run_oracles()
    result.update(attempted=checker.attempted, failed=checker.failed,
                  failures=checker.failures,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
