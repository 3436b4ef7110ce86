"""Benchmark harness for the fpcolor CLI.

    python3 perfbench/run.py --workload {choose,certify,density,lemma}
                             [--seed N] [--seconds S] [--trace 0|1]

Runs one workload's CLI jobs in-process through ``fpcolor.cli.main``, in a
single process and thread, pass after pass (closed loop, one client) for
``--seconds``: the first pass always completes; a later pass stops before a
job that, judged by its previous run, would end after the deadline.  Every
answer is checked against its pin, and every report that carries a
certificate is re-checked by a timed ``verify`` job.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then at least two traced passes, and reports the per-layer
metrics of ``spans.py``; its spans are written to ``perfbench/out/``.

The program is imported from ``src/`` next to this directory; without it
the harness exits with an error before printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from argparse import Namespace
from collections import defaultdict
from pathlib import Path

import spans
from workloads import DEFAULT_SEED, WORKLOADS, answer_of, oracle_answer, pass_orders

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 9
REFERENCE_SAMPLES = 4  # reference loops timed after every timed interval
REFERENCE_STEPS = 3000
REFERENCE_NOMINAL_S = 0.0005  # its time at nominal host speed (2-CPU x86-64, Python 3.11)
# The vertex count above which verify refuses a col lower certificate today
# (ROADMAP item 4).  A literal, not the program's own constant: if the program
# lowers its cap, the refusals it adds are failed jobs, not pinned refusals.
VERIFY_CAP = 16


class BenchError(Exception):
    """The benchmark cannot run: program missing or a pin contradicts an oracle."""


def set_up(workload):
    """Import the program from the checkout and cross-check the pins."""
    package = ROOT / "src" / "fpcolor"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no fpcolor sources at {package}")
    sys.path.insert(0, str(package.parent))
    from fpcolor import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"fpcolor imported from {cli.__file__}, not from {package}")
    for job in workload.jobs:
        expected = oracle_answer(job.argv, lambda token: cli.load_graph(Namespace(gen=token)))
        if expected is not None and expected != job.pin:
            raise BenchError(f"pin {job.pin!r} of {' '.join(job.argv)} contradicts "
                             f"its oracle {expected!r}")
    OUT.mkdir(exist_ok=True)
    return cli


def run_cli(cli, argv):
    """(exit code or escaped exception, seconds, captured stdout and stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        except Exception as exc:  # noqa: BLE001 - e.g. RecursionError escaping main
            rc = exc
        seconds = time.perf_counter() - start
    return rc, seconds, buf.getvalue()


class HostSpeed:
    """The host's current speed, tracked with a short fixed reference loop.

    On a shared host the same job runs up to 30 % slower or faster from one
    minute to the next, and a pure-Python loop slows with it.  Timings are
    therefore reported at nominal host speed: measured seconds times the
    nominal time of the reference loop over the median of its samples taken
    just before and just after the timed interval.
    """

    def __init__(self):
        self.before = self._samples()
        self.factors = []  # factor applied to each timed interval

    @staticmethod
    def _samples():
        times = []
        gc.disable()  # time the processor, not a collection of the jobs' garbage
        for _ in range(REFERENCE_SAMPLES):
            start = time.perf_counter()
            x, table = 1, {}
            for _ in range(REFERENCE_STEPS):
                x = (x * 1103515245 + 12345) & 0xFFFFFFFF
                table[x & 255] = x.bit_count()
            times.append(time.perf_counter() - start)
        gc.enable()
        return times

    def nominal(self, seconds):
        """``seconds`` measured since the last call, at nominal host speed."""
        after = self._samples()
        self.factors.append(REFERENCE_NOMINAL_S / statistics.median(self.before + after))
        self.before = after
        return seconds * self.factors[-1]


class Run:
    """Outcome tallies and latencies of one workload run."""

    def __init__(self, cli, workload, speed):
        self.cli = cli
        self.workload = workload
        self.speed = speed
        self.reset_latencies()
        self.attempted = 0
        self.failed = 0
        self.refused = 0  # pinned verify refusals at the 16-vertex cap, see workloads.py
        self.wrong = 0
        self.problems = []  # one line per failure, wrong answer or unstable output
        self.first_output = {}  # same keys -> bytes of its first output
        self.last_seconds = {}  # job index -> wall seconds of its last run, verify included
        self.bytes_out = 0

    def reset_latencies(self):
        self.latencies = defaultdict(list)  # (job index, verify?) -> nominal seconds
        self.raw_latencies = defaultdict(list)  # same keys -> measured seconds

    def problem(self, kind, argv, detail):
        self.problems.append(f"{kind}: {' '.join(argv)}: {detail}")

    def timed(self, key, argv, out):
        rc, seconds, text = run_cli(self.cli, argv)
        self.attempted += 1
        self.latencies[key].append(self.speed.nominal(seconds))
        self.raw_latencies[key].append(seconds)
        output = text.encode()
        if out is not None and out.exists():
            output += out.read_bytes()
        self.bytes_out += len(output)
        first = self.first_output.setdefault(key, output)
        if first != output:
            self.wrong += 1
            self.problem("output differs from the first pass", argv, "")
        return rc, text

    def job(self, index):
        job = self.workload.jobs[index]
        out = OUT / f"{self.workload.name}-{index}.json"
        out.unlink(missing_ok=True)
        argv = job.argv + ("--out", str(out))
        rc, text = self.timed((index, False), argv, out)
        if rc not in (0, 1) or not out.exists():
            self.failed += 1
            self.problem("failed", argv, f"exit {rc!r} {text.strip()[-200:]}")
            return
        report = json.loads(out.read_text())
        answer = answer_of(job.argv, report)
        if answer != job.pin:
            self.wrong += 1
            self.problem("wrong answer", argv, f"{answer!r} != pin {job.pin!r}")
        if job.argv[0] == "solve" and report["certificate"] is not None:
            self.verify(index, report["certificate"], out)

    def verify(self, index, cert, out):
        argv = ("verify", str(out))
        rc, text = self.timed((index, True), argv, None)
        pinned = self.workload.jobs[index].verify_refused
        if rc == 0 and "certificate OK" in text:
            if pinned:
                self.problem("note: verify accepts a report pinned as refused", argv,
                             "its verify_refused pin is stale")
            return
        lower = cert.get("lower") if cert["type"] == "col" else None
        if (pinned and rc == 1 and "unverifiable at cap" in text and lower is not None
                and len(lower["vertices"]) > VERIFY_CAP):
            self.refused += 1
            return
        self.failed += 1
        self.problem("verify failed", argv, f"exit {rc!r} {text.strip()[-200:]}")

    def one_pass(self, order, deadline=None, tracer=None):
        """Run the jobs of one pass in ``order``.  Returns False, having stopped,
        if the next job would end after ``deadline`` judged by its last run."""
        for index in order:
            start = time.perf_counter()
            if deadline is not None and start + self.last_seconds.get(index, 0.0) > deadline:
                return False
            if tracer is None:
                self.job(index)
            else:
                before = self.bytes_out
                tracer.start_job(index)
                self.job(index)
                tracer.end_job(self.bytes_out - before)
            self.last_seconds[index] = time.perf_counter() - start
        return True

    def typical_latencies(self, raw=False):
        """Each job's median latency in this run, in seconds: at nominal host
        speed, or as measured if ``raw``."""
        latencies = self.raw_latencies if raw else self.latencies
        return [statistics.median(v) for v in latencies.values()]

    def jobs_per_s(self, raw=False):
        """Jobs per second of one pass, from the median latency of each job."""
        typical = self.typical_latencies(raw)
        return len(typical) / sum(typical)


def measure_setup(args, speed):
    """Median nominal seconds from starting a fresh harness process until its
    first job could start, over SETUP_PROBES processes run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
        times.append(speed.nominal(seconds))
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe exited {proc.returncode}")
    return statistics.median(times)


def harrell_davis(values, q, cell_steps=200):
    """Harrell-Davis (1982) estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta(q(n+1), (1-q)(n+1)) density, integrated here
    by the midpoint rule.  Unlike a single order statistic it does not follow
    the noise of whichever value happens to sit at the quantile."""
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    steps = cell_steps * n

    def log_density(k):
        x = (k + 0.5) / steps
        return (a - 1) * math.log(x) + (b - 1) * math.log(1 - x)

    top = max(map(log_density, range(steps)))
    weights = [sum(math.exp(log_density(k) - top)
                   for k in range(i * cell_steps, (i + 1) * cell_steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def throughput_latency(run, raw=False, prefix=""):
    """Jobs per second and the p50 and p90 job latency.  The percentiles weigh
    every job of the list once, by its median latency, so a pass cut short at
    the deadline does not shift them."""
    typical_ms = [s * 1000 for s in run.typical_latencies(raw)]
    return {
        f"{prefix}jobs_per_s": (run.jobs_per_s(raw), "1/s"),
        f"{prefix}job_p50_ms": (harrell_davis(typical_ms, 0.5), "ms"),
        f"{prefix}job_p90_ms": (harrell_davis(typical_ms, 0.9), "ms"),
    }


def end_to_end(run, setup_s):
    """End-to-end metrics, timings at nominal host speed."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        **throughput_latency(run),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def traced_pass(run, order, tracer):
    tracer.start_pass()
    run.one_pass(order, tracer=tracer)
    tracer.passes.append((tracer.calls, tracer.self_s))


def traced_run(run, orders, deadline, args):
    """One untraced pass, then whole traced passes while another fits before
    ``deadline``, and at least two, so that the ``.calls`` counts of two
    passes are always compared; returns the per-layer metrics."""
    run.one_pass(next(orders))
    untraced_jobs_per_s = run.jobs_per_s()
    run.reset_latencies()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        pass_seconds = []
        while (len(pass_seconds) < 2
               or time.perf_counter() + statistics.median(pass_seconds) <= deadline):
            start = time.perf_counter()
            traced_pass(run, next(orders), tracer)
            pass_seconds.append(time.perf_counter() - start)
    finally:
        spans.uninstall(undo)
    tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    first = tracer.passes[0][0]
    if any(calls != first for calls, _ in tracer.passes[1:]):
        run.wrong += 1
        run.problems.append("call counts differ between traced passes")
    overhead = run.jobs_per_s() / untraced_jobs_per_s
    return {name: (m["value"], m["unit"])
            for name, m in spans.layer_metrics(tracer.passes, overhead).items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        cli = set_up(workload)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        speed = HostSpeed()
        setup_s = measure_setup(args, speed) if not args.trace else None
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run = Run(cli, workload, speed)
    orders = pass_orders(workload, args.seed)
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        metrics = traced_run(run, orders, deadline, args)
    else:
        run.one_pass(next(orders))  # the first pass always completes
        while run.one_pass(next(orders), deadline):
            pass
        metrics = end_to_end(run, setup_s)

    print(f"workload {workload.name}  seed {args.seed}  "
          f"job executions {run.attempted}  trace {args.trace}")
    for line in run.problems:
        print(line)
    checks = {
        "fail_ratio": ((run.failed + run.refused) / run.attempted, "1"),
        "failed": (run.failed, "count"),
        "verify_refused_at_cap": (run.refused, "count"),
        "wrong_answers": (run.wrong, "count"),
        "job_samples": (sum(map(len, run.latencies.values())), "count"),
        "host_speed_factor": (statistics.median(speed.factors), "1"),
    }
    if not args.trace:  # the same figures as measured, before host-speed scaling
        checks.update(throughput_latency(run, raw=True, prefix="raw_"))
    for name, (value, unit) in {**checks, **metrics}.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
