"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

For every workload: one untraced pass and two traced passes must give
byte-identical reports and correct answers, every ``.calls`` count must
repeat exactly between the two traced passes, and the bypasses the
workloads were chosen for must hold (zero flows on ``choose`` and
``certify``, zero list colourings outside ``choose``), and exactly the jobs
pinned as ``verify_refused`` must be refused.  It also checks that a verify
refusal of a job not so pinned counts as a failed job, that
``BENCHMARK.json`` lists exactly the per-layer metrics of ``spans.py``, the
Erdos-Rubin-Taylor oracle on known graphs, and that the harness refuses to
run without the program's sources.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
import spans
from workloads import DEFAULT_SEED, WORKLOADS, Workload, ert_two_choosable, pass_orders

PREDICTED_ZERO = {
    "density.max_flow.calls": ("choose", "certify"),
    "solvers.exists_L_coloring.calls": ("certify", "density", "lemma"),
}


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        sys.exit(1)


def check_oracle():
    from fpcolor.graph import Graph

    def theta(*lengths):  # paths of the given lengths between vertices 0 and 1
        edges, n = [], 2
        for length in lengths:
            chain = [0, *range(n, n + length - 1), 1]
            n += length - 1
            edges += zip(chain, chain[1:])
        return Graph(n, edges)

    cycle = lambda n: Graph(n, [(i, (i + 1) % n) for i in range(n)])  # noqa: E731
    dumbbell = Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 4)])
    cases = {
        "K1": (Graph(1), True),
        "tree": (Graph(4, [(0, 1), (1, 2), (1, 3)]), True),
        "C4 plus pendant": (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)]), True),
        "C6": (cycle(6), True),
        "C5": (cycle(5), False),
        "theta(2,2,2)": (theta(2, 2, 2), True),
        "theta(2,2,4)": (theta(2, 2, 4), True),
        "theta(2,2,3)": (theta(2, 2, 3), False),
        "theta(2,4,4)": (theta(2, 4, 4), False),
        "theta(2,2,2,2)": (theta(2, 2, 2, 2), False),
        "two triangles joined by a path": (dumbbell, False),
        "K4": (Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]), False),
    }
    for name, (g, expected) in cases.items():
        check(ert_two_choosable(g) is expected, f"Erdos-Rubin-Taylor oracle on {name}")


def check_workload(cli, workload):
    bench = run.Run(cli, workload, run.HostSpeed())
    orders = pass_orders(workload, DEFAULT_SEED)
    bench.one_pass(next(orders))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        for _ in range(2):
            run.traced_pass(bench, next(orders), tracer)
    finally:
        spans.uninstall(undo)
    name = workload.name
    check(bench.wrong == 0 and bench.failed == 0,
          f"{name}: untraced and traced reports byte-identical, answers match pins"
          + "".join(f"\n      {line}" for line in bench.problems))
    pinned = sum(job.verify_refused for job in workload.jobs)
    check(bench.refused == 3 * pinned,
          f"{name}: {bench.refused} verify refusals in 3 passes, {pinned} pinned per pass")
    first, second = (calls for calls, _ in tracer.passes)
    check(first == second, f"{name}: .calls counts repeat across traced passes")
    metrics = spans.layer_metrics(tracer.passes, 1.0)
    for metric, workloads in PREDICTED_ZERO.items():
        if name in workloads:
            value = metrics[metric]["value"]
            check(value == 0, f"{name}: {metric} = {value}, predicted 0")


def check_unpinned_refusal_fails(cli):
    certify = WORKLOADS["certify"]
    job = next(job for job in certify.jobs if job.verify_refused)
    unpinned = Workload("unpinned", "", (dataclasses.replace(job, verify_refused=False),))
    bench = run.Run(cli, unpinned, run.HostSpeed())
    bench.one_pass([0])
    check(bench.failed == 1 and bench.refused == 0,
          f"a verify refusal of a job not pinned as refused is a failed job "
          f"({' '.join(job.argv)})")


def check_metric_list():
    listed = {(m["name"], m["unit"], m["better"])
              for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    check(listed == set(spans.METRICS), "BENCHMARK.json lists the per-layer metrics of spans.py")


def check_refuses_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          f"without src/ the harness exits {proc.returncode} and prints no result")


def main():
    cli = run.set_up(WORKLOADS["lemma"])
    check_oracle()
    check_metric_list()
    check_unpinned_refusal_fails(cli)
    for workload in WORKLOADS.values():
        run.set_up(workload)
        check_workload(cli, workload)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
