"""The benchmark's pinned answers still agree with their oracles.

``perfbench/run.py`` runs this cross-check before every benchmark run, and
its oracles import from ``src/`` (``solvers.degeneracy_col``); a rename there
would otherwise only show up as a benchmark that fails at set-up.
"""

from argparse import Namespace

from conftest import load_perfbench
from fpcolor import cli


def test_every_pin_agrees_with_its_oracle():
    workloads = load_perfbench("workloads")
    checked = 0
    for workload in workloads.WORKLOADS.values():
        for job in workload.jobs:
            expected = workloads.oracle_answer(
                job.argv, lambda token: cli.load_graph(Namespace(gen=token)))
            assert expected is None or expected == job.pin, (workload.name, job.argv, expected)
            checked += expected is not None
    assert checked >= 14, checked
