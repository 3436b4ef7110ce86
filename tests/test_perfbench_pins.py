"""The benchmark's pinned answers still agree with their oracles, and its
reports keep their bytes.

``perfbench/run.py`` runs the oracle cross-check before every benchmark run,
and its oracles import from ``src/`` (``solvers.degeneracy_col``); a rename
there would otherwise only show up as a benchmark that fails at set-up.
"""

import hashlib
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


#: sha256 over the canonical reports of every benchmark job, in workload and
#: job order.  A change that alters a certificate or a value updates it and
#: says why in CHANGES.md.
REPORTS_SHA256 = "471be147359626821e72be9aa4e17bbda5b21d8e26e83eb135e5a4e9afde06b9"


def test_every_benchmark_report_keeps_its_bytes(tmp_path):
    """Each job of every workload writes its report through ``cli.main``, and
    one digest over all of them is pinned, so a change that claims
    byte-identical reports is held to it."""
    workloads = load_perfbench("workloads")
    digest, jobs = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS.values():
        for index, job in enumerate(workload.jobs):
            out = tmp_path / f"{workload.name}-{index}.json"
            rc = cli.main([*job.argv, "--out", str(out)])
            assert rc in (0, 1) and out.exists(), (workload.name, job.argv, rc)
            digest.update(out.read_bytes())
            jobs += 1
    assert jobs == 54
    assert digest.hexdigest() == REPORTS_SHA256, digest.hexdigest()
