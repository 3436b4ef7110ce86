"""One pass of each benchmark workload answers right and fails no job.

``perfbench/run.py --seconds 0.1`` still completes its first pass, so each
run checks every job's pin and re-verifies every certificate that a job
emits; a wrong answer or a refused ``verify`` shows up here before a timed
run.  A stale pin prints a note, not a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ("choose", "certify", "density", "lemma"))
def test_one_benchmark_pass_is_correct(workload):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seconds", "0.1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
