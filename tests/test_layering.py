"""The trusted checker stands apart from the solvers it checks.

``fpcolor.check`` imports no solver, and ``fpcolor.report``, which ``verify``
runs, imports nothing from ``fpcolor.solvers``, so re-verifying a report
never loads solver code.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from fpcolor.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def package_imports(module):
    """The ``fpcolor`` modules that ``fpcolor.<module>`` imports anywhere in
    its code, a relative import resolved against the package."""
    found = set()
    for node in ast.walk(ast.parse((SRC / "fpcolor" / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module if not node.level else ".".join(
                filter(None, ("fpcolor", node.module)))
            if base == "fpcolor":  # ``from fpcolor import graph`` names modules
                found.update(f"fpcolor.{alias.name}" for alias in node.names)
            else:
                found.add(base)
    return {name for name in found if name.split(".")[0] == "fpcolor"}


def test_check_imports_no_solver():
    assert package_imports("check") <= {"fpcolor.errors", "fpcolor.graph", "fpcolor.params"}


def test_report_imports_nothing_from_solvers():
    imports = package_imports("report")
    assert "fpcolor.check" in imports and "fpcolor.solvers" not in imports


def test_verifying_a_report_loads_no_solver(tmp_path, capsys):
    """A col report with both certificates, peel and island-free, is
    verified in a fresh process that imports only ``fpcolor.report``."""
    path = tmp_path / "col.json"
    assert main(["solve", "col", "--gen", "petersen", "--f", "star", "--p", "1",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["certificate"]["lower"] is not None
    script = ("import json, sys\n"
              "from fpcolor.report import verify_report\n"
              "with open(sys.argv[1]) as fh:\n"
              "    ok = verify_report(json.load(fh))\n"
              "print(json.dumps([ok, sorted(m for m in sys.modules if m.startswith('fpcolor'))]))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    ok, loaded = json.loads(done.stdout)
    assert ok is True
    assert "fpcolor.check" in loaded and "fpcolor.solvers" not in loaded, loaded
