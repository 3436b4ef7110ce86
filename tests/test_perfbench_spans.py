"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/spans.py`` wraps named functions and methods of ``src/`` from
outside; a rename there would only show up under ``run.py --trace 1``.  This
smoke test installs and uninstalls the tracer so that it shows up here.
"""

import sys

from conftest import load_perfbench
from fpcolor import cli, constructions as cons, density, params, solvers  # noqa: F401


def entry_points(spans):
    found = {(module, attr): getattr(sys.modules[f"fpcolor.{module}"], attr)
             for module, attr, _ in spans.FUNCTIONS}
    found["eval_mask"] = params.Parameter.eval_mask
    found.update({p.id: p.evaluator for p in params.PARAMETERS.values()})
    found.update({attr: getattr(density._Dinic, attr)
                  for attr in ("max_flow", "_bfs", "add_edge")})
    return found


def test_tracer_install_round_trip(tmp_path):
    spans = load_perfbench("spans")
    before = entry_points(spans)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        tracer.start_pass()
        tracer.start_job(0)
        assert cli.main(["solve", "choosable", "--gen", "cycle:4", "--f", "star",
                         "--p", "1", "--s", "2", "--out", str(tmp_path / "c4.json")]) == 0
        solvers.chi_fp(cons.cycle(5), params.PARAMETERS["mad"], 1)
        # degeneracy bounds settle mad on C5 with no flow, but not this G(8, 1/2)
        density.exact_mad(cons.random_gnp(8, 0.5, 1))
        solvers.exists_L_coloring(cons.cycle(4), [0b11] * 4, params.PARAMETERS["star"], 1)
        # verify checks a bad list assignment through report's own alias
        c5 = str(tmp_path / "c5.json")
        assert cli.main(["solve", "choosable", "--gen", "cycle:5", "--f", "star",
                         "--p", "1", "--s", "2", "--out", c5]) == 1
        checked = tracer.calls["solvers.exists_L_coloring"]
        assert cli.main(["verify", c5]) == 0
        assert tracer.calls["solvers.exists_L_coloring"] == checked + 1
    finally:
        spans.uninstall(undo)
    assert tracer.calls["cli.main"] == 3
    assert tracer.calls["solvers.decide_choosability_fp"] == 2
    assert tracer.calls["solvers.exists_L_coloring"] == 2
    assert tracer.calls["solvers.chi_fp"] == 1
    assert tracer.calls["params.eval_mask"] > 0
    assert tracer.calls["density.max_flow"] > 0
    after = entry_points(spans)
    assert all(after[key] is value for key, value in before.items())
