"""Spans around the entry points of each fpcolor layer, installed from outside.

``install`` wraps each entry point in every module that bound it at import
(``cli``, ``suites`` and ``report`` import solver functions by name), plus
class methods and the evaluator of every built-in parameter.  ``uninstall``
puts the originals back.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent, job).  Self time is a span's duration
minus the time covered by its child spans.  Spans of the hot inner entry
points (``FOLDED``) run up to millions of times per pass; they are folded into
per-name totals as they close instead of being kept whole, so memory stays
bounded.  Every other span is kept and written out by ``write_spans``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Every traced entry point is listed once, here; the per-layer metrics below
# are derived from these lists.
# (module, attribute, span name) of module functions; a name listed twice is one span
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("report", "verify_report", "report.verify_report"),
    ("report", "canonical_json", "report.canonical_json"),
    ("solvers", "decide_choosability_fp", "solvers.decide_choosability_fp"),
    ("solvers", "exists_L_coloring", "solvers.exists_L_coloring"),
    ("solvers", "col_fp", "solvers.col_fp"),
    ("solvers", "peel", "solvers.peel"),
    ("solvers", "find_island", "solvers.find_island"),
    ("solvers", "chi_fp", "solvers.chi_fp"),
    ("solvers", "greedy_island_coloring", "solvers.greedy_island_coloring"),
    ("solvers", "island_free_exhaustive", "solvers.island_free_exhaustive"),
    ("solvers", "verify_peel", "solvers.verify_peel"),
    ("solvers", "verify_fp_proper", "solvers.verify_fp_proper"),
    ("density", "exact_mad", "density.exact_mad"),
    ("graph", "induced_subgraph", "graph.induced_subgraph"),
    ("graph", "components", "graph.components"),
    ("graph", "from_graph6", "graph.from_graph6"),
    ("constructions", "adversary_pipeline", "constructions.adversary_pipeline"),
    *(
        ("constructions", gen, "constructions.gen")
        for gen in ("path", "cycle", "complete", "complete_bipartite", "edgeless",
                    "petersen", "robertson", "fan_join", "path_power", "random_gnp",
                    "random_bipartite")
    ),
    *(
        ("suites", f"suite_{name}", f"suites.{name}")
        for name in ("lemma1", "coldens", "addit", "path", "mindeg", "pipeline")
    ),
)
PARAMETER_IDS = ("star", "max-degree", "mad", "fan", "chromatic")  # "params.<id>" spans
# spans that ``install`` puts on class methods and parameter objects
METHOD_SPANS = ("params.eval_mask", *(f"params.{p}" for p in PARAMETER_IDS),
                "density.max_flow")
FOLDED = frozenset({
    "params.eval_mask", "params.star", "params.max-degree", "params.mad", "params.fan",
    "params.chromatic", "solvers.exists_L_coloring", "solvers.greedy_island_coloring",
    "solvers.verify_fp_proper", "density.max_flow", "graph.induced_subgraph",
    "graph.components",
})
# outcome counters "<span>.<label>": span name -> (label, test on the return value)
OUTCOMES = {
    "solvers.exists_L_coloring": ("none", lambda r: r is None),
    "solvers.find_island": ("hit", lambda r: r is not None),
    "report.verify_report": ("ok", lambda r: r is True),
}


class Tracer:
    """Span stack, per-name totals and the kept spans of one traced run."""

    def __init__(self):
        self.stack = []  # [name, start, child seconds, kept-span index]
        self.spans = []  # kept spans: (name, start, end, parent index, job)
        self.calls = Counter()  # span closes and plain counters, this pass
        self.self_s = defaultdict(float)  # this pass
        self.job = None
        self.masks_seen = set()  # distinct (graph, parameter, mask) in this job
        self.passes = []  # (calls, self seconds) of each finished pass

    def start_pass(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)

    def start_job(self, index):
        self.job = (len(self.passes), index)  # (traced pass, position in the job list)
        self.masks_seen = set()

    def end_job(self, bytes_out):
        self.calls["distinct_masks"] += len(self.masks_seen)
        self.calls["report.bytes_out"] += bytes_out

    def span(self, name, fn, refused=()):
        """``fn`` wrapped in a span; an exception of type ``refused`` (a refusal
        at a cap) is counted as "<name>.refused"."""
        keep = name not in FOLDED
        label, test = OUTCOMES.get(name, (None, None))
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            index = -1
            if keep:
                parent = next((e[3] for e in reversed(stack) if e[3] >= 0), -1)
                index = len(spans)
                spans.append(parent)
            entry = [name, perf_counter(), 0.0, index]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            except refused:
                self.calls[f"{name}.refused"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - entry[1]
                self.calls[name] += 1
                self.self_s[name] += duration - entry[2]
                if stack:
                    stack[-1][2] += duration
                if keep:
                    spans[index] = (name, entry[1], end, spans[index], self.job)
            if label and test(result):
                self.calls[f"{name}.{label}"] += 1
            return result

        return traced

    def counter(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer):
    """Wrap every entry point; returns the undo list for ``uninstall``."""
    from fpcolor import density, errors, params, report, suites

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "fpcolor" or name.startswith("fpcolor.")}
    undo = []

    def patch(owner, attr, original, new, setter=setattr):
        undo.append(lambda: setter(owner, attr, original))
        setter(owner, attr, new)

    refusals = {"report.verify_report": report.CertificateError,
                "solvers.island_free_exhaustive": errors.CapExceeded}
    for module, attr, name in FUNCTIONS:
        original = getattr(modules[f"fpcolor.{module}"], attr)
        wrapped = tracer.span(name, original, refusals.get(name, ()))
        for mod in modules.values():
            for alias, value in list(vars(mod).items()):
                if value is original:
                    patch(mod, alias, original, wrapped)
        for key, value in list(suites.SUITES.items()):
            if value is original:
                patch(suites.SUITES, key, original, wrapped, setter=dict.__setitem__)

    original = params.Parameter.eval_mask
    eval_mask = tracer.span("params.eval_mask", original)

    def eval_mask_seen(self, g, mask):
        tracer.masks_seen.add((g, self.id, mask))
        return eval_mask(self, g, mask)

    patch(params.Parameter, "eval_mask", original, eval_mask_seen)
    missing = set(PARAMETER_IDS) - params.PARAMETERS.keys()
    if missing:
        raise LookupError(f"no parameters {sorted(missing)} to trace")
    for param in params.PARAMETERS.values():  # frozen dataclasses
        evaluator = param.evaluator
        patch(param, "evaluator", evaluator, tracer.span(f"params.{param.id}", evaluator),
              setter=object.__setattr__)
    dinic = density._Dinic
    for attr, wrap in (("max_flow", tracer.span("density.max_flow", dinic.max_flow)),
                       ("_bfs", tracer.counter("density.bfs_phases", dinic._bfs)),
                       ("add_edge", tracer.counter("density.add_edge.calls", dinic.add_edge))):
        patch(dinic, attr, getattr(dinic, attr), wrap)
    return undo


def uninstall(undo):
    for step in reversed(undo):
        step()


# -- per-layer metrics ------------------------------------------------------------

_FUNCTION_SPANS = tuple(dict.fromkeys(name for _, _, name in FUNCTIONS))
_SUITES = tuple(name for name in _FUNCTION_SPANS if name.startswith("suites."))
# spans with .calls and .self_s metrics; cli.main and the suites get fewer
_TIMED = METHOD_SPANS + tuple(
    name for name in _FUNCTION_SPANS if name != "cli.main" and name not in _SUITES)
assert FOLDED <= set(_TIMED) and set(OUTCOMES) <= set(_TIMED)
_RATIOS = {  # name -> (numerator counter, denominator counter, better)
    "params.eval_mask.distinct_ratio": ("distinct_masks", "params.eval_mask", "higher"),
    "solvers.list_systems_per_decision": (
        "solvers.exists_L_coloring", "solvers.decide_choosability_fp", "lower"),
    "solvers.exists_L_coloring.none_ratio": (
        "solvers.exists_L_coloring.none", "solvers.exists_L_coloring", "higher"),
    "solvers.find_island.hit_ratio": ("solvers.find_island.hit", "solvers.find_island", "higher"),
    "solvers.peels_per_col": ("solvers.peel", "solvers.col_fp", "lower"),
    "report.verify_report.ok_ratio": ("report.verify_report.ok", "report.verify_report", "higher"),
    "density.flows_per_mad": ("density.max_flow", "density.exact_mad", "lower"),
}
_COUNTS = ("report.verify_report.refused", "solvers.island_free_exhaustive.refused",
           "density.bfs_phases", "density.add_edge.calls", "report.bytes_out")

# (metric name, unit, better) for every per-layer metric, in report order
METRICS = (
    *((f"{name}.calls", "count", "lower") for name in _TIMED + ("cli.main",)),
    *((f"{name}.self_s", "s", "lower") for name in _TIMED),
    *((f"{name}.self_s", "s", "lower") for name in _SUITES),
    ("cli.self_s", "s", "lower"),
    *((name, "1", better) for name, (_, _, better) in _RATIOS.items()),
    *((name, "bytes" if name == "report.bytes_out" else "count", "lower") for name in _COUNTS),
    ("trace.overhead_ratio", "1", "higher"),
)


def layer_metrics(passes, overhead_ratio):
    """Per-layer metrics from traced passes of one job list.

    ``passes`` holds one (calls, self seconds) pair per pass; counts come from
    the first pass (they repeat exactly), self times are medians over passes.
    """
    calls = passes[0][0]

    def self_s(name):
        return statistics.median(p[1].get(name, 0.0) for p in passes)

    values = {f"{name}.calls": calls[name] for name in _TIMED + ("cli.main",)}
    values.update({f"{name}.self_s": self_s(name) for name in _TIMED})
    values.update({f"{name}.self_s": self_s(name) for name in _SUITES})
    values["cli.self_s"] = self_s("cli.main")
    for name, (num, den, _) in _RATIOS.items():
        values[name] = calls[num] / calls[den] if calls[den] else 0.0
    values.update({name: calls[name] for name in _COUNTS})
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
