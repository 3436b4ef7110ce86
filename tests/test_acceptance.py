"""End-to-end acceptance criteria, one test per criterion.

Each test runs its full-size configuration, records a single pass/fail line
(echoed in the terminal summary) and asserts both the verdict and the
stated runtime budget.  Criterion 10 is a fixed-parameter sanity run whose
size requirement on the good-vertex set is not achievable at these desk
scale parameters; the test states the requirement as given and is expected
to fail (see the suite report for the measured counts).
"""

import time

from conftest import ACCEPTANCE_LINES, brute_col
from fpcolor import constructions as cons
from fpcolor.params import PARAMETERS
from fpcolor.report import canonical_json
from fpcolor.solvers import chi_fp, col_fp, degeneracy_col
from fpcolor.suites import (
    random_graph_sample,
    suite_addit,
    suite_coldens,
    suite_estim,
    suite_lemma1,
    suite_mindeg,
    suite_nofan,
    suite_path,
    suite_pipeline,
)

STAR = PARAMETERS["star"]
MAX_DEGREE = PARAMETERS["max-degree"]


def record(num, label, ok, detail, elapsed, budget):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"criterion {num:2d} {label}: {verdict} ({detail}; {elapsed:.1f}s of {budget}s)"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_01_greedy_island_coloring():
    t0 = time.monotonic()
    res = suite_lemma1(graphs=300, max_n=9, trials=50, seed=0)
    record(1, "greedy island coloring", res["passed"],
           f"{res['checks']} colorings, {len(res['failures'])} failures",
           time.monotonic() - t0, 120)


def test_criterion_02_fan_join_separation():
    t0 = time.monotonic()
    res = suite_nofan(i_values=(2, 3), trials=10000, seed=0)
    ok = res["passed"]
    ok = ok and res["results"]["2"]["island_free"]
    ok = ok and res["results"]["3"]["island_free"]
    ok = ok and res["results"]["2"]["choosable_2_exhaustive"]
    ok = ok and res["results"]["3"]["failed_trials"] == 0
    record(2, "fan join separation", ok,
           "island-free i=2,3; exhaustive i=2; 10000 trials i=3",
           time.monotonic() - t0, 600)


def test_criterion_03_path_power_blocks():
    t0 = time.monotonic()
    res = suite_path(t_values=(1, 2, 3), trials=1000, seed=0)
    record(3, "path power block coloring", res["passed"],
           "components within 2t^2, small power lower bounds",
           time.monotonic() - t0, 120)


def test_criterion_04_subset_ratio():
    t0 = time.monotonic()
    res = suite_estim(smax=12)
    ok = res["passed"] and res["rows"]["2"]["ratio"] == "1/6"
    record(4, "exact subset ratio", ok, "s = 1..12, s = 2 gives 1/6",
           time.monotonic() - t0, 60)


def test_criterion_05_coloring_number_identity():
    t0 = time.monotonic()
    sample = random_graph_sample(500, 10, 5)
    sample += [cons.cycle(5), cons.petersen(), cons.complete_bipartite(3, 3)]
    bad = 0
    for g in sample:
        if col_fp(g, STAR, 1).value != degeneracy_col(g):
            bad += 1
        elif chi_fp(g, STAR, 1)[0] != PARAMETERS["chromatic"].eval(g):
            bad += 1
    record(5, "cluster-1 identities", bad == 0,
           f"{len(sample)} graphs, {bad} mismatches", time.monotonic() - t0, 120)


def test_criterion_06_peeling_definition_equivalence():
    t0 = time.monotonic()
    sample = [g for g in random_graph_sample(200, 12, 6) if g.n <= 7]
    bad = 0
    for g in sample:
        for f, p in ((STAR, 1), (STAR, 2), (MAX_DEGREE, 1)):
            if col_fp(g, f, p).value != brute_col(g, f, p):
                bad += 1
    record(6, "peeling equals definition", bad == 0,
           f"{len(sample)} graphs x 3 settings, {bad} mismatches",
           time.monotonic() - t0, 600)


def test_criterion_07_density_bound():
    t0 = time.monotonic()
    res = suite_coldens(graphs=200, max_n=12, p_values=(1, 2, 3, 4), seed=0)
    record(7, "average degree bound", res["passed"],
           f"{res['checks']} checks", time.monotonic() - t0, 120)


def test_criterion_08_girth_component_bound():
    t0 = time.monotonic()
    res = suite_mindeg(graphs=100, seed=0)
    rob = next(r for r in res["results"]["named"] if r["graph"] == "Robertson")
    ok = res["passed"] and rob["max_component"] == 19 and rob["max_component"] > 9
    record(8, "girth component bound", ok,
           f"named plus {res['results']['random_applicable']} applicable random",
           time.monotonic() - t0, 120)


def test_criterion_09_additive_composition():
    t0 = time.monotonic()
    res = suite_addit(graphs=100, max_n=10, p_values=(1, 2), seed=0)
    record(9, "chromatic composition", res["passed"],
           f"{res['checks']} checks", time.monotonic() - t0, 120)


def test_criterion_10_adversary_pipeline():
    t0 = time.monotonic()
    res = suite_pipeline(n=200, d=64, s=2, k=1, seeds=20, trials=100)
    record(10, "adversary pipeline sanity", res["passed"],
           f"a: {res['count_a']}/20 (need {res['require_a']}), "
           f"b: {res['count_b']}/20 (need {res['require_b']}), "
           f"{len(res['implication_failures'])} implication failures",
           time.monotonic() - t0, 900)


def test_criterion_11_deterministic_reports():
    t0 = time.monotonic()
    configs = [
        (suite_lemma1, dict(graphs=20, max_n=7, trials=5, seed=1)),
        (suite_nofan, dict(i_values=(2,), trials=50, seed=1)),
        (suite_addit, dict(graphs=20, max_n=8, seed=1)),
        (suite_path, dict(t_values=(1, 2), trials=50, seed=1)),
        (suite_coldens, dict(graphs=30, max_n=10, seed=1)),
        (suite_mindeg, dict(graphs=30, seed=1)),
        (suite_estim, dict(smax=8)),
        (suite_pipeline, dict(n=40, d=16, s=2, k=1, seeds=3, trials=10)),
    ]
    unstable = []
    for fn, kwargs in configs:
        first = canonical_json(fn(**kwargs))
        second = canonical_json(fn(**kwargs))
        if first != second:
            unstable.append(fn.__name__)
    record(11, "byte-identical reports", not unstable,
           f"{len(configs)} suites run twice, unstable: {unstable or 'none'}",
           time.monotonic() - t0, 300)
