"""Report serialization, certificate re-verification and the CLI surface."""

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import count_calls
from fpcolor import cli
from fpcolor import constructions as cons
from fpcolor import suites
from fpcolor.cli import main
from fpcolor.params import PARAMETERS, Parameter
from fpcolor.report import (
    CertificateError,
    assignment_to_json,
    canonical_json,
    col_to_json,
    coloring_to_json,
    island_to_json,
    jsonable,
    make_report,
    peel_to_json,
    verify_certificate,
    verify_report,
)
from fpcolor.check import exists_L_coloring
from fpcolor.solvers import (CHOOSABILITY_N_CAP, CHOOSABILITY_S_CAP, chi_fp, col_fp,
                             decide_choosability_fp, find_island)
from fpcolor.graph import bits, from_graph6, mask_of, to_graph6
from fpcolor.suites import choosability_value, random_graph_sample

STAR = PARAMETERS["star"]


def test_jsonable_conversions():
    assert jsonable(Fraction(3, 2)) == "3/2"
    assert jsonable(float("inf")) == "inf"
    assert jsonable({2: {1, 0}}) == {"2": [0, 1]}
    assert jsonable((1, (2, 3))) == [1, [2, 3]]


def test_canonical_json_is_stable():
    payload = {"b": 1, "a": {"d": Fraction(1, 3), "c": [3, 1]}}
    one = canonical_json(payload)
    two = canonical_json({"a": {"c": [3, 1], "d": Fraction(1, 3)}, "b": 1})
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == {"a": {"c": [3, 1], "d": "1/3"}, "b": 1}


def test_make_report_timing_opt_in(capsys, monkeypatch):
    """Reports carry no wall time unless --timing asks; then the clock that
    cli.main starts covers the whole run, loading and reporting included."""
    assert "elapsed_ms" not in make_report("x", {}, {})
    clock = iter([10.0, 12.5])
    monkeypatch.setattr(cli, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    code, out, _ = run_cli(capsys, "--timing", "lemma", "estim", "--smax", "2")
    assert code == 0 and json.loads(out)["elapsed_ms"] == 2500


def test_col_certificate_round_trip():
    g = cons.petersen()
    res = col_fp(g, STAR, 1)
    cert = col_to_json(res, "star", 1)
    assert verify_certificate(g, cert)
    # tampering with an island must be caught
    bad = json.loads(json.dumps(cert))
    bad["upper"]["islands"][0] = [0, 1, 2, 3, 4, 5]
    assert not verify_certificate(g, bad)
    bad = json.loads(json.dumps(cert))
    bad["value"] = res.value - 1
    assert not verify_certificate(g, bad)
    # a value above 1 needs its lower certificate, stated at value - 1 and the
    # upper certificate's f and p; each tampered lower one verifies on its own
    bad = json.loads(json.dumps(cert))
    del bad["lower"]
    assert not verify_certificate(g, bad)
    for key, value in (("s", res.value - 2), ("f", "fan"), ("p", 0)):
        bad = json.loads(json.dumps(cert))
        bad["lower"][key] = value
        assert verify_certificate(g, bad["lower"]), key
        assert not verify_certificate(g, bad), key


def test_peel_certificate():
    g = cons.cycle(6)
    res = col_fp(g, STAR, 2)
    assert verify_certificate(g, peel_to_json(res.islands, res.value, "star", 2))


def test_coloring_certificate():
    g = cons.cycle(5)
    s, coloring = chi_fp(g, STAR, 1)
    cert = coloring_to_json(coloring, "star", 1)
    assert verify_certificate(g, cert)
    cert_bad = coloring_to_json((0,) * 5, "star", 1)
    assert not verify_certificate(g, cert_bad)
    assert not verify_certificate(g, coloring_to_json(coloring + (0,), "star", 1))
    # a coloring from lists, which no solver emits but verify still checks
    with_lists = {**cert, "lists": [[0, 1, 2]] * 5}
    assert verify_certificate(g, with_lists)
    off_list = {**cert, "lists": [[9]] * 5}
    assert not verify_certificate(g, off_list)


def test_bad_assignment_certificate():
    g = cons.complete_bipartite(2, 4)
    ok, bad = decide_choosability_fp(g, 2, STAR, 1)
    assert not ok
    assert verify_certificate(g, assignment_to_json(bad, 2, "star", 1))
    # a colorable assignment is not a valid counterexample
    easy = {"type": "bad_list_assignment", "s": 1, "f": "star", "p": 1,
            "lists": [[v] for v in range(6)]}
    assert not verify_certificate(g, easy)
    # still uncolourable, but one list too many, or one list short of s
    lists = [list(bits(lst)) for lst in bad]
    for tampered in (lists + [[0, 1]], [lists[0][:1]] + lists[1:]):
        cert = {**assignment_to_json(bad, 2, "star", 1), "lists": tampered}
        assert not verify_certificate(g, cert), tampered
    # 4^10 colourings of ten lists are past the cap, even where the first is proper
    huge = {"type": "bad_list_assignment", "s": 4, "f": "star", "p": 1,
            "lists": [[0, 1, 2, 3]] * 10}
    with pytest.raises(CertificateError, match="unverifiable at cap"):
        verify_certificate(cons.edgeless(10), huge)
    # an empty list admits no colouring, whatever the length of the others,
    # which the cap on the count of colourings does not bound
    empty = {"type": "bad_list_assignment", "s": 0, "f": "star", "p": 1,
             "lists": [[], list(range(10**6))]}
    started = time.perf_counter()
    assert verify_certificate(cons.path(2), empty)
    assert time.perf_counter() - started < 2


def test_bad_assignment_check_reads_n_colours_per_list():
    """Before the check each list keeps its g.n smallest colours, which
    leaves every verdict: a vertex with n colours can take one that no other
    vertex uses, alone in its class.  On K2 the lists 0..99999 and {0}
    (colourable, since K2 is no class at max-degree 0) verify at once, and
    random systems on at most 5 vertices with lists of up to 8 colours get
    the verdict of the check on the lists as given."""
    long = {"type": "bad_list_assignment", "s": 1, "f": "max-degree", "p": 0,
            "lists": [list(range(10**5)), [0]]}
    started = time.perf_counter()
    assert not verify_certificate(cons.complete(2), long)
    assert time.perf_counter() - started < 0.1
    rng = random.Random(191)
    cut = uncolourable = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        g = cons.random_gnp(n, rng.uniform(0.3, 1), rng.getrandbits(32))
        f, p = rng.choice(list(PARAMETERS.values())), rng.randint(0, 2)
        colours = rng.randint(1, 10)
        lists = [rng.sample(range(colours), rng.randint(1, min(8, colours))) for _ in range(n)]
        cert = {"type": "bad_list_assignment", "s": 1, "f": f.id, "p": p, "lists": lists}
        verdict = exists_L_coloring(g, [mask_of(lst) for lst in lists], f, p) is None
        assert verify_certificate(g, cert) == verdict, (g.edges(), f.id, p, lists)
        cut += any(len(lst) > n for lst in lists)
        uncolourable += verdict
    assert cut > 200 and uncolourable > 50, (cut, uncolourable)


def test_island_certificate():
    g = cons.path(5)
    island = find_island(g, 2, STAR, 1)
    assert island is not None
    assert verify_certificate(g, island_to_json(g, island, 2, STAR, 1))
    fake = island_to_json(g, island, 2, STAR, 1)
    fake["vertices"] = [2]  # an interior path vertex has 2 outside neighbors
    assert not verify_certificate(g, fake)
    # the empty set is no island, even with claims that match it
    empty = island_to_json(g, 0, 2, STAR, 1)
    assert not verify_certificate(g, empty)
    # f_value and outside_counts are derived from the definitions
    for g in random_graph_sample(30, 7, 101):
        for f, p in ((STAR, 2), (PARAMETERS["max-degree"], 1), (PARAMETERS["fan"], 2)):
            island = find_island(g, 3, f, p)
            if island is not None:
                cert = island_to_json(g, island, 3, f, p)
                assert cert["f_value"] == f.eval_mask(g, island) <= p
                assert cert["outside_counts"] == {
                    str(v): (g.adj[v] & ~island).bit_count() for v in bits(island)}
                assert verify_certificate(g, cert)


def test_verify_report_and_tampering():
    g = cons.cycle(5)
    res = col_fp(g, STAR, 1)
    report = make_report(
        "solve col",
        {"graph6": to_graph6(g), "graph_hash": g.content_hash()},
        {"value": res.value},
        col_to_json(res, "star", 1),
    )
    assert verify_report(report)
    tampered = json.loads(canonical_json(report))
    tampered["inputs"]["graph6"] = to_graph6(cons.path(5))
    with pytest.raises(CertificateError, match="tampered"):
        verify_report(tampered)
    with pytest.raises(CertificateError):
        verify_report({"inputs": {"graph6": to_graph6(g)}, "certificate": None})
    with pytest.raises(CertificateError, match="lacks inputs.graph6"):
        verify_report({**report, "inputs": {"graph_hash": g.content_hash()}})
    # the excluded core rules out no vertex for mad at p = 2: 20 are left, past 16
    refused = {"type": "island_free", "s": 3, "f": "mad", "p": 2, "vertices": list(range(20))}
    with pytest.raises(CertificateError, match="unverifiable at cap"):
        verify_certificate(cons.random_gnp(20, 0.3, 1), refused)
    with pytest.raises(CertificateError):
        verify_certificate(g, {"type": "mystery"})


# -- CLI ------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_python_m_fpcolor_runs_the_cli(tmp_path):
    """``python -m fpcolor`` is the ``fpcolor`` command, exit code included."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out_file = tmp_path / "chi.json"
    done = subprocess.run([sys.executable, "-m", "fpcolor", "solve", "chi", "--gen", "cycle:5",
                           "--f", "star", "--p", "1", "--out", str(out_file)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(out_file.read_text())["result"]["value"] == 3
    refused = subprocess.run([sys.executable, "-m", "fpcolor", "lemma", "pipeline", "--seeds", "0"],
                             env=env, capture_output=True, text=True, timeout=60)
    assert refused.returncode == 2, refused.stderr


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    import argparse

    run_cli(capsys, "generate", "--gen", "path:3")
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (("generate", "--gen", "path:3"), ("param", "--gen", "cycle:5", "--f", "star"),
                 ("solve", "col", "--gen", "path:4", "--f", "star"),
                 ("lemma", "estim", "--smax", "2"), ("generate", "--gen", "cycle:3")):
        assert run_cli(capsys, *argv)[0] == 0, argv
    assert built == []


def test_cli_param(capsys):
    code, out, _ = run_cli(capsys, "param", "--gen", "cycle:5", "--f", "star")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["value"] == 5
    assert rep["result"]["traits"]["hereditary"] is True
    assert "elapsed_ms" not in rep


def test_cli_param_mad_reports_exact_value(capsys):
    code, out, _ = run_cli(capsys, "param", "--gen", "path:4", "--f", "mad")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["value"] == 1
    assert rep["result"]["exact_mad"] == "3/2"


def test_cli_param_mad_runs_one_exact_mad(capsys, monkeypatch):
    from fpcolor import density

    calls = []
    original = density.exact_mad

    def counted(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(density, "exact_mad", counted)
    code, out, _ = run_cli(capsys, "param", "--gen", "path:6", "--f", "mad")
    assert code == 0
    rep = json.loads(out)
    assert (rep["result"]["value"], rep["result"]["exact_mad"]) == (1, "5/3")
    assert calls == [6]


def test_cli_solve_and_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "col.json"
    code, _, _ = run_cli(capsys, "solve", "col", "--gen", "petersen:",
                         "--f", "star", "--p", "1", "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["result"]["value"] == 4
    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 0 and "OK" in out
    # corrupt the certificate and watch verification fail
    rep["certificate"]["upper"]["islands"][0] = [0, 1, 2]
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(rep))
    code, out, _ = run_cli(capsys, "verify", str(bad_file))
    assert code == 1 and "INVALID" in out


def test_cli_verify_malformed_reports(tmp_path, capsys):
    """A malformed report ends in exit 1 and one line on stderr, not a traceback."""
    col_file = tmp_path / "col.json"
    run_cli(capsys, "solve", "col", "--gen", "petersen", "--f", "star", "--p", "1",
            "--out", str(col_file))
    chi_file = tmp_path / "chi.json"
    run_cli(capsys, "solve", "chi", "--gen", "cycle:5", "--f", "star", "--p", "1",
            "--out", str(chi_file))
    no_islands = json.loads(col_file.read_text())
    del no_islands["certificate"]["upper"]["islands"]
    no_f = json.loads(chi_file.read_text())
    del no_f["certificate"]["f"]
    negative_vertex = json.loads(col_file.read_text())
    negative_vertex["certificate"]["upper"]["islands"][0] = [-1]
    vertex_past_n = json.loads(col_file.read_text())
    vertex_past_n["certificate"]["lower"]["vertices"].append(10)
    unknown_f = json.loads(chi_file.read_text())
    for section in ("inputs", "result", "certificate"):
        unknown_f[section]["f"] = "nosuch"
    bad_graph6 = {"command": "solve chi", "inputs": {"graph6": "!!"},
                  "certificate": {"type": "coloring"}}
    for name, payload in (("no_islands", no_islands), ("no_f", no_f), ("list", [1, 2]),
                          ("negative_vertex", negative_vertex),
                          ("vertex_past_n", vertex_past_n), ("unknown_f", unknown_f),
                          ("bad_graph6", bad_graph6)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1, name
        assert out == "" and err.startswith("verify: ") and err.count("\n") == 1, (name, err)


@pytest.mark.parametrize("damage", ["truncated", "not_utf8"])
def test_cli_verify_report_that_is_not_json(tmp_path, capsys, damage):
    """A truncated report, or one that is not UTF-8, is malformed: exit 1
    and one line, not the usage error's exit 2."""
    path = tmp_path / "col.json"
    run_cli(capsys, "solve", "col", "--gen", "petersen", "--f", "star", "--p", "1",
            "--out", str(path))
    text = path.read_bytes()
    path.write_bytes(text[:40] if damage == "truncated" else text.replace(b"col", b"\xff"))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and out == "" and err.count("\n") == 1, err
    assert err.startswith("verify: malformed report: "), err


def test_cli_verify_report_nested_too_deeply(tmp_path, capsys):
    """Nesting past the JSON decoder's depth, or a certificate chain past the
    verifier's, is a malformed report: exit 1 and one line, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (1, "", "verify: malformed report: nested too deeply\n")
    cert = {"type": "peel"}
    for _ in range(5000):
        cert = {"type": "col", "value": 2, "upper": cert}
    report = {"command": "solve col", "inputs": {"graph6": "@"}, "certificate": cert}
    with pytest.raises(CertificateError, match="malformed report"):
        verify_report(report)


def test_cli_verify_binds_claims_to_certificate(tmp_path, capsys):
    """A report whose answer, f, p or s disagrees with its certificate fails."""
    reports = {}
    for op, gen, extra in (("col", "petersen", ()), ("chi", "cycle:5", ()),
                           ("choosable", "complete-bipartite:2,4", ("--s", "2")),
                           ("island", "path:5", ("--s", "2"))):
        path = tmp_path / f"{op}.json"
        run_cli(capsys, "solve", op, "--gen", gen, "--f", "star", "--p", "1", *extra,
                "--out", str(path))
        assert run_cli(capsys, "verify", str(path))[0] == 0, op
        reports[op] = json.loads(path.read_text())
    tampers = [
        ("col", "result", "value", 99),
        ("col", "inputs", "f", "max-degree"),
        ("col", "inputs", "p", 2),
        ("chi", "result", "value", 2),
        ("chi", "inputs", "p", 2),
        ("choosable", "result", "value", True),
        ("choosable", "inputs", "f", "max-degree"),
        ("choosable", "inputs", "p", 2),
        ("choosable", "inputs", "s", 3),
        ("island", "result", "value", False),
        ("island", "inputs", "s", 3),
    ]
    for op, section, key, value in tampers:
        report = json.loads(json.dumps(reports[op]))
        report[section][key] = value
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(report))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and out == "", (op, section, key)
        assert "disagrees with the certificate" in err, (op, section, key, err)
    # an island certificate's f value and outside counts are claims too
    for key, value in (("f_value", 99), ("outside_counts", {"0": 7, "3": 1}),
                       ("outside_counts", {"0": True})):
        report = json.loads(json.dumps(reports["island"]))
        report["certificate"][key] = value
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(report))
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 1 and "INVALID" in out, (key, value)
    # a claim of choosability cannot come with a certificate of another kind
    report = json.loads(json.dumps(reports["chi"]))
    report["command"] = "solve choosable"
    path = tmp_path / "retyped.json"
    path.write_text(json.dumps(report))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1 and "cannot carry" in err
    # C4 is 2-choosable: lists must be sets of s integer colours, or a
    # repeated colour would pass for a bad assignment
    path = tmp_path / "c4.json"
    run_cli(capsys, "solve", "choosable", "--gen", "cycle:4", "--f", "star", "--p", "1",
            "--s", "2", "--out", str(path))
    c4 = json.loads(path.read_text())
    c4["result"]["value"] = False
    for lists in ([[0, 0]] * 4, [[0, 1]] * 3 + [[0, True]], [[0, 1]] * 3 + [[0, 1.5]],
                  [[0, 1]] * 3 + [["0", "1"]]):
        c4["certificate"] = {"type": "bad_list_assignment", "s": 2, "f": "star", "p": 1,
                             "lists": lists}
        path.write_text(json.dumps(c4))
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 1 and out == "" and "integer colours" in err, (lists, err)


def test_cli_choosable_cases_that_hung(tmp_path, capsys):
    """The list-system enumerator ran for minutes on these; the search does not."""
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, "solve", "choosable", "--gen", "cycle:8", "--f", "star",
                           "--p", "1", "--s", "2")
    assert code == 0 and json.loads(out)["result"]["value"] is True
    for gen in ("complete-bipartite:3,3", "complete-bipartite:4,4"):
        path = tmp_path / "choose.json"
        code, _, _ = run_cli(capsys, "solve", "choosable", "--gen", gen, "--f", "star",
                             "--p", "1", "--s", "2", "--out", str(path))
        assert code == 1, gen
        assert json.loads(path.read_text())["result"]["value"] is False
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0 and "OK" in out, gen
    assert time.perf_counter() - started < 10


def test_cli_choosable_failure_exit_code(tmp_path, capsys):
    out_file = tmp_path / "choose.json"
    code, _, _ = run_cli(capsys, "solve", "choosable", "--gen",
                         "complete-bipartite:2,4", "--f", "star", "--p", "1",
                         "--s", "2", "--out", str(out_file))
    assert code == 1
    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 0 and "OK" in out


def test_cli_island(capsys):
    code, out, _ = run_cli(capsys, "solve", "island", "--gen", "path:5",
                           "--f", "star", "--p", "1", "--s", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["value"] is True
    assert rep["certificate"]["vertices"] == [0]


def test_cli_island_root_must_satisfy_f(capsys):
    """Every vertex of K3 is a 3-island on its own, but star is 1 > 0 there."""
    code, out, _ = run_cli(capsys, "solve", "island", "--gen", "complete:3",
                           "--f", "star", "--p", "0", "--s", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["value"] is False and rep["certificate"] is None


def _verify_tampered(tmp_path, capsys, report):
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    return run_cli(capsys, "verify", str(path))


def _set_everywhere(node, key, value):
    """Set ``key`` to ``value`` in every dict of ``node`` that holds it, not null."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == key and v is not None:
                node[k] = value
            else:
                _set_everywhere(v, key, value)


def test_cli_verify_refuses_non_integer_s_and_p(tmp_path, capsys):
    """An s or p of 2.5 or true, set alike in a report's certificate, inputs
    and result, was once checked as if it were an integer, and most such
    reports verified as "certificate OK"; each is refused in one line."""
    cases = [(("island", "--gen", "path:4", "--p", "2", "--s", "2"), key, value)
             for key, value in (("s", 2.5), ("s", True), ("p", 2.5))]
    cases += [((op, "--gen", "cycle:5", "--p", "1"), "p", 1.5) for op in ("col", "chi")]
    for argv, key, value in cases:
        path = tmp_path / "report.json"
        run_cli(capsys, "solve", *argv, "--f", "star", "--out", str(path))
        report = json.loads(path.read_text())
        _set_everywhere(report, key, value)
        code, out, err = _verify_tampered(tmp_path, capsys, report)
        assert (code, out, err.count("\n")) == (1, "", 1), (argv, key, value, out)
        assert "is not an integer" in err, err


def test_cli_verify_rejects_an_empty_lower_certificate(tmp_path, capsys):
    """An empty vertex set is vacuously island-free, but proves no lower
    bound: a stuck peel remainder is never empty."""
    path = tmp_path / "col.json"
    run_cli(capsys, "solve", "col", "--gen", "petersen", "--f", "star", "--p", "1",
            "--out", str(path))
    report = json.loads(path.read_text())
    assert report["result"]["value"] == 4
    cert = report["certificate"]
    report["result"]["value"] = cert["value"] = cert["upper"]["s"] = 5
    cert["lower"].update(s=4, vertices=[])
    code, out, _ = _verify_tampered(tmp_path, capsys, report)
    assert code == 1 and "INVALID" in out


def test_cli_verify_rejects_col_below_one(tmp_path, capsys):
    """col of the null graph is 1 by convention, so a col of 0 is refused."""
    path = tmp_path / "col.json"
    run_cli(capsys, "solve", "col", "--gen", "edgeless:0", "--f", "star", "--p", "1",
            "--out", str(path))
    assert run_cli(capsys, "verify", str(path))[0] == 0
    report = json.loads(path.read_text())
    cert = report["certificate"]
    assert cert["value"] == 1 and cert["lower"] is None
    for value in (0, -1):
        report["result"]["value"] = cert["value"] = cert["upper"]["s"] = value
        code, out, _ = _verify_tampered(tmp_path, capsys, report)
        assert code == 1 and "INVALID" in out, value


def test_cli_verifies_large_lower_certificate_by_excluded_core(tmp_path, capsys):
    """A lower certificate of 36 vertices, past the exhaustive cap of 16,
    verifies because the excluded core covers it."""
    out_file = tmp_path / "col.json"
    code, _, _ = run_cli(capsys, "solve", "col", "--gen", "gnp:40,0.3,1",
                         "--f", "max-degree", "--p", "2", "--out", str(out_file))
    assert code == 0
    rep = json.loads(out_file.read_text())
    assert rep["result"]["value"] == 8
    assert len(rep["certificate"]["lower"]["vertices"]) == 36
    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 0 and "OK" in out


def test_cli_verifies_the_fan_lower_certificate_at_its_size(tmp_path, capsys):
    """``solve col`` on gnp:22,0.3,1 with fan p = 3 answers 4 with a lower
    certificate of 20 vertices at s = 3.  The neighbourhood rule of the
    excluded core rules out all 20, where the star rule ruled out none and
    ``verify`` refused it at the cap of 16.  With the vertices of an island
    of the whole graph at s = 3 put back (the peel removed them), it is
    INVALID."""
    path = tmp_path / "col.json"
    code, _, _ = run_cli(capsys, "solve", "col", "--gen", "gnp:22,0.3,1", "--f", "fan",
                         "--p", "3", "--out", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    lower = report["certificate"]["lower"]
    assert report["result"]["value"] == 4 and lower["s"] == 3 and len(lower["vertices"]) == 20
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0 and "certificate OK" in out
    island = find_island(cons.random_gnp(22, 0.3, 1), 3, PARAMETERS["fan"], 3)
    assert island and not island & mask_of(lower["vertices"])
    lower["vertices"] = sorted([*lower["vertices"], *bits(island)])
    code, out, _ = _verify_tampered(tmp_path, capsys, report)
    assert code == 1 and "INVALID" in out


def test_fan_jobs_class_test_counts(tmp_path, capsys):
    """Class tests (``Parameter.allows`` calls) of ``solve`` and then
    ``verify`` on the four fan jobs of the certify workload that reach the
    excluded core, and on gnp:30,0.3,2, are bounded at about 1.2x their
    counts with the neighbourhood rule: 525 + 164, 99 + 12, 164 + 124, 120
    (no certificate) and 1,593 + 715.  Without the rule they were 2,578 + 12,
    48 + 20, 208 + 601, 123 and 85,491 + 28."""
    allows = Parameter.allows.__code__
    path = str(tmp_path / "report.json")
    for argv, bound in (("solve col --gen gnp:22,0.3,1 --f fan --p 3", 830),
                        ("solve col --gen gnp:16,0.3,1 --f fan --p 3", 135),
                        ("solve col --gen fan-join:3 --f fan --p 3", 345),
                        ("solve island --gen fan-join:3 --f fan --p 3 --s 3", 145),
                        ("solve col --gen gnp:30,0.3,2 --f fan --p 3", 2770)):
        code, solved = count_calls(main, allows, [*argv.split(), "--out", path])
        assert code == 0, argv
        checked = 0
        if json.loads(Path(path).read_text())["certificate"] is not None:
            code, checked = count_calls(main, allows, ["verify", path])
            assert code == 0, argv
        capsys.readouterr()
        assert solved + checked <= bound, (argv, solved, checked)


def test_cli_chromatic_past_its_cap_when_the_bounds_decide(tmp_path, capsys):
    """A class test or a value that the greedy bounds settle is not refused
    at the chromatic cap of 24 vertices: a 40-vertex path is one island
    with chromatic 2, and K_{13,13} has chromatic 2."""
    out_file = tmp_path / "col.json"
    code, _, _ = run_cli(capsys, "solve", "col", "--gen", "path:40", "--f", "chromatic",
                         "--p", "2", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["result"]["value"] == 1
    code, out, _ = run_cli(capsys, "verify", str(out_file))
    assert code == 0 and "OK" in out
    code, out, _ = run_cli(capsys, "param", "--gen", "complete-bipartite:13,13",
                           "--f", "chromatic")
    assert code == 0 and json.loads(out)["result"]["value"] == 2


def test_cli_col_past_the_exhaustive_cap(tmp_path, capsys):
    """``solve col`` on gnp:64,0.1,1 with mad p = 1 answers 4 (it ran past
    150 s before the degree-sum cut); its lower certificate has 60
    candidates, past the exhaustive check's cap of 16, so ``verify`` refuses
    it."""
    out_file = tmp_path / "col.json"
    code, _, _ = run_cli(capsys, "solve", "col", "--gen", "gnp:64,0.1,1",
                         "--f", "mad", "--p", "1", "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["result"]["value"] == 4
    code, out, err = run_cli(capsys, "verify", str(out_file))
    assert code == 1 and "unverifiable at cap" in out + err


def test_cli_usage_errors(capsys):
    assert run_cli(capsys, "param", "--gen", "nosuch:3", "--f", "star")[0] == 2
    assert run_cli(capsys, "param", "--f", "star")[0] == 2
    assert run_cli(capsys, "solve", "col", "--gen", "cycle:5", "--f", "star",
                   "--p", "0")[0] == 2
    assert run_cli(capsys, "verify", "/nonexistent/report.json")[0] == 2
    for argv in (("adversary", "--gen", "bipartite:0,1", "--s", "2"),
                 ("param", "--gen", "bipartite:0,1", "--f", "star")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.count("\n") == 1 and "n >= 1" in err, argv
    for gen, message in (("complete-bipartite:-1,2", "part sizes >= 0"),
                         ("gnp:5,1.5,1", "out of [0,1]"),
                         ("gnp:5,-0.5,1", "out of [0,1]")):
        code, _, err = run_cli(capsys, "param", "--gen", gen, "--f", "star")
        assert code == 2 and err.count("\n") == 1 and message in err, gen


def test_cli_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "choosable", "--gen", "gnp:12,0.5,1",
                           "--f", "star", "--p", "1", "--s", "2")
    assert code == 3
    assert "cap" in err


def test_cli_negative_island_size_is_a_usage_error(capsys):
    """A negative s once gave an exact "no island"; s = 0 is a valid size
    that no island meets."""
    code, out, err = run_cli(capsys, "solve", "island", "--gen", "petersen", "--f", "star",
                             "--p", "1", "--s", "-1")
    assert (code, out, err) == (2, "", "error: island: s=-1 is negative\n")
    code, out, _ = run_cli(capsys, "solve", "island", "--gen", "petersen", "--f", "star",
                           "--p", "1", "--s", "0")
    assert code == 0 and json.loads(out)["result"]["value"] is False


def test_cli_island_of_a_long_cycle(capsys):
    """The island search keeps its own stack: an island of 1,500 vertices
    once ended in a RecursionError."""
    code, out, _ = run_cli(capsys, "solve", "island", "--gen", "cycle:1500", "--f",
                           "max-degree", "--p", "2", "--s", "1")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["value"] is True
    assert report["certificate"]["vertices"] == list(range(1500))
    assert verify_report(report)


def test_cli_question_refuses_sizes_that_check_nothing(capsys):
    """A question scan over no graph, or with no list size to try, would
    check nothing and exit 0; it is a usage error instead."""
    for argv, message in ((("--graphs", "0"), "--graphs must be at least 1, got 0"),
                          (("--graphs", "-3"), "--graphs must be at least 1, got -3"),
                          (("--smax", "0"), "--smax must be at least 1, got 0"),
                          (("--gen", "cycle:4", "--smax", "0"), "--smax must be at least 1, got 0")):
        code, out, err = run_cli(capsys, "question", "q1", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


#: sha256 of the canonical report of each run, computed at commit 4d95530,
#: which still kept colour lists as frozensets
REPORT_DIGESTS = {
    "solve choosable --gen complete-bipartite:2,4 --f star --p 1 --s 2":
        "ab1fd4989b470f7e90a3b405e0571f847a0d3dd027e976d0ae2e22d2a7ddb0a7",
    "solve choosable --gen cycle:5 --f star --p 1 --s 2":
        "8c458df36984f8a0a0b81fcb9c235e94b4723683d4ba2b2b77113b4c47940ba0",
    "solve choosable --gen complete:5 --f star --p 2 --s 2":
        "de876168e4c2d4c51c5fb10a21785387b867e3b89f53a4b501b8152985b05bff",
    "adversary --gen bipartite:200,64,0 --check-domination":
        "b88930469a9e190e1eee24d5dc3eb9b6f71fbe4a725a72a3a0fe63023ba9fa0a",
    "lemma nofan": "36568852dec59358e2851629d4b0791a6f7647c100b6a103a5e9a075c227baa5",
    "lemma path": "61a81c7e23cd72914f87b25d0b7736b8edc38ad0e9bc3555159b8e7989c626dc",
    "lemma pipeline --seeds 3":
        "7aeb15223c2a48dea9450396525cf17e4ef7de902dc0c5b341974993f5444fb5",
}


@pytest.mark.parametrize("argv", sorted(REPORT_DIGESTS))
def test_reports_with_colour_lists_pinned(capsys, argv):
    """Reports that write colour lists (bad list assignments, the adversary's
    L0 and L1) or draw them (nofan, path, pipeline), byte for byte."""
    _, out, _ = run_cli(capsys, *argv.split())
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[argv]


#: sha256 of the canonical ``param --f mad`` report of each graph of the
#: density benchmark, computed at commit 5438f5e, before ``max_density``
#: started at the densest suffix of the peel order
MAD_REPORT_DIGESTS = {
    "path:1000": "4ff5d62e684b08e509aa6d075f64100711b575114edca700b539c60c2f711015",
    "gnp:600,0.02,1": "02468007f9cc7cacd9d9dca295e880e8d3bb8c86a2d5cb9e496a2ca3ae66007e",
    "bipartite:200,64,0": "288f7df6567ef71d4af81535e4ff155889a2b68470ab74be05cbbb3cd66d7274",
}


@pytest.mark.parametrize("gen", sorted(MAD_REPORT_DIGESTS))
def test_mad_reports_pinned(capsys, gen):
    """The exact mad and its floor, byte for byte."""
    code, out, _ = run_cli(capsys, "param", "--gen", gen, "--f", "mad")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == MAD_REPORT_DIGESTS[gen]


def test_cli_byte_identical_runs(capsys):
    args = ("solve", "col", "--gen", "gnp:8,0.4,7", "--f", "star", "--p", "1")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    _, timed, _ = run_cli(capsys, "--timing", *args)
    assert "elapsed_ms" in json.loads(timed)


def test_cli_timing_on_every_report_command(capsys):
    """--timing adds elapsed_ms to every report, lemma and question ones
    included, and changes nothing else; without it runs stay byte-identical."""
    for argv in (("lemma", "estim", "--smax", "3"),
                 ("question", "q1", "--graphs", "2", "--max-n", "3", "--seed", "0"),
                 ("adversary", "--gen", "bipartite:6,3,0", "--d", "4"),
                 ("param", "--gen", "cycle:5", "--f", "mad")):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second and "elapsed_ms" not in json.loads(first), argv
        _, timed, _ = run_cli(capsys, "--timing", *argv)
        timed = json.loads(timed)
        assert isinstance(timed.pop("elapsed_ms"), int), argv
        assert timed == json.loads(first), argv


def test_cli_generate_and_file_loading(tmp_path, capsys):
    g6_file = tmp_path / "g.g6"
    code, _, _ = run_cli(capsys, "generate", "--gen", "cycle:6", "--emit", "g6",
                         "--out", str(g6_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "param", "--graph", str(g6_file), "--f", "max-degree")
    assert code == 0 and json.loads(out)["result"]["value"] == 2

    edges_file = tmp_path / "g.edges"
    code, _, _ = run_cli(capsys, "generate", "--gen", "cycle:6", "--emit", "edges",
                         "--out", str(edges_file))
    assert code == 0
    code, out, _ = run_cli(capsys, "param", "--graph", str(edges_file), "--f", "star")
    assert code == 0 and json.loads(out)["result"]["value"] == 6


def test_cli_reads_a_one_edge_tab_separated_edge_list(tmp_path, capsys):
    """A file of one token is graph6; "0<TAB>1" is two tokens, an edge list."""
    path = tmp_path / "g.edges"
    for text in ("0\t1\n", "0 1", "0\t1\n1\t2\n"):
        path.write_text(text)
        code, out, err = run_cli(capsys, "param", "--graph", str(path), "--f", "star")
        assert code == 0 and not err, (text, err)
        assert json.loads(out)["result"]["value"] == len(set(text.split()))  # one path
    path.write_text("A_\n")  # K2 in graph6
    code, out, _ = run_cli(capsys, "param", "--graph", str(path), "--f", "star")
    assert code == 0 and json.loads(out)["result"]["value"] == 2


def test_cli_verify_bad_assignment_with_any_integer_colours(tmp_path, capsys):
    """verify renames a bad assignment's colours 0..u-1 in sorted order before
    it checks the lists, so negative and huge colours are checked alike."""
    path = tmp_path / "k24.json"
    code, _, _ = run_cli(capsys, "solve", "choosable", "--gen", "complete-bipartite:2,4",
                         "--f", "star", "--p", "1", "--s", "2", "--out", str(path))
    assert code == 1
    report = json.loads(path.read_text())
    names = (-5, 0, 7, 10**30)
    lists = [[names[c] for c in lst] for lst in report["certificate"]["lists"]]
    report["certificate"]["lists"] = lists
    assert _verify_tampered(tmp_path, capsys, report)[:2] == (0, "certificate OK\n")
    # both vertices of the 2-side take the first colour of one list: colourable
    report["certificate"]["lists"] = [lists[0], lists[0], *lists[2:]]
    assert _verify_tampered(tmp_path, capsys, report)[:2] == (1, "certificate INVALID\n")


def test_cli_table_format(capsys):
    """Reports have one format, canonical JSON: ``--format`` is a usage error."""
    for argv in (("param", "--gen", "cycle:5", "--f", "star"), ("lemma", "path")):
        with pytest.raises(SystemExit) as refused:
            main([*argv, "--format", "table"])
        assert refused.value.code == 2
        assert "unrecognized arguments: --format table" in capsys.readouterr().err


def test_cli_adversary(capsys):
    code, out, _ = run_cli(capsys, "adversary", "--gen", "bipartite:20,4,2",
                           "--s", "2", "--k", "1", "--d", "4", "--seed", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["condition_report"]["B_size"] == len(rep["result"]["B"])


def test_cli_adversary_check_domination(capsys):
    """Condition (c) is checked over every L0-colouring of B when there are at
    most DOMINATION_EXACT_CAP of them, and on --trials random ones past it."""
    base = ("adversary", "--s", "2", "--k", "1", "--check-domination")
    code, out, _ = run_cli(capsys, *base, "--gen", "bipartite:20,4,2", "--d", "4",
                           "--seed", "3")
    rep = json.loads(out)
    assert code == 0 and 2 ** len(rep["result"]["B"]) <= cons.DOMINATION_EXACT_CAP
    assert rep["status"] == "exact" and rep["result"]["domination"]["exact"]
    code, out, _ = run_cli(capsys, *base, "--gen", "bipartite:30,8,77", "--d", "8",
                           "--seed", "77", "--trials", "7")
    rep = json.loads(out)
    assert code == 0 and 2 ** len(rep["result"]["B"]) > cons.DOMINATION_EXACT_CAP
    assert rep["status"] == "estimate"
    assert rep["result"]["domination"] == {"checked": 7, "exact": False, "ok": False,
                                           "worst_margin": -len(rep["result"]["B"])}
    # sampling no colouring would report "ok": true having checked nothing
    for trials in ("0", "-1"):
        code, out, err = run_cli(capsys, *base, "--gen", "bipartite:200,64,0", "--trials",
                                 trials)
        assert (code, out, err) == (
            2, "", f"error: trials must be at least 1 to sample colorings, got {trials}\n")
    # an exact check samples nothing, so it takes any trial count
    code, out, _ = run_cli(capsys, *base, "--gen", "bipartite:20,4,2", "--d", "4",
                           "--seed", "3", "--trials", "0")
    assert code == 0 and json.loads(out)["result"]["domination"]["exact"]


def test_cli_lemma_suites(capsys):
    code, out, _ = run_cli(capsys, "lemma", "estim")
    rep = json.loads(out)
    assert code == 0 and rep["result"]["passed"]
    assert rep["inputs"]["config"] == {"smax": 12}  # the suite's default
    code, out, _ = run_cli(capsys, "lemma", "mindeg", "--graphs", "5", "--seed", "1")
    assert code == 0 and json.loads(out)["result"]["passed"]


#: a tiny run of every suite, as suite arguments
TINY_LEMMA_RUNS = {
    "lemma1": {"graphs": 4, "max_n": 5, "trials": 2, "seed": 1},
    "nofan": {"i_values": [2], "trials": 5, "seed": 1},
    "addit": {"graphs": 4, "max_n": 5, "seed": 1},
    "path": {"t_values": [1, 2], "trials": 5, "n": 7, "seed": 1},
    "coldens": {"graphs": 4, "max_n": 6, "seed": 1},
    "mindeg": {"graphs": 4, "seed": 1},
    "estim": {"smax": 4},
    "pipeline": {"n": 40, "d": 16, "s": 2, "k": 1, "seeds": 2, "trials": 3},
}


def lemma_flag(param):
    return {"i_values": "--i", "t_values": "--t"}.get(param, "--" + param.replace("_", "-"))


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_cli_lemma_binds_flags_to_the_suite(capsys, name):
    """A lemma run gives the suite's own result on the flags it was given plus
    the suite's defaults, and records all of those arguments as its config."""
    assert sorted(TINY_LEMMA_RUNS) == sorted(suites.SUITES)
    given = TINY_LEMMA_RUNS[name]
    argv = []
    for param, value in given.items():
        argv += [lemma_flag(param), *map(str, value if isinstance(value, list) else [value])]
    code, out, err = run_cli(capsys, "lemma", name, *argv)
    assert err == ""
    rep = json.loads(out)
    fn = suites.SUITES[name]
    arguments = {param: given.get(param, value.default)
                 for param, value in inspect.signature(fn).parameters.items()}
    assert rep["inputs"]["config"] == jsonable(arguments)
    expected = fn(**arguments)
    assert rep["result"] == json.loads(canonical_json(expected))
    assert code == (0 if expected["passed"] else 1)


def test_cli_lemma_refuses_flags_a_suite_does_not_take(capsys):
    """A flag that the suite does not take ends the run with exit 2 and one
    line naming the flags it does take."""
    for argv, takes in ((("estim", "--seed", "1"), "it takes --smax"),
                        (("mindeg", "--max-n", "5"), "it takes --seed --graphs"),
                        (("pipeline", "--seed", "9"), "it takes --trials --n --d --k --s --seeds")):
        code, out, err = run_cli(capsys, "lemma", *argv)
        assert code == 2 and out == "" and err.count("\n") == 1, argv
        assert f"does not take {argv[1]}" in err and err.rstrip().endswith(takes), err
    # --n 0 reaches the suite, which refuses it, rather than reading as unset
    code, out, err = run_cli(capsys, "lemma", "path", "--n", "0")
    assert code == 2 and out == "" and "n >= 1" in err


def test_cli_lemma_refuses_sizes_that_check_nothing(capsys):
    """A size at which a suite would check nothing and still pass ends the
    run with exit 2 and one line naming the flag and its bound."""
    for argv, message in ((("lemma1", "--graphs", "-1"), "--graphs must be at least 1, got -1"),
                          (("lemma1", "--trials", "0"), "--trials must be at least 1, got 0"),
                          (("estim", "--smax", "0"), "--smax must be at least 1, got 0"),
                          (("path", "--trials", "0"), "--trials must be at least 1, got 0"),
                          (("mindeg", "--graphs", "0"), "--graphs must be at least 1, got 0"),
                          (("coldens", "--graphs", "2", "--max-n", "0"),
                           "--max-n must be at least 1, got 0"),
                          (("pipeline", "--seeds", "0"), "--seeds must be at least 1, got 0")):
        code, out, err = run_cli(capsys, "lemma", *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n", (argv, err)


def test_cli_lemma_flags_name_suite_parameters():
    """Each lemma flag sets a parameter of some suite, so renaming a suite
    parameter without its flag fails here."""
    flags = cli.build_parser().parse_args(["lemma", "estim"]).suite_flags
    params = {param for fn in suites.SUITES.values()
              for param in inspect.signature(fn).parameters}
    assert set(flags) <= params
    assert all(lemma_flag(param) == flag for param, flag in flags.items())


def test_cli_question_scan(capsys):
    code, out, _ = run_cli(capsys, "question", "q1", "--graphs", "3", "--max-n", "4",
                           "--p", "2", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["result"]["violations"] == []


def test_cli_question_scan_past_the_caps(capsys):
    """A graph past the choosability cap gets its own row instead of ending
    the scan, and one with no choosable s <= smax is labelled above_smax."""
    code, out, _ = run_cli(capsys, "question", "q1", "--graphs", "5", "--max-n", "12",
                           "--seed", "3", "--p", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["inputs"] == {"count": 5, "max_n": 12, "p": 1, "seed": 3, "smax": 3}
    rows = rep["result"]["rows"]
    assert [(row["n"], row["status"]) for row in rows] == [
        (4, "ok"), (6, "above_smax"), (11, "above_choosability_cap"), (1, "ok"), (5, "ok")]
    for row in rows:
        g = from_graph6(row["graph6"])
        if row["status"] == "above_choosability_cap":
            assert g.n > CHOOSABILITY_N_CAP
        elif row["status"] == "above_smax":
            assert choosability_value(g, STAR, 1, 3) is None


def test_cli_question_smax_past_the_s_cap(capsys):
    """--smax raises the s cap for the scan: K4 is 4-choosable, one past it."""
    assert CHOOSABILITY_S_CAP < 4
    code, out, _ = run_cli(capsys, "question", "q1", "--gen", "complete:4", "--smax", "4")
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert [(row["status"], row["lhs"]) for row in rows] == [("ok", 4)]


def test_cli_question_q2_scan(capsys):
    """q2 compares ch(star, 1) with (p + 1) ch(mad, p); each row agrees with
    choosability_value called directly."""
    code, out, _ = run_cli(capsys, "question", "q2", "--graphs", "6", "--max-n", "5",
                           "--seed", "1", "--p", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert [(row["n"], row["lhs"], row["rhs"], row["slack"]) for row in result["rows"]] == [
        (2, 2, 2, 0), (1, 1, 2, 1), (4, 3, 4, 1), (2, 1, 2, 1), (4, 2, 2, 0), (1, 1, 2, 1)]
    assert result["min_slack"] == 0 and result["violations"] == []
    for row in result["rows"]:
        g = from_graph6(row["graph6"])
        assert row["lhs"] == choosability_value(g, STAR, 1, 3)
        assert row["rhs"] == 2 * choosability_value(g, PARAMETERS["mad"], 1, 3)
