"""Property-based fuzzing of the input parsers, of report verification and
of the command line: malformed input ends in the parser's, the verifier's or
the CLI's own error, never in another exception."""

import contextlib
import functools
import io
import os
import tempfile

import pytest

from fpcolor import cli, suites
from fpcolor import constructions as cons
from fpcolor.graph import Graph, GraphError, from_edge_list, from_graph6, to_edge_list, to_graph6
from fpcolor.params import PARAMETERS
from fpcolor.report import CertificateError, verify_report

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: reproducible runs that leave no example database behind
FUZZ = hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)

#: an order byte (short or 4-byte form) and a payload of graph6 characters,
#: so that many inputs get past the header checks
near_graph6 = st.builds(
    lambda head, body: head + body,
    st.one_of(st.integers(0, 62).map(lambda n: chr(n + 63)),
              st.text(st.characters(min_codepoint=63, max_codepoint=126), min_size=1,
                      max_size=3).map(lambda t: "~" + t)),
    st.text(st.characters(min_codepoint=60, max_codepoint=127), max_size=40),
)


@FUZZ
@hypothesis.given(st.one_of(st.text(st.characters(max_codepoint=127)), st.binary(),
                            st.text(), near_graph6))
def test_from_graph6_returns_a_graph_or_raises_graph_error(data):
    try:
        g = from_graph6(data)
    except GraphError:
        return
    assert isinstance(g, Graph)
    # the decoder accepts only canonical text, so encoding gives it back
    text = data.decode("ascii") if isinstance(data, bytes) else data
    text = text.strip()
    assert to_graph6(g) == text.removeprefix(">>graph6<<")


#: edges with no self-loop, then up to two lines of id-like or arbitrary text,
#: so that many inputs parse
near_edge_list = st.builds(
    lambda edges, extra: "\n".join(edges + extra),
    st.lists(st.tuples(st.integers(0, 12), st.integers(1, 12))
             .map(lambda e: f"{e[0]} {e[0] + e[1]}"), max_size=12),
    st.lists(st.one_of(st.text(st.sampled_from("0123456789-_+ #\t\u0661x"), max_size=8),
                       st.text(max_size=8)), max_size=2),
)


@FUZZ
@hypothesis.given(st.one_of(st.text(), near_edge_list))
def test_from_edge_list_returns_a_graph_or_raises_graph_error(text):
    try:
        g = from_edge_list(text)
    except GraphError:
        return
    assert isinstance(g, Graph)
    # every vertex lies on an edge, so the edge list gives the graph back
    assert from_edge_list(to_edge_list(g)) == g


#: JSON values of every kind, small enough that a certificate made of them
#: verifies quickly
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)
small_ints = st.integers(-1, 6)
#: list sizes and budgets: mostly ints, and floats and bools that a
#: certificate must not pass off as ints
int_like = small_ints | st.booleans() | st.sampled_from((0.5, 1.0, 2.5))
vertex_lists = st.lists(small_ints, max_size=7)
#: a value of the right shape for each certificate field
SHAPES = {
    "f": st.sampled_from(sorted(PARAMETERS)),
    "p": int_like,
    "s": int_like,
    "value": small_ints,
    "islands": st.lists(vertex_lists, max_size=4),
    "vertices": vertex_lists,
    "colors": vertex_lists,
    "lists": st.lists(st.lists(small_ints, max_size=3), max_size=7),
    "f_value": small_ints,
    "outside_counts": st.dictionaries(st.sampled_from("0123456"), small_ints),
}
#: the fields that each certificate type reads
FIELDS = {
    "peel": ("f", "p", "s", "islands"),
    "island_free": ("f", "p", "s", "vertices"),
    "island": ("f", "p", "s", "vertices", "f_value", "outside_counts"),
    "coloring": ("f", "p", "colors"),
    "bad_list_assignment": ("f", "p", "s", "lists"),
}


def certificate_dicts(kind, **fields):
    """Certificates of type ``kind`` whose fields are of the right shape or
    any JSON value, and may carry the fields of the other types too."""
    fields = {key: SHAPES[key] for key in FIELDS.get(kind, ())} | fields
    return st.fixed_dictionaries(
        {"type": st.just(kind), **{key: shape | json_values for key, shape in fields.items()}},
        optional={key: shape | json_values for key, shape in SHAPES.items() if key not in fields},
    )


certificates = st.one_of(
    *(certificate_dicts(kind) for kind in FIELDS),
    certificate_dicts("col", value=small_ints, upper=certificate_dicts("peel"),
                      lower=st.none() | certificate_dicts("island_free")),
    st.fixed_dictionaries({"type": json_values}),
)
#: claims of a report's inputs or result, which must agree with its
#: certificate; mostly none, so that most reports reach the certificate
claims = st.sampled_from([{}] * 3) | st.dictionaries(st.sampled_from(("f", "p", "s", "value")),
                                                    small_ints | json_values, max_size=2)
GRAPHS = [to_graph6(g) for g in (Graph(0), Graph(1), Graph(3, [(0, 1)]),
                                 Graph(5, [(i, (i + 1) % 5) for i in range(5)]),
                                 Graph(6, [(i, j) for i in range(2) for j in range(2, 6)]))]
#: the certificate type of each solve command
COMMANDS = {"col": "solve col", "coloring": "solve chi",
            "bad_list_assignment": "solve choosable", "island": "solve island"}


@FUZZ
@hypothesis.given(certificates, st.sampled_from(sorted(COMMANDS.values())),
                  st.sampled_from((True, True, True, False)),
                  st.sampled_from(GRAPHS) | st.text(max_size=8), claims, claims)
def test_verify_report_returns_a_bool_or_raises_certificate_error(cert, command, matching, g6,
                                                                  inputs, result):
    """Certificates of every type under every solve command, and mostly under
    the command that emits their type, so that most get past the check that
    binds a report's claims to its certificate; ``inputs.graph6`` is a valid
    graph or arbitrary text."""
    if matching and isinstance(cert["type"], str):
        command = COMMANDS.get(cert["type"], command)
    report = {"command": command, "inputs": {**inputs, "graph6": g6}, "result": result,
              "certificate": cert}
    try:
        ok = verify_report(report)
    except CertificateError:
        return
    assert type(ok) is bool


#: --gen tokens of at most 8 vertices, some of them malformed
gen_tokens = st.one_of(
    st.sampled_from(("path", "complete", "edgeless"))
    .flatmap(lambda name: st.integers(1, 8).map(lambda n: f"{name}:{n}")),
    st.integers(3, 8).map("cycle:{}".format),
    st.tuples(st.integers(1, 4), st.integers(1, 4)).map("complete-bipartite:{0[0]},{0[1]}".format),
    st.integers(1, 2).map("fan-join:{}".format),
    st.tuples(st.integers(1, 8), st.integers(1, 3)).map("path-power:{0[0]},{0[1]}".format),
    st.tuples(st.integers(1, 8), st.sampled_from(("0", "0.3", "0.7", "1")),
              st.integers(0, 9)).map("gnp:{0[0]},{0[1]},{0[2]}".format),
    st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 9))
    .filter(lambda t: t[1] <= t[0]).map("bipartite:{0[0]},{0[1]},{0[2]}".format),
    st.sampled_from(("path:0", "path:-1", "cycle:2", "cycle", "cycle:x", "gnp:5", "gnp:4,2,0",
                     "nosuch:3", "path:1,2", "path-power:3,0", "bipartite:2,5,1",
                     "complete-bipartite:-1,2", "fan-join:0", "")),
)
#: the runs whose reports the valid report files hold, one per kind of certificate
REPORT_ARGV = (
    ("solve", "chi", "--gen", "cycle:5", "--f", "star", "--p", "1"),
    ("solve", "col", "--gen", "gnp:7,0.5,2", "--f", "mad", "--p", "1"),
    ("solve", "choosable", "--gen", "complete-bipartite:2,4", "--f", "star", "--s", "2"),
    ("solve", "island", "--gen", "path:4", "--f", "fan", "--s", "2"),
    ("param", "--gen", "cycle:4", "--f", "mad"),
    ("lemma", "estim", "--smax", "3"),
)


def run_main(argv):
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@functools.cache
def file_sources():
    """Kind -> the texts that valid input files of that kind hold."""
    graphs = (cons.path(1), cons.cycle(5), cons.complete_bipartite(2, 3),
              cons.random_gnp(8, 0.5, 3), cons.fan_join(2))
    return {"graph6": [to_graph6(g) + "\n" for g in graphs],
            "edges": [to_edge_list(g) + "\n" for g in graphs],
            "report": [run_main(argv)[1] for argv in REPORT_ARGV]}


def input_files(*kinds):
    """An input file of one of ``kinds``: its kind, which source, and how
    it is damaged."""
    return st.tuples(
        st.sampled_from(kinds),
        st.integers(0, 99),
        st.one_of(st.just(("valid",)),
                  st.tuples(st.just("truncated"), st.integers(0, 10**4)),
                  st.tuples(st.just("tampered"), st.integers(0, 10**4),
                            st.sampled_from("0123456789 \n\t-~?@_{}[]\",:.ab\u00e9"))),
    )


def write_input(directory, spec):
    """The path of the input file ``spec`` describes, written in ``directory``."""
    kind, which, damage = spec
    path = os.path.join(directory, f"input.{kind}")
    if kind == "missing":
        return path
    sources = file_sources()[kind]
    text = sources[which % len(sources)]
    if damage[0] == "truncated":
        text = text[:damage[1] % max(len(text), 1)]
    elif damage[0] == "tampered" and text:
        at = damage[1] % len(text)
        text = text[:at] + damage[2] + text[at + 1:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def small(top):
    """Mostly 1..top, and -1 or 0 an eighth of the time."""
    return st.one_of(*[st.integers(1, top)] * 7, st.integers(-1, 0))


#: lemma flags whose suite default runs long, given whenever the suite takes them
LEMMA_SIZES = {"--graphs": 3, "--trials": 3, "--seeds": 3, "--n": 8, "--d": 8, "--smax": 3,
               "--max-n": 8}
LEMMA_FLAGS = {**LEMMA_SIZES, "--seed": 9, "--k": 2, "--s": 3}
#: the suite parameter each list flag sets
LEMMA_LISTS = {"--i": "i_values", "--t": "t_values"}


@st.composite
def cli_argv(draw, directory):
    """An argv for ``cli.main`` built from its real subcommands and flags,
    with small sizes, and input files written in ``directory``."""
    cmd = draw(st.sampled_from(("param", "solve", "generate", "adversary", "verify", "lemma",
                                "question")))
    argv = ["--timing"] if draw(st.booleans()) else []
    argv.append(cmd)

    def graph_args():
        source = draw(st.sampled_from(("gen", "gen", "gen", "file", "file", "none")))
        if source == "gen":
            return ["--gen", draw(gen_tokens)]
        if source == "file":
            kinds = ("graph6", "edges", "report", "missing")
            return ["--graph", write_input(directory, draw(input_files(*kinds)))]
        return []

    def output_args():
        return ["--out", os.path.join(directory, "out.txt")] if draw(st.booleans()) else []

    def flag(name, values):
        return [name, str(draw(values))] if draw(st.booleans()) else []

    f = ["--f", draw(st.sampled_from(sorted(PARAMETERS)))]
    if cmd == "param":
        argv += graph_args() + f + output_args()
    elif cmd == "solve":
        op = draw(st.sampled_from(("chi", "choosable", "col", "island")))
        s_max = 2 if op == "choosable" else 3  # s = 3 choosability can take seconds
        argv += [op, *graph_args(), *f, *flag("--p", small(3)), *flag("--s", small(s_max)),
                 *output_args()]
    elif cmd == "generate":
        argv += graph_args() + flag("--emit", st.sampled_from(("g6", "edges")))
        argv += output_args()
    elif cmd == "adversary":
        argv += [*graph_args(), *flag("--s", small(3)), *flag("--k", small(2)),
                 *flag("--d", small(8)), *flag("--seed", small(9)), *flag("--trials", small(3)),
                 *(["--check-domination"] if draw(st.booleans()) else []), *output_args()]
    elif cmd == "verify":
        argv.append(write_input(directory, draw(input_files("report", "report", "graph6",
                                                             "missing"))))
    elif cmd == "lemma":
        name = draw(st.sampled_from(sorted(suites.SUITES)))
        argv.append(name)
        takes = cli.SUITE_SIGNATURES[name].parameters

        def given(option, dest):
            if dest not in takes:  # now and then a flag it does not take
                return all(draw(st.lists(st.booleans(), min_size=4, max_size=4)))
            return option in LEMMA_SIZES or draw(st.booleans())

        for option, top in LEMMA_FLAGS.items():
            if given(option, option[2:].replace("-", "_")):
                argv += [option, str(draw(small(top)))]
        for option, dest in LEMMA_LISTS.items():
            if given(option, dest):
                argv += [option, *map(str, draw(st.lists(small(3), min_size=1, max_size=2)))]
        argv += output_args()
    else:
        argv += [draw(st.sampled_from(("q1", "q2"))), *graph_args(), *flag("--p", small(3)),
                 "--graphs", str(draw(small(3))), *flag("--max-n", small(8)),
                 *flag("--seed", small(9)), "--smax", str(draw(small(2))), *output_args()]
    return argv


@FUZZ
@hypothesis.given(st.data())
def test_cli_ends_in_an_exit_code_and_at_most_one_error_line(data):
    """Every run of ``cli.main`` on small graphs and valid, truncated or
    tampered input files returns exit code 0-3 and writes at most one line
    to stderr; an escaping exception fails the test."""
    with tempfile.TemporaryDirectory() as directory:
        argv = data.draw(cli_argv(directory))
        code, _, err = run_main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert len(err.splitlines()) <= 1, (argv, err)
