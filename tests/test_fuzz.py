"""Property-based fuzzing of the input parsers and of report verification:
malformed input ends in the parser's or the verifier's own error, never in
another exception."""

import pytest

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
vertex_lists = st.lists(small_ints, max_size=7)
#: a value of the right shape for each certificate field
SHAPES = {
    "f": st.sampled_from(sorted(PARAMETERS)),
    "p": small_ints,
    "s": small_ints,
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
