"""Property-based fuzzing of the input parsers: malformed input ends in the
parser's own error, never in another exception."""

import pytest

from fpcolor.graph import Graph, GraphError, from_edge_list, from_graph6, to_edge_list, to_graph6

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
