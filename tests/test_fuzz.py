"""Property-based fuzzing of the input parsers: malformed input ends in the
parser's own error, never in another exception."""

import pytest

from fpcolor.graph import Graph, GraphError, from_graph6, to_graph6

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
