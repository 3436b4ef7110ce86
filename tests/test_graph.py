"""Core graph type, serialization and small invariants."""

import random
from fractions import Fraction

import pytest

from fpcolor import constructions as cons
from fpcolor.graph import (
    ClassOracle,
    Graph,
    GraphError,
    average_degree,
    bits,
    class_masks,
    component_sizes,
    components,
    core_numbers,
    find_coloring,
    from_edge_list,
    from_graph6,
    girth,
    induced_subgraph,
    mask_of,
    to_edge_list,
    to_graph6,
)
from fpcolor.params import PARAMETERS
from fpcolor.check import exists_L_coloring


def test_basic_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.adj[1] >> 2 & 1 and not g.adj[0] >> 3 & 1
    assert g.degree(1) == 2
    assert g.max_degree() == 2
    assert g.full_mask() == 0b1111


def test_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1)


def test_bits_and_mask_of():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert list(bits(0)) == []


def test_edge_list_round_trip_and_comments():
    text = "# a comment\n0 1\n1 2  # trailing\n\n2 3\n"
    g = from_edge_list(text)
    assert g.n == 4
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert from_edge_list(to_edge_list(g)) == g


def test_edge_list_sparse_ids_remapped():
    g = from_edge_list("10 20\n20 30\n")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_edge_list_errors():
    with pytest.raises(GraphError):
        from_edge_list("0 1 2\n")
    with pytest.raises(GraphError):
        from_edge_list("0 a\n")
    with pytest.raises(GraphError):
        from_edge_list("3 3\n")
    with pytest.raises(GraphError):
        from_edge_list("-1 2\n")
    # int() reads both as plain numbers: (0, 10) and (0, 1)
    with pytest.raises(GraphError, match="non-integer vertex id"):
        from_edge_list("0 1_0\n")
    with pytest.raises(GraphError, match="non-integer vertex id"):
        from_edge_list("0 \u0661\n")  # ARABIC-INDIC DIGIT ONE


def test_graph6_known_values():
    # hand-encoded from the upper-triangle bit order of the format
    assert to_graph6(cons.cycle(5)) == "Dhc"
    assert from_graph6(to_graph6(cons.cycle(5))) == cons.cycle(5)
    assert from_graph6(">>graph6<<A_") == Graph(2, [(0, 1)])


def test_graph6_round_trip_random():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randint(0, 12)
        g = cons.random_gnp(n, rng.uniform(0.0, 1.0), rng.getrandbits(32))
        assert from_graph6(to_graph6(g)) == g


def test_graph6_long_form():
    g = cons.random_gnp(70, 0.1, 7)
    s = to_graph6(g)
    assert s.startswith(chr(126))
    assert from_graph6(s) == g


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 64, 300])
def test_graph6_matches_networkx(n):
    """Byte-identical to networkx's encoder, and each decoder reads the
    other's output; the order header takes its 4-byte form from n = 63."""
    nx = pytest.importorskip("networkx")
    for p in (0.0, 0.3, 1.0):
        g = cons.random_gnp(n, p, n)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        text = to_graph6(g)
        assert text.encode() + b"\n" == nx.to_graph6_bytes(h, header=False)
        assert text.startswith("~") == (n >= 63)
        assert from_graph6(text) == g
        back = nx.from_graph6_bytes(text.encode())
        assert back.number_of_nodes() == n
        assert sorted(tuple(sorted(e)) for e in back.edges()) == g.edges()


def test_edges_in_order():
    g = cons.random_gnp(40, 0.3, 11)
    assert g.edges() == [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                         if g.adj[u] >> v & 1]


def test_graph6_errors():
    with pytest.raises(GraphError):
        from_graph6("")
    with pytest.raises(GraphError):
        from_graph6("D")  # truncated payload
    with pytest.raises(GraphError):
        from_graph6("Dhc!")  # invalid character
    with pytest.raises(GraphError):
        from_graph6("A" + chr(63 + 1))  # nonzero padding for n=2
    with pytest.raises(GraphError):
        from_graph6(b"D\xe9c")  # bytes are read as ASCII
    assert from_graph6(b"Dhc\n") == cons.cycle(5)


def test_induced_subgraph():
    k4 = cons.complete(4)
    assert induced_subgraph(k4, mask_of([0, 2, 3])) == cons.complete(3)
    c5 = cons.cycle(5)
    assert induced_subgraph(c5, c5.full_mask()) == c5
    # consecutive vertices of a path cube are pairwise within distance 3
    g = cons.path_power(12, 3)
    assert induced_subgraph(g, mask_of([1, 2, 3, 4])) == cons.complete(4)
    with pytest.raises(GraphError):
        induced_subgraph(k4, 1 << 6)


def test_components():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    comps = components(g)
    assert comps == [mask_of([0, 1, 2]), mask_of([3, 4])]
    assert component_sizes(g) == [3, 2]
    assert components(Graph(0)) == []
    assert components(g, within=mask_of([0, 2, 3])) == [1 << 0, 1 << 2, 1 << 3]
    assert component_sizes(cons.fan_join(2)) == [6]


def test_girth():
    assert girth(cons.cycle(5)) == 5
    assert girth(cons.path(10)) == float("inf")
    assert girth(cons.petersen()) == 5
    assert girth(cons.complete(4)) == 3
    assert girth(cons.complete_bipartite(2, 3)) == 4


def test_girth_matches_bfs_oracle():
    def oracle(g):
        # shortest cycle through each edge, via BFS distance with the edge removed
        best = float("inf")
        for u, v in g.edges():
            dist = {u: 0}
            frontier = [u]
            while frontier and v not in dist:
                nxt = []
                for x in frontier:
                    for y in bits(g.adj[x]):
                        if (x, y) in ((u, v), (v, u)):
                            continue
                        if y not in dist:
                            dist[y] = dist[x] + 1
                            nxt.append(y)
                frontier = nxt
            if v in dist:
                best = min(best, dist[v] + 1)
        return best

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = cons.random_gnp(n, rng.uniform(0.1, 0.8), rng.getrandbits(32))
        assert girth(g) == oracle(g)


def test_core_numbers_against_subset_oracle():
    """A vertex's core number is the largest minimum degree of a subgraph of
    g[mask] that holds it."""
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(0, 8)
        g = cons.random_gnp(n, rng.uniform(0.1, 0.9), rng.getrandbits(32))
        mask = rng.getrandbits(n) | (g.full_mask() if rng.random() < 0.5 else 0)
        best = {v: 0 for v in bits(mask)}
        for sub in range(1, 1 << n):
            if sub & ~mask:
                continue
            low = min((g.adj[v] & sub).bit_count() for v in bits(sub))
            for v in bits(sub):
                best[v] = max(best[v], low)
        assert core_numbers(g, mask) == best
    assert core_numbers(cons.complete(5), 0) == {}


def test_average_degree():
    assert average_degree(cons.cycle(5)) == 2
    assert average_degree(cons.path(4)) == Fraction(3, 2)
    with pytest.raises(GraphError):
        average_degree(Graph(0))


def test_content_hash_tracks_structure():
    a = cons.cycle(5)
    b = cons.cycle(5)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != cons.path(5).content_hash()


def test_class_masks():
    assert class_masks((2, 0, 2, 1)) == {2: 0b0101, 0: 0b0010, 1: 0b1000}
    assert list(class_masks((2, 0, 2, 1))) == [2, 0, 1]
    assert class_masks(()) == {}


def test_class_oracle_evaluates_each_mask_once():
    calls = []

    def size(g, mask):
        calls.append(mask)
        return mask.bit_count()

    allowed = ClassOracle(cons.path(4), lambda g, mask, p: size(g, mask) <= p, 2)
    assert allowed[0b0011] and not allowed[0b0111] and allowed[0b0011]
    assert calls == [0b0011, 0b0111]


def test_find_coloring_palettes():
    c5 = cons.cycle(5)
    independent = ClassOracle(
        c5, lambda g, m, p, new=None: not any(g.adj[v] & m for v in bits(m)), 0)
    assert find_coloring(range(5), 2, independent) is None
    assert find_coloring(range(5), 3, independent) == (0, 1, 0, 1, 2)
    # colours follow the given vertex order
    assert find_coloring([4, 3, 2, 1, 0], 3, independent) == (0, 1, 0, 1, 2)
    assert find_coloring((), 1, independent) == ()
    # lists (colour masks) are checked from the definition, colours ascending;
    # a star of at most one vertex is an independent class
    lists = [0b100010, 0b110, 0b110, 0b110, 0b100100]
    assert exists_L_coloring(c5, lists, PARAMETERS["star"], 1) == (1, 2, 1, 2, 5)
