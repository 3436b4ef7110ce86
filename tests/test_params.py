"""Built-in parameters: values, declared flags, and brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from fpcolor import constructions as cons
from fpcolor.density import exact_mad, max_density
from fpcolor.errors import CapExceeded
from fpcolor.graph import Graph, average_degree, bits, components, induced_subgraph, mask_of
from fpcolor.params import PARAMETERS, get_parameter

MAX_DEGREE = PARAMETERS["max-degree"]
STAR = PARAMETERS["star"]
MAD = PARAMETERS["mad"]
FAN = PARAMETERS["fan"]
CHROMATIC = PARAMETERS["chromatic"]


def sample_graphs(count, max_n, seed, min_n=0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        out.append(cons.random_gnp(n, rng.uniform(0.1, 0.9), rng.getrandbits(32)))
    return out


def test_known_values():
    c5 = cons.cycle(5)
    assert MAX_DEGREE.eval(c5) == 2
    assert STAR.eval(c5) == 5
    assert MAD.eval(c5) == 2
    assert FAN.eval(c5) == 2
    assert CHROMATIC.eval(c5) == 3

    k4 = cons.complete(4)
    assert MAX_DEGREE.eval(k4) == 3
    assert STAR.eval(k4) == 4
    assert MAD.eval(k4) == 3
    assert FAN.eval(k4) == 4
    assert CHROMATIC.eval(k4) == 4

    pet = cons.petersen()
    assert MAX_DEGREE.eval(pet) == 3
    assert MAD.eval(pet) == 3
    assert CHROMATIC.eval(pet) == 3

    assert CHROMATIC.eval(cons.complete_bipartite(3, 3)) == 2
    assert CHROMATIC.eval(cons.edgeless(4)) == 1


def test_null_graph_convention():
    null = Graph(0)
    for f in PARAMETERS.values():
        assert f.eval(null) == 0


def test_single_vertex_values():
    one = Graph(1)
    assert STAR.eval(one) == 1
    assert FAN.eval(one) == 1
    assert CHROMATIC.eval(one) == 1
    assert MAX_DEGREE.eval(one) == 0
    assert MAD.eval(one) == 0


def test_get_parameter():
    assert get_parameter("star") is PARAMETERS["star"]
    with pytest.raises(ValueError):
        get_parameter("bogus")
    traits = PARAMETERS["fan"].traits()
    assert traits["hereditary"] and not traits["bounds_avg_degree"]


def test_declared_flags():
    for f in PARAMETERS.values():
        assert f.hereditary and f.connected and f.monotone
    assert PARAMETERS["max-degree"].bounds_avg_degree
    assert PARAMETERS["star"].bounds_avg_degree
    assert PARAMETERS["mad"].bounds_avg_degree
    assert not PARAMETERS["fan"].bounds_avg_degree
    assert not PARAMETERS["chromatic"].bounds_avg_degree


def test_hereditary_flag_holds_at_small_scale():
    rng = random.Random(11)
    for g in sample_graphs(30, 8, 11, min_n=1):
        for f in PARAMETERS.values():
            top = f.eval(g)
            for _ in range(5):
                mask = rng.getrandbits(g.n)
                assert f.eval_mask(g, mask) <= top


def test_connected_flag_holds_at_small_scale():
    for g in sample_graphs(30, 8, 13):
        for f in PARAMETERS.values():
            parts = [f.eval_mask(g, c) for c in components(g)]
            assert f.eval(g) == max(parts, default=0)


def test_monotone_flag_holds_at_small_scale():
    rng = random.Random(17)
    for g in sample_graphs(30, 8, 17, min_n=2):
        edges = g.edges()
        if not edges:
            continue
        u, v = rng.choice(edges)
        smaller = Graph(g.n, [e for e in edges if e != (u, v)])
        for f in PARAMETERS.values():
            assert f.eval(smaller) <= f.eval(g)


def test_average_degree_bounding_flags():
    # the three declared-bounding parameters dominate the average degree
    for g in sample_graphs(40, 9, 19, min_n=1):
        avg = average_degree(g)
        assert avg <= MAX_DEGREE.eval(g)
        assert avg < STAR.eval(g) + 1
        assert avg <= MAD.eval(g) + 1
    # fan and chromatic stay constant on K_{n,n} while density grows
    for n in (3, 5, 8):
        knn = cons.complete_bipartite(n, n)
        assert FAN.eval(knn) == 2
        assert CHROMATIC.eval(knn) == 2
        assert average_degree(knn) == n


def test_exact_mad_against_subset_oracle():
    for g in sample_graphs(25, 8, 23, min_n=1):
        best = Fraction(0)
        for size in range(1, g.n + 1):
            for combo in combinations(range(g.n), size):
                mask = mask_of(combo)
                inner = sum((g.adj[v] & mask).bit_count() for v in combo)
                best = max(best, Fraction(inner, size))
        assert exact_mad(g) == best
        assert MAD.eval(g) == int(best)


def test_max_density_witness_attains_value():
    for g in sample_graphs(20, 9, 29, min_n=1):
        dens, mask = max_density(g)
        assert mask
        verts = list(bits(mask))
        inner = sum((g.adj[v] & mask).bit_count() for v in verts) // 2
        assert Fraction(inner, len(verts)) == dens


def test_mad_known_values():
    assert exact_mad(cons.path(4)) == Fraction(3, 2)
    assert exact_mad(cons.cycle(5)) == 2
    assert exact_mad(cons.petersen()) == 3
    assert exact_mad(cons.complete(5), mask_of([0, 1, 2])) == 2


def test_density_of_a_mask_matches_its_induced_copy():
    """On a host mask, max_density and exact_mad answer as on the relabelled
    induced subgraph, with the witness mapped back to host vertices."""
    rng = random.Random(37)
    for g in sample_graphs(30, 10, 37, min_n=1):
        independent = 0
        for v in range(g.n):
            if not g.adj[v] & independent:
                independent |= 1 << v
        for mask in (0, independent, g.full_mask(), *(rng.getrandbits(g.n) for _ in range(3))):
            sub = induced_subgraph(g, mask)
            host = list(bits(mask))
            dens, witness = max_density(sub)
            assert max_density(g, mask) == (dens, mask_of(host[i] for i in bits(witness)))
            assert exact_mad(g, mask) == exact_mad(sub)
        assert max_density(g, independent) == (0, 1)


def test_mad_of_a_long_path_needs_no_deep_recursion():
    """The augmenting-path search is iterative: P600 has a 600-arc path."""
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert exact_mad(cons.path(600)) == Fraction(599, 300)
    finally:
        sys.setrecursionlimit(limit)


def test_fan_against_naive_oracle():
    def naive_longest_path(g, mask):
        verts = list(bits(mask))
        best = 1 if verts else 0
        for size in range(2, len(verts) + 1):
            for combo in combinations(verts, size):
                for perm in permutations(combo):
                    if all(g.has_edge(perm[i], perm[i + 1]) for i in range(size - 1)):
                        best = max(best, size)
                        break
        return best

    def naive_fan(g):
        if g.n == 0:
            return 0
        return max(1 + naive_longest_path(g, g.adj[v]) for v in range(g.n))

    for g in sample_graphs(25, 7, 31, min_n=1):
        assert FAN.eval(g) == naive_fan(g)


def test_fan_cap():
    with pytest.raises(CapExceeded):
        FAN.eval(cons.complete(22))


def test_chromatic_against_naive_oracle():
    def naive_chromatic(g):
        if g.n == 0:
            return 0
        for s in range(1, g.n + 1):
            for assign in product(range(s), repeat=g.n):
                if all(assign[u] != assign[v] for u, v in g.edges()):
                    return s
        raise AssertionError

    for g in sample_graphs(20, 6, 37):
        assert CHROMATIC.eval(g) == naive_chromatic(g)


def test_chromatic_cap():
    with pytest.raises(CapExceeded):
        CHROMATIC.eval(cons.random_gnp(30, 0.5, 1))


def test_eval_mask_matches_induced_eval():
    rng = random.Random(41)
    for g in sample_graphs(20, 8, 41, min_n=1):
        mask = rng.getrandbits(g.n)
        sub = induced_subgraph(g, mask)
        for f in PARAMETERS.values():
            assert f.eval_mask(g, mask) == f.eval(sub)
