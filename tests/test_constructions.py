"""Graph families, samplers and the adversarial list pipeline."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from scipy.stats import chi2

from fpcolor import constructions as cons
from fpcolor.graph import Graph, GraphError, bits, girth, induced_subgraph, mask_of
from fpcolor.params import PARAMETERS
from fpcolor.solvers import col_fp
from fpcolor.suites import draw_lists

STAR = PARAMETERS["star"]


def test_family_shapes():
    assert cons.path(5).edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert cons.cycle(4).edge_count() == 4
    assert cons.complete(5).edge_count() == 10
    assert cons.complete_bipartite(2, 3).edge_count() == 6
    assert cons.edgeless(7).edge_count() == 0
    with pytest.raises(ValueError):
        cons.cycle(2)


def test_petersen_and_robertson():
    pet = cons.petersen()
    assert pet.n == 10 and pet.edge_count() == 15
    assert all(pet.degree(v) == 3 for v in range(10))
    assert girth(pet) == 5
    rob = cons.robertson()
    assert rob.n == 19 and rob.edge_count() == 38
    assert all(rob.degree(v) == 4 for v in range(19))
    assert girth(rob) == 5


def test_fan_join_counts():
    g2 = cons.fan_join(2)
    assert g2.n == 6 and g2.edge_count() == 11
    g3 = cons.fan_join(3)
    assert g3.n == 12 and g3.edge_count() == 35
    # apex vertices are independent and adjacent to the whole path
    for a in range(9, 12):
        assert g3.adj[a] == mask_of(range(9))
    with pytest.raises(ValueError):
        cons.fan_join(0)


def test_path_power():
    g = cons.path_power(6, 2)
    assert g.adj[0] >> 2 & 1 and not g.adj[0] >> 3 & 1
    assert g.edge_count() == 4 + 5  # distance-2 pairs plus path edges
    assert cons.path_power(5, 1) == cons.path(5)
    assert induced_subgraph(cons.path_power(12, 3), mask_of([1, 2, 3, 4])) == cons.complete(4)
    with pytest.raises(ValueError):
        cons.path_power(0, 1)


def test_random_gnp_seeded():
    a = cons.random_gnp(10, 0.4, 9)
    b = cons.random_gnp(10, 0.4, 9)
    assert a == b
    assert cons.random_gnp(10, 0.4, 10) != a
    assert cons.random_gnp(8, 0.0, 1).edge_count() == 0
    assert cons.random_gnp(8, 1.0, 1).edge_count() == 28


def test_generators_refuse_a_graph_over_the_cap_before_building_its_edges(monkeypatch):
    """``Graph`` checks the vertex cap before it reads an edge, and the
    generators hand it their edges lazily, so a graph over the cap is
    refused in constant memory and, for the samplers, with no draw."""
    for build in (lambda: cons.complete_bipartite(100, 4000), lambda: cons.fan_join(64)):
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="graph too large"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    class Counting(random.Random):
        draws = 0

        def random(self):
            Counting.draws += 1
            return super().random()

    monkeypatch.setattr(cons.random, "Random", Counting)
    with pytest.raises(GraphError, match="graph too large"):
        cons.random_gnp(4100, 0.0, 1)
    assert Counting.draws == 0
    assert cons.random_gnp(8, 0.5, 1) == Graph(8, cons.random_gnp(8, 0.5, 1).edges())
    assert Counting.draws == 2 * 28


def test_random_bipartite():
    g = cons.random_bipartite(10, 5, 3)
    assert g.n == 20
    left = mask_of(range(10))
    for u, v in g.edges():
        assert (left >> u & 1) and not (left >> v & 1)
    assert g == cons.random_bipartite(10, 5, 3)
    with pytest.raises(ValueError):
        cons.random_bipartite(4, 9, 0)


def test_color_path_nonmono():
    rng = random.Random(201)
    for _ in range(200):
        L = draw_lists(8, 2, 4, rng)
        colors = cons.color_path_nonmono(L)
        assert all(L[v] >> colors[v] & 1 for v in range(8))
        assert all(colors[v] != colors[v + 1] for v in range(7))
    assert cons.color_path_nonmono([]) == ()
    with pytest.raises(ValueError):
        cons.color_path_nonmono([0b11] * 7 + [0b1])


def test_block_color_path_power():
    rng = random.Random(203)
    for t in (1, 2, 3):
        n = 3 * t * (t + 1) + 2  # deliberately not a multiple of the block size
        g = cons.path_power(n, t)
        for _ in range(50):
            L = draw_lists(n, 2, 4, rng)
            colors = cons.block_color_path_power(n, t, L)
            assert len(colors) == n
            assert all(L[v] >> colors[v] & 1 for v in range(n))
            classes = {}
            for v, c in enumerate(colors):
                classes[c] = classes.get(c, 0) | 1 << v
            assert max(STAR.eval_mask(g, m) for m in classes.values()) <= 2 * t * t


def test_estim_ratio():
    ratio, ok = cons.estim_ratio(2)
    assert ratio == Fraction(1, 6) and ok
    for s in range(1, 13):
        ratio, ok = cons.estim_ratio(s)
        assert ok
        assert ratio >= Fraction(1, 2 ** (s + 1))
    with pytest.raises(ValueError):
        cons.estim_ratio(0)


def test_sample_B_L0_binomial_sanity():
    """|B| concentrates around n/sqrt(d); lists are s-subsets of {0..s^2-1}."""
    g = cons.edgeless(100)
    inside = 0
    for seed in range(100):
        B, L0 = cons.sample_B_L0(g, 2, 1, 9, seed)  # keep probability 1/3
        size = B.bit_count()
        if 13 <= size <= 55:  # > 4 sigma around the mean of 33.3
            inside += 1
        for v in bits(B):
            assert L0[v].bit_count() == 2 and L0[v] < 1 << 4
        assert set(L0) == set(bits(B))
    assert inside >= 95
    with pytest.raises(ValueError):
        cons.sample_B_L0(g, 0, 1, 9, 0)


def test_sample_L1_uniform_chi_square():
    """Drawn 2-lists hit all six 2-subsets of {0..3} uniformly (alpha = 0.001)."""
    A = (1 << 3000) - 1
    L1 = cons.sample_L1(A, 2, seed=55)
    cells = {mask_of(c): 0 for c in combinations(range(4), 2)}
    for v in bits(A):
        cells[L1[v]] += 1
    expected = 3000 / 6
    stat = sum((obs - expected) ** 2 / expected for obs in cells.values())
    assert stat < chi2.ppf(1 - 0.001, df=5)


def test_good_vertices_exact_small():
    # star with 8 leaves: every leaf in B with every list makes the hub good
    # only if each half-universe T gets enough covered lists
    g = Graph(9, [(0, i) for i in range(1, 9)])
    B = mask_of(range(1, 9))
    # with k=1, s=1: universe {0}, half {0}; each leaf list must lie in {0}
    L0_s1 = {v: 0b1 for v in bits(B)}
    A, exact = cons.good_vertices(g, B, L0_s1, 1, 1)
    assert exact and A == 1 << 0
    # raising k past the neighbor supply empties A
    A, _ = cons.good_vertices(g, B, L0_s1, 1, 9)
    assert A == 0


def test_good_vertices_sampled_superset(monkeypatch):
    g = cons.random_bipartite(30, 8, 77)
    B, L0 = cons.sample_B_L0(g, 2, 1, 8, 77)
    exact_A, exact = cons.good_vertices(g, B, L0, 2, 1)
    monkeypatch.setattr(cons, "GOOD_VERTICES_EXACT_S_CAP", 1)  # s = 2 is now sampled
    sampled_A, flag = cons.good_vertices(g, B, L0, 2, 1, trials=20, seed=1)
    assert exact and not flag
    assert exact_A & ~sampled_A == 0  # sampling checks fewer T, so it can only over-approve


def test_compute_A_phi_and_domination(monkeypatch):
    # hub-and-leaves instance where domination is checkable by hand
    g = Graph(4, [(0, 3), (1, 3), (2, 3)])
    B = mask_of([0, 1, 2])
    A = 1 << 3
    L0 = {0: 0b1, 1: 0b1, 2: 0b1}
    L1 = {3: 0b1}
    phi = {0: 0, 1: 0, 2: 0}
    assert cons.compute_A_phi(g, A, B, L1, phi, k=3) == A
    assert cons.compute_A_phi(g, A, B, L1, phi, k=4) == 0
    with pytest.raises(ValueError):
        cons.compute_A_phi(g, A, B, L1, {0: 0}, k=1)
    dom = cons.verify_L1_dominates(g, A, B, L0, L1, k=1)
    assert dom.exact and not dom.ok  # |A_phi| = 1 is not greater than |B| = 3
    assert dom.worst_margin == 1 - 3
    monkeypatch.setattr(cons, "DOMINATION_EXACT_CAP", 0)  # its one coloring is now sampled
    sampled = cons.verify_L1_dominates(g, A, B, L0, L1, k=1, trials=10)
    assert not sampled.exact and sampled.ok == dom.ok


def test_domination_exact_matches_sampled_when_all_colorings_seen(monkeypatch):
    g = cons.random_bipartite(8, 4, 5)
    state = cons.adversary_pipeline(g, 2, 1, 4, seed=5)
    if state.B.bit_count() <= 8:
        exact = cons.verify_L1_dominates(g, state.A, state.B, state.L0, state.L1, 1)
        monkeypatch.setattr(cons, "DOMINATION_EXACT_CAP", 0)
        sampled = cons.verify_L1_dominates(g, state.A, state.B, state.L0, state.L1, 1,
                                           trials=500, seed=9)
        assert exact.exact
        # sampled worst margin can only be at least the exact one
        assert sampled.worst_margin >= exact.worst_margin
        if not exact.ok:
            assert exact.counterexample is not None


def test_empty_B_domination_convention():
    g = cons.path(3)
    dom = cons.verify_L1_dominates(g, 1 << 0, 0, {}, {0: 0b1}, k=0)
    assert dom.ok and dom.checked == 1  # single empty coloring, |A_phi| > 0


def test_adversary_pipeline_deterministic():
    g = cons.random_bipartite(20, 4, 2)
    s1 = cons.adversary_pipeline(g, 2, 1, 4, seed=3)
    s2 = cons.adversary_pipeline(g, 2, 1, 4, seed=3)
    assert (s1.B, s1.L0, s1.A, s1.L1) == (s2.B, s2.L0, s2.A, s2.L1)
    assert s1.condition_report == s2.condition_report
    rep = s1.condition_report
    assert rep["A_size"] == s1.A.bit_count() and rep["B_size"] == s1.B.bit_count()
    assert rep["c"] is True  # s = 2 is within the exact regime


def test_mono_dense_witness_against_subset_oracle():
    def oracle(g, coloring, k):
        classes = {}
        for v, c in enumerate(coloring):
            classes[c] = classes.get(c, 0) | 1 << v
        for mask in classes.values():
            verts = list(bits(mask))
            for size in range(1, len(verts) + 1):
                for combo in combinations(verts, size):
                    m = mask_of(combo)
                    inner = sum((g.adj[v] & m).bit_count() for v in combo)
                    if Fraction(inner, size) > k:
                        return True
        return False

    rng = random.Random(301)
    for _ in range(30):
        n = rng.randint(1, 9)
        g = cons.random_gnp(n, rng.uniform(0.2, 0.9), rng.getrandbits(32))
        coloring = tuple(rng.randint(0, 2) for _ in range(n))
        for k in (1, 2):
            witness = cons.mono_dense_witness(g, coloring, k)
            assert (witness is not None) == oracle(g, coloring, k)
            if witness is not None:
                verts = list(bits(witness.vertex_set))
                assert all(coloring[v] == witness.color for v in verts)
                inner = sum((g.adj[v] & witness.vertex_set).bit_count() for v in verts)
                assert Fraction(inner, len(verts)) == witness.avg_degree > k


def test_girth_component_bound():
    rep = cons.girth_component_bound(cons.cycle(5), 1)
    assert rep["precondition_ok"] and rep["holds"]
    rep = cons.girth_component_bound(cons.robertson(), 2)
    assert rep["precondition_ok"] and rep["holds"]
    assert rep["max_component"] == 19
    assert not cons.girth_component_bound(cons.cycle(4), 1)["precondition_ok"]
    assert not cons.girth_component_bound(cons.path(5), 1)["precondition_ok"]
    assert not cons.girth_component_bound(cons.cycle(5), 2)["precondition_ok"]


def test_h_star_path_certificate():
    """The paper's lower bound for cluster size p: with t = floor(sqrt(p/2)),
    the t-th power of a path on 2t^2 (t+1) + t + 1 vertices has col >= t + 1."""
    for p, n in ((2, 6), (8, 27)):
        t = math.isqrt(p // 2)
        g = cons.path_power(2 * t * t * (t + 1) + t + 1, t)
        assert g.n == n and col_fp(g, STAR, p).value >= t + 1, p
