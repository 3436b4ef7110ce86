"""Built-in parameters: values, declared flags, and brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from conftest import count_calls, goldberg_denser_than, nested_code
from fpcolor import constructions as cons, density, params
from fpcolor.density import exact_mad, max_density
from fpcolor.errors import CapExceeded
from fpcolor.graph import (Graph, average_degree, bits, components, find_coloring,
                           induced_subgraph, mask_of)
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
        traits = f.traits()
        assert traits["hereditary"] and traits["connected"] and traits["monotone"]
    assert PARAMETERS["max-degree"].bounds_avg_degree
    assert PARAMETERS["star"].bounds_avg_degree
    assert PARAMETERS["mad"].bounds_avg_degree
    assert not PARAMETERS["fan"].bounds_avg_degree
    assert not PARAMETERS["chromatic"].bounds_avg_degree


def test_avg_degree_flag_holds_at_small_scale():
    """A flagged f with f(X) <= p gives X average degree below p + 1, the
    slope of ``find_island``'s degree-sum cut.  K_{3,3} shows why fan and
    chromatic are not flagged: both are 2 on it, and its average degree is 3."""
    rng = random.Random(19)
    for g in sample_graphs(30, 9, 19, min_n=1):
        for f in PARAMETERS.values():
            if f.bounds_avg_degree:
                for _ in range(5):
                    mask = rng.getrandbits(g.n) | 1
                    degrees = sum((g.adj[v] & mask).bit_count() for v in bits(mask))
                    assert degrees < (f.eval_mask(g, mask) + 1) * mask.bit_count(), (
                        g.edges(), f.id, mask)
    k33 = cons.complete_bipartite(3, 3)
    assert FAN.eval(k33) == CHROMATIC.eval(k33) == 2 and average_degree(k33) == 3


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


def densest_union(g, mask):
    """(largest |E(S)|/|S| over nonempty S inside ``mask``, union of the S that
    reach it), by enumeration; (0, 0) when the mask is empty."""
    best, union, sub = Fraction(0), mask, mask
    while sub:
        inner = sum((g.adj[v] & sub).bit_count() for v in bits(sub)) // 2
        dens = Fraction(inner, sub.bit_count())
        if dens > best:
            best, union = dens, sub
        elif dens == best:
            union |= sub
        sub = (sub - 1) & mask
    return best, union


def goldberg_largest_densest(g, mask, dens):
    """The largest densest subset of ``mask``, given its density ``dens`` > 0,
    from Goldberg's full network alone.  No set is denser than ``dens``.
    Two densities of subsets of n = |mask| vertices that differ, differ by
    more than 1/n^2 unless both denominators are n, and then by at least
    1/n.  The cut with source side S costs X - 2b(|E(S)| - guess |S|) for a
    constant X, and at the guess dens - 1/n^2 the bracket is largest for the
    union of the densest sets alone: that union is the only minimum cut."""
    n = mask.bit_count()
    assert not goldberg_denser_than(g, mask, dens)
    return goldberg_denser_than(g, mask, dens - Fraction(1, n * n))


def k_tree(n, k, rng):
    """A random k-tree: K_{k+1} (K_n when n <= k + 1), then each new vertex
    joins all of a random k-clique already present."""
    edges = list(combinations(range(min(n, k + 1)), 2))
    cliques = [frozenset(c) for c in combinations(range(k + 1), k)] if n > k else []
    for v in range(k + 1, n):
        base = rng.choice(cliques)
        edges += [(u, v) for u in base]
        cliques += [base - {u} | {v} for u in base]
    return Graph(n, edges)


def mad_family(rng, max_n):
    """A random graph from a family the mad bounds treat specially, or G(n,p)."""
    n = rng.randint(1, max_n)
    kind = rng.randrange(6)
    if kind == 0:
        return cons.random_gnp(n, rng.uniform(0.05, 0.9), rng.getrandbits(32))
    if kind == 1:  # a forest
        return Graph(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85])
    if kind == 2:
        return k_tree(n, rng.randint(1, 3), rng)
    if kind == 3:
        return cons.path_power(n, rng.randint(1, 4))
    return cons.complete(n) if kind == 4 else cons.edgeless(n)


def test_exact_mad_against_subset_oracle():
    for g in sample_graphs(25, 8, 23, min_n=1):
        best, _ = densest_union(g, g.full_mask())
        assert exact_mad(g) == 2 * best
        assert MAD.eval(g) == int(2 * best)


def test_mad_bounds_against_both_oracles():
    """floor(mad) and the largest densest subgraph agree with enumeration on
    masks of at most 10 vertices, and with Goldberg's full network, which
    shares no code with the flows under test, on up to 40."""
    rng = random.Random(53)
    for trial in range(600):
        g = mad_family(rng, 10 if trial < 400 else 40)
        for mask in (g.full_mask(), rng.getrandbits(g.n)):
            dens, witness = max_density(g, mask)
            if g.n <= 10:
                assert (dens, witness) == densest_union(g, mask)
            elif dens:
                assert density._density(g, witness) == dens
                assert witness == goldberg_largest_densest(g, mask, dens)
            else:  # edgeless: every subset is densest
                assert witness == mask and not any(g.adj[v] & mask for v in bits(mask))
            assert MAD.eval_mask(g, mask) == int(2 * dens)


def test_denser_than_matches_goldberg_network():
    """The reduced network has the same minimum cuts as Goldberg's full one,
    and the short paths saturated before Dinic's phases leave the minimal
    one as it is, so ``_denser_than`` returns the identical mask.  Random
    graphs and masks of at most 40 vertices, at four kinds of guess: random
    ones; densities of subsets, where ties decide which minimum cut is the
    minimal one; the evaluator's t/2 - 1/(2k+1); and guesses at which no
    vertex has a positive excess."""
    rng = random.Random(61)
    found = 0
    for trial in range(240):
        g = mad_family(rng, 12 if trial < 200 else 40)
        mask = g.full_mask() if rng.random() < 0.5 else rng.getrandbits(g.n)
        if not mask:
            continue
        k = mask.bit_count()
        top = max((g.adj[v] & mask).bit_count() for v in bits(mask))
        t = rng.randint(1, top + 1)
        guesses = (Fraction(rng.randint(0, 2 * k), rng.randint(1, k)),
                   density._density(g, rng.getrandbits(g.n) & mask or mask),
                   Fraction(t, 2) - Fraction(1, 2 * k + 1),
                   Fraction(top, 2) + Fraction(rng.randint(0, k), rng.randint(1, k)))
        for guess in guesses:
            got = density._denser_than(g, mask, guess)
            assert got == goldberg_denser_than(g, mask, guess), (trial, guess)
            found += bool(got)
    assert found > 100, found


def test_denser_than_work_counts(monkeypatch):
    """One ``add_edge`` per edge of g[mask] and per vertex with b deg != 2a,
    and one ``_bfs`` call per BFS phase: each call that finds a path reaches
    the sink farther out than the one before, and one last call finds none.
    perfbench reads these calls as density.add_edge.calls and
    density.bfs_phases.  The short paths saturated before the first phase
    leave few flows with several phases, hence 800 draws."""
    calls = []
    add_edge, bfs = density._Dinic.add_edge, density._Dinic._bfs

    def counted_add_edge(self, *args):
        calls.append("arc")
        return add_edge(self, *args)

    def leveled_bfs(self, s, t):
        reached = bfs(self, s, t)
        calls.append(self.level[t] if reached else None)
        return reached

    monkeypatch.setattr(density._Dinic, "add_edge", counted_add_edge)
    monkeypatch.setattr(density._Dinic, "_bfs", leveled_bfs)
    rng = random.Random(67)
    multi = zero_excess = 0
    for _ in range(800):
        n = rng.randint(2, 30)
        g = cons.random_gnp(n, rng.uniform(0.05, 0.6), rng.getrandbits(32))
        mask = rng.getrandbits(n) or g.full_mask()
        degs = [(g.adj[v] & mask).bit_count() for v in bits(mask)]
        guess = rng.choice((Fraction(rng.choice(degs), 2), density._density(g, mask),
                            Fraction(rng.randint(0, 20), rng.randint(1, 9))))
        a, b = guess.numerator, guess.denominator
        del calls[:]
        density._denser_than(g, mask, guess)
        assert calls.count("arc") == sum(degs) // 2 + sum(b * d != 2 * a for d in degs)
        levels = [call for call in calls if call != "arc"]
        assert levels[-1] is None and levels[:-1] == sorted(set(levels[:-1]) - {None})
        multi += len(levels) > 2
        zero_excess += any(b * d == 2 * a for d in degs)
    assert multi > 20 and zero_excess > 20, (multi, zero_excess)


@pytest.fixture
def flows(monkeypatch):
    """One entry per Dinic max-flow run while the test runs."""
    runs = []
    max_flow = density._Dinic.max_flow
    monkeypatch.setattr(density._Dinic, "max_flow",
                        lambda self, s, t: runs.append(1) or max_flow(self, s, t))
    return runs


def test_max_density_flow_counts(flows):
    """``max_density`` starts at the densest suffix of the peel order and
    flows on the core of its guess: the graphs of ``param --f mad`` in the
    density benchmark take one flow each, at the optimum, which also yields
    the largest densest subgraph, and the path, which meets its degeneracy
    bound, none."""
    for g, count in ((cons.random_gnp(600, 0.02, 1), 1),
                     (cons.random_bipartite(200, 64, 0), 1), (cons.path(1000), 0)):
        del flows[:]
        dens, witness = max_density(g)
        assert len(flows) == count and density._density(g, witness) == dens


def test_mad_threshold_flow_against_brute_force(monkeypatch):
    """Each flow of the mad evaluator asks whether some S has 2|E(S)| >= t|S|:
    it runs on the ceil(t/2)-core of the mask at the guess t/2 - 1/(2k+1),
    k the core's size, and its answer matches enumeration."""
    denser_than = density._denser_than
    mask, checked = 0, []

    def twice_edges(g, sub):
        return sum((g.adj[v] & sub).bit_count() for v in bits(sub))

    def threshold(g, core, guess):
        t = int(2 * guess) + 1
        assert guess == Fraction(t, 2) - Fraction(1, 2 * core.bit_count() + 1)
        expect = mask  # the largest subset in which every vertex has 2 deg >= t
        while low := mask_of(v for v in bits(expect)
                             if 2 * (g.adj[v] & expect).bit_count() < t):
            expect &= ~low
        assert core == expect
        found = denser_than(g, core, guess)
        if found:
            assert twice_edges(g, found) >= t * found.bit_count()
        brute, sub = False, mask
        while sub and not brute:
            brute = twice_edges(g, sub) >= t * sub.bit_count()
            sub = (sub - 1) & mask
        assert bool(found) == brute
        checked.append(t)
        return found

    monkeypatch.setattr(density, "_denser_than", threshold)
    rng = random.Random(59)
    for _ in range(2000):
        n = rng.randint(1, 10)
        g = cons.random_gnp(n, rng.uniform(0.2, 0.9), rng.getrandbits(32))
        mask = g.full_mask() if rng.random() < 0.5 else rng.getrandbits(n)
        MAD.eval_mask(g, mask)
    assert len(checked) >= 50


def lollipop(n):
    """An n-vertex path whose first four vertices span a K4."""
    return Graph(n, cons.path(n).edges() + [(0, 2), (0, 3), (1, 3)])


def test_mad_bounds_decide_without_a_flow(flows):
    """Paths, path powers and cliques meet their degeneracy bounds, so
    neither floor(mad) nor the densest subgraph runs a flow.  floor(mad)
    needs none either where the densest peel suffix (the K4 of a lollipop)
    or the core's size and edge count (a 5-cycle with a chord) settle it."""
    p4096 = cons.path(4096)
    assert exact_mad(p4096) == Fraction(4095, 2048) and MAD.eval(p4096) == 1
    cube = cons.path_power(200, 3)
    assert exact_mad(cube) == Fraction(2 * 594, 200) and MAD.eval(cube) == 5
    k9 = cons.complete(9)
    assert max_density(k9) == (4, k9.full_mask()) and MAD.eval(k9) == 8
    assert MAD.eval(lollipop(600)) == 3
    assert MAD.eval(Graph(5, cons.cycle(5).edges() + [(0, 2)])) == 2
    assert flows == []


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
        assert max_density(g, independent) == (0, independent)


def test_mad_of_a_long_path_needs_no_deep_recursion(flows):
    """The augmenting-path search is iterative, so flows on the network of a
    600-vertex path need no deep recursion.  The bounds settle the bare path
    with no flow; with a K4 at one end they do not."""
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert exact_mad(cons.path(600)) == Fraction(599, 300)
        assert exact_mad(lollipop(600)) == 3
    finally:
        sys.setrecursionlimit(limit)
    assert flows


def test_fan_against_naive_oracle():
    def naive_longest_path(g, mask):
        verts = list(bits(mask))
        best = 1 if verts else 0
        for size in range(2, len(verts) + 1):
            for combo in combinations(verts, size):
                for perm in permutations(combo):
                    if all(g.adj[perm[i]] >> perm[i + 1] & 1 for i in range(size - 1)):
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


def test_allows_agrees_with_the_exact_value():
    """``allows`` answers f <= p as the exact value does, and so does its
    hinted form wherever the hint's promise holds (f without ``new`` is at
    most p), for every parameter on every graph of at most six vertices."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(167)
    hinted = graphs = 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() > 6:
            break
        g = Graph(h.number_of_nodes(), h.edges())
        graphs += 1
        masks = {g.full_mask(), *(rng.getrandbits(g.n) for _ in range(6))}
        for f in PARAMETERS.values():
            value = {m: f.eval_mask(g, m) for m in range(1 << g.n)}
            for mask, p in product(masks, range(5)):
                assert f.allows(g, mask, p) == (value[mask] <= p), (g.edges(), f.id, mask, p)
                for new in bits(mask):
                    if value[mask & ~(1 << new)] <= p:
                        hinted += 1
                        assert f.allows(g, mask, p, new) == (value[mask] <= p), (
                            g.edges(), f.id, mask, p, new)
    assert graphs == 209 and hinted > 20000, hinted


def test_fan_cap_raises_alike_in_every_form():
    """Only the centre of K_{1,21} has a neighbourhood past the cap, and the
    vertex 22 hangs off a leaf, out of the centre's reach: the exact, the
    capped and the hinted fan raise the same error, and with one leaf fewer
    none raises."""
    message = "fan: neighborhood of 21 vertices exceeds cap 20"
    for leaves, raises in ((21, True), (20, False)):
        g = Graph(leaves + 2, [(0, leaf) for leaf in range(1, leaves + 1)] + [(1, leaves + 1)])
        full = g.full_mask()
        forms = (lambda: FAN.eval_mask(g, full), lambda: FAN.allows(g, full, 2),
                 lambda: FAN.allows(g, full, 2, new=leaves + 1))
        for form in forms:
            if raises:
                with pytest.raises(CapExceeded, match=message):
                    form()
            else:
                form()
        assert raises or FAN.eval_mask(g, full) == 2 and not FAN.allows(g, full, 1)


def test_mad_cap_asks_one_threshold(monkeypatch):
    """With a cap, floor(mad) runs at most one flow, at t = cap, and answers
    on the right side of the cap."""
    steps = []
    denser_than = density._denser_than

    def recorded(g, core, guess):
        steps.append(int(2 * guess) + 1)
        return denser_than(g, core, guess)

    graphs = sample_graphs(300, 14, 179, min_n=4)
    exact = [MAD.eval(g) for g in graphs]
    monkeypatch.setattr(density, "_denser_than", recorded)
    flows = 0
    for g, value in zip(graphs, exact):
        for cap in range(1, 7):
            del steps[:]
            assert (MAD.evaluator(g, g.full_mask(), cap) >= cap) == (value >= cap)
            assert steps in ([], [cap])
            flows += len(steps)
    assert flows > 30, flows


def test_mad_new_hint_matches_unhinted():
    """With ``new`` and a cap, a ``new`` vertex with 2 deg <= cap in the
    mask settles the class test at once; on random (mask, new) pairs whose
    mask without ``new`` is below the cap, the hinted verdict is the
    unhinted one, whether the degree test fires or not."""
    rng = random.Random(227)
    outcomes = {}
    for g in sample_graphs(300, 12, 227, min_n=2):
        for _ in range(6):
            mask = rng.getrandbits(g.n) | 1 << rng.randrange(g.n)
            new = rng.choice(list(bits(mask)))
            cap = rng.randint(1, 5)
            if MAD.evaluator(g, mask & ~(1 << new), cap) >= cap:
                continue  # the hint would not hold
            verdict = MAD.evaluator(g, mask, cap) >= cap
            assert (MAD.evaluator(g, mask, cap, new) >= cap) == verdict == (MAD.eval_mask(
                g, mask) >= cap), (g.edges(), mask, new, cap)
            fired = 2 * (g.adj[new] & mask).bit_count() <= cap
            outcomes[fired, verdict] = outcomes.get((fired, verdict), 0) + 1
    assert outcomes.get((True, True)) is None
    assert min(outcomes[True, False], outcomes[False, False], outcomes[False, True]) > 50, (
        outcomes)


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


def test_chromatic_far_above_the_clique_bound():
    """The Mycielski graphs M4 (11 vertices) and M5 (23) are triangle-free,
    so the greedy clique bound is 2, and by Mycielski's theorem their
    chromatic numbers are 4 and 5: the search must refute every count in
    between.  M5 takes 32,614 search nodes (``find_coloring``'s ``rec``)."""
    def mycielski(g):
        n = g.n
        edges = [*g.edges(), *((u, n + v) for u, v in g.edges()),
                 *((v, n + u) for u, v in g.edges()), *((n + v, 2 * n) for v in range(n))]
        return Graph(2 * n + 1, edges)

    rec = nested_code(find_coloring, "rec")
    m4 = mycielski(mycielski(Graph(2, [(0, 1)])))
    m5 = mycielski(m4)
    assert (m4.n, m5.n) == (11, 23)
    for g in (m4, m5):  # triangle-free: no edge has a common neighbour
        assert not any(g.adj[u] & g.adj[v] for u, v in g.edges())
    assert count_calls(CHROMATIC.eval, rec, m4)[0] == 4
    value, nodes = count_calls(CHROMATIC.eval, rec, m5)
    assert value == 5 and nodes <= 36000, nodes


def test_chromatic_builds_an_oracle_only_for_a_search(monkeypatch):
    """When the clique and greedy bounds meet, no colour count is left to
    try, and ``_chromatic`` builds no ``ClassOracle``."""
    built = []
    oracle = params.ClassOracle
    monkeypatch.setattr(params, "ClassOracle", lambda *args: built.append(1) or oracle(*args))
    assert [CHROMATIC.eval(g) for g in (cons.complete(5), cons.cycle(6))] == [5, 2]
    assert not built
    assert CHROMATIC.eval(cons.cycle(5)) == 3 and built == [1]


def test_chromatic_cap():
    with pytest.raises(CapExceeded):
        CHROMATIC.eval(cons.random_gnp(30, 0.5, 1))


def test_chromatic_cap_bounds_only_the_exact_search():
    """Past 24 vertices the clique and greedy bounds still answer: on a path
    and on K_{13,13} both read 2, and a class test passes on a greedy
    colouring below its cap.  A 25-cycle's bounds, 2 and 3, leave a search,
    which the cap refuses."""
    path = cons.path(40)
    assert CHROMATIC.eval(path) == 2 and CHROMATIC.allows(path, path.full_mask(), 2)
    assert CHROMATIC.eval(cons.complete_bipartite(13, 13)) == 2
    with pytest.raises(CapExceeded):
        CHROMATIC.eval(cons.cycle(25))


def test_eval_mask_matches_induced_eval():
    rng = random.Random(41)
    for g in sample_graphs(20, 8, 41, min_n=1):
        mask = rng.getrandbits(g.n)
        sub = induced_subgraph(g, mask)
        for f in PARAMETERS.values():
            assert f.eval_mask(g, mask) == f.eval(sub)
