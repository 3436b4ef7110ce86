"""Exact solvers: islands, peeling, chromatic and choosability decisions."""

import dataclasses
import functools
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conftest import (brute_chi, brute_choosable, brute_col, brute_find_coloring, count_calls,
                      find_island_unpruned, greedy_per_call, has_island_brute, islands_brute,
                      load_perfbench, nested_code, peel_dfs)
from fpcolor import constructions as cons
from fpcolor.errors import CapExceeded
from fpcolor.graph import (ClassOracle, Graph, bits, core_numbers, find_coloring, from_graph6,
                           mask_of)
from fpcolor.params import PARAMETERS, Parameter
from fpcolor.report import assignment_to_json, verify_certificate
from fpcolor.check import (excluded_core, exists_L_coloring, island_free_exhaustive, star_cutoff,
                           verify_fp_proper, verify_peel)
from fpcolor.solvers import (
    chi_fp,
    col_fp,
    compose_bound,
    connected_sets,
    decide_choosability_fp,
    degeneracy_col,
    find_island,
    greedy_color,
    greedy_island_coloring,
    greedy_plan,
    peel,
)
from fpcolor import check, solvers, suites
from fpcolor.suites import (_small_subgraph_densities, choosability_value, draw_lists,
                            random_graph_sample, suite_lemma1)

STAR = PARAMETERS["star"]
MAX_DEGREE = PARAMETERS["max-degree"]
FAN = PARAMETERS["fan"]
CHROMATIC = PARAMETERS["chromatic"]


def test_verify_fp_proper():
    c5 = cons.cycle(5)
    assert verify_fp_proper(c5, (0, 1, 0, 1, 2), STAR, 1)
    assert not verify_fp_proper(c5, (0, 0, 1, 0, 1), STAR, 1)
    assert verify_fp_proper(c5, (0, 0, 1, 0, 1), STAR, 2)
    with pytest.raises(ValueError):
        verify_fp_proper(c5, (0, 1), STAR, 1)


def test_find_island_matches_brute_existence():
    pairs = ((STAR, 0), (STAR, 1), (STAR, 2), (MAX_DEGREE, 0), (MAX_DEGREE, 1),
             (FAN, 0), (FAN, 2), (CHROMATIC, 0))
    for g in random_graph_sample(40, 7, 101):
        for f, p in pairs:
            for s in (1, 2, 3):
                got = find_island(g, s, f, p)
                assert (got is not None) == has_island_brute(g, s, f, p)
                # a cutoff no vertex reaches turns the excluded core off: the
                # search alone finds the same island
                assert find_island(g, s, f, p, cutoff=g.n) == got
                if got is not None:
                    # the island mask is checkable from the definition
                    assert got
                    assert f.eval_mask(g, got) <= p
                    for v in bits(got):
                        assert (g.adj[v] & ~got).bit_count() < s


def test_find_island_hints_change_nothing():
    """The search hints each grown set with the vertex it added; a parameter
    that drops the hint finds the same island, for fan, star and mad."""
    rng = random.Random(181)
    found = 0
    for g in random_graph_sample(60, 10, 181, min_n=3):
        for f in (FAN, STAR, PARAMETERS["mad"]):
            evaluator = f.evaluator
            blind = dataclasses.replace(
                f, evaluator=lambda g, mask, *cap_new: evaluator(g, mask, *cap_new[:1]))
            for p, s in product(range(1, 4), range(1, 4)):
                for active in (g.full_mask(), rng.getrandbits(g.n)):
                    island = find_island(g, s, f, p, active)
                    assert island == find_island(g, s, blind, p, active), (g.edges(), f.id, p, s)
                    assert island is None or f.eval_mask(g, island) <= p
                    found += island is not None and island.bit_count() > 2
    assert found > 200, found


def test_find_island_matches_unpruned_search():
    """The banned-vertex and degree-sum cuts skip only subtrees that hold no
    island, so the search returns the very mask the unpruned search finds
    first, on random graphs of at most 14 vertices."""
    rng = random.Random(191)
    found = 0
    sample = random_graph_sample(40, 10, 191, min_n=6) + random_graph_sample(20, 14, 199, min_n=11)
    for g in sample:
        for f in PARAMETERS.values():
            for p, s in product(range(4), range(1, 5)):
                for active in (g.full_mask(), rng.getrandbits(g.n)):
                    for cutoff in (None, g.n):
                        island = find_island(g, s, f, p, active, cutoff)
                        assert island == find_island_unpruned(g, s, f, p, active, cutoff), (
                            g.edges(), f.id, p, s, active, cutoff)
                        found += island is not None and island.bit_count() > 2
    assert found > 600, found


def test_degree_sum_cut_enters_fewer_nodes(monkeypatch):
    """For mad, the degree-sum cut never enters more ``search`` nodes than
    the same search on an f that does not claim to bound the average degree,
    and it enters fewer on a good share of random graphs of at most 14
    vertices, p <= 3, s <= 4 and random active masks.  Both searches start
    from mad's excluded core: on the uncut f the core would also apply the
    neighbourhood rule, which is not the cut under test."""
    mad = PARAMETERS["mad"]
    uncut = dataclasses.replace(mad, bounds_avg_degree=False)
    monkeypatch.setattr(solvers, "excluded_core",
                        lambda g, s, f, p, *rest: excluded_core(g, s, mad, p, *rest))
    search = nested_code(find_island, "search")
    rng = random.Random(211)
    fewer = 0
    for g in random_graph_sample(60, 14, 211, min_n=6):
        for p, s in product(range(4), range(1, 5)):
            for active in (g.full_mask(), rng.getrandbits(g.n)):
                island, nodes = count_calls(find_island, check.is_island.__code__, g, s,
                                            mad, p, active, caller=search)
                same, uncut_nodes = count_calls(find_island, check.is_island.__code__, g,
                                                s, uncut, p, active, caller=search)
                assert island == same and nodes <= uncut_nodes, (g.edges(), p, s, active)
                fewer += nodes < uncut_nodes
    assert fewer > 300, fewer


def test_find_island_search_work_bound():
    """On the stuck remainders at s = col - 1 of the two costliest benchmark
    peels, the unpruned search entered 7,117 (fan) and 1,374 (mad) nodes;
    the degree-sum cut takes the mad search from 191 to 39.  ``search``
    tests each node it enters with ``is_island``, once."""
    for spec, f, p, bound in (((22, 0.3, 1), FAN, 3, 2000),
                              ((20, 0.3, 1), PARAMETERS["mad"], 2, 60)):
        g = cons.random_gnp(*spec)
        res = col_fp(g, f, p)
        island, nodes = count_calls(find_island, check.is_island.__code__, g,
                                    res.value - 1, f, p, res.lower_certificate,
                                    caller=nested_code(find_island, "search"))
        assert island is None and nodes <= bound, (spec, f.id, nodes)


def test_neighbourhood_rule_work_bound(monkeypatch):
    """The neighbourhood test on a centre whose 20 neighbours form a perfect
    matching, fan and chromatic at p = 2: a set T of neighbours passes only
    if it is independent, so none of more than 10 vertices does, and the
    centre is excluded at s <= 10.  At s = 10 (k = 11) the search makes
    9,800 class tests, and 16,831 over s = 1 .. 20.  A search that spends
    ``NEIGHBOURHOOD_BUDGET`` lookups stops and keeps its vertex: with the
    budget at 1,000 the centre stays in at s = 8, 9 and 10.  So does one
    that meets a parameter's cap, as on K_{1,25} at s = 1, where the centre
    and 21 leaves exceed fan's cap; chromatic keeps it by its greedy
    2-colouring, which needs no capped search."""
    g = Graph(21, [(0, v) for v in range(1, 21)] + [(v, v + 1) for v in range(1, 21, 2)])
    allows = Parameter.allows.__code__
    for f in (FAN, CHROMATIC):
        total = 0
        for s in range(1, 21):
            core, tests = count_calls(excluded_core, allows, g, s, f, 2, g.full_mask())
            assert bool(core & 1) == (s <= 10), (f.id, s)
            total += tests
            if s == 10:
                assert tests <= 11_800, (f.id, tests)
        assert total <= 20_200, (f.id, total)
    monkeypatch.setattr(check, "NEIGHBOURHOOD_BUDGET", 1000)
    for f in (FAN, CHROMATIC):
        for s in range(1, 21):
            core, tests = count_calls(excluded_core, allows, g, s, f, 2, g.full_mask())
            assert bool(core & 1) == (s <= 7), (f.id, s)
            assert tests <= 1001, (f.id, s, tests)
        star = cons.complete_bipartite(1, 25)
        assert excluded_core(star, 1, f, 2, star.full_mask()) == 0, f.id


def test_small_first_peel_matches_peel_dfs(monkeypatch):
    """Removing small islands first leaves the remainder, col value and
    lower certificate of the peel that removes ``find_island``'s islands
    without the degree-sum cut, on random graphs of at most 14 vertices,
    p <= 3 and s <= 4.  Its islands are a valid peel."""
    every_f = [dataclasses.replace(f, evaluator=functools.cache(f.evaluator))
               for f in PARAMETERS.values()]
    uncut = {f.id: dataclasses.replace(f, bounds_avg_degree=False) for f in every_f}
    outcomes = Counter()
    for g in random_graph_sample(30, 14, 193, min_n=4):
        for f in every_f:
            for p, s in product(range(4), range(1, 5)):
                islands, rest = peel(g, s, f, p)
                want, want_rest = peel_dfs(g, s, uncut[f.id], p)
                assert rest == want_rest, (g.edges(), f.id, p, s)
                if islands is not None:
                    assert verify_peel(g, islands, s, f, p), (g.edges(), f.id, p, s)
                    outcomes[islands != want] += 1
            for p in range(4):
                try:
                    res = col_fp(g, f, p)
                except ValueError:  # f(single vertex) > p: col is undefined
                    continue
                with monkeypatch.context() as patched:
                    patched.setattr(solvers, "peel", peel_dfs)
                    want = col_fp(g, uncut[f.id], p)
                assert (res.value, res.lower_certificate) == (
                    want.value, want.lower_certificate), (g.edges(), f.id, p)
    assert outcomes[True] > 50 and outcomes[False] > 50, outcomes


def _connected(g, mask):
    seen = frontier = mask & -mask
    while frontier:
        grown = 0
        for v in bits(frontier):
            grown |= g.adj[v]
        frontier = grown & mask & ~seen
        seen |= frontier
    return seen == mask


def test_connected_sets_against_subset_oracle():
    """ESU yields every connected k-subset of g[mask] for k <= 4 exactly
    once, lowest vertex (anchor) ascending."""
    rng = random.Random(197)
    for g in random_graph_sample(40, 11, 197):
        for mask in (g.full_mask(), rng.getrandbits(g.n)):
            for k in range(1, 5):
                got = list(connected_sets(g, mask, k))
                want = [x for x in range(1, 1 << g.n)
                        if not x & ~mask and x.bit_count() == k and _connected(g, x)]
                assert len(got) == len(set(got)) and sorted(got) == want, (g.edges(), mask, k)
                anchors = [x & -x for x in got]
                assert anchors == sorted(anchors)


def test_col_small_first_work_bound():
    """At s = 3 on gnp:48,0.1,1 with mad p = 1, one depth-first search of
    the peel entered 125,199 ``search`` nodes to find a 3-vertex island.
    With small islands first the whole solve entered 2,809 and made 5,053
    class tests, and with the degree-sum cut as well 494 and 717."""
    g = cons.random_gnp(48, 0.1, 1)
    mad = PARAMETERS["mad"]
    res, nodes = count_calls(col_fp, check.is_island.__code__, g, mad, 1,
                             caller=nested_code(find_island, "search"))
    assert res.value == 3 and nodes <= 800, nodes
    res, tests = count_calls(col_fp, Parameter.allows.__code__, g, mad, 1)
    assert res.value == 3 and tests <= 1100, tests


def test_col_degree_sum_cut_work_bound():
    """gnp:64,0.1,1 with mad p = 1 ran past 150 s before the degree-sum cut:
    at s = 3 the search on the 60-vertex remainder left by two small islands
    found nothing.  Now the whole solve enters 10,849 ``search`` nodes, and
    the remainder is proved island-free in 138."""
    g = cons.random_gnp(64, 0.1, 1)
    mad = PARAMETERS["mad"]
    res, nodes = count_calls(col_fp, check.is_island.__code__, g, mad, 1,
                             caller=nested_code(find_island, "search"))
    assert res.value == 4 and nodes <= 15000, nodes
    assert res.lower_certificate.bit_count() == 60
    island, nodes = count_calls(find_island, check.is_island.__code__, g, 3, mad, 1,
                                res.lower_certificate,
                                caller=nested_code(find_island, "search"))
    assert island is None and nodes <= 300, nodes


def test_peel_and_verify_peel():
    g = cons.petersen()
    islands, rest = peel(g, 4, STAR, 1)
    assert rest == 0 and islands is not None
    res = col_fp(g, STAR, 1)
    assert verify_peel(g, res.islands, res.value, STAR, 1)
    # corrupting the decomposition must be caught
    assert not verify_peel(g, res.islands[:-1], res.value, STAR, 1)


def test_col_known_values():
    assert col_fp(cons.cycle(5), STAR, 1).value == 3
    assert col_fp(cons.path(6), STAR, 1).value == 2
    assert col_fp(cons.complete(4), STAR, 1).value == 4
    assert col_fp(cons.petersen(), STAR, 1).value == 4
    assert col_fp(Graph(0), STAR, 1).value == 1
    assert col_fp(cons.path_power(9, 2), STAR, 2).value == 3
    assert col_fp(cons.path_power(8, 1), STAR, 3).value == 2
    assert col_fp(cons.fan_join(2), FAN, 2).value == 3


def test_col_matches_degeneracy_and_brute():
    for g in random_graph_sample(40, 7, 103):
        res = col_fp(g, STAR, 1)
        assert res.value == degeneracy_col(g)
        assert res.value == brute_col(g, STAR, 1)
        assert col_fp(g, STAR, 2).value == brute_col(g, STAR, 2)
        assert col_fp(g, MAX_DEGREE, 1).value == brute_col(g, MAX_DEGREE, 1)


def test_col_certificates():
    for g in random_graph_sample(20, 8, 107, min_n=1):
        res = col_fp(g, STAR, 1)
        assert verify_peel(g, res.islands, res.value, STAR, 1)
        if res.value > 1:
            assert res.lower_certificate
            assert island_free_exhaustive(
                g, res.value - 1, STAR, 1, active=res.lower_certificate
            )


def test_col_rejects_impossible_vertex():
    with pytest.raises(ValueError):
        col_fp(cons.cycle(5), STAR, 0)
    with pytest.raises(ValueError):
        chi_fp(cons.cycle(5), STAR, 0)


def test_caps_raise():
    big = cons.random_gnp(70, 0.2, 5)
    with pytest.raises(CapExceeded):
        col_fp(big, STAR, 1)
    with pytest.raises(CapExceeded):
        chi_fp(cons.random_gnp(30, 0.2, 5), STAR, 1)
    with pytest.raises(CapExceeded):
        decide_choosability_fp(cons.random_gnp(12, 0.5, 5), 2, STAR, 1)
    with pytest.raises(CapExceeded):
        decide_choosability_fp(cons.cycle(5), 4, STAR, 1)
    # the excluded core covers this graph, so no subset is enumerated; with
    # mad it rules out nothing and all 20 vertices meet the cap of 16, and
    # with fan at s = 6 the neighbourhood rule leaves 18
    dense = cons.random_gnp(20, 0.5, 5)
    assert island_free_exhaustive(dense, 2, STAR, 1) is True
    with pytest.raises(CapExceeded):
        island_free_exhaustive(dense, 2, PARAMETERS["mad"], 2)
    with pytest.raises(CapExceeded):
        island_free_exhaustive(dense, 6, FAN, 3)


def test_chi_matches_chromatic_and_brute():
    for g in random_graph_sample(25, 6, 109):
        s, coloring = chi_fp(g, STAR, 1)
        assert s == PARAMETERS["chromatic"].eval(g)
        if g.n:
            assert verify_fp_proper(g, coloring, STAR, 1)
        assert chi_fp(g, STAR, 2)[0] == brute_chi(g, STAR, 2)
        assert chi_fp(g, MAX_DEGREE, 1)[0] == brute_chi(g, MAX_DEGREE, 1)


def test_chi_known_values():
    assert chi_fp(Graph(0), STAR, 1) == (0, ())
    assert chi_fp(cons.complete(4), STAR, 2)[0] == 2
    assert chi_fp(cons.complete(4), STAR, 4)[0] == 1
    assert chi_fp(cons.cycle(5), STAR, 2)[0] == 2


def test_chi_matches_smallest_last_oracles(monkeypatch):
    """On every built-in parameter and p = 0..3, chi_fp's value is the least
    s at which the unpruned index-order backtracker colours, and brute_chi's
    product enumeration agrees wherever it is affordable.  The witness is
    that backtracker's first colouring at chi along the smallest-last order,
    renamed by first appearance in index order, so it is canonical: each
    vertex's colour is at most one more than the largest before it.  chi_fp
    makes one search for first fit and one per s from 1 up to chi, or up to
    U-1 when first fit's class count U is chi, so the count of searches tells
    which exit each case took."""
    searches = 0

    def counted(*args):
        nonlocal searches
        searches += 1
        return find_coloring(*args)

    monkeypatch.setattr(solvers, "find_coloring", counted)
    rng = random.Random(331)
    cases, checked = Counter(), set()
    for g in random_graph_sample(300, 12, 331):
        for f in PARAMETERS.values():
            p = rng.randrange(4)
            if not f.allows(g, 1, p):  # every vertex alike: a single vertex exceeds p
                with pytest.raises(ValueError, match="chi undefined"):
                    chi_fp(g, f, p)
                continue
            searches = 0
            value, witness = chi_fp(g, f, p)
            assert searches in (value, value + 1)
            allowed = ClassOracle(g, f.allows, p)
            order = tuple(reversed(core_numbers(g, g.full_mask())))
            color_of, names = dict(zip(order, brute_find_coloring(order, value, allowed))), {}
            renamed = tuple(names.setdefault(color_of[v], len(names)) for v in range(g.n))
            assert witness == renamed, (g.edges(), f.id, p)
            assert all(c <= 1 + max(witness[:v], default=-1) for v, c in enumerate(witness))
            assert brute_find_coloring(range(g.n), value - 1, allowed) is None
            if value ** g.n <= 20000:
                assert value == brute_chi(g, f, p), (g.edges(), f.id, p)
                cases["product"] += 1
            checked.add((f.id, p))
            cases["chi >= 3"] += value >= 3
            cases["U > chi" if searches == value + 1 else "U = chi"] += 1
    assert checked == {(f.id, p) for f in PARAMETERS.values() for p in range(4)
                       if f.allows(Graph(1), 1, p)}
    assert cases["product"] >= 1000 and cases["chi >= 3"] >= 100, cases
    assert cases["U > chi"] >= 30 and cases["U = chi"] >= 300, cases


def test_chi_refutation_work_bound():
    """Class tests and search nodes (``find_coloring``'s ``rec`` calls) of a
    whole chi solve.  The three chi jobs of the certify benchmark (fan/2,
    max-degree/1, star/2), the density benchmark's mad/1 job, star/1 and
    Robertson/chromatic/2 make 65, 243, 1,132, 38, 249 and 42 class tests in
    36, 155, 1,889, 20, 158 and 105 nodes.  Forward checking took 103, 283,
    1,687, 46, 299 and 53 class tests for fewer nodes; refuting along index
    order took 7,475 on fan/2, 4,707 on max-degree/1 and 2,525 on star/2."""
    rec = nested_code(find_coloring, "rec")
    for g, f, p, max_tests, max_nodes in (
            (cons.random_gnp(22, 0.4, 1), FAN, 2, 78, 47),
            (cons.random_gnp(24, 0.3, 1), MAX_DEGREE, 1, 290, 200),
            (cons.random_gnp(24, 0.5, 1), STAR, 2, 1360, 2450),
            (cons.random_gnp(16, 0.4, 1), PARAMETERS["mad"], 1, 45, 26),
            (cons.random_gnp(24, 0.5, 1), STAR, 1, 300, 205),
            (cons.robertson(), PARAMETERS["chromatic"], 2, 50, 136)):
        _, tests = count_calls(chi_fp, Parameter.allows.__code__, g, f, p)
        _, nodes = count_calls(chi_fp, rec, g, f, p)
        assert tests <= max_tests and nodes <= max_nodes, (g.name, f.id, p, tests, nodes)


def test_exists_L_coloring():
    c4 = cons.cycle(4)
    L = [0b11] * 4
    got = exists_L_coloring(c4, L, STAR, 1)
    assert got is not None and verify_fp_proper(c4, got, STAR, 1)
    assert all(L[v] >> got[v] & 1 for v in range(4))
    # the classical non-2-choosable assignment for K_{2,4}
    k24 = cons.complete_bipartite(2, 4)
    bad = [mask_of(lst) for lst in ({0, 1}, {2, 3}, {0, 2}, {0, 3}, {1, 2}, {1, 3})]
    assert exists_L_coloring(k24, bad, STAR, 1) is None
    with pytest.raises(ValueError):
        exists_L_coloring(cons.path(3), L, STAR, 1)


def test_exists_L_coloring_matches_the_list_backtracker():
    """The definition-level list check returns the first colouring of the
    unpruned backtracker over list palettes: lexicographic order, vertex 0
    first and colours ascending, on every built-in parameter with drawn
    lists of sizes 1..3."""
    rng = random.Random(179)
    outcomes = Counter()
    for g in random_graph_sample(24, 9, 179):
        for f in PARAMETERS.values():
            for p in (0, 1, 2):
                for s in (1, 2, 3):
                    lists = draw_lists(g.n, s, s + 2, rng)
                    got = exists_L_coloring(g, lists, f, p)
                    want = brute_find_coloring(range(g.n), lists, ClassOracle(g, f.allows, p))
                    assert got == want, (g.edges(), f.id, p, lists)
                    outcomes[got is None] += 1
    assert outcomes[True] > 300 and outcomes[False] > 600, outcomes


def test_find_coloring_matches_unpruned_search():
    """``find_coloring`` finds the same first colouring, or None, as the
    plain backtracker, which tests each class without a ``new`` hint, on
    every built-in parameter, with s = 1..chi colours, in index order and in
    a shuffled order over some of the vertices.  Every verdict the search
    stored after a miss with a ``new`` hint is the verdict without it."""
    rng = random.Random(173)
    outcomes = Counter()
    for g in random_graph_sample(40, 9, 173):
        part = [v for v in range(g.n) if rng.random() < 0.8]
        rng.shuffle(part)
        for f in PARAMETERS.values():
            for p in (0, 1, 2):
                sizes = []
                for s in range(1, g.n + 1):
                    sizes.append(s)
                    if brute_find_coloring(range(g.n), s,
                                           ClassOracle(g, f.allows, p)) is not None:
                        break  # s is chi
                for s in sizes:
                    for order in (range(g.n), part):
                        allowed = ClassOracle(g, f.allows, p)
                        got = find_coloring(order, s, allowed)
                        want = brute_find_coloring(order, s, ClassOracle(g, f.allows, p))
                        assert got == want, (g.edges(), f.id, p, s, list(order))
                        assert all(ok == f.allows(g, m, p) for m, ok in allowed.items())
                        outcomes[got is None] += 1
    assert outcomes[True] > 1000 and outcomes[False] > 1000, outcomes


def test_certificates_are_pinned():
    """Vertex and colour order decide which certificate comes out; pin them."""
    assert chi_fp(cons.random_gnp(24, 0.5, 1), STAR, 1) == (
        6, (0, 1, 2, 3, 4, 3, 2, 5, 4, 4, 2, 3, 4, 2, 4, 1, 3, 1, 0, 1, 3, 5, 0, 5))
    assert chi_fp(cons.robertson(), PARAMETERS["chromatic"], 2) == (
        2, (0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0))
    ok, bad = decide_choosability_fp(cons.complete_bipartite(2, 4), 2, STAR, 1)
    assert not ok
    assert [list(bits(lst)) for lst in bad] == [
        [0, 1], [2, 3], [0, 2], [0, 3], [1, 2], [1, 3]]
    # peel islands in removal order: small islands first, then the
    # depth-first search's ten-vertex island
    res = col_fp(cons.random_gnp(22, 0.3, 1), FAN, 3)
    assert [list(bits(m)) for m in res.islands] == [
        [2], [5], [12], [18], [3, 4], [0, 1, 6, 7, 9, 10, 11, 16, 20, 21],
        [8], [13], [14], [15], [17], [19]]
    res = col_fp(cons.random_gnp(16, 0.3, 1), MAX_DEGREE, 2)
    assert [list(bits(m)) for m in res.islands] == [
        [3], [8], [10], [5, 12], [13], [7, 15], [2, 4], [6], [0, 1], [9], [11], [14]]


def test_choosability_decisions():
    ok, cert = decide_choosability_fp(cons.cycle(4), 2, STAR, 1)
    assert ok and cert is None
    ok, cert = decide_choosability_fp(cons.complete_bipartite(2, 4), 2, STAR, 1)
    assert not ok
    # the returned assignment really defeats every L-coloring
    assert exists_L_coloring(cons.complete_bipartite(2, 4), cert, STAR, 1) is None
    ok, _ = decide_choosability_fp(cons.cycle(5), 2, STAR, 1)
    assert not ok  # odd cycles are not 2-choosable
    ok, _ = decide_choosability_fp(cons.cycle(5), 3, STAR, 1)
    assert ok
    ok, cert = decide_choosability_fp(cons.cycle(4), 0, STAR, 1)
    assert not ok and cert == (0,) * 4
    # a negative s is refused before either cap is checked
    for g in (cons.cycle(4), cons.random_gnp(12, 0.3, 1)):
        with pytest.raises(ValueError, match="s=-1 is negative"):
            decide_choosability_fp(g, -1, STAR, 1)
    # one vertex: defeated only by the empty list, or when it is no class
    assert decide_choosability_fp(Graph(1), 1, STAR, 1) == (True, None)
    ok, cert = decide_choosability_fp(Graph(1), 0, STAR, 1)
    assert not ok and cert == (0,)
    ok, cert = decide_choosability_fp(Graph(1), 2, STAR, 0)
    assert not ok and cert == (0b11,)


def test_choosability_matches_brute_enumeration():
    """The memoised search against the plain list-system enumerator, on every
    built-in parameter."""
    every_f = PARAMETERS.values()
    inputs = [(g, f, p, s) for g in random_graph_sample(20, 5, 139)
              for f in every_f for p in (1, 2) for s in (1, 2)]
    # the enumerator takes about a second per 2-choosable 6-vertex case
    inputs += [(g, STAR, p, 2) for g in random_graph_sample(1, 6, 149, min_n=6) for p in (1, 2)]
    # three or more old colours per list: only s = 3 reaches them, and the
    # enumerator takes about a second per 4-vertex graph there
    inputs += [(g, f, p, 3) for g in random_graph_sample(6, 4, 151, min_n=4)
               for f in every_f for p in (0, 1, 2)]
    # at the least p a vertex passes, every built-in asks for a proper
    # colouring, and K5 needs five colours: false at the enumerator's first leaf
    inputs += [(cons.complete(5), f, f.eval(Graph(1)), 3) for f in every_f]
    cases = Counter()
    false_cases = Counter()
    for g, f, p, s in inputs:
        if any(f.eval_mask(g, 1 << v) > p for v in range(g.n)):
            continue
        ok, bad = decide_choosability_fp(g, s, f, p)
        want, want_lists = brute_choosable(g, s, f, p)
        cases[s] += 1
        assert ok == want, (g.edges(), f.id, p, s)
        if ok:
            assert bad is None
            continue
        false_cases[s] += 1
        assert all(lst.bit_count() == s for lst in bad)
        assert verify_certificate(g, assignment_to_json(bad, s, f.id, p))
        if sorted(range(g.n), key=g.degree, reverse=True) == list(range(g.n)):
            # the search visits vertices in index order: the same first bad leaf
            assert bad == want_lists, (g.edges(), f.id, p, s)
    assert cases[1] + cases[2] > 350 and false_cases[1] + false_cases[2] > 100
    assert cases[3] == 77 and false_cases[3] > 5, (cases, false_cases)


def test_choosability_certificates_pinned():
    """Answers and certificates of 2,295 seeded decisions, hashed.  Covers
    n <= 6 (s = 3 at n <= 5), every built-in parameter, p = 0..2 and
    s = 0..3.  The hash was computed by the search of commit 8e07e24, which
    still kept code paths for parameters that are not hereditary or not
    connected, so deleting them changed no output."""
    decisions = []
    for g in random_graph_sample(40, 6, 163):
        for f in PARAMETERS.values():
            for p in range(3):
                for s in range(4 if g.n <= 5 else 3):
                    ok, bad = decide_choosability_fp(g, s, f, p)
                    decisions.append([ok, None if ok else [list(bits(lst)) for lst in bad]])
    text = json.dumps(decisions, separators=(",", ":"))
    assert len(decisions) == 2295 and sum(not ok for ok, _ in decisions) == 1245
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "390fb4bd49394818f5f2c625711e8559b8e8f65b6ff4de45f389c8468ba2978e")


def test_choosability_search_work_bound():
    """The last two vertices are settled from colour masks, with no search
    call of their own: the two costliest benchmark decisions make 207 calls
    each, where building a state set for the last vertex made 2,321 and
    1,197."""
    for g, f, p in ((cons.fan_join(2), FAN, 2), (cons.complete_bipartite(3, 3), MAX_DEGREE, 1)):
        (ok, _), calls = count_calls(decide_choosability_fp, "search", g, 2, f, p)
        assert ok and calls <= 300, (g.name, calls)


def test_two_choosability_matches_erdos_rubin_taylor():
    """star with p = 1 is plain 2-choosability; check every graph on at most
    seven vertices against the Erdos-Rubin-Taylor characterisation."""
    nx = pytest.importorskip("networkx")
    ert_two_choosable = load_perfbench("workloads").ert_two_choosable
    answers = []
    for h in nx.graph_atlas_g():
        g = Graph(h.number_of_nodes(), h.edges())
        ok, _ = decide_choosability_fp(g, 2, STAR, 1)
        assert ok == ert_two_choosable(g), g.edges()
        answers.append(ok)
    assert len(answers) == 1253 and 0 < sum(answers) < len(answers)


def test_choosability_monotone_in_s():
    for g in random_graph_sample(10, 4, 113):
        prev = False
        for s in (1, 2, 3):
            ok, _ = decide_choosability_fp(g, s, STAR, 1)
            assert ok or not prev
            prev = prev or ok


def test_sandwich_chain():
    """chi <= list-chromatic <= col."""
    for g in random_graph_sample(10, 4, 127):
        for p in (1, 2):
            col = col_fp(g, STAR, p).value
            chi = chi_fp(g, STAR, p)[0]
            ell = choosability_value(g, STAR, p, smax=3)
            assert chi <= col
            if ell is not None:
                assert chi <= ell <= col


def test_greedy_island_coloring():
    rng = random.Random(131)
    for g in random_graph_sample(25, 8, 131, min_n=1):
        for f, p in ((STAR, 1), (MAX_DEGREE, 1)):
            s = col_fp(g, f, p).value
            for _ in range(5):
                L = draw_lists(g.n, s, s + 3, rng)
                coloring = greedy_island_coloring(g, L, f, p)
                assert all(L[v] >> coloring[v] & 1 for v in range(g.n))
                assert verify_fp_proper(g, coloring, f, p)


def test_greedy_island_coloring_rejects_short_lists():
    k4 = cons.complete(4)
    with pytest.raises(ValueError):
        greedy_island_coloring(k4, [0b11] * 4, STAR, 1)  # col is 4, lists of size 2


def test_greedy_island_coloring_domain_mismatch():
    with pytest.raises(ValueError):
        greedy_island_coloring(cons.path(3), [0b1], STAR, 1)


def test_greedy_plan_matches_per_call_greedy():
    """One plan per peel, then one colouring per list system, colours exactly
    as the greedy that works out each vertex's blockers on every call."""
    rng = random.Random(137)
    compared = 0
    for g in random_graph_sample(30, 8, 137):
        for f in PARAMETERS.values():
            for p in range(3):
                try:
                    res = col_fp(g, f, p)
                except ValueError:  # f(single vertex) > p: col is undefined
                    continue
                plan = greedy_plan(g, res.islands)
                for u in (res.value, res.value + 3, 12):
                    lists = draw_lists(g.n, res.value, u, rng)
                    want = greedy_per_call(g, lists, res.islands)
                    assert greedy_color(plan, lists) == want
                    assert greedy_island_coloring(g, lists, f, p, res.islands) == want
                    compared += 1
    assert compared > 1000


def test_draw_lists_makes_the_draws_of_random_sample():
    """Same lists and same generator state as ``rng.sample(range(u), s)``, for
    every u <= 21 and 1 <= s <= u, and for u = s + 3 up to s = 64."""
    cases = [(u, s) for u in range(1, 22) for s in range(1, u + 1)]
    cases += [(s + 3, s) for s in range(19, 65)]
    for seed in range(20):
        for u, s in cases:
            ours, theirs = random.Random(seed), random.Random(seed)
            lists = draw_lists(3, s, u, ours)
            assert lists == [mask_of(theirs.sample(range(u), s)) for _ in range(3)]
            assert ours.getstate() == theirs.getstate()
    assert draw_lists(4, 0, 0, random.Random(0)) == [0] * 4
    with pytest.raises(ValueError):
        draw_lists(1, 3, 2, random.Random(0))


def test_lemma1_colorings_pinned(monkeypatch):
    """Every colouring ``suite_lemma1(graphs=60, trials=20)`` checks, hashed in
    order.  The first hash was computed at commit 10a99e5, which drew each
    list with ``random.sample`` and ran the per-call greedy on every trial;
    it still holds with ``peel_dfs``, the peel of ``find_island``'s islands.
    The second is that of ``peel``, which removes small islands first, so
    the greedy colours along other islands."""
    class_masks = suites.class_masks

    def digest():
        hashed = hashlib.sha256()

        def recording(coloring):  # the suite's own check sees every colouring
            hashed.update(repr(tuple(coloring)).encode())
            return class_masks(coloring)

        with monkeypatch.context() as patched:
            patched.setattr(suites, "class_masks", recording)
            res = suite_lemma1(graphs=60, trials=20)
        assert res["passed"] and res["checks"] == 4800
        return hashed.hexdigest()

    with monkeypatch.context() as patched:
        patched.setattr(solvers, "peel", peel_dfs)
        assert digest() == "36cd9164fc3eb2c469f71b92012fd03f1ded7b6b921bb5fc837e6c004234f69a"
    assert digest() == "fe80460634e26bc5b006a6d33054f39aa9afa41b5f0df421c0b10b7fd358bd56"


def test_lemma1_records_a_stuck_greedy(monkeypatch):
    """A greedy colouring that runs out of list colours is the failure the
    suite looks for: it becomes a counterexample bundle, not an error."""
    greedy_color_ = suites.greedy_color
    calls = 0

    def stuck_once(plan, lists):
        nonlocal calls
        calls += 1
        if calls == 7:
            raise ValueError("no available list color at vertex 0")
        return greedy_color_(plan, lists)

    monkeypatch.setattr(suites, "greedy_color", stuck_once)
    res = suite_lemma1(graphs=3, trials=5)
    assert not res["passed"] and res["checks"] == 60
    [bundle] = res["failures"]
    assert bundle["coloring"] is None
    assert bundle["reason"] == "no available list color at vertex 0"
    assert bundle["f"] == "max-degree" and bundle["p"] == 2
    g = from_graph6(bundle["graph6"])
    assert len(bundle["lists"]) == g.n
    assert all(len(lst) == bundle["s"] for lst in bundle["lists"])


def test_small_subgraph_densities_against_definition():
    for g in random_graph_sample(30, 7, 139):
        want = [Fraction(0)] * 6
        for mask in range(1, 1 << g.n):
            k = mask.bit_count()
            inner = sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2
            for at_most in range(k, 6):
                want[at_most] = max(want[at_most], Fraction(inner, k))
        assert _small_subgraph_densities(g, 5) == want


def test_compose_bound():
    assert compose_bound(3, 1, lambda a, b: a + b) == 3
    assert compose_bound(3, 4, lambda a, b: a + b) == 12
    assert compose_bound(2, 3, lambda a, b: a * b + 1) == 11
    with pytest.raises(ValueError):
        compose_bound(2, 0, lambda a, b: a + b)


def test_island_free_exhaustive_on_masks():
    g = cons.complete(4)
    # K4 has no 1-island of cluster size 1 except nothing: every proper subset
    # sees outside vertices, and the whole graph violates star <= 1
    assert island_free_exhaustive(g, 1, STAR, 1)
    assert not island_free_exhaustive(g, 1, STAR, 4)
    assert island_free_exhaustive(g, 2, STAR, 1, active=mask_of([0, 1, 2]))


def test_island_free_walk_against_subset_oracle():
    """The pruned walk against every subset of g[active], on random graphs
    whose core leaves 10 to 16 candidates, for every built-in parameter.
    The neighbourhood rule leaves so many candidates in an island-free fan
    graph only rarely, so col's lower certificates of four graphs of at most
    16 vertices, fan and chromatic at p = 3, join the draws."""
    rng = random.Random(167)
    every_f = [dataclasses.replace(f, evaluator=functools.cache(f.evaluator))
               for f in PARAMETERS.values()]
    uncut = {f.id: dataclasses.replace(f, bounds_avg_degree=False) for f in every_f}
    cases = []  # (g, active, s, parameters, p values)
    for _ in range(14):
        n = rng.randint(10, 16)
        g = cons.random_gnp(n, rng.uniform(0.15, 0.5), rng.getrandbits(32))
        active = g.full_mask()
        if rng.random() < 0.7:
            active &= ~mask_of(v for v in range(n) if rng.random() < 0.15)
        cases += [(g, active, s, every_f, range(4)) for s in (1, 2, 3)]
    for spec, f in (((14, 0.5, 1), FAN), ((16, 0.5, 3), FAN),
                    ((15, 0.3, 1), CHROMATIC), ((16, 0.4, 2), CHROMATIC)):
        g = cons.random_gnp(*spec)
        res = col_fp(g, f, 3)
        cases.append((g, res.lower_certificate, res.value - 1, [f], [3]))
    outcomes = Counter()
    for g, active, s, parameters, ps in cases:
        by_size = sorted(islands_brute(g, s, active), key=int.bit_count)
        for f in parameters:
            for p in ps:
                k = (active & ~excluded_core(g, s, f, p, active)).bit_count()
                if k < 10:
                    continue
                free = not any(f.eval_mask(g, m) <= p for m in by_size)
                assert island_free_exhaustive(g, s, f, p, active) == free, (
                    g.edges(), active, f.id, p, s)
                outcomes[f.id, free] += 1
                outcomes[k] += 1
    # the core rules out high-degree vertices for star and max-degree, so
    # with 10 or more candidates only the other parameters are island-free
    assert all(outcomes[f.id, False] for f in every_f), outcomes
    assert all(outcomes[f_id, True] for f_id in ("mad", "fan", "chromatic")), outcomes
    assert outcomes[16] and outcomes[15], outcomes


def test_island_free_walk_cuts_saturated_branches():
    """Excluding a vertex cuts the branch once a chosen vertex has s
    neighbours outside: on this 16-vertex lower certificate the walk makes
    134 class tests, where a walk that checks the island condition only at
    its leaves makes 1,233."""
    calls = []

    def counted(g, mask, cap=None, new=None):
        calls.append(mask)
        return PARAMETERS["mad"].evaluator(g, mask, cap, new)

    mad = dataclasses.replace(PARAMETERS["mad"], evaluator=counted)
    g = cons.random_gnp(16, 0.4, 3)
    res = col_fp(g, mad, 2)
    assert res.value == 3 and res.lower_certificate == g.full_mask()
    calls.clear()
    assert island_free_exhaustive(g, 2, mad, 2, res.lower_certificate)
    assert len(calls) <= 200, len(calls)


def _is_island_of(g, island, active, s):
    return all((g.adj[v] & active & ~island).bit_count() < s for v in bits(island))


def test_excluded_core_against_brute_force():
    """No excluded vertex lies in an island, and the searches that use the
    core agree with the definitional oracles, for every built-in parameter,
    p <= 3 and s <= 3.  The neighbourhood rule makes fan and chromatic, on
    which the star rule rules out nothing at p >= 2, exclude vertices there."""
    rng = random.Random(157)
    excluded = covered = 0
    by_neighbourhood = Counter()  # f -> vertices excluded at p >= 2
    for g in random_graph_sample(30, 8, 157, min_n=4):
        full = g.full_mask()
        for f in PARAMETERS.values():
            # the oracles re-evaluate the same masks many times
            f = dataclasses.replace(f, evaluator=functools.cache(f.evaluator))
            for p in range(4):
                cutoff = star_cutoff(g, f, p)
                good = [m for m in range(1, full + 1) if f.eval_mask(g, m) <= p]
                for s in (1, 2, 3):
                    for active in (full, rng.getrandbits(g.n)):
                        core = excluded_core(g, s, f, p, active, cutoff)
                        islands = [m for m in good
                                   if not m & ~active and _is_island_of(g, m, active, s)]
                        assert not any(m & core for m in islands), (g.edges(), f.id, p, s)
                        assert island_free_exhaustive(g, s, f, p, active) == (not islands)
                        excluded += core.bit_count()
                        covered += bool(active) and core == active
                        if p >= 2:
                            by_neighbourhood[f.id] += core.bit_count()
                    got = find_island(g, s, f, p)
                    assert (got is not None) == has_island_brute(g, s, f, p)
                if all(f.eval_mask(g, 1 << v) <= p for v in range(g.n)):
                    assert col_fp(g, f, p).value == brute_col(g, f, p), (g.edges(), f.id, p)
    assert excluded > 3000 and covered > 500, (excluded, covered)
    # 319 and 278 vertices; the star rule alone excludes none for either
    assert by_neighbourhood["fan"] > 250 and by_neighbourhood["chromatic"] > 200, by_neighbourhood


def test_col_work_count_with_excluded_core():
    """The core rules out all but a few vertices of each peel step: the
    unpruned search evaluated max-degree 486,331 times here."""
    calls = []

    def counted(g, mask):
        calls.append(mask)
        return MAX_DEGREE.evaluator(g, mask)

    f = dataclasses.replace(MAX_DEGREE, evaluator=counted)
    res = col_fp(cons.random_gnp(40, 0.3, 1), f, 2)
    assert res.value == 8 and res.lower_certificate.bit_count() == 36
    assert len(calls) <= 1000
