"""Definition-level checks, the trusted base of ``fpcolor verify``: islands,
peels, (f,p)-proper colourings, island-free subgraphs and bad list
assignments, each tested from the definitions alone.  This module imports no
solver; the solvers import ``is_island`` and the excluded core from it.
``exists_L_coloring`` is the check of one list system that ``verify`` runs
on a bad list assignment: it tries every colouring from the lists and calls
no backtracker.
"""

from __future__ import annotations

from itertools import product

from fpcolor.errors import CapExceeded
from fpcolor.graph import ClassOracle, Graph, bits, class_masks
from fpcolor.params import Parameter

EXHAUSTIVE_ISLAND_CAP = 16
NEIGHBOURHOOD_BUDGET = 1 << 14  # class lookups of one neighbourhood test in ``excluded_core``


def verify_fp_proper(g: Graph, coloring, f: Parameter, p: int) -> bool:
    """True iff every color class induces a subgraph with f <= p."""
    if len(coloring) != g.n:
        raise ValueError("coloring must be total on V(G)")
    return all(f.allows(g, m, p) for m in class_masks(coloring).values())



def is_island(g, island, active, s):
    for v in bits(island):
        if (g.adj[v] & active & ~island).bit_count() >= s:
            return False
    return True


def verify_peel(g: Graph, islands, s: int, f: Parameter, p: int) -> bool:
    """Replay a peel decomposition (island masks in removal order) against
    the island definition only."""
    active = g.full_mask()
    for island in islands:
        if not island or island & ~active:
            return False
        if not is_island(g, island, active, s):
            return False
        if not f.allows(g, island, p):
            return False
        active &= ~island
    return active == 0


def exists_L_coloring(g: Graph, lists, f: Parameter, p: int):
    """The first (f,p)-proper coloring with each vertex's color drawn from
    its list (a color bitmask), or None.  Definition-level: the colourings
    from the lists are tried in lexicographic order, vertex 0 first and
    colours ascending, each checked by ``verify_fp_proper``."""
    if len(lists) != g.n:
        raise ValueError("list assignment domain mismatch")
    for coloring in product(*map(bits, lists)):
        if verify_fp_proper(g, coloring, f, p):
            return coloring
    return None


def star_cutoff(g: Graph, f: Parameter, p: int) -> int:
    """The least k with f(K_{1,k}) > p, for ``excluded_core``, or max
    degree + 1, which no vertex reaches.

    Stars are tried with k = 0, 1, ... and the scan stops early once f stops
    growing on them (mad, fan and chromatic are at most 2 on every star), so
    a solve pays a few evaluations on stars of at most p + 2 vertices; a
    cutoff that is too high only rules out fewer vertices.
    """
    top = g.max_degree()
    star = Graph(top + 1, [(0, leaf) for leaf in range(1, top + 1)])
    last = None
    for k in range(top + 1):
        value = f.eval_mask(star, (2 << k) - 1)
        if value > p:
            return k
        if value == last:
            break
        last = value
    return top + 1


def excluded_core(g: Graph, s: int, f: Parameter, p: int, active, cutoff=None, allowed=None):
    """The vertices of g[active] that lie in no s-island with f <= p.

    ``cutoff`` is ``star_cutoff(g, f, p)`` unless given, and ``allowed`` a
    ``ClassOracle`` of f at p that the caller's solve shares (a fresh one
    otherwise).  Two rules, both sound for every hereditary, monotone f.

    The star rule.  A vertex v of an island X has fewer than s neighbours
    outside X, so at least k = deg_A(v) - s + 1 inside it, A being
    ``active``: g[X] contains K_{1,k}, and as f is monotone, f(X) >=
    f(K_{1,k}).  So v is excluded once max(k, 0) >= cutoff, and so is every
    vertex with s excluded neighbours, which always lie outside X; the rule
    is applied to a fixed point.

    The neighbourhood rule, for an f that bounds no average degree (fan and
    chromatic, on which the star rule rules out nothing at p >= 2): v, with
    k >= 2, is excluded when no k-subset T of its active neighbours outside
    the core has f(v + T) <= p.  The k neighbours v keeps inside an island
    would form such a T, and f is hereditary.  For star and max-degree
    f(v + T) depends on |T| alone, so the star rule already decides; for mad
    it rules out little at the price of flows.  The vertices are tested
    highest degree first, each exclusion is carried through the star rule
    before the next test, and the tests start again from the top until none
    excludes a vertex.  A vertex kept by a set T (or, undecided, by its
    candidates) is not tested again while that set misses the core.
    """
    if cutoff is None:
        cutoff = star_cutoff(g, f, p)
    adj = g.adj
    core, order = 0, None
    while True:
        grown = 0
        for v in bits(active & ~core):  # the star rule
            if (max((adj[v] & active).bit_count() - s + 1, 0) >= cutoff
                    or (adj[v] & core).bit_count() >= s):
                grown |= 1 << v
        if grown:
            core |= grown
            continue
        if f.bounds_avg_degree:
            return core
        if order is None:  # the star rule's first fixed point: set up the neighbourhood rule
            if allowed is None:
                allowed = ClassOracle(g, f.allows, p)
            need = {v: (adj[v] & active).bit_count() - s + 1 for v in bits(active & ~core)}
            order = sorted((v for v in need if need[v] >= 2), key=need.__getitem__, reverse=True)
            kept = {}  # v -> the vertices whose exclusion could undo v's last verdict
        for v in order:
            if core >> v & 1 or (v in kept and not kept[v] & core):
                continue
            kept[v] = _neighbourhood_set(v, adj[v] & active & ~core, need[v], allowed)
            if not kept[v]:
                core |= 1 << v
                break
        else:
            return core


def _neighbourhood_set(v, candidates, k, allowed):
    """A k-subset T of ``candidates`` with ``allowed[v + T]``, or 0 if there
    is none; ``candidates`` itself when the search stops undecided.

    T grows in ascending vertex order, and a prefix that is not allowed ends
    its branch (f is hereditary), as does one that too few candidates are
    left to complete.  Each grown set is tested with the added vertex as
    ``new``.  The search stops undecided after ``NEIGHBOURHOOD_BUDGET``
    lookups or on a parameter's cap, which leaves v in: keeping a vertex is
    always sound.
    """
    vbit = 1 << v
    verts = list(bits(candidates))
    if len(verts) < k or not allowed[vbit]:
        return 0
    budget = NEIGHBOURHOOD_BUDGET

    def grow(chosen, start, short):
        # a set of ``short`` more vertices from verts[start:] completing
        # ``chosen``, 0 if none, None once the budget is spent
        nonlocal budget
        if not short:
            return chosen
        for j in range(start, len(verts) - short + 1):
            budget -= 1
            if budget < 0:
                return None
            u = 1 << verts[j]
            mask = vbit | chosen | u
            ok = allowed.get(mask)
            if ok is None:
                ok = allowed.miss(mask, verts[j])
            if ok:
                found = grow(chosen | u, j + 1, short - 1)
                if found != 0:
                    return found
        return 0

    try:
        found = grow(0, 0, k)
    except CapExceeded:
        found = None
    return candidates if found is None else found


def island_free_exhaustive(g: Graph, s: int, f: Parameter, p: int, active=None):
    """Definition-level check that g[active] contains NO s-island with f <= p.

    Ranges over all nonempty subsets (not only connected ones) of the
    vertices left by ``excluded_core``, which lie in no island: a vertex of
    an island has at least k = deg - s + 1 neighbours in it, so f is at
    least its value on that star, and at least f of the vertex with any k
    of those neighbours.  Both rules rest only on f being hereditary and
    monotone; ``bounds_avg_degree`` decides only whether the second runs, and
    either answer is sound.  The cap counts the vertices left, so a
    certificate the core covers is accepted at any size.  Used to re-verify
    lower certificates without trusting solver internals.

    The subsets are walked by including or excluding each candidate in
    ascending order, carrying the island X chosen so far and the vertices
    O known to lie outside it (at first the excluded core).  A vertex joins
    X only while it has fewer than s neighbours in O and only while
    f(X) <= p stays true (f is hereditary: no superset of a set with f > p
    has f <= p).  Putting a vertex in O cuts the branch once a vertex of X
    has s neighbours in O, since O only grows.  At a leaf O is active minus
    X, so a nonempty X is an s-island with f <= p.  No ``new`` hint is
    passed: no caller is trusted.  Nor does the walk use ``find_island``'s
    degree-sum cut: it rests on ``Parameter.bounds_avg_degree``, a claim
    about f that the check would have to take on trust, so ``verify`` stays
    independent of the search it checks.
    """
    if active is None:
        active = g.full_mask()
    candidates = active & ~excluded_core(g, s, f, p, active)
    verts = list(bits(candidates))
    k = len(verts)
    if k > EXHAUSTIVE_ISLAND_CAP:
        raise CapExceeded(
            f"exhaustive island check: {k} vertices exceeds cap {EXHAUSTIVE_ISLAND_CAP}")
    adj = g.adj

    def walk(i, island, outside):
        """Whether some completion of (island, outside) past verts[:i] is an
        island with f <= p."""
        if i == k:
            return bool(island)
        v = verts[i]
        bit = 1 << v
        if (adj[v] & outside).bit_count() < s:
            grown = island | bit
            if f.allows(g, grown, p) and walk(i + 1, grown, outside):
                return True
        outside |= bit
        for w in bits(island & adj[v]):
            if (adj[w] & outside).bit_count() >= s:
                return False
        return walk(i + 1, island, outside)

    return not walk(0, 0, active & ~candidates)
