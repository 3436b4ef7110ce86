"""Exact solvers for generalized colorings and island coloring numbers.

Everything here is deterministic, so certificates are reproducible bit for
bit.  Witness colourings break ties lowest-vertex-first and
lowest-color-first, except ``chi_fp``'s, which is the colouring along a
smallest-last order that proves chi, its colours renamed in index order.

Every class test is ``Parameter.allows``, which asks only whether
f(class) <= p; exact values of f are left to reports.  ``chi_fp`` only sets
up calls to the one colouring backtracker, ``graph.find_coloring``, with s
interchangeable colours.  Each solve builds one ``graph.ClassOracle`` that
tests each vertex set once:
``chi_fp`` shares it across every colour count it tries, and
``decide_choosability_fp`` across its whole adversary search, which tracks the
feasible partial colourings itself instead of colouring each list system.

A colour list is an int bitmask, bit c standing for colour c, and a list
system is a sequence of such masks indexed by vertex; ``graph.bits`` reads a
list in ascending colour order.

The island coloring number is computed by iterated island removal rather
than by its every-induced-subgraph definition; the two agree as f is
hereditary (the first peel island meeting an induced subgraph H intersects
it in an island of H).  The definitional brute force lives in the test
suite as an oracle.  Island results are plain vertex masks: ``find_island``
returns one, ``peel`` and ``ColResult.islands`` hold them in removal order,
and only the report layer turns them into certificates.

The same argument makes the peel's outcome independent of which islands it
removes: an island of A meets any A' inside A in an island of A' or in
nothing, so the remainder a peel gets stuck on is the largest island-free
induced subgraph, whatever the order.  So ``peel`` removes small islands
first: each step tries the connected sets of at most ``SMALL_ISLAND``
vertices, smallest first, enumerated by ESU (``connected_sets``), and runs
the depth-first ``find_island`` only when none is an island.  Values and
lower certificates are those of any other order; only the islands of upper
certificates depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from fpcolor.check import (excluded_core, is_island, star_cutoff,  # noqa: F401
                           # re-exported for perfbench/spans.py; ROADMAP item 1 retires these
                           exists_L_coloring, island_free_exhaustive, verify_fp_proper, verify_peel)
from fpcolor.errors import CapExceeded
from fpcolor.graph import ClassOracle, Graph, bits, core_numbers, find_coloring, mask_of, reach
from fpcolor.params import Parameter

CHOOSABILITY_N_CAP = 10
CHOOSABILITY_S_CAP = 3
COL_N_CAP = 64
CHI_N_CAP = 24
SMALL_ISLAND = 4  # the largest island peel's small pass looks for


@dataclass(frozen=True)
class ColResult:
    value: int
    islands: tuple  # island masks of the peel at s = value, in removal order
    lower_certificate: int | None  # stuck induced-subgraph mask at s = value-1


def find_island(g: Graph, s: int, f: Parameter, p: int, active=None, cutoff=None, core=None):
    """The mask of a connected s-island of g[active] with f <= p, or None.

    As f is connected, each component of an island is an island with
    f <= p, so None means no island at all.

    The vertices of ``excluded_core`` start out banned and are never
    anchors.  None lies in an island: an island vertex keeps at least
    deg - s + 1 neighbours inside it, so f of the island is at least f of
    that star, which ``cutoff`` (``star_cutoff(g, f, p)`` unless given)
    bounds, and for fan and chromatic at least f of the vertex with those
    neighbours (the core's neighbourhood rule).  A caller that has the core
    passes it as ``core``, and with it vouches that no vertex outside it is
    a singleton island with f <= p; the singleton scan, lowest vertex
    first, is then skipped.  A vertex with fewer than s active neighbours
    is a singleton island, so once the scan finds none with f <= p, no such
    vertex is a search root either (the search would return it untested).

    The search grows an island in ascending order and bans each vertex (an
    anchor included) once its subtree is done; a banned vertex stays outside
    every island below.  Two cuts follow.  A vertex with s banned
    neighbours is banned untried, before its class test.  A branch ends as
    soon as a ban gives an island vertex s banned neighbours, since every
    later sibling holds that vertex.  So every node is entered with each
    island vertex below s banned neighbours, and no node checks that again.
    Only subtrees holding no island are skipped, so the island found is the
    one the unpruned depth-first search finds first.

    When f bounds the average degree (``Parameter.bounds_avg_degree``:
    every X with f(X) <= p has average degree below p + 1), a third cut is
    the degree-sum bound of the paper's positive case.  An island vertex v
    has at least deg_A(v) - s + 1 neighbours inside the island, A being
    ``active``, so the weight w(v) = max(deg_A(v) - s + 1, 0) - (p + 1)
    sums to below 0 over every island X with f(X) <= p.  Every island below
    a node growing island I by u weighs at least I + u together with every
    unbanned vertex of negative weight.  So u is banned untried, as after a
    failed class test, when that sum is at least 0, and an anchor is skipped
    by the same test; this cut too skips only subtrees holding no island.
    Each frame carries that least weight without u, the positive weight of
    its island plus the negative weight left in its unbanned vertices, so
    the test is O(1).

    Every search node past the anchor passed ``f.allows``, so growing it by
    u is tested with the hint ``new = u``; the anchor alone was never
    tested, so its children are tested whole.

    Iterative, so a large island cannot exhaust the call stack: the search
    keeps its own stack of nodes and visits them in the depth-first order
    above.
    """
    if s < 0:
        raise ValueError(f"island: s={s} is negative")
    if active is None:
        active = g.full_mask()
    if not active:
        return None
    adj = g.adj
    if core is None:
        lower = excluded_core(g, s, f, p, active, cutoff)
        for v in bits(active & ~lower):
            if (adj[v] & active).bit_count() < s and f.allows(g, 1 << v, p):
                return 1 << v
    else:
        lower = core
    # the degree-sum weights of the candidates, split into gain >= 0 and
    # loss <= 0; when f does not bound the average degree both are 0 and the
    # pool, the loss of the unbanned vertices, stays -1, so the cut never fires
    gain, loss, pool = [0] * g.n, [0] * g.n, -1
    if f.bounds_avg_degree:
        for v in bits(active & ~lower):
            weight = max((adj[v] & active).bit_count() - s + 1, 0) - p - 1
            gain[v], loss[v] = max(weight, 0), min(weight, 0)
        pool = sum(loss)

    def search(island, ext, banned, light):
        # light: the least weight of a set between island and the unbanned
        # vertices, the island's gain plus the loss of every unbanned vertex
        frames = []  # the nodes above: (island, ext, banned, light, the vertex tried below)
        u = 0  # the vertex whose subtree was just searched; 0 on entering a node
        while True:
            if not u:
                if is_island(g, island, active, s):
                    return island
            else:
                banned |= u
                w = u.bit_length() - 1
                light -= loss[w]
                # an island vertex saturated by banned ones ends the branch
                for v in bits(island & adj[w]):
                    if (adj[v] & banned).bit_count() >= s:
                        ext = 0
                        break
            if ext:
                u = ext & -ext
                ext ^= u
                w = u.bit_length() - 1
                # u lies in no island below when the degree-sum bound holds no
                # island with u, or when u has s banned neighbours
                if light + gain[w] < 0 and (adj[w] & banned).bit_count() < s:
                    grown = island | u
                    if f.allows(g, grown, p, new=w if island & (island - 1) else None):
                        frames.append((island, ext, banned, light, u))
                        island, ext, u = grown, (ext | (adj[w] & active)) & ~grown & ~banned, 0
                        light += gain[w]
            elif frames:
                island, ext, banned, light, u = frames.pop()
            else:
                return 0

    for anchor in bits(active & ~lower):
        abit = 1 << anchor
        if ((adj[anchor] & active).bit_count() >= s and (adj[anchor] & lower).bit_count() < s
                and gain[anchor] + pool < 0):
            found = search(abit, adj[anchor] & active & ~lower, lower, gain[anchor] + pool)
            if found:
                return found
        lower |= abit
        pool -= loss[anchor]
    return None


def connected_sets(g: Graph, mask: int, k: int):
    """Every connected k-vertex set of g[mask], each once, as masks.

    ESU (Wernicke, "Efficient detection of network motifs", IEEE/ACM TCBB
    2006): anchors in ascending order, each growing only sets whose other
    vertices lie above it.  A set grows by a vertex u of its extension, and
    the extension gains only the neighbours of u above the anchor that are
    neither in nor next to the set, so each set is reached along one path.
    The extension is drawn lowest vertex first.
    """
    adj = g.adj

    def extend(sub, ext, closed, need, above):
        while ext:
            u = ext & -ext
            ext ^= u
            if need == 1:
                yield sub | u
            else:
                w = adj[u.bit_length() - 1]
                yield from extend(sub | u, ext | (w & above & ~closed), closed | w, need - 1,
                                  above)

    for v in bits(mask):
        bit = 1 << v
        if k == 1:
            yield bit
        elif k > 1:
            above = mask & -(bit << 1)
            yield from extend(bit, adj[v] & above, adj[v] | bit, k - 1, above)


def _small_island(g, s, f, p, active, core):
    """The first s-island of g[active] with f <= p and at most
    ``SMALL_ISLAND`` vertices, smaller sets first and ``connected_sets``
    order within a size, or None.  Only connected sets outside ``core`` are
    tried; for size k only vertices with fewer than s + k - 1 active
    neighbours, since an island vertex has at most k - 1 neighbours inside
    a k-set and fewer than s outside it."""
    adj = g.adj
    outside = active & ~core
    for v in bits(outside):  # the singletons, lowest first, as ``find_island`` scans them
        if (adj[v] & active).bit_count() < s and f.allows(g, 1 << v, p):
            return 1 << v
    needs = [0] * SMALL_ISLAND  # j -> the vertices j neighbours short of an island
    for v in bits(outside):
        short = (adj[v] & active).bit_count() - s + 1
        if short < SMALL_ISLAND:
            needs[short if short > 0 else 0] |= 1 << v
    candidates = needs[0]
    for k in range(2, SMALL_ISLAND + 1):
        candidates |= needs[k - 1]
        for island in connected_sets(g, candidates, k):
            if is_island(g, island, active, s) and f.allows(g, island, p):
                return island
    return None


def peel(g: Graph, s: int, f: Parameter, p: int, cutoff=None, allowed=None):
    """Repeatedly remove s-islands with f <= p.

    Returns (island masks, 0) when the graph peels away completely, or
    (None, remainder-mask) when an island-free induced subgraph is hit.

    Each step removes the first island of at most ``SMALL_ISLAND`` vertices
    (``_small_island``), and only when there is none the one ``find_island``
    finds; the excluded core is computed once per step for both, and the
    small pass's singletons stand in for ``find_island``'s.  Which islands
    go first does not change the remainder (see the module docstring), and
    a small island is found in a few class tests where the depth-first
    search may first exhaust every lower anchor.
    """
    if cutoff is None:
        cutoff = star_cutoff(g, f, p)
    active = g.full_mask()
    islands = []
    while active:
        core = excluded_core(g, s, f, p, active, cutoff, allowed)
        if core == active:  # no vertex left can lie in an island
            return None, active
        island = (_small_island(g, s, f, p, active, core)
                  or find_island(g, s, f, p, active, core=core))
        if island is None:
            return None, active
        islands.append(island)
        active &= ~island
    return islands, 0


def col_fp(g: Graph, f: Parameter, p: int) -> ColResult:
    """Exact island coloring number, the peel at that value (the upper
    certificate) and an island-free mask at one less (the lower).

    The value and the lower certificate, the largest island-free induced
    subgraph at one less, do not depend on the order in which ``peel``
    removes islands; only the upper certificate's islands do, and they are
    small islands first."""
    if g.n > COL_N_CAP:
        raise CapExceeded(f"col: n={g.n} exceeds cap {COL_N_CAP}")
    for v in range(g.n):
        if not f.allows(g, 1 << v, p):
            raise ValueError(
                f"col undefined: f(single vertex {v}) > {p}, vertex can join no island"
            )
    cutoff = star_cutoff(g, f, p)
    # the class oracle of excluded_core's neighbourhood rule, shared by every peel
    allowed = None if f.bounds_avg_degree else ClassOracle(g, f.allows, p)
    lower_cert = None
    s = 1
    while True:
        islands, remainder = peel(g, s, f, p, cutoff, allowed)
        if islands is not None:
            return ColResult(s, tuple(islands), lower_cert)
        lower_cert = remainder
        s += 1


def degeneracy_col(g: Graph) -> int:
    """Classical coloring number via min-degree peeling (degeneracy + 1)."""
    return 1 + max(core_numbers(g, g.full_mask()).values(), default=0)


def chi_fp(g: Graph, f: Parameter, p: int):
    """Least s admitting an (f,p)-proper coloring, with a witness.

    Every search is ``graph.find_coloring``, lowest colour first, with one
    ``ClassOracle`` for the whole solve.  A partial class already violating
    f <= p ends a branch (f is hereditary, so a violation can never
    recover); each class test passes the added vertex as ``new``.

    Whether s colours suffice does not depend on the vertex order, so the
    refutations run along a smallest-last order (Matula and Beck 1983), the
    reverse of ``core_numbers``' peel, where they take far fewer class
    tests than along index order.  First fit along that order, the first
    leaf of a search with n colours, bounds chi by its class count U;
    s = 1 .. U-1 are searched along it, and the first s that colours, or
    else U, is chi.  The colouring that settles chi (that first success, or
    else first fit) is the witness, its colours renamed by first appearance
    in index order, so vertex 0 has colour 0.
    """
    if g.n > CHI_N_CAP:
        raise CapExceeded(f"chi: n={g.n} exceeds cap {CHI_N_CAP}")
    if g.n == 0:
        return 0, ()
    allowed = ClassOracle(g, f.allows, p)
    for v in range(g.n):
        if not allowed[1 << v]:
            raise ValueError(f"chi undefined: f(single vertex {v}) > {p}")
    order = tuple(reversed(core_numbers(g, g.full_mask())))
    first_fit = find_coloring(order, g.n, allowed)
    found = next(filter(None, (find_coloring(order, s, allowed)
                               for s in range(1, max(first_fit) + 1))), first_fit)
    color_of, names = dict(zip(order, found)), {}
    witness = tuple(names.setdefault(color_of[v], len(names)) for v in range(g.n))
    return len(names), witness


def decide_choosability_fp(g: Graph, s: int, f: Parameter, p: int, cap_s=CHOOSABILITY_S_CAP):
    """Whether every s-list assignment admits an (f,p)-proper coloring.

    A depth-first search for the adversary: lists are assigned one vertex at
    a time, in a stable order of decreasing degree.  Each vertex tries the
    lists of the enumeration quotiented by color permutations: colors are
    introduced in order of first use, the fresh colors of one list are
    consecutive, and lists with fewer fresh colors come first.  The search
    carries S, the partial colorings of the listed vertices that can still
    extend; a coloring is one int, class k in bits k*n .. k*n + n - 1.

    * S empty: the prefix already defeats every coloring, and the remaining
      vertices take {0..s-1}, the first leaf of the subtree.
    * The last two vertices v and w are settled together, with no state
      set for w.  For each color k, a bitmask holds the colors w can take
      in some coloring of S with v in class k, one bit standing for every
      color that S leaves empty.  A list of v is safe iff the union of its
      masks misses fewer than s of the colors in use after it, and not the
      empty one; otherwise w's list is s missing colors, old ones first.
      A coloring c in S counts only if its class k takes v, and w may join
      class j if class j of c (with v, if j = k) takes it.  So the masks
      are an OR over S of one reach vector per coloring, which depends only
      on the coloring and the number of colors in use: each is computed
      once, into a dict that is freed with the search.  This is exact: the
      state set the next level would build differs only by dropping
      colorings whose classes contain another's, and class components not
      next to w, which leave every class test on w as it was (f is
      connected).
    * ``settle`` takes S as the level above builds it, without dropping
      colorings whose classes contain another's: as f is hereditary, such
      a coloring's reach vector lies inside the other's, so the OR is the
      same.  Nor is depth n - 2 memoised; a hit would only skip a
      ``settle`` that the cache already makes cheap.
    * A state at depth n - 3 or less that is proved to have no bad
      completion is memoised under a key that forgets what cannot matter
      below it.  Each class keeps only its components next to an unlisted
      vertex (the others can never grow, and f is connected), and a
      coloring whose classes contain those of another is dropped.  Colors
      empty in every coloring act as fresh ones and are left out; the rest
      are put in an order that does not depend on their names.

    Pruning only skips subtrees without a bad leaf, so on False the
    certificate is the first bad assignment of the enumeration, its lists as
    color bitmasks indexed by vertex.  The search keeps each vertex's list as
    the tuple it tried and makes masks only for the certificate.
    """
    if s < 0:  # a usage error whatever the size of g
        raise ValueError(f"choosability: list size s={s} is negative")
    if g.n > CHOOSABILITY_N_CAP:
        raise CapExceeded(f"choosability: n={g.n} exceeds cap {CHOOSABILITY_N_CAP}")
    if s > cap_s:
        raise CapExceeded(f"choosability: s={s} exceeds cap {cap_s}")
    if g.n == 0:
        return True, None
    if g.n == 1:  # defeated only by an empty list or a vertex no class takes
        if s and f.allows(g, 1, p):
            return True, None
        return False, ((1 << s) - 1,)

    n, full = g.n, g.full_mask()
    order = sorted(range(n), key=g.degree, reverse=True)
    v, w = order[-2:]  # the two vertices that ``settle`` decides together
    allowed = ClassOracle(g, f.allows, p)
    lists = [None] * n
    safe = set()
    touching = [0] * (n + 1)  # depth -> the vertices next to an unlisted one
    for i in reversed(range(n)):
        touching[i] = touching[i + 1] | g.adj[order[i]]

    def classes(c):
        k = 0
        while c >> k * n:
            yield k, c >> k * n & full
            k += 1

    def child(i, c, k):
        """Coloring c with vertex order[i] added to class k, as seen from
        depth i + 1, or None if that class is not allowed."""
        u = order[i]
        if not allowed[(c >> k * n & full) | 1 << u]:
            return None
        grown = c | 1 << (u + k * n)
        near = g.adj[u] | 1 << u
        for j, m in classes(grown):
            if m & near:  # keep the class's components next to an unlisted vertex
                grown ^= (m ^ reach(g, m & touching[i + 1], m)) << j * n
        return grown

    def minimal(colorings):
        kept = []
        for c in sorted(colorings, key=int.bit_count):
            if all(d & ~c for d in kept):
                kept.append(c)
        return kept

    def key(i, S):
        union = 0
        for c in S:
            union |= c
        used = [k for k, m in classes(union) if m]
        column = {k: sorted(c >> k * n & full for c in S) for k in used}
        used.sort(key=column.__getitem__)
        return (i, *sorted(sum((c >> k * n & full) << j * n for j, k in enumerate(used))
                           for c in S))

    def candidates(used):
        """The lists a vertex tries, in enumeration order, each with the
        number of colors in use after it."""
        for fresh in range(s + 1):
            block = tuple(range(used, used + fresh))
            for old in combinations(range(used), s - fresh):
                yield old + block, used + fresh

    vbit, wbit = 1 << v, 1 << w
    reach_of = {}  # (coloring, colors in use) -> its reach_vector, for this decision only

    def reach_vector(c, used):
        """For each color k of v, the colors w can take in coloring c with v
        in class k, as field k of width used + s + 1 (see ``settle``)."""
        width = used + s + 1
        # the colors w can take while v is in none of c's classes, those
        # from bit used on standing for colors empty in S
        beside = (((2 << s) - 1) << used if allowed[wbit] else 0) | sum(
            allowed[c >> j * n & full | wbit] << j for j in range(used))
        vector = 0
        for k in range(used + s):
            m = c >> k * n & full | vbit
            if allowed[m]:  # bit k is w joining v's class
                vector |= (beside & ~(1 << k) | allowed[m | wbit] << k) << k * width
        return vector

    def settle(used, S):
        """Whether lists for v and w defeat every coloring in S, which holds
        the colorings of all other vertices; if so they are written."""
        empty = used + s  # the bit of every color empty in S
        vector = 0
        for c in S:
            if (got := reach_of.get((c, used))) is None:
                got = reach_of[c, used] = reach_vector(c, used)
            vector |= got
        field = (2 << empty) - 1
        reachable = [vector >> k * (empty + 1) & field for k in range(empty)]
        for lst, now in candidates(used):
            union = 0
            for k in lst:
                union |= reachable[k]
            if (~union & ((1 << now) - 1)).bit_count() >= s or not union >> empty & 1:
                old = [j for j in range(now) if not union >> j & 1][:s]
                lists[v] = lst
                lists[w] = (*old, *range(now, now + s - len(old)))
                return True
        return False

    def search(i, used, S):
        if not S:
            for u in order[i:]:
                lists[u] = range(s)
            return True
        if i == n - 2:
            return settle(used, S)
        memo = key(i, S)
        if memo in safe:
            return False
        children = [[d for c in S if (d := child(i, c, k)) is not None]
                    for k in range(used + s)]
        for lst, now in candidates(used):
            lists[order[i]] = lst
            nxt = set()
            for k in lst:
                nxt.update(children[k])
            if search(i + 1, now, minimal(nxt) if i < n - 3 else nxt):
                return True
        safe.add(memo)
        return False

    try:
        defeated = search(0, 0, [0])
    finally:
        del search  # it refers to itself: free the memo now, not at a later gc pass
    if defeated:
        return False, tuple(map(mask_of, lists))
    return True, None


def greedy_island_coloring(g: Graph, lists, f: Parameter, p: int, islands=None):
    """(f,p)-proper coloring from ``lists`` by reverse-peel greedy extension.

    Requires every list to hold at least s colors, where s admits a full
    peel (``islands``, the island masks in removal order, or a fresh peel at
    the size of the smallest list).  It is the plan of that peel
    (``greedy_plan``) followed by one colouring from it (``greedy_color``):
    islands are colored latest-peeled first, each vertex taking its lowest
    list color unused on already-colored neighbors outside its own island.
    Colors are nonnegative ints.
    """
    if len(lists) != g.n:
        raise ValueError("list assignment domain mismatch")
    if g.n == 0:
        return ()
    if islands is None:
        s = min(lst.bit_count() for lst in lists)
        islands, _ = peel(g, s, f, p)
        if islands is None:
            raise ValueError(f"list size {s} is below the island coloring number: peel got stuck")
    return greedy_color(greedy_plan(g, islands), lists)


def greedy_plan(g: Graph, islands):
    """The part of greedy island colouring that depends only on the peel:
    ``(v, blockers)`` pairs in colouring order, islands latest-peeled first and
    ascending inside one, where ``blockers`` masks the neighbours of v that
    are coloured before it and lie outside its island."""
    plan = []
    colored = 0
    for island in reversed(islands):
        for v in bits(island):
            plan.append((v, g.adj[v] & colored & ~island))
        colored |= island
    return plan


def greedy_color(plan, lists):
    """Colour one list system from a ``greedy_plan``: ``lists[v]`` is the
    bitmask of v's colours, and v takes the lowest of them whose class so far
    misses v's blockers.  Returns the colours as a tuple indexed by vertex."""
    colors = [-1] * len(lists)
    classes = [0] * max(lists, default=0).bit_length()  # colour -> vertex mask
    for v, blockers in plan:
        free = lists[v]
        while free:
            low = free & -free
            c = low.bit_length() - 1
            if not classes[c] & blockers:
                break
            free ^= low
        else:
            raise ValueError(f"no available list color at vertex {v}")
        colors[v] = c
        classes[c] |= 1 << v
    return tuple(colors)


def compose_bound(p: int, s: int, g_fn) -> int:
    """Iterated two-argument bound g(p, g(p, ..., g(p,p)...)), depth s-1."""
    if s < 1:
        raise ValueError("s must be at least 1")
    value = p
    for _ in range(s - 1):
        value = g_fn(p, value)
    return value
