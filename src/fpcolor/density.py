"""Exact maximum-density subgraph via max-flow with rational thresholds.

Density of a vertex set S is |E(S)|/|S|; the maximum average degree (mad)
is twice the maximum density.  For a rational guess g = a/b, with every
capacity scaled by b, a vertex v has the excess x_v = b deg v - 2a.  The
flow network has one arc pair per edge, of capacity b each way.  A vertex
gets a source arc of x_v when x_v > 0, a sink arc of -x_v when x_v < 0,
and no terminal arc when x_v = 0.  With X the sum of the positive
excesses, the cut whose source side is S costs X - 2(b|E(S)| - a|S|).  So
a cut below X exhibits a set strictly denser than the guess (Goldberg,
1984).  Such a cut leaves a source arc unsaturated, and the answer is the
source side of the minimal minimum cut: the vertices the residual network
still reaches from the source, none when no cut is below X.  At the
maximum density itself the minimum cuts are the densest sets and the empty
one, and the source side of the maximal minimum cut, the vertices that
cannot reach the sink, is their union: the largest densest subgraph.

Goldberg gives every vertex both a source arc of b*m and a sink arc of
b*m + 2a - b deg v, m the number of edges, and two arc pairs per edge.
Every cut crosses exactly one terminal arc of each vertex, so lowering
both by the same amount lowers every cut by the same constant: the
minimum cuts stay the same.  The lowered network skips the n flow paths
s -> v -> t that Goldberg's saturates first, and one pass saturates the
paths s -> u -> v -> t before Dinic's phases begin.  Both cuts are the same
for every maximum flow, so neither start changes an answer.

Flows run only where cheap bounds leave a gap.  Let d be the degeneracy, the
largest core number (``graph.core_numbers``).  A set of s > d vertices has at
most ds - d(d+1)/2 edges, and one of s <= d vertices has density below d/2,
so mad < 2d; mad is at most the maximum degree; and every suffix of the
min-degree peel order, every k-core among them, bounds mad from below, the
d-core by d (Charikar's greedy peel, APPROX 2000).

- ``mad_floor``, the evaluator of the ``mad`` parameter, returns floor(mad)
  by bisecting between those bounds.  A step asks whether some S has
  2|E(S)| >= t|S|.  A densest set has minimum degree at least its density,
  so such an S lies in the ceil(t/2)-core C, and it has between
  d(d+1)/(2d - t) and 2|E(C)|/t vertices; when no size fits, the answer is
  no.  Otherwise one flow on C at the guess t/2 - 1/(2k+1), k = |C|,
  answers: densities of subsets of C have denominators at most k, so none
  lies strictly between the guess and t/2.  Forests, cycles and cliques,
  and path powers and k-trees on more than k(k+1) vertices, run no flow.
  A class test (floor(mad) <= p, see ``params``) asks only about t = p + 1:
  the degree of a hinted ``new`` vertex, the bounds or that one step
  answers it.
- ``max_density`` returns the largest densest subgraph, which the graph
  alone defines.  It starts from the densest suffix of the peel order.
  When that suffix's density is d - d(d+1)/(2|mask|), which only the whole
  mask reaches (trees, k-trees, path powers, cliques), no flow runs.
  Otherwise it runs flows on the ceil(guess)-core, since every densest set
  has minimum degree at least its density: one flow per improving guess,
  and one at the optimum whose maximal cut is the answer.

Every entry point takes a host vertex mask and answers for the subgraph it
induces; the network's nodes are the mask's vertices in increasing order,
and witnesses are host masks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from fpcolor.graph import bits, core_numbers, mask_of


class _Dinic:
    """Dinic's max-flow over flat arc lists.

    Arc e runs to ``head[e]`` with residual capacity ``cap[e]``; arcs are
    added in pairs, so the reverse of arc e is arc e ^ 1.  ``arcs[u]`` lists
    the ids of the arcs that leave u.  After ``max_flow``, ``level`` holds the
    last BFS, which found no path: the vertices it reached (level >= 0) are
    the source side of the minimal minimum cut.
    """

    def __init__(self, n):
        self.n = n
        self.head = []
        self.cap = []
        self.arcs = [[] for _ in range(n)]

    def add_edge(self, u, v, cap, back=0):
        """An arc u -> v of capacity ``cap`` and its reverse of capacity ``back``."""
        e = len(self.head)
        self.head += (v, u)
        self.cap += (cap, back)
        self.arcs[u].append(e)
        self.arcs[v].append(e + 1)

    def _bfs(self, s, t):
        head, cap, arcs = self.head, self.cap, self.arcs
        level = [-1] * self.n
        level[s] = 0
        q = [s]
        for u in q:
            next_level = level[u] + 1
            for e in arcs[u]:
                v = head[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = next_level
                    q.append(v)
        self.level = level
        return level[t] >= 0

    def _augment(self, s, t):
        """Push flow along the first s-t path of the level graph; 0 if none.

        Iterative, so a long path cannot exhaust the call stack.  A vertex's
        current arc only moves past arcs that lead to a dead end.
        """
        head, cap, arcs, level, it = self.head, self.cap, self.arcs, self.level, self.it
        stack, path = [s], []  # vertices from s, and the arcs between them
        while stack[-1] != t:
            u = stack[-1]
            out, next_level = arcs[u], level[u] + 1
            while it[u] < len(out):
                e = out[it[u]]
                if cap[e] > 0 and level[head[e]] == next_level:
                    stack.append(head[e])
                    path.append(e)
                    break
                it[u] += 1
            else:  # dead end: retreat, and skip the arc that led here
                stack.pop()
                if not path:
                    return 0
                path.pop()
                it[stack[-1]] += 1
        pushed = min(cap[e] for e in path)
        for e in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
        return pushed

    def reaching(self, t):
        """Per node, whether the residual network has a path from it to t: the
        nodes without one are the source side of the maximal minimum cut."""
        head, cap, arcs = self.head, self.cap, self.arcs
        seen = [False] * self.n
        seen[t] = True
        q = [t]
        for u in q:
            for e in arcs[u]:
                v = head[e]
                if cap[e ^ 1] > 0 and not seen[v]:  # e ^ 1 is the arc v -> u
                    seen[v] = True
                    q.append(v)
        return seen

    def max_flow(self, s, t):
        flow = 0
        while self._bfs(s, t):
            self.it = [0] * self.n
            while pushed := self._augment(s, t):
                flow += pushed
        return flow


def _max_flow(g, mask, guess):
    """(the source side of the minimal minimum cut as a host mask, the mask's
    vertices in the order of their nodes, the network) of ``guess`` on
    g[mask] after a maximum flow.

    Before Dinic's phases, one pass saturates the paths source -> i -> j ->
    sink through each edge from a vertex with a source arc to one with a
    sink arc.  Every maximum flow has the same minimal and maximal minimum
    cuts, so the cuts read after it do not depend on that start.
    """
    verts = list(bits(mask))
    n = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    a, b = guess.numerator, guess.denominator
    net = _Dinic(n + 2)
    source, sink = n, n + 1
    fed, drain = [], [None] * (n + 2)  # source arcs as (node, arc); sink arc by node
    for i, v in enumerate(verts):
        near = g.adj[v] & mask
        excess = b * near.bit_count() - 2 * a
        if excess > 0:
            fed.append((i, len(net.head)))
            net.add_edge(source, i, excess)
        elif excess < 0:
            drain[i] = len(net.head)
            net.add_edge(i, sink, -excess)
        for w in bits(near & -(2 << v)):  # each edge once, from its lower end
            net.add_edge(i, index[w], b, b)
    head, cap, arcs = net.head, net.cap, net.arcs
    for i, into in fed:
        left = cap[into]
        for e in arcs[i]:
            out = drain[head[e]]
            if out is not None and cap[out]:
                pushed = min(left, cap[e], cap[out])
                cap[e] -= pushed
                cap[e ^ 1] += pushed
                cap[out] -= pushed
                cap[out ^ 1] += pushed
                left -= pushed
                if not left:
                    break
        cap[into ^ 1] += cap[into] - left
        cap[into] = left
    net.max_flow(source, sink)
    # the last BFS of max_flow, which found no path, leveled the residual source
    # side; it is empty, and the mask 0, when the flow saturates every source arc
    return mask_of(v for v, level in zip(verts, net.level) if level >= 0), verts, net


def _denser_than(g, mask, guess):
    """A vertex mask inside ``mask`` with density strictly above ``guess``, or 0."""
    return _max_flow(g, mask, guess)[0]


def _density(g, mask):
    size = mask.bit_count()
    inner = sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2
    return Fraction(inner, size)


def _densest_suffix(g, core):
    """(2|E(S)|, |S|) of a densest suffix S of the peel order ``core`` (from
    ``core_numbers``); (0, 1) when no suffix has an edge."""
    best, top = 0, 1
    twice_m = inside = 0
    for count, v in enumerate(reversed(core), 1):
        twice_m += 2 * (g.adj[v] & inside).bit_count()
        inside |= 1 << v
        if twice_m * top > best * count:
            best, top = twice_m, count
    return best, top


def max_density(g, mask=None):
    """(density, host vertex mask) of the largest densest subgraph of g[mask],
    by default of g: the union of its densest nonempty subgraphs, itself one
    of them, and the whole mask when it has no edge; (0, 0) when the mask is
    empty."""
    if mask is None:
        mask = g.full_mask()
    core = core_numbers(g, mask)
    twice_m, size = _densest_suffix(g, core)
    if not twice_m:
        return Fraction(0), mask
    best = Fraction(twice_m, 2 * size)
    d = max(core.values())
    if best == d - Fraction(d * (d + 1), 2 * mask.bit_count()):
        return best, mask  # met only by the whole mask
    while True:
        # every densest set has minimum degree at least its density
        least = math.ceil(best)
        dense = mask_of(v for v, k in core.items() if k >= least)
        denser, verts, net = _max_flow(g, dense, best)
        if not denser:  # best is optimal: the maximal minimum cut holds every densest set
            drained = net.reaching(len(verts) + 1)
            return best, mask_of(v for v, out in zip(verts, drained) if not out)
        best = _density(g, denser)


def exact_mad(g, mask=None):
    """Maximum average degree over all subgraphs of g[mask], by default of g,
    as an exact Fraction."""
    dens, _ = max_density(g, mask)
    return 2 * dens


def mad_floor(g, mask, cap=None, new=None):
    """floor of the maximum average degree of g[mask], as an int; 0 when
    g[mask] has no edge.  With ``cap`` (see ``params``) the bounds answer
    alone when they can, and otherwise one step at t = cap does.

    With ``new`` as well, no S inside mask - new has 2|E(S)| >= cap |S|, so
    such an S holds ``new`` with 2 deg_S(new) >= cap + 1; when ``new`` has
    too few neighbours in the mask for that, the answer is cap - 1 at once."""
    if new is not None and cap is not None and 2 * (g.adj[new] & mask).bit_count() <= cap:
        return cap - 1
    core = core_numbers(g, mask)
    d = max(core.values(), default=0)
    if not d:
        return 0
    twice_m, size = _densest_suffix(g, core)
    lo = twice_m // size  # the densest suffix of the peel order, every k-core among them
    hi = min(2 * d - 1, max((g.adj[v] & mask).bit_count() for v in core))

    def reaches(t):  # is there an S with 2|E(S)| >= t|S|?
        dense = mask_of(v for v, k in core.items() if 2 * k >= t)
        size = dense.bit_count()
        twice_mc = sum((g.adj[v] & dense).bit_count() for v in bits(dense))
        # such an S has s vertices, d(d+1)/(2d-t) <= s <= 2|E(dense)|/t
        return (twice_mc // t) * (2 * d - t) >= d * (d + 1) and _denser_than(
            g, dense, Fraction(t, 2) - Fraction(1, 2 * size + 1))

    if cap is not None:
        return cap if lo < cap <= hi and reaches(cap) else lo
    while lo < hi:
        t = (lo + hi + 1) // 2
        if reaches(t):
            lo = t
        else:
            hi = t - 1
    return lo
