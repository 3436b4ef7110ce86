"""Immutable simple undirected graphs with bitset adjacency.

Vertices are dense 0-based integers.  A vertex set is a plain int used as a
bitmask over 0..n-1, which keeps subgraph and island machinery cheap.  The
layers above keep to that rule: parameters, densest subgraphs, islands and
peels take and return masks of the host graph, and only the report layer
turns them into certificates.  ``induced_subgraph`` builds a relabelled copy
for callers that want a standalone graph; nothing in the package needs one.

The one colouring backtracker (``find_coloring``) lives here too, below the
parameter layer, so that ``chi`` and the chromatic parameter both search
through it, with s interchangeable colours.  It tests colour classes
through a ``ClassOracle``, a per-solve memo of "may this vertex set form a
class" that hands each new test the vertex just added as ``new``, the hint
``Parameter.allows`` takes.  Since parameters are hereditary, a branch
ends as soon as a partial class is refused.
"""

from __future__ import annotations

import binascii
import hashlib
import re
from collections import deque
from fractions import Fraction

SOFT_VERTEX_CAP = 4096

#: Sentinel for "no cycle" / unbounded values (girth of a forest).
INF = float("inf")


class GraphError(ValueError):
    """Malformed graph input (parse error, self-loop, bad graph6)."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the neighbor bitmask of ``v``.  Instances are immutable
    after construction and safe for concurrent reads.
    """

    __slots__ = ("n", "adj", "name")

    def __init__(self, n, edges=(), name=""):
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > SOFT_VERTEX_CAP:
            raise GraphError(f"graph too large: n={n} exceeds cap {SOFT_VERTEX_CAP}")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self.name = name

    # -- elementary accessors ------------------------------------------------

    def degree(self, v):
        return self.adj[v].bit_count()

    def edge_count(self):
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self):
        """Edges as sorted (u, v) pairs with u < v, in O(n + m)."""
        out = []
        for u, row in enumerate(self.adj):
            rest = row >> (u + 1) << (u + 1)
            while rest:  # bits() inlined: every report hashes its graph's edges
                low = rest & -rest
                out.append((u, low.bit_length() - 1))
                rest ^= low
        return out

    def full_mask(self):
        return (1 << self.n) - 1

    def max_degree(self):
        return max((a.bit_count() for a in self.adj), default=0)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"<Graph{label} n={self.n} m={self.edge_count()}>"

    def content_hash(self):
        """sha256 over the canonical edge list; used for report provenance."""
        payload = f"{self.n}|" + ";".join(f"{u},{v}" for u, v in self.edges())
        return hashlib.sha256(payload.encode()).hexdigest()


# -- vertex-set (bitmask) helpers ------------------------------------------


def bits(mask):
    """Iterate set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# -- construction / ingestion -----------------------------------------------


def from_edge_list(text, name=""):
    """Parse edge-list text: one "u v" per line, '#' starts a comment.

    Vertex ids may be sparse; they are remapped to 0..n-1 preserving
    numeric order.  n is 1 + max original id when ids are already dense.
    """
    edges = []
    seen_ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            # int() alone would also take "1_0", "+1" and non-ASCII digits
            if not all(re.fullmatch("-?[0-9]+", part) for part in parts):
                raise ValueError
            u, v = int(parts[0]), int(parts[1])  # ValueError past int()'s digit limit
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
        seen_ids.add(u)
        seen_ids.add(v)
    if not edges:
        return Graph(0, name=name)
    top = max(seen_ids)
    if len(seen_ids) == top + 1 and min(seen_ids) == 0:
        n = top + 1
        remapped = edges
    else:
        order = {vid: i for i, vid in enumerate(sorted(seen_ids))}
        n = len(order)
        remapped = [(order[u], order[v]) for u, v in edges]
    return Graph(n, remapped, name=name)


def to_edge_list(g):
    return "\n".join(f"{u} {v}" for u, v in g.edges())


# -- graph6 -------------------------------------------------------------------


def _g6_number(n):
    if n < 0:
        raise GraphError("graph6: negative order")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise GraphError("graph6: order too large")


#: graph6 payload bytes are 6-bit groups written as chr(63 + x); base64 writes
#: the same groups in its own alphabet, so ``binascii`` packs whole rows at once
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_TO_G6 = bytes.maketrans(_B64, _G6)
_FROM_G6 = bytes.maketrans(_G6, _B64)


def to_graph6(g):
    """graph6 text of ``g``: the upper triangle column by column (bit i of
    column j says whether i < j are adjacent), in 6-bit groups, high bit
    first, zero-padded.  Each column is one ``format`` of a masked adjacency
    row, and the groups are encoded together by base64, so the work outside
    C is O(n)."""
    n = g.n
    stream = "".join(format(g.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    groups = (len(stream) + 5) // 6
    width = -len(stream) % 24 + len(stream)  # whole base64 quanta of 3 bytes
    word = int(stream, 2) << (width - len(stream)) if stream else 0
    payload = binascii.b2a_base64(word.to_bytes(width // 8, "big"), newline=False)
    return (_g6_number(n) + payload[:groups].translate(_TO_G6)).decode("ascii")


def from_graph6(text, name=""):
    """Graph of graph6 ``text`` (str or bytes, optionally with the
    ``>>graph6<<`` header); anything malformed raises GraphError."""
    if isinstance(text, (bytes, bytearray)):
        if not text.isascii():
            raise GraphError("graph6: invalid character")
        text = text.decode("ascii")
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise GraphError("graph6: empty input")
    if not s.isascii():
        raise GraphError("graph6: invalid character")
    raw = s.encode("ascii")
    if raw.translate(None, _G6):
        raise GraphError("graph6: invalid character")
    if raw[0] == 126:
        if len(raw) < 4:
            raise GraphError("graph6: truncated order")
        if raw[1] == 126:
            raise GraphError("graph6: order too large")
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body = raw[4:]
    else:
        n = raw[0] - 63
        body = raw[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise GraphError(f"graph6: expected {need} payload bytes, got {len(body)}")
    fill = -need % 4  # base64 decodes whole quanta of 4 groups
    word = int.from_bytes(binascii.a2b_base64(body.translate(_FROM_G6) + b"A" * fill), "big")
    stream = format(word >> 6 * fill, f"0{6 * need}b") if need else ""
    if "1" in stream[nbits:]:
        raise GraphError("graph6: nonzero padding bits")
    edges = []
    k = stream.find("1")
    j = end = 1  # column j is stream[end - j : end]
    while k >= 0:
        while k >= end:
            j += 1
            end += j
        edges.append((k - end + j, j))
        k = stream.find("1", k + 1)
    return Graph(n, edges, name=name)


# -- subgraphs, components, invariants ----------------------------------------


def induced_subgraph(g, mask, name=""):
    """Induced subgraph on the vertices of ``mask`` (relabeled 0..k-1)."""
    if mask & ~g.full_mask():
        raise GraphError("vertex set out of range")
    verts = tuple(bits(mask))
    pos = {v: i for i, v in enumerate(verts)}
    edges = []
    for i, v in enumerate(verts):
        inner = g.adj[v] & mask
        for w in bits(inner):
            if w > v:
                edges.append((i, pos[w]))
    return Graph(len(verts), edges, name=name)


def components(g, within=None):
    """Connected components as bitmasks, ordered by smallest vertex.

    ``within`` restricts to an induced vertex subset (bitmask).
    """
    todo = g.full_mask() if within is None else within
    out = []
    while todo:
        comp = reach(g, todo & -todo, todo)
        out.append(comp)
        todo &= ~comp
    return out


def core_numbers(g, mask):
    """Core number of each vertex of g[mask], as a dict in the order a
    min-degree peel removes the vertices.  A vertex's core number is the
    largest k such that it lies in a subgraph of minimum degree k (the
    k-core is a suffix of the order); the degeneracy is the largest.

    A bucket peel in O(n + m): repeatedly remove a vertex of least degree
    among those left; a vertex's core number is the largest degree seen at
    removal so far.  Buckets keep stale entries, skipped when popped.
    """
    adj = g.adj
    deg = {v: (adj[v] & mask).bit_count() for v in bits(mask)}
    buckets = [[] for _ in range(max(deg.values(), default=0) + 1)]
    for v, d in deg.items():
        buckets[d].append(v)
    core, alive, k, cursor = {}, mask, 0, 0
    while alive:
        while not buckets[cursor]:
            cursor += 1
        v = buckets[cursor].pop()
        if v in core or deg[v] != cursor:
            continue
        if cursor > k:
            k = cursor
        core[v] = k
        alive ^= 1 << v
        rest = adj[v] & alive
        while rest:  # bits() inlined: the mad evaluator peels every mask it sees
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            deg[w] -= 1
            buckets[deg[w]].append(w)
        if cursor:
            cursor -= 1
    return core


def reach(g, start, within):
    """The vertices of g[within] joined by a path to a vertex of ``start``
    (a mask inside ``within``)."""
    found = frontier = start
    while frontier:
        grow = 0
        for v in bits(frontier):
            grow |= g.adj[v]
        frontier = grow & within & ~found
        found |= frontier
    return found


def component_sizes(g, within=None):
    return [c.bit_count() for c in components(g, within)]


def girth(g):
    """Length of a shortest cycle, or INF for forests.

    BFS from every vertex; a non-tree edge met at depths d1, d2 closes a
    cycle of length d1 + d2 + 1, and the minimum over all roots is exact.
    """
    best = INF
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        q = deque([root])
        while q:
            x = q.popleft()
            if dist[x] * 2 >= best:
                break
            for y in bits(g.adj[x]):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    q.append(y)
                elif parent[x] != y and parent[y] != x:
                    cyc = dist[x] + dist[y] + 1
                    if cyc < best:
                        best = cyc
    return best


def average_degree(g):
    """Exact rational 2|E|/|V|; rejects the null graph."""
    if g.n == 0:
        raise GraphError("average degree of the null graph is undefined")
    return Fraction(2 * g.edge_count(), g.n)


# -- colour classes -------------------------------------------------------------


def class_masks(coloring):
    """Colour -> vertex mask of its class, colours in order of first use."""
    masks = {}
    for v, c in enumerate(coloring):
        masks[c] = masks.get(c, 0) | 1 << v
    return masks


class ClassOracle(dict):
    """``oracle[mask]`` is ``allows(g, mask, p)``: may the vertex set
    ``mask`` form one colour class.  Each mask is tested once; an oracle
    belongs to one solve and is dropped with it.

    ``allows`` has the signature of ``Parameter.allows``, ``allows(g, mask,
    p, new=None)``.  ``miss(mask, new)`` tests a mask not yet seen with the
    hint ``new``: a vertex of ``mask`` whose removal leaves a set the caller
    knows to be allowed, so that a capped evaluator checks only what ``new``
    adds.  The verdict is the same with the hint or without it.
    """

    def __init__(self, g, allows, p):
        super().__init__()
        self.g, self.allows, self.p = g, allows, p

    def __missing__(self, mask):
        ok = self[mask] = self.allows(self.g, mask, self.p)
        return ok

    def miss(self, mask, new):
        ok = self[mask] = self.allows(self.g, mask, self.p, new)
        return ok


def find_coloring(order, s, allowed):
    """First colouring of the vertices in ``order`` with s interchangeable
    colours 0..s-1 whose classes are all ``allowed`` (a ``ClassOracle``), as
    a tuple of colours aligned with ``order``, or None.  Vertices are
    coloured in ``order``, colours lowest first, and a vertex opens at most
    one new colour; with s at least the number of vertices, the first leaf
    is first fit.

    Parameters are hereditary: a class that is not allowed never recovers
    as it grows, so a partial class that is not allowed ends the branch at
    once.  That is the only cut; it skips only subtrees that hold no
    colouring.  A class is only ever grown from a set already known to be
    allowed, so each miss hands the oracle the added vertex as ``new``.
    """
    k = len(order)
    colors = [0] * k
    classes = {}
    get, miss = allowed.get, allowed.miss

    def rec(i, used):
        if i == k:
            return True
        u = order[i]
        for c in range(min(used + 1, s)):
            saved = classes.get(c, 0)
            grown = saved | 1 << u
            ok = get(grown)
            if ok is None:
                ok = miss(grown, u if saved else None)
            if not ok:
                continue
            classes[c] = grown
            colors[i] = c
            if rec(i + 1, max(used, c + 1)):
                return True
            classes[c] = saved
        return False

    return tuple(colors) if rec(0, 0) else None
