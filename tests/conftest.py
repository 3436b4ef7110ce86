"""Shared brute-force oracles for the solver and acceptance tests.

Everything here works straight from the definitions, with no pruning and
no reliance on solver internals, so disagreements indict the solvers.
"""

import importlib.util
import sys
import types
from itertools import combinations
from pathlib import Path

from fpcolor.graph import ClassOracle, bits, mask_of

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def brute_col(g, f, p):
    """Island coloring number by enumerating every induced subgraph H and
    every nonempty island candidate inside it (including H itself)."""
    n = g.n
    if n == 0:
        return 1
    s = 1
    while True:
        ok_all = True
        for H in range(1, 1 << n):
            found = False
            I = H
            while I:
                island = all(
                    (g.adj[v] & H & ~I).bit_count() < s for v in bits(I)
                )
                if island and f.eval_mask(g, I) <= p:
                    found = True
                    break
                I = (I - 1) & H
            if not found:
                ok_all = False
                break
        if ok_all:
            return s
        s += 1


def brute_chi(g, f, p):
    """Least color count admitting a coloring whose classes all have f <= p."""
    from itertools import product

    from fpcolor.check import verify_fp_proper

    if g.n == 0:
        return 0
    for s in range(1, g.n + 1):
        for assign in product(range(s), repeat=g.n):
            if verify_fp_proper(g, assign, f, p):
                return s
    raise AssertionError("unreachable")


def has_island_brute(g, s, f, p):
    """Whether any nonempty subset is an s-island with f <= p."""
    for I in range(1, 1 << g.n):
        if all((g.adj[v] & ~I).bit_count() < s for v in bits(I)):
            if f.eval_mask(g, I) <= p:
                return True
    return False


def islands_brute(g, s, active):
    """Every s-island of g[active]: each nonempty X inside ``active`` whose
    vertices have fewer than s neighbours in ``active`` outside X."""
    out = []
    X = active
    while X:
        if all((g.adj[v] & active & ~X).bit_count() < s for v in bits(X)):
            out.append(X)
        X = (X - 1) & active
    return out


def find_island_unpruned(g, s, f, p, active=None, cutoff=None):
    """``solvers.find_island`` before its search cut branches on banned
    vertices: the reference for the first island in depth-first order.  Each
    search node tests its island vertices against the banned set, and every
    vertex added is class-tested first."""
    from fpcolor.check import excluded_core, is_island

    if active is None:
        active = g.full_mask()
    if not active:
        return None
    lower = excluded_core(g, s, f, p, active, cutoff)
    rejected = 0
    for v in bits(active & ~lower):
        if (g.adj[v] & active).bit_count() < s:
            if f.allows(g, 1 << v, p):
                return 1 << v
            rejected |= 1 << v

    def search(island, ext, banned):
        if is_island(g, island, active, s):
            return island
        # a vertex already saturated by permanently-excluded neighbors
        # can never satisfy the island condition in any extension
        for v in bits(island):
            if (g.adj[v] & active & banned).bit_count() >= s:
                return 0
        while ext:
            u = ext & -ext
            ext ^= u
            grown = island | u
            w = u.bit_length() - 1
            if f.allows(g, grown, p, new=w if island & (island - 1) else None):
                new_ext = (ext | (g.adj[w] & active)) & ~grown & ~banned
                found = search(grown, new_ext, banned)
                if found:
                    return found
            banned |= u
        return 0

    for anchor in bits(active & ~lower):
        abit = 1 << anchor
        if not abit & rejected:
            found = search(abit, g.adj[anchor] & active & ~lower, lower)
            if found:
                return found
        lower |= abit
    return None


def peel_dfs(g, s, f, p, cutoff=None, allowed=None):
    """``solvers.peel`` before its small-island pass: every step removes the
    island ``find_island`` finds.  The reference for the remainder of a
    stuck peel.  ``allowed``, the class oracle ``col_fp`` shares, goes
    unused: each ``find_island`` call builds its own."""
    from fpcolor.check import star_cutoff
    from fpcolor.solvers import find_island

    if cutoff is None:
        cutoff = star_cutoff(g, f, p)
    active = g.full_mask()
    islands = []
    while active:
        island = find_island(g, s, f, p, active, cutoff)
        if island is None:
            return None, active
        islands.append(island)
        active &= ~island
    return islands, 0


def brute_find_coloring(order, palette, allowed):
    """The plain colouring backtracker: the reference for the first colouring
    in vertex order, lowest colour first, that ``graph.find_coloring`` must
    find.  Only a partial class that is not allowed ends a branch, and every
    class test is ``allowed[mask]``, with no ``new`` hint.  ``palette`` is an int s, or
    per-vertex colour lists as bitmasks, each tried in ascending order, the
    reference for ``check.exists_L_coloring``."""
    k = len(order)
    free = isinstance(palette, int)
    choices = None if free else [list(bits(palette[v])) for v in order]
    colors = [0] * k
    classes = {}

    def rec(i, used):
        if i == k:
            return True
        bit = 1 << order[i]
        for c in range(min(used + 1, palette)) if free else choices[i]:
            saved = classes.get(c, 0)
            grown = saved | bit
            if not allowed[grown]:
                continue
            classes[c] = grown
            colors[i] = c
            if rec(i + 1, max(used, c + 1)):
                return True
            classes[c] = saved
        return False

    return tuple(colors) if rec(0, 0) else None


def brute_choosable(g, s, f, p):
    """(True, None), or (False, lists) for the first s-list assignment with no
    (f,p)-proper colouring from its lists, as colour bitmasks.

    Enumerates every list system over a universe of s*n colours, quotiented
    by colour permutations only: along vertex order, colours are introduced
    in order of first use and the fresh colours of one list are consecutive.
    Each system is checked with the unpruned colouring backtracker, which the
    solver tests hold to product enumeration.
    """
    allowed = ClassOracle(g, lambda g, mask, p, new=None: f.eval_mask(g, mask) <= p, p)
    lists = [None] * g.n

    def rec(i, used):
        if i == g.n:
            return brute_find_coloring(range(g.n), lists, allowed) is None
        for fresh in range(s + 1):
            fresh_block = ((1 << fresh) - 1) << used
            for old in combinations(range(used), s - fresh):
                lists[i] = mask_of(old) | fresh_block
                if rec(i + 1, used + fresh):
                    return True
        return False

    if rec(0, 0):
        return False, tuple(lists)
    return True, None


def greedy_per_call(g, lists, islands):
    """Greedy island colouring as one call per list system: islands
    latest-peeled first, each vertex taking its lowest list colour unused on
    the neighbours coloured before it outside its own island, worked out
    afresh for every vertex.  ``lists`` holds colour bitmasks."""
    colors = [-1] * g.n
    colored = 0
    for island in reversed(islands):
        for v in bits(island):
            forbidden = {colors[w] for w in bits(g.adj[v] & colored & ~island)}
            for c in bits(lists[v]):
                if c not in forbidden:
                    colors[v] = c
                    break
            else:
                raise ValueError(f"no available list color at vertex {v}")
        colored |= island
    return tuple(colors)


def goldberg_denser_than(g, mask, guess):
    """``density._denser_than`` on Goldberg's network (1984) in full, solved by
    shortest augmenting paths.  For the guess a/b, scaled by b, every vertex
    v of g[mask] has a source arc of b*m and a sink arc of b*m + 2a - b deg v,
    and every edge is two arc pairs, an arc of capacity b each way, each with
    a reverse arc of capacity 0.  A flow below b*m*n means a cut below it,
    and the vertices the residual network reaches from the source are then
    the answer; otherwise 0."""
    verts = list(bits(mask))
    n = len(verts)
    degs = [(g.adj[v] & mask).bit_count() for v in verts]
    m = sum(degs) // 2
    a, b = guess.numerator, guess.denominator
    source, sink = n, n + 1
    head, cap, out = [], [], [[] for _ in range(n + 2)]

    def arc(u, v, capacity):  # arc e and its reverse e ^ 1
        for tail, tip, c in ((u, v, capacity), (v, u, 0)):
            out[tail].append(len(head))
            head.append(tip)
            cap.append(c)

    for i, v in enumerate(verts):
        arc(source, i, b * m)
        arc(i, sink, b * m + 2 * a - b * degs[i])
        for j, w in enumerate(verts):
            if w > v and g.adj[v] >> w & 1:
                arc(i, j, b)
                arc(j, i, b)
    flow = 0
    while True:
        into = {source: None}  # the arc each reached vertex was reached by
        queue = [source]
        for u in queue:
            for e in out[u]:
                if cap[e] > 0 and head[e] not in into:
                    into[head[e]] = e
                    queue.append(head[e])
        if sink not in into:
            break
        path, u = [], sink
        while u != source:
            path.append(into[u])
            u = head[into[u] ^ 1]
        pushed = min(cap[e] for e in path)
        for e in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
        flow += pushed
    if flow >= b * m * n:
        return 0
    return mask_of(v for i, v in enumerate(verts) if i in into)


def nested_code(fn, name):
    """The code object of the function named ``name`` defined inside ``fn``."""
    return next(c for c in fn.__code__.co_consts
                if isinstance(c, types.CodeType) and c.co_name == name)


def count_calls(fn, inner, *args, caller=None, **kwargs):
    """``(fn(*args, **kwargs), calls)``: the calls made to the function named
    ``inner`` that is defined inside ``fn``, or to the code object ``inner``
    (from ``nested_code`` or a function's ``__code__``) wherever ``fn``
    reaches it, and only those made directly from the code object
    ``caller`` if given, counted by a profile hook, so the code under test
    carries no counter."""
    code = nested_code(fn, inner) if isinstance(inner, str) else inner
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if (event == "call" and frame.f_code is code
                and (caller is None or frame.f_back.f_code is caller)):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return result, calls


def load_perfbench(name):
    """Load ``perfbench/<name>.py`` by path; the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
