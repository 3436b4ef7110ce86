"""Pluggable graph parameters, each hereditary, connected and monotone.

A parameter maps graphs to N (none of the built-ins produce infinity on a
finite graph).  The solvers take three properties of every f on trust:
hereditary (f(H) <= f(G) for each induced subgraph H: a set that is no
colour class never becomes one as it grows), connected (f(G) is the largest
f of a component) and monotone (f(H) <= f(G) for each subgraph H, so a star
inside a set bounds f of the set).  The test suite falsifies each at small
scale for every built-in.  ``bounds_avg_degree`` is the one flag that varies.
When set, every graph X with f(X) <= p has average degree below p + 1, so
2|E(X)| < (p + 1)|X|, and ``solvers.find_island`` cuts its search with it;
when clear, ``check.excluded_core`` tests each vertex's neighbourhood.

Conventions on degenerate inputs: every built-in evaluates to 0 on the
null graph; fan of a single vertex is 1 and fan of any graph with an edge
is at least 2 (an edge is a two-vertex fan).

A colour class is admissible when f <= p, so every class test is a
threshold question, and ``Parameter.allows`` is the one class test.  An
evaluator flagged ``capped`` is called as ``evaluator(g, mask, cap, new)``:

- with ``cap`` it may stop once it knows f >= cap; it then returns some
  value >= cap, and otherwise some value < cap;
- with ``new``, a vertex of ``mask``, the caller vouches that f of ``mask``
  without ``new`` is below ``cap``, so only what ``new`` adds is checked.

Called as ``evaluator(g, mask)`` it returns f exactly, which is what
``eval`` and ``eval_mask`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from fpcolor import density
from fpcolor.errors import CapExceeded
from fpcolor.graph import ClassOracle, Graph, bits, components, find_coloring, reach

CHROMATIC_CAP = 24
FAN_NEIGHBORHOOD_CAP = 20


@dataclass(frozen=True)
class Parameter:
    id: str
    bounds_avg_degree: bool
    evaluator: Callable = field(repr=False)
    capped: bool = False  # the evaluator takes ``cap`` and ``new``

    def eval(self, g: Graph) -> int:
        return self.evaluator(g, g.full_mask())

    def eval_mask(self, g: Graph, mask: int) -> int:
        """Value on the subgraph of g induced by the bitmask ``mask``."""
        return self.evaluator(g, mask)

    def allows(self, g: Graph, mask: int, p: int, new=None) -> bool:
        """Whether ``mask`` may form one colour class: f(g[mask]) <= p.  With
        ``new``, a vertex of ``mask``, the caller vouches that ``mask``
        without ``new`` may (a hint only capped evaluators use)."""
        if self.capped:
            return self.evaluator(g, mask, p + 1, new) <= p
        return self.eval_mask(g, mask) <= p

    def traits(self):
        return {"hereditary": True, "connected": True, "monotone": True,
                "bounds_avg_degree": self.bounds_avg_degree}


def _max_degree(g, mask):
    return max(((g.adj[v] & mask).bit_count() for v in bits(mask)), default=0)


def _star(g, mask):
    if not mask:
        return 0
    return max(c.bit_count() for c in components(g, mask))


def _longest_path(g, mask, limit):
    """min(limit, vertices of a longest simple path inside g[mask]).

    Paths grow one vertex per round, each (vertex set, end) state once; the
    last round only asks whether some path of ``limit - 1`` vertices extends.
    """
    if not mask or limit < 1:
        return 0
    best = 1
    frontier = [(1 << v, v) for v in bits(mask)]
    seen = set(frontier)
    while best < limit - 1:
        nxt = []
        for pmask, last in frontier:
            for w in bits(g.adj[last] & mask & ~pmask):
                state = (pmask | 1 << w, w)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        if not nxt:
            return best
        best += 1
        frontier = nxt
    if best < limit and any(g.adj[last] & mask & ~pmask for pmask, last in frontier):
        return limit
    return best


def _fan(g, mask, cap=None, new=None):
    """1 + the longest path in a neighbourhood, over all centres in ``mask``.

    With ``cap`` only fans of ``cap`` vertices are looked for: a path search
    stops at ``cap - 1`` vertices, O(h^(cap-1)) states in a neighbourhood of
    h vertices, and skips a neighbourhood of fewer.  With ``new`` only fans
    through ``new`` can reach the cap: their centres lie in N[new], and at a
    centre other than ``new`` the path lies in the component of ``new`` in
    the neighbourhood.  Every neighbourhood is held to the cap first, so a
    hint or an early answer never changes which inputs raise.
    """
    if not mask:
        return 0
    if mask.bit_count() > FAN_NEIGHBORHOOD_CAP + 1:  # else no neighbourhood can exceed it
        for v in bits(mask):
            h = (g.adj[v] & mask).bit_count()
            if h > FAN_NEIGHBORHOOD_CAP:
                raise CapExceeded(
                    f"fan: neighborhood of {h} vertices exceeds cap {FAN_NEIGHBORHOOD_CAP}")
    if cap is None:  # search in full: no fan reaches this many vertices
        cap, best = FAN_NEIGHBORHOOD_CAP + 2, 1
    else:  # any answer below cap will do
        best = max(cap - 1, 1)
    for v in bits(mask if new is None else (g.adj[new] | 1 << new) & mask):
        nb = g.adj[v] & mask
        if new is not None and v != new:  # a fan of cap vertices has new on its path
            nb = reach(g, 1 << new, nb)
        if nb.bit_count() >= best:  # else its fans have at most best vertices
            best = max(best, 1 + _longest_path(g, nb, cap - 1))
            if best >= cap:
                break
    return best


def _independent(g, mask, _p, new=None):
    """Whether ``mask`` may be a class of a proper colouring; with ``new``,
    the rest of ``mask`` is known to be independent, so only ``new``'s edges
    are looked at."""
    if new is not None:
        return not g.adj[new] & mask
    return not any(g.adj[v] & mask for v in bits(mask))


def _chromatic(g, mask, cap=None, new=None):
    """Least s with an s-colouring, between a greedy clique and a greedy
    colouring; with ``cap`` no s past ``cap - 1`` is tried, and a greedy
    colouring below ``cap`` is the answer.  Only the exact search is capped."""
    verts = list(bits(mask))
    k = len(verts)
    if k == 0:
        return 0
    # order by degree inside the mask, densest first
    verts.sort(key=lambda v: -(g.adj[v] & mask).bit_count())

    # greedy clique lower bound
    clique, cand = 0, mask
    for v in verts:
        if cand >> v & 1:
            clique += 1
            cand &= g.adj[v]

    # greedy upper bound
    colors = {}
    for v in verts:
        taken = {colors.get(w) for w in bits(g.adj[v] & mask)}
        colors[v] = next(c for c in range(k) if c not in taken)
    upper = max(colors.values()) + 1

    tries = range(clique, upper if cap is None else min(upper, cap))
    if tries and (cap is None or upper >= cap):  # else the bounds answer with no search
        if k > CHROMATIC_CAP:
            raise CapExceeded(f"chromatic: n={k} exceeds cap {CHROMATIC_CAP}")
        independent = ClassOracle(g, _independent, 0)
        for s in tries:
            if find_coloring(verts, s, independent) is not None:
                return s
    return upper


PARAMETERS = {
    "max-degree": Parameter("max-degree", True, _max_degree),
    "star": Parameter("star", True, _star),
    "mad": Parameter("mad", True, density.mad_floor, capped=True),
    "fan": Parameter("fan", False, _fan, capped=True),
    "chromatic": Parameter("chromatic", False, _chromatic, capped=True),
}


def get_parameter(token):
    try:
        return PARAMETERS[token]
    except KeyError:
        raise ValueError(
            f"unknown parameter {token!r}; choose from {sorted(PARAMETERS)}"
        ) from None

