"""Pluggable graph parameters with declared structural flags.

A parameter maps graphs to N (none of the built-ins produce infinity on a
finite graph); the flags declare heredity, connectedness, monotonicity and
whether the parameter bounds the average degree.  Flags are declared, not
inferred; the test suite falsifies wrong declarations at small scale.

Conventions on degenerate inputs: every built-in evaluates to 0 on the
null graph; fan of a single vertex is 1 and fan of any graph with an edge
is at least 2 (an edge is a two-vertex fan).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from fpcolor import density
from fpcolor.errors import CapExceeded
from fpcolor.graph import ClassOracle, Graph, bits, components, find_coloring

CHROMATIC_CAP = 24
FAN_NEIGHBORHOOD_CAP = 20


@dataclass(frozen=True)
class Parameter:
    id: str
    hereditary: bool
    connected: bool
    monotone: bool
    bounds_avg_degree: bool
    evaluator: Callable = field(repr=False)

    def eval(self, g: Graph) -> int:
        return self.evaluator(g, g.full_mask())

    def eval_mask(self, g: Graph, mask: int) -> int:
        """Value on the subgraph of g induced by the bitmask ``mask``."""
        return self.evaluator(g, mask)

    def traits(self):
        return {
            "hereditary": self.hereditary,
            "connected": self.connected,
            "monotone": self.monotone,
            "bounds_avg_degree": self.bounds_avg_degree,
        }


def _max_degree(g, mask):
    return max(((g.adj[v] & mask).bit_count() for v in bits(mask)), default=0)


def _star(g, mask):
    if not mask:
        return 0
    return max(c.bit_count() for c in components(g, mask))


def _longest_path(g, mask):
    """Number of vertices of a longest simple path inside g[mask]."""
    if not mask:
        return 0
    h = mask.bit_count()
    if h > FAN_NEIGHBORHOOD_CAP:
        raise CapExceeded(
            f"fan: neighborhood of {h} vertices exceeds cap {FAN_NEIGHBORHOOD_CAP}")
    best = 1
    frontier = [(1 << v, v) for v in bits(mask)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for pmask, last in frontier:
            ext = g.adj[last] & mask & ~pmask
            for w in bits(ext):
                state = (pmask | 1 << w, w)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        if nxt:
            best += 1
        frontier = nxt
    return best


def _fan(g, mask):
    if not mask:
        return 0
    best = 1
    for v in bits(mask):
        nb = g.adj[v] & mask
        best = max(best, 1 + _longest_path(g, nb))
    return best


def _chromatic(g, mask):
    verts = list(bits(mask))
    k = len(verts)
    if k == 0:
        return 0
    if k > CHROMATIC_CAP:
        raise CapExceeded(f"chromatic: n={k} exceeds cap {CHROMATIC_CAP}")
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

    # a class is an independent set: max degree 0 inside it
    independent = ClassOracle(g, _max_degree, 0)
    for s in range(clique, upper):
        if find_coloring(verts, s, independent) is not None:
            return s
    return upper


PARAMETERS = {
    "max-degree": Parameter("max-degree", True, True, True, True, _max_degree),
    "star": Parameter("star", True, True, True, True, _star),
    "mad": Parameter("mad", True, True, True, True, density.mad_floor),
    "fan": Parameter("fan", True, True, True, False, _fan),
    "chromatic": Parameter("chromatic", True, True, True, False, _chromatic),
}


def get_parameter(token):
    try:
        return PARAMETERS[token]
    except KeyError:
        raise ValueError(
            f"unknown parameter {token!r}; choose from {sorted(PARAMETERS)}"
        ) from None

