"""Explicit graph families, samplers and the adversarial list pipeline.

All randomness flows through explicit seeds (random.Random), so every
sampler is pure given its seed and identical seeds reproduce identical
objects bit for bit.

A colour list is an int bitmask, bit c standing for colour c: the list
colourings take a sequence of them indexed by vertex, and the adversary
pipeline keeps its lists L0 and L1 as dicts from vertex to mask.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product

from fpcolor import density
from fpcolor.graph import (Graph, average_degree, bits, class_masks, component_sizes, girth,
                           mask_of)

GOOD_VERTICES_EXACT_S_CAP = 3
DOMINATION_EXACT_CAP = 10**6


# -- graph families ------------------------------------------------------------


def path(n):
    return Graph(n, ((i, i + 1) for i in range(n - 1)), name=f"P{n}")


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)), name=f"C{n}")


def complete(n):
    return Graph(n, combinations(range(n), 2), name=f"K{n}")


def complete_bipartite(a, b):
    if a < 0 or b < 0:
        raise ValueError("complete_bipartite needs part sizes >= 0")
    return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)), name=f"K{a},{b}")


def edgeless(n):
    return Graph(n, name=f"E{n}")


def petersen():
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))  # outer cycle
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
        edges.append((i, 5 + i))  # spokes
    return Graph(10, edges, name="Petersen")


def robertson():
    """The (4,5)-cage: 19 vertices, 4-regular, girth 5."""
    jumps = [8, 4, 7, 4, 8, 5, 7, 4, 7, 8, 4, 5, 7, 8, 4, 8, 4, 8, 4]
    edges = set()
    for i in range(19):
        edges.add(frozenset((i, (i + 1) % 19)))
        edges.add(frozenset((i, (i + jumps[i]) % 19)))
    return Graph(19, [tuple(sorted(e)) for e in edges], name="Robertson")


def fan_join(i):
    """Full join of a path on i^2 vertices with an independent set of i vertices."""
    if i < 1:
        raise ValueError("fan_join needs i >= 1")
    m = i * i
    edges = chain(((v, v + 1) for v in range(m - 1)),
                  ((v, m + a) for v in range(m) for a in range(i)))
    return Graph(m + i, edges, name=f"fan_join({i})")


def path_power(n, t):
    """t-th distance power of the n-vertex path: i ~ j iff 1 <= |i-j| <= t."""
    if n < 1 or t < 1:
        raise ValueError("path_power needs n >= 1 and t >= 1")
    edges = ((i, j) for i in range(n) for j in range(i + 1, min(i + t, n - 1) + 1))
    return Graph(n, edges, name=f"P{n}^{t}")


# -- samplers -------------------------------------------------------------------


def random_gnp(n, prob, seed, name=""):
    if not 0 <= prob <= 1:
        raise ValueError(f"edge probability {prob} out of [0,1]")
    rng = random.Random(seed)
    edges = ((u, v) for u, v in combinations(range(n), 2) if rng.random() < prob)
    return Graph(n, edges, name=name or f"gnp({n},{prob},{seed})")


def random_bipartite(n, d, seed):
    """G(n,n,d/n): parts 0..n-1 and n..2n-1, each cross pair kept with prob d/n."""
    if n < 1:
        raise ValueError("random_bipartite needs n >= 1")
    prob = Fraction(d) / n if not isinstance(d, float) else d / n
    if prob < 0 or prob > 1:
        raise ValueError(f"edge probability d/n = {prob} out of [0,1]")
    rng = random.Random(seed)
    p = float(prob)
    edges = ((u, n + v) for u in range(n) for v in range(n) if rng.random() < p)
    return Graph(2 * n, edges, name=f"bipartite({n},{d},{seed})")


# -- list colorings for paths and path powers ----------------------------------


def _need_pairs(lists):
    """Refuse a list system with a list of fewer than two colours."""
    if any(lst.bit_count() < 2 for lst in lists):
        raise ValueError("need lists of size at least 2")


def color_path_nonmono(lists):
    """Greedy left-to-right coloring of the path 0..n-1 from ``lists`` with
    no monochromatic edge: each vertex takes its lowest color that differs
    from its left neighbour's."""
    _need_pairs(lists)
    colors = []
    avoid = 0
    for lst in lists:
        c = next(bits(lst & ~avoid))
        colors.append(c)
        avoid = 1 << c
    return tuple(colors)


def block_color_path_power(n, t, lists):
    """Block coloring of P_n^t from ``lists`` guaranteeing monochromatic
    components <= 2t^2.

    The vertex range is padded to a multiple of t(t+1) (the analysis assumes
    divisibility); padded vertices get throwaway lists and are dropped from
    the returned coloring.  Per block of t(t+1) consecutive vertices split
    into t-tuples T_0..T_t: T_0 is colored lowest-color-first, and T_i
    (i >= 1) avoids the color given to the i-th vertex of T_0.
    """
    if len(lists) != n:
        raise ValueError("list assignment domain mismatch")
    _need_pairs(lists)
    block = t * (t + 1)
    padded = ((n + block - 1) // block) * block
    lists = list(lists) + [0b11] * (padded - n)
    colors = [-1] * padded
    for start in range(0, padded, block):
        for v in range(start, start + t):
            colors[v] = next(bits(lists[v]))
        for i in range(1, t + 1):
            others = ~(1 << colors[start + i - 1])
            for v in range(start + i * t, start + (i + 1) * t):
                colors[v] = next(bits(lists[v] & others))
    return tuple(colors[:n])


# -- exact half-universe subset estimate ------------------------------------


def estim_ratio(s):
    """Exact value of prod_{i<s} (ceil(s^2/2)-i)/(s^2-i) and whether it is
    at least 2^-(s+1)."""
    if s < 1:
        raise ValueError("s must be positive")
    half = (s * s + 1) // 2
    ratio = Fraction(1)
    for i in range(s):
        ratio *= Fraction(half - i, s * s - i)
    return ratio, ratio >= Fraction(1, 2 ** (s + 1))


# -- adversarial list pipeline ----------------------------------------------


@dataclass
class AdversaryState:
    B: int  # vertex bitmask
    L0: dict  # vertex -> colour mask, on B
    A: int  # vertex bitmask of good vertices
    L1: dict  # vertex -> colour mask, on A
    condition_report: dict


@dataclass(frozen=True)
class MonoWitness:
    color: int
    vertex_set: int
    avg_degree: Fraction


def sample_B_L0(g, s, k, d, seed):
    """Random B (each vertex kept with prob 1/sqrt(d)) and uniform s-lists
    over the color universe {0..s^2-1}."""
    if s < 1 or k < 1 or d < 1:
        raise ValueError("s, k, d must be positive")
    rng = random.Random(seed)
    prob = 1.0 / math.sqrt(d)
    universe = list(range(s * s))
    B = 0
    L0 = {}
    for v in range(g.n):
        if rng.random() < prob:
            B |= 1 << v
            L0[v] = mask_of(rng.sample(universe, s))
    return B, L0


def good_vertices(g, B, L0, s, k, trials=200, seed=0):
    """Vertices outside B with, for every half-size color subset T, at least
    k*s^2 B-neighbors whose lists lie inside T.

    Returns (mask, exact_flag).  Every subset T is checked iff
    s <= GOOD_VERTICES_EXACT_S_CAP; past it ``trials`` random subsets are, so
    the result is a superset candidate.  Subsets are colour masks: a list
    lies inside T iff it has no colour outside it.
    """
    universe = range(s * s)
    half = (s * s + 1) // 2
    need = k * s * s
    exact = s <= GOOD_VERTICES_EXACT_S_CAP
    if exact:
        subsets = [mask_of(T) for T in combinations(universe, half)]
    else:
        rng = random.Random(seed)
        subsets = [mask_of(rng.sample(list(universe), half)) for _ in range(trials)]
    A = 0
    for v in range(g.n):
        if B >> v & 1:
            continue
        nb_lists = [L0[b] for b in bits(g.adj[v] & B)]
        if all(sum(not lst & ~T for lst in nb_lists) >= need for T in subsets):
            A |= 1 << v
    return A, exact


def sample_L1(A, s, seed):
    """Independent uniform s-subsets of {0..s^2-1} for each vertex of A."""
    rng = random.Random(seed)
    universe = list(range(s * s))
    return {v: mask_of(rng.sample(universe, s)) for v in bits(A)}


def compute_A_phi(g, A, B, L1, phi, k):
    """Vertices v of A with, for every color of L1(v), at least k B-neighbors
    colored that color by phi."""
    for v in bits(B):
        if v not in phi:
            raise ValueError(f"phi must color all of B; vertex {v} missing")
    out = 0
    for v in bits(A):
        counts = {}
        for u in bits(g.adj[v] & B):
            counts[phi[u]] = counts.get(phi[u], 0) + 1
        if all(counts.get(c, 0) >= k for c in bits(L1[v])):
            out |= 1 << v
    return out


@dataclass
class DominationResult:
    ok: bool
    exact: bool
    worst_margin: int  # min over checked phi of |A_phi| - |B|
    counterexample: dict | None
    checked: int


def verify_L1_dominates(g, A, B, L0, L1, k, trials=200, seed=0):
    """Check |A_{phi,L1}| > |B| over L0-colorings phi of B.

    All colorings are enumerated iff there are at most DOMINATION_EXACT_CAP
    of them, stopping at the first refuting one; past the cap ``trials``
    random colorings are drawn and the worst margin seen is reported.  An
    empty B has a single empty coloring, so the condition degenerates to
    |A_phi| > 0.  Sampling fewer than one coloring is refused.
    """
    b_verts = list(bits(B))
    b_size = len(b_verts)
    b_lists = [list(bits(L0[v])) for v in b_verts]
    exact = math.prod(map(len, b_lists)) <= DOMINATION_EXACT_CAP
    if exact:
        colorings = (dict(zip(b_verts, combo)) for combo in product(*b_lists))
    elif trials < 1:
        raise ValueError(f"trials must be at least 1 to sample colorings, got {trials}")
    else:
        rng = random.Random(seed)
        colorings = ({v: rng.choice(lst) for v, lst in zip(b_verts, b_lists)}
                     for _ in range(trials))
    worst = counterexample = None
    checked = 0
    for phi in colorings:
        margin = compute_A_phi(g, A, B, L1, phi, k).bit_count() - b_size
        checked += 1
        if worst is None or margin < worst:
            worst = margin
        if margin <= 0 and counterexample is None:
            counterexample = phi
            if exact:
                break
    return DominationResult(counterexample is None, exact, worst, counterexample, checked)


def adversary_pipeline(g, s, k, d, seed):
    """Run the B/L0 -> good vertices -> L1 construction and report which of
    the conditions (a), (b), (c) hold for the sampled state.

    This is a relaxed-constants run: it reports the conditions, it does not
    claim any guarantee (the regime where the construction is
    proven to work needs astronomically large minimum degree).
    """
    B, L0 = sample_B_L0(g, s, k, d, seed)
    A, exact_c = good_vertices(g, B, L0, s, k, seed=f"{seed}:goodT")
    L1 = sample_L1(A, s, f"{seed}:L1")
    n = g.n
    cond_a = A.bit_count() * 2 >= n
    cond_b = B.bit_count() ** 2 * d <= 4 * n * n  # |B| <= 2n/sqrt(d), exactly
    report = {
        "a": cond_a,
        "b": cond_b,
        "c": True if exact_c else "estimate",
        "A_size": A.bit_count(),
        "B_size": B.bit_count(),
        "empty_B_convention": "domination over an empty B degenerates to |A_phi| > 0",
    }
    return AdversaryState(B, L0, A, L1, report)


def mono_dense_witness(g, coloring, k):
    """A monochromatic subgraph of average degree > k under ``coloring``.

    Per color class (lowest color first) the exact maximum average degree of
    the induced subgraph is computed via the densest-subgraph routine; the
    first class exceeding k yields the witness, a host vertex mask: the
    class's largest densest subgraph.
    """
    if len(coloring) != g.n:
        raise ValueError("coloring must be total on V(G)")
    masks = class_masks(coloring)
    for color in sorted(masks):
        dens, densest = density.max_density(g, masks[color])
        avg = 2 * dens
        if avg > k:
            return MonoWitness(color, densest, avg)
    return None


def girth_component_bound(g, k):
    """Check that some component exceeds (k-1)^((girth-1)/2) vertices.

    Applies to graphs of odd finite girth > 1 and average degree >= 2k;
    precondition violations are reported, not asserted.
    """
    report = {"k": k}
    gr = girth(g)
    report["girth"] = gr
    if gr == float("inf") or gr % 2 == 0 or gr <= 1:
        report["precondition_ok"] = False
        report["reason"] = "girth must be odd and finite"
        return report
    if g.n == 0 or average_degree(g) < 2 * k:
        report["precondition_ok"] = False
        report["reason"] = "average degree below 2k"
        return report
    report["precondition_ok"] = True
    bound = (k - 1) ** ((gr - 1) // 2)
    biggest = max(component_sizes(g))
    report["bound"] = bound
    report["max_component"] = biggest
    report["holds"] = biggest > bound
    return report
