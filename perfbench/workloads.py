"""Workload job lists, their pinned answers and the oracles behind the pins.

Each workload is a fixed list of ``fpcolor`` CLI jobs.  A job's pin is the
answer the CLI gave at the default seed: ``result.value`` for ``solve``,
``result.exact_mad`` for ``param --f mad`` and ``result.passed`` for
``lemma``.  Pins are cross-checked against independent oracles wherever one
exists (see ``oracle_answer``), so a wrong pin cannot hide a wrong answer.

A job's ``verify_refused`` flag pins the one known verify refusal: ``verify``
refuses a ``col`` lower certificate of more than 16 vertices as unverifiable
at its exhaustive-check cap (ROADMAP item 4).  The flagged jobs are exactly
those whose report is refused today; a refusal of any other job is a failed
job.

Every graph input is fixed.  A single random instance of the sizes used here
varies up to tenfold in search cost from one generator seed to the next (for
example ``solve col --gen gnp:20,0.3,S --f mad --p 2`` took 0.3 s to 3.8 s
over S = 1..4), which would swamp any run-to-run comparison.  The workload
seed therefore only orders the jobs inside each pass; see ``pass_orders``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    argv: tuple  # fpcolor CLI arguments, without --out
    pin: object  # pinned answer, see module docstring
    verify_refused: bool = False  # verify refuses its lower certificate at the cap


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple


def _jobs(*rows):
    return tuple(Job(tuple(cmd.split()), *rest) for cmd, *rest in rows)


def _col(gen, f, p, pin, verify_refused=False):
    return (f"solve col --gen {gen} --f {f} --p {p}", pin, verify_refused)


REFUSED = True  # readability of the verify_refused flags below


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "choose",
            "choosability by list-system enumeration: decide_choosability_fp, "
            "exists_L_coloring and the fan/star evaluators; no density or peeling",
            _jobs(
                # true at n=6, s=2: full enumeration
                ("solve choosable --gen fan-join:2 --f fan --p 2 --s 2", True),
                ("solve choosable --gen cycle:6 --f star --p 1 --s 2", True),
                ("solve choosable --gen complete-bipartite:3,3 --f max-degree --p 1 --s 2", True),
                # false, found mid-enumeration
                ("solve choosable --gen complete-bipartite:2,4 --f star --p 1 --s 2", False),
                # true at n=5
                ("solve choosable --gen cycle:5 --f max-degree --p 1 --s 2", True),
                ("solve choosable --gen path:5 --f star --p 1 --s 2", True),
                ("solve choosable --gen complete-bipartite:2,3 --f star --p 1 --s 2", True),
                ("solve choosable --gen complete-bipartite:2,3 --f fan --p 2 --s 2", True),
                # instant
                ("solve choosable --gen cycle:4 --f star --p 1 --s 2", True),
                ("solve choosable --gen cycle:5 --f star --p 1 --s 2", False),
                ("solve choosable --gen complete:5 --f star --p 2 --s 2", False),
            ),
        ),
        Workload(
            "certify",
            "island peeling and chi search beside certificate checking "
            "(verify_report, island_free_exhaustive) on mid-size graphs; no density, "
            "no list enumeration",
            _jobs(
                *(
                    _col(gen, f, p, pin, refused)
                    for gen, pins, refusals in (
                        # pins and verify_refused flags for star p1, star p2, max-degree p2
                        ("petersen", (4, 3, 2), (False,) * 3),
                        ("robertson", (5, 4, 3), (REFUSED,) * 3),
                        ("fan-join:3", (5, 5, 4), (False,) * 3),
                        ("path-power:24,3", (4, 4, 4), (REFUSED,) * 3),
                        ("gnp:16,0.3,1", (4, 3, 3), (False,) * 3),
                        ("gnp:24,0.3,1", (6, 6, 6), (REFUSED, False, False)),
                        ("gnp:40,0.3,1", (9, 8, 8), (REFUSED,) * 3),
                    )
                    for (f, p), pin, refused in zip(
                        (("star", 1), ("star", 2), ("max-degree", 2)), pins, refusals
                    )
                ),
                _col("fan-join:3", "fan", 3, 4),
                _col("gnp:16,0.3,1", "fan", 3, 2),
                _col("gnp:22,0.3,1", "fan", 3, 4, REFUSED),
                ("solve chi --gen gnp:24,0.5,1 --f star --p 1", 6),
                ("solve chi --gen gnp:24,0.5,1 --f star --p 2", 5),
                ("solve chi --gen gnp:24,0.3,1 --f max-degree --p 1", 4),
                ("solve chi --gen gnp:22,0.4,1 --f fan --p 2", 3),
                ("solve chi --gen petersen --f chromatic --p 2", 2),
                ("solve chi --gen robertson --f chromatic --p 2", 2),
                ("solve island --gen fan-join:3 --f fan --p 3 --s 3", False),
            ),
        ),
        Workload(
            "density",
            "exact mad by Dinic max-flow: a few large flows (param --f mad) beside "
            "many tiny flows inside col/chi searches with f = mad",
            _jobs(
                ("param --gen path:1000 --f mad", "999/500"),
                ("param --gen gnp:600,0.02,1 --f mad", "7026/587"),
                ("param --gen bipartite:200,64,0 --f mad", "12799/200"),
                ("solve col --gen gnp:20,0.3,1 --f mad --p 2", 4, REFUSED),
                ("solve col --gen gnp:16,0.4,3 --f mad --p 2", 3),
                ("solve chi --gen gnp:16,0.4,1 --f mad --p 1", 2),
            ),
        ),
        Workload(
            "lemma",
            "lemma suites at acceptance size: thousands of tiny col_fp, greedy and chi "
            "calls on n <= 12, where per-call overhead dominates",
            _jobs(
                ("lemma lemma1 --graphs 300 --max-n 9 --trials 50 --seed 0", True),
                ("lemma coldens --graphs 200 --max-n 12 --seed 0", True),
                ("lemma addit --graphs 100 --max-n 10 --seed 0", True),
                ("lemma path --trials 1000 --seed 0", True),
                ("lemma mindeg --graphs 100 --seed 0", True),
                # criterion 10's standing finding: the pipeline does not pass
                ("lemma pipeline --seeds 20 --trials 100", False),
            ),
        ),
    )
}


def pass_orders(workload, seed):
    """Endless seeded job orders, one per pass; the same seed gives the same orders."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        order = list(range(len(workload.jobs)))
        rng.shuffle(order)
        yield order


def answer_of(argv, report):
    """The pinned field of a job's report."""
    if argv[0] == "lemma":
        return report["result"]["passed"]
    if argv[0] == "param":
        return report["result"]["exact_mad"]
    return report["result"]["value"]


# -- oracles --------------------------------------------------------------------


def _option(argv, name):
    return argv[argv.index(name) + 1] if name in argv else None


def oracle_answer(argv, load_graph):
    """The answer an independent oracle gives for a job, or None if none applies.

    ``load_graph(token)`` builds the graph of a ``--gen`` token.
    """
    gen, f, p, s = (_option(argv, k) for k in ("--gen", "--f", "--p", "--s"))
    if argv[:2] == ("solve", "choosable") and (f, p, s) == ("star", "1", "2"):
        # star with p = 1 makes each colour class independent: plain 2-choosability
        return ert_two_choosable(load_graph(gen))
    if argv[:2] == ("solve", "col") and (f, p) == ("star", "1"):
        from fpcolor.solvers import degeneracy_col

        return degeneracy_col(load_graph(gen))
    if argv[0] == "param" and f == "mad" and gen.startswith("path:"):
        n = int(gen.partition(":")[2])
        mad = Fraction(2 * (n - 1), n)  # a tree's densest subgraph is itself
        return f"{mad.numerator}/{mad.denominator}"
    return None


def ert_two_choosable(g):
    """Erdos-Rubin-Taylor (1979): a connected graph is 2-choosable iff its core
    (what remains after repeatedly deleting vertices of degree <= 1) is K1, an
    even cycle or theta(2,2,2m).  A graph is 2-choosable iff each component is."""
    adj = {v: {w for w in range(g.n) if g.adj[v] >> w & 1} for v in range(g.n)}
    leaves = [v for v in adj if len(adj[v]) <= 1]
    while leaves:
        v = leaves.pop()
        if v not in adj:
            continue
        for w in adj.pop(v):
            adj[w].discard(v)
            if len(adj[w]) <= 1:
                leaves.append(w)
    seen = set()
    for root in adj:
        if root in seen:
            continue
        comp, todo = {root}, [root]
        while todo:
            for w in adj[todo.pop()] - comp:
                comp.add(w)
                todo.append(w)
        seen |= comp
        if not _ert_core_ok({v: adj[v] for v in comp}):
            return False
    return True


def _ert_core_ok(core):
    degs = sorted(len(nb) for nb in core.values())
    if all(d == 2 for d in degs):
        return len(core) % 2 == 0  # a cycle
    if degs[-2:] != [3, 3] or any(d != 2 for d in degs[:-2]):
        return False
    # theta graph: three internally disjoint paths between the two branch vertices
    a, b = (v for v in core if len(core[v]) == 3)
    lengths = []
    for start in core[a]:
        prev, cur, length = a, start, 1
        while cur not in (a, b):
            prev, cur = cur, next(w for w in core[cur] if w != prev)
            length += 1
        if cur == a:  # a cycle through a alone: two cycles joined by a path
            return False
        lengths.append(length)
    lengths.sort()
    return lengths[:2] == [2, 2] and lengths[2] % 2 == 0
