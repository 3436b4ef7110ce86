"""Lemma-verification suites: the randomized/exhaustive experiment batches
behind the `lemma` CLI subcommand and the acceptance tests.

Each suite's signature states its options, with its acceptance size as the
defaults. It returns a JSON-able dict with a top-level "passed" flag, and dumps
a self-contained counterexample bundle (graph6 + lists + coloring) on any failure.

Lists are drawn by ``draw_lists`` as colour bitmasks (bit c for colour c), one
per vertex; a bundle writes each list as its colours in ascending order.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from fpcolor import constructions as cons
from fpcolor.check import verify_fp_proper
from fpcolor.errors import CapExceeded
from fpcolor.graph import ClassOracle, average_degree, bits, class_masks, mask_of, to_graph6
from fpcolor.params import PARAMETERS
from fpcolor.solvers import (
    chi_fp,
    col_fp,
    compose_bound,
    decide_choosability_fp,
    find_island,
    greedy_color,
    greedy_plan,
)

STAR = PARAMETERS["star"]
MAX_DEGREE = PARAMETERS["max-degree"]
FAN = PARAMETERS["fan"]
CHROMATIC = PARAMETERS["chromatic"]
MAD = PARAMETERS["mad"]


def random_graph_sample(count, max_n, seed, min_n=1):
    """Reproducible mixed-density random graphs, up to max_n vertices each."""
    _at_least(min_n, max_n=max_n)
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(min_n, max_n)
        prob = rng.uniform(0.1, 0.9)
        out.append(cons.random_gnp(n, prob, rng.getrandbits(32), name=f"sample{i}"))
    return out


def draw_lists(n, s, u, rng):
    """n random s-subsets of the colours 0..u-1, as colour bitmasks.

    Each list is a partial Fisher-Yates shuffle of range(u) driven by
    ``rng.getrandbits`` with rejection.  These are the draws, from the same
    random bits, that CPython's ``rng.sample(range(u), s)`` makes whenever it
    shuffles a pool, which it does for u <= 21 and for u <= 3s + 21: for every
    caller here, where u is s + 3 or 4.
    """
    if not 0 <= s <= u:
        raise ValueError(f"cannot draw {s} of {u} colours")
    getrandbits = rng.getrandbits
    steps = [(left, left.bit_length()) for left in range(u, u - s, -1)]
    colours = [1 << c for c in range(u)]
    out = []
    for _ in range(n):
        pool = colours[:]  # pool[:left] holds the colours not drawn yet
        lst = 0
        for left, k in steps:
            j = getrandbits(k)
            while j >= left:
                j = getrandbits(k)
            lst |= pool[j]
            pool[j] = pool[left - 1]
        out.append(lst)
    return out


def _at_least(bound, **sizes):
    """Reject a size below ``bound``, named by its ``lemma`` flag: at such a
    size a suite would check nothing and still pass."""
    for name, value in sizes.items():
        if value < bound:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {bound}, got {value}")


def _as_lists(lists):
    """A list system's colour masks as colour lists, for a bundle."""
    return [list(bits(lst)) for lst in lists]


def _counterexample(g, **extra):
    bundle = {"graph6": to_graph6(g)}
    bundle.update(extra)
    return bundle


def choosability_value(g, f, p, smax):
    """Least s <= smax with every s-list assignment colorable, or None;
    smax stands in for the s cap, so ``question --smax`` can go past it."""
    for s in range(1, smax + 1):
        ok, _ = decide_choosability_fp(g, s, f, p, cap_s=smax)
        if ok:
            return s
    return None


# -- suites ---------------------------------------------------------------------


def suite_lemma1(graphs=300, max_n=9, trials=50, seed=0):
    """Greedy island coloring succeeds with col-many list colors."""
    _at_least(1, graphs=graphs, trials=trials)
    sample = random_graph_sample(graphs, max_n, seed)
    rng = random.Random(f"{seed}:lists")
    failures = []
    checks = 0
    for g in sample:
        for f in (MAX_DEGREE, STAR):
            for p in (1, 2):
                res = col_fp(g, f, p)
                s = res.value
                plan = greedy_plan(g, res.islands)  # greedy_island_coloring, once per peel
                allowed = ClassOracle(g, f.allows, p)  # the trials share most classes
                draws = draw_lists(trials * g.n, s, s + 3, rng)  # trial after trial
                for t in range(trials):
                    lists = draws[t * g.n:(t + 1) * g.n]
                    checks += 1
                    try:
                        coloring = greedy_color(plan, lists)
                    except ValueError as stuck:  # no list colour left: the failure looked for
                        failures.append(_counterexample(g, f=f.id, p=p, s=s, lists=_as_lists(lists),
                                                        coloring=None, reason=str(stuck)))
                        continue
                    ok = all(c >= 0 and lst >> c & 1 for lst, c in zip(lists, coloring))
                    ok = ok and all(map(allowed.__getitem__, class_masks(coloring).values()))
                    if not ok:
                        failures.append(
                            _counterexample(
                                g,
                                f=f.id,
                                p=p,
                                s=s,
                                lists=_as_lists(lists),
                                coloring=list(coloring),
                            )
                        )
    return {
        "suite": "lemma1",
        "graphs": graphs,
        "max_n": max_n,
        "assignments": trials,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }


def suite_nofan(i_values=(2, 3), trials=10000, seed=0):
    """Both halves of the fan-join separation: no i-island of fan defect i,
    and 2-list colorability with no monochromatic fan above two vertices."""
    _at_least(1, trials=trials)
    results = {}
    failures = []
    for i in i_values:
        g = cons.fan_join(i)
        island = find_island(g, i, FAN, i)
        island_free = island is None
        if not island_free:
            failures.append(_counterexample(g, i=i, island=sorted(bits(island))))
        entry = {"island_free": island_free, "col_lower_bound": i + 1}
        if i == 2:
            ok, bad = decide_choosability_fp(g, 2, FAN, 2)
            entry["choosable_2_exhaustive"] = ok
            if not ok:
                failures.append(_counterexample(g, i=i, lists=_as_lists(bad)))
        else:
            rng = random.Random(f"{seed}:nofan:{i}")
            pathlen = i * i  # the fan_join's path is 0..pathlen-1
            allowed = ClassOracle(g, FAN.allows, 2)  # the trials share most classes
            bad_trials = 0
            for _ in range(trials):
                lists = draw_lists(g.n, 2, 4, rng)
                colors = [*cons.color_path_nonmono(lists[:pathlen]),
                          *(next(bits(lst)) for lst in lists[pathlen:])]
                if not all(map(allowed.__getitem__, class_masks(colors).values())):
                    bad_trials += 1
                    failures.append(
                        _counterexample(g, i=i, lists=_as_lists(lists), coloring=colors)
                    )
            entry["trials"] = trials
            entry["failed_trials"] = bad_trials
        results[str(i)] = entry
    return {
        "suite": "nofan",
        "seed": seed,
        "results": results,
        "failures": failures,
        "passed": not failures,
    }


def suite_addit(graphs=100, max_n=10, p_values=(1, 2), seed=0):
    """Chromatic number composes additively over (chromatic,p)-proper classes."""
    _at_least(1, graphs=graphs)
    sample = random_graph_sample(graphs, max_n, seed)
    failures = []
    checks = 0
    for g in sample:
        chi = CHROMATIC.eval(g)
        for p in p_values:
            s, coloring = chi_fp(g, CHROMATIC, p)
            bound = compose_bound(p, s, lambda a, b: a + b)
            checks += 1
            if not verify_fp_proper(g, coloring, CHROMATIC, p) or chi > bound or bound != s * p:
                failures.append(
                    _counterexample(g, p=p, s=s, chi=chi, bound=bound, coloring=list(coloring))
                )
    return {
        "suite": "addit",
        "graphs": graphs,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }


def suite_path(t_values=(1, 2, 3), trials=1000, seed=0, n=None):
    """Block coloring of path powers: monochromatic components <= 2t^2,
    plus exact island-number lower bounds on small path powers."""
    _at_least(1, trials=trials)
    failures = []
    results = {}
    for t in t_values:
        nt = n if n is not None else 2 * t * (t + 1)
        g = cons.path_power(nt, t)
        rng = random.Random(f"{seed}:path:{t}")
        bound = 2 * t * t
        worst = 0
        for _ in range(trials):
            lists = draw_lists(nt, 2, 4, rng)
            coloring = cons.block_color_path_power(nt, t, lists)
            if any(not lst >> c & 1 for lst, c in zip(lists, coloring)):
                failures.append(
                    _counterexample(g, t=t, lists=_as_lists(lists),
                                    coloring=list(coloring), reason="not an L-coloring")
                )
                continue
            biggest = max(
                (STAR.eval_mask(g, m) for m in class_masks(coloring).values()), default=0
            )
            worst = max(worst, biggest)
            if biggest > bound:
                failures.append(
                    _counterexample(g, t=t, lists=_as_lists(lists),
                                    coloring=list(coloring), component=biggest)
                )
        results[str(t)] = {"n": nt, "bound": bound, "max_component_seen": worst,
                           "trials": trials}
    lb_checks = {
        "P_9^2 star p=2": (cons.path_power(9, 2), 2, 3),
        "P_8^1 star p=3": (cons.path_power(8, 1), 3, 2),
    }
    for label, (g, p, want) in lb_checks.items():
        value = col_fp(g, STAR, p).value
        results[label] = {"col": value, "required_at_least": want}
        if value < want:
            failures.append(_counterexample(g, label=label, col=value, want=want))
    return {
        "suite": "path",
        "seed": seed,
        "results": results,
        "failures": failures,
        "passed": not failures,
    }


def suite_coldens(graphs=200, max_n=12, p_values=(1, 2, 3, 4), seed=0):
    """Average degree < 2(col + alpha) where alpha bounds densities of
    subgraphs on at most p vertices."""
    _at_least(1, graphs=graphs)
    sample = random_graph_sample(graphs, max_n, seed)
    failures = []
    checks = 0
    for g in sample:
        if g.n == 0:
            continue
        avg = average_degree(g)
        densities = _small_subgraph_densities(g, max(p_values, default=0))
        for p in p_values:
            alpha = densities[max(p, 0)]
            value = col_fp(g, STAR, p).value
            checks += 1
            if avg >= 2 * (value + alpha):
                failures.append(
                    _counterexample(g, p=p, col=value, alpha=str(alpha), avg=str(avg))
                )
    return {
        "suite": "coldens",
        "graphs": graphs,
        "seed": seed,
        "checks": checks,
        "failures": failures,
        "passed": not failures,
    }


def _small_subgraph_densities(g, pmax):
    """Entry k is max |E(H)|/|V(H)| over nonempty induced H with at most k
    vertices (0 when there is none), for k = 0..pmax."""
    edges, size = 0, 1  # the densest H so far, as a ratio
    out = [Fraction(0)]
    for k in range(1, pmax + 1):
        for combo in combinations(range(g.n), k):
            mask = mask_of(combo)
            inner = sum((g.adj[v] & mask).bit_count() for v in combo) // 2
            if inner * size > edges * k:
                edges, size = inner, k
        out.append(Fraction(edges, size))
    return out


def suite_mindeg(graphs=100, seed=0, k_values=(1, 2)):
    """Odd-girth component bound on named graphs and a random sample."""
    _at_least(1, graphs=graphs)
    failures = []
    named = [(cons.cycle(5), 1), (cons.robertson(), 2)]
    results = {"named": [], "random_applicable": 0}
    for g, k in named:
        rep = cons.girth_component_bound(g, k)
        results["named"].append({"graph": g.name, **rep})
        if not rep.get("precondition_ok") or not rep.get("holds"):
            failures.append(_counterexample(g, k=k, report=rep))
    for g in random_graph_sample(graphs, 14, seed):
        for k in k_values:
            rep = cons.girth_component_bound(g, k)
            if rep.get("precondition_ok"):
                results["random_applicable"] += 1
                if not rep["holds"]:
                    failures.append(_counterexample(g, k=k, report=rep))
    return {
        "suite": "mindeg",
        "graphs": graphs,
        "seed": seed,
        "results": results,
        "failures": failures,
        "passed": not failures,
    }


def suite_estim(smax=12):
    """Exact rational check of the half-universe subset ratio bound."""
    _at_least(1, smax=smax)
    rows = {}
    failures = []
    for s in range(1, smax + 1):
        ratio, ok = cons.estim_ratio(s)
        rows[str(s)] = {"ratio": f"{ratio.numerator}/{ratio.denominator}", "holds": ok}
        if not ok:
            failures.append({"s": s, "ratio": str(ratio)})
    return {"suite": "estim", "smax": smax, "rows": rows, "failures": failures,
            "passed": not failures}


def suite_pipeline(n=200, d=64, s=2, k=1, seeds=20, trials=100,
                   require_a=16, require_b=16):
    """Relaxed-constants adversary pipeline sanity run.

    Reports how often the sampled states satisfy conditions (a) and (b),
    and, whenever the exact domination check is feasible and succeeds,
    verifies the monochromatic-dense-subgraph implication on sampled list
    colorings with zero tolerance.
    """
    _at_least(1, seeds=seeds)
    runs = []
    count_a = count_b = 0
    implication_failures = []
    for seed in range(seeds):
        g = cons.random_bipartite(n, d, seed)
        state = cons.adversary_pipeline(g, s, k, d, seed)
        rep = dict(state.condition_report)
        count_a += bool(rep["a"])
        count_b += bool(rep["b"])
        b_size = state.B.bit_count()
        feasible = s**b_size <= cons.DOMINATION_EXACT_CAP
        rep["exact_domination_feasible"] = feasible
        if feasible:
            dom = cons.verify_L1_dominates(g, state.A, state.B, state.L0, state.L1, k)
            rep["domination"] = dom.ok
            rep["worst_margin"] = dom.worst_margin
            if dom.ok:
                rng = random.Random(f"{seed}:psi")
                lists = _as_lists(
                    state.L0[v] if state.B >> v & 1
                    else state.L1[v] if state.A >> v & 1
                    else (1 << s) - 1
                    for v in range(g.n)
                )
                for _ in range(trials):
                    psi = tuple(map(rng.choice, lists))
                    witness = cons.mono_dense_witness(g, psi, k)
                    if witness is None:
                        implication_failures.append(
                            _counterexample(g, seed=seed, coloring=list(psi))
                        )
        runs.append({"seed": seed, **{key: val for key, val in rep.items()}})
    passed = count_a >= require_a and count_b >= require_b and not implication_failures
    return {
        "suite": "pipeline",
        "n": n,
        "d": d,
        "s": s,
        "k": k,
        "trials": trials,
        "runs": runs,
        "count_a": count_a,
        "count_b": count_b,
        "require_a": require_a,
        "require_b": require_b,
        "implication_failures": implication_failures,
        "passed": passed,
    }


SUITES = {
    "lemma1": suite_lemma1,
    "nofan": suite_nofan,
    "addit": suite_addit,
    "path": suite_path,
    "coldens": suite_coldens,
    "mindeg": suite_mindeg,
    "estim": suite_estim,
    "pipeline": suite_pipeline,
}


# -- conjecture scans (no pass/fail claim) ------------------------------------


def question_scan(which, graphs, p, smax=3):
    """Scan small graphs for violations of the clustered / mad choosability
    ratio conjectures; records slack, never claims a proof.  A graph past the
    choosability cap, or with no choosable s <= smax, gets a row status saying so."""
    _at_least(1, smax=smax)
    if which == "q1":
        f, factor = STAR, p
    elif which == "q2":
        f, factor = MAD, p + 1
    else:
        raise ValueError(f"unknown question {which!r}")
    rows = []
    violations = []
    min_slack = None
    for g in graphs:
        row = {"graph6": to_graph6(g), "n": g.n}
        rows.append(row)
        try:
            lhs = choosability_value(g, STAR, 1, smax)
            rhs_base = choosability_value(g, f, p, smax)
        except CapExceeded:
            row["status"] = "above_choosability_cap"
            continue
        if lhs is None or rhs_base is None:
            row["status"] = "above_smax"
            continue
        rhs = factor * rhs_base
        slack = rhs - lhs
        row.update({"lhs": lhs, "rhs": rhs, "slack": slack, "status": "ok"})
        if min_slack is None or slack < min_slack:
            min_slack = slack
        if slack < 0:
            violations.append(row)
    return {
        "question": which,
        "p": p,
        "rows": rows,
        "min_slack": min_slack,
        "violations": violations,
        "claim": "search only; no proof claimed",
    }
