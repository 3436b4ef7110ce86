"""Command-line front end.

Subcommands: param | solve | generate | adversary | verify | lemma | question.
Exit codes: 0 pass, 1 fail/counterexample, 2 usage, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time

from fpcolor import constructions as cons
from fpcolor import density
from fpcolor import report as rep
from fpcolor import suites
from fpcolor.errors import CapExceeded
from fpcolor.graph import GraphError, bits, from_edge_list, from_graph6, to_edge_list, to_graph6
from fpcolor.params import PARAMETERS, get_parameter
from fpcolor.solvers import chi_fp, col_fp, decide_choosability_fp, find_island

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# each suite's signature states its options and defaults; taken at import, so
# that a wrapper later put round a suite cannot hide them
SUITE_SIGNATURES = {name: inspect.signature(fn) for name, fn in suites.SUITES.items()}


GENERATORS = {
    "path": lambda a: cons.path(int(a[0])),
    "cycle": lambda a: cons.cycle(int(a[0])),
    "complete": lambda a: cons.complete(int(a[0])),
    "complete-bipartite": lambda a: cons.complete_bipartite(int(a[0]), int(a[1])),
    "edgeless": lambda a: cons.edgeless(int(a[0])),
    "petersen": lambda a: cons.petersen(),
    "robertson": lambda a: cons.robertson(),
    "fan-join": lambda a: cons.fan_join(int(a[0])),
    "path-power": lambda a: cons.path_power(int(a[0]), int(a[1])),
    "gnp": lambda a: cons.random_gnp(int(a[0]), float(a[1]), int(a[2]) if len(a) > 2 else 0),
    "bipartite": lambda a: cons.random_bipartite(int(a[0]), int(a[1]), int(a[2]) if len(a) > 2 else 0),
}


def load_graph(args):
    if getattr(args, "gen", None):
        token = args.gen
        name, _, argstr = token.partition(":")
        if name not in GENERATORS:
            raise GraphError(f"unknown generator {name!r}; choose from {sorted(GENERATORS)}")
        parts = [x for x in argstr.split(",") if x]
        try:
            return GENERATORS[name](parts)
        except (IndexError, ValueError) as exc:
            raise GraphError(f"bad generator arguments for {name!r}: {exc}") from exc
    if getattr(args, "graph", None):
        with open(args.graph) as fh:
            text = fh.read()
        tokens = text.split(None, 1)  # graph6 is one token, an edge list at least two
        if len(tokens) == 1:
            return from_graph6(tokens[0])
        return from_edge_list(text)
    raise GraphError("no graph given: use --graph FILE or --gen NAME[:args]")


def add_graph_args(sub):
    sub.add_argument("--graph", help="edge-list or graph6 file")
    sub.add_argument("--gen", help="built-in generator, e.g. cycle:5, fan-join:2, gnp:8,0.4,7")


def emit(args, report):
    if args.timing:
        report["elapsed_ms"] = int((time.monotonic() - args.started) * 1000)
    text = rep.canonical_json(report)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _inputs(g, **extra):
    base = {"graph_hash": g.content_hash(), "graph6": to_graph6(g)}
    base.update(extra)
    return base


def cmd_param(args):
    g = load_graph(args)
    f = get_parameter(args.f)
    # mad's value is the floor of its exact value: one max-flow run, not two
    exact = density.exact_mad(g) if f.id == "mad" else None
    value = f.eval(g) if exact is None else int(exact)
    result = {"parameter": f.id, "value": value, "traits": f.traits()}
    if exact is not None:
        result["exact_mad"] = exact
    emit(args, rep.make_report("param", _inputs(g, f=f.id), result))
    return EXIT_PASS


def cmd_solve(args):
    g = load_graph(args)
    f = get_parameter(args.f)
    p = args.p
    if args.op == "col":
        res = col_fp(g, f, p)
        result = {"op": "col", "f": f.id, "p": p, "value": res.value}
        cert = rep.col_to_json(res, f.id, p)
    elif args.op == "chi":
        value, coloring = chi_fp(g, f, p)
        result = {"op": "chi", "f": f.id, "p": p, "value": value}
        cert = rep.coloring_to_json(coloring, f.id, p)
    elif args.op == "choosable":
        if args.s is None:
            raise GraphError("choosable requires --s")
        ok, bad = decide_choosability_fp(g, args.s, f, p)
        result = {"op": "choosable", "f": f.id, "p": p, "s": args.s, "value": ok}
        cert = None if ok else rep.assignment_to_json(bad, args.s, f.id, p)
    elif args.op == "island":
        if args.s is None:
            raise GraphError("island requires --s")
        found = find_island(g, args.s, f, p)
        result = {"op": "island", "f": f.id, "p": p, "s": args.s,
                  "value": found is not None}
        cert = None if found is None else rep.island_to_json(g, found, args.s, f, p)
    else:
        raise GraphError(f"unknown solve op {args.op!r}")
    emit(args, rep.make_report(f"solve {args.op}", _inputs(g, f=f.id, p=p, s=args.s),
                               result, cert))
    if args.op == "choosable" and not result["value"]:
        return EXIT_FAIL
    return EXIT_PASS


def cmd_generate(args):
    g = load_graph(args)
    if args.emit == "g6":
        text = to_graph6(g) + "\n"
    else:
        text = f"# {g.name} n={g.n} hash={g.content_hash()}\n" + to_edge_list(g) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def cmd_adversary(args):
    g = load_graph(args)
    state = cons.adversary_pipeline(g, args.s, args.k, args.d, args.seed)
    result = {
        "s": args.s,
        "k": args.k,
        "d": args.d,
        "seed": args.seed,
        "B": sorted(bits(state.B)),
        "L0": {str(v): list(bits(state.L0[v])) for v in bits(state.B)},
        "A": sorted(bits(state.A)),
        "L1": {str(v): list(bits(state.L1[v])) for v in bits(state.A)},
        "condition_report": state.condition_report,
    }
    status = "exact" if state.condition_report["c"] is True else "estimate"
    if args.check_domination:
        dom = cons.verify_L1_dominates(g, state.A, state.B, state.L0, state.L1,
                                       args.k, trials=args.trials, seed=f"{args.seed}:dom")
        result["domination"] = {
            "ok": dom.ok,
            "exact": dom.exact,
            "worst_margin": dom.worst_margin,
            "checked": dom.checked,
        }
        if not dom.exact:
            status = "estimate"
    emit(args, rep.make_report("adversary", _inputs(g, s=args.s, k=args.k, d=args.d,
                                                    seed=args.seed),
                               result, status=status))
    return EXIT_PASS


def cmd_verify(args):
    with open(args.report, encoding="utf-8") as fh:
        try:
            loaded = json.load(fh)
        except RecursionError:  # nested deeper than the JSON decoder goes
            print("verify: malformed report: nested too deeply", file=sys.stderr)
            return EXIT_FAIL
        except ValueError as exc:  # not JSON, or not UTF-8
            print(f"verify: malformed report: {exc}", file=sys.stderr)
            return EXIT_FAIL
    try:
        ok = rep.verify_report(loaded)
    except rep.CertificateError as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return EXIT_FAIL
    print("certificate OK" if ok else "certificate INVALID")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_lemma(args):
    signature = SUITE_SIGNATURES[args.name]
    flags = args.suite_flags  # parameter name -> flag spelling
    given = {name: getattr(args, name) for name in flags if hasattr(args, name)}
    foreign = [flags[name] for name in given if name not in signature.parameters]
    if foreign:
        takes = [flag for name, flag in flags.items() if name in signature.parameters]
        raise ValueError(f"lemma {args.name} does not take {' '.join(foreign)}; "
                         f"it takes {' '.join(takes)}")
    bound = signature.bind(**given)
    bound.apply_defaults()
    result = suites.SUITES[args.name](**bound.arguments)
    emit(args, rep.make_report(f"lemma {args.name}", {"config": bound.arguments}, result,
                               status="exact"))
    return EXIT_PASS if result["passed"] else EXIT_FAIL


def cmd_question(args):
    inputs = {"p": args.p, "smax": args.smax}
    if args.gen or args.graph:
        graphs = [load_graph(args)]
    else:
        suites._at_least(1, graphs=args.graphs)
        graphs = suites.random_graph_sample(args.graphs, args.max_n, args.seed)
        inputs.update(seed=args.seed, max_n=args.max_n)
    result = suites.question_scan(args.q, graphs, args.p, smax=args.smax)
    emit(args, rep.make_report(f"question {args.q}", {**inputs, "count": len(graphs)},
                               result))
    return EXIT_PASS if not result["violations"] else EXIT_FAIL


@functools.cache  # built once: parse_args leaves the parser unchanged
def build_parser():
    ap = argparse.ArgumentParser(prog="fpcolor", description=__doc__)
    ap.add_argument("--timing", action="store_true",
                    help="include elapsed_ms, the whole run's wall time, in reports "
                         "(breaks byte-identity)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp):
        add_graph_args(sp)
        sp.add_argument("--out")

    sp = sub.add_parser("param", help="evaluate a graph parameter")
    common(sp)
    sp.add_argument("--f", required=True, choices=sorted(PARAMETERS))
    sp.set_defaults(fn=cmd_param)

    sp = sub.add_parser("solve", help="exact solvers with certificates")
    sp.add_argument("op", choices=("chi", "choosable", "col", "island"))
    common(sp)
    sp.add_argument("--f", required=True, choices=sorted(PARAMETERS))
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--s", type=int)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("generate", help="emit a graph as graph6 or edge list")
    add_graph_args(sp)
    sp.add_argument("--emit", choices=("g6", "edges"), default="g6")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_generate)

    sp = sub.add_parser("adversary", help="run the adversarial list pipeline")
    common(sp)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--d", type=int, default=64)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--check-domination", action="store_true",
                    help="check condition (c): every L0-colouring of B if there are at most "
                         f"{cons.DOMINATION_EXACT_CAP}, else --trials random ones")
    sp.add_argument("--trials", type=int, default=200)
    sp.set_defaults(fn=cmd_adversary)

    sp = sub.add_parser("verify", help="re-verify a report's certificate")
    sp.add_argument("report")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("lemma", help="run a lemma-verification suite at its acceptance size",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("name", choices=sorted(suites.SUITES))
    sp.add_argument("--out")
    # each flag sets the suite parameter named by its dest; a flag left out
    # takes the suite's own default
    flags = [sp.add_argument(flag, type=int)
             for flag in ("--seed", "--graphs", "--max-n", "--trials", "--n", "--smax",
                          "--d", "--k", "--s", "--seeds")]
    flags += [sp.add_argument(flag, dest=dest, type=int, nargs="+")
              for flag, dest in (("--i", "i_values"), ("--t", "t_values"))]
    sp.set_defaults(fn=cmd_lemma, suite_flags={a.dest: a.option_strings[0] for a in flags})

    sp = sub.add_parser("question", help="counterexample scans for the open questions")
    sp.add_argument("q", choices=("q1", "q2"))
    common(sp)
    sp.add_argument("--p", type=int, default=1)
    sp.add_argument("--graphs", type=int, default=50)
    sp.add_argument("--max-n", type=int, default=6)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--smax", type=int, default=3)
    sp.set_defaults(fn=cmd_question)

    return ap


def main(argv=None):
    started = time.monotonic()
    args = build_parser().parse_args(argv)
    args.started = started
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
