"""Command-line surface for the extremal-subgraph toolkit.

Graphs are given either as graph6 (``g6:ICR`` style, strict parser) or as
generator literals (``gen:complete:6``, ``gen:turan:9:3``,
``gen:min_degree_random:9:1/9:7`` ...). Patterns use a compact literal syntax:
``K3`` is a 3-clique, ``K3(2)`` the 3-clique with every vertex doubled,
``K3+(2)`` the same plus a dominating apex, and ``g6:...`` an arbitrary small
pattern graph.

Standard output is deterministic: identical argument vectors print identical
bytes (timings and other wall-clock noise never reach stdout). Experiment
subcommands can additionally append their machine-readable record (one JSON
line, versioned schema) to a file given with --out; `replay` re-executes such
records and verifies they reproduce field-for-field.

Exit status: 0 success, 1 bad input (including a record or output file that
cannot be read or written), 2 a size budget stopped the exact machinery
(result unknown; partial output may still be printed).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import harness
from .coloring import UNKNOWN, YES, chromatic_number, is_k_colorable
from .counting import Pattern, contains, count_pattern, parse_pattern
from .errors import BudgetExceededError, GraphFormatError, InfeasibleError, PatternSyntaxError
from .formulas import (
    aes_threshold,
    es_threshold,
    f_maximizer,
    partition_lower_blowup,
    partition_lower_clique,
    predict_ex_blowup,
    predict_ex_clique,
    removal_bound_blowup,
    removal_bound_clique,
    removal_bound_mixed,
    sparse_copy_bound,
)
from .graph6 import from_graph6, to_graph6
from .graphs import Graph, as_fraction, generate, parse_genspec
from .solver import (
    DEFAULT_BUDGETS,
    Budgets,
    enumerate_optima,
    max_hfree_subgraph,
    max_partite,
    peel,
    rebuild,
)


def _graph(text: str) -> Graph:
    if text.startswith("g6:"):
        return from_graph6(text[3:])
    if text.startswith("gen:"):
        return generate(parse_genspec(text))
    raise GraphFormatError(
        f"graph argument must start with 'g6:' or 'gen:', got {text!r}"
    )


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _fraction_list(text: str) -> list[Fraction]:
    return [_fraction(part) for part in text.split(",") if part]


def _print_frac(label: str, value: Fraction) -> None:
    print(f"{label}: {value} ({float(value):g})")


def _emit(args, record: harness.ExperimentRecord) -> None:
    if getattr(args, "out", None):
        harness.append_record(args.out, record)
        print(f"record: appended to {args.out}")
    print(f"experiment-id: {record.experiment_id}")
    for claim in sorted(record.verdicts):
        print(f"verdict[{claim}]: {record.verdicts[claim]}")


def _verdict_exit(record: harness.ExperimentRecord) -> int:
    return 2 if any(v == UNKNOWN for v in record.verdicts.values()) else 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    g = _graph(args.spec)
    print(to_graph6(g))
    print(f"n={g.n} edges={g.edge_count()} min-degree={g.min_degree() if g.n else 0}")
    if args.out:
        with open(args.out, "a", encoding="ascii") as fh:
            fh.write(to_graph6(g) + "\n")
    return 0


def cmd_count(args) -> int:
    g = _graph(args.graph)
    t = parse_pattern(args.pattern)
    print(count_pattern(g, t))
    return 0


def cmd_contains(args) -> int:
    g = _graph(args.graph)
    h = _graph(args.forbid)
    print("yes" if contains(g, h) else "no")
    return 0


def cmd_color(args) -> int:
    g = _graph(args.graph)
    if args.chromatic:
        res = chromatic_number(g, budget=args.budget)
        print(f"chromatic-number: {res.chromatic_number}")
        print(f"coloring: {' '.join(map(str, res.witness))}")
        return 0
    if args.colors is None:
        raise ValueError("color needs --colors K or --chromatic")
    outcome = is_k_colorable(g, args.colors, budget=args.budget, canonical=True)
    print(outcome.status)
    if outcome.status == YES:
        print(f"coloring: {' '.join(map(str, outcome.witness))}")
    return 2 if outcome.status == UNKNOWN else 0


def _budgets(args) -> Budgets:
    kwargs = {}
    if getattr(args, "exhaustive_edges", None) is not None:
        kwargs["exhaustive_edges"] = args.exhaustive_edges
    if getattr(args, "bnb_edges", None) is not None:
        kwargs["bnb_edges"] = args.bnb_edges
    if getattr(args, "ties_edges", None) is not None:
        kwargs["ties_edges"] = args.ties_edges
    return Budgets(**kwargs) if kwargs else DEFAULT_BUDGETS


def cmd_solve(args) -> int:
    g = _graph(args.graph)
    t = parse_pattern(args.pattern)
    h = _graph(args.forbid)
    budgets = _budgets(args)
    res = max_hfree_subgraph(
        g,
        t,
        h,
        args.mode,
        engine=args.engine,
        budgets=budgets,
        rule_forbid=not args.no_rule_forbid,
        rule_neighborhood=args.rule_neighborhood,
        seed=args.seed,
    )
    print(f"count: {res.best_count}")
    print(f"proof: {res.proof}")
    print(f"witness: {to_graph6(Graph.from_edges(g.n, res.best_edges))}")
    print(f"edges: {' '.join(f'{u}-{v}' for u, v in res.best_edges)}")
    for note in res.notes:
        print(f"note: {note}")
    if args.ties:
        best, optima = enumerate_optima(g, t, h, budgets=budgets)
        print(f"optima: {len(optima)}")
        for edge_set in optima:
            print(f"  {to_graph6(Graph.from_edges(g.n, edge_set))}")
    return 0


def cmd_partite(args) -> int:
    g = _graph(args.graph)
    t = parse_pattern(args.pattern)
    part, count = max_partite(g, args.parts, t, args.mode, seed=args.seed)
    print(f"count: {count}")
    for i, members in enumerate(part.parts()):
        print(f"part {i}: {' '.join(map(str, members))}")
    return 0


def cmd_peel(args) -> int:
    g = _graph(args.graph)
    t = parse_pattern(args.pattern)
    core, trace = peel(g, args.k, t, floor=args.floor)
    print(f"core: {to_graph6(core)}")
    print(f"core-size: {core.n}")
    print(f"stop: {trace.stop_reason}")
    print(f"steps: {len(trace.steps)}")
    print(f"exceeded-half: {'yes' if trace.exceeded_half else 'no'}")
    for i, s in enumerate(trace.steps, 1):
        print(
            f"  step {i}: vertex {s.vertex} degree {s.degree} "
            f"host {s.host_size} copies {s.copies_removed}"
        )
    return 0


def cmd_rebuild(args) -> int:
    g = _graph(args.graph)
    t = parse_pattern(args.pattern)
    h = _graph(args.forbid)
    res = rebuild(g, args.k, t, h, seed=args.seed)
    print(f"count: {res.best_count}")
    print(f"core-count: {res.core_count}")
    print(f"gains: {' '.join(map(str, res.gains))}")
    print(f"witness: {to_graph6(Graph.from_edges(g.n, res.best_edges))}")
    for i, members in enumerate(res.partition.parts()):
        print(f"part {i}: {' '.join(map(str, members))}")
    for note in res.notes:
        print(f"note: {note}")
    return 0


# name -> (required arguments in call order, formula, output labels); a
# formula with two labels returns a pair
_FORMULAS = {
    "aes-threshold": (("k",), aes_threshold, ("threshold",)),
    "es-threshold": (("k",), es_threshold, ("threshold",)),
    "predict-clique": (("n", "k", "m"), predict_ex_clique, ("prediction",)),
    "predict-blowup": (("n", "m", "t"), predict_ex_blowup, ("prediction",)),
    "partition-lower-clique": (("n", "k", "m", "eps"), partition_lower_clique, ("lower-bound",)),
    "partition-lower-blowup": (
        ("n", "m", "t", "eps", "c"), partition_lower_blowup, ("lower-bound",)
    ),
    "removal-clique": (("n", "k", "m"), removal_bound_clique, ("bound", "delta")),
    "removal-blowup": (
        ("n", "m", "t"), removal_bound_blowup, ("bound", "ratio-to-extremal-scale")
    ),
    "removal-mixed": (("n", "k", "m", "t"), removal_bound_mixed, ("bound",)),
    "sparse-bound": (("n", "d", "m", "t"), sparse_copy_bound, ("bound",)),
    "f-maximizer": (("n", "m", "t"), f_maximizer, ("argmax",)),
}


def cmd_formula(args) -> int:
    names, formula, labels = _FORMULAS[args.name]
    _require(args, f"formula {args.name}", names)
    values = formula(*(getattr(args, a) for a in names))
    for label, value in zip(labels, values if len(labels) > 1 else (values,)):
        _print_frac(label, value)
    return 0


def _require(args, claim: str, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise ValueError(f"{claim} requires {flags}")


def cmd_verify(args) -> int:
    claim = args.claim
    if claim == "extremal-colorable":
        _require(args, claim, ["graph", "forbid", "k"])
    elif claim == "near-colorable":
        _require(args, claim, ["graph", "forbid", "k"])
    elif claim == "prediction":
        _require(args, claim, ["forbid", "k", "m", "n-min", "n-max"])
    elif claim == "dichotomy":
        _require(args, claim, ["graph", "k", "gamma"])
    if claim == "extremal-colorable":
        record = harness.verify_extremal_colorable(
            _graph(args.graph),
            _graph(args.forbid),
            parse_pattern(args.pattern),
            args.k,
            eps=args.eps,
            engine=args.engine,
        )
        bundle = record.results["solve"]
        if bundle["status"] == "ok":
            print(f"optimum: {bundle['optimum']}")
            print(f"witness: {bundle['witness']['graph6']}")
            print(f"witness-colorable: {'yes' if bundle['witness_colorable'] else 'no'}")
            if bundle["ties_checked"]:
                print(f"optima: {bundle['num_optima']}")
                print(
                    "all-optima-colorable: "
                    + ("yes" if bundle["all_optima_colorable"] else "no")
                )
        hyp = record.results["hypothesis_met"]
        if hyp is not None:
            print(f"hypothesis-met: {'yes' if hyp else 'no'}")
    elif claim == "near-colorable":
        record = harness.verify_near_colorable(
            _graph(args.graph),
            _graph(args.forbid),
            parse_pattern(args.pattern),
            args.k,
            engine=args.engine,
        )
        if record.results["solve"]["status"] == "ok":
            print(f"optimum: {record.results['solve']['optimum']}")
            print(f"deletions: {record.results['deletions']}")
            print(f"deletion-ratio: {record.results['deletion_ratio_to_n2']}")
    elif claim == "prediction":
        record = harness.compare_prediction(
            range(args.n_min, args.n_max + 1),
            args.k,
            args.m,
            args.t,
            _graph(args.forbid),
            threads=args.threads,
        )
        print("n exact prediction ratio")
        for row in record.results["rows"]:
            if row["status"] == "ok":
                print(f"{row['n']} {row['exact']} {row['prediction']} {row['ratio']}")
            else:
                print(f"{row['n']} unknown {row['prediction']} -")
    elif claim == "dichotomy":
        record = harness.verify_dichotomy(
            _graph(args.graph), args.k, parse_pattern(args.pattern), args.gamma
        )
        if "frontier" in record.results:
            print(f"optimum: {record.results['optimum']}")
            print(f"maximal-subgraphs: {record.results['maximal_subgraphs']}")
            print("count ratio within-gamma deletion-distance")
            for row in record.results["frontier"]:
                print(
                    f"{row['count']} {row['ratio']} "
                    f"{'yes' if row['count_within_gamma'] else 'no'} "
                    f"{row['deletion_distance']}"
                )
    else:
        raise ValueError(f"unknown claim {claim!r}")
    _emit(args, record)
    return _verdict_exit(record)


def cmd_scan(args) -> int:
    record = harness.threshold_scan(
        _graph(args.forbid),
        parse_pattern(args.pattern),
        args.k,
        args.n,
        args.fractions,
        args.trials,
        args.seed,
        threads=args.threads,
    )
    print("fraction floor passing failing unknown rate")
    for row in record.results["fractions"]:
        rate = row["rate"] if row["rate"] is not None else "-"
        print(
            f"{row['fraction']} {row['floor']} {row['passing']} "
            f"{row['failing']} {row['unknown']} {rate}"
        )
    _emit(args, record)
    return _verdict_exit(record)


def cmd_replay(args) -> int:
    records = harness.load_records(args.record)
    if args.index is not None:
        if not -len(records) <= args.index < len(records):
            raise ValueError(
                f"--index {args.index} is out of range: {args.record} holds {len(records)} record(s)"
            )
        records = [records[args.index]]
    status = 0
    for rec in records:
        same, fresh = harness.replay(rec, threads=args.threads)
        print(f"{rec.experiment_id} {rec.kind}: {'match' if same else 'MISMATCH'}")
        if not same:
            status = 1
    return status


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exfree",
        description="Exact and heuristic extremal subgraph computations "
        "with verified experiment records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph as graph6")
    p.add_argument("--spec", required=True, help="gen:... literal or g6:...")
    p.add_argument("--out", help="append the graph6 line to this file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("count", help="count pattern copies in a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("contains", help="does the graph contain the forbidden graph?")
    p.add_argument("--graph", required=True)
    p.add_argument("--forbid", required=True)
    p.set_defaults(func=cmd_contains)

    p = sub.add_parser("color", help="k-colorability / chromatic number")
    p.add_argument("--graph", required=True)
    p.add_argument("--colors", type=int)
    p.add_argument("--chromatic", action="store_true")
    p.add_argument("--budget", type=int, help="search-node budget (unknown if hit)")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("solve", help="maximize pattern copies over h-free subgraphs")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--mode", choices=["exact", "heuristic"], default="exact")
    p.add_argument(
        "--engine",
        choices=["auto", "exhaustive", "branch-and-bound"],
        default="auto",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ties", action="store_true", help="also enumerate all optima")
    p.add_argument("--no-rule-forbid", action="store_true")
    p.add_argument("--rule-neighborhood", action="store_true")
    p.add_argument("--exhaustive-edges", type=int)
    p.add_argument("--bnb-edges", type=int)
    p.add_argument("--ties-edges", type=int)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("partite", help="best k-partition by cross-part pattern count")
    p.add_argument("--graph", required=True)
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", choices=["exact", "local-search"], default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_partite)

    p = sub.add_parser("peel", help="low-degree peel toward a dense core")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--floor", type=int, default=0)
    p.set_defaults(func=cmd_peel)

    p = sub.add_parser("rebuild", help="peel, partition the core, re-insert")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_rebuild)

    p = sub.add_parser("formula", help="closed-form thresholds, predictions, bounds")
    p.add_argument("name", choices=list(_FORMULAS))
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=_fraction)
    p.add_argument("--d", type=_fraction)
    p.add_argument("--eps", type=_fraction)
    p.add_argument("--c", type=_fraction)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("verify", help="run a verification experiment")
    p.add_argument(
        "--claim",
        required=True,
        choices=["extremal-colorable", "near-colorable", "prediction", "dichotomy"],
    )
    p.add_argument("--graph")
    p.add_argument("--forbid")
    p.add_argument("--pattern", default="K2")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--eps", type=_fraction)
    p.add_argument("--gamma", type=_fraction)
    p.add_argument("--engine", default="auto")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", help="append the record (JSON line) to this file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="colorability pass rate across degree fractions")
    p.add_argument("--forbid", required=True)
    p.add_argument("--pattern", default="K2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fractions", type=_fraction_list, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", help="append the record (JSON line) to this file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("replay", help="re-run persisted records and diff")
    p.add_argument("--record", required=True, help="file of JSON-line records")
    p.add_argument("--index", type=int, help="replay only this record (0-based)")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, PatternSyntaxError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
