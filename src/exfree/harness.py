"""Desk-scale verification experiments with persistent, replayable records.

Each operation produces an ExperimentRecord: a self-contained description of
what was asked (spec), what came out (results), and a tri-state verdict per
claim — "holds", "fails", or "unknown" when a size budget stopped the exact
machinery. Records serialize to single JSON lines with sorted keys, so files
of them are append-only logs that diff cleanly. Every number in a record is
recomputable from its spec field alone: graphs are stored as graph6, rationals as
exact "p/q" strings, and per-trial randomness derives from the experiment
seed and the trial index, never from execution order. Timings are recorded
but excluded from replay comparison.

A "fails" verdict always carries a concrete counterexample (graph6 plus edge
list) that validate_failure re-checks from scratch, independent of the solver
that produced it.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence

from .coloring import NO, UNKNOWN, YES, chromatic_number, is_edge_critical, is_k_colorable
from .counting import Pattern, contains, count_pattern, parse_pattern
from .errors import BudgetExceededError
from .formulas import predict_ex_blowup, predict_ex_clique
from .graph6 import from_graph6, to_graph6
from .graphs import Graph, complete, min_degree_floor, min_degree_random
from .rng import trial_seed
from .solver import (
    DEFAULT_BUDGETS,
    Budgets,
    enumerate_maximal_hfree,
    enumerate_optima,
    max_hfree_subgraph,
    max_partite,
    rebuild,
)

RECORD_VERSION = 1

HOLDS = "holds"
FAILS = "fails"

# the keys of a record line, as to_json_line writes them
_RECORD_FIELDS = ("version", "experiment_id", "kind", "spec", "results", "verdicts", "timings")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _frac_str(x) -> str:
    return str(_frac(x))


def _edge_list(edges: Iterable[tuple[int, int]]) -> list[list[int]]:
    return [[u, v] for u, v in edges]


def _graph_payload(edges: Sequence[tuple[int, int]], n: int) -> dict[str, Any]:
    g = Graph.from_edges(n, edges)
    return {"graph6": to_graph6(g), "edges": _edge_list(sorted(edges))}


@dataclass(frozen=True)
class ExperimentRecord:
    """One experiment: inputs, outputs, claim verdicts, and wall-clock data."""

    experiment_id: str
    kind: str
    spec: dict[str, Any]
    results: dict[str, Any]
    verdicts: dict[str, str]
    timings: dict[str, float]
    version: int = RECORD_VERSION

    def to_json_line(self) -> str:
        payload = {
            "version": self.version,
            "experiment_id": self.experiment_id,
            "kind": self.kind,
            "spec": self.spec,
            "results": self.results,
            "verdicts": self.verdicts,
            "timings": self.timings,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "ExperimentRecord":
        """Parse one record line; ValueError if it is not a record this
        version of the package can replay."""
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError("record line is not a JSON object")
        missing = [f for f in _RECORD_FIELDS if f not in d]
        if missing:
            raise ValueError(f"record lacks field(s) {', '.join(missing)}")
        if d["version"] != RECORD_VERSION:
            raise ValueError(
                f"record version {d['version']!r} is not supported (expected {RECORD_VERSION})"
            )
        return cls(**{f: d[f] for f in _RECORD_FIELDS})

    def comparable(self) -> str:
        """Canonical serialization of everything replay must reproduce
        (timings excluded — wall-clock is not part of the result)."""
        payload = {"kind": self.kind, "spec": self.spec,
                   "results": self.results, "verdicts": self.verdicts}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _experiment_id(kind: str, spec: dict[str, Any]) -> str:
    blob = json.dumps({"kind": kind, "spec": spec}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def _record(kind: str, spec, results, verdicts, timings) -> ExperimentRecord:
    return ExperimentRecord(_experiment_id(kind, spec), kind, spec, results, verdicts, timings)


def append_record(path: str, record: ExperimentRecord) -> None:
    """Append one record line; existing lines are never touched."""
    with open(path, "a", encoding="ascii") as fh:
        fh.write(record.to_json_line() + "\n")


def load_records(path: str) -> list[ExperimentRecord]:
    """Every record in a JSON-lines file; ValueError names the first bad line."""
    out = []
    with open(path, encoding="ascii") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    out.append(ExperimentRecord.from_json_line(line))
                except ValueError as exc:
                    raise ValueError(f"{path} line {number}: {exc}") from exc
    return out


def _parallel_map(fn: Callable, items: Sequence, threads: int) -> list:
    """Order-preserving map; results land in slots by input index, so the
    output is identical for any worker count."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    out = [None] * len(items)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(fn, item): i for i, item in enumerate(items)}
        for fut in futures:
            out[futures[fut]] = fut.result()
    return out


# ---------------------------------------------------------------------------
# shared solve-and-color bundle


def _solve_and_color(
    g: Graph, h: Graph, t: Pattern, k: int, budgets: Budgets, engine: str = "auto"
) -> dict[str, Any]:
    """Exact solve, witness colorability, and (when in budget) the tie sweep.

    Returns a JSON-safe dict. On budget exhaustion the dict carries
    status="unknown" plus the reason instead of numbers.
    """
    try:
        res = max_hfree_subgraph(g, t, h, "exact", engine=engine, budgets=budgets)
    except BudgetExceededError as exc:
        return {"status": "unknown", "reason": str(exc)}
    witness = Graph.from_edges(g.n, res.best_edges)
    outcome = is_k_colorable(witness, k - 1, canonical=True)
    colorable = outcome.status == YES

    ties_checked = False
    num_optima = None
    all_colorable = None
    bad_edges = None
    if g.edge_count() <= budgets.ties_edges:
        ties_checked = True
        _, optima = enumerate_optima(g, t, h, budgets=budgets)
        num_optima = len(optima)
        all_colorable = True
        for edge_set in optima:
            tie_graph = Graph.from_edges(g.n, edge_set)
            if is_k_colorable(tie_graph, k - 1, canonical=True).status != YES:
                all_colorable = False
                bad_edges = edge_set
                break

    if not colorable:
        bad_edges = res.best_edges

    bundle: dict[str, Any] = {
        "status": "ok",
        "optimum": res.best_count,
        "proof": res.proof,
        "witness": _graph_payload(res.best_edges, g.n),
        "witness_colorable": colorable,
        "witness_coloring": list(outcome.witness) if colorable else None,
        "ties_checked": ties_checked,
        "num_optima": num_optima,
        "all_optima_colorable": all_colorable,
    }
    if bad_edges is not None:
        bundle["counterexample"] = _counterexample(g.n, bad_edges, res.best_count, k - 1)
    return bundle


def _counterexample(n: int, edges, count: int, colors: int) -> dict[str, Any]:
    payload = _graph_payload(edges, n)
    payload["count"] = count
    payload["colors_refuted"] = colors
    return payload


def _verdict_from_bundle(bundle: dict[str, Any]) -> str:
    if bundle["status"] != "ok":
        return UNKNOWN
    ok = bundle["witness_colorable"]
    if bundle["ties_checked"]:
        ok = ok and bundle["all_optima_colorable"]
    return HOLDS if ok else FAILS


# ---------------------------------------------------------------------------
# experiments


def verify_extremal_colorable(
    g: Graph,
    h: Graph,
    t: Pattern,
    k: int,
    *,
    eps: Fraction | int | str | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
    engine: str = "auto",
) -> ExperimentRecord:
    """Exact extremal h-free subgraph of g; is the witness (k-1)-colorable?

    Records the forbidden graph's chromatic number and edge-criticality, and —
    when a degree fraction eps is supplied — whether the host meets the
    minimum-degree hypothesis delta(g) >= (1-eps)*n, so a "fails" verdict on a
    host outside the hypothesis is reported as a finding about the hypothesis,
    not a refutation. When the host is small enough to enumerate every
    count-maximal subgraph, colorability of all of them is recorded too.
    """
    started = time.perf_counter()
    eps_frac = None if eps is None else _frac(eps)
    spec = {
        "host": to_graph6(g),
        "forbidden": to_graph6(h),
        "pattern": t.literal(),
        "k": k,
        "eps": None if eps_frac is None else _frac_str(eps_frac),
        "engine": engine,
        "budgets": asdict(budgets),
    }

    chi = chromatic_number(h).chromatic_number
    critical, crit_edge = is_edge_critical(h)
    bundle = _solve_and_color(g, h, t, k, budgets, engine)

    hypothesis_met = None
    if eps_frac is not None and g.n > 0:
        hypothesis_met = g.min_degree() >= (1 - eps_frac) * g.n

    results: dict[str, Any] = {
        "n": g.n,
        "host_edges": g.edge_count(),
        "host_count": count_pattern(g, t),
        "min_degree": g.min_degree() if g.n else 0,
        "chi_forbidden": chi,
        "chi_matches_k": chi == k,
        "forbidden_edge_critical": critical,
        "critical_edge": list(crit_edge) if crit_edge else None,
        "hypothesis_met": hypothesis_met,
        "solve": bundle,
    }
    if bundle["status"] == "ok" and k >= 2:
        reb = rebuild(g, k, t, h, budgets=budgets)
        results["rebuild_count"] = reb.best_count
        results["rebuild_notes"] = list(reb.notes)

    verdicts = {"witness-colorable": _verdict_from_bundle(bundle)}
    if bundle["status"] == "ok" and bundle["ties_checked"]:
        verdicts["all-optima-colorable"] = HOLDS if bundle["all_optima_colorable"] else FAILS
    elif bundle["status"] == "ok":
        verdicts["all-optima-colorable"] = UNKNOWN

    timings = {"total_s": time.perf_counter() - started}
    return _record("extremal-colorable", spec, results, verdicts, timings)


def verify_near_colorable(
    g: Graph,
    h: Graph,
    t: Pattern,
    k: int,
    *,
    budgets: Budgets = DEFAULT_BUDGETS,
    engine: str = "auto",
) -> ExperimentRecord:
    """How many edge deletions take the exact extremal witness to
    (k-1)-colorable?

    The distance is e(witness) minus the maximum cross-part edge count over
    (k-1)-partitions of the witness. With the exact partitioner that is the
    true minimum; past the size budget a local-search partition gives only an
    upper bound and the verdict degrades to unknown.
    """
    started = time.perf_counter()
    spec = {
        "host": to_graph6(g),
        "forbidden": to_graph6(h),
        "pattern": t.literal(),
        "k": k,
        "engine": engine,
        "budgets": asdict(budgets),
    }
    bundle = _solve_and_color(g, h, t, k, budgets, engine)
    results: dict[str, Any] = {"n": g.n, "solve": bundle}
    verdicts: dict[str, str] = {}

    if bundle["status"] != "ok":
        verdicts["deletion-distance"] = UNKNOWN
        verdicts["within-edge-bound"] = UNKNOWN
    else:
        witness = Graph.from_edges(g.n, [tuple(e) for e in bundle["witness"]["edges"]])
        edge_pattern = Pattern.clique(2)
        if witness.n <= budgets.partite_exact_n:
            part, kept = max_partite(witness, k - 1, edge_pattern, "exact", budgets=budgets)
            exact_partite = True
        else:
            part, kept = max_partite(
                witness, k - 1, edge_pattern, "local-search", budgets=budgets
            )
            exact_partite = False
        deletions = witness.edge_count() - kept
        results.update(
            {
                "witness_edges_total": witness.edge_count(),
                "partite_kept_edges": kept,
                "partite_exact": exact_partite,
                "deletions": deletions,
                "deletion_ratio_to_n2": _frac_str(Fraction(deletions, g.n * g.n))
                if g.n
                else "0",
                "partition": [list(pair) for pair in part.assignment],
            }
        )
        verdicts["deletion-distance"] = HOLDS if exact_partite else UNKNOWN
        verdicts["within-edge-bound"] = (
            HOLDS if 0 <= deletions <= witness.edge_count() else FAILS
        )

    timings = {"total_s": time.perf_counter() - started}
    return _record("near-colorable", spec, results, verdicts, timings)


def compare_prediction(
    n_range: Sequence[int],
    k: int,
    m: int,
    t: int,
    h: Graph,
    *,
    budgets: Budgets = DEFAULT_BUDGETS,
    threads: int = 1,
) -> ExperimentRecord:
    """Exact extremal counts on complete hosts against the closed-form
    prediction — clique-shaped patterns when t == 1, blow-ups otherwise.

    Emits one row per n with the exact value, the prediction as an exact
    rational, and their ratio; rows whose exact solve runs out of budget are
    marked unknown and left in the table.
    """
    started = time.perf_counter()
    ns = list(n_range)
    pattern = Pattern.clique(m) if t == 1 else Pattern.blowup(m, t)
    spec = {
        "n_range": ns,
        "k": k,
        "m": m,
        "t": t,
        "forbidden": to_graph6(h),
        "pattern": pattern.literal(),
        "budgets": asdict(budgets),
    }

    def row(n: int) -> dict[str, Any]:
        prediction = (
            predict_ex_clique(n, k, m) if t == 1 else predict_ex_blowup(n, m, t)
        )
        out: dict[str, Any] = {"n": n, "prediction": _frac_str(prediction)}
        try:
            res = max_hfree_subgraph(complete(n), pattern, h, "exact", budgets=budgets)
        except BudgetExceededError as exc:
            out.update({"status": "unknown", "reason": str(exc)})
            return out
        ratio = None if prediction == 0 else Fraction(res.best_count) / prediction
        out.update(
            {
                "status": "ok",
                "exact": res.best_count,
                "ratio": None if ratio is None else _frac_str(ratio),
                "proof": res.proof,
            }
        )
        return out

    rows = _parallel_map(row, ns, threads)
    all_ok = all(r["status"] == "ok" for r in rows)
    results = {"rows": rows}
    verdicts = {"table-complete": HOLDS if all_ok else UNKNOWN}
    timings = {"total_s": time.perf_counter() - started}
    return _record("prediction-table", spec, results, verdicts, timings)


def threshold_scan(
    h: Graph,
    t: Pattern,
    k: int,
    n: int,
    fractions: Sequence[Fraction | int | str],
    trials: int,
    seed: int,
    *,
    budgets: Budgets = DEFAULT_BUDGETS,
    threads: int = 1,
) -> ExperimentRecord:
    """Colorability pass rates of exact optima over random hosts with a
    minimum-degree floor swept across degree fractions.

    For each fraction phi, `trials` hosts are generated with minimum degree at
    least min(ceil(phi*n), n-1); each host's exact extremal h-free subgraph is
    tested for (k-1)-colorability (all optima when ties fit the budget, else
    the canonical witness). Per-trial seeds derive from (seed, global trial
    index), so the scan is reproducible trial-for-trial regardless of thread
    count. Trials that exceed budgets are verdict "unknown" and excluded from
    the rate, with their count reported alongside.
    """
    started = time.perf_counter()
    if trials < 1:
        raise ValueError(f"need at least one trial per fraction, got {trials}")
    fracs = [_frac(x) for x in fractions]
    for phi in fracs:
        if not 0 <= phi <= 1:
            raise ValueError(f"degree fraction {phi} outside [0, 1]")
    spec = {
        "forbidden": to_graph6(h),
        "pattern": t.literal(),
        "k": k,
        "n": n,
        "fractions": [_frac_str(phi) for phi in fracs],
        "trials": trials,
        "seed": seed,
        "budgets": asdict(budgets),
    }

    # generate every trial graph up front; identical graphs share one solve
    trial_graphs: list[tuple[int, int, Graph]] = []  # (fraction idx, seed, graph)
    for fi, phi in enumerate(fracs):
        eps = 1 - phi
        for ti in range(trials):
            s = trial_seed(seed, fi * trials + ti)
            trial_graphs.append((fi, s, min_degree_random(n, eps, seed=s)))

    unique: dict[tuple[int, ...], int] = {}
    unique_graphs: list[Graph] = []
    for _, _, g in trial_graphs:
        if g.adj not in unique:
            unique[g.adj] = len(unique_graphs)
            unique_graphs.append(g)

    bundles = _parallel_map(
        lambda g: _solve_and_color(g, h, t, k, budgets), unique_graphs, threads
    )

    fraction_rows: list[dict[str, Any]] = []
    cursor = 0
    any_unknown = False
    for fi, phi in enumerate(fracs):
        eps = 1 - phi
        rows = []
        passing = 0
        failing = 0
        unknown = 0
        for ti in range(trials):
            _, s, g = trial_graphs[cursor]
            cursor += 1
            bundle = bundles[unique[g.adj]]
            verdict = _verdict_from_bundle(bundle)
            row: dict[str, Any] = {
                "trial": ti,
                "seed": s,
                "graph6": to_graph6(g),
                "min_degree": g.min_degree() if g.n else 0,
                "verdict": verdict,
            }
            if bundle["status"] == "ok":
                row.update(
                    {
                        "optimum": bundle["optimum"],
                        "witness_graph6": bundle["witness"]["graph6"],
                        "witness_colorable": bundle["witness_colorable"],
                        "ties_checked": bundle["ties_checked"],
                        "num_optima": bundle["num_optima"],
                        "all_optima_colorable": bundle["all_optima_colorable"],
                    }
                )
                if "counterexample" in bundle:
                    row["counterexample"] = bundle["counterexample"]
            else:
                row["reason"] = bundle["reason"]
            if verdict == HOLDS:
                passing += 1
            elif verdict == FAILS:
                failing += 1
            else:
                unknown += 1
                any_unknown = True
            rows.append(row)
        decided = passing + failing
        fraction_rows.append(
            {
                "fraction": _frac_str(phi),
                "eps": _frac_str(eps),
                "floor": min_degree_floor(n, eps),
                "passing": passing,
                "failing": failing,
                "unknown": unknown,
                "rate": _frac_str(Fraction(passing, decided)) if decided else None,
                "trials": rows,
            }
        )

    results = {"n": n, "fractions": fraction_rows}
    verdicts = {"completed": UNKNOWN if any_unknown else HOLDS}
    timings = {"total_s": time.perf_counter() - started}
    return _record("threshold-scan", spec, results, verdicts, timings)


def verify_dichotomy(
    g: Graph,
    k: int,
    t: Pattern,
    gamma: Fraction | int | str,
    *,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExperimentRecord:
    """Count-ratio versus distance-to-(k-1)-partite over every maximal
    K_k-free spanning subgraph of g — the empirical trade-off frontier.

    For each maximal subgraph the record notes whether its pattern count is
    within the factor gamma of the optimum (the "small count" side) and how
    many edge deletions take it to (k-1)-partite (the "near partite" side).
    The record reports the frontier; it asserts nothing beyond data
    completeness, which is what the verdict tracks.
    """
    started = time.perf_counter()
    gamma_frac = _frac(gamma)
    h = complete(k)
    spec = {
        "host": to_graph6(g),
        "k": k,
        "pattern": t.literal(),
        "gamma": _frac_str(gamma_frac),
        "budgets": asdict(budgets),
    }
    verdicts: dict[str, str] = {}
    results: dict[str, Any] = {"n": g.n}
    try:
        best = max_hfree_subgraph(g, t, h, "exact", budgets=budgets)
        subgraphs = enumerate_maximal_hfree(g, h, budgets=budgets)
    except BudgetExceededError as exc:
        results["reason"] = str(exc)
        verdicts["frontier-complete"] = UNKNOWN
        timings = {"total_s": time.perf_counter() - started}
        return _record("dichotomy", spec, results, verdicts, timings)

    optimum = best.best_count
    edge_pattern = Pattern.clique(2)
    rows = []
    incomplete = False
    for edge_set in subgraphs:
        sub = Graph.from_edges(g.n, edge_set)
        cnt = count_pattern(sub, t)
        ratio = Fraction(cnt, optimum) if optimum else None
        small_count = (ratio is not None and ratio <= gamma_frac) or cnt == 0
        row: dict[str, Any] = {
            "graph6": to_graph6(sub),
            "edge_count": len(edge_set),
            "count": cnt,
            "ratio": None if ratio is None else _frac_str(ratio),
            "count_within_gamma": small_count,
        }
        if sub.n <= budgets.partite_exact_n:
            _, kept = max_partite(sub, k - 1, edge_pattern, "exact", budgets=budgets)
            row["deletion_distance"] = len(edge_set) - kept
        else:
            incomplete = True
            row["deletion_distance"] = None
        rows.append(row)

    results.update(
        {
            "optimum": optimum,
            "optimum_witness": _graph_payload(best.best_edges, g.n),
            "maximal_subgraphs": len(subgraphs),
            "frontier": rows,
        }
    )
    verdicts["frontier-complete"] = UNKNOWN if incomplete else HOLDS
    timings = {"total_s": time.perf_counter() - started}
    return _record("dichotomy", spec, results, verdicts, timings)


# ---------------------------------------------------------------------------
# replay and failure validation


def replay(record: ExperimentRecord, *, threads: int = 1) -> tuple[bool, ExperimentRecord]:
    """Re-run a record's spec and report whether the reproducible fields
    (spec, results, verdicts) came back identical. Timings never count."""
    fresh = _rerun(record, threads)
    return fresh.comparable() == record.comparable(), fresh


def _budgets_from(spec: dict[str, Any]) -> Budgets:
    return Budgets(**spec["budgets"])


def _rerun(record: ExperimentRecord, threads: int) -> ExperimentRecord:
    kind = record.kind
    spec = record.spec
    budgets = _budgets_from(spec)
    if kind == "extremal-colorable":
        return verify_extremal_colorable(
            from_graph6(spec["host"]),
            from_graph6(spec["forbidden"]),
            parse_pattern(spec["pattern"]),
            spec["k"],
            eps=spec["eps"],
            budgets=budgets,
            engine=spec["engine"],
        )
    if kind == "near-colorable":
        return verify_near_colorable(
            from_graph6(spec["host"]),
            from_graph6(spec["forbidden"]),
            parse_pattern(spec["pattern"]),
            spec["k"],
            budgets=budgets,
            engine=spec["engine"],
        )
    if kind == "prediction-table":
        return compare_prediction(
            spec["n_range"],
            spec["k"],
            spec["m"],
            spec["t"],
            from_graph6(spec["forbidden"]),
            budgets=budgets,
            threads=threads,
        )
    if kind == "threshold-scan":
        return threshold_scan(
            from_graph6(spec["forbidden"]),
            parse_pattern(spec["pattern"]),
            spec["k"],
            spec["n"],
            spec["fractions"],
            spec["trials"],
            spec["seed"],
            budgets=budgets,
            threads=threads,
        )
    if kind == "dichotomy":
        return verify_dichotomy(
            from_graph6(spec["host"]),
            spec["k"],
            parse_pattern(spec["pattern"]),
            spec["gamma"],
            budgets=budgets,
        )
    raise ValueError(f"unknown record kind {kind!r}")


def validate_failure(record: ExperimentRecord) -> tuple[bool, list[str]]:
    """Re-check every counterexample attached to a "fails" verdict, from
    scratch: the graph6 string decodes to the stated edges, the subgraph
    avoids the forbidden graph, its pattern count matches, and it really is
    not colorable with the stated number of colors. Returns (all valid,
    per-check messages); a record with no failures validates vacuously.
    """
    h = from_graph6(record.spec["forbidden"])
    t = parse_pattern(record.spec["pattern"])
    messages: list[str] = []
    ok = True

    def check(ce: dict[str, Any], label: str):
        nonlocal ok
        g = from_graph6(ce["graph6"])
        edges = [tuple(e) for e in ce["edges"]]
        problems = []
        if sorted(g.edges()) != sorted(edges):
            problems.append("edge list does not match graph6")
        if contains(g, h):
            problems.append("counterexample contains the forbidden graph")
        if count_pattern(g, t) != ce["count"]:
            problems.append("pattern count mismatch")
        if is_k_colorable(g, ce["colors_refuted"]).status != NO:
            problems.append(f"graph is {ce['colors_refuted']}-colorable after all")
        if problems:
            ok = False
            messages.append(f"{label}: " + "; ".join(problems))
        else:
            messages.append(f"{label}: validated")

    if record.kind in ("extremal-colorable", "near-colorable"):
        bundle = record.results.get("solve", {})
        if "counterexample" in bundle:
            check(bundle["counterexample"], "solve")
    elif record.kind == "threshold-scan":
        for frow in record.results["fractions"]:
            for trow in frow["trials"]:
                if "counterexample" in trow:
                    check(
                        trow["counterexample"],
                        f"fraction {frow['fraction']} trial {trow['trial']}",
                    )
    return ok, messages
