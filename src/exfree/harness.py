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

One table, _KINDS, holds each record kind's spec format: its fields, each
with one codec that writes it to JSON and reads it back, and the constant
fields every spec of the kind carries. An experiment function and replay run
the same path, _run, so a record replays through the code that wrote it.
Replay checks every spec field's JSON type (and that a rational is "p/q"
with q > 0) before it runs anything; a missing or malformed field raises
ValueError, which the command line reports with exit status 1.

A "fails" verdict always carries a concrete counterexample (graph6 plus edge
list) that validate_failure re-checks from scratch, independent of the solver
that produced it.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
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
    check_witness,
    enumerate_maximal_hfree,
    enumerate_optima,
    max_hfree_subgraph,
    max_partite,
    rebuild,
    resolve_engine,
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
        payload = {f: getattr(self, f) for f in _RECORD_FIELDS}
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


def append_record(path: str, record: ExperimentRecord) -> None:
    """Append one record line; existing lines are never touched."""
    with open(path, "a", encoding="ascii") as fh:
        fh.write(record.to_json_line() + "\n")


def load_records(path: str, index: int | None = None) -> list[ExperimentRecord]:
    """Every record in a JSON-lines file, or, given an index (negative ones
    count from the end), a list of the one record there. Only the records
    returned are decoded and parsed, so a bad line elsewhere goes unread.
    ValueError names the first bad line parsed; IndexError, an index past
    the records, says how many the file holds."""
    with open(path, "rb") as fh:
        lines = [(number, raw) for number, raw in enumerate(fh, 1) if raw.strip()]
    if index is not None:
        if not -len(lines) <= index < len(lines):
            raise IndexError(f"{path} holds {len(lines)} record(s)")
        lines = [lines[index]]
    out = []
    for number, raw in lines:
        try:
            out.append(ExperimentRecord.from_json_line(raw.decode("ascii").strip()))
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# shared solve-and-color bundle


def _solve_and_color(g: Graph, h: Graph, t: Pattern, k: int, budgets: Budgets) -> dict[str, Any]:
    """Exact optimum, witness colorability and, when the host fits the tie
    budget, colorability of every optimum.

    A host within the tie budget is searched once: enumerate_optima gives the
    optimum and every optimal edge set, and the first of them, the lex-least,
    is the witness max_hfree_subgraph returns. Both paths give the proof
    "branch-and-bound", and a host past bnb_edges is unknown on both. Each
    optimum is colored once, witness first.

    Returns a JSON-safe dict. On budget exhaustion the dict carries
    status="unknown" plus the reason instead of numbers. ValueError for
    k < 2: (k-1)-colorability then asks for fewer than one color."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    ties_checked = g.edge_count() <= budgets.ties_edges
    try:
        if ties_checked:
            proof = resolve_engine(g.edge_count(), h, budgets)
            optimum, optima = enumerate_optima(g, t, h, budgets=budgets)
            check_witness(g, t, optimum, optima[0])
        else:
            res = max_hfree_subgraph(g, t, h, "exact", budgets=budgets)
            optimum, proof, optima = res.best_count, res.proof, [res.best_edges]
    except BudgetExceededError as exc:
        return {"status": "unknown", "reason": str(exc)}
    witness = optima[0]
    outcome = is_k_colorable(Graph.from_edges(g.n, witness), k - 1, canonical=True)
    colorable = outcome.status == YES
    bad_edges = None if colorable else witness
    if colorable and ties_checked:
        for edge_set in optima[1:]:
            tie_graph = Graph.from_edges(g.n, edge_set)
            if is_k_colorable(tie_graph, k - 1, canonical=True).status != YES:
                bad_edges = edge_set
                break

    bundle: dict[str, Any] = {
        "status": "ok",
        "optimum": optimum,
        "proof": proof,
        "witness": _graph_payload(witness, g.n),
        "witness_colorable": colorable,
        "witness_coloring": list(outcome.witness) if colorable else None,
        "ties_checked": ties_checked,
        "num_optima": len(optima) if ties_checked else None,
        "all_optima_colorable": bad_edges is None if ties_checked else None,
    }
    if bad_edges is not None:
        bundle["counterexample"] = _counterexample(g.n, bad_edges, optimum, k - 1)
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
# experiments: each public function normalises its arguments and passes them
# to _run as spec fields; replay reads the same fields back from a spec


def verify_extremal_colorable(
    g: Graph,
    h: Graph,
    t: Pattern,
    k: int,
    *,
    eps: Fraction | int | str | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExperimentRecord:
    """Exact extremal h-free subgraph of g; is the witness (k-1)-colorable?

    Records the forbidden graph's chromatic number and edge-criticality, and —
    when a degree fraction eps is supplied — whether the host meets the
    minimum-degree hypothesis delta(g) >= (1-eps)*n, so a "fails" verdict on a
    host outside the hypothesis is reported as a finding about the hypothesis,
    not a refutation. When the host is small enough to enumerate every
    count-maximal subgraph, colorability of all of them is recorded too.
    """
    return _run("extremal-colorable", host=g, forbidden=h, pattern=t, k=k,
                eps=None if eps is None else _frac(eps), budgets=budgets)


def _extremal_colorable(host, forbidden, pattern, k, eps, budgets):
    chi = chromatic_number(forbidden).chromatic_number
    critical, crit_edge = is_edge_critical(forbidden)
    bundle = _solve_and_color(host, forbidden, pattern, k, budgets)

    hypothesis_met = None
    if eps is not None and host.n > 0:
        hypothesis_met = host.min_degree() >= (1 - eps) * host.n

    results: dict[str, Any] = {
        "n": host.n,
        "host_edges": host.edge_count(),
        "host_count": count_pattern(host, pattern),
        "min_degree": host.min_degree() if host.n else 0,
        "chi_forbidden": chi,
        "chi_matches_k": chi == k,
        "forbidden_edge_critical": critical,
        "critical_edge": list(crit_edge) if crit_edge else None,
        "hypothesis_met": hypothesis_met,
        "solve": bundle,
    }
    if bundle["status"] == "ok":
        reb = rebuild(host, k, pattern, forbidden, budgets=budgets)
        results["rebuild_count"] = reb.best_count
        results["rebuild_notes"] = list(reb.notes)

    verdicts = {"witness-colorable": _verdict_from_bundle(bundle)}
    if bundle["status"] == "ok" and bundle["ties_checked"]:
        verdicts["all-optima-colorable"] = HOLDS if bundle["all_optima_colorable"] else FAILS
    elif bundle["status"] == "ok":
        verdicts["all-optima-colorable"] = UNKNOWN
    return results, verdicts


def verify_near_colorable(
    g: Graph,
    h: Graph,
    t: Pattern,
    k: int,
    *,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExperimentRecord:
    """How many edge deletions take the exact extremal witness to
    (k-1)-colorable?

    The distance is e(witness) minus the maximum cross-part edge count over
    (k-1)-partitions of the witness. With the exact partitioner that is the
    true minimum; past the size budget a local-search partition gives only an
    upper bound and the verdict degrades to unknown.
    """
    return _run("near-colorable", host=g, forbidden=h, pattern=t, k=k, budgets=budgets)


def _near_colorable(host, forbidden, pattern, k, budgets):
    n = host.n
    bundle = _solve_and_color(host, forbidden, pattern, k, budgets)
    results: dict[str, Any] = {"n": n, "solve": bundle}
    if bundle["status"] != "ok":
        return results, {"deletion-distance": UNKNOWN, "within-edge-bound": UNKNOWN}

    witness = Graph.from_edges(n, [tuple(e) for e in bundle["witness"]["edges"]])
    exact_partite = witness.n <= budgets.partite_exact_n
    part, kept = max_partite(
        witness, k - 1, Pattern.clique(2), "exact" if exact_partite else "local-search",
        budgets=budgets,
    )
    deletions = witness.edge_count() - kept
    results.update(
        {
            "witness_edges_total": witness.edge_count(),
            "partite_kept_edges": kept,
            "partite_exact": exact_partite,
            "deletions": deletions,
            "deletion_ratio_to_n2": _frac_str(Fraction(deletions, n * n)) if n else "0",
            "partition": [list(pair) for pair in part.assignment],
        }
    )
    verdicts = {
        "deletion-distance": HOLDS if exact_partite else UNKNOWN,
        "within-edge-bound": HOLDS if 0 <= deletions <= witness.edge_count() else FAILS,
    }
    return results, verdicts


def compare_prediction(
    n_range: Sequence[int],
    k: int,
    m: int,
    t: int,
    h: Graph,
    *,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExperimentRecord:
    """Exact extremal counts on complete hosts against the closed-form
    prediction — clique-shaped patterns when t == 1, blow-ups otherwise.

    Emits one row per n with the exact value, the prediction as an exact
    rational, and their ratio; rows whose exact solve runs out of budget are
    marked unknown and left in the table.
    """
    pattern = Pattern.clique(m) if t == 1 else Pattern.blowup(m, t)
    return _run("prediction-table", n_range=list(n_range), k=k, m=m, t=t, forbidden=h,
                pattern=pattern, budgets=budgets)


def _prediction_table(n_range, k, m, t, forbidden, pattern, budgets):
    if not n_range:
        raise ValueError("need at least one host size n")
    def row(n: int) -> dict[str, Any]:
        prediction = (
            predict_ex_clique(n, k, m) if t == 1 else predict_ex_blowup(n, m, t)
        )
        out: dict[str, Any] = {"n": n, "prediction": _frac_str(prediction)}
        try:
            # K_n's n(n - 1)/2 edges meet the edge budget before K_n is built
            resolve_engine(n * (n - 1) // 2, forbidden, budgets)
            res = max_hfree_subgraph(complete(n), pattern, forbidden, "exact", budgets=budgets)
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

    rows = [row(n) for n in n_range]
    all_ok = all(r["status"] == "ok" for r in rows)
    return {"rows": rows}, {"table-complete": HOLDS if all_ok else UNKNOWN}


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
) -> ExperimentRecord:
    """Colorability pass rates of exact optima over random hosts with a
    minimum-degree floor swept across degree fractions.

    For each fraction phi, `trials` hosts are generated with minimum degree at
    least min(ceil(phi*n), n-1); each host's exact extremal h-free subgraph is
    tested for (k-1)-colorability (all optima when ties fit the budget, else
    the canonical witness). Per-trial seeds derive from (seed, global trial
    index), so the scan is reproducible trial-for-trial. Trials that exceed
    budgets are verdict "unknown" and excluded from the rate, with their
    count reported alongside.
    """
    return _run("threshold-scan", forbidden=h, pattern=t, k=k, n=n,
                fractions=[_frac(x) for x in fractions], trials=trials, seed=seed,
                budgets=budgets)


def _threshold_scan(forbidden, pattern, k, n, fractions, trials, seed, budgets):
    if trials < 1:
        raise ValueError(f"need at least one trial per fraction, got {trials}")
    if not fractions:
        raise ValueError("need at least one degree fraction")
    for phi in fractions:
        if not 0 <= phi <= 1:
            raise ValueError(f"degree fraction {phi} outside [0, 1]")

    # identical hosts share one solve, made when the host first occurs
    bundles: dict[tuple[int, ...], dict[str, Any]] = {}
    fraction_rows: list[dict[str, Any]] = []
    for fi, phi in enumerate(fractions):
        eps = 1 - phi
        rows = []
        tally = {HOLDS: 0, FAILS: 0, UNKNOWN: 0}
        for ti in range(trials):
            s = trial_seed(seed, fi * trials + ti)
            g = min_degree_random(n, eps, seed=s)
            bundle = bundles.get(g.adj)
            if bundle is None:
                bundle = bundles[g.adj] = _solve_and_color(g, forbidden, pattern, k, budgets)
            verdict = _verdict_from_bundle(bundle)
            tally[verdict] += 1
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
            rows.append(row)
        passing, failing, unknown = tally[HOLDS], tally[FAILS], tally[UNKNOWN]
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

    any_unknown = any(row["unknown"] for row in fraction_rows)
    return {"n": n, "fractions": fraction_rows}, {"completed": UNKNOWN if any_unknown else HOLDS}


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
    return _run("dichotomy", host=g, k=k, pattern=t, gamma=_frac(gamma), budgets=budgets)


def _dichotomy(host, k, pattern, gamma, budgets):
    h = complete(k)
    results: dict[str, Any] = {"n": host.n}
    try:
        best = max_hfree_subgraph(host, pattern, h, "exact", budgets=budgets)
        subgraphs = enumerate_maximal_hfree(host, h, budgets=budgets)
    except BudgetExceededError as exc:
        results["reason"] = str(exc)
        return results, {"frontier-complete": UNKNOWN}

    optimum = best.best_count
    edge_pattern = Pattern.clique(2)
    rows = []
    incomplete = False
    for edge_set in subgraphs:
        sub = Graph.from_edges(host.n, edge_set)
        cnt = count_pattern(sub, pattern)
        ratio = Fraction(cnt, optimum) if optimum else None
        small_count = (ratio is not None and ratio <= gamma) or cnt == 0
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
            "optimum_witness": _graph_payload(best.best_edges, host.n),
            "maximal_subgraphs": len(subgraphs),
            "frontier": rows,
        }
    )
    return results, {"frontier-complete": UNKNOWN if incomplete else HOLDS}


# ---------------------------------------------------------------------------
# the spec table: each kind's compute function and its spec fields, each
# field with the codec that writes it to JSON and reads it back. Readers
# raise TypeError or ValueError on a malformed value. Codecs reach to_graph6,
# from_graph6 and parse_pattern through this module's globals when called,
# so rebinding those names (as a tracer does) covers the spec too.


@dataclass(frozen=True)
class _Codec:
    write: Callable[[Any], Any]
    read: Callable[[Any, str], Any]  # (JSON value, field name) -> value


def _spec_str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {value!r}")
    return value


def _spec_int(value: Any, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _spec_list(value: Any, name: str, read: Callable[[Any, str], Any]) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list, got {value!r}")
    return [read(x, f"{name} entry") for x in value]


# the forms str(Fraction) writes: an integer, or p/q
_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _spec_frac(value: Any, name: str) -> Fraction:
    if _RATIONAL_RE.fullmatch(_spec_str(value, name)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{name} must be a rational p/q with q > 0, got {value!r}")


# guards of the retired exhaustive engine, written into every spec with their
# last defaults so that experiment ids stay the same, and ignored when read
_LEGACY_BUDGETS = {"exhaustive_edges": 28, "auto_exhaustive_max": 14}


def _spec_budgets(value: Any, name: str) -> Budgets:
    if not isinstance(value, dict):
        raise TypeError(f"{name} must be an object, got {value!r}")
    fields = {key: _spec_int(v, f"{name}.{key}") for key, v in value.items()}
    return Budgets(**{key: v for key, v in fields.items() if key not in _LEGACY_BUDGETS})


_GRAPH = _Codec(lambda g: to_graph6(g), lambda v, name: from_graph6(_spec_str(v, name)))
_PATTERN = _Codec(lambda t: t.literal(), lambda v, name: parse_pattern(_spec_str(v, name)))
_INT = _Codec(lambda v: v, _spec_int)
_RATIONAL = _Codec(_frac_str, _spec_frac)
_OPTIONAL_RATIONAL = _Codec(
    lambda v: None if v is None else _frac_str(v),
    lambda v, name: None if v is None else _spec_frac(v, name),
)
_BUDGETS = _Codec(lambda b: {**asdict(b), **_LEGACY_BUDGETS}, _spec_budgets)
_INTS = _Codec(list, lambda v, name: _spec_list(v, name, _spec_int))
_RATIONALS = _Codec(lambda vs: [_frac_str(v) for v in vs],
                    lambda v, name: _spec_list(v, name, _spec_frac))

# a spec field that names the exact engine, from when a second one could be
# chosen: every spec writes "auto", so experiment ids stay the same, and
# replay checks that it is a string and otherwise ignores it
_ENGINE_FIELD = {"engine": "auto"}

# each kind: its compute, its spec fields in order, and its constant spec
# fields; budgets comes first in every kind, so a spec without it says so first
_KINDS = {
    "extremal-colorable": (_extremal_colorable, (
        ("budgets", _BUDGETS), ("host", _GRAPH), ("forbidden", _GRAPH), ("pattern", _PATTERN),
        ("k", _INT), ("eps", _OPTIONAL_RATIONAL)), _ENGINE_FIELD),
    "near-colorable": (_near_colorable, (
        ("budgets", _BUDGETS), ("host", _GRAPH), ("forbidden", _GRAPH), ("pattern", _PATTERN),
        ("k", _INT)), _ENGINE_FIELD),
    "prediction-table": (_prediction_table, (
        ("budgets", _BUDGETS), ("n_range", _INTS), ("k", _INT), ("m", _INT), ("t", _INT),
        ("forbidden", _GRAPH), ("pattern", _PATTERN)), {}),
    "threshold-scan": (_threshold_scan, (
        ("budgets", _BUDGETS), ("forbidden", _GRAPH), ("pattern", _PATTERN), ("k", _INT),
        ("n", _INT), ("fractions", _RATIONALS), ("trials", _INT), ("seed", _INT)), {}),
    "dichotomy": (_dichotomy, (
        ("budgets", _BUDGETS), ("host", _GRAPH), ("k", _INT), ("pattern", _PATTERN),
        ("gamma", _RATIONAL)), {}),
}


def _run(kind: str, **fields: Any) -> ExperimentRecord:
    """Write the spec from fields, time the kind's compute and build its record."""
    started = time.perf_counter()
    compute, codecs, constants = _KINDS[kind]
    spec = {**constants, **{name: codec.write(fields[name]) for name, codec in codecs}}
    results, verdicts = compute(**fields)
    timings = {"total_s": time.perf_counter() - started}
    return ExperimentRecord(_experiment_id(kind, spec), kind, spec, results, verdicts, timings)


# ---------------------------------------------------------------------------
# replay and failure validation


def replay(record: ExperimentRecord) -> tuple[bool, ExperimentRecord]:
    """Re-run a record's spec and report whether the experiment id and the
    reproducible fields (spec, results, verdicts) came back identical, so a
    record whose id is not the hash of its kind and spec is a mismatch.
    Timings never count. ValueError if the kind is unknown or a spec field
    is missing or malformed."""
    if not isinstance(record.kind, str) or record.kind not in _KINDS:
        raise ValueError(f"unknown record kind {record.kind!r}")
    _, codecs, constants = _KINDS[record.kind]
    try:
        fields = {name: codec.read(record.spec[name], name) for name, codec in codecs}
        for name in constants:
            _spec_str(record.spec[name], name)
    except KeyError as exc:
        raise ValueError(f"record {record.experiment_id} spec lacks field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"record {record.experiment_id} spec is malformed: {exc}") from exc
    fresh = _run(record.kind, **fields)
    same = fresh.experiment_id == record.experiment_id and fresh.comparable() == record.comparable()
    return same, fresh


def validate_failure(record: ExperimentRecord) -> tuple[bool, list[str]]:
    """Re-check every counterexample attached to a "fails" verdict, from
    scratch: the graph6 string decodes to the stated edges, the subgraph
    avoids the forbidden graph, its pattern count matches, and it really is
    not colorable with the stated number of colors. Returns (all valid,
    per-check messages); a record with no failures validates vacuously.
    """
    messages: list[str] = []
    ok = True

    def check(ce: dict[str, Any], label: str):
        nonlocal ok
        h = from_graph6(record.spec["forbidden"])
        t = parse_pattern(record.spec["pattern"])
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
