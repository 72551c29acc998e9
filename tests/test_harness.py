"""Experiment records: schema, determinism, replay, and failure validation."""

import dataclasses
import itertools
import json
import random

import pytest

from exfree import (
    Budgets,
    ExperimentRecord,
    Graph,
    InfeasibleError,
    Pattern,
    append_record,
    compare_prediction,
    complete,
    cycle,
    empty,
    harness,
    load_records,
    replay,
    solver,
    threshold_scan,
    validate_failure,
    verify_dichotomy,
    verify_extremal_colorable,
    verify_near_colorable,
)
from exfree.solver import DEFAULT_BUDGETS
from oracles import solve_and_color_two_searches

K2 = Pattern.clique(2)
TRIANGLE = complete(3)


def tamper(record: ExperimentRecord, mutate) -> ExperimentRecord:
    blob = json.loads(record.to_json_line())
    mutate(blob)
    return ExperimentRecord.from_json_line(json.dumps(blob))


def test_record_round_trips_bit_exact():
    rec = verify_extremal_colorable(complete(4), TRIANGLE, K2, 3)
    line = rec.to_json_line()
    again = ExperimentRecord.from_json_line(line)
    assert again == rec
    assert again.to_json_line() == line
    # canonical serialization: keys sorted, no whitespace padding
    assert ": " not in line and ", " not in line
    assert json.loads(line) == json.loads(line)


def test_append_and_load_records(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    first = verify_extremal_colorable(complete(4), TRIANGLE, K2, 3)
    second = verify_near_colorable(complete(5), TRIANGLE, K2, 3)
    append_record(path, first)
    append_record(path, second)
    loaded = load_records(path)
    assert loaded == [first, second]


def test_experiment_ids_stable_and_spec_sensitive():
    a = verify_extremal_colorable(complete(5), TRIANGLE, K2, 3)
    b = verify_extremal_colorable(complete(5), TRIANGLE, K2, 3)
    c = verify_extremal_colorable(complete(6), TRIANGLE, K2, 3)
    assert a.experiment_id == b.experiment_id
    assert a.experiment_id != c.experiment_id
    assert len(a.experiment_id) == 16


def test_extremal_colorable_holds_on_complete_host():
    rec = verify_extremal_colorable(complete(6), TRIANGLE, K2, 3)
    assert rec.verdicts == {
        "witness-colorable": "holds",
        "all-optima-colorable": "holds",
    }
    solve = rec.results["solve"]
    assert solve["optimum"] == 9
    assert solve["num_optima"] == 10
    assert rec.results["chi_forbidden"] == 3
    assert rec.results["chi_matches_k"] is True
    assert rec.results["forbidden_edge_critical"] is True
    assert rec.results["rebuild_count"] == 9


def test_extremal_colorable_near_complete_host():
    edges = [
        e for e in itertools.combinations(range(5), 2) if e not in ((0, 1), (2, 3))
    ]
    g = Graph.from_edges(5, edges)
    rec = verify_extremal_colorable(g, TRIANGLE, K2, 3)
    assert rec.verdicts["witness-colorable"] == "holds"
    assert rec.results["solve"]["optimum"] == 6


def test_extremal_colorable_fails_outside_degree_hypothesis():
    rec = verify_extremal_colorable(cycle(5), TRIANGLE, K2, 3, eps="1/10")
    assert rec.verdicts["witness-colorable"] == "fails"
    assert rec.results["hypothesis_met"] is False
    solve = rec.results["solve"]
    assert solve["optimum"] == 5  # all of C_5 is triangle-free
    assert solve["counterexample"]["graph6"] == "Dhc"
    assert solve["counterexample"]["colors_refuted"] == 2


def test_validate_failure_accepts_genuine_and_detects_tampering():
    rec = verify_extremal_colorable(cycle(5), TRIANGLE, K2, 3)
    ok, messages = validate_failure(rec)
    assert ok
    assert messages == ["solve: validated"]

    def bump_count(blob):
        blob["results"]["solve"]["counterexample"]["count"] = 99

    ok2, messages2 = validate_failure(tamper(rec, bump_count))
    assert not ok2
    assert any("count mismatch" in m for m in messages2)

    def add_triangle(blob):
        blob["results"]["solve"]["counterexample"]["edges"] = [
            [0, 1], [1, 2], [0, 2]
        ]

    ok3, _ = validate_failure(tamper(rec, add_triangle))
    assert not ok3


def test_near_colorable_zero_deletions_for_bipartite_witness():
    rec = verify_near_colorable(complete(6), TRIANGLE, K2, 3)
    assert rec.verdicts == {
        "deletion-distance": "holds",
        "within-edge-bound": "holds",
    }
    assert rec.results["deletions"] == 0
    assert rec.results["deletion_ratio_to_n2"] == "0"
    assert rec.results["partite_exact"] is True


def test_near_colorable_with_noncomplete_forbidden_graph():
    pendant = Graph.from_edges(
        5, list(itertools.combinations(range(4), 2)) + [(0, 4)]
    )
    rec = verify_near_colorable(complete(6), pendant, K2, 4)
    assert rec.verdicts["deletion-distance"] == "holds"
    assert rec.results["deletions"] == 0


def test_compare_prediction_table():
    rec = compare_prediction(range(4, 9), 3, 2, 1, TRIANGLE)
    assert rec.verdicts == {"table-complete": "holds"}
    rows = rec.results["rows"]
    assert [row["exact"] for row in rows] == [4, 6, 9, 12, 16]
    assert [row["prediction"] for row in rows] == ["4", "25/4", "9", "49/4", "16"]
    assert [row["ratio"] for row in rows] == ["1", "24/25", "1", "48/49", "1"]
    assert all(row["status"] == "ok" for row in rows)


def test_compare_prediction_degrades_to_unknown_past_budget():
    tiny = dataclasses.replace(
        DEFAULT_BUDGETS, exhaustive_edges=3, bnb_edges=3, ties_edges=0
    )
    rec = compare_prediction([4, 5], 3, 2, 1, TRIANGLE, budgets=tiny)
    assert rec.verdicts == {"table-complete": "unknown"}
    assert [row["status"] for row in rec.results["rows"]] == ["unknown", "unknown"]


def test_compare_prediction_refuses_hosts_before_building_them(monkeypatch):
    # K_n has n(n - 1)/2 edges, past the 60-edge branch-and-bound budget
    # from n = 12 on: those rows are unknown without K_n ever being built
    built = []
    real = harness.complete

    def record(n):
        built.append(n)
        return real(n)

    monkeypatch.setattr(harness, "complete", record)
    rec = compare_prediction(range(5, 2001), 3, 2, 1, TRIANGLE)
    assert built == list(range(5, 12))
    rows = rec.results["rows"]
    assert [row["status"] for row in rows[:7]] == ["ok"] * 7
    assert all(row["status"] == "unknown" for row in rows[7:])
    assert rows[7] == {"n": 12, "prediction": "36", "status": "unknown",
                       "reason": "branch-and-bound engine limited to 60 edges, got 66"}
    assert rec.verdicts == {"table-complete": "unknown"}


def test_threshold_scan_counts_and_validates_failures():
    rec = threshold_scan(TRIANGLE, K2, 3, 5, [0], trials=8, seed=0)
    assert rec.verdicts == {"completed": "holds"}
    row = rec.results["fractions"][0]
    assert (row["passing"], row["failing"], row["unknown"]) == (7, 1, 0)
    assert row["rate"] == "7/8"
    bad = [t for t in row["trials"] if t["verdict"] == "fails"]
    assert len(bad) == 1
    assert bad[0]["graph6"] == "DtS"
    assert bad[0]["optimum"] == 5
    assert bad[0]["counterexample"]["colors_refuted"] == 2
    ok, messages = validate_failure(rec)
    assert ok
    assert messages == ["fraction 0 trial 6: validated"]


def test_threshold_scan_rejects_bad_fractions():
    with pytest.raises(ValueError):
        threshold_scan(TRIANGLE, K2, 3, 5, ["3/2"], trials=2, seed=0)
    with pytest.raises(ValueError):
        threshold_scan(TRIANGLE, K2, 3, 5, [0], trials=0, seed=0)


def test_replay_covers_every_record_kind():
    records = [
        verify_extremal_colorable(complete(5), TRIANGLE, K2, 3),
        verify_near_colorable(complete(5), TRIANGLE, K2, 3),
        compare_prediction([4, 5], 3, 2, 1, TRIANGLE),
        threshold_scan(TRIANGLE, K2, 3, 4, [0], trials=3, seed=2),
        verify_dichotomy(complete(5), 3, K2, "9/10"),
    ]
    # one record of every kind the spec table knows, and no other
    assert sorted(rec.kind for rec in records) == sorted(harness._KINDS)
    for rec in records:
        ok, fresh = replay(rec)
        assert ok, rec.kind
        assert fresh.experiment_id == rec.experiment_id
        # a record without counterexamples validates vacuously, whatever
        # its spec holds
        assert validate_failure(rec)[0], rec.kind


def test_spec_codecs_reach_graph6_through_module_globals(monkeypatch):
    # a tracer rebinds harness.to_graph6 and harness.from_graph6 after import;
    # writing and reading a spec must go through the rebound names
    rec = verify_dichotomy(complete(4), 3, K2, "1/2")
    decoded = []
    real_from, real_to = harness.from_graph6, harness.to_graph6
    monkeypatch.setattr(harness, "from_graph6", lambda text: decoded.append(text) or real_from(text))
    monkeypatch.setattr(harness, "to_graph6", lambda g: real_to(g).lower())
    _, fresh = replay(rec)
    assert decoded == [rec.spec["host"]]
    assert fresh.spec["host"] == rec.spec["host"].lower() != rec.spec["host"]


def test_replay_detects_divergence():
    rec = verify_extremal_colorable(complete(5), TRIANGLE, K2, 3)

    def lie_about_optimum(blob):
        blob["results"]["solve"]["optimum"] = 7

    ok, _ = replay(tamper(rec, lie_about_optimum))
    assert not ok


def test_replay_detects_a_forged_experiment_id():
    # the id is the hash of kind and spec; a record carrying any other id
    # is a mismatch even though its spec, results and verdicts replay
    rec = threshold_scan(TRIANGLE, K2, 3, 4, [0], trials=3, seed=2)
    assert replay(rec)[0]

    def forge_id(blob):
        blob["experiment_id"] = "0000000000000000"

    forged = tamper(rec, forge_id)
    assert forged.comparable() == rec.comparable()
    ok, fresh = replay(forged)
    assert not ok
    assert fresh.experiment_id == rec.experiment_id


def test_dichotomy_frontier_on_complete_host():
    rec = verify_dichotomy(complete(6), 3, K2, "9/10")
    assert rec.verdicts == {"frontier-complete": "holds"}
    assert rec.results["maximal_subgraphs"] == 211
    assert rec.results["optimum"] == 9
    frontier = rec.results["frontier"]
    assert len(frontier) == 211
    extremal = [row for row in frontier if row["ratio"] == "1"]
    # ten labeled copies of the optimal balanced bipartite subgraph, each
    # already bipartite: zero deletions to reach k-1 parts
    assert len(extremal) == 10
    assert all(row["deletion_distance"] == 0 for row in extremal)
    assert all(not row["count_within_gamma"] for row in extremal)
    near_misses = [
        row for row in frontier
        if not row["count_within_gamma"] and row["ratio"] != "1"
    ]
    for row in near_misses:
        assert row["deletion_distance"] <= 2


def test_dichotomy_handles_edgeless_host():
    rec = verify_dichotomy(empty(3), 3, K2, "1/2")
    assert rec.verdicts == {"frontier-complete": "holds"}
    assert rec.results["maximal_subgraphs"] == 1
    row = rec.results["frontier"][0]
    assert row["count"] == 0
    assert row["ratio"] is None
    assert row["count_within_gamma"] is True


def test_timings_excluded_from_comparable():
    rec = verify_extremal_colorable(complete(4), TRIANGLE, K2, 3)

    def slow_it_down(blob):
        blob["timings"]["total_s"] = 1e9

    slowed = tamper(rec, slow_it_down)
    assert slowed.comparable() == rec.comparable()
    assert slowed.to_json_line() != rec.to_json_line()


# chromatic number 3 each, so k = 3 and the bundle tests 2-colorability
BUNDLE_FORBIDDEN = {
    "K3": TRIANGLE,
    "C5": cycle(5),
    "K4-e": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "pendant-triangle": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
}
BUNDLE_PATTERNS = {"K2": K2, "K3": Pattern.clique(3), "K2(2)": Pattern.blowup(2, 2)}
ENGINES = ("auto", "exhaustive", "branch-and-bound")


def _host(rng, n_lo: int, edges_lo: int, edges_hi: int) -> Graph:
    n = rng.randint(n_lo, 7)
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, rng.sample(pairs, rng.randint(edges_lo, min(edges_hi, len(pairs)))))


def test_single_search_bundle_matches_two_searches():
    # the bundle searches a host within the tie budget (16 edges) once; it
    # must equal the solve-then-enumerate bundle on both sides of that
    # budget, with every engine, under a budget that stops the exhaustive
    # engine, and for an unknown engine name
    rng = random.Random(2026)
    bands = ((4, 5, 14), (6, 15, 16), (7, 17, 20))  # (least n, edge range)
    # every forbidden graph and pattern at most 14 edges, one host per
    # forbidden graph above; the engine rotates independently of the pattern
    cases = [(hname, pname, 0, ENGINES[(i + i // 3) % 3]) for i, (hname, pname)
             in enumerate(itertools.product(BUNDLE_FORBIDDEN, BUNDLE_PATTERNS))]
    cases += [(hname, list(BUNDLE_PATTERNS)[(i + band) % 3], band, ENGINES[(i + band) % 3])
              for band in (1, 2) for i, hname in enumerate(BUNDLE_FORBIDDEN)]
    # the exhaustive engine on 17-20 edges takes up to 40 s per host here, so
    # outside the 15-16 band it runs under this budget, which stops it past
    # 8 edges on both sides
    tight = Budgets(exhaustive_edges=8)
    seen = dict.fromkeys(("ties", "no-ties", "unknown-ties", "unknown-no-ties", "counterexample"), 0)
    for hname, pname, band, engine in cases:
        h, t = BUNDLE_FORBIDDEN[hname], BUNDLE_PATTERNS[pname]
        g = _host(rng, *bands[band])
        budgets = tight if engine == "exhaustive" and band != 1 else DEFAULT_BUDGETS
        label = (hname, pname, g.n, g.edge_count(), engine, budgets)
        expected = solve_and_color_two_searches(g, h, t, 3, budgets, engine)
        assert harness._solve_and_color(g, h, t, 3, budgets, engine) == expected, label
        path = "ties" if g.edge_count() <= budgets.ties_edges else "no-ties"
        if expected["status"] == "ok":
            seen[path] += 1
            seen["counterexample"] += "counterexample" in expected
        else:
            seen["unknown-" + path] += 1
        for bundle in (solve_and_color_two_searches, harness._solve_and_color):
            with pytest.raises(ValueError, match="unknown engine 'bogus'"):
                bundle(g, h, t, 3, budgets, "bogus")
    # both paths, the unknown branch on each and non-colorable witnesses
    # are all exercised
    assert all(seen.values()), seen
    # an edgeless forbidden graph is reported ahead of the engine name
    for bundle in (solve_and_color_two_searches, harness._solve_and_color):
        with pytest.raises(InfeasibleError):
            bundle(complete(4), empty(2), K2, 3, DEFAULT_BUDGETS, "bogus")


def test_tie_path_witness_recount_mismatch_raises(monkeypatch):
    # twin of test_solver's recount test, for a host searched by tie
    # enumeration alone
    monkeypatch.setattr(solver, "count_pattern", lambda g, t: -1)
    with pytest.raises(RuntimeError, match="witness recount mismatch"):
        verify_extremal_colorable(complete(4), TRIANGLE, K2, 3, engine="exhaustive")
