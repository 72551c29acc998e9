"""Acceptance gate: one test per shipped guarantee, quantitative and timed.

Run with -v to get a single pass/fail line per criterion. Each test prints a
one-line summary of the measured quantities it froze.
"""

import json
import random
import time
from fractions import Fraction
from math import comb

from exfree import (
    ExperimentRecord,
    Graph,
    Pattern,
    append_record,
    compare_prediction,
    complete,
    count_cliques,
    count_pattern,
    count_pattern_generic,
    copies_through_vertex,
    empty,
    from_graph6,
    load_records,
    max_hfree_subgraph,
    rebuild,
    replay,
    subgraph_from_edges,
    threshold_scan,
    to_graph6,
    turan,
    validate_failure,
)
from exfree.cli import main as cli_main
from exfree.formulas import (
    aes_threshold,
    es_threshold,
    f_maximizer,
    removal_bound_blowup,
    removal_bound_clique,
)

from oracles import is_bipartite_bfs, random_graph

K2 = Pattern.clique(2)
K3 = Pattern.clique(3)
TRIANGLE = complete(3)


def test_criterion_01_max_triangle_free_baseline():
    started = time.perf_counter()
    values = {}
    for n in range(4, 9):
        res = max_hfree_subgraph(complete(n), K2, TRIANGLE)
        witness = subgraph_from_edges(complete(n), res.best_edges)
        assert count_pattern(witness, K3) == 0
        assert is_bipartite_bfs(witness), n
        values[n] = res.best_count
    elapsed = time.perf_counter() - started
    assert values == {4: 4, 5: 6, 6: 9, 7: 12, 8: 16}
    assert all(values[n] == n * n // 4 for n in values)
    assert elapsed < 30
    print(f"criterion 01: edge maxima {values} in {elapsed:.2f}s, witnesses bipartite")


def test_criterion_02_triangle_count_extremal():
    started = time.perf_counter()
    values = {}
    for n in (5, 6, 7):
        res = max_hfree_subgraph(complete(n), K3, complete(4))
        assert res.best_count == count_cliques(turan(n, 3), 3)
        values[n] = res.best_count
    elapsed = time.perf_counter() - started
    assert values == {5: 4, 6: 8, 7: 12}
    assert elapsed < 120
    print(f"criterion 02: triangle maxima {values} in {elapsed:.2f}s")


def test_criterion_03_blowup_closed_form():
    started = time.perf_counter()
    checked = 0
    for m in (1, 2, 3):
        for s in (1, 2, 3, 4, 5):
            host = turan(m * s, m) if m > 1 else empty(s)
            for t in (1, 2):
                want = comb(s, t) ** m
                assert count_pattern(host, Pattern.blowup(m, t)) == want, (m, s, t)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    print(f"criterion 03: {checked} closed-form blow-up counts in {elapsed:.2f}s")


def test_criterion_04_counter_oracle_equivalence():
    started = time.perf_counter()
    patterns = [
        Pattern.clique(2), Pattern.clique(3), Pattern.clique(4), Pattern.clique(5),
        Pattern.blowup(2, 2), Pattern.blowup(3, 2), Pattern.blowup(2, 3),
        Pattern.blowup(4, 2),
    ]
    assert all(p.vertex_count() <= 8 for p in patterns)
    rng = random.Random(2026)
    for i in range(200):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, p=rng.choice([0.3, 0.5, 0.7]))
        p = patterns[i % len(patterns)]
        assert count_pattern(g, p) == count_pattern_generic(g, p), (i, p.literal())
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"criterion 04: 200 specialized-vs-generic agreements in {elapsed:.2f}s")


def test_criterion_05_sandwich_and_gain_monotonicity():
    rng = random.Random(505)
    for i in range(100):
        g = random_graph(rng, 7, p=0.7)
        rb = rebuild(g, 3, K2, TRIANGLE, seed=0)
        exact = max_hfree_subgraph(g, K2, TRIANGLE)
        unconstrained = count_pattern(g, K2)
        assert rb.best_count <= exact.best_count <= unconstrained, i
        assert all(gain >= 0 for gain in rb.gains), i
        assert rb.core_count + sum(rb.gains) == rb.best_count, i
    print("criterion 05: 100 instances satisfy rebuild <= exact <= unconstrained")


def test_criterion_06_formula_spot_values():
    assert aes_threshold(3) == Fraction(2, 5)
    assert es_threshold(3) == Fraction(1, 3)
    assert removal_bound_clique(10, 4, 3)[1] == Fraction(31, 256)
    assert removal_bound_clique(10, 3, 2)[1] == Fraction(1, 5)
    assert f_maximizer(10, 2, 2) == Fraction(20, 3)
    ratios = {}
    for m in (3, 4, 5):
        for t in (1, 2, 3):
            _, ratio = removal_bound_blowup(100, m, t)
            assert ratio < 1, (m, t)
            ratios[(m, t)] = ratio
    print(f"criterion 06: spot values exact; {len(ratios)} comparison ratios < 1")


def test_criterion_07_high_degree_bipartite_verdicts():
    started = time.perf_counter()
    rec = threshold_scan(TRIANGLE, K2, 3, 9, ["8/9"], trials=25, seed=20260816)
    row = rec.results["fractions"][0]
    assert row["floor"] == 8  # minimum degree >= (1 - eps) * n with eps = 1/9
    assert row["unknown"] == 0
    assert row["passing"] + row["failing"] == 25
    distribution = {
        "holds": row["passing"], "fails": row["failing"], "unknown": row["unknown"]
    }
    ok, messages = validate_failure(rec)
    assert ok, messages  # every fails row must re-validate from scratch
    elapsed = time.perf_counter() - started
    print(
        f"criterion 07: verdicts {distribution}, rate {row['rate']},"
        f" {elapsed:.2f}s"
    )


def test_criterion_08_per_vertex_averaging_bound():
    rng = random.Random(88)
    patterns = [Pattern.clique(2), Pattern.clique(3), Pattern.blowup(2, 2)]
    for i in range(100):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, p=0.6)
        t = patterns[i % len(patterns)]
        total = count_pattern(g, t)
        busiest = max(copies_through_vertex(g, t, v) for v in range(n))
        # cross-multiplied form of busiest >= v(T) * total / n, all integers
        assert busiest * n >= t.vertex_count() * total, i
    print("criterion 08: averaging bound exact on 100 seeded graphs")


def test_criterion_09_graph6_round_trip():
    rng = random.Random(9)
    for i in range(1000):
        n = rng.randint(0, 40)
        g = random_graph(rng, n, p=rng.random())
        text = to_graph6(g)
        again = from_graph6(text)
        assert again == g, i
        assert to_graph6(again) == text, i
    print("criterion 09: 1000 graph6 round-trips bit-exact up to n=40")


def test_criterion_10_replay_thread_invariance(tmp_path):
    recfile = str(tmp_path / "acceptance.jsonl")
    made = [
        threshold_scan(TRIANGLE, K2, 3, 5, [0, "1/2"], trials=6, seed=3),
        compare_prediction([4, 5, 6], 3, 2, 1, TRIANGLE),
    ]
    for rec in made:
        append_record(recfile, rec)
    loaded = load_records(recfile)
    assert loaded == made
    for rec in loaded:
        (ok, first), (again, second) = replay(rec), replay(rec)
        assert ok and again, rec.kind
        # byte-identical results on every replay, and equal to the record's
        assert first.comparable() == second.comparable() == rec.comparable()
    # older command lines that pass --threads still parse and replay
    code = cli_main(["replay", "--record", recfile, "--threads", "8"])
    assert code == 0
    print("criterion 10: persisted records replay byte-identical, twice and via the CLI")
