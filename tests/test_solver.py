"""Exact/heuristic subgraph optimization: engines, peeling, and rebuilds."""

import itertools
import random

import pytest

from exfree import (
    BudgetExceededError,
    Budgets,
    InfeasibleError,
    Graph,
    Partition,
    Pattern,
    complete,
    count_pattern,
    cycle,
    empty,
    enumerate_maximal_hfree,
    enumerate_optima,
    max_hfree_subgraph,
    max_partite,
    multipartite_subgraph,
    peel,
    rebuild,
    reinsert,
    subgraph_from_edges,
    solver,
    turan,
)

from oracles import max_hfree_brute, maximal_hfree_brute, optima_brute, random_graph

K2 = Pattern.clique(2)
K3 = Pattern.clique(3)


def test_turan_style_baselines():
    for n, want in [(4, 4), (5, 6), (6, 9), (7, 12), (8, 16)]:
        res = max_hfree_subgraph(complete(n), K2, complete(3))
        assert res.best_count == want
        # witness must realize the count and avoid the forbidden graph
        w = subgraph_from_edges(complete(n), res.best_edges)
        assert w.edge_count() == want
        assert count_pattern(w, K3) == 0


def test_infeasible_forbidden_graph():
    with pytest.raises(InfeasibleError):
        max_hfree_subgraph(complete(3), K2, empty(2))


def test_mode_and_engine_validation():
    with pytest.raises(ValueError):
        max_hfree_subgraph(complete(4), K2, complete(3), mode="bogus")
    with pytest.raises(ValueError):
        max_hfree_subgraph(complete(4), K2, complete(3), engine="bogus")


def test_budget_errors():
    with pytest.raises(BudgetExceededError):
        max_hfree_subgraph(complete(9), K2, complete(3), engine="exhaustive")
    with pytest.raises(BudgetExceededError):
        max_hfree_subgraph(complete(12), K2, complete(3), engine="branch-and-bound")
    with pytest.raises(BudgetExceededError):
        enumerate_optima(complete(7), K2, complete(3))


def test_lex_least_witness_on_ties():
    # K_4 has three optimal triangle-free subgraphs (the 4-cycles); both
    # engines must return the lexicographically least edge tuple.
    want = ((0, 1), (0, 2), (1, 3), (2, 3))
    for engine in ("exhaustive", "branch-and-bound"):
        res = max_hfree_subgraph(complete(4), K2, complete(3), engine=engine)
        assert res.best_count == 4
        assert res.best_edges == want


def test_engines_agree_with_oracle_small():
    rng = random.Random(41)
    for trial in range(40):
        n = rng.randint(3, 5)
        g = random_graph(rng, n, p=0.7)
        t, h = (K2, complete(3)) if trial % 2 == 0 else (K3, complete(4))
        want = max_hfree_brute(g, t.realize(), h)
        for engine in ("exhaustive", "branch-and-bound"):
            res = max_hfree_subgraph(g, t, h, engine=engine)
            assert (res.best_count, res.best_edges) == want, (trial, engine)


def test_engines_agree_across_pruning_toggles():
    rng = random.Random(1009)
    pairs = [(K2, complete(3)), (K3, complete(4)), (K2, complete(4)),
             (Pattern.blowup(2, 2), complete(3))]
    for trial in range(100):
        n = rng.randint(4, 7)
        g = random_graph(rng, n, p=0.75)
        t, h = pairs[trial % len(pairs)]
        base = max_hfree_subgraph(g, t, h, engine="exhaustive")
        for forbid, nbhd in itertools.product((True, False), repeat=2):
            res = max_hfree_subgraph(
                g, t, h, engine="branch-and-bound",
                rule_forbid=forbid, rule_neighborhood=nbhd,
            )
            assert res.best_count == base.best_count, (trial, forbid, nbhd)
            assert res.best_edges == base.best_edges, (trial, forbid, nbhd)


# forbidden graphs beyond cliques: C4, C5, K4 minus an edge, the pendant
# triangle (a triangle with one extra leaf edge), plus K3 and K4
ORACLE_FORBIDDEN = {
    "C4": cycle(4),
    "C5": cycle(5),
    "K4-e": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "pendant-triangle": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "K3": complete(3),
    "K4": complete(4),
}
# P3 is the path on three vertices
ORACLE_PATTERNS = {
    "K2": K2,
    "K3": K3,
    "K2(2)": Pattern.blowup(2, 2),
    "P3": Pattern.arbitrary(Graph.from_edges(3, [(0, 1), (1, 2)])),
}


def test_bnb_matches_oracle_on_general_forbidden_graphs():
    # every pattern against every forbidden graph, all four rule toggles,
    # on seeded hosts of 4 to 6 vertices with at most 9 edges (the oracle
    # enumerates every edge subset)
    rng = random.Random(2017)
    pairs = [(p, q) for q in ORACLE_FORBIDDEN for p in ORACLE_PATTERNS]
    for trial in range(2 * len(pairs)):
        pname, hname = pairs[trial % len(pairs)]
        t, h = ORACLE_PATTERNS[pname], ORACLE_FORBIDDEN[hname]
        n = rng.randint(4, 6)
        all_pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(all_pairs, min(len(all_pairs), rng.randint(5, 9))))
        want = max_hfree_brute(g, t.realize(), h)
        case = (trial, pname, hname, g.edges())
        res = max_hfree_subgraph(g, t, h, engine="exhaustive")
        assert (res.best_count, res.best_edges) == want, case
        for forbid, nbhd in itertools.product((True, False), repeat=2):
            res = max_hfree_subgraph(
                g, t, h, engine="branch-and-bound",
                rule_forbid=forbid, rule_neighborhood=nbhd,
            )
            assert (res.best_count, res.best_edges) == want, (case, forbid, nbhd)


def test_enumerations_match_oracles_on_general_forbidden_graphs():
    # every optimum and every maximal h-free set, against the brute-force
    # oracles, on seeded hosts of 4 to 6 vertices with at most 9 edges
    rng = random.Random(2018)
    pairs = [(p, q) for q in ORACLE_FORBIDDEN for p in ORACLE_PATTERNS]
    for trial in range(2 * len(pairs)):
        pname, hname = pairs[trial % len(pairs)]
        t, h = ORACLE_PATTERNS[pname], ORACLE_FORBIDDEN[hname]
        n = rng.randint(4, 6)
        all_pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(all_pairs, min(len(all_pairs), rng.randint(5, 9))))
        case = (trial, pname, hname, g.edges())
        best, ties = enumerate_optima(g, t, h)
        assert (best, ties) == optima_brute(g, t.realize(), h), case
        assert ties[0] == max_hfree_subgraph(g, t, h).best_edges, case
        assert enumerate_maximal_hfree(g, h) == maximal_hfree_brute(g, h), case


def test_bnb_proves_clique_optima_near_the_root():
    # node counts, not times: the Turan cap and the lex-prefix prune settle
    # these where plain bound pruning needed 378,045 and 39,296 nodes
    for n, m, k, want, max_nodes in [(9, 2, 3, 20, 1_000), (7, 3, 4, 12, 2_000)]:
        t = Pattern.clique(m)
        res = max_hfree_subgraph(complete(n), t, complete(k), engine="branch-and-bound")
        assert res.best_count == want
        assert res.stats.nodes <= max_nodes, (n, m, k, res.stats.nodes)
        w = subgraph_from_edges(complete(n), res.best_edges)
        assert count_pattern(w, t) == want
        assert count_pattern(w, Pattern.clique(k)) == 0


def test_witness_recount_mismatch_raises(monkeypatch):
    monkeypatch.setattr(solver, "count_pattern", lambda g, t: -1)
    with pytest.raises(RuntimeError, match="witness recount mismatch"):
        max_hfree_subgraph(complete(4), K2, complete(3), engine="exhaustive")


def test_rebuild_decomposition_mismatch_raises(monkeypatch):
    monkeypatch.setattr(solver, "count_pattern", lambda g, t: -1)
    with pytest.raises(RuntimeError, match="decomposition mismatch"):
        rebuild(complete(6), 3, K2, complete(3))


def test_cycle_host_has_no_triangles_to_forbid():
    res = max_hfree_subgraph(cycle(5), K2, complete(3))
    assert res.best_count == 5
    assert res.best_edges == tuple(cycle(5).edges())


def test_heuristic_mode_lower_bounds_exact():
    rng = random.Random(7)
    for _ in range(20):
        g = random_graph(rng, 6, p=0.8)
        exact = max_hfree_subgraph(g, K2, complete(3))
        heur = max_hfree_subgraph(g, K2, complete(3), mode="heuristic")
        assert heur.proof == "heuristic"
        assert heur.best_count <= exact.best_count
        w = subgraph_from_edges(g, heur.best_edges)
        assert count_pattern(w, K2) == heur.best_count


def test_heuristic_matches_exact_on_complete_hosts():
    exact = max_hfree_subgraph(complete(9), K2, complete(3))
    heur = max_hfree_subgraph(complete(9), K2, complete(3), mode="heuristic")
    assert exact.best_count == heur.best_count == 20


def test_enumerate_optima_counts_ties():
    best, ties = enumerate_optima(complete(5), K2, complete(3))
    assert best == 6
    assert len(ties) == 10
    assert ties == sorted(ties)
    for edges in ties:
        w = subgraph_from_edges(complete(5), edges)
        assert w.edge_count() == 6
        assert count_pattern(w, K3) == 0


def test_enumerate_maximal_sets_k4():
    found = enumerate_maximal_hfree(complete(4), complete(3))
    # brute force: a triangle-free edge set is maximal iff adding any
    # remaining host edge creates a triangle
    host = complete(4)
    all_edges = host.edges()
    want = []
    for r in range(len(all_edges) + 1):
        for sub in itertools.combinations(all_edges, r):
            w = subgraph_from_edges(host, sub)
            if count_pattern(w, K3):
                continue
            rest = [e for e in all_edges if e not in sub]
            if all(
                count_pattern(subgraph_from_edges(host, sub + (e,)), K3)
                for e in rest
            ):
                want.append(tuple(sorted(sub)))
    assert found == sorted(want)
    assert len(found) == 7  # four stars and three 4-cycles


def test_max_partite_examples():
    assert max_partite(complete(4), 2, K2)[1] == 4
    assert max_partite(complete(6), 3, K2)[1] == 12
    assert max_partite(complete(6), 3, K3)[1] == 8
    assert max_partite(empty(5), 3, K2)[1] == 0


def test_max_partite_partition_is_canonical_and_realizes_count():
    part, count = max_partite(complete(4), 2, K2)
    assert part.as_dict() == {0: 0, 1: 0, 2: 1, 3: 1}
    sub = multipartite_subgraph(complete(4), part)
    assert count_pattern(sub, K2) == count


def test_max_partite_local_search_never_beats_exact():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, 7, p=0.6)
        _, exact = max_partite(g, 3, K2)
        _, ls = max_partite(g, 3, K2, mode="local-search", seed=5)
        assert ls <= exact
    # and it finds the optimum on a clean instance
    assert max_partite(complete(6), 3, K3, mode="local-search", seed=1)[1] == 8


def test_peel_keeps_dense_hosts_intact():
    core, trace = peel(complete(8), 3, K2)
    assert not trace.steps
    assert core.n == 8
    assert trace.stop_reason == "degree-threshold-met"
    assert not trace.exceeded_half


def test_peel_strips_a_pendant_vertex():
    edges = list(itertools.combinations(range(6), 2)) + [(0, 6)]
    g = Graph.from_edges(7, edges)
    core, trace = peel(g, 3, K2)
    assert [s.vertex for s in trace.steps] == [6]
    assert core.n == 6
    assert sorted(trace.core_vertices) == [0, 1, 2, 3, 4, 5]
    assert trace.steps[0].copies_removed == 1


def test_peel_respects_floor_and_reports_runaway():
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    core, trace = peel(star, 3, K2, floor=5)
    assert len(trace.steps) == 1
    assert trace.stop_reason == "floor-reached"
    assert core.n == 5
    core2, trace2 = peel(star, 3, K2)
    assert trace2.stop_reason == "degree-threshold-met"
    assert core2.n == 2
    assert trace2.exceeded_half


def test_peel_steps_satisfy_degree_threshold():
    rng = random.Random(3)
    for _ in range(25):
        g = random_graph(rng, rng.randint(4, 9), p=0.4)
        k = rng.choice([3, 4])
        _, trace = peel(g, k, K2)
        for step in trace.steps:
            # each removal must have been strictly below the sparse-degree cut
            assert step.degree * (3 * k - 4) < (3 * k - 7) * step.host_size


def test_peel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        peel(complete(4), 1, K2)
    with pytest.raises(ValueError):
        peel(complete(4), 3, K2, floor=-1)


def test_reinsert_places_vertex_in_best_part():
    part = Partition.of(4, {0: 0, 1: 1, 2: 0, 3: 1})
    enlarged, gain = reinsert(complete(5), part, 4, K2)
    assert enlarged.part_of(4) == 2
    assert gain == 4
    assert gain >= 0


def test_reinsert_gain_never_negative():
    rng = random.Random(55)
    for _ in range(20):
        g = random_graph(rng, 6, p=0.7)
        part, _ = max_partite(Graph.from_edges(5, induced(g)), 3, K2)
        _, gain = reinsert(g, part, 5, K2)
        assert gain >= 0


def induced(g: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u, v in g.edges() if u < 5 and v < 5]


def test_rebuild_matches_exact_on_complete_host():
    rb = rebuild(complete(9), 3, K2, complete(3), seed=0)
    exact = max_hfree_subgraph(complete(9), K2, complete(3))
    assert rb.best_count == exact.best_count == 20
    assert rb.core_count + sum(rb.gains) == rb.best_count
    assert rb.partition is not None
    assert rb.trace is not None


def test_rebuild_sandwich_and_decomposition():
    rng = random.Random(77)
    for _ in range(25):
        g = random_graph(rng, 7, p=0.7)
        rb = rebuild(g, 3, K2, complete(3), seed=0)
        exact = max_hfree_subgraph(g, K2, complete(3))
        unconstrained = count_pattern(g, K2)
        assert rb.best_count <= exact.best_count <= unconstrained
        assert all(gain >= 0 for gain in rb.gains)
        assert rb.core_count + sum(rb.gains) == rb.best_count
        w = subgraph_from_edges(g, rb.best_edges)
        assert count_pattern(w, K2) == rb.best_count


def test_rebuild_notes_chromatic_mismatch():
    rb = rebuild(complete(6), 2, K2, complete(3), seed=0)
    assert any("chromatic number 3" in note for note in rb.notes)


def test_partition_helpers():
    part = Partition.of(3, {0: 0, 1: 1, 2: 0})
    assert part.support() == (0, 1, 2)
    assert part.parts() == [[0, 2], [1], []]
    grown = part.with_vertex(3, 1)
    assert grown.part_of(3) == 1
    assert part.part_of(9) is None
    with pytest.raises(ValueError):
        Partition.of(2, {0: 2})
    with pytest.raises(ValueError):
        Partition.of(2, {0: -1, 1: 0})


def test_solver_budgets_are_overridable():
    tight = Budgets(
        exhaustive_edges=5,
        bnb_edges=60,
        auto_exhaustive_max=14,
        partite_exact_n=14,
        ties_edges=16,
        ls_restarts=20,
        ls_moves_per_vertex=10,
    )
    with pytest.raises(BudgetExceededError):
        max_hfree_subgraph(
            complete(4), K2, complete(3), engine="exhaustive", budgets=tight
        )


def test_stats_report_engine_and_node_counts():
    res = max_hfree_subgraph(turan(6, 3), K2, complete(3))
    assert res.stats.engine in ("exhaustive", "branch-and-bound")
    assert res.stats.nodes > 0
    assert res.stats.elapsed_s >= 0.0
