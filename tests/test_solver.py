"""Exact/heuristic subgraph optimization: branch-and-bound, peeling, and rebuilds."""

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
    chromatic_number,
    complete,
    count_pattern,
    cycle,
    empty,
    enumerate_maximal_hfree,
    enumerate_optima,
    from_graph6,
    gnp,
    max_hfree_subgraph,
    max_partite,
    multipartite_subgraph,
    parse_pattern,
    peel,
    rebuild,
    reinsert,
    subgraph_from_edges,
    solver,
    to_graph6,
    turan,
)
from exfree.counting import copies_through

from oracles import (
    contains_brute,
    copies_brute,
    creates_copy_all_edges,
    copy_masks_brute,
    creates_copy_brute,
    kills_by_retest,
    local_search_recount,
    max_hfree_brute,
    max_partite_brute,
    max_partite_recount,
    maximal_hfree_brute,
    optima_brute,
    peel_relabel,
    random_graph,
    reinsert_brute,
)

K2 = Pattern.clique(2)
K3 = Pattern.clique(3)
# patterns scored by rooted counts instead of the clique identity: a
# blow-up, and g6 literals for the path on three vertices and for an edge
# plus an isolated vertex (a copy may put that vertex on the scored one)
BLOWUP = Pattern.blowup(2, 2)
PATH3 = parse_pattern("g6:" + to_graph6(Graph.from_edges(3, [(0, 1), (1, 2)])))
EDGE_PLUS_VERTEX = parse_pattern("g6:" + to_graph6(Graph.from_edges(3, [(0, 1)])))


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
    # branch-and-bound is the one exact engine: there is no engine to choose
    with pytest.raises(TypeError):
        max_hfree_subgraph(complete(4), K2, complete(3), engine="branch-and-bound")


def test_budget_errors():
    with pytest.raises(BudgetExceededError, match="limited to 35 edges, got 36"):
        max_hfree_subgraph(complete(9), K2, complete(3), budgets=Budgets(bnb_edges=35))
    with pytest.raises(BudgetExceededError):
        max_hfree_subgraph(complete(12), K2, complete(3))
    with pytest.raises(BudgetExceededError):
        enumerate_optima(complete(7), K2, complete(3))


def test_lex_least_witness_on_ties():
    # K_4 has three optimal triangle-free subgraphs (the 4-cycles); the
    # search must return the lexicographically least edge tuple.
    want = ((0, 1), (0, 2), (1, 3), (2, 3))
    best, ties = optima_brute(complete(4), complete(2), complete(3))
    assert (best, len(ties), ties[0]) == (4, 3, want)
    res = max_hfree_subgraph(complete(4), K2, complete(3))
    assert res.best_count == 4
    assert res.best_edges == want


def test_engines_agree_with_oracle_small():
    rng = random.Random(41)
    for trial in range(40):
        n = rng.randint(3, 5)
        g = random_graph(rng, n, p=0.7)
        t, h = (K2, complete(3)) if trial % 2 == 0 else (K3, complete(4))
        want = max_hfree_brute(g, t.realize(), h)
        res = max_hfree_subgraph(g, t, h)
        assert (res.best_count, res.best_edges) == want, trial


def test_bnb_agrees_with_brute_force():
    # hosts of 4 to 6 vertices with at most 15 edges, where the oracle
    # enumerates every edge subset; the least optimal tuple is the witness
    rng = random.Random(1009)
    pairs = [(K2, complete(3)), (K3, complete(4)), (K2, complete(4)),
             (Pattern.blowup(2, 2), complete(3))]
    for trial in range(100):
        n = rng.randint(4, 6)
        g = random_graph(rng, n, p=0.75)
        t, h = pairs[trial % len(pairs)]
        best, ties = optima_brute(g, t.realize(), h)
        res = max_hfree_subgraph(g, t, h)
        assert (res.best_count, res.best_edges) == (best, ties[0]), trial


# forbidden graphs beyond cliques: C4, C5, K4 minus an edge, the pendant
# triangle (a triangle with one extra leaf edge), K3 and K4, and the wheel W4
# (a 4-cycle with a hub joined to all of it; its three edge orbits differ in
# size)
ORACLE_FORBIDDEN = {
    "C4": cycle(4),
    "C5": cycle(5),
    "K4-e": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    "pendant-triangle": Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    "K3": complete(3),
    "K4": complete(4),
    "W4": Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]),
}
# P3 is the path on three vertices
ORACLE_PATTERNS = {
    "K2": K2,
    "K3": K3,
    "K2(2)": Pattern.blowup(2, 2),
    "P3": Pattern.arbitrary(Graph.from_edges(3, [(0, 1), (1, 2)])),
}


# the include step's kill set for every non-clique forbidden graph of the
# oracle tests, and for three disconnected ones whose plans have positions
# with no earlier neighbour: 2K2, P3 plus a vertex, and a triangle plus an
# edge
KILL_STEP_FORBIDDEN = {
    **{name: h for name, h in ORACLE_FORBIDDEN.items() if solver._forbid_test(h) is None},
    "2K2": Graph.from_edges(4, [(0, 1), (2, 3)]),
    "P3+K1": Graph.from_edges(4, [(0, 1), (1, 2)]),
    "K3+K2": Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]),
}


def _oracle_host(rng, hname: str) -> Graph:
    """A seeded host of 4 to 6 vertices with at most 9 edges. Hosts this
    sparse seldom hold a wheel, so a W4 host is W4 relabelled at random
    plus one of its two missing edges."""
    if hname == "W4":
        perm = rng.sample(range(5), 5)
        edges = {tuple(sorted((perm[a], perm[b]))) for a, b in ORACLE_FORBIDDEN["W4"].edges()}
        rest = [e for e in itertools.combinations(range(5), 2) if e not in edges]
        return Graph.from_edges(5, sorted(edges) + [rng.choice(rest)])
    n = rng.randint(4, 6)
    all_pairs = list(itertools.combinations(range(n), 2))
    return Graph.from_edges(n, rng.sample(all_pairs, min(len(all_pairs), rng.randint(5, 9))))


def test_bnb_matches_oracle_on_general_forbidden_graphs():
    # every pattern against every forbidden graph, on seeded hosts of 4 to
    # 6 vertices with at most 9 edges (the oracle enumerates every edge
    # subset)
    rng = random.Random(2017)
    pairs = [(p, q) for q in ORACLE_FORBIDDEN for p in ORACLE_PATTERNS]
    for trial in range(2 * len(pairs)):
        pname, hname = pairs[trial % len(pairs)]
        t, h = ORACLE_PATTERNS[pname], ORACLE_FORBIDDEN[hname]
        g = _oracle_host(rng, hname)
        want = max_hfree_brute(g, t.realize(), h)
        case = (trial, pname, hname, g.edges())
        res = max_hfree_subgraph(g, t, h)
        assert (res.best_count, res.best_edges) == want, case


def test_enumerations_match_oracles_on_general_forbidden_graphs(monkeypatch):
    # every optimum and every maximal h-free set, against the brute-force
    # oracles, on seeded hosts of 4 to 6 vertices with at most 9 edges; the
    # forbidden graphs add 2K2 and P3 plus a vertex, whose plans have
    # positions with no earlier neighbour. The search's node and prune
    # counts equal those of the include step that re-tests every live edge
    # instead of reading the copy table.
    forbidden = {**ORACLE_FORBIDDEN, "2K2": KILL_STEP_FORBIDDEN["2K2"],
                 "P3+K1": KILL_STEP_FORBIDDEN["P3+K1"]}
    table_kills = solver._kills

    def counters(g, t, h, kill_step):
        with monkeypatch.context() as m:
            m.setattr(solver, "_kills", kill_step)
            res = max_hfree_subgraph(g, t, h)
        stats = res.stats
        return (res.best_count, res.best_edges, stats.nodes, stats.pruned_count,
                stats.pruned_cap, stats.pruned_packing, stats.pruned_lex, stats.seed_count)

    rng = random.Random(2018)
    pairs = [(p, q) for q in forbidden for p in ORACLE_PATTERNS]
    for trial in range(2 * len(pairs)):
        pname, hname = pairs[trial % len(pairs)]
        t, h = ORACLE_PATTERNS[pname], forbidden[hname]
        g = _oracle_host(rng, hname)
        case = (trial, pname, hname, g.edges())
        # the brute-force checks run the shipped include step
        assert solver._kills is table_kills
        best, ties = enumerate_optima(g, t, h)
        assert (best, ties) == optima_brute(g, t.realize(), h), case
        assert ties[0] == max_hfree_subgraph(g, t, h).best_edges, case
        assert enumerate_maximal_hfree(g, h) == maximal_hfree_brute(g, h), case
        assert counters(g, t, h, table_kills) == counters(g, t, h, kills_by_retest(g, h)), case


def test_single_edge_forbidden_graphs_match_oracles():
    # a forbidden graph with one edge is settled at the root: a host edge
    # alone holds a copy exactly when the host has at least h.n vertices.
    # K2, K2 plus a vertex and K2 plus five vertices, on seeded hosts of 2
    # to 7 vertices with at most 9 edges, so each of the last two fits in
    # some hosts and not in others; the optimum, the optima and the
    # maximal sets against the brute-force oracles
    forbidden = {"K2": complete(2), "K2+K1": from_graph6("B_"), "K2+5K1": from_graph6("F_???")}
    assert [h.edge_count() for h in forbidden.values()] == [1, 1, 1]
    rng = random.Random(2023)
    fits = {name: set() for name in forbidden}
    patterns = list(ORACLE_PATTERNS.items())
    for trial in range(24):
        n = 2 + trial % 6
        pairs = list(itertools.combinations(range(n), 2))
        g = Graph.from_edges(n, rng.sample(pairs, min(len(pairs), rng.randint(1, 9))))
        pname, t = patterns[trial % len(patterns)]
        for hname, h in forbidden.items():
            fits[hname].add(h.n <= n)
            case = (trial, pname, hname, g.edges())
            res = max_hfree_subgraph(g, t, h)
            assert (res.best_count, res.best_edges) == max_hfree_brute(g, t.realize(), h), case
            assert enumerate_optima(g, t, h) == optima_brute(g, t.realize(), h), case
            assert enumerate_maximal_hfree(g, h) == maximal_hfree_brute(g, h), case
    assert fits == {"K2": {True}, "K2+K1": {True, False}, "K2+5K1": {True, False}}


def _clique_host(rng, k: int) -> Graph:
    """A seeded host of k to k + 2 vertices and at most 11 edges holding a
    planted K_k, so the forbidden clique has copies to pack."""
    n = rng.randint(k, k + 2)
    all_pairs = list(itertools.combinations(range(n), 2))
    edges = set(itertools.combinations(sorted(rng.sample(range(n), k)), 2))
    size = min(len(all_pairs), rng.randint(len(edges) + 1, 11))
    edges.update(rng.sample([e for e in all_pairs if e not in edges], size - len(edges)))
    return Graph.from_edges(n, sorted(edges))


def test_packing_bound_matches_oracles_on_clique_forbids():
    # K2 and K3 under forbidden K4 and K5, where the packing bound takes
    # C(k-2, m-2) = 1, 2, 1 and 3 copies per packed K_k; hosts are dense
    # enough to hold the forbidden clique
    rng = random.Random(2020)
    pairs = [(m, k) for k in (4, 5) for m in (2, 3)]
    for trial in range(8 * len(pairs)):
        m, k = pairs[trial % len(pairs)]
        t, h = Pattern.clique(m), complete(k)
        g = _clique_host(rng, k)
        case = (trial, m, k, g.edges())
        best, ties = optima_brute(g, t.realize(), h)
        res = max_hfree_subgraph(g, t, h)
        assert (res.best_count, res.best_edges) == (best, ties[0]), case
        assert enumerate_optima(g, t, h) == (best, ties), case


def test_dominance_prune_keeps_the_lex_least_optimum():
    # under a forbidden K_k, branch-and-bound refuses a node once an edge
    # excluded below its last included edge has no K_k through it in the
    # upper graph plus that edge; the lex-least optimum L is never refused,
    # as L plus such an edge holds a copy of K_k. K1 to K3, a blow-up and a
    # path under forbidden K3 and K4, on the oracle hosts and on hosts
    # holding the forbidden clique, against the brute-force optima
    rng = random.Random(2029)
    patterns = {"K1": Pattern.clique(1), "K2": K2, "K3": K3, "K2(2)": BLOWUP, "P3": PATH3}
    pruned = 0
    for trial in range(32):
        k = 3 + trial % 2
        h = complete(k)
        g = _oracle_host(rng, "K3") if trial % 4 < 2 else _clique_host(rng, k)
        for pname, t in patterns.items():
            best, ties = optima_brute(g, t.realize(), h)
            res = max_hfree_subgraph(g, t, h)
            assert (res.best_count, res.best_edges) == (best, ties[0]), (trial, pname, g.edges())
            pruned += res.stats.pruned_dominance
    assert pruned > 0
    # the lex-least optimum, the triangle 013, plus the edge 24 above its
    # last edge is K4-free: only edges below the last included edge may
    # refuse a node, or this optimum would be lost
    g, h = Graph.from_edges(5, [(0, 1), (0, 3), (1, 3), (2, 4), (3, 4)]), complete(4)
    res = max_hfree_subgraph(g, K3, h)
    assert (res.best_count, res.best_edges) == (1, ((0, 1), (0, 3), (1, 3)))
    # the rebuild seed of this host is an optimum but not the lex-least one,
    # so the search must still reach the lex-least past a dominance prune
    g, h = from_graph6("ETjw"), complete(4)
    best, ties = optima_brute(g, K3.realize(), h)
    seed = solver._feasible_seed(g, K3, h)
    assert seed[0] == best and seed[1] != ties[0]
    res = max_hfree_subgraph(g, K3, h)
    assert (res.best_count, res.best_edges) == (best, ties[0])
    assert res.stats.pruned_dominance > 0


def test_include_step_kills_every_completed_clique():
    # including (u, v) can complete a K_k through a live edge (u, w) with w
    # in N(v), through (v, w) with w in N(u), or through an edge inside
    # N(u) & N(v); a filter testing only edges inside {u, v} | (N(u) & N(v))
    # misses the first two kinds, which the triangle already shows
    assert enumerate_maximal_hfree(complete(3), complete(3)) == [
        ((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2))]
    rng = random.Random(2021)
    for trial in range(24):
        k = 3 + trial % 3
        g, h = _clique_host(rng, k), complete(k)
        case = (trial, k, g.edges())
        assert enumerate_maximal_hfree(g, h) == maximal_hfree_brute(g, h), case
        res = max_hfree_subgraph(g, K2, h)
        assert (res.best_count, res.best_edges) == max_hfree_brute(g, complete(2), h), case


# non-clique forbidden graphs: C4, C5, K4 - e, the pendant triangle, P4,
# W4 and K2,3, then disconnected ones whose plans have positions with no
# earlier neighbour: 2K2, a triangle plus a vertex, and P3 plus an edge
NON_CLIQUE_FORBIDDEN = [
    cycle(4),
    cycle(5),
    ORACLE_FORBIDDEN["K4-e"],
    ORACLE_FORBIDDEN["pendant-triangle"],
    Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    ORACLE_FORBIDDEN["W4"],
    Graph.from_edges(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)]),
    Graph.from_edges(4, [(0, 1), (2, 3)]),
    Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),
    Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]),
]


def test_creates_copy_matches_all_edges_loop():
    # the maximality test: at search nodes on seeded hosts of 5 to 10
    # vertices, node.completes(a, b) says, for every host edge (a, b)
    # outside the upper graph U, whether U plus that edge holds a copy of h
    # through it. It answers from the copy table and from the witness each
    # edge keeps, so the nodes are asked in search order, U shrinking and
    # growing again. Against the forbid test that pins every directed edge
    # of h and, on hosts of at most 8 vertices, against the permutation
    # oracle, which shares no code with the package
    rng = random.Random(2019)
    hits = misses = brute = 0
    for trial in range(100):
        h = NON_CLIQUE_FORBIDDEN[trial % len(NON_CLIQUE_FORBIDDEN)]
        g = random_graph(rng, rng.randint(5, 10), rng.choice((0.2, 0.4, 0.6, 0.8)))
        entered = 0

        def enter(node):
            nonlocal hits, misses, brute, entered
            up = list(node.up)
            for a, b in g.edges():
                if up[a] >> b & 1:
                    continue
                want = creates_copy_all_edges(up, g.n, h, a, b)
                if g.n <= 8:
                    assert creates_copy_brute(up, g.n, h, a, b) == want, (trial, a, b)
                    brute += 1
                assert node.completes(a, b) == want, (trial, g.edges(), up, a, b)
                hits += want
                misses += not want
            entered += 1
            return entered < 12 and rng.random() < 0.8

        solver._search(g, None, h, enter)
    assert hits > 100 and misses > 100 and brute > 300


def test_creates_copy_counts_the_new_edge_at_the_pinned_ends():
    # h minus one edge (a, b) planted with a on u = 0 and b on v = 1, u and v
    # touching nothing else, in a host that adds the edge (0, 1). That edge
    # is the host's lowest, so the root's exclude child has U = the host
    # less (0, 1), where u has exactly deg_h(a) - 1 neighbours and v
    # deg_h(b) - 1; completes(0, 1) must still find the planted copy. Both
    # directions of every edge of every non-clique forbidden graph, on
    # hosts of 5 to 10 vertices
    rng = random.Random(2020)
    for h in NON_CLIQUE_FORBIDDEN:
        for a, b in h.edges():
            for x, y in ((a, b), (b, a)):
                for _ in range(3):
                    n = rng.randint(max(5, h.n + 2), 10)
                    image = rng.sample(range(2, n), h.n)
                    image[x], image[y] = 0, 1
                    edges = {tuple(sorted((image[c], image[d]))) for c, d in h.edges()}
                    others = [e for e in itertools.combinations(range(2, n), 2)]
                    edges.update(rng.sample(others, rng.randint(0, len(others) // 2)))
                    g = Graph.from_edges(n, sorted(edges))
                    found = []

                    def enter(node):
                        if not node.excluded:
                            return not node.included
                        assert node.excluded == [(0, 1)] and not node.included
                        up = node.up
                        assert (up[0].bit_count(), up[1].bit_count()) == (
                            h.degree(x) - 1, h.degree(y) - 1)
                        found.append(node.completes(0, 1))
                        return False

                    solver._search(g, None, h, enter)
                    assert found == [True], (h.edges(), x, y, g.edges())


def test_include_step_kills_exactly_the_live_edges_that_complete_a_copy(monkeypatch):
    # every include of a search records its state; on a sample of them the
    # kill mask must be the live edges (those of U not included) that the
    # permutation oracle says complete a copy of h with the included edges
    states = []
    real = solver._kills
    search = solver._search
    current = []

    def tracked(g, t, h, enter):
        def spy(node):
            current[:] = [node]
            return enter(node)

        return search(g, t, h, spy)

    def record(filed, j, up_edges):
        kill = real(filed, j, up_edges)
        states.append((tuple(current[0].included), j, up_edges, kill))
        return kill

    monkeypatch.setattr(solver, "_search", tracked)
    monkeypatch.setattr(solver, "_kills", record)
    rng = random.Random(2022)
    checked = {}
    for name, h in KILL_STEP_FORBIDDEN.items():
        checked[name] = [0, 0]
        for _ in range(4):
            if name == "W4":
                g = _oracle_host(rng, name)
            else:
                n = rng.randint(max(5, h.n), 7)
                pairs = list(itertools.combinations(range(n), 2))
                g = Graph.from_edges(n, rng.sample(pairs, min(len(pairs), rng.randint(9, 13))))
            states.clear()
            enumerate_maximal_hfree(g, h)
            # a few states whose kill set is not empty, and a few others
            hit = [state for state in states if state[3]]
            miss = [state for state in states if not state[3]]
            sample = rng.sample(hit, min(len(hit), 5)) + rng.sample(miss, min(len(miss), 3))
            edges = g.edges()
            for included, j, up_edges, kill in sample:
                assert included[-1] == edges[j] and up_edges >> j & 1
                adj = Graph.from_edges(g.n, included).adj
                want = 0
                for i, (a, b) in enumerate(edges):
                    if up_edges >> i & 1 and (a, b) not in included:
                        if creates_copy_brute(adj, g.n, h, a, b):
                            want |= 1 << i
                assert kill == want, (name, g.edges(), included, up_edges)
                checked[name][0] += 1
                checked[name][1] += want != 0
    for name, (states_seen, with_kills) in checked.items():
        assert states_seen >= 20 and 10 <= with_kills < states_seen, (name, states_seen, with_kills)


def test_copy_table_files_each_copy_once():
    # _copy_table against every injective map of h: each copy of h in the
    # host, as its edges' index mask, is listed once and filed once, under
    # its second-highest edge with its highest edge's bit. Every
    # KILL_STEP_FORBIDDEN graph on seeded hosts of 4 to 7 vertices (a
    # planted wheel for W4); K2 plus a vertex, whose one-edge copies have
    # no second-highest edge and are filed under none; and K2 plus five
    # vertices, which has no copy in a host of fewer than 7 vertices
    forbidden = {**KILL_STEP_FORBIDDEN, "K2+K1": from_graph6("B_"), "K2+5K1": from_graph6("F_???")}
    rng = random.Random(2030)
    found = dict.fromkeys(forbidden, 0)
    too_small = 0
    for trial in range(8 * len(forbidden)):
        name = list(forbidden)[trial % len(forbidden)]
        h = forbidden[name]
        if name == "W4":
            g = _oracle_host(rng, name)
        else:
            n = rng.randint(4, 7)
            pairs = list(itertools.combinations(range(n), 2))
            g = Graph.from_edges(n, rng.sample(pairs, rng.randint(len(pairs) // 2, len(pairs))))
        want = copy_masks_brute(g, h)
        copies, filed = solver._copy_table(g, h)
        case = (name, g.edges())
        assert copies == sorted(want), case
        assert len(filed) == g.edge_count()
        listed = []
        for j, row in enumerate(filed):
            for copy, top in row:
                assert top == 1 << copy.bit_length() - 1 and (copy ^ top).bit_length() - 1 == j
                listed.append(copy)
        assert sorted(listed) == [c for c in copies if c & (c - 1)], case
        found[name] += len(want)
        too_small += h.n > g.n
    assert all(found.values()) and too_small > 0, (found, too_small)


def test_copy_table_keeps_the_search_node_counts(monkeypatch):
    # the include step and the maximality test read the copy table, and the
    # searches enter as many nodes as when each include walked the
    # forbidden graph's embeddings: K2 and K3 under K4 - e on gnp(9, .6, 2),
    # K3 under C5 on g6:F~~|w, and the maximal C5-free and (K4 - e)-free
    # subgraphs of g6:Frniw
    k4e = ORACLE_FORBIDDEN["K4-e"]
    g = gnp(9, 0.6, 2)
    for t, count, nodes in ((K2, 17, 17_091), (K3, 4, 407_215)):
        res = max_hfree_subgraph(g, t, k4e)
        assert (res.best_count, res.stats.nodes) == (count, nodes), t
    res = max_hfree_subgraph(from_graph6("F~~|w"), K3, cycle(5))
    assert (res.best_count, res.stats.nodes) == (8, 8_267)
    search = solver._search
    nodes = []
    monkeypatch.setattr(solver, "_search", lambda *args: nodes.append(search(*args)) or nodes[-1])
    host = from_graph6("Frniw")
    for h, sets, limit in ((cycle(5), 439, 6_615), (k4e, 231, 2_319)):
        nodes.clear()
        assert len(enumerate_maximal_hfree(host, h)) == sets, h.edges()
        assert nodes == [limit], h.edges()


def test_feasible_seed_is_hfree_without_a_recheck():
    # the seed is the rebuilt (chi - 1)-partite edge set when chi(h) >= 3:
    # for every oracle pattern and forbidden graph on the oracle hosts and
    # on complete hosts it is h-free and counted right by the permutation
    # oracles. A bipartite forbidden graph gets no seed, and a
    # branch-and-bound solve under one reports none.
    rng = random.Random(2021)
    seeded = unseeded = 0
    for hname, h in ORACLE_FORBIDDEN.items():
        hosts = [_oracle_host(rng, hname) for _ in range(3)] + [complete(6), complete(7)]
        bipartite = chromatic_number(h).chromatic_number <= 2
        for pname, t in ORACLE_PATTERNS.items():
            for g in hosts:
                seed = solver._feasible_seed(g, t, h)
                if bipartite:
                    assert seed is None, (hname, pname, g.edges())
                    unseeded += 1
                    continue
                count, edges = seed
                w = subgraph_from_edges(g, edges)
                assert not contains_brute(w, h), (hname, pname, g.edges())
                assert count == copies_brute(w, t.realize()), (hname, pname, g.edges())
                seeded += 1
    assert seeded and unseeded
    for g in (complete(6), turan(7, 3)):
        res = max_hfree_subgraph(g, K2, cycle(4))
        assert (res.stats.seed_count, res.stats.seed_s) == (None, 0.0)


def test_bnb_proves_clique_optima_near_the_root():
    # node counts, not times: the Turan cap and the lex-prefix prune settle
    # these where plain bound pruning needed 378,045 and 39,296 nodes
    for n, m, k, want, max_nodes in [(9, 2, 3, 20, 1_000), (7, 3, 4, 12, 2_000)]:
        t = Pattern.clique(m)
        res = max_hfree_subgraph(complete(n), t, complete(k))
        assert res.best_count == want
        assert res.stats.nodes <= max_nodes, (n, m, k, res.stats.nodes)
        w = subgraph_from_edges(complete(n), res.best_edges)
        assert count_pattern(w, t) == want
        assert count_pattern(w, Pattern.clique(k)) == 0


def test_packing_bound_settles_a_dense_k4_forbid_host():
    # the first of two 10-vertex 40-edge hosts drawn from all pairs with
    # random.Random(5); the count bound and the Turan cap alone took 194,035
    # nodes here, the forbidden-K4 packing bound keeps it under 60,000
    pairs = list(itertools.combinations(range(10), 2))
    g = Graph.from_edges(10, random.Random(5).sample(pairs, 40))
    res = max_hfree_subgraph(g, K3, complete(4))
    assert res.best_count == 36
    assert res.best_edges == (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 7), (0, 8), (0, 9), (1, 3), (1, 5), (1, 6), (1, 7),
        (1, 8), (1, 9), (2, 3), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (3, 6),
        (4, 5), (4, 6), (4, 7), (4, 8), (4, 9), (5, 7), (5, 8), (5, 9), (6, 7), (6, 8), (6, 9))
    assert res.stats.nodes <= 60_000, res.stats
    assert res.stats.pruned_packing > 0


def test_witness_recount_mismatch_raises(monkeypatch):
    # forbidden C4 has no seed, so the recount is the first count_pattern call
    monkeypatch.setattr(solver, "count_pattern", lambda g, t: -1)
    with pytest.raises(RuntimeError, match="witness recount mismatch"):
        max_hfree_subgraph(complete(4), K2, cycle(4))


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


def test_maximal_enumeration_prunes_on_the_upper_graph(monkeypatch):
    # a node is entered only while each edge excluded by choice completes a
    # copy of h in the upper graph plus that edge. On the 7-vertex 15-edge
    # host g6:Frniw the maximal sets match the oracle's, and the search
    # enters no more nodes than that prune leaves (filtering only at the
    # leaves entered 41,117 / 26,811 / 50,928, and the prune with a node
    # per edge position, killed ones included, 7,222 / 1,346 / 2,571)
    host = from_graph6("Frniw")
    assert (host.n, host.edge_count()) == (7, 15)
    search = solver._search
    nodes = []
    monkeypatch.setattr(solver, "_search", lambda *args: nodes.append(search(*args)) or nodes[-1])
    for h, limit in ((cycle(5), 6_615), (complete(3), 1_109), (ORACLE_FORBIDDEN["K4-e"], 2_319)):
        nodes.clear()
        assert enumerate_maximal_hfree(host, h) == maximal_hfree_brute(host, h), h.edges()
        assert len(nodes) == 1 and nodes[0] <= limit, (h.edges(), nodes)


def test_every_search_node_decides_one_live_edge():
    # a killed edge gets no node of its own: with every node accepted, each
    # non-leaf has exactly two children, and at each leaf no live edge is
    # left, so the upper graph is the included set and every other host
    # edge was excluded by choice or completes a copy of h
    hosts = [complete(6), gnp(7, 0.6, 1), gnp(8, 0.5, 2)]
    for g, h in itertools.product(hosts, (complete(3), cycle(5))):
        seen = {"inner": 0, "leaves": 0}

        def enter(node):
            if not node.leaf:
                seen["inner"] += 1
                return True
            seen["leaves"] += 1
            leaf = Graph.from_edges(g.n, node.included).adj
            assert tuple(node.up) == leaf
            for a, b in set(g.edges()) - set(node.included) - set(node.excluded):
                assert creates_copy_brute(leaf, g.n, h, a, b), (a, b)
            return True

        nodes = solver._search(g, None, h, enter)
        assert nodes == 1 + 2 * seen["inner"] == 2 * seen["leaves"] - 1, (g.edges(), h.edges())


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


# raw partitions that complete(4) cannot carry, with the error each gets
MALFORMED_PARTITIONS = (
    (Partition(2, ((0, 0), (1, 1), (1, 0))), "vertex 1 assigned twice"),
    (Partition(2, ((0, 0), (1, 2))), "part index 2 outside 0..1"),
    (Partition(2, ((0, -1),)), "part index -1 outside 0..1"),
    (Partition(2, ((4, 0),)), "vertex 4 not in graph on 4 vertices"),
)


def test_multipartite_subgraph_refuses_malformed_partitions():
    # a vertex in two parts would keep an edge in one row only, and the
    # subgraph is built without the symmetry check, so it is refused first
    for part, bad in MALFORMED_PARTITIONS:
        with pytest.raises(ValueError) as info:
            multipartite_subgraph(complete(4), part)
        assert str(info.value) == bad


def test_reinsert_refuses_malformed_partitions():
    # the same checks as multipartite_subgraph: a part index k was an
    # IndexError, and a vertex in two parts was accepted, one of its entries
    # lost from the partition returned
    for part, bad in MALFORMED_PARTITIONS + (
        (Partition(2, ((0, 0), (0, 1))), "vertex 0 assigned twice"),
    ):
        with pytest.raises(ValueError) as info:
            reinsert(complete(4), part, 3, K2)
        assert str(info.value) == bad
    with pytest.raises(ValueError, match="reinsert needs k >= 1"):
        reinsert(complete(4), Partition.of(0, {}), 3, K2)


def test_max_partite_local_search_never_beats_exact():
    rng = random.Random(23)
    for _ in range(15):
        g = random_graph(rng, 7, p=0.6)
        _, exact = max_partite(g, 3, K2)
        _, ls = max_partite(g, 3, K2, mode="local-search", seed=5)
        assert ls <= exact
    # and it finds the optimum on a clean instance
    assert max_partite(complete(6), 3, K3, mode="local-search", seed=1)[1] == 8


def test_max_partite_answers_0_for_more_clique_classes_than_parts(monkeypatch):
    # a k-partite graph holds no K_m or K_m(t) with m > k: both modes return
    # 0 without scoring a vertex, with the partition of the full search,
    # and exact mode still refuses a host past its vertex budget
    calls = []
    monkeypatch.setattr(solver, "copies_through",
                        lambda *a: calls.append(None) or copies_through(*a))
    default = Budgets()
    rng = random.Random(94)
    for t, k in ((Pattern.clique(4), 3), (K3, 2), (Pattern.blowup(3, 2), 2), (Pattern.clique(5), 1)):
        for n in (0, 1, 5, 9):
            g = random_graph(rng, n, rng.choice((0.5, 0.9)))
            seed = rng.randrange(100)
            part, count = max_partite(g, k, t)
            assert (tuple(p for _, p in part.assignment), count) == max_partite_recount(g, k, t)
            part, count = max_partite(g, k, t, "local-search", seed=seed)
            assert (tuple(p for _, p in part.assignment), count) == local_search_recount(
                g, k, t, seed, default.ls_restarts, default.ls_moves_per_vertex
            )
            assert count == 0
    assert not calls
    with pytest.raises(BudgetExceededError):
        max_partite(complete(15), 3, Pattern.clique(4))


def test_local_search_matches_full_recount_oracle(monkeypatch):
    # every pattern scores moves by their delta, which must take the same
    # moves as recounting every candidate partition. Non-clique hosts stop
    # at 16 vertices, where the oracle's full recounts stay fast.
    short = Budgets(ls_restarts=3, ls_moves_per_vertex=4)
    rng = random.Random(31)
    for t, top in ((K2, 30), (K3, 30), (Pattern.clique(4), 30), (BLOWUP, 16), (PATH3, 16),
                   (EDGE_PLUS_VERTEX, 16)):
        for k in (2, 3):
            for seed in (0, 1, 2):
                g = random_graph(rng, rng.randrange(8, top + 1), rng.choice((0.4, 0.6, 0.8)))
                part, count = max_partite(g, k, t, "local-search", seed=seed, budgets=short)
                assert (tuple(p for _, p in part.assignment), count) == local_search_recount(
                    g, k, t, seed, short.ls_restarts, short.ls_moves_per_vertex
                )
    # the default schedule on a small host
    g = random_graph(rng, 9, 0.7)
    part, count = max_partite(g, 3, K3, "local-search", seed=4)
    assert (tuple(p for _, p in part.assignment), count) == local_search_recount(
        g, 3, K3, 4, Budgets().ls_restarts, Budgets().ls_moves_per_vertex
    )
    # the default schedule on 30-70-vertex hosts, where a clique pattern's
    # drawn vertex is skipped unless a neighbor moved since it was scored;
    # each scoring makes k copies_through calls, so fewer calls than k per
    # draw show that draws were skipped
    calls = []
    monkeypatch.setattr(solver, "copies_through",
                        lambda *a: calls.append(None) or copies_through(*a))
    default = Budgets()
    for t, density in ((K2, 0.3), (K3, 0.3), (Pattern.clique(4), 0.2)):
        for k in (2, 3, 4):
            g = random_graph(rng, rng.randrange(30, 71), density)
            seed = rng.randrange(100)
            calls.clear()
            part, count = max_partite(g, k, t, "local-search", seed=seed)
            assert (tuple(p for _, p in part.assignment), count) == local_search_recount(
                g, k, t, seed, default.ls_restarts, default.ls_moves_per_vertex
            )
            assert len(calls) < k * default.ls_restarts * default.ls_moves_per_vertex * g.n
    # a copy of P3 through v can reach past v's neighbors, so a move two
    # steps away can change v's best part: v is rescored on every draw
    for _ in range(10):
        g = random_graph(rng, rng.randrange(8, 17), rng.choice((0.4, 0.6, 0.8)))
        k, seed = rng.choice((2, 3)), rng.randrange(100)
        calls.clear()
        part, count = max_partite(g, k, PATH3, "local-search", seed=seed, budgets=short)
        assert (tuple(p for _, p in part.assignment), count) == local_search_recount(
            g, k, PATH3, seed, short.ls_restarts, short.ls_moves_per_vertex
        )
        assert len(calls) == k * short.ls_restarts * short.ls_moves_per_vertex * g.n


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


def test_peel_matches_relabel_oracle():
    # the live-mask peel against one relabelled graph per removal: same
    # core, same trace, step by step. The densities put the minimum degree
    # on both sides of every k's cut, and the floors stop some runs early.
    hosts = [gnp(n, (0.25, 0.5, 0.7, 0.85, 0.95)[n % 5], n) for n in range(41)]
    for g in hosts + [gnp(130, 0.6, 3)]:
        for t in (K2, K3, BLOWUP, PATH3):
            for k in (2, 3, 4, 5):
                for floor in sorted({0, 3, g.n // 2, g.n}):
                    core, trace = peel(g, k, t, floor)
                    want_core, want_trace = peel_relabel(g, k, t, floor)
                    case = (g.n, t, k, floor)
                    assert trace.steps == want_trace.steps, case
                    assert trace == want_trace, case
                    assert core == want_core, case


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


def test_exact_partition_matches_full_recount():
    rng = random.Random(91)
    cases = [(Pattern.clique(m), k, n) for m in range(1, 5) for k in range(1, 5)
             for n in range(0, 10)]
    # the longest strings: 10 and 11 vertices in up to 3 parts, 10 in 4
    cases += [(Pattern.clique(m), k, n) for m in range(1, 5) for k in (1, 2, 3)
              for n in (10, 11)]
    cases += [(Pattern.clique(m), 4, 10) for m in (2, 3)]
    cases += [(t, k, n) for t in (BLOWUP, PATH3, EDGE_PLUS_VERTEX) for k in (1, 2, 3)
              for n in (0, 1, 4, 7)]
    for t, k, n in cases:
        g = random_graph(rng, n, p=rng.choice([0.3, 0.6, 0.9]))
        part, count = max_partite(g, k, t)
        want_assign, want_count = max_partite_recount(g, k, t)
        assert count == want_count, (t, k, n, g.adj)
        assert tuple(part.as_dict()[v] for v in range(n)) == want_assign, (t, k, n, g.adj)
        assert count == count_pattern(multipartite_subgraph(g, part), t)


def test_bounded_exact_partition_matches_brute_force():
    # exact max_partite skips a subtree once the host's copies whose last
    # vertex is still unplaced cannot lift the count past the best; its
    # count and string are those of scoring every k-assignment: K1, K2,
    # K3, a blow-up, a path and an edge plus an isolated vertex, in 1 to 4
    # parts, on random hosts of up to 8 vertices (7 in four parts, which
    # leaves the oracle 715 strings to score instead of 2,795)
    rng = random.Random(2030)
    patterns = [Pattern.clique(1), K2, K3, BLOWUP, PATH3, EDGE_PLUS_VERTEX]
    for trial in range(32):
        k = 1 + trial % 4
        n = rng.randint(0, 8 if k < 4 else 7)
        g = random_graph(rng, n, p=rng.choice([0.3, 0.6, 0.9]))
        for t in patterns:
            part, count = max_partite(g, k, t)
            got = (tuple(part.as_dict()[v] for v in range(n)), count)
            assert got == max_partite_brute(g, k, t.realize()), (t, k, g.adj)


def test_reinsert_matches_brute_reinsertion():
    rng = random.Random(92)
    patterns = [Pattern.clique(m) for m in range(1, 5)] + [BLOWUP, PATH3, EDGE_PLUS_VERTEX]
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, p=rng.choice([0.4, 0.7, 1.0]))
        k = rng.randint(1, 4)
        v = rng.randrange(n)
        others = [u for u in range(n) if u != v and rng.random() < 0.8]
        part = Partition.of(k, {u: rng.randrange(k) for u in others})
        for t in patterns:
            got = reinsert(g, part, v, t)
            assert got == reinsert_brute(g, part, v, t), (t, k, v, part, g.adj)


def test_pattern_on_no_vertices_has_one_copy_on_every_path():
    # one copy in every graph, the graph on no vertices included: the
    # partition of no vertices, and a rebuild that peels every vertex
    t = parse_pattern("g6:?")
    for n in (0, 3):
        for mode in ("exact", "local-search"):
            assert max_partite(empty(n), 2, t, mode)[1] == 1, (n, mode)
    rb = rebuild(empty(4), 3, t, complete(3))
    assert (rb.core_count, rb.gains, rb.best_count) == (1, (0, 0, 0, 0), 1)


def test_reinsert_rejects_bad_vertices():
    part = Partition.of(2, {0: 0, 1: 1})
    with pytest.raises(ValueError):
        reinsert(complete(3), part, 3, K2)
    with pytest.raises(ValueError):
        reinsert(complete(3), part, 1, K2)
    with pytest.raises(ValueError):
        reinsert(complete(3), Partition.of(2, {5: 0}), 1, K2)


def _rebuild_reference(g: Graph, k: int, t: Pattern, seed: int = 0, budgets=Budgets()):
    """rebuild from the oracles: the package's peel, then the recounting
    partition of the core (exact up to budgets' partite_exact_n vertices,
    else the local search) and brute-force reinsertion."""
    core, trace = peel(g, k, t)
    if core.n <= budgets.partite_exact_n:
        assign, core_count = max_partite_recount(core, k - 1, t)
    else:
        assign, core_count = local_search_recount(
            core, k - 1, t, seed, budgets.ls_restarts, budgets.ls_moves_per_vertex
        )
    part = Partition.of(k - 1, {trace.core_vertices[v]: p for v, p in enumerate(assign)})
    gains = []
    for step in reversed(trace.steps):
        part, gain = reinsert_brute(g, part, step.vertex, t)
        gains.append(gain)
    final = multipartite_subgraph(g, part)
    return count_pattern(final, t), tuple(final.edges()), part, core_count, tuple(gains)


def test_rebuild_matches_oracle_pipeline():
    rng = random.Random(93)
    for trial in range(24):
        n = rng.randint(5, 10)
        g = random_graph(rng, n, p=rng.choice([0.5, 0.7, 0.9]))
        k = 3 if trial % 2 else 4
        t = [K2, K3, Pattern.clique(4), BLOWUP, PATH3, EDGE_PLUS_VERTEX][trial // 2 % 6]
        rb = rebuild(g, k, t, complete(k))
        got = (rb.best_count, rb.best_edges, rb.partition, rb.core_count, rb.gains)
        assert got == _rebuild_reference(g, k, t), (trial, g.adj)


def test_rebuild_matches_oracle_pipeline_past_the_exact_partition():
    # a dense part of 16-19 vertices plus 2-4 vertices of degree at most 3:
    # the peel removes those, and the core of more than partite_exact_n
    # vertices takes the local-search partition before they are reinserted
    short = Budgets(ls_restarts=3, ls_moves_per_vertex=4)
    rng = random.Random(96)
    cases = [(K2, 3), (K2, 4), (K3, 4), (K3, 3), (BLOWUP, 3), (BLOWUP, 4), (PATH3, 3),
             (PATH3, 4), (EDGE_PLUS_VERTEX, 3), (EDGE_PLUS_VERTEX, 4)]
    for trial, (t, k) in enumerate(cases):
        dense, extra = rng.randint(16, 19), rng.randint(2, 4)
        edges = {e for e in itertools.combinations(range(dense), 2) if rng.random() < 0.9}
        edges |= {(rng.randrange(dense), v) for v in range(dense, dense + extra) for _ in range(3)}
        g = Graph.from_edges(dense + extra, sorted(edges))
        rb = rebuild(g, k, t, complete(k), seed=trial, budgets=short)
        assert rb.stats.engine == "peel+local-search-partition", (trial, g.adj)
        assert len(rb.gains) >= extra, (trial, g.adj)
        got = (rb.best_count, rb.best_edges, rb.partition, rb.core_count, rb.gains)
        assert got == _rebuild_reference(g, k, t, trial, short), (trial, g.adj)


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
        bnb_edges=5,
        partite_exact_n=14,
        ties_edges=16,
        ls_restarts=20,
        ls_moves_per_vertex=10,
    )
    with pytest.raises(BudgetExceededError):
        max_hfree_subgraph(complete(4), K2, complete(3), budgets=tight)
    # the retired exhaustive engine's guards are no fields of Budgets
    for field in ("exhaustive_edges", "auto_exhaustive_max"):
        with pytest.raises(TypeError):
            Budgets(**{field: 8})


def test_budgets_refuse_local_search_without_a_restart():
    # local search keeps the best of its restarts, so it needs one; a
    # restart may make no moves and keep its first draw
    for field, value in (("ls_restarts", 0), ("ls_restarts", -3),
                         ("ls_moves_per_vertex", -1)):
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            Budgets(**{field: value})
    still = Budgets(ls_restarts=1, ls_moves_per_vertex=0, partite_exact_n=0)
    part, count = max_partite(complete(6), 2, K2, "local-search", budgets=still)
    assert count == sum(1 for u, v in complete(6).edges() if part.part_of(u) != part.part_of(v))


def test_every_spelling_of_a_clique_searches_as_the_clique():
    # K_m(1), K_{m-1}+(1) and the graph6 K_m are the clique K_m: the same
    # count, witness, ties and search nodes as the literal K_m under
    # branch-and-bound, where the clique bounds apply, on a host past and a
    # host within the tie budget, and under tie enumeration on the latter
    small = gnp(7, 0.6, 7)
    assert small.edge_count() <= solver.DEFAULT_BUDGETS.ties_edges
    for m, host, h, nodes in ((2, complete(9), complete(3), 127),
                              (3, gnp(9, 0.7, 3), complete(4), 435)):
        runs = {}
        for text in (f"K{m}", f"K{m}(1)", f"K{m - 1}+(1)", "g6:" + to_graph6(complete(m))):
            t = parse_pattern(text)
            assert (t.kind, t.m, t.t, t.literal()) == ("clique", m, 1, text)
            found = [max_hfree_subgraph(g, t, h) for g in (host, small)]
            runs[text] = ([(r.best_count, r.best_edges, r.stats.nodes) for r in found],
                          enumerate_optima(small, t, h))
        assert runs[f"K{m}"][0][0][2] == nodes
        assert all(run == runs[f"K{m}"] for run in runs.values()), m


def test_stats_report_engine_and_node_counts():
    res = max_hfree_subgraph(turan(6, 3), K2, complete(3))
    assert res.stats.engine == res.proof == "branch-and-bound"
    assert res.stats.nodes > 0
    assert res.stats.elapsed_s >= 0.0


def test_stats_report_the_incumbent_seed():
    # on complete(9) the rebuild seed is the Turan graph, an optimum
    for t, h, optimum in ((K2, complete(3), 20), (K3, complete(4), 27)):
        res = max_hfree_subgraph(complete(9), t, h)
        assert res.best_count == optimum
        assert res.stats.seed_count == optimum
        assert res.stats.seed_s > 0.0
    rng = random.Random(94)
    for _ in range(12):
        g = random_graph(rng, rng.randint(5, 9), p=0.6)
        for t, h in ((K2, complete(3)), (K3, complete(4)), (K2, cycle(5))):
            res = max_hfree_subgraph(g, t, h)
            assert 0 <= res.stats.seed_count <= res.best_count
    # chi(C4) = 2, so there is no seed
    res = max_hfree_subgraph(complete(4), K2, cycle(4))
    assert (res.stats.seed_count, res.stats.seed_s) == (None, 0.0)


def test_stats_split_prunes_by_rule():
    def pruned(stats):
        return (stats.pruned_count, stats.pruned_cap, stats.pruned_packing, stats.pruned_lex)

    # with no seed (chi(C4) = 2) the first leaf is all of the C4-free K3, and
    # the count bound cuts each of the three subtrees that exclude an edge
    res = max_hfree_subgraph(complete(3), K2, cycle(4))
    assert (res.stats.nodes, pruned(res.stats)) == (7, (3, 0, 0, 0))
    # the Turan cap of complete(9) equals the optimum, so the subtrees it
    # cuts to the incumbent's count count as lex prunes
    res = max_hfree_subgraph(complete(9), K2, complete(3))
    assert res.stats.pruned_count > 0 and res.stats.pruned_packing > 0
    assert res.stats.pruned_lex > 0
    assert sum(pruned(res.stats)) < res.stats.nodes
    # a non-clique forbidden graph has neither cap, packing nor dominance
    res = max_hfree_subgraph(complete(6), K2, cycle(4))
    assert res.stats.pruned_cap == res.stats.pruned_packing == res.stats.pruned_dominance == 0
    assert res.stats.pruned_count + res.stats.pruned_lex > 0
    # dominance prunes under a forbidden clique
    assert max_hfree_subgraph(gnp(9, 0.7, 3), K3, complete(4)).stats.pruned_dominance > 0
