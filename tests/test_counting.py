"""Pattern counting: specialized fast paths against brute-force ground truth."""

import itertools
import random
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfree import counting
from exfree.counting import (
    GENERIC_VERTEX_BUDGET,
    Pattern,
    _count_injective_homs,
    _hom_plan,
    _orbit_roots,
    _orbits,
    _vertex_orbits,
    blowup_shape,
    cliques_in_mask,
    contains,
    copies_through,
    copies_through_vertex,
    count_cliques,
    count_injective_homs,
    count_pattern,
    count_pattern_generic,
    exists_injective_hom,
    find_clique_in_mask,
    max_clique_size,
    parse_pattern,
)
from exfree.errors import BudgetExceededError, PatternSyntaxError
from exfree.graph6 import from_graph6, to_graph6
from exfree.graphs import (
    Graph,
    bits,
    blowup,
    complete,
    coned_blowup,
    cycle,
    empty,
    gnp,
    induced_subgraph,
    turan,
)

from oracles import (
    automorphisms_brute,
    contains_brute,
    copies_brute,
    count_injective_homs_leafwise,
    injective_homs_brute,
    random_graph,
    vertex_orbits_brute,
)


def test_count_cliques_base_cases():
    g = complete(5)
    assert count_cliques(g, 0) == 1
    assert count_cliques(g, 1) == 5
    assert count_cliques(g, 2) == 10
    assert count_cliques(g, 3) == 10
    assert count_cliques(g, 5) == 1
    assert count_cliques(g, 6) == 0
    assert count_cliques(empty(4), 2) == 0


def test_count_cliques_turan():
    assert count_cliques(turan(6, 3), 3) == 8
    assert count_cliques(turan(9, 3), 3) == 27
    assert count_cliques(turan(7, 3), 3) == 3 * 2 * 2


def test_blowup_worked_examples():
    b22 = Pattern.blowup(2, 2)
    assert count_pattern(complete(4), b22) == 3
    assert count_pattern(blowup(2, 3), b22) == 9  # K_{3,3}
    assert count_pattern(complete(5), b22) == 15
    assert count_pattern(cycle(4), b22) == 1


def test_blowup_closed_form_on_balanced_multipartite():
    for m in (1, 2, 3):
        for s in (1, 2, 3, 4, 5):
            for t in (1, 2):
                host = turan(m * s, m)
                expect = comb(s, t) ** m
                assert count_pattern(host, Pattern.blowup(m, t)) == expect, (m, s, t)


def test_coned_blowup_count():
    w4 = Pattern.coned_blowup(2, 2)  # 4-wheel: 4-cycle plus dominating apex
    assert count_pattern(complete(5), w4) == 15
    assert count_pattern(coned_blowup(2, 2), w4) == 1
    k4 = Pattern.coned_blowup(3, 1)  # coning a triangle gives a 4-clique
    assert count_pattern(complete(6), k4) == 15


def test_aut_counts_match_brute_force():
    # closed forms and orbit-stabilizer against the permutation count on
    # patterns and on seeded and symmetric graphs of 0-8 vertices; past 8,
    # known groups up to the generic budget, 12! and 11! included
    cases = [
        Pattern.clique(3),
        Pattern.clique(4),
        Pattern.blowup(2, 2),
        Pattern.blowup(3, 2),
        Pattern.blowup(2, 3),
        Pattern.coned_blowup(2, 2),
        Pattern.coned_blowup(2, 1),
        Pattern.coned_blowup(3, 1),
        Pattern.arbitrary(cycle(5)),
        Pattern.arbitrary(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])),
    ]
    rng = random.Random(37)
    graphs = [empty(8), cycle(8), Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
              Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])]
    graphs += [random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
               for n in range(9) for _ in range(2)]
    cases += [Pattern.arbitrary(g) for g in graphs]
    for p in cases:
        assert p.aut_count() == automorphisms_brute(p.realize()), p.literal()
    star11 = Graph.from_edges(12, [(0, v) for v in range(1, 12)])
    for g, want in [(cycle(11), 22), (cycle(12), 24), (empty(12), factorial(12)),
                    (star11, factorial(11))]:
        assert Pattern.arbitrary(g).aut_count() == want, g.edges()
    assert Pattern.coned_blowup(2, 5).aut_count() == 2 * factorial(5) ** 2  # 11 vertices
    with pytest.raises(BudgetExceededError):
        Pattern.arbitrary(cycle(GENERIC_VERTEX_BUDGET + 1)).aut_count()


def test_generic_counter_matches_brute_force():
    rng = random.Random(5)
    patterns = [
        Pattern.clique(3),
        Pattern.blowup(2, 2),
        Pattern.arbitrary(cycle(5)),
        Pattern.arbitrary(Graph.from_edges(3, [(0, 1)])),
    ]
    for i in range(25):
        g = random_graph(rng, rng.randrange(0, 8))
        p = patterns[i % len(patterns)]
        assert count_pattern_generic(g, p) == copies_brute(g, p.realize()), (
            i,
            p.literal(),
        )


def test_specialized_paths_match_generic():
    rng = random.Random(11)
    patterns = [
        Pattern.clique(2),
        Pattern.clique(3),
        Pattern.clique(4),
        Pattern.blowup(2, 2),
        Pattern.blowup(3, 2),
        Pattern.blowup(2, 3),
    ]
    for i in range(60):
        g = random_graph(rng, rng.randrange(0, 9), p=0.55)
        p = patterns[i % len(patterns)]
        assert count_pattern(g, p) == count_pattern_generic(g, p)


def test_blowup_t1_equals_clique_count():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, 8)
        for m in (2, 3, 4):
            assert count_pattern(g, Pattern.blowup(m, 1)) == count_cliques(g, m)


def test_pattern_parsing():
    assert parse_pattern("K3") == Pattern.clique(3)
    assert parse_pattern("K3(2)") == Pattern.blowup(3, 2)
    assert parse_pattern("K2+(2)") == Pattern.coned_blowup(2, 2)
    arb = parse_pattern("g6:" + to_graph6(cycle(5)))
    assert arb.kind == "arbitrary" and arb.graph.adj == cycle(5).adj
    # a coned blow-up is the arbitrary pattern on its graph, under its own
    # literal; coning K_m(1) gives the clique K_{m+1}
    for text, m, t in (("K2+(2)", 2, 2), ("K1+(3)", 1, 3), ("K3+(2)", 3, 2)):
        p = parse_pattern(text)
        assert (p.kind, p.graph, p.literal()) == ("arbitrary", coned_blowup(m, t), text)
        assert p.vertex_count() == m * t + 1
    k4 = parse_pattern("K3+(1)")
    assert (k4.kind, k4.m, k4.t, k4.literal()) == ("clique", 4, 1, "K3+(1)")
    # its graph is built only within the generic budget, so a huge literal
    # is refused at once instead of building it
    for text in (f"K{GENERIC_VERTEX_BUDGET // 2}+(2)", "K99999999+(2)"):
        with pytest.raises(BudgetExceededError):
            parse_pattern(text)
    for bad in ("K", "K0x", "J3", "K3(2", "K3+2)", "", "K0+(2)", "K0+(1)", "K2+(0)"):
        with pytest.raises(PatternSyntaxError):
            parse_pattern(bad)


def test_blowup_shape_matches_brute_force():
    # g is K_m(t) exactly when it has K_m(t)'s edge count and holds a
    # spanning copy of it; hosts are seeded graphs and relabeled blow-ups
    rng = random.Random(29)
    graphs = [random_graph(rng, rng.randrange(0, 8), rng.choice((0.3, 0.7, 0.9)))
              for _ in range(60)]
    for m, t in ((m, t) for m in range(1, 5) for t in range(1, 4) if m * t <= 6):
        for g in (blowup(m, t), coned_blowup(m, t), turan(m * t + 1, m)):
            perm = rng.sample(range(g.n), g.n)
            graphs.append(Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in g.edges()]))
    shaped = 0
    for g in graphs:
        want = [(m, g.n // m) for m in range(1, g.n + 1) if g.n % m == 0
                and g.edge_count() == comb(m, 2) * (g.n // m) ** 2
                and contains_brute(g, blowup(m, g.n // m))]
        assert blowup_shape(g) == (want[0] if want else None), g.edges()
        shaped += bool(want)
    assert shaped >= 20


def test_graph6_patterns_count_by_their_shape():
    # a graph6 pattern of shape K_m(t) takes that shape's counter whatever
    # its vertex order: C4 is K2(2), K1 is the clique K1 and t isolated
    # vertices are K1(t). Counts and copies through each vertex match the
    # brute force on the graph as written.
    c4 = parse_pattern("g6:" + to_graph6(cycle(4)))
    assert (c4.kind, c4.m, c4.t) == ("blowup", 2, 2)
    for g in (complete(6), blowup(3, 2), cycle(4)):
        assert count_pattern(g, c4) == count_pattern(g, Pattern.blowup(2, 2))
    shapes = {"g6:" + to_graph6(g): shape for g, shape in (
        (cycle(4), ("blowup", 2, 2)), (empty(1), ("clique", 1, 1)),
        (empty(2), ("blowup", 1, 2)), (empty(3), ("blowup", 1, 3)),
        (Graph.from_edges(3, [(0, 2), (2, 1), (1, 0)]), ("clique", 3, 1)))}
    rng = random.Random(43)
    for text, shape in shapes.items():
        t, p = parse_pattern(text), from_graph6(text[3:])
        assert (t.kind, t.m, t.t, t.literal()) == (*shape, text)
        assert t.aut_count() == automorphisms_brute(p)
        for _ in range(12):
            g = random_graph(rng, rng.randrange(0, 7), 0.6)
            assert count_pattern(g, t) == copies_brute(g, p), (text, g.edges())
            for v in range(g.n):
                rest = induced_subgraph(g, [u for u in range(g.n) if u != v])[0]
                want = copies_brute(g, p) - copies_brute(rest, p)
                assert copies_through_vertex(g, t, v) == want, (text, g.edges(), v)
    # a K2(7) past the generic budget is counted by the blow-up counter
    perm = rng.sample(range(14), 14)
    k27 = Graph.from_edges(14, [(perm[a], perm[b]) for a, b in blowup(2, 7).edges()])
    assert count_pattern(complete(14), Pattern.arbitrary(k27)) == comb(14, 7) // 2


def test_pattern_literal_round_trip():
    for p in (
        Pattern.clique(4),
        Pattern.blowup(3, 2),
        Pattern.coned_blowup(2, 3),
        Pattern.arbitrary(cycle(5)),
    ):
        assert parse_pattern(p.literal()) == p


def test_vertex_budget_guard():
    path13 = Pattern.arbitrary(
        Graph.from_edges(13, [(i, i + 1) for i in range(12)])
    )
    with pytest.raises(BudgetExceededError):
        count_pattern(complete(13), path13)


def test_contains_matches_brute_force():
    rng = random.Random(7)
    hs = [complete(3), complete(4), cycle(4), cycle(5), blowup(2, 2)]
    for i in range(40):
        g = random_graph(rng, rng.randrange(0, 8))
        h = hs[i % len(hs)]
        assert contains(g, h) == contains_brute(g, h)
    assert contains(complete(3), empty(0))
    assert not contains(empty(3), complete(2))


def test_max_clique_size():
    assert max_clique_size(empty(5)) == 1
    assert max_clique_size(empty(0)) == 0
    assert max_clique_size(cycle(5)) == 2
    assert max_clique_size(turan(9, 3)) == 3
    assert max_clique_size(complete(7)) == 7


def _sub_masks(seed: int):
    """(host rows, sub-mask) pairs: G(n, .6) hosts of 70-130 vertices, so a
    mask spans several 30-bit digits, and masks of 0-22 vertices drawn from
    the whole host, so every row carries bits outside its mask."""
    rng = random.Random(seed)
    for _ in range(12):
        g = gnp(rng.randrange(70, 131), 0.6, rng.randrange(1000))
        for _ in range(5):
            chosen = rng.sample(range(g.n), rng.randrange(23))
            yield g.adj, sum(1 << v for v in chosen)


def _cliques_brute(adj, mask: int, size: int):
    """The cliques of the given size in mask, in lexicographic order."""
    return [c for c in itertools.combinations(bits(mask), size)
            if all(adj[u] >> v & 1 for u, v in itertools.combinations(c, 2))]


def test_clique_counter_on_sub_masks_of_large_hosts():
    for adj, mask in _sub_masks(5):
        for size in range(6):
            assert cliques_in_mask(adj, mask, size) == len(_cliques_brute(adj, mask, size))


def test_find_clique_returns_the_lexicographically_least():
    # a scan from the top bit would find a clique too, but not the least one
    for adj, mask in _sub_masks(6):
        for size in range(6):
            cliques = _cliques_brute(adj, mask, size)
            assert find_clique_in_mask(adj, mask, size) == (cliques[0] if cliques else None)


def test_copies_through_vertex_clique():
    g = turan(6, 3)
    # each vertex lies on 4 of the 8 transversal triangles
    for v in range(6):
        assert copies_through_vertex(g, Pattern.clique(3), v) == 4


def test_copies_through_vertex_matches_deletion_delta():
    rng = random.Random(13)
    patterns = [Pattern.clique(3), Pattern.blowup(2, 2), Pattern.clique(2)]
    for i in range(30):
        n = rng.randrange(1, 8)
        g = random_graph(rng, n)
        p = patterns[i % len(patterns)]
        v = rng.randrange(n)
        whole = count_pattern(g, p)
        from exfree.graphs import remove_vertex

        rest = count_pattern(remove_vertex(g, v)[0], p)
        assert copies_through_vertex(g, p, v) == whole - rest


def test_copies_through_matches_brute_difference():
    # copies in the graph induced on within plus v, less those in the graph
    # induced on within; adj is the whole host's, so it carries bits
    # outside within that the kernel must ignore
    rng = random.Random(37)
    patterns = [Pattern.clique(m) for m in range(1, 5)] + [
        Pattern.blowup(2, 2),
        Pattern.blowup(2, 3),
        Pattern.coned_blowup(2, 1),
        parse_pattern("g6:Bg"),  # the path on three vertices
        parse_pattern("g6:B_"),  # an edge plus an isolated vertex
        parse_pattern("g6:?"),  # the graph on no vertices
    ]
    nonzero = 0
    for _ in range(60):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n, rng.choice((0.4, 0.7, 1.0)))
        v = rng.randrange(n)
        within = sum(1 << u for u in range(n) if u != v and rng.random() < 0.8)
        with_v = induced_subgraph(g, bits(within | 1 << v))[0]
        without = induced_subgraph(g, bits(within))[0]
        for t in patterns:
            p = t.realize()
            want = copies_brute(with_v, p) - copies_brute(without, p)
            got = copies_through(g.adj, within, g.adj[v] & within, t)
            assert got == want, (t.literal(), g.edges(), v, within)
            nonzero += want > 0
    assert nonzero > 250
    # rooted plans ending in two non-adjacent positions, counted in closed
    # form: P4, the claw, the paw and generic patterns of 6-7 vertices, on
    # dense hosts of up to 8 vertices
    rooted = [parse_pattern(t) for t in ("g6:Ch", "g6:Cs", "g6:Cx")]
    while len(rooted) < 20:
        t = Pattern.arbitrary(random_graph(rng, rng.randrange(6, 8), rng.choice((0.3, 0.5))))
        rooted += [t] if t.kind == "arbitrary" else []
    pairs = nonzero = 0
    for t in rooted:
        p = t.realize()
        pairs += sum(_ends_in_pair(plan, 1) for plan, _ in _orbit_roots(t)[0])
        for _ in range(2 if p.n > 4 else 8):
            g = random_graph(rng, rng.randrange(p.n, 9), rng.choice((0.6, 0.8, 0.95)))
            v = rng.randrange(g.n)
            within = sum(1 << u for u in range(g.n) if u != v and rng.random() < 0.9)
            with_v = induced_subgraph(g, bits(within | 1 << v))[0]
            without = induced_subgraph(g, bits(within))[0]
            want = copies_brute(with_v, p) - copies_brute(without, p)
            got = copies_through(g.adj, within, g.adj[v] & within, t)
            assert got == want, (t.literal(), g.edges(), v, within)
            nonzero += want > 0
    assert pairs > 50 and nonzero > 30


def test_copies_through_counts_blowups_past_the_generic_budget():
    # K2(7) has 14 vertices; its difference oracle is the blow-up counter,
    # which test_blowup_counts_match_brute_force checks against copies_brute,
    # and in a complete host the closed form 1716 * C(w, 13) for the 14-sets
    # through v among w other vertices, 1716 = C(14, 7) / 2 splits each
    big = Pattern.blowup(2, 7)
    assert big.vertex_count() > GENERIC_VERTEX_BUDGET
    rng = random.Random(41)
    for n in (14, 15, 16):
        g = complete(n)
        within = rng.getrandbits(n) & ~1
        assert copies_through(g.adj, within, g.adj[0] & within, big) == 1716 * comb(
            within.bit_count(), 13
        )
        g = random_graph(rng, n, 0.9)
        v = rng.randrange(n)
        within = ((1 << n) - 1) ^ (1 << v)
        want = count_pattern(g, big) - count_pattern(induced_subgraph(g, bits(within))[0], big)
        assert copies_through(g.adj, within, g.adj[v], big) == want


_ORBIT_GRAPHS = [
    Graph(0, ()),
    complete(1),
    Graph.from_edges(3, [(0, 1), (1, 2)]),
    Graph.from_edges(3, [(0, 1)]),
    Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
    Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]),
    cycle(5),
    blowup(2, 2),
    coned_blowup(2, 2),
    coned_blowup(2, 1),
]


def test_vertex_orbits_meet_each_orbit_once():
    for g in _ORBIT_GRAPHS:
        orbits = vertex_orbits_brute(g)
        assert _vertex_orbits(g) == tuple(sorted((min(o), len(o)) for o in orbits)), g.edges()


def test_orbits_on_prefix_tuples_are_the_stabilizer_orbits():
    # the tuples (0..i-1, w), w >= i, share a prefix that every map between
    # two of them fixes, so their orbits are those of the automorphisms
    # fixing 0..i-1 pointwise, from which |Aut| is read
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _orbits(p4, ((1,), (2,))) == (((1,), 2),)
    assert _orbits(p4, ((0, 1), (0, 2), (0, 3))) == (((0, 1), 1), ((0, 2), 1), ((0, 3), 1))
    rng = random.Random(23)
    graphs = _ORBIT_GRAPHS + [random_graph(rng, n, p) for n in range(8) for p in (0.3, 0.6)]
    for g in graphs:
        for i in range(g.n):
            fixed = tuple(range(i))
            items = tuple(fixed + (w,) for w in range(i, g.n))
            orbits = [o for o in vertex_orbits_brute(g, fixed) if min(o) >= i]
            want = tuple((fixed + (min(o),), len(o)) for o in orbits)
            assert _orbits(g, items) == want, (g.edges(), i)


def test_contains_looks_for_a_clique_as_a_clique(monkeypatch):
    # a clique h, however spelled, takes the clique search: K12 in a
    # G(200, 1/2) host of clique number 11 is answered at once, where the
    # embedding walk tries every injective map of K12
    for seed in (1, 2):
        g = gnp(200, 0.5, seed)
        omega = max_clique_size(g)
        for k in (omega, omega + 1):
            assert contains(g, complete(k)) == (k <= omega), (seed, k)
    monkeypatch.setattr(counting, "exists_injective_hom", None)
    triangle = from_graph6("Bw")
    k4 = Graph.from_edges(4, [(3, 1), (2, 0), (1, 2), (0, 3), (3, 2), (1, 0)])
    rng = random.Random(31)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(0, 12), rng.choice((0.3, 0.6)))
        omega = max_clique_size(g)
        assert contains(g, triangle) == contains(g, complete(3)) == (omega >= 3)
        assert contains(g, k4) == contains(g, complete(4)) == (omega >= 4)


def test_contains_refutes_a_host_without_the_clique_number(monkeypatch):
    # any copy of K13 - e holds a K12, and the G(200, 1/2) host's clique
    # number is 11, so the answer is no before any embedding walk
    k13_minus_e = from_graph6("L^~~~~~~~~~~~~")
    assert k13_minus_e.edge_count() == 77 and max_clique_size(k13_minus_e) == 12
    g = gnp(200, 0.5, 1)
    assert max_clique_size(g) == 11
    monkeypatch.setattr(counting, "exists_injective_hom", None)
    assert not contains(g, k13_minus_e)


def test_contains_matches_brute_force_on_non_clique_graphs():
    # every graph on at most 4 vertices that is not a clique, in hosts on
    # at most 7 vertices: connected and not, with isolated vertices, and of
    # clique number above, at and below the host's
    rng = random.Random(43)
    hs = [h for n in range(1, 5) for h in (Graph.from_edges(n, es)
          for r in range(n * (n - 1) // 2)
          for es in itertools.combinations(itertools.combinations(range(n), 2), r))]
    for _ in range(40):
        g = random_graph(rng, rng.randrange(0, 8), rng.choice((0.3, 0.5, 0.8)))
        for h in hs:
            assert contains(g, h) == contains_brute(g, h), (g.edges(), h.edges())


def test_count_injective_homs_equals_count_times_aut():
    rng = random.Random(17)
    for _ in range(15):
        g = random_graph(rng, 7)
        p = Pattern.blowup(2, 2)
        homs = count_injective_homs(g, p.realize())
        assert homs == count_pattern(g, p) * p.aut_count()


def test_closed_form_last_level_matches_leafwise_oracle():
    # hosts of 0-12 vertices, patterns of 0-5, limits None/1/3, no pin, one
    # pinned vertex and two, pins reaching one past the last host vertex
    rng = random.Random(23)
    cases = 0
    for _ in range(400):
        g = random_graph(rng, rng.randrange(0, 13), rng.choice((0.2, 0.5, 0.8, 1.0)))
        pn = rng.randrange(0, 6)
        p = random_graph(rng, pn, rng.choice((0.3, 0.6, 1.0)))
        pins = [None]
        if pn >= 1:
            pins.append({rng.randrange(pn): rng.randrange(g.n + 1)})
        if pn >= 2:
            a, b = rng.sample(range(pn), 2)
            pins.append({a: rng.randrange(g.n + 1), b: rng.randrange(g.n + 1)})
        for pin in pins:
            for limit in (None, 1, 3):
                want = count_injective_homs_leafwise(p, g.adj, g.n, pin=pin, limit=limit)
                plan = _hom_plan(p, tuple(pin or ()))
                images = tuple((pin or {}).values())
                got = _count_injective_homs(plan, g.adj, (1 << g.n) - 1, images, None, limit)
                assert got == want, (p.edges(), g.n, g.edges(), pin, limit)
                cases += 1
    assert cases > 3000


def _ends_in_pair(plan, start: int) -> bool:
    """Does the backtracker count this plan's last two positions together,
    start being its first free position?"""
    order, back, _ = plan
    last = len(order) - 1
    return last - 1 >= start and last - 1 not in back[last]


def test_pinned_counts_match_permutation_brute_force():
    # the leafwise oracle follows the package's plan, so a plan that drops
    # or reorders lead vertices would pass it; this compares with every
    # injective map instead. Patterns of 0-5 vertices, connected or not,
    # hosts of 0-7 vertices under a random vertex mask, 0-3 lead vertices
    # pinned to the images of a real map or to random vertices (clashing,
    # repeated, outside the mask or one past the last vertex). Two more
    # input sets end their plans in two non-adjacent positions, counted in
    # closed form: patterns of 6-7 vertices with 0-2 pinned leads, on dense
    # hosts of 6-8 vertices less at most one; and patterns of lead + 2
    # vertices whose two free vertices are not adjacent, so that the pair
    # comes directly after 0, 1 or 2 pinned leads
    rng = random.Random(31)
    nonzero = pairs = 0

    def check(g, host, p, lead, maps, hit):
        nonlocal nonzero, pairs
        if maps and rng.random() < hit:
            images = tuple(rng.choice(maps)[a] for a in lead)
        else:
            images = tuple(rng.randrange(g.n + 1) for _ in lead)
        want = sum(all(m[a] == x for a, x in zip(lead, images)) for m in maps)
        nonzero += want > 0
        plan = _hom_plan(p, lead)
        assert plan[0][:len(lead)] == lead
        pairs += _ends_in_pair(plan, len(lead))
        for limit in (None, 1, 3):
            got = _count_injective_homs(plan, g.adj, host, images, None, limit)
            assert got == (want if limit is None else min(want, limit)), (
                p.edges(), g.edges(), host, lead, images, limit)
        if host == (1 << g.n) - 1:
            pin = dict(zip(lead, images))
            assert exists_injective_hom(p, g.adj, g.n, pin=pin) == (want > 0)

    for _ in range(250):
        g = random_graph(rng, rng.randrange(0, 8), rng.choice((0.3, 0.6, 0.9)))
        host = rng.getrandbits(g.n) | rng.getrandbits(g.n)
        pn = rng.randrange(0, 6)
        p = random_graph(rng, pn, rng.choice((0.3, 0.6, 1.0)))
        maps = injective_homs_brute(p, g.adj, host)
        for size in range(min(pn, 3) + 1):
            check(g, host, p, tuple(rng.sample(range(pn), size)), maps, 0.6)
    assert nonzero > 200

    nonzero = pairs = 0
    for _ in range(60):
        g = random_graph(rng, rng.randrange(6, 9), rng.choice((0.6, 0.8, 0.95)))
        host = (1 << g.n) - 1 & ~(1 << rng.randrange(g.n + 1))
        p = random_graph(rng, rng.randrange(6, 8), rng.choice((0.25, 0.4, 0.6)))
        lead = tuple(rng.sample(range(p.n), rng.randrange(3)))
        check(g, host, p, lead, injective_homs_brute(p, g.adj, host), 0.7)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(0, 8), rng.choice((0.3, 0.6, 0.9)))
        host = rng.getrandbits(g.n) | rng.getrandbits(g.n)
        size = rng.randrange(3)
        p = random_graph(rng, size + 2, rng.choice((0.3, 0.6, 1.0)))
        p = Graph.from_edges(p.n, [e for e in p.edges() if e != (size, size + 1)])
        lead = tuple(rng.sample(range(size), size))
        assert _ends_in_pair(_hom_plan(p, lead), size)
        check(g, host, p, lead, injective_homs_brute(p, g.adj, host), 0.7)
    assert pairs > 180 and nonzero > 60


def test_blowup_counts_match_brute_force():
    # every m in 1-3 and t in 1-3 on seeded hosts of at most 9 vertices
    rng = random.Random(29)
    for m in (1, 2, 3):
        for t in (1, 2, 3):
            pat = Pattern.blowup(m, t)
            for n in sorted({max(0, m * t - 1), m * t, min(9, m * t + 2)}):
                for p in (0.6, 0.9):
                    g = random_graph(rng, n, p)
                    want = copies_brute(g, pat.realize())
                    assert count_pattern(g, pat) == want, (m, t, g.edges())
    assert count_pattern(complete(9), Pattern.blowup(3, 3)) == 280  # 9!/(3!^3 3!)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


@given(small_graphs(), st.integers(min_value=2, max_value=4))
@settings(max_examples=120, deadline=None)
def test_clique_count_property(g, m):
    assert count_cliques(g, m) == copies_brute(g, complete(m))


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_blowup22_property(g):
    assert count_pattern(g, Pattern.blowup(2, 2)) == copies_brute(g, blowup(2, 2))
