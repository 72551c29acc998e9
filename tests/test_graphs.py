"""Core graph type, generators, and surgery."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfree.coloring import remove_edge
from exfree.counting import Pattern
from exfree.errors import GraphFormatError, PatternSyntaxError
from exfree.graphs import (
    GenSpec,
    Graph,
    as_fraction,
    bits,
    blowup,
    ceil_frac,
    complete,
    coned_blowup,
    cycle,
    empty,
    generate,
    gnp,
    induced_subgraph,
    min_degree_floor,
    min_degree_random,
    parse_genspec,
    remove_vertex,
    subgraph_from_edges,
    turan,
)
from exfree.graph6 import from_graph6, to_graph6
from exfree.solver import Partition, max_hfree_subgraph, multipartite_subgraph
from oracles import (
    complete_rows,
    coned_blowup_apex,
    from_graph6_brute,
    gnp_per_pair,
    min_degree_random_brute,
    random_graph,
    relabel_brute,
    turan_part_masks,
)


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2
    assert g.min_degree() == 1
    assert g.max_degree() == 2
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.neighbors(2) == [1, 3]


def test_validation_rejects_bad_graphs():
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(GraphFormatError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(GraphFormatError):
        Graph(2, (0b10, 0b00))  # asymmetric adjacency
    with pytest.raises(GraphFormatError):
        Graph(1, (0b10,))  # bit outside vertex range


def test_a_list_of_rows_becomes_a_tuple():
    # Graph(n, adj) keeps no caller's list: the graph equals and hashes like
    # the same graph built from a tuple, later edits to the list leave it
    # alone, and the solver's cached forbid test can take it as a key
    rows = [6, 5, 3]
    g = Graph(3, rows)
    rows[0] = 0
    assert g.adj == (6, 5, 3)
    assert g == complete(3) and hash(g) == hash(complete(3))
    assert {g: 1}[complete(3)] == 1
    res = max_hfree_subgraph(complete(5), Pattern.clique(2), Graph(3, [6, 5, 3]))
    assert res.best_count == 6  # K_{2,3}, the largest triangle-free subgraph of K5


def _first_asymmetric_pair(adj):
    """The (u, v) with u in N(v) but v not in N(u), least v first, then u."""
    for v in range(len(adj)):
        for u in range(len(adj)):
            if adj[v] >> u & 1 and not adj[u] >> v & 1:
                return u, v
    return None


def test_asymmetric_adjacency_names_the_first_pair():
    rng = random.Random(11)
    checked = 0
    # sparse and dense hosts alike go through the one neighbor walk
    cases = []
    for n, p in ((5, 0.5), (9, 1.0), (30, 0.2), (64, 0.9), (70, 0.5), (130, 0.8)):
        for _ in range(4):
            adj = list(random_graph(rng, n, p).adj)
            for _ in range(rng.randrange(1, 4)):
                u, v = rng.sample(range(n), 2)
                adj[u] ^= 1 << v
            cases.append(adj)
    # a dense 600-vertex host with one pair flipped: vertex 417's bit for
    # vertex 0
    adj = list(gnp(600, 0.5, 5).adj)
    adj[417] ^= 1
    cases.append(adj)
    for adj in cases:
        pair = _first_asymmetric_pair(adj)
        if pair is None:
            continue  # the flips cancelled out
        with pytest.raises(GraphFormatError) as info:
            Graph(len(adj), tuple(adj))
        assert str(info.value) == f"asymmetric adjacency between {pair[0]} and {pair[1]}"
        checked += 1
    assert checked >= 21


def _graph_on(n: int, pairs) -> Graph:
    """The graph on 0..n-1 with the given pairs, built by the checked
    constructor."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def _agree(g: Graph, oracle: Graph) -> None:
    """g is the oracle's graph and passes the check its builder skipped."""
    assert g == oracle
    assert Graph(g.n, g.adj) == g


def test_unchecked_builders_match_their_oracles():
    # every builder that skips Graph's check builds the oracle's graph, and
    # the check accepts it
    rng = random.Random(19)
    for n in (0, 1, 2, 63, 64, 65, 260):
        for p in (0, 0.5, 0.93, 1) if n < 260 else (0.5, 0.93):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            host = _graph_on(n, pairs)
            text = to_graph6(host)
            _agree(from_graph6(text), from_graph6_brute(text))
            assert from_graph6(text) == host
            shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            rng.shuffle(shuffled)
            _agree(Graph.from_edges(n, shuffled + shuffled[:3]), host)
            some = rng.sample(pairs, len(pairs) // 3)
            _agree(subgraph_from_edges(host, iter(some)), _graph_on(n, some))
            for u, v in rng.sample(pairs, min(len(pairs), 3)):
                _agree(remove_edge(host, v, u), _graph_on(n, set(pairs) - {(u, v)}))
            for v in rng.sample(range(n), min(n, 3)):
                keep = [u for u in range(n) if u != v]
                sub, remap = remove_vertex(host, v)
                _agree(sub, relabel_brute(host, keep))
                assert remap == tuple(keep)
            for size in (0, n // 3, n - 1, n):
                keep = rng.sample(range(n), max(size, 0))
                _agree(induced_subgraph(host, keep)[0], relabel_brute(host, keep))
            for k in (1, 2, 3, 7):
                part = {v: rng.randrange(k) for v in range(n) if rng.random() < 0.8}
                _agree(
                    multipartite_subgraph(host, Partition.of(k, part)),
                    _graph_on(n, [(u, v) for u, v in pairs
                                  if u in part and v in part and part[u] != part[v]]),
                )
            for seed in (0, 5):
                _agree(gnp(n, p, seed), gnp_per_pair(n, p, seed))
        for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(1)):
            _agree(min_degree_random(n, eps, 3), min_degree_random_brute(n, eps, 3))
        _agree(empty(n), _graph_on(n, []))


def _multipartite_brute(sizes) -> Graph:
    """Complete multipartite graph on consecutive blocks of the given
    sizes: every pair whose block labels differ."""
    label = [i for i, s in enumerate(sizes) for _ in range(s)]
    n = len(label)
    return _graph_on(n, [(u, v) for u in range(n) for v in range(u + 1, n) if label[u] != label[v]])


def test_multipartite_generators_match_brute_pairs():
    for n in (0, 1, 2, 63, 64, 65, 260):
        _agree(complete(n), _multipartite_brute([1] * n))
        for r in (1, 2, 3, 7, 64):
            q, rem = divmod(n, r)
            _agree(turan(n, r), _multipartite_brute([q + 1] * rem + [q] * (r - rem)))
    for m, t in ((1, 1), (2, 1), (1, 2), (3, 21), (8, 8), (13, 5), (4, 65)):
        _agree(blowup(m, t), _multipartite_brute([t] * m))
        _agree(coned_blowup(m, t), _multipartite_brute([t] * m + [1]))


def test_builders_refuse_a_negative_vertex_count():
    # the checked constructor refused these rows; the builders that skip it
    # refuse the count first
    with pytest.raises(GraphFormatError) as info:
        Graph.from_edges(-1, [])
    assert str(info.value) == "adjacency length 0 != n=-1"
    with pytest.raises(GraphFormatError, match=r"edge \(0,1\) outside"):
        Graph.from_edges(-2, [(0, 1)])
    for build in (lambda: empty(-1), lambda: gnp(-1, 0.5, 1), lambda: gnp(-2, 0.5, 1),
                  lambda: min_degree_random(-1, "1/2", 1)):
        with pytest.raises(PatternSyntaxError, match="n >= 0"):
            build()


def test_duplicate_edges_collapse():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_complete_and_empty():
    assert complete(5).edge_count() == 10
    assert complete(0).n == 0
    assert empty(4).edge_count() == 0


def test_turan_part_structure():
    g = turan(7, 3)  # parts of sizes 3, 2, 2 on contiguous id blocks
    assert g.n == 7
    parts = [[0, 1, 2], [3, 4], [5, 6]]
    for part in parts:
        for u in part:
            for v in part:
                assert not g.has_edge(u, v) or u == v
    assert g.edge_count() == (3 * 2 + 3 * 2 + 2 * 2)
    assert turan(6, 3).edge_count() == 12
    assert turan(5, 5).edge_count() == 10  # degenerates to complete


def test_blowup_and_coned_blowup():
    b = blowup(2, 2)  # complete bipartite 2+2, a 4-cycle
    assert b.n == 4 and b.edge_count() == 4
    c = coned_blowup(2, 2)
    assert c.n == 5 and c.edge_count() == 8
    apex = c.n - 1
    assert c.degree(apex) == 4
    assert blowup(3, 1).edge_count() == 3  # plain triangle


def test_multipartite_generators_match_their_earlier_bodies():
    # complete, turan, blowup and coned_blowup share one builder; their
    # graphs, graph6 byte for byte, are those of the earlier generators
    for n in range(13):
        assert to_graph6(complete(n)) == to_graph6(complete_rows(n)), n
        for r in range(1, n + 3):
            assert to_graph6(turan(n, r)) == to_graph6(turan_part_masks(n, r)), (n, r)
    for m in range(1, 6):
        for t in range(1, 5):
            assert to_graph6(blowup(m, t)) == to_graph6(turan_part_masks(m * t, m)), (m, t)
            assert to_graph6(coned_blowup(m, t)) == to_graph6(coned_blowup_apex(m, t)), (m, t)


def test_cycle():
    g = cycle(5)
    assert g.edge_count() == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(ValueError):
        cycle(2)


def test_gnp_deterministic():
    assert gnp(10, 0.5, seed=7).adj == gnp(10, 0.5, seed=7).adj
    assert gnp(10, 0.5, seed=7).adj != gnp(10, 0.5, seed=8).adj
    assert gnp(6, 0.0, seed=1).edge_count() == 0
    assert gnp(6, 1.0, seed=1).edge_count() == 15


def test_gnp_matches_per_pair_draw():
    # the bulk draw keeps the same pairs as one random() per pair and leaves
    # a shared stream where the per-pair draw leaves it. The p of the form
    # (128 + u/256)/256 give every pair whose first output's top byte is 128
    # the exact comparison; 1e-300 and 1 - 2**-53 sit next to the ends.
    ps = [0, 1, 0.5, 0.3, 1e-300, 1 - 2**-53, Fraction(1, 3)]
    ps += [(128 + u / 256) / 256 for u in (0, 1, 7, 255)]
    # 128, 129 and 300 vertices are 8,128, 8,256 and 44,850 pairs: one read
    # of the stream, one just past a chunk, and six chunks
    for n in (0, 1, 2, 5, 9, 40, 128, 129, 260, 300):
        for p in ps:
            for seed in (0, 1, 7, 2024):
                fast, slow = random.Random(seed), random.Random(seed)
                assert gnp(n, p, seed, rng=fast) == gnp_per_pair(n, p, seed, rng=slow), (n, p, seed)
                assert fast.random() == slow.random()
    assert gnp(260, 0.37, 11) == gnp_per_pair(260, 0.37, 11)


def test_min_degree_floor_cap():
    assert min_degree_floor(9, Fraction(1, 9)) == 8
    assert min_degree_floor(9, 0) == 8  # capped at n-1
    assert min_degree_floor(10, Fraction(1, 2)) == 5
    assert min_degree_floor(0, Fraction(1, 2)) == 0


def test_min_degree_random_respects_floor():
    for seed in range(10):
        g = min_degree_random(9, Fraction(1, 3), seed=seed)
        assert g.min_degree() >= min_degree_floor(9, Fraction(1, 3))
    assert min_degree_random(7, 0, seed=3).adj == complete(7).adj
    assert min_degree_random(8, "1/4", seed=5).adj == min_degree_random(
        8, Fraction(1, 4), seed=5
    ).adj


def test_remove_vertex_path_from_cycle():
    g, remap = remove_vertex(cycle(5), 2)
    assert g.n == 4
    assert remap == (0, 1, 3, 4)
    assert g.edges() == [(0, 1), (2, 3), (3, 0)] or g.edge_count() == 4 - 1
    degs = sorted(g.degree(v) for v in range(4))
    assert degs == [1, 1, 2, 2]  # a 4-vertex path


def test_induced_subgraph_remap():
    g = complete(5)
    sub, remap = induced_subgraph(g, [1, 3, 4])
    assert sub.n == 3 and sub.edge_count() == 3
    assert remap == (1, 3, 4)


def test_remove_vertex_and_induced_subgraph_match_brute_relabel():
    rng = random.Random(12)
    for n in (0, 1, 9, 70):
        g = random_graph(rng, n, 0.5)
        for v in rng.sample(range(n), min(n, 5)):
            keep = [u for u in range(n) if u != v]
            assert remove_vertex(g, v) == (relabel_brute(g, keep), tuple(keep))
        for size in {0, n // 3, n // 2, n}:
            keep = rng.sample(range(n), size)
            sub, remap = induced_subgraph(g, keep + keep[:2])  # duplicates collapse
            assert (sub, remap) == (relabel_brute(g, keep), tuple(sorted(keep)))


def test_subgraph_from_edges_validates():
    g = cycle(4)
    sub = subgraph_from_edges(g, [(0, 1)])
    assert sub.edge_count() == 1 and sub.n == 4
    with pytest.raises(GraphFormatError):
        subgraph_from_edges(g, [(0, 2)])  # a diagonal, not a host edge
    # ids are range-checked before a row is read: a negative id would index
    # from the end, or shift by a negative count
    for u, v in ((0, 4), (4, 0), (7, 1), (-1, 0), (0, -1), (-4, -3)):
        with pytest.raises(GraphFormatError) as info:
            subgraph_from_edges(g, [(0, 1), (u, v)])
        assert str(info.value) == f"edge ({u},{v}) outside 0..3"
    # the edges may be any iterable, read once
    assert subgraph_from_edges(g, iter([(0, 1), (3, 2)])).edges() == [(0, 1), (2, 3)]


def test_genspec_literals_round_trip():
    literals = [
        "gen:complete:6",
        "gen:empty:4",
        "gen:turan:9:3",
        "gen:blowup:3:2",
        "gen:coned_blowup:2:2",
        "gen:cycle:5",
        "gen:gnp:10:0.5:3",
        "gen:min_degree_random:9:1/9:7",
    ]
    for lit in literals:
        spec = parse_genspec(lit)
        assert spec.literal() == lit
        generate(spec)  # must not raise
    with pytest.raises(PatternSyntaxError):
        parse_genspec("gen:unknown:3")
    with pytest.raises(PatternSyntaxError):
        parse_genspec("turan:6:3")
    with pytest.raises(PatternSyntaxError):
        parse_genspec("gen:turan:6")
    with pytest.raises(PatternSyntaxError):
        parse_genspec("gen:min_degree_random:9:1/0:7")
    with pytest.raises(PatternSyntaxError):
        generate(GenSpec("unknown", n=3))


def test_as_fraction_exactness():
    assert as_fraction(0.8) == Fraction(4, 5)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(2) == 2
    assert ceil_frac(Fraction(7, 2)) == 4
    assert ceil_frac(Fraction(4, 1)) == 4
    assert (1 - as_fraction(0.2)) * 10 == 8  # no binary-float residue


def test_as_fraction_refuses_exponent_strings():
    # Fraction("1e999999999") would build 10**999999999; a string with an
    # exponent is refused first, in the API and in gen: literals alike,
    # while a float, whose repr may carry an exponent, stays exact
    for text in ("1e999999999", "1e-999999999", "2E3", "1.5e2"):
        with pytest.raises(ValueError, match="no exponents"):
            as_fraction(text)
        with pytest.raises(PatternSyntaxError):
            parse_genspec(f"gen:min_degree_random:9:{text}:1")
    assert as_fraction(1e-07) == Fraction(1, 10**7)


def test_bits_helper():
    assert bits(0b10110) == [1, 2, 4]
    assert bits(0) == []
    # masks of many 30-bit digits, with bit 0 and the top bit set
    rng = random.Random(3)
    for n in (600, 601, 1024, 3001):
        mask = 1 | 1 << (n - 1) | rng.getrandbits(n - 1)
        assert bits(mask) == [v for v in range(n) if mask >> v & 1]
        assert bits(1 << n | 1) == [0, n]


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


@given(graphs())
@settings(max_examples=150)
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count()


@given(graphs(), st.integers(min_value=0, max_value=7))
@settings(max_examples=150)
def test_remove_vertex_keeps_other_adjacency(g, v):
    if g.n == 0:
        return
    v %= g.n
    sub, remap = remove_vertex(g, v)
    assert sub.n == g.n - 1
    for a in range(sub.n):
        for b in range(sub.n):
            assert sub.has_edge(a, b) == g.has_edge(remap[a], remap[b])


def test_gnp_rng_sharing():
    rng = random.Random(99)
    a = gnp(8, 0.5, seed=0, rng=rng)
    b = gnp(8, 0.5, seed=0, rng=rng)
    assert a.adj != b.adj  # shared stream advances
