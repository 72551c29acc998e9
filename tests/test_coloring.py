"""Exact coloring, criticality, and the tri-state outcome discipline."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfree import coloring
from exfree.coloring import (
    NO,
    UNKNOWN,
    YES,
    ColorOutcome,
    chromatic_number,
    critical_vertex,
    is_edge_critical,
    is_k_colorable,
    remove_edge,
    verify_proper,
)
from exfree.errors import BudgetExceededError, GraphFormatError
from exfree.graphs import Graph, blowup, complete, cycle, empty, induced_subgraph, turan

from oracles import (
    chromatic_brute,
    color_component_recursive,
    colorable_brute,
    is_bipartite_bfs,
    lex_least_coloring,
    lex_least_coloring_brute,
    random_graph,
)


def test_basic_colorability():
    assert is_k_colorable(cycle(5), 2).status == NO
    assert is_k_colorable(cycle(5), 3).status == YES
    assert is_k_colorable(cycle(4), 2).status == YES
    assert is_k_colorable(complete(4), 3).status == NO
    assert is_k_colorable(empty(6), 1).status == YES
    assert is_k_colorable(empty(0), 0).status == YES
    assert is_k_colorable(complete(1), 0).status == NO


def test_witness_is_proper_and_canonical():
    out = is_k_colorable(cycle(4), 2, canonical=True)
    assert out.status == YES
    assert out.witness == (0, 1, 0, 1)  # lexicographically least proper coloring
    assert verify_proper(cycle(4), out.witness, 2)
    out = is_k_colorable(complete(3), 3, canonical=True)
    assert out.witness == (0, 1, 2)


def test_verify_proper_rejects():
    assert not verify_proper(cycle(4), (0, 0, 0, 0), 2)
    assert not verify_proper(cycle(4), (0, 1, 0), 2)  # wrong length
    assert not verify_proper(cycle(4), (0, 2, 0, 2), 2)  # color out of range


def test_improper_witness_raises(monkeypatch):
    monkeypatch.setattr(coloring, "verify_proper", lambda g, colors, k=None: False)
    with pytest.raises(RuntimeError, match="improper"):
        is_k_colorable(cycle(4), 2)


def test_chromatic_numbers():
    assert chromatic_number(empty(5)).chromatic_number == 1
    assert chromatic_number(empty(0)).chromatic_number == 0
    assert chromatic_number(cycle(5)).chromatic_number == 3
    assert chromatic_number(cycle(6)).chromatic_number == 2
    assert chromatic_number(complete(6)).chromatic_number == 6
    assert chromatic_number(turan(9, 3)).chromatic_number == 3
    assert chromatic_number(blowup(4, 2)).chromatic_number == 4


def test_outcome_bool_raises_on_unknown():
    yes = is_k_colorable(cycle(4), 2)
    assert bool(yes)
    no = is_k_colorable(cycle(5), 2)
    assert not bool(no)
    # a graph hard enough that one search node cannot decide it
    g = turan(12, 4)
    out = is_k_colorable(g, 3, budget=1)
    assert out.status == UNKNOWN
    with pytest.raises(BudgetExceededError):
        bool(out)


def test_chromatic_raises_on_budget():
    with pytest.raises(BudgetExceededError):
        chromatic_number(turan(12, 4), budget=1)


def test_edge_criticality():
    crit, edge = is_edge_critical(complete(4))
    assert crit and edge == (0, 1)
    crit, _ = is_edge_critical(cycle(5))
    assert crit  # removing any edge makes an odd cycle a path
    crit, _ = is_edge_critical(cycle(6))
    assert not crit  # stays bipartite either way
    # a 4-clique with a pendant vertex: removing a clique edge drops chi 4 -> 3
    k4p = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    crit, edge = is_edge_critical(k4p)
    assert crit and edge == (0, 1)
    crit, _ = is_edge_critical(empty(3))
    assert not crit


def test_remove_edge():
    g = remove_edge(complete(3), 0, 1)
    assert g.edge_count() == 2
    with pytest.raises(ValueError):
        remove_edge(g, 0, 1)  # already absent
    # ids are range-checked before a row is read: a negative id would index
    # from the end, or shift by a negative count
    for u, v in ((0, 3), (3, 0), (9, 1), (-1, 0), (0, -1), (-3, -2)):
        with pytest.raises(GraphFormatError) as info:
            remove_edge(g, u, v)
        assert str(info.value) == f"edge ({u},{v}) outside 0..2"


def test_critical_vertex():
    assert critical_vertex(complete(4)) == 0
    assert critical_vertex(cycle(5)) == 0
    # complete tripartite with parts of two: no single vertex lowers chi
    assert critical_vertex(turan(6, 3)) is None
    # two disjoint triangles: removing any vertex leaves a triangle
    two_tri = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert critical_vertex(two_tri) is None
    k4p = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    assert critical_vertex(k4p) == 0


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


@given(small_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=120, deadline=None)
def test_colorability_matches_brute_force(g, k):
    out = is_k_colorable(g, k)
    assert out.status in (YES, NO)
    assert (out.status == YES) == colorable_brute(g, k)
    if out.status == YES:
        assert verify_proper(g, out.witness, k)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_chromatic_matches_brute_force(g):
    assert chromatic_number(g).chromatic_number == chromatic_brute(g)


def test_components_handled_independently():
    rng = random.Random(23)
    for _ in range(10):
        a = random_graph(rng, 5)
        edges = list(a.edges())
        b = random_graph(rng, 5)
        edges += [(u + 5, v + 5) for u, v in b.edges()]
        g = Graph.from_edges(10, edges)
        expect = max(chromatic_brute(a), chromatic_brute(b), 1 if g.n else 0)
        assert chromatic_number(g).chromatic_number == expect


def _parity_nodes(g: Graph) -> int:
    """Budget nodes of the canonical 2-coloring: one per component and one
    per vertex, up to and including the first component that is not
    bipartite."""
    nodes = 0
    seen: set[int] = set()
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        frontier = [s]
        while frontier:
            frontier = [u for v in frontier for u in g.neighbors(v) if u not in comp]
            comp.update(frontier)
        seen |= comp
        nodes += 1 + len(comp)
        if not is_bipartite_bfs(induced_subgraph(g, comp)[0]):
            break
    return nodes


def test_iterative_search_matches_recursive_oracle(monkeypatch):
    # same status, witness and node count as the recursive search, budget
    # misses included, for both vertex orders. The canonical 2-coloring is a
    # breadth-first parity pass instead: its node count is _parity_nodes, it
    # misses a budget exactly when that count exceeds it, and otherwise its
    # status and witness are the recursive search's without a budget.
    rng = random.Random(31)
    cases = [(random_graph(rng, rng.randrange(0, 10), rng.choice((0.2, 0.4, 0.6))), k)
             for _ in range(40) for k in (1, 2, 3, 4)]
    args = [(g, k, budget, canonical) for g, k in cases
            for budget in (None, 5, 50) for canonical in (False, True)]
    new = [is_k_colorable(g, k, budget=b, canonical=c) for g, k, b, c in args]
    monkeypatch.setattr(coloring, "_color_component", color_component_recursive)
    old = [is_k_colorable(g, k, budget=b, canonical=c) for g, k, b, c in args]
    for (g, k, budget, canonical), got, want in zip(args, new, old):
        if k == 2 and canonical:
            nodes = _parity_nodes(g)
            if budget is not None and nodes > budget:
                assert got == ColorOutcome(UNKNOWN, None, budget + 1)
            else:
                full = is_k_colorable(g, k, canonical=True)
                assert got == ColorOutcome(full.status, full.witness, nodes)
        else:
            assert got == want
        if canonical and got.status != UNKNOWN:
            # the fixed-order search's first find is the least coloring
            assert got.witness == lex_least_coloring(g, k)
    statuses = {out.status for out in new}
    assert statuses == {YES, NO, UNKNOWN}


@given(small_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_canonical_witness_is_least_of_all_colorings(g, k):
    out = is_k_colorable(g, k, canonical=True)
    assert out.witness == lex_least_coloring_brute(g, k)
    assert out.status == (NO if out.witness is None else YES)


def _pendant_triangle(f: int) -> Graph:
    """Vertices 1..f joined only to z = f+3, plus the triangle 0, f+1, f+2
    and the edges (f+1, z), (f+2, z). Vertices 1..f have no earlier
    neighbour, and z sees three colors whenever any of them shares a color
    with f+1 or f+2, which an ascending search meets only at z."""
    z = f + 3
    edges = [(v, z) for v in range(1, f + 1)]
    edges += [(0, f + 1), (0, f + 2), (f + 1, f + 2), (f + 1, z), (f + 2, z)]
    return Graph.from_edges(f + 4, edges)


def test_canonical_search_opens_forced_vertices_first():
    # an ascending fixed-order search entered 2,010 nodes at f = 6 and
    # 1,461,471 at f = 12; opening a vertex left with one color or none
    # first settles z as soon as it is forced
    for f in (6, 12, 30):
        g = _pendant_triangle(f)
        out = is_k_colorable(g, 3, canonical=True, budget=8 * f + 1)
        assert (out.status, out.witness) == (YES, (0,) + (1,) * f + (1, 2, 0))
        if f <= 6:
            assert out.witness == lex_least_coloring_brute(g, 3)
    assert is_k_colorable(_pendant_triangle(6), 2, canonical=True).status == NO


def test_huge_color_counts_color_at_once():
    # no structure grows with k: a component never uses more colors than
    # it has vertices
    for canonical in (True, False):
        out = is_k_colorable(complete(40), 3_000_000, canonical=canonical)
        assert (out.status, out.witness) == (YES, tuple(range(40)))
    out = is_k_colorable(cycle(3000), 3000, canonical=True)
    assert out.witness == tuple(v % 2 for v in range(3000))


def test_negative_budget_is_refused_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(coloring, "_color_component", no_search)
    monkeypatch.setattr(coloring, "max_clique_size", no_search)
    for budget in (-1, -5):
        with pytest.raises(ValueError, match=f"node budget must be >= 0, got {budget}"):
            is_k_colorable(complete(4), 3, budget=budget)
        with pytest.raises(ValueError, match="node budget"):
            is_k_colorable(empty(0), 2, budget=budget, canonical=True)
        with pytest.raises(ValueError, match="node budget"):
            chromatic_number(complete(4), budget=budget)
        with pytest.raises(ValueError, match="node budget"):
            critical_vertex(complete(4), budget=budget)
    monkeypatch.undo()
    # a budget of 0 still means: undecided after the first node
    assert is_k_colorable(complete(4), 3, budget=0) == ColorOutcome(UNKNOWN, None, 1)
    with pytest.raises(BudgetExceededError):
        chromatic_number(complete(4), budget=0)


def _planted(f: int, odd: bool = False) -> Graph:
    """Vertices 2..f+1 joined only to f+4, plus the path 0, f+2, f+3, 1 and
    the edge (0, f+4); with odd=True also (1, f+4), closing a 5-cycle.
    Vertices 1..f+1 have no earlier neighbour, so an ascending backtracker
    would try every coloring of 2..f+1 before it met the conflict at f+3."""
    edges = [(v, f + 4) for v in range(2, f + 2)]
    edges += [(0, f + 2), (f + 2, f + 3), (1, f + 3), (0, f + 4)] + [(1, f + 4)] * odd
    return Graph.from_edges(f + 5, edges)


def test_canonical_two_coloring_is_linear():
    f = 30
    g = _planted(f)
    assert is_bipartite_bfs(g)
    out = is_k_colorable(g, 2, canonical=True, budget=f + 6)
    # parity of the distance from vertex 0
    assert out == ColorOutcome(YES, (0, 1) + (0,) * f + (1, 0, 1), f + 6)
    g = _planted(f, odd=True)
    assert not is_bipartite_bfs(g)
    assert is_k_colorable(g, 2, canonical=True, budget=f + 6) == ColorOutcome(NO, None, f + 6)
    assert is_k_colorable(g, 2, canonical=True, budget=f + 5).status == UNKNOWN


def test_long_cycle_colors_without_recursion():
    out = is_k_colorable(cycle(3000), 2, canonical=True)
    assert out.status == YES
    assert out.witness == tuple(v % 2 for v in range(3000))
    assert is_k_colorable(cycle(1101), 2).status == NO
    # the saturation-degree search keeps saturations incrementally, so every
    # forced step costs the vertex's degree, not a rescan of the open set
    out = is_k_colorable(cycle(3001), 2)
    assert (out.status, out.nodes) == (NO, 3001)
    assert is_k_colorable(cycle(3001), 3).status == YES
