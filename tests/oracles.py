"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive — itertools over subsets, permutations,
and colorings — and shares no logic with the package's optimized paths, so an
agreement between the two is meaningful evidence. Keep these slow and
obvious; they are the ground truth the fast code is measured against.
"""

from itertools import combinations, permutations, product

from exfree.graphs import Graph


def copies_brute(g: Graph, pattern: Graph) -> int:
    """Count subgraphs of g isomorphic to the pattern: distinct pairs
    (vertex set, edge set) reachable by an edge-preserving injection."""
    pv = pattern.n
    if pv == 0:
        return 1
    pedges = pattern.edges()
    seen = set()
    for subset in combinations(range(g.n), pv):
        for image in permutations(subset):
            ok = True
            for a, b in pedges:
                if not g.has_edge(image[a], image[b]):
                    ok = False
                    break
            if ok:
                mapped = frozenset(
                    frozenset((image[a], image[b])) for a, b in pedges
                )
                seen.add((frozenset(subset), mapped))
    return len(seen)


def contains_brute(g: Graph, h: Graph) -> bool:
    if h.n == 0:
        return True
    if h.n > g.n:
        return False
    hedges = h.edges()
    for subset in combinations(range(g.n), h.n):
        for image in permutations(subset):
            if all(g.has_edge(image[a], image[b]) for a, b in hedges):
                return True
    return False


def automorphisms_brute(g: Graph) -> int:
    count = 0
    edges = {frozenset(e) for e in g.edges()}
    for perm in permutations(range(g.n)):
        if {frozenset((perm[a], perm[b])) for a, b in edges} == edges:
            count += 1
    return count


def max_hfree_brute(g: Graph, pattern: Graph, h: Graph) -> tuple[int, tuple]:
    """Exhaust all edge subsets: (best count, lexicographically least best
    edge set). Exponential in the edge count — keep hosts tiny."""
    edges = g.edges()
    best = -1
    best_edges = None
    for bits in range(1 << len(edges)):
        subset = tuple(e for i, e in enumerate(edges) if bits >> i & 1)
        sub = Graph.from_edges(g.n, subset)
        if contains_brute(sub, h):
            continue
        cnt = copies_brute(sub, pattern)
        if cnt > best or (cnt == best and subset < best_edges):
            best, best_edges = cnt, subset
    return best, best_edges


def _hfree_subsets(g: Graph, h: Graph) -> dict[int, tuple]:
    """Every h-free edge subset of g: bitmask over g.edges() -> edge tuple."""
    edges = g.edges()
    out = {}
    for bits in range(1 << len(edges)):
        subset = tuple(e for i, e in enumerate(edges) if bits >> i & 1)
        if not contains_brute(Graph.from_edges(g.n, subset), h):
            out[bits] = subset
    return out


def optima_brute(g: Graph, pattern: Graph, h: Graph) -> tuple[int, list[tuple]]:
    """(best count, every h-free edge set reaching it, sorted) by exhausting
    all edge subsets."""
    counts = {
        subset: copies_brute(Graph.from_edges(g.n, subset), pattern)
        for subset in _hfree_subsets(g, h).values()
    }
    best = max(counts.values())
    return best, sorted(s for s, c in counts.items() if c == best)


def maximal_hfree_brute(g: Graph, h: Graph) -> list[tuple]:
    """Every h-free edge set to which no further host edge can be added
    without creating a copy of h, sorted."""
    free = _hfree_subsets(g, h)
    m = len(g.edges())
    return sorted(
        subset for bits, subset in free.items()
        if all((bits | 1 << i) not in free for i in range(m) if not bits >> i & 1)
    )


def colorable_brute(g: Graph, k: int) -> bool:
    if g.n == 0:
        return True
    if k <= 0:
        return False
    for colors in product(range(k), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in g.edges()):
            return True
    return False


def chromatic_brute(g: Graph) -> int:
    k = 0
    while True:
        if colorable_brute(g, k):
            return k
        k += 1


def is_bipartite_bfs(g: Graph) -> bool:
    """Textbook BFS 2-coloring, no shared code with the coloring module."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in g.neighbors(u):
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)
