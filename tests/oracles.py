"""Independent brute-force oracles for the test suite.

Everything here is deliberately naive — itertools over subsets, permutations,
and colorings — and shares no logic with the package's optimized paths, so an
agreement between the two is meaningful evidence. Keep these slow and
obvious; they are the ground truth the fast code is measured against. Some
exceptions reuse package code on purpose: local_search_recount counts with
the package's counter so that it can run the full local-search schedule,
solve_and_color_two_searches is the experiment harness's earlier solve-then-
enumerate bundle, built on the package's exact solver and tie enumeration,
and these are earlier versions of rewritten code kept as references:
complete_rows, turan_part_masks and coned_blowup_apex (the generators
before they shared one multipartite builder),
count_injective_homs_leafwise (the embedding backtracker that counts one
leaf at a time, on the package's plan), creates_copy_all_edges (the forbid
test that pins every directed edge of h, on the package's pinned
backtracker), defect_pairs_by_retest (the search's include step for a
non-clique h, which re-tests every live edge with the package's forbid
test), color_component_recursive (the
recursive coloring search, on the package's budget counter),
lex_least_coloring (the fixed-order search behind canonical colorings
before they shared the saturation search's loop),
max_partite_recount (the exact partition that recounts every string),
gnp_per_pair (the G(n, p) generator that calls random() once per pair),
min_degree_random_brute (the minimum-degree model on a set of pairs) and
peel_relabel (the peel that builds a relabelled graph per removal).
"""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

from exfree.coloring import NO, UNKNOWN, YES, is_k_colorable
from exfree.counting import (
    _hom_plan,
    copies_through_vertex,
    count_pattern_masks,
    exists_injective_hom,
)
from exfree.errors import BudgetExceededError, GraphFormatError, PatternSyntaxError
from exfree.graphs import Graph, remove_vertex
from exfree.harness import _counterexample, _graph_payload
from exfree.solver import (
    Partition,
    PeelStep,
    PeelTrace,
    _below_threshold,
    _creates_copy,
    enumerate_optima,
    max_hfree_subgraph,
)


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
    if len(hedges) == h.n * (h.n - 1) // 2:
        # a copy of a complete graph is a vertex set whose pairs are all
        # edges, so the vertex order need not be tried
        return any(all(g.has_edge(a, b) for a, b in combinations(subset, 2))
                   for subset in combinations(range(g.n), h.n))
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


def vertex_orbits_brute(g: Graph, fixed=()) -> list[set]:
    """Orbits on vertices of the automorphisms that fix each vertex of
    fixed (by default, of the whole group), found by trying every
    permutation of the other vertices."""
    edges = {frozenset(e) for e in g.edges()}
    rest = [v for v in range(g.n) if v not in fixed]
    auts = []
    for images in permutations(rest):
        perm = list(range(g.n))
        for v, w in zip(rest, images):
            perm[v] = w
        if {frozenset((perm[a], perm[b])) for a, b in edges} == edges:
            auts.append(perm)
    orbits = []
    for a in range(g.n):
        if not any(a in orbit for orbit in orbits):
            orbits.append({perm[a] for perm in auts})
    return orbits


def directed_edge_orbits_brute(g: Graph) -> list[set]:
    """Orbits of the automorphism group on directed edges, found by trying
    every vertex permutation."""
    edges = {frozenset(e) for e in g.edges()}
    auts = [perm for perm in permutations(range(g.n))
            if {frozenset((perm[a], perm[b])) for a, b in edges} == edges]
    orbits = []
    for u, v in g.edges():
        for a, b in ((u, v), (v, u)):
            if not any((a, b) in orbit for orbit in orbits):
                orbits.append({(perm[a], perm[b]) for perm in auts})
    return orbits


def injective_homs_brute(p: Graph, host_adj, host: int) -> list[tuple[int, ...]]:
    """Every injective edge-preserving map from p into the vertices of the
    host mask, as the tuple of images of p's vertices 0..p.n-1, found by
    trying every ordered choice of distinct host vertices."""
    verts = [x for x in range(host.bit_length()) if host >> x & 1]
    pedges = p.edges()
    return [image for image in permutations(verts, p.n)
            if all(host_adj[image[a]] >> image[b] & 1 for a, b in pedges)]


def creates_copy_brute(adj, n: int, h: Graph, u: int, v: int) -> bool:
    """Would adding (u, v) complete a copy of h that uses the edge (u, v)?
    Maps each edge (a, b) of h onto (u, v) and (v, u) in turn and tries
    every placement of h's other vertices on the other host vertices."""
    adj2 = list(adj)
    adj2[u] |= 1 << v
    adj2[v] |= 1 << u
    hedges = h.edges()
    rest = [x for x in range(n) if x not in (u, v)]
    for a, b in hedges:
        others = [w for w in range(h.n) if w not in (a, b)]
        for x, y in ((u, v), (v, u)):
            for placed in permutations(rest, len(others)):
                image = dict(zip(others, placed))
                image[a], image[b] = x, y
                if all(adj2[image[c]] >> image[d] & 1 for c, d in hedges):
                    return True
    return False


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


def _copy_masks(g: Graph, h: Graph) -> set[int]:
    """Every copy of h in g as a bitmask over g.edges(), found by trying
    every injection of h's vertices into g's."""
    index = {e: i for i, e in enumerate(g.edges())}
    out = set()
    for image in permutations(range(g.n), h.n):
        pairs = [tuple(sorted((image[a], image[b]))) for a, b in h.edges()]
        if all(pair in index for pair in pairs):
            out.add(sum(1 << index[pair] for pair in pairs))
    return out


def _hfree_subsets(g: Graph, h: Graph) -> dict[int, tuple]:
    """Every h-free edge subset of g: bitmask over g.edges() -> edge tuple.
    An edge subset contains h exactly when it holds one of the copies of h
    in g, so those copies are listed once and every subset is checked
    against them."""
    edges = g.edges()
    copies = _copy_masks(g, h)
    out = {}
    for bits in range(1 << len(edges)):
        if all(copy & bits != copy for copy in copies):
            out[bits] = tuple(e for i, e in enumerate(edges) if bits >> i & 1)
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


def lex_least_coloring(g: Graph, k: int) -> tuple[int, ...] | None:
    """Try colors 0..k-1 on vertices 0, 1, ... in turn, and give up a
    partial assignment at its first vertex that shares a color with an
    earlier neighbour. Every proper k-coloring extends only conflict-free
    partial ones, so all of them are still reached, in lexicographic order:
    the first one found is the least, or None if there is none. (This
    fixed-order search is the one the package's canonical coloring used
    before it shared the saturation search's loop.)"""
    if g.n == 0:
        return ()
    if k <= 0:
        return None
    earlier = [[u for u in g.neighbors(v) if u < v] for v in range(g.n)]
    colors: list[int] = []

    def extend() -> bool:
        v = len(colors)
        if v == g.n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in earlier[v]):
                colors.append(c)
                if extend():
                    return True
                colors.pop()
        return False

    return tuple(colors) if extend() else None


def lex_least_coloring_brute(g: Graph, k: int) -> tuple[int, ...] | None:
    """The first of all k^n colorings, in lexicographic order, that gives
    every edge two colors; None if none does."""
    edges = list(g.edges())
    for colors in product(range(max(k, 0)), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in edges):
            return colors
    return None


def colorable_brute(g: Graph, k: int) -> bool:
    return lex_least_coloring(g, k) is not None


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


def gnp_per_pair(n: int, p: float, seed: int, rng: random.Random | None = None) -> Graph:
    """G(n, p) drawn with one rng.random() per pair in (u, v) order."""
    if not 0 <= p <= 1:
        raise PatternSyntaxError("gnp needs 0 <= p <= 1")
    if rng is None:
        rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return Graph.from_edges(n, edges)


def min_degree_random_brute(n: int, eps: Fraction, seed: int) -> Graph:
    """graphs.min_degree_random on a set of pairs: gnp_per_pair at
    p = 1 - eps/2, then, while some vertex has fewer than
    min(ceil((1 - eps) * n), n - 1) neighbors, one missing pair at the
    lowest such vertex v, drawn by rng.choice from v's non-neighbors in id
    order. Built by the checked Graph constructor."""
    rng = random.Random(seed)
    pairs = set(gnp_per_pair(n, float(1 - eps / 2), seed, rng=rng).edges())
    floor = min(math.ceil((1 - eps) * n), n - 1) if n else 0
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    while any(d < floor for d in degree):
        v = next(v for v in range(n) if degree[v] < floor)
        u = rng.choice([u for u in range(n) if u != v and (min(u, v), max(u, v)) not in pairs])
        pairs.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def from_graph6_brute(text: str) -> Graph:
    """graph6 decoder that walks the body bit by bit, mapping each flat
    upper-triangle index to its (row, column) by subtraction. Quadratic in
    the body length; raises GraphFormatError with the package's messages."""
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    text = text.strip()
    if not text:
        raise GraphFormatError("empty graph6 string")
    for ch in text:
        if not 63 <= ord(ch) <= 126:
            raise GraphFormatError(f"invalid graph6 character {ch!r}")
    if text[0] != chr(126):
        n, body = ord(text[0]) - 63, text[1:]
    else:
        width = 3 if len(text) >= 2 and text[1] != chr(126) else 6
        start = 1 if width == 3 else 2
        if len(text) < start + width:
            raise GraphFormatError("truncated graph6 vertex count")
        n = 0
        for ch in text[start:start + width]:
            n = (n << 6) | (ord(ch) - 63)
        body = text[start + width:]
    nbits = n * (n - 1) // 2
    expected_chars = (nbits + 5) // 6
    if len(body) != expected_chars:
        raise GraphFormatError(
            f"graph6 body has {len(body)} characters, expected {expected_chars} for n={n}"
        )
    adj = [0] * n
    bit_index = 0
    for ch in body:
        val = ord(ch) - 63
        for k in range(5, -1, -1):
            if bit_index >= nbits:
                if (val >> k) & 1:
                    raise GraphFormatError("nonzero padding bits in graph6 body")
                continue
            if (val >> k) & 1:
                i, j = _bit_position(bit_index)
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            bit_index += 1
    return Graph(n, tuple(adj))


def _bit_position(index: int) -> tuple[int, int]:
    """Map a flat upper-triangle bit index (column order) to (row, column)."""
    j = 1
    while index >= j:
        index -= j
        j += 1
    return index, j


def relabel_brute(g: Graph, keep) -> Graph:
    """Induced subgraph on the sorted ids in keep, renumbered 0..len-1,
    built edge by edge."""
    keep = sorted(keep)
    return Graph.from_edges(
        len(keep),
        [(a, b) for a in range(len(keep)) for b in range(a + 1, len(keep))
         if g.has_edge(keep[a], keep[b])],
    )


def local_search_recount(g: Graph, k: int, t, seed: int, restarts: int, moves_per_vertex: int):
    """Seeded single-vertex-move hill climbing that recounts the whole
    partition for every candidate move, drawing from the RNG in the same
    order as max_partite's local search. Counts come from the package's
    count_pattern_masks, which test_counting checks against copies_brute,
    and are kept per partition, since a climb that makes no move recounts
    the same candidates on every draw.
    Returns (part of each vertex, relabelled by first occurrence; count)."""
    counts: dict[bytes, int] = {}

    def cross_count(assign):
        key = bytes(assign)
        if key not in counts:
            part_mask = [0] * k
            for v, p in enumerate(assign):
                part_mask[p] |= 1 << v
            counts[key] = count_pattern_masks(
                [g.adj[v] & ~part_mask[assign[v]] for v in range(g.n)], g.n, t)
        return counts[key]

    rng = random.Random(seed)
    if g.n == 0:
        return (), cross_count([])
    best_assign, best_count = None, -1
    for _ in range(restarts):
        assign = [rng.randrange(k) for _ in range(g.n)]
        cur = cross_count(assign)
        for _ in range(moves_per_vertex * g.n):
            v = rng.randrange(g.n)
            orig = assign[v]
            move_best = (cur, orig)
            for c in range(k):
                if c == orig:
                    continue
                assign[v] = c
                cand = cross_count(assign)
                if cand > move_best[0]:
                    move_best = (cand, c)
            assign[v] = move_best[1]
            cur = move_best[0]
        if cur > best_count:
            best_count, best_assign = cur, list(assign)
    labels: dict[int, int] = {}
    return tuple(labels.setdefault(p, len(labels)) for p in best_assign), best_count


def max_partite_recount(g: Graph, k: int, t) -> tuple[tuple[int, ...], int]:
    """Exact max_partite as restricted growth strings (vertex 0 in part 0)
    that recounts the whole cross graph at every string with the package's
    count_pattern_masks; the first maximum found is kept. Returns (part of
    each vertex, count)."""
    if g.n == 0:
        return (), count_pattern_masks((), 0, t)
    best_assign, best_count = None, -1
    assign = [0] * g.n

    def rec(i: int, used: int) -> None:
        nonlocal best_assign, best_count
        if i == g.n:
            part_mask = [0] * k
            for v, p in enumerate(assign):
                part_mask[p] |= 1 << v
            cross = [g.adj[v] & ~part_mask[assign[v]] for v in range(g.n)]
            count = count_pattern_masks(cross, g.n, t)
            if count > best_count:
                best_assign, best_count = tuple(assign), count
            return
        for c in range(min(used + 1, k)):
            assign[i] = c
            rec(i + 1, max(used, c + 1))

    rec(1, 1)
    return best_assign, best_count


def max_partite_brute(g: Graph, k: int, pattern: Graph) -> tuple[tuple[int, ...], int]:
    """The best k-partition by brute force: every assignment of g's vertices
    to k parts, relabelled by first occurrence, scored by copies_brute on
    its cross-part graph. Returns (the least relabelled assignment of the
    largest count, that count)."""
    scores = {}
    for assign in product(range(k), repeat=g.n):
        labels: dict[int, int] = {}
        canon = tuple(labels.setdefault(p, len(labels)) for p in assign)
        if canon not in scores:
            cross = [(a, b) for a, b in g.edges() if canon[a] != canon[b]]
            scores[canon] = copies_brute(Graph.from_edges(g.n, cross), pattern)
    count = max(scores.values())
    return min(canon for canon, score in scores.items() if score == count), count


def reinsert_brute(g: Graph, part: Partition, v: int, t) -> tuple[Partition, int]:
    """Reinsertion that builds, for each candidate part, the multipartite
    graph on the partitioned vertices plus v and takes its copies_brute
    count minus that of the same graph without v; ties go to the lowest
    part index."""
    def cross_graph(assignment: dict[int, int]) -> Graph:
        verts = sorted(assignment)
        edges = [(i, j) for i, j in combinations(range(len(verts)), 2)
                 if g.has_edge(verts[i], verts[j])
                 and assignment[verts[i]] != assignment[verts[j]]]
        return Graph.from_edges(len(verts), edges)

    p = t.realize()
    without = copies_brute(cross_graph(part.as_dict()), p)
    best_part, best_gain = None, -1
    for c in range(part.k):
        cand = part.with_vertex(v, c)
        gain = copies_brute(cross_graph(cand.as_dict()), p) - without
        if gain > best_gain:
            best_part, best_gain = cand, gain
    return best_part, best_gain


def solve_and_color_two_searches(g: Graph, h: Graph, t, k: int, budgets):
    """The harness bundle as two searches: an exact solve for the optimum
    and witness, then, within the tie budget, enumerate_optima for every
    optimum, the witness among them colored a second time."""
    try:
        res = max_hfree_subgraph(g, t, h, "exact", budgets=budgets)
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

    bundle = {
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


def to_graph6_brute(g: Graph) -> str:
    """graph6 encoder that packs the upper triangle one bit at a time, in
    column order, into 6-bit groups."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = [chr(126)] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    else:
        out = [chr(126)] * 2 + [chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0)]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def complete_rows(n: int) -> Graph:
    """K_n, each row all vertices but its own."""
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def turan_part_masks(n: int, r: int) -> Graph:
    """The Turan graph T(n, r): the first n mod r parts of ceil(n/r)
    vertices, the rest floor(n/r), on contiguous id blocks."""
    q, rem = divmod(n, r)
    sizes = [q + 1] * rem + [q] * (r - rem)
    part_masks = []
    start = 0
    for s in sizes:
        part_masks.append(((1 << s) - 1) << start)
        start += s
    full = (1 << n) - 1
    adj = []
    for s, pm in zip(sizes, part_masks):
        for _ in range(s):
            adj.append(full & ~pm)
    return Graph(n, tuple(adj))


def coned_blowup_apex(m: int, t: int) -> Graph:
    """K_m(t) on contiguous parts with an apex, vertex m * t, joined to all."""
    base = turan_part_masks(m * t, m)
    apex = base.n
    adj = [row | (1 << apex) for row in base.adj]
    adj.append((1 << base.n) - 1)
    return Graph(base.n + 1, tuple(adj))


def count_injective_homs_leafwise(p: Graph, host_adj, host_n: int, *, pin=None, limit=None) -> int:
    """Injective edge-preserving maps from p into the host, found by
    recursing to every leaf of the backtracking plan and counting leaves
    one at a time; stops once the count reaches limit."""
    if p.n > host_n:
        return 0
    order, back, pat_deg = _hom_plan(p)
    pinned = [pin.get(v) for v in order] if pin else [None] * p.n
    host_full = (1 << host_n) - 1
    host_deg = [host_adj[v].bit_count() for v in range(host_n)]
    image = [0] * p.n
    total = 0

    def rec(i: int, used: int) -> bool:
        nonlocal total
        if i == p.n:
            total += 1
            return total == limit
        cand = host_full & ~used
        for j in back[i]:
            cand &= host_adj[image[j]]
        fixed = pinned[i]
        if fixed is not None:
            if not (cand >> fixed) & 1:
                return False
            cand = 1 << fixed
        need = pat_deg[i]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if host_deg[v] < need:
                continue
            image[i] = v
            if rec(i + 1, used | (1 << v)):
                return True
        return False

    rec(0, 0)
    return total


def creates_copy_all_edges(adj, n: int, h: Graph, u: int, v: int) -> bool:
    """Would adding (u, v) complete a copy of h? Pins both directions of
    every edge of h to (u, v) in turn."""
    adj2 = list(adj)
    adj2[u] |= 1 << v
    adj2[v] |= 1 << u
    for a, b in h.edges():
        for x, y in ((a, b), (b, a)):
            if exists_injective_hom(h, adj2, n, pin={x: u, y: v}):
                return True
    return False


def defect_pairs_by_retest(plans, adj, up, lead) -> list[int]:
    """counting._defect_pairs as the search's include step computed it
    before: every pair of up & ~adj is tested on its own, by whether adding
    it to adj completes a copy of h through it (plans being h's
    _forbid_test plans). lead is not used: when every such pair was live
    before lead was included, a copy through one of them must use lead."""
    n = len(adj)
    kill = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if (up[a] & ~adj[a]) >> b & 1 and _creates_copy(adj, n, a, b, None, plans):
                kill[a] |= 1 << b
                kill[b] |= 1 << a
    return kill


def color_component_recursive(g: Graph, comp: list[int], k: int, budget, canonical: bool):
    """The coloring search as a recursive function, one call per opened
    vertex; returns (status, {vertex: color}) and spends budget nodes like
    coloring._color_component. It opens, in saturation order, the open
    vertex of most colors among its colored neighbours, then of highest
    degree, then of lowest id; in canonical order, a vertex with at most
    one color left, else the lowest open vertex. Colors are tried
    ascending, with at most one that no vertex has yet."""
    colors: dict[int, int] = {}

    def seen(w: int) -> set[int]:
        return {colors[u] for u in g.neighbors(w) if u in colors}

    def pick(remaining: set[int]) -> int:
        if canonical:
            return min(remaining, key=lambda w: (len(seen(w)) < k - 1, w))
        return max(remaining, key=lambda w: (len(seen(w)), g.degree(w), -w))

    def rec(remaining: set[int], max_used: int):
        if not budget.spend():
            return UNKNOWN
        if not remaining:
            return YES
        v = pick(remaining)
        used_nb = seen(v)
        remaining.remove(v)
        for c in range(min(k, max_used + 1)):
            if c in used_nb:
                continue
            colors[v] = c
            res = rec(remaining, max(max_used, c + 1))
            if res != NO:
                remaining.add(v)
                if res == UNKNOWN:
                    del colors[v]
                return res
            del colors[v]
        remaining.add(v)
        return NO

    return rec(set(comp), 0), colors


def peel_relabel(g: Graph, k: int, t, floor: int = 0) -> tuple[Graph, PeelTrace]:
    """solver.peel removing each vertex with remove_vertex, so every step
    builds and checks the relabelled current graph."""
    if k < 2:
        raise ValueError("peel needs k >= 2")
    if floor < 0:
        raise ValueError("peel needs floor >= 0")
    cur = g
    remap = tuple(range(g.n))
    steps: list[PeelStep] = []
    while True:
        if cur.n == 0 or not _below_threshold(cur.min_degree(), cur.n, k):
            reason = "degree-threshold-met"
            break
        if cur.n <= floor:
            reason = "floor-reached"
            break
        degs = [cur.degree(v) for v in range(cur.n)]
        dmin = min(degs)
        v = degs.index(dmin)  # lowest current id == lowest original id
        steps.append(
            PeelStep(
                vertex=remap[v],
                degree=dmin,
                host_size=cur.n,
                copies_removed=copies_through_vertex(cur, t, v),
            )
        )
        cur, sub_remap = remove_vertex(cur, v)
        remap = tuple(remap[old] for old in sub_remap)
    trace = PeelTrace(g.n, tuple(steps), reason, remap)
    return cur, trace
