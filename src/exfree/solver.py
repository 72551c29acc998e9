"""Extremal subgraph search: maximize pattern copies subject to a forbidden graph.

Exact answers come from one depth-first search over include/exclude
decisions on the host's edges, run in four settings: branch-and-bound with a
monotone counting bound, the exhaustive engine (the trivial bound, pruning
only edges that would complete a forbidden copy), tie enumeration (pruning
only subtrees that cannot reach the best count) and maximal-set enumeration.
Their independent check is the brute-force oracles of the test suite, not a
second copy of the search. The heuristic route peels low-degree vertices,
solves a balanced-partition core, and re-inserts the peeled vertices
greedily; it gives lower bounds (never claims optimality) but is cheap and
structurally informative. Peeling, partitioning and reinsertion score a
vertex by the copies through it (counting.copies_through), for every
pattern alike.

Ties between count-maximal edge sets are always broken toward the
lexicographically least sorted edge tuple, so results are reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .coloring import chromatic_number
from .counting import (
    Pattern,
    _count_injective_homs,
    _defect_pairs,
    _hom_plan,
    _orbits,
    cliques_in_mask,
    contains,
    copies_through,
    copies_through_vertex,
    count_pattern,
    count_pattern_masks,
    exists_clique_in_mask,
    find_clique_in_mask,
)
from .counting import exists_injective_hom  # noqa: F401  bench/layers.py traces this binding
from .errors import BudgetExceededError, InfeasibleError
from .graphs import Graph, bits, remove_vertex, turan


@dataclass(frozen=True)
class Budgets:
    """Size guards for the exact engines (these bound input size, not time)."""

    exhaustive_edges: int = 28
    bnb_edges: int = 60
    auto_exhaustive_max: int = 14  # auto mode switches to branch-and-bound above this
    partite_exact_n: int = 14
    ties_edges: int = 16
    ls_restarts: int = 20
    ls_moves_per_vertex: int = 10


DEFAULT_BUDGETS = Budgets()


@dataclass(frozen=True)
class SolveStats:
    """Search effort. The pruned_* counters split the subtrees an exact
    search dropped by the first rule that sufficed: the upper graph's count,
    the Turan cap, the packing bound, then the lex-prefix prune. seed_count
    and seed_s are the count of branch-and-bound's incumbent seed and the
    time spent finding it (None and 0.0 when there is no seed: under the
    exhaustive engine, or when chi(h) <= 2). These stay out of stdout and
    of records."""

    nodes: int
    elapsed_s: float
    engine: str
    pruned_count: int = 0
    pruned_cap: int = 0
    pruned_packing: int = 0
    pruned_lex: int = 0
    seed_count: int | None = None
    seed_s: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    best_count: int
    best_edges: tuple[tuple[int, int], ...]
    proof: str  # "exhaustive" | "branch-and-bound" | "heuristic"
    stats: SolveStats
    notes: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class Partition:
    """Assignment of a vertex subset to parts 0..k-1 (parts may be empty)."""

    k: int
    assignment: tuple[tuple[int, int], ...]  # (vertex, part), sorted by vertex

    @classmethod
    def of(cls, k: int, mapping: dict[int, int]) -> "Partition":
        for v, p in mapping.items():
            if not 0 <= p < k:
                raise ValueError(f"part index {p} outside 0..{k - 1}")
        return cls(k, tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)

    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.assignment)

    def part_of(self, v: int) -> int | None:
        return self.as_dict().get(v)

    def parts(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for v, p in self.assignment:
            out[p].append(v)
        return out

    def with_vertex(self, v: int, part: int) -> "Partition":
        d = self.as_dict()
        if v in d:
            raise ValueError(f"vertex {v} already assigned")
        d[v] = part
        return Partition.of(self.k, d)


def multipartite_subgraph(g: Graph, partition: Partition) -> Graph:
    """Spanning subgraph keeping exactly the cross-part edges inside the support."""
    part_mask = [0] * partition.k
    support_mask = 0
    for v, p in partition.assignment:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in graph on {g.n} vertices")
        part_mask[p] |= 1 << v
        support_mask |= 1 << v
    adj = [0] * g.n
    for v, p in partition.assignment:
        adj[v] = g.adj[v] & support_mask & ~part_mask[p]
    return Graph(g.n, tuple(adj))


# ---------------------------------------------------------------------------
# forbidden-copy tests on mutable mask lists


def _clique_order(h: Graph) -> int | None:
    """h's size if h is a complete graph on >= 2 vertices, else None."""
    if h.n >= 2 and h.edge_count() == h.n * (h.n - 1) // 2:
        return h.n
    return None


def _directed_edges(h: Graph) -> tuple[tuple[int, int], ...]:
    """One directed edge of h per orbit of Aut(h) on directed edges, the
    first in h.edges() order, both directions of an edge taken in turn."""
    directed = tuple(d for u, v in h.edges() for d in ((u, v), (v, u)))
    return tuple(edge for edge, _ in _orbits(h, directed))


@lru_cache(maxsize=256)
def _forbid_test(h: Graph) -> tuple[int | None, tuple | None]:
    """_creates_copy's last two arguments for h, built once per h and
    fetched once per search: (k, None) for h = K_k, else (None, plans),
    plans holding one embedding plan per _directed_edges representative
    (a, b), led by a then b. The search's include step walks the same plans
    (counting._defect_pairs)."""
    hk = _clique_order(h)
    if hk is not None:
        return hk, None
    return None, tuple(_hom_plan(h, edge) for edge in _directed_edges(h))


def _creates_copy(adj, n: int, u: int, v: int, hk: int | None, plans) -> bool:
    """Would adding edge (u, v) complete a copy of h through that edge?
    hk and plans are _forbid_test(h).

    For h = K_k this asks for a K_{k-2} among the common neighbors. Otherwise
    each plan pins its lead edge (a, b), one per orbit of Aut(h) on directed
    edges, to (u, v) in turn. A copy that maps some edge onto (u, v) can be
    composed with an automorphism that moves that edge to its orbit's
    representative, so one pin per orbit finds every copy the all-edges loop
    would. The pinned images' degrees must count the new edge, so the test
    runs on a copy of adj with (u, v) added.
    """
    if hk is not None:
        common = adj[u] & adj[v]
        return exists_clique_in_mask(adj, common, hk - 2)
    adj2 = list(adj)
    adj2[u] |= 1 << v
    adj2[v] |= 1 << u
    host = (1 << n) - 1
    lead = (u, v)
    for plan in plans:
        if _count_injective_homs(plan, adj2, host, lead, None, 1):
            return True
    return False


# ---------------------------------------------------------------------------
# the edge-decision search


def _edge_budget(what: str, m: int, limit: int) -> None:
    if m > limit:
        raise BudgetExceededError(f"{what} limited to {limit} edges, got {m}")


def _search(g: Graph, t: Pattern | None, h: Graph, keep, leaf) -> int:
    """Depth-first search over include/exclude decisions on g's edges in
    ascending order, include first; returns the number of nodes entered.

    keep(upper, included) decides at each node whether to enter it: included
    is the list of included edges and upper(floor) returns (bound, term):
    bound is at least the pattern count of every leaf below the node (see
    below) and, at a leaf, the leaf's own count; term names what set it,
    "count", "cap" or "packing". leaf(upper, included, adj) sees each leaf
    entered, adj being the included edges' masks. t may be None when
    neither hook counts.

    Live edges are the undecided edges that may still be included; each
    frame carries their list. The one pruning rule is forbid: an edge stops
    being live once it would complete a copy of h, and including an edge
    kills only survivors, since adding edges only forbids more. So every
    leaf is h-free. The test is fetched once per search from _forbid_test:
    a clique test for h = K_k, else one prepared embedding plan per orbit
    of Aut(h) on directed edges, led by that edge, so no test re-derives a
    plan. At the root nothing is included, and a single edge holds a copy
    of h exactly when h has one edge and at most n vertices: then no edge is
    live, and otherwise every edge is.

    Including (u, v) kills a live edge e exactly when the included edges
    plus e hold a copy of h through e. That copy also uses (u, v), since e
    was live before (u, v) was included, and every other edge of it is
    included. So one walk finds every killed edge at once
    (counting._defect_pairs): each plan's lead edge is pinned to (u, v),
    the walk runs over U, the upper graph (the included edges plus the live
    ones), and exactly one edge of h may land on a pair of U outside the
    included edges; each such pair that completes a copy is killed. Those
    pairs are exactly the remaining live edges, because decided edges are
    included or have left U. For a clique h = K_k the clique test is
    cheaper still: a killed live edge (a, b) lies in a K_k with u and v
    whose other edges are all included, so it is (u, w) with w in N(v),
    (v, w) with w in N(u), or has both ends in N(u) & N(v), N being the
    included neighbourhoods. Edges are decided in ascending order, so
    included edges precede (u, v) and live ones follow it. That leaves the
    first and last kinds empty, and only the live (w, v) with u < w < v
    and w in N(u) are re-tested, each by a search for a K_{k-2} in
    N(w) & N(v).

    upper(floor) is the pattern count of the upper graph U (the included
    edges plus the live ones), which every leaf below lies inside. For a
    clique pattern K_m and a clique h = K_k it is tightened twice, each term
    tried only while the bound so far is at least floor, since a caller that
    drops the node below floor needs no tighter value:
      Turan cap: the K_m count of the Turan graph T(n, k-1), the most any
        K_k-free graph on n vertices has (Zykov 1949);
      packing bound, for 2 <= m < k: with nu edge-disjoint copies of K_k in
        U, every leaf misses an edge of each copy and so the C(k-2, m-2)
        copies of K_m inside that K_k through that edge; copies of K_m in
        different edge-disjoint K_k share no edge, so the leaf has at most
        c_m(U) - C(k-2, m-2) * nu copies of K_m.
    The packing is kept from node to node and brought up to date only when
    the bound is read: a copy that has lost an edge leaves it, its edges
    are marked, and the marked edges still in U are tried as the start of
    new copies. Every copy not yet in the packing uses a marked edge, so the
    packing is maximal when read. For clique patterns the count of U is
    updated from the copies through each edge that leaves U and restored on
    backtrack; other patterns are recounted when asked.
    """
    edges = g.edges()
    M = len(edges)
    n = g.n
    hk, plans = _forbid_test(h)
    clique_m = t.m if t is not None and t.kind == "clique" else None
    cap = None
    loss = 0
    if hk is not None:
        eid = [[-1] * n for _ in range(n)]
        for j, (a, b) in enumerate(edges):
            eid[a][b] = eid[b][a] = j
        if clique_m is not None:
            cap = count_pattern_masks(turan(n, hk - 1).adj, n, t)
            if 2 <= clique_m < hk:
                loss = comb(hk - 2, clique_m - 2)
    adj = [0] * n
    included: list[tuple[int, int]] = []
    root_live = [] if h.edge_count() == 1 and h.n <= n else list(range(M))
    up = list(g.adj) if root_live else [0] * n
    up_count = count_pattern_masks(up, n, t) if clique_m is not None else 0
    nodes = 0
    # the current node's live list and packing, the packing as last brought
    # up to date on the path to the node: (copies, marked edges), each copy
    # its edge-index mask, vertices and vertex mask
    node_live, node_pack = root_live, None

    def upper(floor: int) -> tuple[int, str]:
        nonlocal node_pack
        bound = up_count if clique_m is not None else count_pattern_masks(up, n, t)
        # with no live edge left, U is the one leaf below and the count exact
        if bound < floor or cap is None or not node_live:
            return bound, "count"
        term = "count"
        if cap < bound:
            bound, term = cap, "cap"
        if bound >= floor and node_pack is not None:
            node_pack = packing(node_pack)
            packed = up_count - loss * len(node_pack[0])
            if packed < bound:
                bound, term = packed, "packing"
        return bound, term

    def packing(pack):
        """pack brought up to date with U: each copy that has lost an edge
        leaves it and marks its edges, then copies of K_k in U through
        the marked edges join it."""
        copies, marked = pack
        kept = []
        for copy in copies:
            _, verts, vmask = copy
            for x in verts:
                if (up[x] | 1 << x) & vmask != vmask:
                    marked |= copy[0]
                    break
            else:
                kept.append(copy)
        if not marked:
            return pack
        free = up[:]
        for _, verts, vmask in kept:
            for x in verts:
                free[x] &= ~vmask
        copies = kept
        while marked:
            j = (marked & -marked).bit_length() - 1
            marked &= marked - 1
            a, b = edges[j]
            if not (free[a] >> b) & 1:
                continue
            rest = find_clique_in_mask(free, free[a] & free[b], hk - 2)
            if rest is None:
                continue
            verts = (a, b) + rest
            vmask = 0
            for x in verts:
                vmask |= 1 << x
            copy = 0
            for x, y in combinations(verts, 2):
                copy |= 1 << eid[x][y]
            for x in verts:
                free[x] &= ~vmask
            copies.append((copy, verts, vmask))
        return tuple(copies), 0

    def drop(j: int) -> int:
        """Take live edge j out of the upper graph; return the copies lost."""
        nonlocal up_count
        a, b = edges[j]
        lost = 0
        if clique_m is not None and clique_m >= 2:
            lost = cliques_in_mask(up, up[a] & up[b], clique_m - 2)
            up_count -= lost
        up[a] &= ~(1 << b)
        up[b] &= ~(1 << a)
        return lost

    def restore(dropped: list[int], lost: int) -> None:
        nonlocal up_count
        for j in dropped:
            a, b = edges[j]
            up[a] |= 1 << b
            up[b] |= 1 << a
        up_count += lost

    def dfs(idx: int, live: list[int], pack):
        nonlocal nodes, node_live, node_pack
        nodes += 1
        node_live, node_pack = live, pack
        if not keep(upper, included):
            return
        if idx == M:
            leaf(upper, included, adj)
            return
        pack = node_pack
        u, v = edges[idx]
        is_live = bool(live) and live[0] == idx
        rest = live[1:] if is_live else live
        if is_live:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            included.append((u, v))
            if hk is not None:
                # live (w, v) with u < w < v and (u, w) included: the only
                # edges a K_k through (u, v) can complete (see above)
                killed = []
                cand = adj[u] & up[v] & -(2 << u)
                while cand:
                    w = (cand & -cand).bit_length() - 1
                    cand &= cand - 1
                    if exists_clique_in_mask(adj, adj[w] & adj[v], hk - 2):
                        killed.append(eid[w][v])
                keep_live = [j for j in rest if j not in killed] if killed else rest
            else:
                keep_live, killed = [], []
                if rest:
                    kill = _defect_pairs(plans, adj, up, (u, v))
                    for j in rest:
                        a, b = edges[j]
                        (killed if kill[a] >> b & 1 else keep_live).append(j)
            lost = sum(drop(j) for j in killed)
            dfs(idx + 1, keep_live, pack)
            restore(killed, lost)
            included.pop()
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            lost = drop(idx)
            dfs(idx + 1, rest, pack)
            restore([idx], lost)
        else:
            dfs(idx + 1, rest, pack)

    root_pack = None
    if loss:
        marked = 0
        for j in root_live:
            marked |= 1 << j
        root_pack = ((), marked)
    dfs(0, root_live, root_pack)
    return nodes


def _enter_all(upper, included) -> bool:
    return True


def _feasible_seed(g: Graph, t: Pattern, h: Graph):
    """Branch-and-bound's incumbent seed, (count, edges), or None.

    With chi = chi(h) >= 3 the seed is the peel-and-repartition heuristic's
    (chi - 1)-partite edge set, h-free since h is not (chi - 1)-colorable.
    Otherwise there is none. No greedy set is tried: the search includes
    first, so its first leaf is the set a greedy pass over the edges would
    build.
    """
    chi = chromatic_number(h).chromatic_number
    if chi < 3:
        return None
    try:
        reb = _rebuild(g, chi, t, h, chi, seed=0, budgets=DEFAULT_BUDGETS)
    except BudgetExceededError:
        return None
    return reb.best_count, reb.best_edges


def _solve(g: Graph, t: Pattern, h: Graph, bounded: bool):
    """The lex-least count-maximal h-free edge set: (count, edges, counters).

    Unbounded (the exhaustive engine) every h-free edge subset is a leaf.
    Bounded (branch-and-bound) the search starts from _feasible_seed, when
    there is one, and skips a subtree whose bound falls strictly below the
    incumbent. The bound is _search's upper: the upper graph's count, for
    clique patterns under a clique forbidden graph capped by the Turan count
    and cut by the edge-disjoint packing of forbidden cliques (see _search).
    The lex-prefix prune makes equal-bound subtrees cheap without changing
    the result: when the bound equals the incumbent's count and the
    incumbent's edge tuple is <= the included prefix, every leaf below
    extends the prefix and so cannot be lexicographically smaller; the
    subtree is dropped and the lex-least witness is kept exactly. With no
    seed the incumbent starts at count -1 and the empty tuple, which no
    prefix is lex-less than, so the first leaf replaces it. Both settings
    prune with the search's one rule, forbid, so every leaf is h-free
    without a further check.

    The counters are SolveStats' nodes, pruned_* and seed_*; a subtree
    dropped with its bound equal to the incumbent's count counts as a
    lex-prefix prune.
    """
    best = [-1, ()]
    counts = dict.fromkeys(("pruned_count", "pruned_cap", "pruned_packing", "pruned_lex"), 0)
    if bounded:
        started = time.perf_counter()
        seed = _feasible_seed(g, t, h)
        if seed is not None:
            counts["seed_s"] = time.perf_counter() - started
            counts["seed_count"] = seed[0]
            best = list(seed)

        def keep(upper, included) -> bool:
            lex_less = tuple(included) < best[1]
            # without a lex-smaller prefix only a larger count is worth a visit
            bound, term = upper(best[0] if lex_less else best[0] + 1)
            if bound > best[0] or (bound == best[0] and lex_less):
                return True
            counts["pruned_lex" if bound == best[0] else "pruned_" + term] += 1
            return False
    else:
        keep = _enter_all

    def leaf(upper, included, adj) -> None:
        count, cand = upper(0)[0], tuple(included)
        if count > best[0] or (count == best[0] and cand < best[1]):
            best[0], best[1] = count, cand

    counts["nodes"] = _search(g, t, h, keep, leaf)
    return best[0], best[1], counts


def _require_forbidden_edges(h: Graph) -> None:
    if h.edge_count() == 0:
        raise InfeasibleError("forbidden graph has no edges: every subgraph contains it")


def resolve_engine(M: int, h: Graph, engine: str, budgets: Budgets) -> str:
    """The exact engine an exact solve of a host with M edges runs:
    "exhaustive" or "branch-and-bound", the name a result's proof carries.
    Taking the edge count, not the host, lets a caller refuse a host before
    building it.

    Engine "auto" picks the exhaustive engine up to budgets'
    auto_exhaustive_max host edges. Raises InfeasibleError for an edgeless
    h, then BudgetExceededError past the engine's edge budget and ValueError
    for an unknown engine name.
    """
    _require_forbidden_edges(h)
    if engine == "auto":
        engine = "exhaustive" if M <= budgets.auto_exhaustive_max else "branch-and-bound"
    if engine == "exhaustive":
        _edge_budget("exhaustive engine", M, budgets.exhaustive_edges)
    elif engine == "branch-and-bound":
        _edge_budget("branch-and-bound engine", M, budgets.bnb_edges)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return engine


def check_witness(g: Graph, t: Pattern, count: int, edges) -> None:
    """RuntimeError unless the edge set, as a spanning subgraph of g, has
    exactly count copies of t."""
    recount = count_pattern(Graph.from_edges(g.n, edges), t)
    if recount != count:
        raise RuntimeError(f"witness recount mismatch: search gave {count}, witness has {recount}")


def max_hfree_subgraph(
    g: Graph,
    t: Pattern,
    h: Graph,
    mode: str = "exact",
    *,
    engine: str = "auto",
    budgets: Budgets = DEFAULT_BUDGETS,
    seed: int = 0,
) -> SolveResult:
    """Maximize copies of the pattern over h-free spanning subgraphs of g.

    mode "exact" proves optimality with the engine resolve_engine names
    (engine "auto" enumerates when the host is small and branches-and-bounds
    otherwise); mode "heuristic" runs the peel/partition/reinsert pipeline
    and only claims a lower bound.
    """
    _require_forbidden_edges(h)
    if mode == "heuristic":
        k = chromatic_number(h).chromatic_number
        reb = _rebuild(g, k, t, h, k, seed=seed, budgets=budgets)
        return SolveResult(reb.best_count, reb.best_edges, "heuristic", reb.stats, reb.notes)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    started = time.perf_counter()
    engine = resolve_engine(g.edge_count(), h, engine, budgets)
    best, best_edges, counts = _solve(g, t, h, bounded=engine == "branch-and-bound")
    elapsed = time.perf_counter() - started

    check_witness(g, t, best, best_edges)
    stats = SolveStats(elapsed_s=elapsed, engine=engine, **counts)
    return SolveResult(best, tuple(best_edges), engine, stats)


def enumerate_maximal_hfree(
    g: Graph, h: Graph, *, budgets: Budgets = DEFAULT_BUDGETS
) -> list[tuple[tuple[int, int], ...]]:
    """All maximal h-free spanning edge subsets of g, lex-sorted.

    Maximal means no further host edge can be added without creating a copy
    of h. Small hosts only (same edge budget as tie enumeration).
    """
    _require_forbidden_edges(h)
    _edge_budget("maximal enumeration", g.edge_count(), budgets.ties_edges)
    edges = g.edges()
    hk, plans = _forbid_test(h)
    out: list[tuple[tuple[int, int], ...]] = []

    def leaf(upper, included, adj) -> None:
        if all((adj[a] >> b) & 1 or _creates_copy(adj, g.n, a, b, hk, plans)
               for a, b in edges):
            out.append(tuple(included))

    _search(g, None, h, _enter_all, leaf)
    return sorted(out)


def enumerate_optima(
    g: Graph, t: Pattern, h: Graph, *, budgets: Budgets = DEFAULT_BUDGETS
) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """All count-maximal h-free edge subsets (lex-sorted); small hosts only.

    The search skips a subtree only when its bound falls strictly below the
    best count found so far, so every optimum is reached as a leaf.
    """
    _require_forbidden_edges(h)
    _edge_budget("tie enumeration", g.edge_count(), budgets.ties_edges)
    best = -1
    ties: list[tuple[tuple[int, int], ...]] = []

    def keep(upper, included) -> bool:
        return upper(best)[0] >= best

    def leaf(upper, included, adj) -> None:
        nonlocal best
        count = upper(0)[0]
        if count > best:
            best = count
            ties.clear()
        ties.append(tuple(included))

    _search(g, t, h, keep, leaf)
    return best, sorted(ties)


# ---------------------------------------------------------------------------
# balanced partitions


def max_partite(
    g: Graph,
    k: int,
    t: Pattern,
    mode: str = "exact",
    *,
    seed: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> tuple[Partition, int]:
    """Best k-partition of all vertices by pattern count over cross-part edges.

    Exact mode enumerates set partitions into at most k blocks as restricted
    growth strings with vertex 0 pinned to part 0 (canonical part labels kill
    the relabeling symmetry); first-found maximum is the lexicographically
    least assignment. Each placement is scored by the copies it completes
    and the scores are summed along the string. Local-search mode does
    seeded single-vertex-move hill climbing with restarts. A move of v
    changes the count only by the copies through v, so each move is scored
    by that delta on a cross adjacency kept up to date.
    """
    if k < 1:
        raise ValueError("max_partite needs k >= 1")
    n = g.n
    if mode not in ("exact", "local-search"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and n > budgets.partite_exact_n:
        raise BudgetExceededError(
            f"exact partitioning limited to {budgets.partite_exact_n} vertices, got {n}"
        )
    if n == 0:
        return Partition.of(k, {}), count_pattern_masks((), 0, t)
    if mode == "exact":
        assign = [0] * n
        best = {"count": -1, "assign": None}
        # each copy is counted once, when its last vertex is placed: the
        # copies through that vertex among the placed vertices, with its
        # placed neighbors outside its part. The sum starts from the count
        # in the empty graph. cross is the cross adjacency of the placed
        # vertices, part_mask their parts; the last vertex is scored without
        # updating either.
        cross = list(g.adj)
        part_mask = [0] * k
        last = n - 1

        def rec(i: int, used: int, total: int):
            bit = 1 << i
            row = g.adj[i]
            near = row & (bit - 1)
            for c in range(min(used + 1, k)):
                mask = part_mask[c]
                assign[i] = c
                gain = copies_through(cross, bit - 1, near & ~mask, t)
                if i == last:
                    if total + gain > best["count"]:
                        best["count"] = total + gain
                        best["assign"] = tuple(assign)
                    continue
                same = bits(near & mask)
                for w in same:
                    cross[w] ^= bit
                cross[i] = row & ~mask
                part_mask[c] = mask | bit
                rec(i + 1, max(used, c + 1), total + gain)
                part_mask[c] = mask
                for w in same:
                    cross[w] |= bit

        rec(0, 0, count_pattern_masks((), 0, t))  # with no part used, vertex 0 goes to part 0
        chosen = best["assign"]
        return Partition.of(k, {v: chosen[v] for v in range(n)}), best["count"]

    rng = random.Random(seed)
    full = (1 << n) - 1
    best_assign: list[int] | None = None
    best_count = -1
    for _ in range(budgets.ls_restarts):
        assign = [rng.randrange(k) for _ in range(n)]
        part_mask = [0] * k
        for v, p in enumerate(assign):
            part_mask[p] |= 1 << v
        cross = [g.adj[v] & ~part_mask[assign[v]] for v in range(n)]
        cur = count_pattern_masks(cross, n, t)
        for _ in range(budgets.ls_moves_per_vertex * n):
            v = rng.randrange(n)
            orig = assign[v]
            move_best = (cur, orig)
            # a move changes only the copies through v, which v completes
            # with its cross neighbors among the other vertices
            others = full ^ (1 << v)
            kept = cur - copies_through(cross, others, cross[v], t)
            for c in range(k):
                if c == orig:
                    continue
                cand = kept + copies_through(cross, others, g.adj[v] & ~part_mask[c], t)
                if cand > move_best[0]:
                    move_best = (cand, c)
            cur, c = move_best
            assign[v] = c
            if c != orig:
                bit = 1 << v
                for u in bits(g.adj[v] & (part_mask[orig] | part_mask[c])):
                    cross[u] ^= bit
                part_mask[orig] ^= bit
                part_mask[c] |= bit
                cross[v] = g.adj[v] & ~part_mask[c]
        if cur > best_count:
            best_count = cur
            best_assign = list(assign)
    canon = _canonical_labels(best_assign, k)
    return Partition.of(k, {v: canon[v] for v in range(n)}), best_count


def _canonical_labels(assign: list[int], k: int) -> list[int]:
    """Relabel parts in order of first occurrence for stable output."""
    seen: dict[int, int] = {}
    out = []
    for p in assign:
        if p not in seen:
            seen[p] = len(seen)
        out.append(seen[p])
    return out


# ---------------------------------------------------------------------------
# peel / reinsert / rebuild


@dataclass(frozen=True)
class PeelStep:
    vertex: int  # original id
    degree: int  # degree in the current graph at removal time
    host_size: int  # vertex count of the current graph before removal
    copies_removed: int  # pattern copies through the vertex at removal time


@dataclass(frozen=True)
class PeelTrace:
    initial_n: int
    steps: tuple[PeelStep, ...]
    stop_reason: str  # "degree-threshold-met" | "floor-reached"
    core_vertices: tuple[int, ...]  # surviving original ids, ascending

    @property
    def exceeded_half(self) -> bool:
        """Diagnostic: did the peel remove more than half the host?"""
        return 2 * len(self.steps) > self.initial_n


def _below_threshold(degree: int, n_j: int, k: int) -> bool:
    # exact integer form of degree < (1 - 3/(3k-4)) * n_j
    return degree * (3 * k - 4) < (3 * k - 7) * n_j


def peel(
    g: Graph, k: int, t: Pattern, floor: int = 0
) -> tuple[Graph, PeelTrace]:
    """Repeatedly remove a minimum-degree vertex (ties: lowest original id)
    while the minimum degree is below (1 - 3/(3k-4)) * current size and the
    graph is larger than the floor. The comparison is done in cross-multiplied
    integers, so no floats are involved.
    """
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


def reinsert(g: Graph, part: Partition, v: int, t: Pattern) -> tuple[Partition, int]:
    """Place v into the part where it creates the most new cross-part copies.

    The gain is exact: copies of the pattern through v in the multipartite
    subgraph on the partitioned vertices plus v. Ties go to the lowest part
    index. Each part is scored on the cross adjacency of the partitioned
    vertices, v joined to its neighbors outside the part.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} not in graph on {g.n} vertices")
    if v in part.as_dict():
        raise ValueError(f"vertex {v} already assigned to a part")
    part_mask = [0] * part.k
    support = 0
    for u, p in part.assignment:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} not in graph on {g.n} vertices")
        part_mask[p] |= 1 << u
        support |= 1 << u
    cross = [0] * g.n
    for u, p in part.assignment:
        cross[u] = g.adj[u] & support & ~part_mask[p]
    best_gain = -1
    best_part = 0
    for c in range(part.k):
        gain = copies_through(cross, support, g.adj[v] & support & ~part_mask[c], t)
        if gain > best_gain:
            best_gain = gain
            best_part = c
    return part.with_vertex(v, best_part), best_gain


@dataclass(frozen=True)
class RebuildResult:
    best_count: int
    best_edges: tuple[tuple[int, int], ...]
    stats: SolveStats
    notes: tuple[str, ...]
    partition: Partition
    core_count: int  # the core partition's count; core_count + sum(gains) == best_count
    gains: tuple[int, ...]  # one per reinserted vertex, in reinsertion order
    trace: PeelTrace


def rebuild(
    g: Graph,
    k: int,
    t: Pattern,
    h: Graph,
    *,
    seed: int = 0,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> RebuildResult:
    """Peel to a dense core, solve the best (k-1)-partition of the core, then
    re-insert the peeled vertices in reverse removal order.

    When chi(h) == k the result is (k-1)-partite and therefore h-free by
    construction. Otherwise a warning note is attached and h-freeness is
    checked explicitly; if the check fails the result still reports the
    partite subgraph, with a note saying it contains the forbidden graph.
    """
    chi_h = chromatic_number(h).chromatic_number
    return _rebuild(g, k, t, h, chi_h, seed=seed, budgets=budgets)


def _rebuild(
    g: Graph, k: int, t: Pattern, h: Graph, chi_h: int, *, seed: int, budgets: Budgets
) -> RebuildResult:
    """rebuild, given chi_h, the chromatic number of h."""
    started = time.perf_counter()
    notes: list[str] = []
    if chi_h != k:
        notes.append(f"forbidden graph has chromatic number {chi_h}, not k={k}")

    core, trace = peel(g, k, t, floor=0)
    if trace.exceeded_half:
        notes.append("peel removed more than half the vertices")

    if core.n <= budgets.partite_exact_n:
        core_part, core_count = max_partite(core, k - 1, t, "exact", budgets=budgets)
        engine = "peel+exact-partition"
    else:
        core_part, core_count = max_partite(
            core, k - 1, t, "local-search", seed=seed, budgets=budgets
        )
        engine = "peel+local-search-partition"

    # lift the core partition to original vertex ids
    lifted = {trace.core_vertices[v]: p for v, p in core_part.assignment}
    part = Partition.of(k - 1, lifted)

    gains: list[int] = []
    for step in reversed(trace.steps):
        part, gain = reinsert(g, part, step.vertex, t)
        gains.append(gain)

    final = multipartite_subgraph(g, part)
    count = count_pattern(final, t)
    if count != core_count + sum(gains):
        raise RuntimeError(
            f"rebuild count decomposition mismatch: {count} != {core_count} + {sum(gains)}"
        )

    if chi_h != k and contains(final, h):
        notes.append("result contains the forbidden graph (chromatic mismatch)")

    elapsed = time.perf_counter() - started
    return RebuildResult(
        best_count=count,
        best_edges=tuple(final.edges()),
        stats=SolveStats(nodes=len(trace.steps), elapsed_s=elapsed, engine=engine),
        notes=tuple(notes),
        partition=part,
        core_count=core_count,
        gains=tuple(gains),
        trace=trace,
    )
