"""Extremal subgraph search: maximize pattern copies subject to a forbidden graph.

Exact answers come from one depth-first search over include/exclude decisions
on the host's edges. Each of its three settings is one hook that decides
whether to enter a node: branch-and-bound with a monotone counting bound, tie
enumeration (pruning only subtrees that cannot reach the best count) and
maximal-set enumeration (pruning a subtree once an excluded edge joins its
upper graph without a forbidden copy). Their independent check is the
brute-force oracles of the test suite, not a second copy of the search. The
heuristic route, rebuild, peels low-degree vertices, solves a
balanced-partition core, and re-inserts the peeled vertices greedily on one
cross adjacency of the partition; it gives lower bounds (never claims
optimality) but is cheap and structurally informative. Branch-and-bound's
incumbent seed and the heuristic mode of max_hfree_subgraph both call
rebuild. Peeling, partitioning and reinsertion score a vertex by the copies
through it (counting.copies_through), for every pattern alike.

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
    blowup_shape,
    cliques_in_mask,
    contains,
    copies_through,
    count_pattern,
    count_pattern_masks,
    exists_clique_in_mask,
    find_clique_in_mask,
)
from .counting import (  # noqa: F401  bench/layers.py traces these bindings
    copies_through_vertex,
    exists_injective_hom,
)
from .errors import BudgetExceededError, InfeasibleError
from .graphs import Graph, bits, induced_subgraph, turan
from .graphs import remove_vertex  # noqa: F401  bench/layers.py traces solver.remove_vertex


@dataclass(frozen=True)
class Budgets:
    """Size guards for the exact searches (these bound input size, not time)."""

    bnb_edges: int = 60
    partite_exact_n: int = 14
    ties_edges: int = 16
    ls_restarts: int = 20
    ls_moves_per_vertex: int = 10

    def __post_init__(self):
        # local search returns the best of its restarts, so it needs one
        if self.ls_restarts < 1:
            raise ValueError(f"ls_restarts must be >= 1, got {self.ls_restarts}")
        if self.ls_moves_per_vertex < 0:
            raise ValueError(f"ls_moves_per_vertex must be >= 0, got {self.ls_moves_per_vertex}")


DEFAULT_BUDGETS = Budgets()


@dataclass(frozen=True)
class SolveStats:
    """Search effort. The pruned_* counters split the subtrees an exact
    search dropped by the first rule that sufficed: the upper graph's count,
    the Turan cap, the packing bound, the lex-prefix prune, then dominance,
    tried only at nodes the bound accepts (see _solve). seed_count
    and seed_s are the count of branch-and-bound's incumbent seed and the
    time spent finding it (None and 0.0 when there is no seed, that is
    when chi(h) <= 2). These stay out of stdout and of records."""

    nodes: int
    elapsed_s: float
    engine: str
    pruned_count: int = 0
    pruned_cap: int = 0
    pruned_packing: int = 0
    pruned_lex: int = 0
    pruned_dominance: int = 0
    seed_count: int | None = None
    seed_s: float = 0.0


@dataclass(frozen=True)
class SolveResult:
    best_count: int
    best_edges: tuple[tuple[int, int], ...]
    proof: str  # "branch-and-bound" | "heuristic"
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


def _cross(g: Graph, k: int, assignment) -> tuple[list[int], int, list[int]]:
    """The cross adjacency of a partial k-partition of g, given as a
    collection of (vertex, part) pairs, read twice: (part masks, support
    mask, rows), each support vertex's row its edges to other parts inside
    the support, every other row 0.

    Each vertex is checked to be in g and in exactly one part, so u and v
    keep the edge together or lose it together: the rows are symmetric
    without a check."""
    part_mask = [0] * k
    support = 0
    for v, p in assignment:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in graph on {g.n} vertices")
        if not 0 <= p < k:
            raise ValueError(f"part index {p} outside 0..{k - 1}")
        if (support >> v) & 1:
            raise ValueError(f"vertex {v} assigned twice")
        part_mask[p] |= 1 << v
        support |= 1 << v
    cross = [0] * g.n
    for v, p in assignment:
        cross[v] = g.adj[v] & support & ~part_mask[p]
    return part_mask, support, cross


def multipartite_subgraph(g: Graph, partition: Partition) -> Graph:
    """Spanning subgraph keeping exactly the cross-part edges inside the
    support; the partition is checked by _cross."""
    return Graph._unchecked(g.n, tuple(_cross(g, partition.k, partition.assignment)[2]))


# ---------------------------------------------------------------------------
# forbidden-copy tests on mutable mask lists


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
    if blowup_shape(h) == (h.n, 1):
        return h.n, None
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
    return any(_count_injective_homs(plan, adj2, host, (u, v), None, 1) for plan in plans)


# ---------------------------------------------------------------------------
# the edge-decision search


def _edge_budget(what: str, m: int, limit: int) -> None:
    if m > limit:
        raise BudgetExceededError(f"{what} limited to {limit} edges, got {m}")


class _Node:
    """The node _search enters, updated in place (see _search); upper reads
    its leaf flag and its packing, pack, and dominated reads U."""

    __slots__ = ("included", "excluded", "up", "leaf", "upper", "pack", "dominated")


def _search(g: Graph, t: Pattern | None, h: Graph, enter) -> int:
    """Depth-first search over include/exclude decisions on g's edges,
    include first; returns the number of nodes entered. Live edges are the
    undecided edges that may still be included; each frame carries them as
    a mask of edge indices. Each node decides the lowest one, and a node
    with no live edge left is a leaf: its included edges are the leaf.

    enter(node) decides at each node whether to enter it, and records the
    results: a leaf it accepts is one. node is one _Node, updated in place:
    included and excluded list the edges included and the live edges
    excluded by choice on the path, as (u, v); up holds the masks of U, the
    upper graph (the included edges plus the live ones), which every leaf
    below lies inside; leaf says no live edge is left. upper(floor) returns
    (bound, term): bound is at least the count of t in every leaf below and,
    at a leaf, the leaf's own count; term names what set it, "count", "cap"
    or "packing". t may be None when enter never calls upper. dominated()
    says, for h = K_k, whether some edge (a, b) excluded by choice below the
    last included edge has no K_{k-2} in N_U(a) & N_U(b); it is always
    False for any other h. Each such edge keeps the edges of the K_k last
    found through it as its witness, and is searched again only once U has
    lost one of them.

    The one pruning rule is forbid: an edge stops being live once it would
    complete a copy of h, and including an edge kills only survivors, since
    adding edges only forbids more. So every leaf is h-free, and each host
    edge outside a leaf is either killed, so that the leaf plus it holds a
    copy of h, or in excluded. The test is fetched once per search from
    _forbid_test: a clique test for h = K_k, else one prepared embedding
    plan per orbit of Aut(h) on directed edges, led by that edge, so no test
    re-derives a plan. At the root nothing is included, and a single edge
    holds a copy of h exactly when h has one edge and at most n vertices:
    then no edge is live, and otherwise every edge is.

    Including (u, v) kills a live edge e exactly when the included edges
    plus e hold a copy of h through e. That copy also uses (u, v), since e
    was live before (u, v) was included, and every other edge of it is
    included. So one walk finds every killed edge at once
    (counting._defect_pairs): each plan's lead edge is pinned to (u, v), the
    walk runs over U, and exactly one edge of h may land on a pair of U
    outside the included edges; each such pair that completes a copy is
    killed. Those pairs are exactly the remaining live edges, because
    decided edges are included or have left U. For a clique h = K_k the
    clique test is cheaper still: a killed live edge (a, b) lies in a K_k
    with u and v whose other edges are all included, so it is (u, w) with w
    in N(v), (v, w) with w in N(u), or has both ends in N(u) & N(v), N being
    the included neighbourhoods. The lowest live edge is decided first, so
    included edges precede (u, v) and live ones follow it. That leaves the
    first and last kinds empty, and only the live (w, v) with u < w < v and
    w in N(u) are re-tested, each by a search for a K_{k-2} in N(w) & N(v).

    upper(floor) is the pattern count of U. For a clique pattern K_m and a
    clique h = K_k it is tightened twice, each term tried only while the
    bound so far is at least floor, since a caller that drops the node below
    floor needs no tighter value:
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
    packing is maximal when read. A copy has lost an edge when up_edges,
    the edge-index mask of U that drop and restore keep up to date, lacks
    one of its edges; while it holds every edge the packing covers, nothing
    is to be done. For clique patterns the count of U is
    updated from the copies through each edge that leaves U and restored on
    backtrack; other patterns are recounted when asked.
    """
    edges = g.edges()
    n = g.n
    hk, plans = _forbid_test(h)
    clique_m = t.m if t is not None and t.kind == "clique" else None
    # the clique size whose copies in N_U(a) & N_U(b) are the copies of K_m
    # an edge (a, b) leaving U takes with it
    lost_size = clique_m - 2 if clique_m is not None and clique_m >= 2 else None
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
    excluded: list[tuple[int, int]] = []
    # excluded[:armed] lie below the last included edge; witness[j] is
    # the edge-index mask of a K_k through excluded edge j, less j, last
    # found in U + j (0: none yet)
    armed = 0
    witness = [0] * len(edges)
    root_live = 0 if h.edge_count() == 1 and h.n <= n else (1 << len(edges)) - 1
    up = list(g.adj) if root_live else [0] * n
    up_edges = root_live
    up_count = count_pattern_masks(up, n, t) if clique_m is not None else 0
    nodes = 0

    def upper(floor: int) -> tuple[int, str]:
        bound = up_count if clique_m is not None else count_pattern_masks(up, n, t)
        # at a leaf U is the leaf and the count exact
        if bound < floor or cap is None or node.leaf:
            return bound, "count"
        term = "count"
        if cap < bound:
            bound, term = cap, "cap"
        if bound >= floor and node.pack is not None:
            node.pack = packing(node.pack)
            packed = up_count - loss * len(node.pack[0])
            if packed < bound:
                bound, term = packed, "packing"
        return bound, term

    def packing(pack):
        """pack brought up to date with U: each copy that has lost an edge
        leaves it and marks its edges, then copies of K_k in U through
        the marked edges join it. A packing is (copies, marked edges,
        covered edges), each copy its edge-index mask, vertices and vertex
        mask, and the covered edges those of every copy; node.pack holds it
        as last brought up to date on the path to the node. A copy has lost
        an edge exactly when U's edge-index mask up_edges has lost one of
        its edges, so one test of the covered edges finds every packing
        still up to date."""
        copies, marked, covered = pack
        if not marked and covered & up_edges == covered:
            return pack
        kept = []
        for copy in copies:
            if copy[0] & up_edges == copy[0]:
                kept.append(copy)
            else:
                marked |= copy[0]
                covered ^= copy[0]
        free = up[:]
        for _, verts, vmask in kept:
            for x in verts:
                free[x] &= ~vmask
        copies = kept
        while marked:
            low = marked - 1
            j = (marked ^ low).bit_length() - 1
            marked &= low
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
            for x in verts:
                free[x] &= ~vmask
            copy = clique_edges(verts)
            covered |= copy
            copies.append((copy, verts, vmask))
        return tuple(copies), 0, covered

    def clique_edges(verts) -> int:
        """The edge-index mask of the clique on verts."""
        mask = 0
        for x, y in combinations(verts, 2):
            mask |= 1 << eid[x][y]
        return mask

    def dominated() -> bool:
        """Does some excluded edge (a, b) below the last included edge have
        no K_k through it in U + (a, b)? Used only when h = K_k. A witness
        stays good while U keeps its edges, so only an edge whose witness
        lost one is searched again."""
        for a, b in excluded[:armed]:
            j = eid[a][b]
            w = witness[j]
            if w and w & up_edges == w:
                continue
            rest = find_clique_in_mask(up, up[a] & up[b], hk - 2)
            if rest is None:
                return True
            witness[j] = clique_edges((a, b) + rest) ^ 1 << j
        return False

    def drop(j: int) -> int:
        """Take live edge j out of the upper graph; return the copies lost."""
        nonlocal up_count, up_edges
        a, b = edges[j]
        lost = 0
        if lost_size is not None:
            lost = cliques_in_mask(up, up[a] & up[b], lost_size)
            up_count -= lost
        up[a] &= ~(1 << b)
        up[b] &= ~(1 << a)
        up_edges ^= 1 << j
        return lost

    def restore(dropped: list[int], lost: int) -> None:
        nonlocal up_count, up_edges
        for j in dropped:
            a, b = edges[j]
            up[a] |= 1 << b
            up[b] |= 1 << a
            up_edges |= 1 << j
        up_count += lost

    node = _Node()
    node.included, node.excluded, node.up, node.upper = included, excluded, up, upper
    node.dominated = dominated if hk is not None else lambda: False

    def dfs(live: int, pack):
        nonlocal nodes, armed
        nodes += 1
        node.pack, node.leaf = pack, not live
        if not enter(node) or not live:
            return
        pack = node.pack
        rest = live & (live - 1)
        j = (live ^ rest).bit_length() - 1
        u, v = edges[j]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        included.append((u, v))
        if hk is not None:
            # live (w, v) with u < w < v and (u, w) included: the only
            # edges a K_k through (u, v) can complete (see above)
            killed = []
            cand = (adj[u] & up[v]) >> (u + 1) << (u + 1)
            while cand:
                low = cand - 1
                w = (cand ^ low).bit_length() - 1
                cand &= low
                if exists_clique_in_mask(adj, adj[w] & adj[v], hk - 2):
                    killed.append(eid[w][v])
        else:
            killed = []
            kill = _defect_pairs(plans, adj, up, (u, v)) if rest else None
            x = rest
            while x:
                low = x - 1
                i = (x ^ low).bit_length() - 1
                x &= low
                a, b = edges[i]
                if kill[a] >> b & 1:
                    killed.append(i)
        keep_live = rest
        lost = 0
        for i in killed:
            keep_live ^= 1 << i
            lost += drop(i)
        armed, outer = len(excluded), armed
        dfs(keep_live, pack)
        armed = outer
        if killed:
            restore(killed, lost)
        included.pop()
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        lost = drop(j)
        excluded.append((u, v))
        dfs(rest, pack)
        excluded.pop()
        restore((j,), lost)

    dfs(root_live, ((), root_live, 0) if loss else None)
    return nodes


def _feasible_seed(g: Graph, t: Pattern, h: Graph):
    """Branch-and-bound's incumbent seed, (count, edges), or None.

    With chi = chi(h) >= 3 the seed is the peel-and-repartition heuristic's
    (chi - 1)-partite edge set from rebuild, h-free since h is not
    (chi - 1)-colorable. Otherwise there is none. No greedy set is tried:
    the search includes first, so its first leaf is the set a greedy pass
    over the edges would build. For h = K_k, chi = k is read from the
    cached _forbid_test(h). A BudgetExceededError from rebuild, a generic
    pattern past the counter's vertex budget, is the search's own error.
    """
    hk, _ = _forbid_test(h)
    chi = hk if hk is not None else chromatic_number(h).chromatic_number
    if chi < 3:
        return None
    reb = rebuild(g, chi, t, h)
    return reb.best_count, reb.best_edges


def _solve(g: Graph, t: Pattern, h: Graph):
    """The lex-least count-maximal h-free edge set, by branch-and-bound:
    (count, edges, counters).

    The search starts from _feasible_seed, when there is one, and skips a
    subtree whose bound falls strictly below the incumbent. The bound is
    _search's upper: the upper graph's count, for clique patterns under a
    clique forbidden graph capped by the Turan count and cut by the
    edge-disjoint packing of forbidden cliques (see _search). The lex-prefix
    prune makes equal-bound subtrees cheap without changing the result: when
    the bound equals the incumbent's count and the incumbent's edge tuple is
    <= the included prefix, every leaf below extends the prefix and so
    cannot be lexicographically smaller; the subtree is dropped and the
    lex-least witness is kept exactly. With no seed the incumbent starts at
    count -1 and no edges, which no prefix is lex-less than, so the
    first leaf replaces it. At a leaf the bound is the leaf's count, so the
    same test decides whether the leaf replaces the incumbent. The search
    prunes with its one rule, forbid, so every leaf is h-free without a
    further check.

    For h = K_k a node the bound accepts is still refused when it is
    dominated (_search's dominated): some edge e = (a, b), excluded by
    choice below the last included edge, has no K_{k-2} in N_U(a) & N_U(b).
    The lex-least optimum L is never refused. L + e would have at least
    L's count and be lex-smaller, for any e outside L below L's last edge,
    so L + e holds a K_k through e, and on L's path U contains L. Leaves are
    not tested, so a dominated leaf may still become the incumbent. The
    tie and maximal-set enumerations must reach every set and do not use
    the rule.

    The counters are SolveStats' nodes, pruned_* and seed_*; a subtree
    dropped with its bound equal to the incumbent's count counts as a
    lex-prefix prune.
    """
    best = [-1, []]  # the incumbent's count and edges, as a list for cheap comparison
    counts = dict.fromkeys(
        ("pruned_count", "pruned_cap", "pruned_packing", "pruned_lex", "pruned_dominance"), 0
    )
    started = time.perf_counter()
    seed = _feasible_seed(g, t, h)
    if seed is not None:
        counts["seed_s"] = time.perf_counter() - started
        counts["seed_count"] = seed[0]
        best = [seed[0], list(seed[1])]

    def enter(node) -> bool:
        lex_less = node.included < best[1]
        # without a lex-smaller prefix only a larger count is worth a visit
        bound, term = node.upper(best[0] if lex_less else best[0] + 1)
        if bound > best[0] or (bound == best[0] and lex_less):
            if node.leaf:
                best[0], best[1] = bound, node.included[:]
            elif node.dominated():
                counts["pruned_dominance"] += 1
                return False
            return True
        counts["pruned_lex" if bound == best[0] else "pruned_" + term] += 1
        return False

    counts["nodes"] = _search(g, t, h, enter)
    return best[0], tuple(best[1]), counts


def _require_forbidden_edges(h: Graph) -> None:
    if h.edge_count() == 0:
        raise InfeasibleError("forbidden graph has no edges: every subgraph contains it")


def resolve_engine(M: int, h: Graph, budgets: Budgets) -> str:
    """The proof an exact solve of a host with M edges carries,
    "branch-and-bound". Taking the edge count, not the host, lets a caller
    refuse a host before building it.

    Raises InfeasibleError for an edgeless h, then BudgetExceededError past
    budgets' bnb_edges host edges.
    """
    _require_forbidden_edges(h)
    _edge_budget("branch-and-bound engine", M, budgets.bnb_edges)
    return "branch-and-bound"


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
    budgets: Budgets = DEFAULT_BUDGETS,
    seed: int = 0,
) -> SolveResult:
    """Maximize copies of the pattern over h-free spanning subgraphs of g.

    mode "exact" proves optimality by branch-and-bound (_solve), within
    budgets' bnb_edges host edges; mode "heuristic" runs the
    peel/partition/reinsert pipeline and only claims a lower bound.
    """
    _require_forbidden_edges(h)
    if mode == "heuristic":
        k = chromatic_number(h).chromatic_number
        reb = rebuild(g, k, t, h, seed=seed, budgets=budgets)
        return SolveResult(reb.best_count, reb.best_edges, "heuristic", reb.stats, reb.notes)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    started = time.perf_counter()
    engine = resolve_engine(g.edge_count(), h, budgets)
    best, best_edges, counts = _solve(g, t, h)
    elapsed = time.perf_counter() - started

    check_witness(g, t, best, best_edges)
    stats = SolveStats(elapsed_s=elapsed, engine=engine, **counts)
    return SolveResult(best, tuple(best_edges), engine, stats)


def enumerate_maximal_hfree(
    g: Graph, h: Graph, *, budgets: Budgets = DEFAULT_BUDGETS
) -> list[tuple[tuple[int, int], ...]]:
    """All maximal h-free spanning edge subsets of g, lex-sorted.

    Maximal means no further host edge can be added without creating a copy
    of h. Small hosts only (same edge budget as tie enumeration). Only the
    edges excluded by choice can be added, as a killed edge completes a
    copy. A node is entered only while each excluded edge e has a copy of h
    through e in U + e, U its upper graph, which every leaf below lies in;
    at a leaf U is the leaf, so this is the maximality test. Newest edges
    are tested first: the last exclusion or kill most often breaks a copy.
    """
    _require_forbidden_edges(h)
    _edge_budget("maximal enumeration", g.edge_count(), budgets.ties_edges)
    hk, plans = _forbid_test(h)
    out: list[tuple[tuple[int, int], ...]] = []

    def enter(node) -> bool:
        up, n = node.up, g.n
        ok = all(_creates_copy(up, n, a, b, hk, plans) for a, b in reversed(node.excluded))
        if ok and node.leaf:
            out.append(tuple(node.included))
        return ok

    _search(g, None, h, enter)
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

    def enter(node) -> bool:
        nonlocal best
        bound = node.upper(best)[0]
        if node.leaf and bound >= best:
            if bound > best:
                best = bound
                ties.clear()
            ties.append(tuple(node.included))
        return bound >= best

    _search(g, t, h, enter)
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
    and the scores are summed along the string. The enumeration is a
    branch-and-bound: a subtree at vertex i is skipped when its running sum
    plus the host's copies whose last vertex is i or later cannot beat the
    best string so far. That best starts one below a greedy placement's
    count, so the lex-least maximum is still the first found. Local-search mode does
    seeded single-vertex-move hill climbing with restarts. A move of v
    changes the count only by the copies through v, so each move is scored
    by that delta on a cross adjacency kept up to date. For a clique
    pattern a drawn vertex is rescored only if a neighbor has moved since
    its last scoring: its copies lie in its closed neighborhood, so its
    scores depend only on its neighbors' parts, and that scoring left it in
    a part no other part beats strictly, as a move needs. Its draw is still
    made, so the result is that of rescoring every draw.
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
    if t.kind != "arbitrary" and t.m > k:
        # a k-partite graph holds no K_m, nor K_m(t), so every partition
        # counts 0 and the search would keep the first one it meets: exact
        # mode's all-zero string, or the first restart's draws, which no
        # move improves
        rng = random.Random(seed)
        first = [0] * n if mode == "exact" else [rng.randrange(k) for _ in range(n)]
        return Partition.of(k, dict(enumerate(_canonical_labels(first, k)))), 0
    if mode == "exact":
        assign = [0] * n
        empty_count = count_pattern_masks((), 0, t)
        # a greedy placement's count, less one, is a floor the lex-least
        # optimum beats
        greedy_parts, placed, greedy_cross = [0] * k, 0, [0] * n
        greedy = empty_count
        for v in range(n):
            greedy += _place(g, t, v, greedy_parts, placed, greedy_cross)[1]
            placed |= 1 << v
        best_count, best_assign = greedy - 1, ()
        # each copy is counted once, when its last vertex is placed: the
        # copies through that vertex among the placed vertices, with its
        # placed neighbors outside its part. The sum starts from the count
        # in the empty graph. rest[i] counts the host's copies whose last
        # vertex is i or later, a cap on what vertices i.. can still add.
        # cross is the cross adjacency of the placed vertices, part_mask
        # their parts; the last vertex is scored without updating either,
        # and K1 and K2 gains, which never read cross, leave it as it is.
        rest = [0] * (n + 1)
        for v in range(n - 1, -1, -1):
            below = (1 << v) - 1
            rest[v] = rest[v + 1] + copies_through(g.adj, below, g.adj[v] & below, t)
        cross = list(g.adj)
        keep_cross = t.kind != "clique" or t.m > 2
        part_mask = [0] * k
        last = n - 1

        def rec(i: int, used: int, total: int):
            nonlocal best_count, best_assign
            bit = 1 << i
            row = g.adj[i]
            near = row & (bit - 1)
            for c in range(min(used + 1, k)):
                if total + rest[i] <= best_count:
                    return
                mask = part_mask[c]
                gain = copies_through(cross, bit - 1, near & ~mask, t)
                if total + gain + rest[i + 1] <= best_count:
                    continue
                assign[i] = c
                if i == last:
                    best_count, best_assign = total + gain, tuple(assign)
                    continue
                same = near & mask if keep_cross else 0
                x = same
                while x:
                    w = x.bit_length() - 1
                    x ^= 1 << w
                    cross[w] ^= bit
                cross[i] = row & ~mask
                part_mask[c] = mask | bit
                rec(i + 1, max(used, c + 1), total + gain)
                part_mask[c] = mask
                x = same
                while x:
                    w = x.bit_length() - 1
                    x ^= 1 << w
                    cross[w] ^= bit

        rec(0, 0, empty_count)  # with no part used, vertex 0 goes to part 0
        return Partition.of(k, dict(enumerate(best_assign))), best_count

    rng = random.Random(seed)
    full = (1 << n) - 1
    # clique patterns rescore only dirty vertices: those with a neighbor
    # moved since their last scoring
    skip_clean = t.kind == "clique"
    best_assign: list[int] | None = None
    best_count = -1
    for _ in range(budgets.ls_restarts):
        assign = [rng.randrange(k) for _ in range(n)]
        part_mask, _, cross = _cross(g, k, list(enumerate(assign)))
        cur = count_pattern_masks(cross, n, t)
        dirty = full
        for _ in range(budgets.ls_moves_per_vertex * n):
            v = rng.randrange(n)
            if skip_clean:
                if not dirty >> v & 1:
                    continue
                dirty ^= 1 << v
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
                dirty |= g.adj[v]
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

    The current graph is the subgraph of g induced on the mask alive, kept
    in g's own ids: a vertex's degree there is its row and-ed with alive,
    and the copies through a removed vertex are counted within alive. The
    core is relabelled once, after the last removal.
    """
    if k < 2:
        raise ValueError("peel needs k >= 2")
    if floor < 0:
        raise ValueError("peel needs floor >= 0")
    adj = g.adj
    alive = (1 << g.n) - 1
    live = list(range(g.n))  # the ids in alive, ascending
    steps: list[PeelStep] = []
    while True:
        degs = [(adj[v] & alive).bit_count() for v in live]
        dmin = min(degs, default=0)
        if not live or not _below_threshold(dmin, len(live), k):
            reason = "degree-threshold-met"
            break
        if len(live) <= floor:
            reason = "floor-reached"
            break
        v = live.pop(degs.index(dmin))  # the first minimum is the lowest id
        alive ^= 1 << v
        steps.append(
            PeelStep(
                vertex=v,
                degree=dmin,
                host_size=len(live) + 1,
                copies_removed=copies_through(adj, alive, adj[v] & alive, t),
            )
        )
    core, remap = induced_subgraph(g, live)
    return core, PeelTrace(g.n, tuple(steps), reason, remap)


def _place(g: Graph, t: Pattern, v: int, part_mask: list[int], support: int, cross: list[int]):
    """Put v, outside the support, into the part where it completes the most
    copies on the cross adjacency (part_mask, support, cross) of _cross, ties
    to the lowest part, and add it to part_mask and cross in place; the
    caller adds it to support. Returns (part, gain): the gain is exact, the
    copies through v once it is placed."""
    row = g.adj[v] & support
    best_gain, best_part = -1, 0
    for c, mask in enumerate(part_mask):
        gain = copies_through(cross, support, row & ~mask, t)
        if gain > best_gain:
            best_gain, best_part = gain, c
    bit = 1 << v
    row &= ~part_mask[best_part]
    for u in bits(row):
        cross[u] |= bit
    cross[v] = row
    part_mask[best_part] |= bit
    return best_part, best_gain


def reinsert(g: Graph, part: Partition, v: int, t: Pattern) -> tuple[Partition, int]:
    """Place v into the part where it creates the most new cross-part copies.

    The gain is exact: copies of the pattern through v in the multipartite
    subgraph on the partitioned vertices plus v. Ties go to the lowest part
    index. The partition is checked as multipartite_subgraph checks it.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} not in graph on {g.n} vertices")
    if part.k < 1:
        raise ValueError("reinsert needs k >= 1")
    part_mask, support, cross = _cross(g, part.k, part.assignment)
    if (support >> v) & 1:
        raise ValueError(f"vertex {v} already assigned to a part")
    best_part, gain = _place(g, t, v, part_mask, support, cross)
    return part.with_vertex(v, best_part), gain


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
    re-insert the peeled vertices in reverse removal order. Branch-and-bound's
    incumbent seed and max_hfree_subgraph's heuristic mode are this call.

    The core partition, lifted to g's ids, gives one cross adjacency (_cross);
    each peeled vertex is placed on it (_place), and its rows are the final
    multipartite graph. chi(h) is h.n for a clique h, read off its shape.
    When chi(h) == k the result is (k-1)-partite and therefore h-free by
    construction. Otherwise a warning note is attached and h-freeness is
    checked explicitly; if the check fails the result still reports the
    partite subgraph, with a note saying it contains the forbidden graph.
    """
    started = time.perf_counter()
    chi_h = h.n if blowup_shape(h) == (h.n, 1) else chromatic_number(h).chromatic_number
    notes: list[str] = []
    if chi_h != k:
        notes.append(f"forbidden graph has chromatic number {chi_h}, not k={k}")

    core, trace = peel(g, k, t, floor=0)
    if trace.exceeded_half:
        notes.append("peel removed more than half the vertices")

    mode = "exact" if core.n <= budgets.partite_exact_n else "local-search"
    core_part, core_count = max_partite(core, k - 1, t, mode, seed=seed, budgets=budgets)
    engine = f"peel+{mode}-partition"

    # lift the core partition to original vertex ids
    assignment = {trace.core_vertices[v]: p for v, p in core_part.assignment}
    part_mask, support, cross = _cross(g, k - 1, assignment.items())
    gains: list[int] = []
    for step in reversed(trace.steps):
        assignment[step.vertex], gain = _place(g, t, step.vertex, part_mask, support, cross)
        support |= 1 << step.vertex
        gains.append(gain)
    part = Partition.of(k - 1, assignment)

    final = Graph._unchecked(g.n, tuple(cross))
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
