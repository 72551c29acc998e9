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
structurally informative.

Ties between count-maximal edge sets are always broken toward the
lexicographically least sorted edge tuple, so results are reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from .coloring import chromatic_number, critical_vertex, is_edge_critical
from .counting import (
    Pattern,
    cliques_in_mask,
    contains,
    copies_through_vertex,
    count_pattern,
    count_pattern_masks,
    exists_clique_in_mask,
    exists_injective_hom,
)
from .errors import BudgetExceededError, InfeasibleError
from .graphs import Graph, bits, induced_subgraph, remove_vertex, turan


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
    nodes: int
    elapsed_s: float
    engine: str


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


def _cross_adj(g: Graph, assign: list[int], k: int) -> list[int]:
    part_mask = [0] * k
    for v, p in enumerate(assign):
        part_mask[p] |= 1 << v
    return [g.adj[v] & ~part_mask[assign[v]] for v in range(g.n)]


# ---------------------------------------------------------------------------
# forbidden-copy tests on mutable mask lists


def _clique_order(h: Graph) -> int | None:
    """h's size if h is a complete graph on >= 2 vertices, else None."""
    if h.n >= 2 and h.edge_count() == h.n * (h.n - 1) // 2:
        return h.n
    return None


def _directed_edges(h: Graph) -> list[tuple[int, int]]:
    out = []
    for u, v in h.edges():
        out.append((u, v))
        out.append((v, u))
    return out


def _creates_copy(adj, n: int, h: Graph, u: int, v: int, hk: int | None, h_dir) -> bool:
    """Would adding edge (u, v) complete a copy of h through that edge?"""
    if hk is not None:
        common = adj[u] & adj[v]
        return exists_clique_in_mask(adj, common, hk - 2)
    adj2 = list(adj)
    adj2[u] |= 1 << v
    adj2[v] |= 1 << u
    for a, b in h_dir:
        if exists_injective_hom(h, adj2, n, pin={a: u, b: v}):
            return True
    return False


# ---------------------------------------------------------------------------
# the edge-decision search


def _edge_budget(what: str, m: int, limit: int) -> None:
    if m > limit:
        raise BudgetExceededError(f"{what} limited to {limit} edges, got {m}")


def _search(g: Graph, t: Pattern | None, h: Graph, keep, leaf, *,
            rule_forbid: bool = True, h_crit: Graph | None = None) -> int:
    """Depth-first search over include/exclude decisions on g's edges in
    ascending order, include first; returns the number of nodes entered.

    keep(upper, included) decides at each node whether to enter it: included
    is the list of included edges and upper() the pattern count of the upper
    graph (the included edges plus the live ones), which bounds every leaf
    below and is the leaf's own count at a leaf. leaf(upper, included, adj)
    sees each leaf entered, adj being the included edges' masks. t may be
    None when neither hook counts.

    Live edges are the undecided edges that may still be included; each
    frame carries their list. With rule_forbid an edge stops being live once
    it would complete a copy of h, and including an edge re-tests only the
    survivors, since adding edges only forbids more. With h_crit, a live edge
    is included only when neither endpoint's neighborhood then holds a copy
    of h_crit. For clique patterns the upper count is updated from the
    copies through each edge that leaves the upper graph and restored on
    backtrack; other patterns are recounted when asked.
    """
    edges = g.edges()
    M = len(edges)
    n = g.n
    hk = _clique_order(h)
    h_dir = None if hk else _directed_edges(h)
    clique_m = t.m if t is not None and t.kind == "clique" else None
    adj = [0] * n
    included: list[tuple[int, int]] = []
    root_live = [
        j for j, (a, b) in enumerate(edges)
        if not (rule_forbid and _creates_copy(adj, n, h, a, b, hk, h_dir))
    ]
    up = [0] * n
    for j in root_live:
        a, b = edges[j]
        up[a] |= 1 << b
        up[b] |= 1 << a
    up_count = count_pattern_masks(up, n, t) if clique_m is not None else 0
    nodes = 0

    def upper() -> int:
        return up_count if clique_m is not None else count_pattern_masks(up, n, t)

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

    def neighborhood_ok(u: int, v: int) -> bool:
        # tentatively add (u,v); neighborhoods of u and v must stay h_crit-free
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        now = Graph(n, tuple(adj))
        ok = not any(contains(induced_subgraph(now, bits(adj[w]))[0], h_crit) for w in (u, v))
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return ok

    def dfs(idx: int, live: list[int]):
        nonlocal nodes
        nodes += 1
        if not keep(upper, included):
            return
        if idx == M:
            leaf(upper, included, adj)
            return
        u, v = edges[idx]
        is_live = bool(live) and live[0] == idx
        rest = live[1:] if is_live else live
        if is_live and (h_crit is None or neighborhood_ok(u, v)):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            included.append((u, v))
            keep_live, killed = rest, []
            if rule_forbid:
                keep_live = []
                for j in rest:
                    a, b = edges[j]
                    (killed if _creates_copy(adj, n, h, a, b, hk, h_dir) else keep_live).append(j)
            lost = sum(drop(j) for j in killed)
            dfs(idx + 1, keep_live)
            restore(killed, lost)
            included.pop()
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        if is_live:
            lost = drop(idx)
            dfs(idx + 1, rest)
            restore([idx], lost)
        else:
            dfs(idx + 1, rest)

    dfs(0, root_live)
    return nodes


def _enter_all(upper, included) -> bool:
    return True


def _feasible_seed(g: Graph, t: Pattern, h: Graph):
    """Cheap feasible starting points: greedy edge packing, plus the
    peel-and-repartition heuristic when the forbidden graph has chi >= 3."""
    hk = _clique_order(h)
    h_dir = None if hk else _directed_edges(h)
    adj = [0] * g.n
    included = []
    for u, v in g.edges():
        if not _creates_copy(adj, g.n, h, u, v, hk, h_dir):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            included.append((u, v))
    best = (count_pattern_masks(adj, g.n, t), tuple(included))
    try:
        chi = chromatic_number(h).chromatic_number
        if chi >= 3:
            reb = rebuild(g, chi, t, h)
            if not contains(Graph.from_edges(g.n, reb.best_edges), h):
                cand = (reb.best_count, reb.best_edges)
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
    except BudgetExceededError:
        pass
    return best


def _solve(
    g: Graph,
    t: Pattern,
    h: Graph,
    bounded: bool,
    rule_forbid: bool = True,
    rule_neighborhood: bool = False,
):
    """The lex-least count-maximal h-free edge set: (count, edges, nodes).

    Unbounded (the exhaustive engine) every h-free edge subset is a leaf.
    Bounded (branch-and-bound) the search starts from a feasible seed and
    skips a subtree whose bound, the upper graph's count, falls strictly
    below the incumbent. Two further devices make equal-bound subtrees
    cheap without changing the result:
      Turan cap: for a clique pattern K_m and a clique forbidden graph K_k
        the bound is capped at the K_m count of the Turan graph T(n, k-1),
        the most any K_k-free graph on n vertices has (Zykov 1949);
      lex-prefix prune: when the bound equals the incumbent's count and the
        incumbent's edge tuple is <= the included prefix, every leaf below
        extends the prefix and so cannot be lexicographically smaller; the
        subtree is dropped and the lex-least witness is kept exactly.
    Pruning rules, individually toggleable (branch-and-bound only):
      forbid: refuse to include an edge completing a copy of h (and drop such
        edges from the upper graph);
      neighborhood: when h has an edge whose removal lowers its chromatic
        number, refuse edges that put a copy of h-minus-critical-vertex inside
        either endpoint's neighborhood.
    With forbid off, leaves are verified h-free explicitly.
    """
    hk = _clique_order(h)
    best = [-1, None]
    if bounded:
        seed_count, seed_edges = _feasible_seed(g, t, h)
        best = [seed_count, tuple(sorted(seed_edges))]
        cap = None
        if t.kind == "clique" and hk is not None:
            cap = count_pattern(turan(g.n, hk - 1), t)

        def keep(upper, included) -> bool:
            bound = upper()
            if cap is not None and bound > cap:
                bound = cap
            return bound > best[0] or (bound == best[0] and tuple(included) < best[1])
    else:
        keep = _enter_all

    h_crit: Graph | None = None
    if rule_neighborhood:
        critical, _ = is_edge_critical(h)
        if critical:
            h_crit, _ = remove_vertex(h, critical_vertex(h))

    def leaf(upper, included, adj) -> None:
        if not rule_forbid and contains(Graph(g.n, tuple(adj)), h):
            return
        count, cand = upper(), tuple(included)
        if count > best[0] or (count == best[0] and cand < best[1]):
            best[0], best[1] = count, cand

    nodes = _search(g, t, h, keep, leaf, rule_forbid=rule_forbid, h_crit=h_crit)
    return best[0], best[1], nodes


def max_hfree_subgraph(
    g: Graph,
    t: Pattern,
    h: Graph,
    mode: str = "exact",
    *,
    engine: str = "auto",
    budgets: Budgets = DEFAULT_BUDGETS,
    rule_forbid: bool = True,
    rule_neighborhood: bool = False,
    seed: int = 0,
) -> SolveResult:
    """Maximize copies of the pattern over h-free spanning subgraphs of g.

    mode "exact" proves optimality (engine "auto" enumerates when the host is
    small and branches-and-bounds otherwise); mode "heuristic" runs the
    peel/partition/reinsert pipeline and only claims a lower bound.
    """
    if h.edge_count() == 0:
        raise InfeasibleError("forbidden graph has no edges: every subgraph contains it")
    if mode == "heuristic":
        k = chromatic_number(h).chromatic_number
        reb = rebuild(g, k, t, h, seed=seed, budgets=budgets)
        return SolveResult(reb.best_count, reb.best_edges, "heuristic", reb.stats, reb.notes)
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")

    M = g.edge_count()
    started = time.perf_counter()
    if engine == "auto":
        engine = "exhaustive" if M <= budgets.auto_exhaustive_max else "branch-and-bound"
    if engine == "exhaustive":
        _edge_budget("exhaustive engine", M, budgets.exhaustive_edges)
        best, best_edges, nodes = _solve(g, t, h, bounded=False)
    elif engine == "branch-and-bound":
        _edge_budget("branch-and-bound engine", M, budgets.bnb_edges)
        best, best_edges, nodes = _solve(g, t, h, True, rule_forbid, rule_neighborhood)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    elapsed = time.perf_counter() - started

    recount = count_pattern(Graph.from_edges(g.n, best_edges), t)
    if recount != best:
        raise RuntimeError(f"witness recount mismatch: search gave {best}, witness has {recount}")
    return SolveResult(best, tuple(best_edges), engine, SolveStats(nodes, elapsed, engine))


def enumerate_maximal_hfree(
    g: Graph, h: Graph, *, budgets: Budgets = DEFAULT_BUDGETS
) -> list[tuple[tuple[int, int], ...]]:
    """All maximal h-free spanning edge subsets of g, lex-sorted.

    Maximal means no further host edge can be added without creating a copy
    of h. Small hosts only (same edge budget as tie enumeration).
    """
    if h.edge_count() == 0:
        raise InfeasibleError("forbidden graph has no edges: every subgraph contains it")
    _edge_budget("maximal enumeration", g.edge_count(), budgets.ties_edges)
    edges = g.edges()
    hk = _clique_order(h)
    h_dir = None if hk else _directed_edges(h)
    out: list[tuple[tuple[int, int], ...]] = []

    def leaf(upper, included, adj) -> None:
        if all((adj[a] >> b) & 1 or _creates_copy(adj, g.n, h, a, b, hk, h_dir)
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
    if h.edge_count() == 0:
        raise InfeasibleError("forbidden graph has no edges: every subgraph contains it")
    _edge_budget("tie enumeration", g.edge_count(), budgets.ties_edges)
    best = -1
    ties: list[tuple[tuple[int, int], ...]] = []

    def keep(upper, included) -> bool:
        return upper() >= best

    def leaf(upper, included, adj) -> None:
        nonlocal best
        count = upper()
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
    least assignment. Local-search mode does seeded single-vertex-move hill
    climbing with restarts.
    """
    if k < 1:
        raise ValueError("max_partite needs k >= 1")
    n = g.n
    if mode == "exact":
        if n > budgets.partite_exact_n:
            raise BudgetExceededError(
                f"exact partitioning limited to {budgets.partite_exact_n} vertices, got {n}"
            )
        assign = [0] * n
        best = {"count": -1, "assign": None}

        def evaluate():
            cnt = count_pattern_masks(_cross_adj(g, assign, k), n, t)
            if cnt > best["count"]:
                best["count"] = cnt
                best["assign"] = tuple(assign)

        def rec(i: int, used: int):
            if i == n:
                evaluate()
                return
            for c in range(min(used + 1, k)):
                assign[i] = c
                rec(i + 1, max(used, c + 1))

        if n == 0:
            return Partition.of(k, {}), 0
        rec(1, 1)  # vertex 0 pinned to part 0
        chosen = best["assign"]
        return Partition.of(k, {v: chosen[v] for v in range(n)}), best["count"]

    if mode != "local-search":
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    if n == 0:
        return Partition.of(k, {}), 0
    best_assign: list[int] | None = None
    best_count = -1
    for _ in range(budgets.ls_restarts):
        assign = [rng.randrange(k) for _ in range(n)]
        cur = count_pattern_masks(_cross_adj(g, assign, k), n, t)
        for _ in range(budgets.ls_moves_per_vertex * n):
            v = rng.randrange(n)
            orig = assign[v]
            move_best = (cur, orig)
            for c in range(k):
                if c == orig:
                    continue
                assign[v] = c
                cand = count_pattern_masks(_cross_adj(g, assign, k), n, t)
                if cand > move_best[0]:
                    move_best = (cand, c)
            assign[v] = move_best[1]
            cur = move_best[0]
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

    The gain is exact: copies of the pattern through v in the enlarged
    multipartite subgraph. Ties go to the lowest part index.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} not in graph on {g.n} vertices")
    if v in part.as_dict():
        raise ValueError(f"vertex {v} already assigned to a part")
    best_gain = -1
    best_part = None
    for c in range(part.k):
        cand = part.with_vertex(v, c)
        sub = multipartite_subgraph(g, cand)
        gain = copies_through_vertex(sub, t, v)
        if gain > best_gain:
            best_gain = gain
            best_part = cand
    return best_part, best_gain


@dataclass(frozen=True)
class RebuildResult(SolveResult):
    partition: Partition = None
    core_count: int = 0
    gains: tuple[int, ...] = ()
    trace: PeelTrace = None


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
    started = time.perf_counter()
    notes: list[str] = []
    chi_h = chromatic_number(h).chromatic_number
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
        proof="heuristic",
        stats=SolveStats(nodes=len(trace.steps), elapsed_s=elapsed, engine=engine),
        notes=tuple(notes),
        partition=part,
        core_count=core_count,
        gains=tuple(gains),
        trace=trace,
    )
