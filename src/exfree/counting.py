"""Subgraph-copy counting for cliques, clique blow-ups, and arbitrary patterns.

A copy of a pattern T in a host G is a subgraph of G isomorphic to T, i.e.
injective edge-preserving maps up to automorphisms of T. Copies are plain
subgraph copies, not induced ones: extra host edges among the image vertices
are allowed. All counts are exact Python ints.

Cliques and blow-ups have specialized bitset counters; everything else goes
through a generic injective-homomorphism backtracker divided by |Aut(T)|.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial

from .errors import BudgetExceededError, PatternSyntaxError
from .graphs import Graph, bits, blowup, complete, coned_blowup, remove_vertex

GENERIC_VERTEX_BUDGET = 12  # generic-path patterns larger than this are refused
AUT_SEARCH_BUDGET = 10


@dataclass(frozen=True)
class Pattern:
    """A counting target: Clique(m), Blowup(m, t), ConedBlowup(m, t), or any graph.

    Blowup(m, 1) is the same pattern as Clique(m) and the counters agree on it.
    """

    kind: str  # "clique" | "blowup" | "coned" | "arbitrary"
    m: int = 0
    t: int = 1
    graph: Graph | None = None

    @classmethod
    def clique(cls, m: int) -> "Pattern":
        if m < 1:
            raise PatternSyntaxError("Clique(m) needs m >= 1")
        return cls("clique", m=m)

    @classmethod
    def blowup(cls, m: int, t: int) -> "Pattern":
        if m < 1 or t < 1:
            raise PatternSyntaxError("Blowup(m, t) needs m >= 1, t >= 1")
        return cls("blowup", m=m, t=t)

    @classmethod
    def coned_blowup(cls, m: int, t: int) -> "Pattern":
        if m < 1 or t < 1:
            raise PatternSyntaxError("ConedBlowup(m, t) needs m >= 1, t >= 1")
        return cls("coned", m=m, t=t)

    @classmethod
    def arbitrary(cls, g: Graph) -> "Pattern":
        return cls("arbitrary", graph=g)

    def vertex_count(self) -> int:
        if self.kind == "clique":
            return self.m
        if self.kind == "blowup":
            return self.m * self.t
        if self.kind == "coned":
            return self.m * self.t + 1
        return self.graph.n

    def realize(self) -> Graph:
        """The pattern as a concrete Graph."""
        if self.kind == "clique":
            return complete(self.m)
        if self.kind == "blowup":
            return blowup(self.m, self.t)
        if self.kind == "coned":
            return coned_blowup(self.m, self.t)
        return self.graph

    def aut_count(self) -> int:
        """Order of the automorphism group.

        Clique(m): m!.  Blowup(m, t): m! * (t!)^m.  Coned blow-ups and
        arbitrary patterns are counted by search; at t = 1 the apex of a
        coned blow-up is not distinguished, so no closed form is assumed.
        """
        if self.kind == "clique":
            return factorial(self.m)
        if self.kind == "blowup":
            return factorial(self.m) * factorial(self.t) ** self.m
        g = self.realize()
        if g.n > AUT_SEARCH_BUDGET:
            if self.kind == "coned" and self.t >= 2:
                # apex is the unique vertex of maximum degree once t >= 2
                return factorial(self.m) * factorial(self.t) ** self.m
            raise BudgetExceededError(
                f"automorphism search limited to {AUT_SEARCH_BUDGET} vertices, got {g.n}"
            )
        return _aut_count_cached(g)

    def literal(self) -> str:
        if self.kind == "clique":
            return f"K{self.m}"
        if self.kind == "blowup":
            return f"K{self.m}({self.t})"
        if self.kind == "coned":
            return f"K{self.m}+({self.t})"
        from .graph6 import to_graph6

        return "g6:" + to_graph6(self.graph)


_PATTERN_RE = re.compile(r"^K(\d+)(?:(\+)?\((\d+)\))?$")


def parse_pattern(text: str) -> Pattern:
    """Parse pattern literals: K3, K3(2), K3+(2), g6:<graph6>."""
    if text.startswith("g6:"):
        from .graph6 import from_graph6

        return Pattern.arbitrary(from_graph6(text[3:]))
    m = _PATTERN_RE.match(text)
    if not m:
        raise PatternSyntaxError(f"unrecognized pattern literal {text!r}")
    order = int(m.group(1))
    if m.group(3) is None:
        return Pattern.clique(order)
    t = int(m.group(3))
    if m.group(2):
        return Pattern.coned_blowup(order, t)
    return Pattern.blowup(order, t)


# ---------------------------------------------------------------------------
# clique counting


def count_cliques(g: Graph, m: int) -> int:
    """Number of m-vertex cliques; m = 1 counts vertices, m = 0 gives 1."""
    if m < 0:
        raise PatternSyntaxError("clique size must be >= 0")
    if m == 0:
        return 1
    if m == 1:
        return g.n
    return _count_cliques_masks(g.adj, (1 << g.n) - 1, m)


def _count_cliques_masks(adj, cand: int, m: int) -> int:
    if m == 1:
        return cand.bit_count()
    total = 0
    while cand:
        if cand.bit_count() < m:
            break
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        total += _count_cliques_masks(adj, cand & adj[v], m - 1)
    return total


def cliques_in_mask(adj, mask: int, size: int) -> int:
    """Cliques of the given size inside a candidate bitmask; size 0 counts 1."""
    if size < 0:
        raise PatternSyntaxError("clique size must be >= 0")
    if size == 0:
        return 1
    return _count_cliques_masks(adj, mask, size)


def exists_clique_in_mask(adj, mask: int, size: int) -> bool:
    if size <= 0:
        return True
    if size == 1:
        return mask != 0
    while mask:
        if mask.bit_count() < size:
            return False
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        if exists_clique_in_mask(adj, mask & adj[v], size - 1):
            return True
    return False


def max_clique_size(g: Graph) -> int:
    best = 0
    adj = g.adj

    def grow(cand: int, size: int):
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(cand & adj[v], size + 1)

    grow((1 << g.n) - 1, 0)
    return best


# ---------------------------------------------------------------------------
# blow-up counting


def _count_blowup_masks(adj, cand: int, m: int, t: int) -> int:
    """Collections of m disjoint t-sets in cand, pairwise completely joined.

    Classes are enumerated in increasing order of their minimum vertex, which
    makes each unordered collection appear exactly once. Later classes must
    be common neighbors of every vertex chosen so far and sit strictly above
    the current class minimum.
    """
    if m == 0:
        return 1
    total = 0
    while cand:
        if cand.bit_count() < m * t:
            break
        v = (cand & -cand).bit_length() - 1
        cand &= cand - 1
        if t == 1:
            total += _count_blowup_masks(adj, cand & adj[v], m - 1, t)
            continue
        pool = bits(cand)
        for rest in combinations(pool, t - 1):
            common = cand & adj[v]
            for u in rest:
                common &= adj[u]
            total += _count_blowup_masks(adj, common, m - 1, t)
    return total


# ---------------------------------------------------------------------------
# generic injective homomorphisms


@lru_cache(maxsize=256)
def _hom_plan(p: Graph) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Backtracking plan for pattern p, built once per pattern graph.

    The vertex order starts at a vertex of maximum degree and then always
    takes a vertex with the most already-ordered neighbors (ties by degree,
    then lowest id). Returns the order, each position's earlier-neighbor
    positions, and the pattern degree at each position.
    """
    order: list[int] = []
    placed = 0
    remaining = set(range(p.n))
    while remaining:
        nxt = max(remaining, key=lambda v: ((p.adj[v] & placed).bit_count(), p.degree(v), -v))
        order.append(nxt)
        remaining.remove(nxt)
        placed |= 1 << nxt
    pos = {v: i for i, v in enumerate(order)}
    back = tuple(
        tuple(pos[u] for u in bits(p.adj[v]) if pos[u] < i) for i, v in enumerate(order)
    )
    return tuple(order), back, tuple(p.degree(v) for v in order)


def _count_injective_homs(
    p: Graph, host_adj, host_n: int, *, pin: dict | None = None, limit: int | None = None
) -> int:
    """Number of injective maps V(p) -> host preserving every edge of p,
    counting stops once it reaches limit (existence is limit=1).

    pin maps pattern vertices to fixed host vertices (used for edge-rooted
    tests). Non-edges of the pattern impose nothing.
    """
    if p.n > host_n:
        return 0
    order, back, pat_deg = _hom_plan(p)
    pinned = [pin.get(v) for v in order] if pin else [None] * p.n
    host_full = (1 << host_n) - 1
    host_deg = [host_adj[v].bit_count() for v in range(host_n)]
    image = [0] * p.n
    total = 0

    def rec(i: int, used: int) -> bool:
        """Extend the partial map at position i; True once limit is reached."""
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


@lru_cache(maxsize=256)
def _aut_count_cached(g: Graph) -> int:
    return _count_injective_homs(g, g.adj, g.n)


def count_injective_homs(g: Graph, p: Graph) -> int:
    """Injective edge-preserving maps from p into g (the generic oracle path)."""
    if p.n > GENERIC_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"generic counting limited to {GENERIC_VERTEX_BUDGET} pattern vertices, got {p.n}"
        )
    return _count_injective_homs(p, g.adj, g.n)


def count_pattern_generic(g: Graph, t: Pattern) -> int:
    """Copies via injective homomorphisms / |Aut|, regardless of pattern kind."""
    p = t.realize()
    if p.n > g.n:
        return 0
    return count_injective_homs(g, p) // t.aut_count()


def count_pattern(g: Graph, t: Pattern) -> int:
    """Copies of the pattern in g (subgraph copies, exact integer)."""
    return count_pattern_masks(g.adj, g.n, t)


def count_pattern_masks(adj, n: int, t: Pattern) -> int:
    """count_pattern on a raw adjacency mask list (solver inner loops)."""
    if t.vertex_count() > n:
        return 0
    if t.kind == "clique":
        if t.m == 1:
            return n
        return _count_cliques_masks(adj, (1 << n) - 1, t.m)
    if t.kind == "blowup":
        return _count_blowup_masks(adj, (1 << n) - 1, t.m, t.t)
    p = t.realize()
    if p.n > GENERIC_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"generic counting limited to {GENERIC_VERTEX_BUDGET} pattern vertices, got {p.n}"
        )
    return _count_injective_homs(p, adj, n) // t.aut_count()


def exists_injective_hom(p: Graph, host_adj, host_n: int, pin: dict | None = None) -> bool:
    """Early-exit embedding test on raw masks; pin fixes pattern->host vertices."""
    return _count_injective_homs(p, host_adj, host_n, pin=pin, limit=1) > 0


def contains(g: Graph, h: Graph) -> bool:
    """Does g contain a copy of h (as a subgraph, not induced)?"""
    if h.n == 0:
        return True
    return exists_injective_hom(h, g.adj, g.n)


def copies_through_vertex(g: Graph, t: Pattern, v: int) -> int:
    """Copies of the pattern whose vertex set includes v.

    Cliques use the neighborhood identity: m-cliques through v are the
    (m-1)-cliques inside the neighborhood of v. Other patterns use the exact
    difference count(g) - count(g - v).
    """
    if not 0 <= v < g.n:
        raise PatternSyntaxError(f"vertex {v} not in graph on {g.n} vertices")
    if t.kind == "clique":
        if t.m == 1:
            return 1
        return _count_cliques_masks(g.adj, g.adj[v], t.m - 1)
    reduced, _ = remove_vertex(g, v)
    return count_pattern(g, t) - count_pattern(reduced, t)
