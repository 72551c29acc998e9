"""Subgraph-copy counting for cliques, clique blow-ups, and arbitrary patterns.

A copy of a pattern T in a host G is a subgraph of G isomorphic to T, i.e.
injective edge-preserving maps up to automorphisms of T. Copies are plain
subgraph copies, not induced ones: extra host edges among the image vertices
are allowed. All counts are exact Python ints.

Cliques and blow-ups have specialized bitset counters; everything else goes
through a generic injective-homomorphism backtracker divided by |Aut(T)|.
None of them visits copies one leaf at a time at the last level: the clique
counter adds the edges inside its candidates once two vertices are left,
the blow-up counter adds C(|candidates|, t) for its last class, and the
backtracker adds the number of candidates for the last vertex of its plan,
all of whose pattern neighbors are placed by then.

copies_through counts the copies that contain one vertex, the score the
partition, reinsertion and peel code gives a vertex for every pattern; it
is the one place that picks a method for that question by pattern kind.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .errors import BudgetExceededError, PatternSyntaxError
from .graphs import Graph, bits, blowup, complete, coned_blowup
from .graphs import remove_vertex  # noqa: F401  bench/layers.py traces counting.remove_vertex

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
    if m == 2:
        # edges inside cand, each counted once at its lower end
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            total += (cand & adj[v]).bit_count()
        return total
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


def find_clique_in_mask(adj, mask: int, size: int) -> tuple[int, ...] | None:
    """The vertices of a clique of the given size inside mask, or None.

    The search order is exists_clique_in_mask's: the clique found is the
    first in lexicographic order of ascending vertex tuples.
    """
    if size <= 0:
        return ()
    if size == 1:
        return ((mask & -mask).bit_length() - 1,) if mask else None
    while mask:
        if mask.bit_count() < size:
            return None
        v = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        rest = find_clique_in_mask(adj, mask & adj[v], size - 1)
        if rest is not None:
            return (v,) + rest
    return None


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
    if m == 1:
        # the last class is any t-set of cand; the loop below would reach
        # each one once, at its minimum vertex
        return comb(cand.bit_count(), t)
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
def _hom_plan(
    p: Graph, root: int | None = None
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Backtracking plan for pattern p, built once per pattern graph and root.

    The vertex order starts at root, or without one at a vertex of maximum
    degree, and then always takes a vertex with the most already-ordered
    neighbors (ties by degree, then lowest id). Returns the order, each
    position's earlier-neighbor positions, and the host degree each
    position's image needs: its pattern degree, less one for a neighbor of
    the root, whose image lies outside the host (see _count_injective_homs).
    """
    order = [] if root is None else [root]
    placed = 0 if root is None else 1 << root
    remaining = set(range(p.n)) - set(order)
    while remaining:
        nxt = max(remaining, key=lambda v: ((p.adj[v] & placed).bit_count(), p.degree(v), -v))
        order.append(nxt)
        remaining.remove(nxt)
        placed |= 1 << nxt
    pos = {v: i for i, v in enumerate(order)}
    back = tuple(
        tuple(pos[u] for u in bits(p.adj[v]) if pos[u] < i) for i, v in enumerate(order)
    )
    rooted = 0 if root is None else 1 << root
    return tuple(order), back, tuple(p.degree(v) - (p.adj[v] & rooted).bit_count() for v in order)


def _count_injective_homs(
    p: Graph,
    host_adj,
    host: int,
    *,
    root: int | None = None,
    row: int = 0,
    pin: dict | None = None,
    limit: int | None = None,
) -> int:
    """Number of injective maps V(p) -> host preserving every edge of p,
    host being a vertex mask; counting stops once it reaches limit
    (existence is limit=1). Bits of host_adj outside host are ignored.

    With a root, only maps that send pattern vertex root to a vertex x
    outside host are counted, x being joined to the vertices of row (a
    subset of host): the host is then host plus x. pin maps pattern vertices
    to fixed host vertices (used for edge-rooted tests). Non-edges of the
    pattern impose nothing. The last plan position is counted in closed
    form: every pattern neighbor of its vertex is already placed, so each
    remaining candidate completes one map.
    """
    if p.n > host.bit_count() + (root is not None):
        return 0
    if p.n == 0:
        return 1
    if root is not None and p.n == 1:
        return 1
    order, back, need = _hom_plan(p, root)
    pinned = [pin.get(v) for v in order] if pin else [None] * p.n
    host_deg = [(a & host).bit_count() for a in host_adj]
    nbr = [row] * p.n  # the host neighbors of each position's image; the root's are row
    last = p.n - 1
    total = 0

    def rec(i: int, used: int) -> bool:
        """Extend the partial map at position i; True once limit is reached."""
        nonlocal total
        cand = host & ~used
        for j in back[i]:
            cand &= nbr[j]
        fixed = pinned[i]
        if fixed is not None:
            if not (cand >> fixed) & 1:
                return False
            cand = 1 << fixed
        if i == last:
            # each candidate already meets need[last] distinct images
            total += cand.bit_count()
            return limit is not None and total >= limit
        deg = need[i]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if host_deg[v] < deg:
                continue
            nbr[i] = host_adj[v]
            if rec(i + 1, used | (1 << v)):
                return True
        return False

    rec(0 if root is None else 1, 0)
    return total if limit is None else min(total, limit)


@lru_cache(maxsize=256)
def _aut_count_cached(g: Graph) -> int:
    return _count_injective_homs(g, g.adj, (1 << g.n) - 1)


def _vertex_orbits(p: Graph) -> tuple[tuple[int, int], ...]:
    """One vertex of p per orbit of Aut(p) on vertices, with the orbit's size.

    a and b share an orbit when some injective edge-preserving self-map of
    p sends a to b; on a finite graph such a map is an automorphism. Each
    orbit is represented by its lowest vertex.
    """
    sizes: dict[int, int] = {}
    for b in range(p.n):
        for a in sizes:
            if exists_injective_hom(p, p.adj, p.n, pin={a: b}):
                sizes[a] += 1
                break
        else:
            sizes[b] = 1
    return tuple(sizes.items())


def _require_generic(p: Graph) -> None:
    if p.n > GENERIC_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"generic counting limited to {GENERIC_VERTEX_BUDGET} pattern vertices, got {p.n}"
        )


def count_injective_homs(g: Graph, p: Graph) -> int:
    """Injective edge-preserving maps from p into g (the generic oracle path)."""
    _require_generic(p)
    return _count_injective_homs(p, g.adj, (1 << g.n) - 1)


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
    _require_generic(p)
    return _count_injective_homs(p, adj, (1 << n) - 1) // t.aut_count()


@lru_cache(maxsize=256)
def _orbit_roots(t: Pattern) -> tuple[Graph, tuple[tuple[int, int], ...], int]:
    """A generic pattern's graph, its _vertex_orbits and |Aut|, worked out
    once per pattern."""
    p = t.realize()
    _require_generic(p)
    return p, _vertex_orbits(p), t.aut_count()


def copies_through(adj, within: int, row: int, t: Pattern) -> int:
    """Copies of the pattern that contain a vertex x outside the vertex mask
    within, x being joined to the vertices of row (a subset of within), in
    the graph on within plus x. Bits of adj outside within are ignored.

    Every score of a vertex by the copies through it comes here. Cliques
    use the neighborhood identity: m-cliques through x are the
    (m-1)-cliques inside row. Blow-ups choose the other t - 1 vertices of
    x's class and count the other m - 1 classes among the common neighbors
    of that class. Every other pattern p sums, over one vertex a per orbit
    of Aut(p), the orbit's size times the injective maps sending a to x,
    and divides by |Aut(p)|.
    """
    if t.kind == "clique":
        return 1 if t.m == 1 else _count_cliques_masks(adj, row, t.m - 1)
    if t.kind == "blowup":
        total = 0
        for rest in combinations(bits(within), t.t - 1):
            common = row
            for u in rest:
                common &= adj[u]
            total += _count_blowup_masks(adj, common, t.m - 1, t.t)
        return total
    if t.vertex_count() > within.bit_count() + 1:
        return 0
    p, orbits, aut = _orbit_roots(t)
    homs = 0
    for a, size in orbits:
        homs += size * _count_injective_homs(p, adj, within, root=a, row=row)
    return homs // aut


def exists_injective_hom(p: Graph, host_adj, host_n: int, pin: dict | None = None) -> bool:
    """Early-exit embedding test on raw masks; pin fixes pattern->host vertices."""
    return _count_injective_homs(p, host_adj, (1 << host_n) - 1, pin=pin, limit=1) > 0


def contains(g: Graph, h: Graph) -> bool:
    """Does g contain a copy of h (as a subgraph, not induced)?"""
    if h.n == 0:
        return True
    return exists_injective_hom(h, g.adj, g.n)


def copies_through_vertex(g: Graph, t: Pattern, v: int) -> int:
    """Copies of the pattern whose vertex set includes v."""
    if not 0 <= v < g.n:
        raise PatternSyntaxError(f"vertex {v} not in graph on {g.n} vertices")
    return copies_through(g.adj, ((1 << g.n) - 1) ^ (1 << v), g.adj[v], t)
