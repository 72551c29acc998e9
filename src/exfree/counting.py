"""Subgraph-copy counting for cliques, clique blow-ups, and arbitrary patterns.

A copy of a pattern T in a host G is a subgraph of G isomorphic to T, i.e.
injective edge-preserving maps up to automorphisms of T. Copies are plain
subgraph copies, not induced ones: extra host edges among the image vertices
are allowed. All counts are exact Python ints.

Cliques and blow-ups, by shape (blowup_shape), have specialized bitset
counters; everything else goes through one generic injective-homomorphism
backtracker divided by |Aut(T)|.
The backtracker follows a plan (_hom_plan) worked out once per pattern
graph and lead: the lead vertices come first in its order, either pinned
to given host vertices, as the forbid test pins an edge of the forbidden
graph onto a new host edge, or, rooted, with the first sent to a vertex
outside the host, as copies_through does. |Aut(T)| and its orbits come
from _orbits, by pinned existence tests on the same backtracker. The forbid
search's include step walks the same pinned plans in _defect_pairs, which
finds in one pass every missing edge that would complete a copy.

None of the counters visits copies one leaf at a time at the last level:
the clique counter adds the edges inside its candidates once two vertices
are left, the blow-up counter adds C(|candidates|, t) for its last class,
and the backtracker adds the number of candidates for the last vertex of
its plan, all of whose pattern neighbors are placed by then. When the last
two vertices of the plan are not adjacent in the pattern, every pattern
neighbor of both is placed before either, so their candidate masks A and
B are fixed together; the backtracker then adds |A|*|B| - |A & B|, the
pairs of distinct images, without placing the second-to-last vertex.

copies_through counts the copies that contain one vertex, the score the
partition, reinsertion and peel code gives a vertex for every pattern; it
is the one place that picks a method for that question by pattern kind.

No bit loop negates an int. On a host of hundreds of vertices a mask has
many digits, and -x builds a new negative int that & must then convert
from two's complement. A pure count, whose order nothing observes, scans
from the top bit: v = x.bit_length() - 1, then x ^= 1 << v, and the mask
it recurses on shrinks with it. A scan whose order matters (a lex-first
witness, a node count, a first error) reads the low bit: low = x - 1,
v = (x ^ low).bit_length() - 1, then x &= low.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .errors import BudgetExceededError, PatternSyntaxError
from .graph6 import from_graph6, to_graph6
from .graphs import Graph, bits, blowup, coned_blowup
from .graphs import remove_vertex  # noqa: F401  bench/layers.py traces counting.remove_vertex

GENERIC_VERTEX_BUDGET = 12  # generic-path patterns larger than this are refused


@dataclass(frozen=True)
class Pattern:
    """A counting target: K_m(t) (K_m is K_m(1)), K_m(t) plus an apex, or any graph.

    kind follows the shape, not the spelling: K2, K2(1), K1+(1) and g6:A_
    are one clique, and a graph6 K_m(t) is a blow-up (blowup_shape). K_m(t)
    plus an apex, t >= 2, has no counter of its own: it is the arbitrary
    pattern on coned_blowup(m, t). text is the literal that records keep.
    Only kind "arbitrary" holds a graph, so a clique or blow-up builds none."""

    kind: str  # "clique" (t = 1) | "blowup" (t >= 2) | "arbitrary"
    m: int
    t: int
    graph: Graph | None
    text: str

    @classmethod
    def clique(cls, m: int) -> "Pattern":
        return _shaped(f"K{m}", m, 1)

    @classmethod
    def blowup(cls, m: int, t: int) -> "Pattern":
        return _shaped(f"K{m}({t})", m, t)

    @classmethod
    def coned_blowup(cls, m: int, t: int) -> "Pattern":
        return _shaped(f"K{m}+({t})", m, t, coned=True)

    @classmethod
    def arbitrary(cls, g: Graph) -> "Pattern":
        """The pattern g, a clique or blow-up when g has that shape."""
        text = "g6:" + to_graph6(g)
        shape = blowup_shape(g)
        return cls("arbitrary", 0, 1, g, text) if shape is None else _shaped(text, *shape)

    def vertex_count(self) -> int:
        if self.kind == "arbitrary":
            return self.graph.n
        return self.m * self.t

    def realize(self) -> Graph:
        """The pattern as a concrete Graph."""
        if self.kind == "arbitrary":
            return self.graph
        return blowup(self.m, self.t)

    def aut_count(self) -> int:
        """Order of the automorphism group: m! * (t!)^m for K_m(t), else
        counted by search (orbit-stabilizer, see _aut_count_cached) up to
        the generic path's vertex budget."""
        if self.kind != "arbitrary":
            return factorial(self.m) * factorial(self.t) ** self.m
        _require_generic(self.graph.n)
        return _aut_count_cached(self.graph)

    def literal(self) -> str:
        return self.text


def _shaped(text: str, m: int, t: int, coned: bool = False) -> Pattern:
    """K_m(t), plus an apex when coned, written text; K_m+(1) is K_{m+1}."""
    if m < 1 or t < 1:
        raise PatternSyntaxError(f"pattern {text} needs m >= 1 and t >= 1")
    if coned and t > 1:  # counted as its graph, built only within the generic budget
        _require_generic(m * t + 1)
        return Pattern("arbitrary", 0, 1, coned_blowup(m, t), text)
    return Pattern("blowup" if t > 1 else "clique", m + coned, t, None, text)


_PATTERN_RE = re.compile(r"^K(\d+)(?:(\+)?\((\d+)\))?$")


def parse_pattern(text: str) -> Pattern:
    """Parse pattern literals: K3, K3(2), K3+(2), g6:<graph6>."""
    if text.startswith("g6:"):
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


def blowup_shape(g: Graph) -> tuple[int, int] | None:
    """(m, t) when g is complete m-partite with every part of t vertices
    (K_m is (m, 1)), else None, as for the graph on no vertices. Each
    vertex with its non-neighbours makes a set, and they cover V(g); m
    distinct sets of t vertices with m * t = n are disjoint: the parts."""
    full = (1 << g.n) - 1
    parts = {full & ~row for row in g.adj}
    if not parts:
        return None
    t = g.n // len(parts)
    if t * len(parts) != g.n or any(part.bit_count() != t for part in parts):
        return None
    return len(parts), t


# ---------------------------------------------------------------------------
# clique counting


def count_cliques(g: Graph, m: int) -> int:
    """Number of m-vertex cliques; m = 1 counts vertices, m = 0 gives 1."""
    return cliques_in_mask(g.adj, (1 << g.n) - 1, m)


def cliques_in_mask(adj, mask: int, size: int) -> int:
    """Cliques of the given size inside a candidate bitmask; size 0 counts 1.
    This is the one clique counter.

    It scans mask from its top bit and counts each clique once, at its
    highest vertex, among the common neighbors below it (Chiba and
    Nishizeki's forward neighborhoods, taken downward). Taking the top bit
    costs no negation, and each mask it recurses on lies below the vertex
    taken, so it has fewer digits."""
    if size <= 1:
        if size < 0:
            raise PatternSyntaxError("clique size must be >= 0")
        return mask.bit_count() if size else 1
    total = 0
    if size == 2:
        # edges inside mask, each counted once at its higher end
        while mask:
            v = mask.bit_length() - 1
            mask ^= 1 << v
            total += (mask & adj[v]).bit_count()
        return total
    while mask:
        if mask.bit_count() < size:
            break
        v = mask.bit_length() - 1
        mask ^= 1 << v
        total += cliques_in_mask(adj, mask & adj[v], size - 1)
    return total


def exists_clique_in_mask(adj, mask: int, size: int) -> bool:
    """Is there a clique of the given size inside mask?"""
    return find_clique_in_mask(adj, mask, size) is not None


def find_clique_in_mask(adj, mask: int, size: int) -> tuple[int, ...] | None:
    """The vertices of a clique of the given size inside mask, or None.

    The clique found is the first in lexicographic order of ascending
    vertex tuples.
    """
    if size <= 0:
        return ()
    if size == 1:
        return ((mask ^ (mask - 1)).bit_length() - 1,) if mask else None
    while mask:
        if mask.bit_count() < size:
            return None
        low = mask - 1
        v = (mask ^ low).bit_length() - 1
        mask &= low
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
            low = cand - 1
            v = (cand ^ low).bit_length() - 1
            cand &= low
            grow(cand & adj[v], size + 1)

    grow((1 << g.n) - 1, 0)
    return best


# ---------------------------------------------------------------------------
# blow-up counting


def _count_blowup_masks(adj, cand: int, m: int, t: int) -> int:
    """Collections of m disjoint t-sets in cand (t >= 2), pairwise completely joined.

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
        low = cand - 1
        v = (cand ^ low).bit_length() - 1
        cand &= low
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
    p: Graph, lead: tuple[int, ...] = (), rooted: bool = False
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Backtracking plan for pattern p, built once per pattern graph and lead.

    The vertex order starts with the lead vertices, in the order given, or
    without a lead at a vertex of maximum degree, and then always takes a
    vertex with the most already-ordered neighbors (ties by degree, then
    lowest id). Returns the order, each position's earlier-neighbor
    positions, and the host degree each position's image needs: its pattern
    degree, less one for a neighbor of the root when rooted, the root being
    lead[0], whose image lies outside the host (see _count_injective_homs).
    The need is 0 where the earlier neighbors' images, distinct vertices of
    the host, already give that many, so the backtracker skips the test.
    """
    order = list(lead)
    placed = 0
    for v in lead:
        placed |= 1 << v
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
    outside = 1 << lead[0] if rooted else 0
    need = []
    for i, v in enumerate(order):
        d = p.degree(v) - (p.adj[v] & outside).bit_count()
        given = len(back[i]) - (rooted and 0 in back[i])
        need.append(d if d > given else 0)
    return tuple(order), back, tuple(need)


def _count_injective_homs(plan, host_adj, host: int, images=(), row=None, limit=None) -> int:
    """Number of injective maps V(p) -> host preserving every edge of p,
    host being a vertex mask and plan p's _hom_plan; counting stops once it
    reaches limit (existence is limit=1). Bits of host_adj outside host are
    ignored. This is the one embedding backtracker.

    images are the host vertices the plan's lead vertices map to, placed
    before the search with the checks every other position gets: free, in
    host, joined to the earlier images p requires, and of host degree at
    least the position's need. With row instead (a rooted plan), only maps
    that send the root to a vertex x outside host are counted, x being
    joined to the vertices of row (a subset of host): the host is then host
    plus x. Non-edges of the pattern impose nothing.

    The last plan position is counted in closed form: every pattern
    neighbor of its vertex is already placed, so each remaining candidate
    completes one map. So are the last two, when they are not adjacent in
    p: every pattern neighbor of both is then placed before either, so
    their candidate masks A and B are fixed together, and the maps sending
    them to a and b number the pairs with a in A, b in B and a != b, that
    is |A|*|B| - |A & B|. Neither needs a degree test, as each has all its
    pattern neighbors among the earlier positions.
    """
    order, back, need = plan
    size = len(order)
    if size > host.bit_count() + (row is not None):
        return 0
    nbr = [row] * size  # the host neighbors of each position's image
    used = 0
    for i, x in enumerate(images):
        if not (host & ~used) >> x & 1:
            return 0
        for j in back[i]:
            if not nbr[j] >> x & 1:
                return 0
        nbr[i] = a = host_adj[x]
        if (a & host).bit_count() < need[i]:
            return 0
        used |= 1 << x
    start = 1 if row is not None else len(images)
    if start >= size:
        return 1
    last = size - 1
    # the position that counts the last two together, or -1
    pair = last - 1 if last - 1 not in back[last] else -1
    total = 0

    def rec(i: int, used: int) -> bool:
        """Extend the partial map at position i; True once limit is reached."""
        nonlocal total
        cand = host & ~used
        for j in back[i]:
            cand &= nbr[j]
        if i == last:
            # each candidate already meets need[last] distinct images
            total += cand.bit_count()
            return limit is not None and total >= limit
        if i == pair:
            later = host & ~used
            for j in back[last]:
                later &= nbr[j]
            total += cand.bit_count() * later.bit_count() - (cand & later).bit_count()
            return limit is not None and total >= limit
        deg = need[i]
        while cand:
            low = cand - 1
            v = (cand ^ low).bit_length() - 1
            cand &= low
            a = host_adj[v]
            if deg and (a & host).bit_count() < deg:
                continue
            nbr[i] = a
            if rec(i + 1, used | (1 << v)):
                return True
        return False

    rec(start, used)
    return total if limit is None else min(total, limit)


def _defect_pairs(plans, adj, up, lead) -> list[int]:
    """The pairs e of up & ~adj such that adj plus e holds a copy of p
    that maps an edge onto lead, as symmetric per-vertex masks. plans hold
    p's _hom_plan for one directed edge per orbit of Aut(p), led by that
    edge; lead is an edge of adj, and up and adj hold masks of the same
    host vertices, up containing adj.

    Each plan pins its lead edge to lead and is walked over up with every
    edge of p landing on an edge of adj except exactly one, the defect,
    which lands on a pair of up & ~adj. A copy of p through e and lead
    puts its edges other than e in adj, and an automorphism moves the edge
    it maps onto lead to a plan's lead, so the walk finds every such e. A
    defect found to complete a copy is not tried again, and the walk below
    it stops at its first copy. The last plan position reads its defects
    from the candidate masks, every pattern neighbor of its vertex being
    placed by then. An image needs at least its position's need less one
    neighbors in adj, since one of its edges may be the defect. A position
    with no earlier neighbor takes any free host vertex.
    """
    n = len(adj)
    host = (1 << n) - 1
    kill = [0] * n
    u, v = lead
    img = [u, v] + [0] * (n - 2)  # the image of each plan position
    back = need = None
    last = 0

    def rec(i: int, used: int, da: int, db: int) -> bool:
        """Extend the partial map at position i, its defect (da, db) or da
        = -1 while none is placed; True once (da, db) is killed."""
        cand = host & ~used
        prev = back[i]
        exact = cand
        for j in prev:
            exact &= adj[img[j]]
        if da >= 0 and i == last:
            if not exact:
                return False
            kill[da] |= 1 << db
            kill[db] |= 1 << da
            return True
        defects = []  # (x, candidates y) for a defect on the edge (x, y)
        if da < 0:
            for j in prev:
                x = img[j]
                c = cand & up[x] & ~adj[x] & ~kill[x]
                for j2 in prev:
                    if j2 != j:
                        c &= adj[img[j2]]
                if c:
                    defects.append((x, c))
        if i == last:
            for x, c in defects:
                kill[x] |= c
                while c:
                    low = c - 1
                    y = (c ^ low).bit_length() - 1
                    c &= low
                    kill[y] |= 1 << x
            return False
        deg = need[i] - 1
        while exact:
            low = exact - 1
            y = (exact ^ low).bit_length() - 1
            exact &= low
            if adj[y].bit_count() < deg:
                continue
            img[i] = y
            if rec(i + 1, used | 1 << y, da, db):
                return True
        for x, c in defects:
            while c:
                low = c - 1
                y = (c ^ low).bit_length() - 1
                c &= low
                if kill[x] >> y & 1 or adj[y].bit_count() < deg:
                    continue
                img[i] = y
                rec(i + 1, used | 1 << y, x, y)
        return False

    du, dv = adj[u].bit_count() + 1, adj[v].bit_count() + 1
    for order, back, need in plans:
        if len(order) > n or du < need[0] or dv < need[1]:
            continue
        last = len(order) - 1
        rec(2, 1 << u | 1 << v, -1, -1)
    return kill


@lru_cache(maxsize=256)
def _aut_count_cached(g: Graph) -> int:
    """|Aut(g)| by orbit-stabilizer: the product over i of the orbit of
    vertex i under the automorphisms that fix vertices 0..i-1, read from
    _orbits on the tuples (0..i-1, w) for w >= i, where (0..i-1, i) comes
    first and so represents its own orbit."""
    total = 1
    for i in range(g.n):
        fixed = tuple(range(i))
        total *= _orbits(g, tuple(fixed + (w,) for w in range(i, g.n)))[0][1]
    return total


@lru_cache(maxsize=256)
def _orbits(p: Graph, items: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple, int], ...]:
    """One item per orbit on items, with the orbit's size; items are tuples
    of p's vertices, x and y sharing an orbit when some automorphism of p
    maps x onto y coordinatewise.

    That relation must be an equivalence on items. It is when items are
    closed under Aut(p), and when they share a prefix S and hold (S, w) for
    every w outside S: every map between two of them fixes S pointwise, so
    the orbits are those of S's pointwise stabilizer. A pinned injective
    edge-preserving self-map of p decides each pair; on a finite graph such
    a map is an automorphism. Each item is tried against the representatives
    found so far, in order, and starts an orbit of its own when none maps
    onto it, so each orbit is represented by its first item.
    """
    sizes: dict[tuple[int, ...], int] = {}
    for y in items:
        for x in sizes:
            if exists_injective_hom(p, p.adj, p.n, pin=dict(zip(x, y))):
                sizes[x] += 1
                break
        else:
            sizes[y] = 1
    return tuple(sizes.items())


def _vertex_orbits(p: Graph) -> tuple[tuple[int, int], ...]:
    """One vertex of p per orbit of Aut(p) on vertices, its lowest, with
    the orbit's size."""
    return tuple((x, size) for (x,), size in _orbits(p, tuple((v,) for v in range(p.n))))


def _require_generic(n: int) -> None:
    if n > GENERIC_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"generic counting limited to {GENERIC_VERTEX_BUDGET} pattern vertices, got {n}"
        )


def count_injective_homs(g: Graph, p: Graph) -> int:
    """Injective edge-preserving maps from p into g (the generic oracle path)."""
    _require_generic(p.n)
    return _count_injective_homs(_hom_plan(p), g.adj, (1 << g.n) - 1)


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
        return cliques_in_mask(adj, (1 << n) - 1, t.m)
    if t.kind == "blowup":
        return _count_blowup_masks(adj, (1 << n) - 1, t.m, t.t)
    p = t.realize()
    _require_generic(p.n)
    return _count_injective_homs(_hom_plan(p), adj, (1 << n) - 1) // t.aut_count()


@lru_cache(maxsize=256)
def _orbit_roots(t: Pattern) -> tuple[tuple, int]:
    """A generic pattern's rooted plans, one per _vertex_orbits entry with
    the orbit's size, and |Aut|, worked out once per pattern."""
    p = t.realize()
    _require_generic(p.n)
    return tuple((_hom_plan(p, (a,), True), size) for a, size in _vertex_orbits(p)), t.aut_count()


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
        return cliques_in_mask(adj, row, t.m - 1)
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
    plans, aut = _orbit_roots(t)
    homs = 0
    for plan, size in plans:
        homs += size * _count_injective_homs(plan, adj, within, (), row)
    return homs // aut


def exists_injective_hom(p: Graph, host_adj, host_n: int, pin: dict | None = None) -> bool:
    """Early-exit embedding test on raw masks; pin fixes pattern->host
    vertices, which lead the plan."""
    pin = pin or {}
    plan = _hom_plan(p, tuple(pin))
    host = (1 << host_n) - 1
    return _count_injective_homs(plan, host_adj, host, tuple(pin.values()), None, 1) > 0


def contains(g: Graph, h: Graph) -> bool:
    """Does g contain a copy of h (as a subgraph, not induced)? A clique h,
    by shape, is looked for as a clique, as the solver's forbid test does.
    Any other h is looked for only in a host holding a clique of h's clique
    number, since every copy of h holds one."""
    if h.n == 0:
        return True
    host = (1 << g.n) - 1
    if blowup_shape(h) == (h.n, 1):
        return exists_clique_in_mask(g.adj, host, h.n)
    if not exists_clique_in_mask(g.adj, host, max_clique_size(h)):
        return False
    return exists_injective_hom(h, g.adj, g.n)


def copies_through_vertex(g: Graph, t: Pattern, v: int) -> int:
    """Copies of the pattern whose vertex set includes v."""
    if not 0 <= v < g.n:
        raise PatternSyntaxError(f"vertex {v} not in graph on {g.n} vertices")
    return copies_through(g.adj, ((1 << g.n) - 1) ^ (1 << v), g.adj[v], t)
