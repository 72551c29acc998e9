"""Exact graph coloring by backtracking in saturation-degree or lex-least order.

Decisions are exact only: a yes answer always carries a verified proper
coloring, a no answer means an exhaustive refutation. Running out of the
node budget is a third outcome, reported as such and never collapsed into
"not colorable".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import BudgetExceededError, GraphFormatError
from .graphs import Graph, bits, remove_vertex
from .counting import max_clique_size

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class ColorOutcome:
    """Tri-state colorability answer; witness is set exactly when status is yes."""

    status: str
    witness: tuple[int, ...] | None
    nodes: int

    def __bool__(self) -> bool:
        if self.status == UNKNOWN:
            raise BudgetExceededError("colorability undecided within budget")
        return self.status == YES


@dataclass(frozen=True)
class ColorResult:
    chromatic_number: int
    witness: tuple[int, ...]
    nodes: int


def verify_proper(g: Graph, colors, k: int | None = None) -> bool:
    """Independent witness checker: every edge bichromatic, colors within range."""
    if len(colors) != g.n:
        return False
    for v in range(g.n):
        cv = colors[v]
        if cv < 0 or (k is not None and cv >= k):
            return False
        for u in bits(g.adj[v]):
            if colors[u] == cv:
                return False
    return True


class _Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None):
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        """Account one search node; False once the budget is exhausted."""
        self.used += 1
        return self.limit is None or self.used <= self.limit


def _components(g: Graph) -> list[list[int]]:
    seen = 0
    comps = []
    for s in range(g.n):
        if (seen >> s) & 1:
            continue
        stack = [s]
        seen |= 1 << s
        comp = [s]
        while stack:
            v = stack.pop()
            fresh = g.adj[v] & ~seen
            seen |= fresh
            for u in bits(fresh):
                comp.append(u)
                stack.append(u)
        comps.append(sorted(comp))
    return comps


def _color_component(g: Graph, comp: list[int], k: int, budget: _Budget, canonical: bool):
    """Color one connected component; returns (status, {vertex: color}).

    A canonical 2-coloring is one breadth-first parity pass; all else runs
    one backtracking search, whose vertex order alone depends on canonical,
    on an explicit stack that spares the interpreter's recursion limit.
    Every vertex opened spends one budget node, in the order a recursive
    depth-first search would open it; the component itself spends one first.
    """
    colors: dict[int, int] = {}
    if not budget.spend():
        return UNKNOWN, colors

    if canonical and k == 2:
        # a connected graph has at most two 2-colorings, each the other with
        # its colors swapped. The least gives comp[0] color 0 and every vertex
        # the parity of its distance from comp[0], and it is proper exactly
        # when some 2-coloring is. Each vertex colored spends one node.
        # The search below is linear here too, but slower on small graphs.
        colors[comp[0]] = 0
        order = [comp[0]]
        for v in order:  # breadth-first: order grows as vertices are colored
            if not budget.spend():
                return UNKNOWN, colors
            for u in bits(g.adj[v]):
                if u not in colors:
                    colors[u] = 1 - colors[v]
                    order.append(u)
        proper = all(colors[u] != colors[v] for v in comp for u in bits(g.adj[v]))
        return (YES if proper else NO), colors

    # Each vertex counts its colored neighbours per color; its saturation is
    # the number of colors among them. A heap holds a key tuple per open
    # vertex; every change of a key pushes a fresh entry, and a stale one
    # is skipped when it surfaces. Colors are tried ascending, with one
    # fresh color at most, as higher fresh colors are symmetric. Saturation
    # order (Brélaz) opens the vertex of highest saturation, then degree,
    # then lowest id. Canonical order opens a vertex with one color left or
    # none first (it sees k - 1 colors, so the fresh-color cap hides none),
    # else the lowest open vertex: all below it are colored, a forced color
    # holds in every completion and no color ends the branch, so the first
    # coloring found is the lexicographically least, which uses its colors
    # in order of first occurrence.
    remaining = set(comp)
    seen = {w: {} for w in comp}  # w -> {color: colored neighbours of w with it}
    nbrs = {w: bits(g.adj[w]) for w in comp}  # walked at every color change

    def key(w: int) -> tuple:
        sat = len(seen[w])
        return (sat < k - 1, w) if canonical else (-sat, -g.degree(w), w)

    heap = [key(w) for w in comp]
    heapq.heapify(heap)

    def recolor(v: int, c: int, step: int) -> None:
        """Add (step 1) or take away (step -1) color c at v."""
        for w in nbrs[v]:
            counts = seen[w]
            was = len(counts)
            left = counts.get(c, 0) + step
            if left:
                counts[c] = left
            else:
                del counts[c]
            # a canonical key changes only as w reaches or leaves k - 1 colors
            changed = len(counts) != was and (not canonical or k - 1 in (was, len(counts)))
            if changed and w in remaining:
                heapq.heappush(heap, key(w))

    def open_vertex(max_used: int):
        while True:
            v = heap[0][-1]
            if v in remaining and heap[0] == key(v):
                break
            heapq.heappop(heap)
        remaining.remove(v)
        nb = seen[v]  # colors stay below len(comp), whatever k is
        return v, iter([c for c in range(min(k, max_used + 1)) if c not in nb]), max_used

    stack = [open_vertex(0)]
    while stack:
        v, tries, max_used = stack[-1]
        if v in colors:
            recolor(v, colors.pop(v), -1)
        c = next(tries, None)
        if c is None:
            stack.pop()
            remaining.add(v)
            heapq.heappush(heap, key(v))
            continue
        colors[v] = c
        recolor(v, c, 1)
        if not budget.spend():
            return UNKNOWN, colors
        if not remaining:
            return YES, colors
        stack.append(open_vertex(max(max_used, c + 1)))
    return NO, colors


def is_k_colorable(
    g: Graph, k: int, *, budget: int | None = None, canonical: bool = False
) -> ColorOutcome:
    """Decide k-colorability; components are handled independently.

    canonical=True returns the lexicographically least witness (for k = 2
    the breadth-first parity coloring). budget caps the search nodes of
    either vertex order; a negative one is refused before any search.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    if k < 0:
        return ColorOutcome(NO, None, 0)
    if g.n == 0:
        return ColorOutcome(YES, (), 0)
    if k == 0:
        return ColorOutcome(NO, None, 0)
    b = _Budget(budget)
    assignment: dict[int, int] = {}
    for comp in _components(g):
        status, colors = _color_component(g, comp, k, b, canonical)
        if status == UNKNOWN:
            return ColorOutcome(UNKNOWN, None, b.used)
        if status == NO:
            return ColorOutcome(NO, None, b.used)
        assignment.update(colors)
    witness = tuple(assignment[v] for v in range(g.n))
    if not verify_proper(g, witness, k):
        raise RuntimeError(f"coloring search returned an improper {k}-coloring")
    return ColorOutcome(YES, witness, b.used)


def chromatic_number(g: Graph, *, budget: int | None = None) -> ColorResult:
    """Exact chromatic number with witness; raises BudgetExceededError if undecided."""
    if budget is not None and budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    if g.n == 0:
        return ColorResult(0, (), 0)
    spent = 0
    k = max(1, max_clique_size(g))  # clique size is a valid lower bound
    while True:
        remaining = None if budget is None else budget - spent
        if remaining is not None and remaining <= 0:
            raise BudgetExceededError("chromatic number undecided within budget")
        out = is_k_colorable(g, k, budget=remaining)
        spent += out.nodes
        if out.status == YES:
            return ColorResult(k, out.witness, spent)
        if out.status == UNKNOWN:
            raise BudgetExceededError("chromatic number undecided within budget")
        k += 1


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    """g without the edge (u, v); clearing both ends of an edge of a valid
    graph leaves it valid, so the rows are not checked again."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphFormatError(f"edge ({u},{v}) outside 0..{g.n - 1}")
    if not g.has_edge(u, v):
        raise GraphFormatError(f"no edge ({u}, {v}) to remove")
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    return Graph._unchecked(g.n, tuple(adj))


def is_edge_critical(h: Graph, *, budget: int | None = None) -> tuple[bool, tuple[int, int] | None]:
    """Is there an edge whose removal lowers the chromatic number?

    Returns (answer, witness edge); the witness is the lexicographically
    first such edge. Raises BudgetExceededError if any subcall is undecided.
    """
    if h.edge_count() == 0:
        return False, None
    chi = chromatic_number(h, budget=budget).chromatic_number
    for u, v in h.edges():
        out = is_k_colorable(remove_edge(h, u, v), chi - 1, budget=budget)
        if out.status == UNKNOWN:
            raise BudgetExceededError("edge-criticality undecided within budget")
        if out.status == YES:
            return True, (u, v)
    return False, None


def critical_vertex(h: Graph, *, budget: int | None = None) -> int | None:
    """Lowest-id vertex whose removal lowers the chromatic number, or None.

    None is an honest answer: e.g. in a complete tripartite graph with parts
    of size two, deleting any single vertex leaves the chromatic number at 3.
    Every graph with an edge-critical edge has such a vertex (either endpoint).
    """
    if h.n == 0:
        return None
    chi = chromatic_number(h, budget=budget).chromatic_number
    for v in range(h.n):
        sub, _ = remove_vertex(h, v)
        out = is_k_colorable(sub, chi - 1, budget=budget)
        if out.status == UNKNOWN:
            raise BudgetExceededError("critical vertex undecided within budget")
        if out.status == YES:
            return v
    return None
