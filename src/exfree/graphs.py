"""Immutable simple graphs on vertex set 0..n-1 with bitmask adjacency.

Each vertex's neighborhood is a Python int used as a bitset, so set algebra
(intersection of neighborhoods, candidate filtering) is single int operations.
Python ints are arbitrary precision, which makes the same representation work
unchanged past 64 vertices.

Also hosts the deterministic generator family used throughout: complete and
complete multipartite (Turan) graphs, blow-ups, cycles, seeded G(n,p), and a
seeded minimum-degree model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphFormatError, PatternSyntaxError


def as_fraction(x: int | float | str | Fraction) -> Fraction:
    """Exact rational from user input; floats go through their shortest repr.

    Fraction(str(0.2)) == 1/5, while Fraction(0.2) would pick up binary noise.
    Degree floors like ceil((1 - eps) * n) must be computed exactly or a value
    such as (1 - 0.2) * 10 lands on 8.000000000000002 and rounds the wrong way.
    A string with an exponent is refused (ValueError), since Fraction would
    build 10**exponent first; a float's repr may carry one and is accepted.
    """
    if isinstance(x, float):
        return Fraction(str(x))
    if isinstance(x, str) and "e" in x.lower():
        raise ValueError(f"not a rational: {x!r} (no exponents)")
    return Fraction(x)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def bits(mask: int) -> list[int]:
    """Indices of set bits, ascending. Each step reads the low bit from
    mask ^ (mask - 1), which never builds the negative int that mask & -mask
    does, a cost that grows with the digits of a wide mask."""
    out = []
    while mask:
        low = mask - 1
        out.append((mask ^ low).bit_length() - 1)
        mask &= low
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; adj[v] is the bitmask of v's neighbors."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        # a caller's list of rows becomes a tuple, so the graph hashes and
        # equals the same graph built any other way
        object.__setattr__(self, "adj", tuple(self.adj))
        if self.n < 0 or len(self.adj) != self.n:
            raise GraphFormatError(f"adjacency length {len(self.adj)} != n={self.n}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise GraphFormatError(f"vertex {v} has neighbors outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise GraphFormatError(f"self-loop at vertex {v}")
        # one walk over the neighbors checks symmetry and names the first
        # asymmetric pair
        adj = self.adj
        for v, row in enumerate(adj):
            while row:
                low = row - 1
                u = (row ^ low).bit_length() - 1
                if not (adj[u] >> v) & 1:
                    raise GraphFormatError(f"asymmetric adjacency between {u} and {v}")
                row &= low

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Graph on rows its builder made valid: n rows of ids in 0..n-1,
        symmetric, zero diagonal. Skips __post_init__, whose symmetry check
        takes a Python step per edge end, more than building a dense graph
        costs; callers' rows go through Graph(n, adj)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Graph on 0..n-1 with the given edges; each edge is checked, and
        sets both of its rows, so the rows need no further check."""
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        if n < 0:
            raise GraphFormatError(f"adjacency length 0 != n={n}")
        return cls._unchecked(n, tuple(adj))

    @classmethod
    def _from_binary_triangle(cls, half: list[str], later: bool) -> "Graph":
        """Graph whose edges are read from one triangle of its matrix: half[v]
        is a string of n '0'/'1' characters with a '0' at v, character u
        standing for the pair {u, v}, and only the pairs with u > v (later)
        or with u < v (not later) are read from it. The builders make rows
        of this form, so they are not checked. With the rows joined into one
        n*n string flat, vertex v's other neighbors are column v, a strided
        slice of flat. Each row is written once, highest vertex first, from
        the part of half[v] that holds one side of v and the part of column
        v that holds the other, so entry (u, v) is the one character of
        the triangle standing for {u, v}: symmetric by construction."""
        n = len(half)
        flat = "".join(half)
        if later:
            rows = (h[:v:-1] + "0" + flat[v : v * n : n][::-1] for v, h in enumerate(half))
        else:
            # flat[n*n-n+v : v*n+v : -n] is column v from row n-1 up to row v+1
            last = n * n - n
            rows = (flat[last + v : v * n + v : -n] + "0" + h[:v][::-1] for v, h in enumerate(half))
        return cls._unchecked(n, tuple(int(row, 2) for row in rows))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(row.bit_count() for row in self.adj)

    def max_degree(self) -> int:
        if self.n == 0:
            return 0
        return max(row.bit_count() for row in self.adj)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted ascending."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            w = u + 1
            while rest:
                if rest & 1:
                    out.append((u, w))
                rest >>= 1
                w += 1
        return out

    def neighbors(self, v: int) -> list[int]:
        return bits(self.adj[v])


# ---------------------------------------------------------------------------
# generators

_GNP_CHUNK = 8192  # pairs per read of the random stream in gnp


def _multipartite(sizes: list[int]) -> Graph:
    """Complete multipartite graph with parts of the given sizes, each part
    a block of consecutive ids in the order given. Each row is every vertex
    outside its own block, so the rows are valid by construction."""
    full = (1 << sum(sizes)) - 1
    adj = []
    start = 0
    for s in sizes:
        adj += [full & ~(((1 << s) - 1) << start)] * s
        start += s
    return Graph._unchecked(start, tuple(adj))


def complete(n: int) -> Graph:
    if n < 0:
        raise PatternSyntaxError("complete(n) needs n >= 0")
    return _multipartite([1] * n)


def empty(n: int) -> Graph:
    """The edgeless graph; zero rows are valid."""
    if n < 0:
        raise PatternSyntaxError("empty(n) needs n >= 0")
    return Graph._unchecked(n, (0,) * n)


def turan(n: int, r: int) -> Graph:
    """Complete r-partite graph with near-equal parts.

    The first n mod r parts get ceil(n/r) vertices, the rest floor(n/r);
    vertices are assigned to parts in contiguous blocks of ids.
    """
    if r < 1 or n < 0:
        raise PatternSyntaxError("turan(n, r) needs n >= 0, r >= 1")
    q, rem = divmod(n, r)
    return _multipartite([q + 1] * rem + [q] * (r - rem))


def blowup(m: int, t: int) -> Graph:
    """Complete m-partite graph with every part of size t (the clique blow-up)."""
    if m < 1 or t < 1:
        raise PatternSyntaxError("blowup(m, t) needs m >= 1, t >= 1")
    return _multipartite([t] * m)


def coned_blowup(m: int, t: int) -> Graph:
    """blowup(m, t) plus one extra vertex, the last, adjacent to everything else."""
    if m < 1 or t < 1:
        raise PatternSyntaxError("blowup(m, t) needs m >= 1, t >= 1")
    return _multipartite([t] * m + [1])


def cycle(n: int) -> Graph:
    if n < 3:
        raise PatternSyntaxError("cycle(n) needs n >= 3")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def gnp(n: int, p: float, seed: int, rng: random.Random | None = None) -> Graph:
    """Erdos-Renyi G(n, p), deterministic for a given seed.

    The graph, and the state rng is left in, are those of drawing one
    rng.random() per pair (u, v) with u < v, in (u, v) order, and keeping
    the pair when the draw is below p.

    random() reads two 32-bit outputs a, b and returns x / 2**53 with
    x = (a >> 5) << 26 | b >> 6, and getrandbits(64 * k) returns the next
    2k outputs lowest word first, two per pair. So reading the stream in
    chunks of _GNP_CHUNK pairs sees the outputs that one call for all
    pairs would, while at most one chunk's 64 KiB of words is held. A pair
    is kept exactly when x < t = ceil(p * 2**53). The top byte of x is the
    top byte of a, which one translate per chunk compares with t's for
    every pair; only pairs whose top byte ties with t's need the exact
    comparison. The kept pairs fill each row's later neighbors, the triangle
    that _from_binary_triangle reads.
    """
    if n < 0:
        raise PatternSyntaxError("gnp needs n >= 0")
    if not 0 <= p <= 1:
        raise PatternSyntaxError("gnp needs 0 <= p <= 1")
    if rng is None:
        rng = random.Random(seed)
    pairs = n * (n - 1) // 2
    t = math.ceil(p * (1 << 53))  # exact: scaling a float by 2**53 rounds nothing
    top = t >> 45  # 256 when p = 1: every byte is below it
    table = (b"1" * top + b"?" + b"0" * 255)[:256]
    keep = bytearray()
    for first in range(0, pairs, _GNP_CHUNK):
        size = min(_GNP_CHUNK, pairs - first)
        words = rng.getrandbits(64 * size).to_bytes(8 * size, "little")
        chunk = bytearray(words[3::8].translate(table))
        i = chunk.find(b"?")
        while i >= 0:
            a = int.from_bytes(words[8 * i : 8 * i + 4], "little")
            b = int.from_bytes(words[8 * i + 4 : 8 * i + 8], "little")
            chunk[i] = ord("1") if ((a >> 5) << 26 | b >> 6) < t else ord("0")
            i = chunk.find(b"?", i + 1)
        keep += chunk
    # row u's pairs (u, u+1..n-1) are consecutive, read as its later neighbors
    text = keep.decode("ascii")
    zeros = "0" * n
    half = []
    start = 0
    for u in range(n):
        half.append(zeros[: u + 1] + text[start : start + n - 1 - u])
        start += n - 1 - u
    return Graph._from_binary_triangle(half, later=True)


def min_degree_floor(n: int, eps: Fraction) -> int:
    """Target ceil((1 - eps) * n), capped at n - 1 so it is attainable."""
    if n == 0:
        return 0
    return min(ceil_frac((1 - eps) * n), n - 1)


def min_degree_random(n: int, eps: int | float | str | Fraction, seed: int) -> Graph:
    """Random graph with minimum degree at least ceil((1 - eps) * n).

    Sample G(n, p) at p = 1 - eps/2, then repeatedly add one seeded-random
    missing edge at the lowest-id vertex still below the degree floor. The
    floor is capped at n - 1, so eps = 0 yields the complete graph. Each
    added edge joins two distinct vertices in both rows of gnp's graph, so
    the result is valid without a check.
    """
    if n < 0:
        raise PatternSyntaxError("min_degree_random needs n >= 0")
    epsf = as_fraction(eps)
    if not 0 <= epsf <= 1:
        raise PatternSyntaxError("min_degree_random needs 0 <= eps <= 1")
    rng = random.Random(seed)
    g = gnp(n, float(1 - epsf / 2), seed, rng=rng)
    floor = min_degree_floor(n, epsf)
    adj = list(g.adj)
    while True:
        deficient = [v for v in range(n) if adj[v].bit_count() < floor]
        if not deficient:
            break
        v = deficient[0]
        candidates = [u for u in range(n) if u != v and not (adj[v] >> u) & 1]
        u = rng.choice(candidates)
        adj[v] |= 1 << u
        adj[u] |= 1 << v
    return Graph._unchecked(n, tuple(adj))


# ---------------------------------------------------------------------------
# vertex deletion with id remapping


def remove_vertex(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """Delete v; returns the relabeled graph and remap with remap[new_id] = old_id."""
    if not 0 <= v < g.n:
        raise GraphFormatError(f"vertex {v} not in graph on {g.n} vertices")
    keep = [u for u in range(g.n) if u != v]
    return _relabel(g, keep)


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on a vertex set; remap[new_id] = old_id, ids ascending."""
    keep = sorted(set(vertices))
    for u in keep:
        if not 0 <= u < g.n:
            raise GraphFormatError(f"vertex {u} not in graph on {g.n} vertices")
    return _relabel(g, keep)


def _relabel(g: Graph, keep: list[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the ascending ids in keep, renumbered 0..len-1.

    Each run of consecutive kept ids moves as one block of bits, so a row
    costs one shift-and-mask per run (two when a single vertex is deleted).
    An induced subgraph of a valid graph is valid, so it is not checked.
    """
    runs: list[list[int]] = []  # [first old id, width, first new id]
    for new, old in enumerate(keep):
        if runs and runs[-1][0] + runs[-1][1] == old:
            runs[-1][1] += 1
        else:
            runs.append([old, 1, new])
    blocks = [(start, (1 << width) - 1, at) for start, width, at in runs]
    adj = []
    for old in keep:
        row = g.adj[old]
        packed = 0
        for start, mask, at in blocks:
            packed |= ((row >> start) & mask) << at
        adj.append(packed)
    return Graph._unchecked(len(keep), tuple(adj)), tuple(keep)


def subgraph_from_edges(g: Graph, edges) -> Graph:
    """Spanning subgraph of g restricted to the given edge subset. Ids are
    range-checked before has_edge reads a row, where a negative id would
    index from the end."""
    edges = list(edges)  # read twice: here and by from_edges
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise GraphFormatError(f"edge ({u},{v}) outside 0..{g.n - 1}")
        if not g.has_edge(u, v):
            raise GraphFormatError(f"({u},{v}) is not an edge of the host graph")
    return Graph.from_edges(g.n, edges)


# ---------------------------------------------------------------------------
# generator specs (used by the CLI and by experiment records)


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one deterministic generator call."""

    kind: str
    n: int | None = None
    r: int | None = None
    m: int | None = None
    t: int | None = None
    p: float | None = None
    eps: Fraction | None = None
    seed: int | None = None

    def literal(self) -> str:
        _, fields = _generator(self.kind)
        return ":".join(["gen", self.kind] + [str(getattr(self, f)) for f, _ in fields])


# generator kind -> (function, its arguments in call order as GenSpec fields,
# each with the parser of its literal)
_GENERATORS = {
    "complete": (complete, (("n", int),)),
    "empty": (empty, (("n", int),)),
    "turan": (turan, (("n", int), ("r", int))),
    "blowup": (blowup, (("m", int), ("t", int))),
    "coned_blowup": (coned_blowup, (("m", int), ("t", int))),
    "cycle": (cycle, (("n", int),)),
    "gnp": (gnp, (("n", int), ("p", float), ("seed", int))),
    "min_degree_random": (min_degree_random, (("n", int), ("eps", as_fraction), ("seed", int))),
}


def _generator(kind: str):
    if kind not in _GENERATORS:
        raise PatternSyntaxError(f"unknown generator kind {kind!r}")
    return _GENERATORS[kind]


def generate(spec: GenSpec) -> Graph:
    fn, fields = _generator(spec.kind)
    return fn(*(getattr(spec, f) for f, _ in fields))


def parse_genspec(text: str) -> GenSpec:
    """Parse literals like gen:turan:6:3 or gen:min_degree_random:10:1/5:1."""
    parts = text.split(":")
    if parts[0] != "gen" or len(parts) < 2:
        raise PatternSyntaxError(f"not a generator literal: {text!r}")
    kind, args = parts[1], parts[2:]
    _, fields = _generator(kind)
    if len(args) != len(fields):
        names = ":".join(f for f, _ in fields)
        raise PatternSyntaxError(f"{kind} expects {names}: {text!r}")
    try:
        values = {f: parse(arg) for (f, parse), arg in zip(fields, args)}
    except (ValueError, ZeroDivisionError) as exc:
        raise PatternSyntaxError(f"bad {kind} arguments in {text!r}") from exc
    return GenSpec(kind, **values)
