"""Output checks that do not trust the package under test.

Graphs here are plain adjacency bitmask lists decoded by this file's own
graph6 reader; counts and forbidden-copy tests enumerate every copy. A
check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

from itertools import permutations


class CheckFailed(Exception):
    pass


def need(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def fields(stdout: str) -> dict[str, str]:
    """First value of each 'key: value' line of a command's output."""
    out: dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# graph6, written from the format description (column-wise upper triangle)


def g6_decode(text: str) -> list[int]:
    codes = [ord(c) - 63 for c in text]
    need(bool(codes) and all(0 <= c <= 63 for c in codes), f"bad graph6 {text[:20]!r}")
    if codes[0] != 63:
        n, body = codes[0], codes[1:]
    elif codes[1] != 63:
        n = (codes[1] << 12) | (codes[2] << 6) | codes[3]
        body = codes[4:]
    else:
        n = 0
        for c in codes[2:8]:
            n = (n << 6) | c
        body = codes[8:]
    nbits = n * (n - 1) // 2
    need(len(body) == (nbits + 5) // 6, f"graph6 body length wrong for n={n}")
    adj = [0] * n
    i, j = 0, 1
    for k in range(nbits):
        if (body[k // 6] >> (5 - k % 6)) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        i += 1
        if i == j:
            i, j = 0, j + 1
    for k in range(nbits, 6 * len(body)):
        need(not (body[k // 6] >> (5 - k % 6)) & 1, "nonzero graph6 padding")
    return adj


def g6_encode(adj: list[int]) -> str:
    n = len(adj)
    if n <= 62:
        head = [n]
    else:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    out, acc, nb = [], 0, 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((adj[j] >> i) & 1)
            nb += 1
            if nb == 6:
                out.append(acc)
                acc, nb = 0, 0
    if nb:
        out.append(acc << (6 - nb))
    return "".join(chr(c + 63) for c in head + out)


def edges_of(adj: list[int]) -> set[tuple[int, int]]:
    return {(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1}


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def parse_edges(text: str) -> list[tuple[int, int]]:
    return [tuple(map(int, e.split("-"))) for e in text.split()]


# ---------------------------------------------------------------------------
# brute-force counts and containment


def contains(adj: list[int], h_adj: list[int]) -> bool:
    """Does the host contain h as a subgraph? Tries every injective map."""
    h_edges = list(edges_of(h_adj))
    for image in permutations(range(len(adj)), len(h_adj)):
        if all(adj[image[a]] >> image[b] & 1 for a, b in h_edges):
            return True
    return False


def path3_count(adj: list[int]) -> int:
    """Copies of the path with three edges: sum over middle edges minus
    the triangles each such count closes up (three per triangle)."""
    deg = [row.bit_count() for row in adj]
    walks = sum((deg[u] - 1) * (deg[v] - 1) for u, v in edges_of(adj))
    return walks - 3 * clique_count(adj, 3)


def clique_count(adj: list[int], m: int) -> int:
    """m-cliques, each enumerated once in increasing vertex order."""
    def rec(cand: int, m: int) -> int:
        if m == 1:
            return cand.bit_count()
        total = 0
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            total += rec(cand & adj[v], m - 1)
        return total

    return rec((1 << len(adj)) - 1, m)


def has_clique(adj: list[int], m: int) -> bool:
    def rec(cand: int, m: int) -> bool:
        if m == 0:
            return True
        while cand.bit_count() >= m:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if rec(cand & adj[v], m - 1):
                return True
        return False

    return rec((1 << len(adj)) - 1, m)


def c4_count(adj: list[int]) -> int:
    """Copies of K2(2), the 4-cycle: each is counted once per diagonal pair."""
    n = len(adj)
    total = 0
    for u in range(n):
        for v in range(u + 1, n):
            c = (adj[u] & adj[v]).bit_count()
            total += c * (c - 1) // 2
    return total // 2


def proper(adj: list[int], colors: list[int], k: int) -> bool:
    if len(colors) != len(adj) or any(not 0 <= c < k for c in colors):
        return False
    return all(colors[u] != colors[v] for u, v in edges_of(adj))


def peel_steps(adj: list[int], k: int) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    """Independent low-degree peel with triangle counts: (vertex, degree,
    host size, triangles through the vertex) per step, and the core's
    surviving original vertex ids."""
    alive = (1 << len(adj)) - 1
    steps = []
    while alive:
        size = alive.bit_count()
        degs = [((adj[v] & alive).bit_count(), v) for v in range(len(adj)) if alive >> v & 1]
        dmin, v = min(degs)
        if not dmin * (3 * k - 4) < (3 * k - 7) * size:
            break
        nb = adj[v] & alive
        tri = sum((adj[w] & nb).bit_count() for w in range(len(adj)) if nb >> w & 1) // 2
        steps.append((v, dmin, size, tri))
        alive &= ~(1 << v)
    return steps, [v for v in range(len(adj)) if alive >> v & 1]
