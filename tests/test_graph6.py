"""graph6 codec: known values, strictness, and cross-checks against networkx."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exfree.errors import GraphFormatError
from exfree.graph6 import from_graph6, to_graph6
from exfree.graphs import Graph, complete, cycle, empty, gnp
from oracles import from_graph6_brute, random_graph, to_graph6_brute

# every malformed form the decoder must reject: (text, message)
MALFORMED = [
    ("", "empty graph6 string"),
    (">>graph6<<  ", "empty graph6 string"),
    ("B" + chr(20), "invalid graph6 character '\\x14'"),  # below the graph6 range
    ("Bw" + chr(127), "invalid graph6 character '\\x7f'"),  # above it
    ("B", "graph6 body has 0 characters, expected 1 for n=3"),  # truncated body
    ("Bww", "graph6 body has 2 characters, expected 1 for n=3"),  # trailing garbage
    ("B" + chr(63 + 0b000001), "nonzero padding bits in graph6 body"),
    ("B" + chr(63 + 0b000100), "nonzero padding bits in graph6 body"),  # the first one
    ("~", "truncated graph6 vertex count"),
    ("~?@", "truncated graph6 vertex count"),  # 4-character form cut short
    ("~~?????", "truncated graph6 vertex count"),  # 8-character form cut short
    ("~?@A", "graph6 body has 0 characters, expected 358 for n=66"),
]


def test_known_encodings():
    assert to_graph6(complete(3)) == "Bw"
    assert to_graph6(empty(0)) == "?"
    assert to_graph6(empty(1)) == "@"
    assert from_graph6("Bw").adj == complete(3).adj


def test_header_prefix_accepted():
    assert from_graph6(">>graph6<<Bw").adj == complete(3).adj


def test_round_trip_small():
    for g in [complete(4), cycle(5), empty(7), Graph.from_edges(3, [(0, 2)])]:
        assert from_graph6(to_graph6(g)).adj == g.adj


def test_large_n_header():
    g = empty(100)  # needs the 4-character size header
    s = to_graph6(g)
    assert s[0] == chr(126)
    assert from_graph6(s).n == 100


def test_strictness():
    for text, message in MALFORMED:
        for decode in (from_graph6, from_graph6_brute):
            with pytest.raises(GraphFormatError) as info:
                decode(text)
            assert str(info.value) == message, (decode.__name__, text)


def test_column_decoder_matches_bit_walk():
    # C(n, 2) mod 24 has period 48 in n: range(48) meets every padding of
    # the body to whole 4-character base64 groups and every count of
    # padding bits in its last character. Empty, random and complete
    # graphs; then K_n's body with each padding bit set in turn, and a body
    # of "~" only where it has padding bits, which both decoders refuse
    rng = random.Random(6)
    for n in [*range(48), 62, 63, 64, 100, 260]:
        for p in (0, 0.3, 0.5, 1):
            g = random_graph(rng, n, p)
            text = to_graph6(g)
            assert from_graph6(text) == from_graph6_brute(text) == g
        nbits = n * (n - 1) // 2
        chars = -(-nbits // 6)
        head, last = text[: len(text) - 1], ord(text[-1]) - 63
        bad = [head + chr(63 + (last | 1 << b)) for b in range(-nbits % 6)]
        bad += [text[: len(text) - chars] + "~" * chars] if nbits % 6 else []
        for wrong in bad:
            for decode in (from_graph6, from_graph6_brute):
                with pytest.raises(GraphFormatError) as info:
                    decode(wrong)
                assert str(info.value) == "nonzero padding bits in graph6 body", (n, wrong)
    # the 8-character size header, which only hosts past 258047 vertices need
    # when encoding, is still accepted on small graphs
    for text in ("~~?????@", "~~?????Bw", ">>graph6<<~~?????Bw"):
        assert from_graph6(text) == from_graph6_brute(text)
    assert from_graph6("~~?????Bw") == complete(3)


def test_column_encoder_matches_bit_packer():
    rng = random.Random(7)
    # C(n, 2) mod 24 has period 48 in n: range(48) meets every residue, so
    # every padding of the packed bits to whole 3-byte groups
    for n in [*range(48), 62, 63, 64, 100, 260]:
        for p in (0, 0.3, 0.5, 1):
            g = random_graph(rng, n, p)
            assert to_graph6(g) == to_graph6_brute(g), (n, p)


def test_round_trip_large_host():
    g = gnp(1000, 0.5, 1)
    assert to_graph6(g) == to_graph6_brute(g)
    assert from_graph6(to_graph6(g)) == g


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def test_agrees_with_networkx_encoder():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randrange(0, 25)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        g = Graph.from_edges(n, edges)
        theirs = nx.to_graph6_bytes(_to_nx(g), header=False).decode().strip()
        assert to_graph6(g) == theirs
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()}


@st.composite
def graphs(draw, max_n=32):
    n = draw(st.integers(min_value=0, max_value=max_n))
    mask = draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1 if n > 1 else 0))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    return Graph.from_edges(n, edges)


@given(graphs())
@settings(max_examples=200)
def test_round_trip_property(g):
    s = to_graph6(g)
    assert from_graph6(s).adj == g.adj
    assert to_graph6(from_graph6(s)) == s
