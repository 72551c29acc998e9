"""graph6 text encoding: parse and emit, strict and byte-exact.

The format packs the upper triangle of the adjacency matrix in column order
(for each column j, rows i < j) into 6-bit groups, each printed as the
character chr(value + 63). The vertex count is a 1-, 4-, or 8-character
prefix depending on size. An optional ">>graph6<<" header is accepted on
parse and never emitted.
"""

from __future__ import annotations

import binascii
import re

from .errors import GraphFormatError
from .graphs import Graph

_HEADER = ">>graph6<<"
_INVALID = re.compile(r"[^?-~]")  # graph6 characters are chr(63)..chr(126)
# base64 writes each 6-bit group as a character of its alphabet; graph6
# writes group v as chr(63 + v)
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_FROM_BASE64 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)


def _encode_n(n: int) -> str:
    if n < 0:
        raise GraphFormatError("vertex count must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise GraphFormatError(f"vertex count {n} too large for graph6")


def _decode_n(text: str) -> tuple[int, str]:
    if not text:
        raise GraphFormatError("empty graph6 string")
    bad = _INVALID.search(text)
    if bad:
        raise GraphFormatError(f"invalid graph6 character {bad.group()!r}")
    if text[0] != chr(126):
        return ord(text[0]) - 63, text[1:]
    if len(text) >= 2 and text[1] != chr(126):
        if len(text) < 4:
            raise GraphFormatError("truncated graph6 vertex count")
        n = 0
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        return n, text[4:]
    if len(text) < 8:
        raise GraphFormatError("truncated graph6 vertex count")
    n = 0
    for ch in text[2:8]:
        n = (n << 6) | (ord(ch) - 63)
    return n, text[8:]


def to_graph6(g: Graph) -> str:
    # column j is rows 0..j-1 of vertex j's row, lowest row first
    adj = g.adj
    bitstr = "".join([format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n)])
    chars = -(-len(bitstr) // 6)
    # padded to whole 3-byte groups, base64 writes the 6-bit groups in order
    # with no "=" padding; the "0" prefix reads an empty string as 0
    bitstr += "0" * (-len(bitstr) % 24)
    packed = int("0" + bitstr, 2).to_bytes(len(bitstr) // 8, "big")
    body = binascii.b2a_base64(packed, newline=False)[:chars].translate(_FROM_BASE64)
    return _encode_n(g.n) + body.decode("ascii")


def from_graph6(text: str) -> Graph:
    if text.startswith(_HEADER):
        text = text[len(_HEADER):]
    text = text.strip()
    if not text:
        raise GraphFormatError("empty graph6 string")
    n, body = _decode_n(text)
    nbits = n * (n - 1) // 2
    expected_chars = (nbits + 5) // 6
    if len(body) != expected_chars:
        raise GraphFormatError(
            f"graph6 body has {len(body)} characters, expected {expected_chars} for n={n}"
        )
    # the inverse of to_graph6's packing: base64 reads the 6-bit groups in
    # order once padded with "A" (group 0) to whole 4-character groups; the
    # zero bits of that padding follow the body's own padding bits
    pad = b"A" * (-expected_chars % 4)
    packed = binascii.a2b_base64(body.encode("ascii").translate(_TO_BASE64) + pad)
    bitstr = format(int.from_bytes(packed, "big"), f"0{8 * len(packed)}b")
    if "1" in bitstr[nbits:]:
        raise GraphFormatError("nonzero padding bits in graph6 body")
    # column j holds rows 0..j-1, padded with zeros to n characters: binary
    # rows of earlier neighbors with a zero diagonal, as
    # _from_binary_triangle reads them
    zeros = "0" * n
    cols = [bitstr[j * (j - 1) // 2 : j * (j + 1) // 2] + zeros[j:] for j in range(n)]
    return Graph._from_binary_triangle(cols, later=False)
