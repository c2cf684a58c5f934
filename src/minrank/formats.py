"""Graph interchange formats: graph6 (short form) and edge lists."""

from __future__ import annotations

import re
from itertools import compress

from .errors import GraphError
from .graph import Graph


# graph6 lists the pairs (i, j), i < j, column by column: j ascending, then
# i; pair (i, j) is bit j(j - 1)/2 + i for every order up to 62.  The body
# packs the bits six to a character, most significant first, offset by 63.
_PAIRS = [(i, j) for j in range(1, 62) for i in range(j)]
_BITS_OF = {chr(k + 63): format(k, "06b") for k in range(64)}
_CHAR_OF = {bits: ch for ch, bits in _BITS_OF.items()}


def graph6_text(line: str) -> str:
    """A graph6 line without whitespace or an optional `>>graph6<<` header."""
    return line.strip().removeprefix(">>graph6<<")


def graph6_lines(text: str):
    """(0-based line number, line) of each line of a graph6 document that
    is neither blank nor a comment starting with `#`, as it is reached:
    `str.splitlines` breaks one segment up to a line feed at a time, so no
    list of lines is held (a text broken only by CR is one segment)."""
    lines = (line for seg in re.finditer(".*\n?", text) for line in seg[0].splitlines())
    for index, line in enumerate(lines):
        if line.strip() and not line.startswith("#"):
            yield index, line


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string (short form, order at most 62) after an optional header."""
    s = graph6_text(line)
    if not s:
        raise GraphError("empty graph6 string")
    if s[0] == "~":
        raise GraphError("graph6 long form (order > 62) not supported")
    head = ord(s[0]) - 63
    if not 0 <= head <= 62:
        raise GraphError(f"bad graph6 header byte {s[0]!r}")
    n = head
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = s[1:]
    if len(body) != need:
        raise GraphError(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}"
        )
    try:
        bits = "".join(map(_BITS_OF.__getitem__, body))
    except KeyError as exc:
        raise GraphError(f"bad graph6 body byte {exc.args[0]!r}") from None
    if "1" in bits[nbits:]:
        raise GraphError("nonzero padding bits in graph6 string")
    adj = [set() for _ in range(n)]
    for i, j in compress(_PAIRS, map(int, bits[:nbits])):
        adj[i].add(j)
        adj[j].add(i)
    return Graph._of_adjacency(adj)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (short form, order at most 62)."""
    if g.n > 62:
        raise GraphError(f"graph6 short form limited to 62 vertices, got {g.n}")
    rows = g.adjacency_bits()
    # Column j: bit i of row j for i < j, lowest first.
    bits = "".join(
        format(rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, g.n)
    )
    bits += "0" * (-len(bits) % 6)
    return chr(g.n + 63) + "".join(
        _CHAR_OF[bits[k : k + 6]] for k in range(0, len(bits), 6)
    )


_DIGITS = b"0123456789"


def _canonical_adjacency(text: str) -> list[set] | None:
    """Adjacency sets of a document in the shape `emit_edge_list` writes, in
    one pass over the whole text; None when it has another shape or fails a
    check, for the line loop of `parse_edge_list` to settle.

    The shape: an `n=<count>` header line, then one `u v` line per edge,
    each of ASCII digits with one space between and a newline after.
    Deleting the digits must leave one space and newline per pair of ids.
    With the body ending in a newline, the ids then fill every slot before
    a space or a newline, so no line can lack one.  An id out of range
    indexes past the sets; a loop adds one entry to them and a repeated
    edge none, so both show in the sum of their sizes.
    """
    if not (text.startswith("n=") and text.isascii()):
        return None
    head, _, body = text.encode().partition(b"\n")
    ids = body.split()
    if not (
        head[2:].isdigit()
        and (not body or body.endswith(b"\n"))
        and body.translate(None, _DIGITS) == b" \n" * (len(ids) // 2)
    ):
        return None
    try:
        adj = [set() for _ in range(int(head[2:]))]
        pairs = iter(map(int, ids))
        for u, v in zip(pairs, pairs):
            adj[u].add(v)
            adj[v].add(u)
    except (IndexError, ValueError):  # past the sets, or past int's digit limit
        return None
    return adj if sum(map(len, adj)) == len(ids) else None


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document.

    Each non-comment line holds one `u v` pair; `#` starts a comment.  With
    an `n=<count>` header line, vertex ids must already be dense 0-based and
    isolated vertices are allowed.  Without it, arbitrary integer ids are
    accepted and remapped in sorted order to 0..n-1, with the originals kept
    in the label map.  Loops and repeated edges are rejected.

    A document in the shape `emit_edge_list` writes is read in bulk
    (`_canonical_adjacency`).  Any other document, or one that fails a
    check there, goes through the loop over its lines below, the one place
    that knows every case of the grammar and every error message with its
    line number.
    """
    adj = _canonical_adjacency(text)
    if adj is not None:
        return Graph._of_adjacency(adj)
    n_header = None
    raw_edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("n="):
            if n_header is not None:
                raise GraphError(f"line {lineno}: repeated n= header")
            try:
                n_header = int(body[2:])
            except ValueError:
                raise GraphError(f"line {lineno}: bad vertex count {body!r}") from None
            if n_header < 0:
                raise GraphError(f"line {lineno}: negative vertex count")
            continue
        toks = body.split()
        if len(toks) != 2:
            raise GraphError(f"line {lineno}: expected two vertex ids, got {body!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer vertex id in {body!r}") from None
        if u == v:
            raise GraphError(f"line {lineno}: loop at vertex {u}")
        raw_edges.append((lineno, u, v))

    n, labels = n_header, None
    if n is None:
        ids = sorted({u for _, u, v in raw_edges} | {v for _, u, v in raw_edges})
        remap = {orig: i for i, orig in enumerate(ids)}
        raw_edges = [(lineno, remap[u], remap[v]) for lineno, u, v in raw_edges]
        n = len(ids)
        if ids != list(range(n)):
            labels = {i: str(orig) for i, orig in enumerate(ids)}
    # Out-of-range ids anywhere are reported before a duplicate edge.
    adj = [set() for _ in range(n)]
    duplicate = None
    for lineno, u, v in raw_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: vertex out of range for n={n}")
        if v in adj[u] and duplicate is None:
            duplicate = f"line {lineno}: duplicate edge {(min(u, v), max(u, v))}"
        adj[u].add(v)
        adj[v].add(u)
    if duplicate is not None:
        raise GraphError(duplicate)
    return Graph._of_adjacency(adj, labels)


def emit_edge_list(g: Graph) -> str:
    """Edge-list document with an n= header, one `u v` line per edge."""
    lines = [f"n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"

