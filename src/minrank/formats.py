"""Graph interchange formats: graph6 (short form) and edge lists."""

from __future__ import annotations

from .errors import GraphError
from .graph import Graph


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 string (short form, order at most 62)."""
    s = line.strip()
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
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise GraphError(f"bad graph6 body byte {ch!r}")
        for k in range(5, -1, -1):
            bits.append((val >> k) & 1)
    if any(bits[nbits:]):
        raise GraphError("nonzero padding bits in graph6 string")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (short form, order at most 62)."""
    if g.n > 62:
        raise GraphError(f"graph6 short form limited to 62 vertices, got {g.n}")
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document.

    Each non-comment line holds one `u v` pair; `#` starts a comment.  With
    an `n=<count>` header line, vertex ids must already be dense 0-based and
    isolated vertices are allowed.  Without it, arbitrary integer ids are
    accepted and remapped in sorted order to 0..n-1, with the originals kept
    in the label map.  Loops and repeated edges are rejected.
    """
    n_header = None
    raw_edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:  # a bare `u v` line, the common case
            u, v = map(int, line.split())
        except ValueError:
            u = None
        if u is None:
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

