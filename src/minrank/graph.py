"""Simple undirected graphs with dense 0-based vertex ids.

Graphs are immutable after construction.  Each vertex's neighbours are
kept in a plain set that the graph owns and never mutates: the sets a
graph is built from are kept as they are, without a copy, and the sets
`neighbor_set` returns must not be mutated by its callers either.  An
optional label map carries external vertex names (for instance 1-based ids
from an input file); all algorithms work on the dense ids only.
"""

from __future__ import annotations

import itertools

from .errors import GraphError


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj", "labels", "_bits")

    def __init__(self, n: int, edges=(), labels=None):
        if n < 0:
            raise GraphError(f"negative vertex count: {n}")
        adj = [set() for _ in range(n)]
        for e in edges:
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj = tuple(adj)
        self.labels = dict(labels) if labels else None
        self._bits = None

    @classmethod
    def _of_adjacency(cls, adj, labels=None) -> "Graph":
        """A graph over adjacency sets known to be symmetric, in range and
        loop-free.  The graph keeps the sets themselves: nothing may mutate
        them afterwards."""
        g = cls(0, (), labels)
        g.n, g._adj = len(adj), tuple(adj)
        return g

    def neighbor_set(self, v: int) -> set:
        """The neighbours of v: the graph's own set, to be read, never mutated."""
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._adj) // 2

    def adjacency_bits(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets packed as integers (bit u set iff edge to u)."""
        if self._bits is None:
            self._bits = tuple(
                sum(1 << u for u in self._adj[v]) for v in range(self.n)
            )
        return self._bits

    def induced_subgraph(self, vertices) -> tuple["Graph", dict[int, int]]:
        """Subgraph induced on an ordered vertex sequence.

        Returns the new graph and the old->new index map.  The i-th vertex
        of the sequence becomes vertex i; duplicates are rejected.
        """
        vs = list(vertices)
        mapping = {}
        for pos, v in enumerate(vs):
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} out of range for n={self.n}")
            if v in mapping:
                raise GraphError(f"duplicate vertex {v} in induced subgraph")
            mapping[v] = pos
        adj = [{mapping[w] for w in self._adj[v] if w in mapping} for v in vs]
        labels = None
        if self.labels is not None:
            labels = {mapping[v]: self.labels[v] for v in vs if v in self.labels}
        return Graph._of_adjacency(adj, labels), mapping

    def closed_atoms(self):
        """One depth-first search (Tarjan 1974), yielding each 2-edge-connected
        component, or atom, as it closes: its vertices, head first, and the
        other end of the head's bridge, or -1 at a component's root atom, which
        holds its lowest vertex and closes last.  A vertex heads an atom when no
        back edge from its subtree climbs above it; the atom is what the search
        entered from it on.  Components come by lowest vertex."""
        adj = self._adj
        disc = [-1] * self.n
        low = [0] * self.n
        entered = []
        clock = itertools.count()
        for root in range(self.n):
            if disc[root] != -1:
                continue
            disc[root] = low[root] = next(clock)
            stack = [(root, -1, iter(adj[root]), 0)]
            entered.append(root)
            while stack:
                v, parent, it, start = stack[-1]
                for w in it:
                    if disc[w] == -1:
                        disc[w] = low[w] = next(clock)
                        stack.append((w, v, iter(adj[w]), len(entered)))
                        entered.append(w)
                        break
                    if w != parent and disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    if low[v] == disc[v]:
                        yield entered[start:], parent
                        del entered[start:]
                    elif low[v] < low[parent]:
                        low[parent] = low[v]

    def bridge_split(self) -> list[tuple[list, list]]:
        """`closed_atoms` per connected component, by lowest vertex: its
        bridges as sorted (min, max) pairs and its atoms as sorted tuples,
        ordered by smallest vertex, which with the bridges form a tree."""
        forest, bridges, atoms = [], [], []
        for atom, parent in self.closed_atoms():
            atoms.append(tuple(sorted(atom)))
            if parent != -1:
                bridges.append((min(atom[0], parent), max(atom[0], parent)))
            else:  # the component's root atom closes it
                forest.append((sorted(bridges), sorted(atoms)))
                bridges, atoms = [], []
        return forest

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, tuple(map(frozenset, self._adj))))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def partition_violations(n: int, parts) -> list[str]:
    """Why the given vertex lists fail to partition 0..n-1 (empty when they do)."""
    problems = []
    seen = {}
    for i, part in enumerate(parts):
        if len(part) == 0:
            problems.append(f"part {i} is empty")
        for v in part:
            if not isinstance(v, int) or not 0 <= v < n:
                problems.append(f"part {i} contains out-of-range vertex {v!r}")
            elif v in seen:
                problems.append(f"vertex {v} appears in parts {seen[v]} and {i}")
            else:
                seen[v] = i
    missing = [v for v in range(n) if v not in seen]
    if missing:
        problems.append(f"vertices not covered by any part: {missing}")
    return problems
