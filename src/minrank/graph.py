"""Simple undirected graphs with dense 0-based vertex ids.

Graphs are immutable after construction.  An optional label map carries
external vertex names (for instance 1-based ids from an input file); all
algorithms work on the dense ids only.
"""

from __future__ import annotations

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
        self._adj = tuple(frozenset(s) for s in adj)
        self.labels = dict(labels) if labels else None
        self._bits = None

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._adj[v]))

    def neighbor_set(self, v: int) -> frozenset:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

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
        edges = [
            (mapping[u], mapping[v])
            for u in vs
            for v in self._adj[u]
            if u < v and v in mapping
        ]
        labels = None
        if self.labels is not None:
            labels = {mapping[v]: self.labels[v] for v in vs if v in self.labels}
        return Graph(len(vs), edges, labels), mapping

    def remove_vertices(self, vertices) -> "Graph":
        """Subgraph induced on the complement of the given vertex set."""
        drop = set(vertices)
        for v in drop:
            if not 0 <= v < self.n:
                raise GraphError(f"vertex {v} out of range for n={self.n}")
        keep = [v for v in range(self.n) if v not in drop]
        return self.induced_subgraph(keep)[0]

    def connected_components(self) -> list[list[int]]:
        """Vertex sets of connected components, each sorted, ordered by minimum vertex."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            comp = [s]
            queue = [s]
            while queue:
                v = queue.pop()
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def bridges(self) -> list[tuple[int, int]]:
        """All cut edges as (min, max) pairs in ascending order."""
        n = self.n
        disc = [-1] * n
        low = [0] * n
        out = []
        timer = 0
        for root in range(n):
            if disc[root] != -1:
                continue
            disc[root] = low[root] = timer
            timer += 1
            stack = [(root, -1, iter(self.neighbors(root)))]
            while stack:
                v, parent, it = stack[-1]
                pushed = False
                for w in it:
                    if w == parent:
                        continue
                    if disc[w] == -1:
                        disc[w] = low[w] = timer
                        timer += 1
                        stack.append((w, v, iter(self.neighbors(w))))
                        pushed = True
                        break
                    low[v] = min(low[v], disc[w])
                if pushed:
                    continue
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if low[v] > disc[pv]:
                        out.append((min(pv, v), max(pv, v)))
        out.sort()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, self._adj))

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
