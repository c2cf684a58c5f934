"""Pluggable base-graph families with membership tests and fast min-rank.

A family oracle answers two questions: is this graph a member, and, for
members, what is its min-rank.  Families must be closed under vertex
deletion, which the decomposition algorithms rely on when they remove
connector vertices from a part.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import GraphError
from .exact import minrank_bnb
from .graph import Graph


class FamilyOracle(ABC):
    """Membership plus exact min-rank for one graph family."""

    name: str

    @abstractmethod
    def is_member(self, g: Graph) -> bool: ...

    @abstractmethod
    def minrank(self, g: Graph) -> int:
        """Exact min-rank of a member; raises ValueError on non-members."""


# Branch-and-bound nodes the bounded-order oracle spends on a whole member
# before it splits the member at its bridges.
SPLIT_AFTER_NODES = 1000


class BoundedOrderFamily(FamilyOracle):
    """All graphs on at most `bound` vertices; min-rank via exhaustive search."""

    def __init__(self, bound: int = 10):
        if bound < 1:
            raise ValueError(f"order bound must be positive, got {bound}")
        self.bound = bound
        self.name = f"bounded:{bound}"

    def is_member(self, g: Graph) -> bool:
        return g.n <= self.bound

    def minrank(self, g: Graph) -> int:
        if not self.is_member(g):
            raise ValueError(f"graph of order {g.n} outside family {self.name}")
        # Most members settle within a few hundred nodes.  Past that, cutting
        # at bridges first keeps one search from growing with the whole part.
        res = minrank_bnb(g, node_budget=SPLIT_AFTER_NODES)
        return res.value if res.exact else minrank_across_bridges(g)


def minrank_across_bridges(g: Graph) -> int:
    """Exact min-rank, with branch and bound run only on bridgeless pieces.

    A bridge xy splits g into a side A holding x and a side B holding y,
    and g is B glued at y to A plus the pendant edge xy.  A pendant vertex
    and its neighbour together cost one rank unit, so A + xy has min-rank
    1 + mr(A - x).  The shared-vertex rule of the dp fold
    (`dp.combine_shared_vertex`) then gives
    mr(g) = mr(A) + mr(B - y) + (1 + mr(A - x) - mr(A)) * (mr(B) - mr(B - y)).
    """
    memo: dict[frozenset, int] = {frozenset(): 0}

    def solve(vs: frozenset) -> int:
        if vs in memo:
            return memo[vs]
        ids = sorted(vs)
        sub, _ = g.induced_subgraph(ids)
        cut = sub.bridges()
        if not cut:
            memo[vs] = minrank_bnb(sub).value
            return memo[vs]
        x, y = cut[0]
        rest = Graph(sub.n, [e for e in sub.edges if e != (x, y)])
        side = next(c for c in rest.connected_components() if x in c)
        a = frozenset(ids[v] for v in side)
        b = vs - a
        m_a, m_ax = solve(a), solve(a - {ids[x]})
        m_b, m_by = solve(b), solve(b - {ids[y]})
        memo[vs] = m_a + m_by + (1 + m_ax - m_a) * (m_b - m_by)
        return memo[vs]

    return solve(frozenset(range(g.n)))


def lexicographic_bfs(g: Graph) -> list[int]:
    """Vertex visit order of lexicographic BFS, ties toward smaller ids."""
    labels: list[list[int]] = [[] for _ in range(g.n)]
    visited = [False] * g.n
    order = []
    for step in range(g.n):
        best = -1
        for v in range(g.n):
            if not visited[v] and (best == -1 or labels[v] > labels[best]):
                best = v
        visited[best] = True
        order.append(best)
        stamp = g.n - step
        for w in g.neighbor_set(best):
            if not visited[w]:
                labels[w].append(stamp)
    return order


def elimination_order(g: Graph) -> list[int]:
    """Reversed lexicographic BFS order; a perfect elimination order iff chordal."""
    return lexicographic_bfs(g)[::-1]


def is_perfect_elimination(g: Graph, order) -> bool:
    """Whether each vertex's later neighbors form a clique along the order."""
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.neighbor_set(v) if pos[w] > pos[v]]
        if not later:
            continue
        w0 = min(later, key=pos.get)
        for w in later:
            if w != w0 and not g.has_edge(w0, w):
                return False
    return True


class ChordalFamily(FamilyOracle):
    """Chordal graphs; min-rank equals the independence number.

    Membership is lexicographic BFS plus elimination-order verification.
    For the min-rank, scanning the perfect elimination order and taking
    every vertex with no previously taken neighbor yields a maximum
    independent set together with a clique cover of the same size, and the
    two bounds squeeze the min-rank to that number.
    """

    name = "chordal"

    def is_member(self, g: Graph) -> bool:
        return is_perfect_elimination(g, elimination_order(g))

    def minrank(self, g: Graph) -> int:
        order = elimination_order(g)
        if not is_perfect_elimination(g, order):
            raise ValueError("graph is not chordal")
        taken = 0
        blocked = set()
        for v in order:
            if v not in blocked:
                taken += 1
                blocked.add(v)
                blocked |= g.neighbor_set(v)
        return taken


@dataclass(frozen=True)
class FamilyRegistry:
    """Ordered family list; the first membership hit claims a graph."""

    oracles: tuple[FamilyOracle, ...]

    def __post_init__(self):
        names = [o.name for o in self.oracles]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate family names: {names}")

    def lookup(self, g: Graph) -> FamilyOracle | None:
        for oracle in self.oracles:
            if oracle.is_member(g):
                return oracle
        return None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.oracles)


def parse_registry_spec(spec: str) -> FamilyRegistry:
    """Build a registry from a comma-separated spec like "chordal,bounded:10"."""
    oracles: list[FamilyOracle] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "chordal":
            oracles.append(ChordalFamily())
        elif item == "bounded" or item.startswith("bounded:"):
            bound = 10
            if ":" in item:
                try:
                    bound = int(item.split(":", 1)[1])
                except ValueError:
                    raise GraphError(f"bad bound in registry item {item!r}") from None
            if bound < 1:
                raise GraphError(f"bad bound in registry item {item!r}")
            oracles.append(BoundedOrderFamily(bound))
        else:
            raise GraphError(f"unknown family {item!r}")
    if not oracles:
        raise GraphError(f"empty registry spec {spec!r}")
    return FamilyRegistry(tuple(oracles))


def default_registry() -> FamilyRegistry:
    return FamilyRegistry((ChordalFamily(), BoundedOrderFamily(10)))
