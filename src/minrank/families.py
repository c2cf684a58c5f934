"""Pluggable base-graph families, each answering through one solver.

A family oracle builds, for a member, a solver: a map from a collection of
the member's vertex ids to its min-rank with them deleted, which is all the
dp fold asks of a part.  It also says whether a union of pieces glued along
a tree of bridges is a member.  Families must be closed under vertex
deletion, which the decomposition algorithms rely on when they remove
connector vertices from a part.  The bounded-order solver only maps vertex
ids to bit positions; `exact` searches the part on them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import GraphError
from .exact import _minrank_on
from .graph import Graph


class FamilyOracle(ABC):
    """Membership plus exact min-rank for one graph family."""

    name: str

    @abstractmethod
    def solver(self, g: Graph, part=None):
        """None for a non-member g (or g's subgraph induced on the vertex
        ids `part`, in any order); else a map from a collection of those
        ids to its min-rank with them deleted."""

    @abstractmethod
    def glue(self, pieces_member: bool, order: int) -> bool:
        """Membership of a union of pieces joined along a tree of bridges,
        from whether every piece is a member and its order; `glue(False, k)`
        means every graph of order k is a member, and implies `glue(True, k)`."""


class BoundedOrderFamily(FamilyOracle):
    """All graphs on at most `bound` vertices.  The solver is asked by vertex
    id and maps the ids to bit positions in the part, which only it knows;
    `exact._minrank_on` answers on those bitsets, solving each component of
    what a deletion leaves once."""

    def __init__(self, bound: int = 10):
        if bound < 1:
            raise ValueError(f"order bound must be positive, got {bound}")
        self.bound = bound
        self.name = f"bounded:{bound}"

    def glue(self, pieces_member: bool, order: int) -> bool:
        return order <= self.bound

    def solver(self, g: Graph, part=None):
        vs = range(g.n) if part is None else part
        if len(vs) > self.bound:
            return None
        # Each id's bit position in vs, neighbours on those bits, mr by component.
        pos, adjacency, memo = None, (), {}

        def solve(removed) -> int:
            nonlocal pos, adjacency
            if pos is None:  # the first query
                pos = {v: i for i, v in enumerate(vs)}
                adjacency = tuple(
                    sum(1 << pos[w] for w in g.neighbor_set(v) if w in pos) for v in vs
                )
            left = ((1 << len(vs)) - 1) & ~sum(1 << pos[v] for v in set(removed))
            return _minrank_on(adjacency, memo, left)

        return solve


def perfect_elimination_order(g: Graph, vertices=None) -> list[int] | None:
    """Reversed maximum cardinality search order on the vertex sequence
    `vertices` (all of g by default), or None when the graph they induce is
    not chordal; O(n + m).

    Each step visits an unvisited vertex with the most visited neighbours;
    reversed, the visit order is a perfect elimination order iff the
    induced graph is chordal (Tarjan and Yannakakis 1984).  The neighbours
    visited before v are its later neighbours in that order, the last one
    visited the earliest, so the order is perfect iff at each visit that one
    neighbours all the others: the search stops at the first that fails.
    Buckets hold vertices by that count; an entry left behind by a rising
    count is skipped.
    """
    vs = range(g.n) if vertices is None else vertices
    count = dict.fromkeys(vs, 0)  # ~visit index once visited; outside: absent
    buckets = [list(reversed(vs))] + [[] for _ in vs]
    order = []
    top = 0
    while top >= 0:
        if not buckets[top]:
            top -= 1
            continue
        v = buckets[top].pop()
        if count[v] != top:
            continue  # visited, or pushed again at a higher count
        count[v] = ~len(order)
        order.append(v)
        seen, last = [], 0  # v's visited neighbours; ~(latest one's index)
        for w in g.neighbor_set(v):
            k = count.get(w)
            if k is None:
                continue
            if k >= 0:
                count[w] = k + 1
                buckets[k + 1].append(w)
            else:
                seen.append(w)
                if k < last:
                    last = k
        if top > 1:  # top is len(seen); does order[~last] neighbour the rest?
            if len(g.neighbor_set(order[~last]).intersection(seen)) < top - 1:
                return None
        top += 1  # no count rose by more than one
    return order[::-1]


class ChordalFamily(FamilyOracle):
    """Chordal graphs; min-rank equals the independence number.

    Membership is one maximum cardinality search that checks its
    elimination order as it goes (`perfect_elimination_order`).  For the
    min-rank, scanning the perfect elimination order and taking every
    vertex with no previously taken neighbour yields a maximum independent
    set together with a clique cover of the same size, and the two bounds
    squeeze the min-rank to that number.
    The order restricted to an induced subgraph is still a perfect
    elimination order, so one order serves every vertex deletion.  Every
    cycle of a union glued along bridges stays inside one piece, so the
    union is chordal iff every piece is.
    """

    name = "chordal"

    def glue(self, pieces_member: bool, order: int) -> bool:
        return pieces_member

    def solver(self, g: Graph, part=None):
        order = perfect_elimination_order(g, part)
        if order is None:
            return None

        def solve(removed) -> int:
            taken = 0
            blocked = set(removed)
            for v in order:
                if v not in blocked:
                    taken += 1
                    blocked.add(v)
                    blocked |= g.neighbor_set(v)
            return taken

        return solve


@dataclass(frozen=True)
class FamilyRegistry:
    """Ordered family list; the first membership hit claims a graph."""

    oracles: tuple[FamilyOracle, ...]

    def __post_init__(self):
        names = [o.name for o in self.oracles]
        if len(set(names)) != len(names):
            raise GraphError(f"duplicate family names: {names}")

    def claim(self, g: Graph, part) -> tuple[FamilyOracle, object] | None:
        """The first family holding g's subgraph induced on `part`, with its
        solver (see `FamilyOracle.solver`), or None."""
        for oracle in self.oracles:
            solve = oracle.solver(g, part)
            if solve is not None:
                return oracle, solve
        return None


def parse_registry_spec(spec: str) -> FamilyRegistry:
    """Build a registry from a comma-separated spec like "chordal,bounded:10"."""
    oracles: list[FamilyOracle] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if item == "chordal":
            oracles.append(ChordalFamily())
        elif item == "bounded":
            oracles.append(BoundedOrderFamily())
        elif item.startswith("bounded:"):
            try:  # a bound that is no integer, or below 1
                oracles.append(BoundedOrderFamily(int(item[len("bounded:") :])))
            except ValueError:
                raise GraphError(f"bad bound in registry item {item!r}") from None
        else:
            raise GraphError(f"unknown family {item!r}")
    if not oracles:
        raise GraphError(f"empty registry spec {spec!r}")
    return FamilyRegistry(tuple(oracles))


def default_registry() -> FamilyRegistry:
    return FamilyRegistry((ChordalFamily(), BoundedOrderFamily(10)))
