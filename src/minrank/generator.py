"""Seeded construction of graphs that carry a tree-of-parts structure.

Instances are built part-first: each part is a small connected graph drawn
from a registered family, the parts are wired into a uniformly random tree
shape, and every tree edge becomes a single connector edge.  Downward
connectors are drawn from a per-part pool of at most `c` vertices, so the
result always respects the connector bound.
"""

from __future__ import annotations

import heapq
import random

from .errors import GraphError
from .families import FamilyRegistry, default_registry
from .graph import Graph
from .structure import SimpleTreeStructure, validate_structure

PART_KINDS = ("chordal", "bounded", "mixed")


def random_connected_chordal(rng: random.Random, order: int) -> Graph:
    """Connected chordal graph: each new vertex joins a clique of the old ones."""
    edges = []
    adj = [set() for _ in range(order)]
    for v in range(1, order):
        anchor = rng.randrange(v)
        clique = [anchor]
        common = set(adj[anchor]) & set(range(v))
        while common and rng.random() < 0.5:
            w = rng.choice(sorted(common))
            clique.append(w)
            common &= adj[w]
        for w in clique:
            edges.append((w, v))
            adj[w].add(v)
            adj[v].add(w)
    return Graph(order, edges)


def random_connected_graph(rng: random.Random, order: int, extra_p: float = 0.3) -> Graph:
    """Connected graph: a random spanning tree plus coin-flip chords."""
    edges = set()
    verts = list(range(order))
    rng.shuffle(verts)
    for i in range(1, order):
        j = rng.randrange(i)
        e = (min(verts[i], verts[j]), max(verts[i], verts[j]))
        edges.add(e)
    for u in range(order):
        for v in range(u + 1, order):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return Graph(order, sorted(edges))


def _random_tree_parents(rng: random.Random, k: int) -> list[int]:
    """Parent array of a uniformly random labeled tree rooted at 0."""
    if k == 1:
        return [-1]
    seq = [rng.randrange(k) for _ in range(k - 2)]
    degree = [1] * k
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(k) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u, v = sorted(leaves)
    edges.append((u, v))
    adj = [[] for _ in range(k)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [-2] * k
    parent[0] = -1
    queue = [0]
    while queue:
        node = queue.pop()
        for nb in sorted(adj[node]):
            if parent[nb] == -2:
                parent[nb] = node
                queue.append(nb)
    return parent


def generate_member(
    seed,
    k: int,
    c: int,
    profile: str = "mixed",
    part_order: tuple[int, int] = (2, 6),
    registry: FamilyRegistry | None = None,
) -> tuple[Graph, SimpleTreeStructure]:
    """Connected graph with `k` parts and connector bound `c`, plus its structure.

    `profile` picks the part family ("chordal", "bounded", or "mixed");
    `part_order` bounds the order of each part.  Output is a deterministic
    function of the seed.  The returned structure always validates against
    the registry with at most `c` downward connectors per part.
    """
    if k < 1:
        raise GraphError(f"need at least one part, got k={k}")
    if c < 1:
        raise GraphError(f"connector bound must be positive, got c={c}")
    if profile not in PART_KINDS:
        raise GraphError(f"unknown profile {profile!r}, pick from {PART_KINDS}")
    if not 1 <= part_order[0] <= part_order[1]:
        raise GraphError(f"part orders need 1 <= min <= max, got {part_order}")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    registry = registry or default_registry()

    lo, hi = part_order
    part_graphs = []
    for _ in range(k):
        order = rng.randint(lo, hi)
        kind = profile if profile != "mixed" else rng.choice(("chordal", "bounded"))
        if kind == "chordal":
            part_graphs.append(random_connected_chordal(rng, order))
        else:
            part_graphs.append(random_connected_graph(rng, order))

    parent = _random_tree_parents(rng, k)

    offsets = []
    total = 0
    for pg in part_graphs:
        offsets.append(total)
        total += pg.n
    parts = [
        tuple(range(offsets[i], offsets[i] + part_graphs[i].n)) for i in range(k)
    ]

    edges = []
    for i, pg in enumerate(part_graphs):
        edges.extend((u + offsets[i], v + offsets[i]) for u, v in pg.edges)
    # One connector edge per tree link; dc vertices come from a pool of <= c.
    pools = {
        i: rng.sample(range(len(parts[i])), min(c, len(parts[i]))) for i in range(k)
    }
    for j in range(k):
        i = parent[j]
        if i == -1:
            continue
        dc_local = rng.choice(sorted(pools[i]))
        uc_local = rng.randrange(len(parts[j]))
        edges.append((parts[i][dc_local], parts[j][uc_local]))

    g = Graph(total, edges)
    # Validation reads the connectors off the graph.
    t = SimpleTreeStructure(tuple(parts), tuple(parent))
    report = validate_structure(g, t, registry)
    # A part in no family comes from the orders and registry asked for.
    for i, family in enumerate(report.families):
        if family is None:
            names = ",".join(o.name for o in registry.oracles)
            raise GraphError(
                f"part {i} of order {len(parts[i])} is in no family of registry {names}"
            )
    if not report.valid or report.mdc > c:
        raise AssertionError(
            f"generator produced an invalid instance: {report.violations}"
        )
    return g, report.structure
