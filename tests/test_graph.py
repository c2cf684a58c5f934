"""Graph container, components, bridges, and partition checks."""

import random

import pytest

from minrank import Graph, GraphError
from minrank.exact import bit_components
from minrank.formats import emit_edge_list, parse_edge_list
from conftest import flat_bridge_split, random_edges
import oracles


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate collapses
    assert g.n == 4
    assert g.edge_count == 2
    assert g.edges == [(0, 1), (1, 2)]
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbor_set(1) == {0, 2}
    assert len(g.neighbor_set(3)) == 0


def test_rejects_loops_and_bad_ids():
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(-1, [])


def test_components_match_bfs_oracle():
    rng = random.Random(100)
    for _ in range(150):
        n = rng.randint(0, 12)
        edges = random_edges(rng, n, rng.choice([0.05, 0.15, 0.4]))
        g = Graph(n, edges)
        comps = bit_components(g.adjacency_bits(), (1 << n) - 1)
        got = [[v for v in range(n) if comp >> v & 1] for comp in comps]
        assert got == oracles.components_bfs(n, edges)


def test_bridges_match_removal_oracle():
    rng = random.Random(101)
    for _ in range(150):
        n = rng.randint(2, 10)
        edges = random_edges(rng, n, rng.choice([0.15, 0.3, 0.5]))
        g = Graph(n, edges)
        assert flat_bridge_split(g)[0] == oracles.bridges_by_removal(n, edges)


def test_bridges_named_shapes(petersen):
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert flat_bridge_split(path)[0] == [(0, 1), (1, 2), (2, 3)]
    cycle = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert flat_bridge_split(cycle)[0] == []
    assert flat_bridge_split(petersen)[0] == []


def bridge_split_test_graphs():
    """Random graphs of order 0-14, sparse ones with isolated vertices and
    several components among them, and disjoint unions of cycles, paths
    and isolated vertices."""
    rng = random.Random(103)
    for _ in range(300):
        n = rng.randint(0, 14)
        yield n, random_edges(rng, n, rng.choice([0.05, 0.1, 0.2, 0.35, 0.6]))
    for _ in range(40):
        n, edges = 0, []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 5)
            edges += [(n + i, n + i + 1) for i in range(k - 1)]
            if k >= 3 and rng.random() < 0.5:
                edges.append((n, n + k - 1))
            n += k
        yield n, edges


def test_bridge_split_matches_oracles():
    disconnected = 0
    for n, edges in bridge_split_test_graphs():
        g = Graph(n, edges)
        bridges, atoms, connected = flat_bridge_split(g)
        assert bridges == oracles.bridges_by_removal(n, edges), edges
        assert atoms == list(oracles.two_edge_connected_components(n, edges)[0])
        assert connected == (len(oracles.components_bfs(n, edges)) == 1), edges
        # One (bridges, atoms) pair per component, by lowest vertex, each
        # sorted, its atoms covering the component and its bridges inside it.
        forest, comps = g.bridge_split(), oracles.components_bfs(n, edges)
        assert len(forest) == len(comps), edges
        for comp, (pairs, pieces) in zip(comps, forest):
            assert sorted(v for atom in pieces for v in atom) == comp
            assert pairs == sorted(pairs) and pieces == sorted(pieces)
            assert all(u in comp and v in comp for u, v in pairs)
            assert len(pieces) == len(pairs) + 1
        disconnected += n > 1 and not connected
    assert disconnected > 100


def test_bridge_split_long_path_needs_no_recursion():
    n = 20000
    path = Graph(n, [(i, i + 1) for i in range(n - 1)])
    bridges, atoms, connected = flat_bridge_split(path)
    assert len(bridges) == n - 1 and len(atoms) == n and connected


def test_internal_constructor_matches_public_one():
    """Parsed and induced graphs equal, and hash like, Graph(n, edges) built
    from their edges; labels carry over, and an empty label map is None."""
    rng = random.Random(104)
    for _ in range(200):
        n = rng.randint(0, 14)
        edges = random_edges(rng, n, rng.choice([0.1, 0.3, 0.6]))
        labels = {v: f"v{v}" for v in range(n) if rng.random() < 0.5}
        g = Graph(n, edges, labels)
        parsed = parse_edge_list(emit_edge_list(g))
        assert parsed == Graph(n, edges) and hash(parsed) == hash(g)
        assert parsed.edges == edges and parsed.labels is None
        text = "".join(f"{3 * u + 7} {3 * v + 7}\n" for u, v in edges)
        ids = sorted({x for e in edges for x in e})
        rank = {v: i for i, v in enumerate(ids)}
        want = Graph(
            len(ids),
            [(rank[u], rank[v]) for u, v in edges],
            {i: str(3 * v + 7) for i, v in enumerate(ids)},
        )
        relabelled = parse_edge_list(text)
        assert relabelled == want and hash(relabelled) == hash(want)
        assert relabelled.labels == (want.labels or None)
        vs = rng.sample(range(n), rng.randint(0, n))
        sub, mapping = g.induced_subgraph(vs)
        inside = [(u, v) for u, v in edges if u in mapping and v in mapping]
        want = Graph(len(vs), [(mapping[u], mapping[v]) for u, v in inside])
        assert sub == want and hash(sub) == hash(want)
        assert sorted(sub.edges) == sorted(want.edges)
        sub_labels = {mapping[v]: labels[v] for v in vs if v in labels}
        assert sub.labels == (sub_labels or None)
    assert Graph._of_adjacency([set(), set()], {}).labels is None


def test_graph_keeps_the_adjacency_sets_it_is_handed():
    """The internal constructor stores the sets themselves, not copies, and
    neighbor_set hands out the graph's own set; hashing reads them on
    demand, equal to a graph built from its edges."""
    adj = [{1}, {0, 2}, {1}]
    g = Graph._of_adjacency(adj)
    assert all(g.neighbor_set(v) is adj[v] for v in range(3))
    assert g == Graph(3, [(0, 1), (1, 2)]) and hash(g) == hash(Graph(3, [(0, 1), (1, 2)]))


def test_induced_subgraph_mapping(example1):
    sub, mapping = example1.induced_subgraph([0, 2, 3])
    assert sub.n == 3
    assert mapping == {0: 0, 2: 1, 3: 2}
    assert sub.edges == [(0, 1), (1, 2)]  # 0-2 and 2-3 survive
    with pytest.raises(GraphError):
        example1.induced_subgraph([0, 0, 1])


def test_remove_vertices(example1):
    """Deleting a vertex is inducing on the others."""
    h = example1.induced_subgraph([1, 2, 3, 4])[0]
    assert h.n == 4
    # only 1-2, 2-3, 3-4 survive, relabelled to 0..3
    assert h.edges == [(0, 1), (1, 2), (2, 3)]


def test_partition_violations():
    from minrank.graph import partition_violations

    assert partition_violations(4, [(0, 1), (2, 3)]) == []
    assert partition_violations(4, [(0, 1), (2,)])  # 3 uncovered
    assert partition_violations(4, [(0, 1), (1, 2, 3)])  # 1 twice
    assert partition_violations(2, [(0, 1, 5)])  # out of range


def test_adjacency_bits(example1):
    bits = example1.adjacency_bits()
    assert bits[0] == (1 << 1) | (1 << 2) | (1 << 4)
    assert bits[3] == (1 << 2) | (1 << 4)
