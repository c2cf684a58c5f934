"""Graph container, components, bridges, and partition checks."""

import random

import pytest

from minrank import Graph, GraphError
from conftest import random_edges
import oracles


def test_basic_construction():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate collapses
    assert g.n == 4
    assert g.edge_count == 2
    assert g.edges == [(0, 1), (1, 2)]
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == (0, 2)
    assert g.degree(3) == 0


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
        assert g.connected_components() == oracles.components_bfs(n, edges)


def test_bridges_match_removal_oracle():
    rng = random.Random(101)
    for _ in range(150):
        n = rng.randint(2, 10)
        edges = random_edges(rng, n, rng.choice([0.15, 0.3, 0.5]))
        g = Graph(n, edges)
        assert g.bridges() == oracles.bridges_by_removal(n, edges)


def test_bridges_named_shapes(petersen):
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert path.bridges() == [(0, 1), (1, 2), (2, 3)]
    cycle = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert cycle.bridges() == []
    assert petersen.bridges() == []


def test_induced_subgraph_mapping(example1):
    sub, mapping = example1.induced_subgraph([0, 2, 3])
    assert sub.n == 3
    assert mapping == {0: 0, 2: 1, 3: 2}
    assert sub.edges == [(0, 1), (1, 2)]  # 0-2 and 2-3 survive
    with pytest.raises(GraphError):
        example1.induced_subgraph([0, 0, 1])


def test_remove_vertices(example1):
    h = example1.remove_vertices([0])
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
