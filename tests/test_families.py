"""Family oracles: chordal recognition and per-family min-rank."""

import random

import pytest

from minrank import (
    ChordalFamily,
    FamilyRegistry,
    Graph,
    default_registry,
    minrank_bruteforce,
    parse_registry_spec,
)
from minrank.exact import minrank_bnb
from minrank.families import (
    BoundedOrderFamily,
    elimination_order,
    is_perfect_elimination,
    minrank_across_bridges,
)
from minrank.generator import random_connected_chordal
from conftest import random_edges, random_graph_in_budget
import oracles


def test_chordal_recognition_named_shapes():
    fam = ChordalFamily()
    assert fam.is_member(Graph(1, []))
    assert fam.is_member(Graph(4, [(0, 1), (1, 2), (2, 3)]))  # path
    assert fam.is_member(Graph(3, [(0, 1), (0, 2), (1, 2)]))
    assert not fam.is_member(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))  # C4
    assert not fam.is_member(
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    )  # C5
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert fam.is_member(k5)


def test_chordal_recognition_matches_elimination_oracle():
    rng = random.Random(500)
    fam = ChordalFamily()
    agree = disagreeable = 0
    for _ in range(150):
        n = rng.randint(1, 9)
        edges = random_edges(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        g = Graph(n, edges)
        want = oracles.is_chordal_by_elimination(n, edges)
        assert fam.is_member(g) == want
        agree += 1
        disagreeable += 0 if want else 1
    assert agree == 150
    assert disagreeable > 10  # the sample really exercised both answers


def test_perfect_elimination_checker():
    tri_tail = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    order = elimination_order(tri_tail)
    assert is_perfect_elimination(tri_tail, order)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_perfect_elimination(c4, elimination_order(c4))


def test_chordal_minrank_is_exact():
    rng = random.Random(501)
    fam = ChordalFamily()
    checked = 0
    while checked < 40:
        g = random_connected_chordal(rng, rng.randint(1, 6))
        if 2 * g.edge_count > 18:
            continue
        assert fam.is_member(g)
        assert fam.minrank(g) == minrank_bruteforce(g).value
        checked += 1


def test_chordal_minrank_rejects_nonmembers():
    fam = ChordalFamily()
    with pytest.raises(ValueError):
        fam.minrank(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))


def test_chordal_family_is_hereditary():
    rng = random.Random(502)
    fam = ChordalFamily()
    for _ in range(30):
        g = random_connected_chordal(rng, rng.randint(2, 8))
        keep = sorted(
            rng.sample(range(g.n), rng.randint(1, g.n))
        )
        sub, _ = g.induced_subgraph(keep)
        assert fam.is_member(sub)


def test_bounded_family_contract():
    fam = BoundedOrderFamily(4)
    assert fam.name == "bounded:4"
    assert fam.is_member(Graph(4, [(0, 1)]))
    assert not fam.is_member(Graph(5, []))
    assert fam.minrank(Graph(3, [(0, 1), (1, 2)])) == 2
    with pytest.raises(ValueError):
        fam.minrank(Graph(5, []))


# A vertex with three pendant leaves bridged to a bridgeless 6-vertex piece,
# and a 5-cycle joined by one bridge to a 5-vertex piece: parts of order 10
# that dp_minrank hands to the bounded-order oracle on generated members.
BRIDGED_PARTS = [
    (10, [(0, 1), (0, 2), (0, 3), (0, 8), (4, 5), (4, 7), (4, 8), (4, 9),
          (5, 6), (5, 8), (6, 7), (7, 8), (7, 9), (8, 9)], 5),
    (10, [(0, 1), (0, 3), (1, 2), (2, 4), (2, 7), (3, 4), (5, 6), (5, 7),
          (5, 8), (5, 9), (6, 7), (7, 8), (7, 9)], 6),
]


def _bridged_graph(rng: random.Random) -> Graph:
    """Random graphs on 1-4 vertices, each tied to an earlier one by one edge."""
    edges = []
    n = 0
    while n < 9:
        size = rng.randint(1, min(4, 10 - n))
        edges += [(n + u, n + v) for u, v in random_edges(rng, size, 0.6)]
        if n:
            edges.append((rng.randrange(n), n + rng.randrange(size)))
        n += size
    return Graph(n, edges)


def test_minrank_across_bridges_matches_bnb():
    rng = random.Random(504)
    for _ in range(150):
        g = _bridged_graph(rng) if rng.random() < 0.7 else random_graph_in_budget(
            rng, 9, edge_cap=16
        )
        assert minrank_across_bridges(g) == minrank_bnb(g).value, g.edges
    for n, edges, want in BRIDGED_PARTS:
        g = Graph(n, edges)
        assert minrank_across_bridges(g) == want
        assert BoundedOrderFamily(10).minrank(g) == want


def test_minrank_across_bridges_matches_bruteforce():
    rng = random.Random(505)
    checked = 0
    while checked < 40:
        g = _bridged_graph(rng)
        if 2 * g.edge_count <= 18:
            assert minrank_across_bridges(g) == minrank_bruteforce(g).value
            checked += 1


def test_registry_first_match_wins():
    reg = default_registry()
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    fam = reg.lookup(tri)
    assert fam.name == "chordal"  # listed before the order fallback
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert reg.lookup(c4).name == "bounded:10"
    big_cycle = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    assert reg.lookup(big_cycle) is None


def test_registry_rejects_duplicate_names():
    with pytest.raises(ValueError):
        FamilyRegistry((ChordalFamily(), ChordalFamily()))


def test_parse_registry_spec():
    assert parse_registry_spec("chordal").names == ("chordal",)
    assert parse_registry_spec("bounded:3").names == ("bounded:3",)
    assert parse_registry_spec("chordal,bounded:10").names == (
        "chordal",
        "bounded:10",
    )
    assert parse_registry_spec("bounded").names == ("bounded:10",)
    for bad in ("", "unknown", "bounded:x", "bounded:0"):
        with pytest.raises(ValueError):
            parse_registry_spec(bad)


def test_bounded_minrank_agrees_with_bruteforce():
    rng = random.Random(503)
    fam = BoundedOrderFamily(6)
    for _ in range(40):
        g = random_graph_in_budget(rng, 6)
        assert fam.minrank(g) == minrank_bruteforce(g).value
