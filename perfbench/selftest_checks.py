"""Each checker passes a right answer and rejects a planted wrong one.

Run from the repository root with

    python3 -m pytest -q perfbench/selftest_checks.py

The file name keeps it out of the default test collection, so the
package's own test run does not need networkx.
"""

import random

import networkx as nx
import pytest

import checks
import inputs

C5_G6 = nx.to_graph6_bytes(nx.cycle_graph(5), header=False).decode().strip()
K3_G6 = nx.to_graph6_bytes(nx.complete_graph(3), header=False).decode().strip()


def dp_record(value, **extra):
    return {"value": value, "method": "dp", "exact": True, **extra}


@pytest.mark.parametrize(
    "g, truth",
    [
        (nx.cycle_graph(5), 3),
        (nx.complete_graph(3), 1),
        (nx.empty_graph(3), 3),
        (nx.path_graph(3), 2),
        (nx.cycle_graph(4), 2),
    ],
)
def test_enumeration_known_values(g, truth):
    assert checks.enumerate_minrank(g) == truth


def test_tree_checker_on_a_chordal_member():
    # A tree is chordal; this caterpillar has independence number 6
    # ({0, 2, 4, 5, 6, 7}).
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (3, 6), (3, 7)]
    text = inputs.edge_list_text(8, edges)
    assert checks.check_tree(text, dp_record(6)) == []
    assert checks.check_tree(text, dp_record(7))  # off by one upward
    assert checks.check_tree(text, dp_record(5))  # off by one downward
    assert checks.check_tree(text, {"value": 6, "method": "bnb", "exact": True})
    assert checks.check_tree(text, {"value": 6, "method": "dp", "exact": False})


def test_tree_checker_bounds_on_a_non_chordal_member():
    # Two 5-cycles joined by a bridge: min-rank 5, alpha 4, and the
    # perfect matching gives n - 5 = 5.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (5, 6), (6, 7), (7, 8), (8, 9), (5, 9), (4, 5)]
    text = inputs.edge_list_text(10, edges)
    assert checks.check_tree(text, dp_record(5)) == []
    assert checks.check_tree(text, dp_record(3))
    assert checks.check_tree(text, dp_record(6))


def test_reject_checker():
    n, edges = inputs.reject_graph(random.Random(5), 12)
    text = inputs.edge_list_text(n, edges)
    assert checks.check_reject(text, {"member": False}) == []
    assert checks.check_reject(text, {"member": True})  # member reported


def test_certificate_refuses_members():
    # Two 5-cycles joined by one bridge: a member with c=2.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
             (5, 6), (6, 7), (7, 8), (8, 9), (5, 9), (4, 5)]
    assert checks.nonmember_certificate(nx.Graph(edges))
    # A star of triangles: chordal atoms, four attachments at the hub.
    star = nx.Graph([(0, 1), (1, 2), (0, 2), (0, 3)])
    star.add_edges_from([(1, 4), (2, 5), (3, 6)])
    assert checks.nonmember_certificate(star)
    # A graph that passes, with one bridge removed so it is disconnected.
    n, edges = inputs.reject_graph(random.Random(6), 8)
    g = nx.Graph(edges)
    g.add_nodes_from(range(n))
    assert checks.nonmember_certificate(g) == []
    g.remove_edge(*next(iter(nx.bridges(g))))
    assert checks.nonmember_certificate(g)


def test_corpus_checker():
    assert checks.check_corpus(C5_G6, {"value": 3, "exact": True}) == []
    assert checks.check_corpus(C5_G6, {"value": 2, "exact": True})  # below the truth
    assert checks.check_corpus(C5_G6, {"value": 4, "exact": False})  # above the cover
    assert checks.check_corpus(K3_G6, {"value": 1, "exact": False}) == []
    assert checks.check_corpus(K3_G6, {"value": 2, "exact": True})  # bounds meet at 1
