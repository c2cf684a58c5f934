"""Tree-of-parts structures: derivation, validation, serialization."""

import random

import pytest

from minrank import (
    Graph,
    SimpleTreeStructure,
    StructureError,
    default_registry,
    mdc,
    parse_registry_spec,
    validate_structure,
)
from minrank.structure import structure_to_dot, subtree_vertices


def two_triangles():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    t = SimpleTreeStructure.derive(g, [(0, 1, 2), (3, 4, 5)], [-1, 0])
    return g, t


def test_derive_reads_connectors():
    g, t = two_triangles()
    assert t.root == 0
    assert t.children(0) == [1]
    assert t.uc == {1: 3}
    assert t.dc == {0: {2: (1,)}}
    assert subtree_vertices(t, 0) == [0, 1, 2, 3, 4, 5]
    assert subtree_vertices(t, 1) == [3, 4, 5]


def test_derive_requires_single_link():
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])  # two edges cross the cut
    with pytest.raises(StructureError, match="2 edges"):
        SimpleTreeStructure.derive(g, [(0, 1), (2, 3)], [-1, 0])


def test_validate_good_structure():
    g, t = two_triangles()
    report = validate_structure(g, t, default_registry())
    assert report.valid
    assert report.violations == []
    assert report.mdc == 1
    assert report.families == ("chordal", "chordal")


def test_mdc_counts_distinct_vertices():
    # one hub vertex serving two children counts once
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    star_two = SimpleTreeStructure.derive(
        g, [(0, 1), (2,), (3,), (4,)], [-1, 0, 0, 0]
    )
    assert mdc(star_two) == 1
    # distinct serving vertices count separately
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    t = SimpleTreeStructure.derive(path, [(1, 2), (0,), (3,)], [-1, 0, 0])
    assert mdc(t) == 2


def test_json_round_trip():
    _, t = two_triangles()
    back = SimpleTreeStructure.from_json(t.to_json())
    assert back == t
    with pytest.raises(StructureError):
        SimpleTreeStructure.from_json("{not json")
    with pytest.raises(StructureError):
        SimpleTreeStructure.from_json('{"parts": 3}')


def violations_of(g, parts, parent, registry=None):
    t = SimpleTreeStructure.derive(g, parts, parent)
    report = validate_structure(g, t, registry or default_registry())
    return [rule for rule, _ in report.violations]


def test_validate_flags_partition_problems():
    g, t = two_triangles()
    # missing vertex 5
    bad = SimpleTreeStructure(((0, 1, 2), (3, 4)), (-1, 0), t.uc, t.dc)
    rules = [r for r, _ in validate_structure(g, bad, default_registry()).violations]
    assert "partition" in rules


def test_validate_flags_tree_problems():
    g, t = two_triangles()
    two_roots = SimpleTreeStructure(t.parts, (-1, -1), {}, {})
    rules = [
        r for r, _ in validate_structure(g, two_roots, default_registry()).violations
    ]
    assert "tree" in rules
    cycle = SimpleTreeStructure(t.parts, (1, 0), t.uc, t.dc)
    rules = [
        r for r, _ in validate_structure(g, cycle, default_registry()).violations
    ]
    assert "tree" in rules


def test_validate_flags_multi_edge_cut():
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    t = SimpleTreeStructure(((0, 1), (2, 3)), (-1, 0), {1: 2}, {0: {0: (1,)}})
    report = validate_structure(g, t, default_registry())
    assert not report.valid
    assert any(rule == "R2" for rule, _ in report.violations)


def test_validate_flags_cross_edge_tree_mismatch():
    # three parts in a path of cross edges, but parent claims a star
    g = Graph(3, [(0, 1), (1, 2)])
    t = SimpleTreeStructure(((0,), (1,), (2,)), (-1, 0, 0), {}, {})
    report = validate_structure(g, t, default_registry())
    assert not report.valid
    assert any(rule == "R3" for rule, _ in report.violations)


def test_validate_violation_list_is_exact():
    # Parts 0-1 and 1-2 share two edges each (R2); tree-adjacent parts 0
    # and 3 share none, and parts 2 and 3 share one without being
    # tree-adjacent (R3).
    g = Graph(8, [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5),
                  (4, 6), (0, 4), (1, 7)])
    t = SimpleTreeStructure(((0, 1), (2, 3), (4, 5), (6,), (7,)),
                            (-1, 0, 0, 0, 0), {}, {})
    report = validate_structure(g, t, default_registry())
    assert not report.valid
    assert report.violations == [
        ("R2", "parts 0 and 1 joined by 2 edges"),
        ("R2", "parts 1 and 2 joined by 2 edges"),
        ("R3", "tree-adjacent parts 0 and 3 share no edge"),
        ("R3", "parts 2 and 3 share an edge but are not tree-adjacent"),
    ]
    assert report.mdc is None and report.structure is None
    assert report.families == ("chordal",) * 5


def test_validate_returns_derived_structure():
    g, t = two_triangles()
    bare = SimpleTreeStructure(t.parts, t.parent, {}, {})
    report = validate_structure(g, bare, default_registry())
    assert report.valid
    assert report.structure == t


def test_validate_flags_unregistered_part():
    g, _ = two_triangles()
    registry = parse_registry_spec("bounded:2")  # triangles are too big
    t = SimpleTreeStructure.derive(g, [(0, 1, 2), (3, 4, 5)], [-1, 0])
    report = validate_structure(g, t, registry)
    assert not report.valid
    assert any(rule == "R1" for rule, _ in report.violations)
    assert report.families == (None, None)


def test_validate_flags_connector_mismatch():
    g, t = two_triangles()
    doctored = SimpleTreeStructure(t.parts, t.parent, {1: 4}, t.dc)
    report = validate_structure(g, doctored, default_registry())
    assert not report.valid
    assert any(rule == "connectors" for rule, _ in report.violations)


def test_dot_export():
    g, t = two_triangles()
    dot = structure_to_dot(g, t)
    assert "cluster" in dot
    assert "2 -- 3" in dot
