"""Tree-of-parts structures: derivation, validation, serialization."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from minrank import (
    Graph,
    SimpleTreeStructure,
    StructureError,
    default_registry,
    mdc,
    parse_registry_spec,
    validate_structure,
)
from minrank.structure import structure_to_dot


def derived(g, parts, parent):
    """The structure on `parts` and `parent`, with the connectors that
    validation reads off g."""
    t = SimpleTreeStructure(parts, parent)
    return validate_structure(g, t, default_registry()).structure


def two_triangles():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    return g, derived(g, [(0, 1, 2), (3, 4, 5)], [-1, 0])


def test_derive_reads_connectors():
    g, t = two_triangles()
    assert t.parent.index(-1) == 0
    assert t.parent == (-1, 0)  # part 1 is the only child of part 0
    assert t.uc == {1: 3}
    assert t.dc == {0: {2: (1,)}}
    assert 1 not in t.parent and t.parts[1] == (3, 4, 5)  # a leaf holding 3..5


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
    star_two = derived(g, [(0, 1), (2,), (3,), (4,)], [-1, 0, 0, 0])
    assert mdc(star_two) == 1
    # distinct serving vertices count separately
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    t = derived(path, [(1, 2), (0,), (3,)], [-1, 0, 0])
    assert mdc(t) == 2


def test_json_round_trip():
    _, t = two_triangles()
    back = SimpleTreeStructure.from_json(t.to_json())
    assert back == t
    with pytest.raises(StructureError):
        SimpleTreeStructure.from_json("{not json")
    with pytest.raises(StructureError):
        SimpleTreeStructure.from_json('{"parts": 3}')


@pytest.mark.parametrize(
    "doc",
    [
        '{"parts": [[0, 1], [2.5]], "parent": [-1, 0]}',
        '{"parts": [[0, 1], [Infinity]], "parent": [-1, 0]}',
        '{"parts": [[0, 1], [NaN]], "parent": [-1, 0]}',
        '{"parts": [[0, 1], ["2"]], "parent": [-1, 0]}',
        '{"parts": [[0, 1], [true]], "parent": [-1, 0]}',
        '{"parts": [[0, 1], [2]], "parent": [-1, 0.0]}',
        '{"parts": [[0, 1], [2]], "parent": [-1, false]}',
        '{"parts": [[0, 1], [2]], "parent": [-1, 0], "uc": {"1": 2.0}}',
        '{"parts": [[0, 1], [2]], "parent": [-1, 0], "dc": {"0": {"1": ["1"]}}}',
        '{"parts": [[0, 1], [2]], "parent": [-1, 0], "dc": {"0": {"1": [true]}}}',
    ],
)
def test_from_json_takes_only_integer_ids(doc):
    """On the path 0-1-2, an id that is a float, string or bool is neither
    truncated nor read as a number."""
    with pytest.raises(StructureError, match="is not an integer"):
        SimpleTreeStructure.from_json(doc)


# Keys that `int()` reads as a number but that no `to_json_dict` writes.
NONCANONICAL_KEYS = ["01", "-1", " +1 ", "1_0", "\u0661", "+1", "-0", "1\n"]


@pytest.mark.parametrize("key", NONCANONICAL_KEYS)
def test_from_json_takes_only_canonical_decimal_keys(key):
    """On the path 0-1-2 with parts [0, 1] and [2], a `uc` or `dc` key
    that is not a canonical non-negative ASCII decimal is refused rather
    than read as part 1 (or 10, or 0)."""
    base = {"parts": [[0, 1], [2]], "parent": [-1, 0]}
    for connectors in ({"uc": {key: 2}}, {"dc": {key: {"1": [1]}}}, {"dc": {"0": {key: [1]}}}):
        with pytest.raises(StructureError, match="not a canonical"):
            SimpleTreeStructure.from_json(json.dumps({**base, **connectors}))
    canonical = {**base, "uc": {"1": 2}, "dc": {"0": {"1": [1]}}}
    t = SimpleTreeStructure.from_json(json.dumps(canonical))
    assert (t.uc, t.dc) == ({1: 2}, {0: {1: (1,)}})


JSON_VALUES = st.one_of(
    st.integers(-2, 6), st.floats(), st.text(max_size=2), st.booleans(), st.none()
)
KEYS = st.one_of(st.integers(0, 4).map(str), st.sampled_from(NONCANONICAL_KEYS))


@settings(derandomize=True, deadline=500, max_examples=100)
@given(
    st.lists(st.lists(JSON_VALUES, max_size=3), max_size=3),
    st.lists(JSON_VALUES, max_size=3),
    st.dictionaries(KEYS, JSON_VALUES, max_size=2),
    st.dictionaries(KEYS, st.dictionaries(KEYS, st.lists(JSON_VALUES, max_size=2), max_size=2),
                    max_size=2),
)
def test_from_json_returns_a_structure_only_for_integer_ids(parts, parent, uc, dc):
    """Documents holding ints, floats (Infinity and NaN among them), strings,
    bools and null, with canonical and other decimal keys: a structure
    exactly when every id is a JSON integer and every key canonical, else
    StructureError."""
    doc = json.dumps({"parts": parts, "parent": parent, "uc": uc, "dc": dc})
    ids = [v for p in parts for v in p] + parent + list(uc.values())
    ids += [j for m in dc.values() for js in m.values() for j in js]
    keys = [*uc, *dc, *(u for m in dc.values() for u in m)]
    if all(type(v) is int for v in ids) and not set(keys) & set(NONCANONICAL_KEYS):
        t = SimpleTreeStructure.from_json(doc)
        assert t.parts == tuple(map(tuple, parts)) and t.parent == tuple(parent)
        assert t.uc == {int(i): v for i, v in uc.items()}
    else:
        with pytest.raises(StructureError):
            SimpleTreeStructure.from_json(doc)


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


def test_parent_cycle_with_tail_flags_every_part_off_the_root():
    """Parts 3, 4, 5 form a parent cycle, and 0 -> 6 -> 3 hangs off it;
    2 and 7 reach the root through known parts.  Lists pinned from the
    walk that started afresh at every part."""
    g = Graph(8, [])
    parts = tuple((v,) for v in range(8))
    t = SimpleTreeStructure(parts, (6, -1, 1, 4, 5, 3, 3, 2), {}, {})
    report = validate_structure(g, t, default_registry())
    assert report.violations == [
        ("tree", f"parent cycle through part {i}") for i in (0, 3, 4, 5, 6)
    ]
    t = SimpleTreeStructure(parts, (2, -1, 3, 0, 1, 4, 4, 6), {}, {})
    report = validate_structure(g, t, default_registry())
    assert report.violations == [
        ("tree", f"parent cycle through part {i}") for i in (0, 2, 3)
    ]


def test_validate_flags_multi_edge_cut():
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    t = SimpleTreeStructure(((0, 1), (2, 3)), (-1, 0), {1: 2}, {0: {0: (1,)}})
    report = validate_structure(g, t, default_registry())
    assert not report.valid
    assert any(rule == "R2" for rule, _ in report.violations)


@pytest.mark.parametrize(
    "parent, detail",
    [
        ((-1,), "parent array length 1 != part count 2"),
        ((-1, 0, 0), "parent array length 3 != part count 2"),
        ((-1, 2), "part 1 has out-of-range parent 2"),
        ((-1, -3), "part 1 has out-of-range parent -3"),
    ],
)
def test_validate_flags_bad_parent_array(parent, detail):
    """A parent array of the wrong length, or naming no part, is a tree
    violation, and the only one the tree check then reports."""
    g, t = two_triangles()
    report = validate_structure(g, SimpleTreeStructure(t.parts, parent, {}, {}),
                                default_registry())
    assert ("tree", detail) in report.violations and not report.valid
    assert [r for r, _ in report.violations].count("tree") == 1


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
    t = derived(g, [(0, 1, 2), (3, 4, 5)], [-1, 0])
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


def test_validate_flags_stored_dc_mismatch():
    """A stored downward-connector map that is not the derived one is a
    connector violation."""
    g, t = two_triangles()
    doctored = SimpleTreeStructure(t.parts, t.parent, t.uc, {0: {1: (1,)}})
    report = validate_structure(g, doctored, default_registry())
    assert not report.valid
    assert report.violations == [
        ("connectors", f"stored dc map {{0: {{1: (1,)}}}} != derived {t.dc}")
    ]


def test_mdc_of_no_parts_is_zero():
    assert mdc(SimpleTreeStructure((), (), {}, {})) == 0


def test_dot_export():
    g, t = two_triangles()
    dot = structure_to_dot(g, t)
    assert "cluster" in dot
    assert "2 -- 3" in dot
