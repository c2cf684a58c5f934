"""Two-phase recognition: bridge splitting and root-by-root merging."""

import random

import pytest

from minrank import (
    Graph,
    GraphError,
    NotInFamilyError,
    default_registry,
    dp_minrank,
    mdc,
    minrank_bruteforce,
    parse_registry_spec,
    recognize,
    validate_structure,
)
from minrank.generator import generate_member, random_connected_graph
from minrank.recognizer import merge_phase, split_phase
import oracles


def triangles_with_bridge():
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])


def test_split_two_triangles():
    forest = split_phase(triangles_with_bridge(), default_registry())
    assert forest.atoms == ((0, 1, 2), (3, 4, 5))
    assert forest.links == {(0, 1): (2, 3)}


def test_split_tree_gives_singletons():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    forest = split_phase(path, default_registry())
    assert forest.atoms == ((0,), (1,), (2,), (3,))
    assert set(forest.links) == {(0, 1), (1, 2), (2, 3)}


def test_split_keeps_bridgeless_whole(petersen):
    forest = split_phase(petersen, default_registry())
    assert forest.atoms == (tuple(range(10)),)
    assert forest.links == {}


def split_test_graphs():
    """Connected graphs of order at most 14: paths, cycles, random sparse."""
    for n in range(1, 15):
        yield Graph(n, [(i, i + 1) for i in range(n - 1)])
        if n >= 3:
            yield Graph(n, [(i, (i + 1) % n) for i in range(n)])
    rng = random.Random(710)
    for _ in range(150):
        yield random_connected_graph(
            rng, rng.randint(1, 14), extra_p=rng.choice([0.0, 0.05, 0.1, 0.2, 0.4])
        )


def test_split_matches_bridge_definition():
    everything = parse_registry_spec("bounded:14")
    with_bridges = 0
    for g in split_test_graphs():
        want_atoms, want_links = oracles.two_edge_connected_components(g.n, g.edges)
        forest = split_phase(g, everything)
        assert forest.atoms == want_atoms, g.edges
        assert forest.links == want_links, g.edges
        with_bridges += bool(forest.links) and len(forest.atoms) < g.n
    assert with_bridges > 20  # atoms of several vertices joined by bridges


def test_recognize_finds_bridges_once(monkeypatch):
    g, _ = generate_member(5, k=40, c=2)
    calls = []
    original = Graph.bridges

    def counted(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(Graph, "bridges", counted)
    out = recognize(g, 2, default_registry())
    assert out.member
    assert calls == [g.n]


def test_split_events_list_every_bridge():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    events = []
    split_phase(path, default_registry(), events=events)
    assert events == [{"bridge": [0, 1]}, {"bridge": [1, 2]}, {"bridge": [2, 3]}]


def test_split_rejects_unregistered_atom():
    with pytest.raises(NotInFamilyError) as exc:
        split_phase(triangles_with_bridge(), parse_registry_spec("bounded:2"))
    assert exc.value.atom in ((0, 1, 2), (3, 4, 5))


def test_recognize_member_with_structure():
    g = triangles_with_bridge()
    out = recognize(g, 2, default_registry())
    assert out.member
    report = validate_structure(g, out.structure, default_registry())
    assert report.valid and report.mdc <= 2


def test_recognize_single_family_graph_immediate():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    out = recognize(tri, 1, default_registry(), explain=True)
    assert out.member
    assert len(out.structure.parts) == 1
    assert out.stats["explain"]["roots"][0].get("immediate")


def test_recognize_nonmember_cycle():
    c12 = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    out = recognize(c12, 2, default_registry())
    assert not out.member
    assert out.stats["phase"] == "split"
    assert out.failure_detail


def test_star_with_singleton_parts():
    """A high-degree center is fine: one connector vertex can serve any
    number of children."""
    k = 5
    star = Graph(k + 1, [(0, i) for i in range(1, k + 1)])
    out = recognize(star, 1, parse_registry_spec("bounded:1"))
    assert out.member
    assert mdc(out.structure) == 1
    report = validate_structure(star, out.structure, parse_registry_spec("bounded:1"))
    assert report.valid
    assert dp_minrank(star, out.structure, parse_registry_spec("bounded:1")).value \
        == minrank_bruteforce(star).value


def central_triangle_with_pendants():
    edges = [(0, 1), (0, 2), (1, 2)]
    nxt = 3
    for anchor in (0, 1, 2):
        a, b, c = nxt, nxt + 1, nxt + 2
        edges += [(a, b), (a, c), (b, c), (anchor, a)]
        nxt += 3
    return Graph(12, edges)


def test_merge_absorbs_when_connectors_exceed_bound():
    g = central_triangle_with_pendants()
    reg = parse_registry_spec("bounded:6")
    out = recognize(g, 2, reg, debug=True, explain=True)
    assert out.member
    parts = [tuple(p) for p in out.structure.parts]
    assert len(parts) == 3  # one absorbed pendant, two survivors
    assert mdc(out.structure) == 2
    visits = out.stats["explain"]["roots"][0]["visits"]
    absorbing = [v for v in visits if v.get("absorbed_parts")]
    assert len(absorbing) == 1
    assert len(absorbing[0]["absorbed_parts"]) == 1


def test_merge_prefers_widest_absorption():
    # with chordal available the whole graph collapses into one part
    g = central_triangle_with_pendants()
    out = recognize(g, 2, default_registry())
    assert out.member
    assert len(out.structure.parts) == 1


def test_merge_fails_when_no_subset_fits():
    g = central_triangle_with_pendants()
    out = recognize(g, 1, parse_registry_spec("bounded:3"))
    assert not out.member
    assert out.stats["phase"] == "merge"


def test_recognize_rejects_bad_inputs():
    with pytest.raises(GraphError):
        recognize(Graph(0, []), 2, default_registry())
    with pytest.raises(GraphError):
        recognize(Graph(2, []), 2, default_registry())  # disconnected
    with pytest.raises(GraphError):
        recognize(Graph(1, []), 0, default_registry())


def test_recognize_is_deterministic():
    g, _ = generate_member(21, k=4, c=2)
    first = recognize(g, 2, default_registry())
    second = recognize(g, 2, default_registry())
    assert first.structure.to_json() == second.structure.to_json()


def test_generated_members_recognized():
    reg = default_registry()
    for seed in range(40):
        g, t = generate_member(seed, k=2 + seed % 4, c=2, part_order=(2, 5))
        out = recognize(g, 2, reg)
        assert out.member, f"seed {seed} rejected"
        report = validate_structure(g, out.structure, reg)
        assert report.valid and report.mdc <= 2


def test_soundness_on_arbitrary_graphs():
    rng = random.Random(700)
    reg = default_registry()
    members = 0
    for _ in range(100):
        g = random_connected_graph(rng, rng.randint(1, 10), extra_p=0.25)
        out = recognize(g, 2, reg)
        if out.member:
            members += 1
            report = validate_structure(g, out.structure, reg)
            assert report.valid and report.mdc <= 2
    assert members > 0


def test_merge_phase_counts_roots():
    forest = split_phase(triangles_with_bridge(), default_registry())
    structure, roots = merge_phase(
        triangles_with_bridge(), forest, 2, default_registry()
    )
    assert roots == 1
    assert len(structure.parts) == 2
