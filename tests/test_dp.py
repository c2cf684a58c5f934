"""Structured dynamic programming: merge formulas and the full solver.

The merge-formula expectations were frozen from the closed forms and then
cross-checked against brute force on concrete realizations, including the
two-triangles instance whose value the enumeration oracle pins at 2.
"""

import random
import re
from pathlib import Path

import pytest

from minrank import (
    Graph,
    SimpleTreeStructure,
    StructureError,
    default_registry,
    dp_minrank,
    minrank_bnb,
    parse_registry_spec,
    recognize,
    validate_structure,
)
from minrank.cli import solve_graph
from minrank.dp import atom_fold
from minrank.generator import generate_member
from conftest import delete_vertex, random_connected_in_budget
from oracles import (
    atom_fold_by_atom_tree, combine_shared_vertex, dp_fold_by_subset_table,
    minrank_bruteforce, star_merge,
)


@pytest.mark.parametrize(
    "args, want",
    [
        ((1, 1, 1, 1), 2),  # bowtie: two triangles sharing a vertex
        ((2, 2, 3, 2), 4),
        ((3, 2, 1, 0), 3),  # pendant absorbed when both ranks drop
        ((2, 1, 2, 1), 3),
        ((1, 0, 1, 0), 1),
    ],
)
def test_combine_shared_vertex_frozen(args, want):
    assert combine_shared_vertex(*args) == want


def test_combine_rejects_out_of_range():
    with pytest.raises(ValueError):
        combine_shared_vertex(2, 0, 1, 1)  # m1v below m1-1
    with pytest.raises(ValueError):
        combine_shared_vertex(1, 2, 1, 1)  # m1v above m1


def test_combine_matches_bruteforce_on_glued_graphs():
    rng = random.Random(600)
    for _ in range(30):
        g1 = random_connected_in_budget(rng, 4, edge_cap=4)
        g2 = random_connected_in_budget(rng, 4, edge_cap=4)
        v1 = rng.randrange(g1.n)
        v2 = rng.randrange(g2.n)
        # identify v2 of g2 with v1 of g1
        remap = {}
        nxt = g1.n
        for v in range(g2.n):
            if v == v2:
                remap[v] = v1
            else:
                remap[v] = nxt
                nxt += 1
        union = Graph(
            nxt, g1.edges + [(remap[a], remap[b]) for a, b in g2.edges]
        )
        got = combine_shared_vertex(
            minrank_bruteforce(g1).value,
            minrank_bruteforce(delete_vertex(g1, v1)).value,
            minrank_bruteforce(g2).value,
            minrank_bruteforce(delete_vertex(g2, v2)).value,
        )
        assert got == minrank_bruteforce(union).value


@pytest.mark.parametrize(
    "children, want",
    [
        ([(2, 1)], (2, 2)),
        ([(2, 2)], (3, 2)),
        ([(1, 1), (1, 0), (2, 2)], (4, 4)),
        ([(1, 0)], (1, 1)),
        ([(1, 1), (1, 1)], (3, 2)),
    ],
)
def test_star_merge_frozen(children, want):
    assert star_merge(children) == want


def test_star_merge_rejects_empty_and_bad_pairs():
    with pytest.raises(ValueError):
        star_merge([])
    with pytest.raises(ValueError):
        star_merge([(2, 0)])


def test_star_merge_matches_bruteforce_realizations():
    """Build the hub graph explicitly: a fresh vertex joined to one chosen
    vertex of each child graph."""
    rng = random.Random(601)
    built = drop_seen = nodrop_seen = 0
    while built < 30:
        r = rng.randint(1, 3)
        children, edges, uc_map = [], [], []
        nxt = 1  # vertex 0 is the hub
        for _ in range(r):
            child = random_connected_in_budget(rng, 4, edge_cap=4)
            off = nxt
            edges += [(a + off, b + off) for a, b in child.edges]
            uc = rng.randrange(child.n) + off
            edges.append((0, uc))
            children.append(child)
            uc_map.append((uc - off, off))
            nxt += child.n
        if len(edges) > 9:
            continue
        pairs = []
        for child, (uc_local, _) in zip(children, uc_map):
            m = minrank_bruteforce(child).value
            mv = minrank_bruteforce(delete_vertex(child, uc_local)).value
            pairs.append((m, mv))
        hub_graph = Graph(nxt, edges)
        want = minrank_bruteforce(hub_graph).value
        want_minus = minrank_bruteforce(delete_vertex(hub_graph, 0)).value
        got = star_merge(pairs)
        assert got == (want, want_minus)
        if any(mv == m - 1 for m, mv in pairs):
            drop_seen += 1
        else:
            nodrop_seen += 1
        built += 1
    assert drop_seen and nodrop_seen  # both formula branches exercised


def two_triangles_instance():
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    t = SimpleTreeStructure([(0, 1, 2), (3, 4, 5)], [-1, 0])
    return g, validate_structure(g, t, default_registry()).structure


def test_two_triangles_joined_by_edge():
    g, t = two_triangles_instance()
    res = dp_minrank(g, t, default_registry())
    assert res.value == 2
    assert res.value == minrank_bruteforce(g).value
    assert res.method == "dp"
    assert res.exact


def test_single_part_degenerates_to_family_oracle():
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    t = SimpleTreeStructure([(0, 1, 2, 3)], [-1])
    t = validate_structure(g, t, default_registry()).structure
    assert dp_minrank(g, t, default_registry()).value == 2


def test_dp_handles_connector_coincidence():
    """Middle part whose upward connector is also its downward connector."""
    g = Graph(
        7,
        [(0, 1), (0, 2), (1, 2), (3, 4), (5, 6), (0, 3), (3, 5)],
    )
    t = SimpleTreeStructure([(0, 1, 2), (3, 4), (5, 6)], [-1, 0, 1])
    t = validate_structure(g, t, default_registry()).structure
    assert t.uc[1] == 3 and 3 in t.dc[1]  # the coincidence is real
    res = dp_minrank(g, t, default_registry())
    assert res.value == minrank_bruteforce(g).value


def test_dp_minrank_refuses_a_component_structure_until_moved_onto_its_graph():
    """A structure that `recognize(..., tree=pair)` gives names one
    component's vertices on g's ids: `dp_minrank` on all of g refuses it,
    naming the other component's vertices as uncovered.  Moved onto the
    component's own graph, it folds to the component's min-rank."""
    g = Graph(10, [(0, 1), (1, 2), (0, 2),
                   (3, 4), (4, 5), (3, 5), (5, 6), (6, 7), (7, 8), (6, 8), (8, 9)])
    reg = default_registry()
    forest = g.bridge_split()
    assert len(forest) == 2
    for pair in forest:
        outcome = recognize(g, 2, reg, tree=pair)
        assert outcome.member
        t = outcome.structure
        vertices = sorted(v for atom in pair[1] for v in atom)
        others = [v for v in range(g.n) if v not in vertices]
        with pytest.raises(StructureError) as exc:
            dp_minrank(g, t, reg)
        assert f"vertices not covered by any part: {others}" in str(exc.value)
        sub, index = g.induced_subgraph(vertices)
        local = SimpleTreeStructure([[index[v] for v in p] for p in t.parts], t.parent)
        mask = sum(1 << v for v in vertices)
        assert dp_minrank(sub, local, reg).value == minrank_bnb(g, mask=mask).value


def test_dp_agrees_with_bnb_on_generated_members():
    reg = default_registry()
    checked = 0
    seed = 0
    while checked < 40:
        g, t = generate_member(seed, k=2 + seed % 3, c=2, part_order=(2, 5))
        seed += 1
        if g.n > 13:
            continue
        assert dp_minrank(g, t, reg).value == minrank_bnb(g).value
        checked += 1


FOLD_REGISTRIES = [default_registry()] + [
    parse_registry_spec(spec) for spec in ("chordal", "bounded:4", "bounded:5,chordal")
]


def random_bridge_tree(rng: random.Random, n_max: int = 16) -> Graph:
    """Random connected pieces of 1 to 6 vertices, each joined to an
    earlier one by a single edge between random vertices, n <= n_max."""
    pieces, edges, n = [], [], 0
    while True:
        piece = random_connected_in_budget(rng, 6)
        if n + piece.n > n_max:
            break
        edges += [(u + n, v + n) for u, v in piece.edges]
        if pieces:
            base, order = rng.choice(pieces)
            edges.append((base + rng.randrange(order), n + rng.randrange(piece.n)))
        pieces.append((n, piece.n))
        n += piece.n
    return Graph(n, edges)


def test_atom_fold_matches_bnb_on_random_bridge_trees():
    """Under four registries, the atom fold of a random bridge tree is
    exact and equals branch and bound, with one part, one trace node and
    two oracle calls (one at the root) per atom; it declines just when
    some atom is in no family."""
    rng = random.Random(2027)
    folded = declined = 0
    for _ in range(300):
        g = random_bridge_tree(rng)
        want = minrank_bnb(g).value
        ((_, atoms),) = g.bridge_split()
        for reg in FOLD_REGISTRIES:
            ((vertices, res),) = atom_fold(g, reg, trace=True)
            assert sorted(vertices) == list(range(g.n))
            if res is None:
                assert any(reg.claim(g, atom) is None for atom in atoms), g.edges
                declined += 1
                continue
            assert (res.value, res.method, res.exact) == (want, "dp", True), g.edges
            assert res.stats["parts"] == len(res.stats["trace"]["nodes"]) == len(atoms)
            assert res.stats["oracle_calls"] == 2 * len(atoms) - 1
            folded += 1
    assert folded >= 900 and declined >= 250


def random_bridge_forest(rng: random.Random) -> Graph:
    """Random bridge trees and isolated vertices side by side, n <= 40,
    with the vertex ids shuffled."""
    n_max, edges, n = rng.randint(1, 40), [], 0
    while True:
        piece = Graph(1) if rng.random() < 0.25 else random_bridge_tree(rng, rng.randint(2, 20))
        if n + piece.n > n_max:
            break
        edges += [(u + n, v + n) for u, v in piece.edges]
        n += piece.n
    ids = list(range(n))
    rng.shuffle(ids)
    return Graph(n, [(ids[u], ids[v]) for u, v in edges])


def test_atom_fold_matches_the_atom_tree_fold():
    """Folding atoms as the search closes them answers, per component, as
    rebuilding and folding the atom tree did: value, parts, oracle calls,
    declines and every trace node, matched by part, with the root atom
    last; and as branch and bound on the component, for inputs of at most
    16 vertices."""
    rng = random.Random(2030)
    folded = declined = small = split = 0
    for _ in range(250):
        g = random_bridge_forest(rng)
        forest = g.bridge_split()
        split += len(forest) > 1
        for reg in FOLD_REGISTRIES:
            folds = atom_fold(g, reg, trace=True)
            assert len(folds) == len(forest), g.edges
            for (vertices, res), tree in zip(folds, forest):
                assert sorted(vertices) == sorted(v for atom in tree[1] for v in atom)
                want = atom_fold_by_atom_tree(g, tree, reg, trace=True)
                if want is None:
                    assert res is None, g.edges
                    declined += 1
                    continue
                assert (res.value, res.method, res.exact) == (want.value, "dp", True)
                got_trace, want_trace = res.stats.pop("trace"), want.stats.pop("trace")
                assert res.stats == want.stats, g.edges
                nodes, want_nodes = (sorted(t["nodes"], key=lambda node: node["part"])
                                     for t in (got_trace, want_trace))
                assert nodes == want_nodes, g.edges
                order = got_trace["order"]
                assert order == [node["part"] for node in got_trace["nodes"]]
                assert sorted(order) == list(range(len(order))) and order[-1] == 0
                if g.n <= 16:
                    mask = sum(1 << v for v in vertices)
                    assert res.value == minrank_bnb(g, None, mask).value, g.edges
                    small += 1
                folded += 1
    assert split >= 150 and folded >= 2300 and declined >= 200 and small >= 500


def test_bounded_registry_folds_members_as_the_default_one():
    """Under bounded:6 every atom of two or more vertices of a member with
    parts of order 2-6 asks the bounded-order oracle, which cuts it at its
    cut vertices: auto's exact dp value equals the one under the default
    registry, whose chordal family claims the chordal atoms."""
    bounded, default = parse_registry_spec("bounded:6"), default_registry()
    for profile in ("mixed", "chordal"):
        for seed in range(16):
            g, _ = generate_member(seed, 5 + 5 * seed, 2, profile=profile, part_order=(2, 6))
            got, want = (solve_graph(g, "auto", reg, None, None) for reg in (bounded, default))
            assert (got.value, got.method, got.exact) == (want.value, "dp", True), (profile, seed)


def test_dp_value_is_structure_independent():
    """A second structure for the same graph gives the same value."""
    reg = default_registry()
    for seed in (2, 5, 11):
        g, t = generate_member(seed, k=3, c=2, part_order=(2, 4))
        outcome = recognize(g, 2, reg)
        assert outcome.member
        a = dp_minrank(g, t, reg).value
        b = dp_minrank(g, outcome.structure, reg).value
        assert a == b


def test_dp_rejects_invalid_structure():
    g, t = two_triangles_instance()
    broken = SimpleTreeStructure(t.parts, (-1, -1), {}, {})
    with pytest.raises(StructureError):
        dp_minrank(g, broken, default_registry())


def test_dp_rejects_unregistered_parts():
    g, t = two_triangles_instance()
    with pytest.raises(StructureError):
        dp_minrank(g, t, parse_registry_spec("bounded:2"))


def clique_with_pendants(d):
    """K_d on 0..d-1 with the pendant d + v hung off each vertex v."""
    edges = [(u, v) for v in range(d) for u in range(v)]
    return Graph(2 * d, edges + [(v, d + v) for v in range(d)])


def test_dp_subset_budget():
    """No part is refused for its connector count: the fold queries no
    connector subsets, so it needs no budget on them."""
    # a part with three downward connectors agrees with brute force
    g = Graph(
        6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]
    )
    t = SimpleTreeStructure([(0, 1, 2), (3,), (4,), (5,)], [-1, 0, 0, 0])
    t = validate_structure(g, t, default_registry()).structure
    assert dp_minrank(g, t, default_registry()).value == minrank_bruteforce(g).value
    # K_64 with pendants: 64 downward connectors on the clique, two queries
    # for each of the 64 pendant parts and one at the root
    g = clique_with_pendants(64)
    outcome = recognize(g, 64, default_registry())
    assert outcome.member and len(outcome.structure.parts) == 65
    res = dp_minrank(g, outcome.structure, default_registry())
    assert (res.value, res.exact, res.stats["oracle_calls"]) == (64, True, 129)


@pytest.mark.parametrize("profile", ["chordal", "bounded", "mixed"])
def test_dp_fold_matches_the_subset_table_fold(profile):
    """The two-query fold gives the value, and at every part the pair and
    hub values, of the fold that tabled every subset of a part's
    connectors: on generated members at connector bounds 1 to 8, parts whose
    upward connector is also a downward one among them, and on K_d with
    pendants at c = d, whose clique has d connectors."""
    reg = default_registry()
    cases = []
    for d in range(2, 9):
        g = clique_with_pendants(d)
        cases.append((g, recognize(g, d, reg).structure))
    for c in range(1, 9):
        for seed in range(8):
            orders = (4, 10) if profile == "chordal" and seed % 2 else (2, 6)
            cases.append(generate_member(seed, 4 + 6 * seed, c, profile=profile, part_order=orders))
    coincide = 0
    for g, t in cases:
        got = dp_minrank(g, t, reg, trace=True)
        report = validate_structure(g, t, reg)
        want = dp_fold_by_subset_table(report, trace=True)
        assert got.value == want.value
        assert got.stats["trace"] == want.stats["trace"]
        assert got.stats["oracle_calls"] == 2 * len(report.structure.parts) - 1
        s = report.structure
        coincide += sum(s.uc.get(i) in m for i, m in s.dc.items())
    assert len(cases) == 71 and coincide > 0


def test_dp_trace_records_tables():
    g, t = two_triangles_instance()
    res = dp_minrank(g, t, default_registry(), trace=True)
    trace = res.stats["trace"]
    assert trace["order"] == [1, 0]  # leaf first
    leaf = next(node for node in trace["nodes"] if node["part"] == 1)
    assert leaf["m_full"] == 1 and leaf["m_minus"] == 1
    root = next(node for node in trace["nodes"] if node["part"] == 0)
    # hub over connector 2: one child without rank drop gives (sum+1, sum)
    assert root["hub_values"]["2"] == [2, 1]
    assert res.stats["oracle_calls"] > 0


def test_readme_library_example(capsys):
    """The Library section of README.md runs as printed and prints 2, 2."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", library, re.S)[:1]
    exec(code, {})
    assert capsys.readouterr().out == "2\n2\n"
