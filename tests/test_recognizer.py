"""Two-phase recognition: bridge splitting and root-by-root merging."""

import random
import sys
from collections import Counter
from itertools import combinations

import pytest

from minrank import (
    FamilyRegistry,
    Graph,
    GraphError,
    NotInFamilyError,
    default_registry,
    dp_minrank,
    mdc,
    parse_registry_spec,
    recognize,
    validate_structure,
)
from minrank import cli, families
from minrank.generator import generate_member, random_connected_graph
from minrank.recognizer import merge_phase, split_phase
from minrank.structure import SimpleTreeStructure
import oracles
from oracles import minrank_bruteforce


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
    original = Graph.bridge_split

    def counted(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(Graph, "bridge_split", counted)
    out = recognize(g, 2, default_registry())
    assert out.member
    assert calls == [g.n]


def test_split_events_list_every_bridge():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    events = recognize(path, 2, default_registry(), explain=True).stats["explain"]["splits"]
    assert events == [{"bridge": [0, 1]}, {"bridge": [1, 2]}, {"bridge": [2, 3]}]
    # A split that fails still lists every bridge.
    out = recognize(triangles_with_bridge(), 2, parse_registry_spec("bounded:2"), explain=True)
    assert out.stats["phase"] == "split"
    assert out.stats["explain"]["splits"] == [{"bridge": [2, 3]}]


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
    out = recognize(g, 2, reg, explain=True)
    assert out.member and validate_structure(g, out.structure, reg).valid
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


def test_recognize_input_errors_keep_their_order():
    """The empty graph, then a disconnected one, then a bound below 1."""
    empty = "cannot recognize the empty graph"
    apart = "recognition needs a connected graph; decompose first"
    bound = "connector bound must be positive, got 0"
    cases = [
        (Graph(0), 0, empty),
        (Graph(0), 2, empty),
        (Graph(2), 0, apart),
        (Graph(3, [(0, 1)]), 2, apart),
        (Graph(4, [(0, 1), (2, 3)]), -1, apart),
        (Graph(1), 0, bound),
        (Graph(2, [(0, 1)]), 0, bound),
    ]
    for g, c, want in cases:
        with pytest.raises(GraphError) as exc:
            recognize(g, c, default_registry())
        assert str(exc.value) == want


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
    structure, roots = merge_phase(forest, 2)
    assert roots == 1
    assert len(structure.parts) == 2


MERGE_REGISTRIES = ("chordal,bounded:10", "bounded:3", "bounded:5", "chordal", "bounded:1")


def merge_test_cases():
    """Random connected graphs (n <= 40) and generated members, c in 1..3."""
    rng = random.Random(712)
    for i in range(3000):
        c = rng.choice((1, 2, 3))
        spec = rng.choice(MERGE_REGISTRIES)
        if i % 3 == 2:
            g, _ = generate_member(
                rng.randrange(1 << 30), rng.randint(2, 12), rng.choice((1, 2, 3)),
                part_order=(1, 5),
            )
        else:
            g = random_connected_graph(
                rng, rng.randint(1, 40), extra_p=rng.choice([0.0, 0.02, 0.04, 0.08])
            )
        yield g, c, parse_registry_spec(spec)


def test_merge_phase_matches_every_root_reference():
    late_members = rejects = 0
    for g, c, reg in merge_test_cases():
        try:
            forest = split_phase(g, reg)
        except NotInFamilyError:
            continue

        def in_family(vertices):
            sub = g.induced_subgraph(sorted(vertices))[0]
            return oracles.registry_lookup(reg, sub) is not None

        member, roots, parts, parents = oracles.merge_every_root(
            forest.atoms, forest.links, c, in_family
        )
        # The traced merge walks every root; the untraced one may stop
        # early, but must answer, and fail, exactly as the traced one.
        trace, runs = [], []
        for t in (trace, None):
            try:
                runs.append(merge_phase(forest, c, trace=t))
            except NotInFamilyError as exc:
                runs.append(exc.detail)
        traced, plain = runs
        assert len(trace) == roots, g.edges
        if not member:
            assert isinstance(traced, str) and traced == plain, g.edges
            rejects += 1
            continue
        for structure, tried in (traced, plain):
            assert tried == roots, g.edges
            assert [tuple(p) for p in structure.parts] == parts, g.edges
            assert list(structure.parent) == parents, g.edges
        late_members += roots > 1
    assert late_members >= 10
    assert rejects >= 10


def oracle_family(spec):
    """`in_family(order, edges)` for a registry spec, decided apart from the
    package: chordality by simplicial elimination, bounded:k by order."""
    tests = []
    for item in spec.split(","):
        if item == "chordal":
            tests.append(oracles.is_chordal_by_elimination)
        else:
            bound = int(item.split(":")[1])
            tests.append(lambda n, edges, bound=bound: n <= bound)
    return lambda n, edges: any(t(n, edges) for t in tests)


def bridged_blocks(rng, n):
    """A connected graph on n vertices: dense random blocks joined by single
    edges along a random tree.  The first block, of 3-4 vertices, mostly
    takes the others at vertices of its own not used yet, so that merging
    often has to shed connectors."""
    order = list(range(n))
    rng.shuffle(order)
    size = rng.randint(3, 4)
    blocks, edges, free = [], [], order[:size]
    while order:
        block, order = order[:size], order[size:]
        edges += zip(block, block[1:])  # a path keeps the block connected
        edges += [e for e in combinations(block, 2) if rng.random() < 0.6]
        if blocks:
            if free and rng.random() < 0.8:
                x = free.pop(rng.randrange(len(free)))
            else:
                x = rng.choice(rng.choice(blocks))
            edges.append((x, rng.choice(block)))
        blocks.append(block)
        size = rng.randint(1, 2)
    return Graph(n, sorted({(min(e), max(e)) for e in edges}))


def test_recognize_agrees_with_exhaustive_structure_search():
    """Completeness as well as soundness: on random connected graphs of up
    to 7 vertices, recognize finds a structure exactly when some partition
    of the vertices forms one under some root."""
    rng = random.Random(1103)
    seen = Counter()
    for i in range(1600):
        if i % 4 == 0:
            n = rng.randint(1, 7)
            g = random_connected_graph(rng, n, extra_p=rng.choice([0.0, 0.1, 0.3]))
        else:
            n = rng.randint(5, 7)
            g = bridged_blocks(rng, n)
        spec = rng.choice(("chordal", "bounded:3", "bounded:1", "chordal,bounded:4"))
        c = rng.choice((1, 1, 2))  # only c = 1 rejects in merge below 8 vertices
        want = oracles.structure_exists(n, g.edges, c, oracle_family(spec))
        out = recognize(g, c, parse_registry_spec(spec))
        assert out.member == want, (n, g.edges, spec, c)
        if out.member:
            seen["merged" if out.stats["decisions"] else "as cut"] += 1
            seen["late root"] += out.roots_tried > 1
        else:
            seen[out.stats["phase"] + " rejection"] += 1
    kinds = ("as cut", "merged", "late root", "split rejection", "merge rejection")
    assert min(seen[k] for k in kinds) >= 10, seen


def chorded_hexagon_tree(rng, h):
    """h 6-cycles, each with one chord and 4 attachment vertices, joined by
    bridges along a random recursive tree.  Atom 0's first four children
    hang from its four attachment vertices, so no root admits c = 2."""
    edges = []
    for a in range(h):
        base = 6 * a
        edges += [(base + i, base + (i + 1) % 6) for i in range(6)]
        edges.append((base, base + rng.choice((2, 3))))
    pools = [[6 * a + x for x in rng.sample(range(6), 4)] for a in range(h)]
    for j in range(1, h):
        x = pools[0][j - 1] if j <= 4 else rng.choice(pools[rng.randrange(j)])
        edges.append((x, rng.choice(pools[j])))
    return Graph(6 * h, edges)


def test_merge_decides_each_atom_parent_pair_once():
    """Walking every root, as a trace does, decides each directed (atom,
    parent) pair at most once.  Without a trace the walk stops once the
    atom behind a failure fails under every parent, which here takes fewer
    than h decisions, and the answer still counts every root."""
    h = 400
    g = chorded_hexagon_tree(random.Random(4), h)
    out = recognize(g, 2, default_registry())
    assert not out.member and out.stats["phase"] == "merge"
    assert out.stats["atoms"] == out.roots_tried == h
    traced = recognize(g, 2, default_registry(), explain=True)
    assert len(traced.stats["explain"]["roots"]) == h
    assert traced.failure_detail == out.failure_detail
    assert 0 < out.stats["decisions"] < h < traced.stats["decisions"] <= 3 * h


def test_merge_sheds_down_a_deep_path():
    """3000 bridged 4-cycles in a path; three pendants at distinct vertices
    of the last one force greedy shedding 3000 atoms deep under root 0."""
    k = 3000
    edges = []
    for a in range(k):
        edges += [(4 * a + i, 4 * a + (i + 1) % 4) for i in range(4)]
        if a:
            edges.append((4 * a - 2, 4 * a))
    n = 4 * k
    edges += [(n - 4 + i, n + i) for i in range(3)]
    out = recognize(Graph(n + 3, edges), 2, default_registry())
    assert out.member and out.roots_tried == 1
    assert len(out.structure.parts) == k
    assert out.structure.parts[-1] == (n - 4, n - 3, n - 2, n - 1, n, n + 1, n + 2)


def test_merge_glues_without_induced_subgraphs(monkeypatch):
    """The all-chordal k=640 member merges into one part.  Its unions'
    membership comes from the atoms' flags, so merge builds no subgraph."""
    g, _ = generate_member(3, 640, 2, profile="chordal", part_order=(2, 6))
    reg = default_registry()
    forest = split_phase(g, reg)
    calls = []
    real = Graph.induced_subgraph

    def counted(self, vertices):
        calls.append(self.n)
        return real(self, vertices)

    monkeypatch.setattr(Graph, "induced_subgraph", counted)
    structure, roots = merge_phase(forest, 2)
    assert len(forest.atoms) > 1000 and len(structure.parts) == 1
    assert calls == []


def test_split_tests_atoms_in_place(monkeypatch):
    """A bridged chain of 60 non-chordal atoms of order 6-8: bounded:10
    holds every atom outright, so neither splitting nor recognition, which
    accepts the atom tree at once and reads no family, tests any of them;
    dp's validation then tests each part once, on the graph itself, and
    the bounded:10 solver induces nothing, so no subgraph is induced."""
    rng = random.Random(9)
    edges, n, last = [], 0, None
    for _ in range(60):
        order = rng.randint(6, 8)
        edges += [(n + i, n + (i + 1) % order) for i in range(order)]
        edges.append((n, n + 3))  # leaves the 4-cycle n..n+3 chordless
        if last is not None:
            edges.append((last, n + rng.randrange(order)))
        last = n + rng.randrange(order)
        n += order
    g = Graph(n, edges)
    calls = []
    real = Graph.induced_subgraph

    def counted(self, vertices):
        calls.append(self.n)
        return real(self, vertices)

    monkeypatch.setattr(Graph, "induced_subgraph", counted)
    tests = []
    real_test = families.perfect_elimination_order

    def counted_test(h, vertices=None):
        tests.append(h.n)
        return real_test(h, vertices)

    monkeypatch.setattr(families, "perfect_elimination_order", counted_test)
    forest = split_phase(g, default_registry())
    assert len(forest.atoms) == 60 and max(map(len, forest.atoms)) <= 10
    assert tests == []
    reg = default_registry()
    out = recognize(g, 2, reg)
    assert out.member and len(out.structure.parts) == 60
    assert tests == []
    res = dp_minrank(g, out.structure, reg, trace=True)
    assert {node["family"] for node in res.stats["trace"]["nodes"]} == {"bounded:10"}
    assert calls == [] and len(tests) == 60


def star_of_atoms(h):
    """A chorded 6-cycle with h - 1 bridged 4-cycles hung from four of its
    vertices: no root admits c = 2."""
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
    for j in range(1, h):
        b = 6 + 4 * (j - 1)
        edges += [(b + i, b + (i + 1) % 4) for i in range(4)]
        edges.append(((0, 1, 3, 4)[j % 4], b))
    return Graph(6 + 4 * (h - 1), edges)


@pytest.mark.parametrize("h", [50, 400])
def test_star_rejection_makes_one_chordality_test(monkeypatch, h):
    """Every atom of the star has order at most 10, so splitting tests none,
    and every union merging tries at the centre is too large for bounded:10
    and needs the chordal bit, which the centre, read first, lacks: one
    chordality test in all, where deciding every atom made h.  The answer is
    the one a forest decided before merging gives."""
    g, reg = star_of_atoms(h), default_registry()
    want = oracles.recognize_decided_first(g, 2, reg)[:3]
    tests = []
    real = families.perfect_elimination_order

    def counted(graph, vertices=None):
        tests.append(graph.n)
        return real(graph, vertices)

    monkeypatch.setattr(families, "perfect_elimination_order", counted)
    out = recognize(g, 2, reg)
    assert len(tests) == 1
    assert (out.member, out.roots_tried, out.failure_detail) == want
    assert not out.member and out.roots_tried == h


def test_chordality_tested_once_per_atom_and_part(monkeypatch):
    """Splitting tests each atom, and dp's validation each part, once;
    merging and the dp fold test nothing."""
    member, _ = generate_member(5, 160, 2, profile="mixed", part_order=(2, 6))
    calls = []
    real = families.perfect_elimination_order

    def counted(g, vertices=None):
        calls.append(g.n)
        return real(g, vertices)

    monkeypatch.setattr(families, "perfect_elimination_order", counted)
    reg = default_registry()
    out = recognize(star_of_atoms(400), 2, reg)
    assert not out.member and out.roots_tried == out.stats["atoms"] == 400
    assert len(calls) <= 400
    calls.clear()
    out = recognize(member, 2, reg)
    dp_minrank(member, out.structure, reg)
    assert len(calls) <= out.stats["atoms"] + out.stats["parts"]


def test_explain_lists_each_decision_once():
    g = central_triangle_with_pendants()
    out = recognize(g, 1, parse_registry_spec("bounded:3"), explain=True)
    assert not out.member
    roots = out.stats["explain"]["roots"]
    assert [r["root"] for r in roots] == list(range(out.roots_tried))
    assert all(not r["accepted"] and r["failure"] for r in roots)
    seen = [(tuple(v["part"]), v["parent"]) for r in roots for v in r["visits"]]
    assert len(seen) == len(set(seen)) <= out.stats["decisions"]


REPORT_REGISTRIES = ("chordal,bounded:10", "chordal", "bounded:3", "bounded:1")


def report_test_cases():
    """Generated members of every profile and random connected graphs
    (n <= 40), c in 1..3, under each registry of REPORT_REGISTRIES.  Most
    members are generated with a looser connector bound than the one they
    are recognised with, so that merging has to absorb atoms."""
    rng = random.Random(713)
    for i in range(1000):
        c = rng.choice((1, 2, 3))
        reg = parse_registry_spec(rng.choice(REPORT_REGISTRIES))
        if i % 2:
            g, _ = generate_member(
                rng.randrange(1 << 30), rng.randint(1, 12), c + rng.randint(0, 2),
                profile=rng.choice(("mixed", "chordal", "bounded")),
                part_order=(1, 5),
            )
        else:
            g = random_connected_graph(
                rng, rng.randint(1, 40), extra_p=rng.choice([0.0, 0.02, 0.04, 0.08])
            )
        yield g, c, reg


def test_recognized_structures_validate():
    """Every structure recognize accepts validates, with at most c
    connectors per part and the connectors recognition read off the
    bridges, and its dp fold answers as auto's fold of the atoms."""
    accepted = merged = 0
    for g, c, reg in report_test_cases():
        out = recognize(g, c, reg)
        if not out.member:
            continue
        report = validate_structure(g, out.structure, reg)
        assert report.valid and report.violations == [] and report.mdc <= c, g.edges
        assert report.structure.to_json() == out.structure.to_json(), g.edges
        got = dp_minrank(g, out.structure, reg)
        want = cli.solve_graph(g, "auto", reg, None, None)
        assert (got.method, got.value, got.exact) == ("dp", want.value, True), g.edges
        assert (want.method, want.exact) == ("dp", True), g.edges
        accepted += 1
        merged += len(out.structure.parts) < out.stats["atoms"]
    assert accepted >= 400 and merged >= 40


def merged_member():
    """A member some of whose parts merging makes of several atoms, its
    atoms and those parts' indices in the structure recognised at c = 2."""
    g, _ = generate_member(5, 160, 2, profile="mixed", part_order=(2, 6))
    atoms = split_phase(g, default_registry()).atoms
    atom_of = {v: a for a, atom in enumerate(atoms) for v in atom}
    structure = recognize(g, 2, default_registry()).structure
    merged = [i for i, p in enumerate(structure.parts) if len({atom_of[v] for v in p}) > 1]
    assert 0 < len(merged) < len(structure.parts)
    return g, atoms, structure, merged


def test_auto_solve_validates_nothing(monkeypatch):
    """The auto path folds the atom tree: no structure is validated, and
    chordality is tested at most once per atom."""
    g, atoms, structure, _ = merged_member()
    reg = default_registry()
    want = dp_minrank(g, structure, reg).value

    validations, tests = [], []
    real_validate = validate_structure
    real_test = families.perfect_elimination_order

    def counted_validate(*args):
        validations.append(args)
        return real_validate(*args)

    def counted_test(h, vertices=None):
        tests.append(h.n)
        return real_test(h, vertices)

    for name, module in list(sys.modules.items()):
        if name.startswith("minrank") and hasattr(module, "validate_structure"):
            monkeypatch.setattr(module, "validate_structure", counted_validate)
    monkeypatch.setattr(families, "perfect_elimination_order", counted_test)
    res = cli.solve_graph(g, "auto", reg, None, None)
    assert (res.method, res.value, res.exact) == ("dp", want, True)
    assert validations == []
    assert len(tests) <= len(atoms)


def test_recognize_tests_chordality_on_atoms_only(monkeypatch):
    """Recognition tests chordality on atoms only, never on a part merged
    of several atoms."""
    g, atoms, _, merged = merged_member()
    tested = []
    real_test = families.perfect_elimination_order

    def counted_test(h, vertices=None):
        tested.append(tuple(vertices))
        return real_test(h, vertices)

    monkeypatch.setattr(families, "perfect_elimination_order", counted_test)
    out = recognize(g, 2, default_registry())
    assert out.member and merged
    assert set(tested) <= set(atoms)


def test_recognize_derives_no_structure(monkeypatch):
    """Recognition reads the connectors of the structure it accepts off the
    bridges that merging kept: no structure is validated, which is where
    connectors are otherwise read off the graph."""
    calls = []

    def counted(*args):
        calls.append(args)
        return validate_structure(*args)

    reg = default_registry()
    for seed, profile in ((5, "mixed"), (0, "chordal")):
        g, _ = generate_member(seed, 40, 2, profile=profile)
        for name, module in list(sys.modules.items()):
            if name.startswith("minrank") and hasattr(module, "validate_structure"):
                monkeypatch.setattr(module, "validate_structure", counted)
        out = recognize(g, 2, reg)
        monkeypatch.undo()
        assert out.member and len(out.structure.parts) < out.stats["atoms"]
        assert calls == []
        bare = SimpleTreeStructure(out.structure.parts, out.structure.parent)
        assert out.structure == validate_structure(g, bare, reg).structure


def disjoint_members():
    """Two generated members side by side and an isolated vertex."""
    a, _ = generate_member(5, 40, 2, profile="mixed")
    b, _ = generate_member(8, 10, 2, profile="chordal")
    edges = [*a.edges, *((u + a.n, v + a.n) for u, v in b.edges)]
    return Graph(a.n + b.n + 1, edges)


@pytest.mark.parametrize("connected", [True, False], ids=["connected", "disconnected"])
def test_auto_solve_searches_the_graph_once(monkeypatch, connected):
    """An auto solve folds every component's atoms as one search of the
    input closes them: it runs `closed_atoms` once and `bridge_split` never,
    copies no component, and claims a family once per atom of two or more
    vertices, none for a one-vertex atom; the bounded-order oracle finds its
    bridges on bitsets, so no other graph is searched."""
    g = generate_member(5, 40, 2, profile="mixed")[0] if connected else disjoint_members()
    atoms = [atom for _, tree_atoms in g.bridge_split() for atom in tree_atoms]
    assert any(len(atom) == 1 for atom in atoms)
    searches, copies, claims = [], [], []
    real_search, real_induced = Graph.closed_atoms, Graph.induced_subgraph
    real_claim = FamilyRegistry.claim

    def counted_search(self):
        searches.append(self is g)
        return real_search(self)

    def refuse_split(self):
        raise AssertionError("the auto path collected a bridge split")

    def counted_induced(self, vertices):
        copies.append(self.n)
        return real_induced(self, vertices)

    def counted_claim(self, h, part):
        claims.append(tuple(part))
        return real_claim(self, h, part)

    monkeypatch.setattr(Graph, "closed_atoms", counted_search)
    monkeypatch.setattr(Graph, "bridge_split", refuse_split)
    monkeypatch.setattr(Graph, "induced_subgraph", counted_induced)
    monkeypatch.setattr(FamilyRegistry, "claim", counted_claim)
    res = cli.solve_graph(g, "auto", default_registry(), None, None)
    assert res.exact
    if connected:
        assert res.method == "dp"
    else:
        assert res.method == "components" and res.stats["methods"] == ["dp"] * 3
    assert searches == [True] and copies == []
    assert sorted(claims) == sorted(atom for atom in atoms if len(atom) > 1)


def bridged_cycles(rng, n):
    """A connected graph on n vertices: pieces of 1-12 vertices (a cycle with
    random chords from 3 on, so chordal or not, and past order 10 too),
    each joined to an earlier piece by one edge."""
    edges, start = [], 0
    while start < n:
        order = min(rng.randint(1, 12), n - start)
        piece = range(start, start + order)
        if order >= 3:
            edges += [(v, start + (v - start + 1) % order) for v in piece]
            p = rng.choice([0.0, 0.2, 0.5])
            edges += [e for e in combinations(piece, 2) if rng.random() < p]
        elif order == 2:
            edges.append((start, start + 1))
        if start:
            edges.append((rng.randrange(start), rng.choice(piece)))
        start += order
    return Graph(n, sorted({(min(e), max(e)) for e in edges if e[0] != e[1]}))


AGREEMENT_REGISTRIES = (
    "chordal,bounded:10", "chordal", "bounded:3", "bounded:1",
    "chordal,bounded:4", "bounded:4,chordal",
)


def test_lazy_decisions_agree_with_a_forest_decided_first():
    """Deciding an atom's families only when merging reads them answers as
    deciding every atom before merging does: verdict, roots tried, failure,
    the trace of every root and the structure, on 2,000 random connected
    bridged graphs (n <= 40) under each registry of AGREEMENT_REGISTRIES,
    with c in {1, 2}, with and without a trace."""
    rng = random.Random(1511)
    seen = Counter()
    for i in range(2000):
        n = rng.randint(1, 40)
        if i % 4 == 0:
            g = random_connected_graph(rng, n, extra_p=rng.choice([0.0, 0.04, 0.08]))
        elif i % 4 == 1:
            g = bridged_blocks(rng, n)
        elif i % 4 == 2:
            g = bridged_cycles(rng, n)
        else:
            g, _ = generate_member(
                rng.randrange(1 << 30), rng.randint(1, 10), 3,
                profile=rng.choice(("mixed", "chordal", "bounded")), part_order=(1, 6),
            )
        spec, c = rng.choice(AGREEMENT_REGISTRIES), rng.choice((1, 2))
        reg = parse_registry_spec(spec)
        for explain in (False, True):
            member, roots, detail, structure, trace, decisions = (
                oracles.recognize_decided_first(g, c, reg, explain)
            )
            out = recognize(g, c, reg, explain=explain)
            case = (spec, c, explain, g.n, g.edges)
            assert (out.member, out.roots_tried, out.failure_detail) == (
                member, roots, detail
            ), case
            if out.stats.get("phase") == "split":
                seen["split rejection"] += 1
                continue
            assert out.stats["decisions"] == decisions, case
            if explain:
                assert out.stats["explain"]["roots"] == trace, case
            if not member:
                seen["merge rejection"] += 1
                continue
            assert out.structure.to_json() == structure.to_json(), case
            seen["merged" if len(structure.parts) < out.stats["atoms"] else "as cut"] += 1
    assert min(seen[k] for k in ("split rejection", "merge rejection", "merged", "as cut")) >= 50, seen
