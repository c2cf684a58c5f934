"""Family oracles: chordal recognition and per-family min-rank."""

import gc
import inspect
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from minrank import (
    ChordalFamily,
    FamilyRegistry,
    Graph,
    GraphError,
    default_registry,
    parse_registry_spec,
)
from minrank import exact, families
from minrank.exact import minrank_bnb
from minrank.families import BoundedOrderFamily, perfect_elimination_order
from minrank.formats import parse_graph6
from minrank.generator import random_connected_chordal, random_connected_graph
from conftest import (
    component_count, flat_bridge_split, random_edges, random_graph_in_budget,
)
import oracles
from oracles import minrank_bruteforce


def test_chordal_recognition_named_shapes():
    fam = ChordalFamily()
    assert fam.solver(Graph(1, [])) is not None
    assert fam.solver(Graph(4, [(0, 1), (1, 2), (2, 3)])) is not None  # path
    assert fam.solver(Graph(3, [(0, 1), (0, 2), (1, 2)])) is not None
    assert fam.solver(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) is None  # C4
    assert fam.solver(
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    ) is None  # C5
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert fam.solver(k5) is not None


def test_chordal_recognition_matches_elimination_oracle():
    rng = random.Random(500)
    fam = ChordalFamily()
    agree = disagreeable = 0
    for _ in range(150):
        n = rng.randint(1, 9)
        edges = random_edges(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        g = Graph(n, edges)
        want = oracles.is_chordal_by_elimination(n, edges)
        assert (fam.solver(g) is not None) == want
        agree += 1
        disagreeable += 0 if want else 1
    assert agree == 150
    assert disagreeable > 10  # the sample really exercised both answers


def test_perfect_elimination_checker():
    tri_tail = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    order = perfect_elimination_order(tri_tail)
    assert order == oracles.mcs_elimination_order(tri_tail)
    assert _perfect_by_definition(tri_tail, order)
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert perfect_elimination_order(c4) is None


def _relabel(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _perfect_by_definition(g: Graph, order) -> bool:
    """Whether every pair of later neighbours along `order` is adjacent, in
    the graph that g induces on the order's vertices."""
    pos = {v: i for i, v in enumerate(order)}
    return all(
        g.has_edge(a, b)
        for v in order
        for a, b in itertools.combinations(
            [w for w in g.neighbor_set(v) if pos.get(w, -1) > pos[v]], 2
        )
    )


def _assert_one_pass_order(g: Graph, vertices=None) -> bool:
    """The one-pass test on g (induced on `vertices`) against deleting
    simplicial vertices, the definition of a perfect elimination order,
    and the order of a search run to the end; returns the verdict."""
    vs = list(range(g.n)) if vertices is None else vertices
    order = perfect_elimination_order(g, vertices)
    sub, _ = g.induced_subgraph(vs)
    want = oracles.is_chordal_by_elimination(sub.n, sub.edges)
    assert (order is not None) == want, (g.edges, vertices)
    if order is not None:
        assert sorted(order) == sorted(vs)
        assert _perfect_by_definition(g, order), (g.edges, vertices)
        assert order == oracles.mcs_elimination_order(g, vertices), g.edges
    return want


def test_linear_elimination_order_decides_chordality():
    """The one-pass search against deleting simplicial vertices and against
    the search run to the end, on relabelled chordal graphs, the same with
    one edge added, and G(n, p), of order up to 40."""
    rng = random.Random(520)
    chordal = 0
    for i in range(240):
        n = rng.randint(1, 40)
        if i % 3 == 2:
            g = Graph(n, random_edges(rng, n, rng.choice([0.05, 0.1, 0.3, 0.7])))
        else:
            g = random_connected_chordal(rng, n)
            if i % 3 == 1 and n > 3:
                u, v = rng.sample(range(n), 2)
                g = Graph(n, set(g.edges) | {(min(u, v), max(u, v))})
            g = _relabel(rng, g)
        chordal += _assert_one_pass_order(g)
    assert 100 < chordal < 200


def test_perfect_elimination_check_matches_definition():
    """The check made during the search against the definition, on
    shuffled vertex subsets of chordal and other host graphs, tested in
    place on the host."""
    rng = random.Random(521)
    hits = 0
    for _ in range(600):
        n = rng.randint(1, 9)
        g = _relabel(rng, random_connected_chordal(rng, n))
        if rng.random() < 0.3:
            g = Graph(n, random_edges(rng, n, 0.5))
        subset = rng.sample(range(n), rng.randint(n // 2, n))
        hits += _assert_one_pass_order(g, subset)
    assert 500 < hits < 580  # at least 20 subsets are not chordal


def test_one_pass_order_stops_at_first_failure(monkeypatch):
    """On a 4-cycle with a 1,000-vertex path hung from it, the search stops
    at the cycle's fourth visit, reading a few neighbour sets, where a
    search run to the end would read all 1,004."""
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4)]
    edges += [(v, v + 1) for v in range(4, 1003)]
    g = Graph(1004, edges)
    reads = []
    real = Graph.neighbor_set

    def counted(self, v):
        reads.append(v)
        return real(self, v)

    monkeypatch.setattr(Graph, "neighbor_set", counted)
    assert perfect_elimination_order(g) is None
    assert len(set(reads)) <= 5 and len(reads) <= 10
    reads.clear()
    assert len(oracles.mcs_elimination_order(g)) == 1004 == len(reads)


def test_chordal_solver_matches_bruteforce_on_deleted_subsets():
    """One elimination order per graph answers every deleted subset."""
    rng = random.Random(522)
    fam = ChordalFamily()
    checked = 0
    while checked < 300:
        g = _relabel(rng, random_connected_chordal(rng, rng.randint(1, 9)))
        solve = fam.solver(g)
        for _ in range(4):
            removed = rng.sample(range(g.n), rng.randint(0, g.n))
            sub = g.induced_subgraph([v for v in range(g.n) if v not in removed])[0]
            if 2 * sub.edge_count <= 14:
                assert solve(removed) == minrank_bruteforce(sub).value, g.edges
                checked += 1
    assert fam.solver(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) is None


def _bridged_union(rng: random.Random):
    """Random pieces joined along a random tree of single edges; returns
    the pieces of a random subtree and the graph induced on their union."""
    pieces, edges, tree = [], [], []
    n = 0
    for j in range(rng.randint(1, 6)):
        size = rng.randint(1, 6)
        p = rng.choice([0.2, 0.5, 0.8])
        edges += [(n + u, n + v) for u, v in random_edges(rng, size, p)]
        pieces.append(list(range(n, n + size)))
        tree.append([])
        if j:
            i = rng.randrange(j)
            edges.append((rng.choice(pieces[i]), rng.choice(pieces[j])))
            tree[i].append(j)
            tree[j].append(i)
        n += size
    g = Graph(n, edges)
    chosen = {rng.randrange(len(pieces))}
    for _ in range(rng.randint(0, len(pieces) - 1)):
        chosen.add(rng.choice(sorted({j for i in chosen for j in tree[i]})))
    union, _ = g.induced_subgraph(sorted(v for i in chosen for v in pieces[i]))
    return [g.induced_subgraph(pieces[i])[0] for i in chosen], union


@pytest.mark.parametrize(
    "spec", ["chordal,bounded:10", "chordal", "bounded:3", "bounded:1"]
)
def test_gluing_rule_matches_lookup_on_bridged_unions(spec):
    rng = random.Random(spec)
    reg = parse_registry_spec(spec)
    answers = []
    for _ in range(400):
        pieces, union = _bridged_union(rng)
        glued = [
            o.glue(all(o.solver(p) is not None for p in pieces), union.n)
            for o in reg.oracles
        ]
        assert glued == [o.solver(union) is not None for o in reg.oracles], union.edges
        answers.append(any(glued))
        assert answers[-1] == (oracles.registry_lookup(reg, union) is not None)
    assert 0 < sum(answers) < len(answers)


def test_chordal_minrank_is_exact():
    rng = random.Random(501)
    fam = ChordalFamily()
    checked = 0
    while checked < 40:
        g = random_connected_chordal(rng, rng.randint(1, 6))
        if 2 * g.edge_count > 18:
            continue
        assert fam.solver(g) is not None
        assert fam.solver(g)(()) == minrank_bruteforce(g).value
        checked += 1


def test_chordal_minrank_rejects_nonmembers():
    fam = ChordalFamily()
    assert fam.solver(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) is None


def test_chordal_family_is_hereditary():
    rng = random.Random(502)
    fam = ChordalFamily()
    for _ in range(30):
        g = random_connected_chordal(rng, rng.randint(2, 8))
        keep = sorted(
            rng.sample(range(g.n), rng.randint(1, g.n))
        )
        sub, _ = g.induced_subgraph(keep)
        assert fam.solver(sub) is not None


def test_bounded_family_contract():
    fam = BoundedOrderFamily(4)
    assert fam.name == "bounded:4"
    assert fam.solver(Graph(4, [(0, 1)])) is not None
    assert fam.solver(Graph(5, [])) is None
    assert fam.solver(Graph(3, [(0, 1), (1, 2)]))(()) == 2


@pytest.mark.parametrize(
    "family", [ChordalFamily(), *map(BoundedOrderFamily, (1, 3, 4, 10, 12))],
    ids=lambda f: f.name,
)
def test_glue_contract(family):
    """Recognition skips the tests of an atom whose order some family glues
    without member pieces: `glue(False, k)` must mean that the family holds
    every graph of order k, so its solver accepts random graphs of that
    order, non-chordal ones included, and it must imply `glue(True, k)`."""
    rng = random.Random(1512)
    for k in range(1, 13):
        if not family.glue(False, k):
            continue
        assert family.glue(True, k), k
        cycle = [(i, (i + 1) % k) for i in range(k)] if k >= 4 else []
        graphs = [Graph(k, cycle), Graph(k, random_edges(rng, k, 1.0))]
        graphs += [Graph(k, random_edges(rng, k, p)) for p in (0.2, 0.5, 0.8) * 5]
        for g in graphs:
            assert family.solver(g) is not None, (k, g.edges)


@pytest.mark.parametrize("seed_offset", [1000, 0])
def test_bounded_solver_matches_bruteforce_on_deletions(seed_offset):
    """Parts of up to 8 vertices of random host graphs, listed in random
    order: for every set of at most 3 deleted vertices, given by id, the
    solver gives the brute-force min-rank of the part minus them."""
    rng = random.Random(506 + seed_offset)
    fam = BoundedOrderFamily(8)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 14)
        g = Graph(n, random_edges(rng, n, rng.choice([0.15, 0.3, 0.5])))
        part = rng.sample(range(n), rng.randint(1, min(8, n)))
        if 2 * g.induced_subgraph(part)[0].edge_count > 16:
            continue
        solve = fam.solver(g, part)
        for r in range(min(3, len(part)) + 1):
            for removed in itertools.combinations(part, r):
                keep = [v for v in part if v not in removed]
                want = minrank_bruteforce(g.induced_subgraph(keep)[0]).value
                assert solve(removed) == want, (g.edges, part, removed)
        checked += 1
    assert fam.solver(Graph(9)) is None


def _host_with_part(rng: random.Random, c5: bool) -> tuple[Graph, list[int]]:
    """A random host graph and a part of 1-10 of its vertices in random
    order; with `c5`, five of the part's vertices induce a 5-cycle."""
    n = rng.randint(8, 14)
    edges = set(random_edges(rng, n, rng.choice([0.15, 0.25, 0.4])))
    part = rng.sample(range(n), rng.randint(6 if c5 else 1, min(10, n)))
    if c5:
        ring = part[:5]
        edges -= {(min(u, v), max(u, v)) for u, v in itertools.combinations(ring, 2)}
        edges |= {(min(u, v), max(u, v)) for u, v in zip(ring, ring[1:] + ring[:1])}
    return Graph(n, sorted(edges)), part


def test_bounded_solver_answers_every_deletion_through_one_solver():
    """Every deletion from parts of up to 10 vertices, half of them holding
    a 5-cycle, asked by id in shuffled order of one solver so that components
    solved before are met again: each answer is the min-rank of what is
    left, by enumeration where 2|E| <= 16 and by branch and bound elsewhere.
    Some deletions split what is left into more components than the part
    has."""
    rng = random.Random(507)
    fam = BoundedOrderFamily(10)
    splits = 0
    known: dict[Graph, int] = {}  # equal subgraphs recur across parts
    for trial in range(8):
        g, part = _host_with_part(rng, c5=trial % 2 == 0)
        solve = fam.solver(g, part)
        whole = component_count(g.induced_subgraph(part)[0])
        masks = list(range(1 << len(part)))
        rng.shuffle(masks)
        for mask in masks:
            removed = [v for i, v in enumerate(part) if mask >> i & 1]
            sub = g.induced_subgraph([v for v in part if v not in removed])[0]
            if sub not in known:
                exhaustive = 2 * sub.edge_count <= 16
                known[sub] = (minrank_bruteforce if exhaustive else minrank_bnb)(sub).value
            assert solve(removed) == known[sub], (g.edges, part, removed)
            splits += component_count(sub) > whole
    assert splits > 0


def test_bounded_solver_searches_only_components_with_a_gap(monkeypatch):
    """A 4-cycle with a pendant closes at its bounds under every deletion:
    nothing is searched.  On a 5-cycle with a pendant path, the first query
    that leaves the 5-cycle searches it once, and a later query meeting the
    same component searches no more.  No subgraph is ever built."""
    calls = {"bnb": 0, "induced": 0}
    real_bnb, real_induced = families._bnb_connected, Graph.induced_subgraph

    def counted_bnb(*args, **kwargs):
        calls["bnb"] += 1
        return real_bnb(*args, **kwargs)

    def counted_induced(self, vertices):
        calls["induced"] += 1
        return real_induced(self, vertices)

    c4 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)])
    c5 = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6)])
    c4_part = [0, 1, 2, 3, 4]
    c4_solve = BoundedOrderFamily(10).solver(c4, c4_part)
    c5_solve = BoundedOrderFamily(10).solver(c5)
    monkeypatch.setattr(families, "_bnb_connected", counted_bnb)
    monkeypatch.setattr(Graph, "induced_subgraph", counted_induced)
    for r in range(6):
        for removed in itertools.combinations(c4_part, r):
            c4_solve(removed)
    assert calls == {"bnb": 0, "induced": 0}
    assert c5_solve([5]) == 4
    assert calls == {"bnb": 1, "induced": 0}
    assert c5_solve([5, 6]) == 3
    assert calls == {"bnb": 1, "induced": 0}


@pytest.mark.parametrize("spec", ["chordal,bounded:10", "bounded:10"])
def test_solver_answers_by_id_whatever_the_order_of_its_part(spec):
    """Parts of random graphs with n <= 12, listed in random order, claimed
    as drawn and shuffled: the two solvers agree on every deletion of at
    most 2 of the part's vertices, given by id, and each answer is the
    min-rank of what is left, by branch and bound."""
    rng = random.Random(535)
    registry = parse_registry_spec(spec)
    claimed = set()
    for _ in range(60):
        n = rng.randint(1, 12)
        g = Graph(n, random_edges(rng, n, rng.choice([0.2, 0.35, 0.5])))
        part = rng.sample(range(n), rng.randint(1, min(10, n)))
        (oracle, solve), (other, shuffled) = (
            registry.claim(g, part), registry.claim(g, rng.sample(part, len(part))),
        )
        assert oracle is other
        claimed.add(oracle.name)
        for r in range(min(2, len(part)) + 1):
            for removed in itertools.combinations(part, r):
                want = minrank_bnb(g, mask=sum(1 << v for v in part if v not in removed))
                assert want.exact
                assert solve(removed) == shuffled(removed) == want.value, (g.edges, part, removed)
    assert claimed == set(spec.split(","))


# A vertex with three pendant leaves bridged to a bridgeless 6-vertex piece,
# and a 5-cycle joined by one bridge to a 5-vertex piece: parts of order 10
# that dp_minrank hands to the bounded-order oracle on generated members.
# Then, in graph6, the bridged parts of the benchmark's tree inputs (seeds
# 1-10) on which a plain branch and bound runs past 1,000 nodes.
BRIDGED_PARTS = [
    (Graph(10, [(0, 1), (0, 2), (0, 3), (0, 8), (4, 5), (4, 7), (4, 8), (4, 9),
                (5, 6), (5, 8), (6, 7), (7, 8), (7, 9), (8, 9)]), 5),
    (Graph(10, [(0, 1), (0, 3), (1, 2), (2, 4), (2, 7), (3, 4), (5, 6), (5, 7),
                (5, 8), (5, 9), (6, 7), (7, 8), (7, 9)]), 6),
] + [
    (parse_graph6(text), want)
    for want, texts in (
        (5, "HkCG_sU GgD?gW I]iWACB?o IbgOGGD@o HbgOGKE I}sO?KC?g I|W_GGA?W "
            "H|GGOGB HpCOwGH IpSOGKF?O GW?gog HLo?G?V I|_GGKLB_ IvOw_?@AW HuL_?E@"),
        (6, "HF??gWI IkK?HKD@O"),
        (4, "FbhoG FqkwO"),
    )
    for text in texts.split()
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


def _glued_graph(rng: random.Random) -> Graph:
    """2-4 random connected pieces of 2-5 vertices, each sharing one vertex
    with the pieces before it, relabelled at random: n <= 10.  Half the
    pieces of 5 vertices are 5-cycles, whose bounds leave a gap."""
    edges = []
    n = 0
    for _ in range(rng.randint(2, 4)):
        size = rng.randint(2, min(5, 11 - n)) if n else rng.randint(3, 5)
        if size == 5 and rng.random() < 0.5:
            piece = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        else:
            piece = random_connected_graph(rng, size, rng.choice([0.2, 0.4, 0.7]))
        first = max(n, 1)  # the piece's vertices after the shared one
        ids = [rng.randrange(n) if n else 0, *range(first, first + size - 1)]
        edges += [(ids[u], ids[v]) for u, v in piece.edges]
        n = ids[-1] + 1
        if n >= 10:
            break
    return _relabel(rng, Graph(n, edges))


def test_bounded_solver_cuts_match_bnb():
    rng = random.Random(504)
    for _ in range(150):
        make = rng.choice([_bridged_graph, _glued_graph])
        g = make(rng) if rng.random() < 0.7 else random_graph_in_budget(rng, 9, edge_cap=16)
        want = minrank_bnb(g).value
        assert BoundedOrderFamily(max(g.n, 1)).solver(g)(()) == want, g.edges


def test_bounded_solver_cuts_match_bruteforce():
    rng = random.Random(505)
    for make, count in ((_bridged_graph, 40), (_glued_graph, 6)):
        checked = 0
        while checked < count:
            g = make(rng)
            if 2 * g.edge_count <= 18:
                want = minrank_bruteforce(g).value
                assert BoundedOrderFamily(max(g.n, 1)).solver(g)(()) == want, g.edges
                checked += 1


def test_bounded_solver_on_bridged_parts():
    """Every deletion of at most 2 positions from each bridged part, and
    from graphs glued at shared vertices: the solver agrees with branch and
    bound on the whole of what is left."""
    assert len(BRIDGED_PARTS) == 21
    rng = random.Random(509)
    glued = [_glued_graph(rng) for _ in range(40)]
    for g, want in BRIDGED_PARTS + [(g, minrank_bnb(g).value) for g in glued]:
        solve = BoundedOrderFamily(10).solver(g)
        assert solve(()) == want, g.edges
        for r in (1, 2):
            for removed in itertools.combinations(range(g.n), r):
                sub = g.induced_subgraph([v for v in range(g.n) if v not in removed])[0]
                assert solve(removed) == minrank_bnb(sub).value, (g.edges, removed)


def _mask_graph(adjacency, mask: int) -> Graph:
    """The subgraph induced on the vertex bitset `mask` of the graph with
    neighbour bitsets `adjacency`, its vertices renumbered in order."""
    ids = [v for v in range(len(adjacency)) if mask >> v & 1]
    return Graph(len(ids), [(i, j) for i, u in enumerate(ids)
                            for j, w in enumerate(ids) if i < j and adjacency[u] >> w & 1])


def test_bounded_solver_searches_only_bridgeless_components(monkeypatch):
    """A component with a gap is cut at a cut vertex: every component that
    branch and bound is given is 2-connected, so has no bridge, and still
    has a gap between its independence number and its greedy clique cover,
    both of which the search finds again."""
    searched = []
    real_bnb = families._bnb_connected

    def bridgeless_bnb(adjacency, mask, node_budget):
        sub = _mask_graph(adjacency, mask)
        assert not flat_bridge_split(sub)[0], sub.edges
        for v in exact._iter_bits(mask):
            assert len(exact.bit_components(adjacency, mask ^ 1 << v)) == 1, sub.edges
        alpha = exact.independence_number(adjacency, mask)
        assert alpha < exact.greedy_bounds(adjacency, mask).upper, sub.edges
        searched.append(sub.n)
        return real_bnb(adjacency, mask, node_budget)

    monkeypatch.setattr(families, "_bnb_connected", bridgeless_bnb)
    rng = random.Random(508)
    for i in range(300):
        g = (_bridged_graph, _glued_graph)[i % 2](rng)
        solve = BoundedOrderFamily(g.n).solver(g)
        for removed in [(), *((v,) for v in range(g.n))]:
            solve(removed)
    for g, want in BRIDGED_PARTS:
        assert BoundedOrderFamily(10).solver(g)(()) == want
    assert searched


def test_bounded_solver_builds_no_graph(monkeypatch):
    """Every deletion of at most 2 positions from each bridged part is
    answered on the solver's bitsets: no induced subgraph is built and no
    graph's bridges are searched."""

    def refuse(*args):
        raise AssertionError("the bounded-order oracle built or split a graph")

    monkeypatch.setattr(Graph, "induced_subgraph", refuse)
    monkeypatch.setattr(Graph, "bridge_split", refuse)
    for g, want in BRIDGED_PARTS:
        solve = BoundedOrderFamily(10).solver(g)
        assert solve(()) == want
        for r in (1, 2):
            for removed in itertools.combinations(range(g.n), r):
                solve(removed)


def test_dropped_bounded_solver_leaves_no_cycle():
    """Solvers that have cut components at their cut vertices are freed by
    reference counting alone once dropped, so the solvers of a large part
    tree do not pile up waiting for the cyclic collector: with it off, no
    function a solver holds outlives it."""
    gc.disable()
    try:
        for g, want in BRIDGED_PARTS:
            solve = BoundedOrderFamily(10).solver(g)
            assert solve(()) == want
            held = [solve] + [c.cell_contents for c in solve.__closure__]
            refs = [weakref.ref(f) for f in held if inspect.isfunction(f)]
            del solve, held
            assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_registry_first_match_wins():
    reg = default_registry()
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    fam = oracles.registry_lookup(reg, tri)
    assert fam.name == "chordal"  # listed before the order fallback
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert oracles.registry_lookup(reg, c4).name == "bounded:10"
    big_cycle = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    assert oracles.registry_lookup(reg, big_cycle) is None


def test_registry_rejects_duplicate_names():
    with pytest.raises(ValueError):
        FamilyRegistry((ChordalFamily(), ChordalFamily()))


REGISTRY_ITEMS = st.one_of(
    st.sampled_from(["chordal", "bounded", "bounded:x", "bounded:", "nosuch", "", " "]),
    st.integers(-1, 12).map(lambda b: f" bounded:{b}"),
)


@settings(derandomize=True, deadline=500, max_examples=100)
@given(st.lists(REGISTRY_ITEMS, max_size=5))
def test_registry_spec_parses_or_raises_graph_error(items):
    """Any comma-joined list of items yields the registry it names, in
    order, or a GraphError; never another exception."""
    spec = ",".join(items)
    try:
        reg = parse_registry_spec(spec)
    except GraphError:
        return
    named = [item.strip() for item in items if item.strip()]
    assert [o.name for o in reg.oracles] == [
        "bounded:10" if name == "bounded" else name for name in named
    ]


def test_parse_registry_spec():
    def names(spec):
        return tuple(o.name for o in parse_registry_spec(spec).oracles)

    assert names("chordal") == ("chordal",)
    assert names("bounded:3") == ("bounded:3",)
    assert names("chordal,bounded:10") == ("chordal", "bounded:10")
    assert names("bounded") == ("bounded:10",)
    assert parse_registry_spec("bounded").oracles[0].bound == 10
    for bad in ("", "unknown", "bounded:x", "bounded:0"):
        with pytest.raises(ValueError):
            parse_registry_spec(bad)
    for bad in ("bounded:0", "bounded:-3", "bounded:x", "bounded:"):
        with pytest.raises(GraphError) as exc:
            parse_registry_spec(f"chordal, {bad}")
        assert str(exc.value) == f"bad bound in registry item {bad!r}"


def test_bounded_minrank_agrees_with_bruteforce():
    rng = random.Random(503)
    fam = BoundedOrderFamily(6)
    for _ in range(40):
        g = random_graph_in_budget(rng, 6)
        assert fam.solver(g)(()) == minrank_bruteforce(g).value
