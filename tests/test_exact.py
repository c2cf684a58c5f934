"""Branch and bound, its bounds and the enumeration oracle against
independent oracles.

Expected values for the named graphs below were computed by a separate
enumeration oracle (tests/oracles.py) that materializes every fitting
matrix and runs textbook elimination, then frozen here.
"""

import gc
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from minrank import (
    BitMatrix,
    FamilyRegistry,
    Graph,
    fits,
    minrank_bnb,
    rank_gf2,
    verify_witness,
)
from minrank import exact
from minrank.cli import solve_graph
from minrank.exact import (
    _combine_components,
    _dsatur_pick,
    _first_spanned_row,
    _greedy_independent,
    bit_components,
    exact_clique_cover,
    greedy_bounds,
    independence_number,
)
from minrank.formats import parse_graph6
from conftest import matrix_from_strings, random_edges, random_graph_in_budget
import oracles
from oracles import minrank_bruteforce

# name -> (n, edges, expected min-rank), values pinned by the slow oracle
FROZEN = {
    "K1": (1, [], 1),
    "K2": (2, [(0, 1)], 1),
    "P3": (3, [(0, 1), (1, 2)], 2),
    "triangle": (3, [(0, 1), (0, 2), (1, 2)], 1),
    "P4": (4, [(0, 1), (1, 2), (2, 3)], 2),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 2),
    "paw": (4, [(0, 1), (0, 2), (1, 2), (2, 3)], 2),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 3),
    "bowtie": (5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], 2),
    "star4": (4, [(0, 1), (0, 2), (0, 3)], 3),
    "empty3": (3, [], 3),
}


def alpha(g):
    """The independence number of the whole of g."""
    return independence_number(g.adjacency_bits(), (1 << g.n) - 1)


def whole_bounds(g):
    """The greedy bounds of the whole of g."""
    return greedy_bounds(g.adjacency_bits(), (1 << g.n) - 1)


def co_components(g):
    """Vertex bitsets of the components of g's complement."""
    full = (1 << g.n) - 1
    flip = [full ^ bits ^ (1 << v) for v, bits in enumerate(g.adjacency_bits())]
    return bit_components(flip, full)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_values(name):
    n, edges, want = FROZEN[name]
    g = Graph(n, edges)
    for solve in (minrank_bruteforce, minrank_bnb):
        res = solve(g)
        assert res.value == want, f"{name} via {res.method}"
        assert res.exact
        assert verify_witness(res, g)


def test_running_example_value_and_witnesses(example1):
    brute = minrank_bruteforce(example1)
    bnb = minrank_bnb(example1)
    assert brute.value == 2
    assert bnb.value == 2
    for res in (brute, bnb):
        assert fits(res.witness, example1)
        assert rank_gf2(res.witness) == 2


def test_published_fixture_matrices(example1):
    m1 = matrix_from_strings(["11000", "11000", "00110", "00110", "10001"])
    m2 = matrix_from_strings(["11100", "11100", "11100", "00011", "00011"])
    assert fits(m1, example1) and rank_gf2(m1) == 3
    assert fits(m2, example1) and rank_gf2(m2) == 2


def test_bruteforce_matches_enumeration_oracle():
    rng = random.Random(300)
    seen = 0
    while seen < 25:
        g = random_graph_in_budget(rng, 5, edge_cap=6)
        want = oracles.minrank_of_graph(g)
        res = minrank_bruteforce(g)
        assert res.value == want
        assert verify_witness(res, g)
        seen += 1


def test_bnb_agrees_with_bruteforce():
    rng = random.Random(301)
    for _ in range(120):
        g = random_graph_in_budget(rng, 6)
        assert minrank_bnb(g).value == minrank_bruteforce(g).value


def test_bnb_agrees_with_bruteforce_on_larger_graphs():
    # Up to 9 vertices and 11 edges: searches deep enough for the
    # independent-set bound to prune.
    rng = random.Random(304)
    for _ in range(40):
        g = random_graph_in_budget(rng, 9, edge_cap=11)
        res = minrank_bnb(g)
        assert res.value == minrank_bruteforce(g).value
        assert verify_witness(res, g)


def test_bnb_bound_prunes_bridged_part():
    """A vertex with three pendant leaves, bridged to a bridgeless 6-vertex
    piece: its min-rank 5 equals the independence number, and the search
    stops on the first rank-5 leaf.  Pruning only on the rank of the
    chosen rows took 7.9 million nodes to reach it."""
    g = Graph(10, [(0, 1), (0, 2), (0, 3), (0, 8), (4, 5), (4, 7), (4, 8),
                   (4, 9), (5, 6), (5, 8), (6, 7), (7, 8), (7, 9), (8, 9)])
    res = minrank_bnb(g)
    assert res.exact and res.value == 5
    assert verify_witness(res, g)
    assert res.stats["nodes"] < 200_000


def test_empty_and_edgeless():
    assert minrank_bruteforce(Graph(0, [])).value == 0
    res = minrank_bnb(Graph(9, []))
    assert res.value == 9
    assert verify_witness(res, Graph(9, []))


def test_component_additivity():
    # triangle plus one far-away edge
    g = Graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    whole = minrank_bruteforce(g)
    no_family = FamilyRegistry(())  # bnb per component
    split = solve_graph(g, "auto", no_family, None, None)
    assert split.value == whole.value == 2
    assert split.method == "components"
    assert verify_witness(split, g)


def test_sandwich_bounds_on_c5():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    b = whole_bounds(g)
    assert (b.lower, b.upper) == (2, 3)
    # certificates must be wholly checkable
    for u in b.independent_set:
        for v in b.independent_set:
            assert u == v or not g.has_edge(u, v)
    covered = sorted(v for clique in b.cliques for v in clique)
    assert covered == list(range(5))
    for clique in b.cliques:
        for u in clique:
            for v in clique:
                assert u == v or g.has_edge(u, v)


def test_bounds_bracket_value():
    rng = random.Random(302)
    for _ in range(80):
        g = random_graph_in_budget(rng, 6)
        b = whole_bounds(g)
        value = minrank_bruteforce(g).value
        assert b.lower <= value <= b.upper


def test_exact_independence_number_matches_oracle():
    rng = random.Random(303)
    for _ in range(60):
        n = rng.randint(1, 11)
        g = random_graph_in_budget(rng, n, edge_cap=30)
        assert alpha(g) == oracles.max_independent_set(
            g.n, g.edges
        )


def test_bounds_match_set_based_references():
    """The greedy bounds and the exact independence number, of whole graphs
    and (on bitsets) of induced subgraphs, equal the set-based copies kept
    in oracles, certificates included, on 300 random graphs of up to 40
    vertices."""
    rng = random.Random(312)
    for _ in range(300):
        n = rng.randint(0, 40)
        g = Graph(n, random_edges(rng, n, rng.choice([0.1, 0.2, 0.35, 0.5, 0.8])))
        b = whole_bounds(g)
        assert (b.independent_set, b.cliques) == oracles.greedy_bounds_by_sets(
            n, g.edges
        )
        assert (b.lower, b.upper) == (len(b.independent_set), len(b.cliques))
        assert alpha(g) == (
            oracles.independence_number_by_branching(n, g.edges)
        )
        keep = sorted(rng.sample(range(n), rng.randint(0, n)))
        mask = sum(1 << v for v in keep)
        sub = g.induced_subgraph(keep)[0]
        chosen, cliques = oracles.greedy_bounds_by_sets(sub.n, sub.edges)
        got = greedy_bounds(g.adjacency_bits(), mask)
        assert got.independent_set == tuple(keep[i] for i in chosen)
        assert got.cliques == tuple(tuple(keep[i] for i in c) for c in cliques)
        assert (got.lower, got.upper) == (len(chosen), len(cliques))
        assert independence_number(g.adjacency_bits(), mask) == (
            oracles.independence_number_by_branching(sub.n, sub.edges)
        )


def test_bnb_skips_independence_number_when_greedy_bounds_meet(monkeypatch):
    """On a path and a clique the greedy independent set and clique cover
    have the same size, which squeezes alpha to it: bnb computes no alpha."""
    calls = []
    real = exact.independence_number

    def counted(adjacency, mask):
        calls.append(mask)
        return real(adjacency, mask)

    monkeypatch.setattr(exact, "independence_number", counted)
    path = Graph(6, [(i, i + 1) for i in range(5)])
    clique = Graph(5, list(itertools.combinations(range(5), 2)))
    for g, value in ((path, 3), (clique, 1)):
        res = minrank_bnb(g)
        assert res.exact and res.value == value and verify_witness(res, g)
        assert res.stats["lower"] == value
    assert calls == []


def test_petersen_resolved_exactly(petersen):
    """B&B proves the Petersen graph needs rank 5 though its independence
    number is only 4."""
    res = minrank_bnb(petersen)
    assert res.exact
    assert res.value == 5
    assert verify_witness(res, petersen)
    assert alpha(petersen) == 4
    assert oracles.max_independent_set(10, petersen.edges) == 4


def test_bnb_budget_runs_out(petersen):
    res = minrank_bnb(petersen, node_budget=5)
    assert not res.exact
    lo, hi = res.stats["interval"]
    assert lo <= 5 <= hi
    assert res.value == hi


def test_verify_witness_rejects_lies(example1):
    res = minrank_bruteforce(example1)
    doctored = type(res)(
        value=res.value + 1,
        method=res.method,
        witness=res.witness,
        exact=True,
        stats={},
    )
    assert not verify_witness(doctored, example1)
    assert not verify_witness(
        type(res)(value=2, method="x", witness=None, exact=True, stats={}),
        example1,
    )


def test_first_spanned_row_is_first_enumerated_spanned_row():
    """Pivot states built as the search builds them, by reducing admissible
    rows of some vertices; the elimination must pick exactly the row that
    listing all rows in order would pick first."""
    rng = random.Random(305)
    found = 0
    for _ in range(400):
        g = random_graph_in_budget(rng, 9, edge_cap=36)
        pivots = {}
        for u in rng.sample(range(g.n), rng.randint(0, g.n)):
            row = rng.choice(list(oracles.row_choices(u, g.adjacency_bits()[u])))
            oracles.insert_pivot(pivots, row)
        v = rng.randrange(g.n)
        want = next(
            (
                row for row in oracles.row_choices(v, g.adjacency_bits()[v])
                if oracles.reduce_by_pivots(pivots, row) == 0
            ),
            None,
        )
        got = _first_spanned_row(pivots, v, g.adjacency_bits()[v])
        assert got == want
        found += want is not None
    assert 50 < found < 350


def test_bnb_searches_pinned_on_corpus_slice(random1000_path):
    """Lines 709-858 at a node budget of 2000.  Before joins were split and
    the exact clique cover became the incumbent, the searches took 68010
    nodes for 118 exact answers, and lines 726 and 813 ended inexact at 4."""
    lines = Path(random1000_path).read_text().splitlines()[708:858]
    graphs = [parse_graph6(line) for line in lines]
    results = [minrank_bnb(g, node_budget=2000) for g in graphs]
    assert sum(r.stats["nodes"] for r in results) == 15737
    assert sum(r.stats["cover_nodes"] for r in results) == 728
    assert sum(r.exact for r in results) == 143
    assert all(verify_witness(r, g) for r, g in zip(results, graphs))
    res = results[716 - 709]
    assert (res.value, res.exact) == (4, False)
    assert res.stats["nodes"] == 2001
    assert res.stats["interval"] == [3, 4]
    for number in (726, 813):
        res = results[number - 709]
        assert (res.value, res.exact) == (3, True)
        assert res.stats["nodes"] == 0


def bnb_record(res):
    """The fields of a `minrank_bnb` answer pinned in random1000_bnb2000.jsonl."""
    s = res.stats
    return {
        "value": res.value, "exact": res.exact, "interval": s.get("interval"),
        "nodes": s["nodes"], "rows": s["rows"], "cover_nodes": s["cover_nodes"],
        "witness": list(res.witness.data),
    }


def test_bnb_searches_pinned_per_graph(random1000_path):
    """Every graph of random1000.g6 at a node budget of 2000: value,
    exactness, interval, node, row and cover node counts and witness rows
    are those of random1000_bnb2000.jsonl, written before the search's
    vertex picks were rewritten without per-vertex callbacks."""
    lines = Path(random1000_path).read_text().splitlines()
    pinned = (Path(random1000_path).parent / "random1000_bnb2000.jsonl").read_text()
    want = [json.loads(line) for line in pinned.splitlines()]
    assert len(want) == len(lines) == 1000
    for number, (line, rec) in enumerate(zip(lines, want), 1):
        got = bnb_record(minrank_bnb(parse_graph6(line), node_budget=2000))
        assert got == rec, f"line {number}"


# Witness rows of the budget stops below: the greedy clique cover, and on
# lines 716 and 774 the exact cover that replaces it once its own search
# closes (19 and 24 cover nodes).
BUDGET_WITNESSES = {
    716: ([1051, 1051, 2500, 1051, 1051, 148000, 2500, 2500, 2500, 148000, 1051,
           2500, 45056, 45056, 148000, 45056, 327680, 148000, 327680],
          [643, 643, 27716, 167992, 167992, 167992, 27716, 643, 327936, 643, 27716,
           27716, 167992, 27716, 27716, 167992, 327936, 167992, 327936]),
    774: ([17161, 526498, 68, 17161, 263184, 526498, 68, 526498, 17161, 17161,
           263184, 526498, 4096, 172032, 17161, 172032, 65536, 172032, 263184, 526498],
          [98321, 4354, 10244, 200, 98321, 263200, 200, 200, 4354, 672256, 263200,
           10244, 4354, 10244, 672256, 98321, 98321, 672256, 263200, 672256]),
    824: ([71, 71, 71, 33320, 144, 33320, 71, 144, 1280, 33320, 1280, 18432, 12288,
           12288, 18432, 33320],),
    755: ([21, 10, 21, 10, 21, 96, 96],),
    798: ([71, 71, 71, 56, 56, 56, 71, 128],),
}


@pytest.mark.parametrize(
    "number, budget, value, interval, nodes, rows, cover_nodes, witness",
    [
        (716, 0, 5, [3, 5], 1, 0, 0, 0),
        (716, 1, 5, [3, 5], 2, 1, 1, 0),
        (716, 2, 5, [3, 5], 3, 2, 2, 0),
        (716, 5, 5, [3, 5], 6, 5, 5, 0),
        (716, 17, 5, [3, 5], 18, 17, 17, 0),
        (716, 100, 4, [3, 4], 101, 100, 19, 1),
        (716, 1999, 4, [3, 4], 2000, 1999, 19, 1),
        (774, 0, 7, [5, 7], 1, 0, 0, 0),
        (774, 1, 7, [5, 7], 2, 1, 1, 0),
        (774, 2, 7, [5, 7], 3, 2, 2, 0),
        (774, 5, 7, [5, 7], 6, 5, 5, 0),
        (774, 17, 7, [5, 7], 18, 17, 17, 0),
        (774, 100, 6, [5, 6], 101, 100, 24, 1),
        (774, 1999, 6, [5, 6], 2000, 1999, 24, 1),
        (824, 0, 6, [5, 6], 1, 0, 0, 0),
        (824, 1, 6, [5, 6], 2, 1, 1, 0),
        (824, 2, 6, [5, 6], 3, 2, 2, 0),
        (824, 5, 6, [5, 6], 6, 5, 5, 0),
        (824, 17, 6, [5, 6], 18, 17, 8, 0),
        (824, 100, 6, [5, 6], 101, 108, 8, 0),
        (824, 1999, 6, [5, 6], 2000, 2007, 8, 0),
        (755, None, 3, None, 833, 832, 5, 0),
        (798, None, 3, None, 897, 896, 6, 0),
    ],
)
def test_bnb_budget_stops_pinned(
    random1000_path, number, budget, value, interval, nodes, rows, cover_nodes, witness
):
    """Searches of random1000.g6 that stop on the node budget, most of them
    on a child the bound cuts, pinned at budgets below the 2000 of
    random1000_bnb2000.jsonl; lines 755 and 798 run to the end with no
    budget, as the bounded oracle runs them for auto.  Pinned before cut
    children were counted where their rows are made."""
    line = Path(random1000_path).read_text().splitlines()[number - 1]
    got = bnb_record(minrank_bnb(parse_graph6(line), node_budget=budget))
    assert got == {
        "value": value, "exact": interval is None, "interval": interval,
        "nodes": nodes, "rows": rows, "cover_nodes": cover_nodes,
        "witness": BUDGET_WITNESSES[number][witness],
    }


def test_bnb_bound_cuts_the_root():
    """Above 40 vertices the search keeps its greedy bounds: on the star
    K(1,41) it starts from a cover of 41 cliques and a lower bound of 1,
    and the bound of the root, a greedy independent set of 41, cuts it: one
    node, no row.  With no budget left the root is counted and the search
    stops on it instead."""
    g = Graph(42, [(0, v) for v in range(1, 42)])
    for budget, interval in ((None, None), (0, [1, 41])):
        res = minrank_bnb(g, node_budget=budget)
        assert (res.value, res.exact, res.stats.get("interval")) == (41, interval is None, interval)
        assert (res.stats["nodes"], res.stats["rows"]) == (1, 0)
        assert res.witness.data == (3, 3, *(1 << v for v in range(2, 42)))


def test_bnb_lists_rows_lazily(random1000_path):
    """Line 716 (n=19, maximum degree 16) still searches to the budget.
    Listing every row of each branching vertex took 2^20 rows for 2001
    nodes on line 726, which the exact clique cover now closes."""
    line = Path(random1000_path).read_text().splitlines()[715]
    res = minrank_bnb(parse_graph6(line), node_budget=2000)
    assert res.stats["nodes"] == 2001
    assert res.stats["rows"] <= 2 * res.stats["nodes"]


def test_bnb_needs_no_recursion():
    """A chain of 60 five-cycles joined by bridges: 300 levels of search
    under a recursion limit of 150."""
    edges = []
    for c in range(60):
        b = 5 * c
        edges += [(b + j, b + (j + 1) % 5) for j in range(5)]
        if c:
            edges.append((b - 3, b))
    g = Graph(300, edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        res = minrank_bnb(g, node_budget=2000)
    finally:
        sys.setrecursionlimit(limit)
    assert (res.value, res.exact) == (180, False)
    assert res.stats["nodes"] == 2001
    assert res.stats["interval"] == [120, 180]


def _is_clique_partition(g, cover):
    return sorted(v for clique in cover for v in clique) == list(range(g.n)) and all(
        g.has_edge(u, v) for clique in cover for u, v in itertools.combinations(clique, 2)
    )


def test_exact_clique_cover_matches_partition_oracle():
    rng = random.Random(306)
    for _ in range(300):
        g = random_graph_in_budget(rng, 9, edge_cap=36)
        greedy = whole_bounds(g).cliques
        want = oracles.min_clique_partition(g.n, g.edges)
        adjacency, full = g.adjacency_bits(), (1 << g.n) - 1
        for lower in (0, alpha(g)):
            cover, _ = exact_clique_cover(adjacency, full, lower, greedy, None)
            assert _is_clique_partition(g, cover)
            assert len(cover) == want <= len(greedy)
        cover, spent = exact_clique_cover(adjacency, full, 0, greedy, 3)
        assert _is_clique_partition(g, cover)
        assert spent <= 3 and want <= len(cover) <= len(greedy)


def random_pick_state(rng):
    """A random graph on at most 24 vertices, as neighbour bitsets, and a
    nonempty vertex bitset `left` of it."""
    n = rng.randint(1, 24)
    adjacency = [0] * n
    for u, v in random_edges(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8])):
        adjacency[u] |= 1 << v
        adjacency[v] |= 1 << u
    return adjacency, rng.randrange(1, 1 << n)


def test_dsatur_pick_matches_min_with_key():
    """The bit-plane DSATUR pick against `min` over (cliques the vertex may
    join, degree within `left`), lowest vertex first, on seeded states with
    up to 8 cliques; the states include empty `common`, ties in the count
    and ties in both keys, which the lowest vertex breaks."""
    rng = random.Random(3201)
    empty = count_ties = full_ties = 0
    for _ in range(3000):
        adjacency, left = random_pick_state(rng)
        n = len(adjacency)
        common = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(0, 8))]
        want = oracles.dsatur_pick_by_min(adjacency, left, common)
        assert _dsatur_pick(adjacency, left, common) == want
        keys = [
            (sum(c >> u & 1 for c in common), (adjacency[u] & left).bit_count())
            for u in range(n) if left >> u & 1
        ]
        empty += not common
        count_ties += [k[0] for k in keys].count(min(keys)[0]) > 1
        full_ties += keys.count(min(keys)) > 1
    assert empty > 200 and count_ties > 1000 and full_ties > 500


def test_greedy_independent_matches_min_with_key():
    """The size of the bound's greedy independent set against picks by
    `min` over closed degree, lowest vertex first, on seeded states and on
    every state the reference's picks pass through."""
    rng = random.Random(3202)
    ties = 0
    for _ in range(1500):
        adjacency, avail = random_pick_state(rng)
        closed = [bits | 1 << u for u, bits in enumerate(adjacency)]
        while avail:
            assert _greedy_independent(closed, avail) == oracles.greedy_independent_by_min(
                closed, avail
            ).bit_count()
            degrees = [(c & avail).bit_count() for u, c in enumerate(closed) if avail >> u & 1]
            ties += degrees.count(min(degrees)) > 1
            avail &= ~closed[oracles.least_closed_degree_by_min(closed, avail)]
    assert ties > 1000
    assert _greedy_independent(closed, 0) == 0


def _join(*graphs):
    """The join of the graphs, vertices numbered graph by graph."""
    edges, starts, n = [], [], 0
    for h in graphs:
        starts.append(n)
        edges += [(n + u, n + v) for u, v in h.edges]
        n += h.n
    ends = starts[1:] + [n]
    for i, (s, e) in enumerate(zip(starts, ends)):
        edges += [(u, v) for u in range(s, e) for v in range(e, n)]
    return Graph(n, edges)


def test_bnb_matches_bruteforce_on_dense_graphs():
    """Random dense graphs and random shuffled joins, n <= 10 and
    2|E| <= 16.  Every graph whose complement is disconnected is also
    solved by the join rule directly, which checks the stacked witness."""
    rng = random.Random(307)
    joins = 0
    for i in range(160):
        while True:
            if i % 2:
                n = rng.randint(2, 10)
                g = Graph(n, random_edges(rng, n, rng.choice([0.6, 0.8])))
            else:
                pieces = [random_graph_in_budget(rng, 3, edge_cap=3)
                          for _ in range(rng.randint(2, 3))]
                g = _join(*pieces)
                perm = rng.sample(range(g.n), g.n)
                g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            if 2 * g.edge_count <= 16:
                break
        want = minrank_bruteforce(g).value
        res = minrank_bnb(g)
        assert res.exact and res.value == want and verify_witness(res, g)
        parts = co_components(g)
        if len(parts) > 1:
            joins += 1
            solved = [(part, minrank_bnb(g, None, part)) for part in parts]
            res = _combine_components(g.n, solved, "bnb", join=True)
            assert res.exact and res.value == want and verify_witness(res, g)
    assert joins > 60


def test_alternating_union_and_join_stays_exact():
    """Forty vertices, each new one isolated or dominating in turn, so the
    graph is a union or a join at every depth.  On the threshold graph the
    greedy bounds already meet.  From a P4 labelled so that the greedy cover
    is one too large, every level has a gap and splits, down to the P4."""
    for core in ([], [(2, 0), (0, 1), (1, 3)]):
        edges = list(core)
        for v in range(4 if core else 1, 40):
            if v % 2:
                edges += [(u, v) for u in range(v)]
        g = Graph(40, edges)
        res = minrank_bnb(g)
        assert res.exact and res.value == alpha(g)
        assert verify_witness(res, g)
    assert whole_bounds(g).upper == alpha(g) + 1
    assert res.stats["co_components"] == 2


def test_budgeted_join_reports_largest_bounds(petersen):
    """Petersen needs 73 search nodes, so 40 leave it at [4, 5].  Joined to
    three independent vertices, the interval is [max(4, 3), max(5, 3)];
    joined to a C5 plus two isolated vertices (exactly 5), it closes."""
    res = minrank_bnb(_join(petersen, Graph(3)), node_budget=40)
    assert (res.value, res.exact) == (5, False)
    assert res.stats["interval"] == [4, 5]
    assert verify_witness(res, _join(petersen, Graph(3)))
    c5_and_two = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    g = _join(petersen, c5_and_two)
    res = minrank_bnb(g, node_budget=40)
    assert (res.value, res.exact) == (5, True)
    assert res.stats["co_components"] == 2
    assert verify_witness(res, g)


def test_exact_solvers_leave_no_cycle():
    """Every recursion runs in module functions, so a call leaves nothing
    for the cyclic collector: with it off, it finds no garbage after each
    solver on a 5-cycle, whose bounds leave a gap that every solver works
    through."""
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    adjacency, full = c5.adjacency_bits(), (1 << c5.n) - 1
    calls = [
        lambda: independence_number(adjacency, full),
        lambda: exact_clique_cover(adjacency, full, 2, whole_bounds(c5).cliques, None),
        lambda: minrank_bnb(c5),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0, call
    finally:
        gc.enable()


def test_bnb_witness_rows_are_part_sized(monkeypatch):
    """750 disjoint edges and 1,500 isolated vertices: each of the 2,250
    components gets a witness of its own rows, and the whole one is n x n,
    so at most 2n rows are validated in all (an n x n witness per part
    would take n^2)."""
    validated = []
    real = BitMatrix.__post_init__

    def counted(self):
        validated.append(self.rows)
        real(self)

    monkeypatch.setattr(BitMatrix, "__post_init__", counted)
    n = 3000
    g = Graph(n, [(2 * i, 2 * i + 1) for i in range(750)])
    res = minrank_bnb(g)
    assert res.value == 2250 and res.stats["components"] == 2250
    assert (res.witness.rows, res.witness.cols) == (n, n)
    assert sum(validated) <= 2 * n
    monkeypatch.undo()
    assert verify_witness(res, g)
