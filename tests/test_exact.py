"""Exhaustive and branch-and-bound solvers against independent oracles.

Expected values for the named graphs below were computed by a separate
enumeration oracle (tests/oracles.py) that materializes every fitting
matrix and runs textbook elimination, then frozen here.
"""

import random
import sys
from pathlib import Path

import pytest

from minrank import (
    BRUTE_FORCE_BIT_BUDGET,
    BitMatrix,
    BudgetExceededError,
    Graph,
    RowBasis,
    fits,
    minrank_bnb,
    minrank_bruteforce,
    minrank_components,
    rank_gf2,
    sandwich_bounds,
    verify_witness,
)
from minrank.exact import _first_spanned_row, _row_choices, exact_independence_number
from minrank.formats import parse_graph6
from conftest import random_graph_in_budget
import oracles

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
    m1 = BitMatrix.from_strings(["11000", "11000", "00110", "00110", "10001"])
    m2 = BitMatrix.from_strings(["11100", "11100", "11100", "00011", "00011"])
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


def test_bruteforce_budget_refusal():
    g = Graph(13, [(i, (i + 1) % 13) for i in range(13)])  # 13 edges, 26 bits
    with pytest.raises(BudgetExceededError, match=str(BRUTE_FORCE_BIT_BUDGET)):
        minrank_bruteforce(g)
    # the budget is a parameter: a tightened one refuses a tiny graph, a
    # matching one lets it through
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(BudgetExceededError, match="4"):
        minrank_bruteforce(tri, budget_bits=4)
    assert minrank_bruteforce(tri, budget_bits=6).value == 1


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
    split = minrank_components(g, minrank_bruteforce)
    assert split.value == whole.value == 2
    assert split.method == "components"
    assert verify_witness(split, g)


def test_sandwich_bounds_on_c5():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    b = sandwich_bounds(g)
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
        b = sandwich_bounds(g)
        value = minrank_bruteforce(g).value
        assert b.lower <= value <= b.upper


def test_exact_independence_number_matches_oracle():
    rng = random.Random(303)
    for _ in range(60):
        n = rng.randint(1, 11)
        g = random_graph_in_budget(rng, n, edge_cap=30)
        assert exact_independence_number(g) == oracles.max_independent_set(
            g.n, g.edges
        )


def test_petersen_resolved_exactly(petersen):
    """B&B proves the Petersen graph needs rank 5 though its independence
    number is only 4."""
    res = minrank_bnb(petersen)
    assert res.exact
    assert res.value == 5
    assert verify_witness(res, petersen)
    assert exact_independence_number(petersen) == 4
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
        basis = RowBasis(g.n)
        for u in rng.sample(range(g.n), rng.randint(0, g.n)):
            basis.insert(rng.choice(list(_row_choices(g, u))))
        v = rng.randrange(g.n)
        want = next(
            (row for row in _row_choices(g, v) if basis.residual(row) == 0), None
        )
        got = _first_spanned_row(basis.pivots, v, g.adjacency_bits()[v])
        assert got == want
        found += want is not None
    assert 50 < found < 350


def test_bnb_searches_pinned_on_corpus_slice(random1000_path):
    """Lines 709-858 at a node budget of 2000; the figures were taken
    before rows were listed lazily, so the search must visit the same
    nodes and stop at the same incumbents."""
    lines = Path(random1000_path).read_text().splitlines()[708:858]
    results = [minrank_bnb(parse_graph6(line), node_budget=2000) for line in lines]
    assert sum(r.stats["nodes"] for r in results) == 68010
    assert sum(r.exact for r in results) == 118
    for number, value in ((726, 4), (813, 4), (716, 5)):
        res = results[number - 709]
        assert (res.value, res.exact) == (value, False)
        assert res.stats["nodes"] == 2001
        assert res.stats["interval"] == [3, value]


def test_bnb_lists_rows_lazily(random1000_path):
    """Line 726 (n=20, maximum degree 19): listing every row of each
    branching vertex took 2^20 rows for 2001 nodes."""
    line = Path(random1000_path).read_text().splitlines()[725]
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
