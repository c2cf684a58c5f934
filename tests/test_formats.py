"""graph6 and edge-list serialization."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minrank import Graph, GraphError, parse_graph6, emit_graph6
from minrank.formats import parse_edge_list, emit_edge_list
from conftest import random_edges
import oracles


def test_known_graph6_strings():
    empty4 = parse_graph6("C?")
    assert empty4.n == 4 and empty4.edge_count == 0
    k4 = parse_graph6("C~")
    assert k4.n == 4 and k4.edge_count == 6
    zero = parse_graph6("?")
    assert zero.n == 0


def test_emit_matches_reference_encoder():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(0, 30)
        edges = random_edges(rng, n, rng.choice([0.2, 0.5, 0.8]))
        g = Graph(n, edges)
        assert emit_graph6(g) == oracles.graph6_encode(n, edges)


def test_corpus_round_trip(random1000_path):
    count = 0
    for line in Path(random1000_path).read_text().splitlines():
        s = line.strip()
        g = parse_graph6(s)
        assert emit_graph6(g) == s
        count += 1
    assert count == 1000


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.randoms(use_true_random=False))
def test_round_trip_random(n, rnd):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.4
    ]
    g = Graph(n, edges)
    back = parse_graph6(emit_graph6(g))
    assert back.n == g.n and back.edges == g.edges


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "~??",  # long form unsupported
        "\x1fA",  # header below printable range
        "C",  # truncated body
        "C???",  # oversized body
        "B~",  # nonzero padding bits for n=3
    ],
)
def test_graph6_rejects(bad):
    with pytest.raises(GraphError):
        parse_graph6(bad)


def test_emit_rejects_large():
    with pytest.raises(GraphError):
        emit_graph6(Graph(63, []))


def test_edge_list_with_header():
    g = parse_edge_list("n=4\n0 1\n2 3\n")
    assert g.n == 4
    assert g.edges == [(0, 1), (2, 3)]


def test_edge_list_relabels_arbitrary_ids():
    g = parse_edge_list("10 30\n20 30\n")
    assert g.n == 3
    assert g.edges == [(0, 2), (1, 2)]
    assert g.labels == {0: "10", 1: "20", 2: "30"}


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        parse_edge_list("0 1\n1 1\nn?", )
    with pytest.raises(GraphError, match="duplicate"):
        parse_edge_list("n=3\n0 1\n1 0\n")
    with pytest.raises(GraphError):
        parse_edge_list("n=2\n0 5\n")
    with pytest.raises(GraphError):
        parse_edge_list("n=x\n")


# Edge-list documents and what the parser makes of them: an error message
# or (n, edges, labels).  Recorded from the parser as it stood before it
# built its adjacency sets in place; errors of an earlier kind win over
# later lines: a syntax error anywhere, then an out-of-range id, then a
# duplicate edge.
EDGE_LIST_TABLE = [
    ("0 1\n1 1\n", "line 2: loop at vertex 1"),
    ("n=3\nn=3\n", "line 2: repeated n= header"),
    ("n=x\n", "line 1: bad vertex count 'n=x'"),
    ("n=-1\n", "line 1: negative vertex count"),
    ("0 1 2\n", "line 1: expected two vertex ids, got '0 1 2'"),
    ("0\n", "line 1: expected two vertex ids, got '0'"),
    ("0 a\n", "line 1: non-integer vertex id in '0 a'"),
    ("n = 3\n", "line 1: expected two vertex ids, got 'n = 3'"),
    ("n=2\n0 5\n", "line 2: vertex out of range for n=2"),
    ("n=3\n0 1\n1 0\n", "line 3: duplicate edge (0, 1)"),
    ("10 20\n20 10\n", "line 2: duplicate edge (0, 1)"),
    ("n=2\n0 5\n0 x\n", "line 3: non-integer vertex id in '0 x'"),
    ("n=3\n0 1\n0 7\n1 1\n", "line 4: loop at vertex 1"),
    ("n=3\n0 1\n0 1\n0 7\n", "line 4: vertex out of range for n=3"),
    ("n=4\n0 1\n1 0\nn=5\n", "line 4: repeated n= header"),
    ("0 5\nn=3\n", "line 1: vertex out of range for n=3"),
    ("0 1\n1 2\nn=4\n", (4, [(0, 1), (1, 2)], None)),
    ("n= 5\n0 1\n", (5, [(0, 1)], None)),
    (
        "# only a comment\n   # another\n\nn=3 # header\n0 1 # edge\n\t\n1\t2\n",
        (3, [(0, 1), (1, 2)], None),
    ),
    ("", (0, [], None)),
    ("# nothing but comments\n", (0, [], None)),
    ("n=0\n", (0, [], None)),
    ("n=2\n", (2, [], None)),
    ("0 1\n1 2\n", (3, [(0, 1), (1, 2)], None)),
    ("1 2\n2 3\n", (3, [(0, 1), (1, 2)], {0: "1", 1: "2", 2: "3"})),
    ("10 30\n20 30\n", (3, [(0, 2), (1, 2)], {0: "10", 1: "20", 2: "30"})),
    (
        "-5 7\n7 100\n100 -5\n",
        (3, [(0, 1), (0, 2), (1, 2)], {0: "-5", 1: "7", 2: "100"}),
    ),
]


@pytest.mark.parametrize("text, want", EDGE_LIST_TABLE)
def test_edge_list_table(text, want):
    if isinstance(want, str):
        with pytest.raises(GraphError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == want
    else:
        g = parse_edge_list(text)
        assert (g.n, g.edges, g.labels) == want


def test_edge_list_round_trip(example1):
    text = emit_edge_list(example1)
    assert text.startswith("n=5\n")
    back = parse_edge_list(text)
    assert back.edges == example1.edges

