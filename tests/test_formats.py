"""graph6 and edge-list serialization."""

import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from minrank import Graph, GraphError, parse_graph6, emit_graph6
from minrank.cli import main
from minrank.formats import emit_edge_list, graph6_lines, parse_edge_list
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


def test_graph6_up_to_order_62_matches_reference_encoder():
    """Orders past the corpus and the encoder test above, up to the largest
    the short form holds: emitted as the reference does, and read back."""
    rng = random.Random(62)
    for n in [31, 47, 61, 62] + [rng.randint(31, 62) for _ in range(30)]:
        edges = random_edges(rng, n, rng.choice([0.05, 0.5, 0.95]))
        g = Graph(n, edges)
        text = emit_graph6(g)
        assert text == oracles.graph6_encode(n, edges)
        assert parse_graph6(text) == g


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


def test_graph6_header_is_skipped(tmp_path, capsys):
    """One optional `>>graph6<<` header before a graph, as networkx's
    `write_graph6` and `geng -h` write it, is skipped: the path P3 so
    written reads as P3 through `minrank`, `recognize` and `batch`, whose
    record keeps the graph6 string without the header.  A second header is
    refused by each: `batch` writes an error record for its line."""
    text = ">>graph6<<Bg\n"
    assert parse_graph6(text) == parse_graph6("Bg") == Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(GraphError):
        parse_graph6(">>graph6<<" + text)
    path = tmp_path / "p3.g6"
    path.write_text(text)
    for argv in (["minrank"], ["recognize"], ["batch"]):
        assert main([argv[0], str(path)]) == 0
        rec = json.loads(capsys.readouterr().out)
        if argv[0] == "recognize":
            assert (rec["member"], rec["n"]) == (True, 3)
        else:
            assert (rec["value"], rec["exact"], rec["graph"]) == (2, True, "Bg")
    path.write_text(">>graph6<<" + text)
    for argv in (["minrank"], ["recognize"]):
        assert main([argv[0], str(path)]) == 2
    assert main(["batch", str(path)]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["graph"] == text.strip() and "bad graph6 header byte" in rec["error"]


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



def _id_text(draw, value: int) -> str:
    """A vertex id as int() reads it: plain, or with a sign, a leading zero,
    an underscore or non-ASCII digits."""
    style = draw(st.sampled_from(["plain"] * 6 + ["plus", "zero", "underscore", "unicode"]))
    text = str(abs(value))
    if style == "plus" and value >= 0:
        return "+" + text
    if style == "zero":
        text = "0" + text
    elif style == "underscore":
        text = "0_" + text
    elif style == "unicode":
        text = "".join(chr(0xFF10 + int(d)) for d in text)  # fullwidth digits
    return "-" + text if value < 0 else text


@st.composite
def edge_list_documents(draw):
    """Documents near the canonical shape `emit_edge_list` writes, and with
    every kind of departure from it the grammar knows: comments, blank
    lines, CRLF and tabs, ids spelled other ways, a late, repeated, spaced
    or missing header, loops, reversed duplicates, out-of-range ids, lines
    with one id and a missing final newline."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    defects = st.sampled_from([None, None, "loop", "duplicate", "range"])
    for defect in filter(None, draw(st.lists(defects, max_size=2))):
        u = draw(st.integers(0, max(n - 1, 0)))
        if defect == "loop":
            extra = (u, u)
        elif defect == "duplicate" and edges:
            x, y = draw(st.sampled_from(edges))
            extra = (y, x)
        else:
            extra = (u, draw(st.sampled_from([n, n + 3, -1])))
        edges.insert(draw(st.integers(0, len(edges))), extra)
    plain = draw(st.booleans())
    lines = []
    for u, v in edges:
        if plain:
            lines.append(f"{u} {v}")
            continue
        sep = draw(st.sampled_from([" "] * 4 + ["\t", "  ", " \t "]))
        line = _id_text(draw, u) + sep + _id_text(draw, v)
        if draw(st.sampled_from([False] * 9 + [True])):
            line += draw(st.sampled_from([" # edge", "\t#", "  "]))
        lines.append(line)
    # An edge broken over two lines, each with one id and maybe a space
    # beside it; at the end of a document without a final newline, its
    # spaces and newlines fall as a canonical document's do.
    broken = bool(lines) and draw(st.booleans())
    if broken:
        at = draw(st.sampled_from([len(lines) - 1] * 3 + [0]))
        u, _, v = lines[at].partition(" ")
        first = draw(st.sampled_from([u + " ", " " + u, u]))
        lines[at : at + 1] = [first] + draw(st.sampled_from([[v], [v], [" " + v], []]))
    header = f"n={n}" if plain else draw(st.sampled_from(
        [f"n={n}"] * 6 + [f"n= {n}", f"n={n} # order", f"n=0{n}", "n=x", "n=-1", None]
    ))
    if header is not None:
        at = 0 if plain else draw(st.sampled_from([0, 0, 0, len(lines), len(lines) // 2]))
        lines.insert(at, header)
        if not plain and draw(st.sampled_from([False] * 9 + [True])):
            lines.append(header)
    if not plain:
        for _ in range(draw(st.integers(0, 2))):
            filler = draw(st.sampled_from(["", "# comment", "   # note", " \t "]))
            lines.insert(draw(st.integers(0, len(lines))), filler)
    newline = "\n" if plain else draw(st.sampled_from(["\n"] * 3 + ["\r\n"]))
    end = newline if draw(st.sampled_from([True] * (1 if broken else 4) + [False])) else ""
    return newline.join(lines) + end if lines else ""


def _parse_outcome(parse, text):
    try:
        g = parse(text)
    except GraphError as exc:
        return str(exc)
    return g, g.edges, g.labels


@settings(max_examples=400, deadline=None, derandomize=True)
@given(edge_list_documents())
# Digits, spaces and newlines as in a canonical document, but a line lacks
# an id and the last line, with no newline after it, holds the missing one.
@example("n=3\n1 \n2")
@example("n=3\n 1\n2")
@example("n=4\n0 1\n2 \n3")
def test_edge_list_matches_line_by_line_reference(text):
    """Every document reads as the parser that checked it line by line read
    it: an equal graph with equal labels, or the same error message."""
    assert _parse_outcome(parse_edge_list, text) == _parse_outcome(
        oracles.parse_edge_list, text
    )


def test_graph6_lines_break_like_splitlines():
    """Random texts of every separator `str.splitlines` knows, comment
    marks, spaces and graph6 bytes give the line numbers and lines of one
    `splitlines` of the whole text."""
    rng = random.Random(24)
    alphabet = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029  # BwC~?"
    for _ in range(20000):
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
        assert list(graph6_lines(text)) == oracles.graph6_lines_by_splitlines(text), repr(text)


def test_graph6_lines_hold_no_list_of_lines():
    """Reading 3,000 of 4,000 lines allocates far less than one string per
    line (a list of them took about 237 KB)."""
    text = "Bw\r\nC~\n" * 2000
    lines = graph6_lines(text)
    tracemalloc.start()
    try:
        for _ in range(3000):
            next(lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8192, peak
