"""DIMACS export of bounded-rank questions and external-solver glue."""

import hashlib
import random
import shlex
import sys
import tracemalloc

import pytest

from minrank import Graph, cnf_lines, minrank_via_cnf
from minrank.cli import main
from minrank.cnf import run_solver
from minrank.formats import emit_edge_list
from minrank.generator import generate_member
from minrank.errors import GraphError
from conftest import SOLVER_SCRIPT, random_graph_in_budget, solver_command
from oracles import minrank_bruteforce


def parse_dimacs(text: str):
    nvars = nclauses = None
    body = []
    comments = []
    for line in text.splitlines():
        if line.startswith("c"):
            comments.append(line)
        elif line.startswith("p cnf "):
            _, _, v, c = line.split()
            nvars, nclauses = int(v), int(c)
        elif line.strip():
            lits = [int(x) for x in line.split()]
            assert lits[-1] == 0
            body.append(lits[:-1])
    return nvars, nclauses, body, comments


def test_header_counts_match_body(example1):
    text = "".join(cnf_lines(example1, 2))
    nvars, nclauses, body, comments = parse_dimacs(text)
    assert nclauses == len(body)
    top = max(abs(l) for cl in body for l in cl)
    assert top == nvars
    assert any("a_0_0 = 1" in c for c in comments)
    assert any("b_0_0" in c for c in comments)


def test_variable_layout_is_declared(example1):
    nvars, _, _, comments = parse_dimacs("".join(cnf_lines(example1, 3)))
    # a title line, then left factor row-major, then right factor, then gadgets
    assert comments[1] == "c var a_0_0 = 1"
    assert f"c var b_0_0 = {5 * 3 + 1}" in comments
    assert nvars > 2 * 5 * 3


def test_k_out_of_range(example1):
    """k is refused when the lines are asked for, before the first one is
    read, so no caller opens an output for a formula that never comes."""
    with pytest.raises(ValueError):
        cnf_lines(example1, 0)
    with pytest.raises(ValueError):
        cnf_lines(example1, 6)


def path_text(n: int) -> str:
    return f"n={n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))


def export_cases() -> dict[str, tuple[str, int]]:
    """Edge-list text and rank bound k of every pinned `minrank cnf` export."""
    cases = {
        f"path{n}-k{k}": (path_text(n), k)
        for n in (1, 2, 5, 50, 100) for k in (1, 3) if k <= n
    }
    for name, text, n in (
        ("example1", "n=5\n0 1\n0 2\n0 4\n1 2\n2 3\n3 4\n", 5),
        ("c5", "n=5\n0 1\n1 2\n2 3\n3 4\n0 4\n", 5),
        ("k4", "n=4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", 4),
    ):
        cases.update({f"{name}-k{k}": (text, k) for k in range(1, n + 1)})
    cases["labelled-k2"] = ("10 20\n20 35\n35 10\n35 7\n", 2)  # no n= header
    for s in range(1, 6):
        cases[f"member{s}-k2"] = (emit_edge_list(generate_member(s, 10, 2)[0]), 2)
    return cases


# SHA-256 of each export's bytes, as the encoder that kept every clause in
# a list wrote them; a stream must write the same bytes.
EXPORT_DIGESTS = {
    "path1-k1": "58b6beab04843a7d30df0ac99bdc75ea8532f88ff2cef396463190b08ea23bee",
    "path2-k1": "8af3a802e400796eeb80c309f6b2fe6f1be1bf4749b069e788eb083ab5347ebc",
    "path5-k1": "5779c4904ad59568ec17a2fd5fadba07107b3b673239a064ad9a9911286a6f0f",
    "path5-k3": "9194a2fbfa05a576ac980a80058429bf48cf5fbdbe00c2877cce01fb84a1fdaa",
    "path50-k1": "c44e565ef2f6fecf9dab2b4fb2a5a43909cf3b70b10f5bdedeff48de8d22ce70",
    "path50-k3": "f9d0d632a9a18f7ad2b8d65344efd5233c6eeab3042dd1e7eab05ec75be29905",
    "path100-k1": "19b2a21ff07e27b69018f6946febc3818e01474736e947f3c7c067ec4e6fb04c",
    "path100-k3": "de7188fe4df3514dd569ba81701863f3212ac35146483f8857924c86606deeba",
    "example1-k1": "63dbd22bf871c713f51956c69c650e502cf44b1c5c7920f4b64fce9a7016ed04",
    "example1-k2": "6b1fb1e40da314d8674ffb73faea98978e8fef34d0eff76c03a141af23ecceec",
    "example1-k3": "d8245f83e55301ab18fcd17c37b4de76f5f795d01a7b7c59799d52c33f0ad584",
    "example1-k4": "f8783ec900849f0d6f45cac4a005c99745ce20d44592e113d5ce611e9674f572",
    "example1-k5": "24520d45d0471ca900b6834f9e282b99082fe4faa8f84f20a6ac03c7a424ae57",
    "c5-k1": "1817c573623fe97a3dee6168eca7f7077cf5cc7bc8ae2cb57b51b4f5946476c0",
    "c5-k2": "c386aec26512da33aa44f7c45d8b48704e344b381a5b21a0090490e46d3b140c",
    "c5-k3": "6c62d821c4f74cdcbac293b37ae4c355375cf1ae4aa4d6db3a245ccbb1c12062",
    "c5-k4": "b1e91e561776ac59b622b023515550c52e0ef524a22ba1e7347739d44237a325",
    "c5-k5": "5fa09d8c8cb7b6b1d336d09d89c83f9d65b301f9d215cd481c6a197af81efe1c",
    "k4-k1": "6114857de1b106ded17d912a2c40db2b592452bf6cd4589c31120128c7001aaa",
    "k4-k2": "6e1f9a7c5ec1ee1df65494b3a715de15d2a1fe313cf02fbdb8961ff51e9611ce",
    "k4-k3": "f2792b6e6b4a61e21628c3ad22a23cffcf071d98b8d3fedb230df669221152b2",
    "k4-k4": "e573ec5d8529dce7d05c81f3829727616492d25c3c1836d759e9d449c2f6d220",
    "labelled-k2": "a3f7dd8d63671998cf368d8e2955047f2649ea157381e15f9450dd5ef1d55eb3",
    "member1-k2": "66654962e46c57f30de0140fba5e295b9f0cd37dc8cf1005483f960f5023ea7b",
    "member2-k2": "75a420721b989f3094ee78eb2427c08d5fdb9e40f911d5f8d1368f69a2dd35a4",
    "member3-k2": "9811ed57aa4833e80ee3e5f15fce52cd6f2f06ed88474128ee9419a7d5867b00",
    "member4-k2": "68e86ef770382c07e123e18e6e68ca2192c21273db72d08593f1585359161479",
    "member5-k2": "d6ad6352ddbef08d1e499de67329aa4649b7200ae6d413a4668985c855b68819",
}


def test_cnf_export_bytes_are_pinned(tmp_path, capsys):
    got = {}
    for name, (text, k) in export_cases().items():
        path = tmp_path / "g.edges"
        path.write_text(text)
        assert main(["cnf", str(path), "--k", str(k)]) == 0
        got[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == EXPORT_DIGESTS


def test_cnf_lines_stream_in_bounded_memory():
    """The 80-vertex path at k = 1 is 288,535 bytes of text; streaming it
    holds a line at a time, where building the text whole peaks near 5 MB."""
    g = Graph(80, [(i, i + 1) for i in range(79)])
    tracemalloc.start()
    try:
        size = sum(len(line) for line in cnf_lines(g, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 288_535
    assert peak < 256 * 1024


def test_run_solver_verdicts():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert run_solver(cnf_lines(tri, 1), solver_command()) is True
    assert run_solver("".join(cnf_lines(tri, 1)), solver_command()) is True
    path = Graph(3, [(0, 1), (1, 2)])
    assert run_solver(cnf_lines(path, 1), solver_command()) is False


def test_run_solver_contract_errors():
    with pytest.raises(GraphError, match="verdict"):
        run_solver("p cnf 1 1\n1 0\n", "true")  # prints nothing
    with pytest.raises(GraphError):
        run_solver("p cnf 1 1\n1 0\n", "")


BANNER = "c CaDiCaL Simplified Satisfiability Solver"


@pytest.mark.parametrize(
    "lines, sat",
    [
        ([BANNER, "s UNSATISFIABLE"], False),
        ([BANNER, "s SATISFIABLE", "v 1 0"], True),
        (["UNSAT"], False),
        (["sat"], True),
        (["c no verdict here: UNSAT", "SAT"], True),
    ],
    ids=["banner-unsat", "banner-sat", "bare-unsat", "bare-lower-sat", "comment-words"],
)
def test_run_solver_reads_the_verdict_not_the_comments(lines, sat):
    """Comment lines never decide the verdict, even when a word in them is
    one; a verdict is a whole word, in any case, UNSAT or UNSATISFIABLE
    before SAT or SATISFIABLE."""
    fake = shlex.join([sys.executable, "-c", f"print({chr(10).join(lines)!r})"])
    assert run_solver("p cnf 1 1\n1 0\n", fake) is sat


def test_banner_does_not_turn_a_wrong_answer_exact(tmp_path):
    """A solver that prints a banner holding the word "Satisfiability"
    before the bundled solver's verdict: C5's min-rank is 3, so every rank
    bound below it must still read as unsatisfiable."""
    script = tmp_path / "banner_solver.py"
    script.write_text(
        "import subprocess, sys\n"
        f"print({BANNER!r}, flush=True)\n"
        f"sys.exit(subprocess.run([sys.executable, {SOLVER_SCRIPT!r}]).returncode)\n"
    )
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    res = minrank_via_cnf(c5, shlex.join([sys.executable, str(script)]))
    assert (res.value, res.exact) == (minrank_bruteforce(c5).value, True) == (3, True)


def test_binary_search_matches_bruteforce():
    rng = random.Random(400)
    solver = solver_command()
    for _ in range(25):
        g = random_graph_in_budget(rng, 5)
        res = minrank_via_cnf(g, solver)
        assert res.value == minrank_bruteforce(g).value
        assert res.exact
        assert res.method == "cnf"
        assert res.stats["sat_calls"] >= 0


def test_empty_graph_short_circuits():
    res = minrank_via_cnf(Graph(0, []), "nonexistent-solver")
    assert res.value == 0 and res.stats["sat_calls"] == 0
