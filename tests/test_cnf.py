"""DIMACS export of bounded-rank questions and external-solver glue."""

import random
import shlex
import sys

import pytest

from minrank import Graph, minrank_via_cnf
from minrank.cnf import build_cnf, emit_cnf, run_solver
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
    text = emit_cnf(example1, 2)
    nvars, nclauses, body, comments = parse_dimacs(text)
    assert nclauses == len(body)
    top = max(abs(l) for cl in body for l in cl)
    assert top == nvars
    assert any("a_0_0 = 1" in c for c in comments)
    assert any("b_0_0" in c for c in comments)


def test_variable_layout_is_declared(example1):
    nvars, clauses, comments = build_cnf(example1, 3)
    # left factor row-major, then right factor, then gadgets
    assert comments[0] == "c var a_0_0 = 1"
    assert f"c var b_0_0 = {5 * 3 + 1}" in comments
    assert nvars > 2 * 5 * 3


def test_k_out_of_range(example1):
    with pytest.raises(ValueError):
        build_cnf(example1, 0)
    with pytest.raises(ValueError):
        build_cnf(example1, 6)


def test_run_solver_verdicts():
    tri = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert run_solver(emit_cnf(tri, 1), solver_command()) is True
    path = Graph(3, [(0, 1), (1, 2)])
    assert run_solver(emit_cnf(path, 1), solver_command()) is False


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
