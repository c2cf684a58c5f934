"""CNF export of bounded-rank fitting questions, plus external solver glue.

"Does some fitting matrix have rank at most k" is encoded as the existence
of an n-by-k times k-by-n product M = A*B whose constrained entries come
out right: each m_ij is the XOR over t of (a_it AND b_tj), forced to 1 on
the diagonal and 0 at non-adjacent off-diagonal pairs.  Edge positions are
left unconstrained.  No solver is bundled; any executable that reads
DIMACS on stdin and prints its verdict, SAT or UNSAT, as a word of a line
that is not a comment can be used.
"""

from __future__ import annotations

import shlex
import subprocess
import time

from .errors import GraphError
from .exact import MinrankResult, greedy_bounds
from .graph import Graph


def build_cnf(g: Graph, k: int) -> tuple[int, list[tuple[int, ...]], list[str]]:
    """Clauses for "some matrix fitting g has rank at most k".

    Returns (variable count, clauses, layout comment lines).  Variables
    1..n*k are the left factor a_i_t, the next k*n the right factor b_t_j,
    and the rest are AND/XOR gadget outputs.
    """
    if not 1 <= k <= g.n:
        raise GraphError(f"rank bound k={k} outside 1..{g.n}")
    n = g.n
    comments = []
    a = [[i * k + t + 1 for t in range(k)] for i in range(n)]
    b = [[n * k + t * n + j + 1 for j in range(n)] for t in range(k)]
    for i in range(n):
        for t in range(k):
            comments.append(f"c var a_{i}_{t} = {a[i][t]}")
    for t in range(k):
        for j in range(n):
            comments.append(f"c var b_{t}_{j} = {b[t][j]}")
    nvars = 2 * n * k
    clauses: list[tuple[int, ...]] = []

    def fresh() -> int:
        nonlocal nvars
        nvars += 1
        return nvars

    def and_gate(x: int, y: int) -> int:
        p = fresh()
        clauses.append((-p, x))
        clauses.append((-p, y))
        clauses.append((p, -x, -y))
        return p

    def xor_gate(x: int, y: int) -> int:
        z = fresh()
        clauses.append((-z, x, y))
        clauses.append((-z, -x, -y))
        clauses.append((z, -x, y))
        clauses.append((z, x, -y))
        return z

    for i in range(n):
        nonedges = [j for j in range(n) if j != i and not g.has_edge(i, j)]
        for j, target in [(i, 1)] + [(j, 0) for j in nonedges]:
            acc = None
            for t in range(k):
                p = and_gate(a[i][t], b[t][j])
                acc = p if acc is None else xor_gate(acc, p)
            clauses.append((acc,) if target else (-acc,))
    return nvars, clauses, comments


def emit_cnf(g: Graph, k: int) -> str:
    """DIMACS text for the rank-at-most-k question, layout noted in comments."""
    nvars, clauses, comments = build_cnf(g, k)
    lines = [f"c minrank <= {k} for graph with n={g.n} m={g.edge_count}"]
    lines.extend(comments)
    lines.append(f"p cnf {nvars} {len(clauses)}")
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in clauses)
    return "\n".join(lines) + "\n"


def run_solver(dimacs: str, solver_path: str) -> bool:
    """Feed DIMACS to an external solver; True means satisfiable.

    The solver gets the formula on stdin and must print its verdict on
    stdout (s-line or bare verdict).  The first line that is not a comment
    (one beginning with c) and holds, in any case, the word UNSAT or
    UNSATISFIABLE means unsatisfiable, and one holding SAT or SATISFIABLE
    satisfiable.  solver_path is a command line, split shell-style, so
    "python3 /path/to/solver.py" works.  Raises GraphError for an empty
    command or a solver that gives no verdict.
    """
    cmd = shlex.split(solver_path)
    if not cmd:
        raise GraphError("empty solver command")
    proc = subprocess.run(
        cmd,
        input=dimacs.encode(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    for line in proc.stdout.decode(errors="replace").upper().splitlines():
        if line.lstrip().startswith("C"):  # a comment
            continue
        words = set(line.split())
        if words & {"UNSAT", "UNSATISFIABLE"}:
            return False
        if words & {"SAT", "SATISFIABLE"}:
            return True
    raise GraphError(
        f"solver {solver_path!r} gave no SAT/UNSAT verdict "
        f"(exit {proc.returncode})"
    )


def minrank_via_cnf(g: Graph, solver_path: str) -> MinrankResult:
    """Exact min-rank by binary search on k with an external SAT solver.

    No witness matrix is recovered; only the value is reported.
    """
    start = time.perf_counter()
    if g.n == 0:
        return MinrankResult(0, "cnf", None, True, {"sat_calls": 0})
    bounds = greedy_bounds(g.adjacency_bits(), (1 << g.n) - 1)
    lo, hi = bounds.lower, bounds.upper
    calls = 0
    while lo < hi:
        mid = (lo + hi) // 2
        calls += 1
        if run_solver(emit_cnf(g, mid), solver_path):
            hi = mid
        else:
            lo = mid + 1
    return MinrankResult(
        lo,
        "cnf",
        None,
        True,
        {"sat_calls": calls, "elapsed": time.perf_counter() - start},
    )
