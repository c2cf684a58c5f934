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
from collections.abc import Iterable, Iterator

from .errors import GraphError
from .exact import MinrankResult, greedy_bounds
from .graph import Graph


def cnf_lines(g: Graph, k: int) -> Iterator[str]:
    """DIMACS text for "some matrix fitting g has rank at most k", line by line.

    Variables 1..n*k are the left factor a_i_t and the next k*n the right
    factor b_t_j, as the leading comments note.  Each constrained entry (the
    diagonal and both orders of each non-edge, n^2 - 2m of them) takes k AND
    gates of 3 clauses and k - 1 XOR gates of 4, whose outputs are the next
    2k - 1 variables, then a unit clause; so the header's counts have a
    closed form.  k is checked at the call, before the first line is read.
    """
    if not 1 <= k <= g.n:
        raise GraphError(f"rank bound k={k} outside 1..{g.n}")
    return _cnf_lines(g, k)


def _cnf_lines(g: Graph, k: int) -> Iterator[str]:
    n = g.n
    entries = n * n - 2 * g.edge_count
    yield f"c minrank <= {k} for graph with n={n} m={g.edge_count}\n"
    yield from (f"c var a_{i}_{t} = {i * k + t + 1}\n" for i in range(n) for t in range(k))
    yield from (f"c var b_{t}_{j} = {n * k + t * n + j + 1}\n" for t in range(k) for j in range(n))
    yield f"p cnf {2 * n * k + entries * (2 * k - 1)} {entries * (7 * k - 3)}\n"
    top = 2 * n * k  # the last variable numbered so far
    for i in range(n):
        nonedges = [j for j in range(n) if j != i and not g.has_edge(i, j)]
        for j, target in [(i, 1)] + [(j, 0) for j in nonedges]:
            for t in range(k):
                x, y, p = i * k + t + 1, n * k + t * n + j + 1, top + 1
                yield f"-{p} {x} 0\n"  # p = x AND y
                yield f"-{p} {y} 0\n"
                yield f"{p} -{x} -{y} 0\n"
                if t:  # z = acc XOR p, acc the sum of the earlier products
                    acc, z = top, p + 1
                    yield f"-{z} {acc} {p} 0\n"
                    yield f"-{z} -{acc} -{p} 0\n"
                    yield f"{z} -{acc} {p} 0\n"
                    yield f"{z} {acc} -{p} 0\n"
                top = z if t else p
            yield f"{top} 0\n" if target else f"-{top} 0\n"


def run_solver(dimacs: str | Iterable[str], solver_path: str) -> bool:
    """Feed DIMACS, as text or as lines, to an external solver; True means
    satisfiable.

    The formula goes to a temporary file, which the solver reads as its
    stdin, so a stream of lines is never held whole.  The solver must print
    its verdict on stdout (s-line or bare verdict).  The first line that is
    not a comment (one beginning with c) and holds, in any case, the word
    UNSAT or UNSATISFIABLE means unsatisfiable, and one holding SAT or
    SATISFIABLE satisfiable.  solver_path is a command line, split shell-style, so
    "python3 /path/to/solver.py" works.  Raises GraphError for an empty
    command or a solver that gives no verdict.
    """
    cmd = shlex.split(solver_path)
    if not cmd:
        raise GraphError("empty solver command")
    import tempfile  # only a solve needs it

    with tempfile.TemporaryFile("w+") as fh:
        fh.writelines([dimacs] if isinstance(dimacs, str) else dimacs)
        fh.seek(0)
        proc = subprocess.run(cmd, stdin=fh, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
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
        if run_solver(cnf_lines(g, mid), solver_path):
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
