"""Exact min-rank solvers over GF(2).

A matrix fits a graph when its diagonal is all ones and it is zero at every
non-adjacent off-diagonal position; the min-rank of the graph is the least
rank among fitting matrices.  Row v of any fitting matrix is the unit row
for v plus some subset of v's neighbor columns, so solvers enumerate those
subsets row by row while maintaining an incremental row basis.  Brute force
lists every row of every vertex; branch and bound finds a vertex's first
spanned row by elimination and lists its other rows only as far as the
search gets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import BudgetExceededError
from .gf2 import BitMatrix, RowBasis, rank_gf2
from .graph import Graph

BRUTE_FORCE_BIT_BUDGET = 24


@dataclass
class Bounds:
    """Sandwich bounds with their greedy certificates."""

    lower: int
    upper: int
    independent_set: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]


@dataclass
class MinrankResult:
    value: int
    method: str
    witness: BitMatrix | None = None
    exact: bool = True
    stats: dict = field(default_factory=dict)


def sandwich_bounds(g: Graph) -> Bounds:
    """Greedy independent set (lower) and greedy clique cover (upper).

    Both greedy passes break ties toward the smallest vertex id, so the
    certificates are deterministic.
    """
    chosen = []
    blocked = set()
    for v in range(g.n):
        if v not in blocked:
            chosen.append(v)
            blocked.add(v)
            blocked |= g.neighbor_set(v)
    cliques = []
    covered = set()
    for v in range(g.n):
        if v in covered:
            continue
        clique = [v]
        cand = set(g.neighbor_set(v)) - covered
        while cand:
            w = min(cand)
            clique.append(w)
            cand &= g.neighbor_set(w)
        covered.update(clique)
        cliques.append(tuple(sorted(clique)))
    return Bounds(len(chosen), len(cliques), tuple(chosen), tuple(cliques))


def clique_cover_matrix(g: Graph, cliques) -> BitMatrix:
    """Fitting matrix whose rank equals the number of cover cliques.

    Every vertex row is the indicator of its clique; indicators of disjoint
    cliques are independent, so the rank is exactly the clique count.
    """
    rows = [0] * g.n
    for clique in cliques:
        mask = 0
        for v in clique:
            mask |= 1 << v
        for v in clique:
            rows[v] = mask
    return BitMatrix(g.n, g.n, tuple(rows))


def _row_choices(g: Graph, v: int):
    """Yield every admissible row for vertex v: unit bit plus any neighbor subset."""
    base = 1 << v
    mask = g.adjacency_bits()[v]
    sub = 0
    while True:
        yield base | sub
        if sub == mask:
            break
        sub = (sub - mask) & mask


def exact_independence_number(g: Graph) -> int:
    """Maximum independent set size by branch and bound on vertex bitsets."""
    closed = [bits | (1 << v) for v, bits in enumerate(g.adjacency_bits())]
    best = 0

    def grow(avail: int, size: int) -> None:
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if avail == 0:
            best = max(best, size)
            return
        # Branch on a highest-degree-in-avail vertex: skip it or take it.
        v = max(
            (x.bit_length() - 1 for x in _iter_bits(avail)),
            key=lambda u: (closed[u] & avail).bit_count(),
        )
        grow(avail & ~(1 << v), size)
        grow(avail & ~closed[v], size + 1)

    grow((1 << g.n) - 1 if g.n else 0, 0)
    return best


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def minrank_bruteforce(g: Graph, budget_bits: int = BRUTE_FORCE_BIT_BUDGET) -> MinrankResult:
    """Exact min-rank by enumerating every fitting matrix.

    There are 2^(2|E|) fitting matrices.  Refuses to start when 2|E|
    exceeds `budget_bits` (default 24).  Shares row-elimination work
    across matrices agreeing on a prefix of rows, but visits every
    complete assignment.
    """
    free_bits = 2 * g.edge_count
    if free_bits > budget_bits:
        raise BudgetExceededError(
            f"brute force needs 2^{free_bits} matrices; budget is 2|E| <= {budget_bits}"
        )
    n = g.n
    choices = [list(_row_choices(g, v)) for v in range(n)]
    chosen = [0] * n
    best_value = n + 1
    best_rows: tuple[int, ...] = ()
    pivots: dict[int, int] = {}
    visited = 0

    def walk(i: int) -> None:
        nonlocal best_value, best_rows, visited
        visited += 1
        if i == n:
            if len(pivots) < best_value:
                best_value = len(pivots)
                best_rows = tuple(chosen)
            return
        for cand in choices[i]:
            chosen[i] = cand
            x = cand
            while x:
                top = x.bit_length() - 1
                p = pivots.get(top)
                if p is None:
                    break
                x ^= p
            if x:
                pivots[top] = x
                walk(i + 1)
                del pivots[top]
            else:
                walk(i + 1)

    start = time.perf_counter()
    walk(0)
    witness = BitMatrix(n, n, best_rows)
    return MinrankResult(
        value=best_value if n else 0,
        method="brute",
        witness=witness,
        stats={
            "free_bits": free_bits,
            "nodes": visited,
            "elapsed": time.perf_counter() - start,
        },
    )


def _first_spanned_row(pivots: dict[int, int], v: int, mask: int) -> int | None:
    """The first row `_row_choices` yields for v that lies in the span of
    `pivots` (rows keyed by leading bit), or None when no row does.

    Rows are e_v + s for the subsets s of v's neighbour columns `mask`, in
    increasing order of s.  The unit rows of those columns are eliminated
    against the pivots in increasing column order, each stored row keeping
    the set of unit rows it sums; then e_v is reduced the same way.  It
    reduces to zero exactly when some row is spanned, and then the unit rows
    it summed are e_v and those of some s0.  Every spanned row is e_v + s0
    plus a sum of kernel vectors, one per column whose unit row reduced to
    zero, column j's with top bit j.  Only stored columns enter a sum, so s0
    has none of those bits, which makes it the least s.
    """
    own: dict[int, tuple[int, int]] = {}  # leading bit -> (row, columns summed)
    for unit in [*_iter_bits(mask), 1 << v]:
        x = combo = unit
        while x:
            top = x.bit_length() - 1
            p = pivots.get(top)
            if p is not None:
                x ^= p
            elif top in own:
                row, used = own[top]
                x ^= row
                combo ^= used
            else:
                own[top] = (x, combo)
                break
    return None if x else combo


def _bnb_connected(g: Graph, node_budget: int | None) -> MinrankResult:
    """Branch-and-bound on one graph, no component splitting."""
    start = time.perf_counter()
    bounds = sandwich_bounds(g)
    cover = clique_cover_matrix(g, bounds.cliques)
    lower = bounds.lower
    if g.n <= 40:
        # The exact independence number is cheap at this size and lets the
        # search stop as soon as it matches the incumbent.
        lower = max(lower, exact_independence_number(g))
    stats = {"lower": lower, "upper_init": bounds.upper, "nodes": 0, "rows": 0}
    if lower == bounds.upper:
        stats["elapsed"] = time.perf_counter() - start
        return MinrankResult(bounds.upper, "bnb", cover, True, stats)

    # Assign rows in descending-degree order; ties go to the smaller id.
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    n = g.n
    adjacency = g.adjacency_bits()
    closed = [bits | (1 << v) for v, bits in enumerate(adjacency)]
    # unassigned[i]: the vertices order[i:], as a bitset.
    unassigned = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        unassigned[i] = unassigned[i + 1] | (1 << order[i])
    best_value = bounds.upper
    best_rows = list(cover.data)
    chosen = [0] * n
    pivots: dict[int, int] = {}
    nodes = 0
    rows = 0

    gain_memo: dict[int, int] = {}

    def gain(free: int) -> int:
        """Size of a greedy independent set in `free`, least degree first."""
        if free not in gain_memo:
            size = 0
            avail = free
            while avail:
                size += 1
                v = min(
                    (b.bit_length() - 1 for b in _iter_bits(avail)),
                    key=lambda u: (closed[u] & avail).bit_count(),
                )
                avail &= ~closed[v]
            gain_memo[free] = size
        return gain_memo[free]

    def branches(i: int, support: int):
        """Yield the support after each child row of the node at depth i.

        Rows with equal residuals lead to identical sub-searches, so only
        the first row of each residual is tried: the first spanned row,
        then each new nonzero residual in the order `_row_choices` meets
        it.  Rows are listed lazily, so a search that stops early never
        pays for the 2^deg rows it did not reach.
        """
        nonlocal rows
        v = order[i]
        row = _first_spanned_row(pivots, v, adjacency[v])
        if row is not None:
            chosen[v] = row
            yield support | row
        seen = set()
        for cand in _row_choices(g, v):
            rows += 1
            x = cand
            while x:
                top = x.bit_length() - 1
                p = pivots.get(top)
                if p is None:
                    break
                x ^= p
            if x and x not in seen:
                seen.add(x)
                chosen[v] = cand
                pivots[top] = x
                yield support | cand
                del pivots[top]

    # Depth-first on an explicit stack: stack[d] lists the branches of the
    # open node at depth d, and the node being visited sits at depth i.
    exact = True
    stack = []
    i, support = 0, 0
    while True:
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exact = False
            stats["interval"] = [lower, best_value]
            break
        # An independent set S of unassigned vertices outside every chosen
        # row's support adds |S| to the rank: its rows are the identity on
        # the S columns, where the chosen rows are all zero.
        if len(pivots) + gain(unassigned[i] & ~support) < best_value:
            if i < n:
                stack.append(branches(i, support))
            else:
                best_value = len(pivots)
                best_rows = list(chosen)
                if best_value == lower:
                    break
        # Go on to the next branch of the deepest node that has one left.
        while stack:
            support = next(stack[-1], None)
            if support is not None:
                break
            stack.pop()
        if not stack:
            break
        i = len(stack)
    stats["nodes"] = nodes
    stats["rows"] = rows
    stats["elapsed"] = time.perf_counter() - start
    witness = BitMatrix(n, n, tuple(best_rows))
    return MinrankResult(best_value, "bnb", witness, exact, stats)


def minrank_bnb(g: Graph, node_budget: int | None = None) -> MinrankResult:
    """Exact min-rank by branch and bound.

    Disconnected inputs are solved per component and the block-diagonal
    witness reassembled, since min-rank is additive over components.  When
    the node budget runs out the incumbent is returned with `exact=False`
    and a bound interval in `stats`.
    """
    comps = g.connected_components()
    if len(comps) <= 1:
        return _bnb_connected(g, node_budget)
    return _combine_components(
        g, comps, lambda sub: _bnb_connected(sub, node_budget), method="bnb"
    )


def minrank_components(g: Graph, solver) -> MinrankResult:
    """Solve each connected component with `solver` and sum the values."""
    return _combine_components(g, g.connected_components(), solver, method="components")


def _combine_components(g: Graph, comps, solver, method: str) -> MinrankResult:
    total = 0
    lower = 0
    blocks = []
    placements = []
    exact = True
    methods = []
    nodes = 0
    rows = 0
    have_witness = True
    for comp in comps:
        sub, mapping = g.induced_subgraph(comp)
        res = solver(sub)
        total += res.value
        exact = exact and res.exact
        methods.append(res.method)
        nodes += res.stats.get("nodes", 0)
        rows += res.stats.get("rows", 0)
        lo, _ = res.stats.get("interval", (res.value, res.value))
        lower += lo
        if res.witness is None:
            have_witness = False
        else:
            blocks.append(res.witness)
            placements.append(comp)
    witness = None
    if have_witness and g.n:
        witness = BitMatrix.block_diagonal(blocks, placements)
        pad = g.n - witness.rows
        if pad > 0:
            witness = BitMatrix(g.n, g.n, witness.data + (0,) * pad)
    elif g.n == 0:
        witness = BitMatrix(0, 0, ())
    stats: dict = {
        "components": len(comps), "methods": methods, "nodes": nodes, "rows": rows
    }
    if not exact:
        stats["interval"] = [lower, total]
    return MinrankResult(total, method, witness, exact, stats)


def verify_witness(result: MinrankResult, g: Graph) -> bool:
    """Check a solver certificate: the witness fits and has the claimed rank."""
    if result.witness is None:
        return False
    from .gf2 import fits

    return fits(result.witness, g) and rank_gf2(result.witness) == result.value
