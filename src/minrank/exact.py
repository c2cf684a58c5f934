"""Exact min-rank solvers over GF(2).

A matrix fits a graph when its diagonal is all ones and it is zero at every
non-adjacent off-diagonal position; the min-rank of the graph is the least
rank among fitting matrices.  Row v of any fitting matrix is the unit row
for v plus some subset of v's neighbor columns, so solvers enumerate those
subsets row by row while maintaining an incremental row basis.  Brute force
lists every row of every vertex; branch and bound finds a vertex's first
spanned row by elimination and lists its other rows only as far as the
search gets.  Before it branches, branch and bound splits a join into its
co-components and tries to close the gap between the independence number
and the clique-cover number outright.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import BudgetExceededError
from .gf2 import BitMatrix, rank_gf2, reduce_row
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
    """Greedy independent set (lower) and greedy clique cover (upper); both
    break ties toward the smallest vertex id, so the certificates are
    deterministic."""
    return greedy_bounds(g.adjacency_bits(), (1 << g.n) - 1)


def greedy_bounds(adjacency, mask: int) -> Bounds:
    """`sandwich_bounds` of the subgraph induced on the vertex bitset `mask`,
    over per-vertex neighbour bitsets `adjacency`."""
    chosen, cliques = [], []
    blocked = covered = 0
    for v in _iter_bits(mask):
        low = 1 << v
        if not blocked & low:
            chosen.append(v)
            blocked |= low | adjacency[v]
        if not covered & low:
            clique, cand = [v], adjacency[v] & mask & ~covered
            while cand:
                clique.append((cand & -cand).bit_length() - 1)
                cand &= adjacency[clique[-1]]
            covered |= sum(1 << w for w in clique)
            cliques.append(tuple(clique))
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


def exact_clique_cover(
    g: Graph, lower: int, cliques, node_budget: int | None
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Fewest cliques partitioning the vertices, and the search nodes spent.

    Branch and bound in DSATUR order, which is DSATUR colouring of the
    complement: each node places the uncovered vertex that can join the
    fewest of the cliques built so far, into each of those cliques in turn
    and then into a new one.  The search starts from the cover `cliques`
    and stops once the cover has `lower` cliques (no cover has fewer than
    the independence number) or after `node_budget` nodes; the best cover
    found is returned either way.
    """
    adjacency = g.adjacency_bits()
    best = [sum(1 << v for v in clique) for clique in cliques]
    classes: list[int] = []  # the cliques being built, as vertex bitsets
    common: list[int] = []  # common[c]: vertices adjacent to all of classes[c]
    nodes = 0

    def extend(left: int) -> bool:
        """Cover the vertices `left`; True once the search should stop."""
        nonlocal best, nodes
        if not left:
            best = list(classes)
            return len(best) <= lower
        if len(classes) >= len(best):
            return False
        if node_budget is not None and nodes >= node_budget:
            return True
        nodes += 1
        v = min(
            _iter_bits(left),
            key=lambda u: (
                sum(c >> u & 1 for c in common),
                (adjacency[u] & left).bit_count(),
            ),
        )
        bit = 1 << v
        for c, members in enumerate(common):
            if members & bit:
                classes[c] |= bit
                common[c] &= adjacency[v]
                stop = extend(left ^ bit)
                classes[c] ^= bit
                common[c] = members
                if stop:
                    return True
        if len(classes) + 1 < len(best):
            classes.append(bit)
            common.append(adjacency[v])
            stop = extend(left ^ bit)
            classes.pop()
            common.pop()
            return stop
        return False

    if len(best) > lower:
        extend((1 << g.n) - 1)
    return tuple(tuple(_iter_bits(clique)) for clique in best), nodes


def co_components(g: Graph) -> list[list[int]]:
    """Vertex sets of the complement's components, each sorted, ordered by
    minimum vertex."""
    full = (1 << g.n) - 1
    flip = [full ^ bits ^ (1 << v) for v, bits in enumerate(g.adjacency_bits())]
    return [list(_iter_bits(part)) for part in bit_components(flip, full)]


def bit_components(adjacency, mask: int) -> list[int]:
    """Vertex bitsets of the components of the subgraph induced on the
    bitset `mask`, over per-vertex neighbour bitsets `adjacency`, ordered
    by lowest vertex."""
    parts = []
    while mask:
        frontier = part = mask & -mask
        mask ^= part
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach = mask & adjacency[low.bit_length() - 1]
            mask ^= reach
            part |= reach
            frontier |= reach
        parts.append(part)
    return parts


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
    return independence_number(g.adjacency_bits(), (1 << g.n) - 1)


def independence_number(adjacency, mask: int) -> int:
    """`exact_independence_number` of the subgraph induced on the vertex
    bitset `mask`, over per-vertex neighbour bitsets `adjacency`."""
    best = 0

    def grow(avail: int, size: int) -> None:
        nonlocal best
        if size + avail.bit_count() <= best:
            return
        if avail == 0:
            best = size  # more than best, by the test above
            return
        # A vertex with at most one neighbour left is in some largest set:
        # take it.  Else skip or take the lowest vertex of highest degree.
        v, top = 0, -1
        for u in _iter_bits(avail):
            degree = (adjacency[u] & avail).bit_count()
            if degree <= 1:
                return grow(avail & ~adjacency[u] & ~(1 << u), size + 1)
            if degree > top:
                v, top = u, degree
        grow(avail & ~(1 << v), size)
        grow(avail & ~adjacency[v] & ~(1 << v), size + 1)

    grow(mask, 0)
    return best


def _iter_bits(mask: int):
    """The positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
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
            x = reduce_row(pivots, cand)
            if x:
                top = x.bit_length() - 1
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
    for unit in [1 << u for u in (*_iter_bits(mask), v)]:
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
    """Branch-and-bound on one connected graph.

    The bounds come first: the greedy ones and, up to 40 vertices when they
    leave a gap, the exact independence number.  If a gap remains at that
    size, a join is split into its co-components, and otherwise the exact
    clique cover becomes the incumbent; the search runs only if that still
    leaves a gap.
    """
    start = time.perf_counter()
    bounds = sandwich_bounds(g)
    lower = bounds.lower
    cliques = bounds.cliques
    cover_nodes = 0
    if g.n <= 40 and lower < bounds.upper:
        # The exact independence number is cheap at this size and lets the
        # search stop as soon as it matches the incumbent; when the greedy
        # bounds meet, it is squeezed to their value already.
        lower = max(lower, exact_independence_number(g))
        if lower < bounds.upper:
            parts = co_components(g)
            if len(parts) > 1:
                return _combine_components(
                    g, parts, lambda sub: minrank_bnb(sub, node_budget), "bnb",
                    join=True,
                )
            cliques, cover_nodes = exact_clique_cover(
                g, lower, cliques, node_budget
            )
    cover = clique_cover_matrix(g, cliques)
    stats = {"lower": lower, "upper_init": len(cliques), "nodes": 0, "rows": 0,
             "cover_nodes": cover_nodes}
    if lower == len(cliques):
        stats["elapsed"] = time.perf_counter() - start
        return MinrankResult(lower, "bnb", cover, True, stats)

    # Assign rows in descending-degree order; ties go to the smaller id.
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    n = g.n
    adjacency = g.adjacency_bits()
    closed = [bits | (1 << v) for v, bits in enumerate(adjacency)]
    # unassigned[i]: the vertices order[i:], as a bitset.
    unassigned = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        unassigned[i] = unassigned[i + 1] | (1 << order[i])
    best_value = len(cliques)
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
                v = min(_iter_bits(avail), key=lambda u: (closed[u] & avail).bit_count())
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
            x = reduce_row(pivots, cand)
            if x and x not in seen:
                seen.add(x)
                chosen[v] = cand
                top = x.bit_length() - 1
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


def _combine_components(
    g: Graph, comps, solver, method: str, join: bool = False
) -> MinrankResult:
    """Solve each part with `solver` and combine the answers.

    Connected components add up.  With `join`, the parts are co-components
    and the min-rank is their maximum: every entry between two parts is
    free, so the parts' factorizations pad to a common inner dimension and
    stack.  Inexact parts give the interval of summed (or largest) bounds.
    When some part's answer carries a trace, `stats["trace"]` lists each
    part's trace (or None) under "components", in the order of `comps`.
    """
    values, lowers, blocks, methods, traces = [], [], [], [], []
    exact = True
    counts = {"nodes": 0, "rows": 0}
    for comp in comps:
        res = solver(g.induced_subgraph(comp)[0])
        values.append(res.value)
        lowers.append(res.stats.get("interval", (res.value,))[0])
        blocks.append(res.witness)
        methods.append(res.method)
        traces.append(res.stats.get("trace"))
        exact = exact and res.exact
        for key in ("nodes", "rows", "cover_nodes"):
            if key in res.stats:
                counts[key] = counts.get(key, 0) + res.stats[key]
    if join:
        value, lower = max(values), max(lowers)
    else:
        value, lower = sum(values), sum(lowers)
    exact = exact or (join and lower == value)
    witness = None
    if None not in blocks:
        witness = BitMatrix.block_diagonal(blocks, comps)
        if join:
            witness = _stack_factorizations(witness, comps)
    stats: dict = {"co_components" if join else "components": len(comps),
                   "methods": methods, **counts}
    if not exact:
        stats["interval"] = [lower, value]
    if any(traces):
        stats["trace"] = {"components": traces}
    return MinrankResult(value, method, witness, exact, stats)


def _check_pair(m: int, mv: int, what: str) -> None:
    # Deleting one vertex changes min-rank by at most one, never upward.
    if mv < 0 or m < 0:
        raise ValueError(f"{what}: negative min-rank ({m}, {mv})")
    if not m - 1 <= mv <= m:
        raise ValueError(
            f"{what}: deleting one vertex cannot take min-rank {m} to {mv}"
        )


def combine_shared_vertex(m1: int, m1v: int, m2: int, m2v: int) -> int:
    """Min-rank of the union of two graphs meeting in exactly one vertex v.

    Arguments are the min-ranks of each side with v present and with v
    deleted.  The union needs the deleted-v parts regardless; one more
    unit is paid exactly when both sides strictly need v.
    """
    _check_pair(m1, m1v, "left side")
    _check_pair(m2, m2v, "right side")
    return m1v + m2v + (m1 - m1v) * (m2 - m2v)


def _stack_factorizations(blocks: BitMatrix, parts) -> BitMatrix:
    """One fitting matrix for a join from a block-diagonal matrix whose
    diagonal blocks, one per part, fit the parts.

    Each block factors as A_i B_i over a basis of its own rows.  Summing the
    pieces' j-th basis rows gives a shared row R_j; a vertex's row becomes
    the sum of the R_j its block row combines.  On each diagonal block that
    is the block again, the other entries are free, and the rank is the
    largest block rank.
    """
    combos = [0] * blocks.rows  # vertex -> basis rows of its part it sums
    shared: list[int] = []
    for part in parts:
        basis = 0
        pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (row, combo)
        for v in part:
            x, combo = blocks.data[v], 0
            while x:
                top = x.bit_length() - 1
                if top not in pivots:
                    break
                row, used = pivots[top]
                x ^= row
                combo ^= used
            if x:
                if basis == len(shared):
                    shared.append(0)
                shared[basis] ^= blocks.data[v]
                pivots[top] = (x, combo ^ (1 << basis))
                combo = 1 << basis
                basis += 1
            combos[v] = combo
    rows = []
    for combo in combos:
        row = 0
        for b in _iter_bits(combo):
            row ^= shared[b]
        rows.append(row)
    return BitMatrix(blocks.rows, blocks.cols, tuple(rows))


def verify_witness(result: MinrankResult, g: Graph) -> bool:
    """Check a solver certificate: the witness fits and has the claimed rank."""
    if result.witness is None:
        return False
    from .gf2 import fits

    return fits(result.witness, g) and rank_gf2(result.witness) == result.value
