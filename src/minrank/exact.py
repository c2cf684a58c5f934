"""Exact min-rank solvers over GF(2).

A matrix fits a graph when its diagonal is all ones and it is zero at every
non-adjacent off-diagonal position; the min-rank of the graph is the least
rank among fitting matrices.  Row v of any fitting matrix is the unit row
for v plus some subset of v's neighbor columns, so branch and bound assigns
those subsets row by row while maintaining an incremental row basis: it
finds a vertex's first spanned row by elimination and lists its other rows
only as far as the search gets.  Before it branches, it splits a join into its
co-components and tries to close the gap between the independence number
and the clique-cover number outright.  It solves a part of a graph on the
graph's neighbour bitsets and the part's vertex bitset, never on a copy.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from .gf2 import BitMatrix, fits, rank_gf2
from .graph import Graph


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


def greedy_bounds(adjacency, mask: int) -> Bounds:
    """Greedy independent set (lower) and greedy clique cover (upper) of the
    subgraph induced on the vertex bitset `mask`, over per-vertex neighbour
    bitsets `adjacency`; both break ties toward the smallest vertex id, so
    the certificates are deterministic."""
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


def exact_clique_cover(
    adjacency, mask: int, lower: int, cliques, node_budget: int | None
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Fewest cliques partitioning the vertex bitset `mask`, over per-vertex
    neighbour bitsets `adjacency`, and the search nodes spent.

    Branch and bound in DSATUR order, which is DSATUR colouring of the
    complement: each node places the uncovered vertex that can join the
    fewest of the cliques built so far, into each of those cliques in turn
    and then into a new one.  The search starts from the cover `cliques`
    and stops once the cover has `lower` cliques (no cover has fewer than
    the independence number) or after `node_budget` nodes; the best cover
    found is returned either way.
    """
    search = [[sum(1 << v for v in clique) for clique in cliques], 0]
    if len(search[0]) > lower:
        _cover(adjacency, lower, node_budget, search, [], [], mask)
    best, nodes = search
    return tuple(tuple(_iter_bits(clique)) for clique in best), nodes


def _cover(adjacency, lower, budget, search, classes, common, left) -> bool:
    """Cover `left` given the cliques built, `classes`, and the vertices
    adjacent to all of each, `common`; `search` holds the best cover and the
    nodes spent.  True once `exact_clique_cover`'s search should stop."""
    if not left:
        search[0] = list(classes)
        return len(classes) <= lower
    if len(classes) >= len(search[0]):
        return False
    if budget is not None and search[1] >= budget:
        return True
    search[1] += 1
    v = _dsatur_pick(adjacency, left, common)
    bit = 1 << v
    for c, members in enumerate(common):
        if members & bit:
            classes[c] |= bit
            common[c] &= adjacency[v]
            stop = _cover(adjacency, lower, budget, search, classes, common, left ^ bit)
            classes[c] ^= bit
            common[c] = members
            if stop:
                return True
    if len(classes) + 1 < len(search[0]):
        classes.append(bit)
        common.append(adjacency[v])
        stop = _cover(adjacency, lower, budget, search, classes, common, left ^ bit)
        classes.pop()
        common.pop()
        return stop
    return False


def _dsatur_pick(adjacency, left: int, common) -> int:
    """The vertex of `left` in the fewest bitsets of `common`, then of least
    degree within `left`, then the lowest.  Bit k of the counts is planes[k]."""
    planes = []
    for carry in common:
        carry &= left
        for k, plane in enumerate(planes):
            planes[k], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    fewest = left
    for plane in reversed(planes):
        fewest = fewest & ~plane or fewest
    v, least = -1, left.bit_count() + 1
    while fewest:
        u = (fewest & -fewest).bit_length() - 1
        degree = (adjacency[u] & left).bit_count()
        if degree < least:
            v, least = u, degree
        fewest ^= 1 << u
    return v


def _greedy_independent(closed, avail: int) -> int:
    """The size of the greedy independent set of the bitset `avail`, least
    closed degree (over closed neighbourhoods `closed`) first and the lowest
    on ties."""
    chosen = 0
    while avail:
        scan, least = avail, avail.bit_count() + 1
        while scan:
            low = scan & -scan
            degree = (closed[low.bit_length() - 1] & avail).bit_count()
            if degree < least:
                pick, least = low, degree
                if degree == 1:  # the least any vertex can have
                    break
            scan ^= low
        chosen += 1
        avail &= ~closed[pick.bit_length() - 1]
    return chosen


class _Memo(dict):
    """A dict that fills in a missing key k with `make(k)` when it is read."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        self[key] = value = self.make(key)
        return value


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


def independence_number(adjacency, mask: int) -> int:
    """Maximum independent set size of the subgraph induced on the vertex
    bitset `mask`, over per-vertex neighbour bitsets `adjacency`: branch and
    bound, depth first on a stack of (vertices left, vertices taken)."""
    best = 0
    stack = [(mask, 0)]
    while stack:
        avail, size = stack.pop()
        if size + avail.bit_count() <= best:
            continue
        if avail == 0:
            best = size  # more than best, by the test above
            continue
        # A vertex with at most one neighbour left is in some largest set:
        # take it.  Else skip, then take, the lowest vertex of highest degree.
        v, top = 0, -1
        for u in _iter_bits(avail):
            degree = (adjacency[u] & avail).bit_count()
            if degree <= 1:
                stack.append((avail & ~adjacency[u] & ~(1 << u), size + 1))
                break
            if degree > top:
                v, top = u, degree
        else:
            stack.append((avail & ~adjacency[v] & ~(1 << v), size + 1))
            stack.append((avail & ~(1 << v), size))
    return best


def _iter_bits(mask: int):
    """The positions of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_spanned_row(pivots: dict[int, int], v: int, mask: int) -> int | None:
    """The first row for v that lies in the span of `pivots` (rows keyed by
    leading bit), or None when no row does, where v's rows are e_v + s over
    the subsets s of v's neighbour columns `mask`, in increasing order of s.

    The unit rows of those columns are eliminated against the pivots in
    increasing column order, each stored row keeping the set of unit rows it
    sums; then e_v is reduced the same way.  It reduces to zero exactly when
    some row is spanned, and then the unit rows it summed are e_v and those
    of some s0.  Every spanned row is e_v + s0 plus a sum of kernel vectors,
    one per column whose unit row reduced to zero, column j's with top bit
    j.  Only stored columns enter a sum, so s0 has none of those bits, which
    makes it the least s.
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


def _bnb_connected(adjacency, mask: int, node_budget: int | None) -> MinrankResult:
    """Branch-and-bound on the connected subgraph induced on the vertex
    bitset `mask`, over per-vertex neighbour bitsets `adjacency`.

    The bounds come first, computed on every call: the greedy ones and, up
    to 40 vertices when they leave a gap, the exact independence number.
    If a gap remains at that size, a join is split into its co-components,
    and otherwise the exact clique cover becomes the incumbent; the search
    runs only if that still leaves a gap.
    """
    start = time.perf_counter()
    n = mask.bit_count()
    greedy = greedy_bounds(adjacency, mask)
    lower, cliques = greedy.lower, greedy.cliques
    cover_nodes = 0
    if n <= 40 and lower < len(cliques):
        # The exact independence number is cheap at this size and lets the
        # search stop as soon as it matches the incumbent; when the greedy
        # bounds meet, it is squeezed to their value already.
        lower = independence_number(adjacency, mask)
        if lower < len(cliques):
            # In the complement a vertex reaches the non-neighbours left in mask.
            flip = {v: ~adjacency[v] for v in _iter_bits(mask)}
            parts = bit_components(flip, mask)
            if len(parts) > 1:
                solved = ((part, _bnb_on(adjacency, part, node_budget)) for part in parts)
                return _combine_components(len(adjacency), solved, "bnb", join=True)
            cliques, cover_nodes = exact_clique_cover(
                adjacency, mask, lower, cliques, node_budget
            )
    # The incumbent: each row is its cover clique's indicator, and disjoint
    # cliques' indicators are independent, so the rank is the clique count.
    best_rows = {}
    for clique in cliques:
        best_rows.update(dict.fromkeys(clique, sum(1 << v for v in clique)))
    stats = {"lower": lower, "upper_init": len(cliques), "nodes": 0, "rows": 0,
             "cover_nodes": cover_nodes}
    if lower == len(cliques):
        stats["elapsed"] = time.perf_counter() - start
        return MinrankResult(lower, "bnb", _witness(len(adjacency), best_rows), True, stats)

    local = {v: adjacency[v] & mask for v in _iter_bits(mask)}
    # Assign rows in descending-degree order; ties go to the smaller id.
    order = sorted(local, key=lambda v: (-local[v].bit_count(), v))
    closed = {v: bits | (1 << v) for v, bits in local.items()}
    # unassigned[i]: the vertices order[i:], as a bitset.
    unassigned = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        unassigned[i] = unassigned[i + 1] | (1 << order[i])
    best_value = len(cliques)
    chosen: dict[int, int] = {}
    pivots: dict[int, int] = {}
    # An independent set S of unassigned vertices outside every chosen row's
    # support adds |S| to the rank: its rows are the identity on the S
    # columns, where the chosen rows are all zero.  A node whose rank plus
    # gains[its free vertices] cannot beat best_value is cut.
    gains = _Memo(functools.partial(_greedy_independent, closed))
    nodes = rows = 0
    budget = float("inf") if node_budget is None else node_budget

    def branches(i: int, support: int):
        """Yield the support after each child row of the node at depth i
        that the bound does not cut.

        Rows with equal residuals lead to identical sub-searches, so only
        the first row of each residual is tried: the first spanned row,
        then each new nonzero residual, in the order of v's rows e_v + s
        over the subsets s of its neighbour columns, in increasing order of
        s.  Rows are listed lazily, so a search that stops early never
        pays for the 2^deg rows it did not reach.  A child of a new
        residual is tested against the bound as its row is made, with
        best_value as it stands then; one the bound cuts is counted as a
        node here and never yielded.  Once the budget is spent a child is
        yielded untested, and the search loop counts it and stops.
        """
        nonlocal nodes, rows
        v = order[i]
        nbrs, rest = local[v], unassigned[i + 1] & ~support
        rank = len(pivots) + 1  # a new residual's child's; fixed while this runs
        row = _first_spanned_row(pivots, v, nbrs)
        if row is not None:
            # It lies in the span of the chosen rows, so inside their
            # support: its child has this node's rank and free set, and
            # passes the bound as this node did just before.
            chosen[v] = row
            yield support | row
        seen = set()
        unit, sub = 1 << v, 0
        while True:
            rows += 1
            x = unit | sub  # reduced against the pivots, as gf2.reduce_row does
            while x and (p := pivots.get(top := x.bit_length() - 1)) is not None:
                x ^= p
            if x and x not in seen:
                seen.add(x)
                if rank + gains[rest & ~sub] < best_value or nodes >= budget:
                    chosen[v] = unit | sub
                    pivots[top] = x
                    yield support | unit | sub
                    del pivots[top]
                else:
                    nodes += 1
            if sub == nbrs:
                break
            sub = (sub - nbrs) & nbrs

    # Depth-first on an explicit stack: stack[d] yields the children of the
    # open node at depth d - 1 that the bound does not cut, and stack[0]
    # the root, which is tested here, as branches tests every other node.
    exact = True
    if gains[unassigned[0]] < best_value or nodes >= budget:
        stack = [iter((0,))]
    else:
        stack, nodes = [], 1
    while stack:
        support = next(stack[-1], None)
        if support is None:
            stack.pop()
            continue
        i = len(stack) - 1
        nodes += 1
        if nodes > budget:
            exact = False
            stats["interval"] = [lower, best_value]
            break
        if i < n:
            stack.append(branches(i, support))
        else:
            best_value = len(pivots)
            best_rows = dict(chosen)
            if best_value == lower:
                break
    stats.update(nodes=nodes, rows=rows, elapsed=time.perf_counter() - start)
    return MinrankResult(best_value, "bnb", _witness(len(adjacency), best_rows), exact, stats)


def _witness(cols: int, rows: dict[int, int]) -> BitMatrix:
    """A part's witness: the rows of its vertices, ascending, over `cols`
    columns."""
    return BitMatrix(len(rows), cols, tuple(rows[v] for v in sorted(rows)))


def minrank_bnb(
    g: Graph, node_budget: int | None = None, mask: int | None = None
) -> MinrankResult:
    """Exact min-rank by branch and bound of g, or of its subgraph induced
    on the vertex bitset `mask`, whose vertices' rows over g's columns make
    the witness.

    Disconnected inputs are solved per component, since min-rank is
    additive over components.  When the node budget runs out the incumbent
    is returned with `exact=False` and a bound interval in `stats`.
    """
    full = (1 << g.n) - 1
    return _bnb_on(g.adjacency_bits(), full if mask is None else mask, node_budget)


def _bnb_on(adjacency, mask: int, node_budget: int | None) -> MinrankResult:
    """`minrank_bnb` of the subgraph induced on the vertex bitset `mask`."""
    comps = bit_components(adjacency, mask)
    if len(comps) <= 1:
        return _bnb_connected(adjacency, mask, node_budget)
    solved = ((part, _bnb_connected(adjacency, part, node_budget)) for part in comps)
    return _combine_components(len(adjacency), solved, "bnb")


def _combine_components(cols: int, solved, method: str, join: bool = False) -> MinrankResult:
    """Combine the parts' answers, given as (vertex bitset, answer) pairs
    whose bitset is None where none was built (and then no witness),
    merging the witness rows by vertex over `cols` columns.

    Connected components add up.  With `join`, the parts are co-components
    and the min-rank is their maximum: every entry between two parts is
    free, so the parts' factorizations pad to a common inner dimension and
    stack.  Inexact parts give the interval of summed (or largest) bounds.
    When some part's answer carries a trace, `stats["trace"]` lists each
    part's trace (or None) under "components", in the order of `solved`.
    """
    values, lowers, methods, traces = [], [], [], []
    rows: dict | None = {}  # vertex -> witness row, while every part has one
    exact = True
    counts = {"nodes": 0, "rows": 0}
    masks = []
    for mask, res in solved:
        masks.append(mask)
        values.append(res.value)
        lowers.append(res.stats.get("interval", (res.value,))[0])
        methods.append(res.method)
        traces.append(res.stats.get("trace"))
        exact = exact and res.exact
        if rows is not None and res.witness is not None:
            rows.update(zip(_iter_bits(mask), res.witness.data))
        else:
            rows = None
        for key in ("nodes", "rows", "cover_nodes"):
            if key in res.stats:
                counts[key] = counts.get(key, 0) + res.stats[key]
    if join:
        value, lower = max(values), max(lowers)
    else:
        value, lower = sum(values), sum(lowers)
    exact = exact or (join and lower == value)
    witness = None
    if rows is not None:
        witness = _witness(cols, _stack_factorizations(rows, masks) if join else rows)
    stats: dict = {"co_components" if join else "components": len(masks),
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


def _stack_factorizations(rows: dict[int, int], parts) -> dict[int, int]:
    """The rows of one fitting matrix for a join, by vertex, from `rows`,
    which fit each part (a vertex bitset) on its own.

    Each part's rows factor as A_i B_i over a basis of those rows.  Summing
    the parts' j-th basis rows gives a shared row R_j; a vertex's row
    becomes the sum of the R_j its own row combines.  On each part that is
    its rows again, the entries between parts are free, and the rank is
    the largest part rank.
    """
    combos = {}  # vertex -> basis rows of its part it sums
    shared: list[int] = []
    for part in parts:
        basis = 0
        pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (row, combo)
        for v in _iter_bits(part):
            x, combo = rows[v], 0
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
                shared[basis] ^= rows[v]
                pivots[top] = (x, combo ^ (1 << basis))
                combo = 1 << basis
                basis += 1
            combos[v] = combo
    stacked = {}
    for v, combo in combos.items():
        row = 0
        for b in _iter_bits(combo):
            row ^= shared[b]
        stacked[v] = row
    return stacked


def verify_witness(result: MinrankResult, g: Graph) -> bool:
    """Check a solver certificate: the witness fits and has the claimed rank."""
    if result.witness is None:
        return False
    return fits(result.witness, g) and rank_gf2(result.witness) == result.value
