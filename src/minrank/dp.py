"""Polynomial-time min-rank on graphs with a tree-of-parts structure.

The algorithm folds the tree bottom-up.  For every part it tracks two
numbers: the min-rank of the subtree graph hanging off that part, and the
same after deleting the part's upward connector.  Two combination rules
drive the fold:

* `star_merge` handles one downward connector u and the child subtrees
  attached through it.  The graph there is u joined to each child's upward
  connector, and deleting u leaves the disjoint child subtrees, whose
  min-ranks add.  Restoring u costs one extra rank unit unless some child
  subtree loses a rank unit when its own connector is deleted; in that
  case the connector row can be reused and the sum stands.
* `combine_shared_vertex` (kept in `exact` with the rules for components
  and joins) handles gluing two graphs that overlap in
  exactly one vertex v: the min-rank of the union is the sum of the two
  with v deleted, plus 1 only when both halves strictly need v.

A part with several downward connectors is folded one connector at a
time.  Because each glue step needs values both with and without the
shared connector, and the final answer needs both with and without the
part's upward connector, the fold carries a table indexed by subsets of
the still-pending connector vertices, as bitmasks over the part's sorted
connectors: entry U is the min-rank of the partial union minus U.  It
starts as the bare part's min-rank minus each subset, read from one
solver per part, and never exceeds 2^(d+1) entries for d connectors.

`dp_fold` folds a valid `StructureReport`, which carries those solvers:
on the auto path the one `recognize` builds, unchecked again, and in
`dp_minrank` the one validating a structure it is handed gives.
"""

from __future__ import annotations

from .errors import BudgetExceededError, StructureError
from .exact import MinrankResult, _check_pair, combine_shared_vertex
from .families import FamilyRegistry
from .graph import Graph
from .structure import SimpleTreeStructure, StructureReport, validate_structure

# Largest connector-subset table the fold builds for one part.
MAX_SUBSETS = 1 << 16


def star_merge(children: list[tuple[int, int]]) -> tuple[int, int]:
    """Min-rank of child subtrees joined to one new hub vertex.

    Each pair is (subtree min-rank, min-rank after deleting the subtree's
    connector).  Returns (with hub, without hub).  Without the hub the
    subtrees are disjoint and their values add; the hub costs one extra
    unit unless some subtree drops a unit at its connector.
    """
    if not children:
        raise ValueError("star merge needs at least one child subtree")
    for idx, (m, mv) in enumerate(children):
        _check_pair(m, mv, f"child {idx}")
    without_hub = sum(m for m, _ in children)
    reusable = any(mv == m - 1 for m, mv in children)
    return (without_hub if reusable else without_hub + 1, without_hub)


def dp_minrank(
    g: Graph,
    t: SimpleTreeStructure,
    registry: FamilyRegistry,
    trace: bool = False,
) -> MinrankResult:
    """Exact min-rank of a graph from a tree-of-parts structure it is handed.

    The structure is validated against the graph and registry, and
    `dp_fold` folds the report; raises StructureError when it is invalid.
    """
    return dp_fold(validate_structure(g, t, registry), trace)


def dp_fold(report: StructureReport, trace: bool = False) -> MinrankResult:
    """Exact min-rank from a valid structure report, in one bottom-up fold.

    The fold runs on the report's structure, whose connectors were read
    off the graph.  Each part's solver answers min-rank queries on the
    part with connector subsets deleted (families are closed under vertex
    deletion, so those stay members), so no part is tested again.  No
    witness matrix is produced.  Parts whose connector subset table would
    exceed `MAX_SUBSETS` entries are refused.
    """
    if not report.valid:
        raise StructureError(f"invalid structure: {report.violations}")
    t = report.structure
    k = len(t.parts)

    children: list[list[int]] = [[] for _ in range(k)]
    for j, p in enumerate(t.parent):
        if p != -1:
            children[p].append(j)
    order = []
    stack = [t.root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    order.reverse()  # every part now comes after all of its children

    # Per part: the subtree min-rank, and the same without its upward
    # connector (None at the root).
    tables: dict[int, tuple[int, int | None]] = {}
    trace_nodes = []
    oracle_calls = 0
    for i in order:
        uc = t.uc.get(i)
        dc_map = t.dc.get(i, {})
        dcs = sorted(dc_map)
        if 2 ** len(dcs) > MAX_SUBSETS:
            raise BudgetExceededError(
                f"part {i} has {len(dcs)} downward connectors; "
                f"2^{len(dcs)} subsets exceed the budget of {MAX_SUBSETS}"
            )
        hub_values = {u: star_merge([tables[j] for j in dc_map[u]]) for u in dcs}
        # Start from the bare part minus each subset of its connectors, bit j
        # of a mask standing for keys[j]; then fold in one downward connector
        # per step, in place, which retires its bit.
        keys = sorted({*dcs, uc} - {None})
        subsets = [[]]  # subsets[mask]: the positions in the part it deletes
        for v in keys:
            x = t.parts[i].index(v)
            subsets += [s + [x] for s in subsets]
        cur = list(map(report.solvers[i], subsets))
        oracle_calls += len(cur)
        retired = 0
        for u in dcs:
            bit, hub = 1 << keys.index(u), hub_values[u]
            retired |= bit if u != uc else 0
            for mask in range(len(cur)):  # ascending: cur[mask | bit] is unfolded
                if mask & retired:
                    continue
                if mask & bit:  # u is also the upward connector, deleted
                    cur[mask] += hub[1]
                else:
                    cur[mask] = combine_shared_vertex(cur[mask], cur[mask | bit], *hub)
        m_full, m_minus = cur[0], None if uc is None else cur[1 << keys.index(uc)]
        if m_minus is not None:
            _check_pair(m_full, m_minus, f"table at part {i}")
        tables[i] = m_full, m_minus
        if trace:
            trace_nodes.append(
                {
                    "part": i,
                    "family": report.families[i],
                    "m_full": m_full,
                    "m_minus": m_minus,
                    "hub_values": {str(u): list(hv) for u, hv in hub_values.items()},
                }
            )

    stats = {"oracle_calls": oracle_calls, "parts": k}
    if trace:
        stats["trace"] = {"order": order, "nodes": trace_nodes}
    return MinrankResult(tables[t.root][0], "dp", None, True, stats)
