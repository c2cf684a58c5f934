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
* `combine_shared_vertex` handles gluing two graphs that overlap in
  exactly one vertex v: the min-rank of the union is the sum of the two
  with v deleted, plus 1 only when both halves strictly need v.

A part with several downward connectors is folded one connector at a
time.  Because each glue step needs values both with and without the
shared connector, and the final answer needs both with and without the
part's upward connector, the fold carries a table indexed by subsets of
the still-pending connector vertices; the table at step t maps each
subset U to the min-rank of the partial union minus U.  The table never
exceeds 2^d entries for d downward connectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import BudgetExceededError, StructureError
from .exact import MinrankResult
from .families import FamilyRegistry
from .graph import Graph
from .structure import SimpleTreeStructure, validate_structure


@dataclass
class NodeTable:
    """Subtree min-rank with and without the part's upward connector."""

    m_full: int
    m_minus: int | None


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


def _subsets(items: list[int]):
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def dp_minrank(
    g: Graph,
    t: SimpleTreeStructure,
    registry: FamilyRegistry,
    trace: bool = False,
    max_subsets: int = 1 << 16,
) -> MinrankResult:
    """Exact min-rank of a graph from its tree-of-parts structure.

    The structure is validated first and the fold runs on the validated
    copy, with connectors read off the graph.  Family oracles answer
    min-rank queries on parts with connector subsets deleted (families are
    closed under vertex deletion, so those stay members).  No witness
    matrix is produced.  Parts whose connector subset table would exceed
    `max_subsets` entries are refused.
    """
    report = validate_structure(g, t, registry)
    if not report.valid:
        raise StructureError(f"invalid structure: {report.violations}")
    t = report.structure
    by_name = {o.name: o for o in registry.oracles}
    part_oracles = [by_name[name] for name in report.families]

    k = len(t.parts)
    part_graphs = []
    part_maps = []
    for part in t.parts:
        sub, mapping = g.induced_subgraph(part)
        part_graphs.append(sub)
        part_maps.append(mapping)

    oracle_memo: dict[tuple[int, frozenset], int] = {}
    oracle_calls = 0

    def part_minrank(i: int, removed: frozenset) -> int:
        nonlocal oracle_calls
        key = (i, removed)
        if key not in oracle_memo:
            local_drop = [part_maps[i][v] for v in removed]
            sub = part_graphs[i].remove_vertices(local_drop)
            oracle_calls += 1
            oracle_memo[key] = part_oracles[i].minrank(sub)
        return oracle_memo[key]

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

    tables: dict[int, NodeTable] = {}
    trace_nodes = []
    for i in order:
        uc = t.uc.get(i)
        dc_map = t.dc.get(i, {})
        dcs = sorted(dc_map)
        d = len(dcs)
        if not dcs:
            table = NodeTable(
                part_minrank(i, frozenset()),
                part_minrank(i, frozenset({uc})) if uc is not None else None,
            )
        else:
            if 2**d > max_subsets:
                raise BudgetExceededError(
                    f"part {i} has {d} downward connectors; "
                    f"2^{d} subsets exceed the budget of {max_subsets}"
                )
            hub_values = {
                u: star_merge(
                    [(tables[j].m_full, tables[j].m_minus) for j in dc_map[u]]
                )
                for u in dcs
            }
            # Fold in the first connector against the bare part, then the rest
            # against the running union; each step consumes one subset slot.
            cur: dict[frozenset, int] = {}
            u1 = dcs[0]
            slots = set(dcs[1:]) | ({uc} if uc is not None else set())
            for subset in _subsets(sorted(slots)):
                if uc is not None and uc == u1 and uc in subset:
                    cur[subset] = part_minrank(i, subset) + hub_values[u1][1]
                else:
                    cur[subset] = combine_shared_vertex(
                        part_minrank(i, subset),
                        part_minrank(i, subset | {u1}),
                        hub_values[u1][0],
                        hub_values[u1][1],
                    )
            for step in range(1, d):
                u = dcs[step]
                slots = set(dcs[step + 1 :]) | ({uc} if uc is not None else set())
                nxt: dict[frozenset, int] = {}
                for subset in _subsets(sorted(slots)):
                    if uc is not None and uc == u and uc in subset:
                        nxt[subset] = cur[subset] + hub_values[u][1]
                    else:
                        nxt[subset] = combine_shared_vertex(
                            cur[subset],
                            cur[subset | {u}],
                            hub_values[u][0],
                            hub_values[u][1],
                        )
                cur = nxt
            table = NodeTable(
                cur[frozenset()],
                cur[frozenset({uc})] if uc is not None else None,
            )
        if table.m_minus is not None:
            _check_pair(table.m_full, table.m_minus, f"table at part {i}")
        tables[i] = table
        if trace:
            trace_nodes.append(
                {
                    "part": i,
                    "family": part_oracles[i].name,
                    "m_full": table.m_full,
                    "m_minus": table.m_minus,
                    "hub_values": {
                        str(u): list(hub_values[u]) for u in dcs
                    }
                    if dcs
                    else {},
                }
            )

    stats = {"oracle_calls": oracle_calls, "parts": k}
    if trace:
        stats["trace"] = {"order": order, "nodes": trace_nodes}
    return MinrankResult(tables[t.root].m_full, "dp", None, True, stats)
