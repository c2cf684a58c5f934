"""Polynomial-time min-rank on graphs with a tree-of-parts structure.

The algorithm folds the tree bottom-up.  For every part it tracks two
numbers: the min-rank of the subtree graph hanging off that part, and the
same after deleting the part's upward connector.  Two numbers per vertex
u carry the children hung at u: without[u], the sum of their min-ranks,
and reuse[u], whether one of them drops a unit at its connector.

The hub at u, u joined to the children's upward connectors, has min-rank
without[u] once u is deleted, and one unit more with u unless reuse[u],
when a connector row can be reused.  Graphs that meet only in a vertex v
have min-rank the sum of theirs with v deleted, plus 1 only when every one
of them strictly needs v; the bounded-order oracle cuts a component at a
cut vertex by the same rule.  A part and the hub at u meet only in u, and
each needs it by 0 or 1, so gluing the hub at u adds without[u] and, when
reuse[u], deletes u from the part.  So with D the vertices u of a part P with
reuse[u], m_full = mr(P - D) + the sum of without[u] over P, and m_minus
is the same with the upward connector deleted too: two solver queries
per part, one at the root, 2k - 1 for k parts.  A one-vertex part v is
answered by arithmetic: m_minus = without[v], and m_full one more unless
reuse[v].

One per-part step serves two folds, and a part's solver is asked by the
ids of g's vertices it deletes.  `atom_fold`, auto's path, folds each
component's atoms as the bridge search closes them, so it builds no tree,
and needs no merge or connector bound, the fold's cost not depending on
how many connectors a part has.  `dp_minrank` validates a structure, the
file of `minrank dp --structure` or the c-bounded one `recognize`
accepts, and folds its tree children first.
"""

from __future__ import annotations

from .errors import StructureError
from .exact import MinrankResult, _check_pair
from .families import FamilyRegistry
from .graph import Graph
from .structure import SimpleTreeStructure, children_first, validate_structure


def dp_minrank(
    g: Graph,
    t: SimpleTreeStructure,
    registry: FamilyRegistry,
    trace: bool = False,
) -> MinrankResult:
    """Exact min-rank of a graph from a tree-of-parts structure it is handed,
    in one bottom-up fold; raises StructureError when the structure is
    invalid for g and the registry.

    The fold runs on the validated structure, whose connectors were read
    off the graph.  Each part's solver answers min-rank queries on the
    part with connectors deleted (families are closed under vertex
    deletion, so those stay members), so no part is tested again.  No
    witness matrix is produced.
    """
    report = validate_structure(g, t, registry)
    if not report.valid:
        raise StructureError(f"invalid structure: {report.violations}")
    t = report.structure
    order = children_first(t.parent)
    ends = {j: (t.uc[j], u) for m in t.dc.values() for u, js in m.items() for j in js}
    without, reuse, nodes = [0] * g.n, [False] * g.n, []
    for i in order:
        pair = _fold_part(t.parts[i], report.solvers[i], ends.get(i), without, reuse)
        if trace:
            nodes.append(_trace_node(i, report.families[i], t.parts[i], pair, without, reuse))
    stats = {"oracle_calls": 2 * len(t.parts) - 1, "parts": len(t.parts)}  # one at the root
    if trace:
        stats["trace"] = {"order": order, "nodes": nodes}
    return MinrankResult(pair[0], "dp", None, True, stats)


def atom_fold(g: Graph, registry: FamilyRegistry, trace: bool = False) -> list:
    """Per component of g, by lowest vertex: its vertices and its exact
    min-rank, folded over its atoms as `g.closed_atoms()` closes them, an
    atom of two or more vertices asking its first family's solver; None when
    some atom is in no family.  Traced parts are numbered as the sorted
    atoms, and `order` is the order in which they closed."""
    without, reuse = [0] * g.n, [False] * g.n
    # Every family holds K1, and the first one claims it.
    single = registry.oracles[0].name if registry.oracles else None
    folds, vertices, nodes, parts, folding = [], [], [], 0, True
    for atom, p in g.closed_atoms():
        vertices += atom
        if folding:
            part, family, solve = atom, single, None
            if len(atom) > 1:
                part = tuple(sorted(atom))
                claim = registry.claim(g, part)
                family, solve = (claim[0].name, claim[1]) if claim else (None, None)
            folding = family is not None
        if folding:
            pair = _fold_part(part, solve, None if p == -1 else (atom[0], p), without, reuse)
            parts += 1
            if trace:
                nodes.append(_trace_node(tuple(part), family, part, pair, without, reuse))
        if p != -1:
            continue
        res = None  # the component's root atom closed it
        if folding:
            stats = {"oracle_calls": 2 * parts - 1, "parts": parts}
            if trace:  # number the parts as the sorted atoms
                index = {a: i for i, a in enumerate(sorted(node["part"] for node in nodes))}
                for node in nodes:
                    node["part"] = index[node["part"]]
                stats["trace"] = {"order": [node["part"] for node in nodes], "nodes": nodes}
            res = MinrankResult(pair[0], "dp", None, True, stats)
        folds.append((vertices, res))
        vertices, nodes, parts, folding = [], [], 0, True
    return folds


def _fold_part(part, solve, ends, without, reuse) -> tuple[int, int | None]:
    """The pair of a part whose children are folded, added at its parent
    end; `ends` is its upward connector and that end, None at the root.  One
    vertex needs no solver."""
    if len(part) == 1:
        m_minus = without[part[0]]
        m_full = m_minus if reuse[part[0]] else m_minus + 1
    else:
        deleted = [v for v in part if reuse[v]]
        glued = sum([without[v] for v in part])
        m_full = solve(deleted) + glued
        if ends is not None:
            m_minus = solve(deleted + [ends[0]]) + glued
            _check_pair(m_full, m_minus, f"pair at part {list(part)}")
    if ends is None:
        return m_full, None
    without[ends[1]] += m_full
    reuse[ends[1]] |= m_minus < m_full
    return m_full, m_minus


def _trace_node(part_id, family, part, pair, without, reuse) -> dict:
    """A folded part's pair and, at each vertex with children, its hub."""
    hubs = {str(u): [without[u] if reuse[u] else without[u] + 1, without[u]]
            for u in part if without[u]}
    return {"part": part_id, "family": family, "m_full": pair[0], "m_minus": pair[1],
            "hub_values": hubs}
