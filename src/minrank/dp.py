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
time.  Both differences in `combine_shared_vertex` are 0 or 1, so gluing
the hub at connector u adds the hub's value without u and, when the hub
does not need u (its two values are equal), deletes u from the part;
otherwise the part stays whole.  So with D the downward connectors whose
hubs do not need them, m_full = mr(P - D) + the hubs' values without u,
and m_minus is the same with the upward connector deleted too: two
solver queries per part, one at the root, 2k - 1 for k parts.

One fold loop serves two trees.  `atom_fold`, auto's path, folds a
component's atom tree as it stands: the fold's cost does not depend on how
many connectors a part has, so it needs no merge and no connector bound.
`dp_fold` folds a valid `StructureReport`: for `minrank dp`, the c-bounded
one `recognize` accepts, and in `dp_minrank`, one that validation gives.
"""

from __future__ import annotations

from .errors import StructureError
from .exact import MinrankResult, _check_pair
from .families import FamilyRegistry
from .graph import Graph
from .structure import SimpleTreeStructure, StructureReport, validate_structure


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
    part with connectors deleted (families are closed under vertex
    deletion, so those stay members), so no part is tested again.  No
    witness matrix is produced.
    """
    if not report.valid:
        raise StructureError(f"invalid structure: {report.violations}")
    t = report.structure
    claims = list(zip(report.families, report.solvers))
    return _fold(t.parts, t.root, t.uc, t.dc, claims, trace)


def atom_fold(g: Graph, tree, registry: FamilyRegistry, trace: bool = False):
    """Exact min-rank of g's component whose `g.bridge_split()` pair is
    `tree`, folded over its atom tree as it stands, rooted at atom 0, with
    the bridge ends as connectors and each atom asking its first family's
    solver (`FamilyRegistry.claim`; one claim serves every one-vertex atom);
    None when some atom is in no family.  No merge or structure is built."""
    bridges, atoms = tree
    claims, single = [], None
    for atom in atoms:
        if len(atom) == 1:  # every one-vertex atom induces the same graph
            single = claim = single or registry.claim(g, atom)
        else:
            claim = registry.claim(g, atom)
        if claim is None:
            return None
        claims.append((claim[0].name, claim[1]))
    atom_of = {v: i for i, atom in enumerate(atoms) for v in atom}
    ends: list[list] = [[] for _ in atoms]  # per atom: (its end, other atom, other end)
    for x, y in bridges:
        ends[atom_of[x]].append((x, atom_of[y], y))
        ends[atom_of[y]].append((y, atom_of[x], x))
    uc, dc, stack = {}, {}, [0]  # as in SimpleTreeStructure
    while stack:  # orient every bridge away from atom 0
        a = stack.pop()
        for x, b, y in ends[a]:
            if b and b not in uc:
                uc[b] = y
                dc.setdefault(a, {}).setdefault(x, []).append(b)
                stack.append(b)
    return _fold(atoms, 0, uc, dc, claims, trace)


def _fold(parts, root: int, uc: dict, dc: dict, claims, trace: bool) -> MinrankResult:
    """The bottom-up fold over a tree of `parts` (sorted vertex tuples), each
    child part j joined to its parent's downward connector u (j in
    dc[parent][u]) at its upward connector uc[j]; claims[i] is part i's
    family name and its solver, queried at positions in parts[i]."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += sorted(j for js in dc.get(node, {}).values() for j in js)
    order.reverse()  # every part now comes after all of its children

    # Per part: the subtree min-rank, and the same without its upward
    # connector (None at the root).
    pairs: dict[int, tuple[int, int | None]] = {}
    trace_nodes = []
    for i in order:
        up = uc.get(i)
        dc_map = dc.get(i, {})
        hub_values = {u: star_merge([pairs[j] for j in dc_map[u]]) for u in sorted(dc_map)}
        # Each hub adds its value without u, and deletes u unless it needs u.
        deleted = {u for u, hub in hub_values.items() if hub[0] == hub[1]}
        glued = sum(hub[1] for hub in hub_values.values())
        (family, solve), index = claims[i], parts[i].index
        m_full = solve(map(index, deleted)) + glued
        m_minus = None
        if up is not None:
            m_minus = solve(map(index, deleted | {up})) + glued
            _check_pair(m_full, m_minus, f"pair at part {i}")
        pairs[i] = m_full, m_minus
        if trace:
            hubs = {str(u): list(hv) for u, hv in hub_values.items()}
            trace_nodes.append({"part": i, "family": family, "m_full": m_full,
                                "m_minus": m_minus, "hub_values": hubs})

    stats = {"oracle_calls": 2 * len(parts) - 1, "parts": len(parts)}  # one at the root
    if trace:
        stats["trace"] = {"order": order, "nodes": trace_nodes}
    return MinrankResult(pairs[root][0], "dp", None, True, stats)
