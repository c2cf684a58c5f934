"""Recognition of graphs that admit a tree-of-parts structure.

Two phases.  Splitting finds every bridge in one pass (Tarjan 1974) and
deletes them all; the components left, the 2-edge-connected components
or atoms, must each belong to a registered family, and the atoms and the
bridges between them form a tree.  Merging tries each atom as the root in
turn and walks the rooted tree children-first, at every node absorbing
leaf children through a largest-possible set of its downward connectors
so that at most `c` connectors survive and the enlarged part stays inside
a family.  If some node cannot shed enough connectors for any root choice,
the graph has no structure with the requested bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import GraphError, NotInFamilyError
from .families import FamilyRegistry
from .graph import Graph
from .structure import SimpleTreeStructure, validate_structure


@dataclass(frozen=True)
class AtomForest:
    """Bridgeless family pieces and the single edges joining them."""

    atoms: tuple[tuple[int, ...], ...]
    links: dict[tuple[int, int], tuple[int, int]]  # (atom l, atom m) -> edge (x, y)


@dataclass
class RecognitionOutcome:
    member: bool
    structure: SimpleTreeStructure | None
    roots_tried: int
    failure_detail: str | None = None
    stats: dict = field(default_factory=dict)


def split_phase(
    g: Graph, registry: FamilyRegistry, events: list | None = None
) -> AtomForest:
    """Cut every bridge at once, then check each atom's family membership.

    The atoms are the components left after deleting all bridges of the
    connected graph `g` (its 2-edge-connected components), ordered by
    smallest vertex; the links are the bridges themselves, each keyed by
    its pair of atoms and oriented so that x lies in the lower-numbered
    atom.  Raises NotInFamilyError on the first atom that belongs to no
    registered family.  When `events` is a list, one record per bridge is
    appended to it.
    """
    bridges = g.bridges()
    if events is not None:
        events.extend({"bridge": [x, y]} for x, y in bridges)
    cut = set(bridges)
    atom_of = [-1] * g.n
    atoms = []
    for s in range(g.n):
        if atom_of[s] != -1:
            continue
        atom_of[s] = len(atoms)
        members = [s]
        stack = [s]
        while stack:
            v = stack.pop()
            for w in g.neighbor_set(v):
                if atom_of[w] == -1 and (min(v, w), max(v, w)) not in cut:
                    atom_of[w] = len(atoms)
                    members.append(w)
                    stack.append(w)
        atoms.append(tuple(sorted(members)))
    for atom in atoms:
        sub, _ = g.induced_subgraph(atom)
        if registry.lookup(sub) is None:
            raise NotInFamilyError(
                f"bridgeless piece {list(atom)} fits no registered family", atom=atom
            )
    links: dict[tuple[int, int], tuple[int, int]] = {}
    for x, y in bridges:
        if atom_of[x] > atom_of[y]:
            x, y = y, x
        links[(atom_of[x], atom_of[y])] = (x, y)
    return AtomForest(tuple(atoms), dict(sorted(links.items())))


class _RootFailed(Exception):
    pass


def merge_phase(
    g: Graph,
    forest: AtomForest,
    c: int,
    registry: FamilyRegistry,
    debug: bool = False,
    trace: list | None = None,
) -> tuple[SimpleTreeStructure, int]:
    """Search root choices and leaf merges for a structure with <= c connectors.

    Returns the structure and the number of roots tried.  Raises
    NotInFamilyError when the last root fails.  When `trace` is a list,
    one record per root trial is appended to it.
    """
    h = len(forest.atoms)
    neighbors: dict[int, list[int]] = {i: [] for i in range(h)}
    for (l, m) in forest.links:
        neighbors[l].append(m)
        neighbors[m].append(l)

    member_memo: dict[frozenset, bool] = {}

    def in_family(vertices: frozenset) -> bool:
        if vertices not in member_memo:
            sub, _ = g.induced_subgraph(sorted(vertices))
            member_memo[vertices] = registry.lookup(sub) is not None
        return member_memo[vertices]

    last_error = None
    for r in range(h):
        record: dict | None = None
        if trace is not None:
            record = {"root": r, "visits": [], "accepted": False}
            trace.append(record)
        try:
            structure = _try_root(
                g, forest, neighbors, r, c, in_family, debug, registry, record
            )
            if record is not None:
                record["accepted"] = True
            return structure, r + 1
        except _RootFailed as exc:
            last_error = str(exc)
            if record is not None:
                record["failure"] = last_error
    raise NotInFamilyError(
        f"no root admits a structure with at most {c} connectors per part; "
        f"last failure: {last_error}"
    )


def _try_root(g, forest, neighbors, r, c, in_family, debug, registry, record=None):
    h = len(forest.atoms)
    parent: dict[int, int] = {r: -1}
    order = [r]
    stack = [r]
    while stack:
        node = stack.pop()
        for nb in sorted(neighbors[node]):
            if nb not in parent:
                parent[nb] = node
                order.append(nb)
                stack.append(nb)
    # dc vertex serving each child = the link endpoint inside the parent atom.
    dc_of: dict[int, int] = {}
    for child, par in parent.items():
        if par == -1:
            continue
        key = (min(child, par), max(child, par))
        x, y = forest.links[key]
        dc_of[child] = x if key[0] == par else y

    blob = {i: set(forest.atoms[i]) for i in range(h)}
    kids = {i: [] for i in range(h)}
    for node in order:
        if parent[node] != -1:
            kids[parent[node]].append(node)

    def current_structure() -> SimpleTreeStructure:
        alive = sorted(blob)
        index = {node: idx for idx, node in enumerate(alive)}
        parts = [tuple(sorted(blob[node])) for node in alive]
        par = [index[parent[node]] if parent[node] != -1 else -1 for node in alive]
        return SimpleTreeStructure.derive(g, parts, par)

    def current_mdc() -> int:
        worst = 0
        for node in blob:
            worst = max(worst, len({dc_of[ch] for ch in kids[node]}))
        return worst

    if current_mdc() <= c:
        if record is not None:
            record["immediate"] = True
        return current_structure()

    post = [node for node in reversed(order)]  # children precede parents
    for node in post:
        groups: dict[int, list[int]] = {}
        for ch in kids[node]:
            groups.setdefault(dc_of[ch], []).append(ch)
        connectors = sorted(groups)
        found = None
        picked: tuple[int, ...] = ()
        for size in range(len(connectors), max(0, len(connectors) - c) - 1, -1):
            for chosen in combinations(connectors, size):
                absorbed = [ch for u in chosen for ch in groups[u]]
                if any(kids[ch] for ch in absorbed):
                    continue  # only childless parts may be absorbed
                merged = frozenset(blob[node]).union(*(blob[ch] for ch in absorbed))
                if in_family(merged):
                    found = absorbed
                    picked = chosen
                    break
            if found is not None:
                break
        if record is not None:
            record["visits"].append({
                "part": sorted(blob[node]),
                "dc_vertices": connectors,
                "absorbed_via": list(picked) if found is not None else None,
                "absorbed_parts": [sorted(blob[ch]) for ch in (found or [])],
            })
        if found is None:
            raise _RootFailed(
                f"root {r}: part at atom {node} cannot reduce below "
                f"{len(connectors)} connectors"
            )
        for ch in found:
            blob[node] |= blob[ch]
            del blob[ch]
            del kids[ch]
        kids[node] = [ch for ch in kids[node] if ch not in set(found)]
        if debug:
            report = validate_structure(g, current_structure(), registry)
            assert report.valid, f"merge broke the structure: {report.violations}"
    return current_structure()


def recognize(
    g: Graph,
    c: int,
    registry: FamilyRegistry,
    debug: bool = False,
    explain: bool = False,
) -> RecognitionOutcome:
    """Decide membership in the family of c-bounded tree-of-parts graphs.

    The graph must be connected; split disconnected inputs into components
    first.  A positive outcome carries a structure that validates with at
    most `c` downward connectors per part.  With `explain` the stats hold
    a machine-readable trace of every cut and merge decision.
    """
    if g.n == 0:
        raise GraphError("cannot recognize the empty graph")
    if len(g.connected_components()) != 1:
        raise GraphError("recognition needs a connected graph; decompose first")
    if c < 1:
        raise GraphError(f"connector bound must be positive, got {c}")
    splits: list | None = [] if explain else None
    roots_trace: list | None = [] if explain else None

    def with_explain(stats: dict) -> dict:
        if explain:
            stats["explain"] = {"splits": splits, "roots": roots_trace}
        return stats

    try:
        forest = split_phase(g, registry, events=splits)
    except NotInFamilyError as exc:
        return RecognitionOutcome(
            False, None, 0, exc.detail, with_explain({"phase": "split"})
        )
    try:
        structure, roots = merge_phase(
            g, forest, c, registry, debug=debug, trace=roots_trace
        )
    except NotInFamilyError as exc:
        return RecognitionOutcome(
            False, None, len(forest.atoms), exc.detail,
            with_explain({"phase": "merge", "atoms": len(forest.atoms)}),
        )
    return RecognitionOutcome(
        True, structure, roots, None,
        with_explain({"atoms": len(forest.atoms), "parts": len(structure.parts)}),
    )
