"""Recognition of graphs that admit a tree-of-parts structure.

Two phases.  Splitting takes from one depth-first search (Tarjan 1974)
every bridge and the components left once they are deleted, the
2-edge-connected components or atoms; each atom must belong to a
registered family, tested on the graph itself unless a family holds its
order outright, and the atoms and the bridges between them form a tree.
Merging tries each atom as the root in turn.  A root under which no atom
has more than `c` downward connectors takes the atom tree as it is.
Otherwise each atom, children first, absorbs leaf children through a
largest-possible set of its downward connectors so that at most `c`
survive and the enlarged part stays in a family; each family's gluing
rule decides that from the part's order or, unless a family holds that
order outright, from the atoms' memberships, one bitmask per atom decided
when first read, head first up to an atom in no family whose rule holds.
What an atom v decides below its parent p depends on v, p and the
decisions below v, never on the root, so each directed (v, p) decision is
computed once and shared by every root: at most 3h - 2 of them for h
atoms.  If every root fails, the graph has no structure with the requested
bound.  A decision fails only at an atom with more than `c` connectors,
and a failure reaches the root, so when a root fails the atom behind it is
decided under each of its neighbours and as the root: every root's tree
holds it in one of those places, and if all of them fail, so does every
root, and the walk stops after computing the last root's failure for its
message.  Without that proof, or when a trace of every root is asked for,
the walk goes on to the next root.  An accepted structure carries the
connectors read off the bridges merging kept, and nothing else:
`dp_minrank` validates it like any structure file before folding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import GraphError, NotInFamilyError
from .exact import _Memo
from .families import FamilyRegistry
from .graph import Graph
from .structure import SimpleTreeStructure


@dataclass(frozen=True)
class AtomForest:
    """Bridgeless family pieces and the single edges joining them."""

    atoms: tuple[tuple[int, ...], ...]
    links: dict[tuple[int, int], tuple[int, int]]  # (atom l, atom m) -> edge (x, y)
    families: _Memo  # atom -> mask of the oracles holding it
    glue_bits: _Memo  # order -> -1 if a family holds every graph of it, else glue(True) mask


@dataclass
class RecognitionOutcome:
    member: bool
    structure: SimpleTreeStructure | None  # the accepted one, if any
    roots_tried: int
    failure_detail: str | None = None
    stats: dict = field(default_factory=dict)


def split_phase(g: Graph, registry: FamilyRegistry, tree=None) -> AtomForest:
    """Cut every bridge at once, then check each atom's family membership.

    The atoms are the components left after deleting all bridges of one
    connected component of `g` (its 2-edge-connected components), ordered
    by smallest vertex; the links are the bridges themselves, each keyed by
    its pair of atoms and oriented so that x lies in the lower-numbered
    atom; `tree` is that component's `g.bridge_split()` pair, by default
    the connected g's.  Each atom's membership in every registered family
    is decided on g and kept as a bitmask, so that merging can glue atoms
    without testing their unions; an atom whose order some family holds
    outright is decided only when it is first read.  Raises
    NotInFamilyError on the first atom in no registered family.
    """
    bridges, atoms = tree or g.bridge_split()[0]
    atom_of = {v: i for i, atom in enumerate(atoms) for v in atom}
    oracles = registry.oracles

    def test(a: int) -> int:  # the mask of the families holding atom a
        return sum((o.solver(g, atoms[a]) is not None) << i for i, o in enumerate(oracles))

    families, single = _Memo(test), None
    glue_bits = _Memo(lambda k: -1 if any(o.glue(False, k) for o in oracles) else sum(
        o.glue(True, k) << i for i, o in enumerate(oracles)))
    for a, atom in enumerate(atoms):
        if len(atom) == 1:  # every one-vertex atom induces the same graph
            families[a] = single = single or test(a)
        if glue_bits[len(atom)] != -1 and not families[a]:
            raise NotInFamilyError(
                f"bridgeless piece {list(atom)} fits no registered family", atom=atom
            )
    links: dict[tuple[int, int], tuple[int, int]] = {}
    for x, y in bridges:
        if atom_of[x] > atom_of[y]:
            x, y = y, x
        links[(atom_of[x], atom_of[y])] = (x, y)
    return AtomForest(tuple(atoms), dict(sorted(links.items())), families, glue_bits)


def _post_order(memo: dict, start: tuple, below, decide, settles) -> object:
    """Fill memo[start] children-first, with an explicit stack.

    `below(v, p)` lists the children of atom v under parent p in ascending
    order.  The first child entry that `settles` becomes the parent's entry
    as it is, and later children are left unevaluated; otherwise
    `decide(v, p, kids)` computes the entry once every child's is known.
    An entry already in memo is returned as it is.
    """
    if start in memo:
        return memo[start]
    stack = [[start, below(*start), 0]]
    while stack:
        frame = stack[-1]
        (v, p), kids, i = frame
        while i < len(kids) and (kids[i], v) in memo and not settles(memo[kids[i], v]):
            i += 1
        if i < len(kids) and (kids[i], v) not in memo:
            frame[2] = i
            stack.append([(kids[i], v), below(kids[i], v), 0])
            continue
        memo[v, p] = memo[kids[i], v] if i < len(kids) else decide(v, p, kids)
        stack.pop()
    return memo[start]


def _failed(entry: tuple) -> bool:
    return entry[0] is None


def merge_phase(
    forest: AtomForest, c: int, trace: list | None = None, stats: dict | None = None
) -> tuple[SimpleTreeStructure, int]:
    """Search root choices and leaf merges for a structure with <= c connectors.

    Returns the structure of the first root that admits one and the number
    of roots tried.  Raises NotInFamilyError with the last root's failure
    when every root fails.  The walk stops at the first failed root whose
    failing atom also fails under every neighbour and as the root, which
    fails every root; a trace walks on through every root regardless.
    When `trace` is a list, one record per root trial is appended to it;
    when `stats` is a dict, `stats["decisions"]` counts the (atom, parent)
    decisions computed.
    """
    atoms, families, glue_bits = forest.atoms, forest.families, forest.glue_bits
    end: dict[tuple[int, int], int] = {}  # (atom, neighbour) -> link end in atom
    for (l, m), (x, y) in forest.links.items():
        end[l, m], end[m, l] = x, y
    neighbors: list[list[int]] = [[] for _ in atoms]
    for v, w in sorted(end):
        neighbors[v].append(w)

    def below(v: int, p: int) -> list[int]:
        return [w for w in neighbors[v] if w != p]

    # (v, p) -> whether an atom in the subtree has more than c connectors
    over: dict[tuple[int, int], bool] = {}

    def over_at(v: int, p: int, kids: list[int]) -> bool:
        return len({end[v, w] for w in kids}) > c

    # (v, p) -> (children absorbed, surviving children, AND of the merged
    # atoms' masks or None until all are read, merged order), or (None, why,
    # atom) when that atom in the subtree cannot shed enough connectors.
    shed: dict[tuple[int, int], tuple] = {}
    visits: list | None = None

    def merged(v: int, p: int) -> list[int]:
        # The vertices of atom v and of every atom absorbed below it.
        stack = [(v, p)]
        for a, b in stack:  # the loop reaches what it appends
            stack += [(w, a) for w in shed[a, b][0]]
        return sorted(x for a, _ in stack for x in atoms[a])

    def visit(v: int, p: int, connectors: list[int], chosen, absorbed) -> None:
        if visits is not None:
            visits.append({
                "part": list(atoms[v]), "parent": p, "dc_vertices": connectors,
                "absorbed_via": None if chosen is None else list(chosen),
                "absorbed_parts": [merged(w, v) for w in absorbed],
            })

    def glued(v: int, groups: dict, chosen, order: int) -> int | None:
        # 0 when no family holds the union of atom v and its children at the
        # connectors `chosen`, which are joined along a tree of bridges; else
        # the AND of their atoms' masks, or None when its order decides.
        need = glue_bits[order]
        if need == -1:
            return None
        mask = families[v] if need else 0
        for u in chosen:
            if not mask & need:
                return 0
            # Its atoms in turn, up to one lacking every need bit.
            stack = [(w, v) for w in groups[u]]
            for a, b in stack:  # the loop reaches what it appends
                absorbed, _, known, _ = shed[a, b]
                if known is None:
                    known = families[a]
                    stack += [(x, a) for x in absorbed]
                mask &= known
                if not mask & need:
                    break
        return mask if mask & need else 0

    def shed_at(v: int, p: int, kids: list[int]) -> tuple:
        if not kids:
            visit(v, p, [], (), ())
            return (), (), None, len(atoms[v])
        groups: dict[int, list[int]] = {}
        for w in kids:
            groups.setdefault(end[v, w], []).append(w)
        connectors = sorted(groups)
        # Per connector whose children are all childless (only those may be
        # absorbed): the sum of their parts' orders.
        free = {}
        for u in connectors:
            leaf, order = True, 0
            for w in groups[u]:
                _, kept, _, count = shed[w, v]
                leaf = leaf and not kept
                order += count
            if leaf:
                free[u] = order
        for size in range(len(connectors), max(0, len(connectors) - c) - 1, -1):
            for chosen in combinations(free, size):
                order = len(atoms[v]) + sum(free[u] for u in chosen)
                # A bare atom was already found in a family by split_phase.
                mask = glued(v, groups, chosen, order) if chosen else None
                if mask == 0:
                    continue
                absorbed = [w for u in chosen for w in groups[u]]
                visit(v, p, connectors, chosen, absorbed)
                kept = tuple(w for w in kids if end[v, w] not in chosen)
                return tuple(absorbed), kept, mask, order
        visit(v, p, connectors, None, ())
        n = len(connectors)
        return None, f"part at atom {v} cannot reduce below {n} connectors", v

    def shed_below(v: int, p: int) -> tuple:
        return _post_order(shed, (v, p), below, shed_at, _failed)

    def fails_everywhere(a: int) -> bool:
        # Every root's atom tree holds `a` below a neighbour or as the root.
        return all(shed_below(a, p)[0] is None for p in [*neighbors[a], -1])

    def structure_at(r: int, merging: bool) -> SimpleTreeStructure:
        parent, blob, stack = {r: -1}, {}, [r]
        while stack:
            v = stack.pop()
            p = parent[v]
            blob[v], kids = (
                (merged(v, p), shed[v, p][1]) if merging else (atoms[v], below(v, p))
            )
            parent.update(dict.fromkeys(kids, v))
            stack.extend(kids)
        # A kept child w of the part headed by atom v joins it along the
        # bridge between the two atoms, whose ends are its connectors.
        alive = sorted(blob)
        index = {v: i for i, v in enumerate(alive)}
        par, uc, dc = [index.get(parent[w], -1) for w in alive], {}, {}
        for j, w in enumerate(alive):
            if par[j] != -1:
                uc[j] = end[w, parent[w]]
                dc.setdefault(par[j], {}).setdefault(end[parent[w], w], []).append(j)
        parts = tuple(tuple(blob[v]) for v in alive)
        dc = {i: {u: tuple(js) for u, js in m.items()} for i, m in dc.items()}
        return SimpleTreeStructure(parts, tuple(par), uc, dc)

    last_error, h = None, len(atoms)
    try:
        for r in range(h):
            record = {"root": r, "visits": [], "accepted": False}
            if trace is not None:
                trace.append(record)
                visits = record["visits"]
            merging = _post_order(over, (r, -1), below, over_at, bool)
            if not merging:
                record["immediate"] = True
            elif (failure := shed_below(r, -1))[0] is None:
                last_error = record["failure"] = f"root {r}: {failure[1]}"
                if trace is None and r < h - 1 and fails_everywhere(failure[2]):
                    # A failure under every parent reaches every root.
                    last_error = f"root {h - 1}: {shed_below(h - 1, -1)[1]}"
                    break
                continue
            record["accepted"] = True
            return structure_at(r, merging), r + 1
    finally:
        if stats is not None:
            stats["decisions"] = len(shed)
    raise NotInFamilyError(
        f"no root admits a structure with at most {c} connectors per part; "
        f"last failure: {last_error}"
    )


def recognize(
    g: Graph,
    c: int,
    registry: FamilyRegistry,
    explain: bool = False,
    tree=None,
) -> RecognitionOutcome:
    """Decide membership in the family of c-bounded tree-of-parts graphs.

    Recognises g's component whose `g.bridge_split()` pair is `tree`, or
    g itself, which must then be connected, on g's own vertex ids.  A
    positive outcome carries a structure that validates against the
    component with at most `c` downward connectors per part.  With
    `explain` the stats hold a machine-readable trace of every cut and
    merge decision.
    """
    if g.n == 0:
        raise GraphError("cannot recognize the empty graph")
    if tree is None:
        tree, *others = g.bridge_split()
        if others:
            raise GraphError("recognition needs a connected graph; decompose first")
    if c < 1:
        raise GraphError(f"connector bound must be positive, got {c}")
    trace = [] if explain else None
    stats: dict = {}
    if explain:  # every bridge, listed before the split can fail
        splits = [{"bridge": [x, y]} for x, y in tree[0]]
        stats["explain"] = {"splits": splits, "roots": trace}
    try:
        forest = split_phase(g, registry, tree=tree)
    except NotInFamilyError as exc:
        return RecognitionOutcome(
            False, None, 0, exc.detail, {"phase": "split", **stats}
        )
    stats["atoms"] = len(forest.atoms)
    try:
        structure, roots = merge_phase(forest, c, trace=trace, stats=stats)
    except NotInFamilyError as exc:
        return RecognitionOutcome(
            False, None, len(forest.atoms), exc.detail, {"phase": "merge", **stats}
        )
    stats["parts"] = len(structure.parts)
    return RecognitionOutcome(True, structure, roots, None, stats)
