"""Tree-of-parts decompositions of a graph.

A structure partitions the vertices into parts, each inducing a graph from
a registered family, with at most one edge between any two parts, and with
the part-level contraction forming a rooted tree.  The single edge from a
child part to its parent meets the child in its upward connector (uc) and
the parent in a downward connector (dc); a part may serve several children
through one dc vertex or through several.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import StructureError
from .families import FamilyRegistry
from .graph import Graph, partition_violations


def _id(v) -> int:
    if type(v) is not int:
        raise TypeError(f"id {v!r} is not an integer")
    return v


def _key(s) -> int:
    """A `uc` or `dc` key: a part or vertex id as a canonical decimal string."""
    if str(i := int(s)) != s or i < 0:
        raise ValueError(f"key {s!r} is not a canonical non-negative decimal")
    return i


@dataclass(frozen=True)
class SimpleTreeStructure:
    parts: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    uc: dict[int, int] = field(default_factory=dict)
    dc: dict[int, dict[int, tuple[int, ...]]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "parts": [list(p) for p in self.parts],
            "parent": list(self.parent),
            "uc": {str(i): v for i, v in sorted(self.uc.items())},
            "dc": {
                str(i): {str(u): list(js) for u, js in sorted(m.items())}
                for i, m in sorted(self.dc.items())
            },
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SimpleTreeStructure":
        """Read the dict `to_json_dict` writes.  Vertex ids, parents, `uc`
        values and `dc` child lists must be JSON integers (no bools, floats
        or strings); the `uc` and `dc` keys are canonical decimal strings
        such as "0" and "12"."""
        try:
            parts = tuple(tuple(map(_id, p)) for p in obj["parts"])
            parent = tuple(map(_id, obj["parent"]))
            uc = {_key(i): _id(v) for i, v in obj.get("uc", {}).items()}
            dc = {
                _key(i): {_key(u): tuple(sorted(map(_id, js))) for u, js in m.items()}
                for i, m in obj.get("dc", {}).items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"bad structure JSON: {exc}") from None
        return cls(parts, parent, uc, dc)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SimpleTreeStructure":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StructureError(f"bad structure JSON: {exc}") from None
        return cls.from_json_dict(obj)


@dataclass
class StructureReport:
    valid: bool
    violations: list[tuple[str, str]]
    mdc: int | None
    families: tuple[str | None, ...]
    # The tree with connectors read off the graph; None when R2 or R3 fails.
    structure: SimpleTreeStructure | None = None
    # Per part, its family's solver (`FamilyOracle.solver`), asked by the
    # ids of g's vertices in the part; None outside R1.
    solvers: tuple = ()


def mdc(t: SimpleTreeStructure) -> int:
    """Largest number of distinct downward-connector vertices on any part."""
    if not t.parts:
        return 0
    return max((len(m) for m in t.dc.values()), default=0)


def _tree_violations(t: SimpleTreeStructure) -> list[tuple[str, str]]:
    problems = []
    k = len(t.parts)
    if len(t.parent) != k:
        problems.append(
            ("tree", f"parent array length {len(t.parent)} != part count {k}")
        )
        return problems
    roots = [i for i, p in enumerate(t.parent) if p == -1]
    if len(roots) != 1:
        problems.append(("tree", f"expected exactly one root, found {roots}"))
    for i, p in enumerate(t.parent):
        if p != -1 and not 0 <= p < k:
            problems.append(("tree", f"part {i} has out-of-range parent {p}"))
    if problems:
        return problems
    missed = set(range(k)).difference(children_first(t.parent))
    return [("tree", f"parent cycle through part {i}") for i in sorted(missed)]


def children_first(parent) -> list[int]:
    """The parts that the root, the one part with parent -1, reaches down
    the `parent` links, each after all of its children: a DFS from the root,
    children ascending, reversed.  A part on a parent cycle is missed."""
    children = [[] for _ in parent]
    for j, p in enumerate(parent):
        if p != -1:
            children[p].append(j)
    order, stack = [], [parent.index(-1)]
    while stack:
        order.append(stack.pop())
        stack += children[order[-1]]
    order.reverse()
    return order


def validate_structure(
    g: Graph, t: SimpleTreeStructure, registry: FamilyRegistry
) -> StructureReport:
    """Check a structure against its graph and registry, reporting every violation.

    Checks, in order: the parts partition the vertex set, the parent links
    form a rooted tree, no two parts share more than one edge, the parts
    joined by an edge are exactly the tree-adjacent ones, every part
    induces a family member, and any stored connectors match the ones the
    cross edges force.
    """
    violations: list[tuple[str, str]] = []
    for msg in partition_violations(g.n, t.parts):
        violations.append(("partition", msg))
    violations.extend(_tree_violations(t))
    if violations:
        return StructureReport(False, violations, None, ())

    part_of = {v: i for i, p in enumerate(t.parts) for v in p}
    cross: dict[tuple[int, int], list[tuple[int, int]]] = {}  # part pair -> edges
    for u, v in g.edges:
        i, j = part_of[u], part_of[v]
        if i != j:
            cross.setdefault((min(i, j), max(i, j)), []).append((u, v))
    for (i, j), edges in sorted(cross.items()):
        if len(edges) > 1:
            violations.append(("R2", f"parts {i} and {j} joined by {len(edges)} edges"))
    tree_pairs = {
        (min(i, p), max(i, p)) for i, p in enumerate(t.parent) if p != -1
    }
    for pair in sorted(tree_pairs | set(cross)):
        s = len(cross.get(pair, ()))
        if s == 1 and pair not in tree_pairs:
            violations.append(
                ("R3", f"parts {pair[0]} and {pair[1]} share an edge but are not tree-adjacent")
            )
        if s == 0:
            violations.append(
                ("R3", f"tree-adjacent parts {pair[0]} and {pair[1]} share no edge")
            )

    families: list[str | None] = []
    solvers = []
    for i, part in enumerate(t.parts):
        oracle, solve = registry.claim(g, part) or (None, None)
        families.append(oracle.name if oracle else None)
        solvers.append(solve)
        if oracle is None:
            violations.append(("R1", f"part {i} induces a graph in no registered family"))

    derived = None
    if not any(rule in ("R2", "R3") for rule, _ in violations):
        # Each child shares one edge with its parent: its uc and a dc of the
        # parent's, read with the children in ascending order.
        uc: dict[int, int] = {}
        dc: dict[int, dict[int, tuple[int, ...]]] = {}
        for j, i in enumerate(t.parent):
            if i != -1:
                ((u, v),) = cross[min(i, j), max(i, j)]
                if part_of[u] == j:
                    u, v = v, u
                uc[j] = v
                served = dc.setdefault(i, {})
                served[u] = served.get(u, ()) + (j,)
        parts = tuple(tuple(sorted(p)) for p in t.parts)
        derived = SimpleTreeStructure(parts, tuple(t.parent), uc, dc)
        if t.uc and t.uc != derived.uc:
            violations.append(
                ("connectors", f"stored uc map {t.uc} != derived {derived.uc}")
            )
        if t.dc and t.dc != derived.dc:
            violations.append(
                ("connectors", f"stored dc map {t.dc} != derived {derived.dc}")
            )

    return StructureReport(
        not violations,
        violations,
        mdc(derived) if derived is not None else None,
        tuple(families),
        derived,
        tuple(solvers),
    )


def structure_to_dot(g: Graph, t: SimpleTreeStructure) -> str:
    """Graphviz source with parts as clusters and cross edges drawn bold."""
    part_of = {v: i for i, p in enumerate(t.parts) for v in p}
    lines = ["graph G {"]
    for i, part in enumerate(t.parts):
        lines.append(f"  subgraph cluster_{i} {{")
        lines.append(f'    label="part {i}";')
        for v in part:
            lines.append(f"    {v};")
        lines.append("  }")
    for u, v in g.edges:
        if part_of.get(u) != part_of.get(v):
            lines.append(f"  {u} -- {v} [style=bold];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
