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


@dataclass(frozen=True)
class SimpleTreeStructure:
    parts: tuple[tuple[int, ...], ...]
    parent: tuple[int, ...]
    uc: dict[int, int] = field(default_factory=dict)
    dc: dict[int, dict[int, tuple[int, ...]]] = field(default_factory=dict)

    @property
    def root(self) -> int:
        for i, p in enumerate(self.parent):
            if p == -1:
                return i
        raise StructureError("no root part (parent -1) present")

    def children(self, i: int) -> list[int]:
        return [j for j, p in enumerate(self.parent) if p == i]

    @classmethod
    def derive(cls, g: Graph, parts, parent) -> "SimpleTreeStructure":
        """Build a structure from parts and parent links, reading connectors off g.

        Requires exactly one edge between every child part and its parent.
        """
        parts = tuple(tuple(sorted(p)) for p in parts)
        parent = tuple(parent)
        part_of = {}
        for i, p in enumerate(parts):
            for v in p:
                part_of[v] = i
        uc: dict[int, int] = {}
        dc: dict[int, dict[int, list[int]]] = {}
        for j, i in enumerate(parent):
            if i == -1:
                continue
            links = [
                (u, v)
                for v in parts[j]
                for u in g.neighbor_set(v)
                if part_of.get(u) == i
            ]
            if len(links) != 1:
                raise StructureError(
                    f"parts {i} and {j} joined by {len(links)} edges, need exactly 1"
                )
            u, v = links[0]
            uc[j] = v
            dc.setdefault(i, {}).setdefault(u, []).append(j)
        frozen_dc = {
            i: {u: tuple(sorted(js)) for u, js in m.items()} for i, m in dc.items()
        }
        return cls(parts, parent, uc, frozen_dc)

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
        try:
            parts = tuple(tuple(int(v) for v in p) for p in obj["parts"])
            parent = tuple(int(p) for p in obj["parent"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StructureError(f"bad structure JSON: {exc}") from None
        uc = {int(i): int(v) for i, v in obj.get("uc", {}).items()}
        dc = {
            int(i): {int(u): tuple(sorted(int(j) for j in js)) for u, js in m.items()}
            for i, m in obj.get("dc", {}).items()
        }
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


def mdc(t: SimpleTreeStructure) -> int:
    """Largest number of distinct downward-connector vertices on any part."""
    if not t.parts:
        return 0
    return max((len(m) for m in t.dc.values()), default=0)


def subtree_vertices(t: SimpleTreeStructure, i: int) -> list[int]:
    """Sorted vertices of part i and all its descendants."""
    out = []
    stack = [i]
    while stack:
        node = stack.pop()
        out.extend(t.parts[node])
        stack.extend(t.children(node))
    return sorted(out)


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
    for i in range(k):
        seen = set()
        v = i
        while v != -1:
            if v in seen:
                problems.append(("tree", f"parent cycle through part {i}"))
                break
            seen.add(v)
            v = t.parent[v]
    return problems


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
    cross: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        i, j = part_of[u], part_of[v]
        if i != j:
            pair = (min(i, j), max(i, j))
            cross[pair] = cross.get(pair, 0) + 1
    for (i, j), s in sorted(cross.items()):
        if s > 1:
            violations.append(("R2", f"parts {i} and {j} joined by {s} edges"))
    tree_pairs = {
        (min(i, p), max(i, p)) for i, p in enumerate(t.parent) if p != -1
    }
    for pair in sorted(tree_pairs | set(cross)):
        s = cross.get(pair, 0)
        if s == 1 and pair not in tree_pairs:
            violations.append(
                ("R3", f"parts {pair[0]} and {pair[1]} share an edge but are not tree-adjacent")
            )
        if s == 0:
            violations.append(
                ("R3", f"tree-adjacent parts {pair[0]} and {pair[1]} share no edge")
            )

    families: list[str | None] = []
    for i, part in enumerate(t.parts):
        sub, _ = g.induced_subgraph(part)
        oracle = registry.lookup(sub)
        families.append(oracle.name if oracle else None)
        if oracle is None:
            violations.append(("R1", f"part {i} induces a graph in no registered family"))

    derived = None
    if not any(rule in ("R2", "R3") for rule, _ in violations):
        derived = SimpleTreeStructure.derive(g, t.parts, t.parent)
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
    )


def structure_to_dot(g: Graph, t: SimpleTreeStructure, name: str = "G") -> str:
    """Graphviz source with parts as clusters and cross edges drawn bold."""
    part_of = {v: i for i, p in enumerate(t.parts) for v in p}
    lines = [f"graph {name} {{"]
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
