"""Checks of the program's answers, computed apart from the program.

Nothing here imports minrank.  Graphs are read from the same input text
the CLI read, with networkx or plain Python, and every bound comes with a
certificate that is verified before it is used.  Each checker returns a
list of problems; an empty list means the answer passed.

Facts relied on, for a graph G on n vertices:
* an independent set I gives min-rank >= |I|;
* a partition into k cliques gives min-rank <= k (a matching M is such a
  partition with n - |M| parts);
* a chordal graph has a perfect elimination order, and taking each
  simplicial vertex while removing its closed neighbourhood gives an
  independent set and a clique partition of the same size, so
  min-rank = alpha(G) there.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx

ENUM_FREE_BITS = 16  # exhaustive enumeration only when 2|E| <= this
ATTACH_CERT = 4  # attachment vertices that force a third connector at c=2


def parse_edge_list(text: str) -> nx.Graph:
    """Read an `n=` headed edge list (the only form the harness writes)."""
    g = nx.Graph()
    for line in text.splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("n="):
            g.add_nodes_from(range(int(body[2:])))
            continue
        u, v = map(int, body.split())
        g.add_edge(u, v)
    return g


def parse_graph6(line: str) -> nx.Graph:
    return nx.from_graph6_bytes(line.strip().encode())


def _is_independent(g: nx.Graph, vs) -> bool:
    vs = list(vs)
    return len(set(vs)) == len(vs) and g.subgraph(vs).number_of_edges() == 0


def _is_clique_partition(g: nx.Graph, cliques) -> bool:
    seen = [v for c in cliques for v in c]
    if sorted(seen) != sorted(g.nodes):
        return False
    return all(g.has_edge(a, b) for c in cliques for a, b in combinations(c, 2))


def greedy_independent_set(g: nx.Graph) -> list:
    """Take vertices in order of degree unless a neighbour was taken."""
    out, blocked = [], set()
    for v in sorted(g.nodes, key=lambda x: (g.degree(x), x)):
        if v not in blocked:
            out.append(v)
            blocked.update(g.neighbors(v))
    return out


def chordal_alpha(g: nx.Graph) -> tuple[list, list]:
    """Independent set and clique partition of equal size on a chordal graph."""
    h = g.copy()
    ind, cliques = [], []
    while h.number_of_nodes():
        for v in sorted(h.nodes):
            nb = list(h.neighbors(v))
            if all(h.has_edge(a, b) for a, b in combinations(nb, 2)):
                break
        else:
            raise ValueError("no simplicial vertex: graph is not chordal")
        ind.append(v)
        cliques.append([v, *nb])
        h.remove_nodes_from(cliques[-1])
    return ind, cliques


def greedy_clique_cover(g: nx.Graph) -> list[list]:
    """Cliques grown from the smallest uncovered vertex by smallest common neighbour."""
    covered = set()
    cliques = []
    for v in sorted(g.nodes):
        if v in covered:
            continue
        clique = [v]
        cand = set(g.neighbors(v)) - covered
        while cand:
            w = min(cand)
            clique.append(w)
            cand &= set(g.neighbors(w))
        covered.update(clique)
        cliques.append(clique)
    return cliques


def independence_number(g: nx.Graph) -> int:
    if g.number_of_nodes() == 0:
        return 0
    _, weight = nx.max_weight_clique(nx.complement(g), weight=None)
    return weight


def enumerate_minrank(g: nx.Graph) -> int:
    """Least rank over every fitting matrix, visiting all 2^(2|E|) of them.

    Row v is the unit vector of v plus any subset of v's neighbours; rows
    are fixed one at a time and a reduced basis is carried down the
    recursion, so each complete matrix costs one reduction step.
    """
    order = sorted(g.nodes)
    pos = {v: i for i, v in enumerate(order)}
    choices = []
    for v in order:
        nbits = [1 << pos[w] for w in g.neighbors(v)]
        rows = []
        for size in range(len(nbits) + 1):
            for combo in combinations(nbits, size):
                rows.append((1 << pos[v]) | sum(combo))
        choices.append(rows)
    best = len(order)

    def walk(i: int, basis: list[int]) -> None:
        nonlocal best
        if i == len(order):
            best = min(best, len(basis))
            return
        for row in choices[i]:
            r = row
            for b in basis:
                r = min(r, r ^ b)
            if r:
                basis.append(r)
                walk(i + 1, basis)
                basis.pop()
            else:
                walk(i + 1, basis)

    walk(0, [])
    return best


def check_tree(text: str, rec: dict) -> list[str]:
    """A member solved through the tree program: exact dp value within bounds."""
    g = parse_edge_list(text)
    n = g.number_of_nodes()
    problems = []
    if rec.get("exact") is not True or rec.get("method") != "dp":
        problems.append(f"expected an exact dp answer, got {rec.get('method')!r} exact={rec.get('exact')!r}")
    value = rec.get("value")
    if not isinstance(value, int):
        return problems + [f"no integer value: {value!r}"]
    ind = greedy_independent_set(g)
    if not _is_independent(g, ind):
        raise AssertionError("checker bug: greedy set is not independent")
    matching = nx.maximal_matching(g)
    if not nx.is_matching(g, matching):
        raise AssertionError("checker bug: maximal matching is not a matching")
    if not len(ind) <= value <= n - len(matching):
        problems.append(f"value {value} outside [{len(ind)}, {n - len(matching)}]")
    if nx.is_chordal(g):
        alpha_set, cliques = chordal_alpha(g)
        if not (_is_independent(g, alpha_set) and _is_clique_partition(g, cliques)
                and len(alpha_set) == len(cliques)):
            raise AssertionError("checker bug: chordal certificate does not verify")
        if value != len(alpha_set):
            problems.append(f"chordal member: value {value} != alpha {len(alpha_set)}")
    return problems


def nonmember_certificate(g: nx.Graph, c: int = 2) -> list[str]:
    """Why g might admit a structure with c connectors (empty: it cannot).

    The atoms are the components left after deleting every bridge.  A
    bridgeless atom can not be split between parts joined by single edges
    along a tree, so every part is a union of atoms.  When every atom is
    non-chordal and the two smallest atoms span more than ten vertices, no
    registered family (chordal, order <= 10) holds two atoms, so the parts
    are the atoms.  An atom with four distinct attachment vertices then has
    at least three downward connectors under any root, more than c = 2.
    """
    if c != 2:
        return [f"certificate argues for c=2 only, asked c={c}"]
    if g.number_of_nodes() == 0 or not nx.is_connected(g):
        return ["graph is empty or disconnected"]
    bridges = list(nx.bridges(g))
    h = g.copy()
    h.remove_edges_from(bridges)
    atoms = [sorted(comp) for comp in nx.connected_components(h)]
    atom_of = {v: i for i, atom in enumerate(atoms) for v in atom}
    problems = [
        f"atom {i} is chordal"
        for i, atom in enumerate(atoms)
        if nx.is_chordal(g.subgraph(atom))
    ]
    orders = sorted(len(atom) for atom in atoms)
    if len(orders) < 2 or orders[0] + orders[1] <= 10:
        problems.append("two atoms together fit the bounded-order family")
    attach: dict[int, set] = {i: set() for i in range(len(atoms))}
    for u, v in bridges:
        attach[atom_of[u]].add(u)
        attach[atom_of[v]].add(v)
    if not any(len(s) >= ATTACH_CERT for s in attach.values()):
        problems.append(f"no atom has {ATTACH_CERT} distinct attachment vertices")
    return problems


def check_reject(text: str, rec: dict) -> list[str]:
    """A negative recognition verdict backed by a verified certificate."""
    problems = []
    if rec.get("member") is not False:
        problems.append(f"expected member=false, got {rec.get('member')!r}")
    problems.extend(
        f"no certificate of non-membership: {p}"
        for p in nonmember_certificate(parse_edge_list(text))
    )
    return problems


def check_corpus(line: str, rec: dict) -> list[str]:
    """A batch answer lies in [alpha, greedy clique cover]; exact ones are exact."""
    g = parse_graph6(line)
    value = rec.get("value")
    if not isinstance(value, int):
        return [f"no integer value: {value!r}"]
    alpha = independence_number(g)
    cover = greedy_clique_cover(g)
    if not _is_clique_partition(g, cover):
        raise AssertionError("checker bug: greedy cover is not a clique partition")
    problems = []
    if not alpha <= value <= len(cover):
        problems.append(f"value {value} outside [{alpha}, {len(cover)}]")
    if rec.get("exact") is True and 2 * g.number_of_edges() <= ENUM_FREE_BITS:
        truth = enumerate_minrank(g)
        if value != truth:
            problems.append(f"exact value {value} != enumerated {truth}")
    return problems
