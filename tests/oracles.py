"""Slow reference implementations used to pin expected values.

Everything in this module favors obviousness over speed: matrices are
plain lists of 0/1 ints, rank comes from textbook elimination, and
searches enumerate outright.  Tests compare the fast library code
against these, so nothing here may import from minrank.
"""

import itertools
from collections import deque


def naive_rank(rows):
    """Rank of a 0/1 matrix over GF(2) by row reduction on lists."""
    mat = [list(r) for r in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [(a ^ b) for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def fitting_matrices(n, edges):
    """Yield every matrix fitting the graph, as a list of row lists.

    Diagonal entries are 1, non-edge off-diagonal entries are 0, and
    each of the 2|E| ordered edge positions ranges over {0, 1}.
    """
    edge_set = {frozenset(e) for e in edges}
    positions = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and frozenset((i, j)) in edge_set
    ]
    for bits in itertools.product((0, 1), repeat=len(positions)):
        mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), b in zip(positions, bits):
            mat[i][j] = b
        yield mat


def minrank_enumerate(n, edges):
    """Minimum rank over every fitting matrix.  Only viable for tiny
    graphs; the caller is responsible for keeping 2|E| small."""
    if n == 0:
        return 0
    assert 2 * len(edges) <= 20, "oracle enumeration limited to 10 edges"
    return min(naive_rank(m) for m in fitting_matrices(n, edges))


def components_bfs(n, edges):
    """Connected components as sorted vertex lists, sorted by minimum."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return sorted(comps, key=min)


def bridges_by_removal(n, edges):
    """Bridges found the expensive way: drop each edge and see whether
    the component count grows."""
    base = len(components_bfs(n, edges))
    out = []
    for e in edges:
        rest = [f for f in edges if f != e]
        if len(components_bfs(n, rest)) > base:
            out.append(tuple(sorted(e)))
    return sorted(out)


def two_edge_connected_components(n, edges):
    """Atoms and links of a connected graph, from the bridge definition.

    An edge is a bridge iff deleting it disconnects the graph.  The atoms
    are the components left after deleting every bridge, ordered by
    smallest vertex; each bridge links the two atoms it joins and is
    keyed by their indices, with x in the lower-numbered atom.
    """
    bridges = bridges_by_removal(n, edges)
    cut = set(bridges)
    rest = [e for e in edges if tuple(sorted(e)) not in cut]
    atoms = [tuple(c) for c in components_bfs(n, rest)]
    atom_of = {v: i for i, atom in enumerate(atoms) for v in atom}
    links = {}
    for a, b in bridges:
        x, y = sorted((a, b), key=lambda v: atom_of[v])
        links[(atom_of[x], atom_of[y])] = (x, y)
    return tuple(atoms), links


def max_independent_set(n, edges):
    """Independence number by checking every vertex subset."""
    assert n <= 16
    adj = [[False] * n for _ in range(n)]
    for a, b in edges:
        adj[a][b] = adj[b][a] = True
    best = 0
    for mask in range(1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        if len(verts) <= best:
            continue
        if all(not adj[u][v] for u, v in itertools.combinations(verts, 2)):
            best = len(verts)
    return best


def is_chordal_by_elimination(n, edges):
    """Chordality via the definition: repeatedly delete a simplicial
    vertex; the graph is chordal iff the process empties it."""
    adj = {v: set() for v in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    while alive:
        simplicial = None
        for v in sorted(alive):
            nb = adj[v] & alive
            if all(y in adj[x] for x, y in itertools.combinations(sorted(nb), 2)):
                simplicial = v
                break
        if simplicial is None:
            return False
        alive.discard(simplicial)
    return True


def graph6_encode(n, edges):
    """Independent graph6 encoder (short form) built from a bit string."""
    assert 0 <= n <= 62
    edge_set = {frozenset(e) for e in edges}
    bits = ""
    for j in range(n):
        for i in range(j):
            bits += "1" if frozenset((i, j)) in edge_set else "0"
    while len(bits) % 6:
        bits += "0"
    out = chr(n + 63)
    for k in range(0, len(bits), 6):
        out += chr(int(bits[k : k + 6], 2) + 63)
    return out


def minrank_of_graph(g):
    """Enumeration oracle lifted to the package's Graph type."""
    return minrank_enumerate(g.n, [tuple(e) for e in g.edges])
