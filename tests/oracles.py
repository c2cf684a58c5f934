"""Slow reference implementations used to pin expected values.

Everything in this module favors obviousness over speed: matrices are
plain lists of 0/1 ints, rank comes from textbook elimination, and
searches enumerate outright.  Tests compare the fast library code
against these, so nothing here may import from minrank, with these
exceptions: `minrank_bruteforce`, the enumeration that was once the
package's `--method brute`, takes the package's `Graph` and returns its
`MinrankResult` with a `BitMatrix` witness, so that its answers compare
and verify like a solver's; `recognize_decided_first` runs the package's
own merge over atoms whose families it decided up front, to pin what
deciding them later must not change; `parse_edge_list`, the edge-list
parser as it stood before it read documents in bulk, builds the
package's `Graph` and raises its `GraphError`, so that its outcomes
compare with the parser's; `dp_fold_by_subset_table`, the dp fold as it
stood before it made two queries per part, reads a structure report's
solvers and glues with `star_merge` and `combine_shared_vertex`; and
`atom_fold_by_atom_tree`, auto's fold as it stood before it ran as the
bridge search closed atoms, reads the package's `bridge_split` and
family claims and rebuilds each component's atom tree.  Both ask a
solver by the ids of g's vertices in its own part, which is all a solver
answers for.
"""

import itertools
from collections import deque

from minrank.errors import GraphError
from minrank.graph import Graph


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


def reduce_by_pivots(pivots, row):
    """Reduce a packed row against `pivots`, rows keyed by their leading
    bit; 0 means the row is in their span."""
    while row:
        p = pivots.get(row.bit_length() - 1)
        if p is None:
            break
        row ^= p
    return row


def insert_pivot(pivots, row):
    """Add a packed row to `pivots` unless they already span it."""
    row = reduce_by_pivots(pivots, row)
    if row:
        pivots[row.bit_length() - 1] = row


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


def row_choices(v, neighbours):
    """Yield every admissible row for vertex v: unit bit plus any subset of
    the neighbour bitset `neighbours`, in increasing order of the subset."""
    base = 1 << v
    sub = 0
    while True:
        yield base | sub
        if sub == neighbours:
            break
        sub = (sub - neighbours) & neighbours


def minrank_bruteforce(g):
    """Exact min-rank of the package's Graph g by enumerating every fitting
    matrix, as a `MinrankResult` with a witness.

    There are 2^(2|E|) fitting matrices, so keep 2|E| small.  Row
    elimination is shared across matrices agreeing on a prefix of rows, but
    every complete assignment is visited; `stats` holds 2|E| as
    `free_bits` and the enumeration tree's `nodes`.
    """
    from minrank.exact import MinrankResult
    from minrank.gf2 import BitMatrix

    n = g.n
    adjacency = g.adjacency_bits()
    choices = [list(row_choices(v, adjacency[v])) for v in range(n)]
    best = [n + 1, ()]
    visited = _walk(choices, [0] * n, {}, 0, best)
    stats = {"free_bits": 2 * g.edge_count, "nodes": visited}
    return MinrankResult(best[0], "brute", BitMatrix(n, n, best[1]), True, stats)


def _walk(choices, chosen, pivots, i, best):
    """Visit every choice of the rows from i on in `minrank_bruteforce`'s
    enumeration, keeping the least rank found and its rows in `best`;
    returns the nodes visited."""
    if i == len(choices):
        if len(pivots) < best[0]:
            best[:] = len(pivots), tuple(chosen)
        return 1
    visited = 1
    for cand in choices[i]:
        chosen[i] = cand
        x = reduce_by_pivots(pivots, cand)
        if x:
            pivots[x.bit_length() - 1] = x
        visited += _walk(choices, chosen, pivots, i + 1, best)
        if x:
            del pivots[x.bit_length() - 1]
    return visited


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


def greedy_bounds_by_sets(n, edges):
    """The greedy independent set and greedy clique cover of the exact
    solver's bounds, as they were computed on Python sets: vertices in
    ascending order, each one not yet blocked joins the set, and each one
    not yet covered starts a clique that its lowest candidate neighbour
    joins until none is left.  Returns (independent set, cliques)."""
    nbrs = [set() for _ in range(n)]
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    chosen = []
    blocked = set()
    for v in range(n):
        if v not in blocked:
            chosen.append(v)
            blocked.add(v)
            blocked |= nbrs[v]
    cliques = []
    covered = set()
    for v in range(n):
        if v in covered:
            continue
        clique = [v]
        cand = set(nbrs[v]) - covered
        while cand:
            w = min(cand)
            clique.append(w)
            cand &= nbrs[w]
        covered.update(clique)
        cliques.append(tuple(sorted(clique)))
    return tuple(chosen), tuple(cliques)


def independence_number_by_branching(n, edges):
    """The exact solver's independence number as it was written for a whole
    graph: skip or take a vertex of highest degree among those left (the
    lowest such id), pruning when the rest cannot beat the best."""
    closed = [1 << v for v in range(n)]
    for a, b in edges:
        closed[a] |= 1 << b
        closed[b] |= 1 << a
    best = 0

    def grow(avail, size):
        nonlocal best
        if size + bin(avail).count("1") <= best:
            return
        if avail == 0:
            best = max(best, size)
            return
        v = max(
            (u for u in range(n) if avail >> u & 1),
            key=lambda u: bin(closed[u] & avail).count("1"),
        )
        grow(avail & ~(1 << v), size)
        grow(avail & ~closed[v], size + 1)

    grow((1 << n) - 1, 0)
    return best


def min_clique_partition(n, edges):
    """Fewest cliques partitioning the vertices, by listing every way to
    put each vertex into a block of the earlier vertices or a new block,
    skipping partitions with a non-clique block or no fewer blocks than the
    best so far."""
    assert n <= 9
    adj = {frozenset(e) for e in edges}
    best = n
    blocks = []

    def place(v):
        nonlocal best
        if len(blocks) >= best:
            return
        if v == n:
            best = len(blocks)
            return
        for block in blocks:
            if all(frozenset((u, v)) in adj for u in block):
                block.append(v)
                place(v + 1)
                block.pop()
        blocks.append([v])
        place(v + 1)
        blocks.pop()

    place(0)
    return best


def dsatur_pick_by_min(adjacency, left, common):
    """The exact clique cover's branching vertex as it was picked before the
    counts went into bit planes: over the vertices of the bitset `left`, the
    least (number of bitsets in `common` holding it, neighbours in `left`),
    `min` keeping the lowest vertex on ties."""
    return min(
        (u for u in range(left.bit_length()) if left >> u & 1),
        key=lambda u: (
            sum(c >> u & 1 for c in common),
            (adjacency[u] & left).bit_count(),
        ),
    )


def least_closed_degree_by_min(closed, avail):
    """The vertex of the bitset `avail` with the fewest vertices of `avail`
    in its closed neighbourhood `closed[u]`, by `min`, so the lowest on
    ties: branch and bound's greedy pick before its loop lost `min`."""
    return min(
        (u for u in range(avail.bit_length()) if avail >> u & 1),
        key=lambda u: (closed[u] & avail).bit_count(),
    )


def greedy_independent_by_min(closed, avail):
    """The greedy independent set of the bitset `avail`, as a bitset, made
    of `least_closed_degree_by_min` picks."""
    chosen = 0
    while avail:
        v = least_closed_degree_by_min(closed, avail)
        chosen |= 1 << v
        avail &= ~closed[v]
    return chosen


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


def mcs_elimination_order(g, vertices=None):
    """Reversed maximum cardinality search order on the vertex sequence
    `vertices` (all of g by default), the search run to the end with no
    check along the way: the order the one-pass chordality test must give
    on chordal inputs.  `g` needs only `n` and `neighbor_set(v)`.

    Each step visits an unvisited vertex with the most visited neighbours,
    the one pushed last among equals; buckets hold vertices by that count
    and an entry left behind by a rising count is skipped.
    """
    vs = range(g.n) if vertices is None else vertices
    count = dict.fromkeys(vs, 0)  # -1 once visited; vertices outside: absent
    buckets = [list(reversed(vs))] + [[] for _ in vs]
    order = []
    top = 0
    while top >= 0:
        if not buckets[top]:
            top -= 1
            continue
        v = buckets[top].pop()
        if count[v] != top:
            continue
        count[v] = -1
        order.append(v)
        for w in g.neighbor_set(v):
            if count.get(w, -1) >= 0:
                count[w] += 1
                buckets[count[w]].append(w)
        top += 1
    return order[::-1]


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


def graph6_lines_by_splitlines(text):
    """(0-based line number, line) of each line of `text` that is neither
    blank nor a `#` comment, from one `str.splitlines` of the whole text."""
    return [(i, line) for i, line in enumerate(text.splitlines())
            if line.strip() and not line.startswith("#")]


def registry_lookup(reg, g):
    """The first oracle of registry `reg` whose family holds g, or None."""
    for oracle in reg.oracles:
        if oracle.solver(g) is not None:
            return oracle
    return None


def minrank_of_graph(g):
    """Enumeration oracle lifted to the package's Graph type."""
    return minrank_enumerate(g.n, [tuple(e) for e in g.edges])


def merge_every_root(atoms, links, c, in_family):
    """Greedy merge phase, walking the whole atom tree afresh per root.

    `atoms` are sorted vertex tuples, `links` maps an atom pair (l, m),
    l < m, to its bridge (x, y) with x in atom l, and `in_family` says
    whether a frozenset of vertices induces a family member.  Roots are
    tried in order 0, 1, ...; under root r an atom tree in which no atom
    has more than c distinct downward connectors is taken as it is, and
    otherwise every atom, children first, absorbs childless children
    through the largest set of its connectors (largest size first, in
    combinations order, leaving at most c) whose union is in a family.
    Returns (member, roots tried, parts, parents) with the surviving parts
    in atom order and parents indexing into them (-1 for the root).
    """
    h = len(atoms)
    for r in range(h):
        merged = _merge_under_root(atoms, links, r, c, in_family)
        if merged is not None:
            return (True, r + 1) + merged
    return False, h, None, None


def _merge_under_root(atoms, links, r, c, in_family):
    def end_in(a, b):  # endpoint in atom a of the bridge between a and b
        x, y = links[(min(a, b), max(a, b))]
        return x if a < b else y

    neighbors = {v: set() for v in range(len(atoms))}
    for l, m in links:
        neighbors[l].add(m)
        neighbors[m].add(l)
    parent = {r: -1}
    order = [r]
    for node in order:  # breadth first; the list grows while it is read
        for nb in sorted(neighbors[node] - set(parent)):
            parent[nb] = node
            order.append(nb)
    kids = {v: sorted(w for w in parent if parent[w] == v) for v in parent}
    blob = {v: set(atoms[v]) for v in parent}
    worst = max(len({end_in(v, w) for w in kids[v]}) for v in kids)
    if worst > c:
        for node in reversed(order):
            groups = {}
            for ch in kids[node]:
                groups.setdefault(end_in(node, ch), []).append(ch)
            connectors = sorted(groups)
            found = None
            for size in range(len(connectors), max(0, len(connectors) - c) - 1, -1):
                for chosen in itertools.combinations(connectors, size):
                    absorbed = [ch for u in chosen for ch in groups[u]]
                    if any(kids[ch] for ch in absorbed):
                        continue
                    merged = frozenset(blob[node]).union(*(blob[ch] for ch in absorbed))
                    if in_family(merged):
                        found = absorbed
                        break
                if found is not None:
                    break
            if found is None:
                return None
            for ch in found:
                blob[node] |= blob.pop(ch)
            kids[node] = [ch for ch in kids[node] if ch not in found]
    alive = sorted(blob)
    index = {v: i for i, v in enumerate(alive)}
    parts = [tuple(sorted(blob[v])) for v in alive]
    parents = [index[parent[v]] if parent[v] != -1 else -1 for v in alive]
    return parts, parents


def set_partitions(items):
    """Yield every partition of the list `items` into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in set_partitions(rest):
        yield [[first], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1 :]]


def structure_exists(n, edges, c, in_family):
    """Whether the connected graph has a tree-of-parts structure with at
    most `c` downward connectors per part, by exhaustive search.

    Every set partition of the vertices is tried.  Each part must induce a
    family member, `in_family(order, edges)` deciding it on the part's
    graph relabelled 0..order-1; the parts, joined wherever an edge
    crosses, must form a tree with exactly one edge per link; and under
    some root part, every part may have at most `c` distinct vertices
    carrying the edges to its children.  Exponential: keep n small.
    """
    member = {}

    def part_ok(block):
        key = frozenset(block)
        if key not in member:
            index = {v: i for i, v in enumerate(sorted(block))}
            inside = [(index[a], index[b]) for a, b in edges if a in key and b in key]
            member[key] = in_family(len(block), inside)
        return member[key]

    for blocks in set_partitions(list(range(n))):
        part_of = {v: i for i, block in enumerate(blocks) for v in block}
        crossing = {}  # (part i, part j), i < j -> edges between them
        for a, b in edges:
            i, j = part_of[a], part_of[b]
            if i != j:
                key = (min(i, j), max(i, j))
                crossing.setdefault(key, []).append((a, b) if i < j else (b, a))
        if any(len(es) > 1 for es in crossing.values()):
            continue
        if len(crossing) != len(blocks) - 1:  # connected, so a tree exactly
            continue
        if not all(part_ok(block) for block in blocks):
            continue
        end = {}  # (part, neighbouring part) -> the link's end in part
        for (i, j), [(a, b)] in crossing.items():
            end[i, j], end[j, i] = a, b
        for root in range(len(blocks)):
            parent, order = {root: None}, [root]
            for i in order:  # breadth first; the list grows while it is read
                for (x, y) in end:
                    if x == i and y not in parent:
                        parent[y] = i
                        order.append(y)
            down = {i: set() for i in parent}
            for child, p in parent.items():
                if p is not None:
                    down[p].add(end[p, child])
            if all(len(ds) <= c for ds in down.values()):
                return True
    return False


def recognize_decided_first(g, c, registry, explain=False):
    """`recognize` with every atom's families decided before merging.

    Each atom of the connected graph g is tested by every family of
    `registry` up front, in atom order, on the graph itself; the first atom
    in no family fails the split with recognize's message.  The package's
    `merge_phase` then runs on a forest whose every atom is decided, with
    the gluing masks of every order precomputed, so it reads no test.
    Returns (member, roots tried, failure detail, structure or None,
    explain trace of the roots or None, decisions).
    """
    from minrank.errors import NotInFamilyError
    from minrank.recognizer import AtomForest, merge_phase

    ((bridges, atoms),) = g.bridge_split()  # g is connected
    families = {}
    for a, atom in enumerate(atoms):
        solvers = [o.solver(g, atom) for o in registry.oracles]
        if all(s is None for s in solvers):
            detail = f"bridgeless piece {list(atom)} fits no registered family"
            return False, 0, detail, None, None, 0
        families[a] = sum(1 << i for i, s in enumerate(solvers) if s is not None)
    glue_bits = {}
    for k in range(1, g.n + 1):
        if any(o.glue(False, k) for o in registry.oracles):
            glue_bits[k] = -1
        else:
            glue_bits[k] = sum(o.glue(True, k) << i for i, o in enumerate(registry.oracles))
    atom_of = {v: a for a, atom in enumerate(atoms) for v in atom}
    links = {}
    for x, y in bridges:
        if atom_of[x] > atom_of[y]:
            x, y = y, x
        links[atom_of[x], atom_of[y]] = (x, y)
    forest = AtomForest(tuple(atoms), dict(sorted(links.items())), families, glue_bits)
    trace, stats = ([] if explain else None), {}
    try:
        structure, roots = merge_phase(forest, c, trace=trace, stats=stats)
    except NotInFamilyError as exc:
        return False, len(atoms), exc.detail, None, trace, stats["decisions"]
    return True, roots, None, structure, trace, stats["decisions"]


# The parser that checked every line in a loop, kept verbatim: the reference
# that reading a document in bulk must agree with, graph, labels and errors.
def parse_edge_list(text: str) -> Graph:
    """Parse an edge-list document.

    Each non-comment line holds one `u v` pair; `#` starts a comment.  With
    an `n=<count>` header line, vertex ids must already be dense 0-based and
    isolated vertices are allowed.  Without it, arbitrary integer ids are
    accepted and remapped in sorted order to 0..n-1, with the originals kept
    in the label map.  Loops and repeated edges are rejected.
    """
    n_header = None
    raw_edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:  # a bare `u v` line, the common case
            u, v = map(int, line.split())
        except ValueError:
            u = None
        if u is None:
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if body.startswith("n="):
                if n_header is not None:
                    raise GraphError(f"line {lineno}: repeated n= header")
                try:
                    n_header = int(body[2:])
                except ValueError:
                    raise GraphError(f"line {lineno}: bad vertex count {body!r}") from None
                if n_header < 0:
                    raise GraphError(f"line {lineno}: negative vertex count")
                continue
            toks = body.split()
            if len(toks) != 2:
                raise GraphError(f"line {lineno}: expected two vertex ids, got {body!r}")
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise GraphError(f"line {lineno}: non-integer vertex id in {body!r}") from None
        if u == v:
            raise GraphError(f"line {lineno}: loop at vertex {u}")
        raw_edges.append((lineno, u, v))

    n, labels = n_header, None
    if n is None:
        ids = sorted({u for _, u, v in raw_edges} | {v for _, u, v in raw_edges})
        remap = {orig: i for i, orig in enumerate(ids)}
        raw_edges = [(lineno, remap[u], remap[v]) for lineno, u, v in raw_edges]
        n = len(ids)
        if ids != list(range(n)):
            labels = {i: str(orig) for i, orig in enumerate(ids)}
    # Out-of-range ids anywhere are reported before a duplicate edge.
    adj = [set() for _ in range(n)]
    duplicate = None
    for lineno, u, v in raw_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: vertex out of range for n={n}")
        if v in adj[u] and duplicate is None:
            duplicate = f"line {lineno}: duplicate edge {(min(u, v), max(u, v))}"
        adj[u].add(v)
        adj[v].add(u)
    if duplicate is not None:
        raise GraphError(duplicate)
    return Graph._of_adjacency(adj, labels)


# The dp fold that tabled every subset of a part's connectors, kept as it
# stood (less its refusal above 2^16 subsets): the reference that the
# two-query fold must agree with, value and trace.
def dp_fold_by_subset_table(report, trace=False):
    """Exact min-rank from a valid structure report, in one bottom-up fold.

    Per part the fold carries a table indexed by subsets of the still-pending
    connector vertices, as bitmasks over the part's sorted connectors: entry
    U is the min-rank of the partial union minus U.  It starts as the bare
    part's min-rank minus each subset, read from the part's solver by vertex
    id, so a part with d connectors costs 2^d queries.
    """
    from minrank.errors import StructureError
    from minrank.exact import MinrankResult, _check_pair

    if not report.valid:
        raise StructureError(f"invalid structure: {report.violations}")
    t = report.structure
    k = len(t.parts)

    children = [[] for _ in range(k)]
    for j, p in enumerate(t.parent):
        if p != -1:
            children[p].append(j)
    order = []
    root = t.parent.index(-1)
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children[node])
    order.reverse()  # every part now comes after all of its children

    tables = {}
    trace_nodes = []
    oracle_calls = 0
    for i in order:
        uc = t.uc.get(i)
        dc_map = t.dc.get(i, {})
        dcs = sorted(dc_map)
        hub_values = {u: star_merge([tables[j] for j in dc_map[u]]) for u in dcs}
        # Start from the bare part minus each subset of its connectors, bit j
        # of a mask standing for keys[j]; then fold in one downward connector
        # per step, in place, which retires its bit.
        keys = sorted({*dcs, uc} - {None})
        subsets = [[]]  # subsets[mask]: the vertices it deletes
        for v in keys:
            subsets += [s + [v] for s in subsets]
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
    return MinrankResult(tables[root][0], "dp", None, True, stats)


def combine_shared_vertex(m1, m1v, m2, m2v):
    """Min-rank of the union of two graphs meeting in exactly one vertex v.

    Arguments are the min-ranks of each side with v present and with v
    deleted.  The union needs the deleted-v parts regardless; one more
    unit is paid exactly when both sides strictly need v.
    """
    from minrank.exact import _check_pair

    _check_pair(m1, m1v, "left side")
    _check_pair(m2, m2v, "right side")
    return m1v + m2v + (m1 - m1v) * (m2 - m2v)


def star_merge(children):
    """Min-rank of child subtrees joined to one new hub vertex.

    Each pair is (subtree min-rank, min-rank after deleting the subtree's
    connector).  Returns (with hub, without hub).  Without the hub the
    subtrees are disjoint and their values add; the hub costs one extra
    unit unless some subtree drops a unit at its connector.
    """
    from minrank.exact import _check_pair

    if not children:
        raise ValueError("star merge needs at least one child subtree")
    for idx, (m, mv) in enumerate(children):
        _check_pair(m, mv, f"child {idx}")
    without_hub = sum(m for m, _ in children)
    reusable = any(mv == m - 1 for m, mv in children)
    return (without_hub if reusable else without_hub + 1, without_hub)


# Auto's fold as it stood when it rebuilt each component's atom tree from
# `bridge_split` and folded it with `star_merge`: the reference that the fold
# run as the search closes atoms must agree with, value, stats and trace.
def atom_fold_by_atom_tree(g, tree, registry, trace=False):
    """Exact min-rank of g's component whose `g.bridge_split()` pair is
    `tree`, folded over its atom tree as it stands, rooted at atom 0, with
    the bridge ends as connectors and each atom asking its first family's
    solver (`FamilyRegistry.claim`, one claim per atom, since a solver
    answers only for its own part's vertex ids); None when some atom is in
    no family.  No merge or structure is built."""
    from minrank.exact import MinrankResult, _check_pair

    bridges, atoms = tree
    claims = []
    for atom in atoms:
        claim = registry.claim(g, atom)
        if claim is None:
            return None
        claims.append((claim[0].name, claim[1]))
    atom_of = {v: i for i, atom in enumerate(atoms) for v in atom}
    ends = [[] for _ in atoms]  # per atom: (its end, other atom, other end)
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

    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        stack += sorted(j for js in dc.get(node, {}).values() for j in js)
    order.reverse()  # every part now comes after all of its children
    pairs, trace_nodes = {}, []
    for i in order:
        up = uc.get(i)
        dc_map = dc.get(i, {})
        hub_values = {u: star_merge([pairs[j] for j in dc_map[u]]) for u in sorted(dc_map)}
        # Each hub adds its value without u, and deletes u unless it needs u.
        deleted = {u for u, hub in hub_values.items() if hub[0] == hub[1]}
        glued = sum(hub[1] for hub in hub_values.values())
        family, solve = claims[i]
        m_full = solve(deleted) + glued
        m_minus = None
        if up is not None:
            m_minus = solve(deleted | {up}) + glued
            _check_pair(m_full, m_minus, f"pair at part {i}")
        pairs[i] = m_full, m_minus
        if trace:
            hubs = {str(u): list(hv) for u, hv in hub_values.items()}
            trace_nodes.append({"part": i, "family": family, "m_full": m_full,
                                "m_minus": m_minus, "hub_values": hubs})
    stats = {"oracle_calls": 2 * len(atoms) - 1, "parts": len(atoms)}
    if trace:
        stats["trace"] = {"order": order, "nodes": trace_nodes}
    return MinrankResult(pairs[0][0], "dp", None, True, stats)
