"""Seeded inputs for the three workloads.

The `tree` and `reject` builders are pure functions of the workload seed;
the `corpus` slice is fixed, so its count of exact answers is the same in
every run.  `tree` members come from the program's own generator; `reject`
graphs are built here, without the program, so that their non-membership
rests on a certificate the checkers can verify (see checks.py).
"""

from __future__ import annotations

import random

# (profile, parts k, how many) per round.  Mostly mixed members in a size
# ladder up to k=640; a few all-chordal members, kept small because merge
# absorbs every part of an all-chordal member and grows much faster there.
# The counts put the per-graph median inside the k=20 rung and the 90th
# percentile inside the k=80 rung, away from the edges between rungs, where
# a percentile would jump with the seed; the k=160 and larger members vary
# too much from seed to seed to hold a percentile steady, and the k=80 rung
# is all mixed, since chordal members of that size run slower and would
# make the percentile depend on the mix.
TREE_LADDER = (
    ("mixed", 10, 56),
    ("chordal", 10, 14),
    ("mixed", 20, 40),
    ("chordal", 20, 10),
    ("mixed", 40, 20),
    ("chordal", 40, 5),
    ("mixed", 80, 25),
    ("mixed", 160, 6),
    ("mixed", 320, 3),
    ("mixed", 640, 2),
)
TREE_C = 2
TREE_PART_ORDER = (2, 6)

# (atoms, how many) per round for the negative-recognition workload; the
# median falls in the 50-atom rung and the 90th percentile in the 200-atom
# rung.
REJECT_LADDER = ((25, 30), (50, 30), (100, 16), (200, 10), (400, 4))
REJECT_ATOM_ORDER = (6, 8)
REJECT_ATTACH = 4  # attachment vertices per atom

# Contiguous slice of tests/data/random1000.g6, 1-based inclusive line
# numbers.
CORPUS_FILE = "tests/data/random1000.g6"
CORPUS_LINES = (709, 858)

# --node-budget on every minrank and batch call.
NODE_BUDGET = 2000


def tree_specs(seed: int) -> list[tuple[str, int, int]]:
    """(profile, k, generator seed) for every member of one round.

    Shuffled, so that every rung is spread over the whole round and no
    percentile is measured in one stretch of the host's speed.
    """
    rng = random.Random(f"tree:{seed}")
    specs = [
        (profile, k, rng.randrange(1 << 31))
        for profile, k, count in TREE_LADDER
        for _ in range(count)
    ]
    rng.shuffle(specs)
    return specs


def _is_chordal(n: int, adj: list[set]) -> bool:
    """Chordality by repeatedly deleting a simplicial vertex (small graphs)."""
    alive = set(range(n))
    while alive:
        for v in sorted(alive):
            nb = sorted(adj[v] & alive)
            if all(b in adj[a] for i, a in enumerate(nb) for b in nb[i + 1 :]):
                alive.discard(v)
                break
        else:
            return False
    return True


def _atom(rng: random.Random, order: int) -> list[tuple[int, int]]:
    """Edges of a bridgeless, connected, non-chordal graph on `order` vertices.

    A Hamiltonian cycle is bridgeless; chords keep it so.  Chord sets that
    make the graph chordal are redrawn.
    """
    while True:
        cycle = list(range(order))
        rng.shuffle(cycle)
        edges = {
            (min(a, b), max(a, b))
            for a, b in zip(cycle, cycle[1:] + cycle[:1])
        }
        for u in range(order):
            for v in range(u + 1, order):
                if rng.random() < 0.2:
                    edges.add((u, v))
        adj = [set() for _ in range(order)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        if not _is_chordal(order, adj):
            return sorted(edges)


def reject_graph(rng: random.Random, atoms: int) -> tuple[int, list[tuple[int, int]]]:
    """Non-chordal atoms joined by bridges along a random recursive tree.

    Each atom draws its bridge endpoints from a pool of REJECT_ATTACH
    vertices.  The first REJECT_ATTACH children of atom 0 attach at
    distinct pool vertices, so atom 0 uses four distinct attachment
    vertices, which (with c=2 and no family holding two atoms) rules out
    every structure.
    """
    offsets = []
    edges = []
    n = 0
    for _ in range(atoms):
        order = rng.randint(*REJECT_ATOM_ORDER)
        offsets.append((n, order))
        edges.extend((u + n, v + n) for u, v in _atom(rng, order))
        n += order
    pools = [
        [base + x for x in rng.sample(range(order), REJECT_ATTACH)]
        for base, order in offsets
    ]
    for j in range(1, atoms):
        if j <= REJECT_ATTACH:
            x = pools[0][j - 1]
        else:
            x = rng.choice(pools[rng.randrange(j)])
        y = rng.choice(pools[j])
        edges.append((min(x, y), max(x, y)))
    # Relabel so atoms are not contiguous id blocks.
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def reject_graphs(seed: int) -> list[tuple[int, int, list[tuple[int, int]]]]:
    """(atoms, n, edges) for every graph of one round, shuffled like tree."""
    rng = random.Random(f"reject:{seed}")
    graphs = [
        (atoms, *reject_graph(rng, atoms))
        for atoms, count in REJECT_LADDER
        for _ in range(count)
    ]
    rng.shuffle(graphs)
    return graphs


def edge_list_text(n: int, edges) -> str:
    return "\n".join([f"n={n}"] + [f"{u} {v}" for u, v in edges]) + "\n"


def corpus_lines(root) -> list[str]:
    """The corpus slice in file order; it does not depend on the seed."""
    lo, hi = CORPUS_LINES
    with open(root / CORPUS_FILE) as fh:
        return fh.read().splitlines()[lo - 1 : hi]
