"""Shared fixtures and corpus helpers for the test suite."""

import itertools
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from minrank import BitMatrix, Graph
from minrank.exact import bit_components

import oracles

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SOLVER_SCRIPT = os.path.join(os.path.dirname(__file__), "dimacs_dpll.py")


def solver_command() -> str:
    """Command line for the bundled DIMACS solver, env-overridable."""
    return os.environ.get(
        "MINRANK_SAT_SOLVER", f"{sys.executable} {SOLVER_SCRIPT}"
    )


def matrix_from_strings(lines) -> BitMatrix:
    """A matrix from rows of '0'/'1' characters, entry (i, j) at row i's
    character j: the text form of a record's `witness`."""
    width = len(lines[0]) if lines else 0
    return BitMatrix(len(lines), width, tuple(int(row[::-1], 2) for row in lines))


def random_edges(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < p]


def random_graph_in_budget(
    rng: random.Random, n_max: int, edge_cap: int = 9
) -> Graph:
    """A random graph small enough for exhaustive solving to stay quick."""
    while True:
        n = rng.randint(1, n_max)
        p = rng.choice([0.2, 0.35, 0.5, 0.7, 0.9])
        edges = random_edges(rng, n, p)
        if len(edges) <= edge_cap:
            return Graph(n, edges)


def delete_vertex(g: Graph, v: int) -> Graph:
    """g minus vertex v: the subgraph induced on the others, in order."""
    return oracles.induced_subgraph(g, [u for u in range(g.n) if u != v])[0]


def graphs_built(monkeypatch) -> list:
    """A list that gets every `Graph` built from now on, as it is made:
    each passes through the constructor, however it is copied or parsed."""
    built, real = [], Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    return built


def component_count(g: Graph) -> int:
    """The number of connected components of g."""
    return len(bit_components(g.adjacency_bits(), (1 << g.n) - 1))


def flat_bridge_split(g: Graph) -> tuple[list, list, bool]:
    """`g.bridge_split()` flattened: every component's bridges as one
    sorted list, its atoms as another, and whether g is connected."""
    forest = g.bridge_split()
    bridges = sorted(b for pairs, _ in forest for b in pairs)
    atoms = sorted(a for _, tree_atoms in forest for a in tree_atoms)
    return bridges, atoms, len(forest) == 1


def random_connected_in_budget(
    rng: random.Random, n_max: int, edge_cap: int = 9
) -> Graph:
    while True:
        g = random_graph_in_budget(rng, n_max, edge_cap)
        if g.n > 0 and component_count(g) == 1:
            return g


@pytest.fixture
def example1() -> Graph:
    """The five-vertex running example; its min-rank is 2."""
    return Graph(5, [(0, 1), (0, 2), (0, 4), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def petersen() -> Graph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return Graph(10, outer + spokes + inner)


@pytest.fixture
def bowtie() -> Graph:
    """Two triangles sharing one vertex."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


@pytest.fixture
def order4_path() -> str:
    return os.path.join(DATA_DIR, "order4.g6")


@pytest.fixture
def random1000_path() -> str:
    return os.path.join(DATA_DIR, "random1000.g6")
