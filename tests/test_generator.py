"""Seeded instance generator: reproducibility and structural soundness."""

import random

import pytest

from minrank import (
    Graph, GraphError, default_registry, emit_graph6, mdc, parse_registry_spec,
    validate_structure,
)
from minrank.families import ChordalFamily
from minrank.generator import (
    generate_member,
    random_connected_chordal,
    random_connected_graph,
)

from conftest import component_count
import oracles


def test_same_seed_same_instance():
    a_g, a_t = generate_member(7, k=4, c=2)
    b_g, b_t = generate_member(7, k=4, c=2)
    assert emit_graph6(a_g) == emit_graph6(b_g)
    assert a_t == b_t


def test_seeds_differ():
    sigs = {emit_graph6(generate_member(s, k=3, c=2)[0]) for s in range(50)}
    assert len(sigs) > 40  # collisions should be rare


def test_generated_structures_validate():
    reg = default_registry()
    for seed in range(30):
        c = 1 + seed % 3
        g, t = generate_member(seed, k=2 + seed % 4, c=c)
        report = validate_structure(g, t, reg)
        assert report.valid, report.violations
        assert report.mdc <= c
        assert component_count(g) == 1


def test_part_order_bounds_respected():
    for seed in range(15):
        g, t = generate_member(seed, k=3, c=2, part_order=(2, 4))
        assert all(2 <= len(p) <= 4 for p in t.parts)


def test_chordal_profile_parts_are_chordal():
    fam = ChordalFamily()
    for seed in range(15):
        g, t = generate_member(seed, k=3, c=2, profile="chordal")
        for p in t.parts:
            sub, _ = oracles.induced_subgraph(g, p)
            assert fam.solver(sub) is not None


def test_single_part_instance():
    g, t = generate_member(3, k=1, c=2)
    assert len(t.parts) == 1
    assert t.parent == (-1,)
    assert mdc(t) == 0


def test_bad_arguments():
    with pytest.raises(ValueError):
        generate_member(0, k=0, c=2)
    with pytest.raises(ValueError):
        generate_member(0, k=2, c=0)
    with pytest.raises(ValueError):
        generate_member(0, k=2, c=2, profile="nope")
    with pytest.raises(ValueError):
        generate_member(0, k=2, c=2, part_order=(5, 3))


def test_part_in_no_family_is_a_graph_error():
    """Parts of order 12 fit `bounded:12` but not the default registry: a
    part no family holds comes from the orders and registry asked for."""
    with pytest.raises(GraphError, match="of order 12 is in no family of registry"):
        generate_member(1, k=3, c=2, profile="bounded", part_order=(12, 12))
    g, t = generate_member(
        1, k=3, c=2, profile="bounded", part_order=(12, 12),
        registry=parse_registry_spec("bounded:12"),
    )
    assert validate_structure(g, t, parse_registry_spec("bounded:12")).valid


def test_random_connected_builders():
    rng = random.Random(9)
    for order in (1, 2, 5, 9):
        g = random_connected_chordal(rng, order)
        assert g.n == order
        assert component_count(g) == 1
        h = random_connected_graph(rng, order)
        assert component_count(h) == 1
