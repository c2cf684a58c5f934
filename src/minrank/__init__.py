"""GF(2) min-rank of graphs: exact solvers and a structured polynomial route."""

from .errors import (
    BudgetExceededError,
    GraphError,
    NotInFamilyError,
    StructureError,
)
from .exact import (
    BRUTE_FORCE_BIT_BUDGET,
    Bounds,
    MinrankResult,
    minrank_bnb,
    minrank_bruteforce,
    minrank_components,
    sandwich_bounds,
    verify_witness,
)
from .families import (
    ChordalFamily,
    FamilyOracle,
    FamilyRegistry,
    default_registry,
    parse_registry_spec,
)
from .formats import (
    emit_dot,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from .generator import generate_member
from .gf2 import BitMatrix, RowBasis, fits, rank_gf2
from .graph import Graph
from .cnf import emit_cnf, minrank_via_cnf, run_solver
from .dp import combine_shared_vertex, dp_minrank, star_merge
from .recognizer import (
    AtomForest,
    RecognitionOutcome,
    merge_phase,
    recognize,
    split_phase,
)
from .structure import (
    SimpleTreeStructure,
    StructureReport,
    mdc,
    structure_to_dot,
    subtree_vertices,
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "AtomForest",
    "BitMatrix",
    "BRUTE_FORCE_BIT_BUDGET",
    "Bounds",
    "BudgetExceededError",
    "ChordalFamily",
    "FamilyOracle",
    "FamilyRegistry",
    "Graph",
    "GraphError",
    "MinrankResult",
    "NotInFamilyError",
    "RecognitionOutcome",
    "RowBasis",
    "SimpleTreeStructure",
    "StructureError",
    "StructureReport",
    "combine_shared_vertex",
    "default_registry",
    "dp_minrank",
    "emit_cnf",
    "emit_dot",
    "emit_edge_list",
    "emit_graph6",
    "fits",
    "generate_member",
    "mdc",
    "merge_phase",
    "minrank_bnb",
    "minrank_bruteforce",
    "minrank_components",
    "minrank_via_cnf",
    "run_solver",
    "parse_edge_list",
    "parse_graph6",
    "parse_registry_spec",
    "rank_gf2",
    "recognize",
    "sandwich_bounds",
    "split_phase",
    "structure_to_dot",
    "subtree_vertices",
    "validate_structure",
    "verify_witness",
]
