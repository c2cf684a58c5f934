"""GF(2) min-rank of graphs: exact solvers and a structured polynomial route."""

from .errors import GraphError, NotInFamilyError, StructureError
from .exact import Bounds, MinrankResult, minrank_bnb, verify_witness
from .families import (
    ChordalFamily,
    FamilyOracle,
    FamilyRegistry,
    default_registry,
    parse_registry_spec,
)
from .formats import (
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from .generator import generate_member
from .gf2 import BitMatrix, fits, rank_gf2
from .graph import Graph
from .cnf import cnf_lines, minrank_via_cnf, run_solver
from .dp import dp_minrank
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
    validate_structure,
)

__version__ = "0.1.0"

__all__ = [
    "AtomForest",
    "BitMatrix",
    "Bounds",
    "ChordalFamily",
    "FamilyOracle",
    "FamilyRegistry",
    "Graph",
    "GraphError",
    "MinrankResult",
    "NotInFamilyError",
    "RecognitionOutcome",
    "SimpleTreeStructure",
    "StructureError",
    "StructureReport",
    "cnf_lines",
    "default_registry",
    "dp_minrank",
    "emit_edge_list",
    "emit_graph6",
    "fits",
    "generate_member",
    "mdc",
    "merge_phase",
    "minrank_bnb",
    "minrank_via_cnf",
    "run_solver",
    "parse_edge_list",
    "parse_graph6",
    "parse_registry_spec",
    "rank_gf2",
    "recognize",
    "split_phase",
    "structure_to_dot",
    "validate_structure",
    "verify_witness",
]
