"""Combinatorial models of ordered and unordered configuration spaces of
finite graphs: cell enumeration, nerves of face categories, exact integer
homology, fundamental-group presentations, and an independent discretized
model for cross-validation."""

from .abrams import abrams_complex, check_abrams_conditions, cubical_chain_complex
from .cells import BraidCell, configuration_cells, enumerate_braid_cells, in_discriminant
from .graphs import (
    Graph,
    build_graph,
    classify_edge,
    essential_vertices,
    remove_leaves,
    subdivide,
    valency,
)
from .homology import ChainComplex, chain_complex, smith_normal_form
from .model import build_model, face_category
from .nerve import SemiSimplicialSet, build_nerve, collapse_free_faces, dimension, quotient_by_free_action
from .pi1 import Presentation, abelianization, free_rank, presentation, simplify, spanning_tree
from .reduced import GluedComplex, build_reduced, classify_2cells, glued_chain_complex

__all__ = [
    "BraidCell",
    "ChainComplex",
    "GluedComplex",
    "Graph",
    "Presentation",
    "SemiSimplicialSet",
    "abelianization",
    "abrams_complex",
    "build_graph",
    "build_model",
    "build_nerve",
    "build_reduced",
    "chain_complex",
    "check_abrams_conditions",
    "classify_2cells",
    "classify_edge",
    "collapse_free_faces",
    "configuration_cells",
    "cubical_chain_complex",
    "dimension",
    "enumerate_braid_cells",
    "essential_vertices",
    "face_category",
    "free_rank",
    "glued_chain_complex",
    "in_discriminant",
    "presentation",
    "quotient_by_free_action",
    "remove_leaves",
    "simplify",
    "smith_normal_form",
    "spanning_tree",
    "subdivide",
    "valency",
]
