"""High-level pipeline: graph -> face category -> nerve model.

This is the glue the CLI and tests use: it builds the acyclic category of
configuration cells, takes its nerve, and optionally removes leaves first,
passes to the symmetric-group quotient, or collapses free faces.
"""

from dataclasses import dataclass
from itertools import permutations

from . import cells as cl
from . import graphs as gr
from .nerve import AcyclicCategory, SemiSimplicialSet, build_nerve, collapse_free_faces, quotient_by_free_action


def face_category(objs: list) -> AcyclicCategory:
    """Acyclic category on the given configuration cells, listed in
    canonical order, with the canonical morphisms."""
    index = {c: i for i, c in enumerate(objs)}
    morphisms = []
    for tgt, d in enumerate(objs):
        for m in cl.morphisms_into(d):
            morphisms.append((index[m.source], tgt, m.data))
    return AcyclicCategory(
        [c.label() for c in objs],
        [c.dimension for c in objs],
        morphisms,
        cl.compose_data,
        key_label=cl.data_label,
    )


@dataclass
class Model:
    graph: gr.Graph
    k: int
    category: AcyclicCategory
    complex: SemiSimplicialSet
    cells: list  # configuration cells in category order


def build_model(g: gr.Graph, k: int) -> Model:
    objs = cl.configuration_cells(g, k)
    cat = face_category(objs)
    return Model(g, k, cat, build_nerve(cat), objs)


def symmetric_action(model: Model) -> list:
    """Chain-level automorphisms of the nerve for every nonidentity
    coordinate permutation, in the format quotient_by_free_action expects.

    Only cells are acted on; a morphism (s, t, data) goes to the stored
    morphism (obj_map[s], obj_map[t], data relocated by sigma), and a chain
    of the nerve to the chain of the images of its morphisms.
    """
    cat = model.category
    chains = model.complex.meta["chains"]
    cell_index = {c: i for i, c in enumerate(model.cells)}
    # level 0 holds objects and level 1 single morphisms in index order, so
    # only the longer chains need a position table
    positions = [{ch: i for i, ch in enumerate(level)} for level in chains[2:]]
    out = []
    for sigma in sorted(permutations(range(model.k))):
        if sigma == tuple(range(model.k)):
            continue
        obj_map = [cell_index[cl.act_on_cell(sigma, c)] for c in model.cells]
        mor_map = [
            cat.morphism_index[(obj_map[s], obj_map[t], cl.relocate(sigma, data))]
            for s, t, data in cat.morphisms
        ]
        maps = [obj_map, mor_map][: len(chains)]
        for level, position in zip(chains[2:], positions):
            maps.append([position[tuple(mor_map[m] for m in ch)] for ch in level])
        out.append(maps)
    return out


def unordered_complex(model: Model) -> SemiSimplicialSet:
    """The nerve divided by the free action of the symmetric group."""
    return quotient_by_free_action(model.complex, symmetric_action(model))


def model_complex(
    g: gr.Graph,
    k: int,
    drop_leaves: bool = False,
    quotient: bool = False,
    collapse: bool = False,
) -> SemiSimplicialSet:
    """The configuration model as a semi-simplicial set, with options applied
    in the order: leaf removal, quotient, collapse."""
    if drop_leaves:
        g = gr.remove_leaves(g)
    model = build_model(g, k)
    s = model.complex
    if quotient:
        s = unordered_complex(model)
    if collapse:
        s = collapse_free_faces(s)
    return s
