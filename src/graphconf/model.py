"""High-level pipeline: graph -> face category -> nerve model.

This is the glue the CLI and tests use: it builds the acyclic category of
configuration cells, takes its nerve, and optionally removes leaves first,
passes to the symmetric-group quotient, or collapses free faces.

The unordered model is built directly as the nerve of the orbit category
C/S_k: S_k acts freely on configuration cells, so nerve(C)/S_k is
nerve(C/S_k), and no ordered nerve is built for it.  Each chain orbit is
stored as its one lift whose bottom cell is the least cell of its orbit.
Chains are ordered by their morphism tuples and morphisms by (source,
target, datum), and the free action moves the bottom cell of every lift
to a different cell, so that lift is the least member of the orbit: the
one ``quotient_by_free_action`` keeps.  Labels, chain order and faces are
therefore those of the quotient of the ordered nerve.
"""

from dataclasses import dataclass
from itertools import permutations

from . import cells as cl
from . import graphs as gr
from .nerve import (
    AcyclicCategory,
    SemiSimplicialSet,
    arrow_label,
    build_nerve,
    chain_label,
    collapse_free_faces,
)


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


def _inverse(sigma: tuple) -> tuple:
    inv = [0] * len(sigma)
    for j, s in enumerate(sigma):
        inv[s] = j
    return tuple(inv)


def orbit_nerve(objs: list) -> SemiSimplicialSet:
    """The nerve of the face category on the configuration cells ``objs``
    (listed in canonical order) divided by the free action of S_k, built as
    the nerve of the orbit category.

    A chain is a tuple of morphisms (source, target, datum), with cells
    given by their index in ``objs``; each orbit is kept as its lift whose
    bottom cell is canonical (the least of its orbit).  Morphisms out of a
    canonical cell are found from ``morphisms_into`` of canonical cells
    only, moved by the permutation that makes their source canonical, and
    a chain ending at cell t is extended by those out of t's canonical
    cell, moved back to t.  The face that drops the bottom morphism is
    moved to its canonical lift; the others keep the bottom cell.
    """
    if not objs:
        return SemiSimplicialSet([], [])
    index = {c: i for i, c in enumerate(objs)}
    canon = []  # canon[i]: index of the least cell of cell i's orbit
    to_canon = []  # to_canon[i]: the permutation taking cell i to canon[i]
    lift = []  # lift[i]: its inverse, taking canon[i] to cell i
    members = {}  # (canonical index, rho) -> index of rho . canonical cell
    for i, c in enumerate(objs):
        sigma = cl.canonical_permutation(c)
        r = index[cl.act_on_cell(sigma, c)]
        canon.append(r)
        to_canon.append(sigma)
        lift.append(_inverse(sigma))
        members[r, lift[i]] = i

    def act(tau, i):
        """Index of tau . cell i."""
        return members[canon[i], tuple(tau[j] for j in lift[i])]

    def move(tau, m):
        s, t, data = m
        return (act(tau, s), act(tau, t), cl.relocate(tau, data))

    reps = [i for i, r in enumerate(canon) if i == r]
    out_of = {r: [] for r in reps}  # one morphism per orbit, from its canonical source
    for d in reps:
        for m in cl.morphisms_into(objs[d]):
            s = index[m.source]
            out_of[canon[s]].append(move(to_canon[s], (s, d, m.data)))

    cell_labels = [c.label() for c in objs]
    position = {r: p for p, r in enumerate(reps)}
    labels = [[cell_labels[r] for r in reps]]
    faces = [[]]
    level = sorted((m,) for ms in out_of.values() for m in ms)
    if level:
        labels.append([
            arrow_label(cell_labels[s], cl.data_label(d), cell_labels[t]) for ((s, t, d),) in level
        ])
        faces.append([(position[canon[t]], position[s]) for ((s, t, _),) in level])
    while level:
        lower = {ch: i for i, ch in enumerate(level)}
        nxt = []
        for ch in level:
            t = ch[-1][1]
            nxt.extend(ch + (move(lift[t], m),) for m in out_of[canon[t]])
        if not nxt:
            break
        nxt.sort()
        n = len(nxt[0])
        new_faces = []
        for ch in nxt:
            up = to_canon[ch[1][0]]
            row = [lower[tuple(move(up, m) for m in ch[1:])]]
            for i in range(1, n):
                (s, _, d1), (_, t, d2) = ch[i - 1], ch[i]
                row.append(lower[ch[: i - 1] + ((s, t, cl.compose_data(d2, d1)),) + ch[i + 1:]])
            row.append(lower[ch[:-1]])
            new_faces.append(tuple(row))
        labels.append([
            chain_label([cell_labels[ch[0][0]]] + [cell_labels[t] for _, t, _ in ch]) for ch in nxt
        ])
        faces.append(new_faces)
        level = nxt
    return SemiSimplicialSet(labels, faces)


def unordered_complex(model: Model) -> SemiSimplicialSet:
    """The unordered model of an ordered one, from its configuration cells."""
    return orbit_nerve(model.cells)


def model_complex(
    g: gr.Graph,
    k: int,
    drop_leaves: bool = False,
    quotient: bool = False,
    collapse: bool = False,
) -> SemiSimplicialSet:
    """The configuration model as a semi-simplicial set, with options applied
    in the order: leaf removal, quotient, collapse.  The quotient is built
    directly by ``orbit_nerve``; the ordered model is not built for it."""
    if drop_leaves:
        g = gr.remove_leaves(g)
    if quotient:
        s = orbit_nerve(cl.configuration_cells(g, k))
    else:
        s = build_model(g, k).complex
    if collapse:
        s = collapse_free_faces(s)
    return s
