"""High-level pipeline: graph -> face category -> nerve model.

This is the glue the CLI and tests use: it builds the acyclic category of
configuration cells, takes its nerve, and optionally removes leaves first
or passes to the symmetric-group quotient.

The unordered model is the nerve of the orbit category C/S_k, which
``build_nerve`` builds as it builds the ordered one: S_k acts freely on
configuration cells, so nerve(C)/S_k is nerve(C/S_k), and no ordered nerve
is built for it.  Each chain orbit is stored as its one lift whose bottom
cell is the least cell of its orbit.  Chains are ordered by their morphism
tuples and morphisms by (source, target, datum), and the free action moves
the bottom cell of every lift to a different cell, so that lift is the
least member of the orbit: the one ``quotient_by_free_action`` keeps.
Labels, chain order and faces are therefore those of the quotient of the
ordered nerve.
"""

from dataclasses import dataclass
from itertools import permutations

from . import cells as cl
from . import graphs as gr
from .nerve import AcyclicCategory, SemiSimplicialSet, arrow_label, build_nerve


def face_category(objs: list) -> AcyclicCategory:
    """Acyclic category on the given configuration cells, listed in
    canonical order, with the canonical morphisms."""
    # keyed as ``faces_into`` names sources
    index = {(c.entries, c.blocks): i for i, c in enumerate(objs)}
    morphisms = [
        (index[key], tgt, data) for tgt, d in enumerate(objs) for key, data in cl.faces_into(d)
    ]
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
    morphism (obj_map[s], obj_map[t], data relocated by sigma).  Above
    level 1, a chain goes to the chain whose faces are the images of its
    faces: an automorphism commutes with the d_i, and a chain of length
    n >= 2 is the only one with its faces.
    """
    cat, faces = model.category, model.complex.faces
    cell_index = {c: i for i, c in enumerate(model.cells)}
    # level 0 holds objects and level 1 single morphisms in index order, so
    # only the longer chains need a position table
    positions = [{fs: i for i, fs in enumerate(level)} for level in faces[2:]]
    out = []
    for sigma in sorted(permutations(range(model.k))):
        if sigma == tuple(range(model.k)):
            continue
        obj_map = [cell_index[cl.act_on_cell(sigma, c)] for c in model.cells]
        mor_map = [
            cat.morphism_index[(obj_map[s], obj_map[t], cl.relocate(sigma, data))]
            for s, t, data in cat.morphisms
        ]
        maps = [obj_map, mor_map][: len(faces)]
        for level, position in zip(faces[2:], positions):
            below = maps[-1]
            maps.append([position[tuple(below[f] for f in fs)] for fs in level])
        out.append(maps)
    return out


class OrbitCategory:
    """The orbit category C/S_k of the face category C on the configuration
    cells ``objs`` (listed in canonical order), in ``build_nerve``'s view.

    A cell is its index in ``objs``, a morphism its (source, target, datum)
    triple.  The objects are the canonical cells (each the least of its
    orbit), the arrows the lifts with a canonical source: ``faces_into`` of
    canonical cells, moved by the permutation that makes their source
    canonical.  ``after(m)`` is the sorted list of the arrows out of the
    orbit of m's target t, moved to t, built the first time a chain reaches
    t.  ``tail`` moves a chain to its lift with a canonical bottom cell.
    """

    def __init__(self, objs: list):
        index = {(c.entries, c.blocks): i for i, c in enumerate(objs)}
        self._canon = []  # [i]: index of the least cell of cell i's orbit
        self._to_canon = []  # [i]: the permutation taking cell i to its canonical cell
        self._lift = []  # [i]: its inverse (relocating 0..k-1 inverts)
        self._members = {}  # (canonical index, rho) -> index of rho . canonical cell
        for i, c in enumerate(objs):
            sigma = cl.canonical_permutation(c)
            image = cl.act_on_cell(sigma, c)
            r = index[image.entries, image.blocks]
            self._canon.append(r)
            self._to_canon.append(sigma)
            self._lift.append(cl.relocate(sigma, tuple(range(len(sigma)))))
            self._members[r, self._lift[i]] = i
        reps = [i for i, r in enumerate(self._canon) if i == r]
        self._labels = [c.label() for c in objs]
        self._position = {r: p for p, r in enumerate(reps)}
        self.objects = [self._labels[r] for r in reps]
        # _out[t]: after() of a morphism into cell t; a canonical cell's lift
        # is the identity, so its list is the one of its orbit's lifts
        self._out = {r: [] for r in reps}
        for d in reps:
            for key, data in cl.faces_into(objs[d]):
                s = index[key]
                m = self._move(self._to_canon[s], (s, d, data))
                self._out[m[0]].append(m)
        for ms in self._out.values():
            ms.sort()
        self.arrows = [m for r in reps for m in self._out[r]]

    def _image(self, tau: tuple, i: int) -> int:
        """Index of tau . cell i."""
        return self._members[self._canon[i], tuple(tau[j] for j in self._lift[i])]

    def _move(self, tau: tuple, m: tuple) -> tuple:
        s, t, data = m
        return (self._image(tau, s), self._image(tau, t), cl.relocate(tau, data))

    def after(self, m: tuple) -> list:
        t = m[1]
        got = self._out.get(t)
        if got is None:
            lift = self._lift[t]
            got = self._out[t] = sorted(self._move(lift, a) for a in self._out[self._canon[t]])
        return got

    def top_label(self, m: tuple) -> str:
        return self._labels[m[1]]

    def object_label(self, i: int) -> str:
        return self.objects[i]

    def morphism_label(self, m: tuple) -> str:
        s, t, data = m
        return arrow_label(self._labels[s], cl.data_label(data), self._labels[t])

    def arrow_faces(self, m: tuple) -> tuple[int, int]:
        s, t, _ = m
        return (self._position[self._canon[t]], self._position[s])

    def compose(self, m2: tuple, m1: tuple) -> tuple:
        return (m1[0], m2[1], cl.compose_data(m2[2], m1[2]))

    def tail(self, chain: tuple) -> tuple:
        up = self._to_canon[chain[0][0]]
        return tuple(self._move(up, m) for m in chain)


def orbit_nerve(objs: list) -> SemiSimplicialSet:
    """The nerve of the face category on the configuration cells ``objs``
    (listed in canonical order) divided by the free action of S_k."""
    return build_nerve(OrbitCategory(objs))


def model_complex(
    g: gr.Graph, k: int, drop_leaves: bool = False, quotient: bool = False
) -> SemiSimplicialSet:
    """The configuration model as a semi-simplicial set, with options applied
    in the order: leaf removal, quotient.  The quotient is built directly by
    ``orbit_nerve``; the ordered model is not built for it."""
    if drop_leaves:
        g = gr.remove_leaves(g)
    if quotient:
        return orbit_nerve(cl.configuration_cells(g, k))
    return build_model(g, k).complex
