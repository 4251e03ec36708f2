"""High-level pipeline: graph -> orbit category -> nerve model.

This is the glue the CLI and tests use: it builds the nerve of the orbit
category C/S_k of the face category C of configuration cells, and from it
the ordered or the unordered model, optionally removing leaves first, or,
for the ordered model's homology, a collapse of it.

The unordered model is the nerve of C/S_k, which ``build_nerve`` builds
from the orbit category: S_k acts freely on configuration cells, so
nerve(C)/S_k is nerve(C/S_k).  It starts from one cell per orbit
(``cells.canonical_cells``) and makes another member of an orbit only when
a chain reaches it, so its cost follows the unordered f-vector, with no
factor of k! for the ordered cells.  Each chain orbit is stored as its one
lift whose bottom cell is the least cell of its orbit.  Chains are ordered
by their morphism tuples and morphisms by (source, target, datum), and the
free action moves the bottom cell of every lift to a different cell, so
that lift is the least member of the orbit: the one
``quotient_by_free_action`` keeps.  Labels, chain order and faces are
therefore those of the quotient of the ordered nerve.

The ordered model, nerve(C), is the k!-sheeted cover of that nerve:
every ordered chain is a permutation applied to one of those lifts, and
no configuration cell, face category or ordered composite is made.
Chain (c, sigma), sigma applied to orbit chain c's lift, has faces
d_0 = (f_0, sigma o lam_c) and d_b = (f_b, sigma) for b >= 1, lam_c the
lift of c's second object (``orbit_cover``): the twisted cover of
``nerve.lift_faces``, which ``cover`` builds.  ``ordered_nerve`` sorts
that cover into the nerve's order, one sort per level, and labels it.
So the ordered model's chains are free Z[S_k]-modules on the orbit
chains, and the homology reports reduce the orbit nerve's boundaries over
Z[S_k] and lift only the residue (``cover_chain_complex``).  They reduce the orbit nerve's free-face
collapse, whose cover is a maximal free-face collapse of the ordered
model (``collapsed_cover``), whose rank H_0 is its number of components.
``model --collapse`` prints that collapse's f-vector.  Only ``braidgroup``,
which reads labels, builds the whole cover; ``cover`` lifts for the tests.

One orbit nerve serves both sides.  ``orbit_cover`` builds it once,
unlabelled (``build_nerve(cat, labels=False)``), and hands it back twice:
labelled by lam, the base of the ordered model's cover, and as the
unordered model, each level a ``range``.  No homology report prints a
chain label, and ``model --quotient`` builds the orbit nerve unlabelled
too (``model_complex``).  ``braidgroup`` labels the unordered model's level 1 from the orbit
category, reports on it, and then builds the ordered one from the same
``orbit_cover`` result.

``build_model`` builds C on every configuration cell and takes its nerve
with ``build_nerve``.  Only the two-point model (``reduced.build_reduced``)
reads it, for its category and cells, and the tests use it as the
reference for ``ordered_nerve``.
"""

from dataclasses import dataclass
from itertools import permutations

from . import cells as cl
from . import graphs as gr
from .homology import ChainComplex, alternating_signs, twisted_chain_complex
from .nerve import (
    AcyclicCategory,
    Permutations,
    SemiSimplicialSet,
    arrow_label,
    build_nerve,
    chain_label,
    collapse_free_faces,
    lift_faces,
    simplicial_identities,
    validate_twists,
)


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
    """The face category on every configuration cell, its nerve and its
    cells.  Its nerve is the ordered model, which ``ordered_nerve`` builds
    with no configuration cell; this is what reads the category and the
    cells (the two-point model and ``symmetric_action``)."""
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
    """The orbit category C/S_k of the face category C, in ``build_nerve``'s
    view, on the canonical cells ``canon``: the least cell of each orbit, in
    canonical order, as ``cells.canonical_cells`` lists them.

    A member of an orbit is the cell ``act_on_cell(lift, c)`` of a
    canonical cell c and a permutation, its lift, and is named by an id:
    canonical cell r is member r, with the identity lift, and any other
    member takes the next id the first time an arrow reaches it
    (``member``).  Its sort key is computed then, and its after() list the
    first time a chain reaches it, so no member is made that no chain
    reaches: 366 of the 61,200 cells of theta k=6.  Its label is made on
    its first ``label`` call, and the homology reports make none.  A
    morphism is its (source, target, datum) triple.  The objects are
    ``range`` over the canonical cells, the arrows the lifts with a
    canonical source:
    ``faces_into`` of canonical cells, moved by the permutation that makes
    their source canonical.  Each source is canonicalised from its own entries and blocks
    (``cells.canonical_order``), and no cell is looked up by its entries and
    blocks.  ``after(m)`` is the list of the arrows out of the orbit of m's
    target t, moved to t, sorted by (target sort key, datum): the order of
    the ordered model, so chains, labels and faces are those of the
    quotient of the ordered nerve.  Chains are the lifts with a canonical
    bottom cell.

    ``build_nerve`` places d_0 of a chain ending at t at its new arrow's
    position in after(t), in the list at d_0's end e, another member of
    t's orbit.  Moving a list within an orbit can reorder it (768 pairs of
    members do on K4 k=3), but not from t to e.  Let the chain be
    x_0 -> ... -> x_n = t with x_0 canonical, tau take x_1 to the least
    cell of its orbit (x_1 = t if n = 1), and e = tau . t.  Then tau keeps
    the order (target key, datum) of after(t):

    1. A coordinate only leaves a vertex going up a chain, so t's vertex
       coordinates are vertex coordinates of x_0 and x_1, at the same
       vertices.  A least cell numbers its vertex coordinates 0..j-1 by
       ascending vertex id, as x_0 and tau . x_1 both do, so tau is
       increasing on t's vertex coordinates.
    2. Two arrows out of t, to y and y', agree on t's edge coordinates.  So
       the entries of y and y' first differ at a vertex coordinate of t,
       and by (1) tau keeps which coordinate that is.
    3. If the entries are equal, the blocks differ only where a vertex
       coordinate i of t at v enters a loop at v that already carries a
       coordinate a of t: at the front in one arrow, at the back in the
       other, as an end of any other edge admits one placement.  At v, a
       would share v with i, so a lies on the loop in x_0 and in x_1, and
       in both least cells a follows every vertex coordinate: i < a and
       tau(i) < tau(a).
    4. If the targets are equal, the data differ only at vertex
       coordinates of t, where tau is increasing.

    As tau is a bijection from after(t) onto after(e), it keeps every
    position.  The 768 pairs fail (1), and no d_0 reaches them.
    """

    def __init__(self, canon: list):
        # per member id: its canonical cell, lift and sort key
        self._canon, self._lift, self._keys = [], [], []
        self._members = {}  # (canonical cell, lift) -> member id
        # per canonical cell, what its members relocate: its entry keys and
        # its number of vertex entries, which lead its coordinates; and,
        # for ``label``, its label's parts
        self._templates = [(c.sort_key()[0], c.k - c.dimension) for c in canon]
        self._parts = [c.label_parts() for c in canon]
        self._labels = {}  # member id -> its label, made on the first ``label`` call
        identity = tuple(range(canon[0].k)) if canon else ()
        for r in range(len(canon)):
            self.member(r, identity)
        self.objects = range(len(canon))
        canon_of = {c.entries: r for r, c in enumerate(canon)}
        # _out[t]: after() of a morphism into member t, which lists the
        # arrows out of t's canonical cell moved to t.  A canonical cell's
        # lift is the identity, so its list is the one of its orbit's lifts.
        self._out = {r: [] for r in range(len(canon))}
        self._place = {}  # arrow -> its position in the after() list of its source
        for d, c in enumerate(canon):
            for (entries, blocks), data in cl.faces_into(c):
                # move the arrow by sigma, which takes its source to the
                # least cell: d goes to its member sigma . d
                lift, key = _least(entries, blocks)
                sigma = tuple(sorted(range(len(lift)), key=lift.__getitem__))
                m = (canon_of[key], self.member(d, sigma), cl.relocate(sigma, data))
                self._out[m[0]].append(m)
        for r in range(len(canon)):
            self._listed(r, sorted(self._out[r], key=self._order))
        self.arrows = [m for r in range(len(canon)) for m in self._out[r]]
        self.position = self._place.__getitem__

    def member(self, r: int, lift: tuple) -> int:
        """The id of the member ``act_on_cell(lift, canon[r])``, made with
        its key on the first call.

        Its key orders members as ``BraidCell.sort_key`` does, with no cell
        built: its entry keys, then the images under the lift of the
        canonical cell's edge coordinates, which follow its vertex ones in
        block order.  Members with equal entries share an orbit, so their
        blocks list the images of the same coordinates, in groups of the
        same sizes, and compare as those images do.
        """
        got = self._members.get((r, lift))
        if got is None:
            got = self._members[r, lift] = len(self._lift)
            entry_keys, verts = self._templates[r]
            self._canon.append(r)
            self._lift.append(lift)
            self._keys.append(cl.relocate(lift, entry_keys) + lift[verts:])
        return got

    def _order(self, m: tuple) -> tuple:
        """The order of the arrows out of one member: by the sort key of
        their target, then by datum."""
        return (self._keys[m[1]], m[2])

    def _listed(self, t: int, arrows: list) -> list:
        """Record ``arrows`` as member t's after() list, with their positions."""
        self._out[t] = arrows
        for j, m in enumerate(arrows):
            self._place[m] = j
        return arrows

    def _after_cell(self, t: int) -> list:
        got = self._out.get(t)
        if got is None:
            lift, canon, member = self._lift[t], self._canon, self.member
            # the arrows out of the canonical cell, moved by its lift to t
            moved = [
                (t, member(canon[u], tuple(map(lift.__getitem__, self._lift[u]))),
                 cl.relocate(lift, data))
                for _, u, data in self._out[canon[t]]
            ]
            moved.sort(key=self._order)
            got = self._listed(t, moved)
        return got

    def after(self, m: tuple) -> list:
        return self._after_cell(m[1])

    # what ``ordered_nerve`` reads of a member t

    def key(self, t: int) -> tuple:
        return self._keys[t]

    def label(self, t: int) -> str:
        """Member t's label: its canonical cell's, the parts relocated by its lift."""
        got = self._labels.get(t)
        if got is None:
            parts = self._parts[self._canon[t]]
            got = self._labels[t] = cl.cell_label(cl.relocate(self._lift[t], parts))
        return got

    def lift(self, t: int) -> tuple:
        return self._lift[t]

    def top_label(self, m: tuple) -> str:
        return self.label(m[1])

    def object_label(self, i: int) -> str:
        return self.label(i)

    def morphism_label(self, m: tuple) -> str:
        s, t, data = m
        return arrow_label(self.label(s), cl.data_label(data), self.label(t))

    def arrow_faces(self, m: tuple) -> tuple[int, int]:
        s, t, _ = m
        return (self._canon[t], s)

    def compose(self, m2: tuple, m1: tuple) -> tuple:
        return (m1[0], m2[1], cl.compose_data(m2[2], m1[2]))


def _least(entries: tuple, blocks: tuple) -> tuple:
    """(lift, key) of the configuration cell ``(entries, blocks)``: the
    permutation taking the least cell of its orbit to it, and that cell's
    key, its sorted entries (``cells.canonical_order``)."""
    lift = cl.canonical_order(entries, blocks)
    return lift, tuple(map(entries.__getitem__, lift))


def orbit_cover(g: gr.Graph, k: int) -> tuple:
    """What the ordered model is built from as the k!-sheeted cover of the
    orbit nerve: (cat, orbit, perms, right, nerve).  ``cat`` is the orbit
    category on the canonical cells of (g, k), ``nerve`` its nerve, the
    unordered model, built with no label (``build_nerve(cat,
    labels=False)``): each level is a ``range``, and ``braidgroup``, the
    one report that prints its labels, labels level 1 from ``cat``.
    ``orbit`` is the same nerve with every chain c of
    level n >= 1 labelled by lam_c, the rank of the lift of its second
    object.  An arrow's is its target's lift; a longer chain's is its
    last face's, which has the same second object.  Level 0, which has no
    second object, is labelled by 0.  ``right`` is the
    ``nerve.Permutations`` of range(k) and ``perms`` its list, or both are
    empty with the nerve, so none is made where no cell fits.  ``orbit``
    and ``nerve`` share their faces.
    """
    cat = OrbitCategory(cl.canonical_cells(g, k))
    nerve = build_nerve(cat, labels=False)
    if not nerve.labels:
        return cat, nerve, [], [], nerve
    right = Permutations(k)
    lams = [[0] * len(cat.objects), [right.rank[cat.lift(m[1])] for m in cat.arrows]]
    for level in nerve.faces[2:]:
        lams.append(list(map(lams[-1].__getitem__, [fs[-1] for fs in level])))
    orbit = SemiSimplicialSet(lams[: len(nerve.labels)], nerve.faces)
    return cat, orbit, right.perms, right, nerve


def _twists(orbit: SemiSimplicialSet) -> list:
    """The orbit nerve's twists (``nerve.lift_faces``): lam at slot 0, None elsewhere."""
    return [[]] + [[lam] + [None] * n for n, lam in enumerate(orbit.labels[1:], 1)]


def validate_cover(orbit: SemiSimplicialSet, right) -> None:
    """Check that ``cover(orbit, right)`` satisfies the face identities, with
    no chain of the cover made (``nerve.validate_twists``).  With the
    nerve's twists, the cocycle of d_a d_b = d_{b-1} d_a (a < b) on a chain
    c with faces f_0 .. f_n holds for a >= 1, and is lam_{f_b} = lam_c for
    a = 0 < 2 <= b and lam_{f_1} = lam_c o lam_{f_0} for (a, b) = (0, 1).
    """
    validate_twists(
        orbit.labels, orbit.faces, lambda n: n + 1, simplicial_identities, _twists(orbit),
        right, None, "lift cocycle fails at dim {n} chain {idx}",
    )


def cover(orbit: SemiSimplicialSet, right) -> SemiSimplicialSet:
    """The k!-sheeted cover of ``orbit``, a sub-complex of the orbit nerve
    labelled by lam as ``orbit_cover`` labels it (``nerve.lift_faces``):
    chain (c, i), perms[i] applied to chain c's lift with a canonical
    bottom cell, at index c * k! + i, labelled by that index.  Nothing is
    sorted, so the chains are not in the ordered model's order."""
    labels = [range(len(level) * len(right)) for level in orbit.labels]
    return SemiSimplicialSet(labels, lift_faces(orbit.faces, _twists(orbit), right, None))


def collapsed_cover(g: gr.Graph, k: int, drop_leaves: bool = False) -> tuple:
    """(fvector, small, right): the ordered model's f-vector, the free-face
    collapse ``small`` of the lam-labelled orbit nerve ``orbit`` and the
    table ``right`` of ``orbit_cover``, with leaves removed first if
    ``drop_leaves``.  The whole ordered model, ``cover(orbit, right)``, is
    checked on the orbit nerve (``validate_cover``), and neither it nor its
    labels are made: the homology reports read neither order nor labels.
    ``cover(small, right)`` is a collapse of the ordered model
    (``nerve.lift_faces``), and ``cover_chain_complex(small, right)`` has its
    homology.  It is a maximal one: a lifted chain has as many cofaces as
    its orbit, so the cover of ``small`` has no free face left.
    """
    if drop_leaves:
        g = gr.remove_leaves(g)
    # the orbit category is freed before the collapse
    _, orbit, _, right, _ = orbit_cover(g, k)
    validate_cover(orbit, right)
    return [len(right) * n for n in orbit.fvector()], collapse_free_faces(orbit), right


def cover_chain_complex(orbit: SemiSimplicialSet, right) -> ChainComplex:
    """A chain complex with the homology of ``cover(orbit, right)``: the
    orbit nerve's boundaries over Z[S_k], with lam at slot 0, reduced there,
    and only the residue lifted (``homology.twisted_chain_complex``)."""
    return twisted_chain_complex(
        orbit.labels, orbit.faces, _twists(orbit), right, alternating_signs
    )


def ordered_nerve(cover: tuple) -> SemiSimplicialSet:
    """The ordered model, from ``cover``, the result of ``orbit_cover(g, k)``:
    the orbit nerve's k!-sheeted cover that the function ``cover`` lifts
    (``nerve.lift_faces``), in the order and with the labels of
    ``build_nerve(face_category(configuration_cells(g, k)))``.  No
    configuration cell, face category or ordered composite is made.

    Cover chain x * k! + i is perms[i] applied to orbit chain x's lift with
    a canonical bottom cell.  One sort per level puts the cover in the
    nerve's lexicographic order: level 0 by member key, level 1 by the
    positions of (source, target), then datum, and level n >= 2 by the
    positions of (d_n, d_0).  A chain of length n >= 2 is fixed by those two
    faces.  Siblings under one parent d_n are ordered by their last arrow,
    and that is also the order of their d_0 faces, which are siblings under
    d_0 of the parent.  A chain's label is its parent's object path and its
    top object, which is d_0's.
    """
    cat, orbit, perms, right = cover[:4]
    if not orbit.labels:
        return SemiSimplicialSet([], [])
    members = [cat.member(r, p) for r in cat.objects for p in perms]
    order = sorted(range(len(members)), key=lambda x: cat.key(members[x]))
    objects = [cat.label(members[x]) for x in order]
    # perms[i] relocates a datum d to d o perms[i]^-1
    data = [tuple(map(m[2].__getitem__, inv)) for m in cat.arrows for inv in right.inverse]
    labels, faces = [objects], [[]]
    tops, paths = range(len(objects)), objects  # by position: top object, object path
    for n, level in enumerate(lift_faces(orbit.faces, _twists(orbit), right, None)[1:], 1):
        pos = [0] * len(order)  # by cover index of level n - 1: its position
        for p, x in enumerate(order):
            pos[x] = p
        level = [tuple(map(pos.__getitem__, fs)) for fs in level]
        if n == 1:
            keys = [(s, t, d) for (t, s), d in zip(level, data)]
        else:
            keys = [(fs[-1], fs[0]) for fs in level]
        order = sorted(range(len(level)), key=keys.__getitem__)
        level = [level[x] for x in order]
        tops = [tops[fs[0]] for fs in level]
        paths = [chain_label((paths[fs[-1]], objects[t])) for fs, t in zip(level, tops)]
        if n == 1:
            data_label = {d: cl.data_label(d) for d in set(data)}
            arrows = map(keys.__getitem__, order)
            labels.append(
                [arrow_label(objects[s], data_label[d], objects[t]) for s, t, d in arrows]
            )
        else:
            labels.append(paths)
        faces.append(level)
    return SemiSimplicialSet(labels, faces)


def model_complex(
    g: gr.Graph, k: int, drop_leaves: bool = False, quotient: bool = False, labels: bool = True
) -> SemiSimplicialSet:
    """The configuration model as a semi-simplicial set, with options applied
    in the order: leaf removal, quotient.  The quotient is the orbit nerve,
    the nerve of ``OrbitCategory`` on the canonical cells, built with no
    label if ``labels`` is false (``build_nerve``).  The ordered model is
    its cover (``ordered_nerve``), which always has its labels.  Neither
    builds the face category on every configuration cell."""
    if drop_leaves:
        g = gr.remove_leaves(g)
    if quotient:
        return build_nerve(OrbitCategory(cl.canonical_cells(g, k)), labels)
    return ordered_nerve(orbit_cover(g, k))
