"""Homology of the ordered model reduced over Z[S_k].

The ordered model is the S_k-cover of the orbit nerve, so its chains are
free Z[S_k]-modules on the orbit chains.  ``homology.twisted_chain_complex``
reduces the orbit boundaries over the group ring and lifts only the
residue; ``model.cover_chain_complex`` feeds it the orbit nerve's twists.
Its Betti numbers and torsion must be those of the lifted cover's own chain
complex, the lift must be a ring map, and a corrupted orbit nerve must end
in exit 4.  Synthetic free Z[S_3]-complexes, whose entries need not be
units and whose lifts may have torsion, must reduce to their lifts'
homology too.
"""

import json
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import cli
from graphconf import graphs as gr
from graphconf import model
from graphconf.errors import NotAComplex
from graphconf.homology import (
    ChainComplex,
    _lift,
    _unit_pivot_sweep,
    alternating_signs,
    chain_complex,
    face_chain_complex,
    group_ring,
    homology,
    twisted_chain_complex,
)
from graphconf.nerve import Permutations, SemiSimplicialSet, collapse_free_faces
from test_orbit_nerve import k4, k33, small_multigraphs, xb
from test_ordered_report import graph_file, run


def assert_reduction_is_the_covers(g, k, whole=False):
    """On the collapsed orbit nerve of (g, k), and on the whole one if
    ``whole``, as ``model --collapse`` reduces it, the reduction over
    Z[S_k] has the homology of the lifted cover's chain complex."""
    _, orbit, _, right, _ = model.orbit_cover(g, k)
    for small in [collapse_free_faces(orbit)] + [orbit] * whole:
        got = homology(model.cover_chain_complex(small, right))
        ref = homology(chain_complex(model.cover(small, right)))
        assert (got.betti, got.torsion) == (ref.betti, ref.torsion)


@settings(max_examples=80, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_reduction_is_the_covers_on_random_multigraphs(graph, k):
    assert_reduction_is_the_covers(graph, k, whole=True)


@pytest.mark.parametrize(
    "graph, k",
    [(gr.theta_graph(), k) for k in range(1, 6)]
    + [(k4(), k) for k in (2, 3, 4)]
    + [(k33(), 3), (xb(), 3), (gr.hub_graph(3, 1), 3)],
    ids=[f"theta-{k}" for k in range(1, 6)]
    + [f"k4-{k}" for k in (2, 3, 4)]
    + ["k33-3", "xb-3", "w31-3"],
)
def test_reduction_is_the_covers(graph, k):
    assert_reduction_is_the_covers(graph, k, whole=k <= 3)


@pytest.mark.parametrize("k", [2, 3])
def test_trivial_group_keeps_the_orbit_nerves_torsion(k):
    # the 1-sheeted cover is the orbit nerve itself, and unordered K3,3 has
    # Z/2 in H_1, which the residue must carry to the integer reduction
    orbit = model.model_complex(k33(), k, quotient=True)
    twists = [[]] + [[None] * (n + 1) for n in range(1, len(orbit.faces))]
    got = homology(
        twisted_chain_complex(orbit.labels, orbit.faces, twists, Permutations(1), alternating_signs)
    )
    ref = homology(chain_complex(orbit))
    assert got.torsion[1] == [2]
    assert (got.betti, got.torsion) == (ref.betti, ref.torsion)


sparse_matrices = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.integers(-2, 2).filter(bool),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices)
def test_sweep_over_the_trivial_group_is_the_integer_sweep(entries):
    # Z[S_1] is Z with entry v as {0: v}: one elimination, so the same
    # pivots in the same order and the same core
    _, core, pivots = _unit_pivot_sweep(dict(entries))
    _, ring_core, ring_pivots = _unit_pivot_sweep(
        {key: {0: v} for key, v in entries.items()}, group_ring(Permutations(1))
    )
    assert ring_pivots == pivots
    assert {key: x[0] for key, x in ring_core.items()} == core
    assert all(list(x) == [0] for x in ring_core.values())


# -- synthetic free Z[S_3]-complexes, whose entries need not be units ---------

S3 = Permutations(3)
TAU, SIGMA = S3.rank[(1, 0, 2)], S3.rank[(1, 2, 0)]
SIGMA2 = S3.rows[SIGMA][SIGMA]


def element(*terms) -> dict:
    """sum a [t] over the (a, t) in ``terms``, as a group ring entry."""
    x = {}
    for a, t in terms:
        x[t] = x.get(t, 0) + a
    return {t: a for t, a in x.items() if a}


def ring_times(x: dict, y: dict) -> dict:
    return element(*((a * b, S3.rows[t][u]) for t, a in x.items() for u, b in y.items()))


def ring_plus(x: dict, y: dict) -> dict:
    return element(*((a, t) for t, a in x.items()), *((b, u) for u, b in y.items()))


def face_form(sizes, boundaries):
    """(cells, faces, twists, signs) for ``twisted_chain_complex`` whose
    orbit matrices are ``boundaries``, dicts (r, c) -> entry over Z[S_3].

    A term a [t] at (r, c) is |a| faces r of cell c with twist t.  Level n
    has P positive slots, P the most positive terms of a cell, then
    negative ones.  A cell with p < P positive terms fills the other P - p
    positive slots with +[e] on row 0 and follows its negative terms with
    as many -[e] on row 0, which cancel them."""
    faces, twists, slot_signs = [[() for _ in range(sizes[0])]], [[]], {}
    for n, mat in enumerate(boundaries, 1):
        terms = [([], []) for _ in range(sizes[n])]
        for (r, c), x in sorted(mat.items()):
            for t, a in x.items():
                terms[c][a < 0].extend([(r, t)] * abs(a))
        width = max((len(pos) for pos, _ in terms), default=0)
        pads = [[(0, 0)] * (width - len(pos)) for pos, _ in terms]
        lists = [pos + pad + neg + pad for (pos, neg), pad in zip(terms, pads)]
        slots = max(map(len, lists), default=0)
        slot_signs[n] = [1] * width + [-1] * (slots - width)
        faces.append([tuple(r for r, _ in cell) for cell in lists])
        twists.append([[cell[s][1] if s < len(cell) else 0 for cell in lists] for s in range(slots)])
    return [list(range(size)) for size in sizes], faces, twists, slot_signs.__getitem__


def assert_reduced_lift_is_the_lift(sizes, boundaries):
    cells, faces, twists, signs = face_form(sizes, boundaries)
    reduced = homology(twisted_chain_complex(cells, faces, twists, S3, signs))
    lift = ChainComplex(
        [len(S3) * size for size in sizes], [_lift(mat, S3.rows, len(S3)) for mat in boundaries]
    )
    assert reduced == homology(lift)
    return reduced


FREE_CASES = {
    # d_1 = 2[e]: the lift is 2 I_6
    "twice-e": ([1, 1], [{(0, 0): element((2, 0))}], [0, 0], [[2] * 6, []]),
    # ([e] - [tau]) ([e] + [tau]) = 0: tau acts freely, in 3 pairs
    "tau": ([1, 1, 1], [{(0, 0): element((1, 0), (-1, TAU))},
                        {(0, 0): element((1, 0), (1, TAU))}], [3, 0, 3], [[], [], []]),
    "twice-tau": ([1, 1, 1], [{(0, 0): element((1, 0), (-1, TAU))},
                              {(0, 0): element((2, 0), (2, TAU))}], [3, 0, 3], [[], [2] * 3, []]),
    # the norm of <sigma> after [e] - [sigma]: sigma acts freely, in 2 triples
    "norm": ([1, 1, 1], [{(0, 0): element((1, 0), (1, SIGMA), (1, SIGMA2))},
                         {(0, 0): element((1, 0), (-1, SIGMA))}], [4, 0, 2], [[], [], []]),
    # "twice-tau" beside unit pivots in d_1 and d_2 and an edge a2 with d a2 = 0,
    # which the pivot of d_2 clears from d_1
    "units": (
        [2, 3, 2],
        [{(0, 0): element((1, 0), (-1, TAU)), (1, 1): element((1, SIGMA)),
          (0, 1): element((-1, 0))},
         {(0, 0): element((2, 0), (2, TAU)), (2, 1): element((1, SIGMA))}],
        [3, 0, 3], [[], [2] * 3, []],
    ),
}


@pytest.mark.parametrize("case", FREE_CASES, ids=list(FREE_CASES))
def test_reduction_of_non_unit_entries_is_the_lifts(case):
    sizes, boundaries, betti, torsion = FREE_CASES[case]
    got = assert_reduced_lift_is_the_lift(sizes, boundaries)
    assert (got.betti, got.torsion) == (betti, torsion)


# split blocks: x at (target, source) of one boundary, or (y, x) with y x = 0
# along two, target -> middle -> source; [t] and -[t] are units
PAIRS = [
    element((1, 0)), element((1, TAU)), element((-1, SIGMA)), element((2, 0)),
    element((1, 0), (1, TAU)), element((1, 0), (-1, SIGMA)), element((2, 0), (2, TAU)),
    element((3, TAU)),
]
ZIGZAGS = [
    (element((1, 0), (-1, TAU)), element((1, 0), (1, TAU))),
    (element((1, 0), (1, TAU)), element((1, 0), (-1, TAU))),
    (element((1, 0), (-1, TAU)), element((2, 0), (2, TAU))),
    (element((1, 0), (-1, SIGMA)), element((1, 0), (1, SIGMA), (1, SIGMA2))),
    (element((1, 0), (1, SIGMA), (1, SIGMA2)), element((1, 0), (-1, SIGMA))),
]
MULTIPLIERS = [element((1, 0)), element((-1, TAU)), element((1, SIGMA)), element((1, 0), (1, TAU))]


@st.composite
def free_complexes(draw):
    """A free Z[S_3]-complex of 3-4 levels: split blocks and free cells,
    hidden by changes of basis E = 1 + lam e_ij of a level, which take d_n
    to d_n E (column j += column i lam) and d_{n+1} to E^-1 d_{n+1}
    (row i -= lam row j), so d^2 stays 0."""
    levels = draw(st.integers(3, 4))
    sizes = [draw(st.integers(0, 1)) for _ in range(levels)]
    mats = [{} for _ in range(levels - 1)]

    def cell(n):
        sizes[n] += 1
        return sizes[n] - 1

    for n in range(levels - 1):
        for x in draw(st.lists(st.sampled_from(PAIRS), max_size=2)):
            mats[n][cell(n), cell(n + 1)] = x
    for n in range(levels - 2):
        for y, x in draw(st.lists(st.sampled_from(ZIGZAGS), max_size=1)):
            middle = cell(n + 1)
            mats[n][cell(n), middle] = y
            mats[n + 1][middle, cell(n + 2)] = x
    rng = draw(st.randoms(use_true_random=False))
    for n in range(levels):
        for _ in range(2 * sizes[n] if sizes[n] > 1 else 0):
            i, j = rng.sample(range(sizes[n]), 2)
            lam = rng.choice(MULTIPLIERS)
            if n > 0:
                mat = mats[n - 1]
                for (r, c), x in list(mat.items()):
                    if c == i:
                        mat[r, j] = ring_plus(mat.get((r, j), {}), ring_times(x, lam))
            if n < levels - 1:
                mat = mats[n]
                for (r, c), x in list(mat.items()):
                    if r == j:
                        minus = {t: -a for t, a in ring_times(lam, x).items()}
                        mat[i, c] = ring_plus(mat.get((i, c), {}), minus)
            for mat in mats:
                for key in [key for key, x in mat.items() if not x]:
                    del mat[key]
    return sizes, mats


@settings(max_examples=60, deadline=None)
@given(free_complexes())
def test_reduction_of_free_complexes_is_the_lifts(case):
    assert_reduced_lift_is_the_lift(*case)


def times(a: dict, b: dict) -> dict:
    """Product of two sparse integer matrices."""
    rows_of_b = {}
    for (r, c), v in b.items():
        rows_of_b.setdefault(r, []).append((c, v))
    out = {}
    for (r, mid), u in a.items():
        for c, v in rows_of_b.get(mid, ()):
            out[r, c] = out.get((r, c), 0) + u * v
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lift_is_multiplicative(k):
    # B([t]) B([u]) = B([rows[t][u]]): the lift is a ring map
    group = Permutations(k)
    pairs = list(product(range(len(group)), repeat=2))
    for t, u in pairs if k < 4 else pairs[::7]:
        lifted = [_lift({(0, 0): {x: 1}}, group.rows, len(group)) for x in (t, u, group.rows[t][u])]
        assert times(lifted[0], lifted[1]) == lifted[2]


@pytest.mark.parametrize("graph, k", [(gr.theta_graph(), 3), (k4(), 3)], ids=["theta-3", "k4-3"])
def test_lift_of_the_orbit_boundaries_is_the_covers(graph, k):
    _, orbit, _, right, _ = model.orbit_cover(graph, k)
    twisted = face_chain_complex(
        orbit.labels, orbit.faces, alternating_signs, group_ring(right), model._twists(orbit)
    ).boundaries
    lifted = [_lift(mat, right.rows, len(right)) for mat in twisted]
    assert lifted == chain_complex(model.cover(orbit, right)).boundaries


@pytest.mark.parametrize("flags", [[], ["--collapse"]], ids=["plain", "collapse"])
def test_corrupted_lam_exits_4(tmp_path, monkeypatch, flags):
    # lam_{d_1} = lam_c o lam_{d_0} breaks on theta k=3's first 2-chain
    cat, orbit, perms, right, nerve = model.orbit_cover(gr.theta_graph(), 3)
    labels = [list(level) for level in orbit.labels]
    labels[2][0] = (labels[2][0] + 1) % len(right)
    bad = SemiSimplicialSet(labels, orbit.faces)
    # `--collapse` too checks the cover on it, and collapses it
    monkeypatch.setattr(model, "orbit_cover", lambda *a: (cat, bad, perms, right, nerve))
    path = graph_file(tmp_path, gr.theta_graph())
    code, out, err = run(["model", "--graph", path, "-k", "3", *flags])
    assert code == 4 and out == "" and err.startswith("internal error:"), err


def corrupted_collapse():
    """The collapsed orbit nerve of K4 k=3 with one lam of level 2 changed,
    which breaks d^2 = 0 over Z[S_3]."""
    fvector, small, right = model.collapsed_cover(k4(), 3)
    labels = [list(level) for level in small.labels]
    labels[2][0] = (labels[2][0] + 1) % len(right)
    return fvector, SemiSimplicialSet(labels, small.faces), right


def test_corrupted_orbit_boundary_fails_the_group_ring_d2_check():
    _, bad, right = corrupted_collapse()
    with pytest.raises(NotAComplex, match=r"over Z\[S_k\] between dims 2 and 0"):
        model.cover_chain_complex(bad, right)


def test_corrupted_orbit_boundary_exits_4(tmp_path, monkeypatch):
    fvector, bad, right = corrupted_collapse()
    monkeypatch.setattr(cli, "collapsed_cover", lambda *a, **kw: (fvector, bad, right))
    code, out, err = run(["model", "--graph", graph_file(tmp_path, k4()), "-k", "3"])
    assert code == 4 and out == "", err
    assert err.startswith("internal error: boundary squared is nonzero over Z[S_k]"), err


def test_model_collapse_reports_the_ordered_model(tmp_path):
    # its f-vector is the lifted collapse's, here the rescan collapse's
    # too, and its homology the one of the whole ordered model
    path = graph_file(tmp_path, k4())
    code, out, err = run(["model", "--graph", path, "-k", "3", "--collapse"])
    assert code == 0, err
    s = collapse_free_faces(model.model_complex(k4(), 3))
    report = json.loads(out)
    assert report["fvector"] == list(s.fvector())
    hom = homology(chain_complex(s))
    assert report["betti"] == hom.betti == [1, 12, 11]
    assert report["torsion"] == hom.torsion
