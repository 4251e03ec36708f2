"""Homology of the ordered model reduced over Z[S_k].

The ordered model is the S_k-cover of the orbit nerve, so its chains are
free Z[S_k]-modules on the orbit chains.  ``homology.twisted_chain_complex``
reduces the orbit boundaries over the group ring and lifts only the
residue; ``model.cover_chain_complex`` feeds it the orbit nerve's twists.
Its Betti numbers and torsion must be those of the lifted cover's own chain
complex, the lift must be a ring map, and a corrupted orbit nerve must end
in exit 4.
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
    _group_ring_boundaries,
    _lift,
    alternating_signs,
    chain_complex,
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
    twisted = _group_ring_boundaries(orbit.faces, model._twists(orbit), alternating_signs)
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
