"""The twisted S_k-cover that the orbit nerve and the orbit cube complex share.

``nerve.Permutations`` ranks the permutations of range(k) and makes their
composition rows on first use.  ``nerve.validate_twists`` checks an orbit
complex whose face slots carry twists, and ``nerve.lift_faces`` lifts it:
``model`` passes the nerve's twists (lam_c at slot 0, the identity at the
others) and ``abrams`` the relocations.
"""

from itertools import permutations
from unittest import mock

import pytest

from graphconf import graphs as gr
from graphconf import model
from graphconf.errors import InternalError
from graphconf.nerve import Permutations, SemiSimplicialSet, collapse_free_faces
from test_ordered_report import graph_file, run


@pytest.mark.parametrize("k", range(5))
def test_rows_are_the_ranks_of_composites(k):
    group = Permutations(k)
    perms = list(permutations(range(k)))
    assert group.perms == perms and len(group) == len(perms)
    assert group.rank[tuple(range(k))] == 0
    for b, q in enumerate(perms):
        # perms[a] o perms[b] sends x to perms[a][perms[b][x]]
        assert group[b] == [perms.index(tuple(p[x] for x in q)) for p in perms]
        assert group.rows[b] is group[b]


@pytest.mark.parametrize("k", range(5))
def test_inverses(k):
    group = Permutations(k)
    identity = tuple(range(k))
    for p, inverse in zip(group.perms, group.inverse):
        assert tuple(p[x] for x in inverse) == identity == tuple(inverse[x] for x in p)


def test_theta_k6_makes_fewer_rows_than_k_factorial():
    # the whole composition table would be 720 rows of 720 ranks
    _, orbit, perms, right, _ = model.orbit_cover(gr.theta_graph(), 6)
    assert len(right) == len(perms) == 720
    assert len(right.rows) < 720
    model.validate_cover(orbit, right)
    small = model.cover(collapse_free_faces(orbit), right)
    small.validate_face_identities()
    assert len(right.rows) < 720


def test_out_of_range_lam_exits_4(tmp_path):
    # lam = k! names no permutation; the range check catches it before a
    # composition row is read
    _, orbit, _, right, _ = model.orbit_cover(gr.theta_graph(), 2)
    assert len(orbit.labels) > 2
    labels = [list(level) for level in orbit.labels]
    labels[2][0] = len(right)
    bad = SemiSimplicialSet(labels, orbit.faces)
    with pytest.raises(InternalError, match="out of range"):
        model.validate_cover(bad, right)
    path = graph_file(tmp_path, gr.theta_graph())
    with mock.patch.object(model, "orbit_cover", lambda *a: (None, bad, None, right, None)):
        code, out, err = run(["model", "--graph", path, "-k", "2"])
    assert code == 4 and out == "" and err.startswith("internal error:"), err
