import random
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import graphconf.homology as H
from graphconf import graphs as gr
from graphconf.abrams import abrams_complex, cubical_chain_complex
from graphconf.errors import NotAComplex
from graphconf.homology import (
    ChainComplex,
    HomologyResult,
    _dense_smith,
    _unit_pivot_sweep,
    chain_complex,
    connected_components,
    homology,
    reduce,
    smith_normal_form,
)
from graphconf.model import model_complex
from test_abrams import quotient
from test_orbit_nerve import k33, small_multigraphs


def invariant_factors_by_minors(a):
    """Independent oracle: d_k = gcd of all k x k minors, factor_k = d_k/d_{k-1}."""
    m = len(a)
    n = len(a[0]) if m else 0

    @lru_cache(maxsize=None)
    def det(rows, cols):
        if not rows:
            return 1
        r = rows[0]
        total = 0
        for i, c in enumerate(cols):
            if a[r][c]:
                total += (-1) ** i * a[r][c] * det(rows[1:], cols[:i] + cols[i + 1:])
        return total

    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        dk = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                dk = gcd(dk, det(rows, cols))
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return factors


def test_snf_worked_example():
    factors, rank = smith_normal_form([[2, 4], [6, 8]])
    assert factors == (2, 4) and rank == 2
    assert invariant_factors_by_minors(((2, 4), (6, 8))) == [2, 4]


def test_snf_identity():
    factors, rank = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert factors == (1, 1, 1) and rank == 3


def test_snf_zero():
    factors, rank = smith_normal_form([[0, 0], [0, 0]])
    assert factors == () and rank == 0


def test_snf_torsion_matrix():
    factors, _ = smith_normal_form([[2, 0], [0, 3]])
    assert factors == (1, 6)


def test_snf_sparse_input():
    factors, rank = smith_normal_form({(0, 0): 2, (1, 1): 4})
    assert factors == (2, 4) and rank == 2


def test_snf_against_minsince_oracle_seeded():
    rng = random.Random(5)
    for _ in range(120):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        factors, rank = smith_normal_form(a)
        expect = invariant_factors_by_minors(tuple(tuple(row) for row in a))
        assert list(factors) == expect
        assert rank == len(expect)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_snf_divisibility_chain(rows):
    factors, rank = smith_normal_form(rows)
    assert rank == len(factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(f > 0 for f in factors)


def test_chain_complex_square_boundary():
    s = model_complex(gr.minimal_circle(), 2)
    cc = chain_complex(s)
    assert cc.sizes == [4, 4]
    cols = {}
    for (r, c), v in cc.boundaries[0].items():
        cols.setdefault(c, []).append(v)
    assert all(sorted(vs) == [-1, 1] for vs in cols.values())


def test_chain_complex_single_point():
    g = gr.build_graph(["u", "w"], [])
    s = model_complex(g, 1)
    cc = chain_complex(s)
    assert cc.sizes == [2] and cc.boundaries == []


def test_chain_complex_dd_zero_two_vertex_circle():
    s = model_complex(gr.cycle_graph(2), 2)
    chain_complex(s)  # raises NotAComplex if boundary squared is nonzero


def test_not_a_complex_detected():
    with pytest.raises(NotAComplex):
        ChainComplex([1, 1, 1], [{(0, 0): 1}, {(0, 0): 1}])


def test_homology_examples():
    assert homology(chain_complex(model_complex(gr.minimal_circle(), 2))).betti == [1, 1]
    assert homology(chain_complex(model_complex(gr.cycle_graph(2), 2))).betti == [1, 1, 0]
    res = homology(chain_complex(model_complex(gr.remove_leaves(gr.hub_graph(1, 1)), 2)))
    assert res.betti == [1, 3] and res.torsion == [[], []]


def test_homology_projective_plane_style_torsion():
    # boundary with cokernel Z/2 in dimension 1
    cc = ChainComplex([1, 1], [{(0, 0): 2}])
    res = homology(cc)
    assert res.betti == [0, 0] and res.torsion == [[2], []]


def test_euler_characteristic():
    assert model_complex(gr.minimal_circle(), 2).euler_characteristic() == 0
    g = gr.build_graph(["u"], [])
    assert model_complex(g, 1).euler_characteristic() == 1
    cc = chain_complex(model_complex(gr.theta_graph(), 2))
    assert cc.euler_characteristic() == sum((-1) ** n * c for n, c in enumerate(cc.sizes))


def test_chi_equals_alternating_betti():
    for g, k in [(gr.cycle_graph(2), 2), (gr.theta_graph(), 2), (gr.y_graph(), 2)]:
        s = model_complex(g, k)
        res = homology(chain_complex(s))
        assert s.euler_characteristic() == sum((-1) ** n * b for n, b in enumerate(res.betti))


def test_connected_components():
    s = model_complex(gr.minimal_circle(), 2)
    assert len(connected_components(s)) == 1
    g = gr.build_graph(["u", "w"], [])
    assert len(connected_components(model_complex(g, 1))) == 2
    y0 = model_complex(gr.y_graph(), 2, drop_leaves=True)
    assert len(connected_components(y0)) == 1


def test_betti_invariant_under_relabeling():
    s = model_complex(gr.remove_leaves(gr.hub_graph(2, 1)), 2)
    cc = chain_complex(s)
    perm = list(range(cc.sizes[0]))
    random.Random(3).shuffle(perm)
    shuffled = {(perm[r], c): v for (r, c), v in cc.boundaries[0].items()}
    assert homology(ChainComplex(cc.sizes, [shuffled])).betti == homology(cc).betti


def _mixed_sparse_matrix(rng, m, n, torsion):
    """Sparse matrix dominated by +-1 entries, with the torsion block hidden
    by a few unimodular row and column additions."""
    a = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            if rng.random() < 0.3:
                a[i][j] = rng.choice((1, -1, 1, -1, 2))
    for t, d in enumerate(torsion):  # a diagonal block diag(torsion) in the corner
        i, j = m - 1 - t, n - 1 - t
        for jj in range(n):
            a[i][jj] = 0
        for ii in range(m):
            a[ii][j] = 0
        a[i][j] = d
    for _ in range(3):
        src, dst = rng.sample(range(m), 2)
        a[dst] = [x + y for x, y in zip(a[dst], a[src])]
        src, dst = rng.sample(range(n), 2)
        for row in a:
            row[dst] += row[src]
    rng.shuffle(a)
    return a


def test_snf_sparse_unit_heavy_against_minors_oracle():
    rng = random.Random(17)
    torsion_in_core = 0
    for case in range(40):
        m, n = rng.randint(6, 8), rng.randint(6, 8)
        torsion = [(2,), (3,), (2, 4), ()][case % 4]
        a = _mixed_sparse_matrix(rng, m, n, torsion)
        factors, rank = smith_normal_form(a)
        expect = invariant_factors_by_minors(tuple(tuple(row) for row in a))
        assert list(factors) == expect
        assert rank == len(expect)
        torsion_in_core += any(f > 1 for f in factors)
    assert torsion_in_core >= 20


def test_snf_sparse_unit_heavy_against_dense_reduction():
    # larger than the minors oracle can handle: the sweep-then-core path
    # must agree with the textbook reduction of the whole matrix
    rng = random.Random(29)
    for case in range(12):
        m, n = rng.randint(20, 30), rng.randint(20, 30)
        a = _mixed_sparse_matrix(rng, m, n, [(2,), (3, 6), ()][case % 3])
        entries = {(i, j): v for i, row in enumerate(a) for j, v in enumerate(row) if v}
        factors, rank = smith_normal_form(a)
        assert list(factors) == _dense_smith(entries)
        assert rank == len(factors)


# -- clearing ----------------------------------------------------------------

def reference_homology(cc):
    """The bottom-up loop without clearing: every boundary matrix in full."""
    dims = len(cc.sizes)
    ranks = [0] * (dims + 1)
    torsion_of_next = [[] for _ in range(dims + 1)]
    for n, mat in enumerate(cc.boundaries):
        factors, rank = smith_normal_form(mat)
        ranks[n + 1] = rank
        torsion_of_next[n] = [f for f in factors if f > 1]
    betti = [cc.sizes[n] - ranks[n] - ranks[n + 1] for n in range(dims)]
    return HomologyResult(betti, [torsion_of_next[n] for n in range(dims)])


def assert_matches_reference(cc):
    assert homology(cc) == reference_homology(cc)


TORSION_BLOCKS = [(2,), (3,), (2, 4)]


@st.composite
def hidden_torsion_complexes(draw):
    """A chain complex of 4-6 levels with known homology.

    In a split basis C_n = free_n (+) (targets of d_{n+1}) (+) (sources of
    d_n), and d_{n+1} maps its sources onto its targets by diag(1, ..., 1,
    torsion), with a torsion block in every dimension below the top.  Random
    unimodular changes of basis of every C_n then hide the splitting: a
    column operation on d_n and the inverse row operation on d_{n+1}, so d^2
    stays 0.  Returns (complex, betti, torsion).
    """
    levels = draw(st.integers(4, 6))
    diags = [
        [1] * draw(st.integers(0, 4)) + list(draw(st.sampled_from(TORSION_BLOCKS)))
        for _ in range(levels - 1)
    ]
    free = [draw(st.integers(0, 2)) for _ in range(levels)]
    targets = [len(d) for d in diags] + [0]
    sources = [0] + [len(d) for d in diags]
    sizes = [f + t + s for f, t, s in zip(free, targets, sources)]
    mats = []  # mats[n] is d_{n+1}, dense, sizes[n] x sizes[n + 1]
    for n, diag in enumerate(diags):
        m = [[0] * sizes[n + 1] for _ in range(sizes[n])]
        for i, d in enumerate(diag):
            m[free[n] + i][free[n + 1] + targets[n + 1] + i] = d
        mats.append(m)
    rng = draw(st.randoms(use_true_random=False))
    for n in range(levels):
        below = mats[n - 1] if n > 0 else None  # d_n: columns indexed by C_n
        above = mats[n] if n < levels - 1 else None  # d_{n+1}: rows indexed by C_n
        for _ in range(2 * sizes[n] if sizes[n] > 1 else 0):
            i, j = rng.sample(range(sizes[n]), 2)
            lam = rng.choice((1, -1, 1, -1, 2))
            if below is not None:  # column j += lam * column i
                for row in below:
                    row[j] += lam * row[i]
            if above is not None:  # row i -= lam * row j
                above[i] = [x - lam * y for x, y in zip(above[i], above[j])]
    boundaries = [
        {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row) if v} for m in mats
    ]
    torsion = [[x for x in d if x > 1] for d in diags] + [[]]
    return ChainComplex(sizes, boundaries), free, torsion


@settings(max_examples=60, deadline=None)
@given(hidden_torsion_complexes())
def test_clearing_matches_reference_on_hidden_torsion(case):
    cc, betti, torsion = case
    assert_matches_reference(cc)
    assert homology(cc) == HomologyResult(betti, torsion)


@settings(max_examples=60, deadline=None)
@given(hidden_torsion_complexes())
def test_integer_residue_holds_no_unit(case):
    # the sweeps leave no +-1 entry, so the dense reduction of the residue
    # alone gives the homology
    cc = case[0]
    sizes, residue = reduce(cc)
    assert all(v not in (1, -1) for mat in residue for v in mat.values())
    factors = [_dense_smith(mat) for mat in residue]
    ranks = [0] + [len(fs) for fs in factors] + [0]
    betti = [size - ranks[n] - ranks[n + 1] for n, size in enumerate(sizes)]
    torsion = [[f for f in fs if f > 1] for fs in factors] + [[]]
    assert HomologyResult(betti, torsion) == reference_homology(cc)


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_clearing_matches_reference_on_models(graph, k):
    assert_matches_reference(chain_complex(model_complex(graph, k)))
    assert_matches_reference(chain_complex(model_complex(graph, k, quotient=True)))


def close_ends(g):
    """The same multigraph with every open edge end attached to the first vertex."""
    first = g.vertices[0]
    return gr.build_graph(
        list(g.vertices), [(e.id, e.end_minus or first, e.end_plus or first) for e in g.edges]
    )


@settings(max_examples=40, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_clearing_matches_reference_on_abrams(graph, k):
    a = abrams_complex(gr.subdivide(close_ends(graph), 2), k)
    assert_matches_reference(cubical_chain_complex(a))
    assert_matches_reference(quotient(a))


def test_clearing_drops_columns(monkeypatch):
    # on unordered K3,3 k=3 the pivots of boundaries[2] clear columns of
    # boundaries[1], which still carries the Z/2 of H_1
    cc = chain_complex(model_complex(k33(), 3, quotient=True))
    seen = []
    real = H._unit_pivot_sweep

    def recording(entries, ring=H.INTEGERS):
        seen.append(len(entries))
        return real(entries, ring)

    monkeypatch.setattr(H, "_unit_pivot_sweep", recording)
    res = homology(cc)
    assert res.betti == [1, 4, 8, 0] and res.torsion == [[], [2], [], []]
    full = [len(m) for m in reversed(cc.boundaries)]
    assert len(seen) == len(full)
    assert seen[0] == full[0]  # the top matrix is never cleared
    assert all(s < f for s, f in zip(seen[1:], full[1:]))


def bareiss_det(a):
    """Exact determinant by fraction-free elimination."""
    a = [list(row) for row in a]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def test_bareiss_det():
    assert bareiss_det([[2, 4], [6, 8]]) == -8
    assert bareiss_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    assert bareiss_det([[2, 1, 3], [0, 0, 1], [4, 1, 5]]) == 2


def test_sweep_pivot_submatrix_is_unimodular():
    rng = random.Random(41)
    pivots_seen = 0
    for case in range(40):
        n = rng.randint(6, 30)
        a = _mixed_sparse_matrix(rng, n, n, [(2,), (3,), (2, 4), ()][case % 4])
        entries = {(i, j): v for i, row in enumerate(a) for j, v in enumerate(row) if v}
        units, _, pivots = _unit_pivot_sweep(entries)
        assert units == len(pivots)
        rows = [r for r, _ in pivots]
        cols = [c for _, c in pivots]
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
        assert bareiss_det([[a[r][c] for c in cols] for r in rows]) in (1, -1)
        pivots_seen += units
    assert pivots_seen >= 200
