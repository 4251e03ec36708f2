"""The ordered cube complex as the S_k-cover of the orbit complex.

``abrams_complex(g, k)`` is built as ``lift`` of the orbit complex
``abrams_complex(g, k, quotient=True)``, renumbered into lexicographic
order.  ``reference_abrams_complex`` is the direct construction it
replaced: every ordered tuple is enumerated depth-first, and a face is found
by shifting the tuple's base-b code.  The two must agree cell for cell and
face for face, and the orbit complex's chain complex must be the quotient
of the ordered one that the reference ``test_abrams.quotient`` computes.
"""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import graphs as gr
from graphconf.abrams import (
    AbramsComplex,
    abrams_complex,
    cubical_chain_complex,
    lift,
    validate_cover,
)
from test_abrams import quotient
from test_abrams_report import closed_multigraphs
from test_orbit_nerve import k4


def closure(g, cell) -> frozenset:
    if cell[0] == "v":
        return frozenset([cell])
    e = g.edge(cell[1])
    return frozenset([cell] + [("v", end) for end in e.ends])


def reference_abrams_complex(g, k) -> AbramsComplex:
    """All k-tuples of cells with pairwise disjoint closures, extended
    depth-first through the sorted cell list, so each dimension comes out
    in lexicographic order.  A tuple's code reads the positions of its
    cells as base-b digits, so the face that puts end x in place of the
    edge with digit d at position p has code code + (x - d) * b^(k-1-p)."""
    symbols = sorted([("v", v) for v in g.vertices] + [("e", e.id) for e in g.edges])
    digit = {s: d for d, s in enumerate(symbols)}
    closures = [closure(g, s) for s in symbols]
    ends = [
        tuple(digit[("v", x)] for x in g.edge(s[1]).ends) if s[0] == "e" else ()
        for s in symbols
    ]
    base = len(symbols)
    shifts = [
        [tuple((x - d) * base ** (k - 1 - p) for x in xs) for d, xs in enumerate(ends)]
        for p in range(k)
    ]
    cells = [[] for _ in range(k + 1)]
    found = [[] for _ in range(k + 1)]  # per dimension: (code, face shifts)

    def extend(prefix, used, code, face_shifts):
        if len(prefix) == k:
            cells[len(face_shifts) // 2].append(tuple(prefix))
            found[len(face_shifts) // 2].append((code, face_shifts))
            return
        shift = shifts[len(prefix)]
        for d, cs in enumerate(closures):
            if cs & used:
                continue
            prefix.append(symbols[d])
            extend(prefix, used | cs, code * base + d, face_shifts + shift[d])
            prefix.pop()

    extend([], frozenset(), 0, ())
    while cells and not cells[-1]:
        cells.pop()
    faces = [[]] if cells else []
    for n in range(1, len(cells)):
        where = {code: i for i, (code, _) in enumerate(found[n - 1])}
        faces.append([tuple([where[code + s] for s in fs]) for code, fs in found[n]])
    return AbramsComplex(g, k, cells, faces)


def assert_cover_is_the_ordered_complex(g, k):
    ordered = abrams_complex(g, k)
    reference = reference_abrams_complex(g, k)
    assert ordered.cells == reference.cells
    assert ordered.faces == reference.faces
    orbit = abrams_complex(g, k, quotient=True)
    assert cubical_chain_complex(orbit) == quotient(reference)
    assert [factorial(k) * n for n in orbit.fvector()] == list(reference.fvector())
    # every orbit cube ascends, and each level is in lexicographic order
    for level in orbit.cells:
        assert all(list(cube) == sorted(cube) for cube in level)
        assert level == sorted(level)
    validate_cover(orbit)
    lift(orbit).validate_face_identities()


W31 = gr.hub_graph(3, 1)
LOOP = gr.build_graph(["u", "v"], [("l", "v", "v")])
XB_LOOPS = gr.double_hub_graph(1, 0, 2, 0, 2)  # gen xb -x 1 -l 2 -q 2


@pytest.mark.parametrize(
    "graph, times, k",
    [
        (gr.theta_graph(), 3, 2),
        (gr.theta_graph(), 4, 3),
        (W31, 4, 3),
        (k4(), 2, 2),
        (XB_LOOPS, 2, 2),
        (gr.minimal_circle(), 1, 2),
        (gr.minimal_circle(), 3, 2),
        (LOOP, 1, 2),
        (LOOP, 2, 3),
        (gr.cycle_graph(3), 1, 1),
        (gr.build_graph(["a"], []), 1, 1),
    ],
    ids=[
        "theta-3-2", "theta-4-3", "w31-4-3", "k4-2-2", "xb-loops-2-2", "minimal-circle-1-2",
        "minimal-circle-3-2", "loop-1-2", "loop-2-3", "triangle-1-1", "one-vertex-1-1",
    ],
)
def test_cover_is_the_ordered_complex(graph, times, k):
    assert_cover_is_the_ordered_complex(gr.subdivide(graph, times), k)


@settings(max_examples=100, deadline=None)
@given(closed_multigraphs(), st.integers(1, 3), st.integers(1, 3))
def test_cover_is_the_ordered_complex_on_random_multigraphs(graph, times, k):
    assert_cover_is_the_ordered_complex(gr.subdivide(graph, times), k)

