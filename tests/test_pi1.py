from functools import cache
from heapq import heappop, heappush

import pytest
from hypothesis import given, settings, strategies as st

from graphconf import graphs as gr
from graphconf import pi1
from graphconf.errors import Disconnected, NotOneDimensional
from graphconf.homology import chain_complex, homology
from graphconf.model import build_model, model_complex, symmetric_action
from graphconf.nerve import quotient_by_free_action
from graphconf.pi1 import Presentation
from graphconf.reduced import build_reduced
from test_nerve_reference import orbit_nerve
from test_orbit_nerve import small_multigraphs


def test_spanning_tree_square_boundary():
    s = model_complex(gr.minimal_circle(), 2)
    assert len(pi1.spanning_tree(s)) == 3


def test_spanning_tree_point():
    g = gr.build_graph(["u"], [])
    assert pi1.spanning_tree(model_complex(g, 1)) == set()


def test_spanning_tree_y_open():
    s = model_complex(gr.y_graph(), 2, drop_leaves=True)
    assert len(pi1.spanning_tree(s)) == 17


def test_spanning_tree_disconnected():
    g = gr.build_graph(["u", "w"], [])
    with pytest.raises(Disconnected):
        pi1.spanning_tree(model_complex(g, 1))


def test_presentation_square_boundary():
    p = pi1.presentation(model_complex(gr.minimal_circle(), 2))
    assert len(p.generators) == 1 and p.relators == []


def test_presentation_hub_free_rank_three():
    s = model_complex(gr.remove_leaves(gr.hub_graph(1, 1)), 2)
    p = pi1.simplify(pi1.presentation(s))
    assert len(p.generators) == 3 and p.relators == []


def test_presentation_torus_grid():
    # classical square-with-identifications: one 2-cell, relator abab^-1a^-1... no:
    # a b a^-1 b^-1 after simplification; verified through its abelianization
    from graphconf.reduced import GluedComplex
    from graphconf.nerve import SemiSimplicialSet

    torus = GluedComplex(
        vertices=["p"],
        edges=[("a", "p", "p"), ("b", "p", "p")],
        faces2=[("f", [("a", 1), ("b", 1), ("a", -1), ("b", -1)])],
        complex=SemiSimplicialSet([["p"]], [[]]),
        model=None,
        kept=[],
    )
    p = pi1.presentation(torus)
    assert sorted(p.generators) == ["a", "b"]
    assert pi1.abelianization(p) == (2, [])


def test_simplify_examples():
    p = pi1.simplify(Presentation(["a", "b"], [[("b", 1)]]))
    assert p.generators == ["a"] and p.relators == []
    q = pi1.simplify(Presentation(["a"], []))
    assert q.generators == ["a"] and q.relators == []


def test_simplify_y_open_model():
    s = model_complex(gr.y_graph(), 2, drop_leaves=True)
    p = pi1.simplify(pi1.presentation(s))
    assert len(p.generators) == 1 and p.relators == []


def test_simplify_preserves_abelianization():
    for g, k in [(gr.cycle_graph(2), 2), (gr.theta_graph(), 2)]:
        p = pi1.presentation(model_complex(g, k))
        assert pi1.abelianization(p) == pi1.abelianization(pi1.simplify(p))


@settings(max_examples=60, deadline=None)
@given(small_multigraphs(), st.integers(1, 3))
def test_simplify_keeps_abelianization_on_random_multigraphs(graph, k):
    # braidgroup reports the abelianization of the simplified presentation
    for quotient in (False, True):
        try:
            p = pi1.presentation(model_complex(graph, k, quotient=quotient))
        except Disconnected:
            continue  # braidgroup refuses it (exit 3)
        assert pi1.abelianization(pi1.simplify(p)) == pi1.abelianization(p)


def test_abelianization_commutator():
    p = Presentation(["a", "b"], [[("a", 1), ("b", 1), ("a", -1), ("b", -1)]])
    assert pi1.abelianization(p) == (2, [])


def test_abelianization_matches_h1_everywhere():
    cases = [
        (gr.minimal_circle(), 2, False),
        (gr.cycle_graph(2), 2, False),
        (gr.theta_graph(), 2, False),
        (gr.remove_leaves(gr.hub_graph(2, 1)), 2, False),
        (gr.double_hub_graph(1, 0, 1, 0, 1), 2, False),
        (gr.minimal_circle(), 2, True),
        (gr.double_hub_graph(1, 1, 1, 1, 1), 2, True),
    ]
    for g, k, quot in cases:
        s = model_complex(g, k, quotient=quot)
        rank, torsion = pi1.abelianization(pi1.presentation(s))
        res = homology(chain_complex(s))
        assert (rank, torsion) == (res.betti[1], res.torsion[1])


def test_free_rank_examples():
    assert pi1.free_rank(model_complex(gr.minimal_circle(), 2)) == 1
    assert pi1.free_rank(model_complex(gr.remove_leaves(gr.hub_graph(1, 1)), 2)) == 3
    tree = model_complex(gr.y_graph(), 1)
    assert pi1.free_rank(tree) == 0


def test_free_rank_rejects_two_dimensional():
    with pytest.raises(NotOneDimensional):
        pi1.free_rank(model_complex(gr.cycle_graph(2), 2))


def test_hub_family_free_ranks():
    for k, l in [(0, 1), (1, 1), (2, 1), (0, 2), (3, 0)]:
        n = (k + l) * (k + 3 * l - 3) // 2
        w = gr.remove_leaves(gr.hub_graph(k, l))
        s = model_complex(w, 2)
        assert pi1.free_rank(s) == 2 * n + 1
        m = build_model(w, 2)
        q = quotient_by_free_action(m.complex, symmetric_action(m))
        assert pi1.free_rank(q) == n + 1


def test_presentation_of_reduced_complex():
    gc = build_reduced(gr.theta_graph())
    p = pi1.presentation(gc)
    rank, torsion = pi1.abelianization(p)
    assert (rank, torsion) == (5, [])


def _reference_free_reduce(word):
    out = []
    for g, e in word:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    while len(out) > 1 and out[0][0] == out[-1][0] and out[0][1] == -out[-1][1]:
        out = out[1:-1]
    return out


def _reference_simplify(p):
    """The rescan-from-the-first-relator algorithm that defines the order of
    eliminations: rewrite every relator after each one, then start over."""
    gens = list(p.generators)
    relators = [_reference_free_reduce(list(w)) for w in p.relators]
    changed = True
    while changed:
        changed = False
        relators = [w for w in relators if w]
        for ri, word in enumerate(relators):
            counts = {}
            for g, _ in word:
                counts[g] = counts.get(g, 0) + 1
            candidate = None
            for pos, (g, e) in enumerate(word):
                if counts[g] == 1:
                    candidate = (pos, g, e)
                    break
            if candidate is None:
                continue
            pos, g, e = candidate
            u, v = word[:pos], word[pos + 1:]
            repl = [(h, -x) for h, x in reversed(u)] + [(h, -x) for h, x in reversed(v)]
            if e == -1:
                repl = [(h, -x) for h, x in reversed(repl)]
            new_relators = []
            for rj, other in enumerate(relators):
                if rj == ri:
                    continue
                expanded = []
                for h, x in other:
                    if h == g:
                        expanded.extend(repl if x == 1 else [(a, -b) for a, b in reversed(repl)])
                    else:
                        expanded.append((h, x))
                new_relators.append(_reference_free_reduce(expanded))
            gens = [h for h in gens if h != g]
            relators = new_relators
            changed = True
            break
    return Presentation(gens, relators)


def _reference_first_single(word):
    counts = {}
    for g, _ in word:
        counts[g] = counts.get(g, 0) + 1
    for pos, (g, _) in enumerate(word):
        if counts[g] == 1:
            return pos
    return None


def _heap_simplify(p):
    """The eliminations of ``_reference_simplify``, scheduled by a min-heap
    of the ids of relators with a candidate and an exact occurrence index:
    every rewritten relator is reduced in a second pass and checked at once.
    Fast enough for the 1,800 relators of ordered xb k=3."""
    words = [_reference_free_reduce(list(w)) for w in p.relators]
    occ = {}
    for i, word in enumerate(words):
        for g, _ in word:
            occ.setdefault(g, set()).add(i)
    heap = [i for i, word in enumerate(words) if _reference_first_single(word) is not None]
    eliminated = set()
    while heap:
        ri = heappop(heap)
        word = words[ri]
        pos = None if word is None else _reference_first_single(word)
        if pos is None:
            continue
        g, e = word[pos]
        u, v = word[:pos], word[pos + 1:]
        repl = [(h, -x) for h, x in reversed(u)] + [(h, -x) for h, x in reversed(v)]
        if e == -1:
            repl = [(h, -x) for h, x in reversed(repl)]
        inverse = [(a, -b) for a, b in reversed(repl)]
        words[ri] = None
        for h, _ in word:
            occ[h].discard(ri)
        eliminated.add(g)
        for rj in occ.pop(g):
            old = words[rj]
            expanded = []
            for h, x in old:
                if h == g:
                    expanded.extend(repl if x == 1 else inverse)
                else:
                    expanded.append((h, x))
            new = _reference_free_reduce(expanded)
            words[rj] = new
            for h, _ in old:
                if h != g:
                    occ[h].discard(rj)
            for h, _ in new:
                occ.setdefault(h, set()).add(rj)
            if _reference_first_single(new) is not None:
                heappush(heap, rj)
    gens = [h for h in p.generators if h not in eliminated]
    return Presentation(gens, [w for w in words if w])


GENERATOR_POOL = ["a", "b", "c", "d", "e", "f"]
WORDS = st.lists(
    st.tuples(st.sampled_from(GENERATOR_POOL[:4]), st.sampled_from([1, -1])), max_size=9
)


@settings(max_examples=300, deadline=None)
@given(st.lists(WORDS, max_size=7))
def test_simplify_equals_reference(relators):
    # "e" and "f" never occur in a relator; empty words and repeats do
    p = Presentation(list(GENERATOR_POOL), relators)
    assert pi1.simplify(p) == _reference_simplify(p)
    assert pi1.abelianization(pi1.simplify(p)) == pi1.abelianization(p)


# 3-6 generators, up to 12 relators of up to 16 letters
PRESENTATIONS = st.integers(3, 6).flatmap(
    lambda n: st.builds(
        Presentation,
        st.just(GENERATOR_POOL[:n]),
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(GENERATOR_POOL[:n]), st.sampled_from([1, -1])),
                max_size=16,
            ),
            max_size=12,
        ),
    )
)


def test_simplify_equals_reference_on_longer_relators(monkeypatch):
    # the run must re-queue relators behind the sweep's pointer and
    # substitute into relators that hold the eliminated generator twice
    seen = {"requeued": 0, "twice": 0}
    real_push, real_substitute = pi1.heappush, pi1._substitute

    def push(heap, ri):
        seen["requeued"] += 1
        real_push(heap, ri)

    def substitute(word, x, inv, vu):
        seen["twice"] += word.count(x) + word.count(-x) > 1
        return real_substitute(word, x, inv, vu)

    monkeypatch.setattr(pi1, "heappush", push)
    monkeypatch.setattr(pi1, "_substitute", substitute)

    @settings(max_examples=300, deadline=None)
    @given(PRESENTATIONS)
    def check(p):
        assert pi1.simplify(p) == _reference_simplify(p)

    check()
    assert seen["requeued"] and seen["twice"], seen


@settings(max_examples=300, deadline=None)
@given(WORDS)
def test_free_reduce_equals_reference(word):
    assert pi1._free_reduce(word) == _reference_free_reduce(word)


def _k33():
    verts = [f"a{i}" for i in (1, 2, 3)] + [f"b{j}" for j in (1, 2, 3)]
    edges = [(f"e{i}{j}", f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3)]
    return gr.build_graph(verts, edges)


@pytest.mark.parametrize("graph, k", [(gr.theta_graph(), 3), (_k33(), 2)], ids=["theta-3", "k33-2"])
def test_simplify_equals_reference_on_models(graph, k):
    m = build_model(graph, k)
    for s in (m.complex, orbit_nerve(m.cells)):
        p = pi1.presentation(s)
        simplified = pi1.simplify(p)
        assert simplified == _reference_simplify(p)
        assert pi1.abelianization(simplified) == pi1.abelianization(p)


@cache
def _presentation(graph, k, quotient):
    return pi1.presentation(model_complex(GRAPHS[graph](), k, quotient=quotient))


GRAPHS = {"xb": lambda: gr.double_hub_graph(2, 1, 1, 1, 1), "k33": _k33, "theta": gr.theta_graph}


@pytest.mark.parametrize("quotient", [False, True], ids=["ordered", "unordered"])
@pytest.mark.parametrize("graph, k", [("xb", 3), ("k33", 2), ("theta", 3)], ids=["xb-3", "k33-2", "theta-3"])
def test_simplify_equals_heap_reference_on_models(graph, k, quotient):
    # ordered xb k=3 has 1,800 relators, too many for the rescan reference
    p = _presentation(graph, k, quotient)
    assert pi1.simplify(p) == _heap_simplify(p)


def test_simplify_rewrites_only_relators_holding_the_generator(monkeypatch):
    # `gen xb -x 2 -k 1 -l 1 -p 1 -q 1`, k=3, ordered: 1,800 relators; the
    # rescan-everything algorithm makes 1,618,755 calls to _free_reduce here,
    # rewriting only the relators that hold each eliminated generator 9,557.
    # A rewrite substitutes and reduces in one pass (_substitute), so this
    # counts only the 1,800 reductions of the input
    p = pi1.presentation(build_model(gr.double_hub_graph(2, 1, 1, 1, 1), 3).complex)
    assert len(p.relators) == 1800
    calls = []
    real = pi1._free_reduce

    def counted(word):
        calls.append(1)
        return real(word)

    monkeypatch.setattr(pi1, "_free_reduce", counted)
    pi1.simplify(p)
    assert len(calls) <= 6 * len(p.relators)


def test_simplify_rewrites_each_relator_a_few_times(monkeypatch):
    # ordered xb k=3: 7,757 rewrites of its 1,800 relators, one for each
    # relator holding a generator when it is eliminated
    p = _presentation("xb", 3, False)
    assert len(p.relators) == 1800
    calls = []
    real = pi1._substitute

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(pi1, "_substitute", counted)
    pi1.simplify(p)
    assert 1 <= len(calls) <= 6 * len(p.relators)
