from itertools import permutations

import pytest

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf.model import build_model, symmetric_action


def reference_symmetric_action(m):
    """The action computed from scratch: every morphism moved to the one
    between the moved cells with the relocated datum, and the nerve chains
    enumerated again, level by level."""
    cat = m.category
    cell_index = {c: i for i, c in enumerate(m.cells)}
    mor_index = {mor: i for i, mor in enumerate(cat.morphisms)}
    out = []
    for sigma in sorted(permutations(range(m.k))):
        if sigma == tuple(range(m.k)):
            continue
        obj_map = [cell_index[cl.act_on_cell(sigma, c)] for c in m.cells]
        mor_map = []
        for s, t, data in cat.morphisms:
            image = (
                cell_index[cl.act_on_cell(sigma, m.cells[s])],
                cell_index[cl.act_on_cell(sigma, m.cells[t])],
                cl.relocate(sigma, data),
            )
            mor_map.append(mor_index[image])
        maps = [obj_map]
        level = [(i,) for i in range(len(cat.morphisms))]
        while len(maps) < m.complex.dimensions:
            index = {ch: i for i, ch in enumerate(level)}
            maps.append([index[tuple(mor_map[x] for x in ch)] for ch in level])
            level = sorted(
                ch + (x,) for ch in level for x in cat.out_of[cat.morphisms[ch[-1]][1]]
            )
        out.append(maps)
    return out


@pytest.mark.parametrize(
    "graph, k",
    [(gr.minimal_circle(), 2), (gr.theta_graph(), 2), (gr.cycle_graph(3), 3), (gr.y_graph(), 3)],
    ids=["minimal-circle-2", "theta-2", "cycle3-3", "y-3"],
)
def test_symmetric_action_matches_reference(graph, k):
    m = build_model(graph, k)
    action = symmetric_action(m)
    assert len(action) == len(list(permutations(range(k)))) - 1
    for maps in action:
        assert [len(level) for level in maps] == list(m.complex.fvector())
    assert action == reference_symmetric_action(m)


def test_build_model_enumerates_cells_once(monkeypatch):
    calls = []
    real = cl.enumerate_braid_cells

    def counted(g, k):
        calls.append(k)
        return real(g, k)

    monkeypatch.setattr(cl, "enumerate_braid_cells", counted)
    build_model(gr.theta_graph(), 2)
    assert calls == [2]
