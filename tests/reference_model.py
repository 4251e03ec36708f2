"""The configuration model with its options, composed from the model layer's
builders, as the tests' reference.

The library builds each model from the graph it is given, and only the CLI
removes leaves (``--remove-leaves``).  The tests name a model by its graph,
k and options, so this composes them in the order leaf removal, then the
quotient.  It reads the builders off their modules when it is called, so
a test that patches one there patches the reference too.
"""

from graphconf import cells as cl
from graphconf import graphs as gr
from graphconf import model
from graphconf.nerve import SemiSimplicialSet, build_nerve


def model_complex(
    g: gr.Graph, k: int, drop_leaves: bool = False, quotient: bool = False
) -> SemiSimplicialSet:
    """The ordered model of (g, k), the orbit nerve's cover
    (``ordered_nerve``), or, if ``quotient``, the unordered one, the orbit
    nerve, with leaves removed first if ``drop_leaves``.  Both have their
    labels."""
    if drop_leaves:
        g = gr.remove_leaves(g)
    if quotient:
        return build_nerve(model.OrbitCategory(cl.canonical_cells(g, k)))
    return model.ordered_nerve(model.orbit_cover(g, k))
