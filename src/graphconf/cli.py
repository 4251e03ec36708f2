"""Command-line interface.

Commands: gen, model, braidgroup, compare, reduced.  Reports are emitted
as JSON on stdout (byte-stable for fixed input and flags); diagnostics go
to stderr.  Exit codes: 0 success, 2 parse error, 3 invalid configuration,
4 internal consistency failure.
"""

import argparse
import json
import sys
from functools import cache
from math import factorial

from . import graphs as gr
from . import pi1
from .abrams import (
    AbramsComplex,
    abrams_complex,
    check_abrams_conditions,
    cubical_chain_complex,
    free_face_collapse,
    lift,
    validate_cover,
)
from .errors import InputError, InternalError
from .homology import chain_complex, connected_components, homology
from .model import (
    collapsed_cover,
    cover,
    cover_chain_complex,
    model_complex,
    orbit_cover,
    ordered_nerve,
)
from .nerve import SemiSimplicialSet, collapse_free_faces, quotient_by_free_action
from .reduced import build_reduced, glued_chain_complex, reduced_symmetric_action

# family -> (builder, {parameter: (floor, limit)}); the builder takes the
# parameters in this order, and one left out takes its floor
_FAMILIES = {
    "s1_min": (gr.minimal_circle, {}),
    "s1_sd": (gr.cycle_graph, {"n": (1, 6)}),
    "y": (gr.y_graph, {}),
    "w": (gr.hub_graph, {"k": (0, 4), "l": (0, 4)}),
    "xb": (gr.double_hub_graph, {"x": (1, 3), "k": (0, 2), "l": (0, 2), "p": (0, 2), "q": (0, 2)}),
    "path": (gr.path_graph, {"n": (1, 6)}),
    "theta": (gr.theta_graph, {}),
}
# every family's parameters in first-use order (n, k, l, x, p, q), the order
# in which ``gen`` lists them and refuses the ones a family does not use
_GEN_PARAMS = list(dict.fromkeys(p for _, params in _FAMILIES.values() for p in params))

# flag -> the commands that use it; any other command refuses it
_FLAG_USERS = {
    "quotient": ("model", "reduced"),
    "collapse": ("model",),
    "subdivide": ("compare",),
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` leaves it as it is."""
    top = argparse.ArgumentParser(prog="graphconf")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a graph from the shipped corpus")
    g.add_argument("family", choices=sorted(_FAMILIES))
    for p in _GEN_PARAMS:  # None when not given
        g.add_argument(f"-{p}", type=int)
    g.add_argument("--out")

    for name in ("model", "braidgroup", "compare", "reduced"):
        p = sub.add_parser(name)
        p.add_argument("--graph", required=True)
        p.add_argument("-k", type=int, default=2)
        p.add_argument("--quotient", action="store_true")
        p.add_argument("--remove-leaves", action="store_true")
        p.add_argument("--collapse", action="store_true")
        p.add_argument("--subdivide", type=int, default=None)
        p.add_argument("--out")
    return top


def _refuse_unused_flags(args) -> None:
    for flag, users in _FLAG_USERS.items():
        value = getattr(args, flag, None)  # gen has none of these flags
        if value is not None and value is not False and args.command not in users:
            plural = "s" if len(users) > 1 else ""
            raise InputError(f"--{flag} is only used by the {' and '.join(users)} command{plural}")


def _report_of_complex(s: SemiSimplicialSet, collapse: bool = False) -> dict:
    """Report of a model; its homology is computed on its free-face collapse.

    The full complex is checked by its face identities, which imply d^2 = 0
    for ``chain_complex``'s signs, so this guard is stronger than the d^2
    check of its chain complex.  Collapsing is exact over Z: a free pair is
    a +-1 entry alone in its row (the free face has one coface), a unit
    pivot whose elimination creates no fill, so removing the pair keeps
    every Betti number and torsion coefficient, and the number of
    components.  F-vector, dimension and Euler characteristic are those of
    the full complex, or of the collapse when ``collapse`` is set.

    The ordered model's reports do not come here.  ``model``, with or
    without ``--collapse``, and ``compare`` report it as
    ``_collapsed_report`` of ``model.collapsed_cover``, which checks and
    collapses the orbit nerve and never builds the ordered model.
    """
    s.validate_face_identities()
    small = collapse_free_faces(s)
    fvector = (small if collapse else s).fvector()
    return _report(fvector, chain_complex(small), len(connected_components(small)))


def _collapsed_report(fvector, small: SemiSimplicialSet, right) -> dict:
    """Report of the ordered model from ``model.collapsed_cover``: the
    f-vector ``fvector`` (the model's, or its collapse's for ``--collapse``),
    and ``small``, the collapsed orbit nerve labelled by lam, whose cover by
    ``right`` is a collapse of the model.  Homology
    is that of ``model.cover_chain_complex``: the orbit boundaries reduced
    over Z[S_k], where d^2 = 0 is checked, and only the residue lifted, on
    which ``ChainComplex`` checks it again.  Components depend on the
    monodromy of lam, not on the orbit nerve alone, so they come from the
    union-find on the cover's levels 0 and 1, lifted with no matrix."""
    skeleton = SemiSimplicialSet(small.labels[:2], small.faces[:2])
    return _report(
        fvector,
        cover_chain_complex(small, right),
        len(connected_components(cover(skeleton, right))),
    )


def _report(fvector, cc, components: int) -> dict:
    """Report of a model with f-vector ``fvector`` and ``components``
    components, whose homology is that of ``cc``, the chain complex of a
    collapse of it or one with the same homology.  A collapse can empty the
    top levels, so the homology is padded with zeros up to the model's
    dimension."""
    return {
        "fvector": list(fvector),
        "dimension": len(fvector) - 1 if fvector and fvector[0] else None,
        "euler": sum((-1) ** n * size for n, size in enumerate(fvector)),
        **_padded_homology(cc, len(fvector)),
        "components": components,
    }


def _abrams_report(q: AbramsComplex) -> dict:
    """Report of Abrams' complex from its orbit complex ``q``
    (``abrams_complex(g, k, quotient=True)``), with no ordered cube made
    outside the lift of the collapse.  ``validate_cover`` checks the whole
    ordered complex, its cover, on ``q`` (``nerve.validate_twists``).  The
    f-vector and Euler characteristic are k! times ``q``'s.  Homology is
    that of ``lift`` of ``q``'s free-face collapse, a collapse of the
    ordered complex (``nerve.lift_faces``); ``ChainComplex`` checks d^2 = 0
    on it.
    """
    validate_cover(q)
    width = factorial(q.k)
    return {
        "fvector": [width * size for size in q.fvector()],
        "euler": width * q.euler_characteristic(),
        **_padded_homology(cubical_chain_complex(lift(free_face_collapse(q))), len(q.cells)),
    }


def _padded_homology(cc, levels: int) -> dict:
    """Betti numbers and torsion of ``cc`` in ``levels`` dimensions, padded
    with zeros: a collapse can empty the top levels."""
    hom = homology(cc)
    pad = levels - len(hom.betti)
    return {
        "betti": hom.betti + [0] * pad,
        "torsion": hom.torsion + [[] for _ in range(pad)],
    }


def cmd_gen(args) -> dict:
    make, params = _FAMILIES[args.family]
    for p in _GEN_PARAMS:
        if p not in params and getattr(args, p) is not None:
            raise InputError(f"-{p} is not a parameter of the {args.family} family")
    values = []
    for p, (floor, limit) in params.items():
        value = floor if getattr(args, p) is None else getattr(args, p)
        if not floor <= value <= limit:
            raise InputError(f"parameter -{p} must be in [{floor}, {limit}] for {args.family}")
        values.append(value)
    return gr.graph_to_json(make(*values))


def _load(path: str) -> gr.Graph:
    try:
        return gr.load_graph(path)
    except InputError as exc:
        raise ValueError(str(exc)) from exc


def cmd_model(args) -> dict:
    g = _load(args.graph)
    if args.k < 1:
        raise InputError("k must be >= 1")
    if args.quotient:
        s = model_complex(g, args.k, drop_leaves=args.remove_leaves, quotient=True)
        return _report_of_complex(s, collapse=args.collapse)
    # the report reads neither chain order nor labels.  With --collapse the
    # f-vector is that of the collapse: k! times the collapsed orbit
    # nerve's, whose cover is a maximal free-face collapse of the model
    fvector, small, right = collapsed_cover(g, args.k, drop_leaves=args.remove_leaves)
    if args.collapse:
        fvector = [len(right) * n for n in small.fvector()]
    return _collapsed_report(fvector, small, right)


def _group_report(s: SemiSimplicialSet) -> dict:
    simplified = pi1.simplify(pi1.presentation(s))
    # Tietze moves keep the group, so its abelianization
    rank, torsion = pi1.abelianization(simplified)
    try:
        free = pi1.free_rank(s)
    except InputError:
        free = None
    return {
        "presentation": simplified.to_json(),
        "abelianization": {"rank": rank, "torsion": torsion},
        "free_rank": free,
    }


def cmd_braidgroup(args) -> dict:
    g = _load(args.graph)
    if args.k < 1:
        raise InputError("k must be >= 1")
    if args.remove_leaves:
        g = gr.remove_leaves(g)
    # one orbit nerve serves both sides: it is the unordered model, and the
    # ordered model is its cover, built once the unordered report is made;
    # the orbit category and the nerve's labels are freed before the ordered
    # report, which holds the job's peak memory
    cover = orbit_cover(g, args.k)
    unordered = _group_report(cover[4])
    ordered = ordered_nerve(cover)
    del cover
    return {"ordered": _group_report(ordered), "unordered": unordered}


def _same_padded(a: list, b: list, fill) -> bool:
    n = max(len(a), len(b))
    return a + [fill] * (n - len(a)) == b + [fill] * (n - len(b))


def cmd_compare(args) -> dict:
    g = _load(args.graph)
    if args.k < 1:
        raise InputError("k must be >= 1")
    n = args.subdivide if args.subdivide is not None else 1
    if n < 1:
        raise InputError("subdivision count must be >= 1")
    fine = gr.subdivide(g, n)
    conditions = check_abrams_conditions(fine, args.k)
    abrams_report = _abrams_report(abrams_complex(fine, args.k, quotient=True))
    model_report = _collapsed_report(*collapsed_cover(g, args.k, drop_leaves=args.remove_leaves))
    # the cross-check passes only on a subdivision where Abrams' complex is
    # homotopy-correct, and only if the whole homology agrees
    match = (
        conditions.ok
        and _same_padded(model_report["betti"], abrams_report["betti"], 0)
        and _same_padded(model_report["torsion"], abrams_report["torsion"], [])
    )
    return {
        "model": model_report,
        "abrams": abrams_report,
        "conditions": conditions.to_json(),
        "match": match,
    }


def cmd_reduced(args) -> dict:
    g = _load(args.graph)
    if args.k != 2:
        raise InputError("the reduced model is defined for k = 2 only")
    if args.remove_leaves:
        g = gr.remove_leaves(g)
    gc = build_reduced(g)
    if args.quotient:
        s = quotient_by_free_action(gc.complex, reduced_symmetric_action(gc))
        report = _report_of_complex(s)
    else:
        cc = glued_chain_complex(gc)
        hom = homology(cc)
        report = {
            "fvector": list(gc.fvector()),
            "euler": gc.euler_characteristic(),
            "betti": hom.betti,
            "torsion": hom.torsion,
            "components": len(connected_components(gc.complex)) if gc.vertices else 0,
            "cells": {
                "vertices": gc.vertices,
                "edges": [[eid, src, dst] for eid, src, dst in gc.edges],
                "faces": [[fid, [[e, s] for e, s in word]] for fid, word in gc.faces2],
            },
        }
    return report


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "model": cmd_model,
        "braidgroup": cmd_braidgroup,
        "compare": cmd_compare,
        "reduced": cmd_reduced,
    }
    try:
        _refuse_unused_flags(args)
        report = handlers[args.command](args)
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            if sys.stdout is None:  # started with fd 1 closed, where print writes nothing
                raise OSError("no standard output to write the report to")
            try:
                print(text, end="", flush=True)
            except OSError:
                sys.stdout.close()  # even if its flush fails, so exit does not flush again
                raise
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
