"""Outside-in tracer for graphconf: spans and counters without touching src/.

A probe wraps one function by rebinding every ``graphconf.*`` module
attribute that is bound to it.  Several modules import functions by name
(``cli``, ``pi1``, ``reduced``, ``model`` and the package itself), so
patching only the defining module would miss calls.  Private helpers that
are reached through module globals (``_unit_pivot_sweep``, ``_dense_smith``,
``_product_is_zero``) are wrapped the same way.

A timed probe records a span: its self time is its duration minus the time
covered by timed probes it calls.  A counting probe only counts calls and
looks at results; ``act_on_cell`` runs about 285k times per pass, so timing
each call would swamp what it measures.  A probe whose function no longer
exists is skipped and reads as zero.
"""

import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


def _sum_levels(levels) -> int:
    return sum(len(level) for level in levels)


def _nnz(matrix) -> int:
    if isinstance(matrix, dict):
        return sum(1 for v in matrix.values() if v)
    return sum(1 for row in matrix for v in row if v)


def _obs_config_cells(c, args, result):
    c["cells.config_cells"] += len(result)


def _obs_braid_cells(c, args, result):
    c["cells.braid_cells"] += len(result)


def _obs_face_category(c, args, result):
    c["model.morphisms"] += len(result.morphisms)


def _obs_build_nerve(c, args, result):
    c["nerve.chains"] += _sum_levels(result.labels)


def _obs_quotient(c, args, result):
    c["nerve.quotient_in"] += _sum_levels(args[0].labels)
    c["nerve.quotient_out"] += _sum_levels(result.labels)


def _obs_collapse(c, args, result):
    c["nerve.collapsed_pairs"] += (_sum_levels(args[0].labels) - _sum_levels(result.labels)) // 2


def _obs_snf(c, args, result):
    c["homology.boundary_nnz"] += _nnz(args[0])
    c["homology.rank"] += result[1]


def _obs_sweep(c, args, result):
    c["homology.unit_pivots"] += result[0]
    c["homology.core_entries"] += len(result[1])


def _obs_simplify(c, args, result):
    c["pi1.generators_in"] += len(args[0].generators)
    c["pi1.generators_out"] += len(result.generators)


def _obs_abrams(c, args, result):
    c["abrams.cells"] += _sum_levels(result.cells)


@dataclass(frozen=True)
class Probe:
    module: str  # graphconf submodule that defines the function
    function: str
    name: str  # metric prefix
    timed: bool = True
    observe: Callable | None = None


PROBES = [
    Probe("cells", "configuration_cells", "cells.configuration_cells", observe=_obs_config_cells),
    Probe("cells", "enumerate_braid_cells", "cells.enumerate_braid_cells", False, _obs_braid_cells),
    Probe("cells", "act_on_cell", "cells.act_on_cell", False),
    Probe("model", "face_category", "model.face_category", observe=_obs_face_category),
    Probe("model", "symmetric_action", "model.symmetric_action"),
    Probe("nerve", "build_nerve", "nerve.build_nerve", observe=_obs_build_nerve),
    Probe("nerve", "quotient_by_free_action", "nerve.quotient_by_free_action", observe=_obs_quotient),
    Probe("nerve", "collapse_free_faces", "nerve.collapse_free_faces", observe=_obs_collapse),
    Probe("homology", "chain_complex", "homology.chain_complex"),
    Probe("homology", "_product_is_zero", "homology.d2_check"),
    Probe("homology", "smith_normal_form", "homology.smith_normal_form", observe=_obs_snf),
    Probe("homology", "_unit_pivot_sweep", "homology.unit_pivot_sweep", observe=_obs_sweep),
    Probe("homology", "_dense_smith", "homology.dense_smith"),
    Probe("pi1", "presentation", "pi1.presentation"),
    Probe("pi1", "simplify", "pi1.simplify", observe=_obs_simplify),
    Probe("pi1", "abelianization", "pi1.abelianization"),
    Probe("abrams", "abrams_complex", "abrams.abrams_complex", observe=_obs_abrams),
    Probe("abrams", "cubical_chain_complex", "abrams.cubical_chain_complex"),
    Probe("reduced", "build_reduced", "reduced.build_reduced"),
    Probe("reduced", "glued_chain_complex", "reduced.glued_chain_complex"),
    Probe("reduced", "reduced_symmetric_action", "reduced.reduced_symmetric_action"),
    Probe("graphs", "subdivide", "graphs.subdivide"),
    Probe("cli", "main", "cli.main"),
]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._children = []  # per open span: time covered by its child spans
        self._patches = []  # (module, attribute, original)

    def _wrap(self, fn, probe: Probe):
        name, observe = probe.name, probe.observe
        calls, counts = self.calls, self.counts

        if not probe.timed:
            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counts, args, result)
                return result
            return counted

        children, self_s = self._children, self.self_s

        def timed(*args, **kwargs):
            calls[name] += 1
            start = perf_counter()
            children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                self_s[name] += duration - children.pop()
            if observe is not None:
                observe(counts, args, result)
            if children:
                # the observer's own time is charged to nobody
                children[-1] += perf_counter() - start
            return result
        return timed

    def __enter__(self):
        """Rebind every graphconf module attribute bound to a probed function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "graphconf" or n.startswith("graphconf."))]
        for probe in self.probes:
            home = sys.modules.get(f"graphconf.{probe.module}")
            fn = getattr(home, probe.function, None)
            if not callable(fn):
                continue  # removed by a later change: reads as zero
            wrapper = self._wrap(fn, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False
