"""Machine-speed reference for the benchmark's times.

On a shared machine the speed of pure-Python code drifts by tens of percent
over seconds to minutes, because of other tenants.  A run that happens to
fall in a slow phase would read as a slower program.  So a fixed kernel,
owned by the harness and not touched by changes to graphconf, is timed
between jobs throughout a run.  Reported times are the measured times
multiplied by ``REFERENCE_S`` / (mean kernel time in that run): seconds at
the machine speed at which one kernel call takes ``REFERENCE_S``.
"""

from time import perf_counter

REFERENCE_S = 0.015  # about the kernel's time on a 2-core x86-64 container, Python 3.11


def kernel() -> int:
    """Dict, tuple and sort work: the mix that dominates graphconf."""
    table = {}
    for i in range(15000):
        key = (i % 97, i % 89, i)
        table[key] = table.get(key[:2], 0) + 1
    return len(sorted(table, key=lambda t: (t[1], t[0])))


class Meter:
    """Kernel timings collected over one run."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def sample(self, budget: float) -> None:
        """Time kernel calls until ``budget`` seconds are spent, at least two."""
        spent, calls = 0.0, 0
        while calls < 2 or spent < budget:
            start = perf_counter()
            kernel()
            spent += perf_counter() - start
            calls += 1
        self.seconds += spent
        self.calls += calls

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get reference seconds."""
        return REFERENCE_S * self.calls / self.seconds
