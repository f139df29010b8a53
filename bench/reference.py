"""A fixed reference kernel that times the machine, not deeplocus.

The sandbox this benchmark was defined on is shared: for seconds to
minutes at a time, all Python code in the process runs up to 1.8 times
slower.  So the run times this kernel in short bursts between ops.  The
kernel resembles the package's own profile: frozensets of polygon
chords, as in enumerate_triangulations; Fraction arithmetic; and the
rebuild of a side-to-triangle map, as in a surface flip.  The
median burst of a stretch of the run measures how fast the machine was
then.  Times are reported in reference units: as they would read on a
machine where the kernel takes REFERENCE_MS.

The kernel lives here, not in the package, so no change to deeplocus can
move it.  Garbage collection is off during a burst, so the size of the
package's heap does not leak into the reference either.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from typing import List

# about the kernel's time on the defining sandbox when its host is quiet
REFERENCE_MS = 2.5
CHORD_POLYGON = 8
# triangulations of the 8-gon: Catalan(6)
TRIANGULATIONS = 132


def _chords(vertices):
    if len(vertices) <= 3:
        yield frozenset()
        return
    first, last = vertices[0], vertices[-1]
    for t in range(1, len(vertices) - 1):
        new = frozenset(((first, vertices[t]), (vertices[t], last)))
        for left in _chords(vertices[: t + 1]):
            for right in _chords(vertices[t:]):
                yield left | right | new


def _rebuilds(steps: int = 30, triangles: int = 20) -> int:
    """Rotate one triangle and rebuild the side-to-triangle map, as a
    surface flip rebuilds its complex."""
    tris = [(3 * k, 3 * k + 1, 3 * k + 2) for k in range(triangles)]
    glue = {s: s ^ 1 for s in range(3 * triangles)}
    arcs: dict = {}
    for step in range(steps):
        t = step % triangles
        tris = [tri if k != t else (tri[1], tri[2], tri[0]) for k, tri in enumerate(tris)]
        arcs = {min(s, glue[s]): k for k, tri in enumerate(tris) for s in tri}
    return len(arcs)


def kernel() -> int:
    """Triangulations found; the rebuild and Fraction parts only take time."""
    found = set(_chords(tuple(range(CHORD_POLYGON))))
    acc = Fraction(0)
    for i in range(1, 300):
        acc = acc + Fraction(i % 7 + 1, i % 5 + 1) * Fraction(3, i % 11 + 1)
    _rebuilds()
    return len(found)


class Reference:
    """Kernel burst times of one run, in ms."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def burst(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            found = kernel()
            ms = (time.perf_counter_ns() - t0) / 1e6
        finally:
            if enabled:
                gc.enable()
        if found != TRIANGULATIONS:
            raise RuntimeError(f"reference kernel found {found} triangulations")
        self.samples.append(ms)
        return ms

    def scale(self) -> float:
        """Factor from this run's times to reference units."""
        return scale(self.samples)


def scale(samples: List[float]) -> float:
    """Factor from times measured alongside these kernel bursts to
    reference units: REFERENCE_MS over the median burst."""
    return REFERENCE_MS / statistics.median(samples)
