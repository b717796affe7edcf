"""A fixed reference workload that measures how fast the core runs right now.

The host this benchmark was written on shares its cores with other machines:
the speed of the core moves by up to 1.7x, in phases of a few seconds to
minutes (see ``README.md``).  A run's median op time then depends mostly on
how much of the run fell into slow phases.  So each op is timed next to this
reference, which does the same kind of work as pvreflect's hot paths (a small
p-variation DP on numpy rows and float formatting) but calls no pvreflect
code, and the end-to-end times are scaled to the speed at which one call of
:func:`reference` takes :data:`NOMINAL_S`.  A change to pvreflect moves the
scaled times exactly as it moves the wall times; a change of core speed moves
both the op and the reference, and cancels.
"""

from __future__ import annotations

import time

import numpy as np

#: scaled times read as the time on a core on which :func:`reference` takes
#: this long
NOMINAL_S = 0.05

#: a fixed 2-d path of 160 points
_VALS = np.stack([np.cos(np.arange(160) * 0.37), np.sin(np.arange(160) * 0.11)], axis=1)
_REPEATS = 14


def reference() -> float:
    """Seconds taken by a fixed amount of interpreter and small-numpy work."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        best = np.zeros(len(_VALS))
        for j in range(1, len(_VALS)):
            diffs = _VALS[:j] - _VALS[j]
            dist = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
            best[j] = np.max(best[:j] + dist ** 2.5)
        ",".join(f"{x:.17g}" for x in np.concatenate([best, _VALS.ravel()]))
    return time.perf_counter() - start
