"""Deterministic reflection at a time-dependent lower barrier.

Given an input path ``y`` and a barrier ``l`` with ``l_0 <= y_0``, the
reflection problem asks for ``x = y + k >= l`` where each component of the
regulator ``k`` is nondecreasing, starts at 0, and grows only while the
corresponding component of ``x`` sits on the barrier (complementarity).

On step paths the solution is closed form: componentwise

    k_t = max(0, sup_{s <= t} (l_s - y_s))

is a running maximum, so the solve is exact up to rounding.  Components are
fully decoupled; the d-dimensional problem is d scalar problems on a merged
grid.

:func:`check_estimates` evaluates the Lipschitz stability of the map
``(y, l) -> (x, k)`` in both the variation norm and the uniform norm and
returns each inequality as one `checks.InequalityCheck` row.  The
uniform-norm bounds (constants 2 and 1) are the classical componentwise
statements, so they are evaluated in the spatial sup norm; with the
Euclidean spatial norm those constants would pick up a dimension factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import InequalityCheck, check
from .errors import BarrierAboveStart, DimensionMismatch
from .pathcore import StepPath, _derived, align, sup_norm, variation_norms

__all__ = ["Reflection", "solve_sp", "check_estimates"]


@dataclass(frozen=True)
class Reflection:
    """Solution ``(x, k)`` of the reflection problem for ``(y, l)``.

    All four paths live on one merged grid.  The defect helpers quantify how
    far the stored paths are from the defining properties; on step inputs all
    of them are zero up to a few ulps.
    """

    x: StepPath
    k: StepPath
    y: StepPath
    l: StepPath

    @property
    def dim(self) -> int:
        return self.x.dim

    @property
    def times(self) -> np.ndarray:
        return self.x.times

    def additivity_gap(self) -> float:
        """sup |x - (y + k)|, componentwise max."""
        return float(np.abs(self.x.values - self.y.values - self.k.values).max())

    def floor_violation(self) -> float:
        """How far x dips below the barrier (0 when x >= l everywhere)."""
        return float(np.maximum(self.l.values - self.x.values, 0.0).max())

    def monotonicity_violation(self) -> float:
        """Size of the worst decrease of k, and of k_0 itself."""
        start = float(np.abs(self.k.values[0]).max())
        if len(self.k.times) < 2:
            return start
        worst = float(np.maximum(-np.diff(self.k.values, axis=0), 0.0).max())
        return max(start, worst)

    def complementarity_defect(self) -> float:
        """max_i |sum_t (x^i - l^i)_t * dk^i_t| — the regulator works only on the barrier."""
        if len(self.k.times) < 2:
            return 0.0
        dk = np.diff(self.k.values, axis=0)
        gap = (self.x.values - self.l.values)[1:]
        return float(np.abs(np.sum(gap * dk, axis=0)).max())

    def max_defect(self) -> float:
        return max(
            self.additivity_gap(),
            self.floor_violation(),
            self.monotonicity_violation(),
            self.complementarity_defect(),
        )


def solve_sp(y: StepPath, l: StepPath) -> Reflection:
    """Reflect ``y`` at the lower barrier ``l`` via the running-maximum formula."""
    if y.dim != l.dim:
        raise DimensionMismatch(f"input dim {y.dim} != barrier dim {l.dim}")
    y_al, l_al = align([y, l])
    shortfall = l_al.values[0] - y_al.values[0]
    if np.any(shortfall > 0.0):
        raise BarrierAboveStart(
            f"barrier exceeds start by {shortfall.max()} in some component"
        )
    k_vals = np.maximum(np.maximum.accumulate(l_al.values - y_al.values, axis=0), 0.0)
    x_vals = y_al.values + k_vals
    # y and l come from align, checked.  The sums can overflow, but k >= 0
    # and y is finite, so x = y + k is finite only when k is
    grid = y_al.grid
    return Reflection(
        x=_derived(StepPath, grid, x_vals, check_finite=True),
        k=_derived(StepPath, grid, k_vals),
        y=y_al,
        l=l_al,
    )


def _uniform_norm(path: StepPath) -> float:
    """sup over time of the largest component magnitude."""
    return float(np.abs(path.values).max())


def check_estimates(y: StepPath, l: StepPath, y2: StepPath, l2: StepPath,
                    p: float) -> tuple[InequalityCheck, ...]:
    """Evaluate the Lipschitz estimates of the reflection map on two problems.

    Returns one `InequalityCheck` per inequality, in this order:

    * ``state_vbar_lipschitz``     Vbar_p(x - x') <= (d+1) Vbar_p(y - y') + d Vbar_p(l - l')
    * ``regulator_vbar_lipschitz`` Vbar_p(k - k') <= d Vbar_p(y - y') + d Vbar_p(l - l')
    * ``state_sup_lipschitz``      sup|x - x'|    <= 2 sup|y - y'| + sup|l - l'|   (componentwise)
    * ``regulator_sup_lipschitz``  sup|k - k'|    <= sup|y - y'| + sup|l - l'|     (componentwise)
    * ``regulator_vbar_bound``     Vbar_p(k)      <= d sup|y| + d sup|l|           (each problem)
    """
    ya, la, y2a, l2a = align([y, l, y2, l2])
    r1 = solve_sp(ya, la)
    r2 = solve_sp(y2a, l2a)
    d = ya.dim

    dx = r1.x - r2.x
    dk = r1.k - r2.k
    dy = ya - y2a
    dl = la - l2a

    # the paths share one grid and dimension, so one stacked DP serves them
    vb_dx, vb_dk, vb_dy, vb_dl, vb_k1, vb_k2 = variation_norms([dx, dk, dy, dl, r1.k, r2.k], p)
    return (
        check("state_vbar_lipschitz", vb_dx, (d + 1) * vb_dy + d * vb_dl),
        check("regulator_vbar_lipschitz", vb_dk, d * vb_dy + d * vb_dl),
        check("state_sup_lipschitz", _uniform_norm(dx),
              2.0 * _uniform_norm(dy) + _uniform_norm(dl)),
        check("regulator_sup_lipschitz", _uniform_norm(dk),
              _uniform_norm(dy) + _uniform_norm(dl)),
        check("regulator_vbar_bound", vb_k1,
              d * (sup_norm(ya) + sup_norm(la))),
        check("regulator_vbar_bound_2", vb_k2,
              d * (sup_norm(y2a) + sup_norm(l2a))),
    )
