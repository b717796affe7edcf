"""Euler schemes for reflected equations driven by step paths.

The equation solved is

    x_t = x_0 + int_0^t f(x_{s-}) da_s + int_0^t g(x_{s-}) dz_s + k_t,

with componentwise reflection at a lower barrier ``l``.  One Euler step over
a partition ``{t_k}`` reads

    dy_{k+1} = f(x_k) * (a_{t_{k+1}} - a_{t_k}) + g(x_k) @ (z_{t_{k+1}} - z_{t_k})
    x_{k+1}  = max(x_k + dy_{k+1}, l_{t_{k+1}})          (componentwise)
    k_{k+1}  = k_k + (x_{k+1} - x_k) - dy_{k+1},

i.e. the discrete reflection recursion; the regulator is stored as
``k = x - y`` with ``y`` the accumulated drift+noise sums, which is the same
quantity with exact additivity in floating point.

Both schemes advance by mesh 1/n on `pathcore.jump_adapted_times`; the
adaptive one also stops at every driver/barrier jump larger than 1/n.
`euler_batch` runs the recursion for R problems at once on an ``(R, d)``
state: each time step is one numpy step, with one call of ``f`` and one of
``g`` on the rows of every replicate whose own partition is not yet done, so
each replicate gets exactly the values it would get alone.
`euler_uniform` and `euler_adaptive` are its R = 1 case.
`refinement_ladder` runs it at n0, 2*n0, ... with the sup-distance between
successive iterates (on the coarser grid); `solve` stops the ladder once that
drops below a tolerance.  No convergence rate is assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .checks import InequalityCheck, check
from .errors import (
    CoefficientEvaluationFailure,
    DimensionMismatch,
    InadmissibleStart,
    InvalidP,
    InvalidParameter,
    NoConvergence,
    PartitionOverflow,
)
from .pathcore import (STEP_CAP, StepPath, TimeGrid, _increment_norms, jump_adapted_times,
                       sup_norm, variation_norm, variation_norms)
from .skorokhod import Reflection

__all__ = [
    "Coefficients",
    "Problem",
    "Solution",
    "AprioriReport",
    "euler_uniform",
    "euler_adaptive",
    "euler_batch",
    "refinement_ladder",
    "solve",
    "solution_gap",
    "with_vbar_p_x",
    "a_priori_check",
]


@dataclass(frozen=True)
class Coefficients:
    """Drift ``f: R^d -> R^d`` and noise ``g: R^d -> R^(d x d)``, on batches.

    Both take states of shape ``(R, d)``, one row per replicate, with any
    ``R >= 1``.  ``f`` returns ``(R, d)`` and ``g`` returns ``(R, d, d)``, row
    ``r`` being the value at state row ``r``; a row's value must not depend
    on the other rows.  Nothing about their regularity is assumed or
    verified: every batch of values is checked for shape and finiteness when
    the scheme evaluates it, and the solver simply reports non-convergence
    when the functions are too rough.
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """Reflected equation instance: start point, drivers, barrier, exponent."""

    x0: np.ndarray
    a: StepPath
    z: StepPath
    l: StepPath
    coeffs: Coefficients
    p: float
    horizon: float | None = None

    def __post_init__(self) -> None:
        x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "x0", x0)
        if not 1.0 <= self.p < np.inf:
            raise InvalidP(f"p must be finite and >= 1, got {self.p}")
        if self.a.dim != 1:
            raise DimensionMismatch("finite-variation driver a must be scalar")
        d = x0.size
        if self.z.dim != d or self.l.dim != d:
            raise DimensionMismatch(
                f"x0 has dim {d}, z dim {self.z.dim}, l dim {self.l.dim}"
            )
        if np.any(x0 < self.l.eval(0.0)):
            raise InadmissibleStart("x0 must start at or above the barrier")
        horizon = self.horizon
        if horizon is None:
            horizon = max(self.a.end_time, self.z.end_time, self.l.end_time)
        horizon = float(horizon)
        if horizon <= 0.0:
            raise InvalidParameter(
                "no positive horizon: pass horizon= or use drivers with end_time > 0"
            )
        object.__setattr__(self, "horizon", horizon)

    @property
    def dim(self) -> int:
        return int(self.x0.size)


@dataclass(frozen=True)
class Solution:
    """Scheme output: the reflected pair on the scheme grid plus diagnostics."""

    reflection: Reflection
    scheme: str
    n: int
    diagnostics: dict[str, float] = field(default_factory=dict)

    @property
    def x(self) -> StepPath:
        return self.reflection.x

    @property
    def k(self) -> StepPath:
        return self.reflection.k


def _big_jump_times(problem: Problem, threshold: float) -> np.ndarray:
    cut = []
    for path in (problem.a, problem.z, problem.l):
        times, incr = path.jumps()
        sizes = _increment_norms(incr)
        cut.append(times[(sizes > threshold) & (times <= problem.horizon)])
    return np.unique(np.concatenate(cut))


def _partition(horizon: float, n: int, jumps: np.ndarray, step_cap: int) -> np.ndarray:
    times = jump_adapted_times(horizon, n, jumps, step_cap)
    return np.append(times, horizon) if times[-1] < horizon else times


def _eval_coefficient(func, states: np.ndarray, shape: tuple[int, ...], label: str):
    value = np.asarray(func(states), dtype=float)
    if value.shape != shape:
        raise CoefficientEvaluationFailure(
            f"{label} returned shape {value.shape} on states of shape "
            f"{states.shape}, expected {shape}"
        )
    if not np.isfinite(value).all():
        raise CoefficientEvaluationFailure(f"{label} is not finite on states {states}")
    return value


def _run_recursion(problems: list[Problem], partitions: list[np.ndarray],
                   scheme: str, n: int) -> list[Solution]:
    d = problems[0].dim
    sizes = np.array([times.size for times in partitions])
    # slots hold the replicates longest partition first: at step j the
    # replicates still running are the first c slots, c = #{sizes > j}
    order = np.argsort(-sizes, kind="stable")
    ends = sizes[order].tolist()
    m = ends[0]
    # row j - 1 holds the increments of step j and the barrier at its end
    da = np.zeros((m - 1, len(problems), 1))
    dz = np.zeros((m - 1, len(problems), d, 1))
    l_end = np.zeros((m - 1, len(problems), d))
    x = np.zeros((m, len(problems), d))
    barriers = []
    for slot, r in enumerate(order):
        problem, times = problems[r], partitions[r]
        l_s = problem.l.eval(times)
        da[: times.size - 1, slot, 0] = np.diff(problem.a.eval(times)[:, 0])
        dz[: times.size - 1, slot, :, 0] = np.diff(problem.z.eval(times), axis=0)
        l_end[: times.size - 1, slot] = l_s[1:]
        x[0, slot] = problem.x0
        barriers.append(l_s)
    y = x.copy()
    f, g = problems[0].coeffs.f, problems[0].coeffs.g
    start = 1
    for c in range(len(problems), 0, -1):
        # steps start .. ends[c - 1] - 1 advance exactly the first c slots
        xs, ys, das, dzs, ls = x[:, :c], y[:, :c], da[:, :c], dz[:, :c], l_end[:, :c]
        for j in range(start, ends[c - 1]):
            prev = xs[j - 1]
            fv = _eval_coefficient(f, prev, (c, d), "f")
            gv = _eval_coefficient(g, prev, (c, d, d), "g")
            dy = fv * das[j - 1] + (gv @ dzs[j - 1])[..., 0]
            np.maximum(prev + dy, ls[j - 1], out=xs[j])
            np.add(ys[j - 1], dy, out=ys[j])
        start = ends[c - 1]
    solutions = [None] * len(problems)
    for slot, r in enumerate(order):
        size = partitions[r].size
        grid = TimeGrid(partitions[r])
        xs, ys = x[:size, slot], y[:size, slot]
        reflection = Reflection(
            x=StepPath(grid, xs),
            k=StepPath(grid, xs - ys),
            y=StepPath(grid, ys),
            l=StepPath(grid, barriers[slot]),
        )
        diagnostics = {
            "sup_k": sup_norm(reflection.k),
            "steps": float(size),
        }
        solutions[r] = Solution(reflection=reflection, scheme=scheme, n=n,
                                diagnostics=diagnostics)
    return solutions


def euler_batch(problems, n: int, scheme: str = "adaptive",
                step_cap: int = STEP_CAP) -> list[Solution]:
    """One Euler recursion for several problems; one `Solution` per problem.

    Each problem runs on its own partition of ``scheme`` (``"adaptive"`` or
    ``"uniform"``) and gets the solution `euler_adaptive` or `euler_uniform`
    gives it alone, bit for bit.  A time step advances every replicate whose
    partition is not yet done with one call of ``f`` and one of ``g`` on
    their ``(R, d)`` states, so every problem must carry the same
    `Coefficients` object.  Raises :class:`PartitionOverflow` before the
    batch arrays are allocated when R times the longest partition's step
    count exceeds ``step_cap``.
    """
    problems = list(problems)
    if n < 1:
        raise InvalidParameter("n must be >= 1")
    if scheme not in ("adaptive", "uniform"):
        raise InvalidParameter(f"scheme must be adaptive or uniform, got {scheme!r}")
    if not problems:
        raise InvalidParameter("a batch needs at least one problem")
    coeffs, d = problems[0].coeffs, problems[0].dim
    if any(problem.coeffs is not coeffs for problem in problems):
        raise InvalidParameter("a batch evaluates one Coefficients object; "
                               "every problem must carry it")
    if any(problem.dim != d for problem in problems):
        raise DimensionMismatch("every problem of a batch must have one dimension")
    partitions = []
    steps = 0
    for problem in problems:
        jumps = _big_jump_times(problem, 1.0 / n) if scheme == "adaptive" else np.empty(0)
        partitions.append(_partition(problem.horizon, n, jumps, step_cap))
        steps = max(steps, partitions[-1].size - 1)
        if len(problems) * steps > step_cap:
            raise PartitionOverflow(
                f"{len(problems)} replicates of up to {steps} steps exceed {step_cap}"
            )
    return _run_recursion(problems, partitions, scheme, n)


def euler_uniform(problem: Problem, n: int) -> Solution:
    """Euler scheme on the uniform mesh-1/n partition of [0, horizon]."""
    return euler_batch([problem], n, "uniform")[0]


def euler_adaptive(problem: Problem, n: int, step_cap: int = STEP_CAP) -> Solution:
    """Euler scheme on the jump-adaptive partition.

    The partition advances by mesh 1/n but stops exactly at every jump of
    ``a``, ``z`` or ``l`` whose size exceeds 1/n, so large jumps are applied
    in a single step.  With no such jumps it coincides with the uniform grid.
    Raises :class:`PartitionOverflow` when it would have more than
    ``step_cap`` points before the horizon.
    """
    return euler_batch([problem], n, "adaptive", step_cap)[0]


def solution_gap(fine: Solution, coarse: Solution) -> float:
    """Sup distance of (x, k) between refinement levels, on the coarser grid."""
    ts = coarse.reflection.times
    gaps = []
    for attr in ("x", "k"):
        fine_vals = getattr(fine.reflection, attr).eval(ts)
        coarse_vals = getattr(coarse.reflection, attr).values
        gaps.append(float(_increment_norms(fine_vals - coarse_vals).max()))
    return max(gaps)


def with_vbar_p_x(solutions, p: float) -> list[Solution]:
    """The solutions with ``vbar_p_x``, the variation norm of x, in their diagnostics.

    One stacked p-variation DP serves every solution.  The schemes leave the
    norm out, because `solve` discards every level but the last and a
    refinement ladder reports none; callers compute it only for the
    solutions they report.
    """
    solutions = list(solutions)
    norms = variation_norms([solution.x for solution in solutions], p)
    return [replace(solution, diagnostics=dict(solution.diagnostics, vbar_p_x=norm))
            for solution, norm in zip(solutions, norms)]


def refinement_ladder(problem: Problem, n0: int, step_cap: int = STEP_CAP):
    """Yield ``(solution, gap)`` for the adaptive scheme at n0, 2*n0, 4*n0, ...

    ``gap`` is the `solution_gap` to the level before, ``None`` at n0.  Each
    level is computed only when it is asked for.
    """
    if n0 < 1:
        raise InvalidParameter("n0 must be >= 1")
    prev = None
    for level in itertools.count():
        cur = euler_adaptive(problem, n0 * 2**level, step_cap)
        yield cur, (None if prev is None else solution_gap(cur, prev))
        prev = cur


def solve(problem: Problem, tol: float, n0: int,
          max_doublings: int = 14, step_cap: int = STEP_CAP) -> Solution:
    """Adaptive scheme with a posteriori refinement control.

    Walks `refinement_ladder` from n0 and stops once the sup-distance
    between successive iterates falls below ``tol``, returning the finest
    solution with the achieved gap recorded in ``diagnostics``.
    Raises :class:`NoConvergence` after ``max_doublings`` refinements, which
    signals non-regular coefficients or an unreachable tolerance.
    """
    if tol < 0.0:
        raise InvalidParameter("tol must be >= 0")
    ladder = refinement_ladder(problem, n0, step_cap)
    for cur, gap in itertools.islice(ladder, 1, max_doublings + 1):
        if gap < tol:
            diagnostics = dict(cur.diagnostics)
            diagnostics["cauchy_gap"] = gap
            return Solution(cur.reflection, cur.scheme, cur.n, diagnostics)
    raise NoConvergence(
        f"no Cauchy gap below {tol} within {max_doublings} doublings from n0={n0}"
    )


@dataclass(frozen=True)
class AprioriReport:
    """A-priori size bounds evaluated on a scheme output."""

    checks: tuple[InequalityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def a_priori_check(solution: Solution, problem: Problem) -> AprioriReport:
    """Verify the regulator and state bounds implied by the reflection map.

    With ``y`` the accumulated drift+noise path of the scheme:

    * ``Vbar_p(k) <= d * (sup|y| + sup|l|)``
    * ``Vbar_p(x) <= (d+1) * Vbar_p(y) + d * sup|l|``
    """
    d = problem.dim
    p = problem.p
    r = solution.reflection
    sup_l = sup_norm(problem.l)
    sup_y = sup_norm(r.y)
    rows = (
        check("regulator_vbar_bound", variation_norm(r.k, p), d * (sup_y + sup_l)),
        check("state_vbar_bound", variation_norm(r.x, p),
              (d + 1) * variation_norm(r.y, p) + d * sup_l),
    )
    return AprioriReport(checks=rows)
