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
`euler_batch` runs the recursion for R problems at once, in sweeps that each
call ``f`` and ``g`` once on ``_SWEEP_ROWS`` rows split over the replicates:
each one's last exact row, then guesses.  The step ``max(x + dy, l)`` from a
row is exact when the row is, and a replicate commits its rows up to the
first guess that differs in its bits from the step from the row before
it.  The map ``x = Gamma(x0 + sum f(x) da + g(x) dz)``, with ``Gamma`` the
running-max reflection, contracts on windows where the driver varies little
(the source paper's Lipschitz estimate for ``Gamma`` in p-variation), so the
guesses, rebuilt each sweep from the new increments, settle a window at a
time; a sweep commits at least one row of each replicate whatever they do.
Each replicate therefore gets, bit for bit, the values the one-step loop
gives it alone.  `euler_uniform` and `euler_adaptive` are its R = 1 case.
`refinement_ladder` runs it at n0, 2*n0, ... with the sup-distance between
successive iterates (on the coarser grid); `solve` stops the ladder once that
drops below a tolerance.  No convergence rate is assumed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .checks import InequalityCheck, check
from .errors import (
    CoefficientEvaluationFailure,
    DimensionMismatch,
    InadmissibleStart,
    InvalidParameter,
    NoConvergence,
    PartitionOverflow,
)
from .pathcore import (STEP_CAP, StepPath, TimeGrid, _check_count, _check_p, _derived,
                       _increment_norms, jump_adapted_times, sup_norm, variation_norm,
                       variation_norms)
from .skorokhod import Reflection

__all__ = [
    "Coefficients",
    "Problem",
    "Solution",
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

    Both take states of shape ``(N, d)``, one row per state, with any
    ``N >= 1``.  ``f`` returns ``(N, d)`` and ``g`` returns ``(N, d, d)``, row
    ``i`` being the value at state row ``i``.  A row's value must not depend
    on the other rows, bit for bit: the scheme evaluates the same state in
    batches of different sizes.  The scheme also evaluates them at guessed
    states that are not on the solution's path, so both must be defined on
    all of R^d; a value that is not finite there is never used.  Nothing
    about their regularity is assumed or verified: every batch is checked
    for shape, a value that is not finite at a state of the path raises
    `CoefficientEvaluationFailure`, and the solver simply reports
    non-convergence when the functions are too rough.
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
        _check_p(self.p)
        if self.a.dim != 1:
            raise DimensionMismatch("finite-variation driver a must be scalar")
        d = x0.size
        if self.z.dim != d or self.l.dim != d:
            raise DimensionMismatch(
                f"x0 has dim {d}, z dim {self.z.dim}, l dim {self.l.dim}"
            )
        if not (np.isfinite(x0).all() and (x0 >= self.l.eval(0.0)).all()):
            raise InadmissibleStart("x0 must be finite and at or above the barrier")
        horizon = self.horizon
        if horizon is None:
            horizon = max(self.a.end_time, self.z.end_time, self.l.end_time)
        horizon = float(horizon)
        if not math.isfinite(horizon):
            raise InvalidParameter(f"horizon must be finite, got {horizon}")
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


#: the most rows one sweep of `_run_recursion` evaluates, over all replicates.
#: On 8 `refine` ladders 1024 rows took 1.16 of 2048's time and 4096 0.93, but
#: 4096 doubles the rows a sweep can waste on rough coefficients
_SWEEP_ROWS = 2048


def _eval_coefficient(func, states: np.ndarray, shape: tuple[int, ...], label: str):
    value = np.asarray(func(states), dtype=float)
    if value.shape != shape:
        raise CoefficientEvaluationFailure(
            f"{label} returned shape {value.shape} on states of shape "
            f"{states.shape}, expected {shape}"
        )
    return value


def _sweep_guesses(start: np.ndarray, step: np.ndarray, l_rows: np.ndarray):
    """The guesses a sweep leaves, ``(R, W, d)``: each replicate's increments
    summed from its exact row and reflected at the barrier by the running
    maximum of the deficit, as the Skorokhod map does.  Also whether any sum
    fell below the barrier; until one does, the guesses are the loop's steps
    bit for bit.  Sums in ``step``."""
    step[:, 0] += start
    sums = np.add.accumulate(step, axis=1, out=step)
    deficit = l_rows - sums
    reflected = (deficit > 0.0).any()
    if reflected:
        sums += np.maximum(np.maximum.accumulate(deficit, axis=1, out=deficit), 0.0)
    return np.maximum(sums, l_rows, out=sums), reflected


def _run_recursion(problems: list[Problem], partitions: list[np.ndarray],
                   scheme: str, n: int) -> list[Solution]:
    """The Euler recursion of every problem, bit for bit, in sweeps.

    A sweep evaluates ``f`` and ``g`` once, on a window of ``width`` rows of
    every replicate not yet done: its last exact row, then the guesses that
    earlier sweeps left, then copies of its last guess.  From each evaluated
    row it takes the loop's step ``max(x + dy, l)``, which is exact whenever
    that row is.  A replicate commits its rows up to the first guess that
    differs in its bits from the step taken from its predecessor (the step
    itself is still exact), so every sweep commits at least one row per
    replicate.  The uncommitted rows get new guesses from the running sums
    of the new increments.  Every sweep is as wide as it may be:
    ``_SWEEP_ROWS`` over the replicates still running, capped at the rows the
    longest has left; `refine`'s 8 levels take 150 sweeps, not the 300 of
    windows that start at one row and halve after poor sweeps.  Rough
    coefficients on coarse steps waste most of each window: for d = 1,
    ``g = diag(1 + 0.3 sin(200 x))`` and n = 4,096 driver steps, 3.5-3.9
    times those rows in 0.75-1.17 times the time (1.0-2.0 with a ``g`` 20
    numpy passes dearer).
    """
    d = problems[0].dim
    count = len(problems)
    sizes = np.array([times.size for times in partitions])
    m = int(sizes.max())
    # replicate r owns rows r * m .. r * m + m - 1; its row j holds x_j, dy_j,
    # and the increments of step j + 1 with the barrier at its end.  The row
    # after them all takes what windows reaching past a replicate's end write
    spare = count * m
    da = np.zeros((spare + 1, 1))
    dz = np.zeros((spare + 1, d, 1))
    l_next = np.zeros((spare + 1, d))
    x = np.zeros((spare + 1, d))
    dy = np.zeros((spare + 1, d))
    barriers = []
    for r, (problem, times) in enumerate(zip(problems, partitions)):
        l_s = problem.l.eval(times)
        steps = slice(r * m, r * m + times.size - 1)
        da[steps, 0] = np.diff(problem.a.eval(times)[:, 0])
        dz[steps, :, 0] = np.diff(problem.z.eval(times), axis=0)
        l_next[steps] = l_s[1:]
        x[r * m] = dy[r * m] = problem.x0
        barriers.append(l_s)
    f, g = problems[0].coeffs.f, problems[0].coeffs.g
    # one opaque item per row, so that copying rows by index moves each once
    row = np.dtype((np.void, x.itemsize * d))
    x_rows, dy_rows = x.view(row)[:, 0], dy.view(row)[:, 0]
    # the replicates not yet done: rows up to done hold the exact recursion,
    # rows past held hold no value yet, and last is the row of the last step
    last = np.arange(count) * m + sizes - 2
    done = last - sizes + 2
    held = done.copy()
    while done.size:
        width = max(1, min(_SWEEP_ROWS // done.size, int((last - done).max()) + 1))
        rows = done[:, None] + np.arange(width)
        targets = rows + 1
        if (done + (width - 1) > last).any():
            # rows past a replicate's last step repeat it and write to the spare row
            targets[rows > last[:, None]] = spare
            np.minimum(rows, last[:, None], out=rows)
        states = x.take(np.minimum(rows, held[:, None]).ravel(), axis=0)
        fv = _eval_coefficient(f, states, (rows.size, d), "f")
        gv = _eval_coefficient(g, states, (rows.size, d, d), "g")
        # the arithmetic on guessed rows may overflow; the sequential
        # recursion only ever sees the committed rows
        with np.errstate(all="ignore"):
            flat = rows.ravel()
            step = fv * da.take(flat, axis=0) + (gv @ dz.take(flat, axis=0))[..., 0]
            l_rows = l_next.take(flat, axis=0)
            exact = np.maximum(states + step, l_rows)
            # differs[r, j]: the guess of row j + 1 is not the step from row j;
            # the window's last row ends a commit
            differs = np.empty(states.size, dtype=bool)
            np.not_equal(states.view(np.int64).ravel()[d:],
                         exact.view(np.int64).ravel()[:-d], out=differs[:-d])
            differs = differs.reshape(*rows.shape, d)
            differs[:, -1, 0] = True
            commit = differs.reshape(len(rows), -1).argmax(axis=1) // d + 1
            committed = np.arange(width) < commit[:, None]
            # a value that is not finite stops the loop only at a state it
            # evaluates: here, a row that is committed
            if not np.isfinite(fv.sum() + gv.sum()):
                finite = np.isfinite(fv).all(axis=1)
                bad = np.flatnonzero(committed.ravel()
                                     & ~(finite & np.isfinite(gv).all(axis=(1, 2))))
                if bad.size:
                    raise CoefficientEvaluationFailure(
                        f"{'g' if finite[bad[0]] else 'f'} is not finite on state "
                        f"{states[bad[0]]}")
            # every sweep writes all its rows; the one that commits a row
            # writes it last
            dy_rows[targets.ravel()] = step.view(row)[:, 0]
            exact, step = exact.reshape(*rows.shape, d), step.reshape(*rows.shape, d)
            guess, reflected = _sweep_guesses(x.take(done, axis=0), step,
                                              l_rows.reshape(*rows.shape, d))
            if reflected:
                guess[committed] = exact[committed]
            x_rows[targets.ravel()] = guess.reshape(-1, d).view(row)[:, 0]
        held = np.maximum(held, np.minimum(done + width, last + 1))
        done = done + commit
        running = done <= last
        if not running.all():
            done, held, last = done[running], held[running], last[running]
    x, y = x[:spare].reshape(count, m, d), dy[:spare].reshape(count, m, d)
    np.add.accumulate(y, axis=1, out=y)  # the running sums of dy from y_0 = x0
    solutions = [None] * count
    for r, times in enumerate(partitions):
        # the partition's points are rounded sums, so their order is checked
        grid = TimeGrid(times)
        # copies: views would keep the batch arrays alive, and a caller's
        # p-variation DP would then fault in fresh pages for its own.  The
        # steps and sums can overflow, and k = x - y is finite only when x
        # and y are; the barrier was read off a checked path
        xs, ys = x[r, :times.size].copy(), y[r, :times.size].copy()
        reflection = Reflection(
            x=_derived(StepPath, grid, xs),
            k=_derived(StepPath, grid, xs - ys, check_finite=True),
            y=_derived(StepPath, grid, ys),
            l=_derived(StepPath, grid, barriers[r]),
        )
        diagnostics = {
            "sup_k": sup_norm(reflection.k),
            "steps": float(times.size),
        }
        solutions[r] = Solution(reflection=reflection, scheme=scheme, n=n,
                                diagnostics=diagnostics)
    return solutions


def euler_batch(problems, n: int, scheme: str = "adaptive",
                step_cap: int = STEP_CAP) -> list[Solution]:
    """One Euler recursion for several problems; one `Solution` per problem.

    Each problem runs on its own partition of ``scheme`` (``"adaptive"`` or
    ``"uniform"``) and gets the solution `euler_adaptive` or `euler_uniform`
    gives it alone, bit for bit: the one-step loop's.  Each sweep of the
    recursion (see `_run_recursion`) makes one call of ``f`` and one of
    ``g`` on a window of rows of every replicate not yet done, so every
    problem must carry the same `Coefficients` object; there are at most as
    many sweeps as the longest partition has steps.  Raises
    :class:`PartitionOverflow` before the batch arrays are allocated when R
    times the longest partition's step count exceeds ``step_cap``, and
    :class:`CoefficientEvaluationFailure` when ``f`` or ``g`` returns the
    wrong shape, or a value that is not finite at a state of a solution,
    where the loop would stop.
    """
    problems = list(problems)
    _check_count("n", n)
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
    _check_count("n0", n0)
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
    solution with the achieved gap recorded in ``diagnostics``.  Raises
    :class:`NoConvergence` after ``max_doublings`` refinements (an integer
    >= 1), which signals non-regular coefficients or an unreachable tolerance.
    """
    if not tol >= 0.0:  # NaN fails this too
        raise InvalidParameter("tol must be >= 0")
    _check_count("max_doublings", max_doublings)
    ladder = refinement_ladder(problem, n0, step_cap)
    for cur, gap in itertools.islice(ladder, 1, max_doublings + 1):
        if gap < tol:
            diagnostics = dict(cur.diagnostics)
            diagnostics["cauchy_gap"] = gap
            return Solution(cur.reflection, cur.scheme, cur.n, diagnostics)
    raise NoConvergence(
        f"no Cauchy gap below {tol} within {max_doublings} doublings from n0={n0}"
    )


def a_priori_check(solution: Solution, problem: Problem) -> tuple[InequalityCheck, ...]:
    """The regulator and state bounds implied by the reflection map, one
    `InequalityCheck` each, with ``y`` the accumulated drift+noise path of
    the scheme:

    * ``Vbar_p(k) <= d * (sup|y| + sup|l|)``
    * ``Vbar_p(x) <= (d+1) * Vbar_p(y) + d * sup|l|``
    """
    d = problem.dim
    p = problem.p
    r = solution.reflection
    sup_l = sup_norm(problem.l)
    sup_y = sup_norm(r.y)
    return (
        check("regulator_vbar_bound", variation_norm(r.k, p), d * (sup_y + sup_l)),
        check("state_vbar_bound", variation_norm(r.x, p),
              (d + 1) * variation_norm(r.y, p) + d * sup_l),
    )
