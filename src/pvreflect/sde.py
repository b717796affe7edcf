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
One walk runs it at n0, 2*n0, ... with the sup-distance between successive
iterates (on the coarser grid): `refinement_ladder` sweeps each level to its
end, `solve` only as far as that distance stays below a tolerance, up to the
first level where it does at every point.  No convergence rate is assumed.
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
    NonFiniteValue,
    PartitionOverflow,
)
from .pathcore import (STEP_CAP, StepPath, TimeGrid, _check_count, _check_p, _derived,
                       _increment_norms, _locate, jump_adapted_times, sup_norm,
                       variation_norm, variation_norms)
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


def _check_start(x0: np.ndarray, l: StepPath) -> None:
    if not (np.isfinite(x0).all() and (x0 >= l.eval(0.0)).all()):
        raise InadmissibleStart("x0 must be finite and at or above the barrier")


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
        _check_start(x0, self.l)
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


def _jump_table(problem: Problem) -> tuple[np.ndarray, np.ndarray]:
    """The jump times of ``a``, ``z`` and ``l`` up to the horizon and their
    sizes; a partition of mesh 1/n stops at the distinct times of size > 1/n."""
    jumps = [path.jumps() for path in (problem.a, problem.z, problem.l)]
    times = np.concatenate([at for at, _ in jumps])
    keep = times <= problem.horizon
    return times[keep], np.concatenate([_increment_norms(d) for _, d in jumps])[keep]


def _partition(horizon: float, n: int, jumps: np.ndarray, step_cap: int) -> np.ndarray:
    times = jump_adapted_times(horizon, n, jumps, step_cap)
    return np.append(times, horizon) if times[-1] < horizon else times


#: the most rows one sweep of `_Recursion` evaluates, over all replicates.
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


class _Recursion:
    """The Euler recursion of every problem, bit for bit, in sweeps that can pause.

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
    longest has left; `refine`'s 8 full levels take 150 sweeps, not the 300
    of windows that start at one row and halve after poor sweeps.  Rough
    coefficients on coarse steps waste most of each window: for d = 1,
    ``g = diag(1 + 0.3 sin(200 x))`` and n = 4,096 driver steps, 3.5-3.9
    times those rows in 0.75-1.17 times the time (1.0-2.0 with a ``g`` 20
    numpy passes dearer).  `advance` may pause between sweeps; the paused
    recursion keeps its guesses and resumes with the sweeps it would have made.
    """

    def __init__(self, problems: list[Problem], tables, scheme: str, n: int,
                 step_cap: int) -> None:
        # the one place partitions are built: each from its problem's `_jump_table`
        count, m, partitions, distinct = len(problems), 0, [], {}
        d = problems[0].dim
        for problem, (times, norms) in zip(problems, tables):
            partition = _partition(problem.horizon, n, np.unique(times[norms > 1.0 / n]), step_cap)
            # problems whose partitions coincide share one array, and so one grid
            partitions.append(distinct.setdefault(partition.tobytes(), partition))
            m = max(m, partition.size)
            # values of a batch array, refused before any is allocated
            if count * (m - 1) * d > step_cap:
                raise PartitionOverflow(
                    f"{count} replicates of up to {m - 1} steps of {d} values exceed {step_cap}")
        self.partitions, self.scheme, self.n = partitions, scheme, n
        self.coeffs = problems[0].coeffs
        sizes = np.array([times.size for times in partitions])
        # replicate r owns rows r * m .. r * m + m - 1; its row j holds x_j, dy_j,
        # and the increments of step j + 1 with the barrier at its end.  The row
        # after them all takes what windows reaching past a replicate's end write
        self.spare = spare = count * m
        self.da, self.dz = np.zeros((spare + 1, 1)), np.zeros((spare + 1, d, 1))
        self.l_next, self.x, self.dy = (np.zeros((spare + 1, d)) for _ in range(3))
        self.barriers = []
        for r, (problem, times) in enumerate(zip(problems, partitions)):
            l_s = problem.l.eval(times)
            steps = slice(r * m, r * m + times.size - 1)
            self.da[steps, 0] = np.diff(problem.a.eval(times)[:, 0])
            self.dz[steps, :, 0] = np.diff(problem.z.eval(times), axis=0)
            self.l_next[steps] = l_s[1:]
            self.x[r * m] = self.dy[r * m] = problem.x0
            self.barriers.append(l_s)
        # per replicate: rows up to done hold the exact recursion, rows past
        # held hold no value yet, last is the row of the last step, and dy
        # holds the running sums y up to row summed
        self.base = np.arange(count) * m
        self.last = self.base + sizes - 2
        self.done, self.held, self.summed = self.base.copy(), self.base.copy(), self.base.copy()
        self.live = np.arange(count)  # the replicates not yet done

    def advance(self, count: float = np.inf) -> None:
        """Sweep until each replicate has committed ``count`` rows or finished."""
        da, dz, l_next, x, dy, spare = self.da, self.dz, self.l_next, self.x, self.dy, self.spare
        d, f, g = x.shape[1], self.coeffs.f, self.coeffs.g
        # one opaque item per row, so that copying rows by index moves each once
        row = np.dtype((np.void, x.itemsize * d))
        x_rows, dy_rows = x.view(row)[:, 0], dy.view(row)[:, 0]
        live = self.live
        done, held, last = self.done[live], self.held[live], self.last[live]
        goal = np.minimum(self.base[live] + count - 1, last + 1)
        while (done < goal).any():
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
                self.done[live] = done
                live, done, held, last, goal = (v[running] for v in (live, done, held, last, goal))
        self.done[live], self.held[live], self.live = done, held, live

    def sums(self, r: int, rows: int) -> np.ndarray:
        """``y`` on replicate ``r``'s first ``rows`` rows, all committed: ``dy`` summed
        in place on from the last call; `NonFiniteValue` if ``x - y`` is not finite."""
        base, start = self.base[r], self.summed[r]
        ys = self.dy[start:base + rows]
        np.add.accumulate(ys, axis=0, out=ys)
        if not np.isfinite(self.x[start:base + rows] - ys).all():
            raise NonFiniteValue("path values must be finite")
        self.summed[r] = max(start, base + rows - 1)
        return self.dy[base:base + rows]

    def solutions(self) -> list[Solution]:
        """One `Solution` per replicate, each swept to its end."""
        self.advance()
        solutions, grids = [], {}
        for r, times in enumerate(self.partitions):
            # the partition's points are rounded sums, so their order is checked;
            # replicates that share a partition array share its grid
            if id(times) not in grids:
                grids[id(times)] = TimeGrid(times)
            grid = grids[id(times)]
            # copies: views would keep the batch arrays alive, and a caller's
            # p-variation DP would then fault in fresh pages for its own.
            # `sums` checked k, finite only where x and y are; l is a checked path's
            ys = self.sums(r, times.size).copy()
            xs = self.x[self.base[r]:self.base[r] + times.size].copy()
            reflection = Reflection(
                x=_derived(StepPath, grid, xs),
                k=_derived(StepPath, grid, xs - ys),
                y=_derived(StepPath, grid, ys),
                l=_derived(StepPath, grid, self.barriers[r]),
            )
            diagnostics = {"sup_k": sup_norm(reflection.k), "steps": float(times.size)}
            solutions.append(Solution(reflection=reflection, scheme=self.scheme, n=self.n,
                                      diagnostics=diagnostics))
        return solutions


def euler_batch(problems, n: int, scheme: str = "adaptive",
                step_cap: int = STEP_CAP) -> list[Solution]:
    """One Euler recursion for several problems; one `Solution` per problem.

    Each problem runs on its own partition of ``scheme`` (``"adaptive"`` or
    ``"uniform"``) and gets the solution `euler_adaptive` or `euler_uniform`
    gives it alone, bit for bit: the one-step loop's.  Each sweep of the
    recursion (see `_Recursion`) makes one call of ``f`` and one of
    ``g`` on a window of rows of every replicate not yet done, so every
    problem must carry the same `Coefficients` object; there are at most as
    many sweeps as the longest partition has steps.  Solutions whose
    partitions coincide share one `TimeGrid` object.  Raises
    :class:`PartitionOverflow` before the batch arrays are allocated when R
    times the longest partition's step count times d exceeds ``step_cap``, and
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
    tables = (_jump_table(p) if scheme == "adaptive" else (np.empty(0),) * 2 for p in problems)
    return _Recursion(problems, tables, scheme, n, step_cap).solutions()


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


def _sup_gap(fine_x, fine_k, coarse_x, coarse_k) -> float:
    """The largest norm of the differences of x and of k, 0 on no points."""
    return max(float(_increment_norms(fine_x - coarse_x).max(initial=0.0)),
               float(_increment_norms(fine_k - coarse_k).max(initial=0.0)))


def solution_gap(fine: Solution, coarse: Solution) -> float:
    """Sup distance of (x, k) between refinement levels, on the coarser grid."""
    ts = coarse.reflection.times
    return _sup_gap(fine.x.eval(ts), fine.k.eval(ts), coarse.x.values, coarse.k.values)


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


def _walk(problem: Problem, n0: int, tol: float, step_cap: int):
    """Yield ``(level, gap)``: `_Recursion`s of the adaptive scheme at n0, 2*n0,
    ... on one jump table, each built when asked for, n0 unswept with gap
    ``None``.  Each finer level is swept only as far as its Cauchy gap, folded
    in as the coarse points become known, stays below ``tol``; it is then the
    next level's coarse one, paused."""
    _check_count("n0", n0)
    tables = [_jump_table(problem)]
    coarse = _Recursion([problem], tables, "adaptive", n0, step_cap)
    yield coarse, None
    for doubling in itertools.count(1):
        fine = _Recursion([problem], tables, "adaptive", n0 * 2**doubling, step_cap)
        ft, ct = fine.partitions[0], coarse.partitions[0]
        gap, folded, rows = 0.0, 0, 1
        # the fine level doubles its committed rows between folds; a coarse point
        # is known once the fine level's first uncommitted time lies beyond it
        while gap < tol and folded < ct.size:
            fine.advance(2 * rows)
            rows = int(fine.done[0]) + 1
            known = ct.size if rows == ft.size else int(ct.searchsorted(ft[rows]))
            coarse.advance(known)
            at, new = _locate(ft, ct[folded:known]), slice(folded, known)
            fine_x, coarse_x = fine.x[at], coarse.x[new]
            gap = max(gap, _sup_gap(fine_x, fine_x - fine.sums(0, rows)[at],
                                    coarse_x, coarse_x - coarse.sums(0, known)[new]))
            folded = known
        yield fine, gap
        coarse = fine


def refinement_ladder(problem: Problem, n0: int, step_cap: int = STEP_CAP):
    """Yield ``(solution, gap)`` for the adaptive scheme at n0, 2*n0, 4*n0, ...:
    `_walk` with no tolerance, each level swept to its end when it is asked for,
    so the `euler_adaptive` solutions and their `solution_gap`s (``None`` at n0)."""
    # a level's folds stop early here only at an infinite gap, its gap over all points
    for level, gap in _walk(problem, n0, math.inf, step_cap):
        yield level.solutions()[0], gap


def _check_tol(tol: float) -> None:
    if not tol >= 0.0:  # NaN fails this too
        raise InvalidParameter("tol must be >= 0")


def solve(problem: Problem, tol: float, n0: int,
          max_doublings: int = 14, step_cap: int = STEP_CAP) -> Solution:
    """Adaptive scheme with a posteriori refinement control.

    Returns the first level of `refinement_ladder` past n0 whose Cauchy gap,
    its `solution_gap` to the level before, is below ``tol``, with the gap in
    ``diagnostics``.  Both walk `_walk`, but here a rejected level stops at
    its first point where the gap is not below ``tol`` (`refine`'s 8 levels
    take 101 sweeps, not 150), so `CoefficientEvaluationFailure` and
    `NonFiniteValue` come only from rows the walk commits.  Raises
    :class:`NoConvergence` after ``max_doublings`` refinements (an integer
    >= 1), which signals non-regular coefficients or an unreachable tolerance.
    """
    _check_tol(tol)
    _check_count("max_doublings", max_doublings)
    for doubling, (fine, gap) in zip(range(max_doublings + 1), _walk(problem, n0, tol, step_cap)):
        if doubling and gap < tol:
            (solution,) = fine.solutions()
            return replace(solution, diagnostics=dict(solution.diagnostics, cauchy_gap=gap))
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
