"""Cadlag step paths and their path functionals.

A step path is a right-continuous, piecewise-constant function of time with
finitely many breakpoints.  It is the universal representation here: every
driver, barrier and solution is a :class:`StepPath` (vector valued) or a
:class:`MatrixStepPath` (integrands for Stieltjes integration).  Continuous
signals are represented by fine sampling.

All functionals in this module (`p_variation`, `running_max`, `oscillation`,
`coarsen_jump_adapted`, ...) are exact on step paths: the supremum over
subdivisions that defines p-variation reduces to a maximum over finitely many
breakpoint subsequences, which the dynamic program below computes.
`jump_adapted_times` is the one "advance by mesh, stop at big jumps"
partition, shared by `coarsen_jump_adapted` and both Euler schemes.

The dynamic program is one kernel for every caller, over a stack of windows;
`p_variation` and `variation_norm` are its one-window case.  For a scalar
window and p > 1 it first reduces the window to its end points and strict
local extrema, dropping repeated values; this is exact, because an interior
point of a monotone run only splits an increment into two of the same sign,
and ``|a + b|^p >= |a|^p + |b|^p`` for same-sign ``a, b`` and ``p >= 1``
(Butkus & Norvaisa, "Computation of p-variation", Lith. Math. J. 2018).
The windows are then padded to the longest with copies of their last point,
which adds zero increments and so leaves each window's result unchanged, and
the stack advances a block of rows at a time, holding at most
``_PVAR_BLOCK_CELLS`` point pairs in memory at once.  Earlier points far
enough back come in chunks of 32 with a bounding ball (centre ``c``, radius
``rho``; Frobenius for matrices, which bounds the operator norm).  Every
candidate of row ``v_j`` in a chunk is at most the chunk's largest ``best``
plus ``(|v_j - c| + rho)^p``; a chunk whose bound, raised by a rounding
margin, stays below a candidate the row already reaches for every row of
the block is skipped.  It cannot hold a row's maximum, and every kept cell
is computed by the same operations, so results are the same to the last bit.

Conventions:

* value arrays are always 2-D ``(n, d)`` for vector paths and 3-D
  ``(n, d, d)`` for matrix paths; scalar inputs are lifted to ``d = 1``;
* increments of vector paths are measured in the Euclidean norm, increments
  of matrix paths in the operator (spectral) norm;
* a window ``[a, b]`` uses ``eval(a)`` as left anchor and the values at all
  breakpoints in ``(a, b]``; for a step path the value at ``b`` itself is
  already covered by the last breakpoint at or before ``b``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    InvalidP,
    InvalidParameter,
    LengthMismatch,
    MalformedCsv,
    NegativeTime,
    NonFiniteValue,
    NonMonotoneGrid,
    PartitionOverflow,
)

__all__ = [
    "TimeGrid",
    "Interval",
    "StepPath",
    "MatrixStepPath",
    "make_path",
    "make_matrix_path",
    "p_variation",
    "p_variation_brute",
    "variation_norm",
    "variation_norms",
    "running_max",
    "oscillation",
    "sup_norm",
    "coarsen_jump_adapted",
    "jump_adapted_times",
    "align",
    "sup_distance",
    "read_path_csv",
    "write_path_csv",
]

#: points written with 17 significant digits round-trip float64 exactly
CSV_FLOAT_FORMAT = "%.17g"


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing finite sequence of times starting at 0."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = _freeze(np.atleast_1d(self.times))
        if times.ndim != 1 or times.size == 0:
            raise NonMonotoneGrid("grid must be a non-empty 1-D sequence")
        if not np.isfinite(times).all():
            raise NonFiniteValue("grid times must be finite")
        if times[0] != 0.0:
            raise NonMonotoneGrid(f"grid must start at 0, got {times[0]}")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise NonMonotoneGrid("grid times must be strictly increasing")
        object.__setattr__(self, "times", times)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def end_time(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class Interval:
    """Closed time window ``[a, b]`` with ``0 <= a <= b``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise InvalidParameter("interval endpoints must be finite")
        if self.a < 0.0 or self.b < self.a:
            raise InvalidParameter(f"need 0 <= a <= b, got [{self.a}, {self.b}]")


def _locate(times: np.ndarray, t, left: bool = False) -> np.ndarray:
    """Index of the step containing ``t`` (`left=True` for the preceding one)."""
    side = "left" if left else "right"
    idx = np.searchsorted(times, t, side=side) - 1
    return np.maximum(idx, 0)


@dataclass(frozen=True)
class _GridPath:
    """Right-continuous piecewise-constant values on a :class:`TimeGrid`.

    The path equals ``values[i]`` on ``[times[i], times[i+1])`` and stays at
    ``values[-1]`` from the last breakpoint on.  Subclasses fix the shape of
    one value; instances are immutable and safe to share between workers.
    """

    grid: TimeGrid
    values: np.ndarray

    #: shape of one value; a square matrix repeats ``d``
    _value_shape = ("d",)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        axes = len(self._value_shape)
        if values.ndim == 1:
            values = values.reshape(-1, *(1,) * axes)
        if values.ndim != 1 + axes or len(set(values.shape[1:])) > 1:
            raise LengthMismatch(f"values must be (n,) or (n, {', '.join(self._value_shape)})")
        if values.shape[0] != len(self.grid):
            raise LengthMismatch(
                f"{values.shape[0]} values for {len(self.grid)} grid times"
            )
        if not np.isfinite(values).all():
            raise NonFiniteValue("path values must be finite")
        object.__setattr__(self, "values", _freeze(values))

    @property
    def times(self) -> np.ndarray:
        return self.grid.times

    @property
    def dim(self) -> int:
        return int(self.values.shape[1])

    @property
    def end_time(self) -> float:
        return self.grid.end_time

    def eval(self, t):
        """Right-continuous value at ``t`` (scalar -> one value, array -> stacked)."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0.0):
            raise NegativeTime("paths are defined on [0, inf)")
        out = self.values[_locate(self.times, t_arr)]
        return out if t_arr.ndim else out.reshape(self.values.shape[1:])

    def left_limit(self, t):
        """Left limit at ``t > 0``; equals ``values[0]`` up to the first jump."""
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr <= 0.0):
            raise NegativeTime("left limits require t > 0")
        out = self.values[_locate(self.times, t_arr, left=True)]
        return out if t_arr.ndim else out.reshape(self.values.shape[1:])


@dataclass(frozen=True)
class StepPath(_GridPath):
    """Piecewise-constant cadlag path ``t -> R^d`` on a finite grid."""

    def jumps(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoint times after 0 and the value increments there."""
        return self.times[1:], np.diff(self.values, axis=0)

    def component(self, i: int) -> "StepPath":
        return StepPath(self.grid, self.values[:, i].copy())

    # -- arithmetic (grids are merged automatically) --------------------------

    def _binary(self, other: "StepPath", op) -> "StepPath":
        if not isinstance(other, StepPath):
            return NotImplemented
        if other.dim != self.dim:
            raise LengthMismatch("paths must share a dimension")
        a, b = align([self, other])
        return StepPath(a.grid, op(a.values, b.values))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self) -> "StepPath":
        return StepPath(self.grid, -self.values)

    def __mul__(self, c):
        return StepPath(self.grid, self.values * float(c))

    __rmul__ = __mul__


@dataclass(frozen=True)
class MatrixStepPath(_GridPath):
    """Piecewise-constant cadlag path of d x d matrices."""

    _value_shape = ("d", "d")


def _make(cls, times: Sequence[float], values):
    times_arr = np.atleast_1d(np.asarray(times, dtype=float))
    values_arr = np.asarray(values, dtype=float)
    if values_arr.ndim == 0:
        values_arr = values_arr[None]
    if values_arr.shape[0] != times_arr.shape[0]:
        raise LengthMismatch(
            f"{values_arr.shape[0]} values for {times_arr.shape[0]} times"
        )
    return cls(TimeGrid(times_arr), values_arr)


def make_path(times: Sequence[float], values) -> StepPath:
    """Validate and build a :class:`StepPath` (scalar values are lifted to d=1)."""
    return _make(StepPath, times, values)


def make_matrix_path(times: Sequence[float], values) -> MatrixStepPath:
    """Validate and build a :class:`MatrixStepPath` (scalars lifted to 1x1)."""
    return _make(MatrixStepPath, times, values)


# ---------------------------------------------------------------------------
# increment norms and windowing
# ---------------------------------------------------------------------------

def _increment_norms(diffs: np.ndarray, matrix: bool = False) -> np.ndarray:
    """Norms of stacked increments with any leading shape.

    Vectors (last axis) take the Euclidean norm, matrices (last two axes,
    ``matrix=True``) the operator (spectral) norm.  One or two squares are
    added directly, so a strided block needs no copy; that equals
    ``einsum("ij,ij->i")`` bit for bit.  Three or more go through that einsum
    on a contiguous copy: einsum adds them in SIMD lanes, in an order a plain
    sum does not reproduce, and keeping its order keeps printed results
    unchanged to the last digit.
    """
    if matrix:
        if diffs.size == 0:
            return np.zeros(diffs.shape[:-2])
        return np.linalg.norm(diffs, ord=2, axis=(-2, -1))
    if diffs.shape[-1] > 2:
        flat = np.ascontiguousarray(diffs).reshape(-1, diffs.shape[-1])
        return np.sqrt(np.einsum("ij,ij->i", flat, flat)).reshape(diffs.shape[:-1])
    squares = np.square(diffs[..., 0])
    if diffs.shape[-1] == 2:
        squares += np.square(diffs[..., 1])
    return np.sqrt(squares)


def _resolve_window(path, window) -> tuple[float, float]:
    if window is None:
        return 0.0, max(path.end_time, 0.0)
    if isinstance(window, Interval):
        return window.a, window.b
    a, b = window
    iv = Interval(float(a), float(b))
    return iv.a, iv.b


def _window_values(path, window, include_right: bool = True) -> np.ndarray:
    """Anchor value at ``a`` followed by breakpoint values in ``(a, b]`` (or ``(a, b)``)."""
    a, b = _resolve_window(path, window)
    if b <= a:
        # empty/degenerate window: a single anchor point
        return path.eval(a)[None]
    times = path.times
    if include_right:
        sel = (times > a) & (times <= b)
    else:
        sel = (times > a) & (times < b)
    return np.concatenate([path.eval(a)[None], path.values[sel]], axis=0)


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------

#: most point pairs the DP holds at once, for one window or a stack of them
_PVAR_BLOCK_CELLS = 1 << 14
#: rows the DP advances per block; the rest of the cap goes to columns
_PVAR_BLOCK_ROWS = 64
#: most windows advanced together; each holds a block of rows x (rows + 2)
#: distances while its rows advance
_PVAR_STACK_WINDOWS = 64
#: earlier points per ball of the branch and bound
_PVAR_CHUNK = 32
#: the bound applies to row blocks with more earlier points than this; with
#: fewer, computing every pair costs less than bounding them
_PVAR_BOUND_FROM = 256
#: absolute slack of the bound: covers squares that underflow in a distance
#: (at most ``sqrt(D) * 2^-537``) and sums that round in the subnormal range
_PVAR_BOUND_FLOOR = 2.0 ** -500
#: distances below this have no square that overflows
_PVAR_BOUND_REACH = 2.0 ** 510


def _pvar_block_shape(m: int) -> tuple[int, int]:
    """Rows per block and earlier points per column chunk for ``m`` points."""
    span = max(m - 1, 1)
    return min(_PVAR_BLOCK_ROWS, span), min(_PVAR_BLOCK_CELLS // _PVAR_BLOCK_ROWS, span)


def _local_extrema(vals: np.ndarray) -> np.ndarray:
    """End points and strict local extrema of a scalar window, repeats dropped."""
    x = vals.reshape(-1)
    idx = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    if idx.size < 3:
        return vals[idx]
    # increments between kept points are nonzero, so their sign bits tell turns
    down = np.signbit(np.diff(x[idx]))
    turns = np.flatnonzero(down[:-1] != down[1:]) + 1
    return vals[np.concatenate(([0], idx[turns], [idx[-1]]))]


def _chunk_balls(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre and radius of each full ``_PVAR_CHUNK``-point chunk of ``(..., m, D)`` points.

    The centre is the midpoint of the chunk's bounding box; the radius is the
    largest Euclidean (for matrices: Frobenius) distance of a point to it.
    """
    q = flat.shape[-2] // _PVAR_CHUNK
    pts = flat[..., : q * _PVAR_CHUNK, :].reshape(*flat.shape[:-2], q, _PVAR_CHUNK, flat.shape[-1])
    # halves first: the midpoint of two finite values stays finite
    centres = 0.5 * pts.min(axis=-2) + 0.5 * pts.max(axis=-2)
    radii = _increment_norms(pts - centres[..., None, :]).max(axis=-1)
    return centres, radii


def _chunk_bounds(rows: np.ndarray, centres: np.ndarray, radii: np.ndarray,
                  top: np.ndarray, p: float) -> np.ndarray:
    """Upper bounds ``(..., n, Q)`` on the DP candidates of rows against chunks.

    Row ``v_j`` (``rows`` is ``(..., n, D)``) against a chunk with ball
    ``(c, rho)`` and largest ``best`` value ``top``: every candidate
    ``best[i] + |v_j - v_i|^p`` is at most ``top + (|v_j - c| + rho)^p``, by
    the triangle inequality and because the operator norm is at most the
    Frobenius norm.  The bound is raised by a relative margin that covers
    the rounding of both sides, which grows with ``p`` and the component
    count ``D``, and by ``_PVAR_BOUND_FLOOR`` for the subnormal range.
    Where a distance could overflow in its squares the bound is infinite.
    """
    slack = 16.0 * (p + 1.0) * (rows.shape[-1] + 4) * np.finfo(float).eps
    reach = _increment_norms(rows[..., :, None, :] - centres[..., None, :, :])
    reach += radii[..., None, :] + _PVAR_BOUND_FLOOR
    bound = np.where(reach < _PVAR_BOUND_REACH, top[..., None, :] + reach ** p, np.inf)
    return bound * (1.0 + slack) + _PVAR_BOUND_FLOOR


def _kept_chunks(points: np.ndarray, rows: np.ndarray, best: np.ndarray, centres: np.ndarray,
                 radii: np.ndarray, p: float, shape: tuple[int, ...]) -> np.ndarray:
    """Mask ``(B, Q)`` of the full chunks of earlier points that a row block may need.

    ``points`` ``(B, r0, D)`` are the earlier points with their final
    ``best``, ``rows`` ``(B, n, D)`` the block's.  ``best`` never decreases
    along a window, because the previous point is always a candidate, so a
    chunk's largest ``best`` is at its last point.  Each row's candidate
    from the last point of every chunk and from the last earlier point is
    a value the row reaches.  A chunk whose bound stays below that for
    every row of the block cannot hold a row's maximum.
    """
    full = radii.shape[1]
    at = np.append(np.arange(1, full + 1) * _PVAR_CHUNK - 1, points.shape[1] - 1)
    # the same differences, norms, powers and sums as the DP's own cells
    diffs = rows[:, :, None, :] - points[:, None, at, :]
    reached = _increment_norms(diffs.reshape(*diffs.shape[:3], *shape), len(shape) == 2) ** p
    reached += best[:, None, at]
    bound = _chunk_bounds(rows, centres, radii, best[:, at[:-1]], p)
    return (bound >= reached.max(axis=2)[..., None]).any(axis=1)


def _slices(n: int, step: int) -> list[slice]:
    """``0..n`` in slices of at most ``step``."""
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _dist_p(here: np.ndarray, there: np.ndarray, p: float, shape: tuple[int, ...]) -> np.ndarray:
    """``|v_j - v_i|^p`` of components ``(B, D, n)`` against ``(B, D, C)``, ``(B, n, C)``."""
    diffs = (here[..., :, None] - there[..., None, :]).transpose(0, 2, 3, 1)
    return _increment_norms(diffs.reshape(*diffs.shape[:3], *shape), len(shape) == 2) ** p


def _column_max(here: np.ndarray, there: np.ndarray, prior: np.ndarray, p: float,
                shape: tuple[int, ...]) -> np.ndarray:
    """Each row's best candidate ``prior[i] + |v_j - v_i|^p`` over the columns ``there``."""
    sums = _dist_p(here, there, p, shape)
    sums += prior[:, None, :]
    return np.maximum.reduce(sums, axis=2)


def _pvar_stack(windows: list[np.ndarray], p: float) -> list[float]:
    """``best[m - 1]`` of each window of one value shape, longest window first.

    The windows are padded to the longest with copies of their last point:
    a repeated point adds a zero increment, so ``best`` at a padded row
    equals ``best[m - 1]`` bit for bit, and rows after a window's end feed
    none of its own rows.  A window drops out of the stack once its rows
    are done, so the windows still running form a prefix.
    """
    shape = windows[0].shape[1:]
    ends = [w.shape[0] for w in windows]
    flat = np.empty((len(windows), ends[0], math.prod(shape)))
    for b, w in enumerate(windows):
        flat[b, : ends[b]] = w.reshape(ends[b], -1)
        if ends[b] < ends[0]:
            flat[b, ends[b] :] = flat[b, ends[b] - 1]
    # one row per component keeps each component's block differences contiguous
    comps = np.ascontiguousarray(flat.transpose(0, 2, 1))
    if ends[0] > _PVAR_BOUND_FROM:
        centres, radii = _chunk_balls(flat)
    rows, cols = _pvar_block_shape(ends[0])
    best = np.zeros(flat.shape[:2])
    live = len(ends)
    for r0 in range(1, ends[0], rows):
        r1 = min(r0 + rows, ends[0])
        while ends[live - 1] <= r0:
            live -= 1
        here = comps[:live, :, r0:r1]
        # block[k, 0] is row r0 + k's best over the points before r0 - 1 and
        # block[k, 1 + i] its distance to point r0 - 1 + i; the last axis is
        # the window
        block = np.empty((r1 - r0, r1 - r0 + 2, live))
        block[:, 0] = -np.inf
        first = block[:, 0].T
        start = 0
        if r0 > _PVAR_BOUND_FROM:
            # kept (window, chunk) pairs in window order, a bounded number at a time
            full = (r0 - 1) // _PVAR_CHUNK
            start = full * _PVAR_CHUNK
            step = max(_PVAR_BLOCK_CELLS // ((r1 - r0) * (full + 1)), 1)
            wins, chunks = np.nonzero(np.concatenate([_kept_chunks(
                flat[w, :r0], flat[w, r0:r1], best[w, :r0], centres[w, :full], radii[w, :full],
                p, shape) for w in _slices(live, step)]))
            pts = comps[:live, :, :start].reshape(live, -1, full, _PVAR_CHUNK)
            prior = best[:live, :start].reshape(live, full, _PVAR_CHUNK)
            step = max(cols // _PVAR_CHUNK, 1)
            for k in range(0, wins.size, step):
                b, q = wins[k : k + step], chunks[k : k + step]
                top = _column_max(here[b], pts[b, :, q], prior[b, q], p, shape)
                hit, at = np.unique(b, return_index=True)
                first[hit] = np.maximum(first[hit], np.maximum.reduceat(top, at, axis=0))
        width = max(cols // live, 1)
        for c0 in range(start, r0 - 1, width):
            c1 = min(c0 + width, r0 - 1)
            top = _column_max(here, comps[:live, :, c0:c1], best[:live, c0:c1], p, shape)
            np.maximum(first, top, out=first)
        for w in _slices(live, max(_PVAR_BLOCK_CELLS // ((r1 - r0) * (r1 - r0 + 1)), 1)):
            dist = _dist_p(here[w], comps[w, :, r0 - 1 : r1], p, shape)
            block[:, 1:, w] = dist.transpose(1, 2, 0)
        # head[0] = 0 passes column 0 through, head[1 + i] is best[r0 - 1 + i];
        # axis and out go by position, as keywords cost a tenth of a row
        head = np.zeros((r1 - r0 + 2, live))
        head[1] = best[:live, r0 - 1]
        for k in range(r1 - r0):
            np.maximum.reduce(head[: k + 2] + block[k, : k + 2], 0, None, head[k + 2])
        best[:live, r0:r1] = head[2:].T
    return [float(best[b, end - 1]) for b, end in enumerate(ends)]


def _pvar_dp(windows: Sequence[np.ndarray], p: float) -> list[float]:
    """Max of sum |increments|^p over subsequences anchored at both ends, per window.

    ``best[j] = max_{i<j} best[i] + |v_j - v_i|^p`` with ``best[0] = 0``, for
    every window of one value shape.  Scalar windows with p > 1 are first
    reduced to their extrema.  Up to ``_PVAR_STACK_WINDOWS`` windows are
    stacked, longest first, and rows are advanced a block of
    ``_PVAR_BLOCK_ROWS`` at a time for the whole stack, in pieces of at most
    ``_PVAR_BLOCK_CELLS`` point pairs:

    * against the earlier points before the block's previous point.  Once
      a block has more than ``_PVAR_BOUND_FROM`` of them they come in
      chunks of ``_PVAR_CHUNK``, and a chunk is skipped by branch and bound
      (see `_kept_chunks`) when no row of the block can reach a candidate
      already computed;
    * then against the block's previous point and its own rows, one row at
      a time for all windows at once.

    Each distance is the norm of the increment raised to ``p`` and each sum
    adds one distance to one ``best``, as a row-by-row loop would, and a
    skipped chunk cannot hold a row's maximum.  So the result depends
    neither on the blocking, nor on the stack, nor on the pruning.
    """
    out = [0.0] * len(windows)
    stack = []
    for b, vals in enumerate(windows):
        if p == 1.0:
            # triangle equality: keep every breakpoint
            out[b] = float(np.sum(_increment_norms(np.diff(vals, axis=0), vals.ndim == 3)))
            continue
        if vals[0].size == 1:
            vals = _local_extrema(vals)
        if vals.shape[0] > 1:
            stack.append((b, vals))
    # longest first: the windows still running at a row are a prefix
    stack.sort(key=lambda item: -item[1].shape[0])
    for g0 in range(0, len(stack), _PVAR_STACK_WINDOWS):
        ids, vals = zip(*stack[g0 : g0 + _PVAR_STACK_WINDOWS])
        for b, value in zip(ids, _pvar_stack(list(vals), p)):
            out[b] = value
    return out


def _check_p(p) -> float:
    if not 1.0 <= p < np.inf:
        raise InvalidP(f"p must be finite and >= 1, got {p}")
    return float(p)


def p_variation(path, p: float, window=None) -> float:
    """Exact p-variation ``v_p(x)`` of a step path over a window.

    Computed by an O(n^2) dynamic program over the breakpoints inside the
    window; on step paths this equals the supremum over all subdivisions.
    For a scalar path and p > 1 the window is first reduced to its end points
    and strict local extrema, repeated values dropped.  This is exact: an
    interior point of a monotone run splits an increment into two of the
    same sign, and ``|a + b|^p >= |a|^p + |b|^p`` for those (Butkus &
    Norvaisa, "Computation of p-variation", Lith. Math. J. 2018), so n counts
    the extrema only.  Earlier points far enough back are then grouped in
    chunks of ``_PVAR_CHUNK`` inside a ball (Frobenius for matrices).  A
    chunk whose bound, raised by a rounding margin, stays below a candidate
    that every row of a block already reaches is skipped, which cannot
    change the maximum (see `_kept_chunks`).  This is the one-window case of
    the stacked program that `variation_norms` runs on several paths.  The
    program holds at most ``_PVAR_BLOCK_CELLS`` point pairs at a time.
    Degenerate windows yield 0.  ``p`` must be finite and at least 1.
    """
    return _pvar_dp([_window_values(path, window)], _check_p(p))[0]


def p_variation_brute(path, p: float, window=None) -> float:
    """Exhaustive p-variation oracle: enumerates every breakpoint subsequence.

    All subsequences anchored at both window ends are enumerated explicitly
    (grouped by length so the increment sums vectorize), which is exponential
    in the window size; windows with more than 16 points are refused.  Kept
    as an independent cross-check for the dynamic program.
    """
    p = _check_p(p)
    vals = _window_values(path, window)
    m = vals.shape[0]
    if m > 16:
        raise InvalidParameter(f"brute-force oracle limited to 16 points, got {m}")
    if m < 2:
        return 0.0
    dist_p = _increment_norms(vals[:, None] - vals[None, :], vals.ndim == 3) ** p
    best = float(dist_p[0, m - 1])
    interior = range(1, m - 1)
    for r in range(1, m - 1):
        combos = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(interior, r)),
            dtype=np.intp,
        ).reshape(-1, r)
        seqs = np.empty((combos.shape[0], r + 2), dtype=np.intp)
        seqs[:, 0] = 0
        seqs[:, 1:-1] = combos
        seqs[:, -1] = m - 1
        totals = dist_p[seqs[:, :-1], seqs[:, 1:]].sum(axis=1)
        best = max(best, float(totals.max()))
    return best


def variation_norms(paths, p: float, window=None, include_right: bool = True) -> list[float]:
    """Variation norm ``(v_p)^(1/p) + |x_a|`` of each path over one window.

    One stacked dynamic program serves every path; the paths must share a
    value shape.  Each norm equals `variation_norm` of its path bit for bit.
    """
    p = _check_p(p)
    windows = [_window_values(path, window, include_right=include_right) for path in paths]
    if len({vals.shape[1:] for vals in windows}) > 1:
        raise LengthMismatch("paths of one stacked DP must share a value shape")
    return [pvar ** (1.0 / p) + float(_increment_norms(vals[0], vals.ndim == 3))
            for vals, pvar in zip(windows, _pvar_dp(windows, p))]


def variation_norm(path, p: float, window=None, include_right: bool = True) -> float:
    """Variation norm ``(v_p)^(1/p) + |x_a|`` over the window.

    ``include_right=False`` computes the half-open variant on ``[a, b)``,
    used for integrand norms in the Stieltjes bound.
    """
    return variation_norms([path], p, window, include_right)[0]


def running_max(path: StepPath) -> StepPath:
    """Componentwise running supremum ``s -> sup_{u <= s} x_u`` on the same grid."""
    return StepPath(path.grid, np.maximum.accumulate(path.values, axis=0))


def oscillation(path: StepPath, window=None) -> float:
    """``sup_{s,t in window} |x_t - x_s|`` over the window's breakpoints."""
    vals = _window_values(path, window)
    if path.dim == 1:
        return float(vals.max() - vals.min())
    # pairwise Euclidean diameter, chunked to bound memory on long paths
    best = 0.0
    m = vals.shape[0]
    chunk = max(1, 2_000_000 // max(m, 1))
    for start in range(0, m, chunk):
        block = vals[start : start + chunk]
        best = max(best, float(_increment_norms(block[:, None, :] - vals[None, :, :]).max()))
    return best


def sup_norm(path: StepPath, window=None) -> float:
    """``sup_t |x_t|`` (Euclidean) over the window."""
    vals = _window_values(path, window)
    return float(_increment_norms(vals).max())


def sup_distance(path: StepPath, other: StepPath, window=None) -> float:
    """Uniform (sup over time, Euclidean in space) distance of two step paths."""
    return sup_norm(path - other, window)


# ---------------------------------------------------------------------------
# the jump-adapted partition
# ---------------------------------------------------------------------------

#: most points a partition may have before its horizon is appended
STEP_CAP = 10_000_000


def jump_adapted_times(horizon: float, n: float, jumps: np.ndarray,
                       step_cap: int = STEP_CAP) -> np.ndarray:
    """0, the ``jumps``, and the mesh points ``base + j/n`` between them.

    ``jumps`` are sorted, distinct times in ``(0, horizon]``.  After each
    base (0 or a jump) come ``base + j/n``, ``j = 1, 2, ...``, below the next
    jump, or below the horizon after the last one: integer multiples, not
    accumulated sums, so with no jumps the points are exactly ``j/n``.  The
    horizon itself is not appended.  Each segment's count is estimated in
    float as ``ceil((next - base) * n) - 1`` and corrected until stable, so
    :class:`PartitionOverflow` (more than ``step_cap`` points) is raised
    before any array of that size is built.
    """
    bases = np.concatenate(([0.0], jumps))
    limits = np.append(jumps, horizon)
    n = float(n)
    with np.errstate(invalid="ignore", over="ignore"):
        estimate = np.maximum(np.ceil((limits - bases) * n) - 1.0, 0.0)
        total = float(estimate.sum())
    # rounding of base + j/n can at most halve a count: past this, no
    # correction brings the partition back under the cap (NaN fails too)
    if not total <= 3.0 * (step_cap + bases.size):
        raise PartitionOverflow(f"partition exceeds {step_cap} points")
    counts = estimate.astype(np.int64)
    while True:
        grow = bases + (counts + 1) / n < limits
        shrink = (counts > 0) & (bases + counts / n >= limits)
        if not (grow.any() or shrink.any()):
            break
        counts += grow
        counts -= shrink
    if bases.size + counts.sum() > step_cap:
        raise PartitionOverflow(f"partition exceeds {step_cap} points")
    # segment s holds its base (j = 0) and then j = 1 .. counts[s]
    sizes = counts + 1
    segment = np.repeat(np.arange(bases.size), sizes)
    j = np.arange(segment.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return bases[segment] + j / n


# ---------------------------------------------------------------------------
# alignment and coarsening
# ---------------------------------------------------------------------------

def align(paths: Sequence[StepPath]) -> list[StepPath]:
    """Resample every path onto the union of all grids, preserving values.

    Paths that already share one grid object come back as they are; else
    every output shares one new grid.
    """
    paths = list(paths)
    if all(p.grid is paths[0].grid for p in paths):
        return paths
    merged = paths[0].times
    for p in paths[1:]:
        merged = np.union1d(merged, p.times)
    grid = TimeGrid(merged)
    return [StepPath(grid, p.eval(merged)) for p in paths]


def coarsen_jump_adapted(path: StepPath, delta: float, mesh: float) -> StepPath:
    """Subsample a path keeping all jumps larger than ``delta``.

    Sampling times are the partition of :func:`jump_adapted_times` with
    ``n = 1/mesh``: they advance by ``mesh`` and stop exactly at every jump
    of size > ``delta``; the value held on each piece is the input's value at
    the sampling time.  Mesh points at or beyond the final breakpoint are
    dropped (the path is constant from the last sample on anyway, up to jumps
    no larger than ``delta``).
    """
    if delta <= 0.0 or mesh <= 0.0:
        raise InvalidParameter("delta and mesh must be positive")
    jump_times, jump_incr = path.jumps()
    big = jump_times[_increment_norms(jump_incr) > delta]
    out = jump_adapted_times(path.end_time, 1.0 / mesh, big)
    return StepPath(TimeGrid(out), path.eval(out))


# ---------------------------------------------------------------------------
# CSV path format: header t,x1,...,xd; one row per breakpoint, sorted by t
# ---------------------------------------------------------------------------

#: table rows held as Python floats at a time (32 bytes each against 8)
_CSV_CHUNK_ROWS = 1024


def _write_rows(fh, table: np.ndarray, prefix: str = "") -> None:
    """Write each row of a 2-D table as ``prefix`` and its cells, one format per row."""
    row = prefix + ",".join([CSV_FLOAT_FORMAT] * table.shape[1]) + "\n"
    for start in range(0, len(table), _CSV_CHUNK_ROWS):
        fh.writelines(row % tuple(cells) for cells in table[start : start + _CSV_CHUNK_ROWS].tolist())


def write_path_csv(path: StepPath, dest) -> None:
    """Write a path as ``t,x1,...,xd`` rows with 17 significant digits."""

    def _write(fh) -> None:
        fh.write("t," + ",".join(f"x{i + 1}" for i in range(path.dim)) + "\n")
        _write_rows(fh, np.column_stack([path.times, path.values]))

    if hasattr(dest, "write"):
        _write(dest)
    else:
        with open(dest, "w", newline="") as fh:
            _write(fh)


def read_path_csv(src) -> StepPath:
    """Parse the ``t,x1,...,xd`` format back into a :class:`StepPath`."""
    if hasattr(src, "read"):
        text = src.read()
    else:
        text = Path(src).read_text()
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows:
        raise MalformedCsv("empty path file")
    header = [c.strip() for c in rows[0]]
    if len(header) < 2 or header[0] != "t":
        raise MalformedCsv(f"expected header 't,x1,...,xd', got {header}")
    width = len(header)
    times = []
    values = []
    for r in rows[1:]:
        if len(r) != width:
            raise MalformedCsv(f"row width {len(r)} != header width {width}")
        try:
            cells = [float(c) for c in r]
        except ValueError as exc:
            raise MalformedCsv(f"non-numeric cell in row {r}") from exc
        times.append(cells[0])
        values.append(cells[1:])
    return make_path(np.asarray(times), np.asarray(values))
