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

The dynamic program serves every caller, over a stack of windows;
`p_variation` and `variation_norm` are its one-window case.  For p > 1 it
first drops each point equal to its predecessor, of every value shape (such
a point is as far from every other as its predecessor), and then keeps only
a scalar window's end points and strict local extrema: an interior point of
a monotone run only splits an increment into two of the same sign, and
``|a + b|^p >= |a|^p + |b|^p`` for same-sign ``a, b`` and ``p >= 1``
(Butkus & Norvaisa, "Computation of p-variation", Lith. Math. J. 2018).
The windows are then padded to the longest with copies of their last point,
which adds zero increments and so leaves each window's result unchanged, and
the stack advances a block of ``_PVAR_STACK_ROWS`` rows at a time.  Each
numpy call computes at most ``_PVAR_BLOCK_CELLS`` point pairs, and the block
holds rows x (rows + 2) cells per window (69,632 at 64 windows).  Past
``_PVAR_BOUND_FROM`` earlier points, those come in chunks of 16 with a
bounding ball (centre ``c``, radius ``rho``; Frobenius for matrices, which
bounds the operator norm), and the block's rows lie in one ball ``(C, R)``.
Every candidate of a block row in a chunk is at most the chunk's largest
``best`` plus ``(|C - c| + R + rho)^p``.  ``best`` never falls along a
window, so every row of a block starting at ``r0`` ends at least at
``best[r0 - 1]``; a chunk whose bound, raised by a rounding margin, stays
below that is skipped.  It cannot hold a row's maximum, and every kept cell
is computed by the same operations, so results are the same to the last bit.

A window alone in its call may take one of two other kernels; a stack keeps
the kernel above, whose row step serves all its windows at once.  A short
window of a stack shares the row steps of its first block with the longer
windows, which costs less than a kernel call of its own.  With at most 128
points left (``m^2 <= _PVAR_BLOCK_CELLS``), of any value shape, a lone
window goes to `_pvar_small`: one numpy call computes its distances, and the
rows advance on Python floats, which costs less than a numpy call per row.
A scalar window with more than ``_PVAR_BOUND_FROM`` points left takes an
exact pruned kernel (`_pvar_pairs`), in blocks of ``_PVAR_BLOCK_ROWS`` rows.
Candidate ``i`` of row ``j`` cannot win when a point ``k`` between has
``|v_k - v_i| >= |v_j - v_i|`` (so ``best[k] >= best[i] + d(i, j)``) or
``|v_j - v_k| >= |v_j - v_i|`` (and ``best[k] >= best[i]``), as rounded
differences and sums, the square root and numpy's power (a test pins it)
are monotone.  That leaves exactly the ``i`` whose points between lie
strictly between ``v_i`` and ``v_j``; where those are more than ``m^2 /
_PVAR_PAIRS_DENSE`` pairs, the window takes the dense kernel after all.

Input is checked once, where it enters: `make_path`, `make_matrix_path`,
`read_path_csv`, `TimeGrid` and `Interval` check shapes, finiteness and that
times rise strictly from 0.  A path derived from checked paths (`align`,
arithmetic, `running_max`, the reflection, the Stieltjes sums, the Euler
output) is built by `_derived` on a checked grid and re-checks only what its
arithmetic can break: finiteness where a sum, difference or product can
overflow, and the order of times that were shifted or rounded.

Conventions:

* value arrays are always 2-D ``(n, d)`` for vector paths and 3-D
  ``(n, d, d)`` for matrix paths; scalar inputs are lifted to ``d = 1``;
* increments of vector paths are measured in the Euclidean norm, increments
  of matrix paths in the operator (spectral) norm;
* a window ``[a, b]`` uses ``eval(a)`` as left anchor and the values at all
  breakpoints in ``(a, b]``, one slice of ``values``; for a step path the
  value at ``b`` itself is already covered by the last breakpoint at or
  before ``b``.
"""

from __future__ import annotations

import array
import csv
import itertools
import math
import operator
from dataclasses import dataclass
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
        # times that rise strictly from 0 to a finite last time are all
        # finite, as NaN fails every comparison; only a grid that fails this
        # test goes through the checks one by one, for its error
        if not (times.ndim == 1 and times.size and times[0] == 0.0
                and math.isfinite(times[-1]) and (times[1:] > times[:-1]).all()):
            if times.ndim != 1 or times.size == 0:
                raise NonMonotoneGrid("grid must be a non-empty 1-D sequence")
            if not np.isfinite(times).all():
                raise NonFiniteValue("grid times must be finite")
            if times[0] != 0.0:
                raise NonMonotoneGrid(f"grid must start at 0, got {times[0]}")
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
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidParameter("interval endpoints must be finite")
        if self.a < 0.0 or self.b < self.a:
            raise InvalidParameter(f"need 0 <= a <= b, got [{self.a}, {self.b}]")


def _locate(times: np.ndarray, t, left: bool = False) -> np.ndarray:
    """Index of the step containing ``t`` (`left=True` for the preceding one)."""
    return np.maximum(times.searchsorted(t, "left" if left else "right") - 1, 0)


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
        if (t_arr < 0.0).any():
            raise NegativeTime("paths are defined on [0, inf)")
        out = self.values[_locate(self.times, t_arr)]
        return out if t_arr.ndim else out.reshape(self.values.shape[1:])

    def left_limit(self, t):
        """Left limit at ``t > 0``; equals ``values[0]`` up to the first jump."""
        t_arr = np.asarray(t, dtype=float)
        if (t_arr <= 0.0).any():
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
        return _derived(StepPath, self.grid, self.values[:, [i]])

    # -- arithmetic (grids are merged automatically) --------------------------

    def _binary(self, other: "StepPath", op) -> "StepPath":
        if not isinstance(other, StepPath):
            return NotImplemented
        if other.dim != self.dim:
            raise LengthMismatch("paths must share a dimension")
        a, b = align([self, other])
        return _derived(StepPath, a.grid, op(a.values, b.values), check_finite=True)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self) -> "StepPath":
        return _derived(StepPath, self.grid, -self.values)

    def __mul__(self, c):
        return _derived(StepPath, self.grid, self.values * float(c), check_finite=True)

    __rmul__ = __mul__


@dataclass(frozen=True)
class MatrixStepPath(_GridPath):
    """Piecewise-constant cadlag path of d x d matrices."""

    _value_shape = ("d", "d")


def _derived(cls, grid: TimeGrid, values: np.ndarray, check_finite: bool = False):
    """A path of ``cls`` on a checked grid from fresh values of its shape, derived
    from checked paths.  Only finiteness is checked, and only on request: for
    arithmetic that can overflow."""
    if check_finite and not np.isfinite(values).all():
        raise NonFiniteValue("path values must be finite")
    path = object.__new__(cls)
    object.__setattr__(path, "grid", grid)
    object.__setattr__(path, "values", _freeze(values))
    return path


def make_path(times: Sequence[float], values) -> StepPath:
    """Validate and build a :class:`StepPath` (scalar values are lifted to d=1)."""
    return StepPath(TimeGrid(times), np.atleast_1d(np.asarray(values, dtype=float)))


def make_matrix_path(times: Sequence[float], values) -> MatrixStepPath:
    """Validate and build a :class:`MatrixStepPath` (scalars lifted to 1x1)."""
    return MatrixStepPath(TimeGrid(times), np.atleast_1d(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------------
# increment norms and windowing
# ---------------------------------------------------------------------------

#: LAPACK's SVD rescales a matrix whose largest entry is not 0 and lies outside
#: [sqrt(tiny) / eps, eps / sqrt(tiny)], as it computes these; inside, the
#: operator norm of a 1 x 1 matrix is ``|x|`` bit for bit
_SVD_SMALL = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
_SVD_BIG = 1.0 / _SVD_SMALL


def _square_order(count: int) -> tuple[int, ...]:
    """The components of a vector of ``count <= 3`` in the order their squares
    are added: the order of ``einsum("ij,ij->i")``, which keeps printed results
    unchanged to the last digit.  That is ``x0^2 + x1^2`` for two components
    and ``(x0^2 + x2^2) + x1^2`` for three (numpy's baseline SSE, AVX2 and
    AVX-512 kernels all add three that way; a test pins it)."""
    return (0, *range(count - 1, 0, -1))


def _increment_norms(diffs: np.ndarray, matrix: bool = False) -> np.ndarray:
    """Norms of stacked increments with any leading shape.

    Vectors (last axis) take the Euclidean norm, matrices (last two axes,
    ``matrix=True``) the operator (spectral) norm.  Up to three squares are
    added directly in `_square_order`, so a strided block needs no copy.
    Four or more go through that einsum on a contiguous copy: it adds them
    in SIMD lanes, in an order a plain sum does not reproduce.  A 1 x 1
    matrix takes ``|x|`` wherever that is the SVD's value, from ``_SVD_SMALL`` to ``_SVD_BIG``.
    """
    if matrix:
        if diffs.size == 0:
            return np.zeros(diffs.shape[:-2])
        if diffs.shape[-2:] != (1, 1):
            return np.linalg.norm(diffs, ord=2, axis=(-2, -1))
        norms = np.abs(diffs[..., 0, 0])
        exact = (norms == 0.0) | ((norms >= _SVD_SMALL) & (norms <= _SVD_BIG))
        if exact.all():
            return norms
        return np.where(exact, norms, np.linalg.norm(diffs, ord=2, axis=(-2, -1)))
    if diffs.shape[-1] > 3:
        flat = np.ascontiguousarray(diffs).reshape(-1, diffs.shape[-1])
        return np.sqrt(np.einsum("ij,ij->i", flat, flat)).reshape(diffs.shape[:-1])
    first, *rest = _square_order(diffs.shape[-1])
    squares = np.square(diffs[..., first])
    for k in rest:
        squares += np.square(diffs[..., k])
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
    """Anchor value at ``a`` and breakpoint values in ``(a, b]`` (or ``(a, b)``), uncopied."""
    a, b = _resolve_window(path, window)
    # the step containing a: times[0] = 0 <= a, so there is one
    first = int(path.times.searchsorted(a, "right")) - 1
    stop = int(path.times.searchsorted(b, "right" if include_right else "left"))
    # a degenerate window is its anchor alone
    return path.values[first : max(stop, first + 1)]


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------

#: most point pairs the DP holds at once, for one window or a stack of them
_PVAR_BLOCK_CELLS = 1 << 14
#: rows `_pvar_pairs` advances per block
_PVAR_BLOCK_ROWS = 64
#: rows `_pvar_stack` advances per block; the rest of the cap goes to
#: columns.  A short window is padded to its first block, so the block
#: bounds what it costs to stack it
_PVAR_STACK_ROWS = 32
#: most windows advanced together; each holds a block of rows x (rows + 2)
#: distances while its rows advance
_PVAR_STACK_WINDOWS = 64
#: earlier points per ball of the branch and bound.  On `ensemble`'s stacks 16
#: keeps a quarter fewer chunk cells than 32, which pays only with the reduce
#: over contiguous rows of `_column_max` (DP time 0.81x; 0.99x along a last axis)
_PVAR_CHUNK = 16
#: the bound applies to row blocks with more earlier points than this; with
#: fewer, computing every pair costs less than bounding them
_PVAR_BOUND_FROM = 256
#: absolute slack of the bound: covers squares that underflow in a distance
#: (at most ``sqrt(D) * 2^-537``) and sums that round in the subnormal range
_PVAR_BOUND_FLOOR = 2.0 ** -500
#: distances below this have no square that overflows
_PVAR_BOUND_REACH = 2.0 ** 510
#: a scalar window with more than ``m^2 / _PVAR_PAIRS_DENSE`` pairs that can
#: win goes from `_pvar_pairs` to the dense kernel: measured at 8k to 32k
#: turns, a pair costs about 12 ns there, the dense kernel 0.5 (8k) to
#: 0.14 (32k) ns per ``m^2`` on a rising zigzag, where its bound skips most
#: chunks
_PVAR_PAIRS_DENSE = 24


def _pvar_block_shape(m: int) -> tuple[int, int]:
    """Rows per block of `_pvar_stack` and earlier points per column chunk for ``m`` points."""
    span = max(m - 1, 1)
    return min(_PVAR_STACK_ROWS, span), min(_PVAR_BLOCK_CELLS // _PVAR_STACK_ROWS, span)


def _reduce_window(vals: np.ndarray) -> np.ndarray:
    """A window without repeated points (uncopied if none); of a scalar one, its ends and turns."""
    flat = vals.reshape(vals.shape[0], -1)
    if flat.shape[1] > 1:
        moves = (flat[1:] != flat[:-1]).any(axis=1)
        return vals if moves.all() else vals[np.concatenate(([True], moves))]
    # masks written in place: each numpy call costs more than these few points
    col = flat[:, 0]
    keep = np.empty(col.size, dtype=bool)
    keep[0] = True
    np.not_equal(col[1:], col[:-1], keep[1:])
    idx = keep.nonzero()[0]
    if idx.size < 3:
        return vals[idx]
    # increments between kept points are nonzero, so their sign bits tell turns
    kept = col[idx]
    down = np.signbit(kept[1:] - kept[:-1])
    turn = np.empty(idx.size, dtype=bool)
    turn[0] = turn[-1] = True
    np.not_equal(down[:-1], down[1:], turn[1:-1])
    return vals[idx[turn]]


def _balls(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centre ``(..., D)`` and radius ``(...)`` of a ball around ``(..., k, D)`` points.

    The centre is the midpoint of the points' bounding box; the radius is the
    largest Euclidean (for matrices: Frobenius) distance of a point to it.
    """
    # halves first: the midpoint of two finite values stays finite
    centres = 0.5 * points.min(axis=-2) + 0.5 * points.max(axis=-2)
    radii = _increment_norms(points - centres[..., None, :]).max(axis=-1)
    return centres, radii


def _chunk_bounds(centre: np.ndarray, radius: np.ndarray, centres: np.ndarray,
                  radii: np.ndarray, top: np.ndarray, p: float) -> np.ndarray:
    """Upper bounds ``(..., Q)`` on the DP candidates of a row block against chunks.

    Rows in the ball ``(C, R)`` (``centre`` ``(..., D)``, ``radius``
    ``(...)``) against a chunk with ball ``(c, rho)`` and largest ``best``
    value ``top``: every candidate ``best[i] + |v_j - v_i|^p`` is at most
    ``top + (|C - c| + R + rho)^p``, by the triangle inequality and because
    the operator norm is at most the Frobenius norm.  The bound is raised by
    a relative margin that covers the rounding of both sides, which grows
    with ``p`` and the component count ``D``, and by ``_PVAR_BOUND_FLOOR``
    for the subnormal range.  Where a distance could overflow in its
    squares the bound is infinite.
    """
    slack = 16.0 * (p + 1.0) * (centres.shape[-1] + 4) * np.finfo(float).eps
    reach = _increment_norms(centre[..., None, :] - centres)
    reach += radii + (radius[..., None] + _PVAR_BOUND_FLOOR)
    bound = np.where(reach < _PVAR_BOUND_REACH, top + reach ** p, np.inf)
    return bound * (1.0 + slack) + _PVAR_BOUND_FLOOR


def _kept_chunks(rows: np.ndarray, best: np.ndarray, centres: np.ndarray, radii: np.ndarray,
                 p: float) -> np.ndarray:
    """Mask ``(B, Q)`` of the full chunks of earlier points that a row block may need.

    ``rows`` ``(B, n, D)`` are the block's points, ``best`` ``(B, r0)`` the
    final ``best`` of the earlier points.  ``best`` never decreases along a
    window, because the previous point is always a candidate, so a chunk's
    largest ``best`` is at its last point and every row of the block ends
    with ``best[j] >= best[r0 - 1]``.  A chunk whose bound stays below
    ``best[r0 - 1]`` cannot hold a row's maximum.
    """
    top = best[:, _PVAR_CHUNK - 1 : radii.shape[1] * _PVAR_CHUNK : _PVAR_CHUNK]
    return _chunk_bounds(*_balls(rows), centres, radii, top, p) >= best[:, -1:]


def _slices(n: int, step: int) -> list[slice]:
    """``0..n`` in slices of at most ``step``."""
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def _dist_p(here: np.ndarray, there: np.ndarray, p: float, shape: tuple[int, ...]) -> np.ndarray:
    """``|v_j - v_i|^p`` of components ``(B, D, n)`` against ``(B, D, C)``, ``(B, C, n)``.

    A vector of at most three components adds its squared differences in
    place, in `_square_order`, with no ``(B, D, C, n)`` difference tensor."""
    if len(shape) == 2 or shape[0] > 3:
        diffs = (here[..., None, :] - there[..., :, None]).transpose(0, 2, 3, 1)
        return _increment_norms(diffs.reshape(*diffs.shape[:3], *shape), len(shape) == 2) ** p
    first, *rest = _square_order(shape[0])
    sums = np.subtract(here[:, first, None, :], there[:, first, :, None])
    np.square(sums, out=sums)
    if rest:
        term = np.empty_like(sums)
        for k in rest:
            np.subtract(here[:, k, None, :], there[:, k, :, None], out=term)
            sums += np.square(term, out=term)
    np.sqrt(sums, out=sums)
    sums **= p
    return sums


def _column_max(here: np.ndarray, there: np.ndarray, prior: np.ndarray, p: float,
                shape: tuple[int, ...]) -> np.ndarray:
    """Each row's best candidate ``prior[i] + |v_j - v_i|^p`` over the columns ``there``."""
    sums = _dist_p(here, there, p, shape)
    sums += prior[:, :, None]
    return np.maximum.reduce(sums, axis=1)


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
        cut = ends[0] // _PVAR_CHUNK * _PVAR_CHUNK
        centres, radii = _balls(flat[:, :cut].reshape(len(ends), -1, _PVAR_CHUNK, flat.shape[2]))
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
            # kept (window, chunk) pairs in window order: a window's are one run of b
            full = (r0 - 1) // _PVAR_CHUNK
            start = full * _PVAR_CHUNK
            wins, chunks = np.nonzero(_kept_chunks(flat[:live, r0:r1], best[:live, :r0],
                                                   centres[:live, :full], radii[:live, :full], p))
            pts = comps[:live, :, :start].reshape(live, -1, full, _PVAR_CHUNK)
            prior = best[:live, :start].reshape(live, full, _PVAR_CHUNK)
            step = max(cols // _PVAR_CHUNK, 1)
            for k in range(0, wins.size, step):
                b, q = wins[k : k + step], chunks[k : k + step]
                top = _column_max(here[b], pts[b, :, q], prior[b, q], p, shape)
                at = np.flatnonzero(np.concatenate(([True], b[1:] != b[:-1])))
                first[b[at]] = np.maximum(first[b[at]], np.maximum.reduceat(top, at, axis=0))
        width = max(cols // live, 1)
        for c0 in range(start, r0 - 1, width):
            c1 = min(c0 + width, r0 - 1)
            top = _column_max(here, comps[:live, :, c0:c1], best[:live, c0:c1], p, shape)
            np.maximum(first, top, out=first)
        for w in _slices(live, max(_PVAR_BLOCK_CELLS // ((r1 - r0) * (r1 - r0 + 1)), 1)):
            dist = _dist_p(here[w], comps[w, :, r0 - 1 : r1], p, shape)
            block[:, 1:, w] = dist.transpose(2, 1, 0)
        # head[0] = 0 passes column 0 through, head[1 + i] is best[r0 - 1 + i];
        # axis and out go by position, as keywords cost a tenth of a row
        head = np.zeros((r1 - r0 + 2, live))
        head[1] = best[:live, r0 - 1]
        for k in range(r1 - r0):
            np.maximum.reduce(head[: k + 2] + block[k, : k + 2], 0, None, head[k + 2])
        best[:live, r0:r1] = head[2:].T
    return [float(best[b, end - 1]) for b, end in enumerate(ends)]


def _pvar_small(vals: np.ndarray, p: float) -> float:
    """``best[m - 1]`` of one window of ``m >= 2`` points, ``m^2 <= _PVAR_BLOCK_CELLS``.

    One `_increment_norms` call computes every distance a row reads: the
    full square of ``v_j - v_i`` for vectors, only the pairs ``i < j`` for
    matrices, whose SVDs dominate.  The rows then advance on Python floats,
    each one maximum of ``best[i] + d(i, j)`` over ``i < j``: the additions
    of the row-by-row loop over its candidates, so its result to the last bit.
    """
    m = vals.shape[0]
    if vals.ndim == 3:
        # row j's pairs (j, 0), ..., (j, j - 1) follow row j - 1's
        lower = np.arange(m)[:, None] > np.arange(m)
        flat = (_increment_norms((vals[:, None] - vals[None])[lower], True) ** p).tolist()
        rows = [flat[k * (k - 1) // 2 : k * (k + 1) // 2] for k in range(1, m)]
    else:
        # map stops at the shorter list: row j reads its first j distances
        rows = (_increment_norms(vals[1:, None] - vals[None, :-1]) ** p).tolist()
    best = [0.0]
    for row in rows:
        best.append(max(map(operator.add, best, row)))
    return best[-1]


def _min_table(w: np.ndarray) -> np.ndarray:
    """``table[l, k]``: the least of ``w[k], w[k + 2], ...``, ``2^l`` entries, where all exist."""
    table = np.repeat(w[None], max(w.size - 1, 1).bit_length(), axis=0)
    for level in range(1, len(table)):
        shift = 1 << level
        np.minimum(table[level - 1, :-shift], table[level - 1, shift:], out=table[level, :-shift])
    return table


def _last_at_most(w: np.ndarray, ends: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Per query, the last ``k < ends[q]`` of its parity with ``w[k] <= caps[q]``, or -1."""
    table = _min_table(w)
    pos = ends.copy()
    for level in reversed(range(len(table))):
        size = 2 << level
        pos -= size * ((pos >= size) & (table[level, np.maximum(pos - size, 0)] > caps))
    return np.maximum(pos - 2, -1)


def _pvar_pairs(vals: np.ndarray, p: float) -> float:
    """``best[m - 1]`` of one scalar window of turns, over the pairs that can win.

    Row ``j`` keeps the chain from ``j - 1`` up the forest of previous
    strictly lower minima (previous higher maxima after a down-step), cut at
    its stop, the last earlier point at or beyond ``v_j`` (module docstring).
    A chain's nodes past a cut lie deeper than all others of their kind
    there, so a range minimum of depths counts them, and its node at depth
    ``D`` is the last of its kind at that depth up to ``j - 1``.  Rows advance
    a block at a time: a stack of those last nodes gives the pairs from
    before the block in pieces of ``_PVAR_BLOCK_CELLS``, one maximum per row;
    then each row adds its few pairs inside the block one by one.  A window
    with more than ``m^2 / _PVAR_PAIRS_DENSE`` pairs, such as a rising zigzag
    whose every earlier minimum is a candidate of each maximum, goes to the
    dense kernel instead.
    """
    v, m = vals[:, 0], vals.shape[0]
    nodes = np.arange(m)
    # maxima negated: a point's previous lower point of its kind (its parent)
    # and its stop are then one query on w
    w = v.copy()
    w[int(v[1] > v[0]) :: 2] *= -1.0
    found = _last_at_most(w, np.tile(nodes, 2), np.concatenate((np.nextafter(w, -np.inf), w)))
    # depths by pointer doubling, a root at depth 1
    depth, up = (found[:m] >= 0) + 1, found[:m].copy()
    live = np.flatnonzero(up >= 0)
    while live.size:
        depth[live] += depth[up[live]] - 1
        up[live] = up[up[live]]
        live = live[up[live] >= 0]
    # row j's chain starts at j - 1: its lowest depth past the stop, and past
    # the edge, the point before the row's block (none for its first row)
    heads = np.tile(nodes[:-1], 2)
    edge = nodes[:-1] // _PVAR_BLOCK_ROWS * _PVAR_BLOCK_ROWS
    cut = np.concatenate((found[m + 1 :], np.maximum(found[m + 1 :], edge)))
    after = np.minimum(cut + 1 + (cut + 1 - heads) % 2, heads)
    span = np.frexp((heads - after) // 2 + 1)[1] - 1
    table = _min_table(depth.astype(np.int32))
    lowest = np.minimum(table[span, after], table[span, heads + 2 - (2 << span)])
    lowest[cut >= heads] = depth[heads[cut >= heads]] + 1
    low, inner = lowest[: m - 1], lowest[m - 1 :]
    del table, heads, cut, after, span
    # row j's pairs are its chain's nodes from depth low to depth[j - 1]
    if int((depth[:-1] - low).sum()) + m - 1 > m * m // _PVAR_PAIRS_DENSE:
        return _pvar_stack([vals], p)[0]
    # nodes sorted by depth, kind and index: one depth up is 2m down in key
    keys = (depth * 2 + nodes % 2) * m + nodes
    ordered = np.sort(keys)
    stack, stack_v, stack_best = np.full(2 * m, -1), np.zeros(2 * m), np.zeros(2 * m)
    best = np.zeros(m)
    for r0 in range(1, m, _PVAR_BLOCK_ROWS):
        r1 = min(r0 + _PVAR_BLOCK_ROWS, m)
        h = slice(r0 - 1, r1 - 1)
        pushed = nodes[max(r0 - _PVAR_BLOCK_ROWS, 0) : r0]
        slots = pushed % 2 * m + depth[pushed] - 1
        np.maximum.at(stack, slots, pushed)
        stack_v[slots], stack_best[slots] = v[stack[slots]], best[stack[slots]]
        top = np.full(r1 - r0, -np.inf)
        spans = inner[h] - low[h]
        ends = np.cumsum(spans)
        lead = nodes[h] % 2 * m + inner[h] - 1 - ends
        for q0 in range(0, int(ends[-1]), _PVAR_BLOCK_CELLS):
            q1 = min(q0 + _PVAR_BLOCK_CELLS, int(ends[-1]))
            count = np.maximum(np.minimum(ends, q1) - np.maximum(ends - spans, q0), 0)
            slot = np.arange(q0, q1) + np.repeat(lead, count)
            dist = _increment_norms((np.repeat(v[r0:r1], count) - stack_v[slot])[:, None]) ** p
            hit = np.flatnonzero(count)
            top[hit] = np.maximum(top[hit], np.maximum.reduceat(
                stack_best[slot] + dist, (np.cumsum(count) - count)[hit]))
        # inside the block: the node ``t`` steps up the chain of the row's head
        count = depth[h] - inner[h] + 1
        row = np.repeat(np.arange(r1 - r0), count)
        t = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
        col = ordered[np.searchsorted(ordered, keys[r0 - 1 + row] - 2 * m * t, "right") - 1] % m
        dist = _increment_norms((np.repeat(v[r0:r1], count) - v[col])[:, None]) ** p
        rows, cols, dists = row.tolist() + [-1], (col - r0).tolist(), dist.tolist()
        block, k = [], 0
        for r, reach in enumerate(top.tolist()):
            while rows[k] == r:
                here = block[cols[k]] + dists[k]
                if here > reach:
                    reach = here
                k += 1
            block.append(reach)
        best[r0:r1] = block
    return float(best[-1])


def _pvar_dp(windows: Sequence[np.ndarray], p: float) -> list[float]:
    """Max of sum |increments|^p over subsequences anchored at both ends, per window.

    ``best[j] = max_{i<j} best[i] + |v_j - v_i|^p`` with ``best[0] = 0``, for
    every window of one value shape.  For p > 1 each window first drops its
    repeated points, and a scalar one keeps only its end points and turns
    (`_reduce_window`).  A window alone in the call then goes to
    `_pvar_small` if it has ``m >= 2`` points left with ``m^2 <=
    _PVAR_BLOCK_CELLS``, and to `_pvar_pairs` if it is scalar with more than
    ``_PVAR_BOUND_FROM`` points left.  The others are stacked, up to
    ``_PVAR_STACK_WINDOWS`` and longest first, and advance a block of
    ``_PVAR_STACK_ROWS`` rows at a time in pieces of at most
    ``_PVAR_BLOCK_CELLS`` point pairs (`_pvar_stack`): against the chunks of
    earlier points whose ball bound on the block's ball reaches
    ``best[r0 - 1]`` (`_kept_chunks`), then one row at a time for all
    windows.  Every kernel computes each cell it keeps as a row-by-row loop
    would and skips only cells that cannot hold a row's maximum, so the
    result depends on none of them, nor on the blocking.
    """
    out = [0.0] * len(windows)
    stack = []
    for b, vals in enumerate(windows):
        if p == 1.0:
            # triangle equality; dropping zeros would regroup np.sum's pairs
            out[b] = float(np.sum(_increment_norms(np.diff(vals, axis=0), vals.ndim == 3)))
            continue
        vals = _reduce_window(vals)
        if len(windows) == 1 and vals.shape[1:] == (1,) and vals.shape[0] > _PVAR_BOUND_FROM:
            out[b] = _pvar_pairs(vals, p)
        elif len(windows) == 1 and 1 < vals.shape[0] ** 2 <= _PVAR_BLOCK_CELLS:
            out[b] = _pvar_small(vals, p)
        elif vals.shape[0] > 1:
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


def _check_count(name: str, value) -> None:
    """Raise `InvalidParameter` unless ``value`` is an integer >= 1 (a float never is)."""
    if not (isinstance(value, (int, np.integer)) and value >= 1):
        raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")


def p_variation(path, p: float, window=None) -> float:
    """Exact p-variation ``v_p(x)`` of a step path over a window.

    Computed by a dynamic program over the breakpoints inside the window; on
    step paths this equals the supremum over all subdivisions.  For p > 1 the
    window drops repeated points and, if scalar, keeps only its turns, and the
    program skips only candidates that cannot win (module docstring), so the
    result is exact to the last bit.  Three kernels serve it: up to 128 points
    left, the rows advance on Python floats; a longer scalar window keeps only
    the pairs that can win; any other window advances a numpy row at a time.
    All pairs of points cost O(n^2); a long scalar window keeps 24 pairs a row
    at 3k turns of fBm, 100 at 95k, and takes the dense kernel where it keeps
    more than ``n^2 / 24`` pairs.
    Memory is bounded by ``_PVAR_BLOCK_CELLS`` pairs at a time, plus tables of
    ``O(n log n)`` for a long scalar window.  Degenerate windows yield 0.
    ``p`` must be finite and at least 1.
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
    return _derived(StepPath, path.grid, np.maximum.accumulate(path.values, axis=0))


def oscillation(path: StepPath, window=None) -> float:
    """``sup_{s,t in window} |x_t - x_s|`` over the window's breakpoints."""
    vals = _window_values(path, window)
    if path.dim == 1:
        return float(vals.max() - vals.min())
    # pairwise Euclidean diameter, in slices of rows to bound memory on long paths
    best, m = 0.0, vals.shape[0]
    for rows in _slices(m, max(1, 2_000_000 // max(m, 1))):
        best = max(best, float(_increment_norms(vals[rows, None, :] - vals[None, :, :]).max()))
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
    merged = np.unique(np.concatenate([p.times for p in paths]))
    # the sorted union of checked grids is one, and values read off checked
    # paths are finite
    grid = object.__new__(TimeGrid)
    object.__setattr__(grid, "times", _freeze(merged))
    return [_derived(StepPath, grid, p.eval(merged)) for p in paths]


def coarsen_jump_adapted(path: StepPath, delta: float, mesh: float) -> StepPath:
    """Subsample a path keeping all jumps larger than ``delta``.

    Sampling times are the partition of :func:`jump_adapted_times` with
    ``n = 1/mesh``: they advance by ``mesh`` and stop exactly at every jump
    of size > ``delta``; the value held on each piece is the input's value at
    the sampling time.  Mesh points at or beyond the final breakpoint are
    dropped (the path is constant from the last sample on anyway, up to jumps
    no larger than ``delta``).
    """
    # NaN fails both comparisons
    if not (delta > 0.0 and 0.0 < mesh < math.inf):
        raise InvalidParameter(f"delta must be positive and mesh positive and finite, "
                               f"got delta={delta}, mesh={mesh}")
    jump_times, jump_incr = path.jumps()
    big = jump_times[_increment_norms(jump_incr) > delta]
    out = jump_adapted_times(path.end_time, 1.0 / mesh, big)
    return _derived(StepPath, TimeGrid(out), path.eval(out))


# ---------------------------------------------------------------------------
# CSV path format: header t,x1,...,xd; one row per breakpoint, sorted by t
# ---------------------------------------------------------------------------

#: table rows formatted and written at a time; one chunk's cells are held as
#: Python floats (32 bytes each against 8) next to their text
_CSV_CHUNK_ROWS = 1024


#: stands for the prefix of each row of a chunk template; no formatted float has it
_PREFIX = "\0"


def _chunk_templates(times: np.ndarray, width: int) -> list[str]:
    """A template of each chunk of ``_CSV_CHUNK_ROWS`` rows with the time column
    ``times`` formatted: each row is ``_PREFIX``, its time's text and a format
    of ``width`` more cells.  Tables that share the column format it once."""
    row = _PREFIX + CSV_FLOAT_FORMAT + ("," + CSV_FLOAT_FORMAT.replace("%", "%%")) * width + "\n"
    chunks = (times[start : start + _CSV_CHUNK_ROWS].tolist()
              for start in range(0, len(times), _CSV_CHUNK_ROWS))
    return [(row * len(chunk)) % tuple(chunk) for chunk in chunks]


def _write_rows(fh, table: np.ndarray, prefix: str = "",
                templates: list[str] | None = None) -> None:
    """Write each row of a 2-D table as ``prefix`` and its cells.

    Each chunk of ``_CSV_CHUNK_ROWS`` rows is one ``%`` call, the row format
    repeated once a row, and one ``fh.write``.  The cells are formatted in
    the same order by the same format, so the bytes do not depend on the
    chunking.  With ``templates`` (`_chunk_templates`) each row is ``prefix``,
    its template's time text and its cells: the bytes of the table with the
    time column first."""
    row = prefix + ",".join([CSV_FLOAT_FORMAT] * table.shape[1]) + "\n"
    for chunk, start in enumerate(range(0, len(table), _CSV_CHUNK_ROWS)):
        cells = table[start : start + _CSV_CHUNK_ROWS]
        text = row * len(cells) if templates is None else templates[chunk].replace(_PREFIX, prefix)
        fh.write(text % tuple(cells.ravel().tolist()))


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
    """Parse the ``t,x1,...,xd`` format back into a :class:`StepPath`, row by row."""
    if not hasattr(src, "read"):
        with open(src, newline="") as fh:
            return read_path_csv(fh)
    rows = (r for r in csv.reader(src) if any(map(str.strip, r)))
    header = [c.strip() for c in next(rows, [])]
    if not header:
        raise MalformedCsv("empty path file")
    if len(header) < 2 or header[0] != "t":
        raise MalformedCsv(f"expected header 't,x1,...,xd', got {header}")
    width = len(header)
    cells = array.array("d")
    for r in rows:
        if len(r) != width:
            raise MalformedCsv(f"row width {len(r)} != header width {width}")
        try:
            cells.extend(map(float, r))
        except ValueError as exc:
            raise MalformedCsv(f"non-numeric cell in row {r}") from exc
    table = np.frombuffer(cells, dtype=float).reshape(-1, width)
    return make_path(table[:, 0], table[:, 1:])
