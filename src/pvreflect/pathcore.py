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

The dynamic program is one kernel for every caller.  For a scalar window and
p > 1 it first reduces the window to its end points and strict local extrema,
dropping repeated values; this is exact, because an interior point of a
monotone run only splits an increment into two of the same sign, and
``|a + b|^p >= |a|^p + |b|^p`` for same-sign ``a, b`` and ``p >= 1``
(Butkus & Norvaisa, "Computation of p-variation", Lith. Math. J. 2018).
It then advances a block of rows at a time, holding at most
``_PVAR_BLOCK_CELLS`` point pairs in memory at once.

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

#: most point pairs (block rows x earlier points) the DP holds at once
_PVAR_BLOCK_CELLS = 1 << 14
#: rows the DP advances per block; the rest of the cap goes to columns
_PVAR_BLOCK_ROWS = 64


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


def _pvar_dp(vals: np.ndarray, p: float) -> float:
    """Max of sum |increments|^p over subsequences anchored at both ends.

    ``best[j] = max_{i<j} best[i] + |v_j - v_i|^p`` with ``best[0] = 0``.
    Rows are advanced a block at a time: first against every earlier point
    outside the block, one column chunk at a time, then one row at a time
    against the rows of the block before it.  Each distance is the norm of
    the increment raised to ``p`` and each sum adds one distance to one
    ``best``, as a row-by-row loop would, so the result does not depend on
    the blocking.
    """
    m = vals.shape[0]
    if m < 2:
        return 0.0
    matrix = vals.ndim == 3
    if p == 1.0:
        # triangle equality: keep every breakpoint
        return float(np.sum(_increment_norms(np.diff(vals, axis=0), matrix)))
    if vals[0].size == 1:
        vals = _local_extrema(vals)
        m = vals.shape[0]
    # one row per component keeps each component's block differences contiguous
    comps = np.ascontiguousarray(vals.reshape(m, -1).T)

    def dist_p(r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
        diffs = (comps[:, r0:r1, None] - comps[:, None, c0:c1]).transpose(1, 2, 0)
        diffs = diffs.reshape(r1 - r0, c1 - c0, *vals.shape[1:])
        return _increment_norms(diffs, matrix) ** p

    rows, cols = _pvar_block_shape(m)
    best = np.zeros(m)
    for r0 in range(1, m, rows):
        r1 = min(r0 + rows, m)
        # column 0: best over the points before the block; then the block itself
        block = np.empty((r1 - r0, r1 - r0 + 1))
        block[:, 0] = -np.inf
        for c0 in range(0, r0, cols):
            c1 = min(c0 + cols, r0)
            sums = dist_p(r0, r1, c0, c1)
            sums += best[c0:c1]
            np.maximum(block[:, 0], sums.max(axis=1), out=block[:, 0])
        block[:, 1:] = dist_p(r0, r1, r0, r1)
        # head[0] = 0 passes column 0 through; head[1 + k] is best[r0 + k]
        head = np.zeros(r1 - r0 + 1)
        for k in range(r1 - r0):
            head[k + 1] = (head[: k + 1] + block[k, : k + 1]).max()
        best[r0:r1] = head[1:]
    return float(best[-1])


def p_variation(path, p: float, window=None) -> float:
    """Exact p-variation ``v_p(x)`` of a step path over a window.

    Computed by an O(n^2) dynamic program over the breakpoints inside the
    window; on step paths this equals the supremum over all subdivisions.
    For a scalar path and p > 1 the window is first reduced to its end points
    and strict local extrema, repeated values dropped.  This is exact: an
    interior point of a monotone run splits an increment into two of the
    same sign, and ``|a + b|^p >= |a|^p + |b|^p`` for those (Butkus &
    Norvaisa, "Computation of p-variation", Lith. Math. J. 2018), so n counts
    the extrema only.  The program holds at most ``_PVAR_BLOCK_CELLS`` point
    pairs at a time.  Degenerate windows yield 0.
    """
    if p < 1.0:
        raise InvalidP(f"p must be >= 1, got {p}")
    return _pvar_dp(_window_values(path, window), float(p))


def p_variation_brute(path, p: float, window=None) -> float:
    """Exhaustive p-variation oracle: enumerates every breakpoint subsequence.

    All subsequences anchored at both window ends are enumerated explicitly
    (grouped by length so the increment sums vectorize), which is exponential
    in the window size; windows with more than 16 points are refused.  Kept
    as an independent cross-check for the dynamic program.
    """
    if p < 1.0:
        raise InvalidP(f"p must be >= 1, got {p}")
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


def variation_norm(path, p: float, window=None, include_right: bool = True) -> float:
    """Variation norm ``(v_p)^(1/p) + |x_a|`` over the window.

    ``include_right=False`` computes the half-open variant on ``[a, b)``,
    used for integrand norms in the Stieltjes bound.
    """
    if p < 1.0:
        raise InvalidP(f"p must be >= 1, got {p}")
    vals = _window_values(path, window, include_right=include_right)
    anchor = float(_increment_norms(vals[0], vals.ndim == 3))
    return _pvar_dp(vals, float(p)) ** (1.0 / p) + anchor


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
    """Resample every path onto the union of all grids, preserving values."""
    paths = list(paths)
    if not paths:
        return []
    merged = paths[0].times
    for p in paths[1:]:
        merged = np.union1d(merged, p.times)
    return [StepPath(TimeGrid(merged), p.eval(merged)) for p in paths]


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

def write_path_csv(path: StepPath, dest) -> None:
    """Write a path as ``t,x1,...,xd`` rows with 17 significant digits."""

    def _write(fh) -> None:
        header = "t," + ",".join(f"x{i + 1}" for i in range(path.dim))
        fh.write(header + "\n")
        for t, row in zip(path.times, path.values):
            cells = [CSV_FLOAT_FORMAT % t] + [CSV_FLOAT_FORMAT % v for v in row]
            fh.write(",".join(cells) + "\n")

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
