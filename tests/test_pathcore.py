import io
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvreflect import (
    Interval,
    StepPath,
    TimeGrid,
    align,
    coarsen_jump_adapted,
    make_matrix_path,
    make_path,
    oscillation,
    p_variation,
    p_variation_brute,
    read_path_csv,
    running_max,
    sup_distance,
    sup_norm,
    variation_norm,
    write_path_csv,
)
from pvreflect.pathcore import variation_norms
from pvreflect.errors import (
    InvalidP,
    InvalidParameter,
    LengthMismatch,
    MalformedCsv,
    NegativeTime,
    NonFiniteValue,
    NonMonotoneGrid,
)
from pvreflect import pathcore
from pvreflect.cli import main as cli_main
from pvreflect.drivers import FbmSpec, sample_fbm
from pvreflect.presets import PROBLEM_PRESETS, build_problem
from pvreflect.sde import euler_batch
from pvreflect.pathcore import (
    _CSV_CHUNK_ROWS,
    _PVAR_BLOCK_CELLS,
    _PVAR_CHUNK,
    _SVD_BIG,
    _SVD_SMALL,
    _balls,
    _chunk_bounds,
    _dist_p,
    _increment_norms,
    _pvar_block_shape,
    _pvar_dp,
    _reduce_window,
    _window_values,
    _write_rows,
)
from conftest import random_step_path


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

def test_make_path_single_point():
    p = make_path([0.0], [(1.0, 2.0)])
    assert p.dim == 2
    assert np.array_equal(p.eval(5.0), [1.0, 2.0])


def test_make_path_three_step_scalar():
    p = make_path([0, 1, 2], [0, 1, 0])
    assert p.dim == 1
    assert p.end_time == 2.0


def test_make_path_rejects_bad_input():
    with pytest.raises(NonMonotoneGrid):
        make_path([0, 1, 1], [0, 1, 2])
    with pytest.raises(NonMonotoneGrid):
        make_path([1, 2], [0, 1])
    with pytest.raises(LengthMismatch):
        make_path([0, 1], [0, 1, 2])
    with pytest.raises(NonFiniteValue):
        make_path([0, 1], [0, np.nan])
    with pytest.raises(NonMonotoneGrid, match="non-empty"):
        TimeGrid([])
    with pytest.raises(NonFiniteValue):
        TimeGrid([0.0, np.inf])
    with pytest.raises(LengthMismatch, match="2 values for 3 grid times"):
        StepPath(TimeGrid([0.0, 1.0, 2.0]), [0.0, 1.0])
    with pytest.raises(InvalidParameter, match="finite"):
        Interval(0.0, np.inf)
    with pytest.raises(InvalidParameter, match="0 <= a <= b"):
        Interval(2.0, 1.0)


#: each bad grid with the error class and message of its first failing check
BAD_GRIDS = [
    ([], NonMonotoneGrid, "grid must be a non-empty 1-D sequence"),
    ([[0.0, 1.0], [2.0, 3.0]], NonMonotoneGrid, "grid must be a non-empty 1-D sequence"),
    ([0.0, np.nan, 2.0], NonFiniteValue, "grid times must be finite"),
    ([0.0, np.inf], NonFiniteValue, "grid times must be finite"),
    ([-np.inf, 0.0], NonFiniteValue, "grid times must be finite"),
    ([1.0, 2.0], NonMonotoneGrid, "grid must start at 0, got 1.0"),
    ([0.0, 2.0, 1.0], NonMonotoneGrid, "grid times must be strictly increasing"),
]


@pytest.mark.parametrize("times, error, message", BAD_GRIDS)
def test_time_grid_errors_name_the_first_failing_check(times, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        TimeGrid(times)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make_path(times, np.zeros(np.size(times)))


def test_eval_and_left_limit():
    p = make_path([0, 1], [0, 5])
    assert p.eval(1.0) == 5.0          # right continuity
    assert p.left_limit(1.0) == 0.0
    assert p.eval(0.5) == 0.0
    assert p.eval(10.0) == 5.0         # constant after the last breakpoint
    assert p.left_limit(0.5) == 0.0    # before the first jump
    with pytest.raises(NegativeTime):
        p.eval(-0.1)
    with pytest.raises(NegativeTime):
        p.left_limit(0.0)


def test_matrix_paths_share_evaluation_but_not_the_vector_type():
    m = make_matrix_path([0, 1], [np.eye(2), 2 * np.eye(2)])
    assert not isinstance(m, StepPath)
    assert (m.dim, m.end_time) == (2, 1.0)
    assert np.array_equal(m.eval(1.0), 2 * np.eye(2))
    assert np.array_equal(m.left_limit(1.0), np.eye(2))
    assert m.eval([0.5, 1.0]).shape == (2, 2, 2)
    assert make_matrix_path([0.0], 3.0).values.shape == (1, 1, 1)
    with pytest.raises(LengthMismatch):
        make_matrix_path([0.0], np.zeros((1, 2, 3)))
    with pytest.raises(LengthMismatch):
        make_matrix_path([0, 1], np.zeros((3, 2, 2)))
    with pytest.raises(NonFiniteValue):
        make_matrix_path([0.0], np.full((1, 2, 2), np.inf))
    with pytest.raises(NegativeTime):
        m.left_limit(0.0)


# ---------------------------------------------------------------------------
# p-variation
# ---------------------------------------------------------------------------

def test_pvariation_constant_path_is_zero():
    p = make_path([0.0], [3.0])
    for q in (1.0, 1.5, 2.0, 3.0):
        assert p_variation(p, q) == 0.0
        assert p_variation(make_matrix_path([0.0], np.eye(2)[None]), q) == 0.0


def test_pvariation_p1_is_total_variation():
    p = make_path([0, 1, 2], [0, 1, 0])
    assert p_variation(p, 1.0) == pytest.approx(2.0, abs=0)


def test_pvariation_drops_intermediate_point():
    # with values 0,1,3 the single jump 0->3 beats 1 + 4
    p = make_path([0, 1, 2], [0, 1, 3])
    assert p_variation(p, 2.0) == pytest.approx(9.0, abs=0)
    assert p_variation_brute(p, 2.0) == pytest.approx(9.0, abs=0)


def test_pvariation_zigzag():
    p = make_path([0, 1, 2], [0, 1, 0])
    assert p_variation(p, 2.0) == pytest.approx(2.0, abs=0)


def test_pvariation_invalid_p_and_empty_window():
    p = make_path([0, 1], [0, 1])
    for bad in (0.5, math.nan, math.inf):
        for func in (p_variation, p_variation_brute, variation_norm):
            with pytest.raises(InvalidP):
                func(p, bad)
    assert p_variation(p, 2.0, Interval(0.5, 0.5)) == 0.0


def test_pvariation_brute_force_limits():
    assert p_variation_brute(make_path([0.0], [3.0]), 2.0) == 0.0
    zigzag = make_path(np.arange(17.0), np.arange(17.0) % 2)
    assert p_variation_brute(zigzag, 2.0, (0.0, 15.0)) == p_variation(zigzag, 2.0, (0.0, 15.0))
    with pytest.raises(InvalidParameter, match="16 points"):
        p_variation_brute(zigzag, 2.0)


def test_variation_norms_stack_paths_of_one_value_shape():
    zig = make_path([0, 1, 2], [0, 1, 0])
    line = make_path([0, 1], [2, 4])
    assert variation_norms([zig, line, zig], 2.0) == [
        variation_norm(zig, 2.0), variation_norm(line, 2.0), variation_norm(zig, 2.0)]
    assert variation_norms([], 2.0) == []
    with pytest.raises(LengthMismatch):
        variation_norms([zig, make_path([0, 1], [(0, 0), (1, 1)])], 2.0)
    with pytest.raises(LengthMismatch):
        variation_norms([make_path([0.0], [1.0]), make_matrix_path([0.0], 1.0)], 2.0)


def test_variation_norm_examples():
    const = make_path([0.0], [3.0])
    assert variation_norm(const, 2.0) == pytest.approx(3.0)
    zig = make_path([0, 1, 2], [0, 1, 0])
    assert variation_norm(zig, 2.0, (0, 2)) == pytest.approx(math.sqrt(2.0))
    p = make_path([0, 1], [2, 4])
    assert variation_norm(p, 1.0, (0, 1)) == pytest.approx(4.0)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=16),
    shape=st.sampled_from([(1,), (2,), (3,), (1, 1), (2, 2)]),
    ties=st.booleans(),
    p=st.sampled_from([1.0, 1.2, 1.5, 2.0, 3.0]),
)
def test_pvariation_matches_brute_force(data, n, shape, ties, p):
    gaps = data.draw(st.lists(
        st.floats(0.05, 1.0, allow_nan=False), min_size=n - 1, max_size=n - 1))
    # small integers make repeated values and equal increments common
    cell = st.integers(-2, 2).map(float) if ties else st.floats(-5, 5, allow_nan=False)
    size = n * math.prod(shape)
    vals = np.asarray(data.draw(st.lists(cell, min_size=size, max_size=size)))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    build = make_path if len(shape) == 1 else make_matrix_path
    path = build(times, vals.reshape(n, *shape))
    dp = p_variation(path, p)
    brute = p_variation_brute(path, p)
    assert dp == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_pvariation_extrema_pruning_is_bit_identical():
    path = sample_fbm(FbmSpec(hurst=0.75, steps=4096, seed=11))
    assert _reduce_window(path.values).shape[0] < path.values.shape[0] // 2
    # a zero second component changes no increment norm but skips the pruning
    lifted = make_path(path.times, np.column_stack([path.values[:, 0], np.zeros(4097)]))
    for p in (1.5, 2.0, 3.0):
        assert p_variation(path, p) == p_variation(lifted, p)
    ties = np.array([0.0, 1.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0, 2.0, 0.0])[:, None]
    assert np.array_equal(_reduce_window(ties)[:, 0], [0.0, 2.0, 1.0, 3.0, 0.0])


def _pvar_row_by_row(vals, p):
    """One row per step, the reference for the blocked kernel."""
    best = np.zeros(vals.shape[0])
    for j in range(1, vals.shape[0]):
        dist = _increment_norms(vals[j] - vals[:j], vals.ndim == 3)
        best[j] = np.max(best[:j] + dist ** p)
    return float(best[-1])


@pytest.fixture
def kept_chunks(monkeypatch):
    """Kept and bounded (row block, chunk) pairs of the DP's branch and bound."""
    counts = [0, 0]
    bound = pathcore._kept_chunks

    def spy(*args):
        mask = bound(*args)
        counts[0] += int(mask.sum())
        counts[1] += mask.size
        return mask

    monkeypatch.setattr(pathcore, "_kept_chunks", spy)
    return counts


@pytest.mark.parametrize("shape", [(2,), (3,), (2, 2)])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_pvariation_blocks_match_row_by_row_dp(shape, p, rng, kept_chunks):
    rows, cols = _pvar_block_shape(10 ** 6)
    # several row blocks, more earlier points than one column chunk holds,
    # and row blocks with enough earlier points for the bound
    m = cols + 2 * rows + 3
    vals = np.cumsum(rng.normal(size=(m, *shape)), axis=0)
    build = make_path if len(shape) == 1 else make_matrix_path
    path = build(np.arange(m, dtype=float), vals)
    assert p_variation(path, p) == _pvar_row_by_row(vals, p)
    assert 0 < kept_chunks[0] < kept_chunks[1]


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (2, 2)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pvariation_stack_matches_per_window_dp(shape, p, rng, kept_chunks):
    # ragged lengths: windows the bound prunes, one of a few row blocks, one
    # just past a single row block, and short windows that ride in the first
    # block: of one row block, of a few points, of two and of one
    windows = [np.cumsum(rng.normal(size=(m, *shape)), axis=0)
               for m in (700, 451, 300, 90, 33, 32, 17, 3, 2, 1)]
    stacked = _pvar_dp(windows, p)
    if len(shape) > 1 or shape[0] > 1:
        assert 0 < kept_chunks[0] < kept_chunks[1]
    assert stacked == [_pvar_dp([w], p)[0] for w in windows]
    # the DP runs on each window without repeats, and on a scalar one's extrema
    reduced = [_reduce_window(w) for w in windows]
    assert stacked == [_pvar_row_by_row(w, p) for w in reduced]


def _with_repeats(rng, m, shape):
    """A random walk of ``m`` points whose steps are zero in runs of one to five."""
    steps = rng.normal(size=(m, *shape))
    still = np.zeros(m, dtype=bool)
    for start in rng.choice(m, size=m // 8, replace=False):
        still[start : start + rng.integers(1, 6)] = True
    steps[still] = 0.0
    return np.cumsum(steps, axis=0)


@pytest.mark.parametrize("shape", [(2,), (3,), (2, 2)])
def test_pvariation_drops_repeated_points_exactly(shape, rng):
    # windows the bound prunes and windows of one row block, with runs of
    # repeated points, a zero that repeats as -0.0 and a repeated last point
    windows = [_with_repeats(rng, m, shape) for m in (420, 90)]
    signed = np.zeros((4, *shape))
    signed[1] = -0.0
    signed[3] = 1.0
    windows += [signed, np.concatenate([signed, signed[-1:]])]
    for vals in windows:
        kept = _reduce_window(vals)
        assert kept.shape[0] < vals.shape[0]
        assert not np.any(np.all((kept[1:] == kept[:-1]).reshape(len(kept) - 1, -1), axis=1))
        for p in (1.5, 2.0, 3.0):
            assert _pvar_dp([vals], p) == [_pvar_row_by_row(vals, p)]
        # p = 1 sums every increment, the zeros too, in numpy's pairwise order
        norms = _increment_norms(np.diff(vals, axis=0), vals.ndim == 3)
        assert _pvar_dp([vals], 1.0) == [float(np.sum(norms))]
    # points that repeat in some components only are kept, uncopied
    distinct = np.cumsum(rng.normal(size=(50, *shape)), axis=0)
    distinct.reshape(50, -1)[10:15, 0] = distinct.reshape(50, -1)[9, 0]
    assert _reduce_window(distinct) is distinct


def _reduce_window_reference(vals):
    """`_reduce_window` as first written, with `np.diff` and three concatenations."""
    flat = vals.reshape(vals.shape[0], -1)
    moves = flat[1:] != flat[:-1]
    if flat.shape[1] > 1:
        moves = moves.any(axis=1)
        return vals if moves.all() else vals[np.concatenate(([True], moves))]
    idx = np.concatenate(([0], np.flatnonzero(moves) + 1))
    if idx.size < 3:
        return vals[idx]
    down = np.signbit(np.diff(flat[idx, 0]))
    turns = np.flatnonzero(down[:-1] != down[1:]) + 1
    return vals[np.concatenate(([0], idx[turns], [idx[-1]]))]


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (1, 1), (2, 2)])
def test_reduce_window_matches_the_reference(shape, rng):
    windows = []
    for m in (1, 2, 3, 5, 40, 120):
        windows.append(np.cumsum(rng.normal(size=(m, *shape)), axis=0))
        # ties between points that are not neighbours, and plateaus
        windows.append(rng.integers(-2, 3, size=(m, *shape)).astype(float))
        windows.append(_with_repeats(rng, m, shape))
        # +0 and -0 in every order, as repeats of each other
        windows.append(rng.choice([0.0, -0.0, 1.0], size=(m, *shape)))
    for vals in windows:
        got, want = _reduce_window(vals), _reduce_window_reference(vals)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _window_values_by_masks(path, a, b, include_right):
    """The anchor ``eval(a)`` joined to the masked breakpoints, the reference slice."""
    if b <= a:
        return path.eval(a)[None]
    times = path.times
    sel = (times > a) & ((times <= b) if include_right else (times < b))
    return np.concatenate([path.eval(a)[None], path.values[sel]], axis=0)


@pytest.mark.parametrize("d", [1, 3])
def test_window_values_slice_equals_masks(d, rng):
    for _ in range(20):
        path = random_step_path(rng, max_points=30, d=d, horizon=2.0)
        times = path.times
        inner = rng.uniform(0.0, 2.0, size=2)
        points = [0.0, times[1], times[len(times) // 2], times[-1], *inner, 2.5]
        for a, b in itertools.product(points, repeat=2):
            if a > b:
                continue
            for right in (True, False):
                got = _window_values(path, (a, b), include_right=right)
                assert np.array_equal(got, _window_values_by_masks(path, a, b, right))
                assert got.base is not None


@pytest.mark.parametrize("scale", [1e-170, 1e-165, 1e153, 1e200])
@pytest.mark.parametrize("shape", [(2,), (2, 2)])
def test_pvariation_pruning_is_exact_where_squares_underflow_or_overflow(scale, shape, rng):
    # squares of increments fall into the subnormal range or overflow to inf
    vals = np.cumsum(rng.normal(size=(420, *shape)), axis=0) * scale
    with np.errstate(over="ignore", under="ignore"):
        for p in (1.5, 2.0):
            assert _pvar_dp([vals], p) == [_pvar_row_by_row(vals, p)]


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (2, 2)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_chunk_bounds_cover_every_candidate(shape, p, rng):
    # On one line the triangle inequality is an equality, so the bound of the
    # rows' ball on a chunk is tight but for rounding: the rows lie past every
    # chunk, so their farthest pair spans both balls, and the point farthest
    # from them holds the chunk's largest best.  Matrices on one line have
    # rank one, where the operator and Frobenius norms agree.
    if len(shape) == 2:
        direction = np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1])).ravel()
    else:
        direction = rng.normal(size=shape[0])
    chunks, rows = 40, 64
    along = rng.uniform(-1.0, 1.0, size=(chunks * _PVAR_CHUNK, 1))
    points = rng.normal(size=direction.size) + along * direction
    here = points[:1] + rng.uniform(2.0, 3.0, size=(rows, 1)) * direction
    best = np.abs(rng.normal(size=chunks * _PVAR_CHUNK)) + (1.0 - along[:, 0])
    centres, radii = _balls(points.reshape(chunks, _PVAR_CHUNK, -1))
    top = best.reshape(chunks, _PVAR_CHUNK).max(axis=1)
    bound = _chunk_bounds(*_balls(here), centres, radii, top, p)
    # every candidate as the DP computes it
    diffs = here[:, None, :] - points[None, :, :]
    cand = _increment_norms(diffs.reshape(rows, -1, *shape), len(shape) == 2) ** p + best
    assert (bound >= cand.reshape(rows, chunks, _PVAR_CHUNK).max(axis=2)).all()


def test_pvariation_bound_skips_most_chunks_of_a_long_walk(kept_chunks):
    # a bound that stops pruning keeps every result but fails here: on this
    # walk the block balls keep 3.2% of the (row block, chunk) pairs
    walk = np.cumsum(np.random.default_rng(0).normal(size=(8192, 2)), axis=0)
    _pvar_dp([walk], 2.0)
    assert 0 < kept_chunks[0] < 0.06 * kept_chunks[1]


def test_pvariation_bound_prunes_the_ensemble_stack(kept_chunks):
    # the vbar_p_x DP of 16 fbm-reflected solutions at n = 1024 (d = 2, p = 2):
    # the balls of 16-point chunks keep 19.7% of the (row block, chunk) pairs
    # there, and those of 32-point chunks 26.3%.  Counts work, times nothing
    problems = build_problem(PROBLEM_PRESETS["fbm-reflected"], seed=5, replicates=16)
    solutions = euler_batch(problems, 1024, "adaptive")
    variation_norms([solution.x for solution in solutions], problems[0].p)
    assert 0 < kept_chunks[0] < 0.22 * kept_chunks[1]


def test_pvariation_stacked_fbm_windows_match_their_lone_pair_kernel(kept_chunks):
    windows = [sample_fbm(FbmSpec(hurst=0.75, steps=1 << 14, seed=seed)).values
               for seed in range(4)]
    stacked = _pvar_dp(windows, 2.0)
    assert 0 < kept_chunks[0] < kept_chunks[1]
    assert stacked == [pathcore._pvar_pairs(_reduce_window(w), 2.0) for w in windows]


@pytest.mark.parametrize("m", [2, 100, 70_000])
def test_pvariation_blocks_stay_under_the_cell_cap(m):
    rows, cols = _pvar_block_shape(m)
    assert _PVAR_BLOCK_CELLS <= 1 << 16
    # column chunks against earlier points, then the block's own rows plus
    # one column for the best over earlier points
    assert rows * cols <= _PVAR_BLOCK_CELLS
    assert rows * (rows + 1) <= _PVAR_BLOCK_CELLS


@pytest.fixture
def pair_windows(monkeypatch):
    """Windows the pruned scalar kernel is called on."""
    seen = []
    kernel = pathcore._pvar_pairs

    def spy(vals, p):
        seen.append(vals)
        return kernel(vals, p)

    monkeypatch.setattr(pathcore, "_pvar_pairs", spy)
    return seen


def _zigzag(rng, m):
    """``m`` alternating turns: every point is kept by `_reduce_window`."""
    return np.cumsum(rng.uniform(0.5, 1.5, size=m) * (-1.0) ** np.arange(m))[:, None]


def _rising_then_walk(rng):
    """A rising zigzag of 1500 turns, whose blocks hold 23k pairs, then a walk."""
    rising = np.arange(1500) + 10.0 * (-1.0) ** np.arange(1500)
    return np.concatenate([rising, 1500.0 + np.cumsum(rng.normal(size=4000))])[:, None]


def _long_scalar_windows(rng):
    m = 1500
    signed = np.cumsum(rng.integers(-1, 2, size=m)).astype(float)
    zeros = np.flatnonzero(signed == 0.0)
    signed[zeros[::2]] = -0.0
    runs = np.repeat(rng.choice([-1.0, 1.0], size=m), rng.integers(1, 40, size=m))
    return {
        "walk": np.cumsum(rng.normal(size=m)),
        "fbm": sample_fbm(FbmSpec(hurst=0.75, steps=4096, seed=3)).values[:, 0],
        # small integers: ties between turns that are not neighbours, and plateaus
        "integers": np.cumsum(rng.integers(-3, 4, size=m)).astype(float),
        "signed-zeros": signed,
        "monotone-runs": np.cumsum(runs * rng.uniform(0.1, 1.0, size=runs.size)),
        # every earlier minimum is a candidate of a maximum, about m^2 / 8
        # pairs: the window goes to the dense kernel
        "rising": np.arange(m) + 10.0 * (-1.0) ** np.arange(m),
        # the same, then a walk: few enough pairs in all to stay, but row
        # blocks past the cap on pairs come in several pieces
        "rising-then-walk": _rising_then_walk(rng)[:, 0],
    }


@pytest.mark.parametrize("kind", ["walk", "fbm", "integers", "signed-zeros", "monotone-runs",
                                  "rising", "rising-then-walk"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pvariation_pairs_match_row_by_row_dp(kind, p, rng, pair_windows):
    vals = _long_scalar_windows(rng)[kind][:, None]
    reduced = _reduce_window(vals)
    assert reduced.shape[0] > pathcore._PVAR_BOUND_FROM
    assert _pvar_dp([vals], p) == [_pvar_row_by_row(reduced, p)]
    assert len(pair_windows) == 1 and np.array_equal(pair_windows[0], reduced)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_pvariation_pairs_from_just_past_the_bound(p, rng, pair_windows):
    for m in (pathcore._PVAR_BOUND_FROM, pathcore._PVAR_BOUND_FROM + 1):
        vals = _zigzag(rng, m)
        assert _reduce_window(vals).shape[0] == m
        assert _pvar_dp([vals], p) == [_pvar_row_by_row(vals, p)]
    assert len(pair_windows) == 1 and pair_windows[0].shape[0] == pathcore._PVAR_BOUND_FROM + 1


def test_pvariation_pairs_serve_only_a_lone_long_scalar_window(rng, pair_windows):
    long = _zigzag(rng, 2000)
    _pvar_dp([long], 1.0)
    _pvar_dp([np.hstack([long, long[::-1]])], 2.0)
    _pvar_dp([long[:, :, None]], 2.0)
    _pvar_dp([long, long[::-1]], 2.0)
    assert pair_windows == []
    _pvar_dp([long], 2.0)
    assert len(pair_windows) == 1


@pytest.fixture
def stack_windows(monkeypatch):
    """Window lengths of each call of the dense stacked kernel."""
    seen = []
    kernel = pathcore._pvar_stack

    def spy(windows, p):
        seen.append([w.shape[0] for w in windows])
        return kernel(windows, p)

    monkeypatch.setattr(pathcore, "_pvar_stack", spy)
    return seen


def _peak_bytes_of_dp(vals):
    tracemalloc.start()
    try:
        _pvar_dp([vals], 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_pvariation_pairs_are_held_a_piece_at_a_time(stack_windows):
    # the rising zigzag has about m^2 / 8 pairs, tens of MB if held at once,
    # and goes to the dense kernel
    vals = (np.arange(2000) + 10.0 * (-1.0) ** np.arange(2000))[:, None]
    assert _peak_bytes_of_dp(vals) < 16 * 8 * _PVAR_BLOCK_CELLS
    assert stack_windows == [[2000]]


def test_pvariation_pairs_of_a_zigzag_then_walk_come_in_pieces(rng, stack_windows):
    # the walk after the zigzag keeps the window on the pruned kernel, where
    # a block's pairs pass the cap and come in pieces
    assert _peak_bytes_of_dp(_rising_then_walk(rng)) < 16 * 8 * _PVAR_BLOCK_CELLS
    assert stack_windows == []


def test_pvariation_pairs_hand_a_rising_zigzag_to_the_dense_kernel(pair_windows, stack_windows):
    # every earlier minimum is a candidate of each maximum: m^2 / 8 pairs,
    # past the m^2 / 24 that the pruned kernel takes on
    k = np.arange(32768)
    vals = (k + 10.0 * (-1.0) ** k)[:, None]
    assert _reduce_window(vals).shape[0] == 32768
    assert _pvar_dp([vals], 2.0) == [_pvar_row_by_row(vals, 2.0)]
    assert len(pair_windows) == 1 and stack_windows == [[32768]]


def test_pvariation_pairs_keep_fbm_and_refine_windows(pair_windows, stack_windows, tmp_path):
    p_variation(sample_fbm(FbmSpec(hurst=0.75, steps=1 << 18, seed=3)), 2.0)
    # the one DP of the benchmark's refine run, on its finest solution
    rc = cli_main(["simulate", "--preset", "fbm-reflected", "--dimension", "1",
                   "--driver-steps", "8192", "--tol", "1e-4", "--n", "64", "--seed", "1",
                   "--out", str(tmp_path / "refine.csv")])
    assert rc == 0
    assert [w.shape[0] > 2000 for w in pair_windows] == [True, True]
    assert stack_windows == []


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (1, 1), (2, 2)])
@pytest.mark.parametrize("m", [2, 3, 64, 128])
@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
def test_pvariation_small_kernel_matches_row_by_row_dp(shape, m, p, rng):
    walk = np.cumsum(rng.normal(size=(m, *shape)), axis=0)
    # small integers: repeated points, equal distances and tied candidates
    ties = rng.integers(-2, 3, size=(m, *shape)).astype(float)
    for vals in (walk, ties):
        assert pathcore._pvar_small(vals, p) == _pvar_row_by_row(vals, p)


@pytest.fixture
def small_windows(monkeypatch):
    """Windows the one-call kernel for lone small windows is called on."""
    seen = []
    kernel = pathcore._pvar_small

    def spy(vals, p):
        seen.append(vals)
        return kernel(vals, p)

    monkeypatch.setattr(pathcore, "_pvar_small", spy)
    return seen


def test_pvariation_small_kernel_serves_only_a_lone_window_of_at_most_128_points(
        rng, small_windows):
    assert 128 ** 2 == _PVAR_BLOCK_CELLS
    # 129 points that `_reduce_window` keeps, scalar, vector and matrix
    walks = [_zigzag(rng, 129), np.cumsum(rng.normal(size=(129, 2)), axis=0),
             np.cumsum(rng.normal(size=(129, 2, 2)), axis=0)]
    for walk in walks:
        assert _reduce_window(walk).shape[0] == 129
        # 129 points alone, windows of a stack, p = 1 and one point take another way
        _pvar_dp([walk], 2.0)
        _pvar_dp([walk[:128], walk[:128]], 2.0)
        _pvar_dp([walk[:10], walk[:3]], 2.0)
        _pvar_dp([walk[:10]], 1.0)
        _pvar_dp([walk[:1]], 2.0)
        assert small_windows == []
        for m in (128, 2):
            assert _pvar_dp([walk[:m]], 2.0) == [_pvar_row_by_row(walk[:m], 2.0)]
            assert len(small_windows) == 1 and small_windows.pop().shape[0] == m
    # the kernel sees the window after repeated points are dropped
    repeats = np.repeat(walks[1], 2, axis=0)
    assert _pvar_dp([repeats[:200]], 1.5) == [_pvar_row_by_row(walks[1][:100], 1.5)]
    assert len(small_windows) == 1 and np.array_equal(small_windows[0], walks[1][:100])


def test_three_component_norms_equal_einsum_bit_for_bit(rng):
    # magnitudes from 2^-520, whose squares are subnormal, to 2^500, plus
    # zeros and subnormal components
    size = 300_000
    vals = rng.uniform(1.0, 2.0, size=(size, 3)) * np.exp2(
        rng.integers(-520, 501, size=(size, 3)).astype(float))
    vals *= rng.choice([-1.0, 1.0], size=(size, 3))
    vals[rng.random(size=(size, 3)) < 0.05] = 0.0
    tiny = rng.random(size=(size, 3)) < 0.02
    vals[tiny] = rng.uniform(-1.0, 1.0, size=int(tiny.sum())) * 2.0 ** -1022
    # one component near the others' scale makes every addition round
    vals[::3, 1] = vals[::3, 0] * rng.uniform(0.5, 2.0, size=vals[::3].shape[0])
    with np.errstate(under="ignore"):
        expected = np.sqrt(np.einsum("ij,ij->i", vals, vals))
        assert np.array_equal(_increment_norms(vals), expected)
        # a strided view, as the DP passes, and a leading shape
        comps = np.ascontiguousarray(vals.T)
        assert np.array_equal(_increment_norms(comps.T), expected)
        assert np.array_equal(_increment_norms(vals.reshape(-1, 100, 3)), expected.reshape(-1, 100))


def _dist_p_from_differences(here, there, p, shape):
    """The DP's distances as they were computed before they were summed in
    place: the ``(B, D, n, C)`` differences, transposed, into `_increment_norms`,
    laid out ``(B, C, n)`` as `_dist_p` returns them."""
    diffs = (here[..., :, None] - there[..., None, :]).transpose(0, 2, 3, 1)
    norms = _increment_norms(diffs.reshape(*diffs.shape[:3], *shape), len(shape) == 2) ** p
    return norms.transpose(0, 2, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_dist_p_in_place_equals_the_difference_tensor_bit_for_bit(d, p, rng):
    # per window, magnitudes from 2^-540 (squares underflow) to 2^500 (the
    # p-th power overflows), zeros, subnormals and equal points
    for b, n, c in ((1, 1, 1), (3, 32, 37), (5, 7, 300)):
        scale = np.exp2(rng.integers(-540, 501, size=(b, 1, 1)).astype(float))
        here = rng.standard_normal((b, d, n)) * scale
        there = rng.standard_normal((b, d, c)) * scale
        there[:, :, ::5] = 0.0
        there[:, :, 1::7] = rng.uniform(-1.0, 1.0, size=there[:, :, 1::7].shape) * 2.0 ** -1022
        there[:, :, 2::9] = here[:, :, :1]
        with np.errstate(under="ignore", over="ignore"):
            got = _dist_p(here, there, p, (d,))
            assert got.shape == (b, c, n)
            assert np.array_equal(got.view(np.int64),
                                  _dist_p_from_differences(here, there, p, (d,)).view(np.int64))


def _one_by_one_norms_agree(values):
    mats = np.asarray(values, dtype=float)[:, None, None]
    expected = np.linalg.norm(mats, ord=2, axis=(-2, -1))
    return np.array_equal(_increment_norms(mats, True).view(np.int64), expected.view(np.int64))


def test_one_by_one_operator_norms_equal_the_svd_bit_for_bit(rng):
    edges = [0.0, 5e-324, 2.0 ** -1022, 1e-300, _SVD_SMALL, _SVD_BIG, 1e300,
             np.finfo(float).max]
    with np.errstate(over="ignore"):  # past the largest float is inf, left out
        near = [np.nextafter(v, towards) for v in edges for towards in (0.0, np.inf)]
    values = np.array(edges + near)
    values = values[np.isfinite(values)]
    assert _one_by_one_norms_agree(np.concatenate([values, -values]))
    # random bit patterns: about a tenth lie outside the unscaled range, where
    # |x| and the SVD differ
    bits = rng.integers(0, 2 ** 64, size=400_000, dtype=np.uint64).view(float)
    bits = bits[np.isfinite(bits)]
    assert _one_by_one_norms_agree(bits)
    assert not np.array_equal(np.abs(bits), np.linalg.norm(bits[:, None, None], ord=2,
                                                            axis=(-2, -1)))
    # leading axes, a lone matrix and an empty stack
    stack = bits[:600].reshape(20, 30, 1, 1)
    assert np.array_equal(_increment_norms(stack, True),
                          np.linalg.norm(stack, ord=2, axis=(-2, -1)))
    for value in (3.0, 1e-200, -1e200):
        assert float(_increment_norms(np.array([[value]]), True)) == float(
            np.linalg.norm(np.array([[value]]), ord=2))
    assert _increment_norms(np.zeros((0, 1, 1)), True).shape == (0,)
    # a 1x1 matrix path outside the range, whose first value takes a lone norm
    path = make_matrix_path([0.0, 1.0, 2.0], [1e-200, -3e-200, 2e-200])
    assert variation_norms([path], 2.0) == [variation_norm(path, 2.0)]


@pytest.mark.parametrize("p", [1.1, 1.2, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_pvariation_distance_never_falls_as_the_increment_grows(p, rng):
    # the pruned kernel compares values, not their distances, so it is exact
    # only while numpy's power is monotone: a kernel that is not fails here
    # rather than moving a last bit
    bases = np.sort(np.concatenate([rng.uniform(0.0, 4.0, size=200_000),
                                    10.0 ** rng.uniform(-320.0, 308.0, size=200_000)]))
    with np.errstate(over="ignore", under="ignore"):
        dist = _increment_norms(bases[:, None]) ** p
        next_ulp = _increment_norms(np.nextafter(bases, np.inf)[:, None]) ** p
    assert np.all(dist[1:] >= dist[:-1])
    assert np.all(next_ulp >= dist)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=3, max_value=12))
def test_pvariation_window_monotone_and_superadditive(data, n):
    gaps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    vals = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    path = make_path(np.concatenate([[0.0], np.cumsum(gaps)]), np.asarray(vals))
    end = path.end_time
    mid = 0.5 * end
    p = 2.0
    slack = 1e-9
    assert p_variation(path, p, (0, mid)) <= p_variation(path, p, (0, end)) + slack
    assert (
        p_variation(path, p, (0, mid)) + p_variation(path, p, (mid, end))
        <= p_variation(path, p, (0, end)) + slack
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=10))
def test_variation_norm_nonincreasing_in_p(data, n):
    gaps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    vals = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    path = make_path(np.concatenate([[0.0], np.cumsum(gaps)]), np.asarray(vals))
    ps = [1.0, 1.5, 2.0, 3.0, 4.0]
    vnorms = [p_variation(path, p) ** (1.0 / p) for p in ps]
    for lo, hi in zip(vnorms[1:], vnorms[:-1]):
        assert lo <= hi + 1e-9 * max(1.0, hi)


# ---------------------------------------------------------------------------
# running max / oscillation
# ---------------------------------------------------------------------------

def test_running_max_examples():
    assert np.array_equal(
        running_max(make_path([0, 1, 2], [0, 1, 0])).values.ravel(), [0, 1, 1])
    nondec = make_path([0, 1, 2], [0, 1, 5])
    assert np.array_equal(running_max(nondec).values, nondec.values)
    assert np.array_equal(
        running_max(make_path([0, 1, 2], [5, 3, 4])).values.ravel(), [5, 5, 5])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=30),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0]))
def test_running_max_difference_contraction(data, n, p):
    # the running-max map is 1-Lipschitz for v_p on scalar paths
    gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    v1 = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    v2 = data.draw(st.lists(st.floats(-5, 5), min_size=n, max_size=n))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    y1, y2 = make_path(times, np.asarray(v1)), make_path(times, np.asarray(v2))
    lhs = p_variation(running_max(y1) - running_max(y2), p)
    rhs = p_variation(y1 - y2, p)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_oscillation_and_sup_norm():
    assert oscillation(make_path([0.0], [7.0])) == 0.0
    assert oscillation(make_path([0, 1, 2], [0, 1, 0]), (0, 2)) == 1.0
    assert sup_norm(make_path([0, 1], [-2, 3]), (0, 1)) == 3.0


@pytest.mark.parametrize("d, m", [(2, 40), (3, 40), (2, 1500), (3, 1500)])
def test_oscillation_vector_paths_match_pairwise_max(rng, d, m):
    # m = 1500 spans two memory chunks of the pairwise diameter
    vals = np.cumsum(rng.normal(size=(m, d)), axis=0)
    path = make_path(np.arange(m, dtype=float), vals)
    brute = max(float(np.linalg.norm(vals - row, axis=1).max()) for row in vals)
    assert oscillation(path) == pytest.approx(brute, rel=1e-14)
    inner = vals[10:20]
    brute = max(float(np.linalg.norm(inner - row, axis=1).max()) for row in inner)
    assert oscillation(path, (10.0, 19.0)) == pytest.approx(brute, rel=1e-14)


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------

def test_coarsen_no_big_jump_coarse_mesh_is_constant():
    p = make_path([0, 1, 2], [0, 0.3, 0.4])
    out = coarsen_jump_adapted(p, delta=0.5, mesh=10.0)
    assert np.array_equal(out.times, [0.0])
    assert out.eval(2.0) == 0.0


def test_coarsen_keeps_large_jump():
    p = make_path([0, 1, 2], [0, 0.3, 2.0])
    out = coarsen_jump_adapted(p, delta=0.5, mesh=10.0)
    assert np.array_equal(out.times, [0.0, 2.0])
    assert np.array_equal(out.values.ravel(), [0.0, 2.0])


def test_coarsen_fine_mesh_recovers_input_on_shared_points(rng):
    p = random_step_path(rng, max_points=15)
    out = coarsen_jump_adapted(p, delta=1e-9, mesh=1e-3)
    for t in p.times:
        assert out.eval(t) == pytest.approx(p.eval(t), abs=0)


def test_coarsen_parameter_validation():
    p = make_path([0, 1], [0, 1])
    with pytest.raises(InvalidParameter):
        coarsen_jump_adapted(p, delta=0.0, mesh=1.0)
    with pytest.raises(InvalidParameter):
        coarsen_jump_adapted(p, delta=1.0, mesh=-1.0)
    # NaN passes no comparison, and an infinite mesh is no mesh: refused
    # before any partition is built, so before numpy can warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta, mesh in ((math.nan, 1.0), (1.0, math.nan), (1.0, math.inf),
                            (math.nan, math.inf)):
            with pytest.raises(InvalidParameter, match="mesh"):
                coarsen_jump_adapted(p, delta=delta, mesh=mesh)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(min_value=2, max_value=20))
def test_coarsen_preserves_big_jumps_and_does_not_raise_pvar(data, n):
    gaps = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n - 1, max_size=n - 1))
    vals = data.draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
    delta = data.draw(st.floats(0.1, 2.0))
    mesh = data.draw(st.floats(0.05, 3.0))
    path = make_path(np.concatenate([[0.0], np.cumsum(gaps)]), np.asarray(vals))
    out = coarsen_jump_adapted(path, delta, mesh)
    jt, ji = path.jumps()
    big = jt[np.abs(ji[:, 0]) > delta]
    for t in big:
        assert t in out.times
    for p in (1.0, 2.0):
        assert p_variation(out, p) <= p_variation(path, p) + 1e-9


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------

def test_align_identity_cases():
    p = make_path([0, 1], [0, 1])
    (only,) = align([p])
    assert np.array_equal(only.times, p.times)
    a, b = align([p, make_path([0, 1], [5, 6])])
    assert np.array_equal(a.times, p.times)
    assert np.array_equal(b.values.ravel(), [5, 6])


def test_align_merges_grids_preserving_values():
    p1 = make_path([0, 1], [0, 1])
    p2 = make_path([0, 0.5], [2, 3])
    a1, a2 = align([p1, p2])
    assert np.array_equal(a1.times, [0, 0.5, 1])
    assert np.array_equal(a1.values.ravel(), [0, 0, 1])
    assert np.array_equal(a2.values.ravel(), [2, 3, 3])


def test_align_returns_paths_on_one_grid_unchanged():
    p1 = make_path([0, 0.5, 1], [0, 1, 2])
    p2 = StepPath(p1.grid, [3.0, 4.0, 5.0])
    out = align([p1, p2, p1])
    assert all(a is b for a, b in zip(out, [p1, p2, p1]))
    assert align([]) == []


def test_align_gives_every_output_one_grid():
    # equal times on distinct grid objects are merged like any other grids
    paths = [make_path([0, 1], [0, 1]), make_path([0, 0.5], [2, 3]), make_path([0, 1], [4, 5])]
    out = align(paths)
    assert all(a.grid is out[0].grid for a in out)
    assert np.array_equal(out[0].times, [0, 0.5, 1])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_align_agrees_with_eval_everywhere(data):
    n1 = data.draw(st.integers(2, 10))
    n2 = data.draw(st.integers(2, 10))
    g1 = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n1 - 1, max_size=n1 - 1))
    g2 = data.draw(st.lists(st.floats(0.05, 1.0), min_size=n2 - 1, max_size=n2 - 1))
    v1 = data.draw(st.lists(st.floats(-5, 5), min_size=n1, max_size=n1))
    v2 = data.draw(st.lists(st.floats(-5, 5), min_size=n2, max_size=n2))
    p1 = make_path(np.concatenate([[0.0], np.cumsum(g1)]), np.asarray(v1))
    p2 = make_path(np.concatenate([[0.0], np.cumsum(g2)]), np.asarray(v2))
    a1, a2 = align([p1, p2])
    ts = data.draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=5))
    for t in ts:
        assert a1.eval(t) == pytest.approx(p1.eval(t), abs=0)
        assert a2.eval(t) == pytest.approx(p2.eval(t), abs=0)


def test_sup_distance():
    p1 = make_path([0, 1], [0, 1])
    p2 = make_path([0, 0.5], [0, 2])
    # on [0.5, 1) paths are 0 vs 2
    assert sup_distance(p1, p2) == 2.0


# ---------------------------------------------------------------------------
# path arithmetic
# ---------------------------------------------------------------------------

def test_path_arithmetic_aligns_grids():
    p1 = make_path([0, 1], [1, 2])
    p2 = make_path([0, 0.5], [1, 1])
    s = p1 + p2
    assert np.array_equal(s.times, [0, 0.5, 1])
    assert np.array_equal(s.values.ravel(), [2, 2, 3])
    d = p1 - p2
    assert np.array_equal(d.values.ravel(), [0, 0, 1])
    assert np.array_equal((2.0 * p1).values.ravel(), [2, 4])
    assert np.array_equal((-p1).values.ravel(), [-1, -2])
    with pytest.raises(TypeError):
        p1 + 1.0
    with pytest.raises(LengthMismatch, match="share a dimension"):
        p1 + make_path([0, 1], [(0, 0), (1, 1)])


def test_derived_paths_skip_the_public_checks(rng, validations):
    y1, y2 = random_step_path(rng, d=2), random_step_path(rng, d=2)
    assert validations == {"grid": 2, "path": 2}
    a, b = align([y1, y2])
    derived = [a, b, a - b, y1 - y2, -a, running_max(a), a.component(1), 2.0 * a]
    assert validations == {"grid": 2, "path": 2}
    # each is the path the public constructor builds from the same values
    for path in derived:
        rebuilt = StepPath(TimeGrid(path.times), path.values)
        assert path.values.shape == rebuilt.values.shape
        assert path.values.tobytes() == rebuilt.values.tobytes()
        assert not path.values.flags.writeable and not path.times.flags.writeable


def test_derived_arithmetic_that_overflows_raises():
    big = make_path([0.0, 1.0], [1.0, 1e308])
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="path values must be finite"):
            big * 10.0
        with pytest.raises(NonFiniteValue, match="path values must be finite"):
            big - make_path([0.0, 0.5], [0.0, -1e308])
        with pytest.raises(NonFiniteValue, match="path values must be finite"):
            big + big


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------

def test_csv_round_trip_exact(rng):
    path = random_step_path(rng, max_points=25, d=3)
    buf = io.StringIO()
    write_path_csv(path, buf)
    back = read_path_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(back.times, path.times)
    assert np.array_equal(back.values, path.values)


def test_csv_reader_holds_floats_not_rows(tmp_path):
    path = sample_fbm(FbmSpec(hurst=0.75, steps=1 << 16, seed=5))
    src = tmp_path / "long.csv"
    write_path_csv(path, src)
    tracemalloc.start()
    try:
        back = read_path_csv(src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.values, path.values)
    # the table is 1 MiB of floats; a list of rows of strings is about 20
    assert peak < 4 << 20


def test_csv_header_and_errors():
    buf = io.StringIO()
    write_path_csv(make_path([0, 1], [(1, 2), (3, 4)]), buf)
    assert buf.getvalue().splitlines()[0] == "t,x1,x2"
    with pytest.raises(MalformedCsv):
        read_path_csv(io.StringIO("a,b\n1,2\n"))
    with pytest.raises(MalformedCsv):
        read_path_csv(io.StringIO("t,x1\n0,zero\n"))
    with pytest.raises(MalformedCsv):
        read_path_csv(io.StringIO(""))
    with pytest.raises(MalformedCsv, match="row width 3 != header width 2"):
        read_path_csv(io.StringIO("t,x1\n0,1\n1,2,3\n"))


#: signed zero, the least subnormal and normal, the extremes, inexact
#: decimals and whole numbers
_CSV_CELLS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              -1.7976931348623157e308, 0.1, 1 / 3, 0.0, 1.0, -3.0, 2.0**53, 1e22]


class _CountingStream(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _csv_table(rng, rows):
    """A ``rows`` x 12 table: its first row holds every cell of ``_CSV_CELLS``,
    the others random magnitudes with those cells scattered among them."""
    width = len(_CSV_CELLS)
    table = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
    special = rng.random((rows, width)) < 0.25
    table[special] = rng.choice(_CSV_CELLS, special.sum())
    if rows:
        table[0] = _CSV_CELLS
    return table


@pytest.mark.parametrize("prefix", ["", "15,"])
@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
def test_write_rows_matches_a_row_by_row_reference(rng, rows, prefix):
    table = _csv_table(rng, rows)
    expected = "".join(prefix + ",".join("%.17g" % c for c in row) + "\n"
                       for row in table.tolist())
    out = _CountingStream()
    _write_rows(out, table, prefix)
    assert out.getvalue() == expected
    # one write a chunk of rows, not one a row
    assert out.writes == math.ceil(rows / _CSV_CHUNK_ROWS)
    back = np.array([[float(c) for c in line.split(",")[bool(prefix):]]
                     for line in out.getvalue().splitlines()]).reshape(table.shape)
    assert np.array_equal(np.signbit(back), np.signbit(table))
    assert np.array_equal(back, table)
