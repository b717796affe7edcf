import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvreflect import (
    Interval,
    StepPath,
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
from pvreflect.drivers import FbmSpec, sample_fbm
from pvreflect.pathcore import (
    _PVAR_BLOCK_CELLS,
    _PVAR_CHUNK,
    _chunk_balls,
    _chunk_bounds,
    _increment_norms,
    _local_extrema,
    _pvar_block_shape,
    _pvar_dp,
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
    assert _local_extrema(path.values).shape[0] < path.values.shape[0] // 2
    # a zero second component changes no increment norm but skips the pruning
    lifted = make_path(path.times, np.column_stack([path.values[:, 0], np.zeros(4097)]))
    for p in (1.5, 2.0, 3.0):
        assert p_variation(path, p) == p_variation(lifted, p)
    ties = np.array([0.0, 1.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0, 2.0, 0.0])[:, None]
    assert np.array_equal(_local_extrema(ties)[:, 0], [0.0, 2.0, 1.0, 3.0, 0.0])


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
    # ragged lengths: windows the bound prunes, one of a single row block,
    # and windows of two points and of one
    windows = [np.cumsum(rng.normal(size=(m, *shape)), axis=0)
               for m in (700, 451, 300, 90, 2, 1)]
    stacked = _pvar_dp(windows, p)
    if len(shape) > 1 or shape[0] > 1:
        assert 0 < kept_chunks[0] < kept_chunks[1]
    assert stacked == [_pvar_dp([w], p)[0] for w in windows]
    # the DP runs on a scalar window's extrema
    reduced = [_local_extrema(w) if w[0].size == 1 else w for w in windows]
    assert stacked == [_pvar_row_by_row(w, p) for w in reduced]


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
    # On one line the triangle inequality is an equality, so the bound on a
    # chunk is tight but for rounding; the rows lie past every chunk and the
    # point farthest from them holds the chunk's largest best.  Matrices on
    # one line have rank one, where the operator and Frobenius norms agree.
    if len(shape) == 2:
        direction = np.outer(rng.normal(size=shape[0]), rng.normal(size=shape[1])).ravel()
    else:
        direction = rng.normal(size=shape[0])
    chunks, rows = 40, 64
    along = rng.uniform(-1.0, 1.0, size=(chunks * _PVAR_CHUNK, 1))
    points = rng.normal(size=direction.size) + along * direction
    here = points[:1] + rng.uniform(2.0, 3.0, size=(rows, 1)) * direction
    best = np.abs(rng.normal(size=chunks * _PVAR_CHUNK)) + (1.0 - along[:, 0])
    centres, radii = _chunk_balls(points)
    top = best.reshape(chunks, _PVAR_CHUNK).max(axis=1)
    bound = _chunk_bounds(here, centres, radii, top, p)
    # every candidate as the DP computes it
    diffs = here[:, None, :] - points[None, :, :]
    cand = _increment_norms(diffs.reshape(rows, -1, *shape), len(shape) == 2) ** p + best
    assert (bound >= cand.reshape(rows, chunks, _PVAR_CHUNK).max(axis=2)).all()


@pytest.mark.parametrize("m", [2, 100, 70_000])
def test_pvariation_blocks_stay_under_the_cell_cap(m):
    rows, cols = _pvar_block_shape(m)
    assert _PVAR_BLOCK_CELLS <= 1 << 16
    # column chunks against earlier points, then the block's own rows plus
    # one column for the best over earlier points
    assert rows * cols <= _PVAR_BLOCK_CELLS
    assert rows * (rows + 1) <= _PVAR_BLOCK_CELLS


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
