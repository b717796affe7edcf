import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pvreflect import (
    Coefficients,
    FbmSpec,
    Problem,
    VolatilitySpec,
    a_priori_check,
    build_zh,
    constant_path,
    euler_adaptive,
    euler_batch,
    euler_uniform,
    linear_path,
    make_path,
    sample_fbm,
    sine_path,
    solve,
    solve_sp,
    sup_distance,
    variation_norm,
)
from pvreflect.errors import (
    CoefficientEvaluationFailure,
    DimensionMismatch,
    InadmissibleStart,
    InvalidP,
    InvalidParameter,
    NoConvergence,
    NonFiniteValue,
    PartitionOverflow,
)
from pvreflect.presets import PROBLEM_PRESETS, build_problem, coefficient_preset
from pvreflect.pathcore import STEP_CAP, _increment_norms, variation_norms
from pvreflect.sde import _SWEEP_ROWS, _jump_table, _partition, refinement_ladder, solution_gap
from pvreflect.drivers import philox_stream
from conftest import random_step_path


def zero_a(horizon=1.0):
    return constant_path(0.0, horizon)


def identity_coeffs(d=1):
    return coefficient_preset("identity", d)


def fbm_problem(seed, d=1, coeffs="tanh", n_driver=256, barrier_level=0.0):
    spec = FbmSpec(hurst=0.75, horizon=1.0, steps=n_driver, seed=seed)
    comps = [sample_fbm(spec, path_index=i) for i in range(d)]
    z = build_zh(comps, VolatilitySpec(np.ones((d, n_driver + 1))))
    return Problem(
        x0=np.full(d, 0.5),
        a=linear_path(1.0, 1.0, n_driver),
        z=z,
        l=constant_path(barrier_level, 1.0, d),
        coeffs=coefficient_preset(coeffs, d),
        p=2.0,
    )


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_problem_validation():
    z = make_path([0, 1], [0, 1])
    l = constant_path(0.0, 1.0)
    for x0 in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InadmissibleStart, match="finite and at or above"):
            Problem(x0=[x0], a=zero_a(), z=z, l=l, coeffs=identity_coeffs(), p=2.0)
    with pytest.raises(DimensionMismatch):
        Problem(x0=[0.0, 0.0], a=zero_a(), z=z, l=l, coeffs=identity_coeffs(), p=2.0)
    with pytest.raises(DimensionMismatch):
        Problem(x0=[0.0], a=make_path([0, 1], [(0, 0), (1, 1)]), z=z, l=l,
                coeffs=identity_coeffs(), p=2.0)
    for bad in (0.5, math.nan, math.inf):
        with pytest.raises(InvalidP):
            Problem(x0=[1.0], a=zero_a(), z=z, l=l, coeffs=identity_coeffs(), p=bad)
    # horizon inferred from driver end times
    prob = Problem(x0=[1.0], a=zero_a(2.0), z=z, l=l, coeffs=identity_coeffs(), p=2.0)
    assert prob.horizon == 2.0
    with pytest.raises(InvalidParameter):
        Problem(x0=[1.0], a=make_path([0.0], [0.0]), z=make_path([0.0], [0.0]),
                l=make_path([0.0], [0.0]), coeffs=identity_coeffs(), p=2.0)
    for horizon in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameter, match="horizon"):
            Problem(x0=[1.0], a=zero_a(), z=z, l=l, coeffs=identity_coeffs(), p=2.0,
                    horizon=horizon)


# ---------------------------------------------------------------------------
# the uniform scheme
# ---------------------------------------------------------------------------

def test_additive_case_with_remote_barrier_reproduces_driver():
    rng = philox_stream(10)
    z = random_step_path(rng, max_points=30, horizon=1.0)
    prob = Problem(x0=[0.0], a=zero_a(), z=z,
                   l=constant_path(-1e9, 1.0),
                   coeffs=identity_coeffs(), p=2.0)
    sol = euler_uniform(prob, 64)
    grid = sol.x.times
    assert np.allclose(sol.x.values, z.eval(grid) - z.eval(0.0), atol=1e-12)
    assert np.all(sol.k.values == 0.0)


def test_scheme_equals_reflection_of_sampled_input():
    # with f=0, g=I the recursion is the running-max reflection of the
    # sampled input: no discretization error at any resolution
    for case in range(10):
        rng = philox_stream(11, case)
        z = random_step_path(rng, max_points=40, horizon=1.0)
        x0 = abs(float(rng.normal())) + 0.1
        prob = Problem(x0=[x0], a=zero_a(), z=z,
                       l=constant_path(0.0, 1.0),
                       coeffs=identity_coeffs(), p=2.0)
        sol = euler_uniform(prob, 37)
        grid = sol.x.times
        sampled = make_path(grid, x0 + z.eval(grid) - z.eval(0.0))
        ref = solve_sp(sampled, make_path([0.0], [0.0]))
        assert np.abs(sol.x.values - ref.x.values).max() <= 1e-12
        assert np.abs(sol.k.values - ref.k.values).max() <= 1e-12


def test_geometric_growth_oracle():
    n = 1024
    prob = Problem(
        x0=[1.0], a=zero_a(),
        z=linear_path(1.0, 1.0, n),
        l=constant_path(-1e6, 1.0),
        coeffs=coefficient_preset("geometric", 1), p=2.0,
    )
    sol = euler_uniform(prob, n)
    assert abs(sol.x.eval(1.0)[0] - math.e) < 5e-3
    assert abs(sol.x.eval(1.0)[0] - (1 + 1 / n) ** n) < 1e-10
    assert np.all(sol.k.values == 0.0)


def test_scheme_invariants_on_random_problems():
    for case in range(15):
        rng = philox_stream(12, case)
        d = int(rng.integers(1, 3))
        z = random_step_path(rng, max_points=30, d=d)
        l = random_step_path(rng, max_points=10, d=d, jump_scale=0.3)
        l = make_path(l.times, l.values - l.values[0] - 1.0)  # starts at -1
        prob = Problem(x0=np.zeros(d), a=linear_path(1.0, 1.0, 8),
                       z=z, l=l, coeffs=coefficient_preset("tanh", d), p=2.0)
        sol = euler_adaptive(prob, 25)
        r = sol.reflection
        assert r.max_defect() <= 1e-12
        # regulator moves only while touching the barrier
        dk = np.diff(r.k.values, axis=0)
        gap = (r.x.values - r.l.values)[1:]
        assert np.all(gap[dk > 1e-12] <= 1e-9)


def test_coefficient_failure_is_reported():
    prob = Problem(
        x0=[1.0], a=zero_a(), z=make_path([0, 1], [0, 1]),
        l=constant_path(0.0, 1.0),
        coeffs=Coefficients(f=np.zeros_like, g=lambda x: np.full((len(x), 1, 1), np.nan)),
        p=2.0,
    )
    with pytest.raises(CoefficientEvaluationFailure):
        euler_uniform(prob, 8)


# ---------------------------------------------------------------------------
# the adaptive scheme
# ---------------------------------------------------------------------------

def test_adaptive_partition_hits_large_jump_exactly():
    z = make_path([0.0, 0.37, 1.0], [0.0, 1.0, 1.0])
    prob = Problem(x0=[0.0], a=zero_a(), z=z,
                   l=constant_path(-1e6, 1.0),
                   coeffs=identity_coeffs(), p=2.0)
    sol = euler_adaptive(prob, 10)
    times = sol.x.times.tolist()
    assert 0.37 in times
    i = times.index(0.37)
    # the whole jump lands in a single step
    assert sol.x.values[i, 0] - sol.x.values[i - 1, 0] == pytest.approx(1.0, abs=1e-12)


def test_adaptive_ignores_small_jumps():
    z = make_path([0.0, 0.37, 1.0], [0.0, 0.05, 0.05])  # jump below 1/n
    prob = Problem(x0=[0.0], a=zero_a(), z=z,
                   l=constant_path(-1e6, 1.0),
                   coeffs=identity_coeffs(), p=2.0)
    sol = euler_adaptive(prob, 10)
    assert 0.37 not in sol.x.times.tolist()
    uniform = euler_uniform(prob, 10)
    assert np.array_equal(sol.x.times, uniform.x.times)
    assert np.abs(sol.x.values - uniform.x.values).max() <= 1e-12


def test_adaptive_collapses_to_uniform_without_jumps():
    z = linear_path(1.0, 1.0, 1000)
    prob = Problem(x0=[0.0], a=zero_a(), z=z,
                   l=constant_path(-1.0, 1.0),
                   coeffs=identity_coeffs(), p=2.0)
    sa, su = euler_adaptive(prob, 10), euler_uniform(prob, 10)
    assert np.array_equal(sa.x.times, su.x.times)
    assert np.array_equal(sa.x.values, su.x.values)
    assert np.array_equal(sa.k.values, su.k.values)


def test_partition_overflow_guard(monkeypatch):
    prob = fbm_problem(1, n_driver=64)
    monkeypatch.setattr("pvreflect.pathcore.STEP_CAP", 100)
    with pytest.raises(PartitionOverflow, match="exceeds 100 points"):
        euler_adaptive(prob, 1024)


def _reference_partition(horizon, n, big, step_cap=STEP_CAP):
    """The scalar "mesh or next big jump" loop the vectorized partition replaced."""
    out = [0.0]
    t = 0.0
    base = 0.0
    mesh_count = 0
    ptr = 0
    while True:
        while ptr < big.size and big[ptr] <= t:
            ptr += 1
        next_jump = big[ptr] if ptr < big.size else np.inf
        mesh_t = base + (mesh_count + 1) / n
        if next_jump <= mesh_t:
            t = float(next_jump)
            base = t
            mesh_count = 0
        else:
            if mesh_t >= horizon:
                break
            t = mesh_t
            mesh_count += 1
        out.append(t)
        if len(out) > step_cap:
            raise PartitionOverflow(f"adaptive partition exceeded {step_cap} points")
    if out[-1] < horizon:
        out.append(horizon)
    return np.asarray(out)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       horizon=st.floats(0.01, 8.0),
       n=st.sampled_from([1, 3, 7, 10, 16, 33, 100, 1000]))
def test_partition_equals_reference_loop(data, horizon, n):
    # free jumps, jumps landing exactly on base + j/n, and one at the horizon
    free = data.draw(st.lists(st.floats(0.0, horizon), max_size=10))
    jumps = [t for t in free if t > 0.0]
    for _ in range(data.draw(st.integers(0, 4))):
        base = data.draw(st.sampled_from([0.0] + jumps))
        jumps.append(base + data.draw(st.integers(1, 8)) / n)
    if data.draw(st.booleans()):
        jumps.append(horizon)
    jumps = np.unique(np.asarray([t for t in jumps if 0.0 < t <= horizon], dtype=float))
    for big in (jumps, np.empty(0)):
        expected = _reference_partition(horizon, n, big)
        got = _partition(horizon, n, big)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


def test_partition_cap_is_the_reference_cap(monkeypatch):
    # the cap counts points before the horizon is appended, as the loop did
    big = np.array([0.25, 0.5])
    times = _reference_partition(1.0, 8, big)
    assert times.size == 9
    monkeypatch.setattr("pvreflect.pathcore.STEP_CAP", 8)
    assert np.array_equal(_partition(1.0, 8, big), times)
    with pytest.raises(PartitionOverflow):
        _reference_partition(1.0, 8, big, step_cap=7)
    monkeypatch.setattr("pvreflect.pathcore.STEP_CAP", 7)
    with pytest.raises(PartitionOverflow):
        _partition(1.0, 8, big)


def _reference_big_jumps(problem, threshold):
    """The big jumps of one level as each level used to find them."""
    cut = []
    for path in (problem.a, problem.z, problem.l):
        times, incr = path.jumps()
        sizes = _increment_norms(incr)
        cut.append(times[(sizes > threshold) & (times <= problem.horizon)])
    return np.unique(np.concatenate(cut))


def test_jump_table_gives_each_levels_big_jumps():
    # a, z and l jump at shared times too, with sizes on both sides of 1/n,
    # and past the horizon
    rng = philox_stream(17)
    for case in range(40):
        d = 1 + case % 3
        shared = rng.uniform(0.05, 1.5, size=6)

        def path(dim, shift=0.0):
            times = np.unique(np.r_[0.0, rng.choice(shared, 3), rng.uniform(0.01, 1.5, 4)])
            return make_path(times, rng.normal(scale=0.4, size=(times.size, dim)) + shift)

        prob = Problem(x0=np.zeros(d), a=path(1), z=path(d), l=path(d, -5.0),
                       coeffs=identity_coeffs(d), p=2.0, horizon=1.0)
        times, sizes = _jump_table(prob)
        for n in (1, 2, 3, 5, 10, 100):
            expected = _reference_big_jumps(prob, 1.0 / n)
            assert np.unique(times[sizes > 1.0 / n]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("scheme, n", [(euler_uniform, 10**12), (euler_adaptive, 10**30)])
def test_partition_overflow_raises_before_allocating(scheme, n):
    # 10**30 also exceeds int64: the count must be refused while still a float
    prob = fbm_problem(2, n_driver=64)
    tracemalloc.start()
    try:
        with pytest.raises(PartitionOverflow):
            scheme(prob, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_uniform_partition_ends_at_the_horizon():
    # floor(horizon * n) rounds up to K + 1 here although (K + 1)/n lies one
    # ulp past the horizon; the partition stops below it and ends at horizon
    horizon, n = 0.02728300819903873, 77814
    k = math.floor(horizon * n)
    assert k / n > horizon
    prob = Problem(x0=[1.0], a=zero_a(horizon), z=make_path([0.0, horizon], [0.0, 0.0]),
                   l=constant_path(0.0, horizon),
                   coeffs=identity_coeffs(), p=2.0, horizon=horizon)
    times = euler_uniform(prob, n).x.times
    assert times[-1] == horizon
    assert times[-2] == (k - 1) / n
    assert np.array_equal(times, euler_adaptive(prob, n).x.times)


# ---------------------------------------------------------------------------
# the batched recursion
# ---------------------------------------------------------------------------

def preset_batch(replicates, **fields):
    """``fbm-reflected`` problems for replicates 0..R-1 sharing one Coefficients."""
    preset = dataclasses.replace(PROBLEM_PRESETS["fbm-reflected"], **fields)
    return build_problem(preset, seed=7, replicates=replicates)


@pytest.mark.parametrize("sigma", ["unit", "twoblock", "sine"])
def test_build_problem_shares_all_but_z_across_replicates(sigma):
    # each replicate used to get its own a, l and Coefficients, and callers
    # re-shared the Coefficients for the batch
    preset = dataclasses.replace(PROBLEM_PRESETS["fbm-reflected"], sigma=sigma,
                                 horizon=2.0, driver_steps=64)
    problems = build_problem(preset, seed=7, replicates=3)
    assert len(problems) == 3
    for prob in problems[1:]:
        assert prob.a is problems[0].a
        assert prob.l is problems[0].l
        assert prob.coeffs is problems[0].coeffs
    # z of replicate r as it was built per replicate: components from
    # (seed, 2 r + i), sigma as one (dim, steps + 1) array
    spec = FbmSpec(hurst=0.75, horizon=2.0, steps=64, seed=7)
    t = spec.times
    vector = {"unit": np.ones(t.size), "twoblock": np.where(t < 1.0, 2.0, 0.0),
              "sine": 1.0 + 0.5 * np.sin(2.0 * np.pi * t / 2.0)}[sigma]
    vol = VolatilitySpec(sigma=np.vstack([vector, vector]))
    for r, prob in enumerate(problems):
        z = build_zh([sample_fbm(spec, path_index=2 * r + i) for i in range(2)], vol)
        assert np.array_equal(prob.z.times, z.times)
        assert np.array_equal(prob.z.values, z.values)
    assert not np.array_equal(problems[0].z.values, problems[1].z.values)
    with pytest.raises(InvalidParameter, match="replicates"):
        build_problem(preset, seed=7, replicates=0)


@pytest.mark.parametrize("driver", ["linear", "zero"])
def test_build_problem_builds_a_deterministic_z_once(driver):
    preset = dataclasses.replace(PROBLEM_PRESETS["geometric"], driver=driver, driver_steps=64)
    problems = build_problem(preset, seed=7, replicates=3)
    assert all(prob.z is problems[0].z for prob in problems)
    (alone,) = build_problem(preset, seed=8)
    assert np.array_equal(alone.z.times, problems[0].z.times)
    assert np.array_equal(alone.z.values, problems[0].z.values)


def _reference_euler(problem, times):
    """The one-state-at-a-time loop the batched recursion replaced: (x, k)."""
    f, g = problem.coeffs.f, problem.coeffs.g
    a_s = problem.a.eval(times)[:, 0]
    z_s = problem.z.eval(times)
    l_s = problem.l.eval(times)
    x = np.empty((times.size, problem.dim))
    y = np.empty_like(x)
    x[0] = y[0] = problem.x0
    for j in range(1, times.size):
        prev = x[j - 1]
        dy = (f(prev[None])[0] * (a_s[j] - a_s[j - 1])
              + g(prev[None])[0] @ (z_s[j] - z_s[j - 1]))
        x[j] = np.maximum(prev + dy, l_s[j])
        y[j] = y[j - 1] + dy
    return x, x - y


def assert_same_solution(got, expected):
    for attr in ("x", "k", "y", "l"):
        a, b = getattr(got.reflection, attr), getattr(expected.reflection, attr)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.values.tobytes() == b.values.tobytes()
    assert (got.scheme, got.n, got.diagnostics) == (expected.scheme, expected.n,
                                                    expected.diagnostics)


def assert_batch_is_per_replicate(problems, n, scheme="adaptive"):
    alone = euler_adaptive if scheme == "adaptive" else euler_uniform
    batch = euler_batch(problems, n, scheme)
    assert len(batch) == len(problems)
    for problem, sol in zip(problems, batch):
        assert_same_solution(sol, alone(problem, n))
        x, k = _reference_euler(problem, sol.x.times)
        assert sol.x.values.tobytes() == x.tobytes()
        assert sol.k.values.tobytes() == k.tobytes()
    return batch


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_batch_equals_per_replicate_runs(n):
    batch = assert_batch_is_per_replicate(preset_batch(16), n)
    sizes = {sol.x.times.size for sol in batch}
    if n < 1024:
        assert len(sizes) > 1  # ragged: replicates stop at different steps
    # replicates whose partitions coincide (all of them at n = 1024, the
    # driver's mesh) share one grid object, and only those
    partitions = {sol.x.times.tobytes() for sol in batch}
    assert len({id(sol.x.grid) for sol in batch}) == len(partitions)
    assert (len(partitions) == 1) == (n == 1024)


@pytest.mark.parametrize("scheme", ["adaptive", "uniform"])
@pytest.mark.parametrize("coefficients, dim", [
    ("zero", 1), ("identity", 1), ("geometric", 1), ("tanh", 1),
    ("zero", 2), ("identity", 2), ("geometric", 3), ("tanh", 2), ("rotation2d", 2),
])
def test_batch_equals_per_replicate_runs_every_preset(coefficients, dim, scheme):
    problems = preset_batch(5, dim=dim, coefficients=coefficients, barrier="jump",
                            driver_steps=256)
    batch = assert_batch_is_per_replicate(problems, 64, scheme)
    if scheme == "adaptive":  # the barrier's two jumps are steps of their own
        assert {0.4, 0.7} <= set(batch[0].x.times.tolist())


def recording(coeffs, calls, seen=None):
    """``coeffs`` with every call's row count in ``calls`` and, if given,
    the bytes of every evaluated state in ``seen``."""
    def wrap(func):
        def call(x):
            calls.append(len(x))
            if seen is not None:
                seen.update(row.tobytes() for row in x)
            return func(x)
        return call
    return Coefficients(f=wrap(coeffs.f), g=wrap(coeffs.g))


def assert_sweeps_are_the_loop(problems, n, scheme="adaptive", seen=None, calls=None):
    """Each problem's batched solution is `_reference_euler` bit for bit, in
    no more sweeps (one f and one g call each) than the longest run's steps.
    The row count of every call goes to ``calls`` if given."""
    calls = [] if calls is None else calls
    shared = recording(problems[0].coeffs, calls, seen)
    batch = euler_batch([dataclasses.replace(p, coeffs=shared) for p in problems], n, scheme)
    for problem, sol in zip(problems, batch):
        x, k = _reference_euler(problem, sol.x.times)
        assert sol.x.values.tobytes() == x.tobytes()
        assert sol.k.values.tobytes() == k.tobytes()
    assert len(calls) % 2 == 0
    sweeps = len(calls) // 2
    assert sweeps <= max(sol.x.times.size for sol in batch) - 1
    return batch, sweeps


def test_batch_evaluates_every_path_state():
    # each committed row is the loop's step from its own path state, and
    # that state is among the rows f and g saw
    problems, seen = preset_batch(6), set()
    batch, _ = assert_sweeps_are_the_loop(problems, 64, seen=seen)
    for sol in batch:
        assert all(state.tobytes() in seen for state in sol.x.values[:-1])


# ---------------------------------------------------------------------------
# the sweeps: bit for bit the loop, wherever the guesses go
# ---------------------------------------------------------------------------

def test_sweeps_on_a_chattering_batch():
    # the solutions keep touching the barrier, each at its own steps
    problems = preset_batch(16, coefficients="tanh", dim=2, barrier="zero", x0=0.05)
    batch, sweeps = assert_sweeps_are_the_loop(problems, 4096)
    touches = [int((np.diff(sol.k.values, axis=0) > 0).any(axis=1).sum()) for sol in batch]
    assert sum(touches) > 2000 and sum(t > 0 for t in touches) >= 12
    assert sweeps < 4096 // 4


def test_sweeps_through_a_long_stretch_pinned_at_the_barrier():
    n = 512
    coeffs = Coefficients(f=lambda x: -4.0 - 0.1 * np.tanh(x),
                          g=lambda x: np.full((len(x), 1, 1), 0.02))
    rng = philox_stream(15)
    z = make_path(np.linspace(0.0, 1.0, n + 1), np.cumsum(rng.normal(size=n + 1)) / np.sqrt(n))
    prob = Problem(x0=[0.3], a=linear_path(1.0, 1.0, n), z=z,
                   l=sine_path(base=-0.5, amplitude=0.25, period=1.0,
                                horizon=1.0, steps=128),
                   coeffs=coeffs, p=2.0)
    (sol,), _ = assert_sweeps_are_the_loop([prob], n, "uniform")
    pinned = sol.x.values[:, 0] == sol.reflection.l.values[:, 0]
    runs = np.diff(np.flatnonzero(np.diff(np.r_[False, pinned, False])))[::2]
    assert runs.max() >= 100


def test_sweeps_tell_the_signed_zeros_apart():
    # the barrier alternates between +0.0 and -0.0 and the drift, which takes
    # the sign of the state, pins the path to it: a guess that compared equal
    # to the exact state but not in its bits would commit the wrong step
    n = 256
    times = np.linspace(0.0, 1.0, n + 1)
    barrier = make_path(times, np.where(np.arange(n + 1) % 3 == 0, 0.0, -0.0))
    coeffs = Coefficients(f=lambda x: -1.0 + np.copysign(0.5, x),
                          g=lambda x: np.full((len(x), 1, 1), 0.3))
    rng = philox_stream(16)
    z = make_path(times, np.cumsum(rng.normal(size=n + 1)) / np.sqrt(n))
    prob = Problem(x0=[0.0], a=linear_path(1.0, 1.0, n), z=z,
                   l=barrier, coeffs=coeffs, p=2.0)
    (sol,), _ = assert_sweeps_are_the_loop([prob], n, "uniform")
    zeros = sol.x.values[sol.x.values == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()


def test_sweeps_evaluate_guesses_that_are_not_path_states():
    problems = preset_batch(3, dim=2, driver_steps=256)
    reference = euler_batch(problems, 128)
    path_states = {state.tobytes() for sol in reference for state in sol.x.values[:-1]}
    base = problems[0].coeffs

    def off_path_nan(func):
        def call(x):
            out = func(x).copy()
            out[[row.tobytes() not in path_states for row in x]] = np.nan
            return out
        return call

    nan_off_path = Coefficients(f=off_path_nan(base.f), g=off_path_nan(base.g))
    batch = euler_batch([dataclasses.replace(p, coeffs=nan_off_path) for p in problems], 128)
    for got, expected in zip(batch, reference):
        assert_same_solution(got, expected)

    # NaN on one path state raises, at the step from that state
    x = reference[1].x.values
    bad = x[x.shape[0] // 2].tobytes()

    def nan_at_bad(x):
        out = base.f(x)
        out[[row.tobytes() == bad for row in x]] = np.nan
        return out

    nan_on_path = Coefficients(f=nan_at_bad, g=base.g)
    with pytest.raises(CoefficientEvaluationFailure,
                       match=re.escape(f"f is not finite on state {x[x.shape[0] // 2]}")):
        euler_batch([dataclasses.replace(p, coeffs=nan_on_path) for p in problems], 128)


def test_sweeps_are_few_on_a_smooth_long_run():
    preset = dataclasses.replace(PROBLEM_PRESETS["fbm-reflected"], dim=1, driver_steps=8192)
    (prob,) = build_problem(preset, seed=5)
    calls = []
    (sol,), sweeps = assert_sweeps_are_the_loop([prob], 8192, calls=calls)
    # windows that restart at one row and halve after a poor sweep took 54
    assert sweeps <= 40
    # every sweep is as wide as the rows allow
    assert calls[0] == min(_SWEEP_ROWS, sol.x.times.size - 1)
    assert max(calls) <= _SWEEP_ROWS
    # refine's input: eight levels from n0 = 64, where halving windows made 258 f calls
    calls.clear()
    recorded = dataclasses.replace(prob, coeffs=recording(prob.coeffs, calls))
    solved = solve(recorded, tol=1e-4, n0=64)
    assert solved.n == 8192
    lazy = len(calls) // 2
    # the full levels took 122, and solve stops each rejected level early
    assert lazy <= 100
    calls.clear()
    fine, _ = _ladder_solve(recorded, 1e-4, 64, 14)
    assert fine.n == 8192
    assert lazy < len(calls) // 2


def test_batch_coefficient_failures_are_reported():
    problems = preset_batch(4)
    coeffs = problems[0].coeffs

    def nan_in_last_row(x):
        out = coeffs.g(x)
        out[-1, 0, 0] = np.nan
        return out

    def nan_off_the_start(x):
        # a row's value depends on that row alone, and the path leaves x0
        out = coeffs.g(x)
        out[x[:, 0] != problems[0].x0[0]] = np.nan
        return out

    bad = {
        "shape": [Coefficients(f=lambda x: coeffs.f(x)[:, :1], g=coeffs.g),
                  Coefficients(f=coeffs.f, g=lambda x: coeffs.g(x)[:, 0])],
        "not finite": [Coefficients(f=lambda x: coeffs.f(x) / 0.0, g=coeffs.g),
                       Coefficients(f=coeffs.f, g=nan_in_last_row)],
        "g is not finite on state": [Coefficients(f=coeffs.f, g=nan_off_the_start)],
    }
    for match, variants in bad.items():
        for variant in variants:
            with np.errstate(divide="ignore", invalid="ignore"):
                with pytest.raises(CoefficientEvaluationFailure, match=match):
                    euler_batch([dataclasses.replace(p, coeffs=variant) for p in problems], 64)


def test_batch_requires_one_coefficients_object():
    problems = preset_batch(3)
    # equal, but another object: one batch evaluates one f and one g
    other = dataclasses.replace(problems[2], coeffs=coefficient_preset("tanh", 2))
    with pytest.raises(InvalidParameter, match="Coefficients"):
        euler_batch(problems[:2] + [other], 64)
    with pytest.raises(InvalidParameter):
        euler_batch([], 64)


def test_batch_rejects_bad_arguments_before_any_step():
    prob = fbm_problem(2, n_driver=64)
    for n in (0, -3):
        with pytest.raises(InvalidParameter, match="n must be"):
            euler_batch([prob], n)
    with pytest.raises(InvalidParameter, match="scheme"):
        euler_batch([prob], 8, "bogus")
    # one Coefficients object serves both dimensions; the batch still needs one
    flat = dataclasses.replace(fbm_problem(3, d=2, n_driver=64), coeffs=prob.coeffs)
    with pytest.raises(DimensionMismatch):
        euler_batch([prob, flat], 8)


def test_batch_step_cap_counts_every_replicate(monkeypatch):
    prob = fbm_problem(2, n_driver=64)
    # 4 replicates of 8 uniform steps each are 32 steps
    monkeypatch.setattr("pvreflect.sde.STEP_CAP", 32)
    assert len(euler_batch([prob] * 4, 8, "uniform")) == 4
    with pytest.raises(PartitionOverflow):
        euler_batch([prob] * 5, 8, "uniform")


def test_batch_step_cap_counts_every_value_of_a_step(monkeypatch):
    # 100 uniform steps of a d = 2 problem fit a cap of 150 in points, and
    # their 200 values do not: each batch array holds d values a step
    prob = fbm_problem(2, d=2, n_driver=64)
    monkeypatch.setattr("pvreflect.sde.STEP_CAP", 200)
    assert len(euler_batch([prob], 100, "uniform")) == 1
    monkeypatch.setattr("pvreflect.sde.STEP_CAP", 150)
    with pytest.raises(PartitionOverflow, match="of 2 values exceed 150"):
        euler_batch([prob], 100, "uniform")


def test_batch_overflow_raises_before_allocating():
    # each partition has 5000 steps, far below the cap; 2001 of them are not
    prob = fbm_problem(2, n_driver=64)
    assert (STEP_CAP // 5000 + 1) * 5000 > STEP_CAP
    tracemalloc.start()
    try:
        with pytest.raises(PartitionOverflow):
            euler_batch([prob] * (STEP_CAP // 5000 + 1), 5000, "uniform")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# refinement control
# ---------------------------------------------------------------------------

def test_solve_exact_case_stops_immediately():
    rng = philox_stream(13)
    z = random_step_path(rng, max_points=17, horizon=1.0)  # jumps exceed 1/16
    prob = Problem(x0=[1.0], a=zero_a(), z=z,
                   l=constant_path(0.0, 1.0),
                   coeffs=identity_coeffs(), p=2.0)
    sol = solve(prob, tol=1e-9, n0=16)
    assert sol.n <= 32
    assert sol.diagnostics["cauchy_gap"] <= 1e-12


def test_solve_geometric_converges():
    prob = Problem(
        x0=[1.0], a=zero_a(),
        z=linear_path(1.0, 1.0, 8192),
        l=constant_path(-1e6, 1.0),
        coeffs=coefficient_preset("geometric", 1), p=2.0,
    )
    sol = solve(prob, tol=1e-2, n0=16)
    assert sol.n <= 16 * 2 ** 10
    assert sol.diagnostics["cauchy_gap"] < 1e-2
    assert abs(sol.x.eval(1.0)[0] - math.e) < 1e-2


def test_vbar_p_x_stacked_equals_each_solution_alone():
    # fBm replicates stop at different big jumps, so the windows are ragged,
    # and long enough for the DP's bound
    problems = [fbm_problem(seed=7, d=2, n_driver=512)]
    coeffs = problems[0].coeffs
    problems += [dataclasses.replace(fbm_problem(seed=s, d=2, n_driver=512), coeffs=coeffs)
                 for s in (8, 9, 10)]
    solutions = euler_batch(problems, 200)
    assert len({sol.x.values.shape[0] for sol in solutions}) > 1
    norms = variation_norms([sol.x for sol in solutions], 2.0)
    assert norms == [variation_norm(sol.x, 2.0) for sol in solutions]


def test_vbar_p_x_only_for_the_reported_solution():
    # the schemes leave the norm to the caller that reports a solution
    prob = fbm_problem(seed=5, d=2)
    sol = solve(prob, tol=1e-2, n0=16)
    assert sorted(sol.diagnostics) == ["cauchy_gap", "steps", "sup_k"]


def test_refinement_ladder_is_lazy_and_feeds_solve(monkeypatch):
    import pvreflect.sde as sde

    prob = Problem(
        x0=[1.0], a=zero_a(),
        z=linear_path(1.0, 1.0, 1024),
        l=constant_path(-1e6, 1.0),
        coeffs=coefficient_preset("geometric", 1), p=2.0,
    )
    # every level builds its partition in one place, so each next builds one
    built, partition = [], sde._partition

    def counted(horizon, n, *args):
        built.append(n)
        return partition(horizon, n, *args)

    monkeypatch.setattr(sde, "_partition", counted)
    ladder = refinement_ladder(prob, 8)
    assert built == []
    levels = []
    for count in range(1, 5):
        levels.append(next(ladder))
        assert built == [8 * 2**level for level in range(count)]
    assert [sol.n for sol, _ in levels] == [8, 16, 32, 64]
    assert levels[0][1] is None
    for (fine, gap), (coarse, _) in zip(levels[1:], levels[:-1]):
        assert gap == solution_gap(fine, coarse)
    gaps = [gap for _, gap in levels[1:]]
    assert gaps == sorted(gaps, reverse=True)
    sol = solve(prob, tol=gaps[-1] * (1 + 1e-9), n0=8)
    assert sol.n == 64
    assert sol.diagnostics["cauchy_gap"] == gaps[-1]
    assert np.array_equal(sol.x.values, levels[3][0].x.values)


def _ladder_solve(problem, tol, n0, max_doublings):
    """`solve` as a walk of full `euler_adaptive` levels and their
    `solution_gap`s: the first ``(solution, gap)`` past n0 with the gap below
    ``tol``, or None."""
    coarse = euler_adaptive(problem, n0)
    for doubling in range(1, max_doublings + 1):
        fine = euler_adaptive(problem, n0 * 2**doubling)
        gap = solution_gap(fine, coarse)
        if gap < tol:
            return fine, gap
        coarse = fine
    return None


def _assert_same_reflection(got, want):
    for attr in ("x", "k", "y"):
        got_path, want_path = getattr(got.reflection, attr), getattr(want.reflection, attr)
        assert got_path.times.tobytes() == want_path.times.tobytes()
        assert got_path.values.tobytes() == want_path.values.tobytes()


@pytest.mark.parametrize("name", sorted(PROBLEM_PRESETS))
def test_refinement_ladder_equals_full_levels(name):
    # the ladder sweeps each level in the walk's doubling folds; its levels and
    # gaps are those of full euler_adaptive runs and solution_gap, bit for bit
    for dim, barrier, seed in itertools.product((1, 2), ("zero", "minus-wall", "sine", "jump"),
                                                (1, 2)):
        preset = dataclasses.replace(PROBLEM_PRESETS[name], dim=dim, barrier=barrier,
                                     driver_steps=1024)
        (prob,) = build_problem(preset, seed=seed)
        coarse = None
        for level, (sol, gap) in zip(range(6), refinement_ladder(prob, 16)):
            fine = euler_adaptive(prob, 16 * 2**level)
            assert gap == (None if coarse is None else solution_gap(fine, coarse))
            assert (sol.n, sol.scheme, sol.diagnostics) == (fine.n, fine.scheme, fine.diagnostics)
            _assert_same_reflection(sol, fine)
            coarse = fine


@pytest.mark.parametrize("name", sorted(PROBLEM_PRESETS))
def test_solve_stops_where_the_full_ladder_stops(name, monkeypatch):
    # the rejected levels stop early, but the level solve returns and its
    # gap are those of the full ladder, bit for bit
    monkeypatch.setattr("pvreflect.sde.MAX_DOUBLINGS", 6)
    for dim, barrier, (tol, n0) in itertools.product(
            (1, 2), ("zero", "minus-wall", "sine", "jump"), ((1e-3, 16), (1e-4, 64), (0.0, 4))):
        preset = dataclasses.replace(PROBLEM_PRESETS[name], dim=dim, barrier=barrier,
                                     driver_steps=1024)
        (prob,) = build_problem(preset, seed=3)
        expected = _ladder_solve(prob, tol, n0, 6)
        if expected is None:
            with pytest.raises(NoConvergence):
                solve(prob, tol=tol, n0=n0)
            continue
        sol = solve(prob, tol=tol, n0=n0)
        fine, gap = expected
        assert (sol.n, sol.diagnostics) == (fine.n, dict(fine.diagnostics, cauchy_gap=gap))
        _assert_same_reflection(sol, fine)


def test_solve_rejects_nan_tolerance_before_any_level(monkeypatch):
    prob = Problem(x0=[1.0], a=zero_a(), z=make_path([0, 1], [0, 1]),
                   l=constant_path(0.0, 1.0),
                   coeffs=identity_coeffs(), p=2.0)

    def no_level(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr("pvreflect.sde._partition", no_level)
    for tol in (float("nan"), -1e-300, -float("inf")):
        with pytest.raises(InvalidParameter):
            solve(prob, tol=tol, n0=16)


@pytest.mark.parametrize("n", [0, -1, 2.5, float("nan"), 3.0, "4", None])
def test_schemes_reject_step_counts_that_are_not_integers_before_any_step(n, monkeypatch):
    prob = Problem(x0=[1.0], a=zero_a(), z=make_path([0, 1], [0, 1]),
                   l=constant_path(0.0, 1.0),
                   coeffs=identity_coeffs(), p=2.0)

    def no_partition(*args, **kwargs):
        raise AssertionError("a partition was built")

    monkeypatch.setattr("pvreflect.sde._partition", no_partition)
    with pytest.raises(InvalidParameter, match="n must"):
        euler_batch([prob], n)
    with pytest.raises(InvalidParameter, match="n0"):
        next(refinement_ladder(prob, n))
    with pytest.raises(InvalidParameter, match="n0"):
        solve(prob, tol=1e-3, n0=n)


def test_solve_rejects_zero_n0():
    prob = Problem(x0=[1.0], a=zero_a(), z=make_path([0, 1], [0, 1]),
                   l=constant_path(0.0, 1.0),
                   coeffs=identity_coeffs(), p=2.0)
    with pytest.raises(InvalidParameter, match="n0"):
        solve(prob, tol=1e-3, n0=0)


def test_solve_unreachable_tolerance(monkeypatch):
    prob = Problem(x0=[1.0], a=zero_a(), z=make_path([0, 1], [0, 1]),
                   l=constant_path(0.0, 1.0),
                   coeffs=identity_coeffs(), p=2.0)
    monkeypatch.setattr("pvreflect.sde.MAX_DOUBLINGS", 6)
    with pytest.raises(NoConvergence, match="within 6 doublings"):
        solve(prob, tol=0.0, n0=1)


def test_refinement_gaps_shrink_monotonically_beyond_burn_in():
    for s in range(20):
        prob = fbm_problem(3000 + s)
        sols = [euler_adaptive(prob, n) for n in (16, 32, 64, 128, 256)]
        gaps = [solution_gap(b, a) for a, b in zip(sols, sols[1:])]
        assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps[1:], gaps[2:])), (s, gaps)


def test_perturbation_stability_linear_response():
    prob = fbm_problem(42)
    base = solve(prob, tol=1e-4, n0=64)
    wiggle = np.where(np.arange(len(prob.z.times)) % 2 == 0, 1.0, -1.0)[:, None]
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        z2 = make_path(prob.z.times, prob.z.values + eps * wiggle)
        prob2 = Problem(x0=prob.x0, a=prob.a, z=z2, l=prob.l,
                        coeffs=prob.coeffs, p=2.0)
        pert = solve(prob2, tol=1e-4, n0=64)
        diff = max(sup_distance(pert.x, base.x), sup_distance(pert.k, base.k))
        assert diff <= 10.0 * eps
        ratios.append(diff / eps)
    assert ratios[-1] <= 2.0 * ratios[0] + 1.0


def test_dimension_decoupling_block_diagonal():
    # block-diagonal noise and a componentwise barrier make the 2-d solve the
    # product of its scalar solves
    rng = philox_stream(14)
    z = random_step_path(rng, max_points=25, d=2)
    a = linear_path(1.0, 1.0, 16)

    def g2(x):
        out = np.zeros((len(x), 2, 2))
        out[:, 0, 0] = np.cos(x[:, 0])
        out[:, 1, 1] = 1.0 + 0.5 * np.tanh(x[:, 1])
        return out

    def f2(x):
        return np.stack([0.3 * np.tanh(x[:, 0]), -0.2 * np.tanh(x[:, 1])], axis=-1)

    coeffs2 = Coefficients(f=f2, g=g2)
    l2 = constant_path((-0.5, -0.25), 1.0, 2)
    prob2 = Problem(x0=[0.2, 0.4], a=a, z=z, l=l2, coeffs=coeffs2, p=2.0)
    # uniform partitions match between the joint and per-component problems
    # (the adaptive ones would not: jump sizes are measured jointly)
    joint = euler_uniform(prob2, 32)

    for i in range(2):
        gi = [lambda x: np.cos(x)[:, :, None],
              lambda x: (1.0 + 0.5 * np.tanh(x))[:, :, None]][i]
        fi = [lambda x: 0.3 * np.tanh(x),
              lambda x: -0.2 * np.tanh(x)][i]
        prob1 = Problem(
            x0=[[0.2, 0.4][i]], a=a, z=z.component(i),
            l=constant_path([-0.5, -0.25][i], 1.0),
            coeffs=Coefficients(f=fi, g=gi), p=2.0,
        )
        single = euler_uniform(prob1, 32)
        assert np.abs(joint.x.eval(single.x.times)[:, i]
                      - single.x.values[:, 0]).max() <= 1e-12


# ---------------------------------------------------------------------------
# a-priori bounds
# ---------------------------------------------------------------------------

def test_a_priori_trivial_regulator():
    prob = Problem(x0=[0.0], a=zero_a(), z=make_path([0, 1], [0, 1]),
                   l=constant_path(-1e9, 1.0),
                   coeffs=identity_coeffs(), p=2.0)
    sol = euler_uniform(prob, 16)
    assert np.all(sol.k.values == 0.0)
    assert all(chk.passed for chk in a_priori_check(sol, prob))


def test_a_priori_reflected_and_random_cases():
    prob = fbm_problem(33, d=1, coeffs="identity")
    sol = euler_adaptive(prob, 128)
    assert sol.diagnostics["sup_k"] > 0.0  # the barrier actually binds
    checks = a_priori_check(sol, prob)
    assert [chk.name for chk in checks] == ["regulator_vbar_bound", "state_vbar_bound"]
    for chk in checks:
        assert chk.passed and chk.margin >= 0.0

    prob2 = fbm_problem(22, d=2, coeffs="rotation2d")
    sol2 = euler_adaptive(prob2, 128)
    assert all(chk.passed for chk in a_priori_check(sol2, prob2))


def _steep_problem(z_values, l_values):
    """``dy = 1e308 dz`` on a driver that steps at 0.5 and 0.75."""
    coeffs = Coefficients(f=lambda s: np.zeros_like(s),
                          g=lambda s: np.full((s.shape[0], 1, 1), 1e308))
    return Problem(x0=[0.0], a=zero_a(), z=make_path([0.0, 0.5, 0.75], z_values),
                   l=make_path([0.0, 0.5, 0.75], l_values), coeffs=coeffs, p=2.0)


@pytest.mark.parametrize("z_values, l_values", [
    # y falls to -1e308 while the barrier lifts x to 1e308: only k overflows
    ([0.0, -1.0, -1.0], [0.0, 1e308, 1e308]),
    # x and y overflow together
    ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
    # y overflows below a barrier that holds x at 0
    ([0.0, -1.0, -2.0], [0.0, 0.0, 0.0]),
])
def test_euler_output_that_overflows_raises(z_values, l_values):
    problem = _steep_problem(z_values, l_values)
    # x - y is inf - inf where both overflow
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteValue, match="must be finite"):
        euler_adaptive(problem, 1)
