import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from pvreflect import (
    FbmSpec,
    VolatilitySpec,
    build_zh,
    empirical_pvar_profile,
    make_barrier,
    make_fv_driver,
    make_path,
    p_variation,
    philox_stream,
    sample_fbm,
)
from pvreflect.drivers import (CHOLESKY_MAX_STEPS, FBM_MAX_STEPS, _circulant_eigenvalues,
                               _cholesky_factor, _fgn_autocov)
from pvreflect.errors import (
    DimensionMismatch,
    GridMismatch,
    InvalidHurst,
    InvalidParameter,
    NonMonotoneGrid,
    UnknownKind,
)
from pvreflect.presets import coefficient_preset


# ---------------------------------------------------------------------------
# spec validation and determinism
# ---------------------------------------------------------------------------

def test_fbm_spec_validation():
    with pytest.raises(InvalidHurst):
        FbmSpec(hurst=0.4)
    with pytest.raises(InvalidHurst):
        FbmSpec(hurst=0.5)
    with pytest.raises(InvalidHurst):
        FbmSpec(hurst=1.0)
    with pytest.raises(InvalidParameter):
        FbmSpec(hurst=0.75, steps=0)
    with pytest.raises(InvalidParameter):
        FbmSpec(hurst=0.75, horizon=0.0)
    with pytest.raises(InvalidParameter, match="seed"):
        FbmSpec(hurst=0.75, seed=-1)


@pytest.mark.parametrize("steps", [2.5, np.nan, 3.0, "4", None])
def test_fbm_spec_rejects_steps_that_are_not_integers(steps):
    with pytest.raises(InvalidParameter, match="steps"):
        FbmSpec(hurst=0.75, steps=steps)


@pytest.mark.parametrize("horizon", [np.inf, np.nan, -np.inf])
def test_fbm_spec_rejects_non_finite_horizon(horizon):
    # unchecked, the grid and the scaling are built before any value check
    with pytest.raises(InvalidParameter):
        FbmSpec(hurst=0.75, horizon=horizon)


def test_fbm_deterministic_given_seed():
    spec = FbmSpec(hurst=0.7, horizon=2.0, steps=256, seed=99)
    a = sample_fbm(spec)
    b = sample_fbm(spec)
    assert np.array_equal(a.values, b.values)
    c = sample_fbm(spec, path_index=1)
    assert not np.array_equal(a.values, c.values)
    assert a.values[0, 0] == 0.0
    assert a.times[-1] == 2.0


def test_fbm_methods_deterministic_and_distinct():
    spec = FbmSpec(hurst=0.75, steps=128, seed=5)
    circ = sample_fbm(spec, method="circulant")
    chol = sample_fbm(spec, method="cholesky")
    assert np.array_equal(circ.values, sample_fbm(spec, method="circulant").values)
    assert np.array_equal(chol.values, sample_fbm(spec, method="cholesky").values)
    with pytest.raises(UnknownKind):
        sample_fbm(spec, method="magic")


def test_philox_stream_contract():
    a = philox_stream(3, 17).standard_normal(4)
    b = philox_stream(3, 17).standard_normal(4)
    assert np.array_equal(a, b)
    with pytest.raises(InvalidParameter):
        philox_stream(-1)
    with pytest.raises(InvalidParameter):
        philox_stream(1 << 64)
    for index in (-1, 1 << 64):
        with pytest.raises(InvalidParameter, match="path_index"):
            philox_stream(0, index)


def test_fbm_increment_law_light():
    # E|B_t - B_s|^2 = |t-s|^(2H); light version of the full-scale statistics
    spec = FbmSpec(hurst=0.75, horizon=1.0, steps=256, seed=2024)
    paths = np.array([sample_fbm(spec, path_index=i).values[:, 0] for i in range(300)])
    for lag in (1, 8):
        theory = (lag / 256) ** 1.5
        ratio = ((paths[:, lag:] - paths[:, :-lag]) ** 2).mean() / theory
        assert abs(ratio - 1.0) < 0.15


@pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
def test_fbm_cross_covariance_at_half_time(hurst):
    # E[B_1 * B_{1/2}] = (1 + (1/2)^2H - (1/2)^2H) / 2 = 1/2 for every H
    spec = FbmSpec(hurst=hurst, horizon=1.0, steps=256, seed=2024)
    paths = np.array([sample_fbm(spec, path_index=i).values[:, 0] for i in range(300)])
    emp = (paths[:, -1] * paths[:, 128]).mean()
    assert abs(emp - 0.5) < 0.15 * 0.5


def test_fbm_samplers_agree_in_distribution_light():
    spec = FbmSpec(hurst=0.8, horizon=1.0, steps=256, seed=2024)
    circ = np.array([sample_fbm(spec, "circulant", i).values[-1, 0] for i in range(200)])
    chol = np.array([sample_fbm(spec, "cholesky", 1000 + i).values[-1, 0] for i in range(200)])
    assert scipy.stats.ks_2samp(circ, chol).pvalue >= 0.01


@pytest.mark.parametrize("n", [1, 2, 5, 64, 1024])
@pytest.mark.parametrize("hurst", [0.51, 0.75, 0.99])
def test_cholesky_factor_matches_scipy_toeplitz_bit_for_bit(n, hurst):
    # the oracle builds its Toeplitz covariance with numpy alone
    ref = np.linalg.cholesky(scipy.linalg.toeplitz(_fgn_autocov(n, hurst)))
    factor = _cholesky_factor(n, hurst)
    assert factor.shape == ref.shape
    assert factor.tobytes() == ref.tobytes()


def _decimal_fgn_autocov(lag: int, hurst: float) -> float:
    # 0.5 (|j+1|^2H - 2 j^2H + |j-1|^2H) with 60 significant digits
    with localcontext() as ctx:
        ctx.prec = 60
        two_h = 2 * Decimal(hurst)
        power = lambda x: (x.ln() * two_h).exp() if x > 0 else Decimal(0)
        j = Decimal(lag)
        return float((power(j + 1) - 2 * power(j) + power(j - 1)) / 2)


@pytest.mark.parametrize("hurst", [0.51, 0.75, 0.9, 0.9999, 1 - 1e-7])
def test_fgn_autocov_matches_decimal_reference(hurst):
    lags = [1, 2, 3, 10, 10**3, 2**16, 2**18 - 1]
    gamma = _fgn_autocov(2**18, hurst)
    assert gamma[0] == 1.0
    for lag in lags:
        ref = _decimal_fgn_autocov(lag, hurst)
        assert abs(gamma[lag] / ref - 1.0) < 1e-8, (lag, gamma[lag], ref)


def test_circulant_spectrum_nonnegative_on_grid():
    # the fGn embedding is nonnegative (Dietrich & Newsam 1997); computing the
    # covariance without cancellation keeps it so up to rounding
    worst = np.inf
    for k in range(4, 19):
        for hurst in (0.51, 0.6, 0.75, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1 - 1e-7):
            lam = _circulant_eigenvalues(1 << k, hurst)
            assert lam.size == 2 << k
            worst = min(worst, float(lam.min()))
    assert worst >= -1e-10


def test_circulant_spectrum_is_cached_read_only():
    lam = _circulant_eigenvalues(1000, 0.7)
    assert _circulant_eigenvalues(1000, 0.7) is lam
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0] = 0.0


def test_near_unit_hurst_uses_the_circulant_sampler():
    spec = FbmSpec(hurst=1 - 1e-7, steps=4096, seed=8)
    path = sample_fbm(spec)
    assert np.array_equal(path.values, sample_fbm(spec, method="circulant").values)
    # H ~ 1: B_t ~ t * B_1, so the increments are nearly equal
    steps = np.diff(path.values[:, 0])
    assert np.all(np.isfinite(steps))
    assert np.ptp(steps) < 0.05 * np.abs(steps).max()


def test_cholesky_cap_raises_before_allocating():
    ok = FbmSpec(hurst=0.75, steps=64, seed=1)
    assert sample_fbm(ok, method="cholesky").values.shape == (65, 1)
    spec = FbmSpec(hurst=0.75, steps=CHOLESKY_MAX_STEPS + 1, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter):
            sample_fbm(spec, method="cholesky")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fbm_cap_raises_before_allocating():
    # 2**20 + 1 steps would embed in 2**22 points: about 200 MB of arrays
    spec = FbmSpec(hurst=0.75, steps=FBM_MAX_STEPS + 1, seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter, match="capped"):
            sample_fbm(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# integrated driver
# ---------------------------------------------------------------------------

def test_zh_unit_volatility_is_the_noise_itself():
    spec = FbmSpec(hurst=0.75, steps=64, seed=1)
    b = sample_fbm(spec)
    z = build_zh([b], VolatilitySpec(np.ones(65)))
    assert np.allclose(z.values, b.values, atol=0)


def test_zh_zero_volatility_vanishes():
    spec = FbmSpec(hurst=0.75, steps=64, seed=1)
    b = sample_fbm(spec)
    z = build_zh([b], VolatilitySpec(np.zeros(65)))
    assert np.all(z.values == 0.0)


def test_zh_two_block_volatility():
    # sigma = 2 on [0, T/2), 0 after: Z_T collapses to 2 * B_{T/2}
    spec = FbmSpec(hurst=0.75, horizon=1.0, steps=64, seed=3)
    b = sample_fbm(spec)
    sigma = np.where(spec.times < 0.5, 2.0, 0.0)
    z = build_zh([b], VolatilitySpec(sigma))
    assert z.eval(1.0)[0] == pytest.approx(2.0 * b.eval(0.5)[0], rel=1e-12)


def test_zh_validation():
    spec = FbmSpec(hurst=0.75, steps=16, seed=1)
    b = sample_fbm(spec)
    other = sample_fbm(FbmSpec(hurst=0.75, steps=8, seed=1))
    with pytest.raises(GridMismatch):
        build_zh([b, other], VolatilitySpec(np.ones((2, 17))))
    with pytest.raises(DimensionMismatch):
        build_zh([b], VolatilitySpec(np.ones((2, 17))))
    with pytest.raises(GridMismatch):
        build_zh([b], VolatilitySpec(np.ones(5)))
    with pytest.raises(DimensionMismatch, match="at least one"):
        build_zh([], VolatilitySpec(np.ones(17)))
    with pytest.raises(DimensionMismatch, match="scalar"):
        build_zh([make_path(b.times, np.zeros((17, 2)))], VolatilitySpec(np.ones(17)))
    with pytest.raises(InvalidParameter, match="sigma must be"):
        VolatilitySpec(np.ones((1, 2, 17)))
    with pytest.raises(InvalidParameter, match="finite"):
        VolatilitySpec([1.0, np.nan])


def test_zh_components_are_independent_streams():
    spec = FbmSpec(hurst=0.75, steps=32, seed=9)
    b0 = sample_fbm(spec, path_index=0)
    b1 = sample_fbm(spec, path_index=1)
    z = build_zh([b0, b1], VolatilitySpec(np.ones((2, 33))))
    assert z.dim == 2
    assert not np.array_equal(z.values[:, 0], z.values[:, 1])


# ---------------------------------------------------------------------------
# p-variation profiles
# ---------------------------------------------------------------------------

def test_profile_of_smooth_path_decays():
    # quadratic variation of a finely sampled linear path tends to 0
    times = np.linspace(0.0, 1.0, 257)
    path = make_path(times, times)
    prof = empirical_pvar_profile(path, 2.0, levels=[2, 4, 6, 8])
    assert np.all(np.diff(prof) < 0)
    assert prof[-1] == pytest.approx((256 * (1 / 256) ** 2) ** 0.5, rel=1e-9)


def test_profile_divisibility_validation():
    path = make_path(np.linspace(0, 1, 8), np.zeros(8))  # 7 steps
    with pytest.raises(InvalidParameter):
        empirical_pvar_profile(path, 2.0, levels=[1])
    for bad in (0.5, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            empirical_pvar_profile(path, bad, levels=[0])


def test_profile_regimes_for_noise_path():
    spec = FbmSpec(hurst=0.75, steps=1024, seed=77)
    b = sample_fbm(spec)
    levels = [4, 6, 8, 10]
    rough = empirical_pvar_profile(b, 1.0, levels)   # below 1/H: grows
    tame = empirical_pvar_profile(b, 2.0, levels)    # above 1/H: stabilizes
    assert np.all(np.diff(rough) > 0)
    assert tame[-1] / tame[-2] < 1.1


# ---------------------------------------------------------------------------
# fixture builders
# ---------------------------------------------------------------------------

def test_linear_driver_example():
    a = make_fv_driver("linear", horizon=1.0, steps=4)
    assert np.array_equal(a.times, [0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(a.values.ravel(), [0, 0.25, 0.5, 0.75, 1.0])


def test_jump_driver_total_variation():
    a = make_fv_driver("jump", jumps=[(0.5, 1.0)], horizon=1.0)
    assert p_variation(a, 1.0) == 1.0
    assert a.eval(0.4)[0] == 0.0
    assert a.eval(0.5)[0] == 1.0


def test_constant_builders_and_unknown_kind():
    a = make_fv_driver("constant", value=2.5, horizon=3.0)
    assert a.eval(2.9)[0] == 2.5
    l = make_barrier("constant", dim=2, level=0.0, horizon=1.0)
    assert np.all(l.values == 0.0)
    with pytest.raises(UnknownKind):
        make_fv_driver("cubic")
    with pytest.raises(UnknownKind):
        make_barrier("fractal")
    with pytest.raises(UnknownKind, match="dimension 2"):
        coefficient_preset("rotation2d", 3)


def test_sine_and_jump_barriers():
    l = make_barrier("sine", dim=3, base=-1.0, amplitude=0.5, period=1.0,
                     horizon=1.0, steps=16)
    assert l.dim == 3
    assert np.all(l.values <= -0.5 + 1e-12)
    lj = make_barrier("jump", dim=1, level=-1.0,
                      schedule=[(0.5, -0.2)], horizon=1.0)
    assert lj.eval(0.4)[0] == -1.0
    assert lj.eval(0.6)[0] == -0.2
    for t in (0.0, -0.5):
        with pytest.raises(InvalidParameter, match="schedule times"):
            make_barrier("jump", schedule=[(t, -0.2)])
        with pytest.raises(InvalidParameter, match="jump times"):
            make_fv_driver("jump", jumps=[(t, 1.0)])


@pytest.mark.parametrize("dim", [1, 2])
def test_jump_barrier_refuses_two_levels_at_one_time(dim):
    # sorted by time alone, so the tie reaches the grid check, as for drivers
    with pytest.raises(NonMonotoneGrid):
        make_barrier("jump", dim=dim, schedule=[(0.5, -0.2), (0.5, -0.1)])
    with pytest.raises(NonMonotoneGrid):
        make_fv_driver("jump", jumps=[(0.5, 1.0), (0.5, 2.0)])
    # out of order, but at distinct times: each level holds from its own time
    lj = make_barrier("jump", dim=dim, schedule=[(0.7, [-0.1] * dim), (0.3, [-0.2] * dim)])
    assert np.array_equal(lj.times, [0.0, 0.3, 0.7, 1.0])
    assert np.array_equal(lj.values[:, 0], [0.0, -0.2, -0.1, -0.1])
