import math

import numpy as np
import pytest
import scipy.special

from pvreflect import (
    coarsen_jump_adapted,
    grid_riemann_sum,
    make_matrix_path,
    make_path,
    p_variation,
    rs_integral,
    sup_distance,
    variation_norm,
    young_bound_check,
    zeta,
)
from pvreflect.errors import (
    DimensionMismatch,
    DomainError,
    InvalidExponents,
    LengthMismatch,
    NonFiniteValue,
)
from conftest import random_step_path


def random_matrix_path(rng, max_points=12, d=2):
    n = int(rng.integers(2, max_points + 1))
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, size=n - 1))])
    return make_matrix_path(times, np.cumsum(rng.normal(size=(n, d, d)), axis=0))


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------

def test_zeta_classical_values():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-10)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, abs=1e-10)
    assert zeta(1.5) == pytest.approx(2.6123753487, abs=1e-9)


def test_zeta_against_scipy_grid():
    for s in (1.05, 1.11, 1.2424242424242424, 4 / 3, 1.8, 2.5, 6.0, 12.0):
        assert zeta(s) == pytest.approx(scipy.special.zeta(s), abs=1e-10)


def test_zeta_value_inside_integral_bracket():
    # the returned value must lie between the two integral tail bounds
    for s in (1.2, 2.0, 3.5):
        n = 2000
        partial = sum(k ** -s for k in range(1, n + 1))
        lo = partial + (n + 1) ** (1 - s) / (s - 1)
        hi = partial + n ** (1 - s) / (s - 1)
        assert lo - 1e-9 <= zeta(s) <= hi + 1e-9


def test_zeta_domain_error():
    with pytest.raises(DomainError):
        zeta(1.0)
    with pytest.raises(DomainError):
        zeta(0.3)


def test_young_bound_exponents():
    integrand = make_matrix_path([0.0], 1.0)
    driver = make_path([0, 1], [0.0, 1.0])
    assert young_bound_check(integrand, driver, 1.5, 1.5).passed
    # p = q = 2 is the boundary 1/p + 1/q = 1; the rest leave [1, inf)
    for p, q in [(2.0, 2.0), (0.5, 1.5), (1.5, 0.5), (math.nan, 1.5), (1.5, math.nan),
                 (math.inf, 1.5), (1.5, math.inf)]:
        with pytest.raises(InvalidExponents):
            young_bound_check(integrand, driver, p, q)
    # the exponents are checked before the paths are looked at
    with pytest.raises(InvalidExponents):
        young_bound_check(make_matrix_path([0.0], np.eye(2)[None]), driver, 2.0, 2.0)


def test_young_bound_row_is_the_zeta_product(rng):
    integrand = random_matrix_path(rng, d=2)
    driver = random_step_path(rng, max_points=15, d=2)
    end = max(integrand.end_time, driver.end_time)
    chk = young_bound_check(integrand, driver, p=1.5, q=1.5)
    assert chk.name == "stieltjes_zeta_bound"
    assert chk.lhs == p_variation(rs_integral(integrand, driver), 1.5) ** (1 / 1.5)
    assert chk.rhs == (zeta(4 / 3) * variation_norm(integrand, 1.5, (0, end), include_right=False)
                       * p_variation(driver, 1.5, (0, end)) ** (1 / 1.5))
    assert chk.passed and chk.margin == chk.rhs - chk.lhs


# ---------------------------------------------------------------------------
# Stieltjes integral
# ---------------------------------------------------------------------------

def test_identity_integrand_reproduces_driver_increments(rng):
    driver = random_step_path(rng, max_points=15, d=2)
    eye = make_matrix_path([0.0], np.eye(2)[None])
    out = rs_integral(eye, driver)
    expect = driver.values - driver.values[0]
    assert np.allclose(out.eval(driver.times), expect, atol=1e-14)
    # scaled identity: exactly c times the driver increments
    c = -2.5
    scaled = rs_integral(make_matrix_path([0.0], (c * np.eye(2))[None]), driver)
    assert np.allclose(scaled.eval(driver.times), c * expect, rtol=1e-12, atol=0)


def test_constant_driver_integrates_to_zero(rng):
    integrand = random_matrix_path(rng, d=2)
    driver = make_path([0.0], [(3.0, -1.0)])
    out = rs_integral(integrand, driver)
    assert np.all(out.values == 0.0)


def test_two_term_hand_example():
    integrand = make_matrix_path([0, 1], [1.0, 2.0])
    driver = make_path([0, 1, 2], [0, 1, 3])
    out = rs_integral(integrand, driver)
    assert out.eval(1.0)[0] == pytest.approx(1.0, abs=0)
    assert out.eval(2.0)[0] == pytest.approx(5.0, abs=0)


def test_rs_integral_uses_left_limits():
    # integrand jumping exactly where the driver jumps must enter with its
    # pre-jump value
    integrand = make_matrix_path([0, 1], [1.0, 100.0])
    driver = make_path([0, 1], [0.0, 1.0])
    out = rs_integral(integrand, driver)
    assert out.eval(1.0)[0] == 1.0


def test_rs_integral_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rs_integral(make_matrix_path([0.0], np.eye(2)[None]), make_path([0], [0.0]))


def test_rs_integral_linearity_and_window_additivity(rng):
    d = 2
    x1 = random_matrix_path(rng, d=d)
    x2 = random_matrix_path(rng, d=d)
    z = random_step_path(rng, max_points=12, d=d)
    end = max(x1.end_time, x2.end_time, z.end_time)
    # linearity in the integrand
    summed = rs_integral(x1, z, (0, end)) + rs_integral(x2, z, (0, end))
    both_times = np.union1d(x1.times, x2.times)
    both = make_matrix_path(both_times, x1.eval(both_times) + x2.eval(both_times))
    direct = rs_integral(both, z, (0, end))
    assert sup_distance(summed, direct) <= 1e-12
    # additivity over adjacent windows (interior windows run on their own clock)
    mid = 0.5 * end
    full = rs_integral(x1, z, (0, end))
    head = rs_integral(x1, z, (0, mid))
    tail = rs_integral(x1, z, (mid, end))
    for t in z.times[z.times > mid]:
        expect = head.eval(mid) + tail.eval(t - mid)
        assert np.allclose(full.eval(t), expect, atol=1e-12)


def test_grid_riemann_sum_identity_and_single_step():
    z = np.array([[0.0], [1.0], [3.0]])
    eye = np.tile(np.eye(1), (3, 1, 1))
    out = grid_riemann_sum(eye, z)
    assert np.array_equal(out, z - z[0])
    single = grid_riemann_sum(np.array([[[2.0]], [[9.0]]]), np.array([[1.0], [4.0]]))
    assert np.array_equal(single[:, 0], [0.0, 6.0])
    with pytest.raises(LengthMismatch):
        grid_riemann_sum(eye[:2], z)
    # 1-D inputs are scalar matrices and scalar points
    assert np.array_equal(grid_riemann_sum([1.0, 2.0, 9.0], z[:, 0])[:, 0], [0.0, 1.0, 5.0])
    with pytest.raises(DimensionMismatch):
        grid_riemann_sum(np.zeros((3, 2, 2)), z)
    with pytest.raises(DimensionMismatch):
        grid_riemann_sum(np.zeros((3, 2, 3)), np.zeros((3, 2)))


def test_grid_riemann_sum_matches_rs_integral(rng):
    integrand = random_matrix_path(rng, d=2)
    driver = random_step_path(rng, max_points=12, d=2)
    merged = np.union1d(integrand.times, driver.times)
    sums = grid_riemann_sum(integrand.eval(merged), driver.eval(merged))
    out = rs_integral(integrand, driver)
    assert np.allclose(out.eval(merged), sums, atol=1e-12)


# ---------------------------------------------------------------------------
# the zeta-constant bound
# ---------------------------------------------------------------------------

def test_bound_constant_integrand_passes(rng):
    driver = random_step_path(rng, max_points=15, d=2)
    c = 1.7
    integrand = make_matrix_path([0.0], (c * np.eye(2))[None])
    chk = young_bound_check(integrand, driver, p=2.0, q=1.5)
    assert chk.passed
    assert chk.lhs <= chk.rhs


def test_bound_zero_driver_passes(rng):
    integrand = random_matrix_path(rng, d=2)
    driver = make_path([0.0], [(0.0, 0.0)])
    chk = young_bound_check(integrand, driver, p=2.0, q=1.5)
    assert chk.lhs == 0.0
    assert chk.passed


def test_bound_random_pair_near_regime_boundary(rng):
    integrand = random_matrix_path(rng, d=2)
    driver = random_step_path(rng, max_points=15, d=2)
    assert young_bound_check(integrand, driver, p=1.8, q=1.8).passed


def test_bound_rejects_non_young_exponents(rng):
    integrand = random_matrix_path(rng, d=1)
    driver = random_step_path(rng, max_points=5, d=1)
    with pytest.raises(InvalidExponents):
        young_bound_check(integrand, driver, p=2.0, q=2.0)


def test_coarsened_driver_integral_converges(rng):
    # refining (delta, mesh) = 2^-k drives the integral of the coarsened
    # driver to the integral of the full driver, monotonically on this
    # fixture; once delta drops below the smallest jump every jump is a
    # sampling point, so the error vanishes exactly
    times = np.linspace(0.0, 1.0, 41)
    steps = rng.choice([-1.0, 1.0], size=41) * rng.uniform(0.02, 0.4, size=41)
    vals = np.cumsum(steps)
    vals[10] += 2.0
    vals[30] -= 1.5
    driver = make_path(times, vals)
    integrand = make_matrix_path([0.0, 0.35, 0.8], np.array([1.0, 0.4, 1.3]))
    full = rs_integral(integrand, driver)
    errors = []
    for k in range(1, 8):
        coarse = coarsen_jump_adapted(driver, delta=2.0 ** -k, mesh=2.0 ** -k)
        approx = rs_integral(integrand, coarse)
        errors.append(sup_distance(full, approx))
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 1e-12


def test_rs_integral_that_overflows_raises():
    integrand = make_matrix_path([0.0, 1.0], [[[1e200]], [[1e200]]])
    driver = make_path([0.0, 0.5], [0.0, 1e200])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue, match="must be finite"):
        rs_integral(integrand, driver)
