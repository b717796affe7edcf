import numpy as np
import pytest

from pvreflect import align, check_estimates, make_path, solve_sp
from pvreflect.drivers import philox_stream
from pvreflect.errors import BarrierAboveStart, DimensionMismatch, NonFiniteValue
from conftest import random_step_path


def minimal_push_recursion(y_vals: np.ndarray, l_vals: np.ndarray) -> np.ndarray:
    """Independent oracle: push up to the barrier one grid step at a time."""
    x = np.empty_like(y_vals)
    x[0] = y_vals[0]
    for j in range(1, len(y_vals)):
        x[j] = np.maximum(x[j - 1] + (y_vals[j] - y_vals[j - 1]), l_vals[j])
    return x - y_vals


def admissible_pair(rng, max_points=20, d=1):
    y = random_step_path(rng, max_points=max_points, d=d)
    l = random_step_path(rng, max_points=max_points, d=d)
    shift = np.maximum(l.values[0] - y.eval(0.0), 0.0) + rng.uniform(0.0, 0.5, size=d)
    return y, make_path(l.times, l.values - shift)


# ---------------------------------------------------------------------------
# the closed-form solve
# ---------------------------------------------------------------------------

def test_no_reflection_when_input_stays_above_barrier():
    y = make_path([0, 1, 2], [1, 2, 3])
    l = make_path([0], [0])
    r = solve_sp(y, l)
    assert np.all(r.k.values == 0.0)
    assert np.array_equal(r.x.values, r.y.values)


def test_reflection_at_zero_barrier():
    r = solve_sp(make_path([0, 1, 2], [1, -1, 2]), make_path([0], [0]))
    assert np.array_equal(r.k.values.ravel(), [0, 1, 1])
    assert np.array_equal(r.x.values.ravel(), [1, 0, 3])
    # the regulator only grows while x sits on the barrier
    assert r.complementarity_defect() == 0.0


def test_reflection_at_moving_barrier():
    r = solve_sp(
        make_path([0, 1, 2], [1, 0, 0]),
        make_path([0, 1, 2], [0, 0.5, 0]),
    )
    assert np.array_equal(r.k.values.ravel(), [0, 0.5, 0.5])
    assert np.array_equal(r.x.values.ravel(), [1, 0.5, 0.5])


def test_one_point_reflection_has_no_defect():
    r = solve_sp(make_path([0], [(1.0, 2.0)]), make_path([0], [(0.0, 2.0)]))
    assert r.dim == 2
    assert r.monotonicity_violation() == 0.0
    assert r.complementarity_defect() == 0.0
    assert r.max_defect() == 0.0


def test_rejects_inadmissible_inputs():
    with pytest.raises(BarrierAboveStart):
        solve_sp(make_path([0], [0.0]), make_path([0], [1.0]))
    with pytest.raises(DimensionMismatch):
        solve_sp(make_path([0], [(0.0, 0.0)]), make_path([0], [0.0]))


def test_exactness_invariants_on_random_instances():
    for case in range(50):
        rng = philox_stream(111, case)
        d = int(rng.integers(1, 4))
        y, l = admissible_pair(rng, d=d)
        r = solve_sp(y, l)
        assert r.max_defect() <= 1e-12


def test_idempotence_reflected_output_needs_no_push():
    for case in range(20):
        rng = philox_stream(222, case)
        y, l = admissible_pair(rng)
        r = solve_sp(y, l)
        again = solve_sp(r.x, r.l)
        assert np.all(np.abs(again.k.values) <= 1e-12)


def test_minimality_against_push_recursion_and_perturbations():
    for case in range(50):
        rng = philox_stream(333, case)
        y, l = admissible_pair(rng, d=1)
        ya, la = align([y, l])
        r = solve_sp(y, l)
        k_oracle = minimal_push_recursion(ya.values, la.values)
        assert np.allclose(r.k.values, k_oracle, rtol=0, atol=1e-12)
        # any other admissible nondecreasing-from-0 regulator dominates k
        extra = np.concatenate([[0.0], np.cumsum(rng.uniform(0, 0.5, len(ya.times) - 1))])
        k_other = r.k.values + extra[:, None]
        assert np.all(r.k.values <= k_other + 1e-12)


# ---------------------------------------------------------------------------
# stability estimates
# ---------------------------------------------------------------------------

def test_estimates_identical_problems_are_all_zero():
    rng = philox_stream(444)
    y, l = admissible_pair(rng, d=2)
    checks = check_estimates(y, l, y, l, p=2.0)
    assert all(chk.passed for chk in checks)
    for chk in checks:
        if not chk.name.startswith("regulator_vbar_bound"):
            assert chk.lhs == 0.0


def test_estimates_constant_shift_regulator_bound():
    rng = philox_stream(555)
    y, l = admissible_pair(rng, d=1)
    c = 0.7
    y2 = make_path(y.times, y.values + c)
    checks = check_estimates(y, l, y2, l, p=2.0)
    by_name = {chk.name: chk for chk in checks}
    # |k - k'| <= |c| when only the input is shifted by a constant
    assert by_name["regulator_sup_lipschitz"].lhs <= c + 1e-12
    assert all(chk.passed for chk in checks)


def test_estimates_random_pairs_pass():
    for case in range(25):
        rng = philox_stream(666, case)
        d = int(rng.integers(1, 4))
        y, l = admissible_pair(rng, d=d)
        y2, l2 = admissible_pair(rng, d=d)
        failed = [c for c in check_estimates(y, l, y2, l2, p=2.0) if not c.passed]
        assert not failed, failed


def test_estimate_rows_write_exact_csv_cells():
    rng = philox_stream(777)
    y, l = admissible_pair(rng)
    y2, l2 = admissible_pair(rng)
    for chk in check_estimates(y, l, y2, l2, p=1.5):
        name, lhs, rhs, margin, passed = chk.csv_row()
        assert name == chk.name and passed == "1"
        # 17 significant digits read back to the same doubles
        assert (float(lhs), float(rhs), float(margin)) == (chk.lhs, chk.rhs, chk.margin)


# ---------------------------------------------------------------------------
# validation at the boundary
# ---------------------------------------------------------------------------

def test_reflection_skips_the_public_checks(rng, validations):
    y, l = admissible_pair(rng, d=2)
    y2, l2 = admissible_pair(rng, d=2)
    validations.update(grid=0, path=0)
    r = solve_sp(y, l)
    checks = check_estimates(y, l, y2, l2, 2.0)
    assert validations == {"grid": 0, "path": 0}
    assert all(c.passed for c in checks)
    assert not r.x.values.flags.writeable and not r.k.values.flags.writeable


def test_reflection_that_overflows_raises():
    # k = max(0, sup (l - y)) overflows where the barrier jumps far above y
    y = make_path([0.0, 1.0], [0.0, -1e308])
    l = make_path([0.0, 1.0], [0.0, 1e308])
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue, match="must be finite"):
        solve_sp(y, l)
