"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line
pass/fail verdicts; the whole suite is sized for desk scale (well under five
minutes).
"""

import math
import subprocess
import sys
import time

import numpy as np
import scipy.stats

from pvreflect import (
    FbmSpec,
    Problem,
    align,
    constant_path,
    empirical_pvar_profile,
    euler_adaptive,
    euler_uniform,
    linear_path,
    make_path,
    p_variation,
    p_variation_brute,
    sample_fbm,
    solve_sp,
    zeta,
)
from pvreflect.campaigns import (
    reflection_estimates_campaign,
    running_max_contraction_campaign,
    stieltjes_bound_campaign,
)
from pvreflect.drivers import philox_stream
from pvreflect.presets import coefficient_preset
from conftest import random_step_path

P_SET = (1.0, 1.5, 2.0, 3.0)


def report(name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_01_pvariation_dynamic_program_matches_brute_force():
    start = time.perf_counter()
    worst = 0.0
    for case in range(200):
        rng = philox_stream(101, case)
        d = 1 + case % 2
        path = random_step_path(rng, max_points=12, d=d)
        for p in P_SET:
            dp = p_variation(path, p)
            brute = p_variation_brute(path, p)
            denom = max(1.0, abs(brute))
            worst = max(worst, abs(dp - brute) / denom)
    elapsed = time.perf_counter() - start
    report(
        "p-variation DP equals exhaustive subsequence oracle",
        worst <= 1e-12 and elapsed < 10.0,
        f"200 paths x 4 exponents, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_running_max_contraction_campaign():
    rows = running_max_contraction_campaign(1000, seed=2024)
    violations = [r for r in rows if not r.passed]
    report(
        "running-max difference contraction in p-variation",
        len(rows) == 1000 and not violations,
        f"{len(rows)} cases, {len(violations)} violations",
    )


def test_03_reflection_lipschitz_estimates_campaign():
    rows = reflection_estimates_campaign(1000, seed=2024)
    violations = [r for r in rows if not r.passed]
    cases = len({r.case for r in rows})
    report(
        "reflection-map Lipschitz and regulator bounds",
        cases == 1000 and not violations,
        f"{cases} quadruples / {len(rows)} checks, {len(violations)} violations",
    )


def _admissible_instance(rng, d):
    y = random_step_path(rng, max_points=40, d=d)
    l_raw = random_step_path(rng, max_points=40, d=d)
    shift = np.maximum(l_raw.values[0] - y.eval(0.0), 0.0) + 0.1
    return y, make_path(l_raw.times, l_raw.values - shift)


def test_04_reflection_exactness_and_minimality():
    worst_defect = 0.0
    for case in range(200):
        rng = philox_stream(104, case)
        y, l = _admissible_instance(rng, 1 + case % 3)
        worst_defect = max(worst_defect, solve_sp(y, l).max_defect())

    worst_minimality = 0.0
    for case in range(200):
        rng = philox_stream(105, case)
        y, l = _admissible_instance(rng, 1)
        r = solve_sp(y, l)
        ya, la = align([y, l])
        x = np.empty_like(ya.values)
        x[0] = ya.values[0]
        for j in range(1, len(ya.times)):
            x[j] = np.maximum(
                x[j - 1] + ya.values[j] - ya.values[j - 1], la.values[j])
        k_oracle = x - ya.values
        worst_minimality = max(
            worst_minimality, float(np.abs(r.k.values - k_oracle).max()))
    report(
        "reflection exactness and d=1 minimal-pushing agreement",
        worst_defect <= 1e-12 and worst_minimality <= 1e-12,
        f"200+200 instances, worst defect {worst_defect:.2e}, worst "
        f"minimality gap {worst_minimality:.2e}",
    )


def test_05_stieltjes_zeta_bound_campaign():
    zeta_err = abs(zeta(2.0) - math.pi ** 2 / 6)
    rows = stieltjes_bound_campaign(1000, seed=2024)
    violations = [r for r in rows if not r.passed]
    report(
        "left-point Stieltjes integral obeys the zeta-constant bound",
        zeta_err <= 1e-10 and len(rows) == 1000 and not violations,
        f"zeta(2) err {zeta_err:.1e}, {len(rows)} cases, "
        f"{len(violations)} violations",
    )


def test_06_euler_exact_for_additive_noise():
    coeffs = coefficient_preset("identity", 1)
    zero_barrier = constant_path(0.0, 1.0)
    a = constant_path(0.0, 1.0)
    worst = 0.0
    for case in range(100):
        rng = philox_stream(106, case)
        z = random_step_path(rng, max_points=50, horizon=1.0)
        x0 = abs(float(rng.normal())) + 0.05
        prob = Problem(x0=[x0], a=a, z=z, l=zero_barrier, coeffs=coeffs, p=2.0)
        sol = euler_uniform(prob, 64)
        grid = sol.x.times
        sampled = make_path(grid, x0 + z.eval(grid) - z.eval(0.0))
        ref = solve_sp(sampled, make_path([0.0], [0.0]))
        worst = max(
            worst,
            float(np.abs(sol.x.values - ref.x.values).max()),
            float(np.abs(sol.k.values - ref.k.values).max()),
        )
    report(
        "additive-noise scheme equals the reflection map on its grid",
        worst <= 1e-12,
        f"100 drivers, worst gap {worst:.2e}",
    )


def test_07_geometric_growth_oracle_with_halving_error():
    coeffs = coefficient_preset("geometric", 1)
    barrier = constant_path(-1e6, 1.0)
    a = constant_path(0.0, 1.0)
    errors = {}
    for n in (256, 512, 1024, 2048):
        z = linear_path(1.0, 1.0, n)
        prob = Problem(x0=[1.0], a=a, z=z, l=barrier, coeffs=coeffs, p=2.0)
        sol = euler_uniform(prob, n)
        errors[n] = abs(sol.x.eval(1.0)[0] - math.e)
    ratios = [errors[2 * n] / errors[n] for n in (256, 512, 1024)]
    ok = errors[1024] < 5e-3 and all(abs(r - 0.5) <= 0.125 for r in ratios)
    report(
        "compound-growth oracle: error < 5e-3 at n=1024 and halves with n",
        ok,
        "err(1024)=%.2e, halving ratios %s" % (
            errors[1024], ["%.3f" % r for r in ratios]),
    )


def test_08_fbm_statistics_and_sampler_agreement():
    n, paths, seed = 4096, 200, 2024
    details = []
    ok = True
    for hurst in (0.6, 0.75, 0.9):
        spec = FbmSpec(hurst=hurst, horizon=1.0, steps=n, seed=seed)
        sample = np.array(
            [sample_fbm(spec, path_index=i).values[:, 0] for i in range(paths)])
        var_end = float(sample[:, -1].var())
        ok &= abs(var_end - 1.0) < 0.10
        for lag in (1, 4, 16):
            theory = (lag / n) ** (2 * hurst)
            ratio = float(((sample[:, lag:] - sample[:, :-lag]) ** 2).mean()) / theory
            ok &= abs(ratio - 1.0) < 0.15
        circ = np.array(
            [sample_fbm(spec, "circulant", i).values[-1, 0] for i in range(500)])
        chol = np.array(
            [sample_fbm(spec, "cholesky", 1000 + i).values[-1, 0] for i in range(500)])
        pvalue = scipy.stats.ks_2samp(circ, chol).pvalue
        ok &= pvalue >= 0.01
        details.append(f"H={hurst}: Var={var_end:.3f} KS p={pvalue:.3f}")
    report("fBm variance, increment law and sampler agreement", ok,
           "; ".join(details))


def test_09_pvariation_regime_profiles():
    levels = list(range(5, 13))
    ok = True
    worst_tame, worst_rough = 0.0, np.inf
    for idx in range(20):
        spec = FbmSpec(hurst=0.75, horizon=1.0, steps=4096, seed=9000 + idx)
        path = sample_fbm(spec)
        tame = empirical_pvar_profile(path, 2.0, levels)
        rough = empirical_pvar_profile(path, 1.0, levels)
        tame_ratio = tame[-1] / tame[-2]
        rough_ratio = rough[-1] / rough[-2]
        ok &= tame_ratio < 1.1
        ok &= bool(np.all(np.diff(rough) > 0)) and rough_ratio >= 1.1
        worst_tame = max(worst_tame, tame_ratio)
        worst_rough = min(worst_rough, rough_ratio)
    report(
        "variation profile stabilizes above 1/H and grows below it",
        ok,
        f"20 seeds: max tame ratio {worst_tame:.3f}, "
        f"min rough ratio {worst_rough:.3f}",
    )


def test_10_adaptive_partition_jump_handling():
    coeffs = coefficient_preset("identity", 1)
    barrier = constant_path(-1e6, 1.0)
    a = constant_path(0.0, 1.0)

    z_big = make_path([0.0, 0.37, 1.0], [0.0, 1.0, 1.0])
    prob = Problem(x0=[0.0], a=a, z=z_big, l=barrier, coeffs=coeffs, p=2.0)
    sol = euler_adaptive(prob, 10)
    times = sol.x.times.tolist()
    hit = 0.37 in times
    one_step = False
    if hit:
        i = times.index(0.37)
        one_step = abs(sol.x.values[i, 0] - sol.x.values[i - 1, 0] - 1.0) <= 1e-12

    z_small = make_path([0.0, 0.37, 1.0], [0.0, 0.05, 0.05])
    prob2 = Problem(x0=[0.0], a=a, z=z_small, l=barrier, coeffs=coeffs, p=2.0)
    sa, su = euler_adaptive(prob2, 10), euler_uniform(prob2, 10)
    same_grid = np.array_equal(sa.x.times, su.x.times)
    coincide = same_grid and float(
        np.abs(sa.x.values - su.x.values).max()) <= 1e-12

    report(
        "adaptive partition stops at large jumps and otherwise matches uniform",
        hit and one_step and coincide,
        f"jump point hit={hit}, single step={one_step}, collapse={coincide}",
    )


def test_11_cli_determinism_across_runs_and_workers(tmp_path):
    def run(out, workers):
        cmd = [
            sys.executable, "-m", "pvreflect", "simulate",
            "--preset", "linear-reflected", "--seed", "7",
            "--replicates", "4", "--workers", str(workers),
            "--n", "64", "--driver-steps", "128", "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    first = run(tmp_path / "run1.csv", 1)
    second = run(tmp_path / "run2.csv", 1)
    wide = run(tmp_path / "run4.csv", 4)
    report(
        "simulate output byte-identical across runs and worker counts",
        first == second == wide,
        f"{len(first)} bytes",
    )
