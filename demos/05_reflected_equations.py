"""Euler schemes for equations with reflection.

The state follows drift f against a finite-variation clock plus noise g
against a rough driver, and is kept above a barrier by the minimal regulator.
One Euler step adds the increments and clips at the barrier; the jump-adaptive
partition additionally stops at every large driver jump.  Refining the mesh
dyadically until successive solutions agree gives practical convergence
control.
"""

import math

import numpy as np

from pvreflect import (
    FbmSpec,
    Problem,
    VolatilitySpec,
    a_priori_check,
    build_zh,
    constant_path,
    euler_adaptive,
    euler_uniform,
    linear_path,
    sample_fbm,
    sine_path,
    solve,
)
from pvreflect.presets import coefficient_preset
from pvreflect.sde import solution_gap

# 1. sanity oracle: x' = x against z_t = t compounds to e at T = 1
n = 1024
prob = Problem(
    x0=[1.0],
    a=constant_path(level=0.0, horizon=1.0),
    z=linear_path(slope=1.0, horizon=1.0, steps=n),
    l=constant_path(level=-1e6, horizon=1.0),
    coeffs=coefficient_preset("geometric", 1),
    p=2.0,
)
sol = euler_uniform(prob, n)
print(f"compound growth: x_1 = {sol.x.eval(1.0)[0]:.6f}  (e = {math.e:.6f})")

# 2. a reflected equation driven by integrated fractional noise
d = 2
spec = FbmSpec(hurst=0.75, horizon=1.0, steps=512, seed=13)
noise = [sample_fbm(spec, path_index=i) for i in range(d)]
z = build_zh(noise, VolatilitySpec(np.ones((d, 513))))
reflected = Problem(
    x0=[0.3, 0.3],
    a=linear_path(slope=1.0, horizon=1.0, steps=512),
    z=z,
    l=sine_path(base=-0.2, amplitude=0.2, period=1.0, horizon=1.0, steps=64, dim=d),
    coeffs=coefficient_preset("tanh", d),
    p=2.0,
)

print("\nrefinement ladder (sup distance between successive solutions):")
prev = None
for level_n in (16, 32, 64, 128, 256):
    cur = euler_adaptive(reflected, level_n)
    gap = "" if prev is None else f"gap {solution_gap(cur, prev):.5f}"
    print(f"  n={level_n:4d}  steps={int(cur.diagnostics['steps']):4d}  {gap}")
    prev = cur

solution = solve(reflected, tol=1e-3, n0=32)
print(f"\nconverged at n={solution.n} with Cauchy gap "
      f"{solution.diagnostics['cauchy_gap']:.2e}")
print("total push per component:", solution.k.eval(1.0))

for chk in a_priori_check(solution, reflected):
    print(f"a-priori {chk.name}: {chk.lhs:.4f} <= {chk.rhs:.4f} "
          f"({'ok' if chk.passed else 'VIOLATED'})")
