"""Reflecting a path at a time-dependent lower barrier.

The reflection problem decomposes an input y into x = y + k where x stays at
or above the barrier, and the regulator k is the minimal nondecreasing push:
it grows only while x touches the barrier.  On step paths the regulator is a
running maximum, so everything here is exact.
"""

import numpy as np

from pvreflect import check_estimates, make_path, sine_path, solve_sp

rng = np.random.default_rng(7)
times = np.linspace(0.0, 2.0, 41)
y = make_path(times, 0.5 + np.cumsum(rng.normal(scale=0.3, size=41)))
barrier = sine_path(base=-0.5, amplitude=0.4, period=2.0, horizon=2.0, steps=40)

r = solve_sp(y, barrier)
print("input starts at      ", y.eval(0.0))
print("total push k_T =     ", r.k.eval(2.0))
print("min(x - barrier)  =  ", (r.x.values - r.l.values).min(), "(never negative)")
print("worst invariant defect:", r.max_defect())

binding = np.diff(r.k.values[:, 0]) > 1e-12
print(f"regulator grows on {binding.sum()} of {len(times) - 1} grid steps,")
print("and on those steps x sits on the barrier:",
      np.allclose((r.x.values - r.l.values)[1:][binding], 0.0, atol=1e-12))

# perturb the input and compare: the map (y, l) -> (x, k) is Lipschitz both
# in the uniform norm and in the variation norm
y2 = make_path(times, y.values + rng.normal(scale=0.05, size=(41, 1)))
print("\nstability checks (lhs <= rhs):")
for chk in check_estimates(y, barrier, y2, barrier, p=2.0):
    print(f"  {chk.name:28s} {chk.lhs:10.4f} <= {chk.rhs:10.4f}   "
          f"margin {chk.margin:8.4f}  {'ok' if chk.passed else 'VIOLATED'}")
