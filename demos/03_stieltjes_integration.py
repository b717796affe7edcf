"""Left-point Stieltjes integration against rough step drivers.

When the integrand has finite q-variation, the driver finite p-variation and
1/p + 1/q > 1, the left-point Riemann-Stieltjes integral is well defined and
its p-variation is controlled by a zeta-function constant.  On step paths the
integral is a finite jump sum, so the bound can be checked exactly; coarsening
the driver while keeping its big jumps converges back to the full integral.
"""

import numpy as np

from pvreflect import (
    coarsen_jump_adapted,
    make_matrix_path,
    make_path,
    rs_integral,
    sup_distance,
    young_bound_check,
    zeta,
)

print("zeta(1.5) =", zeta(1.5))
print("zeta(4/3) =", zeta(4.0 / 3.0), "(the constant for p = q = 1.5)")

rng = np.random.default_rng(3)
times = np.linspace(0.0, 1.0, 33)
driver = make_path(times, np.cumsum(rng.normal(scale=0.4, size=(33, 2)), axis=0))
integrand = make_matrix_path(times, np.cumsum(rng.normal(scale=0.2, size=(33, 2, 2)), axis=0))

integral = rs_integral(integrand, driver)
print("\nintegral value at T:", integral.eval(1.0))

chk = young_bound_check(integrand, driver, p=1.5, q=1.5)
print(f"variation of the integral {chk.lhs:.4f} <= zeta(4/3) * Vbar_q(integrand) * "
      f"V_p(driver) = {chk.rhs:.4f}  -> {chk.passed}")

# jump-adapted coarsening: keep jumps above delta, sample on a mesh otherwise
vals = np.cumsum(np.where(rng.random(33) < 0.5, -1.0, 1.0) * rng.uniform(0.05, 0.3, 33))
vals[12] += 2.0
spiky = make_path(times, vals)
full = rs_integral(make_matrix_path([0.0], [1.0]), spiky)
print("\ncoarsening the driver (delta = mesh = 2^-k):")
for k in range(1, 7):
    approx = rs_integral(
        make_matrix_path([0.0], [1.0]),
        coarsen_jump_adapted(spiky, delta=2.0 ** -k, mesh=2.0 ** -k))
    print(f"  k={k}: sup distance to the full integral {sup_distance(full, approx):.5f}")
