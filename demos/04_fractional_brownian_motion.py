"""Sampling fractional Brownian motion with exact increment laws.

The sampler embeds the stationary increment covariance in a circulant matrix
(diagonalized by FFT), which is exact for every H in (1/2, 1).  A dense
Cholesky factor of the same covariance is the independent check below.
Every path derives its randomness from a counter-based stream keyed by
(seed, path index), so batches are reproducible in any order.
"""

import numpy as np

from pvreflect import (
    FbmSpec,
    VolatilitySpec,
    build_zh,
    empirical_pvar_profile,
    sample_fbm,
)

spec = FbmSpec(hurst=0.75, horizon=1.0, steps=1024, seed=42)
paths = np.array([sample_fbm(spec, path_index=i).values[:, 0] for i in range(200)])
print("empirical Var(B_1) over 200 paths:", paths[:, -1].var(), "(theory: 1)")
for lag in (1, 16):
    theory = (lag / 1024) ** (2 * spec.hurst)
    emp = ((paths[:, lag:] - paths[:, :-lag]) ** 2).mean()
    print(f"E|B_t - B_s|^2 at lag {lag:3d}/1024: {emp:.3e} (theory {theory:.3e})")

# both samplers draw from the same law
circ = sample_fbm(spec, method="circulant")
chol = sample_fbm(spec, method="cholesky")
print("\nsampler end values (different draws, same law):",
      circ.eval(1.0)[0], chol.eval(1.0)[0])

# integrated driver: volatility 2 on the first half, 0 after
sigma = np.where(spec.times < 0.5, 2.0, 0.0)
z = build_zh([circ], VolatilitySpec(sigma))
print("Z_T =", z.eval(1.0)[0], " equals 2 * B_{1/2} =", 2 * circ.eval(0.5)[0])

# realized p-variation along dyadic partitions: stabilizes for p > 1/H,
# grows without bound for p < 1/H (here 1/H = 4/3)
levels = [3, 4, 5, 6, 7, 8, 9, 10]
for p in (1.0, 2.0):
    prof = empirical_pvar_profile(circ, p, levels)
    print(f"\np={p} profile:", np.array2string(prof, precision=3))
