"""Left-point Riemann-Stieltjes integration and the zeta-constant bound.

For a matrix-valued integrand ``x`` of finite q-variation and a vector driver
``z`` of finite p-variation with ``1/p + 1/q > 1``, the left-point Stieltjes
integral ``t -> int_a^t x_{s-} dz_s`` is well defined and satisfies

    V_p(integral)_[a,b] <= zeta(1/p + 1/q) * Vbar_q(x)_[a,b) * V_p(z)_[a,b]

with the Riemann zeta function as constant.  On step paths the integral is a
finite sum over the driver's jumps, computed exactly here; left limits of the
integrand are mandatory (predictable sampling).  :func:`young_bound_check`
evaluates the bound on one (integrand, driver) pair and returns it as one
`checks.InequalityCheck` row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .checks import InequalityCheck, check
from .errors import DimensionMismatch, DomainError, InvalidExponents, LengthMismatch
from .pathcore import (
    Interval,
    MatrixStepPath,
    StepPath,
    TimeGrid,
    _derived,
    _resolve_window,
    p_variation,
    variation_norm,
)

__all__ = [
    "zeta",
    "rs_integral",
    "young_bound_check",
    "grid_riemann_sum",
]


@lru_cache(maxsize=256)
def zeta(s: float) -> float:
    """Riemann zeta via partial sum plus integral tail, abs error <= 1e-10.

    The tail ``sum_{n>N} n^-s`` is replaced by ``int_{N+1/2}^inf x^-s dx``,
    which always lies inside the bracketing integrals from ``N`` and ``N+1``;
    the midpoint-rule remainder is bounded by ``s * (N - 1/2)^-(s+1) / 24``,
    and N is chosen to push that below 1e-12.
    """
    s = float(s)
    if not np.isfinite(s) or s <= 1.0:
        raise DomainError(f"zeta requires s > 1, got {s}")
    target = 1e-12
    n_terms = int(np.ceil((s / (24.0 * target)) ** (1.0 / (s + 1.0)))) + 1
    n_terms = min(max(n_terms, 64), 1 << 26)
    total = 0.0
    chunk = 1 << 20
    for start in range(1, n_terms + 1, chunk):
        stop = min(start + chunk, n_terms + 1)
        total += float(np.sum(np.arange(start, stop, dtype=float) ** (-s)))
    tail = (n_terms + 0.5) ** (1.0 - s) / (s - 1.0)
    return total + tail


def grid_riemann_sum(matrices, points) -> np.ndarray:
    """Cumulative left-point sums ``S_{k+1} = S_k + M_k (z_{k+1} - z_k)``, ``S_0 = 0``.

    ``matrices`` is ``(K, d, d)`` and ``points`` is ``(K, d)``; the final
    matrix is never used.  Its callers are ``rs_integral`` and the
    integrated-driver construction ``drivers.build_zh``.
    """
    mats = np.asarray(matrices, dtype=float)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if mats.ndim == 1:
        mats = mats[:, None, None]
    if mats.shape[0] != pts.shape[0]:
        raise LengthMismatch(
            f"{mats.shape[0]} matrices for {pts.shape[0]} driver samples"
        )
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[1] != pts.shape[1]:
        raise DimensionMismatch(
            f"matrix shape {mats.shape[1:]} incompatible with points of dim {pts.shape[1]}"
        )
    out = np.zeros_like(pts)
    if pts.shape[0] > 1:
        dz = np.diff(pts, axis=0)
        steps = np.einsum("kij,kj->ki", mats[:-1], dz)
        out[1:] = np.cumsum(steps, axis=0)
    return out


def _window(integrand: MatrixStepPath, driver: StepPath, window) -> tuple[float, float]:
    """The window ``(a, b)``; by default from 0 to the later end of the two paths."""
    if window is None:
        window = (0.0, max(driver.end_time, integrand.end_time, 0.0))
    return _resolve_window(driver, window)


def rs_integral(integrand: MatrixStepPath, driver: StepPath, window=None) -> StepPath:
    """Exact left-point Stieltjes integral of a matrix path against a step driver.

    The output starts at 0 at the window's left end and jumps exactly where
    the driver jumps inside the window; the integrand enters through its left
    limits.
    """
    if integrand.dim != driver.dim:
        raise DimensionMismatch(
            f"integrand dim {integrand.dim} != driver dim {driver.dim}"
        )
    a, b = _window(integrand, driver, window)
    merged = np.union1d(integrand.times, driver.times)
    inner = merged[(merged > a) & (merged <= b)]
    times = np.concatenate([[a], inner])
    z_samples = driver.eval(times)
    m_samples = integrand.eval(times)  # left value on each increment (t_i, t_{i+1}]
    sums = grid_riemann_sum(m_samples, z_samples)
    # grids must start at 0, so the output runs on the window clock t - a;
    # the shift can round neighbouring times together and the sums can
    # overflow, so both are checked
    return _derived(StepPath, TimeGrid(times - a), sums, check_finite=True)


def young_bound_check(integrand: MatrixStepPath, driver: StepPath, p: float,
                      q: float, window=None) -> InequalityCheck:
    """The ``stieltjes_zeta_bound`` row: ``V_p`` of the integral against
    ``zeta(1/p + 1/q) * Vbar_q(integrand) * V_p(driver)``.

    Raises :class:`InvalidExponents` unless p and q are finite, at least 1
    and ``1/p + 1/q > 1``.  The integrand norm uses the half-open window
    ``[a, b)``: a jump of the integrand exactly at the right endpoint does
    not enter the bound.
    """
    if not (1.0 <= p < np.inf and 1.0 <= q < np.inf and 1.0 / p + 1.0 / q > 1.0):
        raise InvalidExponents(f"need finite p, q >= 1 with 1/p + 1/q > 1, got p={p}, q={q}")
    a, b = _window(integrand, driver, window)
    integral = rs_integral(integrand, driver, (a, b))
    shifted = Interval(0.0, b - a)  # the integral path runs on the window clock
    lhs = p_variation(integral, p, shifted) ** (1.0 / p)
    vbar_q = variation_norm(integrand, q, (a, b), include_right=False)
    driver_vp = p_variation(driver, p, (a, b)) ** (1.0 / p)
    return check("stieltjes_zeta_bound", lhs, zeta(1.0 / p + 1.0 / q) * vbar_q * driver_vp)
