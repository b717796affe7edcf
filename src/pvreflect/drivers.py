"""Stochastic and deterministic drivers: fBm, integrated noise, fixtures.

Fractional Brownian motion with Hurst index ``H in (1/2, 1)`` is sampled on a
uniform grid with the exact Gaussian law of its increments: the stationary
increment covariance is embedded in a circulant matrix (grid padded to a
power of two) and diagonalized by FFT.  The embedding of fractional Gaussian
noise is nonnegative (Dietrich & Newsam 1997; Craigmile 2003), and the
covariance is computed in a form that keeps it so in floating point.  A dense
Cholesky sampler of at most ``CHOLESKY_MAX_STEPS`` steps is the independent
oracle, its Toeplitz covariance built with numpy: the test-suite cross-checks
both laws with a two-sample KS test.

Reproducibility contract: every sampled path derives its stream from the
counter-based Philox generator keyed by ``(seed, path_index)``, so results do
not depend on scheduling or worker counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    EmbeddingFailure,
    GridMismatch,
    InvalidHurst,
    InvalidParameter,
    UnknownKind,
)
from .pathcore import StepPath, _check_count, _increment_norms, make_path
from .young import grid_riemann_sum

__all__ = [
    "FbmSpec",
    "VolatilitySpec",
    "philox_stream",
    "sample_fbm",
    "build_zh",
    "empirical_pvar_profile",
    "make_fv_driver",
    "make_barrier",
]

_U64 = 1 << 64


def philox_stream(seed: int, path_index: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by ``(seed, path_index)``.

    Distinct (seed, index) pairs give statistically independent streams, so
    Monte Carlo batches can be evaluated in any order or in parallel.
    """
    seed = int(seed)
    path_index = int(path_index)
    if not (0 <= seed < _U64):
        raise InvalidParameter("seed must fit in 64 unsigned bits")
    if not (0 <= path_index < _U64):
        raise InvalidParameter("path_index must fit in 64 unsigned bits")
    return np.random.Generator(np.random.Philox(key=seed + (path_index << 64)))


def _check_hurst(hurst: float) -> None:
    if not 0.5 < hurst < 1.0:  # NaN fails this too
        raise InvalidHurst(f"Hurst index must lie in (1/2, 1), got {hurst}")


@dataclass(frozen=True)
class FbmSpec:
    """Sampling request for one fBm path on the uniform grid {k*horizon/steps}."""

    hurst: float
    horizon: float = 1.0
    steps: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        _check_hurst(self.hurst)
        if self.horizon <= 0.0:
            raise InvalidParameter("horizon must be positive")
        if not self.horizon < np.inf:  # NaN fails this too
            raise InvalidParameter("horizon must be finite")
        _check_count("steps", self.steps)
        if not (0 <= int(self.seed) < _U64):
            raise InvalidParameter("seed must fit in 64 unsigned bits")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class VolatilitySpec:
    """Per-component volatility samples on the simulation grid, shape (d, n+1)."""

    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.ndim == 1:
            sigma = sigma[None, :]
        if sigma.ndim != 2:
            raise InvalidParameter("sigma must be (n+1,) or (d, n+1)")
        if not np.isfinite(sigma).all():
            raise InvalidParameter("sigma samples must be finite")
        object.__setattr__(self, "sigma", sigma)

    @property
    def dim(self) -> int:
        return int(self.sigma.shape[0])


def _fgn_autocov(count: int, hurst: float) -> np.ndarray:
    """Autocovariance of unit-spaced fractional Gaussian noise at lags 0..count-1.

    Lag ``j >= 1`` is ``0.5 (|j+1|^2H - 2 j^2H + |j-1|^2H)``, written as
    ``0.5 j^2H (expm1(2H log1p(1/j)) + expm1(2H log1p(-1/j)))``: the direct
    second difference of powers near ``j^2H`` loses up to ``2 log10(j)``
    digits to cancellation, this form about ``log10(j)``.  Each lag is
    computed with the C library's ``expm1``, ``log1p`` and ``pow``, whose
    results do not depend on the SIMD kernels numpy dispatches to.
    """
    two_h = 2.0 * hurst
    expm1, log1p = math.expm1, math.log1p
    # lag 1: log1p(-1) = -inf and expm1(-inf) = -1
    gamma = [1.0, 0.5 * (expm1(two_h * log1p(1.0)) - 1.0)]
    gamma += [0.5 * j ** two_h * (expm1(two_h * log1p(1.0 / j)) + expm1(two_h * log1p(-1.0 / j)))
              for j in map(float, range(2, count))]
    return np.asarray(gamma[:count])


@lru_cache(maxsize=4)  # 2m floats each; every replicate of a run shares one
def _circulant_eigenvalues(n: int, hurst: float) -> np.ndarray:
    """Eigenvalues of the circulant embedding of ``n`` fGn increments, length 2m.

    Cached and read-only: every path of one size and Hurst index uses them.
    """
    m = 1 << max(n - 1, 1).bit_length()
    gamma = _fgn_autocov(m + 1, hurst)
    row = np.concatenate([gamma, gamma[-2:0:-1]])  # circulant first row, length 2m
    lam = np.fft.fft(row).real
    lam.setflags(write=False)
    return lam


def _fgn_circulant(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    lam = _circulant_eigenvalues(n, hurst)
    if lam.min() < -1e-10:
        raise EmbeddingFailure(
            f"circulant embedding not nonnegative (min eigenvalue {lam.min():g})"
        )
    lam = np.clip(lam, 0.0, None)
    m = lam.size // 2
    endpoints = rng.standard_normal(2)
    inner = rng.standard_normal((m - 1, 2))
    z = np.empty(2 * m, dtype=complex)
    z[0] = endpoints[0]
    z[m] = endpoints[1]
    z[1:m] = (inner[:, 0] + 1j * inner[:, 1]) / np.sqrt(2.0)
    z[m + 1 :] = np.conj(z[1:m][::-1])
    spectrum = np.sqrt(lam / (2.0 * m)) * z
    return np.fft.fft(spectrum).real[:n]


#: largest step count of the dense Cholesky oracle (an n x n factor)
CHOLESKY_MAX_STEPS = 4096


@lru_cache(maxsize=2)  # factors are O(n^2) memory; callers loop per (n, hurst)
def _cholesky_factor(n: int, hurst: float) -> np.ndarray:
    try:
        gamma = _fgn_autocov(n, hurst)
        # row i of the symmetric Toeplitz covariance is gamma[|i - j|], j = 0..n-1
        rows = np.lib.stride_tricks.sliding_window_view(np.concatenate((gamma[:0:-1], gamma)), n)
        factor = np.linalg.cholesky(rows[::-1])
    except np.linalg.LinAlgError as exc:
        raise EmbeddingFailure("increment covariance not positive definite") from exc
    factor.setflags(write=False)
    return factor


def _fgn_cholesky(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    if n > CHOLESKY_MAX_STEPS:
        raise InvalidParameter(
            f"cholesky sampling is capped at {CHOLESKY_MAX_STEPS} steps, got {n}"
        )
    return _cholesky_factor(n, hurst) @ rng.standard_normal(n)


_SAMPLERS = {"circulant": _fgn_circulant, "cholesky": _fgn_cholesky}

#: largest step count of any fBm sample (the circulant embedding pads it to
#: a power of two and holds a few complex arrays of twice that length)
FBM_MAX_STEPS = 2**20


def sample_fbm(spec: FbmSpec, method: str = "circulant", path_index: int = 0) -> StepPath:
    """Sample one fBm path as a scalar step path, ``B_0 = 0``.

    ``method`` is ``"circulant"`` (FFT, the sampler every caller uses) or
    ``"cholesky"`` (the dense oracle, at most ``CHOLESKY_MAX_STEPS`` steps).
    Either raises :class:`InvalidParameter` above ``FBM_MAX_STEPS`` steps,
    before any array is built.
    Deterministic in ``(spec, method, path_index)``.
    """
    if method not in _SAMPLERS:
        raise UnknownKind(f"unknown fbm sampling method {method!r}")
    n = spec.steps
    if n > FBM_MAX_STEPS:
        raise InvalidParameter(f"fbm sampling is capped at {FBM_MAX_STEPS} steps, got {n}")
    fgn = _SAMPLERS[method](n, spec.hurst, philox_stream(spec.seed, path_index))
    scale = (spec.horizon / n) ** spec.hurst
    values = np.concatenate([[0.0], np.cumsum(scale * fgn)])
    return make_path(spec.times, values)


def build_zh(components, vol: VolatilitySpec) -> StepPath:
    """Left-point integrals of volatility against d independent noise paths.

    Each output component is the cumulative sum of ``sigma^i`` (left sample)
    times the increments of its own driver component; the result starts at 0.
    """
    components = list(components)
    if not components:
        raise DimensionMismatch("need at least one driver component")
    if vol.dim != len(components):
        raise DimensionMismatch(
            f"{len(components)} driver components for sigma of dim {vol.dim}"
        )
    times = components[0].times
    for c in components:
        if c.dim != 1:
            raise DimensionMismatch("driver components must be scalar paths")
        if not np.array_equal(c.times, times):
            raise GridMismatch("driver components must share one grid")
    if vol.sigma.shape[1] != times.size:
        raise GridMismatch(
            f"{vol.sigma.shape[1]} sigma samples for a grid of {times.size} points"
        )
    cols = []
    for c, sig in zip(components, vol.sigma):
        sums = grid_riemann_sum(sig[:, None, None], c.values)
        cols.append(sums[:, 0])
    return make_path(times, np.column_stack(cols))


def empirical_pvar_profile(path: StepPath, p: float, levels) -> np.ndarray:
    """Realized p-variation of the path along dyadic sub-grids.

    Level ``j`` keeps every ``(n_steps / 2**j)``-th breakpoint (so ``2**j``
    pieces; each level must divide the full step count) and contributes
    ``(sum |increments|^p)^(1/p)`` over that partition.  For a noise path of
    Hurst index H the profile stabilizes for ``p > 1/H`` (vanishing
    small-scale contributions) and grows without bound for ``p < 1/H``; for
    ``p = 1`` it is nondecreasing in the level by the triangle inequality.
    """
    if not 1.0 <= p < np.inf:
        raise InvalidParameter(f"p must be finite and >= 1, got {p}")
    n_steps = len(path.times) - 1
    out = []
    for level in levels:
        pieces = 1 << int(level)
        if pieces > n_steps or n_steps % pieces != 0:
            raise InvalidParameter(
                f"level {level} needs 2^{level} to divide the {n_steps} steps"
            )
        stride = n_steps // pieces
        norms = _increment_norms(np.diff(path.values[::stride], axis=0))
        out.append(float(np.sum(norms ** p) ** (1.0 / p)))
    return np.asarray(out)


# ---------------------------------------------------------------------------
# deterministic fixture builders
# ---------------------------------------------------------------------------

def make_fv_driver(kind: str, **params) -> StepPath:
    """Scalar finite-variation drivers: ``linear``, ``constant`` or ``jump``.

    * ``linear``: ``a_t = slope * t`` sampled on ``steps`` uniform pieces;
    * ``constant``: flat at ``value`` up to ``horizon``;
    * ``jump``: pure-jump path with ``jumps=[(time, size), ...]`` from ``base``.
    """
    if kind == "linear":
        horizon = float(params.get("horizon", 1.0))
        steps = int(params.get("steps", 4))
        slope = float(params.get("slope", 1.0))
        times = np.linspace(0.0, horizon, steps + 1)
        return make_path(times, slope * times)
    if kind == "constant":
        horizon = float(params.get("horizon", 1.0))
        value = float(params.get("value", 0.0))
        return make_path([0.0, horizon], [value, value])
    if kind == "jump":
        jumps = sorted((float(t), float(s)) for t, s in params.get("jumps", ()))
        base = float(params.get("base", 0.0))
        if any(t <= 0.0 for t, _ in jumps):
            raise InvalidParameter("jump times must be positive")
        times = [0.0] + [t for t, _ in jumps]
        values = [base] + list(base + np.cumsum([s for _, s in jumps]))
        horizon = params.get("horizon")
        if horizon is not None and float(horizon) > times[-1]:
            times.append(float(horizon))
            values.append(values[-1])
        return make_path(times, values)
    raise UnknownKind(f"unknown driver kind {kind!r}")


def make_barrier(kind: str, dim: int = 1, **params) -> StepPath:
    """d-dimensional barriers: ``constant``, ``sine`` or ``jump``.

    * ``constant``: flat at ``level`` (scalar or length-d) up to ``horizon``;
    * ``sine``: ``base + amplitude * sin(2 pi t / period + i * pi/4)``
      sampled on ``steps`` pieces, one phase shift per component;
    * ``jump``: piecewise-constant levels from ``schedule=[(time, level), ...]``.
    """
    horizon = float(params.get("horizon", 1.0))
    if kind == "constant":
        level = np.broadcast_to(
            np.asarray(params.get("level", 0.0), dtype=float), (dim,)
        )
        return make_path([0.0, horizon], np.vstack([level, level]))
    if kind == "sine":
        steps = int(params.get("steps", 64))
        base = float(params.get("base", 0.0))
        amplitude = float(params.get("amplitude", 1.0))
        period = float(params.get("period", 1.0))
        times = np.linspace(0.0, horizon, steps + 1)
        phases = np.arange(dim) * (np.pi / 4.0)
        values = base + amplitude * np.sin(
            2.0 * np.pi * times[:, None] / period + phases[None, :]
        )
        return make_path(times, values)
    if kind == "jump":
        # by time alone: levels at one time are left for make_path to refuse
        schedule = sorted(
            ((float(t), np.broadcast_to(np.asarray(v, dtype=float), (dim,)))
             for t, v in params.get("schedule", ())),
            key=lambda entry: entry[0],
        )
        start = np.broadcast_to(np.asarray(params.get("level", 0.0), dtype=float), (dim,))
        if any(t <= 0.0 for t, _ in schedule):
            raise InvalidParameter("schedule times must be positive")
        times = [0.0] + [t for t, _ in schedule]
        values = [start] + [v for _, v in schedule]
        if horizon > times[-1]:
            times.append(horizon)
            values.append(values[-1])
        return make_path(times, np.vstack(values))
    raise UnknownKind(f"unknown barrier kind {kind!r}")
