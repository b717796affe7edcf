"""Fixed registries of coefficients, drivers and barriers for the CLI.

Presets keep the command line free of expression parsing: every simulate or
convergence run names a coefficient preset, a barrier preset and a driver
preset, all of which are plain Python factories below.  Coefficient presets
take states of shape ``(N, d)``, as `sde.Coefficients` describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drivers import FbmSpec, VolatilitySpec, build_zh, make_barrier, make_fv_driver, sample_fbm
from .errors import UnknownKind
from .pathcore import StepPath, make_path
from .sde import Coefficients, Problem

__all__ = [
    "coefficient_preset",
    "sigma_preset",
    "barrier_preset",
    "z_driver_preset",
    "build_problem",
    "COEFFICIENT_PRESETS",
    "PROBLEM_PRESETS",
]


def _diag(v: np.ndarray) -> np.ndarray:
    """``np.diag`` of each row: ``(N, d) -> (N, d, d)``, exactly 0 off the diagonal."""
    d = v.shape[-1]
    out = np.zeros((len(v), d * d))
    out[:, :: d + 1] = v
    return out.reshape(len(v), d, d)


def _identity_coeffs(dim: int) -> Coefficients:
    eye = np.eye(dim)
    return Coefficients(f=np.zeros_like, g=lambda x: np.tile(eye, (len(x), 1, 1)))


def _zero_coeffs(dim: int) -> Coefficients:
    return Coefficients(f=np.zeros_like, g=lambda x: np.zeros(x.shape + (dim,)))


def _geometric_coeffs(dim: int) -> Coefficients:
    return Coefficients(f=np.zeros_like, g=_diag)


def _tanh_coeffs(dim: int) -> Coefficients:
    # I + 0.3 diag(tanh x), adding only on the diagonal: 0 + 0.3 * 0 is 0
    return Coefficients(
        f=lambda x: 0.5 * np.tanh(x),
        g=lambda x: _diag(1.0 + 0.3 * np.tanh(x)),
    )


def _rotation2d_coeffs(dim: int) -> Coefficients:
    if dim != 2:
        raise UnknownKind("rotation2d coefficients require dimension 2")

    def f(x: np.ndarray) -> np.ndarray:
        return 0.3 * np.tanh(np.stack([-x[:, 1], x[:, 0]], axis=-1))

    def g(x: np.ndarray) -> np.ndarray:
        cos, sin = np.cos(x), np.sin(x)
        rows = np.stack([cos[:, 1], -sin[:, 1], sin[:, 0], cos[:, 0]], axis=-1)
        return 0.4 * rows.reshape(-1, 2, 2)

    return Coefficients(f=f, g=g)


COEFFICIENT_PRESETS = {
    "zero": _zero_coeffs,
    "identity": _identity_coeffs,
    "geometric": _geometric_coeffs,
    "tanh": _tanh_coeffs,
    "rotation2d": _rotation2d_coeffs,
}


def coefficient_preset(name: str, dim: int) -> Coefficients:
    try:
        factory = COEFFICIENT_PRESETS[name]
    except KeyError:
        raise UnknownKind(f"unknown coefficient preset {name!r}") from None
    return factory(dim)


def sigma_preset(name: str, times: np.ndarray, dim: int) -> VolatilitySpec:
    """Volatility samples on a given grid: ``unit``, ``twoblock`` or ``sine``."""
    horizon = float(times[-1]) if times[-1] > 0 else 1.0
    if name == "unit":
        sig = np.ones((dim, times.size))
    elif name == "twoblock":
        sig = np.where(times < 0.5 * horizon, 2.0, 0.0)
        sig = np.tile(sig, (dim, 1))
    elif name == "sine":
        base = 1.0 + 0.5 * np.sin(2.0 * np.pi * times / horizon)
        sig = np.tile(base, (dim, 1))
    else:
        raise UnknownKind(f"unknown sigma preset {name!r}")
    return VolatilitySpec(sigma=sig)


def barrier_preset(name: str, dim: int, horizon: float) -> StepPath:
    if name == "zero":
        return make_barrier("constant", dim=dim, level=0.0, horizon=horizon)
    if name == "minus-wall":
        return make_barrier("constant", dim=dim, level=-1e6, horizon=horizon)
    if name == "sine":
        return make_barrier(
            "sine", dim=dim, base=-0.5, amplitude=0.25, period=horizon,
            horizon=horizon, steps=128,
        )
    if name == "jump":
        return make_barrier(
            "jump", dim=dim, level=-1.0,
            schedule=[(0.4 * horizon, -0.25), (0.7 * horizon, -1.5)],
            horizon=horizon,
        )
    raise UnknownKind(f"unknown barrier preset {name!r}")


def z_driver_preset(
    name: str,
    dim: int,
    horizon: float,
    steps: int,
    hurst: float,
    sigma: str,
    seed: int,
    replicate: int = 0,
) -> StepPath:
    """p-variation driver: ``fbm`` (integrated), ``linear`` or ``zero``.

    fBm components draw their streams from ``(seed, replicate * dim + i)``.
    """
    if name == "fbm":
        spec = FbmSpec(hurst=hurst, horizon=horizon, steps=steps, seed=seed)
        comps = [
            sample_fbm(spec, path_index=replicate * dim + i) for i in range(dim)
        ]
        vol = sigma_preset(sigma, spec.times, dim)
        return build_zh(comps, vol)
    if name == "linear":
        times = np.linspace(0.0, horizon, steps + 1)
        return make_path(times, np.tile(times[:, None], (1, dim)))
    if name == "zero":
        return make_path([0.0, horizon], np.zeros((2, dim)))
    raise UnknownKind(f"unknown driver preset {name!r}")


@dataclass(frozen=True)
class ProblemPreset:
    """Named default parameter bundle for the CLI."""

    dim: int = 1
    coefficients: str = "identity"
    barrier: str = "zero"
    driver: str = "fbm"
    a_driver: str = "zero"
    sigma: str = "unit"
    hurst: float = 0.75
    horizon: float = 1.0
    driver_steps: int = 1024
    x0: float = 1.0
    p: float = 2.0


PROBLEM_PRESETS = {
    # additive noise reflected at zero
    "linear-reflected": ProblemPreset(),
    # deterministic compound growth: x' = x against z_t = t, barrier far below
    "geometric": ProblemPreset(
        coefficients="geometric", barrier="minus-wall", driver="linear",
        driver_steps=8192, x0=1.0,
    ),
    # degenerate: no drivers at all, solution stays at x0
    "constant": ProblemPreset(coefficients="zero", driver="zero", barrier="minus-wall"),
    # 2-d coupled coefficients above a sinusoidal barrier
    "fbm-reflected": ProblemPreset(
        dim=2, coefficients="tanh", barrier="sine", a_driver="linear", x0=1.0,
    ),
}


def build_problem(preset: ProblemPreset, seed: int, replicate: int = 0) -> Problem:
    """Materialize a preset into a Problem, sampling drivers deterministically."""
    dim = preset.dim
    horizon = preset.horizon
    steps = preset.driver_steps
    if preset.a_driver == "zero":
        a = make_fv_driver("constant", value=0.0, horizon=horizon)
    elif preset.a_driver == "linear":
        a = make_fv_driver("linear", horizon=horizon, steps=steps)
    else:
        raise UnknownKind(f"unknown a-driver preset {preset.a_driver!r}")
    z = z_driver_preset(
        preset.driver, dim, horizon, steps, preset.hurst, preset.sigma, seed, replicate
    )
    l = barrier_preset(preset.barrier, dim, horizon)
    coeffs = coefficient_preset(preset.coefficients, dim)
    x0 = np.full(dim, preset.x0)
    return Problem(x0=x0, a=a, z=z, l=l, coeffs=coeffs, p=preset.p, horizon=horizon)
