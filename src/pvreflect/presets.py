"""Fixed registries of the named parts of a problem, for the CLI.

Presets keep the command line free of expression parsing: a `ProblemPreset`
names its coefficients, barrier, drivers and sigma, and each kind has one
table of plain Python factories below.  `build_problem` looks up every name
before it builds or samples anything.  Coefficient presets take states of
shape ``(N, d)``, as `sde.Coefficients` describes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .drivers import (FbmSpec, VolatilitySpec, build_zh, constant_path, linear_path,
                      sample_fbm_paths, schedule_path, sine_path)
from .errors import UnknownKind
from .pathcore import StepPath, _check_count, _check_p
from .sde import Coefficients, Problem, _check_start

__all__ = [
    "coefficient_preset",
    "build_problem",
    "COEFFICIENT_PRESETS",
    "BARRIER_PRESETS",
    "DRIVER_PRESETS",
    "A_DRIVER_PRESETS",
    "SIGMA_PRESETS",
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
    "zero": lambda dim: Coefficients(f=np.zeros_like, g=lambda x: np.zeros(x.shape + (dim,))),
    "identity": _identity_coeffs,
    "geometric": lambda dim: Coefficients(f=np.zeros_like, g=_diag),
    # I + 0.3 diag(tanh x), adding only on the diagonal: 0 + 0.3 * 0 is 0
    "tanh": lambda dim: Coefficients(f=lambda x: 0.5 * np.tanh(x),
                                     g=lambda x: _diag(1.0 + 0.3 * np.tanh(x))),
    "rotation2d": _rotation2d_coeffs,
}


def _lookup(kind: str, table: dict, name: str):
    """The entry of ``table`` named ``name``, or `UnknownKind` naming the kind."""
    try:
        return table[name]
    except KeyError:
        raise UnknownKind(f"unknown {kind} preset {name!r}") from None


def coefficient_preset(name: str, dim: int) -> Coefficients:
    return _lookup("coefficient", COEFFICIENT_PRESETS, name)(dim)


#: sigma's samples on the fBm grid ``times``, one vector for every component
SIGMA_PRESETS = {
    "unit": lambda times: np.ones(times.size),
    "twoblock": lambda times: np.where(times < 0.5 * times[-1], 2.0, 0.0),
    "sine": lambda times: 1.0 + 0.5 * np.sin(2.0 * np.pi * times / times[-1]),
}

BARRIER_PRESETS = {
    "zero": lambda pre: constant_path(0.0, pre.horizon, pre.dim),
    "minus-wall": lambda pre: constant_path(-1e6, pre.horizon, pre.dim),
    "sine": lambda pre: sine_path(base=-0.5, amplitude=0.25, period=pre.horizon,
                                  horizon=pre.horizon, steps=128, dim=pre.dim),
    "jump": lambda pre: schedule_path([(0.4 * pre.horizon, -0.25), (0.7 * pre.horizon, -1.5)],
                                      -1.0, pre.horizon, pre.dim),
}

A_DRIVER_PRESETS = {
    "zero": lambda pre: constant_path(0.0, pre.horizon),
    "linear": lambda pre: linear_path(1.0, pre.horizon, pre.driver_steps),
}


def _fbm_drivers(pre: ProblemPreset, seed: int, reps: int) -> list[StepPath]:
    """Integrated fBm noise of each replicate, from one batch of ``reps * dim`` fBm
    paths: component ``i`` of replicate ``r`` draws from ``(seed, r * dim + i)``."""
    spec = FbmSpec(hurst=pre.hurst, horizon=pre.horizon, steps=pre.driver_steps, seed=seed)
    paths = sample_fbm_paths(spec, range(reps * pre.dim))  # checks the step cap first
    sigma = SIGMA_PRESETS[pre.sigma](spec.times)
    vol = VolatilitySpec(sigma=np.tile(sigma, (pre.dim, 1)))
    return [build_zh(itertools.islice(paths, pre.dim), vol) for _ in range(reps)]


#: the p-variation driver ``z`` of each replicate; a deterministic one is one
#: path that every replicate shares
DRIVER_PRESETS = {
    "fbm": _fbm_drivers,
    "linear": lambda pre, seed, reps:
        [linear_path(1.0, pre.horizon, pre.driver_steps, pre.dim)] * reps,
    "zero": lambda pre, seed, reps: [constant_path(0.0, pre.horizon, pre.dim)] * reps,
}


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


def build_problem(preset: ProblemPreset, seed: int, replicates: int = 1) -> list[Problem]:
    """One Problem per replicate ``0 .. replicates - 1``.

    Every name of the preset is looked up, and ``p`` and ``x0`` are checked,
    before any driver is sampled.  The replicates share one a-driver, one
    barrier and one `Coefficients` object, as `sde.euler_batch` needs; each
    has its own fBm ``z``, all sampled as one batch, and a deterministic ``z``
    is built once.
    """
    _check_count("replicates", replicates)
    _lookup("coefficient", COEFFICIENT_PRESETS, preset.coefficients)
    barrier = _lookup("barrier", BARRIER_PRESETS, preset.barrier)
    driver = _lookup("driver", DRIVER_PRESETS, preset.driver)
    a_driver = _lookup("a-driver", A_DRIVER_PRESETS, preset.a_driver)
    _lookup("sigma", SIGMA_PRESETS, preset.sigma)
    a, l = a_driver(preset), barrier(preset)
    coeffs = coefficient_preset(preset.coefficients, preset.dim)
    x0 = np.full(preset.dim, preset.x0)
    _check_p(preset.p)
    _check_start(x0, l)
    return [Problem(x0=x0, a=a, z=z, l=l, coeffs=coeffs, p=preset.p, horizon=preset.horizon)
            for z in driver(preset, seed, replicates)]
