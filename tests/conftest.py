"""Shared fixtures and random-path helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from pvreflect import make_path, pathcore
from pvreflect.drivers import philox_stream


def random_step_path(rng: np.random.Generator, max_points: int = 20, d: int = 1,
                     horizon: float = 1.0, jump_scale: float = 1.0):
    """Random step path on a random strictly increasing grid starting at 0."""
    n = int(rng.integers(2, max_points + 1))
    gaps = rng.uniform(0.05, 1.0, size=n - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    times *= horizon / times[-1]
    values = np.cumsum(rng.normal(scale=jump_scale, size=(n, d)), axis=0)
    return make_path(times, values)


@pytest.fixture
def rng():
    return philox_stream(20240809)


@pytest.fixture
def validations(monkeypatch):
    """Calls of the public checks: ``grid`` counts `TimeGrid`'s, ``path`` the paths'."""
    counts = {"grid": 0, "path": 0}
    for key, cls in (("grid", pathcore.TimeGrid), ("path", pathcore._GridPath)):
        def spy(self, check=cls.__post_init__, key=key):
            counts[key] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    return counts
