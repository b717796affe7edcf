"""Randomized verification campaigns for the core inequalities.

Each campaign draws seeded random step-path fixtures (Philox stream per
case), evaluates one family of inequalities exactly, and returns one row per
check.  A campaign runs a number of cases or a range of case numbers; a case
depends only on the seed and its number, so `iter_campaigns` can run them one
at a time.  The inequalities are theorems, so any violation beyond
floating-point slack is an implementation bug; the ``corrupt`` switch
deliberately inflates the left sides to provide a negative control for the
harness itself.

A campaign is one case function, ``(rng, case) -> [(name, lhs, rhs), ...]``,
and one public wrapper that hands it to `_run`: the one case loop, which
derives each case's stream, applies ``corrupt`` and builds the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .checks import InequalityCheck, holds_with_slack
from .drivers import philox_stream
from .pathcore import (
    MatrixStepPath,
    StepPath,
    align,
    make_matrix_path,
    make_path,
    p_variation,
    running_max,
)
from .skorokhod import check_estimates
from .young import young_bound_check

__all__ = [
    "CampaignRow",
    "running_max_contraction_campaign",
    "reflection_estimates_campaign",
    "stieltjes_bound_campaign",
    "iter_campaigns",
    "CAMPAIGN_CSV_HEADER",
    "MAX_CASES",
]

CAMPAIGN_CSV_HEADER = ["campaign", "case", "check", "lhs", "rhs", "margin", "pass"]

# each campaign's cases draw from their own Philox block, so streams never collide
_STREAM_BLOCK = 1 << 32
#: most cases a campaign runs from the CLI: far below ``_STREAM_BLOCK``, so no
#: case's stream is another campaign's, and about 800k rows (70 MB) of output
MAX_CASES = 100_000

#: the exponents, dimensions and path sizes the campaigns cycle through
_P_VALUES = (1.0, 1.5, 2.0, 3.0)
_DIMS = (1, 2, 3)
_PQ_PAIRS = ((1.5, 1.5), (2.0, 1.2), (1.2, 2.0), (3.0, 1.1))
_MAX_POINTS = 60
_STIELTJES_MAX_POINTS = 40


@dataclass(frozen=True)
class CampaignRow(InequalityCheck):
    """One campaign check: the inequality row plus the campaign and case it came from."""

    campaign: str
    case: int

    def csv_row(self) -> list[str]:
        return [self.campaign, str(self.case)] + super().csv_row()


def _random_times(rng: np.random.Generator, max_points: int, horizon: float = 1.0) -> np.ndarray:
    n = int(rng.integers(2, max_points + 1))
    gaps = rng.uniform(0.05, 1.0, size=n - 1)
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    return times * (horizon / times[-1])


def _random_values(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    steps = rng.normal(scale=0.5, size=(n, d))
    # sprinkle occasional large jumps so campaigns exercise the jump regime
    spikes = rng.random(size=(n, d)) < 0.1
    steps = steps + spikes * rng.normal(scale=2.5, size=(n, d))
    steps[0] = rng.normal(scale=1.0, size=d)
    return np.cumsum(steps, axis=0)


def _random_path(rng: np.random.Generator, max_points: int, d: int = 1) -> StepPath:
    times = _random_times(rng, max_points)
    return make_path(times, _random_values(rng, times.size, d))


def _run(campaign: str, block: int, case_checks, cases: int | range, seed: int,
         corrupt: bool) -> list[CampaignRow]:
    """One row per ``(name, lhs, rhs)`` of ``case_checks(rng, case)`` for each case,
    ``0 .. cases - 1`` for a count, else the range given; case ``c`` draws from
    Philox stream ``block * _STREAM_BLOCK + c``.  ``corrupt`` sets each left side
    to ``max(lhs, rhs) + 1 + |lhs| + |rhs|``, past any slack, so every finite row fails."""
    rows = []
    for case in cases if isinstance(cases, range) else range(cases):
        rng = philox_stream(seed, block * _STREAM_BLOCK + case)
        for name, lhs, rhs in case_checks(rng, case):
            if corrupt:
                lhs = max(lhs, rhs) + 1.0 + abs(lhs) + abs(rhs)
            rows.append(CampaignRow(name=name, lhs=lhs, rhs=rhs, passed=holds_with_slack(lhs, rhs),
                                    campaign=campaign, case=case))
    return rows


def _running_max_case(rng: np.random.Generator, case: int) -> list[tuple]:
    p = _P_VALUES[case % len(_P_VALUES)]
    y1, y2 = align([_random_path(rng, _MAX_POINTS), _random_path(rng, _MAX_POINTS)])
    return [(f"vp_contraction_p{p:g}", p_variation(running_max(y1) - running_max(y2), p),
             p_variation(y1 - y2, p))]


def running_max_contraction_campaign(cases: int | range, seed: int,
                                     corrupt: bool = False) -> list[CampaignRow]:
    """v_p of a running-max difference never exceeds v_p of the difference.

    Each case draws two scalar step paths on independent grids, aligns them,
    and compares the two p-variations at one exponent from ``_P_VALUES``.
    """
    return _run("running_max_contraction", 0, _running_max_case, cases, seed, corrupt)


def _admissible_pair(rng: np.random.Generator, d: int) -> tuple[StepPath, StepPath]:
    y = _random_path(rng, _MAX_POINTS, d)
    l = _random_path(rng, _MAX_POINTS, d)
    # drop the barrier so it starts at or below the input
    shift = np.maximum(l.values[0] - y.eval(0.0), 0.0) + rng.uniform(0.0, 0.5, size=d)
    return y, make_path(l.times, l.values - shift)


def _reflection_case(rng: np.random.Generator, case: int) -> list[tuple]:
    d = _DIMS[case % len(_DIMS)]
    p = _P_VALUES[(case // len(_DIMS)) % len(_P_VALUES)]
    y, l = _admissible_pair(rng, d)
    y2, l2 = _admissible_pair(rng, d)
    return [(f"{chk.name}_d{d}_p{p:g}", chk.lhs, chk.rhs)
            for chk in check_estimates(y, l, y2, l2, p)]


def reflection_estimates_campaign(cases: int | range, seed: int,
                                  corrupt: bool = False) -> list[CampaignRow]:
    """Lipschitz estimates of the reflection map on random problem pairs."""
    return _run("reflection_estimates", 1, _reflection_case, cases, seed, corrupt)


def _random_matrix_path(rng: np.random.Generator, max_points: int, d: int) -> MatrixStepPath:
    times = _random_times(rng, max_points)
    steps = rng.normal(scale=0.4, size=(times.size, d, d))
    return make_matrix_path(times, np.cumsum(steps, axis=0))


def _stieltjes_case(rng: np.random.Generator, case: int) -> list[tuple]:
    p, q = _PQ_PAIRS[case % len(_PQ_PAIRS)]
    d = int(rng.integers(1, 3))
    integrand = _random_matrix_path(rng, _STIELTJES_MAX_POINTS, d)
    chk = young_bound_check(integrand, _random_path(rng, _STIELTJES_MAX_POINTS, d), p, q)
    return [(f"zeta_bound_p{p:g}_q{q:g}", chk.lhs, chk.rhs)]


def stieltjes_bound_campaign(cases: int | range, seed: int,
                             corrupt: bool = False) -> list[CampaignRow]:
    """zeta-constant bound for random (matrix integrand, vector driver) pairs."""
    return _run("stieltjes_bound", 2, _stieltjes_case, cases, seed, corrupt)


def iter_campaigns(cases: int, seed: int, corrupt: bool = False) -> Iterator[CampaignRow]:
    """All three campaigns, ``cases`` cases each, in a fixed order, each case's rows as it ends.

    Only one case's rows are held at a time, so a caller that writes them
    as they come needs memory that does not grow with ``cases``.
    """
    # names looked up at each call, so a wrapper installed on them sees every case
    for campaign in (running_max_contraction_campaign, reflection_estimates_campaign,
                     stieltjes_bound_campaign):
        for case in range(cases):
            yield from campaign(range(case, case + 1), seed, corrupt=corrupt)
