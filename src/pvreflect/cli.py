"""Command-line entry point.

Subcommands:

* ``simulate``     sample drivers, run a scheme (fixed n or tolerance-driven),
                   write the solution as CSV with a ``#`` diagnostics footer;
* ``convergence``  dyadic refinement ladder, one CSV row per level;
* ``fbm``          write one sampled fractional-Brownian-motion path;
* ``verify``       randomized inequality campaigns, CSV report, exit 1 on any
                   violation;
* ``pvar``         print the variation norm of a CSV path over a window.

Configuration comes from an INI file (``--config``) overridden by flags;
flags always win.  Every command is deterministic given its full
configuration including the seed.  Exit codes: 0 success, 1 verification
failure, 2 usage/config error, 3 numerical non-convergence.  On failure a
machine-readable ``error=<code>`` line is written to stderr.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import os
import sys
import time

import numpy as np

from . import campaigns
from .errors import NoConvergence, PvreflectError
from .pathcore import (CSV_FLOAT_FORMAT, STEP_CAP, _write_rows, p_variation, read_path_csv,
                       write_path_csv)
from .drivers import FbmSpec, sample_fbm
from .presets import PROBLEM_PRESETS, ProblemPreset, build_problem
from .sde import Solution, euler_batch, refinement_ladder, solve, with_vbar_p_x

__all__ = ["main", "console_main"]

#: environment hook: set to force every campaign check to fail, used by the
#: test-suite as a negative control of the verify pipeline
CORRUPT_ENV = "PVREFLECT_TEST_CORRUPT"


class UsageError(PvreflectError):
    pass


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path:
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        cfg.read(path)
    return cfg


def _setting(args, cfg: configparser.ConfigParser, section: str, key: str,
             default=None, cast=str):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if cfg.has_option(section, key):
        raw = cfg.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise UsageError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return default


def _positive_int(name: str, value: int, cap: int | None = None) -> int:
    if value < 1:
        raise UsageError(f"{name} must be >= 1, got {value}")
    if cap is not None and value > cap:
        raise UsageError(f"{name} must be <= {cap}, got {value}")
    return int(value)


#: [problem] keys that override the named preset's fields
_PROBLEM_FIELDS = (
    ("dimension", "dim", int),
    ("coefficients", "coefficients", str),
    ("barrier", "barrier", str),
    ("driver", "driver", str),
    ("a-driver", "a_driver", str),
    ("sigma", "sigma", str),
    ("hurst", "hurst", float),
    ("horizon", "horizon", float),
    ("driver-steps", "driver_steps", int),
    ("x0", "x0", float),
    ("p", "p", float),
)


def _resolve_preset(args, cfg) -> ProblemPreset:
    """Named problem preset with per-field [problem] / flag overrides."""
    name = _setting(args, cfg, "problem", "preset", "linear-reflected")
    if name not in PROBLEM_PRESETS:
        raise UsageError(f"unknown problem preset {name!r}")
    overrides = {}
    for key, field, cast in _PROBLEM_FIELDS:
        value = _setting(args, cfg, "problem", key, None, cast)
        if value is not None:
            overrides[field] = cast(value)
    preset = dataclasses.replace(PROBLEM_PRESETS[name], **overrides)
    _positive_int("dimension", preset.dim)
    _positive_int("driver-steps", preset.driver_steps, STEP_CAP)
    return preset


def _open_out(path: str | None):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _solution_header(dim: int, with_rep: bool) -> str:
    cols = [f"x{i + 1}" for i in range(dim)] + [f"k{i + 1}" for i in range(dim)]
    prefix = ["rep"] if with_rep else []
    return ",".join(prefix + ["t"] + cols)


def _write_diagnostics(fh, solution: Solution, replicate: int | None = None) -> None:
    tag = f" rep={replicate}" if replicate is not None else ""
    fh.write(f"#{tag} scheme={solution.scheme} n={solution.n}\n")
    for key in sorted(solution.diagnostics):
        fh.write(f"#{tag} {key}={CSV_FLOAT_FORMAT % solution.diagnostics[key]}\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args, cfg) -> int:
    preset = _resolve_preset(args, cfg)
    seed = int(_setting(args, cfg, "run", "seed", 0, int))
    replicates = _positive_int(
        "replicates", int(_setting(args, cfg, "run", "replicates", 1, int)))
    # validated but unused: replicates run as one batch in one thread
    _positive_int("workers", int(_setting(args, cfg, "run", "workers", 1, int)))
    out_path = _setting(args, cfg, "run", "out", None)
    n = int(_setting(args, cfg, "problem", "n", 256, int))
    tol = _setting(args, cfg, "problem", "tol", None, float)
    scheme = _setting(args, cfg, "problem", "scheme", "adaptive")
    if scheme not in ("adaptive", "uniform"):
        raise UsageError(f"scheme must be adaptive or uniform, got {scheme!r}")
    if tol is not None and scheme == "uniform":
        raise UsageError("tol refines the adaptive scheme; it cannot be used "
                         "with scheme uniform")

    if replicates * preset.driver_steps > STEP_CAP:
        raise UsageError(f"replicates x driver-steps must be <= {STEP_CAP}, "
                         f"got {replicates} x {preset.driver_steps}")
    problems = [build_problem(preset, seed=seed, replicate=rep) for rep in range(replicates)]
    if tol is not None:
        solutions = [solve(problem, tol=float(tol), n0=n) for problem in problems]
    else:
        # one batch evaluates one Coefficients object
        coeffs = problems[0].coeffs
        problems = [dataclasses.replace(problem, coeffs=coeffs) for problem in problems]
        solutions = euler_batch(problems, n, scheme)
    solutions = with_vbar_p_x(solutions, problems[0].p)
    # a single replicate is written without the rep column and tags
    tags = [None] if replicates == 1 else range(replicates)
    with _open_out(out_path) as fh:
        fh.write(_solution_header(solutions[0].x.dim, with_rep=replicates > 1) + "\n")
        for rep, sol in zip(tags, solutions):
            _write_rows(fh, np.column_stack([sol.x.times, sol.x.values, sol.k.values]),
                        "" if rep is None else f"{rep},")
        for rep, sol in zip(tags, solutions):
            _write_diagnostics(fh, sol, replicate=rep)
    return 0


def cmd_convergence(args, cfg) -> int:
    preset = _resolve_preset(args, cfg)
    seed = int(_setting(args, cfg, "run", "seed", 0, int))
    out_path = _setting(args, cfg, "run", "out", None)
    n0 = _positive_int("n0", int(_setting(args, cfg, "convergence", "n0", 16, int)))
    levels = _positive_int(
        "levels", int(_setting(args, cfg, "convergence", "levels", 6, int)))

    problem = build_problem(preset, seed=seed)
    with _open_out(out_path) as fh:
        fh.write("n,gap,runtime_s\n")
        ladder = refinement_ladder(problem, n0)
        for _ in range(levels):
            # each level's time includes its gap to the level before
            start = time.perf_counter()
            sol, gap = next(ladder)
            elapsed = time.perf_counter() - start
            gap_cell = "" if gap is None else CSV_FLOAT_FORMAT % gap
            fh.write(f"{sol.n},{gap_cell},{elapsed:.6f}\n")
    return 0


def cmd_fbm(args, cfg) -> int:
    hurst = float(_setting(args, cfg, "fbm", "hurst", 0.75, float))
    steps = _positive_int(
        "steps", int(_setting(args, cfg, "fbm", "steps", 1024, int)), STEP_CAP)
    horizon = float(_setting(args, cfg, "fbm", "horizon", 1.0, float))
    seed = int(_setting(args, cfg, "run", "seed", 0, int))
    out_path = _setting(args, cfg, "run", "out", None)
    spec = FbmSpec(hurst=hurst, horizon=horizon, steps=steps, seed=seed)
    path = sample_fbm(spec)
    with _open_out(out_path) as fh:
        write_path_csv(path, fh)
    return 0


def cmd_verify(args, cfg) -> int:
    cases = int(_setting(args, cfg, "verify", "cases", 1000, int))
    if cases < 0:
        raise UsageError("cases must be >= 0")
    seed = int(_setting(args, cfg, "run", "seed", 0, int))
    out_path = _setting(args, cfg, "run", "out", None)
    corrupt = bool(os.environ.get(CORRUPT_ENV))
    rows = campaigns.run_all_campaigns(cases, seed, corrupt=corrupt)
    failures = sum(not r.passed for r in rows)
    with _open_out(out_path) as fh:
        fh.write(",".join(campaigns.CAMPAIGN_CSV_HEADER) + "\n")
        for row in rows:
            fh.write(",".join(row.csv_row()) + "\n")
        fh.write(f"summary,,total,{len(rows)},{len(rows) - failures},{failures},"
                 f"{1 if failures == 0 else 0}\n")
    return 0 if failures == 0 else 1


def cmd_pvar(args, cfg) -> int:
    src = _setting(args, cfg, "pvar", "input", None)
    if src is None:
        raise UsageError("pvar requires --input <csv>")
    p = float(_setting(args, cfg, "pvar", "p", 1.0, float))
    if not 1.0 <= p < np.inf:
        raise UsageError(f"p must be finite and >= 1, got {p}")
    a = _setting(args, cfg, "pvar", "a", None, float)
    b = _setting(args, cfg, "pvar", "b", None, float)
    path = read_path_csv(src)
    window = None
    if a is not None or b is not None:
        window = (float(a or 0.0), float(b if b is not None else path.end_time))
    value = p_variation(path, p, window) ** (1.0 / p)
    with _open_out(_setting(args, cfg, "run", "out", None)) as fh:
        fh.write(CSV_FLOAT_FORMAT % value + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `UsageError`, so that they exit 2
    with an ``error=`` line like every other usage error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pvreflect",
        description="reflected differential equations driven by bounded "
                    "p-variation paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--config", help="INI config file; flags override it")
        if seed:
            sp.add_argument("--seed", type=int, help="64-bit unsigned RNG seed")
        sp.add_argument("--out", help="output CSV path (default stdout)")

    sp = sub.add_parser("simulate", help="run one reflected simulation")
    common(sp)
    sp.add_argument("--preset", choices=sorted(PROBLEM_PRESETS))
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--workers", type=int,
                    help="accepted and checked (>= 1); replicates run as one batch "
                         "in one thread")
    sp.add_argument("--n", type=int, help="resolution parameter")
    sp.add_argument("--tol", type=float,
                    help="refine the adaptive scheme until this Cauchy gap")
    sp.add_argument("--scheme", choices=["adaptive", "uniform"])
    sp.add_argument("--hurst", type=float)
    sp.add_argument("--dimension", type=int)
    sp.add_argument("--driver-steps", type=int)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("convergence", help="dyadic refinement ladder")
    common(sp)
    sp.add_argument("--preset", choices=sorted(PROBLEM_PRESETS))
    sp.add_argument("--n0", type=int)
    sp.add_argument("--levels", type=int)
    sp.add_argument("--hurst", type=float)
    sp.set_defaults(func=cmd_convergence)

    sp = sub.add_parser("fbm", help="sample one fractional Brownian path")
    common(sp)
    sp.add_argument("--hurst", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--horizon", type=float)
    sp.set_defaults(func=cmd_fbm)

    sp = sub.add_parser("verify", help="randomized inequality campaigns")
    common(sp)
    sp.add_argument("--cases", type=int)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("pvar", help="variation norm of a CSV path")
    common(sp, seed=False)
    sp.add_argument("--input")
    sp.add_argument("--p", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.set_defaults(func=cmd_pvar)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except NoConvergence as exc:
        print(f"error={type(exc).__name__}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 3
    except (PvreflectError, OSError) as exc:
        print(f"error={type(exc).__name__}", file=sys.stderr)
        print(str(exc), file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
