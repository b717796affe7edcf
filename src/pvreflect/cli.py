"""Command-line entry point.

Subcommands:

* ``simulate``     sample drivers, run a scheme (fixed n or tolerance-driven),
                   write the solution as CSV with a ``#`` diagnostics footer;
* ``convergence``  dyadic refinement ladder, one CSV row per level;
* ``fbm``          write one sampled fractional-Brownian-motion path;
* ``verify``       randomized inequality campaigns, CSV report, exit 1 on any
                   violation;
* ``pvar``         print the p-variation seminorm ``v_p(x)^(1/p)`` of a CSV
                   path over a window.

Configuration comes from an INI file (``--config``) overridden by flags;
flags always win.  Every command is deterministic given its full
configuration including the seed.  Exit codes: 0 success, 1 verification
failure, 2 usage/config error, 3 numerical non-convergence.  On failure a
machine-readable ``error=<code>`` line is written to stderr.
"""

from __future__ import annotations

import argparse
import collections
import configparser
import contextlib
import dataclasses
import os
import sys
import time

import numpy as np

from . import campaigns
from .errors import NoConvergence, PartitionOverflow, PvreflectError
from .pathcore import (CSV_FLOAT_FORMAT, STEP_CAP, Interval, _chunk_templates, _write_rows,
                       p_variation, read_path_csv, write_path_csv)
from .drivers import FbmSpec, _check_hurst, _check_seed, sample_fbm
from .presets import PROBLEM_PRESETS, ProblemPreset, build_problem
from .sde import Solution, _check_tol, euler_batch, refinement_ladder, solve, with_vbar_p_x

__all__ = ["main", "console_main"]

#: environment hook: set to force every campaign check to fail, used by the
#: test-suite as a negative control of the verify pipeline
CORRUPT_ENV = "PVREFLECT_TEST_CORRUPT"


class UsageError(PvreflectError):
    pass


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str | None, rows) -> configparser.ConfigParser:
    """The INI file at ``path``.  Each key of a section that a setting reads
    must name a setting of it, and each ``[DEFAULT]`` key, which configparser
    offers to every section, a setting of any of them."""
    cfg = configparser.ConfigParser()
    # with no default section, a section's options are its own keys only
    own = configparser.ConfigParser(default_section="", interpolation=None)
    if path:
        if not os.path.exists(path):
            raise UsageError(f"config file not found: {path}")
        try:
            cfg.read(path)
            own.read(path)
        except configparser.Error as exc:
            raise UsageError(f"malformed config file: {exc}") from exc
    known = {cfg.default_section: {row[0] for row in rows}}
    for name, section, *_ in rows:
        known.setdefault(section, set()).add(name)
    for section in filter(known.__contains__, own.sections()):
        unknown = sorted(set(own.options(section)) - known[section])
        if unknown:
            raise UsageError(f"[{section}] {unknown[0]} is no setting of this command")
    return cfg


#: a setting is (name, config section, type, default, flag help); ``--name``
#: is its flag and ``name`` its key in the section
_SEED = ("seed", "run", int, 0, "64-bit unsigned RNG seed")
_OUT = ("out", "run", str, None, "output CSV path (default stdout)")
_PRESET = ("preset", "problem", str, "linear-reflected", ", ".join(sorted(PROBLEM_PRESETS)))
#: by field: the [problem] keys that override the named preset's fields
_PROBLEM = {f.name: ("dimension" if f.name == "dim" else f.name.replace("_", "-"),
                     "problem", type(f.default), None, None)
            for f in dataclasses.fields(ProblemPreset)}


def _settings(args, cfg: configparser.ConfigParser, rows) -> dict:
    """Each setting's flag if given, else its config key, else its default."""
    values = {}
    for name, section, cast, default, _ in rows:
        value = getattr(args, name.replace("-", "_"), None)
        if value is None and cfg.has_option(section, name):
            try:
                value = cast(cfg.get(section, name))
            except (ValueError, configparser.Error) as exc:
                raise UsageError(f"bad value for [{section}] {name}: {exc}") from exc
        values[name] = default if value is None else value
    return values


def _positive_int(name: str, value: int, cap: int | None = None) -> int:
    if value < 1:
        raise UsageError(f"{name} must be >= 1, got {value}")
    if cap is not None and value > cap:
        raise UsageError(f"{name} must be <= {cap}, got {value}")
    return int(value)


def _resolve_preset(s: dict) -> ProblemPreset:
    """Named problem preset with per-field [problem] / flag overrides."""
    if s["preset"] not in PROBLEM_PRESETS:
        raise UsageError(f"unknown problem preset {s['preset']!r}")
    overrides = {field: s[key] for field, (key, *_) in _PROBLEM.items() if s[key] is not None}
    preset = dataclasses.replace(PROBLEM_PRESETS[s["preset"]], **overrides)
    _positive_int("dimension", preset.dim)
    _positive_int("driver-steps", preset.driver_steps, STEP_CAP)
    if not 0.0 < preset.horizon < np.inf:
        raise UsageError(f"horizon must be finite and positive, got {preset.horizon}")
    # refused for every preset, not only where an fBm driver would refuse it
    _check_hurst(preset.hurst)
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

def cmd_simulate(s: dict) -> int:
    preset = _resolve_preset(s)
    replicates = _positive_int("replicates", s["replicates"])
    # validated but unused: replicates run as one batch in one thread
    _positive_int("workers", s["workers"])
    n, tol, scheme = _positive_int("n", s["n"]), s["tol"], s["scheme"]
    # a partition has at least n x horizon steps, exact in integers, and a
    # batch without tol holds every replicate's partition at once
    num, den = preset.horizon.as_integer_ratio()
    batch = replicates if tol is None else 1
    if batch * n * num > STEP_CAP * den:
        raise PartitionOverflow(f"{batch} partition(s) of n x horizon steps exceed {STEP_CAP}, "
                                f"got n={n}, horizon={preset.horizon}")
    if scheme not in ("adaptive", "uniform"):
        raise UsageError(f"scheme must be adaptive or uniform, got {scheme!r}")
    if tol is not None:
        _check_tol(tol)
        if scheme == "uniform":
            raise UsageError("tol refines the adaptive scheme; it cannot be used "
                             "with scheme uniform")

    if replicates * preset.driver_steps > STEP_CAP:
        raise UsageError(f"replicates x driver-steps must be <= {STEP_CAP}, "
                         f"got {replicates} x {preset.driver_steps}")
    problems = build_problem(preset, seed=s["seed"], replicates=replicates)
    if tol is not None:
        solutions = [solve(problem, tol=tol, n0=n) for problem in problems]
    else:
        solutions = euler_batch(problems, n, scheme)
    solutions = with_vbar_p_x(solutions, problems[0].p)
    # a single replicate is written without the rep column and tags
    tags = [None] if replicates == 1 else range(replicates)
    # replicates on one partition share its grid, whose time text is formatted
    # once; a grid of one replicate is written with its cells in one call a chunk
    users = collections.Counter(id(sol.x.grid) for sol in solutions)
    templates = {}
    with _open_out(s["out"]) as fh:
        fh.write(_solution_header(solutions[0].x.dim, with_rep=replicates > 1) + "\n")
        for rep, sol in zip(tags, solutions):
            grid, cells = sol.x.grid, np.column_stack([sol.x.values, sol.k.values])
            prefix = "" if rep is None else f"{rep},"
            if users[id(grid)] == 1:
                _write_rows(fh, np.column_stack([grid.times, cells]), prefix)
                continue
            if id(grid) not in templates:
                templates[id(grid)] = _chunk_templates(grid.times, cells.shape[1])
            _write_rows(fh, cells, prefix, templates[id(grid)])
        for rep, sol in zip(tags, solutions):
            _write_diagnostics(fh, sol, replicate=rep)
    return 0


def cmd_convergence(s: dict) -> int:
    preset = _resolve_preset(s)
    n0 = _positive_int("n0", s["n0"])
    levels = _positive_int("levels", s["levels"])
    # the last level has about n0 * 2**(levels-1) * horizon steps, exact in
    # integers; as horizon >= 2**-1074, 1100 doublings are over the cap anyway
    num, den = preset.horizon.as_integer_ratio()
    if (n0 * num) << min(levels - 1, 1100) > STEP_CAP * den:
        raise UsageError(f"n0 x 2^(levels-1) x horizon must be <= {STEP_CAP}, "
                         f"got n0={n0}, levels={levels}, horizon={preset.horizon}")

    (problem,) = build_problem(preset, seed=s["seed"])
    with _open_out(s["out"]) as fh:
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


def cmd_fbm(s: dict) -> int:
    steps = _positive_int("steps", s["steps"], STEP_CAP)
    spec = FbmSpec(hurst=s["hurst"], horizon=s["horizon"], steps=steps, seed=s["seed"])
    path = sample_fbm(spec)
    with _open_out(s["out"]) as fh:
        write_path_csv(path, fh)
    return 0


def cmd_verify(s: dict) -> int:
    if s["cases"] < 0:
        raise UsageError("cases must be >= 0")
    corrupt = bool(os.environ.get(CORRUPT_ENV))
    total = failures = 0
    with _open_out(s["out"]) as fh:
        fh.write(",".join(campaigns.CAMPAIGN_CSV_HEADER) + "\n")
        # each row is written as its case finishes, so memory stays flat in --cases
        for row in campaigns.iter_campaigns(s["cases"], s["seed"], corrupt=corrupt):
            fh.write(",".join(row.csv_row()) + "\n")
            total += 1
            failures += not row.passed
        fh.write(f"summary,,total,{total},{total - failures},{failures},"
                 f"{1 if failures == 0 else 0}\n")
    return 0 if failures == 0 else 1


def cmd_pvar(s: dict) -> int:
    if s["input"] is None:
        raise UsageError("pvar requires --input <csv>")
    p, a, b = s["p"], s["a"], s["b"]
    if not 1.0 <= p < np.inf:
        raise UsageError(f"p must be finite and >= 1, got {p}")
    lo = 0.0 if a is None else a
    Interval(lo, lo if b is None else b)  # refuses bad bounds before the input is read
    path = read_path_csv(s["input"])
    window = None if a is None and b is None else (lo, path.end_time if b is None else b)
    value = p_variation(path, p, window) ** (1.0 / p)
    with _open_out(s["out"]) as fh:
        fh.write(CSV_FLOAT_FORMAT % value + "\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

#: each command: its function, its help and its settings, one flag each
_COMMANDS = {
    "simulate": (cmd_simulate, "run one reflected simulation", (
        _SEED, _OUT, _PRESET,
        ("replicates", "run", int, 1, None),
        ("workers", "run", int, 1,
         "accepted and checked (>= 1); replicates run as one batch in one thread"),
        ("n", "problem", int, 256, "resolution parameter"),
        ("tol", "problem", float, None, "refine the adaptive scheme until this Cauchy gap"),
        ("scheme", "problem", str, "adaptive", "adaptive or uniform"),
        _PROBLEM["hurst"], _PROBLEM["dim"], _PROBLEM["driver_steps"])),
    "convergence": (cmd_convergence, "dyadic refinement ladder", (
        _SEED, _OUT, _PRESET,
        ("n0", "convergence", int, 16, None),
        ("levels", "convergence", int, 6, None),
        _PROBLEM["hurst"])),
    "fbm": (cmd_fbm, "sample one fractional Brownian path", (
        _SEED, _OUT,
        ("hurst", "fbm", float, 0.75, None),
        ("steps", "fbm", int, 1024, None),
        ("horizon", "fbm", float, 1.0, None))),
    "verify": (cmd_verify, "randomized inequality campaigns", (
        _SEED, _OUT, ("cases", "verify", int, 1000, None))),
    "pvar": (cmd_pvar, "p-variation seminorm v_p(x)^(1/p) of a CSV path", (
        _OUT,
        ("input", "pvar", str, None, None),
        ("p", "pvar", float, 1.0, None),
        ("a", "pvar", float, None, None),
        ("b", "pvar", float, None, None))),
}


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
    for name, (func, summary, rows) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="INI config file; flags override it")
        for key, _, cast, _, text in rows:
            sp.add_argument(f"--{key}", type=cast, help=text)
        if _PRESET in rows:  # every [problem] key overrides the preset, flag or not
            rows += tuple(_PROBLEM.values())
        sp.set_defaults(func=func, rows=rows)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config, args.rows)
        settings = _settings(args, cfg, args.rows)
        # checked once here, before a command opens its output or starts work
        if _SEED in args.rows:
            _check_seed("seed", settings["seed"])
        return args.func(settings)
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
