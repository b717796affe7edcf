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
import itertools
import os
import sys

import numpy as np

from . import campaigns
from .errors import NoConvergence, PartitionOverflow, PvreflectError
from .pathcore import (CSV_FLOAT_FORMAT, STEP_CAP, Interval, _chunk_templates, _write_rows,
                       p_variation, read_path_csv, variation_norms, write_path_csv)
from .drivers import FBM_MAX_STEPS, FbmSpec, _check_hurst, _check_seed, sample_fbm
from .presets import PROBLEM_PRESETS, ProblemPreset, build_problem
from .sde import _SWEEP_ROWS, Solution, _check_tol, euler_batch, refinement_ladder, solve

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


def _positive_int(name: str, value: int) -> None:
    if value < 1:
        raise UsageError(f"{name} must be >= 1, got {value}")


def _rule(admits, message: str):
    """A row check: `UsageError` with ``message``, formatted, where ``admits(value)`` fails."""
    def check(name, value):
        if not admits(value):  # NaN fails every comparison, so it is refused too
            raise UsageError(message.format(name=name, value=value))
    return check


#: a setting is (name, config section, type, default, flag help, check);
#: ``--name`` is its flag and ``name`` its key in the section, and
#: ``check(name, value)``, unless None, refuses a value given by either
_SEED = ("seed", "run", int, 0, "64-bit unsigned RNG seed", _check_seed)
_OUT = ("out", "run", str, None, "output CSV path (default stdout)", None)
_PRESET = ("preset", "problem", str, "linear-reflected", ", ".join(sorted(PROBLEM_PRESETS)),
           _rule(PROBLEM_PRESETS.__contains__, "unknown problem preset {value!r}"))
#: by field: the checks of [problem] keys; `build_problem` checks ``x0``, ``p``
#: and the part names itself, before it samples anything
_PROBLEM_CHECKS = {
    "dim": _positive_int,
    "driver_steps": _positive_int,
    "horizon": _rule(lambda h: 0 < h < np.inf, "{name} must be finite and positive, got {value}"),
    # refused for every preset, not only where an fBm driver would refuse it
    "hurst": lambda name, value: _check_hurst(value),
}
#: by field: the [problem] keys that override the named preset's fields
_PROBLEM = {f.name: ("dimension" if f.name == "dim" else f.name.replace("_", "-"),
                     "problem", type(f.default), None, None, _PROBLEM_CHECKS.get(f.name))
            for f in dataclasses.fields(ProblemPreset)}


def _settings(args, cfg: configparser.ConfigParser, rows) -> dict:
    """Each setting's flag if given, else its config key, else its default; a value
    given by either passes its row's check, before a command opens its output."""
    values = {}
    for name, section, cast, default, _, check in rows:
        value = getattr(args, name.replace("-", "_"), None)
        if value is None and cfg.has_option(section, name):
            try:
                value = cast(cfg.get(section, name))
            except (ValueError, configparser.Error) as exc:
                raise UsageError(f"bad value for [{section}] {name}: {exc}") from exc
        if value is not None and check is not None:
            check(name, value)
        values[name] = default if value is None else value
    return values


def _resolve_preset(s: dict) -> ProblemPreset:
    """Named problem preset with per-field [problem] / flag overrides."""
    overrides = {field: s[key] for field, (key, *_) in _PROBLEM.items() if s[key] is not None}
    return dataclasses.replace(PROBLEM_PRESETS[s["preset"]], **overrides)


def _check_sizes(preset: ProblemPreset, replicates: int, batch: int, mesh: int, doublings: int,
                 overflow: type[PvreflectError]) -> None:
    """The size budget, before any work, in exact integers: ``overflow`` where ``batch``
    partitions of ``mesh x 2^doublings x horizon`` steps pass STEP_CAP, else `UsageError`
    where the ``replicates x d`` driver paths, the partition rows of d values or a sweep's
    g block pass STEP_CAP values.  1100 doublings pass it at any horizon >= 2**-1074."""
    d, (num, den) = preset.dim, preset.horizon.as_integer_ratio()
    scaled = (mesh * num) << min(doublings, 1100)  # den x the steps of one partition
    if batch * scaled > STEP_CAP * den:
        raise overflow(f"{batch} partition(s) of {mesh} x 2^{doublings} x horizon steps exceed "
                       f"{STEP_CAP}, horizon={preset.horizon}")
    rows = scaled // den  # steps of one partition, rounded down
    values = d * max(replicates * preset.driver_steps, batch * rows, max(_SWEEP_ROWS, batch) * d)
    if values > STEP_CAP:
        raise UsageError(f"dimension {d} would make an array of {values} values, over {STEP_CAP}: "
                         f"{replicates} x {preset.driver_steps} driver steps, "
                         f"{batch} x {rows} partition rows")


def _open_out(path: str | None):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _solution_header(dim: int, with_rep: bool) -> str:
    cols = [f"x{i + 1}" for i in range(dim)] + [f"k{i + 1}" for i in range(dim)]
    prefix = ["rep"] if with_rep else []
    return ",".join(prefix + ["t"] + cols)


def _write_diagnostics(fh, solution: Solution, vbar_p_x: float, replicate: int | None) -> None:
    tag = f" rep={replicate}" if replicate is not None else ""
    fh.write(f"#{tag} scheme={solution.scheme} n={solution.n}\n")
    diagnostics = dict(solution.diagnostics, vbar_p_x=vbar_p_x)
    for key in sorted(diagnostics):
        fh.write(f"#{tag} {key}={CSV_FLOAT_FORMAT % diagnostics[key]}\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(s: dict) -> int:
    preset, replicates, n, tol = _resolve_preset(s), s["replicates"], s["n"], s["tol"]
    # a batch without tol holds every replicate's partition at once
    _check_sizes(preset, replicates, replicates if tol is None else 1, n, 0, PartitionOverflow)
    if tol is not None and s["scheme"] == "uniform":
        raise UsageError("tol refines the adaptive scheme; it cannot be used with scheme uniform")
    problems = build_problem(preset, seed=s["seed"], replicates=replicates)
    if tol is not None:
        solutions = [solve(problem, tol=tol, n0=n) for problem in problems]
    else:
        solutions = euler_batch(problems, n, s["scheme"])
    # the schemes leave the variation norm of x out, because `solve` discards
    # every level but the last: it is computed only for the solutions written,
    # in one stacked p-variation DP
    norms = variation_norms([sol.x for sol in solutions], problems[0].p)
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
        for rep, sol, norm in zip(tags, solutions, norms):
            _write_diagnostics(fh, sol, norm, rep)
    return 0


def cmd_convergence(s: dict) -> int:
    preset, n0, levels = _resolve_preset(s), s["n0"], s["levels"]
    _check_sizes(preset, 1, 1, n0, levels - 1, UsageError)
    (problem,) = build_problem(preset, seed=s["seed"])
    with _open_out(s["out"]) as fh:
        fh.write("n,gap\n")
        # islice asks the ladder for no level past the last
        for sol, gap in itertools.islice(refinement_ladder(problem, n0), levels):
            fh.write(f"{sol.n},{'' if gap is None else CSV_FLOAT_FORMAT % gap}\n")
    return 0


def cmd_fbm(s: dict) -> int:
    path = sample_fbm(FbmSpec(hurst=s["hurst"], horizon=s["horizon"], steps=s["steps"],
                              seed=s["seed"]))
    with _open_out(s["out"]) as fh:
        write_path_csv(path, fh)
    return 0


def cmd_verify(s: dict) -> int:
    corrupt = bool(os.environ.get(CORRUPT_ENV))
    total = failures = 0
    with _open_out(s["out"]) as fh:
        fh.write(",".join(campaigns.CAMPAIGN_CSV_HEADER) + "\n")
        # each row is written as its case finishes, so memory stays flat in --cases
        for row in campaigns.iter_campaigns(s["cases"], s["seed"], corrupt=corrupt):
            fh.write(",".join(row.csv_row()) + "\n")
            total += 1
            failures += not row.passed
        fh.write(f"summary,,total,{total},{total - failures},{failures},{int(not failures)}\n")
    return 0 if failures == 0 else 1


def cmd_pvar(s: dict) -> int:
    if s["input"] is None:
        raise UsageError("pvar requires --input <csv>")
    p, a, b = s["p"], s["a"], s["b"]
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
        ("replicates", "run", int, 1, None, _positive_int),
        ("workers", "run", int, 1,
         "accepted and checked (>= 1); replicates run as one batch in one thread",
         _positive_int),
        ("n", "problem", int, 256, "resolution parameter", _positive_int),
        ("tol", "problem", float, None, "refine the adaptive scheme until this Cauchy gap",
         lambda name, value: _check_tol(value)),
        ("scheme", "problem", str, "adaptive", "adaptive or uniform",
         _rule(("adaptive", "uniform").__contains__, "{name} must be adaptive or uniform, "
                                                      "got {value!r}")),
        _PROBLEM["hurst"], _PROBLEM["dim"], _PROBLEM["driver_steps"])),
    "convergence": (cmd_convergence, "dyadic refinement ladder", (
        _SEED, _OUT, _PRESET,
        ("n0", "convergence", int, 16, None, _positive_int),
        ("levels", "convergence", int, 6, None, _positive_int),
        _PROBLEM["hurst"])),
    "fbm": (cmd_fbm, "sample one fractional Brownian path", (
        _SEED, _OUT,
        ("hurst", "fbm", float, 0.75, None, None),  # FbmSpec checks hurst and horizon
        ("steps", "fbm", int, 1024, None,
         _rule(lambda steps: 1 <= steps <= FBM_MAX_STEPS,
               f"{{name}} must be >= 1 and <= {FBM_MAX_STEPS}, got {{value}}")),
        ("horizon", "fbm", float, 1.0, None, None))),
    "verify": (cmd_verify, "randomized inequality campaigns", (
        _SEED, _OUT, ("cases", "verify", int, 1000, None,
                      _rule(lambda cases: 0 <= cases <= campaigns.MAX_CASES,
                            f"{{name}} must be >= 0 and <= {campaigns.MAX_CASES}, got {{value}}")))),
    "pvar": (cmd_pvar, "p-variation seminorm v_p(x)^(1/p) of a CSV path", (
        _OUT,
        ("input", "pvar", str, None, None, None),
        ("p", "pvar", float, 1.0, None,
         _rule(lambda p: 1.0 <= p < np.inf, "{name} must be finite and >= 1, got {value}")),
        ("a", "pvar", float, None, None, None),
        ("b", "pvar", float, None, None, None))),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `UsageError`, so that they exit 2
    with an ``error=`` line like every other usage error."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pvreflect", description="reflected differential equations "
                                                   "driven by bounded p-variation paths")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, rows) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="INI config file; flags override it")
        for key, _, cast, _, text, _ in rows:
            sp.add_argument(f"--{key}", type=cast, help=text)
        if _PRESET in rows:  # every [problem] key overrides the preset, flag or not
            rows += tuple(_PROBLEM.values())
        sp.set_defaults(func=func, rows=rows)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(_settings(args, _load_config(args.config, args.rows), args.rows))
    except (PvreflectError, OSError) as exc:
        print(f"error={type(exc).__name__}\n{exc}", file=sys.stderr)
        return 3 if isinstance(exc, NoConvergence) else 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
