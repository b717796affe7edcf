import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pvreflect
from pvreflect import campaigns, cli, make_path, read_path_csv, variation_norm, write_path_csv
from pvreflect.cli import CORRUPT_ENV, main
from pvreflect.drivers import FBM_MAX_STEPS
from pvreflect.errors import PvreflectError
from pvreflect.pathcore import STEP_CAP
from pvreflect.presets import PROBLEM_PRESETS
from pvreflect.sde import _SWEEP_ROWS


def run_cli(args):
    return main(args)


def run_cli_peak(args):
    """Exit code and tracemalloc peak (bytes) of one in-process CLI call."""
    tracemalloc.start()
    try:
        rc = main(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return rc, peak


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        rc = run_cli(["simulate", "--preset", "linear-reflected", "--seed", "1",
                      "--n", "64", "--driver-steps", "128", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.splitlines()[0] == "t,x1,k1"
    assert "# scheme=adaptive n=64" in text


def test_simulate_geometric_with_tolerance(tmp_path):
    out = tmp_path / "geo.csv"
    rc = run_cli(["simulate", "--preset", "geometric", "--seed", "0",
                  "--n", "16", "--tol", "1e-2", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "cauchy_gap=" in text
    # terminal state approximates e
    last_data = [l for l in text.splitlines() if l and not l.startswith("#")][-1]
    x1 = float(last_data.split(",")[1])
    assert abs(x1 - np.e) < 1e-2


def test_simulate_invalid_hurst_exits_2(tmp_path, capsys):
    rc = run_cli(["simulate", "--preset", "linear-reflected", "--hurst", "0.4",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error=InvalidHurst" in capsys.readouterr().err


@pytest.mark.parametrize("by_config", [False, True])
@pytest.mark.parametrize("command, hurst", [
    (["simulate", "--preset", "geometric", "--n", "4"], "7"),
    (["convergence", "--preset", "geometric", "--levels", "2"], "1.5"),
    (["simulate", "--preset", "constant", "--n", "4"], "nan"),
    (["convergence", "--preset", "geometric", "--levels", "2"], "0.5"),
])
def test_invalid_hurst_exits_2_without_an_fbm_driver(tmp_path, capsys, command, hurst, by_config):
    # the geometric and constant presets sample no fBm, which used to let
    # any value through with exit 0
    out = tmp_path / "x.csv"
    if by_config:
        cfg = tmp_path / "h.ini"
        cfg.write_text(f"[problem]\nhurst = {hurst}\n")
        args = [*command, "--config", str(cfg)]
    else:
        args = [*command, "--hurst", hurst]
    assert run_cli([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error=InvalidHurst"
    assert err[1] == f"Hurst index must lie in (1/2, 1), got {float(hurst)}"
    assert not out.exists()


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    rc = run_cli(["simulate", "--config", str(tmp_path / "none.ini")])
    assert rc == 2
    assert "error=UsageError" in capsys.readouterr().err


def test_simulate_unknown_preset_exits_2(tmp_path, capsys):
    cfg = tmp_path / "nope.ini"
    cfg.write_text("[problem]\npreset = nope\n")
    out = tmp_path / "x.csv"
    for args in (["--preset", "nope"], ["--config", str(cfg)]):
        assert run_cli(["simulate", *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[0] == "error=UsageError"
        assert not out.exists()


@pytest.mark.parametrize("a_driver", ["constant", "jump", "cubic"])
def test_simulate_unknown_a_driver_exits_2(tmp_path, capsys, a_driver):
    # only zero and linear are a-driver presets; the others used to build the
    # zero path
    cfg = tmp_path / "a.ini"
    cfg.write_text(f"[problem]\npreset = geometric\na-driver = {a_driver}\nn = 16\n")
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=UnknownKind"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("horizon", ["inf", "nan"])
@pytest.mark.parametrize("command", ["simulate", "fbm"])
def test_non_finite_horizon_exits_2_before_any_warning(tmp_path, capsys, command, horizon):
    # a numpy warning from building the grid used to come before the error line
    out = tmp_path / "x.csv"
    if command == "fbm":
        args, error = ["fbm", "--horizon", horizon, "--steps", "8"], "InvalidParameter"
    else:
        cfg = tmp_path / "h.ini"
        cfg.write_text(f"[problem]\npreset = fbm-reflected\nhorizon = {horizon}\n")
        args, error = ["simulate", "--config", str(cfg)], "UsageError"
    assert run_cli([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"error={error}"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--preset", "geometric", "--dimension", "-1"],
    ["--preset", "constant", "--dimension", "0"],
    ["--preset", "geometric", "--driver-steps", "-5"],
    ["--preset", "geometric", "--driver-steps", "0"],
])
def test_simulate_nonpositive_sizes_exit_2(tmp_path, capsys, args):
    rc = run_cli(["simulate", *args, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error=UsageError" in capsys.readouterr().err


def test_simulate_uniform_partition_overflow_exits_2(tmp_path, capsys):
    rc = run_cli(["simulate", "--scheme", "uniform", "--n", "1000000000000",
                  "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error=PartitionOverflow" in capsys.readouterr().err


@pytest.mark.parametrize("by_config", [False, True])
def test_simulate_tol_with_uniform_scheme_exits_2(tmp_path, capsys, by_config):
    # --tol refines the adaptive scheme; with the uniform one it used to run
    # the adaptive solver anyway and exit 0
    out = tmp_path / "x.csv"
    if by_config:
        cfg = tmp_path / "u.ini"
        cfg.write_text("[problem]\npreset = geometric\nscheme = uniform\n"
                       "tol = 1e-3\nn = 16\n")
        args = ["simulate", "--config", str(cfg)]
    else:
        args = ["simulate", "--preset", "geometric", "--scheme", "uniform",
                "--tol", "1e-3", "--n", "16"]
    assert run_cli([*args, "--seed", "1", "--out", str(out)]) == 2
    assert "error=UsageError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scheme", [[], ["--scheme", "adaptive"]])
def test_simulate_tol_without_uniform_scheme_runs(tmp_path, scheme):
    out = tmp_path / "x.csv"
    rc = run_cli(["simulate", "--preset", "geometric", *scheme, "--tol", "1e-2",
                  "--n", "16", "--seed", "1", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# scheme=adaptive" in text
    assert "cauchy_gap=" in text


@pytest.mark.parametrize("by_config", [False, True])
def test_simulate_nan_tol_exits_2_before_any_level(tmp_path, capsys, monkeypatch, by_config):
    # NaN fails every gap < tol, so unchecked it would run the whole ladder
    def no_level(*args, **kwargs):
        raise AssertionError("a refinement level was built")

    monkeypatch.setattr("pvreflect.sde._partition", no_level)
    out = tmp_path / "x.csv"
    if by_config:
        cfg = tmp_path / "nan.ini"
        cfg.write_text("[problem]\npreset = geometric\ntol = nan\nn = 16\n")
        args = ["simulate", "--config", str(cfg)]
    else:
        args = ["simulate", "--preset", "geometric", "--tol", "nan", "--n", "16"]
    assert run_cli([*args, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=InvalidParameter"
    assert not out.exists()


def test_simulate_unreachable_tol_exits_3(tmp_path, capsys):
    # the constant preset's iterates agree exactly, so no gap is below 0
    out = tmp_path / "x.csv"
    rc = run_cli(["simulate", "--preset", "constant", "--tol", "0", "--n", "1",
                  "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.splitlines()[0] == "error=NoConvergence"
    assert not out.exists()


@pytest.mark.parametrize("preset", ["geometric", "linear-reflected"])
@pytest.mark.parametrize("x0", ["nan", "inf"])
def test_simulate_non_finite_start_exits_2(tmp_path, capsys, preset, x0):
    # rejected up front, not later as a coefficient or non-finite-value error
    cfg = tmp_path / "x0.ini"
    cfg.write_text(f"[problem]\npreset = {preset}\nx0 = {x0}\nn = 16\n")
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=InadmissibleStart"
    assert not out.exists()


@pytest.mark.parametrize("by_config", [False, True])
def test_simulate_driver_steps_cap_exits_2_before_allocating(tmp_path, capsys, by_config):
    steps = str(STEP_CAP + 1)
    if by_config:
        cfg = tmp_path / "big.ini"
        cfg.write_text(f"[problem]\npreset = fbm-reflected\ndriver-steps = {steps}\n")
        args = ["simulate", "--config", str(cfg)]
    else:
        args = ["simulate", "--preset", "fbm-reflected", "--driver-steps", steps]
    rc, peak = run_cli_peak([*args, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error=UsageError" in capsys.readouterr().err
    assert peak < 1 << 20


def test_simulate_replicate_steps_cap_exits_2_before_allocating(tmp_path, capsys):
    # each size is within its own cap; their product is not
    steps = STEP_CAP // 4 + 1
    rc, peak = run_cli_peak(["simulate", "--preset", "linear-reflected", "--replicates", "4",
                             "--driver-steps", str(steps), "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error=UsageError" in capsys.readouterr().err
    assert peak < 1 << 20


def test_simulate_batch_partitions_cap_exits_2_before_sampling(tmp_path, capsys):
    # 40000 partitions of at least 256 steps: refused before any driver is
    # sampled, where it took 13 s and about 300 MB to fail in the batch
    rc, peak = run_cli_peak(["simulate", "--replicates", "40000", "--driver-steps", "250",
                             "--n", "256", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=PartitionOverflow"
    assert peak < 1 << 20


def test_simulate_fbm_steps_cap_exits_2_before_allocating(tmp_path, capsys):
    rc, peak = run_cli_peak(["simulate", "--preset", "linear-reflected",
                             "--driver-steps", str(FBM_MAX_STEPS + 1),
                             "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error=InvalidParameter" in capsys.readouterr().err
    assert peak < 1 << 20


def test_fbm_steps_cap_exits_2_before_allocating(tmp_path, capsys):
    rc, peak = run_cli_peak(["fbm", "--steps", str(STEP_CAP + 1),
                             "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error=UsageError" in capsys.readouterr().err
    assert peak < 1 << 20
    assert run_cli(["fbm", "--steps", "1", "--out", str(tmp_path / "y.csv")]) == 0


class _Built(Exception):
    """Raised by a patched first work call, such as `build_problem`: the run got past
    every check."""


def _built(*args, **kwargs):
    raise _Built


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
def test_fbm_steps_past_the_sampler_cap_exit_2_before_sampling(tmp_path, capsys, monkeypatch,
                                                               by_config):
    # the row's cap is the sampler's, so a value in (2**20, STEP_CAP] reads
    # UsageError as every larger one does, not the sampler's InvalidParameter
    monkeypatch.setattr("pvreflect.cli.sample_fbm", _built)
    out, cfg = tmp_path / "x.csv", tmp_path / "steps.ini"
    for steps in (FBM_MAX_STEPS + 1, FBM_MAX_STEPS):
        cfg.write_text(f"[fbm]\nsteps = {steps}\n")
        argv = ["fbm", "--config", str(cfg)] if by_config else ["fbm", f"--steps={steps}"]
        if steps == FBM_MAX_STEPS:
            with pytest.raises(_Built):
                run_cli([*argv, "--out", str(out)])
            continue
        assert run_cli([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error=UsageError", f"steps must be >= 1 and <= {FBM_MAX_STEPS}, got {steps}"]
        assert not out.exists()


def _dimension_args(tmp_path, command, by_config, dimension):
    if not by_config:
        return [command, "--preset", "geometric", f"--dimension={dimension}"]
    cfg = tmp_path / f"d{dimension}.ini"
    cfg.write_text(f"[problem]\npreset = geometric\ndimension = {dimension}\n")
    return [command, "--config", str(cfg)]


@pytest.mark.parametrize("dimension", [70, 10**8, 2**64])
@pytest.mark.parametrize("command, by_config", [
    ("simulate", False), ("simulate", True), ("convergence", True),
], ids=["simulate-flag", "simulate-config", "convergence-config"])
def test_dimension_past_the_array_cap_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                              command, by_config, dimension):
    # 10**8 used to fail in numpy allocating 5.96 TiB, and 2**64 on an array
    # size, each with a traceback and exit 1; at 70, each sweep's g block of
    # 2048 x 70 x 70 values is past STEP_CAP, and at 69 it is not
    def no_problem(*args, **kwargs):
        raise _Built

    monkeypatch.setattr("pvreflect.cli.build_problem", no_problem)
    out = tmp_path / "x.csv"
    argv = _dimension_args(tmp_path, command, by_config, dimension)
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error=UsageError"
    assert err[1].startswith(f"dimension {dimension} would make an array of ")
    assert not out.exists()
    if dimension == 70:  # the positive control: the patch is the one a run reaches
        with pytest.raises(_Built):
            run_cli([*_dimension_args(tmp_path, command, by_config, 69), "--out", str(out)])


def test_simulate_replicates_workers_identical(tmp_path):
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"rep{workers}.csv"
        rc = run_cli(["simulate", "--preset", "linear-reflected", "--seed", "3",
                      "--replicates", "3", "--workers", workers,
                      "--n", "32", "--driver-steps", "64", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "rep,t,x1,k1"


#: sha256 of ``simulate --preset fbm-reflected --replicates 16 --n 1024 --seed S``
#: as written when every replicate ran its own Euler loop, with the fGn
#: covariance from the C library's expm1/log1p/pow: the same bytes whatever
#: SIMD kernels numpy dispatches to.
GOLDEN_REPLICATES_16 = {
    1: "75321d9fba51fbe9efcae87a93fcb4119aebe85796b8571fdd95185f00d249ad",
    2: "82aeceecf788b61823a25761b4705808cb78ac808bf389496f92c44e898b8679",
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_REPLICATES_16))
def test_simulate_replicates_batch_bytes_are_golden(tmp_path, seed):
    out = tmp_path / "ens.csv"
    rc = run_cli(["simulate", "--preset", "fbm-reflected", "--replicates", "16",
                  "--n", "1024", "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPLICATES_16[seed]


#: sha256 of two runs written before replicates on one partition shared its
#: time text: (arguments, partitions the replicates have, digest).  The four
#: replicates of the first have four partitions (837, 823, 841 and 809 points),
#: the three of the second one
GOLDEN_PARTITIONS = {
    "distinct": (["--preset", "fbm-reflected", "--replicates", "4", "--n", "256", "--seed", "3"],
                 4, "ff352d17b17d597f60fed8ff65c100a469105d407e6427cf48f737fb96067faf"),
    "shared": (["--preset", "linear-reflected", "--scheme", "uniform", "--replicates", "3",
                "--n", "64", "--seed", "3"],
               1, "277296a4b0ae4d0ddc95979d64e36934afbcf312cdc56b3c4e4548efcc41b6e2"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PARTITIONS))
def test_simulate_shared_and_distinct_partition_bytes_are_golden(tmp_path, case):
    args, partitions, digest = GOLDEN_PARTITIONS[case]
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    times = {}
    for line in out.read_text().splitlines()[1:]:
        if not line.startswith("#"):
            rep, t = line.split(",")[:2]
            times.setdefault(rep, []).append(t)
    assert len({tuple(column) for column in times.values()}) == partitions


@pytest.mark.parametrize("replicates", [1, 4])
def test_simulate_vbar_p_x_footer_is_the_norm_of_the_written_x(tmp_path, replicates):
    # the GOLDEN_PARTITIONS "distinct" run, and its first replicate alone
    args = GOLDEN_PARTITIONS["distinct"][0] + ["--replicates", str(replicates)]
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", *args, "--out", str(out)]) == 0
    rows, footer = {}, {}
    for line in out.read_text().splitlines()[1:]:
        if line.startswith("#"):
            *tag, pair = line[2:].split(" ")
            footer.setdefault(tuple(tag), {}).update([pair.split("=")])
        else:
            fields = [float(v) for v in line.split(",")]
            rep = () if replicates == 1 else (f"rep={int(fields.pop(0))}",)
            rows.setdefault(rep, []).append(fields[:3])
    assert len(rows) == replicates
    p = PROBLEM_PRESETS["fbm-reflected"].p
    for tag, cells in rows.items():
        cells = np.array(cells)
        norm = variation_norm(make_path(cells[:, 0], cells[:, 1:]), p)
        assert footer[tag]["vbar_p_x"] == "%.17g" % norm


#: sha256 of the benchmark's ``refine`` run: ``simulate --preset fbm-reflected
#: --dimension 1 --driver-steps 8192 --tol 1e-4 --n 64 --seed 1``, an 8-level
#: refinement ladder of single-replicate Euler runs, as written by the
#: one-step-at-a-time recursion, with AVX-512 dispatch on and off.
GOLDEN_REFINE = "58d304b77c90377ffd41cb671610e5d0c59579ba22277ee72f387cd405bda3c7"


def test_simulate_refine_bytes_are_golden(tmp_path):
    out = tmp_path / "refine.csv"
    rc = run_cli(["simulate", "--preset", "fbm-reflected", "--dimension", "1",
                  "--driver-steps", "8192", "--tol", "1e-4", "--n", "64", "--seed", "1",
                  "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REFINE


#: sha256 of fBm-free ``simulate --n 64`` runs whose drivers and barriers all
#: come from the deterministic builders (``constant_path``, ``linear_path``,
#: ``sine_path``, ``schedule_path``), as written when the builders chose what
#: to build from a kind string: (extra arguments, [problem] keys, digest).
GOLDEN_BUILDERS = {
    "jump-barrier": (
        [], "driver = linear\na-driver = linear\nbarrier = jump\ndimension = 2\nx0 = -0.9\n",
        "89b799dfefd7777b845a434b796dc154e8dc95cc994079c9d3c9b27152c9ed4b"),
    "sine-barrier": (
        [], "driver = linear\na-driver = linear\nbarrier = sine\nx0 = -0.5\n",
        "0cfa01a51e18c42609a8e904a5c984084b7d82eb46d3088279eaec0ac0b655e7"),
    "geometric": (
        ["--preset", "geometric"], "",
        "78a4f19936aa022446612bb2dc033be9b6ccb00fc5ca609ab32c36ac51c2b972"),
    "constant": (
        ["--preset", "constant", "--replicates", "2"], "",
        "aea149451eb551f5714cb5239ac58c3c6c398fdbb830f592dfe19d5bdddc3e4c"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_BUILDERS))
def test_simulate_builder_paths_bytes_are_golden(tmp_path, case):
    args, keys, digest = GOLDEN_BUILDERS[case]
    cfg = tmp_path / "problem.ini"
    cfg.write_text("[problem]\n" + keys)
    out = tmp_path / "sim.csv"
    rc = run_cli(["simulate", "--config", str(cfg), "--n", "64", *args, "--out", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_problem_field_overrides_from_config(tmp_path, capsys):
    cfg = tmp_path / "custom.ini"
    cfg.write_text(
        "[run]\nseed = 4\n\n[problem]\npreset = linear-reflected\n"
        "dimension = 2\ncoefficients = rotation2d\nbarrier = sine\n"
        "sigma = sine\nhurst = 0.8\ndriver-steps = 64\nx0 = 0.6\np = 1.5\nn = 32\n"
    )
    out = tmp_path / "custom.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "t,x1,x2,k1,k2"
    bad = tmp_path / "bad.ini"
    bad.write_text("[problem]\ncoefficients = warp\n")
    assert run_cli(["simulate", "--config", str(bad),
                    "--out", str(tmp_path / "x.csv")]) == 2
    assert "error=UnknownKind" in capsys.readouterr().err


@pytest.mark.parametrize("argv, problem, error, message", [
    (["simulate", "--scheme", "bogus"], None, "UsageError", "scheme must be"),
    (["verify", "--cases", "-1"], None, "UsageError", "cases must be"),
    (["pvar", "--p", "2"], None, "UsageError", "requires --input"),
    (["simulate"], "sigma = bogus", "UnknownKind", "unknown sigma preset 'bogus'"),
    (["simulate"], "barrier = bogus", "UnknownKind", "unknown barrier preset 'bogus'"),
    (["simulate"], "driver = bogus", "UnknownKind", "unknown driver preset 'bogus'"),
], ids=["scheme", "negative-cases", "pvar-without-input", "sigma", "barrier", "driver"])
def test_bad_setting_exits_2_with_error_line(tmp_path, capsys, argv, problem, error, message):
    if problem is not None:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[problem]\n{problem}\n")
        argv = [*argv, "--config", str(cfg)]
    out = tmp_path / "x.csv"
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error={error}"
    assert message in err[1]
    assert not out.exists()


def test_twoblock_sigma_stops_the_noise_at_half_time(tmp_path):
    # sigma is 2 before t = 1/2 and 0 after, so with no drift the state
    # stops moving there
    cfg = tmp_path / "twoblock.ini"
    cfg.write_text("[problem]\npreset = linear-reflected\nsigma = twoblock\n"
                   "driver-steps = 64\nn = 64\n")
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    table = np.loadtxt(out, delimiter=",", skiprows=1, comments="#")
    late = table[table[:, 0] >= 0.5]
    assert (table[:, 0] < 0.5).any() and len(late) > 1
    assert np.all(late[:, 1:] == late[0, 1:])
    assert np.ptp(table[table[:, 0] <= 0.5, 1]) > 0.0


@pytest.mark.parametrize("p", ["nan", "inf", "0.5"])
def test_simulate_non_finite_or_small_p_exits_2(tmp_path, capsys, p):
    cfg = tmp_path / "p.ini"
    cfg.write_text(f"[problem]\npreset = linear-reflected\np = {p}\nn = 16\n")
    out = tmp_path / "p.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert "error=InvalidP" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-3"]])
@pytest.mark.parametrize("n, error", [
    (0, "UsageError"), (-3, "UsageError"),
    (2**1024, "PartitionOverflow"), (10**400, "PartitionOverflow"),
], ids=["0", "-3", "2^1024", "10^400"])
def test_simulate_bad_n_exits_2_before_any_work(tmp_path, capsys, monkeypatch, n, error, tol):
    # 1.0 / n used to raise OverflowError, a traceback and exit 1, and n < 1
    # was refused only after every driver had been sampled
    def no_problem(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr("pvreflect.cli.build_problem", no_problem)
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", f"--n={n}", *tol, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"error={error}"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_simulate_bad_tol_exits_2_before_any_work(tmp_path, capsys, monkeypatch, tol):
    # solve refused it only after every replicate's drivers had been sampled
    def no_problem(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr("pvreflect.cli.build_problem", no_problem)
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", f"--tol={tol}", "--replicates", "200", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error=InvalidParameter", "tol must be >= 0"]
    assert not out.exists()


@pytest.mark.parametrize("preset", ["linear-reflected", "geometric"])
@pytest.mark.parametrize("key, kind", [
    ("coefficients", "coefficient"), ("barrier", "barrier"), ("driver", "driver"),
    ("a-driver", "a-driver"), ("sigma", "sigma"),
])
def test_unknown_part_name_exits_2_before_any_sampling(tmp_path, capsys, monkeypatch,
                                                        preset, key, kind):
    # each name used to be read only when its part was built: a bad barrier
    # after the fBm was sampled, and a bad sigma on geometric never
    def no_sample(*args, **kwargs):
        raise AssertionError("an fBm path was sampled")

    monkeypatch.setattr("pvreflect.presets.sample_fbm_paths", no_sample)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[problem]\npreset = {preset}\n{key} = bogus\n")
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error=UnknownKind", f"unknown {kind} preset 'bogus'"]
    assert not out.exists()


@pytest.mark.parametrize("key, value, error", [
    ("p", "nan", "InvalidP"), ("p", "0.5", "InvalidP"), ("x0", "-5", "InadmissibleStart"),
])
def test_bad_p_or_x0_exits_2_before_any_sampling(tmp_path, capsys, monkeypatch,
                                                 key, value, error):
    # both used to be checked only when the first replicate's Problem was
    # built, after its z was sampled
    calls = _count_sampling(monkeypatch)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[problem]\npreset = fbm-reflected\n{key} = {value}\n")
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--replicates", "50",
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"error={error}"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "geometric"], ["convergence", "--preset", "geometric"],
    ["fbm"], ["verify", "--cases", "0"],
], ids=["simulate", "convergence", "fbm", "verify"])
def test_out_of_range_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch,
                                                   argv, seed, by_config):
    # the seed used to be checked only where a sampler read it: fBm-free
    # presets ran with it, and verify wrote its header first
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("pvreflect.cli.build_problem", "pvreflect.cli.sample_fbm",
                 "pvreflect.campaigns.iter_campaigns"):
        monkeypatch.setattr(name, no_work)
    if by_config:
        cfg = tmp_path / "seed.ini"
        cfg.write_text(f"[run]\nseed = {seed}\n")
        argv = [*argv, "--config", str(cfg)]
    else:
        argv = [*argv, f"--seed={seed}"]
    out = tmp_path / "x.csv"
    assert run_cli([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error=InvalidParameter", "seed must fit in 64 unsigned bits"]
    assert not out.exists()


def _count_sampling(monkeypatch) -> list:
    """The calls of the fBm sampler that `presets` calls, recorded as they are made."""
    import pvreflect.presets as presets

    calls = []

    def counted(spec, path_indices, *args, sample=presets.sample_fbm_paths):
        calls.append(list(path_indices))
        return sample(spec, calls[-1], *args)

    monkeypatch.setattr(presets, "sample_fbm_paths", counted)
    return calls


def test_sampling_patches_see_a_valid_run_sample(tmp_path, monkeypatch):
    # the positive control of the two tests above: the name they patch is the
    # one a valid run samples through, once for all replicates
    calls = _count_sampling(monkeypatch)
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--preset", "fbm-reflected", "--replicates", "3", "--n", "16",
                    "--driver-steps", "64", "--out", str(out)]) == 0
    assert calls == [list(range(6))]


@pytest.mark.parametrize("text", [
    "[problem]\ndimensoin = 2\n",
    "[run]\nsed = 5\n",
    # a setting, but of another section
    "[problem]\nseed = 5\n",
    "[DEFAULT]\nsed = 5\n",
])
def test_config_key_of_no_setting_exits_2(tmp_path, capsys, text):
    # such keys used to be ignored, so the run went on as 1-d with seed 0
    cfg = tmp_path / "typo.ini"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=UsageError"
    assert not out.exists()


def test_config_default_keys_reach_every_section(tmp_path):
    # configparser offers a [DEFAULT] key to every section in the file, so
    # this seed is read through [run]; a section no setting of the command
    # reads is left alone, so one file can serve several commands
    cfg = tmp_path / "shared.ini"
    cfg.write_text("[DEFAULT]\nseed = 5\n\n[run]\n\n[convergence]\nlevels = 3\n")
    by_key, by_flag = tmp_path / "key.csv", tmp_path / "flag.csv"
    common = ["--n", "16", "--driver-steps", "32"]
    assert run_cli(["simulate", "--config", str(cfg), *common, "--out", str(by_key)]) == 0
    assert run_cli(["simulate", "--seed", "5", *common, "--out", str(by_flag)]) == 0
    assert by_key.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("text", ["seed = 5\n", "[run]\nseed = %(x)s\n"])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    # a line before any section, and an interpolation of no key, used to end
    # in a configparser traceback and exit 1
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=UsageError"


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\nseed = 5\n\n[problem]\npreset = linear-reflected\nn = 32\n"
        "driver-steps = 64\n"
    )
    base = tmp_path / "base.csv"
    flagged = tmp_path / "flag.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--out", str(base)]) == 0
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "5",
                    "--out", str(flagged)]) == 0
    assert base.read_bytes() == flagged.read_bytes()
    other = tmp_path / "other.csv"
    assert run_cli(["simulate", "--config", str(cfg), "--seed", "6",
                    "--out", str(other)]) == 0
    assert base.read_bytes() != other.read_bytes()


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_convergence_constant_preset_all_zero_gaps(tmp_path):
    out = tmp_path / "conv.csv"
    rc = run_cli(["convergence", "--preset", "constant", "--n0", "4",
                  "--levels", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,gap"
    gaps = [float(l.split(",")[1]) for l in lines[2:]]
    assert all(g == 0.0 for g in gaps)


def test_convergence_geometric_gaps_shrink(tmp_path):
    out = tmp_path / "geo.csv"
    rc = run_cli(["convergence", "--preset", "geometric", "--n0", "16",
                  "--levels", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()[2:]
    gaps = [float(l.split(",")[1]) for l in lines]
    # Euler on a smooth problem: the ladder shrinks roughly like 1/n
    for a, b in zip(gaps, gaps[1:]):
        assert b < a
        assert b / a == pytest.approx(0.5, abs=0.2)


def test_convergence_gaps_of_huge_states_are_finite(tmp_path):
    # the gaps of states near 1e300 are scaled before they are squared, so
    # they neither overflow to inf nor warn (tier-1 makes warnings errors)
    cfg, out = tmp_path / "big.ini", tmp_path / "big.csv"
    cfg.write_text("[problem]\npreset = geometric\nx0 = 1e300\n")
    assert run_cli(["convergence", "--config", str(cfg), "--levels", "4", "--out", str(out)]) == 0
    gaps = [float(line.split(",")[1]) for line in out.read_text().splitlines()[2:]]
    assert gaps == pytest.approx([3.906e298, 2.035e298, 1.039e298], rel=1e-3)


def test_convergence_levels_past_step_cap_exit_2_before_allocating(tmp_path, capsys):
    # the 21st level of n0 = 16 would need 16 * 2**20 > STEP_CAP steps
    out = tmp_path / "x.csv"
    rc, peak = run_cli_peak(["convergence", "--preset", "geometric", "--levels", "30",
                             "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=UsageError"
    assert not out.exists()
    assert peak < 1 << 20


@pytest.mark.parametrize("levels, rc", [("20", 0), ("21", 2), ("1000000", 2)])
def test_convergence_levels_bound(tmp_path, monkeypatch, levels, rc):
    # a run takes exactly its levels from the ladder: one more at --levels 20
    # would be level 21, past STEP_CAP steps
    pulls = []

    def ladder(problem, n0):
        for level in itertools.count():
            pulls.append(level)
            yield types.SimpleNamespace(n=n0 * 2**level), None if level == 0 else 0.0

    monkeypatch.setattr("pvreflect.cli.refinement_ladder", ladder)
    out = tmp_path / "x.csv"
    assert run_cli(["convergence", "--preset", "geometric", "--n0", "16",
                    "--levels", levels, "--out", str(out)]) == rc
    assert out.exists() == (rc == 0)
    assert pulls == (list(range(int(levels))) if rc == 0 else [])


def test_convergence_writes_the_same_bytes_twice(tmp_path):
    outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for out in outs:
        assert run_cli(["convergence", "--preset", "geometric", "--levels", "4",
                        "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


#: sha256 of the ``n,gap`` columns of ``convergence`` runs (``runtime_s``,
#: a wall time, dropped), as written when each level was a full
#: ``euler_adaptive`` run and its gap ``solution_gap``: (arguments, digest).
#: The fBm-free ``geometric`` case pins the same bytes at every SIMD level
GOLDEN_CONVERGENCE = {
    "geometric": (["--preset", "geometric", "--n0", "16", "--levels", "6"],
                  "4ecc6b4f97226e2a2b952078ee5d3efd1b27620d38eecb2cf49b55976c1819d8"),
    "fbm-reflected": (["--preset", "fbm-reflected", "--levels", "5", "--seed", "3"],
                      "34a372bdc9381c1e09b8643fa8c23ff2424278bf5bfb5fbf5781f05536c6e5bf"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CONVERGENCE))
def test_convergence_bytes_are_golden(tmp_path, case):
    args, digest = GOLDEN_CONVERGENCE[case]
    out = tmp_path / "conv.csv"
    assert run_cli(["convergence", *args, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + int(args[args.index("--levels") + 1])
    columns = "".join(",".join(line.split(",")[:2]) + "\n" for line in lines)
    assert hashlib.sha256(columns.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# fbm / pvar
# ---------------------------------------------------------------------------

def test_fbm_csv_round_trip_and_determinism(tmp_path):
    out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
    for out in (out1, out2):
        rc = run_cli(["fbm", "--hurst", "0.7", "--steps", "64", "--seed", "11",
                      "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    path = read_path_csv(out1)
    assert path.values.shape == (65, 1)
    buf = io.StringIO()
    write_path_csv(path, buf)
    assert buf.getvalue() == out1.read_text()


def test_pvar_of_bundled_zigzag(tmp_path, capsys):
    fixture = resources.files("pvreflect") / "data" / "zigzag.csv"
    rc = run_cli(["pvar", "--input", str(fixture), "--p", "1"])
    assert rc == 0
    assert capsys.readouterr().out == "2\n"
    out = tmp_path / "v.txt"
    assert run_cli(["pvar", "--input", str(fixture), "--p", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "2\n"


def test_pvar_rejects_bad_exponent_and_csv(tmp_path, capsys):
    fixture = resources.files("pvreflect") / "data" / "zigzag.csv"
    for bad in ("0.5", "nan", "inf"):
        assert run_cli(["pvar", "--input", str(fixture), "--p", bad]) == 2
        assert "error=UsageError" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2\n")
    assert run_cli(["pvar", "--input", str(bad), "--p", "1"]) == 2
    assert "error=MalformedCsv" in capsys.readouterr().err
    assert run_cli(["pvar", "--input", str(tmp_path / "missing.csv"), "--p", "1"]) == 2
    assert "error=FileNotFoundError" in capsys.readouterr().err


ZIGZAG = str(resources.files("pvreflect") / "data" / "zigzag.csv")


@pytest.mark.parametrize("argv", [
    ["pvar", "--input", ZIGZAG, "--p", "-inf"],  # argparse reads -inf as an option
    ["pvar", "--input", ZIGZAG, "--p", "abc"],
    ["pvar", "--input", ZIGZAG, "--p", "1", "--seed", "1"],  # pvar reads no seed
    ["simulate", "--no-such-flag"],
    [],
], ids=["p-minus-inf", "p-not-a-number", "pvar-seed", "unknown-flag", "no-subcommand"])
def test_argument_errors_exit_2_with_error_line(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[0] == "error=UsageError"
    assert "usage: pvreflect" in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["pvar", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv)
        assert exit_info.value.code == 0
        assert "usage: pvreflect" in capsys.readouterr().out


def test_pvar_window(tmp_path, capsys):
    fixture = resources.files("pvreflect") / "data" / "zigzag.csv"
    rc = run_cli(["pvar", "--input", str(fixture), "--p", "1",
                  "--a", "0", "--b", "1"])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == 1.0
    # a window past the path's end is refused once the input is read
    out = tmp_path / "p.txt"
    assert run_cli(["pvar", "--input", str(fixture), "--p", "2", "--a", "5",
                    "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=InvalidParameter"
    assert not out.exists()


@pytest.mark.parametrize("by_config", [False, True])
@pytest.mark.parametrize("window", [{"a": "-1"}, {"a": "nan"}, {"b": "-1"}, {"b": "inf"},
                                    {"a": "2", "b": "1"}],
                         ids=["a-negative", "a-nan", "b-negative", "b-inf", "a-above-b"])
def test_pvar_bad_window_exits_2_before_reading_the_input(tmp_path, capsys, monkeypatch,
                                                          window, by_config):
    reads = []
    monkeypatch.setattr(cli, "read_path_csv", lambda path: reads.append(path))
    if by_config:
        config = tmp_path / "pvar.ini"
        config.write_text("[pvar]\n" + "".join(f"{k} = {v}\n" for k, v in window.items()))
        flags = ["--config", str(config)]
    else:
        flags = [arg for key, value in window.items() for arg in (f"--{key}", value)]
    out = tmp_path / "p.txt"
    assert run_cli(["pvar", "--input", ZIGZAG, "--p", "2", "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.splitlines()[0] == "error=InvalidParameter"
    assert not out.exists()
    assert reads == []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_zero_cases_empty_table(tmp_path):
    out = tmp_path / "v.csv"
    rc = run_cli(["verify", "--cases", "0", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "campaign,case,check,lhs,rhs,margin,pass"
    assert lines[1].startswith("summary")


def test_verify_cases_over_the_cap_exit_2_before_any_case(tmp_path, capsys, monkeypatch):
    # 2^64 cases used to stream rows without end; past the cap a case's
    # Philox stream could also be another campaign's
    assert campaigns.MAX_CASES < campaigns._STREAM_BLOCK

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(campaigns, "iter_campaigns", no_work)
    out = tmp_path / "v.csv"
    for cases in (campaigns.MAX_CASES + 1, 2**64):
        assert run_cli(["verify", "--cases", str(cases), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "error=UsageError"
        assert f"got {cases}" in err[1]
        assert not out.exists()


def test_verify_small_run_passes(tmp_path):
    out = tmp_path / "v.csv"
    rc = run_cli(["verify", "--cases", "20", "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    body = [l for l in lines[1:] if not l.startswith("summary")]
    assert all(l.endswith(",1") for l in body)


#: sha256 of ``verify --cases 20 --seed S``, which runs the p-variation DP on
#: scalar, vector (d = 2, 3) and matrix windows.  numpy's AVX-512 ``pow``
#: rounds ``x ** 1.5`` differently from the AVX2 one in the last bit, which
#: moves a few printed digits of the p = 1.5 checks, so each seed has the
#: bytes of both.
GOLDEN_VERIFY_20 = {
    1: {"da2f7e9163aaa9557e00925cb7321416b7767f68772b8be57ddef4a023c50f78",
        "9e83080d933c4abe7223b8d725604e2ab66255b1da5d6038878ad8fe8b85633a"},
    2: {"9889257d2020b11bf3985667d4518bee78951717cc0826011caa4c1df5b155af",
        "e6c6ecd57ecece76ba86559ed78d856060cfdfc5169e49c6e5c42d0457089d9d"},
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_VERIFY_20))
def test_verify_bytes_are_golden(tmp_path, seed):
    out = tmp_path / "v.csv"
    assert run_cli(["verify", "--cases", "20", "--seed", str(seed), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() in GOLDEN_VERIFY_20[seed]


def test_verify_memory_does_not_grow_with_cases(tmp_path, monkeypatch):
    # each campaign gives one cheap row a case, so the peak measures what the
    # command holds and not the DP's working set of its largest case
    def campaign(cases, seed, corrupt=False):
        cases = cases if isinstance(cases, range) else range(cases)
        return [campaigns.CampaignRow(name=f"check{case}", lhs=case / 7.0, rhs=case + 1.0,
                                      passed=True, campaign="stub", case=case)
                for case in cases]

    for name in ("running_max_contraction_campaign", "reflection_estimates_campaign",
                 "stieltjes_bound_campaign"):
        monkeypatch.setattr(campaigns, name, campaign)
    out = tmp_path / "v.csv"
    peaks = []
    for cases in (20, 4000):
        rc, peak = run_cli_peak(["verify", "--cases", str(cases), "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[-1] == f"summary,,total,{3 * cases},{3 * cases},0,1"
        peaks.append(peak)
    # holding the 12,000 rows until the end takes megabytes
    assert peaks[1] < peaks[0] + 64 * 1024


def test_verify_corrupted_solver_exits_1(tmp_path, monkeypatch):
    monkeypatch.setenv(CORRUPT_ENV, "1")
    out = tmp_path / "v.csv"
    rc = run_cli(["verify", "--cases", "3", "--seed", "7", "--out", str(out)])
    assert rc == 1


def test_verify_corrupt_control_inflates_every_row_of_every_campaign(tmp_path, monkeypatch):
    # each left side becomes max(lhs, rhs) + 1 + |lhs| + |rhs|, so every row of
    # every campaign fails; adding 1 + |lhs| used to fail only 3 of these 24 rows
    tables = {}
    for corrupt in (False, True):
        if corrupt:
            monkeypatch.setenv(CORRUPT_ENV, "1")
        out = tmp_path / f"v{corrupt:d}.csv"
        rc = run_cli(["verify", "--cases", "3", "--seed", "7", "--out", str(out)])
        assert rc == (1 if corrupt else 0)
        tables[corrupt] = [line.split(",") for line in out.read_text().splitlines()[1:-1]]
    assert {row[-1] for row in tables[False]} == {"1"}
    assert {row[-1] for row in tables[True]} == {"0"}
    assert {row[0] for row in tables[True]} == {"running_max_contraction",
                                                "reflection_estimates", "stieltjes_bound"}
    assert [row[:3] for row in tables[True]] == [row[:3] for row in tables[False]]
    for clean, bad in zip(tables[False], tables[True]):
        lhs, rhs = float(clean[3]), float(clean[4])
        inflated = max(lhs, rhs) + 1.0 + abs(lhs) + abs(rhs)
        assert (float(bad[3]), float(bad[4])) == (inflated, rhs)


# ---------------------------------------------------------------------------
# settings: every flag is also a config key, and the flag wins
# ---------------------------------------------------------------------------

#: every setting of each command but --out: (name, section, value, another value)
SETTINGS = {
    "simulate": [
        ("seed", "run", "3", "4"), ("replicates", "run", "2", "3"),
        ("workers", "run", "2", "1"), ("preset", "problem", "fbm-reflected", "geometric"),
        ("n", "problem", "16", "32"), ("tol", "problem", "1e-3", "1e-2"),
        ("scheme", "problem", "adaptive", "uniform"), ("hurst", "problem", "0.8", "0.6"),
        ("dimension", "problem", "2", "1"), ("driver-steps", "problem", "64", "32"),
    ],
    "convergence": [
        ("seed", "run", "3", "4"), ("preset", "problem", "fbm-reflected", "constant"),
        ("n0", "convergence", "4", "8"), ("levels", "convergence", "3", "2"),
        ("hurst", "problem", "0.8", "0.6"),
    ],
    "fbm": [
        ("seed", "run", "3", "4"), ("hurst", "fbm", "0.7", "0.8"),
        ("steps", "fbm", "32", "64"), ("horizon", "fbm", "2", "3"),
    ],
    "verify": [("seed", "run", "3", "4"), ("cases", "verify", "4", "2")],
    "pvar": [
        ("input", "pvar", ZIGZAG, "missing.csv"), ("p", "pvar", "2", "1.5"),
        ("a", "pvar", "0", "0.5"), ("b", "pvar", "1", "2"),
    ],
}


def _settings_ini(path, rows, column, out):
    sections = {"run": [f"out = {out}"]}
    for row in rows:
        sections.setdefault(row[1], []).append(f"{row[0]} = {row[column]}")
    path.write_text("".join(f"[{name}]\n" + "\n".join(lines) + "\n\n"
                            for name, lines in sections.items()))
    return str(path)


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_every_setting_reads_the_same_as_flag_and_config_key(tmp_path, command):
    rows = SETTINGS[command]
    flags = [arg for name, _, value, _ in rows for arg in (f"--{name}", value)]
    by_flag, by_key, both, ignored = (tmp_path / f"{name}.csv"
                                      for name in ("flag", "key", "both", "ignored"))
    assert run_cli([command, *flags, "--out", str(by_flag)]) == 0
    assert run_cli([command, "--config",
                    _settings_ini(tmp_path / "key.ini", rows, 2, by_key)]) == 0
    # a config that contradicts every flag: the flags win
    assert run_cli([command, "--config",
                    _settings_ini(tmp_path / "other.ini", rows, 3, ignored),
                    *flags, "--out", str(both)]) == 0
    assert not ignored.exists()

    assert by_key.read_bytes() == by_flag.read_bytes()
    assert both.read_bytes() == by_flag.read_bytes()


#: the typed candidates of each checked setting, as command-line text
CANDIDATES = {int: ["0", "-1", str(2**64), str(10**400)],
              float: ["nan", "inf", "-inf", "-1", "0"],
              str: ["bogus"]}


def _checked_rows(command):
    """Each setting row of ``command`` with a check, once, and whether it has a flag."""
    rows = cli._build_parser().parse_args([command]).rows
    return [(row, row in cli._COMMANDS[command][2])
            for row in dict.fromkeys(rows) if row[-1] is not None]


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_every_refused_value_of_every_checked_setting_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command):
    # each row's own check is the oracle: every candidate it refuses, by flag
    # and by key, must exit 2 with the class it raises, before any work
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("pvreflect.cli.build_problem", "pvreflect.cli.sample_fbm",
                 "pvreflect.cli.read_path_csv", "pvreflect.campaigns.iter_campaigns"):
        monkeypatch.setattr(name, no_work)
    out, cfg = tmp_path / "x.csv", tmp_path / "bad.ini"
    for (name, section, cast, _, _, check), flagged in _checked_rows(command):
        refused = []
        for text in CANDIDATES[cast]:
            try:
                check(name, cast(text))
            except PvreflectError as exc:
                refused.append((text, type(exc).__name__))
        assert refused, f"{command}'s {name} refuses no candidate"
        for text, error in refused:
            cfg.write_text(f"[{section}]\n{name} = {text}\n")
            for argv in [[f"--{name}={text}"]] * flagged + [["--config", str(cfg)]]:
                assert run_cli([command, *argv, "--out", str(out)]) == 2, argv
                assert capsys.readouterr().err.splitlines()[0] == f"error={error}"
                assert not out.exists()


# ---------------------------------------------------------------------------
# the size budget of simulate and convergence
# ---------------------------------------------------------------------------

def _size_refusal(command, dimension, replicates, driver_steps, mesh, levels, horizon, tol):
    """The ``error=`` class a run's sizes are refused with, or None: a plain count of
    each array.  A batch without tol holds every replicate's partition at once, and
    the last level of ``levels`` has ``mesh x 2^(levels-1) x horizon`` steps or more."""
    if levels > 1100:  # every horizon is at least 2**-1074, so this is past the cap
        return "UsageError"
    batch = replicates if tol is None else 1
    steps = mesh * 2 ** (levels - 1) * Fraction(horizon)
    if batch * steps > STEP_CAP:
        return "PartitionOverflow" if command == "simulate" else "UsageError"
    arrays = [replicates * dimension * driver_steps,  # the driver paths
              batch * math.floor(steps) * dimension,  # the partition rows
              max(_SWEEP_ROWS, batch) * dimension ** 2]  # a sweep's g block
    return "UsageError" if max(arrays) > STEP_CAP else None


@functools.lru_cache(maxsize=None)
def _divisors(total):
    small = [k for k in range(1, math.isqrt(total) + 1) if total % k == 0]
    return sorted(set(small + [total // k for k in small]))


_NEAR_CAP = st.sampled_from([STEP_CAP - 1, STEP_CAP, STEP_CAP + 1, STEP_CAP + 2])
#: dyadic horizons, and 0.1 and 1.5, whose partitions have fractional step counts
_HORIZONS = st.sampled_from([1.0, 0.5, 2.0, 0.25, 1.5, 0.1, 2.0**-30])


@st.composite
def _sizes(draw, command):
    """(dimension, replicates, driver-steps, mesh, levels, horizon, tol) with one array,
    or all of them, drawn at or next to STEP_CAP and the other sizes small."""
    horizon, target, delta = draw(_HORIZONS), draw(_NEAR_CAP), draw(st.sampled_from([-1, 0, 1]))
    tol = None if command == "convergence" else draw(st.sampled_from([None, 1e-3]))
    small = st.integers(1, 4)
    dim, rep, steps, mesh = draw(small), draw(small), draw(st.integers(1, 64)), draw(small)
    batch_free = command == "simulate" and tol is None  # replicates set the batch

    def split(total):  # a divisor of total and its cofactor
        part = draw(st.sampled_from(_divisors(total)))
        return part, total // part

    array = draw(st.sampled_from(["drivers", "rows", "values", "g", "all"]))
    if array == "drivers":
        dim, rest = split(target)
        rep, steps = split(rest) if command == "simulate" else (1, rest)
    elif array == "rows":  # batch x mesh x horizon steps
        total = max(1, math.ceil(target / Fraction(horizon)) + delta)
        rep, mesh = split(total) if batch_free else (rep, total)
    elif array == "values":  # batch x floor(mesh x horizon) x d, with d >= 2
        dim, rest = split(target)
        dim, rest = (2, target // 2 + delta) if dim == 1 else (dim, rest)
        rep, rows = split(rest) if batch_free else (rep, rest)
        mesh = max(1, math.ceil(rows / Fraction(horizon)) + draw(st.sampled_from([-1, 0])))
    elif array == "g":  # max(_SWEEP_ROWS, batch) x d^2
        dim = draw(st.sampled_from([1, 2, 10, 50, 69, 70, 3162, 3163]))
        if batch_free:
            rep = max(1, target // dim**2 + delta)
    else:
        wide = st.integers(1, 2 * STEP_CAP)
        dim, rep, steps, mesh = draw(small), draw(wide), draw(wide), draw(wide)
    levels = 1
    if command == "convergence":  # one replicate; factors of two of the mesh as doublings
        doublings = draw(st.integers(0, (mesh & -mesh).bit_length() - 1))
        rep, mesh, levels = 1, mesh >> doublings, doublings + 1
    return dim, rep, steps, mesh, levels, horizon, tol


def _size_argvs(tmp_path, command, dim, rep, steps, mesh, levels, horizon, tol):
    """The run's settings by flag where a setting has one, and all by INI key."""
    if command == "simulate":
        flags = {"replicates": rep, "n": mesh, "dimension": dim, "driver-steps": steps}
        keys = {"problem": {"n": mesh, "dimension": dim, "driver-steps": steps,
                            "horizon": horizon}, "run": {"replicates": rep}}
        if tol is not None:
            flags["tol"] = keys["problem"]["tol"] = tol
    else:
        flags = {"n0": mesh, "levels": levels}
        keys = {"problem": {"dimension": dim, "driver-steps": steps, "horizon": horizon},
                "convergence": flags}
    by_flag, by_key = tmp_path / "flag.ini", tmp_path / "key.ini"
    by_flag.write_text("[problem]\n" + "".join(
        f"{name} = {value!r}\n" for name, value in keys["problem"].items()
        if name not in flags))
    by_key.write_text("".join(f"[{section}]\n" + "".join(
        f"{name} = {value!r}\n" for name, value in rows.items())
        for section, rows in keys.items()))
    return ([command, "--config", str(by_flag)] + [f"--{k}={v!r}" for k, v in flags.items()],
            [command, "--config", str(by_key)])


#: (command, sizes) that put each array at exactly STEP_CAP and at STEP_CAP + 1;
#: sizes are (dimension, replicates, driver-steps, n or n0, levels, horizon, tol)
_AT_THE_CAP = [
    # the driver paths: 5 x 2 x 10**6, and 11 x 909,091
    ("simulate", (2, 5, STEP_CAP // 10, 1, 1, 1.0, None)),
    ("simulate", (11, 1, 909_091, 1, 1, 1.0, None)),
    ("convergence", (2, 1, STEP_CAP // 2, 1, 1, 1.0, None)),
    ("convergence", (11, 1, 909_091, 1, 1, 1.0, None)),
    # the partitions' steps: 4 x 2.5M at horizon 1, and 2 x (CAP + 1) x 1/2
    ("simulate", (1, 4, 1, STEP_CAP // 4, 1, 1.0, None)),
    ("simulate", (1, 2, 1, STEP_CAP + 1, 1, 0.5, None)),
    ("simulate", (1, 3, 1, STEP_CAP + 1, 1, 1.0, 1e-3)),
    ("convergence", (1, 1, 5**7, 5**7, 8, 1.0, None)),
    ("convergence", (1, 1, 1, STEP_CAP + 1, 2, 0.5, None)),
    # the partition rows of d values: batch x floor(n x horizon) x d, where
    # 2 x floor(1,666,667 x 1.5) x 2 is the cap and floor(2 x 1,666,667 x 1.5) x 2 not
    ("simulate", (2, 1, 1, STEP_CAP // 2, 1, 1.0, None)),
    ("simulate", (2, 2, 1, 1_666_667, 1, 1.5, None)),
    ("simulate", (11, 1, 1, 909_091, 1, 1.0, None)),
    ("convergence", (2, 1, 1, 5**7, 7, 1.0, None)),
    ("convergence", (11, 1, 1, 909_091, 1, 1.0, None)),
    # a sweep's g block: 4000 x 50^2 and 4001 x 50^2 (no square divides CAP + 1),
    # CAP + 1 replicates of one component, and 2048 x d^2 on each side of the cap
    ("simulate", (50, 4000, 1, 1, 1, 1.0, None)),
    ("simulate", (50, 4001, 1, 1, 1, 1.0, None)),
    ("simulate", (1, STEP_CAP + 1, 1, 1, 1, 2.0**-30, None)),
    ("simulate", (69, 1, 1, 1, 1, 1.0, None)),
    ("convergence", (70, 1, 1, 1, 1, 1.0, None)),
    # two arrays past the cap: the partitions' class wins
    ("simulate", (1, 1, STEP_CAP + 1, STEP_CAP + 1, 1, 1.0, None)),
    ("simulate", (1, 2, STEP_CAP // 2 + 1, STEP_CAP, 1, 1.0, None)),
]


def _at_the_cap(test):
    for run in _AT_THE_CAP:
        test = example(run=run)(test)
    return test


@settings(max_examples=300, deadline=None, derandomize=True)
@given(run=st.sampled_from(["simulate", "convergence"]).flatmap(
    lambda command: st.tuples(st.just(command), _sizes(command))))
@_at_the_cap
def test_size_budget_refuses_exactly_the_runs_whose_arrays_pass_the_cap(tmp_path_factory, run):
    # the sizes are drawn at or next to STEP_CAP for one of the arrays, and
    # set by flag and by INI key; the plain count above is the oracle of the
    # budget, for its refusals and their classes
    command, sizes = run
    refusal = _size_refusal(command, *sizes)
    tmp_path = tmp_path_factory.mktemp("sizes")
    out = tmp_path / "x.csv"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("pvreflect.cli.build_problem", _built)
        for argv in _size_argvs(tmp_path, command, *sizes):
            if refusal is None:
                with pytest.raises(_Built):
                    run_cli([*argv, "--out", str(out)])
                continue
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run_cli([*argv, "--out", str(out)]) == 2, argv
            assert err.getvalue().splitlines()[0] == f"error={refusal}", argv
            assert not out.exists()


#: one value each checked setting admits, as command-line text
VALID = {"seed": "5", "preset": "geometric", "replicates": "3", "workers": "2", "n": "16",
         "tol": "1e-3", "scheme": "uniform", "hurst": "0.7", "dimension": "2",
         "driver-steps": "64", "horizon": "2", "n0": "8", "levels": "3", "steps": "64",
         "cases": "2", "p": "2"}
#: each command's first work call, which a run reaches once every check passed
FIRST_WORK = {"simulate": "pvreflect.cli.build_problem",
              "convergence": "pvreflect.cli.build_problem",
              "fbm": "pvreflect.cli.sample_fbm", "verify": "pvreflect.campaigns.iter_campaigns",
              "pvar": "pvreflect.cli.read_path_csv"}


def _size_refusal_of(command, name, value):
    """`_size_refusal` of a run at its defaults with ``name`` set to ``value``."""
    if command not in ("simulate", "convergence"):
        return None
    preset = PROBLEM_PRESETS[value if name == "preset" else "linear-reflected"]
    sizes = {"dimension": preset.dim, "replicates": 1, "driver-steps": preset.driver_steps,
             "n": 256, "n0": 16, "levels": 6 if command == "convergence" else 1,
             "horizon": preset.horizon, "tol": None, name: value}
    return _size_refusal(command, sizes["dimension"], sizes["replicates"],
                         sizes["driver-steps"], sizes["n" if command == "simulate" else "n0"],
                         sizes["levels"], sizes["horizon"], sizes["tol"])


@pytest.mark.parametrize("command", sorted(SETTINGS))
def test_every_admitted_value_of_every_checked_setting_reaches_the_first_work(
        tmp_path, capsys, monkeypatch, command):
    # the valid half of the test above and of the refused-value test: a value
    # its row admits is refused only by the size budget, and otherwise the run
    # reaches its command's first work call
    monkeypatch.setattr(FIRST_WORK[command], _built)
    base = ["pvar", "--input", ZIGZAG] if command == "pvar" else [command]
    out, cfg = tmp_path / "x.csv", tmp_path / "ok.ini"
    for (name, section, cast, _, _, check), flagged in _checked_rows(command):
        admitted = []
        for text in CANDIDATES[cast] + [VALID[name]]:
            try:
                check(name, cast(text))
            except PvreflectError:
                continue
            admitted.append(text)
        assert VALID[name] in admitted
        for text in admitted:
            refusal = _size_refusal_of(command, name, cast(text))
            cfg.write_text(f"[{section}]\n{name} = {text}\n")
            for argv in [[f"--{name}={text}"]] * flagged + [["--config", str(cfg)]]:
                if refusal is None:
                    with pytest.raises(_Built):
                        run_cli([*base, *argv, "--out", str(out)])
                    out.unlink(missing_ok=True)  # verify opens its output first
                    continue
                assert run_cli([*base, *argv, "--out", str(out)]) == 2, argv
                assert capsys.readouterr().err.splitlines()[0] == f"error={refusal}"
                assert not out.exists()


# ---------------------------------------------------------------------------
# runtime dependencies
# ---------------------------------------------------------------------------

_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import pvreflect
from pvreflect import FbmSpec, sample_fbm
from pvreflect.cli import main
sample_fbm(FbmSpec(hurst=0.7, steps=64), method="cholesky")
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


def test_cli_runs_without_scipy(tmp_path):
    # the runtime needs numpy alone; scipy serves only the test oracles
    runs = [
        ["simulate", "--preset", "fbm-reflected", "--replicates", "2", "--n", "16",
         "--driver-steps", "64", "--out", str(tmp_path / "s.csv")],
        ["convergence", "--preset", "geometric", "--levels", "2",
         "--out", str(tmp_path / "c.csv")],
        ["fbm", "--steps", "64", "--out", str(tmp_path / "f.csv")],
        ["verify", "--cases", "5", "--out", str(tmp_path / "v.csv")],
        ["pvar", "--input", ZIGZAG, "--p", "2", "--out", str(tmp_path / "p.txt")],
    ]
    src = os.path.dirname(os.path.dirname(pvreflect.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in ("s.csv", "c.csv", "f.csv", "v.csv", "p.txt"):
        assert (tmp_path / name).stat().st_size > 0
