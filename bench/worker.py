"""One workload process: runs pvreflect CLI ops in-process and checks each output.

Started by ``bench/run.py`` with the thread-count variables pinned to 1.  One
op is one ``pvreflect.cli.main(argv)`` call writing to a file.  Modes:

* ``setup``:   import ``pvreflect.cli``, prepare the inputs, print ``ready``,
  then print the time of one ``reference.reference()`` call;
* ``measure``: one warm-up op, timed ops until ``--seconds`` have passed, each
  between two calls of ``reference.reference()``, then the negative control
  (``verify`` with ``PVREFLECT_TEST_CORRUPT=1``, which must be counted as
  failed);
* ``trace``:   one warm-up op, then pairs of one untraced and one traced op on
  the same input until ``--seconds`` have passed.

The warm-up op runs the first timed op's input, so every run compares the
bytes of two ops on the same input.

The last line of standard output is one JSON object describing every op.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: op i runs with CLI seed ``(seed << SEED_SHIFT) + i``: every timed op gets
#: its own input, so a run's median covers many inputs, and no two workload
#: seeds share one
SEED_SHIFT = 20

CORRUPT_ENV = "PVREFLECT_TEST_CORRUPT"
NEGATIVE_CASES = 8


class BadOutput(Exception):
    pass


def sub_seed(seed: int, op_index: int) -> int:
    return ((seed << SEED_SHIFT) + op_index) % (1 << 64)


# ---------------------------------------------------------------------------
# output checks: each returns the number of completed items or raises
# ---------------------------------------------------------------------------

def _footer(lines: list[str]) -> dict[int, dict[str, str]]:
    """``# [rep=r] key=value ...`` lines, grouped by replicate."""
    out: dict[int, dict[str, str]] = {}
    for line in lines:
        pairs = dict(tok.split("=", 1) for tok in line[1:].split())
        rep = int(pairs.pop("rep", 0))
        out.setdefault(rep, {}).update(pairs)
    return out


def check_simulation(text: str, replicates: int, tol: float | None) -> int:
    import numpy as np

    lines = text.splitlines()
    if not lines:
        raise BadOutput("empty output")
    header = lines[0].split(",")
    prefix = ["rep", "t"] if replicates > 1 else ["t"]
    d = (len(header) - len(prefix)) // 2
    expected = prefix + [f"x{i + 1}" for i in range(d)] + [f"k{i + 1}" for i in range(d)]
    if d < 1 or header != expected:
        raise BadOutput(f"unexpected header {lines[0]!r}")
    body = [line for line in lines[1:] if not line.startswith("#")]
    try:
        data = np.loadtxt(io.StringIO("\n".join(body)), delimiter=",", ndmin=2)
        diagnostics = _footer([line for line in lines[1:] if line.startswith("#")])
    except ValueError as exc:
        raise BadOutput(f"output does not parse: {exc}") from None
    if data.shape[1] != len(header) or not np.isfinite(data).all():
        raise BadOutput("rows are not finite numbers of the header's width")
    reps = data[:, 0].astype(int) if replicates > 1 else np.zeros(len(data), dtype=int)
    if sorted(diagnostics) != list(range(replicates)) or set(reps) != set(diagnostics):
        raise BadOutput("replicates in rows and footer do not match")
    for rep, diag in diagnostics.items():
        block = data[reps == rep]
        k = block[:, -d:]
        if (k[0] > 0.0).any():
            raise BadOutput(f"replicate {rep}: k starts above 0")
        if len(block) > 1 and np.diff(k, axis=0).min() < -1e-12:
            raise BadOutput(f"replicate {rep}: k decreases by more than 1e-12")
        if float(diag.get("steps", "nan")) != len(block):
            raise BadOutput(f"replicate {rep}: footer steps != {len(block)} rows")
        if tol is not None and not float(diag.get("cauchy_gap", "nan")) < tol:
            raise BadOutput(f"cauchy_gap {diag.get('cauchy_gap')} is not below {tol}")
    return replicates


def check_verify(text: str, cases: int) -> int:
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or rows[0] != ["campaign", "case", "check", "lhs", "rhs",
                                    "margin", "pass"]:
        raise BadOutput("unexpected verify header")
    body, summary = rows[1:-1], rows[-1]
    try:
        total, passed, failed = (int(v) for v in summary[3:6])
    except ValueError:
        raise BadOutput(f"summary row does not parse: {summary}") from None
    all_pass = (summary[0] == "summary" and summary[6] == "1" and failed == 0
                and total == passed == len(body))
    if not all_pass or any(row[6] != "1" for row in body):
        raise BadOutput(f"verify summary is not all-pass: {','.join(summary)}")
    campaigns = {row[0] for row in body}
    items = {(row[0], row[1]) for row in body}
    if len(items) != len(campaigns) * cases:
        raise BadOutput(f"{len(items)} campaign cases, expected {len(campaigns)} x {cases}")
    return len(items)


#: workload name -> (CLI arguments before --seed/--out, output check)
WORKLOADS = {
    "ensemble": ("simulate --preset fbm-reflected --replicates 16 --n 1024 --workers 1",
                 functools.partial(check_simulation, replicates=16, tol=None)),
    "refine": ("simulate --preset fbm-reflected --dimension 1 --driver-steps 8192 "
               "--tol 1e-4 --n 64",
               functools.partial(check_simulation, replicates=1, tol=1e-4)),
    "verify": ("verify --cases 100", functools.partial(check_verify, cases=100)),
}


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

class Runner:
    """Runs ops of one workload and keeps the output digest of each input."""

    def __init__(self, cli, young, workload: str, seed: int, workdir: Path):
        self.cli = cli
        self.young = young
        self.command, self.check = WORKLOADS[workload]
        self.seed = seed
        self.out_path = workdir / f"{workload}-{os.getpid()}.csv"
        self.digests: dict[tuple[str, ...], str] = {}

    def run(self, op_index: int, tracer=None, command: str | None = None,
            check=None) -> dict:
        seed = sub_seed(self.seed, op_index)
        command = command or self.command
        check = check or self.check
        argv = command.split() + ["--seed", str(seed), "--out", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        gc.collect()
        zeta0 = self._zeta_counts()
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a harness error
            traceback.print_exc()
            code = None
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        data = self.out_path.read_bytes() if self.out_path.exists() else b""
        op = {"seed": seed, "seconds": seconds, "ok": False, "items": 0,
              "traced": tracer is not None, "sha256": hashlib.sha256(data).hexdigest()}
        try:
            if code != 0:
                raise BadOutput(f"exit code {code}")
            text = data.decode()
            op["items"] = check(text)
            if self.digests.setdefault(tuple(argv), op["sha256"]) != op["sha256"]:
                raise BadOutput("bytes differ from an earlier op with the same seed")
            op["ok"] = True
        except (BadOutput, UnicodeDecodeError) as exc:
            op["reason"] = str(exc)
        if tracer is not None:
            zeta1 = self._zeta_counts()
            op["layers"] = tracer.op_metrics(len(data), zeta1[0] - zeta0[0],
                                             zeta1[1] - zeta0[1])
        return op

    def _zeta_counts(self) -> tuple[int, int]:
        """Hits and misses of the zeta cache so far, (0, 0) without a cache."""
        cache_info = getattr(self.young.zeta, "cache_info", None)
        if cache_info is None:
            return 0, 0
        info = cache_info()
        return info.hits, info.misses

    def negative_control(self) -> dict:
        os.environ[CORRUPT_ENV] = "1"
        try:
            return self.run(0, command=f"verify --cases {NEGATIVE_CASES}",
                            check=functools.partial(check_verify, cases=NEGATIVE_CASES))
        finally:
            del os.environ[CORRUPT_ENV]


def _measure(runner: Runner, seconds: float) -> dict:
    from reference import reference

    ops = [dict(runner.run(0), warmup=True)]
    before = reference()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        op = runner.run(i)
        after = reference()
        # the core's speed during the op, from the references on either side
        ops.append(dict(op, warmup=False, ref_s=(before + after) / 2.0))
        before = after
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"ops": ops, "peak_rss_mb": peak_rss_mb,
            "negative_control": runner.negative_control()}


def _trace(runner: Runner, seconds: float) -> dict:
    from spans import Tracer

    tracer = Tracer()
    ops = [dict(runner.run(0), warmup=True)]
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        # alternate which of the pair goes first so neither gets the warmer slot
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                try:
                    op = runner.run(i, tracer=tracer)
                finally:
                    tracer.uninstall()
            else:
                op = runner.run(i)
            ops.append(dict(op, warmup=False))
        i += 1
    return {"ops": ops, "unpatched": tracer.missing}


def _import_pvreflect():
    src = ROOT / "src"
    if not (src / "pvreflect" / "cli.py").is_file():
        sys.exit(f"error: {src / 'pvreflect'} not found; run from a pvreflect checkout")
    sys.path.insert(0, str(src))
    import pvreflect
    import pvreflect.cli
    import pvreflect.young

    if Path(pvreflect.__file__).resolve().parent != src / "pvreflect":
        sys.exit(f"error: imported pvreflect from {pvreflect.__file__}, not {src}")
    return pvreflect.cli, pvreflect.young


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    if args.mode != "setup" and hasattr(os, "sched_setaffinity"):
        # one core for the ops and the references next to them: the thread
        # pool of ``simulate --replicates`` could otherwise run the op on
        # another core than the one the reference measured
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    cli, young = _import_pvreflect()
    runner = Runner(cli, young, args.workload, args.seed, args.workdir)
    if args.mode == "setup":
        print("ready", flush=True)
        from reference import reference

        # the core's speed just after the set-up; the first call warms the
        # reference's own code paths
        reference()
        print(reference(), flush=True)
        return 0

    import numpy
    import scipy

    result = (_measure if args.mode == "measure" else _trace)(runner, args.seconds)
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
