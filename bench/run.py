"""pvreflect benchmark: one workload, measured through the public CLI entry point.

Usage, from the root of a pvreflect checkout:

    python3 bench/run.py --workload {ensemble,refine,verify} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: one fresh worker process runs
ops for S seconds, then several fresh interpreters time the set-up.  Each
time is scaled by a reference timed next to it on the same core (see
``reference.py``); the unscaled wall times are printed too.
``--trace 1`` measures the per-layer metrics: two fresh worker processes each
alternate untraced and traced ops for S/2 seconds; the counts that must
repeat are compared across the two.  Metric names and units come from
``BENCHMARK.json``; ``bench/README.md`` says what each one means.

Every op's output is checked (see ``worker.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every check held, 1 when one did not,
and 2 when the benchmark could not run at all (no result line then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("ensemble", "refine", "verify")

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_SAMPLES = 5
#: a sample needs this many samples above it to count as the tail
TAIL_BEYOND = 10

#: counts that must repeat exactly for ops with the same inputs
EXACT_COUNTS = (
    "sde.steps",
    "sde.coeff_calls",
    "sde.solve.levels",
    "pathcore.pvar.cells",
    "cli.bytes_out",
)

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------

def _worker_cmd(mode: str, args, workdir: Path, seconds: float = 0.0) -> list[str]:
    return [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds),
            "--workdir", str(workdir)]


def run_worker(mode: str, args, workdir: Path, env: dict, seconds: float) -> dict:
    try:
        proc = subprocess.run(_worker_cmd(mode, args, workdir, seconds), env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=seconds + 60)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within {seconds + 60:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(args, workdir: Path, env: dict) -> tuple[float, float]:
    """Fresh interpreter until ``pvreflect.cli`` is imported and the inputs are ready.

    Returns that time and the time of the reference run by the same
    interpreter right after.
    """
    start = time.perf_counter()
    with subprocess.Popen(_worker_cmd("setup", args, workdir), env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        ref_line = proc.stdout.readline()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("setup worker did not exit") from None
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup worker exited with code {proc.returncode}")
    try:
        return elapsed, float(ref_line)
    except ValueError:
        raise BenchError(f"setup worker printed no reference time: {ref_line!r}") from None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, int]:
    """Highest sample with at least TAIL_BEYOND samples above it, and its rank.

    With too few samples the maximum is returned.
    """
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], rank


def time_metrics(seconds: list[float], items: list[int]) -> dict:
    """op_s.p50, op_s.tail and items_per_s of ops taking ``seconds`` each."""
    tail_s, _ = tail(seconds)
    # the median of each op's throughput, like op_s.p50, so a burst of slow
    # ops moves it no more than it moves the median op time
    return {"op_s.p50": statistics.median(seconds), "op_s.tail": tail_s,
            "items_per_s": statistics.median(n / s for n, s in zip(items, seconds))}


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    timed = [op for op in result["ops"] if not op["warmup"]]
    wall = [op["seconds"] for op in timed]
    scaled = [op["seconds"] * NOMINAL_S / op["ref_s"] for op in timed]
    items = [op["items"] if op["ok"] else 0 for op in timed]
    metrics = {
        **time_metrics(scaled, items),
        "setup_s": statistics.median(s * NOMINAL_S / ref for s, ref in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    _, rank = tail(wall)
    wall_metrics = time_metrics(wall, items)
    notes = [
        f"op_s.p50: median of {len(wall)} timed ops, each scaled to the reference "
        f"speed (reference median {statistics.median(op['ref_s'] for op in timed):.4f} s, "
        f"nominal {NOMINAL_S} s)",
        f"op_s.tail: rank {rank} of {len(wall)} "
        f"(p{100.0 * rank / len(wall):.0f}, {len(wall) - rank} samples beyond)",
        f"items_per_s: median over {len(wall)} timed ops of items / scaled op time "
        f"({sum(items)} items in {sum(wall):.3f} s of wall time in all)",
        f"setup_s: median of {len(setups)} fresh interpreters, each scaled by a reference "
        "run in the same interpreter right after",
        "wall time, unscaled: " + ", ".join(
            f"{name} {value:.4f}" for name, value in [
                *wall_metrics.items(), ("setup_s", statistics.median(s for s, _ in setups))]),
    ]
    return metrics, notes


def per_layer(results: list[dict]) -> tuple[dict, list[str]]:
    ops = [op for r in results for op in r["ops"] if not op["warmup"]]
    traced = [op for op in ops if op["traced"]]
    # median_low keeps each value one that an op produced, so counts stay whole
    metrics = {key: statistics.median_low(op["layers"][key] for op in traced)
               for key in traced[0]["layers"]}
    traced_p50 = statistics.median(op["seconds"] for op in traced)
    untraced_p50 = statistics.median(op["seconds"] for op in ops if not op["traced"])
    metrics["trace_overhead"] = traced_p50 / untraced_p50 - 1.0
    notes = [f"per-layer metrics: per-op medians over {len(traced)} traced ops",
             f"trace_overhead: traced op_s.p50 {traced_p50:.4f} s / untraced "
             f"op_s.p50 {untraced_p50:.4f} s - 1"]
    return metrics, notes


def count_mismatches(results: list[dict]) -> list[str]:
    """Exact counts that differ between traced ops on the same inputs."""
    if any(not any(op["traced"] for op in r["ops"]) for r in results):
        return ["a traced run completed no traced op"]
    first: dict[int, dict] = {}
    bad = []
    for run, result in enumerate(results):
        for op in result["ops"]:
            if not op["traced"]:
                continue
            seen = first.setdefault(op["seed"], op["layers"])
            bad += [f"{key} differs for seed {op['seed']} in traced run {run + 1}: "
                    f"{op['layers'][key]} != {seen[key]}"
                    for key in EXACT_COUNTS if op["layers"][key] != seen[key]]
    return bad


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = ROOT / "src" / "pvreflect"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
            **versions, "git_commit": commit or "unavailable",
            "src_sha256": digest.hexdigest()}


# ---------------------------------------------------------------------------

def measure(args, spec: dict, workdir: Path, env: dict) -> dict:
    names = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        results = [run_worker("trace", args, workdir, env, args.seconds / 2.0)
                   for _ in range(2)]
        metrics, notes = per_layer(results)
        problems = count_mismatches(results)
        for result in results:
            if result["unpatched"]:
                notes.append("not traced (name not found): " + ", ".join(result["unpatched"]))
    else:
        result = run_worker("measure", args, workdir, env, float(args.seconds))
        setups = [setup_seconds(args, workdir, env) for _ in range(SETUP_SAMPLES)]
        metrics, notes = end_to_end(result, setups)
        results = [result]
        control = result["negative_control"]
        problems = [] if not control["ok"] else [
            "negative control: a corrupted verify op was not counted as failed"]
        notes.append(f"negative_control: fail_rate {0 if control['ok'] else 1} "
                     f"(1 corrupted verify op, {control.get('reason', 'passed')})")
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise BenchError("metrics not computed: " + ", ".join(missing))

    ops = [op for r in results for op in r["ops"]]
    failed = [op for op in ops if not op["ok"]]
    problems += [f"op with seed {op['seed']} failed: {op.get('reason')}" for op in failed]
    digests = {}
    for op in ops:
        digests.setdefault(str(op["seed"]), op["sha256"])
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(results[0]["versions"]),
        "correct": not problems, "problems": problems,
        "attempted": len(ops), "failed": len(failed),
        "fail_rate": len(failed) / len(ops),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
        "notes": notes,
        "output_sha256": digests,
        "ops": [{key: op[key] for key in ("seed", "seconds", "ref_s", "ok", "items",
                                          "warmup", "traced") if key in op} for op in ops],
    }


def report(record: dict) -> None:
    print(f"workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("environment " + " ".join(f"{k}={v}" for k, v in record["environment"].items()))
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_rate':<40} {record['fail_rate']:>16.6g} "
          f"({record['failed']} failed / {record['attempted']} attempted)")
    for note in record["notes"]:
        print(f"  # {note}")
    seed, digest = next(iter(record["output_sha256"].items()))
    print(f"  # output sha256 of seed {seed}: {digest}; all {len(record['output_sha256'])} "
          "in the record file (information only)")
    for problem in record["problems"]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        if not (ROOT / "src" / "pvreflect" / "cli.py").is_file():
            raise BenchError(f"no pvreflect sources under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = {**os.environ, **PINNED_ENV}
        (BENCH / "_work").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=BENCH / "_work"))
        try:
            record = measure(args, spec, workdir, env)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
