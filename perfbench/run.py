"""beamloc benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload mlp-study --seed 1 --seconds 40 --trace 0

Each invocation of the program is a fresh process (`perfbench/worker.py`)
that writes the workload's seeded config and runs `beamloc.cli.main` once
with `--jobs 1`; invocations run one after another (a closed loop with one
client) until `--seconds` is used up. Every invocation's outputs are checked,
and compared byte for byte with the first invocation's.

`--trace 0` reports the end-to-end metrics as medians over the invocations.
`--trace 1` alternates untraced and traced invocations and reports the
per-layer metrics from the traced ones, plus `trace.overhead_s`, the traced
minus the untraced median wall time. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_outputs
from tracing import LAYER_METRICS
from workloads import WORKLOADS

STARTED = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# exit within 180 s: no invocation may start or run past this point
HARD_LIMIT_S = 165.0
# BLAS threads per worker, at most nproc. With 2 threads on 2 cores the MLP
# workload burned more CPU than wall time for no speed-up.
BLAS_THREADS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_mean_m", "m"),
    ("error_p90_m", "m"),
    ("success_ratio", "ratio"),
)


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "commit": commit,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def invoke(workload, seed: int, work: str, traced: bool, run_id: str) -> tuple[dict | None, str]:
    """Run one fresh worker process; (result or None, diagnostic text)."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload.name, "--seed", str(seed),
           "--work", work, "--result", result_path, "--run-id", run_id]
    if traced:
        cmd.append("--trace")
    timeout = HARD_LIMIT_S - (time.monotonic() - STARTED)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"{run_id}: timed out"
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, f"{run_id}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}"
    with open(result_path) as fh:
        result = json.load(fh)
    if result["exit_code"] != 0:
        return result, f"{run_id}: beamloc exited {result['exit_code']}\n{proc.stderr[-2000:]}"
    return result, ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="beamloc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time for this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "beamloc", "cli.py")):
        print(f"error: beamloc sources not found under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    work = os.path.join(HERE, ".work", workload.name)  # holds the last invocation's files

    attempted = failed = 0
    problems: list[str] = []
    first = None  # Outcome of the first invocation, the byte reference
    plain, traced = [], []  # worker results
    durations = []
    start = time.monotonic()
    min_invocations = 4 if args.trace else 3
    n = 0
    while True:
        is_traced = bool(args.trace) and n % 2 == 1
        began = time.monotonic()
        result, note = invoke(workload, args.seed, work, is_traced, f"{workload.name}-{args.seed}-{n}")
        durations.append(time.monotonic() - began)
        n += 1
        attempted += workload.operations
        if result is None:
            failed += workload.operations
            problems.append(note)
            break
        outcome = check_outputs(workload, os.path.join(work, "out"))
        first = first or outcome
        same = outcome.shared_digest == first.shared_digest
        bad = sum(1 for ok, d, ref in zip(outcome.ok, outcome.digests, first.digests)
                  if not (ok and same and d == ref))
        failed += bad
        if note:
            problems.append(note)
        problems += outcome.problems
        if bad and not outcome.problems:
            problems.append(f"invocation {n - 1}: output bytes differ from the first invocation")
        if is_traced:
            if not result["restored"]:
                problems.append(f"invocation {n - 1}: wrapped module attributes not restored")
            traced.append(result)
        else:
            plain.append(result)
        spent = time.monotonic() - start
        if n >= min_invocations and spent + durations[-1] > args.seconds:
            break
        if time.monotonic() - STARTED + durations[-1] > HARD_LIMIT_S:
            break

    if not plain or (args.trace and not traced):
        for note in problems:
            print(note, file=sys.stderr)
        print("error: no invocation completed", file=sys.stderr)
        return 1

    walls = [r["wall_s"] for r in plain]
    if args.trace:
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        values = {}
        for name, _, exact in LAYER_METRICS:
            seen = [r["layers"][name] for r in traced]
            if exact and len(set(seen)) > 1:
                problems.append(f"{name} differs between traced invocations of one seed: {seen}")
            values[name] = seen[0] if exact else statistics.median(seen)
        values["trace.overhead_s"] = statistics.median([r["wall_s"] for r in traced]) - statistics.median(walls)
        units["trace.overhead_s"] = "s"
    else:
        units = dict(END_TO_END)
        values = {
            "setup_s": statistics.median([r["setup_s"] for r in plain]),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
            "error_mean_m": first.error_mean_m,
            "error_p90_m": first.error_p90_m,
            "success_ratio": (attempted - failed) / attempted,
        }

    for note in problems:
        print(f"problem: {note}")
    print(f"{workload.name} seed={args.seed}: {len(plain)} untraced, {len(traced)} traced invocations; "
          f"fail_ratio {failed}/{attempted}")
    print("  wall_s per invocation: " + " ".join(f"{w:.3f}" for w in walls))
    print("  cpu_s per invocation: " + " ".join(f"{r['cpu_s']:.3f}" for r in plain))
    for name, value in values.items():
        print(f"  {name:55s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
