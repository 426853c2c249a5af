"""One benchmark invocation in a fresh process.

Set-up is everything from process start to ready: importing numpy and
beamloc, writing the workload's generated config and `load_run_config`.
Then `beamloc.cli.main` runs once with `--jobs 1`, optionally under the
tracer, and the timings go to a JSON result file:

    python3 perfbench/worker.py --workload mlp-study --seed 1 --work DIR \
        --result DIR/result.json --spawned-at <time.monotonic() of the parent>
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

from tracing import Tracer, layer_metrics, originals_restored, snapshot_sites
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, help="directory for the config and the program's output")
    parser.add_argument("--result", required=True, help="JSON file the timings are written to")
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--trace", action="store_true", help="record spans around every layer call")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (part of set-up, like the program's own import)
    import yaml

    import beamloc.cli
    from beamloc.config import load_run_config

    workload = WORKLOADS[args.workload]
    config_path = os.path.join(args.work, "config.yaml")
    out_dir = os.path.join(args.work, "out")
    with open(config_path, "w") as fh:
        yaml.safe_dump(workload.config(args.seed, out_dir), fh, sort_keys=False)
    load_run_config(config_path)
    setup_s = time.monotonic() - args.spawned_at

    result = {"setup_s": setup_s}
    tracer = Tracer(args.run_id) if args.trace else None
    saved = snapshot_sites()
    with tracer or contextlib.nullcontext():
        start, cpu = time.perf_counter(), time.process_time()
        result["exit_code"] = beamloc.cli.main([workload.command, "--config", config_path, "--jobs", "1"])
        result["wall_s"] = time.perf_counter() - start
        result["cpu_s"] = time.process_time() - cpu
    if tracer is not None:
        result["restored"] = originals_restored(saved)
        result["layers"] = layer_metrics(tracer)
        with open(os.path.join(args.work, "spans.json"), "w") as fh:
            json.dump(tracer.to_json(), fh)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
