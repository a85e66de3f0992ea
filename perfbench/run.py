"""Benchmark of the dualcircle package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hh-deep --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json; layers.json
maps every per-layer metric to the end-to-end metric it should move.
With ``--trace 0`` the last stdout line holds every end-to-end metric;
with ``--trace 1`` it holds every per-layer metric from a traced run.
The lines before it state sample counts, the inputs drawn and the
environment.  Exits 2 without a result when the package is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# fresh interpreters timed for setup_s; one more runs first, untimed, so
# every timed start finds the bytecode cache written
SETUP_SAMPLES = 9
# fresh workers that share an untraced run's seconds.  A job's time varies
# with its process by a few percent (memory layout, hash order), and
# pooling two processes narrows that share of the spread between runs.
MEASURING_WORKERS = 2
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def launch(root: Path, args, seconds: float, deadline: float,
           setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the workload finished")
    cmd += ["--launched", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def job_metrics(parts: list[dict], key: str) -> dict:
    """wall_s, job_p50_s and job_p90_s over the workers' pooled job times:
    each job counts with the median of all its runs."""
    per_job = [statistics.median(t for part in parts for t in part[key][i])
               for i in range(len(parts[0][key]))]
    return {"wall_s": sum(per_job), "job_p50_s": statistics.median(per_job),
            "job_p90_s": nearest_rank(per_job, 0.9)}


def pooled(parts: list[dict]) -> dict:
    """One result from the untraced workers' results."""
    res = dict(parts[0])
    for key in ("attempted", "failed"):
        res[key] = sum(part[key] for part in parts)
    for key in ("failures", "problems"):
        res[key] = [line for part in parts for line in part[key]]
    res["metrics"] = dict(job_metrics(parts, "job_s"),
                          peak_rss_mb=max(part["peak_rss_mb"] for part in parts))
    res["uncorrected"] = job_metrics(parts, "raw_job_s")
    res["kernel_quartiles_s"] = [part["kernel_quartiles_s"] for part in parts]
    runs = [sum(len(part["raw_job_s"][i]) for part in parts)
            for i in range(len(parts[0]["raw_job_s"]))]
    res["samples"] = dict(parts[0]["samples"], workers=len(parts),
                          runs_per_job=[min(runs), max(runs)],
                          speed_samples=sum(p["samples"]["speed_samples"] for p in parts))
    return res


def run(root: Path, args) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    deadline = time.monotonic() + TIME_LIMIT_S
    if args.trace:
        res = launch(root, args, args.seconds, deadline)
        values, samples = dict(res["metrics"]), dict(res["samples"])
    else:
        launch(root, args, 0, deadline, setup_only=True)
        setups = [launch(root, args, 0, deadline, setup_only=True)
                  for _ in range(SETUP_SAMPLES - MEASURING_WORKERS)]
        parts = [launch(root, args, args.seconds / MEASURING_WORKERS, deadline)
                 for _ in range(MEASURING_WORKERS)]
        setups += parts
        res = pooled(parts)
        values, samples = dict(res["metrics"]), dict(res["samples"])
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        samples["setup_s"] = len(setups)
        res["uncorrected"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not measure {missing}")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}")
    print(f"# inputs {json.dumps(res['inputs'])}, {res['jobs_per_round']} jobs "
          f"per round, {res['cells_compared']} cells compared, "
          f"{res['digests_checked']} outputs digest-checked")
    if "uncorrected" in res:
        print(f"# uncorrected {json.dumps(res['uncorrected'])}, speed kernel "
              f"quartiles {json.dumps(res['kernel_quartiles_s'])} s")
    print(f"# samples {json.dumps(samples, sort_keys=True)}")
    print(f"# fail_ratio {res['failed'] / res['attempted']} "
          f"({res['failed']} of {res['attempted']} jobs)")
    for line in res["failures"] + res["problems"]:
        print(f"# FAILED {line}")
    return {
        "correct": res["failed"] == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    # leave through SystemExit on SIGTERM, so subprocess.run kills the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "dualcircle" / "__init__.py").is_file():
        print("error: run from the root of a dualcircle checkout "
              "(src/dualcircle is missing)", file=sys.stderr)
        return 2
    try:
        result = run(root, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
