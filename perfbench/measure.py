"""The measuring part of a worker, imported by worker.py once its
speedometer runs.

Imports the package from the checkout's ``src``, generates the seeded
inputs, then runs the workload's jobs for the time given.  Prints one
JSON line with the measurements.

With ``--setup-only`` it stops once the first job is ready, so run.py can
time interpreter start, import and input generation on their own.  With
``--trace 1`` it runs one untraced round (to state the tracing overhead)
and then traced rounds, and reports the per-layer figures instead.
Set-up time and untraced job times are corrected for the machine's speed
(speed.py); traced runs report raw seconds.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the package path above)
from tracer import HOOK_COUNTERS, TARGETS, Tracer, span_name  # noqa: E402

ROUTE_SERIES = {"weight": "cyclic.weight_homology_fg",
                "cell": "cyclic.cell_weight_homology_fg",
                "oracle": "cyclic.oracle"}
# per layer: its metrics, what they should move, and the workload where
# it does its work (and so must record calls)
LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())


def untraced(jobs, digests, seconds, meter) -> dict:
    """Run the jobs in order, pass after pass, until ``seconds`` are used.

    In a later pass a job is skipped once its last time no longer fits in
    the time left, so cheap jobs repeat more often than expensive ones and
    every job runs at least once.  Returns each job's times, raw and
    corrected for the machine's speed (see speed.py).
    """
    start = time.perf_counter()
    raw = [[] for _ in jobs]
    spans = [[] for _ in jobs]
    failures, first_results = [], []
    ran = True
    while ran:
        ran = False
        for i, job in enumerate(jobs):
            if raw[i] and time.perf_counter() - start + raw[i][-1] > seconds:
                continue
            t0 = time.perf_counter()
            took, result, failure = workloads.timed_job(job, digests=digests)
            raw[i].append(took)
            spans[i].append((t0, time.perf_counter()))
            if len(raw[i]) == 1:
                first_results.append(result)
            if failure:
                failures.append(f"job {i}: {failure}")
            ran = True
    meter.stop()
    kernel_s = meter.kernel_s()
    runs = [len(r) for r in raw]
    # corrected once the run is over, so a short job's speed comes from the
    # samples on both sides of it
    return {"job_s": [[meter.corrected(a, b) for a, b in runs_of_job]
                      for runs_of_job in spans],
            "raw_job_s": raw,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "kernel_quartiles_s": statistics.quantiles(kernel_s, n=4),
            "problems": [], "failures": failures,
            "attempted": sum(runs), "first_results": first_results,
            "samples": {"jobs": len(jobs), "runs_per_job": [min(runs), max(runs)],
                        "speed_samples": len(kernel_s)}}


def _round_layers(rnd, stats, spans, jobs) -> dict:
    """Per-layer figures of one traced round."""
    out = {}
    for module, path, _ in TARGETS:
        name = span_name(module, path)
        for suffix in ("calls", "s", "self_s"):
            out[f"{name}.{suffix}"] = stats[f"{name}.{suffix}"]
    for key in HOOK_COUNTERS:
        out[key] = stats[key]
    queries = stats["cyclic.NormalizedHochschild.homology.calls"]
    out["cyclic.NormalizedHochschild.homology.nonzero_ratio"] = (
        stats["cyclic.NormalizedHochschild.homology.nonzero"] / queries
        if queries else 0.0)
    out["cyclic.cells_compared"] = sum(r["cells"] for r in rnd.results)

    # n-series: route time per weight, summed over the round's modules
    for route, prefix in ROUTE_SERIES.items():
        for w in workloads.HH_DEEP_WEIGHTS:
            out[f"{prefix}.w{w}.s"] = sum(
                r.get("route_s", {}).get(f"{route}.w{w}", 0.0) for r in rnd.results)
        w4, w5 = out[f"{prefix}.w4.s"], out[f"{prefix}.w5.s"]
        out[f"{prefix}.growth"] = w5 / w4 if w4 else 0.0

    # p-series: irregular_indices time per prime band
    points = []
    for name, start, end, _, job in spans:
        if name == "primes.irregular_indices" and "band" in jobs[job]:
            out[f"primes.irregular_indices.band{jobs[job]['band']}.s"] = end - start
            points.append((math.log(jobs[job]["p"]), math.log(end - start)))
    for band in range(1, workloads.REGULARITY_BANDS + 1):
        out.setdefault(f"primes.irregular_indices.band{band}.s", 0.0)
    out["primes.irregular_indices.growth"] = _slope(points)
    return out


def _slope(points) -> float:
    """Least-squares slope of y on x; 0 with fewer than two distinct x."""
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    return (sum((x - mx) * (y - my) for x, y in points)
            / sum((x - mx) ** 2 for x, _ in points))


def another_round(start: float, seconds: float, rounds) -> bool:
    """True until a round has run and the next would end past ``seconds``."""
    return not rounds or time.perf_counter() - start + rounds[-1].wall_s <= seconds


def is_count(name: str) -> bool:
    return not (name.endswith("_s") or name.endswith(".s")
                or name.endswith("growth") or name.endswith("ratio"))


def traced(jobs, digests, seconds, workload, out_dir) -> dict:
    start = time.perf_counter()
    plain = workloads.run_round(jobs, digests=digests)
    tracer = Tracer()
    tracer.install()
    rounds, per_round = [], []
    while another_round(start, seconds, rounds):
        first_span = len(tracer.spans)
        rnd = workloads.run_round(jobs, tracer=tracer, digests=digests)
        stats = tracer.reset()
        rounds.append(rnd)
        per_round.append(_round_layers(rnd, stats, tracer.spans[first_span:], jobs))
        if len(rounds) > 1:  # keep the first traced round's spans only
            del tracer.spans[first_span:]
    tracer.uninstall()
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{workload}.jsonl")

    layers, problems = {}, []
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if is_count(name):
            if len(set(values)) > 1:
                problems.append(f"{name} differs between rounds: {values}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    traced_wall = statistics.median(r.wall_s for r in rounds)
    layers["trace.overhead_s"] = traced_wall - plain.wall_s
    for layer, spec in LAYERS.items():
        if spec["workload"] == workload and not any(
                v for k, v in layers.items()
                if k.startswith(layer + ".") and k.endswith(".calls")):
            problems.append(f"layer {layer} recorded no calls on {workload}")
    return {"metrics": layers, "problems": problems,
            "failures": [f for r in [plain] + rounds for f in r.failures],
            "attempted": len(jobs) * (1 + len(rounds)),
            "first_results": plain.results,
            "samples": {"traced_rounds": len(rounds), "untraced_rounds": 1,
                        "spans": len(tracer.spans)}}


def main(args, meter) -> int:
    """Run the workload ``args`` name; ``meter`` is already sampling."""
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    jobs = workloads.make_inputs(args.workload, args.seed)
    digests = workloads.load_json("verbs_digests.json")
    ready = time.perf_counter()
    # perf_counter reads CLOCK_MONOTONIC, one clock for every process; the
    # interpreter's start, before the first sample, counts at the speed of
    # the samples taken during the import
    setup = {"setup_s": meter.corrected(args.launched, ready),
             "raw_setup_s": ready - args.launched}
    if args.setup_only or args.trace:
        meter.stop()
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    if args.trace:
        res = traced(jobs, digests, args.seconds, args.workload, ROOT / ".bench_out")
    else:
        res = untraced(jobs, digests, args.seconds, meter)
    first = res.pop("first_results")
    print(json.dumps(dict(
        res, **setup, failed=len(res["failures"]),
        failures=res["failures"][:5], jobs_per_round=len(jobs),
        inputs=_describe(args.workload, jobs),
        cells_compared=sum(r["cells"] for r in first),
        digests_checked=sum(bool(r.get("digest_checked")) for r in first))))
    return 0


def _describe(workload: str, jobs: list[dict]) -> object:
    if workload == "hh-deep":
        return {"module": jobs[0]["module"]}
    if workload == "regularity":
        return {"primes": [j["p"] for j in jobs]}
    return {"jobs": len(jobs)}
