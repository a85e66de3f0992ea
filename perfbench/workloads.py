"""Seeded inputs and checked jobs for the dualcircle benchmark.

``make_inputs`` turns (workload, seed) into plain JSON data; the same seed
always gives byte-identical data.  ``run_job`` runs one job from that data
against the package and checks its answer, so a wrong, disagreeing or
vacuous answer counts as a failed job instead of a fast one.

Library calls go through module attributes (``cyclic.weight_homology_fg``,
``cli.main``) so that the traced run, which patches those attributes, sees
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

from dualcircle import cli, cyclic
from dualcircle.abgroups import FGAbGroup

WORKLOADS = ("hh-deep", "hh-wide", "verbs", "regularity")

DATA = Path(__file__).resolve().parent / "data"

# The seed whose operad-check outputs are frozen in data/verbs_digests.json.
# Every other verbs job is seed-independent and always digest-checked.
DEFAULT_SEED = 1

HH_DEEP_WEIGHTS = (1, 2, 3, 4, 5)
HH_WIDE_MODULES = 150
HH_WIDE_MAX_WEIGHT = 3
VERB_PRIMES = tuple(p for p in range(2, 200)
                    if all(p % q for q in range(2, int(p ** 0.5) + 1)))
REGULARITY_BANDS = 5


# ---------------------------------------------------------------------------
# input generation


def _hh_deep(rng: random.Random) -> list[dict]:
    # The shape of the module Z[0]+Z[1]+Z/3[2]: three consecutive degrees,
    # two free generators and one Z/2 or Z/3.  The seed draws the lowest
    # degree, which generator is torsion and its order; every such module
    # costs the same within a few percent.  A second torsion generator
    # costs a fifth more, other degree gaps split the weight-5 blocks
    # finer and an all-free or all-torsion module skips work.
    low = rng.randint(-2, 1)
    orders = [0, 0, 0]
    orders[rng.randrange(3)] = rng.choice((2, 3))
    gens = [[low + i, o] for i, o in enumerate(orders)]
    return [{"module": gens, "weights": [w]} for w in HH_DEEP_WEIGHTS]


def _hh_wide(rng: random.Random) -> list[dict]:
    # generator counts cycle 1, 2, 3 so every seed has the same mix of
    # tensor sizes; a free draw lets one seed cost twice another
    jobs = []
    for i in range(HH_WIDE_MODULES):
        gens = sorted([rng.randint(-3, 3), rng.choice((0, 2, 3, 4, 6))]
                      for _ in range(1 + i % 3))
        jobs.append({"module": gens,
                     "weights": list(range(1, HH_WIDE_MAX_WEIGHT + 1))})
    return jobs


def _verbs(rng: random.Random) -> list[dict]:
    jobs = [{"argv": ["operad", "check", "--seed", str(rng.randrange(10**6)),
                      "--trials", "1000"]} for _ in range(2)]
    jobs.append({"argv": ["hh", "verify"]})
    for p in VERB_PRIMES:
        ps = str(p)
        jobs += [{"argv": ["tc", "table1", "--p", ps]},
                 {"argv": ["tc", "table2", "--p", ps]},
                 {"argv": ["tc", "check-fr", "--p", ps, "--n", "4"]},
                 {"argv": ["tc", "controls", "--p", ps]},
                 {"argv": ["tc", "coassembly", "--i", "2", "--p", ps,
                           "--assume-regular"]}]
    for job in jobs:
        job["argv"] += ["--format", "json"]
    return jobs


def _regularity(rng: random.Random) -> list[dict]:
    bands = load_json("regularity_candidates.json")["bands"]
    jobs = []
    for i, band in enumerate(bands):
        p = rng.choice(sorted(int(q) for q in band["verdicts"]))
        jobs.append({"argv": ["tc", "coassembly", "--i", "1", "--p", str(p),
                              "--check-regularity", "--format", "json"],
                     "p": p, "band": i + 1,
                     "regular": band["verdicts"][str(p)]})
    return jobs


_GENERATORS = {"hh-deep": _hh_deep, "hh-wide": _hh_wide,
               "verbs": _verbs, "regularity": _regularity}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The job list of a workload for a seed, as JSON-ready data."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def load_json(name: str):
    return json.loads((DATA / name).read_text())


# ---------------------------------------------------------------------------
# the three Hochschild routes, compared cell by cell


def _window(gens, w: int) -> tuple[int, int]:
    """Total degrees that weight w of the module can reach: tensor degrees
    lie in [w*min, w*max] and sit in simplicial levels w - 1 and w."""
    degrees = [d for d, _ in gens]
    return w * min(degrees) + w - 1, w * max(degrees) + w


def _oracle(m, w: int, lo: int, hi: int) -> dict:
    nh = cyclic.NormalizedHochschild(m, max_level=w)
    out = {}
    for t in range(lo, hi + 1):
        h = nh.homology(t, weight=w)
        if not h.is_trivial():
            out[t] = h
    return out


ROUTES = {
    "weight": lambda m, w, lo, hi: cyclic.weight_homology_fg(w, m),
    "cell": lambda m, w, lo, hi: cyclic.cell_weight_homology_fg(w, m),
    "oracle": _oracle,
}


class JobFailed(Exception):
    """The job ran but its answer is wrong, disagrees or compared nothing."""


def _hh_job(job: dict, routes) -> dict:
    m = cyclic.GradedModule(tuple((d, o) for d, o in job["module"]))
    cells = 0
    route_s = {}
    for w in job["weights"]:
        lo, hi = _window(job["module"], w)
        got = {}
        for name, route in routes.items():
            t0 = time.perf_counter()
            got[name] = route(m, w, lo, hi)
            route_s[f"{name}.w{w}"] = time.perf_counter() - t0
            stray = [t for t, g in got[name].items()
                     if not g.is_trivial() and not lo <= t <= hi]
            if stray:
                raise JobFailed(f"{name} route has homology outside the "
                                f"window [{lo}, {hi}] at weight {w}: {stray}")
        zero = FGAbGroup.zero()
        for t in range(lo, hi + 1):
            values = {name: g.get(t, zero) for name, g in got.items()}
            if len(set(values.values())) > 1:
                raise JobFailed(f"routes disagree at weight {w}, degree {t}: "
                                + ", ".join(f"{k}={v}" for k, v in values.items()))
            if not values["weight"].is_trivial():
                cells += 1
    if cells == 0:
        raise JobFailed("comparison covered no nontrivial group")
    return {"cells": cells, "route_s": route_s}


# ---------------------------------------------------------------------------
# command-line jobs


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _expected_skip(argv: list[str], check: dict) -> bool:
    # table2 marks columns past the homotopy window of small primes
    return argv[:2] == ["tc", "table2"] and check["name"].startswith("columns ")


def _cli_job(job: dict, digests: dict) -> dict:
    argv = job["argv"]
    code, out, err = run_cli(argv)
    if code != 0:
        raise JobFailed(f"exit {code}: {err.strip()}")
    report = json.loads(out)
    statuses = [c["status"] for c in report["checks"]]
    bad = [c["name"] for c in report["checks"]
           if c["status"] != "pass" and not _expected_skip(argv, c)]
    if not report["ok"] or bad or "pass" not in statuses:
        raise JobFailed(f"checks not passed: {bad or statuses}")
    digest = hashlib.sha256(out.encode()).hexdigest()
    expected = digests.get(" ".join(argv))
    if expected is not None and expected != digest:
        raise JobFailed("output bytes differ from the frozen digest")
    if "regular" in job:
        verdict = f"regularity of p = {job['p']} decided: {job['regular']}"
        if verdict not in (c["name"] for c in report["checks"]):
            raise JobFailed(f"regularity verdict differs from frozen {job['regular']}")
    return {"cells": 0, "digest_checked": expected is not None, "digest": digest}


def run_job(job: dict, routes=ROUTES, digests=None) -> dict:
    """Run one job and check its answer; raise ``JobFailed`` when it is wrong.

    ``digests`` maps a command line to the sha256 of its frozen output.
    Tests substitute ``routes`` or ``digests`` to prove a bad answer fails.
    """
    if "module" in job:
        return _hh_job(job, routes)
    return _cli_job(job, digests or {})


class Round:
    """One pass over every job of a workload."""

    def __init__(self):
        self.job_s: list[float] = []
        self.failures: list[str] = []
        self.results: list[dict] = []
        self.wall_s = 0.0

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / len(self.job_s)


def timed_job(job: dict, **job_kwargs) -> tuple[float, dict, str | None]:
    """Run one job; return its time, its result and why it failed, if it did."""
    t0 = time.perf_counter()
    try:
        result, failure = run_job(job, **job_kwargs), None
    except Exception as exc:  # any crash is a failed job, not a dead run
        result, failure = {"cells": 0}, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, failure


def run_round(jobs: list[dict], tracer=None, **job_kwargs) -> Round:
    """Run every job once, timing each."""
    rnd = Round()
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        seconds, result, failure = timed_job(job, **job_kwargs)
        rnd.job_s.append(seconds)
        rnd.results.append(result)
        if failure:
            rnd.failures.append(f"job {i}: {failure}")
    rnd.wall_s = time.perf_counter() - start
    return rnd
