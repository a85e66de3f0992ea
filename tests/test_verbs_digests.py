"""Byte freeze of every verb: each command line of the benchmark's verbs
workload, at its default seed, must print the bytes whose sha256 is frozen
in perfbench/data/verbs_digests.json."""

import hashlib
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_verbs_job_prints_its_frozen_bytes():
    workloads = _load_workloads()
    digests = json.loads((PERFBENCH / "data" / "verbs_digests.json").read_text())
    jobs = [" ".join(job["argv"])
            for job in workloads.make_inputs("verbs", workloads.DEFAULT_SEED)]
    assert sorted(jobs) == sorted(digests)
    changed = []
    for line in jobs:
        code, out, _ = workloads.run_cli(line.split(" "))
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digests[line]:
            changed.append(line)
    assert changed == []
