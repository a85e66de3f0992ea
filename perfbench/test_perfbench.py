"""Tests of the benchmark itself: a wrong answer must fail its job, and a
seed must always generate the same inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from dualcircle.abgroups import FGAbGroup  # noqa: E402


def _with_extra_z2(route):
    """A route that answers one extra Z/2 in the lowest degree it reports."""
    def wrong(m, w, lo, hi):
        got = dict(route(m, w, lo, hi))
        t = min(got)
        got[t] = got[t].direct_sum(FGAbGroup.cyclic(2))
        return got
    return wrong


class NegativeControl(unittest.TestCase):
    def setUp(self):
        self.jobs = workloads.make_inputs("hh-wide", 3)[:3]

    def test_real_routes_pass(self):
        rnd = workloads.run_round(self.jobs)
        self.assertEqual(rnd.failures, [])
        self.assertEqual(rnd.fail_ratio, 0)

    def test_wrong_cell_group_fails_the_job(self):
        routes = dict(workloads.ROUTES, cell=_with_extra_z2(workloads.ROUTES["cell"]))
        with self.assertRaisesRegex(workloads.JobFailed, "routes disagree"):
            workloads.run_job(self.jobs[0], routes=routes)
        rnd = workloads.run_round(self.jobs, routes=routes)
        self.assertEqual(len(rnd.failures), len(self.jobs))
        self.assertGreater(rnd.fail_ratio, 0)

    def test_comparison_of_nothing_fails(self):
        empty = {name: (lambda m, w, lo, hi: {}) for name in workloads.ROUTES}
        with self.assertRaisesRegex(workloads.JobFailed, "no nontrivial group"):
            workloads.run_job(self.jobs[0], routes=empty)

    def test_changed_verb_output_fails_the_job(self):
        job = {"argv": ["tc", "table1", "--p", "3", "--format", "json"]}
        workloads.run_job(job, digests=workloads.load_json("verbs_digests.json"))
        with self.assertRaisesRegex(workloads.JobFailed, "frozen digest"):
            workloads.run_job(job, digests={" ".join(job["argv"]): "0" * 64})

    def test_wrong_regularity_verdict_fails_the_job(self):
        job = workloads.make_inputs("regularity", 3)[0]
        workloads.run_job(job)
        with self.assertRaisesRegex(workloads.JobFailed, "verdict"):
            workloads.run_job(dict(job, regular=not job["regular"]))


class SpeedCorrection(unittest.TestCase):
    NOMINAL_S = speed.NOMINAL_S[speed.matrix_kernel]

    def _meter(self, kernel_s: list[float]) -> speed.Speedometer:
        """Samples every 10 ms from t = 0, taking the given kernel times."""
        meter = speed.Speedometer(speed.matrix_kernel)
        meter.begins = [0.01 * i for i in range(len(kernel_s))]
        meter.ends = [b + k for b, k in zip(meter.begins, kernel_s)]
        return meter

    def test_nominal_speed_leaves_time_unchanged(self):
        meter = self._meter([self.NOMINAL_S] * 100)
        busy = 10 * self.NOMINAL_S  # samples 20..29 start inside [0.2, 0.3)
        self.assertAlmostEqual(meter.corrected(0.2, 0.3), 0.1 - busy)

    def test_slow_half_counts_at_nominal_speed(self):
        # a job whose second half ran at half speed did 0.75 of its
        # time's nominal work
        meter = self._meter([self.NOMINAL_S] * 50 + [2 * self.NOMINAL_S] * 50)
        busy = 10 * self.NOMINAL_S + 10 * 2 * self.NOMINAL_S
        self.assertAlmostEqual(meter.corrected(0.4, 0.6), (0.2 - busy) * 0.75)

    def test_short_interval_uses_nearest_samples(self):
        meter = self._meter([2 * self.NOMINAL_S] * 100)
        self.assertAlmostEqual(meter.corrected(0.5051, 0.5061), 0.0005)
        self.assertAlmostEqual(meter.corrected(5.0, 5.001), 0.0005)

    def test_sampling_a_real_run(self):
        meter = speed.Speedometer()
        meter.start()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        t1 = time.perf_counter()
        meter.stop()
        self.assertGreater(len(meter.begins), 10)
        self.assertGreater(meter.corrected(t0, t1), 0)


class SeededInputs(unittest.TestCase):
    def _generate(self, seed: int, hash_seed: str) -> bytes:
        code = ("import json, workloads; print(json.dumps({w: workloads.make_inputs(w, %d)"
                " for w in workloads.WORKLOADS}, sort_keys=True))" % seed)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(HERE), str(HERE.parent / "src")]))
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              stdout=subprocess.PIPE, timeout=60).stdout

    def test_same_seed_gives_identical_bytes(self):
        first = self._generate(5, "1")
        self.assertEqual(first, self._generate(5, "2"))
        self.assertNotEqual(first, self._generate(6, "1"))
        inputs = json.loads(first)
        self.assertEqual(len(inputs["hh-wide"]), workloads.HH_WIDE_MODULES)
        self.assertEqual(len(inputs["regularity"]), workloads.REGULARITY_BANDS)


if __name__ == "__main__":
    unittest.main()
