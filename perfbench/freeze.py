"""Regenerate the frozen answers in perfbench/data from the current code.

    python3 perfbench/freeze.py

The benchmark fails every job whose output later differs from what this
writes, so run it only on a commit whose outputs are trusted.

* data/verbs_digests.json: sha256 of the stdout of every verbs job that
  does not depend on the seed, plus the operad checks of DEFAULT_SEED.
* data/regularity_candidates.json: per equal-width band of [1000, 10^4),
  the primes nearest the band's centre, each with its regularity verdict.
  Clustering near the centre keeps a round's cost nearly the same for
  every seed, since irregular_indices takes time ~ p^2.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from dualcircle.primes import is_prime, is_regular_prime  # noqa: E402

LO, HI = 1000, 10_000
PER_BAND = 8


def regularity_candidates() -> dict:
    width = (HI - LO) // workloads.REGULARITY_BANDS
    bands = []
    for b in range(workloads.REGULARITY_BANDS):
        lo, hi = LO + b * width, LO + (b + 1) * width
        centre = (lo + hi) // 2
        primes = sorted((p for p in range(lo, hi) if is_prime(p)),
                        key=lambda p: abs(p - centre))[:PER_BAND]
        bands.append({"lo": lo, "hi": hi, "verdicts": {
            str(p): is_regular_prime(p) for p in sorted(primes)}})
    return {"bands": bands}


def verbs_digests() -> dict:
    digests = {}
    for job in workloads.make_inputs("verbs", workloads.DEFAULT_SEED):
        code, out, err = workloads.run_cli(job["argv"])
        if code != 0:
            raise SystemExit(f"{job['argv']} exited {code}: {err}")
        digests[" ".join(job["argv"])] = hashlib.sha256(out.encode()).hexdigest()
    return digests


def main() -> None:
    workloads.DATA.mkdir(exist_ok=True)
    for name, make in (("verbs_digests.json", verbs_digests),
                       ("regularity_candidates.json", regularity_candidates)):
        path = workloads.DATA / name
        path.write_text(json.dumps(make(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
