"""One workload in one fresh interpreter; started by run.py, not by hand.

Starts the speedometer (speed.py) first and only then imports the package,
through measure.py, so the set-up time is corrected for the machine's
speed as the job times are.
"""

from __future__ import annotations

import argparse
import sys

import speed


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.perf_counter() of the parent just before launch")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args()


def main() -> int:
    args = parse_args()
    meter = speed.Speedometer(speed.WORKLOAD_KERNELS.get(args.workload, speed.matrix_kernel))
    meter.start()
    try:
        import measure  # imports the package
        return measure.main(args, meter)
    finally:
        meter.stop()  # else the timer's next signal would kill the process


if __name__ == "__main__":
    sys.exit(main())
