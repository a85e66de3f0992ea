"""Command-line interface.

Verbs:

    dualcircle operad check   [--seed N] [--trials N] [--replay FILE]
    dualcircle hh verify      [--max-weight W] [--max-degree D] [--fixtures FILE]
    dualcircle tc table1      --p P [--min-deg A] [--max-deg B]
    dualcircle tc table2      --p P [--no-truncate]
    dualcircle tc check-fr    --p P --n N
    dualcircle tc coassembly  --i I --p P [--assume-regular] [--check-regularity]
                              [--replay FILE]
    dualcircle tc controls    --p P

Global options on every verb: --format {markdown,json,csv}, --config FILE.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from . import checks
from .report import Report, RunConfig, UsageError
from .tc import HurewiczRangeError


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--format", dest="fmt", default=None,
                        choices=("markdown", "json", "csv"))
    parser.add_argument("--config", dest="config_file", default=None,
                        help="key=value config file mirroring the run options")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dualcircle", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="group", required=True)

    operad = sub.add_parser("operad", help="operad axiom suites")
    operad_sub = operad.add_subparsers(dest="verb", required=True)
    oc = operad_sub.add_parser("check", help="run the seeded axiom suite")
    oc.add_argument("--seed", type=int, default=None)
    oc.add_argument("--trials", type=int, default=None)
    oc.add_argument("--replay", default=None,
                    help="JSON failure payload to re-run")
    _add_common(oc)

    hh = sub.add_parser("hh", help="cyclic homology oracle suites")
    hh_sub = hh.add_subparsers(dest="verb", required=True)
    hv = hh_sub.add_parser("verify", help="three-route oracle equivalence")
    hv.add_argument("--max-weight", type=int, default=None)
    hv.add_argument("--max-degree", type=int, default=None)
    hv.add_argument("--fixtures", dest="fixture_path", default=None)
    hv.add_argument("--replay", default=None)
    _add_common(hv)

    tc = sub.add_parser("tc", help="fixed-point pipeline and tables")
    tc_sub = tc.add_subparsers(dest="verb", required=True)

    t1 = tc_sub.add_parser("table1", help="integral homology table")
    t1.add_argument("--p", type=int, required=True)
    t1.add_argument("--min-deg", type=int, default=None)
    t1.add_argument("--max-deg", type=int, default=None)
    t1.add_argument("--replay", default=None)
    _add_common(t1)

    t2 = tc_sub.add_parser("table2", help="rational homotopy table")
    t2.add_argument("--p", type=int, required=True)
    t2.add_argument("--no-truncate", action="store_true",
                    help="error on degrees beyond the homotopy window "
                         "instead of marking them")
    t2.add_argument("--replay", default=None)
    _add_common(t2)

    fr = tc_sub.add_parser("check-fr", help="Frobenius/restriction algebra")
    fr.add_argument("--p", type=int, required=True)
    fr.add_argument("--n", type=int, required=True)
    _add_common(fr)

    co = tc_sub.add_parser("coassembly", help="rational coassembly verdict")
    co.add_argument("--i", type=int, required=True)
    co.add_argument("--p", type=int, required=True)
    co.add_argument("--assume-regular", action="store_true")
    co.add_argument("--check-regularity", action="store_true",
                    help="decide regularity from Bernoulli numerators (p < 10^5)")
    co.add_argument("--replay", default=None,
                    help="JSON failure payload to re-run; its i and p replace --i and --p")
    _add_common(co)

    ct = tc_sub.add_parser("controls", help="negative controls")
    ct.add_argument("--p", type=int, required=True)
    _add_common(ct)

    return top


def _config_from_args(args) -> RunConfig:
    if getattr(args, "config_file", None):
        cfg = RunConfig.from_key_value_file(args.config_file)
    else:
        cfg = RunConfig()
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        # an absent option reads None, an absent switch False; compare by
        # identity, since --seed 0 and --min-deg 0 are equal to False
        if value is not None and value is not False:
            setattr(cfg, f.name, value)
    # the table command marks out-of-window columns unless asked not to
    if getattr(args, "verb", None) == "table2":
        cfg.truncate_out_of_range = not args.no_truncate
    return cfg


def _dispatch(args) -> Report:
    cfg = _config_from_args(args)
    replay = getattr(args, "replay", None)
    if replay:
        return checks.run_replay(cfg, replay)
    if args.group == "operad":
        return checks.run_operad_check(cfg)
    if args.group == "hh":
        return checks.run_hh_verify(cfg)
    if args.group == "tc":
        if args.verb == "table1":
            return checks.run_tc_table1(cfg)
        if args.verb == "table2":
            return checks.run_tc_table2(cfg)
        if args.verb == "check-fr":
            return checks.run_check_fr(cfg, args.n)
        if args.verb == "coassembly":
            return checks.run_coassembly(cfg, args.i)
        if args.verb == "controls":
            return checks.run_negative_controls(cfg)
    raise UsageError(f"unknown command {args.group!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = _dispatch(args)
    except (UsageError, HurewiczRangeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
