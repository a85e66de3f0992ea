"""Command-line interface.

Verbs:

    dualcircle operad check   [--seed N] [--trials N] [--replay FILE]
    dualcircle hh verify      [--max-weight W] [--max-degree D] [--fixtures FILE]
                              [--replay FILE]
    dualcircle tc table1      --p P [--min-deg A] [--max-deg B] [--replay FILE]
    dualcircle tc table2      --p P [--no-truncate] [--replay FILE]
    dualcircle tc check-fr    --p P --n N
    dualcircle tc coassembly  --i I --p P [--assume-regular] [--check-regularity]
                              [--replay FILE]
    dualcircle tc controls    --p P

Global options on every verb, after it: --format {markdown,json,csv}, --config FILE.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .report import Report, RunConfig, UsageError

_INT = {"type": int}
_NEEDED = {"type": int, "required": True}
_SWITCH = {"action": "store_true"}

# group -> (help, verb -> (help, option -> add_argument keywords)); every
# verb also takes _COMMON
COMMANDS = {
    "operad": ("operad axiom suites", {
        "check": ("run the seeded axiom suite", {
            "--seed": _INT, "--trials": _INT,
            "--replay": {"help": "JSON failure payload to re-run"}}),
    }),
    "hh": ("cyclic homology oracle suites", {
        "verify": ("three-route oracle equivalence", {
            "--max-weight": _INT, "--max-degree": _INT,
            "--fixtures": {"dest": "fixture_path"}, "--replay": {}}),
    }),
    "tc": ("fixed-point pipeline and tables", {
        "table1": ("integral homology table", {
            "--p": _NEEDED, "--min-deg": _INT, "--max-deg": _INT, "--replay": {}}),
        "table2": ("rational homotopy table", {
            "--p": _NEEDED,
            "--no-truncate": {**_SWITCH, "help": "error on degrees beyond the "
                              "homotopy window instead of marking them"},
            "--replay": {}}),
        "check-fr": ("Frobenius/restriction algebra", {"--p": _NEEDED, "--n": _NEEDED}),
        "coassembly": ("rational coassembly verdict", {
            "--i": _NEEDED, "--p": _NEEDED, "--assume-regular": _SWITCH,
            "--check-regularity": {**_SWITCH, "help": "decide regularity from "
                                   "Bernoulli numerators (p < 10^5)"},
            "--replay": {"help": "JSON failure payload to re-run; its i and p "
                         "replace --i and --p"}}),
        "controls": ("negative controls", {"--p": _NEEDED}),
    }),
}
_COMMON = {
    "--format": {"dest": "fmt", "choices": ("markdown", "json", "csv")},
    "--config": {"dest": "config_file",
                 "help": "key=value config file mirroring the run options"},
}


def build_parser():
    """The whole command tree as an ``argparse`` parser, whose help and usage
    errors list every command."""
    import argparse  # only help and usage errors need it

    top = argparse.ArgumentParser(prog="dualcircle", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="group", required=True)
    for name, (group_help, verbs) in COMMANDS.items():
        verb_sub = sub.add_parser(name, help=group_help).add_subparsers(
            dest="verb", required=True)
        for verb_name, (verb_help, options) in verbs.items():
            parser = verb_sub.add_parser(verb_name, help=verb_help)
            for flag, keywords in {**options, **_COMMON}.items():
                parser.add_argument(flag, **keywords)
    return top


def _read_argv(argv) -> dict | None:
    """The options of ``argv`` by name, read from its verb's ``COMMANDS``
    entry and ``_COMMON``; None for help, any error, ``--``, and a value
    that starts with "-" but is no negative integer.  A value "--" after
    "=" raises ``UsageError``: argparse would read it as an empty list."""
    group, verb = (list(argv) + [None, None])[:2]
    options = COMMANDS.get(group, ("", {}))[1].get(verb, ("", None))[1]
    if options is None:
        return None
    options = {**options, **_COMMON}
    dests = {flag: keywords.get("dest") or flag[2:].replace("-", "_")
             for flag, keywords in options.items()}
    values = {dests[flag]: (False if "action" in keywords else None)
              for flag, keywords in options.items()}
    values.update(group=group, verb=verb)
    seen = set()
    tokens = iter(argv[2:])
    for token in tokens:
        if not token.startswith("--") or token == "--":
            return None
        flag, eq, value = token.partition("=")
        if flag not in options:
            # a unique prefix abbreviates an option, as argparse's allow_abbrev
            matches = [f for f in (*options, "--help") if f.startswith(flag)]
            if len(matches) != 1 or matches[0] == "--help":
                return None
            flag = matches[0]
        keywords = options[flag]
        if "action" in keywords:  # a switch takes no value
            if eq:
                return None
            value = True
        else:
            if not eq:
                value = next(tokens, None)
                # to argparse, a "-" token is an option unless a negative integer
                if value is None or value.startswith("-") and not value[1:].isdecimal():
                    return None
            elif value == "--":
                raise UsageError(f"argument {flag}: expected one argument")
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if "choices" in keywords and value not in keywords["choices"]:
                return None
        values[dests[flag]] = value
        seen.add(flag)
    if any(keywords.get("required") and flag not in seen
           for flag, keywords in options.items()):
        return None
    return values


def parse_args(argv):
    """``argv`` parsed as ``build_parser()`` parses it.  A group, a verb and
    its options are read straight from ``COMMANDS``: exact flags,
    ``--flag=value``, unique prefixes, ``int`` values (negative ones too),
    choices, switches, required options, and the last of repeated flags.
    A value "--" given as ``--flag=--`` raises ``UsageError``.  Anything
    else, such as help, a usage error or ``--``, goes to the whole tree,
    which prints the help or the error and exits; only then is
    ``argparse`` loaded."""
    values = _read_argv(argv)
    if values is None:
        return build_parser().parse_args(argv)
    return SimpleNamespace(**values)


def _config_from_args(args) -> RunConfig:
    # the table command marks out-of-window columns unless its config file
    # or --no-truncate says otherwise; every other verb keeps the default
    defaults = {"truncate_out_of_range": True} if args.verb == "table2" else {}
    if getattr(args, "config_file", None):
        cfg = RunConfig.from_key_value_file(args.config_file, **defaults)
    else:
        cfg = RunConfig(**defaults)
    for name in RunConfig.FIELDS:
        value = getattr(args, name, None)
        # an absent option reads None, an absent switch False; compare by
        # identity, since --seed 0 and --min-deg 0 are equal to False
        if value is not None and value is not False:
            setattr(cfg, name, value)
    if getattr(args, "no_truncate", False):
        cfg.truncate_out_of_range = False
    return cfg


def _dispatch(args) -> Report:
    from . import checks  # loads no suite until one runs

    cfg = _config_from_args(args)
    if getattr(args, "replay", None):
        return checks.run_replay(cfg, args.replay)
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
    if argv is None:
        argv = sys.argv[1:]
    # an option of every verb, given before the verb, would read as a bad verb
    misplaced = [a.split("=")[0] for a in argv[:2] if a.split("=")[0] in _COMMON]
    if misplaced:
        print(f"error: {misplaced[0]} goes after the verb, as in "
              f"'dualcircle tc table1 --p 5 {misplaced[0]} ...'", file=sys.stderr)
        return 2
    try:
        report = _dispatch(parse_args(argv))
    except SystemExit as exc:  # argparse printed help or a usage error
        return 2 if exc.code not in (0, None) else 0
    except (UsageError, OSError, ValueError) as exc:  # tc.HurewiczRangeError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
