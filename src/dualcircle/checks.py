"""Verification suites behind the command-line verbs, and the one registry
of their checks.

Each suite lives in its own module, which loads only when the suite runs
or one of its checks is replayed: ``operad_checks``, ``hh_checks`` and
``tc_checks``.  A suite module declares each of its kinds of check once,
in ``KINDS``: a parser from the ``inputs`` of a FAIL payload to keyword
arguments, and a verdict function of those arguments that returns the
check's report line.  A FAIL payload holds every input that decides its
verdict, so ``--replay`` re-runs a check from its payload alone; the
suites call the same verdict functions on their inputs.  This module holds
what the suites share, the verbs' entry points, and ``CHECKS``, which
names the suite of every kind.
"""

from __future__ import annotations

import json
import re
from importlib import import_module

from .primes import is_prime
from .report import CheckResult, Report, RunConfig, UsageError, read_bounded

# the degrees of a table1, hh verify or replayed hh-weight window at most;
# each takes time linear in them
MAX_DEGREES = 1024


def _verdict(name: str, holds: bool, failure, passed: dict | None = None) -> CheckResult:
    """The report line ``name``: PASS with payload ``passed``, or FAIL with
    the payload that the function ``failure`` builds only then."""
    return CheckResult(name, "pass", passed) if holds else CheckResult(name, "fail", failure())


def _lookup(obj, *path: str, source: str):
    """``obj[path[0]][path[1]]...``, or a usage error naming the first key
    that ``source`` lacks."""
    for depth, key in enumerate(path):
        if not isinstance(obj, dict) or key not in obj:
            raise UsageError(f"{source} lacks key {'.'.join(path[:depth + 1])}")
        obj = obj[key]
    return obj


# ---------------------------------------------------------------------------
# payload inputs: a bad one is a usage error that names its key


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise UsageError(message)


def _need(inputs: dict, key: str):
    _require(key in inputs, f"replay payload lacks key inputs.{key}")
    return inputs[key]


def _int_input(inputs: dict, key: str) -> int:
    """inputs.key as a JSON integer (not a boolean) or as decimal text."""
    value = _need(inputs, key)
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise UsageError(f"replay payload inputs.{key} holds {json.dumps(value)}, "
                     "which is not an integer")


def _prime(inputs: dict) -> int:
    p = _int_input(inputs, "p")
    _require(is_prime(p), f"p = {p} is not prime")
    return p


def _window(inputs: dict, default: tuple[int, int]) -> tuple[int, int]:
    """The degree window [inputs.lo, inputs.hi], or ``default`` if it names
    none; its width is the caller's to cap with ``MAX_DEGREES``."""
    if "lo" not in inputs and "hi" not in inputs:
        return default
    lo, hi = _int_input(inputs, "lo"), _int_input(inputs, "hi")
    _require(lo <= hi, f"replay payload inputs.lo..hi = {lo}..{hi} is empty")
    return lo, hi


# ---------------------------------------------------------------------------
# the verbs' entry points: each runs the function of its name in its suite


def _suite(name: str):
    """The module of suite ``name``, loaded on first use."""
    return import_module(f".{name}_checks", __package__)


def run_operad_check(config: RunConfig, compose_fn=None) -> Report:
    return _suite("operad").run_operad_check(config, compose_fn)


def run_hh_verify(config: RunConfig) -> Report:
    return _suite("hh").run_hh_verify(config)


def run_tc_table1(config: RunConfig) -> Report:
    return _suite("tc").run_tc_table1(config)


def run_tc_table2(config: RunConfig) -> Report:
    return _suite("tc").run_tc_table2(config)


def run_check_fr(config: RunConfig, n: int) -> Report:
    return _suite("tc").run_check_fr(config, n)


def run_coassembly(config: RunConfig, i: int) -> Report:
    return _suite("tc").run_coassembly(config, i)


def run_negative_controls(config: RunConfig) -> Report:
    return _suite("tc").run_negative_controls(config)


# ---------------------------------------------------------------------------
# the registry and replay


# kind -> the suite whose KINDS declare it
CHECKS = {
    **dict.fromkeys(("associativity", "unit", "closure-A", "closure-Oprime",
                     "coalgebra-compatibility", "zero-action", "zero-action-witness",
                     "nullhomotopy-endpoints"), "operad"),
    **dict.fromkeys(("hh-weight", "hh-dual-numbers", "hh-truncation", "thh-shadow"), "hh"),
    **dict.fromkeys(("table1", "table2", "table2-shift-sum", "table2-wedge",
                     "negative-control", "fr-commute", "restriction-deletion",
                     "frobenius-routing", "coassembly", "regularity"), "tc"),
}


def run_replay(config: RunConfig, payload_path: str) -> Report:
    """Re-run the check of a FAIL payload file on the payload's inputs
    alone: ``config`` sets only the output format, and the report echoes
    the default options apart from that format and the payload's prime."""
    payload = json.loads(read_bounded(payload_path, "replay payload"))
    _require(isinstance(payload, dict), "replay payload is not a JSON object")
    kind = payload.get("check")
    _require(isinstance(kind, str) and kind in CHECKS,
             f"replay does not understand check {kind!r}")
    inputs = _lookup(payload, "inputs", source="replay payload")
    _require(isinstance(inputs, dict), "replay payload inputs is not a JSON object")
    parse, verdict = _suite(CHECKS[kind]).KINDS[kind]
    args = parse(inputs)
    # the verdict read no other option, so the report echoes none
    echoed = RunConfig(fmt=config.fmt)
    if "p" in inputs:
        echoed.p = _prime(inputs)
    return Report(f"replay {kind}", echoed, [verdict(**args)])
