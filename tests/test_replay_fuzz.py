"""Replays of mutated FAIL payloads end in a verdict or a one-line usage
error, never a traceback or a hang.

The seeds are one FAIL payload of every kind in ``checks.CHECKS``, frozen
in ``data/fail_payloads.json`` from the patches of ``test_registry.CASES``.
Each case replaces one value under ``inputs`` with junk, deletes one key of
the payload, or appends junk under ``inputs``, and replays in process
through two verbs.
"""

import copy
import json
import random
import signal
from pathlib import Path

import pytest

from dualcircle import checks
from dualcircle.cli import main

FAIL_PAYLOADS = json.loads(
    (Path(__file__).parent / "data" / "fail_payloads.json").read_text())
JUNK = [None, True, False, 0, -1, 10**30, -10**30, 1e308, -0.5, "1/0", "٣", "1_0",
        "", "-0", "7", "10" * 20, "Z^99", "Z[1]", [], [[]], [[0, 0]], [[1, 2], [3]],
        [["1/2"], None], {"lo": 1}]
KEYS = ["lo", "hi", "p", "n", "weight", "module", "fixtures", "point", "junk"]
VERBS = (["hh", "verify"], ["tc", "table2", "--p", "3"])
CASES_PER_KIND = 60
SECONDS_PER_CASE = 1


class _Overran(BaseException):
    """Raised in a replay that outlives ``SECONDS_PER_CASE``; no handler in
    the program catches a BaseException that is not an Exception."""


def _overran(signum, frame):
    raise _Overran


def _paths(obj, path=()):
    """The path of every value under ``obj``, outermost first."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate(payload: dict, rng: random.Random) -> dict:
    payload = copy.deepcopy(payload)
    values = list(_paths(payload["inputs"]))
    how = rng.choice(["replace", "delete", "append"] if values else ["delete", "append"])
    if how == "replace":
        *outer, last = rng.choice(values)
        _at(payload["inputs"], outer)[last] = rng.choice(JUNK)
    elif how == "delete":
        keyed = [p for p in _paths(payload) if isinstance(_at(payload, p[:-1]), dict)]
        *outer, last = rng.choice(keyed)
        del _at(payload, outer)[last]
    else:
        inner = [p for p in [(), *values]
                 if isinstance(_at(payload["inputs"], p), (dict, list))]
        target = _at(payload["inputs"], rng.choice(inner))
        if isinstance(target, list):
            target.append(rng.choice(JUNK))
        else:
            target[rng.choice(KEYS)] = rng.choice(JUNK)
    return payload


def test_the_seeds_cover_every_kind():
    assert sorted(FAIL_PAYLOADS) == sorted(checks.CHECKS)
    assert all(payload["check"] == kind for kind, payload in FAIL_PAYLOADS.items())


def _replay(argv: list[str]) -> int:
    """``main(argv)``, stopped by ``_Overran`` after ``SECONDS_PER_CASE``."""
    signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_CASE)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def test_mutated_payloads_replay_to_a_verdict_or_one_error_line(tmp_path, capsys):
    previous = signal.signal(signal.SIGALRM, _overran)
    rng = random.Random(0)
    path = tmp_path / "payload.json"
    try:
        for kind in sorted(FAIL_PAYLOADS):
            for _ in range(CASES_PER_KIND):
                payload = _mutate(FAIL_PAYLOADS[kind], rng)
                path.write_text(json.dumps(payload))
                for verb in VERBS:
                    case = (verb, payload)
                    try:
                        code = _replay(verb + ["--replay", str(path)])
                    except _Overran:
                        pytest.fail(f"replay took over {SECONDS_PER_CASE} s: {case}")
                    err = capsys.readouterr().err
                    assert code in (0, 1, 2), case
                    if code == 2:
                        assert err.count("\n") == 1 and err.endswith("\n"), case
                    else:
                        assert err == "", case
    finally:
        signal.signal(signal.SIGALRM, previous)
