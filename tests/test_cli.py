import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from dualcircle import cli
from dualcircle.abgroups import FGAbGroup
from dualcircle.hh_checks import MAX_WEIGHT
from dualcircle.tc_checks import MAX_DEGREES, MAX_LEVEL
from dualcircle.cli import COMMANDS, build_parser, main, parse_args
from dualcircle.report import MAX_FILE_BYTES, MAX_TRIALS, RunConfig, UsageError

# sha256 of seeded operad-check output and the report of the bad_compose
# negative control, frozen from the Fraction-based operad layer
OPERAD_OUTPUTS = json.loads(
    (Path(__file__).parent / "data" / "operad_outputs.json").read_text())
# exit code, stdout and stderr of help and usage-error command lines at
# COLUMNS=80, frozen from the parser that built every command on each call
CLI_USAGE = json.loads((Path(__file__).parent / "data" / "cli_usage.json").read_text())
ROOT = Path(__file__).resolve().parents[1]
# a prime far above the largest number the primality test accepts
BIG_PRIME = "1000000000000000003"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestOperadVerb:
    def test_check_passes(self, capsys):
        code, out = run(capsys, "operad", "check", "--seed", "42")
        assert code == 0
        assert "PASS associativity" in out
        assert "PASS coalgebra-compatibility" in out

    def test_seeded_json_is_byte_identical(self, capsys):
        _, first = run(capsys, "operad", "check", "--seed", "7", "--format", "json")
        _, second = run(capsys, "operad", "check", "--seed", "7", "--format", "json")
        assert first == second

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    def test_seeded_output_matches_the_frozen_digest(self, capsys, fmt):
        argv = ["operad", "check", "--seed", "42", "--trials", "1000", "--format", fmt]
        code, out = run(capsys, *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == OPERAD_OUTPUTS["sha256"][" ".join(argv)]

    def test_trials_flag(self, capsys):
        code, out = run(capsys, "operad", "check", "--seed", "1", "--trials", "50",
                        "--format", "json")
        assert code == 0
        payloads = json.loads(out)
        assoc = next(c for c in payloads["checks"] if c["name"] == "associativity")
        assert assoc["payload"]["trials"] == 50

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_rejected(self, capsys, trials):
        code, out = run(capsys, "operad", "check", "--trials", trials)
        assert code == 2
        assert "PASS" not in out

    def test_trials_above_the_cap_rejected_at_once(self, capsys):
        start = time.monotonic()
        code = main(["operad", "check", "--trials", "100000000000000000000"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"at most {MAX_TRIALS}" in err and err.count("\n") == 1
        assert time.monotonic() - start < 1


class TestHHVerb:
    def test_verify_passes(self, capsys):
        code, out = run(capsys, "hh", "verify")
        assert code == 0
        assert "PASS three-route[Z,1]" in out
        assert "PASS dual-numbers HH0, HH1" in out
        assert "PASS circle-dual-shadow" in out

    @pytest.mark.parametrize("name", ["brute_hochschild", "thh_homology_square_zero"])
    def test_dual_numbers_compare_the_oracle_with_the_weight_route(self, name, capsys,
                                                                   monkeypatch):
        # either route with a Z/2 too many in degree 2 of the dual numbers,
        # past the frozen HH0 and HH1, fails the check and no other
        from dualcircle import hh_checks
        from dualcircle.abgroups import GradedGroup, GroupExpr
        from dualcircle.cyclic import GradedModule

        real = getattr(hh_checks, name)

        def wrong(m, *window):
            h = real(m, *window)
            if m != GradedModule.single(0, 0):
                return h
            cells = list(h.cells)
            cells[2 - h.known_range[0]] = cells[2 - h.known_range[0]].plus(GroupExpr.cyclic(2))
            return GradedGroup(h.known_range, tuple(cells))

        monkeypatch.setattr(hh_checks, name, wrong)
        code, out = run(capsys, "hh", "verify")
        assert code == 1
        [line] = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert line.startswith("FAIL dual-numbers HH0, HH1 weight vs oracle  {")
        assert json.loads(line.split("  ", 1)[1])["route"] == "weight"

    def test_bounded_run(self, capsys):
        code, out = run(capsys, "hh", "verify", "--max-weight", "3")
        assert code == 0
        assert "three-route[Z,3]" in out
        assert "three-route[Z,4]" not in out

    def test_degree_bound(self, capsys):
        code, out = run(capsys, "hh", "verify", "--max-weight", "5",
                        "--max-degree", "2")
        assert code == 0
        assert "PASS three-route[Z[1],5]" in out

    def test_options_beyond_the_fixture_caps_are_skipped_by_name(self, capsys):
        code, out = run(capsys, "hh", "verify", "--max-weight", "9",
                        "--max-degree", "100", "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["status"] for c in checks].count("skip") == 1
        assert checks[0] == {
            "name": "weights 6..9 and degrees -100..-7, 7..100 not compared: "
                    "the fixture file covers weights 1..5 and degrees -6..6",
            "status": "skip", "payload": {"max_weight": "5", "degrees": ["-6", "6"]}}
        assert "three-route[Z,5]" in {c["name"] for c in checks}
        code, out = run(capsys, "hh", "verify", "--max-weight", "6", "--max-degree", "2")
        assert "SKIP weights 6 not compared" in out
        code, out = run(capsys, "hh", "verify", "--max-degree", "7")
        assert "SKIP degrees -7, 7 not compared" in out

    def test_default_options_skip_nothing(self, capsys):
        code, out = run(capsys, "hh", "verify")
        assert code == 0 and "SKIP" not in out

    def test_missing_fixture_file(self, capsys):
        code = main(["hh", "verify", "--fixtures", "/nonexistent.json"])
        assert code == 2

    def test_zero_max_weight_rejected(self, capsys):
        code, out = run(capsys, "hh", "verify", "--max-weight", "0")
        assert code == 2
        assert "ok" not in out

    @staticmethod
    def _broken_fixture(tmp_path, breakage):
        fx = json.loads(resources.files("dualcircle").joinpath(
            "fixtures/hh_fixtures.json").read_text())
        breakage(fx)
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(fx))
        return str(path)

    def test_fixture_file_without_degree_window(self, tmp_path, capsys):
        path = self._broken_fixture(tmp_path, lambda fx: fx.pop("degree_window"))
        assert main(["hh", "verify", "--fixtures", path]) == 2
        assert "degree_window" in capsys.readouterr().err

    def test_fixture_file_with_malformed_orders(self, tmp_path, capsys):
        def nest(fx):
            fx["expected_weight_homology"]["Z"]["1"]["0"] = [[0]]

        path = self._broken_fixture(tmp_path, nest)
        assert main(["hh", "verify", "--fixtures", path]) == 2
        assert "expected_weight_homology.Z.1" in capsys.readouterr().err

    def test_fixture_file_with_unknown_shadow_atom(self, tmp_path, capsys):
        def bogus(fx):
            fx["thh_dual_circle_shadow"]["-1"] = [["Bogus", 1, 1]]

        path = self._broken_fixture(tmp_path, bogus)
        assert main(["hh", "verify", "--fixtures", path, "--max-weight", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "thh_dual_circle_shadow.-1" in captured.err

    def test_fixture_order_too_large_to_factor(self, tmp_path, capsys):
        # trial division once ran to the square root of the largest prime
        # factor, about 13 s for this order
        def big(fx):
            fx["dual_numbers"]["HH1"] = [0, 100000000000000003]

        path = self._broken_fixture(tmp_path, big)
        start = time.perf_counter()
        assert main(["hh", "verify", "--fixtures", path, "--max-weight", "1",
                     "--max-degree", "1"]) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "dual_numbers.HH1 holds an order too large to factor" in captured.err

    # values that once gave a vacuous PASS, a SKIP of weights 1..0, or a
    # FAIL against the frozen groups
    @pytest.mark.parametrize("key, value", [
        (("degree_window",), [3, -3]),
        (("degree_window",), [0, True]),
        (("max_weight",), 0),
        (("max_weight",), True),
        (("modules", "Z"), [[True, 0]]),
        (("modules", "Z"), [[0, -2]]),
        (("modules", "Z"), [[0, 1.5]]),
    ], ids=["empty-window", "boolean-bound", "weight-0", "boolean-weight",
            "boolean-degree", "negative-order", "fractional-order"])
    def test_fixture_file_with_out_of_range_values(self, tmp_path, capsys, key, value):
        def set_value(fx):
            obj = fx
            for k in key[:-1]:
                obj = obj[k]
            obj[key[-1]] = value

        path = self._broken_fixture(tmp_path, set_value)
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"check": "hh-weight", "inputs": {
            "module": "Z", "weight": 1, "fixtures": path}}))
        for argv in (["--fixtures", path], ["--replay", str(payload)]):
            assert main(["hh", "verify", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and ".".join(key) in captured.err

    # a fixture window widened to 2 * 10^5 + 1 degrees no longer bounds the
    # run: --max-degree D asks for 2D + 1 of them
    @pytest.mark.parametrize("max_degree, code", [(100000, 2), (MAX_DEGREES // 2 - 1, 0)])
    def test_own_degree_window_is_capped(self, tmp_path, capsys, max_degree, code):
        path = self._broken_fixture(
            tmp_path, lambda fx: fx.update(degree_window=[-10**5, 10**5]))
        start = time.perf_counter()
        assert main(["hh", "verify", "--fixtures", path, "--max-weight", "1",
                     "--max-degree", str(max_degree)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert time.perf_counter() - start < 1
            assert err.count("\n") == 1 and f"at most {MAX_DEGREES} degrees" in err
        else:
            assert err == ""

    # ten generators ask for 10^5 words at weight 5, two for 2^64 at the
    # largest weight a fixture file may hold
    @pytest.mark.parametrize("generators, weight", [(10, 5), (2, MAX_WEIGHT)])
    def test_module_with_too_many_words_is_refused_at_once(self, tmp_path, capsys,
                                                           generators, weight):
        def add_big(fx):
            fx["modules"] = {"big": [[0, 0]] * generators}
            fx["max_weight"] = weight

        path = self._broken_fixture(tmp_path, add_big)
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"check": "hh-weight", "inputs": {
            "module": "big", "weight": weight, "fixtures": path}}))
        for argv in (["--fixtures", path, "--max-weight", str(weight)],
                     ["--replay", str(payload)]):
            start = time.perf_counter()
            assert main(["hh", "verify", *argv]) == 2
            assert time.perf_counter() - start < 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert (f"module big at weight {weight} asks the oracle for "
                    f"{generators}^{weight} words") in captured.err

    # one generator passes the word cap at any weight, and the routes took
    # 36 s to compare weights 1..1000 of it; no count is raised to 10^30
    @pytest.mark.parametrize("weight", [MAX_WEIGHT + 1, 10**30])
    def test_max_weight_above_the_cap_is_refused_at_once(self, tmp_path, capsys, weight):
        def widen(fx):
            fx["modules"] = {"Z": [[0, 0]]}
            fx["max_weight"] = weight

        path = self._broken_fixture(tmp_path, widen)
        payload = tmp_path / "payload.json"
        payload.write_text(json.dumps({"check": "hh-weight", "inputs": {
            "module": "Z", "weight": weight, "fixtures": path}}))
        for argv in (["--fixtures", path, "--max-weight", str(weight)],
                     ["--replay", str(payload)]):
            start = time.perf_counter()
            assert main(["hh", "verify", *argv]) == 2
            assert time.perf_counter() - start < 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert f"max_weight is {weight}, above {MAX_WEIGHT}" in captured.err


class TestTCVerbs:
    def test_table1(self, capsys):
        code, out = run(capsys, "tc", "table1", "--p", "5")
        assert code == 0
        assert "PASS table1 vs reference" in out
        assert "SKIP" not in out
        assert "| E | Z | 0 | (+)_k Z |" in out

    def test_table2_markdown(self, capsys):
        code, out = run(capsys, "tc", "table2", "--p", "7")
        assert code == 0
        assert "PASS table2 vs reference" in out
        assert "B_oo" in out

    def test_table_json_carries_tagged_cells(self, capsys):
        code, out = run(capsys, "tc", "table2", "--p", "7", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        cells = next(c for c in doc["checks"]
                     if c["name"] == "table2 vs reference")["payload"]["cells"]
        assert cells["TC(DS^1)^_p"]["1"] == [{"atom": "B_oo", "multiplicity": "1"}]
        assert cells["K(S)"]["0"] == [{"atom": "Q", "multiplicity": "1"}]

    def test_table2_truncated_prime(self, capsys):
        code, out = run(capsys, "tc", "table2", "--p", "3")
        assert code == 0
        assert "out-of-range" in out

    def test_table2_strict_mode_errors(self, capsys):
        code = main(["tc", "table2", "--p", "3", "--no-truncate"])
        assert code == 2

    def test_table1_window_outside_the_reference(self, capsys):
        code = main(["tc", "table1", "--p", "5", "--min-deg", "5", "--max-deg", "40"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "PASS" not in out
        assert "covers degrees -2..4" in err

    def test_table1_window_partly_outside_the_reference(self, capsys):
        code, out = run(capsys, "tc", "table1", "--p", "5",
                        "--min-deg", "3", "--max-deg", "6", "--format", "json")
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["status"] for c in checks] == ["skip", "pass"]
        # degrees 5 and 6 of three rows
        assert checks[0]["payload"] == {"cells": "6"}
        assert set(checks[1]["payload"]["cells"]["E"]) == {"3", "4", "5", "6"}

    @pytest.mark.parametrize("lo, hi", [(-1000000, 1000000), (4 - MAX_DEGREES, 4),
                                        (-2, MAX_DEGREES - 2)])
    @pytest.mark.parametrize("replay", [False, True])
    def test_table1_window_wider_than_the_cap_is_refused_at_once(self, tmp_path, capsys,
                                                                 lo, hi, replay):
        argv = ["tc", "table1", "--p", "5", "--min-deg", str(lo), "--max-deg", str(hi)]
        if replay:
            path = tmp_path / "payload.json"
            path.write_text(json.dumps({"check": "table1", "inputs": {
                "p": "5", "lo": str(lo), "hi": str(hi)}}))
            argv = ["tc", "table1", "--p", "5", "--replay", str(path)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"at most {MAX_DEGREES} degrees" in err

    def test_table1_window_at_the_cap_runs(self, capsys):
        code, out = run(capsys, "tc", "table1", "--p", "5", "--min-deg",
                        str(5 - MAX_DEGREES), "--max-deg", "4", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["checks"][-1]["payload"]["cells"]["E"]) == MAX_DEGREES

    @pytest.mark.parametrize("replay", [False, True])
    def test_table1_reads_its_reference_once(self, tmp_path, capsys, monkeypatch, replay):
        from dualcircle import tc

        reads = []
        load = tc._load_fixture
        monkeypatch.setattr(tc, "_load_fixture", lambda: reads.append(1) or load())
        argv = ["tc", "table1", "--p", "5"]
        if replay:
            path = tmp_path / "payload.json"
            path.write_text(json.dumps({"check": "table1", "inputs": {"p": "5"}}))
            argv += ["--replay", str(path)]
        assert main(argv) == 0
        assert len(reads) == 1

    def test_table1_composite_prime_usage_error(self, capsys):
        code = main(["tc", "table1", "--p", "6"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["tc", "table1", "--p", BIG_PRIME], ["tc", "table2", "--p", BIG_PRIME],
        ["tc", "check-fr", "--p", BIG_PRIME, "--n", "2"],
        ["tc", "coassembly", "--i", "1", "--p", BIG_PRIME],
        ["tc", "table1", "--p", "5", "--replay"], ["tc", "table2", "--p", "5", "--replay"],
        ["tc", "coassembly", "--i", "1", "--p", "5", "--replay"]])
    def test_a_prime_too_large_to_test_is_refused_at_once(self, tmp_path, capsys, argv):
        if argv[-1] == "--replay":
            path = tmp_path / "payload.json"
            path.write_text(json.dumps({"check": "table1", "inputs": {"p": BIG_PRIME}}))
            argv = argv + [str(path)]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "above 1000000000000" in err

    def test_check_fr(self, capsys):
        code, out = run(capsys, "tc", "check-fr", "--p", "2", "--n", "3")
        assert code == 0
        assert "PASS F and R commute at level 3" in out

    def test_check_fr_level_cap(self, capsys):
        assert main(["tc", "check-fr", "--p", "2", "--n", str(MAX_LEVEL + 1)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"n <= {MAX_LEVEL}" in err

    def test_coassembly_zero(self, capsys):
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "5",
                        "--assume-regular")
        assert code == 0
        assert "zero on pi_4^Q" in out

    def test_coassembly_inconclusive_window(self, capsys):
        code, out = run(capsys, "tc", "coassembly", "--i", "3", "--p", "7",
                        "--assume-regular")
        assert code == 0
        assert "inconclusive" in out

    def test_coassembly_rejects_irregular_assumption(self, capsys):
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "37",
                        "--assume-regular", "--check-regularity")
        assert code == 1
        assert "rejected" in out

    def test_irregular_payload_holds_the_indices(self, capsys):
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "691",
                        "--assume-regular", "--check-regularity", "--format", "json")
        assert code == 1
        payload = json.loads(out)["checks"][0]["payload"]
        assert payload["inputs"] == {"p": "691"}
        assert payload["irregular_indices"] == ["12", "200"]

    def test_coassembly_decides_regularity(self, capsys):
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "5",
                        "--check-regularity")
        assert code == 0
        assert "zero on pi_4^Q" in out

    def test_coassembly_decides_regularity_above_10_4(self, capsys):
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "10007",
                        "--check-regularity")
        assert code == 0
        assert "PASS regularity of p = 10007 decided: True" in out

    def test_coassembly_regularity_cap(self, capsys):
        code = main(["tc", "coassembly", "--i", "1", "--p", "100003",
                     "--check-regularity"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "below 10^5" in err

    def test_coassembly_square_that_does_not_close_fails(self, capsys, monkeypatch):
        from dualcircle import tc
        from dualcircle.qspaces import SymbolicQSpace

        monkeypatch.setattr(tc, "k_sphere_rational", lambda n: SymbolicQSpace.zero())
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "5",
                        "--assume-regular", "--format", "json")
        assert code == 1
        failed, = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
        assert failed["name"] == "assembled square in degree 4 did not close"
        assert failed["payload"]["inputs"] == {"i": "1", "p": "5", "regular": True}
        assert set(failed["payload"]["square"]) == {
            "top_left", "top_right", "bottom_left", "bottom_right"}
        assert failed["payload"]["square"]["top_right"] == "0"

    def test_negative_controls(self, capsys):
        code, out = run(capsys, "tc", "controls", "--p", "3")
        assert code == 0
        assert "PASS zeroed transfer row detected" in out

    def test_csv_format(self, capsys):
        code, out = run(capsys, "tc", "table1", "--p", "2", "--format", "csv")
        assert code == 0
        assert "spectrum,H_-2" in out


# each file option: a verb that takes it, a valid file for it, and what its
# error line calls the file
FILE_OPTIONS = {
    "--replay": (["operad", "check"],
                 json.dumps({"check": "nullhomotopy-endpoints", "inputs": {}}),
                 "replay payload"),
    "--config": (["tc", "table1", "--p", "5"], "seed = 3\n", "config file"),
    "--fixtures": (["hh", "verify", "--max-weight", "1"],
                   resources.files("dualcircle").joinpath(
                       "fixtures/hh_fixtures.json").read_text(), "fixture file"),
}


class TestInputFileBound:
    @pytest.mark.parametrize("option", FILE_OPTIONS)
    @pytest.mark.parametrize("pad, code", [(0, 0), (1, 2)])
    def test_a_file_is_read_up_to_the_bound(self, tmp_path, capsys, option, pad, code):
        verb, text, name = FILE_OPTIONS[option]
        path = tmp_path / "file"
        # trailing blanks, which every reader skips, fill the file to the bound
        path.write_text(text + " " * (MAX_FILE_BYTES - len(text.encode()) + pad))
        assert main([*verb, option, str(path)]) == code
        if code == 2:
            assert capsys.readouterr().err == (
                f"error: {name} {path} holds more than {MAX_FILE_BYTES} bytes\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize("option", FILE_OPTIONS)
    def test_an_endless_file_is_refused_with_one_line(self, option):
        # a fresh process under a 1.5 GB address-space limit, so that an
        # unbounded read ends in MemoryError instead of taking the machine
        verb = FILE_OPTIONS[option][0]
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, "
                "(1500000 * 1024,) * 2); from dualcircle.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        done = subprocess.run(
            [sys.executable, "-c", code, *verb, option, "/dev/zero"],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.count("\n") == 1 and "holds more than" in done.stderr

    # each fault is one line naming the file and its role: Python's own
    # texts name neither, the one for a long integer advises a setting the
    # user cannot make, and deep nesting would end in a traceback
    @pytest.mark.parametrize("option", ["--replay", "--fixtures"])
    @pytest.mark.parametrize("data, fault", [
        (b'{"a": x}', "is not JSON: Expecting value at line 1 column 7"),
        (b'{"a": ' + b"9" * 4400 + b"}",
         "holds an integer with more digits than Python reads"),
        (b'{"a": "\xff"}', "is not UTF-8 text: byte 7 is 0xff"),
        (b"[" * 10**5 + b"]" * 10**5, "nests arrays or objects too deeply to read"),
    ], ids=["not-json", "long-integer", "not-utf8", "deep"])
    def test_a_file_that_is_not_json_is_refused_with_one_line(self, tmp_path, capsys,
                                                              option, data, fault):
        verb, _, name = FILE_OPTIONS[option]
        path = tmp_path / "file"
        path.write_bytes(data)
        assert main([*verb, option, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} {path} {fault}\n"

    @pytest.mark.parametrize("option", ["--replay", "--fixtures"])
    @pytest.mark.parametrize("make, fault", [
        (lambda path: None, "cannot be read: No such file or directory"),
        (lambda path: path.mkdir(), "cannot be read: Is a directory"),
    ], ids=["missing", "directory"])
    def test_a_file_that_cannot_be_read_is_refused_with_one_line(self, tmp_path, capsys,
                                                                 option, make, fault):
        verb, _, name = FILE_OPTIONS[option]
        path = tmp_path / "file"
        make(path)
        assert main([*verb, option, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {name} {path} {fault}\n")


class TestConfigFile:
    def test_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 5\nformat = json\nseed = 3  # comment\n")
        code, out = run(capsys, "tc", "table1", "--p", "5", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config"]["p"] == "5"

    @pytest.mark.parametrize("argv, overridden", [
        (["operad", "check", "--seed", "0", "--trials", "3"],
         {"seed": "0", "trials": "3"}),
        (["tc", "table1", "--p", "5", "--min-deg", "0"], {"min_deg": "0"}),
        (["tc", "coassembly", "--i", "1", "--p", "5", "--assume-regular"],
         {"assume_regular": True}),
        (["hh", "verify", "--max-weight", "1", "--fixtures", "{fixture}"],
         {"fixture_path": "{fixture}"}),
    ])
    def test_flags_override_the_config_file(self, tmp_path, capsys, argv,
                                            overridden):
        fixture = tmp_path / "fixtures.json"
        fixture.write_text(resources.files("dualcircle").joinpath(
            "fixtures/hh_fixtures.json").read_text())
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = 5\nmin_deg = 2\ntrials = 7\n"
                       f"fixture_path = {tmp_path / 'absent.json'}\n")
        argv = [a.format(fixture=fixture) for a in argv]
        from_file = {"seed": "5", "min_deg": "2", "trials": "7",
                     "fixture_path": str(tmp_path / "absent.json"),
                     "assume_regular": False}
        expected = {**from_file, **{
            k: v.format(fixture=fixture) if isinstance(v, str) else v
            for k, v in overridden.items()}}
        code, out = run(capsys, *argv, "--config", str(cfg), "--format", "json")
        assert code == 0
        echo = json.loads(out)["config"]
        assert {k: echo[k] for k in expected} == expected

    @pytest.mark.parametrize("line, flags, code", [
        (None, [], 0),
        ("truncate_out_of_range = true", [], 0),
        ("truncate_out_of_range = false", [], 2),
        ("truncate_out_of_range = true", ["--no-truncate"], 2),
    ])
    def test_table2_truncation_from_file_and_flag(self, tmp_path, capsys,
                                                  line, flags, code):
        # p = 3 has an empty homotopy window: marked columns or an error
        cfg = tmp_path / "run.cfg"
        cfg.write_text("" if line is None else line + "\n")
        assert main(["tc", "table2", "--p", "3", "--config", str(cfg), *flags]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert "out-of-range" in out and err == ""
        else:
            assert "homology-to-homotopy window" in err and err.count("\n") == 1

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        with pytest.raises(UsageError):
            RunConfig.from_key_value_file(str(cfg))

    @pytest.mark.parametrize("line", ["check_regularity = maybe", "trials = many"])
    def test_unparsable_value_is_a_usage_error_naming_the_key(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = main(["tc", "coassembly", "--i", "1", "--p", "7", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert repr(line.split(" = ")[0]) in err and err.count("\n") == 1

    def test_boolean_spellings(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        for value, expected in (("On", True), ("yes", True), ("1", True),
                                ("off", False), ("No", False), ("0", False)):
            cfg.write_text(f"check_regularity = {value}\n")
            assert RunConfig.from_key_value_file(str(cfg)).check_regularity is expected

    @pytest.mark.parametrize("field", ["trials", "max_weight"])
    def test_nonpositive_counts_rejected(self, field):
        with pytest.raises(UsageError):
            RunConfig(**{field: 0}).validate()

    def test_trials_cap_boundary(self):
        assert MAX_TRIALS == 10**5
        RunConfig(trials=MAX_TRIALS).validate()
        with pytest.raises(UsageError):
            RunConfig(trials=MAX_TRIALS + 1).validate()

    def test_trials_above_the_cap_in_a_file_rejected_at_once(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trials = 100000000000000000000\n")
        start = time.monotonic()
        code = main(["operad", "check", "--config", str(cfg)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"at most {MAX_TRIALS}" in err and err.count("\n") == 1
        assert time.monotonic() - start < 1

    def test_empty_degree_range_rejected(self):
        cfg = RunConfig(min_deg=3, max_deg=1)
        with pytest.raises(UsageError):
            cfg.validate()


class TestReplay:
    def test_replay_associativity_case(self, tmp_path, capsys):
        payload = {
            "check": "associativity",
            "inputs": {"outer": ["1"], "inners": [["2"], ["3"]],
                       "deepest": [[], [], [], []]},
        }
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "operad", "check", "--replay", str(path))
        assert code == 0
        assert "associativity replay" in out

    def test_replay_hh_case(self, tmp_path, capsys):
        payload = {"check": "hh-weight", "inputs": {"module": "Z^2", "weight": 4}}
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "hh", "verify", "--replay", str(path))
        assert code == 0
        assert "hh replay [Z^2, 4]" in out

    def test_replay_hh_names_the_disagreeing_route(self, tmp_path, capsys,
                                                    monkeypatch):
        from dualcircle import hh_checks

        real = hh_checks.cell_weight_homology_fg

        def wrong_cell(n, m):
            got = dict(real(n, m))
            got[n] = FGAbGroup.from_orders(got.get(n, FGAbGroup.zero()).orders() + [2])
            return got

        monkeypatch.setattr(hh_checks, "cell_weight_homology_fg", wrong_cell)
        payload = {"check": "hh-weight", "inputs": {"module": "Z^2", "weight": 4}}
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        code, out = run(capsys, "hh", "verify", "--replay", str(path))
        assert code == 1
        assert "FAIL hh replay [Z^2, 4] cell vs frozen" in out

    def test_replay_payload_without_outer(self, tmp_path, capsys):
        payload = {"check": "associativity",
                   "inputs": {"inners": [["2"]], "deepest": [[]]}}
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        assert main(["operad", "check", "--replay", str(path)]) == 2
        assert "inputs.outer" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"check": "associativity",
          "inputs": {"outer": ["0"], "inners": [[]], "deepest": [[]]}},
         "inputs.inners"),
        ({"check": "coalgebra-compatibility",
          "inputs": {"outer": ["1", "2"], "inners": [[]]}}, "inputs.inners"),
        ({"check": "zero-action", "inputs": {"point": ["-5"]}}, "inputs.point"),
        ({"check": "zero-action", "inputs": {"point": []}}, "inputs.point"),
        ({"check": "associativity",
          "inputs": {"outer": "12", "inners": [[], [], []],
                     "deepest": [[], [], []]}}, "inputs.outer"),
        ({"check": "associativity",
          "inputs": {"outer": ["1", "2"], "inners": "123",
                     "deepest": [[]] * 6}}, "inputs.inners"),
        ({"check": "closure-A", "inputs": {"outer": ["1"], "inners": [[], []]}},
         "inputs.outer"),
        ({"check": "zero-action", "inputs": {"point": ["2"], "s": "3/2"}}, "inputs.s"),
        ({"check": "zero-action", "inputs": {"point": ["2"]}}, "inputs.s"),
    ])
    def test_replay_payload_with_invalid_points(self, tmp_path, capsys,
                                                payload, key):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        assert main(["operad", "check", "--replay", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("coordinate", ['"1/0"', "1e400", "true"])
    def test_replay_coordinate_that_is_not_a_rational(self, tmp_path, capsys,
                                                       coordinate):
        path = tmp_path / "payload.json"
        path.write_text('{"check": "zero-action", "inputs": {"point": [%s]}}'
                        % coordinate)
        assert main(["operad", "check", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "inputs.point" in err

    @pytest.mark.parametrize("inputs", [{"module": "Z", "weight": 0},
                                        {"module": ["Z"], "weight": 1}])
    def test_replay_hh_payload_with_invalid_inputs(self, tmp_path, capsys, inputs):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "hh-weight", "inputs": inputs}))
        assert main(["hh", "verify", "--replay", str(path)]) == 2
        assert "weight of at least 1" in capsys.readouterr().err

    def test_replay_hh_weight_above_the_fixture_cap(self, tmp_path, capsys):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "hh-weight",
                                    "inputs": {"module": "Z", "weight": 6}}))
        assert main(["hh", "verify", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "max_weight 5" in err

    @pytest.mark.parametrize("lo, hi", [(-3, 100000), (-3, 10**18), (-10**30, 0),
                                        (-3, MAX_DEGREES - 3)])
    def test_replay_hh_weight_window_wider_than_the_cap_is_refused_at_once(
            self, tmp_path, capsys, lo, hi):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "hh-weight", "inputs": {
            "module": "Z/2", "weight": 1, "lo": lo, "hi": hi, "fixtures": None}}))
        start = time.perf_counter()
        assert main(["hh", "verify", "--replay", str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"at most {MAX_DEGREES} degrees" in err

    def test_replay_hh_weight_window_at_the_cap_runs(self, tmp_path, capsys):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "hh-weight", "inputs": {
            "module": "Z/2", "weight": 1, "lo": -3, "hi": MAX_DEGREES - 4}}))
        assert main(["hh", "verify", "--replay", str(path)]) == 0

    @pytest.mark.parametrize("check", ["fr-commute", "restriction-deletion",
                                       "frobenius-routing"])
    def test_replay_level_above_the_cap(self, tmp_path, capsys, check):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": check, "inputs": {
            "p": "2", "n": str(MAX_LEVEL + 1)}}))
        assert main(["operad", "check", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"n <= {MAX_LEVEL}" in err

    def test_replay_report_echoes_no_option_of_the_verb(self, tmp_path, capsys):
        path = tmp_path / "hh.json"
        path.write_text(json.dumps({"check": "hh-weight",
                                    "inputs": {"module": "Z", "weight": 1}}))
        code, out = run(capsys, "hh", "verify", "--fixtures", "/nonexistent.json",
                        "--max-weight", "1", "--replay", str(path))
        assert code == 0 and "PASS hh replay [Z, 1]" in out
        config = next(line for line in out.splitlines() if line.startswith("config: "))
        assert "fixture_path" not in config and "max_weight=5" in config
        code, out = run(capsys, "tc", "table2", "--p", "3", "--format", "json",
                        "--replay", str(path))
        assert json.loads(out)["config"] == RunConfig(fmt="json").echo()

    @pytest.mark.parametrize("weight", ["true", "1.9"])
    def test_replay_hh_weight_that_is_not_an_integer(self, tmp_path, capsys, weight):
        path = tmp_path / "payload.json"
        path.write_text('{"check": "hh-weight", "inputs": {"module": "Z", "weight": %s}}'
                        % weight)
        assert main(["hh", "verify", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "inputs.weight" in err

    def test_replay_coassembly_square_that_does_not_close(self, tmp_path, capsys,
                                                          monkeypatch):
        from dualcircle import tc
        from dualcircle.qspaces import SymbolicQSpace

        monkeypatch.setattr(tc, "k_sphere_rational", lambda n: SymbolicQSpace.zero())
        argv = ["tc", "coassembly", "--i", "1", "--p", "5", "--assume-regular",
                "--format", "json"]
        code, out = run(capsys, *argv)
        assert code == 1
        failed, = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(failed["payload"]))
        # the payload's i and p win over the command's
        code, out = run(capsys, "tc", "coassembly", "--i", "2", "--p", "7",
                        "--assume-regular", "--format", "json", "--replay", str(path))
        assert code == 1
        replayed, = json.loads(out)["checks"]
        assert replayed["status"] == "fail"
        assert replayed["name"] == "assembled square in degree 4 did not close"
        assert replayed["payload"] == failed["payload"]

    @pytest.mark.parametrize("inputs, message", [
        ({"i": "1", "p": "4"}, "not prime"),
        ({"i": "1", "p": 5.0}, "inputs.p"),
        ({"i": True, "p": "5"}, "inputs.i"),
        ({"i": "one", "p": "5"}, "inputs.i"),
        ({"i": "0", "p": "5"}, "at least 1"),
        ({"i": "1", "p": "5"}, "inputs.regular"),
        ({"i": "1", "p": "5", "regular": "yes"}, "inputs.regular"),
    ])
    def test_replay_coassembly_with_invalid_inputs(self, tmp_path, capsys,
                                                   inputs, message):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "coassembly", "inputs": inputs}))
        assert main(["tc", "coassembly", "--i", "1", "--p", "5",
                     "--assume-regular", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("check", ["table1", "table2"])
    def test_replay_table_checks_the_payload_prime(self, tmp_path, capsys, check):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": check, "inputs": {"p": "5"}}))
        code, out = run(capsys, "tc", check, "--p", "3", "--format", "json",
                        "--replay", str(path))
        assert code == 0
        assert json.loads(out)["config"]["p"] == "5"

    @pytest.mark.parametrize("check", ["table1", "table2"])
    @pytest.mark.parametrize("p, message", [
        ("banana", "inputs.p"), (True, "inputs.p"), (5.0, "inputs.p"),
        ("4", "not prime"),
    ])
    def test_replay_table_with_invalid_prime(self, tmp_path, capsys, check,
                                             p, message):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": check, "inputs": {"p": p}}))
        assert main(["tc", check, "--p", "3", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("payload, message", [
        ({"check": "table1", "inputs": {"p": "5", "lo": "3", "hi": "1"}}, "is empty"),
        ({"check": "table1", "inputs": {"p": "5", "lo": "8", "hi": "9"}},
         "miss the table1 reference"),
        ({"check": "hh-weight", "inputs": {"module": "Z", "weight": 1, "lo": 2}},
         "inputs.hi"),
        ({"check": "hh-weight", "inputs": {"module": "Z", "weight": 1, "fixtures": 3}},
         "inputs.fixtures"),
    ])
    def test_replay_payload_with_invalid_window_or_fixtures(self, tmp_path, capsys,
                                                            payload, message):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        assert main(["operad", "check", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("argv", [
        ["operad", "check"], ["hh", "verify"], ["tc", "table1", "--p", "3"],
        ["tc", "table2", "--p", "3"], ["tc", "coassembly", "--i", "1", "--p", "5"],
    ])
    def test_replay_table2_truncates_through_every_verb(self, tmp_path, capsys, argv):
        # p = 3 has an empty homotopy window, so table 2 needs truncation
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "table2", "inputs": {"p": "3"}}))
        code, out = run(capsys, *argv, "--replay", str(path))
        assert code == 0 and "PASS table2 vs reference" in out

    def test_replay_table2_under_no_truncate_marks_the_window(self, tmp_path, capsys):
        # a replay reads its inputs only from the payload, and marking never
        # changes a table-2 verdict
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "table2", "inputs": {"p": "3"}}))
        code, out = run(capsys, "tc", "table2", "--p", "3", "--no-truncate",
                        "--replay", str(path))
        assert code == 0 and "PASS table2 vs reference" in out

    def test_replay_irregular_prime_fails_with_its_indices(self, tmp_path, capsys):
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "37",
                        "--assume-regular", "--check-regularity", "--format", "json")
        assert code == 1
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(json.loads(out)["checks"][0]["payload"]))
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "5",
                        "--format", "json", "--replay", str(path))
        assert code == 1
        check, = json.loads(out)["checks"]
        assert check["status"] == "fail"
        assert check["payload"]["irregular_indices"] == ["32"]

    def test_replay_regular_prime_passes(self, tmp_path, capsys):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "regularity", "inputs": {"p": "41"}}))
        code, out = run(capsys, "operad", "check", "--replay", str(path))
        assert code == 0 and "PASS p = 41 is regular" in out

    @pytest.mark.parametrize("p, message", [
        ("banana", "inputs.p"), (True, "inputs.p"), ("4", "not prime"),
        ("100003", "below 10^5"),
    ])
    def test_replay_regularity_with_invalid_prime(self, tmp_path, capsys, p, message):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "regularity", "inputs": {"p": p}}))
        assert main(["tc", "coassembly", "--i", "1", "--p", "5",
                     "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("payload", [
        {"check": "nonsense"}, {"check": ["x"]}, {"check": None},
        {"check": "unit", "inputs": 3}, ["unit"],
    ], ids=["nonsense", "list-check", "null-check", "scalar-inputs", "list-payload"])
    def test_replay_unknown_check(self, tmp_path, capsys, payload):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        assert main(["operad", "check", "--replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def bad_compose(outer, inners):
    from dualcircle.operads import OperadPoint, compose

    good = compose(outer, inners)
    # wrong addition: doubles every shift
    return OperadPoint(tuple(2 * t for t in good.shifts))


def representative_argv(group, verb):
    argv = [group, verb]
    for flag, keywords in COMMANDS[group][1][verb][1].items():
        if keywords.get("action") == "store_true":
            argv.append(flag)
        else:
            argv += [flag, "3" if keywords.get("type") is int else "x.json"]
    return argv + ["--format", "csv", "--config", "c.txt"]


# heads of fuzzed argv: every verb, alone and with its required options, and
# some that name no verb.  No head puts --format or --config where main
# refuses it before parsing.
FUZZ_HEADS = [[group, verb, *given] for group, (_, verbs) in COMMANDS.items()
              for verb, (_, options) in verbs.items()
              for given in ([], [w for flag, keywords in options.items()
                                 if keywords.get("required") for w in (flag, "3")])] + [
    ["tc", "table3"], ["operad", "-h"], ["hh", "--max-w=2"]]
FUZZ_FLAGS = ["--p", "--n", "--i", "--tri", "--trials", "--seed", "--min", "--min-deg",
              "--max-deg", "--ma", "--m", "--no", "--no-truncate", "--assume", "--check",
              "--c", "--conf", "--replay", "--rep", "--fix", "--max-w", "--max-d", "--form",
              "--format", "--he", "--s", "---p", "-h", "-p", "--"]
FUZZ_VALUES = ["5", "7", "2", "0", "-3", "", "1_0", " 5", "xml", "json", "csv", "c.txt",
               "x", "-", "-\u0663", "-1.5", "--", "-h", "--p=5"]


def fuzzed_argv(rng) -> list[str]:
    """A head and up to four items: a flag and a value, flag=value, a flag
    alone, or a value alone."""
    argv = list(rng.choice(FUZZ_HEADS))
    for _ in range(rng.randrange(5)):
        flag, value, r = rng.choice(FUZZ_FLAGS), rng.choice(FUZZ_VALUES), rng.random()
        argv += ([flag, value] if r < 0.5 else [f"{flag}={value}"] if r < 0.75
                 else [flag] if r < 0.9 else [value])
    return argv


class TestParser:
    @pytest.mark.parametrize("case", CLI_USAGE, ids=lambda c: " ".join(c["argv"]) or "-")
    def test_help_and_usage_bytes_are_frozen(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        code = main(list(case["argv"]))
        out, err = capsys.readouterr()
        assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize("group, verb", [
        (group, verb) for group, (_, verbs) in COMMANDS.items() for verb in verbs])
    def test_pruned_and_full_trees_parse_alike(self, group, verb, monkeypatch):
        argv = representative_argv(group, verb)
        full = vars(build_parser().parse_args(argv))
        # a known verb with nothing left over never builds the whole tree
        monkeypatch.setattr(cli, "build_parser", None)
        assert vars(parse_args(argv)) == full

    def test_every_verbs_job_and_spelling_parses_as_the_full_tree(self, monkeypatch):
        digests = json.loads(
            (ROOT / "perfbench" / "data" / "verbs_digests.json").read_text())
        spellings = ["operad check --tri 5", "operad check --seed=3 --trials=7 --format=csv",
                     "tc table1 --p=5 --min -1 --max=3 --format=csv",
                     "hh verify --max-w 2 --max-d=3 --fix=f.json",
                     "tc coassembly --i 1 --p 5 --assume --check --rep x.json",
                     "tc table2 --no --p 7 --form json --conf c.txt"]
        full = {line: vars(build_parser().parse_args(line.split()))
                for line in [*digests, *spellings]}
        monkeypatch.setattr(cli, "build_parser", None)
        for line, parsed in full.items():
            assert vars(parse_args(line.split())) == parsed, line

    @pytest.mark.parametrize("line", [
        "tc table1", "tc table1 --p x", "tc table1 --p 5 extra", "tc check-fr -h",
        "hh verify --max 2", "operad check --seed", "tc table2 --p 5 --format xml"])
    def test_rejected_argv_prints_what_the_full_tree_prints(self, capsys, monkeypatch,
                                                            line):
        monkeypatch.setenv("COLUMNS", "80")
        seen = []
        for parse in (parse_args, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(line.split())
            seen.append((exc.value.code, *capsys.readouterr()))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("line", [
        "tc table1 --p=--", "tc check-fr --p 3 --n=--", "operad check --trials=--",
        "hh verify --max-weight=--", "tc table1 --p 5 --replay=--",
        "tc table1 --p 5 --config=--"])
    def test_two_dashes_after_equals_is_a_usage_error(self, capsys, line):
        # argparse reads the value as an empty list, which the verbs then
        # compared with ints or skipped as an absent file
        flag = line.split()[-1].split("=")[0]
        assert (main(line.split()), *capsys.readouterr()) == (
            2, "", f"error: argument {flag}: expected one argument\n")

    def test_fuzzed_argv_parse_as_the_full_tree(self, capsys, monkeypatch):
        """An argv that ``COMMANDS`` settles parses as the full tree parses
        it; main prints for any other what the full tree prints."""
        monkeypatch.setenv("COLUMNS", "80")
        full = build_parser()
        # one tree for all the refused argv: building it costs more than parsing
        monkeypatch.setattr(cli, "build_parser", lambda: full)
        rng = random.Random(18)
        accepted = 0
        for _ in range(20000):
            argv = fuzzed_argv(rng)
            try:
                expected = vars(full.parse_args(argv))
            except SystemExit as exc:
                expected = (exc.code, *capsys.readouterr())
            try:
                read = cli._read_argv(argv)
            except UsageError as exc:
                # argparse reads a value "--" after "=" as an empty list
                assert any(a.startswith("--") and a.endswith("=--") for a in argv), argv
                assert (main(argv), *capsys.readouterr()) == (2, "", f"error: {exc}\n")
                continue
            if read is not None:
                accepted += 1
                assert read == expected, argv
            elif isinstance(expected, dict):
                assert vars(parse_args(argv)) == expected, argv
            else:
                assert (main(argv), *capsys.readouterr()) == expected, argv
        assert accepted > 2000  # 2468 of the 20000

    @pytest.mark.parametrize("source", ["docstring", "README"])
    def test_every_option_is_documented_on_its_verb_line(self, source):
        text = cli.__doc__ if source == "docstring" else (ROOT / "README.md").read_text()
        # a verb line and the indented lines that continue it
        words = {(m.group(1), m.group(2)): {w.strip("[]") for w in m.group(3).split()}
                 for m in re.finditer(r"dualcircle (\S+) (\S+)(.*(?:\n {20,}\S.*)*)", text)}
        for group, (_, verbs) in COMMANDS.items():
            for verb, (_, options) in verbs.items():
                assert set(options) <= words[group, verb], (group, verb)

    @pytest.mark.parametrize("source", ["README", "schema"])
    def test_every_replayable_kind_is_documented(self, source):
        from dualcircle.checks import CHECKS

        if source == "README":
            text = (ROOT / "README.md").read_text()
            listed = re.search(r"Replayable kinds:(.*?)\.", text, re.S).group(1)
            kinds = re.findall(r"`([^`]+)`", listed)
        else:
            schema = json.loads((ROOT / "docs" / "report.schema.json").read_text())
            payload = schema["properties"]["checks"]["items"]["properties"]["payload"]
            kinds = payload["properties"]["check"]["enum"]
        assert sorted(kinds) == sorted(CHECKS)

    def test_fresh_process_reads_sys_argv(self):
        digests = json.loads(
            (ROOT / "perfbench" / "data" / "verbs_digests.json").read_text())
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

        def fresh(*argv):
            return subprocess.run([sys.executable, "-m", "dualcircle.cli", *argv],
                                  capture_output=True, text=True, env=env, cwd=ROOT)

        for line in ["tc table1 --p 5 --format json", "hh verify --format json"]:
            done = fresh(*line.split())
            assert done.returncode == 0
            assert hashlib.sha256(done.stdout.encode()).hexdigest() == digests[line]
        done = fresh("tc", "table1", "--p", "5", "extra")
        assert done.returncode == 2 and done.stdout == ""
        assert [ln for ln in done.stderr.splitlines() if "error:" in ln] == [
            "dualcircle: error: unrecognized arguments: extra"]


class TestNegativeControlInjection:
    @pytest.fixture(autouse=True)
    def _corrupt_compose(self, monkeypatch):
        from dualcircle import operad_checks

        monkeypatch.setattr(operad_checks, "compose", bad_compose)

    def test_corrupted_compose_fails_with_counterexample(self):
        from dualcircle.checks import run_operad_check

        report = run_operad_check(RunConfig(seed=42, trials=50))
        assert not report.ok
        failing = [c for c in report.checks if c.status == "fail"]
        assert failing
        assert "inputs" in failing[0].payload

    def test_corrupted_compose_report_is_frozen(self):
        from dualcircle.checks import run_operad_check

        report = run_operad_check(RunConfig(seed=42, trials=50, fmt="json"))
        frozen = OPERAD_OUTPUTS["bad_compose_seed42_trials50"]
        assert report.to_json() == json.dumps(
            frozen, sort_keys=True, separators=(",", ":")) + "\n"
