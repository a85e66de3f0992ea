import json
from importlib import resources

import pytest

from dualcircle.abgroups import FGAbGroup
from dualcircle.cli import main
from dualcircle.report import RunConfig, UsageError


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


class TestHHVerb:
    def test_verify_passes(self, capsys):
        code, out = run(capsys, "hh", "verify")
        assert code == 0
        assert "PASS three-route[Z,1]" in out
        assert "PASS dual-numbers HH0, HH1" in out
        assert "PASS circle-dual-shadow" in out

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


class TestTCVerbs:
    def test_table1(self, capsys):
        code, out = run(capsys, "tc", "table1", "--p", "5")
        assert code == 0
        assert "PASS table1 vs reference" in out
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

    def test_table1_composite_prime_usage_error(self, capsys):
        code = main(["tc", "table1", "--p", "6"])
        assert code == 2

    def test_check_fr(self, capsys):
        code, out = run(capsys, "tc", "check-fr", "--p", "2", "--n", "3")
        assert code == 0
        assert "PASS F and R commute at level 3" in out

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

    def test_coassembly_decides_regularity(self, capsys):
        code, out = run(capsys, "tc", "coassembly", "--i", "1", "--p", "5",
                        "--check-regularity")
        assert code == 0
        assert "zero on pi_4^Q" in out

    def test_negative_controls(self, capsys):
        code, out = run(capsys, "tc", "controls", "--p", "3")
        assert code == 0
        assert "PASS zeroed transfer row detected" in out

    def test_csv_format(self, capsys):
        code, out = run(capsys, "tc", "table1", "--p", "2", "--format", "csv")
        assert code == 0
        assert "spectrum,H_-2" in out


class TestConfigFile:
    def test_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 5\nformat = json\nseed = 3  # comment\n")
        code, out = run(capsys, "tc", "table1", "--p", "5", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["config"]["p"] == "5"

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 1\n")
        with pytest.raises(UsageError):
            RunConfig.from_key_value_file(str(cfg))

    @pytest.mark.parametrize("field", ["trials", "max_weight"])
    def test_nonpositive_counts_rejected(self, field):
        with pytest.raises(UsageError):
            RunConfig(**{field: 0}).validate()

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
        from dualcircle import checks

        real = checks.cell_weight_homology_fg

        def wrong_cell(n, m):
            got = dict(real(n, m))
            got[n] = got.get(n, FGAbGroup.zero()).direct_sum(FGAbGroup.cyclic(2))
            return got

        monkeypatch.setattr(checks, "cell_weight_homology_fg", wrong_cell)
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

    def test_replay_unknown_check(self, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps({"check": "nonsense"}))
        assert main(["operad", "check", "--replay", str(path)]) == 2


class TestNegativeControlInjection:
    def test_corrupted_compose_fails_with_counterexample(self):
        from dualcircle.checks import run_operad_check
        from dualcircle.operads import OperadPoint, compose

        def bad_compose(outer, inners):
            good = compose(outer, inners)
            # wrong addition: doubles every shift
            return OperadPoint(tuple(2 * t for t in good.shifts))

        report = run_operad_check(RunConfig(seed=42, trials=50), compose_fn=bad_compose)
        assert not report.ok
        failing = [c for c in report.checks if c.status == "fail"]
        assert failing
        assert "inputs" in failing[0].payload
