import json
import math

import pytest

from relayauction import AuctionOutcome, SystemParams, optimal_schedule
from relayauction.cli import main
from relayauction.verify import CheckResult


def _last_record(capsys):
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


GOLDEN_FLAGS = [
    "--lambda-w", "1", "--p-max-w", "10", "--sigma2-w", "1",
    "--a-r-m2", "1", "--alpha", "0.25",
]


class TestSolve:
    def test_trivial_channel(self, capsys):
        rc = main(["solve", "--z", "1.0", "--lambda-w", "1.0", "--p-max-w", "10.0"])
        record, out = _last_record(capsys)
        assert rc == 0
        sol = optimal_schedule(1.0, SystemParams(lambda_w=1.0, p_max_w=10.0))
        assert record["t_star_s"] == sol.t_star_s
        assert record["p_star_w"] == sol.p_star_w
        assert not record["constraint_active"]
        assert "t_star_s" in out  # human-readable section precedes the record

    def test_huge_channel_binds_the_cap(self, capsys):
        assert main(["solve", "--z", "1e20"]) == 0
        record, _ = _last_record(capsys)
        assert record["constraint_active"]

    def test_invalid_channel_usage_error(self, capsys):
        assert main(["solve", "--z", "-3"]) == 1
        assert main(["solve", "--z", "0"]) == 1

    def test_missing_subcommand_usage_error(self):
        assert main([]) == 1

    def test_override_changes_result(self, capsys):
        main(["solve", "--z", "1.0", "--lambda-w", "4.0", "--p-max-w", "10.0"])
        record, _ = _last_record(capsys)
        sol = optimal_schedule(1.0, SystemParams(lambda_w=4.0, p_max_w=10.0))
        assert record["t_star_s"] == sol.t_star_s


class TestAuction:
    @pytest.mark.parametrize("mechanism", ["cooperative", "spoa", "mspoa"])
    def test_golden_instance_candidate_one_wins(self, mechanism, golden_instance_file, capsys):
        rc = main(
            ["auction", "--instance", str(golden_instance_file), "--mechanism", mechanism]
            + GOLDEN_FLAGS
        )
        record, _ = _last_record(capsys)
        assert rc == 0
        assert record["winner"] == 1
        assert record["runner_up"] == 2

    def test_spoa_and_mspoa_payments_agree_on_truthful_golden(self, golden_instance_file, capsys):
        main(["auction", "--instance", str(golden_instance_file), "--mechanism", "spoa"] + GOLDEN_FLAGS)
        spoa, _ = _last_record(capsys)
        main(["auction", "--instance", str(golden_instance_file), "--mechanism", "mspoa"] + GOLDEN_FLAGS)
        mspoa, _ = _last_record(capsys)
        assert mspoa["payment_t_s"] == pytest.approx(spoa["payment_t_s"], rel=1e-8)
        assert mspoa["payment_p_w"] == pytest.approx(spoa["payment_p_w"], rel=1e-8)

    def test_source_win_has_zero_net_energy(self, golden_instance, tmp_path, capsys):
        record = golden_instance.to_record()
        record["z0_w"] = 0.1  # direct link now beats both candidates
        record["h_s"] = 10.0
        path = tmp_path / "source_wins.json"
        path.write_text(json.dumps(record))
        rc = main(["auction", "--instance", str(path), "--mechanism", "mspoa"] + GOLDEN_FLAGS)
        rec, _ = _last_record(capsys)
        assert rc == 0
        assert rec["winner"] == 0
        assert rec["winner_net_energy_j"] == 0.0

    def _hopeless_relay_instance(self, tmp_path, h_i, alpha_tilde=1.0):
        # A near-perfect effective channel (z = 1e-12) whose own link h_i is so
        # weak that its retransmission power (2^(D/t) - 1)*sigma2/h_i can
        # exceed the largest double.
        path = tmp_path / "hopeless_relay.json"
        path.write_text(json.dumps({
            "format": "relayauction/scenario-instance", "version": 1,
            "candidate_positions_m": [[1.0, 1.0]], "h_s": 1e-12, "h_i": [h_i],
            "h_si": [1.0], "alpha_tilde": [alpha_tilde], "z0_w": 1000.0, "z_w": [1e-12],
        }))
        return path

    @pytest.mark.parametrize("h_i", [1e-306, 1e-318])
    @pytest.mark.parametrize("mechanism", ["cooperative", "spoa", "mspoa"])
    def test_overflowing_relay_power_is_strict_json(self, mechanism, h_i, tmp_path, capsys):
        path = self._hopeless_relay_instance(tmp_path, h_i)
        rc = main(["auction", "--instance", str(path), "--mechanism", mechanism, "--lambda-w", "1000"])
        out = capsys.readouterr().out

        def reject(token):
            raise AssertionError(f"non-standard JSON token {token}")

        record = json.loads(out.strip().splitlines()[-1], parse_constant=reject)
        assert rc == 0
        assert record["winner"] == 1
        assert record["winner_relay_feasible"] is False
        # Paid its own short schedule, or with h_i subnormal (sigma2/h_i is
        # inf), the power overflows; paid the source's long one, it is 1e294.
        overflows = mechanism == "cooperative" or h_i == 1e-318
        assert (record["winner_relay_p_w"] is None) == overflows
        outcome = AuctionOutcome.from_record(record)
        assert outcome.winner_relay_p_w == (math.inf if overflows else record["winner_relay_p_w"])

    def test_overflowing_net_energy_is_numerical_failure(self, tmp_path, capsys):
        path = self._hopeless_relay_instance(tmp_path, 1.0, alpha_tilde=1e306)
        rc = main(["auction", "--instance", str(path), "--mechanism", "spoa", "--lambda-w", "1000"])
        assert rc == 2
        assert "net energy overflows" in capsys.readouterr().err

    def test_unparseable_instance_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\"format\": \"wrong\"}")
        assert main(["auction", "--instance", str(path)] + GOLDEN_FLAGS) == 1

    def test_missing_file_fails_cleanly(self, tmp_path):
        assert main(["auction", "--instance", str(tmp_path / "nope.json")] + GOLDEN_FLAGS) == 1


class TestSweep:
    def _smoke_config(self, tmp_path, trials=10):
        cfg = {
            "sweep": {
                "n_values": [1, 2],
                "lambda_values_w": [1.0, 100.0],
                "trials": trials,
                "seed": 11,
                "mechanisms": ["cooperative", "mspoa"],
            }
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_smoke_sweep_writes_all_outputs(self, tmp_path, capsys):
        cfg = self._smoke_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "sweep.csv").exists()
        assert (out / "cells.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 11
        # every default actually used is echoed, nothing silent
        assert manifest["resolved_params"]["system"]["sigma2_w"] == 1e-9
        assert manifest["resolved_params"]["geometry"]["q_s_m"] == [7.0, 7.0]
        assert manifest["artifact_version"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = self._smoke_config(tmp_path, trials=20)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--jobs", "2"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path, capsys):
        cfg = self._smoke_config(tmp_path, trials=20)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep", "--config", str(cfg), "--out", str(out1)])
        main(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "12"])
        assert (out1 / "sweep.csv").read_bytes() != (out2 / "sweep.csv").read_bytes()

    def test_config_errors_list_every_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "system": {"lambda_w": -1.0, "alpha": 7.0, "nonsense_key": 3},
            "sweep": {"trials": 0},
        }))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "nonsense_key" in err
        assert "trials" in err or "sweep" in err
        assert "system" in err

    @pytest.mark.parametrize(
        "config_text,flags",
        [
            ('{"system": {"p_max_w": Infinity}}', []),
            ('{"geometry": {"q_s_m": [7.0, NaN]}}', []),
            ('{"sweep": {"lambda_values_w": [1.0, Infinity]}}', []),
            ("{}", ["--lambda-w", "inf"]),
        ],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, config_text, flags):
        path = tmp_path / "cfg.json"
        path.write_text(config_text)
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), *flags])
        assert rc == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


class TestNumericalFailureExitCode:
    def test_convergence_error_maps_to_two(self, monkeypatch, capsys):
        from relayauction.numerics import ConvergenceError

        def boom(*args, **kwargs):
            raise ConvergenceError("solver stalled")

        monkeypatch.setattr("relayauction.cli.optimal_schedule", boom)
        assert main(["solve", "--z", "1.0"]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_schedule_maps_to_two(self, capsys):
        assert main(["solve", "--z", "1e308"]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestVerify:
    def test_all_pass_exits_zero(self, monkeypatch, capsys):
        ok = CheckResult("stub-pass", True, "fine", 0.0)
        monkeypatch.setattr(
            "relayauction.cli.run_level", lambda level, emit=print: [ok]
        )
        assert main(["verify", "--level", "fast"]) == 0
        record, _ = _last_record(capsys)
        assert record["failed"] == 0

    def test_any_failure_exits_three(self, monkeypatch, capsys):
        # A corrupted build must be caught and escalated as exit code 3.
        bad = CheckResult("stub-sign-flip", False, "flipped", 0.0)
        monkeypatch.setattr(
            "relayauction.cli.run_level", lambda level, emit=print: [bad]
        )
        assert main(["verify", "--level", "full"]) == 3
        record, _ = _last_record(capsys)
        assert record["failed"] == 1

    def test_real_single_check_through_cli_plumbing(self, monkeypatch, capsys):
        from relayauction import verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "checks_for_level", lambda level: [verify_mod.check_non_ic_demo]
        )
        assert main(["verify", "--level", "fast"]) == 0
        record, out = _last_record(capsys)
        assert record["checks"][0]["name"] == "spoa-non-ic-witness"
        assert "PASS spoa-non-ic-witness" in out
