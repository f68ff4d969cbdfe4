import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from relayauction import AuctionOutcome, SystemParams, optimal_schedule
from relayauction.cli import main
from relayauction.config import DEFAULT_CONFIG, resolve_config, simd_targets
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

    def test_channel_whose_lambda_over_z_overflows_is_solved(self, capsys):
        # lambda/z = 1e310 is beyond the largest double; the schedule is not.
        assert main(["solve", "--z", "1e-310"]) == 0
        record, _ = _last_record(capsys)
        assert record["cost_ws"] == optimal_schedule(1e-310, SystemParams()).cost_ws
        assert not record["constraint_active"]

    def test_invalid_channel_usage_error(self, capsys):
        for z in ("-3", "0", "nan", "inf"):
            assert main(["solve", "--z", z]) == 1
            assert "effective channel must be strictly positive and finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "z0,mechanism,rc",
        [(10.0, "spoa", 0), (10.0, "mspoa", 0), (3e307, "cooperative", 0), (3e307, "spoa", 2), (3e307, "mspoa", 2)],
    )
    def test_overflowing_bidder_fails_only_where_it_sets_the_payment(self, z0, mechanism, rc, tmp_path, capsys):
        # Default parameters: a schedule at z = 3e307 overflows; candidate 1 wins.
        path = tmp_path / "overflowing_bidder.json"
        path.write_text(json.dumps({
            "format": "relayauction/scenario-instance", "version": 1,
            "candidate_positions_m": [[1.0, 1.0], [2.0, 2.0]], "h_s": 1.0, "h_i": [1.0, 1.0],
            "h_si": [1.0, 1.0], "alpha_tilde": [0.5, 0.5], "z0_w": z0, "z_w": [1.0, 3e307],
        }))
        assert main(["auction", "--instance", str(path), "--mechanism", mechanism]) == rc
        captured = capsys.readouterr()
        if rc == 0:
            assert json.loads(captured.out.strip().splitlines()[-1])["winner"] == 1
        else:
            assert "score overflows" in captured.err

    def test_overflowing_net_energy_is_numerical_failure(self, tmp_path, capsys):
        path = self._hopeless_relay_instance(tmp_path, 1.0, alpha_tilde=1e306)
        rc = main(["auction", "--instance", str(path), "--mechanism", "spoa", "--lambda-w", "1000"])
        assert rc == 2
        assert "net energy overflows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change,named",
        [
            pytest.param(lambda r: {"format": "wrong"}, "scenario-instance", id="wrong-format"),
            pytest.param(lambda r: {k: v for k, v in r.items() if k != "z_w"}, "z_w", id="missing-z_w"),
            pytest.param(lambda r: [r], "JSON object", id="top-level-list"),
            pytest.param(lambda r: {**r, "h_s": "0.1"}, "h_s", id="string-h_s"),
            pytest.param(lambda r: {**r, "h_i": [True]}, "h_i", id="boolean-h_i"),
            pytest.param(lambda r: {**r, "z_w": [[1.0]]}, "z_w", id="nested-z_w"),
            pytest.param(lambda r: {**r, "candidate_positions_m": [[1.0, 1.0], [2.0]]},
                         "candidate_positions_m", id="position-not-a-pair"),
            pytest.param(lambda r: {**r, "z_w": [1.0]}, "z_w", id="short-z_w"),
            pytest.param(lambda r: {**r, "version": 2}, "version", id="wrong-version"),
        ],
    )
    def test_unparseable_instance_fails_cleanly(self, golden_instance, tmp_path, capsys, change, named):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(change(golden_instance.to_record())))
        assert main(["auction", "--instance", str(path)] + GOLDEN_FLAGS) == 1
        assert named in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path):
        assert main(["auction", "--instance", str(tmp_path / "nope.json")] + GOLDEN_FLAGS) == 1


class TestHumanLines:
    """``solve`` and ``auction`` print one line per record field, in field
    order, as they did before the records had slots."""

    def test_solve_lines(self, capsys):
        assert main(["solve", "--z", "1.0"] + GOLDEN_FLAGS) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "t_star_s           = 5.545177444479562",
            "p_star_w           = 1.718281828459045",
            "cost_ws            = 15.07335508290976",
            "constraint_active  = False",
        ]

    def test_auction_lines(self, golden_instance_file, capsys):
        assert main(["auction", "--instance", str(golden_instance_file), "--mechanism", "mspoa"] + GOLDEN_FLAGS) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[:-1] == [
            "mechanism            = mspoa",
            "winner               = 1",
            "runner_up            = 2",
            "payment_t_s          = 7.219916052495112",
            "payment_p_w          = 2.31107040700339",
            "source_cost_ws       = 23.9056503824653",
            "winner_net_energy_j  = 8.342867164985094",
            "winner_relay_p_w     = 0.8666514026262713",
            "winner_relay_feasible = True",
        ]
        assert json.loads(out[-1]) == {
            "format": "relayauction/auction-outcome", "version": 1, "mechanism": "mspoa",
            "winner": 1, "runner_up": 2, "payment_t_s": 7.219916052495112,
            "payment_p_w": 2.31107040700339, "source_cost_ws": 23.9056503824653,
            "winner_net_energy_j": 8.342867164985094, "winner_relay_p_w": 0.8666514026262713,
            "winner_relay_feasible": True,
        }


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
        # which Python, numpy and SIMD targets produced the bytes
        assert manifest["version"] == 2
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        targets = manifest["simd_targets"]
        assert sorted(targets) == ["exp", "expm1", "log1p", "power", "sqrt"]
        assert all(isinstance(t, str) and t for t in targets.values())

    def test_simd_targets_are_null_without_numpy_introspection(self, monkeypatch):
        # numpy < 2 has no numpy.lib.introspect; a None entry makes the import fail.
        monkeypatch.setitem(sys.modules, "numpy.lib.introspect", None)
        assert simd_targets() == dict.fromkeys(("power", "sqrt", "exp", "expm1", "log1p"))

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
        # Both of the section's range problems, not just the first.
        assert "lambda_w" in err and "alpha" in err

    @pytest.mark.parametrize(
        "config_text,flags",
        [
            ('{"system": {"p_max_w": Infinity}}', []),
            ('{"geometry": {"q_s_m": [7.0, NaN]}}', []),
            ('{"sweep": {"lambda_values_w": [1.0, Infinity]}}', []),
            ("{}", ["--lambda-w", "inf"]),
            ('{"sweep": {"trials": 2.7}}', []),
            ('{"sweep": {"trials": "5"}}', []),
            ('{"system": {"lambda_w": true}}', []),
            ('{"sweep": {"seed": true}}', []),
            ('{"sweep": {"n_values": [1.5]}}', []),
            ('{"geometry": {"q_s_m": [7.0]}}', []),
            ('{"sweep": {"n_values": [1, 1]}}', []),
        ],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, config_text, flags):
        path = tmp_path / "cfg.json"
        path.write_text(config_text)
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        for keys in json.loads(config_text).values():
            assert all(key in err for key in keys)

    @pytest.mark.parametrize(
        "config_text,flags",
        [('{"system": 3}', ["--lambda-w", "2"]), ('{"sweep": []}', ["--seed", "3"])],
    )
    def test_section_not_an_object_with_flag_overrides(self, tmp_path, capsys, config_text, flags):
        path = tmp_path / "cfg.json"
        path.write_text(config_text)
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), *flags])
        assert rc == 1
        assert next(iter(json.loads(config_text))) in capsys.readouterr().err

    @pytest.mark.parametrize("config_text", ["[1, 2]", "3", "null"])
    def test_top_level_not_an_object(self, tmp_path, capsys, config_text):
        path = tmp_path / "cfg.json"
        path.write_text(config_text)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "top level must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "sweep, message",
        [
            ({"trials": 500_001}, "trials x len(n_values) must be at most 4000000"),
            ({"n_values": [10**9], "trials": 1}, "every n must be at most 1000"),
        ],
    )
    def test_work_above_the_bound_is_a_config_error(self, tmp_path, capsys, monkeypatch, sweep, message):
        # Rejected by the config check: the sweep never starts.
        def never(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("relayauction.cli.run_sweep", never)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"sweep": sweep}))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exhausted_sampling_box_is_a_config_error(self, tmp_path, capsys, jobs):
        # No point of this box sees both the source and the access point; at
        # 2 jobs the error is raised in a worker and crosses the pool.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "geometry": {"sampling_box_m": [3.4, 3.6, 3.4, 3.6]},
            "sweep": {"n_values": [1, 2], "trials": 1},
        }))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o"), "--jobs", jobs])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: rejection sampling exhausted") and err.count("\n") == 1
        assert "(3.4, 3.6, 3.4, 3.6)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "q_s_m, loss",
        [([0.0, 0.0], "inf"), ([0.0, 2.2e-313], "inf"), ([1e60, 0.0], "0.0")],
        ids=["at-the-access-point", "next-to-it", "too-far"],
    )
    def test_source_without_a_finite_path_loss_is_a_config_error(self, tmp_path, capsys, q_s_m, loss):
        # 0 ** -eta_nlos divides by zero and a tiny distance overflows in
        # Python floats; a far source underflows to a zero channel.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"geometry": {"q_s_m": q_s_m}, "sweep": {"n_values": [1], "trials": 1}}))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: q_s_m {q_s_m} gives the direct link a path loss") and err.count("\n") == 1
        assert f"of {loss} " in err and "must be strictly positive and finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("k_los_db, k_los", [(4000, "inf"), (-4000, "0.0")], ids=["overflow", "underflow"])
    def test_k_los_without_a_finite_intercept_is_a_config_error(self, tmp_path, capsys, k_los_db, k_los):
        # 10 ** 400 overflows in Python floats, and 10 ** -400 underflows to
        # a zero channel that would otherwise surface as a zero h_i: both are
        # config errors that name k_los_db, not numerical failures.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"channel": {"k_los_db": k_los_db}, "sweep": {"n_values": [1], "trials": 1}}))
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: k_los_db {float(k_los_db)!r} gives the LOS links") and err.count("\n") == 1
        assert f"of {k_los};" in err and "must be strictly positive and finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        cfg = self._smoke_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", jobs])
        assert rc == 1
        assert "jobs must be at least 1" in capsys.readouterr().err

    def test_failed_sweep_creates_no_output_directory(self, tmp_path, capsys):
        out = tmp_path / "fresh" / "out"
        rc = main(["sweep", "--config", str(self._smoke_config(tmp_path)), "--out", str(out), "--jobs", "0"])
        assert rc == 1
        assert not out.exists() and not out.parent.exists()

    def test_invalid_json_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("flag", ["--a-r-m2", "--d-bits-per-hz"])
    def test_sweep_near_the_largest_double_writes_finite_outputs(self, tmp_path, flag):
        # Per-trial values near 1e300, whose squares overflow a double.
        out = tmp_path / "o"
        assert main(["sweep", flag, "1e300", "--trials", "3", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row.split(",")[2:])

        def strict(token):
            raise ValueError(f"{token} is not JSON")

        for name in ("cells.json", "manifest.json"):
            json.loads((out / name).read_text(), parse_constant=strict)


class TestConfigSchema:
    def test_defaults_round_trip(self):
        assert resolve_config({}).as_dict() == DEFAULT_CONFIG

    def test_resolved_config_round_trips(self):
        resolved = resolve_config({
            "system": {"d_bits_per_hz": 4, "lambda_w": 3.5, "alpha": 1.0},
            "geometry": {"q_s_m": [8, 6.5], "sampling_box_m": [1.0, 7.0, 1.0, 7.0]},
            "channel": {"k_los_db": -1.5, "eta_los": 2},
            "sweep": {"n_values": [3, 1], "lambda_values_w": [5], "trials": 7, "seed": 0,
                      "mechanisms": ["spoa"]},
        })
        assert resolved.system.d_bits_per_hz == 4.0 and resolved.geometry.q_s_m == (8.0, 6.5)
        assert resolve_config(resolved.as_dict()) == resolved
        assert json.loads(json.dumps(resolved.as_dict())) == resolved.as_dict()

    def test_readme_schema_block_is_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == DEFAULT_CONFIG


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

    def test_sweep_with_underflowing_durations_names_the_duration(self, tmp_path, capsys):
        # At D = 5e-324 every schedule's duration D*ln2/rate is subnormal or
        # 0, and the first chunk's capped schedules cost twice what their
        # durations cost.
        argv = ["sweep", "--d-bits-per-hz", "5e-324", "--trials", "4", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"numerical failure: the capped schedule for z=\S+ is not priced by its own duration 5e-324\n", err
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag, value, cause",
        [
            ("--sigma2-w", "5e-324", "no effective channel in the normal doubles has value"),
            ("--sigma2-w", "1e300", "z_w entries must be strictly positive and finite"),
            ("--alpha", "1e-300", "z_w entries must be strictly positive and finite"),
        ],
    )
    def test_kernel_value_error_in_a_valid_sweep_maps_to_two(self, tmp_path, capsys, flag, value, cause):
        # The config is valid; the MSPOA payment's inversion or the instance
        # builder then raises ValueError inside the sweep.
        argv = ["sweep", flag, value, "--trials", "3", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"numerical failure: seed 20260808, n=1, trials 0\.\.2: {cause}.*\n", err)
        assert not (tmp_path / "o").exists()


class TestVerify:
    def test_all_pass_exits_zero(self, monkeypatch, capsys):
        ok = CheckResult("stub-pass", True, "fine", 0.0)
        monkeypatch.setattr(
            "relayauction.cli.run_level", lambda level: [ok]
        )
        assert main(["verify", "--level", "fast"]) == 0
        record, _ = _last_record(capsys)
        assert record["failed"] == 0

    def test_any_failure_exits_three(self, monkeypatch, capsys):
        # A corrupted build must be caught and escalated as exit code 3.
        bad = CheckResult("stub-sign-flip", False, "flipped", 0.0)
        monkeypatch.setattr(
            "relayauction.cli.run_level", lambda level: [bad]
        )
        assert main(["verify", "--level", "full"]) == 3
        record, _ = _last_record(capsys)
        assert record["failed"] == 1

    def test_shipped_fast_level_passes(self, capsys):
        # Every fast check for real, with nothing mocked; its two deviation
        # fuzzes settle 100 instances x 40 deviations each as batches.
        assert main(["verify", "--level", "fast"]) == 0
        record, out = _last_record(capsys)
        assert (record["passed"], record["failed"]) == (10, 0)
        assert out.count("PASS ") == 10

    def test_full_level_is_the_fast_checks_plus_trends(self):
        # Read from the table, without running a check.
        from relayauction import verify as verify_mod

        fast = verify_mod.checks_for_level("fast")
        full = verify_mod.checks_for_level("full")
        trends = verify_mod.check_trends
        assert len(fast) == 10 and trends not in [c.func for c in fast]
        assert [c.func for c in full if c.func is not trends] == [c.func for c in fast]
        assert len(full) == 11
        assert all(not c.args and not c.keywords for c in full)

    def test_unknown_level_is_a_value_error(self):
        from relayauction.verify import checks_for_level

        with pytest.raises(ValueError, match="unknown verification level 'nope'"):
            checks_for_level("nope")

    def test_real_single_check_through_cli_plumbing(self, monkeypatch, capsys):
        from relayauction import verify as verify_mod

        monkeypatch.setattr(
            verify_mod, "checks_for_level", lambda level: [verify_mod.check_non_ic_demo]
        )
        assert main(["verify", "--level", "fast"]) == 0
        record, out = _last_record(capsys)
        assert record["checks"][0]["name"] == "spoa-non-ic-witness"
        assert "PASS spoa-non-ic-witness" in out
