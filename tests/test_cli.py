"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json

import pytest

from coinlever.cli import main
from coinlever.datasets import synthetic_payment_dataset, synthetic_utxo_dataset
from coinlever.io import write_payments, write_utxos
from coinlever.model import PaymentRequest, Utxo


@pytest.fixture()
def pools(tmp_path):
    utxos = tmp_path / "utxos.csv"
    payments = tmp_path / "payments.csv"
    write_utxos(utxos, synthetic_utxo_dataset(120, 5))
    write_payments(payments, synthetic_payment_dataset(30, 5))
    return utxos, payments


FAST = ["--budget-ms", "30000", "--node-budget", "6000"]


class TestExitCodes:
    def test_usage_error_on_unknown_flag(self, capsys):
        assert main(["simulate", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_usage_error_on_missing_required(self, capsys):
        assert main(["select"]) == 1

    def test_data_error_on_missing_file(self, capsys):
        code = main(["select", "--utxos", "nope.csv", "--payments", "nope.csv"])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_data_error_on_bad_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        good = tmp_path / "p.csv"
        good.write_text("id,value_sat\na,5\n")
        assert main(["select", "--utxos", str(bad), "--payments", str(good)]) == 2

    def test_data_error_on_a_generated_change_id(self, tmp_path, capsys):
        # The fallback's change output of iteration 2 is named change:2.
        utxos = tmp_path / "u.csv"
        utxos.write_text("id,value_sat\nbig,5000000\nchange:2,250\n")
        payments = tmp_path / "p.csv"
        write_payments(payments, [PaymentRequest(f"p{i}", 100_000, i) for i in range(3)])
        code = main(
            ["run-full", "--utxos", str(utxos), "--payments", str(payments),
             "--gamma", "10", "--batch-size", "1", *FAST]
        )
        assert code == 2
        assert "line 3: id 'change:2'" in capsys.readouterr().err

    def test_usage_error_on_bad_config_value(self, pools, capsys):
        utxos, payments = pools
        code = main(
            ["select", "--utxos", str(utxos), "--payments", str(payments), "--beta", "7"]
        )
        assert code == 1

    @pytest.mark.parametrize("flag,value", [("--beta", "abc"), ("--btc-usd", "1/0")])
    def test_usage_error_on_unparsable_fraction(self, pools, capsys, flag, value):
        utxos, payments = pools
        code = main(
            ["simulate", "--utxos", str(utxos), "--payments", str(payments), flag, value]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("simulate", ["--btc-usd", "-5"]),
            ("simulate", ["--btc-usd", "0"]),
            ("select", ["--extra-min", "0"]),
            ("select", ["--extra-max", "0"]),
            ("select", ["--mode", "leverage", "--extra-min", "5", "--extra-max", "2"]),
            # The unset bound defaults to the batch size, which leaves min > max.
            ("select", ["--mode", "leverage", "--extra-min", "5"]),
            ("run-full", ["--mode", "leverage", "--batch-size", "3", "--extra-max", "1"]),
            ("simulate", ["--gamma", "200", "--dust", "-5"]),
            ("simulate", ["--gamma", "200", "--make-change", "-5"]),
        ],
        ids=["negative-price", "zero-price", "extra-min-0", "extra-max-0",
             "min-above-max", "min-above-default-max", "default-min-above-max",
             "dust-negative", "make-change-negative"],
    )
    def test_usage_error_on_bad_price_or_leverage_bounds(
        self, pools, tmp_path, capsys, command, flags
    ):
        utxos, payments = pools
        small = ["--utxo-pool-size", "100", "--payment-pool-size", "20",
                 "--repetitions", "1", "--iterations-per-sample", "1"]
        code = main(
            [command, "--utxos", str(utxos), "--payments", str(payments), *FAST, *small,
             "--out", str(tmp_path / "out.json"), *flags]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err


    def test_simulate_impossible_leverage_bound_is_usage_error_before_any_run(
        self, pools, tmp_path, capsys
    ):
        # At batch size 2 the unset extra_max defaults to 2, below extra_min.
        utxos, payments = pools
        out = tmp_path / "out.json"
        code = main(
            ["simulate", "--utxos", str(utxos), "--payments", str(payments), *FAST,
             "--utxo-pool-size", "100", "--payment-pool-size", "20", "--repetitions", "1",
             "--extra-min", "5", "--out", str(out)]
        )
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


class TestSelect:
    def test_outputs_transaction_json(self, pools, capsys):
        utxos, payments = pools
        code = main(
            ["select", "--utxos", str(utxos), "--payments", str(payments),
             "--gamma", "200", *FAST]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] in {"fallback", "knapsack"}
        assert payload["transactions"]

    def test_leverage_mode_allows_pair(self, pools, capsys):
        utxos, payments = pools
        code = main(
            ["select", "--utxos", str(utxos), "--payments", str(payments),
             "--gamma", "200", "--mode", "leverage", *FAST]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] in {"fallback", "knapsack", "leverage"}

    def test_leverage_matches_run_full_first_record(self, tmp_path, capsys):
        utxos = tmp_path / "utxos.csv"
        payments = tmp_path / "payments.csv"
        write_utxos(utxos, synthetic_utxo_dataset(300, 5))
        write_payments(payments, synthetic_payment_dataset(60, 5))
        args = ["--utxos", str(utxos), "--payments", str(payments), "--gamma", "200",
                "--batch-size", "2", "--mode", "leverage", *FAST]
        assert main(["select", *args]) == 0
        selected = json.loads(capsys.readouterr().out)
        assert main(["run-full", *args]) == 0
        first = json.loads(capsys.readouterr().out)["records"][0]
        assert selected["method"] == first["method"] == "leverage"
        assert selected["transactions"] == first["transactions"]

    def test_scenario_error_when_pool_cannot_fund(self, tmp_path, capsys):
        utxos = tmp_path / "u.csv"
        payments = tmp_path / "p.csv"
        write_utxos(utxos, [Utxo("a", 10)])
        write_payments(payments, [PaymentRequest("p", 10_000, 0)])
        code = main(
            ["select", "--utxos", str(utxos), "--payments", str(payments),
             "--gamma", "0", *FAST]
        )
        assert code == 3


class TestRunFull:
    def test_trace_written(self, pools, tmp_path):
        utxos, payments = pools
        out = tmp_path / "trace.json"
        code = main(
            ["run-full", "--utxos", str(utxos), "--payments", str(payments),
             "--gamma", "200", "--mode", "leverage", "--out", str(out), *FAST]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["error"] is None
        assert payload["totals"]["payments_processed"] == 30
        assert payload["totals"]["iterations"] == len(payload["records"])

    def test_exhausted_writes_partial_and_exits_3(self, tmp_path, capsys):
        utxos = tmp_path / "u.csv"
        payments = tmp_path / "p.csv"
        write_utxos(utxos, [Utxo("a", 50_000)])
        write_payments(
            payments,
            [PaymentRequest("p0", 40_000, 0), PaymentRequest("p1", 900_000, 1)],
        )
        out = tmp_path / "trace.json"
        code = main(
            ["run-full", "--utxos", str(utxos), "--payments", str(payments),
             "--gamma", "0", "--batch-size", "1", "--out", str(out), *FAST]
        )
        assert code == 3
        payload = json.loads(out.read_text())
        assert payload["error"]
        assert payload["totals"]["payments_processed"] == 1


class TestSimulate:
    def test_single_cell_writes_json_and_summary(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        summary = tmp_path / "summary.csv"
        code = main(
            ["simulate", "--gamma", "200", "--batch-size", "2",
             "--utxo-pool-size", "100", "--payment-pool-size", "24",
             "--iterations-per-sample", "2", "--repetitions", "2",
             "--seed", "9", *FAST,
             "--out", str(out), "--summary", str(summary), "--format", "csv"]
        )
        assert code == 0
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 1
        assert cells[0]["config"]["rng_seed"] == 9
        assert summary.read_text().startswith("gamma,M,beta,mode")

    def test_dataset_too_small_is_a_data_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--utxo-pool-size", "20000", "--repetitions", "2",
             "--out", str(out)]
        )
        assert code == 2
        assert "data error: need 20000 UTXOs, dataset has 10000" in capsys.readouterr().err
        assert not out.exists()

    def test_dataset_too_small_fails_each_sweep_cell(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--sweep", "--utxo-pool-size", "20000", "--repetitions", "1",
             "--out", str(out)]
        )
        assert code == 3
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 20
        assert all(c["error"] == "DatasetTooSmall: need 20000 UTXOs, dataset has 10000"
                   for c in cells)
        assert capsys.readouterr().err.count("failed: DatasetTooSmall") == 20

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "gamma": 60, "batch_size": 3, "utxo_pool_size": 100,
            "payment_pool_size": 24, "iterations_per_sample": 2,
            "repetitions": 1, "rng_seed": 4, "budget_ms": 30000,
            "node_budget": 6000,
        }))
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--config", str(config), "--gamma", "200",
             "--out", str(out)]
        )
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["config"]["gamma"] == 200
        assert cell["config"]["batch_size"] == 3

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gammma": 60}))
        assert main(["simulate", "--config", str(config)]) == 1

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COINLEVER_SEED", "777")
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--gamma", "200", "--batch-size", "2",
             "--utxo-pool-size", "100", "--payment-pool-size", "24",
             "--iterations-per-sample", "1", "--repetitions", "1",
             *FAST, "--out", str(out)]
        )
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["config"]["rng_seed"] == 777

    def test_flag_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COINLEVER_SEED", "777")
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--gamma", "200", "--batch-size", "2",
             "--utxo-pool-size", "100", "--payment-pool-size", "24",
             "--iterations-per-sample", "1", "--repetitions", "1",
             "--seed", "5", *FAST, "--out", str(out)]
        )
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["config"]["rng_seed"] == 5


class TestReport:
    def test_reformat_json_to_csv(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        main(
            ["simulate", "--gamma", "200", "--batch-size", "2",
             "--utxo-pool-size", "100", "--payment-pool-size", "24",
             "--iterations-per-sample", "2", "--repetitions", "1",
             "--seed", "3", *FAST, "--out", str(out)]
        )
        capsys.readouterr()
        code = main(["report", "--in", str(out), "--format", "csv"])
        assert code == 0
        text = capsys.readouterr().out
        assert text.startswith("gamma,M,beta,mode")
        assert "leverage" in text

    @pytest.mark.parametrize("text", ['{"cells": [{}]}', "[1]", "{}"])
    def test_malformed_report_is_data_error(self, tmp_path, capsys, text):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert main(["report", "--in", str(report)]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_out_is_io_error(self, tmp_path, capsys, target):
        report = tmp_path / "report.json"
        report.write_text('{"cells": []}\n')
        out = tmp_path if target == "directory" else tmp_path / "absent" / "summary.md"
        code = main(["report", "--in", str(report), "--out", str(out)])
        assert code == 2
        assert "io error" in capsys.readouterr().err


class TestDeterminism:
    WARNING = "warning: the wall-clock budget"

    def args(self, command, pools, *extra):
        utxos, payments = pools
        return [command, "--utxos", str(utxos), "--payments", str(payments),
                "--gamma", "200", "--mode", "leverage", *extra]

    @pytest.mark.parametrize("command", ["select", "run-full"])
    def test_clock_stop_is_flagged_and_warned_once(self, pools, capsys, slow_clock, command):
        assert main(self.args(command, pools, "--budget-ms", "1")) == 0
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert payload["deterministic"] is False
        assert err.count(self.WARNING) == 1

    def test_simulate_clock_stop_is_flagged_and_warned_once(self, tmp_path, capsys, slow_clock):
        out = tmp_path / "report.json"
        code = main(
            ["simulate", "--gamma", "200", "--utxo-pool-size", "100",
             "--payment-pool-size", "24", "--iterations-per-sample", "2",
             "--repetitions", "2", "--budget-ms", "1", "--out", str(out)]
        )
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["leverage"]["deterministic"] is False
        assert capsys.readouterr().err.count(self.WARNING) == 1

    def test_node_cap_stops_stay_deterministic(self, pools, capsys):
        args = self.args("run-full", pools, "--budget-ms", "30000", "--node-budget", "1")
        assert main(args) == 0
        first, err = capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        limits = {a["limit"] for r in payload["records"] for a in r["solver_attempts"]}
        assert "nodes" in limits and "clock" not in limits
        assert payload["deterministic"] is True
        assert self.WARNING not in err
