"""Tests for the run loop and the sampling, scenario, and sweep layers."""

from __future__ import annotations

import hashlib
import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from coinlever.datasets import (
    bundled_payment_dataset,
    bundled_utxo_dataset,
    synthetic_payment_dataset,
    synthetic_utxo_dataset,
)
import coinlever.simulation as simulation
from coinlever.io import dumps, report_dict
from coinlever.model import PaymentRequest, Utxo, UtxoPool, dust_threshold
from coinlever.orchestrator import WorldState
from coinlever.selection import Method
from coinlever.simulation import (
    BATCH_SWEEP,
    DEFAULT_BOOST,
    GAMMA_SWEEP,
    DatasetTooSmall,
    Mode,
    ScenarioConfig,
    ScenarioReport,
    ZeroBaseline,
    default_sweep_configs,
    derive_seed,
    run_cell,
    run_full,
    run_scenario,
    sample_payments,
    sample_utxo_pool,
    summarize,
    sweep,
    tally,
)

DESK = dict(
    utxo_pool_size=120,
    payment_pool_size=30,
    iterations_per_sample=3,
    repetitions=2,
    budget_ms=30_000,
    node_budget=8_000,
)


def desk_config(**overrides) -> ScenarioConfig:
    params = dict(gamma=200, batch_size=2, rng_seed=11, **DESK)
    params.update(overrides)
    return ScenarioConfig(**params)


class TestDatasets:
    def test_deterministic(self):
        assert synthetic_utxo_dataset(50, 1) == synthetic_utxo_dataset(50, 1)
        assert synthetic_payment_dataset(50, 1) == synthetic_payment_dataset(50, 1)

    def test_bundled_sizes_cover_default_protocol(self):
        utxos = bundled_utxo_dataset()
        payments = bundled_payment_dataset()
        assert len(utxos) >= 2500
        # Enough eligible payments for the harshest dust cutoff in the sweep.
        cutoff = dust_threshold(900)
        assert sum(1 for p in payments if p.value >= cutoff) >= 250

    def test_unique_ids_and_ranks(self):
        utxos = bundled_utxo_dataset()
        payments = bundled_payment_dataset()
        assert len({u.id for u in utxos}) == len(utxos)
        assert len({p.urgency_rank for p in payments}) == len(payments)


class TestSampling:
    def test_exhaustive_sample_is_permutation(self):
        source = synthetic_utxo_dataset(40, 7)
        pool = sample_utxo_pool(source, 40, random.Random(3))
        assert sorted(u.id for u in pool) == sorted(u.id for u in source)
        values = pool.values()
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_same_seed_same_pool(self):
        source = synthetic_utxo_dataset(100, 7)
        a = sample_utxo_pool(source, 30, random.Random(5))
        b = sample_utxo_pool(source, 30, random.Random(5))
        assert a == b

    def test_dataset_too_small(self):
        with pytest.raises(DatasetTooSmall):
            sample_utxo_pool(synthetic_utxo_dataset(10, 1), 11, random.Random(0))
        with pytest.raises(DatasetTooSmall):
            sample_payments(
                synthetic_payment_dataset(10, 1), 11, 0, random.Random(0)
            )

    def test_min_value_filter_applies(self):
        source = synthetic_payment_dataset(500, 9)
        drawn = sample_payments(source, 50, 4004, random.Random(1))
        assert all(p.value >= 4004 for p in drawn)

    def test_zero_min_is_plain_sample(self):
        source = synthetic_payment_dataset(100, 9)
        drawn = sample_payments(source, 100, 0, random.Random(1))
        assert sorted(p.id for p in drawn) == sorted(p.id for p in source)

    def test_sample_is_contained_in_filtered_dataset(self):
        source = synthetic_payment_dataset(300, 2)
        min_value = 500_000
        drawn = sample_payments(source, 20, min_value, random.Random(4))
        by_id = {p.id: p.value for p in source}
        for p in drawn:
            assert by_id[p.id] == p.value and p.value >= min_value

    def test_ranks_follow_draw_order(self):
        source = synthetic_payment_dataset(50, 2)
        drawn = sample_payments(source, 10, 0, random.Random(4))
        assert [p.urgency_rank for p in drawn] == list(range(10))

    def test_sampled_distribution_tracks_source(self):
        source = synthetic_utxo_dataset(2000, 3)
        source_values = [u.value for u in source]
        distances = []
        for seed in range(10):
            pool = sample_utxo_pool(source, 400, random.Random(seed))
            stat = ks_2samp(source_values, list(pool.values())).statistic
            distances.append(stat)
        assert max(distances) < 0.12

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(1, 0, "utxo") == derive_seed(1, 0, "utxo")
        assert derive_seed(1, 0, "utxo") != derive_seed(1, 0, "pay")
        assert derive_seed(1, 0, "utxo") != derive_seed(1, 1, "utxo")
        assert 0 <= derive_seed(99, 3, "pay") < 2**64


class TestScenarioConfig:
    def test_beta_default_comes_from_boost_table(self):
        assert desk_config(gamma=900).effective_beta == Fraction("0.22")
        assert desk_config(gamma=22, batch_size=5).effective_beta == Fraction(1)

    def test_explicit_beta_wins(self):
        assert desk_config(beta="0.5").effective_beta == Fraction(1, 2)

    def test_min_payment_defaults_to_dust(self):
        assert desk_config(gamma=60).effective_min_payment == dust_threshold(60)
        assert desk_config(min_payment=777).effective_min_payment == 777

    def test_validation(self):
        with pytest.raises(ValueError):
            desk_config(beta="1.5")
        with pytest.raises(ValueError):
            desk_config(batch_size=0)
        with pytest.raises(ValueError):
            desk_config(budget_ms=0)

    def test_fee_params_overrides(self):
        fees = desk_config(dust=100, make_change=50).fee_params()
        assert (fees.dust, fees.make_change) == (100, 50)
        defaults = desk_config().fee_params()
        assert defaults.dust == dust_threshold(200)


class TestRunScenario:
    def test_zero_iterations_is_empty(self):
        report = run_scenario(desk_config(iterations_per_sample=0), Mode.NO_LEVERAGE)
        assert report.totals["total_cost_sat"] == 0
        assert report.totals["payments_processed"] == 0
        assert report.totals["iterations"] == 0

    def test_no_leverage_mode_never_uses_leverage(self):
        report = run_scenario(desk_config(), Mode.NO_LEVERAGE)
        assert report.rate(Method.LEVERAGE) == 0
        assert report.rate(Method.FALLBACK) + report.rate(Method.KNAPSACK) == 1

    def test_rates_sum_to_one_in_leverage_mode(self):
        report = run_scenario(desk_config(), Mode.LEVERAGE)
        assert sum(report.rate(m) for m in Method) == 1

    def test_no_leverage_processes_batch_times_iterations(self):
        config = desk_config()
        report = run_scenario(config, Mode.NO_LEVERAGE)
        expected = config.iterations_per_sample * config.batch_size
        for rep in report.ok_repetitions:
            assert tally(rep.records)["payments_processed"] == expected

    def test_matched_modes_see_identical_samples(self):
        config = desk_config()
        no_lev = run_scenario(config, Mode.NO_LEVERAGE)
        lev = run_scenario(config, Mode.LEVERAGE)
        for a, b in zip(no_lev.repetitions, lev.repetitions):
            assert a.sample_digest == b.sample_digest

    def test_deterministic_reports(self):
        config = desk_config()
        first = run_scenario(config, Mode.LEVERAGE)
        second = run_scenario(config, Mode.LEVERAGE)
        assert first == second

    def test_failed_repetitions_recorded_distinctly(self):
        # A pool far too small to fund anything fails every repetition.
        tiny_utxos = tuple(Utxo(f"u{i}", 1000 + i) for i in range(30))
        payments = tuple(
            PaymentRequest(f"p{i}", 10_000_000, i) for i in range(30)
        )
        config = desk_config(utxo_pool_size=20, payment_pool_size=10, min_payment=0)
        report = run_scenario(
            config, Mode.NO_LEVERAGE, utxo_dataset=tiny_utxos, payment_dataset=payments
        )
        assert report.failed_count == config.repetitions
        assert all(not rep.ok and rep.failure for rep in report.repetitions)
        assert report.totals["iterations"] == 0

    def test_cost_equals_sum_of_iteration_costs(self):
        report = run_scenario(desk_config(), Mode.LEVERAGE)
        total = sum(
            rec.cost for rep in report.ok_repetitions for rec in rep.records
        )
        assert report.totals["total_cost_sat"] == total


def first_sample(config: ScenarioConfig) -> WorldState:
    """The world state repetition 0 of ``config`` starts from."""
    pool = sample_utxo_pool(
        bundled_utxo_dataset(),
        config.utxo_pool_size,
        random.Random(derive_seed(config.rng_seed, 0, "utxo")),
    )
    payments = sample_payments(
        bundled_payment_dataset(),
        config.payment_pool_size,
        config.effective_min_payment,
        random.Random(derive_seed(config.rng_seed, 0, "pay")),
    )
    return WorldState.initial(pool, payments)


def run_config(config: ScenarioConfig, mode: Mode, **kwargs):
    lev = config.leverage_params() if mode is Mode.LEVERAGE else None
    return run_full(
        first_sample(config),
        config.batch_size,
        config.fee_params(),
        config.budget_seconds,
        lev=lev,
        candidate_window=config.candidate_window,
        max_nodes=config.node_budget,
        **kwargs,
    )


class TestRunFull:
    def test_limit_one_takes_one_step(self):
        records, final_state, failure = run_config(desk_config(), Mode.LEVERAGE, limit=1)
        assert [r.iteration for r in records] == [1]
        assert final_state.iteration == 1
        assert failure is None

    def test_limit_zero_is_vacuous(self):
        config = desk_config()
        state = first_sample(config)
        fees = config.fee_params()
        assert run_full(state, 2, fees, config.budget_seconds, limit=0) == ((), state, None)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_scenario_repetition_is_a_limited_run(self, mode):
        config = desk_config(repetitions=1)
        report = run_scenario(config, mode)
        records, _, failure = run_config(config, mode, limit=config.iterations_per_sample)
        assert report.repetitions[0].records == records
        assert report.repetitions[0].failure == failure

    def test_every_step_goes_through_the_module_global(self, monkeypatch):
        # Call-boundary instrumentation rebinds ``simulation.step`` and reads
        # the state, batch size, fees and budget positionally and the rest by
        # keyword, so both entry points must route every record through it.
        calls = []
        original = simulation.step

        def counting_step(*args, **kwargs):
            assert len(args) == 4
            assert set(kwargs) == {"lev", "candidate_window", "max_nodes"}
            state, record = original(*args, **kwargs)
            calls.append(record)
            return state, record

        monkeypatch.setattr(simulation, "step", counting_step)
        config = desk_config()
        report = run_scenario(config, Mode.LEVERAGE)
        assert calls == [r for rep in report.repetitions for r in rep.records]
        calls.clear()
        records, _, _ = run_config(config, Mode.NO_LEVERAGE)
        assert calls == list(records) and len(records) > config.iterations_per_sample


class TestDrainedRuns:
    """Whole backlogs at desk scale, with a candidate window short enough
    that most of the backlog lies beyond the front a step touches."""

    @pytest.mark.parametrize("mode", list(Mode))
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        gamma=st.sampled_from(GAMMA_SWEEP),
        batch_size=st.sampled_from([2, 3]),
        window=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=12, deadline=None)
    def test_pool_and_backlog_balance_exactly(self, mode, seed, gamma, batch_size, window):
        config = desk_config(
            gamma=gamma, batch_size=batch_size, rng_seed=seed, candidate_window=window
        )
        initial = first_sample(config)
        records, final, failure = run_config(config, mode, limit=None)
        processed = {pid for r in records for pid in r.processed_ids}
        assert len(processed) == sum(len(r.processed_ids) for r in records)
        paid = sum(p.value for p in initial.pending if p.id in processed)
        assert initial.utxo_pool.total() - final.utxo_pool.total() == (
            sum(r.cost for r in records) + paid
        )
        assert final.pending == tuple(p for p in initial.pending if p.id not in processed)
        assert failure is not None or final.pending == ()


class TestSampleDigest:
    """Every report carries the digest, so it must not change by a byte."""

    def test_tiny_sample_is_pinned(self):
        pool = UtxoPool.from_utxos([Utxo("a", 5), Utxo("b", 9), Utxo("c", 5)])
        payments = (PaymentRequest("p0", 4, 0), PaymentRequest("p1", 7, 1))
        assert simulation._sample_digest(pool, payments) == "3e5075eb7f4959cbd8bf69bfaa3b4435"
        empty = simulation._sample_digest(UtxoPool.from_utxos([]), ())
        assert empty == "cae66941d9efbd404e4d88758ea67670"

    def test_bundled_protocol_sample_is_pinned(self):
        config = ScenarioConfig(gamma=22, batch_size=2, repetitions=1, iterations_per_sample=0)
        report = run_scenario(config, Mode.NO_LEVERAGE)
        assert report.repetitions[0].sample_digest == "4ead6370da3625f829c9b8c64f39cb7f"


class TestFullScalePins:
    """One repetition of the protocol's full-scale grid, pinned by the
    SHA-256 of its JSON report. The wall-clock budget is far above any
    call, so only the node cap can cut a search and the report is the same
    on every run. A change that moves a pin must say so and update it."""

    @staticmethod
    def report_sha256(mode: Mode, batch_sizes) -> str:
        base = ScenarioConfig(gamma=22, batch_size=2, repetitions=1, budget_ms=60_000)
        configs = [c for c in default_sweep_configs(base) if c.batch_size in batch_sizes]
        text = dumps({"reports": [report_dict(run_scenario(c, mode)) for c in configs]})
        return hashlib.sha256(text.encode()).hexdigest()

    def test_no_leverage_grid(self):
        assert self.report_sha256(Mode.NO_LEVERAGE, BATCH_SWEEP) == (
            "6625472fd9dcf2443a0f4da3c2f2e47a6615e1b046eb211b2863d1857d329eda"
        )

    def test_leverage_grid(self):
        # With the 64-candidate window, bundle size 2 sweeps every bundle
        # and larger bundles keep the solver's.
        assert self.report_sha256(Mode.LEVERAGE, BATCH_SWEEP) == (
            "6902a5bfe50a66e84cda1380b062818a20030ffd72afd06ab6c62340dc56ebd0"
        )


class TestFullProtocolRecord:
    def test_committed_record_matches_a_rerun(self):
        # The whole protocol, 20 cells of 10 repetitions, about 5 s.
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, "scripts/run_sweep.py", "--check", "results/full"],
            cwd=root, env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines()[-1] == "all outputs match results/full"


class TestSweepScript:
    def test_failed_cell_is_reported_and_nothing_recorded(
        self, tmp_path, monkeypatch, capsys
    ):
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "run_sweep", root / "scripts" / "run_sweep.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        real_run_cell = simulation.run_cell

        def run_cell_failing_60_3(config, **kwargs):
            if (config.gamma, config.batch_size) == (60, 3):
                raise RuntimeError("made to fail")
            return real_run_cell(config, **kwargs)

        monkeypatch.setattr(simulation, "run_cell", run_cell_failing_60_3)
        record = tmp_path / "record"
        code = script.main(
            ["--out", str(tmp_path / "sweep.json"), "--summary", str(tmp_path / "sweep.md"),
             "--record", str(record)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "cell gamma=60 M=3 failed: RuntimeError: made to fail" in out
        # The failed cell is not counted among the cells that ran.
        assert any(
            line.startswith("cells with negative savings:") and line.endswith(" of 19")
            for line in out.splitlines()
        )
        assert not record.exists()


class TestSummarize:
    @staticmethod
    def report_with(cost_usd: Fraction, config: ScenarioConfig) -> ScenarioReport:
        # Synthetic single-number report whose per-payment USD cost is exact:
        # the config must use btc_usd=100 so satoshi costs stay integral.
        from coinlever.orchestrator import IterationRecord

        sats = cost_usd * 100_000_000 / config.btc_usd
        assert sats.denominator == 1
        sats = int(sats)
        record = IterationRecord(
            iteration=1,
            method=Method.FALLBACK,
            transactions=(),
            processed_ids=("p0",),
            cost=sats,
            solver_attempts=(),
            spent_utxo_ids=(),
            change_utxo=None,
        )
        from coinlever.simulation import RepetitionOutcome

        rep = RepetitionOutcome(0, True, None, "digest", (record,))
        return ScenarioReport(Mode.NO_LEVERAGE, config, (rep,))

    def test_equal_costs_zero_savings(self):
        config = desk_config(btc_usd=100)
        a = self.report_with(Fraction("0.25"), config)
        summary = summarize(a, a)
        assert summary.percent_per_payment == 0
        assert summary.usd_per_payment == 0

    def test_savings_example_values(self):
        # Costs per payment of $0.244890 vs $0.239597 give 2.161% savings
        # and $0.005293 per payment.
        config = desk_config(btc_usd=100)
        no_lev = self.report_with(Fraction("0.244890"), config)
        lev = self.report_with(Fraction("0.239597"), config)
        summary = summarize(no_lev, lev)
        assert summary.usd_per_payment == Fraction("0.005293")
        assert round(float(summary.percent_per_payment), 3) == 2.161

    def test_zero_baseline_raises(self):
        config = desk_config(btc_usd=100)
        zero = self.report_with(Fraction(0), config)
        with pytest.raises(ZeroBaseline):
            summarize(zero, zero)

    def test_formula_reevaluation(self):
        config = desk_config(btc_usd=100)
        rng = random.Random(8)
        for _ in range(50):
            a = Fraction(rng.randint(1, 10_000), 1000)
            b = Fraction(rng.randint(0, 10_000), 1000)
            summary = summarize(self.report_with(a, config), self.report_with(b, config))
            assert summary.percent_per_payment == 100 * (a - b) / a
            assert summary.usd_per_payment == a - b


class TestSweep:
    def test_default_grid_is_twenty_cells(self):
        configs = default_sweep_configs()
        assert len(configs) == 20
        cells = {(c.gamma, c.batch_size) for c in configs}
        assert cells == {(g, m) for g in GAMMA_SWEEP for m in BATCH_SWEEP}

    def test_boost_defaults_match_table(self):
        by_cell = {
            (c.gamma, c.batch_size): c.effective_beta for c in default_sweep_configs()
        }
        assert by_cell[(900, 2)] == Fraction("0.22")
        assert by_cell[(22, 5)] == Fraction("1.00")
        assert by_cell == dict(DEFAULT_BOOST)

    def test_base_fields_carry_into_cells(self):
        base = desk_config()
        configs = default_sweep_configs(base)
        assert all(c.utxo_pool_size == base.utxo_pool_size for c in configs)
        assert all(c.rng_seed == base.rng_seed for c in configs)

    def test_single_cell_sweep_matches_run_cell(self):
        config = desk_config()
        (cell,) = sweep([config])
        direct = run_cell(config)
        assert cell.no_leverage == direct.no_leverage
        assert cell.leverage == direct.leverage
        assert cell.savings == direct.savings
        assert cell.error is None

    def test_cell_errors_are_isolated(self):
        bad = desk_config(utxo_pool_size=10_000_000)
        good = desk_config()
        # A dataset too small for the sample fails the first draw, whatever
        # the repetition, so the scenario raises instead of recording it.
        with pytest.raises(DatasetTooSmall):
            run_scenario(bad, Mode.NO_LEVERAGE)
        cells = sweep([bad, good])
        assert cells[0].error == "DatasetTooSmall: need 10000000 UTXOs, dataset has 10000"
        assert cells[0].no_leverage is None and cells[0].savings is None
        assert cells[1].error is None and cells[1].savings is not None

    def test_impossible_leverage_bound_fails_the_cell_before_any_mode(self, monkeypatch):
        # extra_min 5 leaves the unset extra_max at the batch size, 2.
        calls = []
        monkeypatch.setattr(simulation, "run_scenario", lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError):
            run_cell(desk_config(extra_min=5))
        assert calls == []
        monkeypatch.undo()
        bad, good = sweep([desk_config(extra_min=5), desk_config(extra_min=2)])
        assert bad.error is not None and bad.no_leverage is None
        assert good.error is None and good.savings is not None
