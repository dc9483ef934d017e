"""Acceptance suite: the eight release criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failing criterion fails its test. Criteria with stated
runtime budgets assert them.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from coinlever.blp import BlpProblem, SolveStatus, check_feasible, solve
from coinlever.io import dumps, cell_dict
from coinlever.model import (
    FeeParams,
    NoGoodPrefix,
    PaymentRequest,
    Utxo,
    UtxoPool,
    dust_threshold,
    is_good,
    opt,
    tx_cost,
    tx_size,
)
from coinlever.orchestrator import WorldState
from coinlever.selection import LeverageParams, Method, fallback_select, knapsack_select, leverage_select
from coinlever.simulation import (
    BATCH_SWEEP,
    GAMMA_SWEEP,
    Mode,
    ScenarioConfig,
    default_sweep_configs,
    run_full,
    run_scenario,
    sample_payments,
    sample_utxo_pool,
    summarize,
    sweep,
    tally,
)
from coinlever.datasets import bundled_payment_dataset, bundled_utxo_dataset

from oracles import (
    brute_fallback,
    brute_knapsack,
    brute_leverage,
    brute_opt,
    enumerate_blp,
)
from test_selection import planted_leverage_instance

GENEROUS = 60.0


def make_pool(values) -> UtxoPool:
    return UtxoPool.from_utxos(Utxo(f"u{i}", v) for i, v in enumerate(values))


def make_payments(values, prefix="p"):
    return tuple(PaymentRequest(f"{prefix}{i}", v, i) for i, v in enumerate(values))


def test_criterion_1_formula_pins():
    assert tx_size(1, 1, 1) == 226
    assert dust_threshold(22) == 4004
    print("ACCEPTANCE 1 PASS: tx_size(1,1,1)=226 and dust_threshold(22)=4004, exact")


def test_criterion_2_solver_matches_enumeration():
    start = time.monotonic()
    rng = random.Random(20190213)
    checked = 0
    while checked < 1000:
        n = rng.randint(1, 14)
        n_rows = rng.randint(0, 8)
        objective = [rng.randint(-20, 20) for _ in range(n)]
        rows = []
        for _ in range(n_rows):
            coeffs = [rng.randint(-15, 15) for _ in range(n)]
            rel = rng.choice(["<=", ">=", "="])
            lo = min(0, sum(c for c in coeffs if c < 0))
            hi = max(0, sum(c for c in coeffs if c > 0))
            rows.append((coeffs, rel, rng.randint(lo, hi)))
        problem = BlpProblem(n, objective, rows)
        expected = enumerate_blp(n, objective, rows)
        outcome = solve(problem, GENEROUS)
        if expected is None:
            assert outcome.status is SolveStatus.INFEASIBLE
        else:
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective_value == expected[0]
            assert check_feasible(problem, outcome.assignment)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"ACCEPTANCE 2 PASS: solver matched exhaustive enumeration on {checked} "
        f"random programs in {elapsed:.1f}s"
    )


def test_criterion_3_selectors_match_brute_force():
    start = time.monotonic()
    rng = random.Random(20190401)

    basic_checked = 0
    while basic_checked < 300:
        gamma = rng.choice([0, 22, 200])
        fees = FeeParams(gamma=gamma)
        values = sorted(
            (rng.randint(1, 400_000) for _ in range(rng.randint(1, 12))), reverse=True
        )
        payments = [rng.randint(1, 200_000) for _ in range(rng.randint(1, 5))]
        pool, reqs = make_pool(values), make_payments(payments)

        expected_opt = brute_opt(values, payments, gamma, fees.dust)
        try:
            got_opt = opt(pool, reqs, fees)
        except NoGoodPrefix:
            got_opt = None
        assert got_opt == expected_opt

        expected_fb = brute_fallback(values, payments, gamma, fees.dust)
        try:
            tx = fallback_select(pool, reqs, fees)
            got_fb = (len(tx.inputs), tx.change)
        except NoGoodPrefix:
            got_fb = None
        assert got_fb == expected_fb

        expected_knap = brute_knapsack(values, payments, gamma, fees.make_change, fees.dust)
        tx, _ = knapsack_select(pool, reqs, fees, GENEROUS)
        assert (None if tx is None else tx.overpayment) == expected_knap
        basic_checked += 1

    lev_checked = 0
    while lev_checked < 300:
        gamma = rng.choice([0, 22, 200])
        fees = FeeParams(gamma=gamma)
        if lev_checked % 2 == 0:
            instance = planted_leverage_instance(rng, gamma)
            if instance is None:
                continue
            values, payments, cands, n_extra = instance
            min_extra = rng.randint(1, n_extra)
            max_extra = rng.randint(n_extra, 5)
        else:
            values = sorted(
                (rng.randint(1, 400_000) for _ in range(rng.randint(1, 10))),
                reverse=True,
            )
            payments = [rng.randint(1, 150_000) for _ in range(rng.randint(1, 2))]
            cands = [rng.randint(1, 200_000) for _ in range(rng.randint(0, 5))]
            min_extra = rng.randint(1, 2)
            max_extra = rng.randint(min_extra, 4)
        beta = Fraction(rng.randint(0, 100), 100)
        expected = brute_leverage(
            values, payments, cands, gamma, fees.dust, fees.make_change,
            beta, min_extra, max_extra,
        )
        lev = LeverageParams(min_extra=min_extra, max_extra=max_extra, boost=beta)
        pair, _ = leverage_select(
            make_pool(values), make_payments(payments),
            make_payments(cands, prefix="c"), fees, lev, GENEROUS,
        )
        # The second transaction spends the bridge alone, so a pair exists
        # exactly when the least second-transaction pool-input count is 0.
        assert (pair is not None) == (expected == 0)
        assert pair is None or len(pair[1].inputs) == 1
        lev_checked += 1

    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"ACCEPTANCE 3 PASS: opt/fallback/knapsack on {basic_checked} and leverage "
        f"on {lev_checked} instances matched brute force in {elapsed:.1f}s"
    )


def _desk_state(seed: int) -> WorldState:
    utxo_rng = random.Random(derive := seed * 2 + 1)
    pay_rng = random.Random(derive + 1)
    pool = sample_utxo_pool(bundled_utxo_dataset(), 200, utxo_rng)
    payments = sample_payments(bundled_payment_dataset(), 40, dust_threshold(200), pay_rng)
    return WorldState.initial(pool, payments)


def test_criterion_4_goodness_and_conservation_on_full_runs():
    fees = FeeParams(gamma=200)
    lev = LeverageParams(min_extra=2, max_extra=2, boost=Fraction("0.54"))
    runs = 0
    transactions = 0
    for seed in range(25):
        for flavor in ("knapsack", "leverage"):
            state = _desk_state(seed * 10 + (flavor == "leverage"))
            records, final_state, _ = run_full(
                state, 2, fees, GENEROUS,
                lev=lev if flavor == "leverage" else None, max_nodes=6_000,
            )
            processed_ids: set[str] = set()
            paid = 0
            for record in records:
                for tx in record.transactions:
                    assert is_good(tx, fees)
                    fee = tx.size_bytes * fees.gamma
                    assert (
                        tx.input_total
                        == tx.payment_total + tx.change + tx.overpayment + fee
                    )
                    paid += tx.payment_total
                    transactions += 1
                ids = set(record.processed_ids)
                assert not ids & processed_ids
                processed_ids |= ids
                assert record.cost == sum(
                    tx_cost(tx, fees) for tx in record.transactions
                )
            assert state.utxo_pool.total() == (
                final_state.utxo_pool.total() + paid + sum(r.cost for r in records)
            )
            runs += 1
    assert runs == 50
    print(
        f"ACCEPTANCE 4 PASS: {transactions} transactions from {runs} desk-scale "
        f"runs all good with exact conservation"
    )


def test_criterion_5_protocol_fidelity():
    config = ScenarioConfig(
        gamma=200,
        batch_size=2,
        utxo_pool_size=200,
        payment_pool_size=40,
        iterations_per_sample=5,
        repetitions=4,
        rng_seed=77,
        budget_ms=30_000,
        node_budget=6_000,
    )
    report = run_scenario(config, Mode.NO_LEVERAGE)
    assert report.failed_count == 0
    assert report.rate(Method.LEVERAGE) == 0
    assert sum(report.rate(m) for m in Method) == 1
    for rep in report.ok_repetitions:
        assert tally(rep.records)["payments_processed"] == config.iterations_per_sample * config.batch_size
    lev_report = run_scenario(config, Mode.LEVERAGE)
    assert sum(lev_report.rate(m) for m in Method) == 1
    print(
        "ACCEPTANCE 5 PASS: no-leverage runs report exactly zero leverage rate, "
        "rates sum to 1, processed = iterations x batch"
    )


def test_criterion_6_directional_savings():
    start = time.monotonic()
    wins = losses = 0
    pct_values = []
    cpp_no, cpp_lev = [], []
    compared = 0
    seed = 0
    while compared < 30:
        config = ScenarioConfig(
            gamma=200,
            batch_size=2,
            beta=Fraction("0.54"),
            utxo_pool_size=200,
            payment_pool_size=40,
            iterations_per_sample=5,
            repetitions=1,
            rng_seed=seed,
            budget_ms=250,
            node_budget=60_000,
        )
        seed += 1
        no_lev = run_scenario(config, Mode.NO_LEVERAGE)
        lev = run_scenario(config, Mode.LEVERAGE)
        if no_lev.failed_count or lev.failed_count:
            continue
        a, b = no_lev.cost_per_payment_usd, lev.cost_per_payment_usd
        cpp_no.append(a)
        cpp_lev.append(b)
        pct_values.append(summarize(no_lev, lev).percent_per_payment)
        if b < a:
            wins += 1
        elif b > a:
            losses += 1
        compared += 1
    mean_no = sum(cpp_no) / len(cpp_no)
    mean_lev = sum(cpp_lev) / len(cpp_lev)
    mean_pct = sum(pct_values) / len(pct_values)
    assert mean_lev <= mean_no
    assert mean_pct >= 0
    n = wins + losses
    p_value = sum(math.comb(n, k) for k in range(losses + 1)) / 2**n
    assert p_value < 0.05
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(
        f"ACCEPTANCE 6 PASS: {compared} matched seeds, mean cost/payment "
        f"${float(mean_lev):.6f} (leverage) <= ${float(mean_no):.6f} (baseline), "
        f"mean savings {float(mean_pct):+.3f}%, sign test p={p_value:.2e} "
        f"({wins}W/{losses}L) in {elapsed:.0f}s"
    )


def test_criterion_7_byte_identical_reports():
    config = ScenarioConfig(
        gamma=200,
        batch_size=2,
        utxo_pool_size=120,
        payment_pool_size=30,
        iterations_per_sample=3,
        repetitions=2,
        rng_seed=123,
        budget_ms=60_000,
        node_budget=5_000,
    )
    first = sweep([config])
    second = sweep([config])
    bytes_a = dumps({"cells": [cell_dict(c) for c in first]}).encode()
    bytes_b = dumps({"cells": [cell_dict(c) for c in second]}).encode()
    assert bytes_a == bytes_b
    print(
        f"ACCEPTANCE 7 PASS: sweep cell rendered twice to {len(bytes_a)} "
        f"identical JSON bytes"
    )


def test_criterion_8_default_sweep_shape():
    configs = default_sweep_configs()
    assert len(configs) == 20
    cells = {(c.gamma, c.batch_size) for c in configs}
    assert cells == {(g, m) for g in GAMMA_SWEEP for m in BATCH_SWEEP}
    by_cell = {(c.gamma, c.batch_size): c.effective_beta for c in configs}
    assert by_cell[(900, 2)] == Fraction("0.22")
    assert by_cell[(22, 5)] == Fraction("1.00")
    print(
        "ACCEPTANCE 8 PASS: default sweep is the 20-cell grid with table boost "
        "defaults (spot checks 0.22 and 1.00)"
    )
