"""Simulation harness: the run loop, seeded sampling, scenario runs, sweeps.

``run_full`` is the one loop over ``orchestrator.step``: it processes a
backlog until it is empty, the pool runs dry, or an iteration limit is
reached. A scenario fixes the fee rate, batch size, boost factor, pool
sizes, and seeds; running it repeatedly samples fresh pools, runs the loop
a fixed number of iterations per sample, and aggregates method success
rates and costs. Matched seeds guarantee that the leverage-enabled and
knapsack-only modes see identical samples, so their cost difference is
attributable to the algorithm alone.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .datasets import bundled_payment_dataset, bundled_utxo_dataset
from .model import FeeParams, NoGoodPrefix, PaymentRequest, Utxo, UtxoPool
from .orchestrator import DEFAULT_CANDIDATE_WINDOW, IterationRecord, WorldState, step
from .selection import LeverageParams, Method

GAMMA_SWEEP = (22, 60, 200, 400, 900)
BATCH_SWEEP = (2, 3, 5, 10)

# Boost factor defaults per (fee rate, batch size) sweep cell.
DEFAULT_BOOST: Mapping[tuple[int, int], Fraction] = {
    (22, 2): Fraction("0.94"),
    (22, 3): Fraction("0.96"),
    (22, 5): Fraction("1.00"),
    (22, 10): Fraction("1.00"),
    (60, 2): Fraction("0.78"),
    (60, 3): Fraction("0.96"),
    (60, 5): Fraction("0.94"),
    (60, 10): Fraction("0.98"),
    (200, 2): Fraction("0.54"),
    (200, 3): Fraction("0.64"),
    (200, 5): Fraction("0.84"),
    (200, 10): Fraction("0.96"),
    (400, 2): Fraction("0.52"),
    (400, 3): Fraction("0.52"),
    (400, 5): Fraction("0.66"),
    (400, 10): Fraction("0.86"),
    (900, 2): Fraction("0.22"),
    (900, 3): Fraction("0.44"),
    (900, 5): Fraction("0.64"),
    (900, 10): Fraction("0.82"),
}

SATS_PER_BTC = 100_000_000


class Mode(str, Enum):
    NO_LEVERAGE = "no-leverage"
    LEVERAGE = "leverage"


class DatasetTooSmall(ValueError):
    """The dataset cannot supply the requested sample size."""


class ZeroBaseline(ArithmeticError):
    """Savings are undefined against a zero-cost baseline."""


def as_fraction(value) -> Fraction:
    """Exact rational from int, str, Fraction, or decimal-looking float."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a fraction")


@dataclass(frozen=True)
class ScenarioConfig:
    """One simulation cell plus everything needed to reproduce it."""

    gamma: int
    batch_size: int
    beta: Fraction | None = None
    extra_min: int | None = None
    extra_max: int | None = None
    utxo_pool_size: int = 2500
    payment_pool_size: int = 250
    min_payment: int | None = None
    iterations_per_sample: int = 5
    repetitions: int = 10
    rng_seed: int = 2019
    budget_ms: int = 1000
    node_budget: int | None = 50_000
    candidate_window: int = 64
    dust: int | None = None
    make_change: int | None = None
    btc_usd: Fraction = field(default_factory=lambda: Fraction(8582))

    def __post_init__(self) -> None:
        if self.beta is not None:
            object.__setattr__(self, "beta", as_fraction(self.beta))
        object.__setattr__(self, "btc_usd", as_fraction(self.btc_usd))
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        for name in ("batch_size", "utxo_pool_size", "payment_pool_size", "repetitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.iterations_per_sample < 0:
            raise ValueError("iterations_per_sample must be non-negative")
        if self.budget_ms <= 0:
            raise ValueError("budget_ms must be positive")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive when set")
        if self.candidate_window < 1:
            raise ValueError("candidate_window must be at least 1")
        if self.beta is not None and not 0 <= self.beta <= 1:
            raise ValueError("beta must lie in [0, 1]")
        if self.btc_usd <= 0:
            raise ValueError("btc_usd must be positive")
        for name, least in (("extra_min", 1), ("extra_max", 1), ("dust", 0), ("make_change", 0)):
            if getattr(self, name) is not None and getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least} when set")
        if None not in (self.extra_min, self.extra_max) and self.extra_min > self.extra_max:
            raise ValueError("extra_min must not exceed extra_max")

    @property
    def effective_beta(self) -> Fraction:
        if self.beta is not None:
            return self.beta
        return DEFAULT_BOOST.get((self.gamma, self.batch_size), Fraction(1))

    def fee_params(self) -> FeeParams:
        return FeeParams(gamma=self.gamma, dust=self.dust, make_change=self.make_change)

    @property
    def effective_min_payment(self) -> int:
        if self.min_payment is not None:
            return self.min_payment
        return self.fee_params().dust

    def leverage_params(self) -> LeverageParams:
        return LeverageParams(
            min_extra=self.extra_min if self.extra_min is not None else self.batch_size,
            max_extra=self.extra_max if self.extra_max is not None else self.batch_size,
            boost=self.effective_beta,
        )

    @property
    def budget_seconds(self) -> float:
        return self.budget_ms / 1000.0


def derive_seed(root_seed: int, index: int, label: str) -> int:
    """Stable 64-bit stream seed for (root seed, repetition, stream label)."""
    data = f"{root_seed}:{index}:{label}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def sample_utxo_pool(
    source: Sequence[Utxo], n: int, rng: random.Random
) -> UtxoPool:
    """n distinct UTXOs drawn without replacement, sorted largest first."""
    if len(source) < n:
        raise DatasetTooSmall(f"need {n} UTXOs, dataset has {len(source)}")
    return UtxoPool.from_utxos(rng.sample(list(source), n))


def sample_payments(
    source: Sequence[PaymentRequest], m: int, min_value: int, rng: random.Random
) -> tuple[PaymentRequest, ...]:
    """m payment requests at or above ``min_value``, re-ranked by draw order."""
    eligible = [p for p in source if p.value >= min_value]
    if len(eligible) < m:
        raise DatasetTooSmall(
            f"need {m} payments >= {min_value}, dataset has {len(eligible)}"
        )
    drawn = rng.sample(eligible, m)
    return tuple(
        PaymentRequest(p.id, p.value, rank) for rank, p in enumerate(drawn)
    )


def _sample_digest(pool: UtxoPool, payments: Sequence[PaymentRequest]) -> str:
    # One update per stream digests the same bytes as one update per item.
    h = hashlib.blake2b(digest_size=16)
    h.update("".join([f"u:{u.id}:{u.value};" for u in pool]).encode())
    h.update("".join([f"p:{p.id}:{p.value}:{p.urgency_rank};" for p in payments]).encode())
    return h.hexdigest()


def tally(records: Sequence[IterationRecord]) -> dict[str, int]:
    """Iterations, payments processed, total cost and per-method counts of
    ``records``, under the key names of the JSON reports."""
    return {
        "iterations": len(records),
        "payments_processed": sum(len(r.processed_ids) for r in records),
        "total_cost_sat": sum(r.cost for r in records),
        **{f"{m.value}_count": sum(r.method is m for r in records) for m in Method},
    }


def deterministic(records: Iterable[IterationRecord]) -> bool:
    """False when the wall clock cut any solver call of ``records`` short:
    what it returned depends on the machine's speed, so a rerun may differ."""
    return all(a.limit != "clock" for r in records for a in r.solver_attempts)


@dataclass(frozen=True)
class RepetitionOutcome:
    """One sampled repetition: its records and sample fingerprint."""

    index: int
    ok: bool
    failure: str | None
    sample_digest: str
    records: tuple[IterationRecord, ...]


@dataclass(frozen=True)
class ScenarioReport:
    """Aggregate of the successful repetitions of one scenario run."""

    mode: Mode
    config: ScenarioConfig
    repetitions: tuple[RepetitionOutcome, ...]

    @property
    def ok_repetitions(self) -> tuple[RepetitionOutcome, ...]:
        return tuple(r for r in self.repetitions if r.ok)

    @property
    def failed_count(self) -> int:
        return sum(1 for r in self.repetitions if not r.ok)

    @property
    def deterministic(self) -> bool:
        return deterministic(r for rep in self.repetitions for r in rep.records)

    @property
    def totals(self) -> dict[str, int]:
        """``tally`` of the successful repetitions' records."""
        return tally([r for rep in self.ok_repetitions for r in rep.records])

    def rate(self, method: Method) -> Fraction:
        totals = self.totals
        if totals["iterations"] == 0:
            return Fraction(0)
        return Fraction(totals[f"{method.value}_count"], totals["iterations"])

    @property
    def cost_per_payment_usd(self) -> Fraction:
        totals = self.totals
        if totals["payments_processed"] == 0:
            return Fraction(0)
        return (
            Fraction(totals["total_cost_sat"], totals["payments_processed"])
            * self.config.btc_usd
            / SATS_PER_BTC
        )


@dataclass(frozen=True)
class SavingsSummary:
    """Leverage-versus-baseline savings per payment request."""

    percent_per_payment: Fraction
    usd_per_payment: Fraction


@dataclass(frozen=True)
class SweepCell:
    config: ScenarioConfig
    no_leverage: ScenarioReport | None
    leverage: ScenarioReport | None
    savings: SavingsSummary | None
    error: str | None = None


def run_full(
    state: WorldState,
    batch_size: int,
    fees: FeeParams,
    budget: float,
    *,
    lev: LeverageParams | None = None,
    candidate_window: int = DEFAULT_CANDIDATE_WINDOW,
    max_nodes: int | None = None,
    limit: int | None = None,
) -> tuple[tuple[IterationRecord, ...], WorldState, str | None]:
    """Step until the backlog is empty or ``limit`` iterations have run:
    knapsack first, then leverage when ``lev`` is given, then the fallback.

    Returns the records, the final state, and None; or, when the pool
    cannot fund a batch, the records so far, the state before that batch,
    and "pool exhausted at iteration N".
    """
    records: list[IterationRecord] = []
    while state.pending and (limit is None or len(records) < limit):
        try:
            state, record = step(
                state,
                batch_size,
                fees,
                budget,
                lev=lev,
                candidate_window=candidate_window,
                max_nodes=max_nodes,
            )
        except NoGoodPrefix:
            return tuple(records), state, f"pool exhausted at iteration {state.iteration + 1}"
        records.append(record)
    return tuple(records), state, None


def run_scenario(
    config: ScenarioConfig,
    mode: Mode,
    *,
    utxo_dataset: Sequence[Utxo] | None = None,
    payment_dataset: Sequence[PaymentRequest] | None = None,
) -> ScenarioReport:
    """Run all repetitions of one scenario in the given mode.

    Each repetition samples a fresh pool and payment backlog from seeds
    derived only from (rng_seed, repetition index), then runs ``run_full``
    for at most ``iterations_per_sample`` iterations. Repetitions that
    exhaust the pool are recorded as failed and left out of the aggregate
    tallies. A dataset too small for the sample raises DatasetTooSmall at
    the first draw: that depends on the config and the dataset alone, so
    every repetition would fail alike.
    """
    utxos = bundled_utxo_dataset() if utxo_dataset is None else utxo_dataset
    payments = bundled_payment_dataset() if payment_dataset is None else payment_dataset
    fees = config.fee_params()
    lev = config.leverage_params() if mode is Mode.LEVERAGE else None
    outcomes = []
    for rep in range(config.repetitions):
        utxo_rng = random.Random(derive_seed(config.rng_seed, rep, "utxo"))
        pay_rng = random.Random(derive_seed(config.rng_seed, rep, "pay"))
        pool = sample_utxo_pool(utxos, config.utxo_pool_size, utxo_rng)
        batch = sample_payments(
            payments, config.payment_pool_size, config.effective_min_payment, pay_rng
        )
        records, _, failure = run_full(
            WorldState.initial(pool, batch),
            config.batch_size,
            fees,
            config.budget_seconds,
            lev=lev,
            candidate_window=config.candidate_window,
            max_nodes=config.node_budget,
            limit=config.iterations_per_sample,
        )
        outcomes.append(
            RepetitionOutcome(rep, failure is None, failure, _sample_digest(pool, batch), records)
        )
    return ScenarioReport(mode=mode, config=config, repetitions=tuple(outcomes))


def summarize(no_lev: ScenarioReport, lev: ScenarioReport) -> SavingsSummary:
    """Per-payment savings of the leverage run against the baseline run."""
    baseline = no_lev.cost_per_payment_usd
    if no_lev.totals["total_cost_sat"] == 0 or baseline == 0:
        raise ZeroBaseline("baseline run has zero cost")
    improved = lev.cost_per_payment_usd
    return SavingsSummary(
        percent_per_payment=100 * (baseline - improved) / baseline,
        usd_per_payment=baseline - improved,
    )


def default_sweep_configs(base: ScenarioConfig | None = None) -> tuple[ScenarioConfig, ...]:
    """The built-in 20-cell grid over fee rates and batch sizes.

    Every cell uses the boost-factor default for its (gamma, batch size)
    pair; other fields are copied from ``base``.
    """
    if base is None:
        base = ScenarioConfig(gamma=GAMMA_SWEEP[0], batch_size=BATCH_SWEEP[0])
    return tuple(
        replace(base, gamma=g, batch_size=m, beta=None, min_payment=base.min_payment)
        for g in GAMMA_SWEEP
        for m in BATCH_SWEEP
    )


def run_cell(
    config: ScenarioConfig,
    *,
    utxo_dataset: Sequence[Utxo] | None = None,
    payment_dataset: Sequence[PaymentRequest] | None = None,
) -> SweepCell:
    """Both modes plus the savings summary for one scenario config.

    Leverage bounds that the cell's batch size makes impossible raise
    ValueError before either mode runs.
    """
    config.leverage_params()
    no_lev = run_scenario(
        config, Mode.NO_LEVERAGE, utxo_dataset=utxo_dataset, payment_dataset=payment_dataset
    )
    lev = run_scenario(
        config, Mode.LEVERAGE, utxo_dataset=utxo_dataset, payment_dataset=payment_dataset
    )
    try:
        savings = summarize(no_lev, lev)
    except ZeroBaseline:
        savings = None
    return SweepCell(config, no_lev, lev, savings)


def sweep(
    configs: Sequence[ScenarioConfig],
    *,
    utxo_dataset: Sequence[Utxo] | None = None,
    payment_dataset: Sequence[PaymentRequest] | None = None,
) -> tuple[SweepCell, ...]:
    """Run every cell, isolating failures so one bad cell cannot sink a sweep."""
    cells = []
    for config in configs:
        try:
            cells.append(
                run_cell(
                    config,
                    utxo_dataset=utxo_dataset,
                    payment_dataset=payment_dataset,
                )
            )
        except Exception as exc:  # noqa: BLE001 - per-cell isolation is the contract
            cells.append(SweepCell(config, None, None, None, error=f"{type(exc).__name__}: {exc}"))
    return tuple(cells)
