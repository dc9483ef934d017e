"""The three basic selectors: fallback, knapsack, and knapsack with leverage.

Each selector funds a fixed batch of payment requests from a sorted UTXO
pool and returns good transactions. The knapsack and leverage selectors
build binary programs and hand them to the branch-and-bound solver; each
returns its transaction(s), or None, together with the solver attempt that
says why it failed. The fallback selector is a largest-first prefix
construction that always succeeds while the pool can cover the batch at
all. ``attempt_selection`` is the cascade: knapsack, then leverage, then
the fallback.

The leverage program pairs a first transaction's change output, the
bridge, with a bundle of extra payments that the second transaction funds
from the bridge alone. The paper lets the second transaction spend pool
inputs as well; with the default bundle size such a pair beats its own
step's fallback per payment only if 148(1 + t) <= 148k + 34 for t second
and k first inputs, so t <= k - 1, and k is 1 in 492 of the full
protocol's 498 pairs. One pass
after the solve lowers the overpayment by one-input swaps of the first
inputs, over all bundles below a 20,000-bundle gate. A 64-candidate window
passes bundle size 2 (C(64, 2) = 2,016) but not 3 (C(64, 3) = 41,664).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import attrgetter
from typing import Sequence

from .blp import BlpProblem, Coeff, SolveOutcome, SolveStatus, solve
from .model import (
    FeeParams,
    NoGoodPrefix,
    PaymentRequest,
    Transaction,
    Utxo,
    UtxoPool,
    _neg_value,
    is_good,
    opt,
    tx_size,
)


class Method(str, Enum):
    FALLBACK = "fallback"
    KNAPSACK = "knapsack"
    LEVERAGE = "leverage"


@dataclass(frozen=True, slots=True)
class LeverageParams:
    """Bounds on the extra payments of the second transaction, plus the
    fraction of the make-change threshold allowed as its overpayment."""

    min_extra: int
    max_extra: int
    boost: Fraction

    def __post_init__(self) -> None:
        if not 1 <= self.min_extra <= self.max_extra:
            raise ValueError("need 1 <= min_extra <= max_extra")
        if not 0 <= self.boost <= 1:
            raise ValueError("boost must lie in [0, 1]")


@dataclass(frozen=True, slots=True)
class SolverAttempt:
    """Deterministic summary of one solver invocation; ``limit`` is the
    solver's stop reason (None, ``"nodes"`` or ``"clock"``)."""

    method: Method
    status: SolveStatus
    nodes: int
    objective: Coeff | None
    limit: str | None


def _attempt(method: Method, o: SolveOutcome) -> SolverAttempt:
    return SolverAttempt(method, o.status, o.nodes_explored, o.objective_value, o.limit)


@dataclass(frozen=True, slots=True)
class BasicOutcome:
    """Result of the knapsack -> leverage -> fallback cascade.

    A leverage outcome holds two transactions; the second one's first input
    is the bridge, the first one's change output.
    """

    method: Method
    transactions: tuple[Transaction, ...]
    attempts: tuple[SolverAttempt, ...]


def fallback_select(
    pool: UtxoPool, batch: Sequence[PaymentRequest], fees: FeeParams
) -> Transaction:
    """Fund the batch from the smallest largest-first prefix that is good.

    Prefers an exact change-free match; otherwise returns the full surplus
    as change, which the prefix length guarantees is at least the dust
    threshold. Raises NoGoodPrefix when no prefix qualifies.
    """
    k = opt(pool, batch, fees)
    inputs = pool.prefix(k)
    total_in = sum(u.value for u in inputs)
    total_p = sum(p.value for p in batch)
    exact_surplus = total_in - total_p - tx_size(k, len(batch), 0) * fees.gamma
    if exact_surplus == 0:
        tx = Transaction(inputs, tuple(batch), change=0, overpayment=0)
    else:
        change = total_in - total_p - tx_size(k, len(batch), 1) * fees.gamma
        tx = Transaction(inputs, tuple(batch), change=change, overpayment=0)
    if not is_good(tx, fees):
        raise RuntimeError("fallback transaction failed the goodness check")
    return tx


def knapsack_select(
    pool: UtxoPool,
    batch: Sequence[PaymentRequest],
    fees: FeeParams,
    budget: float,
    *,
    max_nodes: int | None = None,
) -> tuple[Transaction | None, SolverAttempt | None]:
    """Minimal-overpayment change-free funding of the batch.

    Uses exactly the optimal input count; the overpayment lands in
    [0, make_change] (minimal when the search completes, otherwise any
    feasible value found within the budget). The transaction is None when
    none exists or none was found in time, as the attempt's status says;
    the attempt is None when no largest-first prefix is good, so no program
    was built.

    The program covers only the window of pool values that some feasible
    k-set can hold, usually a handful of UTXOs out of thousands. A UTXO
    outside it is 0 at every feasible point, and the UTXOs inside keep
    their order, so the search meets the same incumbents in the same order
    as a search over the whole pool would, and in no more nodes.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    try:
        k = opt(pool, batch, fees)
    except NoGoodPrefix:
        return None, None
    utxos = pool.utxos
    n = len(utxos)
    target = sum(p.value for p in batch) + tx_size(k, len(batch), 0) * fees.gamma
    upper = target + fees.make_change
    # Every input of a feasible k-set lies in [lowest, highest]: its k - 1
    # partners are worth at most the k - 1 largest and at least the k - 1
    # smallest pool values. Sorted largest first, that range is one slice.
    lowest = target - sum(u.value for u in utxos[: k - 1])
    highest = upper - sum(u.value for u in utxos[n - k + 1 :])
    start = bisect_left(utxos, -highest, key=_neg_value)
    window = utxos[start : bisect_right(utxos, -lowest, key=_neg_value)]
    m = len(window)
    values = [u.value for u in window]
    problem = BlpProblem(
        m,
        values,
        [
            ([1] * m, "=", k),
            (values, ">=", target),
            (values, "<=", upper),
        ],
    )
    outcome = solve(problem, budget, max_nodes=max_nodes)
    attempt = _attempt(Method.KNAPSACK, outcome)
    if not outcome.status.has_assignment:
        return None, attempt
    inputs = tuple(u for u, bit in zip(window, outcome.assignment) if bit)
    overpayment = sum(u.value for u in inputs) - target
    tx = Transaction(inputs, tuple(batch), change=0, overpayment=overpayment)
    if not is_good(tx, fees):
        raise RuntimeError("knapsack solution failed the goodness check")
    return tx, attempt


def leverage_select(
    pool: UtxoPool,
    batch: Sequence[PaymentRequest],
    candidates: Sequence[PaymentRequest],
    fees: FeeParams,
    lev: LeverageParams,
    budget: float,
    *,
    max_nodes: int | None = None,
    change_id: str = "lev-change",
) -> tuple[tuple[Transaction, Transaction] | None, SolverAttempt | None]:
    """Fund the batch and a bundle of extra payments with a linked pair.

    The first transaction spends the optimal input count and emits a change
    output, the bridge, which the second spends alone (as ``change_id``) to
    pay between ``min_extra`` and ``max_extra`` of the candidate requests
    change-free. The pair is None when infeasible or out of budget, as the
    attempt's status says; the attempt is None when no program was built,
    for want of candidates or of a good largest-first prefix.

    One program over the extras and the first inputs, with no objective, so
    the first point found is optimal. ``_cheapest_pair`` then lowers the
    overpayment by one-input swaps of the first inputs: against every bundle
    when there is one first input and at most 20,000 bundles, else the
    solver's.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    batch_ids = {p.id for p in batch}
    if any(c.id in batch_ids for c in candidates):
        raise ValueError("candidates must be disjoint from the batch")
    if len(candidates) < lev.min_extra:
        return None, None
    try:
        k = opt(pool, batch, fees)
    except NoGoodPrefix:
        return None, None

    utxos = pool.utxos
    n_cand = len(candidates)
    g = fees.gamma
    base = sum(p.value for p in batch) + tx_size(k, len(batch), 1) * g

    # Presolve: the first transaction's change can never exceed the largest
    # need any second transaction could have, so inputs whose value alone
    # overshoots that cap are out of every feasible assignment. Dropping
    # them up front keeps the search over realistic input choices only.
    cand_desc = sorted((c.value for c in candidates), reverse=True)
    top = 0
    best_extras = 0
    for t in range(1, min(lev.max_extra, n_cand) + 1):
        top += cand_desc[t - 1]
        if t >= lev.min_extra:
            best_extras = max(best_extras, top + 34 * g * t)
    slack = lev.boost * fees.make_change
    first_cap = base + best_extras + 158 * g + slack
    # A change output must exist and clear dust, so with a single first
    # input its value is bounded on both sides. Sorted largest first, the
    # values in [first_floor, first_cap] are one slice of the pool.
    first_floor = base + max(fees.dust, 1) if k == 1 else 0
    viable = range(
        bisect_left(utxos, -first_cap, key=_neg_value),
        bisect_right(utxos, -first_floor, key=_neg_value),
    )

    # Variable layout: extra payments first, then first-transaction inputs.
    # With no objective the solver branches by index: the extras, then the
    # first-transaction inputs.
    first_sum = {n_cand + idx: utxos[j].value for idx, j in enumerate(viable)}
    # The second transaction's fee, size(1, |extras|, 0) * gamma, is
    # expanded into the extras' coefficients and the right-hand side.
    balance = {**first_sum, **{i: -(c.value + 34 * g) for i, c in enumerate(candidates)}}
    every_extra = dict.fromkeys(range(n_cand), 1)
    if lev.min_extra == lev.max_extra:
        bundle = [(every_extra, "=", lev.min_extra)]
    else:
        bundle = [(every_extra, ">=", lev.min_extra), (every_extra, "<=", lev.max_extra)]
    rows = [
        (dict.fromkeys(first_sum, 1), "=", k),
        *bundle,
        # The first transaction's change output must exist and clear dust.
        (first_sum, ">=", base + max(fees.dust, 1)),
        (first_sum, "<=", first_cap),
        (balance, ">=", base + 158 * g),
        (balance, "<=", base + 158 * g + slack),
    ]
    outcome = solve(BlpProblem(n_cand + len(viable), {}, rows), budget, max_nodes=max_nodes)
    attempt = _attempt(Method.LEVERAGE, outcome)
    if not outcome.status.has_assignment:
        return None, attempt

    bits = outcome.assignment
    first_inputs = tuple(utxos[j] for idx, j in enumerate(viable) if bits[n_cand + idx])
    extras = tuple(c for c, bit in zip(candidates, bits) if bit)
    first_inputs, extras = _cheapest_pair(
        utxos, viable, first_inputs, extras, candidates, base, fees, lev
    )
    change = sum(u.value for u in first_inputs) - base
    overpay2 = change - sum(p.value for p in extras) - tx_size(1, len(extras), 0) * g

    tx1 = Transaction(first_inputs, tuple(batch), change=change, overpayment=0)
    tx2 = Transaction((Utxo(change_id, change),), extras, change=0, overpayment=overpay2)
    if not (is_good(tx1, fees) and is_good(tx2, fees)):
        raise RuntimeError("leverage solution failed the goodness check")
    if overpay2 > slack:
        raise RuntimeError("leverage overpayment exceeds the boosted threshold")
    return (tx1, tx2), attempt


def _cheapest_pair(
    utxos: tuple[Utxo, ...],
    viable: range,
    first: tuple[Utxo, ...],
    extras: tuple[PaymentRequest, ...],
    candidates: Sequence[PaymentRequest],
    base: int,
    fees: FeeParams,
    lev: LeverageParams,
) -> tuple[tuple[Utxo, ...], tuple[PaymentRequest, ...]]:
    """First inputs and bundle of least overpayment, the bridge spent alone.

    A swap's new input is the smallest UTXO outside the other first inputs
    whose change funds the bundle and clears dust, ties to the smallest id.
    Over all bundles, ties go to the earlier bundle; over the solver's
    bundle alone, the solver's pair stands on a tie. ``base`` is the batch
    total plus the first fee. ``viable`` is the slice of ``utxos`` (largest
    first) below the program's cap on first-input values; a larger swap
    would overpay beyond the boosted threshold.
    """
    n_cand = len(candidates)
    sizes = range(lev.min_extra, min(lev.max_extra, n_cand) + 1)
    slack = lev.boost * fees.make_change
    current = sum(u.value for u in first)

    def need(bundle: tuple[PaymentRequest, ...]) -> int:
        return sum(p.value for p in bundle) + tx_size(1, len(bundle), 0) * fees.gamma

    best, best_r2, bundles = None, current - base - need(extras), [extras]
    if len(first) == 1 and sum(comb(n_cand, t) for t in sizes) <= 20_000:
        bundles = [b for t in sizes for b in combinations(candidates, t)]
        best_r2 = None
    lo, hi = viable.start, viable.stop
    for drop in first:
        kept = [u for u in first if u is not drop]
        rest = current - drop.value
        for bundle in bundles:
            r_need = need(bundle)
            floor = base + max(fees.dust, r_need, 1) - rest
            # The smallest UTXO worth at least the floor, past the kept inputs.
            i = bisect_right(utxos, -floor, lo, hi, key=_neg_value) - 1
            while i >= lo and utxos[i] in kept:
                i -= 1
            if i < lo:
                continue
            r2 = rest + utxos[i].value - base - r_need
            if (best_r2 is None or r2 < best_r2) and r2 <= slack:
                best, best_r2 = (kept, bundle, utxos[i].value), r2
    if best is None:
        return first, extras
    kept, bundle, value = best
    start = bisect_left(utxos, -value, lo, hi, key=_neg_value)
    equal = utxos[start : bisect_right(utxos, -value, start, hi, key=_neg_value)]
    swap_in = min((u for u in equal if u not in kept), key=attrgetter("id"))
    return (*kept, swap_in), bundle


def attempt_selection(
    pool: UtxoPool,
    batch: Sequence[PaymentRequest],
    fees: FeeParams,
    budget: float,
    *,
    candidates: Sequence[PaymentRequest] = (),
    lev: LeverageParams | None = None,
    max_nodes: int | None = None,
    change_id: str = "lev-change",
) -> BasicOutcome:
    """Knapsack first, then leverage when enabled, then fallback.

    Raises NoGoodPrefix when even the fallback cannot fund the batch.
    """
    attempts: list[SolverAttempt] = []
    tx, attempt = knapsack_select(pool, batch, fees, budget, max_nodes=max_nodes)
    if attempt is not None:
        attempts.append(attempt)
    if tx is not None:
        return BasicOutcome(Method.KNAPSACK, (tx,), tuple(attempts))

    if lev is not None:
        pair, attempt = leverage_select(
            pool, batch, candidates, fees, lev, budget,
            max_nodes=max_nodes, change_id=change_id,
        )
        if attempt is not None:
            attempts.append(attempt)
        if pair is not None:
            return BasicOutcome(Method.LEVERAGE, pair, tuple(attempts))

    tx = fallback_select(pool, batch, fees)
    return BasicOutcome(Method.FALLBACK, (tx,), tuple(attempts))
