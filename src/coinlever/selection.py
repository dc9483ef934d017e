"""The three basic selectors: fallback, knapsack, and knapsack with leverage.

Each selector funds a fixed batch of payment requests from a sorted UTXO
pool and returns good transactions. The knapsack and leverage selectors
build binary programs and hand them to the branch-and-bound solver; each
returns its transaction(s), or None, together with the solver attempt that
says why it failed. The fallback selector is a largest-first prefix
construction that always succeeds while the pool can cover the batch at
all. ``attempt_selection`` is the cascade: knapsack, then leverage, then
the fallback.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .blp import BlpProblem, Coeff, SolveStatus, solve
from .model import (
    FeeParams,
    NoGoodPrefix,
    PaymentRequest,
    Transaction,
    Utxo,
    UtxoPool,
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
    assert is_good(tx, fees)
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
    neg = lambda u: -u.value  # noqa: E731
    start = bisect_left(utxos, -highest, key=neg)
    window = utxos[start : bisect_right(utxos, -lowest, key=neg)]
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
    attempt = SolverAttempt(
        Method.KNAPSACK, outcome.status, outcome.nodes_explored, outcome.objective_value,
        outcome.limit,
    )
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
    output, which the second consumes (as ``change_id``, its first input)
    together with as few further pool inputs as possible, paying between
    ``min_extra`` and ``max_extra`` of the candidate requests change-free.
    The pair is None when infeasible or out of budget, as the attempt's
    status says; the attempt is None when no program was built, for want of
    candidates or of a good largest-first prefix.
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

    n = len(pool)
    n_cand = len(candidates)
    values = pool.values()
    g = fees.gamma
    total_p = sum(p.value for p in batch)
    fee1 = tx_size(k, len(batch), 1) * g

    # Presolve: the first transaction's change can never exceed the largest
    # need any second transaction could have, so inputs whose value alone
    # overshoots that cap are out of every feasible assignment. Dropping
    # them up front keeps the search over realistic input choices only.
    small_gap = sum(148 * g - v for v in values if v < 148 * g)
    cand_desc = sorted((c.value for c in candidates), reverse=True)
    top = 0
    best_extras = 0
    for t in range(1, min(lev.max_extra, n_cand) + 1):
        top += cand_desc[t - 1]
        if t >= lev.min_extra:
            best_extras = max(best_extras, top + 34 * g * t)
    change_cap = best_extras + 158 * g + small_gap + lev.boost * fees.make_change
    first_cap = total_p + fee1 + change_cap
    # A change output must exist and clear dust, so with a single first
    # input its value is bounded on both sides.
    first_floor = total_p + fee1 + max(fees.dust, 1) if k == 1 else 0
    viable = [j for j in range(n) if first_floor <= values[j] <= first_cap]

    # Variable layout: extra payments first, then first-transaction inputs,
    # then second-transaction inputs. Only the last block carries objective
    # weight, and the solver branches by descending |objective| with ties to
    # the lowest index, so it branches the second-transaction inputs first,
    # then the extras, then the first-transaction inputs.
    n_first = len(viable)
    y = lambda i: i  # noqa: E731
    x1 = lambda idx: n_cand + idx  # noqa: E731
    x2 = lambda j: n_cand + n_first + j  # noqa: E731

    # The second transaction spends the first's change plus the selected
    # extra inputs; its fee is size(1 + |extra inputs|, |extras|, 0) * gamma,
    # already expanded into the coefficients below.
    balance = {x1(idx): values[j] for idx, j in enumerate(viable)}
    for j in range(n):
        balance[x2(j)] = values[j] - 148 * g
    for i in range(n_cand):
        balance[y(i)] = -(candidates[i].value + 34 * g)
    balance_rhs = total_p + fee1 + 158 * g

    rows: list = [({x1(idx): 1, x2(j): 1}, "<=", 1) for idx, j in enumerate(viable)]
    rows.append(({x1(idx): 1 for idx in range(n_first)}, "=", k))
    rows.append(({y(i): 1 for i in range(n_cand)}, ">=", lev.min_extra))
    rows.append(({y(i): 1 for i in range(n_cand)}, "<=", lev.max_extra))
    first_sum = {x1(idx): values[j] for idx, j in enumerate(viable)}
    # The first transaction's change output must exist and clear dust.
    rows.append((first_sum, ">=", total_p + fee1 + max(fees.dust, 1)))
    rows.append((first_sum, "<=", first_cap))
    row_short = {x2(j): values[j] - 148 * g for j in range(n)}
    for i in range(n_cand):
        row_short[y(i)] = -(candidates[i].value + 34 * g)
    rows.append((row_short, "<=", 158 * g))
    rows.append((balance, ">=", balance_rhs))
    rows.append((balance, "<=", balance_rhs + lev.boost * fees.make_change))

    problem = BlpProblem(n_cand + n_first + n, {x2(j): 1 for j in range(n)}, rows)
    outcome = solve(problem, budget, max_nodes=max_nodes)
    attempt = SolverAttempt(
        Method.LEVERAGE, outcome.status, outcome.nodes_explored, outcome.objective_value,
        outcome.limit,
    )
    if not outcome.status.has_assignment:
        return None, attempt

    bits = outcome.assignment
    first_inputs = tuple(pool.utxos[j] for idx, j in enumerate(viable) if bits[x1(idx)])
    second_pool_inputs = tuple(pool.utxos[j] for j in range(n) if bits[x2(j)])
    extras = tuple(candidates[i] for i in range(n_cand) if bits[y(i)])

    if k == 1:
        refined = _best_single_input_pairing(
            pool, candidates, second_pool_inputs, total_p, fee1, fees, lev
        )
        if refined is not None:
            first_inputs, extras = refined
    fee2 = tx_size(1 + len(second_pool_inputs), len(extras), 0) * g
    need = sum(p.value for p in extras) + fee2 - sum(u.value for u in second_pool_inputs)
    first_inputs = _shrink_first_inputs(
        pool, first_inputs, second_pool_inputs, total_p, fee1, need, fees
    )
    change = sum(u.value for u in first_inputs) - total_p - fee1
    overpay2 = change - need

    tx1 = Transaction(first_inputs, tuple(batch), change=change, overpayment=0)
    bridge = Utxo(change_id, change)
    tx2 = Transaction(
        (bridge,) + second_pool_inputs, extras, change=0, overpayment=overpay2
    )
    if not (is_good(tx1, fees) and is_good(tx2, fees)):
        raise RuntimeError("leverage solution failed the goodness check")
    if overpay2 > lev.boost * fees.make_change:
        raise RuntimeError("leverage overpayment exceeds the boosted threshold")
    return (tx1, tx2), attempt


def _best_single_input_pairing(
    pool: UtxoPool,
    candidates: Sequence[PaymentRequest],
    second_inputs: tuple[Utxo, ...],
    total_p: int,
    fee1: int,
    fees: FeeParams,
    lev: LeverageParams,
) -> tuple[tuple[Utxo, ...], tuple[PaymentRequest, ...]] | None:
    """Cheapest single-input/extra-bundle pairing for a fixed second input set.

    The solver's objective only counts second-transaction inputs, so all
    pairings with the same input count tie; this sweep picks the one with
    the smallest overpayment. Skipped when the bundle space is too large to
    enumerate cheaply.
    """
    n_cand = len(candidates)
    sizes = range(lev.min_extra, min(lev.max_extra, n_cand) + 1)
    if sum(comb(n_cand, t) for t in sizes) > 20_000:
        return None
    taken = {u.id for u in second_inputs}
    available = sorted((u.value, u.id, u) for u in pool if u.id not in taken)
    if not available:
        return None
    values = [entry[0] for entry in available]
    i2_total = sum(u.value for u in second_inputs)
    slack = lev.boost * fees.make_change
    base = total_p + fee1
    best_r2 = None
    best = None
    for t in sizes:
        fee2 = tx_size(1 + len(second_inputs), t, 0) * fees.gamma
        for combo in combinations(range(n_cand), t):
            need = sum(candidates[i].value for i in combo) + fee2 - i2_total
            lo = base + max(fees.dust, need, 1)
            hi = base + need + slack
            if hi < lo:
                continue
            pos = bisect_left(values, lo)
            if pos >= len(values) or values[pos] > hi:
                continue
            r2 = values[pos] - base - need
            if best_r2 is None or r2 < best_r2:
                best_r2 = r2
                best = (
                    (available[pos][2],),
                    tuple(candidates[i] for i in combo),
                )
    return best


def _shrink_first_inputs(
    pool: UtxoPool,
    first_inputs: tuple[Utxo, ...],
    second_inputs: tuple[Utxo, ...],
    total_p: int,
    fee1: int,
    need: int,
    fees: FeeParams,
) -> tuple[Utxo, ...]:
    """Swap first-transaction inputs down to shave its change output.

    The solver minimizes the second transaction's input count but is
    indifferent between first-input sets, whose surplus becomes the pair's
    overpayment. Replacing one input with the smallest unused UTXO that
    keeps the change at or above what the second transaction consumes picks
    a cheaper solution of the same program; input counts, feasibility, and
    the dust bound are untouched.
    """
    floor = total_p + fee1 + max(fees.dust, need, 1)
    current = sum(u.value for u in first_inputs)
    if current <= floor:
        return first_inputs
    taken = {u.id for u in first_inputs} | {u.id for u in second_inputs}
    available = sorted(
        ((u.value, u.id, u) for u in pool if u.id not in taken)
    )
    if not available:
        return first_inputs
    values = [entry[0] for entry in available]
    best = first_inputs
    best_sum = current
    for drop_idx, member in enumerate(first_inputs):
        lo = floor - (current - member.value)
        pos = bisect_left(values, lo)
        if pos >= len(values):
            continue
        candidate_sum = current - member.value + values[pos]
        if candidate_sum < best_sum:
            best_sum = candidate_sum
            replacement = available[pos][2]
            best = (
                first_inputs[:drop_idx] + first_inputs[drop_idx + 1 :] + (replacement,)
            )
    return best


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
