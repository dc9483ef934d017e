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
and k first inputs, so t <= k - 1, and k is 1 in 500 of the full
protocol's 506 pairs. The program lists the first inputs smallest first,
so with one first input its first point spends the smallest one that
funds any bundle. With one first input and at most 20,000 bundles, a
sweep after the solve takes the pair of least overpayment: it sums every
bundle in C, sorts the sums and bisects once per first input, about
0.5 ms for C(64, 2) = 2,016 bundles. A 64-candidate window passes bundle
size 2 but not 3 (C(64, 3) = 41,664).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb, floor
from operator import attrgetter
from typing import Sequence

from .blp import BlpProblem, SolveOutcome, SolveStatus, solve
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
    solver's stop reason (None, ``"nodes"`` or ``"clock"``). The selectors'
    objectives are integer sums, 0 for leverage."""

    method: Method
    status: SolveStatus
    nodes: int
    objective: int | None
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
    outside it is 0 at every feasible point and those inside keep their
    order, so the search meets the same incumbents in the same order as
    over the whole pool, in no more nodes. At k = 1 every UTXO in the window
    funds the batch, and the solver's root leaf takes the smallest (the last
    of equal values, as the search would) after 0 nodes.
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

    One program over the first inputs, smallest first, and the extras,
    largest first, with no objective, so the first point found is optimal.
    Its rows are dense and integer: the overpayment cap ``boost *
    make_change`` is floored, which admits the same pairs as the rational
    cap, since overpayments are whole satoshis. With one first input that
    point spends the smallest first input that funds any bundle. When there
    is one first input and at most 20,000 bundles, ``_cheapest_pair``
    takes the pair of least overpayment in its place, from sorted bundle
    sums and one bisect per first input.
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
    # overshoots that cap are out of every feasible assignment. Candidate
    # values are positive, so the largest allowed bundle is the neediest.
    t = min(lev.max_extra, n_cand)
    best_extras = sum(sorted((c.value for c in candidates), reverse=True)[:t]) + 34 * g * t
    slack = floor(lev.boost * fees.make_change)
    first_cap = base + best_extras + 158 * g + slack
    # A change output must exist and clear dust, so with a single first
    # input its value is bounded on both sides. Sorted largest first, the
    # values in [first_floor, first_cap] are one slice of the pool.
    first_floor = base + max(fees.dust, 1) if k == 1 else 0
    lo = bisect_left(utxos, -first_cap, key=_neg_value)
    hi = bisect_right(utxos, -first_floor, key=_neg_value)

    # Variable layout: the first inputs smallest first, then the extras
    # largest first, ties in candidate order. With no objective the solver
    # branches by index and tries 1 first, so with one first input the
    # first point found spends the smallest first input that funds a bundle.
    first = utxos[lo:hi][::-1]
    values = [u.value for u in first]
    n_in = len(first)
    by_value = sorted(range(n_cand), key=lambda i: -candidates[i].value)
    no_extras = [0] * n_cand
    every_extra = [0] * n_in + [1] * n_cand
    if lev.min_extra == lev.max_extra:
        bundle = [(every_extra, "=", lev.min_extra)]
    else:
        bundle = [(every_extra, ">=", lev.min_extra), (every_extra, "<=", lev.max_extra)]
    # The second transaction's fee, size(1, |extras|, 0) * gamma, is
    # expanded into the extras' coefficients and the right-hand side.
    balance = values + [-(candidates[i].value + 34 * g) for i in by_value]
    rows = [
        ([1] * n_in + no_extras, "=", k),
        *bundle,
        # The first transaction's change output must exist and clear dust.
        # Its cap, first_cap, needs no row: the balance "<=" row, bounded
        # over the largest allowed bundle, already implies it.
        (values + no_extras, ">=", base + max(fees.dust, 1)),
        (balance, ">=", base + 158 * g),
        (balance, "<=", base + 158 * g + slack),
    ]
    n = n_in + n_cand
    outcome = solve(BlpProblem(n, [0] * n, rows), budget, max_nodes=max_nodes)
    attempt = _attempt(Method.LEVERAGE, outcome)
    if not outcome.status.has_assignment:
        return None, attempt

    sizes = range(lev.min_extra, t + 1)
    if k == 1 and sum(comb(n_cand, size) for size in sizes) <= 20_000:
        first_inputs, extras = _cheapest_pair(first, values, candidates, sizes, base, fees, slack)
    else:
        # Inputs in pool order, extras in candidate order.
        bits = outcome.assignment
        first_inputs = tuple(u for u, bit in zip(first, bits) if bit)[::-1]
        chosen = sorted(i for pos, i in enumerate(by_value) if bits[n_in + pos])
        extras = tuple(candidates[i] for i in chosen)
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
    first: tuple[Utxo, ...],
    values: list[int],
    candidates: Sequence[PaymentRequest],
    sizes: range,
    base: int,
    fees: FeeParams,
    slack: int,
) -> tuple[tuple[Utxo], tuple[PaymentRequest, ...]]:
    """Single first input and bundle of least overpayment, the bridge spent
    alone, over every bundle of the given sizes.

    Ties between bundles go to the earliest, by size and then
    ``combinations`` order; the bundle takes the smallest UTXO that funds
    it, ties to the smallest id. ``first`` holds the program's first inputs,
    smallest first, and ``values`` their values: each clears dust, and a
    larger input would overpay beyond ``slack``. ``base`` is the batch total
    plus the first fee.

    No Python runs per bundle. A bundle's need less 158 gamma is the sum of
    its values plus 34 gamma each, summed in C by ``map(sum,
    combinations(...))``. One bisect per first input over the sorted needs
    finds the largest need it funds, hence the least overpayment. The
    bundles that tie for it are those whose need plus that overpayment is
    some input's value; ``list.index`` finds the earliest.
    """
    edge = base + 158 * fees.gamma
    shifted = [c.value + 34 * fees.gamma for c in candidates]
    needs = list(chain.from_iterable(map(sum, combinations(shifted, t)) for t in sizes))
    ordered = sorted(needs)
    best = min(
        (v - edge - ordered[i - 1] for v in values if (i := bisect_right(ordered, v - edge))),
        default=None,
    )
    # Called only after the solver found a pair, which the sweep must meet.
    if best is None or best > slack:
        raise RuntimeError("leverage sweep found no pair where the solver found one")
    hit = min(map(needs.index, {v - edge - best for v in values}.intersection(needs)))
    bundles = chain.from_iterable(combinations(candidates, t) for t in sizes)
    value = edge + needs[hit] + best
    equal = first[bisect_left(values, value) : bisect_right(values, value)]
    return (min(equal, key=attrgetter("id")),), next(islice(bundles, hit, None))


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
