"""The three basic selectors: fallback, knapsack, and knapsack with leverage.

Each selector funds a fixed batch of payment requests from a sorted UTXO
pool and returns good transactions. The knapsack and leverage selectors
build binary programs and hand them to the branch-and-bound solver; each
returns its transaction(s), or None, together with the solver attempts that
say why it failed. The fallback selector is a largest-first prefix
construction that always succeeds while the pool can cover the batch at
all. ``attempt_selection`` is the cascade: knapsack, then leverage, then
the fallback.

The leverage programs count only the second transaction's pool inputs, level
by level: none, then exactly one, then at least two, fewest first. One pass
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
) -> tuple[tuple[Transaction, Transaction] | None, tuple[SolverAttempt, ...] | None]:
    """Fund the batch and a bundle of extra payments with a linked pair.

    The first transaction spends the optimal input count and emits a change
    output, which the second consumes (as ``change_id``, its first input)
    together with as few further pool inputs as possible, paying between
    ``min_extra`` and ``max_extra`` of the candidate requests change-free.
    The pair is None when infeasible or out of budget, as the attempts'
    statuses say; the attempts are None when no program was built, for want
    of candidates or of a good largest-first prefix.

    One program, and one attempt, per level of the second transaction's
    pool-input count, each with the whole budget and node cap. Level 0 has
    no pool-input variables. Only when it is proved infeasible does level 1
    add them, with exactly one of them set; then level 2, at least two with
    their count as the objective. A level stopped by a limit ends the call.
    The levels settle the second transaction's input count, and
    ``_cheapest_pair`` then lowers the overpayment beside the same second
    inputs by one-input swaps of the first inputs: against every bundle when
    there is one first input and at most 20,000 bundles, else the solver's.
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
    n = len(utxos)
    n_cand = len(candidates)
    ascending = [u.value for u in reversed(utxos)]
    g = fees.gamma
    total_p = sum(p.value for p in batch)
    fee1 = tx_size(k, len(batch), 1) * g

    # Presolve: the first transaction's change can never exceed the largest
    # need any second transaction could have, so inputs whose value alone
    # overshoots that cap are out of every feasible assignment. Dropping
    # them up front keeps the search over realistic input choices only.
    small_gap = sum(148 * g - v for v in ascending[: bisect_left(ascending, 148 * g)])
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
    # input its value is bounded on both sides. Sorted largest first, the
    # values in [first_floor, first_cap] are one slice of the pool.
    first_floor = total_p + fee1 + max(fees.dust, 1) if k == 1 else 0
    viable = range(
        n - bisect_right(ascending, first_cap), n - bisect_left(ascending, first_floor)
    )

    # Variable layout: extra payments first, then first-transaction inputs,
    # then, from level 1 on, second-transaction pool inputs. With no
    # objective the solver branches by index: the extras, then the
    # first-transaction inputs.
    n_first = len(viable)
    first_sum = {n_cand + idx: utxos[j].value for idx, j in enumerate(viable)}
    # The second transaction spends the first's change plus its pool
    # inputs; its fee is size(1 + |pool inputs|, |extras|, 0) * gamma,
    # already expanded into the coefficients below.
    extra_need = {i: -(c.value + 34 * g) for i, c in enumerate(candidates)}
    balance = {**first_sum, **extra_need}
    balance_rhs = total_p + fee1 + 158 * g
    slack = lev.boost * fees.make_change
    every_extra = dict.fromkeys(extra_need, 1)
    if lev.min_extra == lev.max_extra:
        bundle = [(every_extra, "=", lev.min_extra)]
    else:
        bundle = [(every_extra, ">=", lev.min_extra), (every_extra, "<=", lev.max_extra)]
    rows: list = [
        (dict.fromkeys(first_sum, 1), "=", k),
        *bundle,
        # The first transaction's change output must exist and clear dust.
        (first_sum, ">=", total_p + fee1 + max(fees.dust, 1)),
        (first_sum, "<=", first_cap),
    ]
    attempts: list[SolverAttempt] = []

    def attempt(n_vars: int, objective, level_rows: list, offset: int = 0):
        problem = BlpProblem(n_vars, objective, level_rows, offset)
        outcome = solve(problem, budget, max_nodes=max_nodes)
        attempts.append(_attempt(Method.LEVERAGE, outcome))
        return outcome

    # Level 0: no second-transaction pool input, so the first point found
    # meets the root bound 0 and is optimal.
    balance_rows = [(balance, ">=", balance_rhs), (balance, "<=", balance_rhs + slack)]
    outcome = attempt(n_cand + n_first, {}, rows + balance_rows)
    second_pool_inputs: tuple[Utxo, ...] = ()
    if outcome.status is SolveStatus.INFEASIBLE:
        # Level 1 (one pool input), and only when that is infeasible too,
        # level 2 (at least two, fewest first). A level stopped by a limit
        # ends the call, since a higher one could only cost more inputs.
        x2 = n_cand + n_first
        spent = {x2 + j: u.value - 148 * g for j, u in enumerate(utxos)}
        balance.update(spent)  # level 0's program holds its own copy
        rows += [({n_cand + idx: 1, x2 + j: 1}, "<=", 1) for idx, j in enumerate(viable)]
        rows += [({**spent, **extra_need}, "<=", 158 * g), *balance_rows]
        count = dict.fromkeys(spent, 1)
        outcome = attempt(x2 + n, {}, rows + [(count, "=", 1)], 1)
        if outcome.status is SolveStatus.INFEASIBLE:
            outcome = attempt(x2 + n, count, rows + [(count, ">=", 2)])
        if outcome.status.has_assignment:
            bits = outcome.assignment[x2:]
            second_pool_inputs = tuple(u for u, bit in zip(utxos, bits) if bit)
    if not outcome.status.has_assignment:
        return None, tuple(attempts)

    bits = outcome.assignment
    first_inputs = tuple(utxos[j] for idx, j in enumerate(viable) if bits[n_cand + idx])
    extras = tuple(c for c, bit in zip(candidates, bits) if bit)

    first_inputs, extras = _cheapest_pair(
        utxos, ascending, first_inputs, second_pool_inputs, extras, candidates,
        total_p + fee1, fees, lev,
    )
    fee2 = tx_size(1 + len(second_pool_inputs), len(extras), 0) * g
    need = sum(p.value for p in extras) + fee2 - sum(u.value for u in second_pool_inputs)
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
    return (tx1, tx2), tuple(attempts)


def _cheapest_pair(
    utxos: tuple[Utxo, ...],
    ascending: list[int],
    first: tuple[Utxo, ...],
    second: tuple[Utxo, ...],
    extras: tuple[PaymentRequest, ...],
    candidates: Sequence[PaymentRequest],
    base: int,
    fees: FeeParams,
    lev: LeverageParams,
) -> tuple[tuple[Utxo, ...], tuple[PaymentRequest, ...]]:
    """First inputs and bundle of least overpayment beside fixed second inputs.

    A swap's new input is the smallest UTXO outside the pair whose change
    funds the bundle and clears dust, ties to the smallest id. Over all
    bundles, ties go to the earlier bundle; over the solver's bundle alone,
    the solver's pair stands on a tie. ``base`` is the batch total plus the
    first fee; ``ascending`` holds the pool's values, smallest first.
    """
    n_cand = len(candidates)
    sizes = range(lev.min_extra, min(lev.max_extra, n_cand) + 1)
    i2_total = sum(u.value for u in second)
    slack = lev.boost * fees.make_change
    current = sum(u.value for u in first)

    def need(bundle: tuple[PaymentRequest, ...]) -> int:
        fee2 = tx_size(1 + len(second), len(bundle), 0) * fees.gamma
        return sum(p.value for p in bundle) + fee2 - i2_total

    best, best_r2, bundles = None, current - base - need(extras), [extras]
    if len(first) == 1 and sum(comb(n_cand, t) for t in sizes) <= 20_000:
        bundles = [b for t in sizes for b in combinations(candidates, t)]
        best_r2 = None
    for drop in first:
        # The values of the UTXOs that may take the dropped input's place.
        free = ascending.copy()
        for u in first + second:
            if u is not drop:
                del free[bisect_left(free, u.value)]
        rest = current - drop.value
        for bundle in bundles:
            r_need = need(bundle)
            pos = bisect_left(free, base + max(fees.dust, r_need, 1) - rest)
            if pos == len(free):
                continue
            r2 = rest + free[pos] - base - r_need
            if (best_r2 is None or r2 < best_r2) and r2 <= slack:
                best, best_r2 = (drop, bundle, free[pos]), r2
    if best is None:
        return first, extras
    drop, bundle, value = best
    kept = tuple(u for u in first if u is not drop)
    taken = {u.id for u in kept + second}
    n = len(utxos)
    equal = utxos[n - bisect_right(ascending, value) : n - bisect_left(ascending, value)]
    swap_in = min((u for u in equal if u.id not in taken), key=attrgetter("id"))
    return kept + (swap_in,), bundle


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
        pair, lev_attempts = leverage_select(
            pool, batch, candidates, fees, lev, budget,
            max_nodes=max_nodes, change_id=change_id,
        )
        attempts.extend(lev_attempts or ())
        if pair is not None:
            return BasicOutcome(Method.LEVERAGE, pair, tuple(attempts))

    tx = fallback_select(pool, batch, fees)
    return BasicOutcome(Method.FALLBACK, (tx,), tuple(attempts))
