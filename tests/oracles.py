"""Independent brute-force oracles used to cross-check the library.

Everything here restates the arithmetic from scratch (no imports from the
package under test) so that agreement is meaningful. All oracles are
exhaustive scans or enumerations and are only meant for small instances.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations

import numpy as np


def size_bytes(n_inputs: int, n_outputs: int, change_flag: int) -> int:
    return 10 + 148 * n_inputs + 34 * n_outputs + 34 * change_flag


def brute_opt(
    values_desc: list[int], payment_values: list[int], gamma: int, dust: int
) -> int | None:
    """Smallest prefix length admitting a good zero-overpayment transaction.

    Returns None when no prefix of the whole list qualifies.
    """
    total_p = sum(payment_values)
    m = len(payment_values)
    for k in range(1, len(values_desc) + 1):
        s = sum(values_desc[:k])
        if s - total_p - size_bytes(k, m, 0) * gamma == 0:
            return k
        change = s - total_p - size_bytes(k, m, 1) * gamma
        if change > 0 and change >= dust:
            return k
    return None


def brute_fallback(
    values_desc: list[int], payment_values: list[int], gamma: int, dust: int
) -> tuple[int, int] | None:
    """(prefix length, change amount) of the fallback construction, or None."""
    k = brute_opt(values_desc, payment_values, gamma, dust)
    if k is None:
        return None
    s = sum(values_desc[:k])
    total_p = sum(payment_values)
    m = len(payment_values)
    if s - total_p - size_bytes(k, m, 0) * gamma == 0:
        return k, 0
    return k, s - total_p - size_bytes(k, m, 1) * gamma


def brute_knapsack(
    values_desc: list[int],
    payment_values: list[int],
    gamma: int,
    make_change: int,
    dust: int,
) -> int | None:
    """Lowest achievable change-free overpayment using exactly opt inputs.

    Returns the minimal overpayment in [0, make_change] over all subsets of
    the optimal size, or None when no such subset exists.
    """
    k = brute_opt(values_desc, payment_values, gamma, dust)
    if k is None:
        return None
    target = sum(payment_values) + size_bytes(k, len(payment_values), 0) * gamma
    best: int | None = None
    for combo in combinations(range(len(values_desc)), k):
        s = sum(values_desc[i] for i in combo)
        if target <= s <= target + make_change:
            r = s - target
            if best is None or r < best:
                best = r
    return best


def fast_knapsack(
    values_desc: list[int],
    payment_values: list[int],
    gamma: int,
    make_change: int,
    dust: int,
) -> int | None:
    """``brute_knapsack`` for pools of thousands, when opt is 1 or 2.

    One input: bisect for the smallest value at or above the target. Two
    inputs: two pointers over the ascending values, which meet every pair
    sum that could be the smallest one at or above the target. Raises
    ValueError for a larger opt.
    """
    k = brute_opt(values_desc, payment_values, gamma, dust)
    if k is None:
        return None
    if k > 2:
        raise ValueError(f"fast_knapsack handles opt <= 2, got {k}")
    target = sum(payment_values) + size_bytes(k, len(payment_values), 0) * gamma
    values = sorted(values_desc)
    best: int | None = None
    if k == 1:
        pos = bisect_left(values, target)
        if pos < len(values):
            best = values[pos] - target
    else:
        lo, hi = 0, len(values) - 1
        while lo < hi:
            s = values[lo] + values[hi]
            if s < target:
                lo += 1
            else:
                if best is None or s - target < best:
                    best = s - target
                hi -= 1
    return best if best is not None and best <= make_change else None


def brute_leverage(
    values_desc: list[int],
    payment_values: list[int],
    candidate_values: list[int],
    gamma: int,
    dust: int,
    make_change: int,
    beta: Fraction,
    min_extra: int,
    max_extra: int,
) -> int | None:
    """Minimal count of extra pool inputs for the second transaction.

    Enumerates every (first-transaction input set, extra payment set, second
    transaction input set) triple and returns the smallest second-transaction
    pool-input count among feasible triples, or None when none is feasible.
    """
    n = len(values_desc)
    m = len(payment_values)
    if len(candidate_values) < min_extra:
        return None
    k = brute_opt(values_desc, payment_values, gamma, dust)
    if k is None:
        return None
    total_p = sum(payment_values)
    fee1 = size_bytes(k, m, 1) * gamma
    slack = beta * make_change

    extra_sets = []
    for t in range(min_extra, max_extra + 1):
        extra_sets.extend(combinations(range(len(candidate_values)), t))

    best: int | None = None
    for first_inputs in combinations(range(n), k):
        change = sum(values_desc[i] for i in first_inputs) - total_p - fee1
        if change <= 0 or change < dust:
            continue
        rest = [i for i in range(n) if i not in first_inputs]
        # Remaining-subset sums grouped by subset size, for windowed lookup.
        sums_by_size: list[list[int]] = []
        limit = len(rest) if best is None else min(len(rest), best - 1)
        for t in range(limit + 1):
            sums_by_size.append(
                sorted(sum(values_desc[i] for i in c) for c in combinations(rest, t))
            )
        for extra in extra_sets:
            paid = sum(candidate_values[i] for i in extra)
            for t, sums in enumerate(sums_by_size):
                if best is not None and t >= best:
                    break
                fee2 = size_bytes(1 + t, len(extra), 0) * gamma
                # Need: sum(second inputs) + change = paid + fee2 + r2,
                # with 0 <= r2 <= beta * make_change.
                lo = paid + fee2 - change
                hi = lo + slack
                idx = bisect_left(sums, lo)
                if idx < len(sums) and sums[idx] <= hi:
                    best = t
                    break
    return best


def brute_pairing(
    values_desc: list[int],
    payment_values: list[int],
    candidate_values: list[int],
    gamma: int,
    dust: int,
    make_change: int,
    beta: Fraction,
    min_extra: int,
    max_extra: int,
) -> int | None:
    """Least second-transaction overpayment over pairs with one first input
    and no second pool input.

    Enumerates every (first input, extra payment set) pair: the first
    transaction's change must be positive and at least the dust threshold,
    and the second transaction spends that change alone, overpaying by at
    most beta * make_change. Returns None when no such pair exists.
    """
    total_p = sum(payment_values)
    fee1 = size_bytes(1, len(payment_values), 1) * gamma
    best: int | None = None
    for value in values_desc:
        change = value - total_p - fee1
        if change <= 0 or change < dust:
            continue
        for t in range(min_extra, max_extra + 1):
            for extra in combinations(candidate_values, t):
                r2 = change - sum(extra) - size_bytes(1, t, 0) * gamma
                if 0 <= r2 <= beta * make_change and (best is None or r2 < best):
                    best = r2
    return best


def brute_cheapest_pair(
    values_desc: list[int],
    payment_values: list[int],
    candidate_values: list[int],
    gamma: int,
    dust: int,
    make_change: int,
    beta: Fraction,
    min_extra: int,
    max_extra: int,
) -> tuple[int, tuple[int, ...]] | None:
    """``brute_pairing``'s pair itself, under the selector's tie rules.

    Returns the index of the one first input in values_desc and the indices
    of the extras in candidate_values, or None when no pair exists. Bundles
    are scanned by size and then in ``combinations`` order, and only a
    strictly smaller overpayment replaces the best, so a tie goes to the
    earliest bundle. A bundle takes the smallest value whose change clears
    dust and funds it, ties to the smallest index.
    """
    total_p = sum(payment_values)
    fee1 = size_bytes(1, len(payment_values), 1) * gamma
    best, best_r2 = None, None
    for t in range(min_extra, max_extra + 1):
        for extra in combinations(range(len(candidate_values)), t):
            need = sum(candidate_values[i] for i in extra) + size_bytes(1, t, 0) * gamma
            funding = [
                v for v in values_desc
                if v - total_p - fee1 > 0 and v - total_p - fee1 >= max(dust, need)
            ]
            if not funding:
                continue
            r2 = min(funding) - total_p - fee1 - need
            if r2 <= beta * make_change and (best_r2 is None or r2 < best_r2):
                best, best_r2 = (min(funding), extra), r2
    if best is None:
        return None
    value, extra = best
    return values_desc.index(value), extra


def brute_smallest_funding_input(
    values_desc: list[int],
    payment_values: list[int],
    candidate_values: list[int],
    gamma: int,
    dust: int,
    make_change: int,
    beta: Fraction,
    min_extra: int,
    max_extra: int,
) -> int | None:
    """Least pool value whose change, as the one first input, funds some
    extra payment set alone.

    The change must be positive and at least the dust threshold, and the
    second transaction spends it alone on min_extra to max_extra of the
    candidates, overpaying by at most beta * make_change. Returns None when
    no pool value qualifies.
    """
    total_p = sum(payment_values)
    fee1 = size_bytes(1, len(payment_values), 1) * gamma
    needs = [
        sum(extra) + size_bytes(1, t, 0) * gamma
        for t in range(min_extra, max_extra + 1)
        for extra in combinations(candidate_values, t)
    ]
    for value in sorted(values_desc):
        change = value - total_p - fee1
        if change <= 0 or change < dust:
            continue
        if any(0 <= change - need <= beta * make_change for need in needs):
            return value
    return None


def enumerate_blp(
    n_vars: int,
    objective: list[int],
    rows: list[tuple[list[int], str, object]],
):
    """Exhaustive minimum of a binary program via numpy enumeration.

    Returns (min objective, one argmin bit tuple) or None when
    infeasible. Rows are (dense integer coefficients, relation, rhs); a
    Fraction rhs is compared exactly by clearing its denominator.
    """
    assigns = np.array(
        [[(i >> j) & 1 for j in range(n_vars)] for i in range(2**n_vars)],
        dtype=np.int64,
    )
    ok = np.ones(len(assigns), dtype=bool)
    for coeffs, rel, rhs in rows:
        lhs = assigns @ np.array(coeffs, dtype=np.int64)
        if isinstance(rhs, Fraction):
            lhs = lhs * rhs.denominator
            rhs = rhs.numerator
        if rel == "<=":
            ok &= lhs <= rhs
        elif rel == ">=":
            ok &= lhs >= rhs
        elif rel == "=":
            ok &= lhs == rhs
        else:
            raise ValueError(rel)
    if not ok.any():
        return None
    obj = assigns @ np.array(objective, dtype=np.int64)
    feasible_obj = np.where(ok, obj, np.iinfo(np.int64).max)
    best_idx = int(np.argmin(feasible_obj))
    return int(obj[best_idx]), tuple(int(b) for b in assigns[best_idx])


def row_holds(coeffs: list, rel: str, rhs, assignment) -> bool:
    lhs = sum(c * x for c, x in zip(coeffs, assignment))
    if rel == "<=":
        return lhs <= rhs
    if rel == ">=":
        return lhs >= rhs
    if rel == "=":
        return lhs == rhs
    raise ValueError(rel)
