"""Binary linear program solver: depth-first branch and bound.

Minimizes an objective over {0,1}^n subject to <=, =, >= rows, using exact
integer/rational arithmetic throughout (no tolerances). The search keeps the
best feasible assignment found so far and returns it when the wall-clock
budget or the optional node cap expires, matching the use case where a quick
feasible answer beats an exhaustive search.

Pruning is LP-free: each node bounds the objective by relaxing every unfixed
variable to its objective-improving value, and detects dead rows from the
attainable min/max of their unfixed part.

The dead-row test knows about cardinality rows. At setup the solver keeps a
disjoint set of all-ones "=" / "<=" rows with an integer right-hand side
(largest support first, "<=" rows only where they bind); each such row's
support is a block. Every other
row splits into the parts that fall in blocks plus a free part. A block
whose row allows r more ones bounds its part of another row by the sum of
that part's top (or bottom) r unfixed coefficients: exactly r when the
block row is "=" and the part spans the whole block, otherwise at most r,
counting only coefficients that push the bound outward. Free parts are
bounded coefficient by coefficient. A variable is fixed at depth d exactly
when its position in the branching order is at most d, so each part keeps
depth-stamped cursors past its fixed prefix and a bound walks about r
entries, not the whole prefix. Also at setup, a rational right-hand side on
a row with integer coefficients is rounded inward (floor for "<=", ceiling
for ">="). A ">=" row and a "<=" row next to each other with the same
coefficients (the "<=" row not a block) become one range row [lo, hi],
tested once. When a part of a range row spans an "=" block with exactly one
one left, the row is dead unless some unfixed coefficient c of that part
lies in [lo - (max - top), hi - (min - bottom)], with min/max the row's
attainable bounds and top/bottom the part's largest and smallest unfixed
coefficients. These steps only cut subtrees that hold no feasible point, so
the search meets the same incumbents in the same order, in no more nodes.

Each node does as little as it can. A child whose bound already reaches the
incumbent's objective is counted and dropped before it touches a row. The
test of the improving completion (every unfixed variable at its
objective-improving value) is kept as that completion's row activities
plus a per-row violation flag; fixing a variable to its improving value
leaves both unchanged, so only the other branch updates them. And since no
point beats the root bound (the sum of the negative objective
coefficients), an incumbent that meets it ends the search as OPTIMAL.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import compress, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Union

Coeff = Union[int, Fraction]

_LE, _EQ, _GE = 0, 1, 2
_REL_CODES = {"<=": _LE, "=": _EQ, ">=": _GE}
# Dead-row tests besides the three relations: a range row, and a row whose
# bounds a range row tests.
_RANGE, _COVERED = 3, 4


class MalformedProblem(ValueError):
    """Problem construction failed: bad row shape or variable index."""


class LengthMismatch(ValueError):
    """Assignment length does not match the problem's variable count."""


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    FEASIBLE_INCUMBENT = "feasible-incumbent"
    INFEASIBLE = "infeasible"
    TIMED_OUT = "timed-out"

    @property
    def has_assignment(self) -> bool:
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE_INCUMBENT)


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """Result of one solve call.

    ``assignment`` and ``objective_value`` are present exactly when the
    status carries a feasible point. ``limit`` says what cut the search
    short: ``"nodes"`` (the node cap), ``"clock"`` (the wall-clock budget),
    or None for a search that ran to completion.
    """

    status: SolveStatus
    assignment: tuple[int, ...] | None
    objective_value: Coeff | None
    nodes_explored: int
    limit: str | None


class BlpProblem:
    """A minimization over binary variables with linear constraint rows.

    ``objective`` is a dense sequence of length ``n_vars`` or a sparse
    mapping from variable index to coefficient. Each row is
    ``(coeffs, relation, rhs)`` with coeffs dense or sparse likewise and
    relation one of ``"<="``, ``"="``, ``">="``.
    """

    __slots__ = ("n_vars", "objective", "rows")

    def __init__(
        self,
        n_vars: int,
        objective: Sequence[Coeff] | Mapping[int, Coeff],
        rows: Iterable[tuple[Sequence[Coeff] | Mapping[int, Coeff], str, Coeff]],
    ) -> None:
        if n_vars < 0:
            raise MalformedProblem("n_vars must be non-negative")
        self.n_vars = n_vars
        self.objective = self._dense(objective, "objective")
        normalized = []
        for coeffs, relation, rhs in rows:
            if relation not in _REL_CODES:
                raise MalformedProblem(f"unknown relation {relation!r}")
            normalized.append((self._sparse(coeffs), relation, rhs))
        self.rows = tuple(normalized)

    def _dense(self, coeffs, what: str) -> tuple[Coeff, ...]:
        if isinstance(coeffs, Mapping):
            self._check_indices(coeffs)
            out = [0] * self.n_vars
            for j, c in coeffs.items():
                out[j] = c
            return tuple(out)
        dense = tuple(coeffs)
        if len(dense) != self.n_vars:
            raise MalformedProblem(
                f"{what} has {len(dense)} coefficients for {self.n_vars} variables"
            )
        return dense

    def _sparse(self, coeffs) -> tuple[tuple[int, Coeff], ...]:
        # A pair is kept exactly when its coefficient is nonzero.
        if isinstance(coeffs, Mapping):
            self._check_indices(coeffs)
            return tuple(sorted(compress(coeffs.items(), coeffs.values())))
        dense = tuple(coeffs)
        if len(dense) != self.n_vars:
            raise MalformedProblem(
                f"row has {len(dense)} coefficients for {self.n_vars} variables"
            )
        return tuple(compress(enumerate(dense), dense))

    def _check_indices(self, keys: Mapping) -> None:
        """Every key is an int in range; checked in bulk, then one by one
        only to name the first bad key."""
        if keys and all(map(isinstance, keys, repeat(int))):
            if 0 <= min(keys) and max(keys) < self.n_vars:
                return
        for j in keys:
            if not isinstance(j, int) or not 0 <= j < self.n_vars:
                raise MalformedProblem(f"variable index {j!r} out of range")

    def row_dense(self, i: int) -> tuple[Coeff, ...]:
        """Dense coefficient vector of row ``i`` (for inspection/tests)."""
        out = [0] * self.n_vars
        for j, c in self.rows[i][0]:
            out[j] = c
        return tuple(out)


def check_feasible(problem: BlpProblem, assignment: Sequence[int]) -> bool:
    """Exact satisfaction of every row by a full binary assignment."""
    if len(assignment) != problem.n_vars:
        raise LengthMismatch(
            f"assignment has {len(assignment)} values for {problem.n_vars} variables"
        )
    for coeffs, relation, rhs in problem.rows:
        lhs: Coeff = 0
        for j, c in coeffs:
            if assignment[j]:
                lhs += c
        if relation == "<=" and not lhs <= rhs:
            return False
        if relation == "=" and not lhs == rhs:
            return False
        if relation == ">=" and not lhs >= rhs:
            return False
    return True


def _rounded_rhs(coeffs: tuple[tuple[int, Coeff], ...], rel: int, rhs: Coeff) -> Coeff:
    """The right-hand side with its fraction dropped where integrality allows.

    A row whose coefficients are all integers has an integer left-hand side
    at every binary point, so a rational bound can be rounded inward.
    """
    if not isinstance(rhs, Fraction) or not all(
        isinstance(c, int) or c.denominator == 1 for _, c in coeffs
    ):
        return rhs
    if rel == _LE:
        return math.floor(rhs)
    if rel == _GE:
        return math.ceil(rhs)
    return rhs


def _is_cardinality(coeffs: tuple[tuple[int, Coeff], ...], rel: int, rhs: Coeff) -> bool:
    """An all-ones "=" row, or a binding all-ones "<=" row, with an integer bound."""
    return (
        isinstance(rhs, int)
        and bool(coeffs)
        and all(c == 1 for _, c in coeffs)
        and (rel == _EQ or (rel == _LE and rhs < len(coeffs)))
    )


def solve(
    problem: BlpProblem,
    budget: float,
    *,
    max_nodes: int | None = None,
) -> SolveOutcome:
    """Branch-and-bound minimization of ``problem``.

    ``budget`` is a wall-clock allowance in seconds; ``max_nodes`` is an
    optional deterministic cap on explored nodes (useful when reproducible
    truncation matters more than a precise time limit). Either limit expiring
    returns the best feasible assignment found so far as FEASIBLE_INCUMBENT,
    or TIMED_OUT when none exists, with ``limit`` naming the one that
    expired. FEASIBLE_INCUMBENT means "not proved optimal": an incumbent
    that meets the root bound is returned as OPTIMAL at once. With enough
    budget the result is OPTIMAL or INFEASIBLE and the search is fully
    deterministic.

    Branching picks the unfixed variable with the largest absolute objective
    coefficient (ties to the lowest index). A variable with a positive
    objective coefficient tries 0 first and every other variable tries 1
    first, so costly items stay out until a row pulls them in.

    At every node the solver also tests the completion that sets all
    remaining variables to their objective-improving values; when it
    satisfies every row it equals the node's lower bound, so it is recorded
    as the subtree's optimum and the subtree is pruned. A child is counted
    as a node before its bound is tested, so node counts, and where the
    node cap lands, do not depend on how much of the node was applied.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if max_nodes is not None and max_nodes <= 0:
        raise ValueError("max_nodes must be positive")

    deadline = time.monotonic() + budget
    n = problem.n_vars
    objective = problem.objective
    rows = problem.rows
    n_rows = len(rows)

    rels = [_REL_CODES[rel] for _, rel, _ in rows]
    rhss = [_rounded_rhs(coeffs, code, rhs) for (coeffs, _, rhs), code in zip(rows, rels)]
    # Stable, so ties keep the lowest index first.
    order = sorted(range(n), key=[-abs(c) for c in objective].__getitem__)
    rank = [0] * n
    for position, j in enumerate(order):
        rank[j] = position

    # Cardinality blocks: a disjoint set of all-ones "=" / "<=" rows with an
    # integer right-hand side, largest support first. ``block_of[j]`` is the
    # index of the row whose block holds variable j, or -1.
    block_of = [-1] * n
    cardinality = sorted(
        (i for i in range(n_rows) if _is_cardinality(rows[i][0], rels[i], rhss[i])),
        key=lambda i: (-len(rows[i][0]), i),
    )
    for i in cardinality:
        if all(block_of[j] < 0 for j, _ in rows[i][0]):
            for j, _ in rows[i][0]:
                block_of[j] = i

    acts: list[Coeff] = [0] * n_rows
    # Attainable min/max contribution of the unfixed variables of each
    # row's free part, the variables outside every block the row meets.
    neg_rems: list[Coeff] = [0] * n_rows
    pos_rems: list[Coeff] = [0] * n_rows
    # Row activity of the node's improving completion: every unfixed
    # variable at its objective-improving value. Fixing a variable to that
    # value leaves it unchanged.
    imp_acts: list[Coeff] = [0] * n_rows
    imp_value = [1 if objective[j] < 0 else 0 for j in range(n)]
    # ``(row, coeff, in the row's free part)`` for each variable.
    cols: list[list[tuple[int, Coeff, bool]]] = [[] for _ in range(n)]
    # The covered parts of each row, one per block it meets, as
    # ``(block row, top side, bottom side, keys)``. A side is ``[entries,
    # marks, stamp, sum]``: entries are ``(rank, coeff)`` pairs, best first,
    # and a variable is fixed at depth d exactly when its rank is at most d.
    parts: list[list[tuple[int, list, list, list | None]]] = [[] for _ in range(n_rows)]
    # Bumped whenever a variable of the block is fixed or freed (the spare
    # last slot for a variable in no block): a side's sum, which depends
    # only on its block, holds while its stamp equals the block's count.
    changes = [0] * (n_rows + 1)
    # A ">=" row and a "<=" row next to each other with the same
    # coefficients, the "<=" row not a block, are kept as one range row: the
    # ">=" row holds both bounds, ``rhss`` below and ``uppers`` above, and
    # the search never looks at the "<=" row.
    tests = rels.copy()
    uppers = rhss.copy()
    for i in range(n_rows - 1):
        ge, le = (i, i + 1) if rels[i] == _GE else (i + 1, i)
        if (
            (rels[ge], rels[le], tests[i]) == (_GE, _LE, rels[i])
            and rows[i][0] == rows[i + 1][0]
            and le not in block_of
        ):
            tests[ge], tests[le] = _RANGE, _COVERED
            uppers[ge] = rhss[le]
    for i, (coeffs, _, _) in enumerate(rows):
        if tests[i] == _COVERED:
            continue
        covered: dict[int, list[tuple[int, Coeff]]] = {}
        for j, c in coeffs:
            b = block_of[j]
            free = b < 0 or b == i
            cols[j].append((i, c, free))
            if imp_value[j]:
                imp_acts[i] += c
            if free:
                if c < 0:
                    neg_rems[i] += c
                else:
                    pos_rems[i] += c
            elif b in covered:
                covered[b].append((rank[j], c))
            else:
                covered[b] = [(rank[j], c)]
        for b, entries in covered.items():
            # Exactly the block's remaining count of ones lands in a part
            # spanning a whole "=" block; otherwise at most that many do, so
            # only coefficients that move the bound outward count.
            exact = rels[b] == _EQ and len(entries) == len(rows[b][0])
            top = entries if exact else [e for e in entries if e[1] > 0]
            top = sorted(top, key=itemgetter(1), reverse=True)
            bottom = entries if exact else [e for e in entries if e[1] < 0]
            parts[i].append(
                (
                    b,
                    [top, [], -1, 0],
                    [sorted(bottom, key=itemgetter(1)), [], -1, 0],
                    # Negated top coefficients, ascending, for the one-left
                    # test of a range row; only a part spanning an "=" block.
                    [-c for _, c in top] if exact and tests[i] == _RANGE else None,
                )
            )

    def extreme(entries: list, marks: list, count: Coeff, depth: int) -> Coeff:
        """Sum of the first ``count`` entries unfixed at ``depth``.

        ``marks`` holds ``(d, k)`` pairs, depths increasing: every entry
        before position k is fixed at depth d, hence at every deeper node.
        Marks deeper than ``depth`` belong to a finished subtree and go.
        """
        if count <= 0:
            return 0
        while marks and marks[-1][0] > depth:
            marks.pop()
        k = marks[-1][1] if marks else 0
        end = len(entries)
        if k < end and entries[k][0] <= depth:
            k += 1
            while k < end and entries[k][0] <= depth:
                k += 1
            marks.append((depth, k))
        total: Coeff = 0
        while count > 0 and k < end:
            at, c = entries[k]
            if at > depth:
                total += c
                count -= 1
            k += 1
        return total

    def row_dead(i: int, depth: int) -> bool:
        test = tests[i]
        if test != _GE:
            lo = acts[i] + neg_rems[i]
            for b, _, bottom, _ in parts[i]:
                if bottom[2] != changes[b]:
                    bottom[2] = changes[b]
                    bottom[3] = extreme(bottom[0], bottom[1], rhss[b] - acts[b], depth)
                lo += bottom[3]
            if lo > uppers[i]:
                return True
        if test != _LE:
            hi = acts[i] + pos_rems[i]
            for b, top, _, _ in parts[i]:
                if top[2] != changes[b]:
                    top[2] = changes[b]
                    top[3] = extreme(top[0], top[1], rhss[b] - acts[b], depth)
                hi += top[3]
            if hi < rhss[i]:
                return True
        if test != _RANGE:
            return False
        for b, top, bottom, keys in parts[i]:
            if keys is None or rhss[b] - acts[b] != 1:
                continue
            # Exactly one more variable of the part is 1, and the rest of the
            # row lies in [lo - bottom, hi - top], so its coefficient lies in
            # [c_low, c_high]. Here top >= c_low and bottom <= c_high.
            c_low = rhss[i] - hi + top[3]
            c_high = uppers[i] - lo + bottom[3]
            if top[3] <= c_high or bottom[3] >= c_low:
                continue
            entries = top[0]
            k = bisect_left(keys, -c_high)
            while k < len(entries) and entries[k][0] <= depth:
                k += 1
            if k == len(entries) or entries[k][1] < c_low:
                return True
        return False

    def imp_bad(i: int) -> bool:
        lhs = imp_acts[i]
        test = tests[i]
        if test == _LE:
            return lhs > uppers[i]
        if test == _GE:
            return lhs < rhss[i]
        return test != _COVERED and not rhss[i] <= lhs <= uppers[i]

    def finish(status: SolveStatus, nodes: int, limit: str | None = None) -> SolveOutcome:
        if status.has_assignment:
            assert best_assignment is not None
            if not check_feasible(problem, best_assignment):
                raise RuntimeError("solver produced an infeasible assignment")
            return SolveOutcome(status, best_assignment, best_obj, nodes, limit)
        return SolveOutcome(status, None, None, nodes, limit)

    def stopped(limit: str, nodes: int) -> SolveOutcome:
        if best_assignment is None:
            return finish(SolveStatus.TIMED_OUT, nodes, limit)
        return finish(SolveStatus.FEASIBLE_INCUMBENT, nodes, limit)

    best_assignment: tuple[int, ...] | None = None
    best_obj: Coeff | None = None

    # Rows can be dead before any branching (constant rows, empty problems).
    if any(row_dead(i, -1) for i in range(n_rows) if tests[i] != _COVERED):
        return finish(SolveStatus.INFEASIBLE, 0)
    if n == 0:
        best_assignment, best_obj = (), 0
        return finish(SolveStatus.OPTIMAL, 0)

    # Lower bound contribution of each unfixed variable is min(0, c), so
    # fixing one against its improving value raises the bound by |c|.
    root_bound: Coeff = sum(c for c in objective if c < 0)
    bound = root_bound
    bad = [imp_bad(i) for i in range(n_rows)]
    bad_count = sum(bad)
    if bad_count == 0:
        best_assignment = tuple(imp_value)
        best_obj = bound
        return finish(SolveStatus.OPTIMAL, 0)

    fixed = [0] * n
    stack: list[tuple[int, int, bool]] = []

    def push(depth: int) -> None:
        # Popped last in, first out: a variable with a positive objective
        # coefficient tries 0 first, every other variable tries 1 first.
        if objective[order[depth]] > 0:
            stack.extend(((depth, 1, False), (depth, 0, False)))
        else:
            stack.extend(((depth, 0, False), (depth, 1, False)))

    push(0)

    nodes = 0
    while stack:
        depth, value, is_undo = stack.pop()
        j = order[depth]
        flip = value != imp_value[j]
        if is_undo:
            if flip:
                bound -= abs(objective[j])
            changes[block_of[j]] += 1
            for i, a, free in cols[j]:
                if value:
                    acts[i] -= a
                if free:
                    if a < 0:
                        neg_rems[i] += a
                    else:
                        pos_rems[i] += a
                if flip:
                    imp_acts[i] -= a if value else -a
                    if imp_bad(i) != bad[i]:
                        bad[i] = not bad[i]
                        bad_count += 1 if bad[i] else -1
            continue

        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            return stopped("nodes", nodes - 1)
        if time.monotonic() > deadline:
            return stopped("clock", nodes - 1)

        # A child that cannot beat the incumbent is counted but never applied.
        child_bound = bound + abs(objective[j]) if flip else bound
        if best_obj is not None and child_bound >= best_obj:
            continue
        bound = child_bound
        fixed[j] = value
        changes[block_of[j]] += 1
        for i, a, free in cols[j]:
            if value:
                acts[i] += a
            if free:
                if a < 0:
                    neg_rems[i] -= a
                else:
                    pos_rems[i] -= a
            if flip:
                imp_acts[i] += a if value else -a
                if imp_bad(i) != bad[i]:
                    bad[i] = not bad[i]
                    bad_count += 1 if bad[i] else -1
        stack.append((depth, value, True))

        dead = False
        for i, _, _ in cols[j]:
            if row_dead(i, depth):
                dead = True
                break
        if dead:
            continue

        if bad_count == 0:
            # The improving completion of this node is feasible and matches
            # the node's lower bound: it is the optimum of the subtree.
            assignment = fixed[:]
            for later in range(depth + 1, n):
                assignment[order[later]] = imp_value[order[later]]
            best_assignment = tuple(assignment)
            best_obj = bound
            if bound == root_bound:
                # No point beats the root bound: the search is over.
                return finish(SolveStatus.OPTIMAL, nodes)
            continue

        if depth + 1 == n:
            continue

        push(depth + 1)

    return finish(
        SolveStatus.OPTIMAL if best_assignment is not None else SolveStatus.INFEASIBLE,
        nodes,
    )
