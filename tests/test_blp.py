"""Tests for the branch-and-bound binary program solver."""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinlever.blp import (
    BlpProblem,
    LengthMismatch,
    MalformedProblem,
    SolveStatus,
    check_feasible,
    solve,
)

from oracles import enumerate_blp, row_holds

GENEROUS = 60.0


def mixed_coefficient(rng: random.Random) -> int:
    return rng.randint(-20, 20)


def signed_coefficient(rng: random.Random) -> int:
    """Mostly negative (improving value 1), often zero (tried at 1 first,
    against an improving value of 0): both flip the improving completion."""
    return rng.choice([rng.randint(-20, -1), rng.randint(-20, -1), 0, rng.randint(1, 20)])


def random_problem(
    rng: random.Random, max_vars: int = 14, max_rows: int = 8, coefficient=mixed_coefficient
):
    n = rng.randint(1, max_vars)
    n_rows = rng.randint(0, max_rows)
    objective = [coefficient(rng) for _ in range(n)]
    rows = []
    for _ in range(n_rows):
        coeffs = [rng.randint(-15, 15) for _ in range(n)]
        rel = rng.choice(["<=", ">=", "="])
        # Bias the rhs toward attainable sums so both outcomes occur.
        rhs = rng.randint(min(0, sum(c for c in coeffs if c < 0)), max(0, sum(c for c in coeffs if c > 0)))
        rows.append((coeffs, rel, rhs))
    return BlpProblem(n, objective, rows), objective, rows


def cardinality_problem(rng: random.Random, max_vars: int = 12, coefficient=mixed_coefficient):
    """Programs whose pruning leans on cardinality rows.

    All-ones "=" / "<=" rows over random, partial and overlapping supports,
    beside sparse mixed-sign rows; inequality rows get rational right-hand
    sides half the time, though every coefficient is an integer.
    """
    n = rng.randint(1, max_vars)
    objective = [coefficient(rng) for _ in range(n)]
    rows = []
    for _ in range(rng.randint(1, 3)):
        support = set(rng.sample(range(n), rng.randint(1, n)))
        coeffs = [1 if j in support else 0 for j in range(n)]
        rows.append((coeffs, rng.choice(["=", "<="]), rng.randint(0, len(support) + 1)))
    for _ in range(rng.randint(0, 4)):
        coeffs = [rng.randint(-15, 15) if rng.random() < 0.6 else 0 for _ in range(n)]
        rel = rng.choice(["<=", ">=", "="])
        lo = sum(c for c in coeffs if c < 0)
        hi = sum(c for c in coeffs if c > 0)
        if rel != "=" and rng.random() < 0.5:
            rhs = Fraction(rng.randint(3 * lo - 1, 3 * hi + 1), 3)
        else:
            rhs = rng.randint(lo, hi)
        rows.append((coeffs, rel, rhs))
    rng.shuffle(rows)
    return BlpProblem(n, objective, rows), objective, rows


def range_problem(rng: random.Random, max_vars: int = 12, coefficient=mixed_coefficient):
    """Programs with range rows over "=" blocks that are often one one short.

    One or two disjoint all-ones "=" rows with right-hand side 1 or 2 split
    off blocks. Each range is a ">=" row and a "<=" row with the same
    coefficients, next to each other in either order; it usually puts a
    nonzero coefficient on every variable of a block, so that its part
    spans the block, and sparse mixed ones elsewhere. Its window is narrow,
    sometimes empty, and has a rational end now and then.
    """
    n = rng.randint(2, max_vars)
    objective = [coefficient(rng) for _ in range(n)]
    free = list(range(n))
    rng.shuffle(free)
    units, blocks = [], []
    for _ in range(rng.randint(1, 2)):
        if len(free) < 2:
            break
        size = rng.randint(2, min(len(free), 6))
        block, free = set(free[:size]), free[size:]
        blocks.append(block)
        units.append([([int(j in block) for j in range(n)], "=", rng.randint(1, 2))])
    for _ in range(rng.randint(1, 3)):
        coeffs = [rng.randint(-15, 15) if rng.random() < 0.5 else 0 for _ in range(n)]
        for block in blocks:
            if rng.random() < 0.8:
                for j in block:
                    coeffs[j] = rng.choice([-1, 1]) * rng.randint(1, 20)
        lo = rng.randint(sum(c for c in coeffs if c < 0), sum(c for c in coeffs if c > 0))
        hi = lo + rng.randint(-1, 6)
        if rng.random() < 0.25:
            lo = Fraction(3 * lo - rng.randint(0, 2), 3)
        pair = [(coeffs, ">=", lo), (coeffs, "<=", hi)]
        rng.shuffle(pair)
        units.append(pair)
    rng.shuffle(units)
    rows = [row for unit in units for row in unit]
    return BlpProblem(n, objective, rows), objective, rows


class TestProblemConstruction:
    def test_row_length_mismatch(self):
        with pytest.raises(MalformedProblem):
            BlpProblem(3, [1, 1, 1], [([1, 2], "<=", 1)])

    def test_objective_length_mismatch(self):
        with pytest.raises(MalformedProblem):
            BlpProblem(2, [1], [])

    def test_sparse_index_out_of_range(self):
        with pytest.raises(MalformedProblem):
            BlpProblem(2, {0: 1}, [({5: 1}, "<=", 1)])

    @pytest.mark.parametrize("bad", [1_000, 5_000, -1, "7", 2.5])
    def test_bad_key_in_a_large_mapping(self, bad):
        coeffs = {j: 1 for j in range(1_000)}
        coeffs[bad] = 1
        with pytest.raises(MalformedProblem, match=re.escape(repr(bad))):
            BlpProblem(1_000, {}, [(coeffs, "<=", 1)])
        with pytest.raises(MalformedProblem, match=re.escape(repr(bad))):
            BlpProblem(1_000, coeffs, [])

    def test_unknown_relation(self):
        with pytest.raises(MalformedProblem):
            BlpProblem(1, [1], [([1], "<", 1)])

    def test_sparse_and_dense_rows_agree(self):
        a = BlpProblem(3, {1: 5}, [({0: 2, 2: -1}, "<=", 4)])
        b = BlpProblem(3, [0, 5, 0], [([2, 0, -1], "<=", 4)])
        assert a.objective == b.objective
        assert a.row_dense(0) == b.row_dense(0)


class TestCheckFeasible:
    def test_vacuous(self):
        problem = BlpProblem(2, [0, 0], [])
        assert check_feasible(problem, (0, 1))

    def test_equality_violated(self):
        problem = BlpProblem(2, [0, 0], [([1, 1], "=", 1)])
        assert not check_feasible(problem, (1, 1))

    def test_length_mismatch(self):
        problem = BlpProblem(2, [0, 0], [])
        with pytest.raises(LengthMismatch):
            check_feasible(problem, (1,))

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_oracle(self, seed):
        rng = random.Random(seed)
        problem, _, rows = random_problem(rng, max_vars=8, max_rows=5)
        assignment = tuple(rng.randint(0, 1) for _ in range(problem.n_vars))
        expected = all(row_holds(c, rel, rhs, assignment) for c, rel, rhs in rows)
        assert check_feasible(problem, assignment) == expected


class TestSolveBasics:
    def test_forced_variable(self):
        outcome = solve(BlpProblem(1, [1], [([1], ">=", 1)]), GENEROUS)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.assignment == (1,)
        assert outcome.objective_value == 1

    def test_contradictory_rows(self):
        problem = BlpProblem(1, [1], [([1], "<=", 0), ([1], ">=", 1)])
        assert solve(problem, GENEROUS).status is SolveStatus.INFEASIBLE

    def test_empty_problem(self):
        outcome = solve(BlpProblem(0, [], []), GENEROUS)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.assignment == ()
        assert outcome.objective_value == 0

    def test_constant_infeasible_row(self):
        problem = BlpProblem(0, [], [([], ">=", 1)])
        assert solve(problem, GENEROUS).status is SolveStatus.INFEASIBLE

    def test_fraction_rhs(self):
        problem = BlpProblem(1, [1], [([1], ">=", Fraction(1, 2))])
        outcome = solve(problem, GENEROUS)
        assert outcome.assignment == (1,)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            solve(BlpProblem(1, [1], []), 0)
        with pytest.raises(ValueError):
            solve(BlpProblem(1, [1], []), 1.0, max_nodes=0)


class TestSolveAgainstEnumeration:
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        cardinality=st.booleans(),
        coefficient=st.sampled_from([mixed_coefficient, signed_coefficient]),
    )
    @settings(max_examples=800, deadline=None)
    def test_objective_matches_exhaustive_minimum(self, seed, cardinality, coefficient):
        rng = random.Random(seed)
        generate = cardinality_problem if cardinality else random_problem
        _, objective, rows = generate(rng, coefficient=coefficient)
        problem = BlpProblem(len(objective), objective, rows)
        expected = enumerate_blp(problem.n_vars, objective, rows)
        outcome = solve(problem, GENEROUS)
        assert outcome.limit is None
        if expected is None:
            assert outcome.status is SolveStatus.INFEASIBLE
        else:
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective_value == expected[0]
            assert check_feasible(problem, outcome.assignment)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        coefficient=st.sampled_from([mixed_coefficient, signed_coefficient]),
    )
    @settings(max_examples=600, deadline=None)
    def test_range_rows_over_one_left_blocks(self, seed, coefficient):
        rng = random.Random(seed)
        problem, objective, rows = range_problem(rng, coefficient=coefficient)
        expected = enumerate_blp(problem.n_vars, objective, rows)
        outcome = solve(problem, GENEROUS)
        assert outcome.limit is None
        if expected is None:
            assert outcome.status is SolveStatus.INFEASIBLE
        else:
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective_value == expected[0]
            assert check_feasible(problem, outcome.assignment)

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_knapsack_instances(self, seed):
        rng = random.Random(seed)
        n = 12
        values = [rng.randint(1, 1_000_000) for _ in range(n)]
        k = rng.randint(1, 4)
        target = sum(rng.sample(values, k)) + rng.randint(-5000, 5000)
        window = rng.randint(0, 40_000)
        rows = [
            ([1] * n, "=", k),
            (values, ">=", target),
            (values, "<=", target + window),
        ]
        problem = BlpProblem(n, values, rows)
        expected = enumerate_blp(n, values, rows)
        outcome = solve(problem, GENEROUS)
        if expected is None:
            assert outcome.status is SolveStatus.INFEASIBLE
        else:
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.objective_value == expected[0]


class TestSolveContracts:
    def test_node_counts_are_pinned(self):
        # Reports carry every call's node count. A change in how the row
        # bounds are kept (cursors, cached block-part sums) that is not
        # exact moves some count here, even where the optimum stays. Update
        # the literal only with a change meant to alter the search.
        total = 0
        for seed in range(400):
            rng = random.Random(seed)
            coefficient = signed_coefficient if seed % 2 else mixed_coefficient
            _, objective, rows = cardinality_problem(rng, coefficient=coefficient)
            total += solve(BlpProblem(len(objective), objective, rows), GENEROUS).nodes_explored
        assert total == 5070

    def test_range_rows_cut_only_empty_subtrees(self):
        # The one-left test of a range row cuts only subtrees without a
        # feasible point, so over 400 range programs the search returns the
        # same points as a search that tests each row on its own (digest and
        # node total from such a search), in no more nodes.
        digest = hashlib.sha256()
        total = 0
        for seed in range(400):
            rng = random.Random(seed)
            coefficient = signed_coefficient if seed % 2 else mixed_coefficient
            problem, _, _ = range_problem(rng, coefficient=coefficient)
            outcome = solve(problem, GENEROUS)
            digest.update(repr((outcome.status.value, outcome.assignment)).encode())
            total += outcome.nodes_explored
        assert digest.hexdigest() == (
            "fa0ee5dab675b0ecccf31aa16997c4806e21a9943904ab76a4b36dac00924fb7"
        )
        assert total <= 5820  # 5,030 with the one-left test

    @pytest.mark.parametrize("order", [(">=", "<="), ("<=", ">=")])
    def test_one_left_range_row_dead_at_the_root(self, order):
        # Exactly one of x0..x2 is 1, and no coefficient 1, 5 or 9 lies in
        # [3, 4], though the row's attainable range [1, 9] meets it.
        rhs = {">=": 3, "<=": 4}
        rows = [([1, 1, 1], "=", 1)] + [([1, 5, 9], rel, rhs[rel]) for rel in order]
        outcome = solve(BlpProblem(3, [0, 0, 0], rows), GENEROUS)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.nodes_explored == 0
        # Apart, the two rows leave the search to find that out.
        rows.insert(2, ([0, 0, 0], "<=", 0))
        outcome = solve(BlpProblem(3, [0, 0, 0], rows), GENEROUS)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.nodes_explored > 0

    @given(seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_soundness_and_determinism(self, seed):
        rng = random.Random(seed)
        problem, _, _ = random_problem(rng, max_vars=10, max_rows=6)
        first = solve(problem, GENEROUS)
        second = solve(problem, GENEROUS)
        assert first.status == second.status
        assert first.assignment == second.assignment
        assert first.objective_value == second.objective_value
        if first.status.has_assignment:
            assert check_feasible(problem, first.assignment)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        small=st.integers(min_value=1, max_value=200),
        extra=st.integers(min_value=0, max_value=2000),
        cardinality=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_node_budget(self, seed, small, extra, cardinality):
        rng = random.Random(seed)
        if cardinality:
            problem, _, _ = cardinality_problem(rng)
        else:
            problem, _, _ = random_problem(rng, max_vars=12, max_rows=5)
        short = solve(problem, GENEROUS, max_nodes=small)
        long = solve(problem, GENEROUS, max_nodes=small + extra)
        if short.status.has_assignment:
            assert long.status.has_assignment
            assert long.objective_value <= short.objective_value

    def test_truncation_statuses(self):
        # A wide equality forces deep search; one node cannot finish it.
        n = 16
        values = list(range(3, 3 + n))
        problem = BlpProblem(n, values, [(values, "=", 1)])
        out = solve(problem, GENEROUS, max_nodes=1)
        assert out.status in (SolveStatus.TIMED_OUT, SolveStatus.FEASIBLE_INCUMBENT)
        full = solve(problem, GENEROUS)
        assert full.status is SolveStatus.INFEASIBLE

    def test_incumbent_returned_on_node_cap(self):
        n = 14
        values = [2**i for i in range(n)]
        rows = [(values, ">=", 1)]
        out = solve(BlpProblem(n, values, rows), GENEROUS, max_nodes=n + 2)
        assert out.status in (SolveStatus.FEASIBLE_INCUMBENT, SolveStatus.OPTIMAL)
        assert check_feasible(BlpProblem(n, values, rows), out.assignment)

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        cap=st.integers(min_value=1, max_value=300),
        cardinality=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_capped_incumbent_is_not_at_the_root_bound(self, seed, cap, cardinality):
        # An incumbent that meets the root bound is proved optimal, so a
        # search the cap cut short holds a strictly worse one.
        rng = random.Random(seed)
        generate = cardinality_problem if cardinality else random_problem
        problem, objective, _ = generate(rng, coefficient=signed_coefficient)
        outcome = solve(problem, GENEROUS, max_nodes=cap)
        if outcome.status is SolveStatus.FEASIBLE_INCUMBENT:
            assert outcome.objective_value > sum(c for c in objective if c < 0)
        assert (outcome.limit == "nodes") == (
            outcome.status in (SolveStatus.FEASIBLE_INCUMBENT, SolveStatus.TIMED_OUT)
        )


class TestRootBoundStop:
    # Branching order is x0..x4 (by |c|), then the zero-cost x5, x6, x7.
    # The improving completion sets x0..x4 to 1 and x5..x7 to 0, which
    # breaks the last row. Zero-cost variables try 1 first, so the dive
    # meets a completion at the root bound -15 once x5 and x6 are set, at
    # depth 6.
    PROBLEM = BlpProblem(
        8,
        [-5, -4, -3, -2, -1, 0, 0, 0],
        [([1, 1, 1, 1, 1, 0, 0, 0], "<=", 5), ([0, 0, 0, 0, 0, 1, 1, 1], "=", 2)],
    )
    DEPTH = 6

    def test_incumbent_at_root_bound_ends_the_search(self):
        outcome = solve(self.PROBLEM, GENEROUS)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective_value == -15
        assert outcome.assignment == (1, 1, 1, 1, 1, 1, 1, 0)
        assert outcome.nodes_explored == self.DEPTH + 1
        assert outcome.limit is None

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_cap_just_after_the_incumbent_keeps_optimal(self, extra):
        outcome = solve(self.PROBLEM, GENEROUS, max_nodes=self.DEPTH + 1 + extra)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.nodes_explored == self.DEPTH + 1
        assert outcome.limit is None

    def test_cap_before_the_incumbent_is_a_node_stop(self):
        outcome = solve(self.PROBLEM, GENEROUS, max_nodes=self.DEPTH)
        assert outcome.status is SolveStatus.TIMED_OUT
        assert outcome.limit == "nodes"


class TestStopReason:
    DEEP = BlpProblem(16, list(range(3, 19)), [(list(range(3, 19)), "=", 1)])

    def test_tiny_budget_is_a_clock_stop(self):
        outcome = solve(self.DEEP, 1e-9)
        assert outcome.status is SolveStatus.TIMED_OUT
        assert outcome.limit == "clock"

    def test_one_node_cap_is_a_node_stop(self):
        outcome = solve(self.DEEP, GENEROUS, max_nodes=1)
        assert outcome.status is SolveStatus.TIMED_OUT
        assert outcome.nodes_explored == 1
        assert outcome.limit == "nodes"

    def test_completed_search_has_no_limit(self):
        outcome = solve(self.DEEP, GENEROUS)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.limit is None
