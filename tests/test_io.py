"""Tests for CSV contracts, JSON reports, and the summary tables built from them."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinlever.datasets import synthetic_payment_dataset, synthetic_utxo_dataset
from coinlever.io import (
    DuplicateId,
    DuplicateRank,
    NonPositiveValue,
    ParseError,
    SUMMARY_COLUMNS,
    cell_dict,
    emit_report,
    fixed_str,
    fraction_str,
    load_payments,
    load_utxos,
    summary_csv,
    summary_markdown,
    write_payments,
    write_utxos,
)
from coinlever.model import PaymentRequest, Utxo
from coinlever.selection import Method
from coinlever.simulation import ScenarioConfig, run_cell

DESK = dict(
    utxo_pool_size=100,
    payment_pool_size=24,
    iterations_per_sample=2,
    repetitions=2,
    budget_ms=30_000,
    node_budget=6_000,
)


def desk_cell():
    return run_cell(ScenarioConfig(gamma=200, batch_size=2, rng_seed=5, **DESK))


class TestCsvLoaders:
    def test_utxo_round_trip(self, tmp_path):
        dataset = synthetic_utxo_dataset(25, 3)
        path = tmp_path / "utxos.csv"
        write_utxos(path, dataset)
        assert load_utxos(path) == dataset

    def test_payment_round_trip(self, tmp_path):
        dataset = synthetic_payment_dataset(25, 3)
        path = tmp_path / "payments.csv"
        write_payments(path, dataset)
        assert load_payments(path) == dataset

    def test_singleton(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,value_sat\nabc,1234\n")
        assert load_utxos(path) == (load_utxos(path)[0],)
        assert load_utxos(path)[0].value == 1234

    def test_missing_header(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("abc,1234\n")
        with pytest.raises(ParseError):
            load_utxos(path)

    def test_zero_value_rejected(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,value_sat\nabc,0\n")
        with pytest.raises(NonPositiveValue):
            load_utxos(path)

    def test_bad_integer_carries_line(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,value_sat\na,10\nb,x\n")
        with pytest.raises(ParseError) as exc:
            load_utxos(path)
        assert exc.value.line == 3

    def test_duplicate_utxo_id(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,value_sat\na,10\na,11\n")
        with pytest.raises(DuplicateId):
            load_utxos(path)

    def test_payments_rank_defaults_to_row_order(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,value_sat\na,10\nb,11\nc,12\n")
        assert [p.urgency_rank for p in load_payments(path)] == [0, 1, 2]

    def test_payments_explicit_ranks(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,value_sat,urgency_rank\na,10,5\nb,11,2\n")
        assert [p.urgency_rank for p in load_payments(path)] == [5, 2]

    def test_duplicate_rank(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,value_sat,urgency_rank\na,10,1\nb,11,1\n")
        with pytest.raises(DuplicateRank):
            load_payments(path)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("id,value_sat\na,10,extra\n")
        with pytest.raises(ParseError):
            load_utxos(path)

    @pytest.mark.parametrize("uid", ["change:1", "lev-change:7", "change:"])
    def test_generated_change_ids_rejected(self, tmp_path, uid):
        path = tmp_path / "u.csv"
        path.write_text(f"id,value_sat\na,10\n{uid},11\n")
        with pytest.raises(ParseError) as exc:
            load_utxos(path)
        assert exc.value.line == 3
        # Payment ids live in their own namespace.
        assert load_payments(path)[1].id == uid


# Ids with the characters CSV must quote, and the empty id.
IDS = st.text(alphabet=',"\n\rab ', max_size=4)
VALUES = st.integers(min_value=1, max_value=10**15)


class TestCsvRoundTrips:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(IDS, VALUES), max_size=6, unique_by=lambda r: r[0]))
    def test_utxos(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "u.csv"
        utxos = tuple(Utxo(uid, value) for uid, value in rows)
        write_utxos(path, utxos)
        assert load_utxos(path) == utxos

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(IDS, VALUES, st.integers(-1000, 1000)),
            max_size=6,
            unique_by=(lambda r: r[0], lambda r: r[2]),
        )
    )
    def test_payments(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        payments = tuple(PaymentRequest(*row) for row in rows)
        write_payments(path, payments)
        assert load_payments(path) == payments


class TestFormatting:
    def test_fraction_str_integer(self):
        assert fraction_str(Fraction(7)) == "7"

    def test_fraction_str_decimal(self):
        assert fraction_str(Fraction("0.54")) == "0.54"
        assert fraction_str(Fraction("-1.25")) == "-1.25"

    def test_fraction_str_nonterminating(self):
        assert fraction_str(Fraction(1, 3)) == "1/3"
        assert Fraction(fraction_str(Fraction(22, 7))) == Fraction(22, 7)

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(-(10**12), 10**12),
        st.integers(0, 15),
        st.integers(0, 15),
        st.sampled_from([1, 1, 3, 7, 9, 12_347]),
    )
    def test_fraction_str_is_exact(self, num, twos, fives, other):
        value = Fraction(num, 2**twos * 5**fives * other)
        text = fraction_str(value)
        assert Fraction(text) == value
        den = value.denominator
        # A denominator with no prime factor but 2 and 5 divides a power of
        # ten no larger than 10 ** its bit length.
        if 10 ** den.bit_length() % den:
            assert text == f"{value.numerator}/{den}"
        elif den == 1:
            assert text == str(value.numerator)
        else:
            assert "/" not in text and not text.endswith("0")

    def test_fixed_str(self):
        assert fixed_str(Fraction("0.2448901"), 6) == "0.244890"
        assert fixed_str(Fraction(1, 3), 4) == "0.3333"
        assert fixed_str(Fraction(-1, 3), 4) == "-0.3333"
        assert fixed_str(Fraction(5), 2) == "5.00"


class TestJsonRoundTrip:
    def test_summary_from_saved_json_matches_emitted(self, tmp_path):
        cell = desk_cell()
        assert cell.savings is not None
        emit_report([cell], "json", tmp_path / "report.json")
        saved = json.loads((tmp_path / "report.json").read_text())["cells"]
        for fmt, summarize in (("md", summary_markdown), ("csv", summary_csv)):
            emit_report([cell], fmt, tmp_path / f"summary.{fmt}")
            assert summarize(saved) == (tmp_path / f"summary.{fmt}").read_text()
        # The rows read from JSON agree with the in-memory report's exact values.
        lev_row = summary_csv(saved).splitlines()[2].split(",")
        report = cell.leverage
        assert lev_row[2:] == [
            fixed_str(cell.config.effective_beta, 2),
            "leverage",
            *(fixed_str(report.rate(m), 4) for m in Method),
            str(report.totals["payments_processed"]),
            fixed_str(report.cost_per_payment_usd, 6),
            fixed_str(cell.savings.percent_per_payment, 6),
            fixed_str(cell.savings.usd_per_payment, 6),
        ]

    def test_json_money_fields_never_floats(self, tmp_path):
        cell = desk_cell()
        path = tmp_path / "report.json"
        emit_report([cell], "json", path)
        payload = json.loads(path.read_text())

        def walk(node):
            if isinstance(node, float):
                raise AssertionError(f"float leaked into JSON: {node}")
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            if isinstance(node, list):
                for v in node:
                    walk(v)

        walk(payload)


class TestSummaries:
    def test_empty_report_headers_only(self):
        assert summary_csv([]) == ",".join(SUMMARY_COLUMNS) + "\n"

    def test_one_cell_two_rows(self):
        cell = cell_dict(desk_cell())
        lines = summary_csv([cell]).strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        assert len(lines) == 3
        no_lev, lev = lines[1].split(","), lines[2].split(",")
        assert no_lev[3] == "no-leverage" and lev[3] == "leverage"
        assert no_lev[0] == "200" and no_lev[1] == "2"
        # Savings columns only on the leverage row.
        assert no_lev[9] == "" and no_lev[10] == ""

    def test_csv_shape_is_pinned(self):
        cell = cell_dict(desk_cell())
        for line in summary_csv([cell]).strip().splitlines()[1:]:
            assert len(line.split(",")) == len(SUMMARY_COLUMNS)

    def test_markdown_has_three_tables(self):
        text = summary_markdown([cell_dict(desk_cell())])
        assert "### Results without leverage" in text
        assert "### Results with leverage" in text
        assert "### Savings per payment request" in text
        assert text.count("| gamma |") == 3

    def test_determinism_flag_stays_out_of_the_summaries(self, slow_clock):
        config = ScenarioConfig(gamma=200, batch_size=2, rng_seed=5, **{**DESK, "budget_ms": 1})
        cell = cell_dict(run_cell(config))
        assert cell["leverage"]["deterministic"] is False
        bare = json.loads(json.dumps(cell))
        for mode in ("no_leverage", "leverage"):
            del bare[mode]["deterministic"]
        assert summary_csv([cell]) == summary_csv([bare])
        assert summary_markdown([cell]) == summary_markdown([bare])

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], "xml", tmp_path / "x")
