"""Dataset CSV contracts, JSON report serialization, and summary tables.

CSV formats (UTF-8, comma separated, header mandatory):

* UTXOs: ``id,value_sat``
* Payments: ``id,value_sat[,urgency_rank]`` (rank defaults to row order)

JSON reports are fully deterministic: keys are sorted, satoshi amounts are
integers, and every rational (USD figures, rates, boost factors) is an
explicit decimal or ``num/den`` string, never a binary float. The one
exception is a solver call that the wall-clock budget cut short, whose
result depends on the machine's speed; every report, ``run-full`` and
``select`` output says ``"deterministic": false`` when it holds one.

Reports are never decoded back into objects: the CSV/markdown summaries
read the JSON cells that ``cell_dict`` produces, fresh or from a file.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .model import PaymentRequest, Transaction, Utxo
from .orchestrator import IterationRecord
from .selection import Method, SolverAttempt
from .simulation import (
    RepetitionOutcome,
    SavingsSummary,
    ScenarioConfig,
    ScenarioReport,
    SweepCell,
    deterministic,
    tally,
)


class ParseError(ValueError):
    """A dataset file row could not be parsed; ``line`` is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateId(ValueError):
    pass


class DuplicateRank(ValueError):
    pass


class NonPositiveValue(ValueError):
    pass


class IoError(OSError):
    """Wrapper for filesystem failures during report emission."""


UTXO_HEADER = ["id", "value_sat"]
PAYMENT_HEADER = ["id", "value_sat"]
PAYMENT_HEADER_RANKED = ["id", "value_sat", "urgency_rank"]


def _read_rows(path: str | Path, expected_headers: list[list[str]]):
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "missing header") from None
        if header not in expected_headers:
            raise ParseError(1, f"unexpected header {header!r}")
        rows = [(line, row) for line, row in enumerate(reader, start=2) if row]
    return header, rows


def _parse_value(line: int, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(line, f"bad integer {text!r}") from None
    if value <= 0:
        raise NonPositiveValue(f"line {line}: value must be positive, got {value}")
    return value


def load_utxos(path: str | Path) -> tuple[Utxo, ...]:
    """Parse a UTXO dataset file (``id,value_sat``)."""
    _, rows = _read_rows(path, [UTXO_HEADER])
    seen: set[str] = set()
    utxos = []
    for line, row in rows:
        if len(row) != 2:
            raise ParseError(line, f"expected 2 fields, got {len(row)}")
        uid, value = row[0], _parse_value(line, row[1])
        if uid in seen:
            raise DuplicateId(f"line {line}: duplicate id {uid!r}")
        seen.add(uid)
        utxos.append(Utxo(uid, value))
    return tuple(utxos)


def load_payments(path: str | Path) -> tuple[PaymentRequest, ...]:
    """Parse a payment dataset file (``id,value_sat[,urgency_rank]``)."""
    header, rows = _read_rows(path, [PAYMENT_HEADER, PAYMENT_HEADER_RANKED])
    ranked = header == PAYMENT_HEADER_RANKED
    seen: set[str] = set()
    seen_ranks: set[int] = set()
    payments = []
    for order, (line, row) in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(line, f"expected {len(header)} fields, got {len(row)}")
        pid, value = row[0], _parse_value(line, row[1])
        if pid in seen:
            raise DuplicateId(f"line {line}: duplicate id {pid!r}")
        seen.add(pid)
        if ranked:
            try:
                rank = int(row[2])
            except ValueError:
                raise ParseError(line, f"bad urgency_rank {row[2]!r}") from None
        else:
            rank = order
        if rank in seen_ranks:
            raise DuplicateRank(f"line {line}: duplicate urgency_rank {rank}")
        seen_ranks.add(rank)
        payments.append(PaymentRequest(pid, value, rank))
    return tuple(payments)


def write_utxos(path: str | Path, utxos: Iterable[Utxo]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(UTXO_HEADER)
        for u in utxos:
            writer.writerow([u.id, u.value])


def write_payments(path: str | Path, payments: Iterable[PaymentRequest]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(PAYMENT_HEADER_RANKED)
        for p in payments:
            writer.writerow([p.id, p.value, p.urgency_rank])


# --- rational formatting -------------------------------------------------


def fraction_str(value: Fraction) -> str:
    """Exact, parseable text: plain integer, decimal, or ``num/den``."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        places = 0
        scaled = value
        while scaled.denominator != 1:
            scaled *= 10
            places += 1
        digits = abs(scaled.numerator)
        sign = "-" if value < 0 else ""
        whole, frac = divmod(digits, 10**places)
        return f"{sign}{whole}.{frac:0{places}d}"
    return f"{value.numerator}/{value.denominator}"


def fixed_str(value: Fraction, places: int) -> str:
    """Decimal string rounded to ``places`` (ties to even)."""
    q = 10**places
    scaled = round(Fraction(value) * q)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // q}.{scaled % q:0{places}d}"


# --- JSON serialization ---------------------------------------------------


def _utxo_dict(u: Utxo) -> dict:
    return {"id": u.id, "value_sat": u.value}


def _payment_dict(p: PaymentRequest) -> dict:
    return {"id": p.id, "value_sat": p.value, "urgency_rank": p.urgency_rank}


def tx_dict(tx: Transaction) -> dict:
    return {
        "inputs": [_utxo_dict(u) for u in tx.inputs],
        "payments": [_payment_dict(p) for p in tx.payments],
        "change_sat": tx.change,
        "overpayment_sat": tx.overpayment,
        "size_bytes": tx.size_bytes,
    }


def attempt_dict(a: SolverAttempt) -> dict:
    objective = a.objective
    if isinstance(objective, Fraction):
        objective = fraction_str(objective)
    return {
        "method": a.method.value,
        "status": a.status.value,
        "nodes": a.nodes,
        "objective": objective,
        "limit": a.limit,
    }


def _record_dict(r: IterationRecord) -> dict:
    return {
        "iteration": r.iteration,
        "method": r.method.value,
        "transactions": [tx_dict(tx) for tx in r.transactions],
        "processed_ids": list(r.processed_ids),
        "cost_sat": r.cost,
        "solver_attempts": [attempt_dict(a) for a in r.solver_attempts],
        "spent_utxo_ids": list(r.spent_utxo_ids),
        "change_utxo": _utxo_dict(r.change_utxo) if r.change_utxo else None,
    }


def config_dict(config: ScenarioConfig) -> dict:
    out = {}
    for f in fields(ScenarioConfig):
        value = getattr(config, f.name)
        out[f.name] = fraction_str(value) if isinstance(value, Fraction) else value
    return out


def _repetition_dict(rep: RepetitionOutcome) -> dict:
    return {
        "index": rep.index,
        "ok": rep.ok,
        "failure": rep.failure,
        "sample_digest": rep.sample_digest,
        "records": [_record_dict(r) for r in rep.records],
    }


def report_dict(report: ScenarioReport) -> dict:
    totals = report.totals
    return {
        "mode": report.mode.value,
        "config": config_dict(report.config),
        "deterministic": report.deterministic,
        "repetitions": [_repetition_dict(rep) for rep in report.repetitions],
        "summary": {
            "iterations_total": totals["iterations"],
            "payments_processed": totals["payments_processed"],
            "total_cost_sat": totals["total_cost_sat"],
            "failed_repetitions": report.failed_count,
            "fallback_count": totals["fallback_count"],
            "knapsack_count": totals["knapsack_count"],
            "leverage_count": totals["leverage_count"],
            "fallback_rate": fixed_str(report.rate(Method.FALLBACK), 6),
            "knapsack_rate": fixed_str(report.rate(Method.KNAPSACK), 6),
            "leverage_rate": fixed_str(report.rate(Method.LEVERAGE), 6),
            "cost_per_payment_usd": fixed_str(report.cost_per_payment_usd, 6),
        },
    }


def savings_dict(savings: SavingsSummary) -> dict:
    return {
        "percent_per_payment": fraction_str(savings.percent_per_payment),
        "usd_per_payment": fraction_str(savings.usd_per_payment),
    }


def cell_dict(cell: SweepCell) -> dict:
    return {
        "config": config_dict(cell.config),
        "no_leverage": report_dict(cell.no_leverage) if cell.no_leverage else None,
        "leverage": report_dict(cell.leverage) if cell.leverage else None,
        "savings": savings_dict(cell.savings) if cell.savings else None,
        "error": cell.error,
    }


def run_result_dict(records: Sequence[IterationRecord], error: str | None = None) -> dict:
    return {
        "records": [_record_dict(r) for r in records],
        "totals": tally(records),
        "deterministic": deterministic(records),
        "error": error,
    }


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_text(path: str | Path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# --- summary tables --------------------------------------------------------

SUMMARY_COLUMNS = [
    "gamma",
    "M",
    "beta",
    "mode",
    "fallback_rate",
    "knapsack_rate",
    "leverage_rate",
    "payments_processed",
    "cost_per_payment_usd",
    "pct_savings_per_payment",
    "usd_savings_per_payment",
]


def _summary_rows(cells: Sequence[dict]) -> list[list[str]]:
    rows = []
    for cell in cells:
        if cell["error"] is not None:
            continue
        config = ScenarioConfig(**cell["config"])
        beta = fixed_str(config.effective_beta, 2)
        savings = ["", ""]
        if cell["savings"] is not None:
            savings = [
                fixed_str(Fraction(cell["savings"][key]), 6)
                for key in ("percent_per_payment", "usd_per_payment")
            ]
        for mode_name, report in (
            ("no-leverage", cell["no_leverage"]),
            ("leverage", cell["leverage"]),
        ):
            if report is None:
                continue
            summary = report["summary"]
            total = summary["iterations_total"]
            # Exact rates from the counts; re-rounding the 6-place rate
            # strings could change the fourth digit.
            rates = [
                fixed_str(Fraction(summary[f"{name}_count"], total or 1), 4)
                for name in ("fallback", "knapsack", "leverage")
            ]
            rows.append(
                [
                    str(config.gamma),
                    str(config.batch_size),
                    beta,
                    mode_name,
                    *rates,
                    str(summary["payments_processed"]),
                    summary["cost_per_payment_usd"],
                    *(savings if mode_name == "leverage" else ["", ""]),
                ]
            )
    return rows


def summary_csv(cells: Sequence[dict]) -> str:
    """CSV summary of JSON report cells, one row per mode per cell."""
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in _summary_rows(cells):
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def summary_markdown(cells: Sequence[dict]) -> str:
    """Markdown result and savings tables of JSON report cells."""

    def table(headers: list[str], rows: list[list[str]]) -> list[str]:
        out = ["| " + " | ".join(headers) + " |"]
        out.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            out.append("| " + " | ".join(row) + " |")
        return out

    result_headers = [
        "gamma",
        "M",
        "fallback rate",
        "knapsack rate",
        "leverage rate",
        "payments processed",
        "cost per payment (USD)",
    ]
    lines: list[str] = []
    for title, mode_name in (
        ("Results without leverage", "no-leverage"),
        ("Results with leverage", "leverage"),
    ):
        rows = [
            [r[0], r[1], r[4], r[5], r[6], r[7], "$" + r[8]]
            for r in _summary_rows(cells)
            if r[3] == mode_name
        ]
        lines.append(f"### {title}")
        lines.append("")
        lines.extend(table(result_headers, rows))
        lines.append("")
    savings_rows = [
        [r[0], r[1], r[9], "$" + r[10]]
        for r in _summary_rows(cells)
        if r[3] == "leverage" and r[9] != ""
    ]
    lines.append("### Savings per payment request")
    lines.append("")
    lines.extend(
        table(
            ["gamma", "M", "% savings per payment", "savings per payment (USD)"],
            savings_rows,
        )
    )
    lines.append("")
    return "\n".join(lines)


def emit_report(
    cells: Sequence[SweepCell], format: str, path: str | Path
) -> None:
    """Write a sweep's reports as JSON detail or a CSV/markdown summary."""
    dicts = [cell_dict(c) for c in cells]
    if format == "json":
        _write_text(path, dumps({"cells": dicts}))
    elif format == "csv":
        _write_text(path, summary_csv(dicts))
    elif format == "md":
        _write_text(path, summary_markdown(dicts))
    else:
        raise ValueError(f"unknown format {format!r}")

