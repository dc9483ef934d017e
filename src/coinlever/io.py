"""Dataset CSV contracts, JSON report serialization, and summary tables.

CSV formats (UTF-8, comma separated, header mandatory):

* UTXOs: ``id,value_sat``; no id starts with ``change:`` or ``lev-change:``
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
from .orchestrator import CHANGE_ID_PREFIXES, IterationRecord
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
PAYMENT_HEADER = UTXO_HEADER
PAYMENT_HEADER_RANKED = ["id", "value_sat", "urgency_rank"]


def _read_rows(path: str | Path, headers: list[list[str]]):
    """Yield ``(line, id, value, rest)`` for each non-empty row of a dataset
    file whose header is one of ``headers``, after the checks both files
    share: the header, the field count, a positive value and a new id."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "missing header") from None
        if header not in headers:
            raise ParseError(1, f"unexpected header {header!r}")
        rows = [(line, row) for line, row in enumerate(reader, start=2) if row]
    seen: set[str] = set()
    for line, row in rows:
        if len(row) != len(header):
            raise ParseError(line, f"expected {len(header)} fields, got {len(row)}")
        uid, text, *rest = row
        try:
            value = int(text)
        except ValueError:
            raise ParseError(line, f"bad integer {text!r}") from None
        if value <= 0:
            raise NonPositiveValue(f"line {line}: value must be positive, got {value}")
        if uid in seen:
            raise DuplicateId(f"line {line}: duplicate id {uid!r}")
        seen.add(uid)
        yield line, uid, value, rest


def load_utxos(path: str | Path) -> tuple[Utxo, ...]:
    """Parse a UTXO dataset file (``id,value_sat``)."""
    utxos = []
    for line, uid, value, _ in _read_rows(path, [UTXO_HEADER]):
        if uid.startswith(CHANGE_ID_PREFIXES):
            raise ParseError(line, f"id {uid!r} uses a prefix reserved for change outputs")
        utxos.append(Utxo(uid, value))
    return tuple(utxos)


def load_payments(path: str | Path) -> tuple[PaymentRequest, ...]:
    """Parse a payment dataset file (``id,value_sat[,urgency_rank]``)."""
    seen_ranks: set[int] = set()
    payments = []
    rows = _read_rows(path, [PAYMENT_HEADER, PAYMENT_HEADER_RANKED])
    for order, (line, pid, value, rest) in enumerate(rows):
        try:
            rank = int(rest[0]) if rest else order
        except ValueError:
            raise ParseError(line, f"bad urgency_rank {rest[0]!r}") from None
        if rank in seen_ranks:
            raise DuplicateRank(f"line {line}: duplicate urgency_rank {rank}")
        seen_ranks.add(rank)
        payments.append(PaymentRequest(pid, value, rank))
    return tuple(payments)


def _write_rows(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([header, *rows])


def write_utxos(path: str | Path, utxos: Iterable[Utxo]) -> None:
    _write_rows(path, UTXO_HEADER, ([u.id, u.value] for u in utxos))


def write_payments(path: str | Path, payments: Iterable[PaymentRequest]) -> None:
    rows = ([p.id, p.value, p.urgency_rank] for p in payments)
    _write_rows(path, PAYMENT_HEADER_RANKED, rows)


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
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    places = 1
    while 10**places % value.denominator:
        places += 1
    return fixed_str(value, places)


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
    return {
        "method": a.method.value,
        "status": a.status.value,
        "nodes": a.nodes,
        "objective": a.objective,
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

# The markdown tables: title, the mode whose rows they show (rows with an
# empty shown cell are left out), and the headers of the columns they show
# after gamma and M. USD amounts, the columns named "usd", get a "$".
_RESULT_HEADERS = {
    "fallback_rate": "fallback rate",
    "knapsack_rate": "knapsack rate",
    "leverage_rate": "leverage rate",
    "payments_processed": "payments processed",
    "cost_per_payment_usd": "cost per payment (USD)",
}
_SAVINGS_HEADERS = {
    "pct_savings_per_payment": "% savings per payment",
    "usd_savings_per_payment": "savings per payment (USD)",
}
_TABLES = (
    ("Results without leverage", "no-leverage", _RESULT_HEADERS),
    ("Results with leverage", "leverage", _RESULT_HEADERS),
    ("Savings per payment request", "leverage", _SAVINGS_HEADERS),
)


def _summary_rows(cells: Sequence[dict]) -> list[dict[str, str]]:
    """One row per mode per cell, keyed by ``SUMMARY_COLUMNS``."""
    rows = []
    for cell in cells:
        if cell["error"] is not None:
            continue
        config = ScenarioConfig(**cell["config"])
        savings = {"pct_savings_per_payment": "", "usd_savings_per_payment": ""}
        blank = dict(savings)
        if cell["savings"] is not None:
            for column, key in zip(savings, ("percent_per_payment", "usd_per_payment")):
                savings[column] = fixed_str(Fraction(cell["savings"][key]), 6)
        for mode_name, report in (
            ("no-leverage", cell["no_leverage"]),
            ("leverage", cell["leverage"]),
        ):
            if report is None:
                continue
            summary = report["summary"]
            total = summary["iterations_total"] or 1
            row = {
                "gamma": str(config.gamma),
                "M": str(config.batch_size),
                "beta": fixed_str(config.effective_beta, 2),
                "mode": mode_name,
                "payments_processed": str(summary["payments_processed"]),
                "cost_per_payment_usd": summary["cost_per_payment_usd"],
            }
            # Exact rates from the counts; re-rounding the 6-place rate
            # strings could change the fourth digit.
            for m in ("fallback", "knapsack", "leverage"):
                row[f"{m}_rate"] = fixed_str(Fraction(summary[f"{m}_count"], total), 4)
            rows.append(row | (savings if mode_name == "leverage" else blank))
    return rows


def summary_csv(cells: Sequence[dict]) -> str:
    """CSV summary of JSON report cells, one row per mode per cell."""
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in _summary_rows(cells):
        lines.append(",".join(row[column] for column in SUMMARY_COLUMNS))
    return "\n".join(lines) + "\n"


def summary_markdown(cells: Sequence[dict]) -> str:
    """Markdown result and savings tables of JSON report cells."""
    rows = _summary_rows(cells)
    lines: list[str] = []
    for title, mode_name, shown in _TABLES:
        headers = {"gamma": "gamma", "M": "M", **shown}
        lines.append(f"### {title}")
        lines.append("")
        lines.append("| " + " | ".join(headers.values()) + " |")
        lines.append("|" + "|".join(" --- " for _ in headers) + "|")
        for row in rows:
            if row["mode"] == mode_name and all(row[c] for c in headers):
                texts = [("$" if "usd" in c else "") + row[c] for c in headers]
                lines.append("| " + " | ".join(texts) + " |")
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

