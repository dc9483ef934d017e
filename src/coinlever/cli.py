"""Command-line front end.

Subcommands: ``select`` (one selection over given pools), ``run-full``
(iterate until the backlog is empty), ``simulate`` (the seeded scenario
protocol, single cell or the built-in sweep), and ``report`` (the CSV/markdown
summary of a JSON report, read from its ``summary`` and ``savings`` blocks).

Exit codes: 0 success, 1 usage error, 2 data error, 3 scenario error
(partial output is still written).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import io as report_io
from .datasets import bundled_payment_dataset, bundled_utxo_dataset
from .model import NoGoodPrefix
from .orchestrator import WorldState, step
from .selection import LeverageParams
from .simulation import (
    DatasetTooSmall,
    Mode,
    ScenarioConfig,
    default_sweep_configs,
    deterministic,
    run_cell,
    run_full,
    sweep,
)

log = logging.getLogger("coinlever")

ENV_SEED = "COINLEVER_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SCENARIO = 3

DATA_ERRORS = (
    report_io.ParseError,
    report_io.DuplicateId,
    report_io.DuplicateRank,
    report_io.NonPositiveValue,
    DatasetTooSmall,
    FileNotFoundError,
    json.JSONDecodeError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


_CONFIG_FIELDS = {f.name for f in fields(ScenarioConfig)}

_FLAG_HELP = {
    "gamma": "fee rate, satoshi per byte",
    "batch_size": "urgent payments per iteration",
    "beta": "leverage boost factor in [0,1]",
    "extra_min": "min extra payments in leverage",
    "extra_max": "max extra payments in leverage",
    "rng_seed": "root RNG seed (rng_seed)",
    "budget_ms": "solver wall budget per program",
    "node_budget": "deterministic solver node cap",
    "dust": "dust threshold override",
    "make_change": "make-change threshold override",
    "btc_usd": "USD price of one BTC",
}


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ScenarioConfig field: the kebab-case field name, except
    ``--seed`` for ``rng_seed``. Fraction fields stay text for exact parsing."""
    parser.add_argument("--config", help="JSON file with ScenarioConfig fields")
    for f in fields(ScenarioConfig):
        flag = "--seed" if f.name == "rng_seed" else "--" + f.name.replace("_", "-")
        parser.add_argument(
            flag,
            dest=f.name,
            type=str if "Fraction" in str(f.type) else int,
            help=_FLAG_HELP.get(f.name),
        )


def _add_dataset_flags(parser: argparse.ArgumentParser, required: bool) -> None:
    parser.add_argument("--utxos", required=required, help="UTXO CSV (id,value_sat)")
    parser.add_argument(
        "--payments", required=required, help="payment CSV (id,value_sat[,urgency_rank])"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="coinlever", description=__doc__)
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    select = sub.add_parser("select", help="one selection over the given pools")
    _add_dataset_flags(select, required=True)
    _add_scenario_flags(select)
    select.add_argument("--mode", choices=[m.value for m in Mode], default="no-leverage")
    select.add_argument("--out", help="write outcome JSON here (default stdout)")

    full = sub.add_parser("run-full", help="process the whole backlog")
    _add_dataset_flags(full, required=True)
    _add_scenario_flags(full)
    full.add_argument("--mode", choices=[m.value for m in Mode], default="no-leverage")
    full.add_argument("--out", help="write trace JSON here (default stdout)")

    simulate = sub.add_parser("simulate", help="seeded scenario protocol")
    _add_dataset_flags(simulate, required=False)
    _add_scenario_flags(simulate)
    simulate.add_argument(
        "--sweep", action="store_true", help="run the built-in 20-cell grid"
    )
    simulate.add_argument("--out", default="report.json", help="JSON detail path")
    simulate.add_argument(
        "--summary", help="also write a summary table to this path"
    )
    simulate.add_argument("--format", choices=["csv", "md"], default="md")

    report = sub.add_parser("report", help="summarize an existing JSON report")
    report.add_argument("--in", dest="input", required=True, help="JSON report path")
    report.add_argument("--format", choices=["csv", "md"], default="md")
    report.add_argument("--out", help="summary path (default stdout)")
    return parser


def _scenario_config(args: argparse.Namespace) -> ScenarioConfig:
    values: dict = {}
    if args.config:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = set(raw) - _CONFIG_FIELDS
        if unknown:
            raise UsageError(f"unknown config fields: {sorted(unknown)}")
        values.update(raw)

    for name in _CONFIG_FIELDS:
        if getattr(args, name) is not None:
            values[name] = getattr(args, name)

    if "rng_seed" not in values and os.environ.get(ENV_SEED):
        values["rng_seed"] = int(os.environ[ENV_SEED])
    values.setdefault("gamma", 22)
    values.setdefault("batch_size", 2)
    try:
        return ScenarioConfig(**values)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(str(exc)) from exc


def _leverage_params(config: ScenarioConfig) -> LeverageParams:
    try:
        return config.leverage_params()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_world(args: argparse.Namespace) -> WorldState:
    utxos = report_io.load_utxos(args.utxos)
    payments = report_io.load_payments(args.payments)
    from .model import UtxoPool

    return WorldState.initial(UtxoPool.from_utxos(utxos), payments)


def _write_or_print(text: str, path: str | None) -> None:
    if path:
        report_io._write_text(path, text)
    else:
        sys.stdout.write(text)


def _warn_unless_deterministic(is_deterministic: bool) -> None:
    if not is_deterministic:
        print(
            "warning: the wall-clock budget (--budget-ms) cut a solver call short, "
            "so this output may differ between runs",
            file=sys.stderr,
        )


def cmd_select(args: argparse.Namespace) -> int:
    config = _scenario_config(args)
    state = _load_world(args)
    if not state.pending:
        raise UsageError("payment file holds no requests")
    lev = _leverage_params(config) if args.mode == Mode.LEVERAGE.value else None
    try:
        _, record = step(
            state,
            config.batch_size,
            config.fee_params(),
            config.budget_seconds,
            lev=lev,
            candidate_window=config.candidate_window,
            max_nodes=config.node_budget,
        )
    except NoGoodPrefix as exc:
        print(f"selection failed: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    payload = {
        "method": record.method.value,
        "transactions": [report_io.tx_dict(tx) for tx in record.transactions],
        "solver_attempts": [report_io.attempt_dict(a) for a in record.solver_attempts],
        "deterministic": deterministic([record]),
    }
    _write_or_print(report_io.dumps(payload), args.out)
    _warn_unless_deterministic(payload["deterministic"])
    return EXIT_OK


def cmd_run_full(args: argparse.Namespace) -> int:
    config = _scenario_config(args)
    state = _load_world(args)
    records, _, failure = run_full(
        state,
        config.batch_size,
        config.fee_params(),
        config.budget_seconds,
        lev=_leverage_params(config) if args.mode == Mode.LEVERAGE.value else None,
        candidate_window=config.candidate_window,
        max_nodes=config.node_budget,
    )
    _write_or_print(report_io.dumps(report_io.run_result_dict(records, failure)), args.out)
    _warn_unless_deterministic(deterministic(records))
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_SCENARIO
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _scenario_config(args)
    utxo_dataset = report_io.load_utxos(args.utxos) if args.utxos else bundled_utxo_dataset()
    payment_dataset = (
        report_io.load_payments(args.payments) if args.payments else bundled_payment_dataset()
    )
    datasets = dict(utxo_dataset=utxo_dataset, payment_dataset=payment_dataset)
    if args.sweep:
        # A sweep records each failed cell in its report and exits 3.
        cells = sweep(default_sweep_configs(config), **datasets)
    else:
        # Impossible leverage bounds are a usage error before any mode runs,
        # and a dataset too small for the sample is a data error.
        _leverage_params(config)
        cells = [run_cell(config, **datasets)]
    log.info("ran %d cell(s)", len(cells))
    report_io.emit_report(cells, "json", args.out)
    log.info("wrote %s", args.out)
    if args.summary:
        report_io.emit_report(cells, args.format, args.summary)
        log.info("wrote %s", args.summary)
    else:
        sys.stdout.write(report_io.summary_markdown([report_io.cell_dict(c) for c in cells]))
    _warn_unless_deterministic(
        all(r.deterministic for c in cells for r in (c.no_leverage, c.leverage) if r)
    )
    failures = [c for c in cells if c.error is not None]
    for cell in failures:
        print(
            f"cell gamma={cell.config.gamma} M={cell.config.batch_size} "
            f"failed: {cell.error}",
            file=sys.stderr,
        )
    return EXIT_SCENARIO if failures else EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    payload = json.loads(Path(args.input).read_text(encoding="utf-8"))
    summarize = report_io.summary_csv if args.format == "csv" else report_io.summary_markdown
    try:
        text = summarize(payload["cells"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        # A JSON file that is not a coinlever report, or a damaged one.
        print(f"data error: malformed report {args.input}: {exc!r}", file=sys.stderr)
        return EXIT_DATA
    _write_or_print(text, args.out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(message)s",
    )
    handlers = {
        "select": cmd_select,
        "run-full": cmd_run_full,
        "simulate": cmd_simulate,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except report_io.IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
