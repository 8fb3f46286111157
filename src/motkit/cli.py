"""Command-line surface.

Exit codes: 0 success, 1 input/schema errors, 2 machine-detectable
findings (primal infeasibility, arbitrage, static arbitrage in quotes).
Every result document carries values, optimizers and a residual block;
timing lives in `meta` and is excluded from determinism comparisons.
"""

from __future__ import annotations

import json
import sys
import time

import click
import numpy as np

from . import bernoulli
from .calls import CallQuoteCurve, StaticArbitrageError, marginal_from_calls
from .documents import (
    DocumentError,
    parse_instance,
    render_result,
    write_output,
)
from .lp import PIVOT_RULE, write_mps
from .martingale import (
    ArbitrageError,
    _build_superhedge,
    _constant_table,
    _mot_primal_builder,
    ftap_check,
    superhedging_duality_report,
)
from .transport import _primal_builder, duality_report


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _load_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    try:
        doc = parse_instance(text)
    except DocumentError as exc:
        _fail(str(exc))
    # the document's pivot rule holds until this command's context closes
    token = PIVOT_RULE.set(doc.options.pivot_rule)
    click.get_current_context().call_on_close(lambda: PIVOT_RULE.reset(token))
    return doc


def _need(doc, block: str):
    if getattr(doc, block) is None:
        _fail(f"document has no {block} block")
    return getattr(doc, block)


def _render_table(values: dict, residuals: dict) -> str:
    width = max(len(k) for k in list(values) + list(residuals))
    lines = [f"{k:<{width}}  {v}" for k, v in values.items()] + ["-" * (width + 2)]
    lines += [f"{k:<{width}}  {v}" for k, v in residuals.items()]
    return "\n".join(lines) + "\n"


def _emit(command, status, values, optimizers, residuals, started, output, fmt):
    elapsed = time.perf_counter() - started
    if fmt == "table":
        text = _render_table(values, residuals)
    else:
        text = render_result(command, status, values, optimizers, residuals, elapsed)
    write_output(text, output)


def _maybe_dump_primal(dump_path, instance, payoff, market=None):
    """Write the one LP a duality report solves as MPS: the MOT primal of
    `market`, else the transport primal.  Builds nothing without a path."""
    if dump_path:
        table = payoff.table_for(instance)
        builder = (_primal_builder(instance, table) if market is None
                   else _mot_primal_builder(market, table))[0]
        write_output(write_mps(builder.build()), dump_path)


def _duality_values(report, tol) -> dict:
    return {
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "gap": report.gap,
        "gap_within_tol": bool(report.gap <= tol * max(1.0, abs(report.dual_value))),
    }


def _resolve_tol(tol, doc):
    return doc.options.tol if tol is None else tol


def _common_options(fn):
    fn = click.option("--output", "-o", default="-", show_default=True,
                      help="result path, or - for stdout")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "table"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--tol", type=float, default=None,
                      help="gap tolerance for pass/fail flags "
                           "(default: the document's options.tol)")(fn)
    fn = click.option("--dump-lp", "dump_lp", default=None,
                      help="write the main LP in MPS format to this path")(fn)
    return fn


@click.group()
def main():
    """Finite-grid transport and martingale-transport duality toolkit."""


@main.command("solve-transport")
@click.option("--input", "-i", "input_path", required=True)
@_common_options
def solve_transport_cmd(input_path, output, fmt, tol, dump_lp):
    """Primal and dual transport values with certificates."""
    started = time.perf_counter()
    doc = _load_document(input_path)
    payoff = _need(doc, "payoff")
    tol = _resolve_tol(tol, doc)
    report = duality_report(doc.instance, payoff)
    _maybe_dump_primal(dump_lp, doc.instance, payoff)
    values = _duality_values(report, tol)
    optimizers = {
        "coupling": report.coupling.weights,
        "m": report.dual.m,
        "g": list(report.dual.g),
        "mixtures": list(report.dual.mixtures),
    }
    _emit("solve-transport", "ok", values, optimizers, report.residuals,
          started, output, fmt)


@main.command("solve-mot")
@click.option("--input", "-i", "input_path", required=True)
@_common_options
def solve_mot_cmd(input_path, output, fmt, tol, dump_lp):
    """Martingale-constrained primal and semi-static superhedging dual."""
    started = time.perf_counter()
    doc = _load_document(input_path)
    payoff = _need(doc, "payoff")
    market = _need(doc, "market")
    tol = _resolve_tol(tol, doc)
    _maybe_dump_primal(dump_lp, doc.instance, payoff, market)
    try:
        report = superhedging_duality_report(market, payoff)
    except ArbitrageError as exc:
        values = {"primal_status": exc.primal_status, "dual_status": exc.dual_status}
        residuals = {"detection_tolerance": 1e-9}
        _emit("solve-mot", "infeasible" if exc.primal_status == "infeasible" else "arbitrage",
              values, {}, residuals, started, output, fmt)
        sys.exit(2)
    values = _duality_values(report, tol)
    optimizers = {
        "coupling": report.coupling.weights,
        "m": report.dual.m,
        "g": list(report.dual.g),
        "legs": [{"maturity": leg.maturity,
                  "h": [h.tolist() for h in leg.h],
                  "u": None if leg.u is None else [u.tolist() for u in leg.u]}
                 for leg in report.dual.legs],
    }
    _emit("solve-mot", "ok", values, optimizers, report.residuals, started, output, fmt)


@main.command("check-arbitrage")
@click.option("--input", "-i", "input_path", required=True)
@_common_options
def check_arbitrage_cmd(input_path, output, fmt, tol, dump_lp):
    """Classify the market (no arbitrage or a uniform arbitrage) and check
    the three-way FTAP equivalence."""
    started = time.perf_counter()
    doc = _load_document(input_path)
    market = _need(doc, "market")
    if dump_lp:
        lp = _build_superhedge(market, _constant_table(market, 0.0))[0].build()
        write_output(write_mps(lp), dump_lp)
    ftap = ftap_check(market)
    verdict = ftap.verdict
    values = {
        "verdict": verdict.kind,
        "uniform_value": verdict.uniform_value,
        "strict_superhedge_value": verdict.strict_value,
        "no_model_independent": ftap.no_model_independent,
        "no_uniform": ftap.no_uniform,
        "martingale_set_nonempty": ftap.martingale_set_nonempty,
        "ftap_equivalent": ftap.equivalent,
    }
    optimizers = {}
    if verdict.strategy is not None:
        optimizers["witness"] = {
            "m": verdict.strategy.m,
            "g": [g.tolist() for g in verdict.strategy.g],
            "cost": verdict.strategy.cost(market),
            "min_outcome": float(verdict.strategy.outcome(market).min()),
        }
    residuals = {"detection_tolerance": 1e-9}
    status = "ok" if verdict.kind == "no_arbitrage" else "arbitrage"
    _emit("check-arbitrage", status, values, optimizers, residuals,
          started, output, fmt)
    if verdict.arbitrage_exists:
        sys.exit(2)


@main.command("verify-duality")
@click.option("--input", "-i", "input_path", required=True)
@_common_options
def verify_duality_cmd(input_path, output, fmt, tol, dump_lp):
    """Zero-gap check: transport duality, or superhedging duality when the
    document carries a market block."""
    started = time.perf_counter()
    doc = _load_document(input_path)
    payoff = _need(doc, "payoff")
    tol = _resolve_tol(tol, doc)
    _maybe_dump_primal(dump_lp, doc.instance, payoff, doc.market)
    try:
        report = (duality_report(doc.instance, payoff) if doc.market is None
                  else superhedging_duality_report(doc.market, payoff))
    except ArbitrageError as exc:
        _emit("verify-duality", "arbitrage", {"detail": str(exc)}, {},
              {"detection_tolerance": 1e-9}, started, output, fmt)
        sys.exit(2)
    values = _duality_values(report, tol)
    ok = values["gap_within_tol"]
    _emit("verify-duality", "ok" if ok else "gap", values, {}, report.residuals,
          started, output, fmt)
    if not ok:
        sys.exit(2)


@main.command("counterexample")
@click.option("--depth", type=int, default=6, show_default=True)
@_common_options
def counterexample_cmd(depth, output, fmt, tol, dump_lp):
    """Duality-gap table on the Bernoulli product space, depths 1..N."""
    started = time.perf_counter()
    if depth < 1:
        _fail("--depth must be >= 1")
    reports = [bernoulli.gap_report(n) for n in range(1, depth + 1)]
    if fmt == "table":
        lines = [f"{'depth':>5}  {'dual':>10}  {'primal':>10}  {'gap':>10}"]
        for r in reports:
            lines.append(f"{r.depth:>5}  {r.dual_value:>10.6f}  "
                         f"{r.primal_candidate_value:>10.6f}  {r.gap:>10.6f}")
        write_output("\n".join(lines) + "\n", output)
        return
    values = {
        "depths": [r.depth for r in reports],
        "dual_values": [r.dual_value for r in reports],
        "dual_upper_bounds": [r.dual_upper_bound for r in reports],
        "primal_values": [r.primal_candidate_value for r in reports],
        "primal_upper_bounds": [r.primal_upper_bound for r in reports],
        "gaps": [r.gap for r in reports],
    }
    residuals = {
        "max_dual_deviation": max(abs(r.dual_value - 1.0) for r in reports),
        "max_primal_bound_deviation": max(abs(r.primal_upper_bound - 0.5)
                                          for r in reports),
    }
    _emit("counterexample", "ok", values, {}, residuals, started, output, fmt)


@main.command("bl-ingest")
@click.option("--calls", "calls_path", required=True,
              help="JSON file with 'strikes' and 'prices' arrays")
@click.option("--maturity", type=int, required=True)
@_common_options
def bl_ingest_cmd(calls_path, maturity, output, fmt, tol, dump_lp):
    """Recover a marginal from call quotes by discrete second differences."""
    started = time.perf_counter()
    try:
        with open(calls_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read call quotes: {exc}")
    if not isinstance(raw, dict) or "strikes" not in raw or "prices" not in raw:
        _fail("call quote file needs 'strikes' and 'prices' arrays")
    try:
        curve = CallQuoteCurve(maturity=maturity,
                               strikes=np.asarray(raw["strikes"], dtype=float),
                               prices=np.asarray(raw["prices"], dtype=float))
        measure = marginal_from_calls(curve)
    except StaticArbitrageError as exc:
        _emit("bl-ingest", "static_arbitrage",
              {"detail": str(exc), "strikes": list(exc.strikes)}, {},
              {"quote_tolerance": 1e-9}, started, output, fmt)
        sys.exit(2)
    except ValueError as exc:
        _fail(str(exc))
    repricing = [float(measure.weights @ np.maximum(
        measure.axis.points.ravel() - strike, 0.0)) for strike in curve.strikes]
    values = {
        "maturity": maturity,
        "points": measure.axis.points.ravel(),
        "weights": measure.weights,
        "barycenter": float(measure.barycenter()[0]),
    }
    residuals = {
        "max_repricing_error": float(np.abs(np.array(repricing) - curve.prices).max()),
        "mass_error": abs(measure.total_mass - 1.0),
    }
    _emit("bl-ingest", "ok", values, {}, residuals, started, output, fmt)


if __name__ == "__main__":
    main()
