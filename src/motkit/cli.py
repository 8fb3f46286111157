"""Command-line surface.

Each command returns its answer, (status, values, optimizers, residuals),
and `_Command` writes it.  The exit code follows the status: 0 "ok", 3
"numerical_failure" (an `LpError`: no checked answer), 2 any other finding
(primal infeasibility, arbitrage, static arbitrage in quotes).  Input and
schema errors and unwritable paths exit 1.  Timing lives in `meta`, outside
determinism checks.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

import click
import numpy as np

from . import bernoulli
from .assembly import primal_lp, superhedge_lp
from .calls import CallQuoteCurve, StaticArbitrageError, marginal_from_calls
from .documents import (
    DocumentError,
    parse_call_quotes,
    parse_instance,
    render_result,
    write_output,
)
from .lp import LpError, write_mps
from .martingale import ARBITRAGE_TOL, ArbitrageError, ftap_check, superhedging_duality_report
from .model import Payoff
from .transport import duality_report


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
        return parse_instance(text)
    except DocumentError as exc:
        _fail(str(exc))


def _need(doc, block: str):
    if getattr(doc, block) is None:
        _fail(f"document has no {block} block")
    return getattr(doc, block)


def _render_table(values: dict, residuals: dict) -> str:
    width = max(len(k) for k in list(values) + list(residuals))
    lines = [f"{k:<{width}}  {v}" for k, v in values.items()] + ["-" * (width + 2)]
    lines += [f"{k:<{width}}  {v}" for k, v in residuals.items()]
    return "\n".join(lines) + "\n"


def _depth_table(values: dict, residuals: dict) -> str:
    rows = zip(values["depths"], values["dual_values"], values["primal_values"], values["gaps"])
    return "".join([f"{'depth':>5}  {'dual':>10}  {'primal':>10}  {'gap':>10}\n"]
                   + [f"{n:>5}  {dual:>10.6f}  {primal:>10.6f}  {gap:>10.6f}\n"
                      for n, dual, primal, gap in rows])


def _write(text: str | None, path: str) -> None:
    """Write `text` to `path`, or with None only make and drop a file beside it."""
    try:
        if text is not None:
            write_output(text, path)
        elif path != "-":
            tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(path))).close()
    except OSError as exc:
        _fail(f"cannot write {path}: {exc.strerror or exc}")


def _dump(path, build) -> None:
    """Write the LP `build()` returns as MPS to `path`, before any solve: the
    one --dump-lp writer.  Builds nothing without a writable path."""
    if path:
        _write(None, path)
        _write(write_mps(build()), path)


def _duality(doc, tol, dump_lp, market):
    """The one body of the duality commands: dump the primal LP, then solve
    transport duality (`market` None) or superhedging duality.  Returns the
    report and its values; `ArbitrageError` on an infeasible MOT primal."""
    payoff = _need(doc, "payoff")
    if tol is None:
        tol = doc.tol
    elif not (np.isfinite(tol) and tol > 0):
        _fail("--tol must be positive and finite")
    _dump(dump_lp, lambda: primal_lp(doc.instance, payoff.table_for(doc.instance), market).lp)
    report = (duality_report(doc.instance, payoff) if market is None
              else superhedging_duality_report(market, payoff))
    return report, {
        "primal_value": report.primal_value,
        "dual_value": report.dual_value,
        "gap": report.gap,
        "gap_within_tol": bool(report.gap <= tol * max(1.0, abs(report.dual_value))),
    }


_dump_lp_option = click.option("--dump-lp", "dump_lp", default=None,
                               help="write the main LP in MPS format to this path")


def _common_options(fn):
    fn = click.option("--tol", type=float, default=None,
                      help="gap tolerance for pass/fail flags "
                           "(default: the document's options.tol)")(fn)
    return _dump_lp_option(fn)


class _Command(click.Command):
    """Runs a callback that returns its answer, (status, values, optimizers,
    residuals), then times it, renders it (as JSON, or by `table` under --format
    table) and writes it to --output: the one place that does.  An `LpError` is
    the answer "numerical_failure".  Exits 0 on "ok", 3 on "numerical_failure", else 2."""

    def __init__(self, *args, table=_render_table, **kwargs):
        super().__init__(*args, **kwargs)
        self.table = table
        self.params += [click.Option(["--output", "-o"], default="-", show_default=True,
                                     help="result path, or - for stdout"),
                        click.Option(["--format", "fmt"], type=click.Choice(["json", "table"]),
                                     default="json", show_default=True)]

    def invoke(self, ctx):
        started = time.perf_counter()
        output, fmt = ctx.params.pop("output"), ctx.params.pop("fmt")
        try:
            status, values, optimizers, residuals = super().invoke(ctx)
        except LpError as exc:
            status, values, optimizers, residuals = ("numerical_failure",
                                                     {"detail": str(exc)}, {}, {})
        if fmt == "table":
            text = (self.table if status == "ok" else _render_table)(values, residuals)
        else:
            text = render_result(self.name, status, values, optimizers, residuals,
                                 time.perf_counter() - started)
        _write(text, output)
        if status != "ok":
            sys.exit(3 if status == "numerical_failure" else 2)


@click.group()
def main():
    """Finite-grid transport and martingale-transport duality toolkit."""


@main.command("solve-transport", cls=_Command)
@click.option("--input", "-i", "input_path", required=True)
@_common_options
def solve_transport_cmd(input_path, tol, dump_lp):
    """Primal and dual transport values with certificates."""
    report, values = _duality(_load_document(input_path), tol, dump_lp, None)
    optimizers = {
        "coupling": report.coupling.weights,
        "m": report.dual.m,
        "g": list(report.dual.g),
        "mixtures": list(report.dual.mixtures),
    }
    return "ok", values, optimizers, report.residuals


@main.command("solve-mot", cls=_Command)
@click.option("--input", "-i", "input_path", required=True)
@_common_options
def solve_mot_cmd(input_path, tol, dump_lp):
    """Martingale-constrained primal and semi-static superhedging dual."""
    doc = _load_document(input_path)
    _need(doc, "payoff")  # input errors name the payoff before the market
    market = _need(doc, "market")
    try:
        report, values = _duality(doc, tol, dump_lp, market)
    except ArbitrageError as exc:
        values = {"primal_status": exc.primal_status, "dual_status": exc.dual_status}
        return "infeasible", values, {}, {"detection_tolerance": ARBITRAGE_TOL}
    optimizers = {
        "coupling": report.coupling.weights,
        "m": report.dual.m,
        "g": list(report.dual.g),
        "legs": [{"maturity": leg.maturity,
                  "h": [h.tolist() for h in leg.h],
                  "u": None if leg.u is None else [u.tolist() for u in leg.u]}
                 for leg in report.dual.legs],
    }
    return "ok", values, optimizers, report.residuals


@main.command("check-arbitrage", cls=_Command)
@click.option("--input", "-i", "input_path", required=True)
@_dump_lp_option
def check_arbitrage_cmd(input_path, dump_lp):
    """Classify the market (no arbitrage or a uniform arbitrage) and check
    the three-way FTAP equivalence."""
    doc = _load_document(input_path)
    market = _need(doc, "market")
    _dump(dump_lp, lambda: superhedge_lp(primal_lp(
        market.instance, Payoff.constant(0.0, market.instance).table, market))[0])
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
            "cost": verdict.strategy.cost(),
            "min_outcome": float(verdict.strategy.outcome().min()),
        }
    status = "arbitrage" if verdict.arbitrage_exists else "ok"
    return status, values, optimizers, {"detection_tolerance": ARBITRAGE_TOL}


@main.command("verify-duality", cls=_Command)
@click.option("--input", "-i", "input_path", required=True)
@_common_options
def verify_duality_cmd(input_path, tol, dump_lp):
    """Zero-gap check: transport duality, or superhedging duality when the
    document carries a market block."""
    doc = _load_document(input_path)
    try:
        report, values = _duality(doc, tol, dump_lp, doc.market)
    except ArbitrageError as exc:
        return "arbitrage", {"detail": str(exc)}, {}, {"detection_tolerance": ARBITRAGE_TOL}
    return "ok" if values["gap_within_tol"] else "gap", values, {}, report.residuals


@main.command("counterexample", cls=_Command, table=_depth_table)
@click.option("--depth", type=int, default=6, show_default=True)
def counterexample_cmd(depth):
    """Duality-gap table on the Bernoulli product space, depths 1..N."""
    try:
        instance = bernoulli.bernoulli_instance(depth)
    except ValueError as exc:
        _fail(str(exc))
    reports = [bernoulli.gap_report(n, instance) for n in range(1, depth + 1)]
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
    return "ok", values, {}, residuals


@main.command("bl-ingest", cls=_Command)
@click.option("--calls", "calls_path", required=True,
              help="JSON file with 'strikes' and 'prices' arrays")
@click.option("--maturity", type=int, required=True)
def bl_ingest_cmd(calls_path, maturity):
    """Recover a marginal from call quotes by discrete second differences."""
    try:
        with open(calls_path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read call quotes: {exc}")
    try:
        strikes, prices = parse_call_quotes(raw)
        curve = CallQuoteCurve(maturity=maturity, strikes=strikes, prices=prices)
        measure = marginal_from_calls(curve)
    except StaticArbitrageError as exc:
        return ("static_arbitrage", {"detail": str(exc), "strikes": list(exc.strikes)}, {},
                {"quote_tolerance": 1e-9})
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
    return "ok", values, {}, residuals


if __name__ == "__main__":
    main()
