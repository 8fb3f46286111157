"""Versioned JSON instance documents and result serialization.

One document describes an instance (axes + constraints) and optionally a
market block, a payoff block and an options block holding the gap
tolerance.  Parsing is strict: unknown fields, NaN/Inf, wrong shapes and
probability violations are rejected with the offending field path in the
message.  Serialization is
canonical (fixed key order, repr-roundtrip floats), so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .model import (
    PROB_TOL,
    DiscreteAxis,
    DiscreteMeasure,
    Instance,
    MarginalConstraint,
    Payoff,
)
from .martingale import Market
from .payoffs import PAYOFF_GENERATORS, param_error

__all__ = [
    "DocumentError",
    "InstanceDocument",
    "parse_instance",
    "parse_call_quotes",
    "serialize_instance",
    "render_result",
    "write_output",
]

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """Schema or invariant violation; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True, eq=False)
class InstanceDocument:
    version: int
    label: str
    instance: Instance
    market: Market | None
    payoff: Payoff | None
    tol: float


def _reject_constant(token):
    raise DocumentError("$", f"non-finite number {token!r} is not allowed")


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise DocumentError(path, message)


def _fields(raw, path: str, what: str, known):
    """Require an object with `known` fields only; the path names the first unknown one."""
    _require(isinstance(raw, dict), path, f"{what} must be an object")
    unknown = sorted(set(raw) - set(known))
    _require(not unknown, f"{path}.{unknown[0]}" if unknown else path, f"unknown fields {unknown}")


def _numbers(raw) -> bool:
    """A JSON number (true and false are not), or a list of `_numbers`."""
    if isinstance(raw, list):
        return all(map(_numbers, raw))
    return isinstance(raw, (int, float)) and not isinstance(raw, bool)


def _finite_floats(raw, path: str) -> np.ndarray:
    _require(_numbers(raw), path, "entries must be numbers")
    try:
        arr = np.asarray(raw, dtype=float)
    except (ValueError, OverflowError):
        raise DocumentError(path, "must be a rectangular array of finite numbers") from None
    _require(arr.size > 0, path, "must be non-empty")
    _require(bool(np.all(np.isfinite(arr))), path, "entries must be finite numbers")
    return arr


def _parse_axis(raw, path: str) -> DiscreteAxis:
    _fields(raw, path, "axis", ("index", "points"))
    _require("index" in raw and "points" in raw, path, "axis needs index and points")
    index = raw["index"]
    _require(isinstance(index, int) and _numbers(index) and index >= 1, f"{path}.index",
             "must be an integer time step >= 1")
    pts = _finite_floats(raw["points"], f"{path}.points")
    try:
        return DiscreteAxis(index=index, points=pts)
    except ValueError as exc:
        raise DocumentError(f"{path}.points", str(exc)) from None


def _parse_weights(raw, axis: DiscreteAxis, path: str) -> DiscreteMeasure:
    w = _finite_floats(raw, path)
    _require(w.ndim == 1 and w.size == axis.npoints, path,
             f"needs {axis.npoints} weights for axis {axis.index}")
    _require(bool(np.all(w >= 0)), path, "weights must be nonnegative")
    total = float(w.sum())
    _require(abs(total - 1.0) <= PROB_TOL, path,
             f"probability invariant violated: total mass {total!r}")
    return DiscreteMeasure(axis, w)


def _parse_constraint(raw, axis: DiscreteAxis, path: str) -> MarginalConstraint:
    _fields(raw, path, "constraint", ("kind", "weights"))
    kind = raw.get("kind")
    _require(kind in ("exact", "convex_hull"), f"{path}.kind",
             "must be 'exact' or 'convex_hull'")
    weights = raw.get("weights")
    _require(weights is not None, f"{path}.weights", "is required")
    if kind == "exact":
        return MarginalConstraint.exact(_parse_weights(weights, axis, f"{path}.weights"))
    _require(isinstance(weights, list) and weights, f"{path}.weights",
             "convex_hull needs a non-empty list of weight vectors")
    measures = tuple(_parse_weights(w, axis, f"{path}.weights[{k}]")
                     for k, w in enumerate(weights))
    return MarginalConstraint.convex_hull(measures)


def _parse_payoff(raw, instance: Instance, path: str) -> Payoff:
    _require(isinstance(raw, dict), path, "payoff must be an object")
    kind = raw.get("kind")
    fields = {"dense": ("table",), "separable": ("legs",), "named": ("name", "params")}
    _require(isinstance(kind, str) and kind in fields, f"{path}.kind",
             "must be 'dense', 'separable' or 'named'")
    _fields(raw, path, "payoff", ("kind", *fields[kind]))
    if kind == "dense":
        return Payoff.dense(_finite_floats(raw.get("table"), f"{path}.table"))
    if kind == "separable":
        legs = raw.get("legs")
        _require(isinstance(legs, list) and legs, f"{path}.legs",
                 "separable needs a non-empty list of legs")
        return Payoff.separable([_finite_floats(g, f"{path}.legs[{k}]")
                                 for k, g in enumerate(legs)])
    name = raw.get("name")
    _require(isinstance(name, str) and name in PAYOFF_GENERATORS, f"{path}.name",
             f"unknown generator {name!r}")
    params = raw.get("params", {})
    _require(isinstance(params, dict), f"{path}.params", "must be an object")
    try:
        payoff = Payoff("named", name=name, params=params)
    except ValueError as exc:
        raise DocumentError(f"{path}.params", str(exc)) from None
    error = param_error(payoff.params, instance)
    if error is not None:
        raise DocumentError(f"{path}.params.{error[0]}", f"must be {error[1]}")
    return payoff


def _parse_market(raw, instance: Instance, path: str) -> Market:
    _fields(raw, path, "market", ("s0", "epsilons", "horizon"))
    d = instance.axes[0].d
    s0 = _finite_floats(raw.get("s0"), f"{path}.s0").ravel()
    _require(s0.size == d, f"{path}.s0", f"needs {d} entries")
    eps_raw = raw.get("epsilons", [0.0] * d)
    eps = _finite_floats(eps_raw, f"{path}.epsilons").ravel()
    if eps.size == 1 and d > 1:
        eps = np.full(d, eps[0])
    _require(eps.size == d, f"{path}.epsilons", f"needs {d} entries")
    horizon = raw.get("horizon", instance.horizon)
    _require(horizon == instance.horizon and _numbers(horizon), f"{path}.horizon",
             f"must equal the number of axes ({instance.horizon})")
    try:
        return Market(instance=instance, s0=s0, epsilons=eps)
    except ValueError as exc:
        raise DocumentError(path, str(exc)) from None


def _parse_options(raw, path: str) -> float:
    """The tol of an options block; "pivot_rule": "dantzig", which documents
    carried until the engine had one rule, is accepted and ignored."""
    _fields(raw, path, "options", ("tol", "pivot_rule"))
    tol = _finite_floats(raw.get("tol", 1e-9), f"{path}.tol")
    _require(tol.ndim == 0 and tol > 0, f"{path}.tol", "must be a positive number")
    _require(raw.get("pivot_rule", "dantzig") == "dantzig", f"{path}.pivot_rule",
             "must be 'dantzig', the only rule")
    return float(tol)


_TOP_LEVEL_FIELDS = {"version", "label", "axes", "constraints", "market",
                     "payoff", "options"}


def parse_instance(text: str) -> InstanceDocument:
    """Parse and validate a JSON instance document."""
    try:
        raw = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise DocumentError("$", f"invalid JSON: line {exc.lineno}: {exc.msg}") from None
    _fields(raw, "$", "document", _TOP_LEVEL_FIELDS)
    _require(raw.get("version") == SCHEMA_VERSION and _numbers(raw["version"]), "$.version",
             f"must be {SCHEMA_VERSION}")
    axes_raw = raw.get("axes")
    _require(isinstance(axes_raw, list) and axes_raw, "$.axes",
             "must be a non-empty list")
    axes = [_parse_axis(a, f"$.axes[{k}]") for k, a in enumerate(axes_raw)]
    cons_raw = raw.get("constraints")
    _require(isinstance(cons_raw, list) and len(cons_raw) == len(axes),
             "$.constraints", "needs exactly one constraint per axis")
    constraints = [_parse_constraint(c, axes[k], f"$.constraints[{k}]")
                   for k, c in enumerate(cons_raw)]
    label = raw.get("label", "")
    _require(isinstance(label, str), "$.label", "must be a string")
    try:
        instance = Instance(tuple(axes), tuple(constraints), label=label)
    except ValueError as exc:
        raise DocumentError("$", str(exc)) from None
    market = (_parse_market(raw["market"], instance, "$.market")
              if raw.get("market") is not None else None)
    payoff = (_parse_payoff(raw["payoff"], instance, "$.payoff")
              if raw.get("payoff") is not None else None)
    tol = _parse_options({} if raw.get("options") is None else raw["options"], "$.options")
    if payoff is not None and payoff.kind == "dense":
        _require(payoff.table.size == instance.n_paths, "$.payoff.table",
                 f"needs {instance.n_paths} entries (row-major, axis 1 slowest)")
    return InstanceDocument(version=SCHEMA_VERSION, label=label, instance=instance,
                            market=market, payoff=payoff, tol=tol)


def parse_call_quotes(raw) -> tuple[np.ndarray, np.ndarray]:
    """The strikes and prices of a parsed call quote file."""
    _require(isinstance(raw, dict) and "strikes" in raw and "prices" in raw, "$",
             "call quote file needs 'strikes' and 'prices' arrays")
    return _finite_floats(raw["strikes"], "$.strikes"), _finite_floats(raw["prices"], "$.prices")


def _axis_dict(ax: DiscreteAxis) -> dict:
    return {"index": ax.index, "points": ax.points.tolist()}


def _constraint_dict(con: MarginalConstraint) -> dict:
    if con.is_exact:
        return {"kind": "exact", "weights": con.measures[0].weights.tolist()}
    return {"kind": "convex_hull",
            "weights": [nu.weights.tolist() for nu in con.measures]}


def _payoff_dict(payoff: Payoff) -> dict:
    if payoff.kind == "dense":
        return {"kind": "dense", "table": payoff.table.tolist()}
    if payoff.kind == "separable":
        return {"kind": "separable", "legs": [g.tolist() for g in payoff.legs]}
    return {"kind": "named", "name": payoff.name, "params": payoff.params}


def serialize_instance(doc: InstanceDocument) -> str:
    """Canonical JSON text; parse(serialize(x)) is structurally equal to x."""
    out = {
        "version": doc.version,
        "label": doc.label,
        "axes": [_axis_dict(ax) for ax in doc.instance.axes],
        "constraints": [_constraint_dict(c) for c in doc.instance.constraints],
    }
    if doc.market is not None:
        out["market"] = {
            "s0": doc.market.s0.tolist(),
            "epsilons": doc.market.epsilons.tolist(),
            "horizon": doc.market.horizon,
        }
    if doc.payoff is not None:
        out["payoff"] = _payoff_dict(doc.payoff)
    out["options"] = {"tol": doc.tol}
    return json.dumps(out, indent=2, allow_nan=False) + "\n"


def jsonable(obj):
    """Recursively convert numpy containers for json.dumps."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return {"inf": "+" if obj > 0 else "-"} if not math.isnan(obj) else None
    return obj


def render_result(command: str, status: str, values: dict, optimizers: dict,
                  residuals: dict, elapsed_seconds: float) -> str:
    """Result document text; `meta` carries timing and is excluded from
    byte-determinism comparisons."""
    payload = {
        "command": command,
        "status": status,
        "values": jsonable(values),
        "optimizers": jsonable(optimizers),
        "residuals": jsonable(residuals),
        "meta": {"elapsed_seconds": elapsed_seconds},
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def write_output(text: str, target: str) -> None:
    """Write atomically to a path, or to stdout when target is '-'."""
    if target == "-":
        print(text, end="")
        return
    directory = os.path.dirname(os.path.abspath(target)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".motkit-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
