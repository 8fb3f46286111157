"""Seeded workload generation and result checks for the motkit benchmark.

Every workload is a list of CLI commands (ops) over instance documents that
this module writes itself.  The recipes follow the repository's acceptance
corpora, but the code is kept here so that a change to the test generators
cannot change what the benchmark measures.  All numbers are dyadic
rationals, so a document round-trips through JSON exactly.

Nothing here imports motkit: the program under test only ever sees the
generated documents and the command lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GAP_RTOL = 1e-7          # transport and MOT primal-dual gap, relative to max(1, |dual|)
RESIDUAL_TOL = 1e-8      # every residual in a solve result
DETECTION_TOL = 1e-9     # arbitrage witness tolerance used by check-arbitrage
COUNTEREXAMPLE_DUAL_TOL = 1e-9
COUNTEREXAMPLE_PRIMAL_TOL = 1e-12
COUNTEREXAMPLE_DEPTH = 10


@dataclass(frozen=True)
class Op:
    """One CLI command: its arguments (document path filled in later), the
    document it reads, and the outcome the check expects."""

    command: str
    doc: str | None = None
    args: tuple[str, ...] = ()
    # "no_arbitrage": the market is arbitrage-free by construction;
    # "any": the market is random, either verdict may be right.
    expect: str = "no_arbitrage"

    def argv(self, doc_dir: Path) -> list[str]:
        argv = [self.command]
        if self.doc is not None:
            argv += ["--input", str(doc_dir / f"{self.doc}.json")]
        return argv + list(self.args)


@dataclass
class Workload:
    docs: dict[str, dict] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    warmup: Op | None = None
    # the host speed reference (hostspeed.py): the shape of the array its
    # chunk updates, and the chunk's time at the nominal host speed
    reference_tableau: tuple[int, int] = (192, 160)
    reference_nominal_s: float = 0.0004

    def write(self, doc_dir: Path) -> None:
        for name, doc in self.docs.items():
            (doc_dir / f"{name}.json").write_text(json.dumps(doc))

    def paths_of(self, doc: str | None) -> int:
        if doc is None:
            return 2 ** COUNTEREXAMPLE_DEPTH
        return int(np.prod([len(ax["points"]) for ax in self.docs[doc]["axes"]]))


# ---------------------------------------------------------------------------
# dyadic primitives
# ---------------------------------------------------------------------------

def _dyadic(rng, low, high, size=None, scale=16):
    k = rng.integers(math.ceil(low * scale), math.floor(high * scale) + 1, size=size)
    return k / scale if size is not None else float(k) / scale


def _probability(rng, npoints, denom=64):
    """Strictly positive probability vector with denominator `denom`."""
    while True:
        cuts = np.sort(rng.integers(1, denom, size=npoints - 1))
        parts = np.diff(np.concatenate([[0], cuts, [denom]]))
        if np.all(parts > 0):
            return parts / denom


def _random_points(rng, npoints, d):
    while True:
        pts = _dyadic(rng, 0.0, 4.0, size=(npoints, d), scale=8)
        if len({tuple(p) for p in pts}) == npoints:
            return pts


def _payoff_table(rng, n_paths):
    return {"kind": "dense", "table": _dyadic(rng, -1, 1, size=n_paths, scale=32).tolist()}


def _document(label, axes, constraints, market=None, payoff=None):
    doc = {
        "version": 1,
        "label": label,
        "axes": [{"index": t + 1, "points": pts.tolist()} for t, pts in enumerate(axes)],
        "constraints": constraints,
    }
    if market is not None:
        doc["market"] = market
    if payoff is not None:
        doc["payoff"] = payoff
    return doc


def _exact(weights):
    return {"kind": "exact", "weights": np.asarray(weights).tolist()}


def _hull(vertices):
    return {"kind": "convex_hull", "weights": [np.asarray(v).tolist() for v in vertices]}


def _n_paths(axes):
    return int(np.prod([len(pts) for pts in axes]))


# ---------------------------------------------------------------------------
# instance recipes
#
# Each recipe draws its numbers (points, weights, spot, steps, payoffs) from
# `rng`, which the seed sets, and its structure (sizes, which marginals are
# hulls, which assets carry costs) from `shape`, a generator with a fixed
# seed.  Every seed then gives the same mix of LP sizes, so a seed moves the
# latency of a corpus little while the LPs themselves still change.
# ---------------------------------------------------------------------------

SHAPE_SEED = 2024


def binomial_market(rng, shape, label, horizon, d, epsilons, hull_prob=0.0, payoff=False):
    """Recombining symmetric random walk per asset: a martingale coupling
    exists by construction, so the market is free of arbitrage (bid-ask
    costs and hull marginals only relax it)."""
    s0 = np.array([1.0 + _dyadic(rng, 0.0, 1.0, scale=4) for _ in range(d)])
    steps = [_dyadic(rng, s0[i] / 8, s0[i] / (horizon + 1), scale=32) for i in range(d)]
    axes, constraints = [], []
    for t in range(1, horizon + 1):
        supports = [s0[i] + steps[i] * np.arange(-t, t + 1, 2) for i in range(d)]
        w1 = np.array([math.comb(t, k) for k in range(t + 1)], dtype=float) / 2 ** t
        grid = np.array(np.meshgrid(*supports, indexing="ij"))
        pts = grid.reshape(d, -1).T
        weights = w1
        for _ in range(1, d):
            weights = np.outer(weights, w1).ravel()
        axes.append(pts)
        if shape.random() < hull_prob:
            extra = [_probability(rng, len(pts)) for _ in range(int(shape.integers(1, 3)))]
            constraints.append(_hull([weights] + extra))
        else:
            constraints.append(_exact(weights))
    market = {"s0": s0.tolist(), "epsilons": list(map(float, epsilons)), "horizon": horizon}
    table = _payoff_table(rng, _n_paths(axes)) if payoff else None
    return _document(label, axes, constraints, market, table)


def _random_exact(rng, shape, n_axes, max_points, d):
    axes, constraints = [], []
    for _ in range(n_axes):
        npts = int(shape.integers(2, max_points + 1))
        axes.append(_random_points(rng, npts, d))
        constraints.append(_exact(_probability(rng, npts)))
    return axes, constraints


def random_market(rng, shape, label, horizon, d, epsilons, max_points=3):
    """Fully random grid and marginals: may or may not admit arbitrage."""
    axes, constraints = _random_exact(rng, shape, horizon, max_points, d)
    s0 = [_dyadic(rng, 0.5, 2.0, scale=8) for _ in range(d)]
    market = {"s0": s0, "epsilons": list(map(float, epsilons)), "horizon": horizon}
    return _document(label, axes, constraints, market)


def random_transport(rng, shape, label, hull, max_points=6, max_vertices=3):
    n_axes = int(shape.integers(1, 4))
    if not hull:
        axes, constraints = _random_exact(rng, shape, n_axes, max_points, 1)
    else:
        axes, constraints = [], []
        for _ in range(n_axes):
            npts = int(shape.integers(2, max_points + 1))
            axes.append(_random_points(rng, npts, 1))
            k = int(shape.integers(1, max_vertices + 1))
            constraints.append(_hull([_probability(rng, npts) for _ in range(k)]))
    return _document(label, axes, constraints, payoff=_payoff_table(rng, _n_paths(axes)))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

MARKET_SESSION_SHAPES = (
    # (label, horizon, assets, epsilons)
    ("m216", 2, 3, (0.1, 0.0, 0.0)),
    ("m120-eps", 4, 1, (0.05,)),
    ("m120", 4, 1, (0.0,)),
    ("m36", 2, 2, (0.1, 0.0)),
)
MARKET_COMMANDS = ("check-arbitrage", "solve-mot", "verify-duality")
# Corpora large enough that a seed moves their latency median little, and
# small enough that every op repeats at least twice in a 32 s run.
MARKETS_PER_SHAPE = 6
TRANSPORT_INSTANCES = 400
ARBITRAGE_MARKETS = 200


def market_session(seed: int) -> Workload:
    rng, shape = np.random.default_rng(seed), np.random.default_rng(SHAPE_SEED)
    w = Workload()
    for k in range(MARKETS_PER_SHAPE):
        for name, horizon, d, eps in MARKET_SESSION_SHAPES:
            label = f"{name}-{k}"
            w.docs[label] = binomial_market(rng, shape, label, horizon, d, eps, payoff=True)
            w.ops += [Op(cmd, label) for cmd in MARKET_COMMANDS]
    w.warmup = Op("check-arbitrage", "m36-0")
    return w


def _transport_corpus(seed: int) -> Workload:
    rng, shape = np.random.default_rng(seed), np.random.default_rng(SHAPE_SEED)
    w = Workload()
    for k in range(TRANSPORT_INSTANCES):
        label = f"t{k:03d}"
        w.docs[label] = random_transport(rng, shape, label, hull=(k % 2 == 1))
        w.ops.append(Op("solve-transport", label))
    w.warmup = w.ops[0]
    return w


def _arbitrage_scan(seed: int) -> Workload:
    rng, shape = np.random.default_rng(seed), np.random.default_rng(SHAPE_SEED)
    w = Workload()
    eps_menu = (0.0, 0.01, 0.1)
    for k in range(ARBITRAGE_MARKETS):
        label = f"a{k:03d}"
        d = 2 if k % 4 == 3 else 1
        horizon = (k % 3) + 1 if d == 1 else (k % 2) + 1
        eps = [eps_menu[int(shape.integers(0, 3))] for _ in range(d)]
        if k % 2 == 0:
            hull_prob = 0.35 if k % 6 == 0 else 0.0
            w.docs[label] = binomial_market(rng, shape, label, horizon, d, eps, hull_prob)
            w.ops.append(Op("check-arbitrage", label))
        else:
            w.docs[label] = random_market(rng, shape, label, horizon, d, eps)
            w.ops.append(Op("check-arbitrage", label, expect="any"))
    return w


def small_corpus(seed: int) -> Workload:
    """The transport corpus and the arbitrage scan, their ops alternating
    so that both halves meet the same state of the machine."""
    transport, scan = _transport_corpus(seed), _arbitrage_scan(seed)
    w = Workload(docs={**transport.docs, **scan.docs}, warmup=transport.warmup)
    for pair in zip(transport.ops[::2], transport.ops[1::2], scan.ops):
        w.ops += pair
    assert len(w.ops) == len(transport.ops) + len(scan.ops)
    return w


def bernoulli_gap(seed: int) -> Workload:
    del seed  # the counterexample has no random input
    w = Workload()
    w.ops.append(Op("counterexample", args=("--depth", str(COUNTEREXAMPLE_DEPTH))))
    w.warmup = Op("counterexample", args=("--depth", "1"))
    # the depth-10 tableau has over a thousand rows and takes megabytes,
    # beyond what the cache holds
    w.reference_tableau, w.reference_nominal_s = (1024, 1045), 0.01
    return w


def reference_document() -> dict:
    """One fixed market document, the same for every seed: the JSON part of
    the host speed reference (hostspeed.py)."""
    rng, shape = np.random.default_rng(0), np.random.default_rng(SHAPE_SEED)
    return binomial_market(rng, shape, "reference", 3, 1, (0.01,), payoff=True)


WORKLOADS = {
    "market-session": market_session,
    "small-corpus": small_corpus,
    "bernoulli-gap": bernoulli_gap,
}


# ---------------------------------------------------------------------------
# result checks
# ---------------------------------------------------------------------------

def _check_duality(result) -> list[str]:
    problems = []
    values, residuals = result["values"], result["residuals"]
    if result["status"] != "ok":
        problems.append(f"status {result['status']!r}")
    if values["gap"] > GAP_RTOL * max(1.0, abs(values["dual_value"])):
        problems.append(f"gap {values['gap']!r} above {GAP_RTOL}*max(1,|dual|)")
    for name, value in residuals.items():
        # superreplication_min is the least slack of the hedge: it only has
        # to be nonnegative; every other entry is a violation
        bad = value < -RESIDUAL_TOL if name == "superreplication_min" else value > RESIDUAL_TOL
        if bad:
            problems.append(f"residual {name} = {value!r}")
    return problems


def _check_arbitrage(result, code, op: Op) -> list[str]:
    problems = []
    values = result["values"]
    verdict = values["verdict"]
    if not values["ftap_equivalent"]:
        problems.append("ftap_equivalent is false")
    if op.expect == "no_arbitrage" and verdict != "no_arbitrage":
        problems.append(f"arbitrage-free market reads {verdict!r}")
    if (verdict == "no_arbitrage") != (code == 0):
        problems.append(f"verdict {verdict!r} with exit code {code}")
    flags = (values["no_uniform"], values["no_model_independent"])
    expected_flags = {"no_arbitrage": (True, True), "uniform": (False, None),
                      "model_independent": (True, False)}[verdict]
    if any(e is not None and f != e for f, e in zip(flags, expected_flags)):
        problems.append(f"flags {flags} disagree with verdict {verdict!r}")
    witness = result["optimizers"].get("witness")
    if verdict != "no_arbitrage":
        if witness is None:
            problems.append("arbitrage reported without a witness")
        elif (witness["cost"] > DETECTION_TOL
              or witness["min_outcome"] < -DETECTION_TOL):
            problems.append(f"witness cost {witness['cost']!r}, "
                            f"min outcome {witness['min_outcome']!r}")
    return problems


def _check_counterexample(result, depth) -> list[str]:
    values = result["values"]
    problems = []
    if values["depths"] != list(range(1, depth + 1)):
        problems.append(f"depths {values['depths']}")
    for depth, dual, bound in zip(values["depths"], values["dual_values"],
                                  values["primal_upper_bounds"]):
        if abs(dual - 1.0) > COUNTEREXAMPLE_DUAL_TOL:
            problems.append(f"depth {depth}: dual {dual!r}")
        if abs(bound - 0.5) > COUNTEREXAMPLE_PRIMAL_TOL:
            problems.append(f"depth {depth}: primal bound {bound!r}")
    return problems


def check_result(op: Op, code: int, text: str) -> list[str]:
    """Problems with one op's result document; empty means it passed.

    Exit code 2 is a success only for check-arbitrage reporting the
    arbitrage it found on a random market.
    """
    if code not in (0, 2):
        return [f"exit code {code}"]
    try:
        result = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"result is not JSON: {exc}"]
    if result.get("command") != op.command:
        return [f"result for command {result.get('command')!r}"]
    if op.command == "check-arbitrage":
        return _check_arbitrage(result, code, op)
    if code != 0:
        return [f"exit code {code}"]
    if op.command == "counterexample":
        return _check_counterexample(result, int(op.args[op.args.index("--depth") + 1]))
    return _check_duality(result)
