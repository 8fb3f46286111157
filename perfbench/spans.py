"""Span tracing of motkit's layers, installed from outside the program.

The tracer wraps the public functions of each layer, at every place a
`motkit.*` module binds them (modules import one another's functions by
name, so patching only the defining module would miss calls).  Each
wrapper records a span: name, start, end, parent and the op it belongs to.
Spans stay in memory and are written out when the run ends.

Work the benchmark does for itself inside a span (the certificate audit and
LP size counts after each solve) runs with the clock paused, so it shows in
no span and in no op's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) of every wrapped function; the span is named
# "<layer>.<attribute>" where the layer is the module's last component.
FUNCTIONS = (
    ("motkit.documents", "parse_instance"),
    ("motkit.documents", "render_result"),
    ("motkit.documents", "write_output"),
    ("motkit.transport", "primal_transport"),
    ("motkit.transport", "dual_transport"),
    ("motkit.transport", "duality_report"),
    ("motkit.martingale", "primal_mot"),
    ("motkit.martingale", "superhedge_dual"),
    ("motkit.martingale", "classify_arbitrage"),
    ("motkit.martingale", "ftap_check"),
    ("motkit.martingale", "superhedging_duality_report"),
    ("motkit.martingale", "feasibility_residual"),
    ("motkit.bernoulli", "gap_report"),
    ("motkit.bernoulli", "tail_forced_dual_bound"),
    ("motkit.bernoulli", "liminf_primal_value"),
    ("motkit.lp", "solve"),
)
# (module, class, method, span name) of every wrapped method; the
# constructor is counted, not timed.
METHODS = (
    ("motkit.model", "Payoff", "table_for", "model.Payoff.table_for"),
    ("motkit.lp", "LpBuilder", "build", "lp.LpBuilder.build"),
    ("motkit.lp", "LpBuilder", "__init__", "lp.builders"),
)
CERT_LIMIT = 1e-8
# Unit of every per-layer metric; times and counts are per pass of the workload.
UNITS = {
    "lp.solves": "count", "lp.builders": "count", "lp.pivots": "count",
    "lp.s_per_pivot": "s", "lp.status.optimal": "count",
    "lp.status.infeasible": "count", "lp.status.unbounded": "count",
    "lp.solve_s.optimal": "s", "lp.solve_s.infeasible": "s", "lp.solve_s.unbounded": "s",
    "lp.build_s": "s", "lp.rows_max": "count", "lp.cols_max": "count", "lp.nnz": "count",
    "lp.dense_bytes": "bytes", "lp.cert_residual_max": "abs",
    "model.payoff_expand_calls": "count", "model.payoff_expand_s": "s",
    "transport.self_s": "s", "martingale.self_s": "s", "martingale.residual_s": "s",
    "bernoulli.self_s": "s", "cli.self_s": "s", "documents.parse_s": "s",
    "documents.render_s": "s", "documents.bytes_in": "bytes", "documents.bytes_out": "bytes",
    "trace_overhead_frac": "frac",
}


class TraceError(RuntimeError):
    """The trace is incomplete or inconsistent, so its numbers are not usable."""


@dataclass
class SolveRecord:
    op: int
    status: str
    rows: int
    cols: int
    nnz: int
    pivots: int
    seconds: float
    cert_residual: float


@dataclass
class Tracer:
    spans: list = field(default_factory=list)    # [name, start, end, parent, op]
    solves: list = field(default_factory=list)   # SolveRecord per lp.solve call
    counts: Counter = field(default_factory=Counter)   # (op, key) -> count
    op: int = -1
    _stack: list = field(default_factory=list)
    _paused: float = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, sid: int) -> float:
        if not self._stack or self._stack.pop() != sid:
            raise TraceError(f"span {self.spans[sid][0]} closed out of order")
        span = self.spans[sid]
        span[2] = self.now()
        return span[2] - span[1]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.op, key)] += n

    def total(self, key: str) -> int:
        return sum(n for (_, k), n in self.counts.items() if k == key)

    @contextlib.contextmanager
    def pause(self):
        """Stop the span clock for work that belongs to no layer."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - started


def _audit(lp_module, lp, sol) -> float:
    """Worst residual of the certificate that goes with the solve's status."""
    if sol.status == "optimal":
        return lp_module.check_certificates(lp, sol).max_violation
    if sol.status == "infeasible":
        return lp_module.check_farkas_certificate(lp, sol.farkas)
    return lp_module.check_unbounded_ray(lp, sol.ray)


def _make_wrapper(tracer: Tracer, name: str, fn):
    lp_module = sys.modules["motkit.lp"]

    if name == "lp.builders":
        @functools.wraps(fn)
        def count_builder(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return count_builder

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = tracer.close(sid)
        with tracer.pause():
            tracer.count(name)
            if name == "lp.solve":
                lp = args[0]
                tracer.solves.append(SolveRecord(
                    tracer.op, result.status, lp.n_rows, lp.n_variables,
                    int(np.count_nonzero(lp.a)), int(result.iterations), seconds,
                    float(_audit(lp_module, lp, result))))
            elif name == "documents.parse_instance":
                tracer.count("documents.bytes_in", len(args[0].encode()))
            elif name == "documents.write_output":
                tracer.count("documents.bytes_out", len(args[0].encode()))
        return result
    return wrapper


def _motkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "motkit" or name.startswith("motkit.")) and m is not None]


def _references(value):
    yield value
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value
    elif isinstance(value, type):
        yield from vars(value).values()
    elif isinstance(value, types.FunctionType):
        yield from value.__defaults__ or ()
        yield from (value.__kwdefaults__ or {}).values()


class Installation:
    """Wrappers installed at every binding; `remove()` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.originals: dict[int, object] = {}   # id(original) -> original
        self.undo: list[tuple[object, str, object]] = []
        self.bindings = Counter()
        for modname, attr in FUNCTIONS:
            layer = modname.split(".")[-1]
            orig = getattr(sys.modules[modname], attr)
            wrapper = _make_wrapper(tracer, f"{layer}.{attr}", orig)
            self.originals[id(orig)] = orig
            for module in _motkit_modules():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self.undo.append((module, key, orig))
                        setattr(module, key, wrapper)
                        self.bindings[f"{layer}.{attr}"] += 1
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[attr]
            self.originals[id(orig)] = orig
            self.undo.append((cls, attr, orig))
            setattr(cls, attr, _make_wrapper(tracer, name, orig))
            self.bindings[name] += 1

    def _is_original(self, obj) -> bool:
        return id(obj) in self.originals and self.originals[id(obj)] is obj

    def check_complete(self) -> None:
        """Raise if any motkit module still reaches an original directly:
        as a module attribute, or one level inside a module-level container,
        class, or function's default arguments."""
        stale = []
        for module in _motkit_modules():
            for key, value in vars(module).items():
                if any(self._is_original(ref) for ref in _references(value)):
                    stale.append(f"{module.__name__}.{key}")
        if stale:
            raise TraceError(f"unwrapped references remain: {sorted(set(stale))}")

    def remove(self) -> None:
        for owner, key, orig in reversed(self.undo):
            setattr(owner, key, orig)
        self.undo.clear()


def self_times(tracer: Tracer) -> list[float]:
    """Span duration minus the time its direct children cover, per span.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations."""
    covered = [0.0] * len(tracer.spans)
    for name, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[k]
            for k, (_, start, end, _, _) in enumerate(tracer.spans)]


def check_consistent(tracer: Tracer, op_walls: dict[int, float]) -> None:
    """Every self time is >= 0, and per op the self times add up to the
    wall time the op loop measured around the command."""
    selfs = self_times(tracer)
    negative = [tracer.spans[k][0] for k, s in enumerate(selfs) if s < 0]
    if negative:
        raise TraceError(f"negative self time in spans {sorted(set(negative))}")
    per_op = Counter()
    for k, span in enumerate(tracer.spans):
        per_op[span[4]] += selfs[k]
    for op, wall in op_walls.items():
        if abs(per_op[op] - wall) > 1e-4 + 0.01 * wall:
            raise TraceError(f"op {op}: self times add up to {per_op[op]:.6f} s, "
                             f"wall time is {wall:.6f} s")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float | None]:
    """Per-layer metrics per pass of the workload.

    A metric whose layer never ran in the traced passes is None."""
    selfs = self_times(tracer)
    self_by_layer = Counter()
    inclusive = Counter()
    ran = set()
    for k, (name, start, end, _, _) in enumerate(tracer.spans):
        self_by_layer[name.split(".")[0]] += selfs[k]
        inclusive[name] += end - start
        ran.add(name.split(".")[0])
        ran.add(name)
    c = tracer.total
    solves = tracer.solves
    by_status = Counter(s.status for s in solves)
    seconds_by_status = Counter()
    for s in solves:
        seconds_by_status[s.status] += s.seconds
    pivots = sum(s.pivots for s in solves)
    largest = max(solves, key=lambda s: (s.rows * s.cols, s.nnz), default=None)

    def per_pass(value, needs):
        return value / passes if needs in ran else None

    def status_s(status):
        return seconds_by_status[status] / passes if by_status[status] else None

    return {
        "lp.solves": len(solves) / passes,
        "lp.builders": c("lp.builders") / passes,
        "lp.pivots": pivots / passes,
        "lp.s_per_pivot": inclusive["lp.solve"] / pivots if pivots else None,
        "lp.status.optimal": by_status["optimal"] / passes,
        "lp.status.infeasible": by_status["infeasible"] / passes,
        "lp.status.unbounded": by_status["unbounded"] / passes,
        "lp.solve_s.optimal": status_s("optimal"),
        "lp.solve_s.infeasible": status_s("infeasible"),
        "lp.solve_s.unbounded": status_s("unbounded"),
        "lp.build_s": per_pass(inclusive["lp.LpBuilder.build"], "lp.LpBuilder.build"),
        "lp.rows_max": max((s.rows for s in solves), default=None),
        "lp.cols_max": max((s.cols for s in solves), default=None),
        "lp.nnz": largest.nnz if largest else None,
        "lp.dense_bytes": largest.rows * largest.cols * 8 if largest else None,
        "lp.cert_residual_max": max((s.cert_residual for s in solves), default=None),
        "model.payoff_expand_calls": c("model.Payoff.table_for") / passes,
        "model.payoff_expand_s": per_pass(inclusive["model.Payoff.table_for"],
                                          "model.Payoff.table_for"),
        "transport.self_s": per_pass(self_by_layer["transport"], "transport"),
        "martingale.self_s": per_pass(self_by_layer["martingale"], "martingale"),
        "martingale.residual_s": per_pass(inclusive["martingale.feasibility_residual"],
                                          "martingale.feasibility_residual"),
        "bernoulli.self_s": per_pass(self_by_layer["bernoulli"], "bernoulli"),
        "cli.self_s": per_pass(self_by_layer["cli"], "cli"),
        "documents.parse_s": per_pass(inclusive["documents.parse_instance"],
                                      "documents.parse_instance"),
        "documents.render_s": per_pass(inclusive["documents.render_result"]
                                       + inclusive["documents.write_output"],
                                       "documents.render_result"),
        "documents.bytes_in": c("documents.bytes_in") / passes,
        "documents.bytes_out": c("documents.bytes_out") / passes,
    }


def per_op_counts(tracer: Tracer) -> dict[int, Counter]:
    """Solves, builders, payoff expansions and pivots of every traced op."""
    out: dict[int, Counter] = {}
    for (op, key), n in tracer.counts.items():
        out.setdefault(op, Counter())[key] += n
    for s in tracer.solves:
        out.setdefault(s.op, Counter())["pivots"] += s.pivots
    return out
