"""One benchmark process: set up a workload, run its ops, check the results.

`run.py` starts this script in a fresh interpreter for every set-up probe
and for every measured run, with BLAS and OpenMP pinned to one thread.  It
prints one JSON object on its last stdout line and nothing else to stdout.

The ops drive the real CLI entry point, `motkit.cli.main`, in-process: one
command at a time, each started after the previous one returned (a closed
loop with a single client).  The timing of an op covers document parse,
solve and result render, and nothing the benchmark does to check it.
"""

import time

STARTED = time.perf_counter()   # set-up time counts from here, imports included

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"


def docs_dir(workload: str, seed: int) -> Path:
    """Where the processes of one run write the workload's documents.

    They share it: the first creates the files and the later ones rewrite
    them.  Creating hundreds of files is slow and erratic on some
    filesystems and would otherwise swamp set-up time with noise that has
    nothing to do with motkit.  run.py removes the directory at the end."""
    return RUNS_DIR / f"docs-{workload}-{seed}"


def import_cli():
    """motkit.cli from this checkout's sources, never from anywhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import motkit.cli
    if not Path(motkit.cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"motkit imported from {motkit.cli.__file__}, not from {src}")
    return motkit.cli


def run_command(cli, argv):
    """(exit code, stdout text, stderr text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="motkit")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return code, out.getvalue(), err.getvalue()


def payload_digest(text: str) -> str:
    """Digest of the result document outside its `meta` block."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return hashlib.sha256(text.encode()).hexdigest()
    doc.pop("meta", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class OpLoop:
    """Runs passes over a workload's ops and checks every result."""

    def __init__(self, cli, workload, doc_dir, checks):
        self.cli = cli
        self.ops = workload.ops
        self.argvs = [op.argv(doc_dir) for op in workload.ops]
        self.check = checks
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.exit2 = 0
        self.problems: list[str] = []

    def run_op(self, i, clock=time.perf_counter, before=None, after=None):
        """Run op i once; returns its latency on `clock`."""
        op = self.ops[i]
        self.attempted += 1
        started = clock()
        if before:
            before()
        try:
            code, text, err = run_command(self.cli, self.argvs[i])
            raised = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            code, text, err, raised = None, "", "", f"{type(exc).__name__}: {exc}"
        finally:
            if after:
                after()
        latency = clock() - started
        if raised:
            problems = [f"raised {raised}"]
        else:
            problems = self.check(op, code, text)
            if problems and err.strip():
                problems.append(f"stderr: {err.strip()[:200]}")
            digest = payload_digest(text)
            if self.digests.setdefault(i, digest) != digest:
                problems.append("payload differs from the first pass outside meta")
            self.exit2 += code == 2
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op.command} {op.doc or ''}: " + "; ".join(problems))
        return latency


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: its value,
    the percentile and the sample count.  With ten samples or fewer, the
    maximum."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_cli()
    import workloads
    from hostspeed import HostSpeed

    marks = [STARTED, time.perf_counter()]
    workload = workloads.WORKLOADS[args.workload](args.seed)
    marks.append(time.perf_counter())
    doc_dir = docs_dir(args.workload, args.seed)
    doc_dir.mkdir(parents=True, exist_ok=True)
    workload.write(doc_dir)
    marks.append(time.perf_counter())
    loop = OpLoop(cli, workload, doc_dir, workloads.check_result)
    warm = run_command(cli, workload.warmup.argv(doc_dir))
    marks.append(time.perf_counter())
    setup_s = marks[-1] - STARTED
    setup_parts = dict(zip(("import", "generate", "write", "warm-up"),
                           (b - a for a, b in zip(marks, marks[1:]))))
    setup_problems = workloads.check_result(workload.warmup, warm[0], warm[1])
    host = HostSpeed(workloads.reference_document(), workload.reference_tableau,
                     workload.reference_nominal_s)
    host.sample(setup_s, at_least=10)
    setup_slowdown = host.slowdown()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s / setup_slowdown, "setup_raw_s": setup_s,
                          "setup_parts": setup_parts, "problems": setup_problems}))
        return 0
    out = traced_run(loop, args) if args.trace else untraced_run(loop, args, host)

    out.update({
        "setup_s": setup_s / setup_slowdown,
        "setup_raw_s": setup_s,
        "setup_parts": setup_parts,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": [f"warm-up: {p}" for p in setup_problems] + loop.problems,
        "exit2_share": loop.exit2 / loop.attempted,
        "ops_per_pass": len(workload.ops),
        "paths": dict(sorted(Counter(workload.paths_of(op.doc) for op in workload.ops).items(),
                             reverse=True)),
        "documents": len(workload.docs),
        "env": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(out))
    return 0


def untraced_run(loop, args, host):
    """Run the ops round-robin until `--seconds` have passed, at least one
    whole pass, timing the host speed reference after each op.

    Each latency is divided by the slowdown of the reference over its pass,
    so that it reads as at the nominal host speed (see hostspeed.py).  An
    op's latency is then its median over its repetitions.  The raw figures
    are reported alongside."""
    n = len(loop.ops)
    raw = [[] for _ in loop.ops]
    pass_starts = []    # index of the first reference chunk of each pass
    done = 0
    started = time.perf_counter()
    while done < n or time.perf_counter() - started < args.seconds:
        i = done % n
        if i == 0:
            pass_starts.append(len(host.times))
        latency = loop.run_op(i)
        host.sample(latency)
        raw[i].append(latency)
        done += 1
    slowdowns = [host.slowdown(a, b) for a, b in zip(pass_starts, pass_starts[1:] + [None])]
    # op i's k-th repetition ran in pass k
    scaled = [[t / slowdowns[k] for k, t in enumerate(samples)] for samples in raw]
    per_op = [statistics.median(samples) for samples in scaled]
    # Repetitions of one op share its input, so the tail is taken over the
    # ops; over all latencies the ten samples beyond it would be repeats of
    # the one slowest input.
    value, percentile, n_tail = tail(per_op)
    latencies = [t for samples in raw for t in samples]
    return {
        "passes": done / n,
        "repetitions": (min(map(len, raw)), max(map(len, raw))),
        "metrics": {
            "op_p50_s": statistics.median(per_op),
            "op_tail_s": value,
            "ops_per_s": done / sum(t for samples in scaled for t in samples),
            "fail_frac": loop.failed / loop.attempted,
        },
        "raw": {
            "op_p50_s": statistics.median(latencies),
            "ops_per_s": len(latencies) / sum(latencies),
        },
        "slowdown": {"run": host.slowdown(pass_starts[0]),
                     "passes": (min(slowdowns), max(slowdowns))},
        "tail_percentile": percentile,
        "samples": n_tail,
    }


def traced_run(loop, args):
    """Alternate untraced and traced passes; the per-layer metrics come
    from the traced ones, the overhead from comparing the two."""
    import spans

    tracer = spans.Tracer()
    plain_walls, traced_walls, op_walls = [], [], {}   # op_walls: traced op id -> s
    errors, bindings = [], {}

    def plain_pass():
        plain_walls.append(sum(loop.run_op(i) for i in range(len(loop.ops))))

    def traced_pass():
        installation = spans.Installation(tracer)
        try:
            installation.check_complete()
            wall = 0.0
            for i in range(len(loop.ops)):
                op = tracer.op = len(op_walls)
                root = []
                wall += loop.run_op(
                    i, clock=tracer.now,
                    before=lambda: root.append(tracer.open("cli.main")),
                    after=lambda: root.append(tracer.close(root[0])))
                # The op's wall time is its root span, read at the span's own
                # open and close: a stall of the host between two separate
                # clock readings would otherwise show as time in no layer.
                op_walls[op] = root[1]
            traced_walls.append(wall)
        finally:
            installation.remove()
            bindings.update(installation.bindings)

    started = time.perf_counter()
    try:
        # swap the order in every other pair, so drift favours neither side
        while not traced_walls or time.perf_counter() - started < args.seconds:
            if len(traced_walls) % 2 == 0:
                plain_pass()
                traced_pass()
            else:
                traced_pass()
                plain_pass()
    except spans.TraceError as exc:
        errors.append(str(exc))
    if not errors:
        try:
            spans.check_consistent(tracer, op_walls)
        except spans.TraceError as exc:
            errors.append(str(exc))

    passes = len(traced_walls)
    metrics = spans.layer_metrics(tracer, passes) if passes else {}
    if passes:
        metrics["trace_overhead_frac"] = (statistics.median(traced_walls)
                                          / statistics.median(plain_walls) - 1.0)
    cert_max = metrics.get("lp.cert_residual_max")
    if cert_max is not None and cert_max > spans.CERT_LIMIT:
        errors.append(f"certificate residual {cert_max!r} above {spans.CERT_LIMIT}")

    counts = spans.per_op_counts(tracer)
    per_op = []
    for k in range(min(len(loop.ops), len(op_walls))):   # the first traced pass
        c = counts.get(k, Counter())
        per_op.append({"command": loop.ops[k].command, "doc": loop.ops[k].doc,
                       "wall_s": op_walls[k], "solves": c["lp.solve"],
                       "builders": c["lp.builders"],
                       "payoff_expansions": c["model.Payoff.table_for"],
                       "pivots": c["pivots"]})
    lp_shapes = Counter((s.rows, s.cols) for s in tracer.solves)
    statuses = Counter(s.status for s in tracer.solves)

    RUNS_DIR.mkdir(exist_ok=True)
    trace_file = RUNS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "spans": [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                  for n, s, e, p, o in tracer.spans],
        "solves": [vars(s) for s in tracer.solves],
        "bindings": dict(bindings),
    }))
    return {
        "passes": passes,
        "untraced_passes": len(plain_walls),
        "metrics": metrics,
        "trace_errors": errors,
        "per_op": per_op,
        "lp_shapes": {f"{r}x{c}": n / max(passes, 1) for (r, c), n in sorted(lp_shapes.items())},
        "lp_statuses": {k: n / max(passes, 1) for k, n in sorted(statuses.items())},
        "units": spans.UNITS,
        "bindings": dict(bindings),
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


if __name__ == "__main__":
    sys.exit(main())
