"""motkit benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload market-session --seed 1 --seconds 32 --trace 0

It runs motkit from this checkout's `src/`, in fresh single-threaded worker
processes (see worker.py), prints a report with every metric by name and
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json,
measured with no tracing installed; with `--trace 1` they are the per-layer
ones, from a run that alternates traced and untraced passes.  It exits
non-zero, printing no result, when the checkout has no motkit sources or a
worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import docs_dir

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up-only processes run before and after the measured one, so the median
# set-up time samples the machine over the whole run, not one moment of it.
SETUP_PROBES_EACH_SIDE = 3
TIME_LIMIT_S = 170.0    # whole run, set-up probes included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and always a
    digest of the motkit sources, so a run can be tied to the code it ran."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "motkit").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": commit, "src_sha256": digest.hexdigest()[:16]}


def run_worker(args, deadline, extra=()) -> dict:
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError(f"worker exited {done.returncode}:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe_setups(args, deadline) -> list[dict]:
    probes = [run_worker(args, deadline, ["--setup-only"])
              for _ in range(SETUP_PROBES_EACH_SIDE)]
    for probe in probes:
        if probe["problems"]:
            raise BenchError(f"set-up failed: {probe['problems']}")
    return probes


def wrap(title: str, counts: dict, width: int = 96) -> list[str]:
    """`title: k1: v1, k2: v2, ...` folded into indented lines."""
    lines, line = [], f"  {title}:"
    for key, value in counts.items():
        item = f" {key}: {fmt(value)},"
        if len(line) + len(item) > width:
            lines.append(line)
            line = "   "
        line += item
    return lines + [line.rstrip(",")]


def fmt(value) -> str:
    if value is None:
        return "n/a (did not run)"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, result, identity, setups) -> list[str]:
    env = result["env"]
    lines = [
        f"motkit benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}",
        f"  source: git {identity['git_sha'] or 'n/a (not a git checkout)'}, "
        f"src sha256 {identity['src_sha256']}",
        f"  env: Python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
        f"nproc {env['nproc']} ({env['cpus_allowed']} allowed), "
        f"threads {env['threads']}",
        f"  input: {result['documents']} documents, {result['ops_per_pass']} ops per pass",
        *wrap("paths per op (paths: ops per pass)", result["paths"]),
        f"  closed loop, 1 client: {fmt(result['passes'])} "
        + (f"traced and {result['untraced_passes']} untraced " if args.trace else "")
        + f"passes, {result['attempted']} ops, "
        f"share exiting 2 = {result['exit2_share']:.3f}, "
        f"failed {result['failed']} (fail_frac {result['failed'] / result['attempted']:.4f})",
    ]
    if args.trace:
        lines += wrap("distinct LPs (rows x cols: solves per pass)", result["lp_shapes"])
        lines += wrap("LP status mix (solves per pass)", result["lp_statuses"])
        lines += wrap("wrapped bindings", result["bindings"])
        lines.append(f"  spans written to {result['trace_file']}")
        lines.append("  per-layer metrics (per pass of the workload):")
        for name, value in result["metrics"].items():
            lines.append(f"    {name:<26} {fmt(value):>24} {result['units'][name]}")
        lines.append("  per op, first traced pass:")
        for op in result["per_op"][:45]:
            lines.append(f"    {op['command']:<16} {op['doc'] or '':<9} {op['wall_s']:9.4f} s  "
                         f"solves {op['solves']:3d}  builders {op['builders']:3d}  "
                         f"payoff expansions {op['payoff_expansions']:3d}  "
                         f"pivots {op['pivots']:5d}")
        for err in result["trace_errors"]:
            lines.append(f"  TRACE ERROR: {err}")
    else:
        m, raw, slowdown = result["metrics"], result["raw"], result["slowdown"]
        lo, hi = result["repetitions"]
        lines += [
            f"  host speed: the reference ran {slowdown['run']:.3f}x its nominal time over the "
            f"run, {slowdown['passes'][0]:.3f}x to {slowdown['passes'][1]:.3f}x per pass",
            f"  end-to-end metrics (latencies scaled to the nominal host speed; "
            f"each op's median of its {lo}-{hi} repetitions):",
            f"    op_p50_s     {m['op_p50_s']:.6g} s (median over the ops)",
            f"    op_tail_s    {m['op_tail_s']:.6g} s (p{result['tail_percentile']:.1f} "
            f"of {result['samples']} ops, "
            + ("the largest: too few ops for ten beyond a percentile)"
               if result["samples"] <= 10 else "10 ops beyond it)"),
            f"    ops_per_s    {m['ops_per_s']:.6g} 1/s",
            f"    fail_frac    {m['fail_frac']:.6g} frac",
            f"    setup_s      {m['setup_s']:.6g} s (median of {len(setups)} set-ups: "
            + ", ".join(f"{s['setup_s']:.3f}" for s in setups) + "; raw "
            + ", ".join(f"{s['setup_raw_s']:.3f}" for s in setups) + "; medians of the raw parts: "
            + ", ".join(f"{part} {statistics.median(s['setup_parts'][part] for s in setups):.3f}"
                        for part in result["setup_parts"]) + ")",
            f"    peak_rss_mb  {m['peak_rss_mb']:.6g} MB",
            f"  raw, as the host ran: median latency {raw['op_p50_s']:.6g} s, "
            f"{raw['ops_per_s']:.6g} ops/s",
        ]
    for problem in result["problems"]:
        lines.append(f"  FAILED: {problem}")
    return lines


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if not (ROOT / "src" / "motkit" / "cli.py").is_file():
            raise BenchError(f"no motkit sources under {ROOT / 'src'}")
        identity = source_identity()
        setups = [] if args.trace else probe_setups(args, deadline)
        result = run_worker(args, deadline)
        if not args.trace:
            setups += [result] + probe_setups(args, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(docs_dir(args.workload, args.seed), ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        section = "per_layer"
        ok = not result["trace_errors"]
    else:
        section = "end_to_end"
        ok = True
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    for line in report(args, result, identity, setups):
        print(line)
    missing = [e["name"] for e in manifest[section] if metrics.get(e["name"]) is None]
    if missing:
        print(f"benchmark error: not measured on {args.workload}: {missing}; "
              f"trace errors: {result.get('trace_errors')}", file=sys.stderr)
        return 1
    out = {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in manifest[section]}
    print(json.dumps({"correct": ok and result["failed"] == 0 and not result["problems"],
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
