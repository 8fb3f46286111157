"""Which result-payload fields differ between two checkouts of motkit.

Usage, from anywhere:

    python3 tests/payload_diff.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts.  For every benchmark
workload (`perfbench/workloads.py` of PARENT) and seeds 1-3, the workload's
documents are written once to a temporary directory; then every op runs
in-process through each checkout's CLI (`perfbench/worker.py` of that
checkout), in one child interpreter per checkout with BLAS pinned to one
thread.  Per workload and seed it prints how many ops changed their exit
code and their payload outside `meta`, and per differing field (list
indices shown as `[]`) how many payloads moved, the largest absolute change
of a number and the largest magnitude on either side, then the commands
and documents of the ops whose payload moved.

The file name does not start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

SEEDS = (1, 2, 3)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_ops(checkout: str, argv_file: str, out_file: str) -> None:
    """Child side: each op's exit code and payload without `meta`."""
    sys.path.insert(0, str(Path(checkout) / "perfbench"))
    import worker

    cli = worker.import_cli()
    results = []
    for argv in json.loads(Path(argv_file).read_text()):
        code, text, _ = worker.run_command(cli, argv)
        try:
            payload = json.loads(text)
            payload.pop("meta", None)
        except json.JSONDecodeError:
            payload = {"<text>": text}
        results.append([code, payload])
    Path(out_file).write_text(json.dumps(results))


def _leaves(obj, key=(), name=""):
    """(indexed key, display name, value) of every leaf of a JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, key + (k,), f"{name}.{k}" if name else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, key + (i,), name + "[]")
    else:
        yield key, name, obj


def _number(value):
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    return float(value) if ok else None


def compare(before, after):
    """Ops whose exit code differs, the indices of the ops whose payload
    differs, and per field [payloads, largest |change|, largest |value|,
    non-numeric changes]."""
    codes, payloads = 0, []
    fields = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for i, ((code_a, doc_a), (code_b, doc_b)) in enumerate(zip(before, after, strict=True)):
        codes += code_a != code_b
        if doc_a == doc_b:
            continue
        payloads.append(i)
        a = {key: (name, v) for key, name, v in _leaves(doc_a)}
        b = {key: (name, v) for key, name, v in _leaves(doc_b)}
        names = set()
        for key in a.keys() | b.keys():
            if key in a and key in b and a[key][1] == b[key][1]:
                continue
            name = (a.get(key) or b[key])[0]
            names.add(name)
            x, y = (_number(side[key][1]) if key in side else None for side in (a, b))
            entry = fields[name]
            if x is None or y is None:
                entry[3] += 1
            else:
                entry[1], entry[2] = max(entry[1], abs(x - y)), max(entry[2], abs(x), abs(y))
        for name in names:
            fields[name][0] += 1
    return codes, payloads, dict(fields)


def _collect(checkout: Path, argvs_path: Path, out: Path) -> list:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    subprocess.run([sys.executable, __file__, "--run-ops", str(checkout), str(argvs_path),
                    str(out)], env=env, check=True)
    return json.loads(out.read_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    sys.path.insert(0, str(args.parent.resolve() / "perfbench"))
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                tmp = Path(tmp)
                workload = WORKLOADS[name](seed)
                workload.write(tmp)
                argvs = tmp / "argv.json"
                argvs.write_text(json.dumps([op.argv(tmp) for op in workload.ops]))
                runs = [_collect(root.resolve(), argvs, tmp / f"out{k}.json")
                        for k, root in enumerate((args.parent, args.change))]
            codes, payloads, fields = compare(*runs)
            print(f"{name} seed {seed}: {len(workload.ops)} ops, {codes} exit codes differ, "
                  f"{len(payloads)} payloads differ outside meta")
            for field, (count, change, size, other) in sorted(fields.items()):
                print(f"  {field}: {count} payloads, max |change| {change:.3g}, "
                      f"max |value| {size:.3g}, {other} non-numeric changes")
            if payloads:
                ops = workload.ops
                print("  moved:", " ".join(f"{ops[i].command}:{ops[i].doc}" for i in payloads))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run-ops"]:
        _run_ops(*sys.argv[2:5])
    else:
        main()
