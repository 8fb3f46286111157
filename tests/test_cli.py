"""CLI surface: exit codes, result documents, determinism, MPS dumps."""

import ast
import copy
import hashlib
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import motkit
from motkit import bernoulli
from motkit import lp as lp_module
from motkit import transport as transport_module
from motkit.cli import main
from motkit.documents import InstanceDocument, serialize_instance
from motkit.model import Payoff

from generators import random_market, rescaled_market


# `lp.phase_one` sums the right-hand side into the phase-1 objective, and on
# the [9e307, 0.0, -9e307] document that sum overflows (a FOUND line in
# CHANGES.md); tier-1 turns every other RuntimeWarning into an error.
PHASE_ONE_SUM_OVERFLOW = pytest.mark.filterwarnings(
    "ignore:overflow encountered in reduce:RuntimeWarning")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts solve() and phase_one() calls at every motkit binding of them,
    LpBuilder constructions and payoff expansions; "rows_max" is the most
    rows of any LP solved."""
    counts = Counter()
    originals = {"solve": lp_module.solve, "phase_one": lp_module.phase_one,
                 "builders": lp_module.LpBuilder.__init__, "expansions": Payoff.table_for}

    def counting(key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if key == "solve":
                counts["rows_max"] = max(counts["rows_max"], args[0].n_rows)
            return originals[key](*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "motkit" and module is not None:
            for attr, value in list(vars(module).items()):
                for key in ("solve", "phase_one"):
                    if value is originals[key]:
                        monkeypatch.setattr(module, attr, counting(key))
    monkeypatch.setattr(lp_module.LpBuilder, "__init__", counting("builders"))
    monkeypatch.setattr(Payoff, "table_for", counting("expansions"))
    return counts


def _straddle_market_doc(s0=1.0, epsilons=0.0, with_payoff=True):
    doc = {
        "version": 1,
        "label": "straddle",
        "axes": [
            {"index": 1, "points": [[1.0]]},
            {"index": 2, "points": [[0.0], [2.0]]},
        ],
        "constraints": [
            {"kind": "exact", "weights": [1.0]},
            {"kind": "exact", "weights": [0.5, 0.5]},
        ],
        "market": {"s0": [s0], "epsilons": [epsilons]},
    }
    if with_payoff:
        doc["payoff"] = {"kind": "named", "name": "straddle", "params": {"n": 1, "m": 2}}
    return doc


def _transport_doc():
    return {
        "version": 1,
        "axes": [
            {"index": 1, "points": [[0.0], [1.0]]},
            {"index": 2, "points": [[0.0], [1.0]]},
        ],
        "constraints": [
            {"kind": "exact", "weights": [0.5, 0.5]},
            {"kind": "exact", "weights": [0.5, 0.5]},
        ],
        "payoff": {"kind": "dense", "table": [1.0, 0.0, 0.0, 1.0]},
    }


def _straddle_overflow_doc():
    """|x_2 - x_1| reaches 3.4e308 on this grid: the straddle's table overflows."""
    return {**_transport_doc(),
            "axes": [{"index": 1, "points": [[1.7e308], [-1.7e308]]},
                     {"index": 2, "points": [[-1.7e308], [1.7e308]]}],
            "payoff": {"kind": "named", "name": "straddle", "params": {"n": 1, "m": 2}}}


def _basket_overflow_doc():
    """1e308 (x_1 + x_2) reaches 4e308 at x = (2, 2): the basket's table overflows."""
    return {**_transport_doc(),
            "axes": [{"index": n, "points": [[0.0], [2.0]]} for n in (1, 2)],
            "payoff": {"kind": "named", "name": "basket_call",
                       "params": {"weights": [1e308, 1e308], "strike": 0}}}


def _rescaled_arbitrage_doc(seed):
    """A random one-asset market in units a million times larger: phase 1 of
    its superhedge(0) ends "terminated unbounded" for seeds 13 and 41."""
    market = rescaled_market(random_market(np.random.default_rng(seed), 2, d=1,
                                           epsilons=[0.05]), 1e6)
    return json.loads(serialize_instance(
        InstanceDocument(1, "", market.instance, market, None, 1e-9)))


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _payload_without_meta(text):
    doc = json.loads(text)
    doc.pop("meta")
    return json.dumps(doc, indent=2)


class TestCounterexample:
    def test_table_output(self, runner):
        result = runner.invoke(main, ["counterexample", "--depth", "6",
                                      "--format", "table"])
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l and not l.startswith("depth")]
        assert len(lines) == 6
        for line in lines:
            _, dual, primal, gap = line.split()
            assert float(dual) == pytest.approx(1.0, abs=1e-6)
            assert float(primal) == pytest.approx(0.5, abs=1e-6)
            assert float(gap) == pytest.approx(0.5, abs=1e-6)

    def test_json_output_carries_residuals(self, runner):
        result = runner.invoke(main, ["counterexample", "--depth", "3"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["command"] == "counterexample"
        assert doc["values"]["dual_values"] == [pytest.approx(1.0)] * 3
        assert "residuals" in doc and "meta" in doc

    def test_bad_depth_is_input_error(self, runner):
        result = runner.invoke(main, ["counterexample", "--depth", "0"])
        assert result.exit_code == 1

    def test_depth_past_the_table_cap_is_input_error(self, runner, monkeypatch):
        """Depth 20 has 2^20 paths, past the dense table cap: exit 1 before any LP."""
        def unreachable(*args, **kwargs):
            raise AssertionError("gap_report called past the table cap")

        monkeypatch.setattr(bernoulli, "gap_report", unreachable)
        result = runner.invoke(main, ["counterexample", "--depth", "20"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "error: depth must be 1..19" in result.output
        assert "cap 1000000" in result.output


def _spot_mismatch_doc():
    """Spot 0.9 below the barycenter 1 of the only marginal: uniform arbitrage."""
    return {**_straddle_market_doc(s0=0.9, with_payoff=False),
            "axes": [{"index": 1, "points": [[0.0], [2.0]]}],
            "constraints": [{"kind": "exact", "weights": [0.5, 0.5]}]}


def _mixed_market_doc():
    """Two assets over two dates, one with costs, and a hull marginal."""
    return {
        "version": 1,
        "axes": [{"index": 1, "points": [[1.0, 2.0]]},
                 {"index": 2, "points": [[0.5, 1.0], [1.5, 3.0], [1.0, 2.0]]}],
        "constraints": [{"kind": "exact", "weights": [1.0]},
                        {"kind": "convex_hull",
                         "weights": [[0.25, 0.25, 0.5], [0.5, 0.5, 0.0]]}],
        "market": {"s0": [1.0, 2.0], "epsilons": [0.05, 0.0]},
        "payoff": {"kind": "dense", "table": [0.5, 1.0, 0.0]},
    }


def _dense_overflow_doc(table):
    """The mixed market with a dense payoff near the float limit: its read-off
    legs overflow when shifted by their minimum."""
    return {**_mixed_market_doc(), "payoff": {"kind": "dense", "table": table}}


class TestSolveCounts:
    @pytest.mark.parametrize("command, solves, expansions", [
        ("solve-mot", 1, 1), ("check-arbitrage", 1, 0), ("verify-duality", 1, 1)])
    def test_each_lp_solved_once(self, runner, tmp_path, lp_calls, command, solves,
                                 expansions):
        path = _write(tmp_path, "mot.json", _straddle_market_doc())
        result = runner.invoke(main, [command, "-i", path])
        assert result.exit_code == 0, result.output
        assert lp_calls["solve"] == lp_calls["builders"] == solves
        assert lp_calls["expansions"] == expansions

    @pytest.mark.parametrize("command", ["solve-transport", "verify-duality"])
    def test_transport_duality_is_one_solve(self, runner, tmp_path, lp_calls, command):
        path = _write(tmp_path, "transport.json", _transport_doc())
        result = runner.invoke(main, [command, "-i", path])
        assert result.exit_code == 0, result.output
        assert lp_calls["solve"] == lp_calls["builders"] == lp_calls["expansions"] == 1

    @pytest.mark.parametrize("command, status, values", [
        ("solve-mot", "infeasible", {"primal_status": "infeasible", "dual_status": "unbounded"}),
        ("verify-duality", "arbitrage", {"detail": "superhedging duality needs an arbitrage-free "
                                                   "market (primal infeasible, dual unbounded)"})],
        ids=["solve-mot", "verify-duality"])
    def test_infeasible_primal_answers_its_status_in_one_solve(
            self, runner, tmp_path, lp_calls, command, status, values):
        path = _write(tmp_path, "arb.json", {**_spot_mismatch_doc(),
                                             "payoff": {"kind": "dense", "table": [0.0, 0.0]}})
        result = runner.invoke(main, [command, "-i", path])
        assert result.exit_code == 2
        payload = json.loads(result.output)
        assert (payload["status"], payload["values"]) == (status, values)
        # the primal's checked phase 1 proves the superhedge LP unbounded
        assert (lp_calls["solve"], lp_calls["builders"]) == (1, 1)

    def test_uniform_arbitrage_takes_two_solves(self, runner, tmp_path, lp_calls):
        path = _write(tmp_path, "arb.json", _spot_mismatch_doc())
        result = runner.invoke(main, ["check-arbitrage", "-i", path])
        assert result.exit_code == 2
        assert json.loads(result.output)["values"]["verdict"] == "uniform"
        assert (lp_calls["solve"], lp_calls["builders"]) == (2, 1)

    def test_counterexample_solves_only_short_lps(self, runner, lp_calls):
        # per depth n <= 6: the primals of the payoffs 1 and x_n, 2n rows each,
        # from one assembly and one phase 1
        result = runner.invoke(main, ["counterexample", "--depth", "6"])
        assert result.exit_code == 0, result.output
        assert (lp_calls["solve"], lp_calls["builders"], lp_calls["phase_one"]) == (12, 6, 6)
        assert lp_calls["rows_max"] == 12


class TestDumpLp:
    # sha256 of the MPS text: the transport primal, the MOT primal, superhedge(0).
    # The document's second axis is a hull axis, so the transport and MOT
    # commands add one separation LP to their one duality solve.
    DIGESTS = {
        "transport": "3f3ada6ddb6f7cc784c0b1bf79f6b5042cba2c016a92f5501b836c89895d5044",
        "mot": "c687a998da53d46e97ff65d38edca2949db224a557cafa0c3522803277a61db9",
        "superhedge": "65668a424b0468a5d6e90f559b638db6a16d688a9b6515bdbcdc67df0b3f668e",
    }

    @pytest.mark.parametrize("command, market, lp, solves, builders", [
        ("solve-transport", False, "transport", 2, 2),
        ("solve-transport", True, "transport", 2, 2),
        ("verify-duality", False, "transport", 2, 2),
        ("solve-mot", True, "mot", 2, 2), ("check-arbitrage", True, "superhedge", 1, 1),
        ("verify-duality", True, "mot", 2, 2)])
    def test_dump_is_the_pinned_lp_and_costs_a_builder_only_when_asked(
            self, runner, tmp_path, lp_calls, command, market, lp, solves, builders):
        doc = _mixed_market_doc()
        if not market:
            doc.pop("market")
        path = _write(tmp_path, "doc.json", doc)
        plain = runner.invoke(main, [command, "-i", path])
        assert plain.exit_code == 0, plain.output
        assert (lp_calls["solve"], lp_calls["builders"]) == (solves, builders)
        built = lp_calls["builders"]
        dump = tmp_path / "dump.mps"
        dumped = runner.invoke(main, [command, "-i", path, "--dump-lp", str(dump)])
        assert dumped.exit_code == 0, dumped.output
        assert _payload_without_meta(dumped.output) == _payload_without_meta(plain.output)
        assert lp_calls["builders"] == 2 * built + 1
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == self.DIGESTS[lp]


class TestDumpBeforeSolve:
    @pytest.mark.parametrize("command, market", [
        ("solve-transport", False), ("verify-duality", False),
        ("solve-mot", True), ("verify-duality", True)],
        ids=["solve-transport", "verify-duality-transport", "solve-mot",
             "verify-duality-mot"])
    def test_dump_is_written_when_the_solve_raises(self, runner, tmp_path, monkeypatch,
                                                   command, market):
        doc = _mixed_market_doc() if market else _without_market(_mixed_market_doc())
        path = _write(tmp_path, "doc.json", doc)
        plain, failed = tmp_path / "plain.mps", tmp_path / "failed.mps"
        assert runner.invoke(main, [command, "-i", path, "--dump-lp", str(plain)]).exit_code == 0

        def raising(*args, **kwargs):
            raise lp_module.LpNumericalError("patched solve")

        monkeypatch.setattr(transport_module, "solve_primals", raising)
        result = runner.invoke(main, [command, "-i", path, "--dump-lp", str(failed)])
        assert result.exit_code == 3, result.output
        payload = json.loads(result.output)
        assert (payload["status"], payload["values"]) == ("numerical_failure",
                                                          {"detail": "patched solve"})
        assert failed.read_bytes() == plain.read_bytes()


class TestOptions:
    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_is_input_error(self, runner, tmp_path, tol):
        path = _write(tmp_path, "transport.json", _transport_doc())
        result = runner.invoke(main, ["verify-duality", "-i", path, "--tol", tol])
        assert result.exit_code == 1, result.output
        assert "--tol must be positive and finite" in result.output

    # check-arbitrage dumps superhedge(0) but has no gap to gate with --tol
    @pytest.mark.parametrize("argv, flag", [
        pytest.param(argv, flag, id=f"{flag}-argv{k}")
        for flag in ("--dump-lp", "--tol")
        for k, argv in enumerate([["counterexample", "--depth", "2"],
                                  ["bl-ingest", "--calls", "calls.json", "--maturity", "1"],
                                  ["check-arbitrage", "-i", "doc.json"]])
        if (argv[0], flag) != ("check-arbitrage", "--dump-lp")])
    def test_options_a_command_ignores_are_rejected(self, runner, tmp_path, argv, flag):
        dump = tmp_path / "x.mps"
        result = runner.invoke(main, argv + [flag, str(dump) if flag == "--dump-lp" else "0.1"])
        assert result.exit_code == 2 and "No such option" in result.output
        assert not dump.exists()


def _without_market(doc):
    doc = dict(doc)
    doc.pop("market")
    return doc


class TestPayloadDigests:
    # sha256 of the result document outside `meta`, as written when the
    # counterexample solved the tall 2^N-row LP, check-arbitrage solved
    # superhedge(0), superhedge(1) and the zero-payoff MOT primal, and the
    # transport and MOT LPs each had their own builder
    DIGESTS = {
        "counterexample": "954ba34d4142b0703c3b36ce512d50a0573cdce9790045fb64bde2e268f9c0a9",
        "straddle": "8950f4b111851ecb600ae8ea9bfbce6f0182f1c5bde27e2f2447a84a2ee336ce",
        "spot-mismatch": "33ef47789e0e4e562fd848f703425fcb10d8c9047c41a586c41439a680594067",
        "transport": "6b90bd025f7003b3f5c9a6c1f1cf5ac1243afde3a0e7208723cc27e65dd91947",
        "mixed-transport": "b242df9e5e00c3075e109e50dc09067e5e72d7bad74a040feb1a2227e758a684",
        "mixed-mot": "93a24fc4d3609757e0c2af0454d2e9a019df6e6c58aa265828d6fb34905d0782",
        "mixed-verify": "ede0b39888dcbeb874d4bb8305eb49bf46b68c6179f581e06abc11ce4ff13299",
    }

    COMMANDS = {"counterexample": "counterexample", "transport": "solve-transport",
                "mixed-transport": "solve-transport", "mixed-mot": "solve-mot",
                "mixed-verify": "verify-duality"}

    @pytest.mark.parametrize("name, doc, code", [
        ("counterexample", None, 0),
        ("straddle", _straddle_market_doc(with_payoff=False), 0),
        ("spot-mismatch", _spot_mismatch_doc(), 2),
        ("transport", _transport_doc(), 0),
        ("mixed-transport", _without_market(_mixed_market_doc()), 0),
        ("mixed-mot", _mixed_market_doc(), 0),
        ("mixed-verify", _mixed_market_doc(), 0)])
    def test_payload_is_pinned(self, runner, tmp_path, name, doc, code):
        command = self.COMMANDS.get(name, "check-arbitrage")
        argv = ([command, "--depth", "10"] if doc is None
                else [command, "-i", _write(tmp_path, "doc.json", doc)])
        result = runner.invoke(main, argv)
        assert result.exit_code == code, result.output
        digest = hashlib.sha256(_payload_without_meta(result.output).encode()).hexdigest()
        assert digest == self.DIGESTS[name]


class TestPivotRuleOption:
    """The engine has one pivot rule.  Documents written before carry
    "pivot_rule": "dantzig", which still parses and changes nothing; any
    other rule exits 1 at its field."""

    @pytest.mark.parametrize("command, doc, code", [
        ("solve-transport", _transport_doc(), 0),
        ("solve-mot", _mixed_market_doc(), 0),
        ("check-arbitrage", _spot_mismatch_doc(), 2),
        ("verify-duality", _mixed_market_doc(), 0)],
        ids=["solve-transport", "solve-mot", "check-arbitrage", "verify-duality"])
    def test_only_dantzig_is_accepted(self, runner, tmp_path, command, doc, code):
        def run(name, options=None):
            payload = doc if options is None else {**doc, "options": options}
            return runner.invoke(main, [command, "-i", _write(tmp_path, name, payload)])

        bland = run("bland.json", {"pivot_rule": "bland"})
        assert bland.exit_code == 1 and isinstance(bland.exception, SystemExit)
        assert "error: $.options.pivot_rule: " in bland.output
        plain, dantzig = run("plain.json"), run("dantzig.json", {"pivot_rule": "dantzig"})
        assert plain.exit_code == dantzig.exit_code == code, dantzig.output
        assert _payload_without_meta(dantzig.output) == _payload_without_meta(plain.output)


def test_no_module_imports_a_private_name_of_another():
    package = Path(motkit.__file__).resolve().parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "motkit"
                                                     or node.module.startswith("motkit.")):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert not private


def test_only_transport_solves_or_certifies():
    """The duality route stays one route: no module but transport binds
    `lp.solve`, `lp.phase_one` or `assembly.certified`.  The package
    namespace re-exports `solve` for library users and calls nothing."""
    package = Path(motkit.__file__).resolve().parent
    bound = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("transport.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                bound += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name in ("solve", "phase_one", "certified")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and (node.value.id, node.attr) in (("lp", "solve"), ("lp", "phase_one"),
                                                     ("assembly", "certified"))):
                bound.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert not bound


def test_only_primal_side_builds_a_dual_side():
    """A dual side has one id layout and one reader: the only call that
    constructs a `DualSide` is in `assembly.PrimalLp.side`."""
    package = Path(motkit.__file__).resolve().parent
    calls = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        readers = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "side"]
        calls += [(path.name, any(first <= node.lineno <= last for first, last in readers))
                  for node in ast.walk(tree) if isinstance(node, ast.Call) and "DualSide" in (
                      getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == [("assembly.py", True)]


def _cli_calls(names):
    """(enclosing def, callee) of each call in cli.py to a callee named in `names`."""
    path = Path(motkit.__file__).resolve().parent / "cli.py"

    def calls(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = (f"{scope}.{child.name}".lstrip(".")
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope)
            if isinstance(child, ast.Call):
                yield inner, ast.unparse(child.func)
            yield from calls(child, inner)

    return {(scope, name) for scope, name in calls(ast.parse(path.read_text()), "")
            if name.rsplit(".", 1)[-1] in names}


def test_one_result_path_in_the_cli():
    """Only `_Command.invoke` renders a result or exits with its status, and
    `_fail` exits 1 on an input error: no command callback does either."""
    assert _cli_calls(("render_result", "exit", "SystemExit")) == {
        ("_Command.invoke", "render_result"), ("_Command.invoke", "sys.exit"),
        ("_fail", "sys.exit")}


def test_one_dump_and_one_duality_body_in_the_cli():
    """Only `_write` writes a file, only `_dump` writes an LP, and only
    `_duality` asks either duality report: the three duality commands share
    one body, which dumps before it solves."""
    assert _cli_calls(("write_output", "write_mps", "duality_report",
                       "superhedging_duality_report")) == {
        ("_write", "write_output"), ("_dump", "write_mps"), ("_duality", "duality_report"),
        ("_duality", "superhedging_duality_report")}
    assert not hasattr(motkit.cli, "_maybe_dump_primal")


def test_exported_names_resolve():
    """Each module's `__all__` and each name the package imports exist, and
    the strategy types and the wrapper that `DualSide` replaced stay gone."""
    package = Path(motkit.__file__).resolve().parent
    modules = [importlib.import_module(f"motkit.{info.name}")
               for info in pkgutil.iter_modules([str(package)])]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    imported = [alias.asname or alias.name
                for node in ast.walk(ast.parse((package / "__init__.py").read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    missing += [f"motkit.{name}" for name in imported if not hasattr(motkit, name)]
    assert imported and not missing
    removed = ("SemiStaticStrategy", "TransportDualSolution", "SuperhedgeResult")
    assert not [(m.__name__, name) for m in [motkit] + modules for name in removed
                if hasattr(m, name)]


def test_cli_import_loads_no_scipy():
    src = str(Path(motkit.__file__).resolve().parent.parent)
    code = ("import sys, motkit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


class TestSolveTransport:
    def test_result_document(self, runner, tmp_path):
        path = _write(tmp_path, "transport.json", _transport_doc())
        result = runner.invoke(main, ["solve-transport", "-i", path])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["status"] == "ok"
        assert doc["values"]["primal_value"] == pytest.approx(1.0, abs=1e-8)
        assert doc["values"]["gap_within_tol"] is True
        assert doc["residuals"]["superreplication_min"] >= -1e-8

    def test_matches_verify_duality(self, runner, tmp_path):
        path = _write(tmp_path, "transport.json", _transport_doc())
        solve_out = runner.invoke(main, ["solve-transport", "-i", path])
        verify_out = runner.invoke(main, ["verify-duality", "-i", path])
        assert verify_out.exit_code == 0
        a = json.loads(solve_out.output)["values"]["primal_value"]
        b = json.loads(verify_out.output)["values"]["primal_value"]
        assert a == b

    def test_determinism_excluding_meta(self, runner, tmp_path):
        path = _write(tmp_path, "transport.json", _transport_doc())
        first = runner.invoke(main, ["solve-transport", "-i", path])
        second = runner.invoke(main, ["solve-transport", "-i", path])
        assert _payload_without_meta(first.output) == _payload_without_meta(second.output)

    def test_missing_payoff_is_input_error(self, runner, tmp_path):
        doc = _transport_doc()
        doc.pop("payoff")
        path = _write(tmp_path, "nopayoff.json", doc)
        result = runner.invoke(main, ["solve-transport", "-i", path])
        assert result.exit_code == 1

    def test_schema_error_is_input_error(self, runner, tmp_path):
        doc = _transport_doc()
        doc["constraints"][0]["weights"] = [0.4, 0.4]
        path = _write(tmp_path, "bad.json", doc)
        result = runner.invoke(main, ["solve-transport", "-i", path])
        assert result.exit_code == 1
        assert "probability" in result.output

    def test_dump_lp_writes_mps(self, runner, tmp_path):
        path = _write(tmp_path, "transport.json", _transport_doc())
        dump = tmp_path / "debug.mps"
        result = runner.invoke(main, ["solve-transport", "-i", path,
                                      "--dump-lp", str(dump)])
        assert result.exit_code == 0
        text = dump.read_text()
        assert text.startswith("NAME") and "ENDATA" in text


class TestMalformedNumbers:
    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["axes"][0].update(points=[[0.0, 1.0], [2.0]]), "$.axes[0].points"),
        (lambda doc: doc["axes"][1].update(index=True), "$.axes[1].index"),
        (lambda doc: doc["constraints"][1].update(weights=[{"a": 1}, 0.5]),
         "$.constraints[1].weights"),
        (lambda doc: doc["constraints"][1].update(weights=[True, False]),
         "$.constraints[1].weights"),
        (lambda doc: doc.update(options={"tol": True}), "$.options.tol"),
        (lambda doc: doc.update(_straddle_overflow_doc()), "$.payoff.params.m"),
        (lambda doc: doc.update(_basket_overflow_doc()), "$.payoff.params.weights")])
    @pytest.mark.parametrize("command", ["solve-transport", "verify-duality"])
    def test_exit_one_naming_the_field(self, runner, tmp_path, command, edit, field):
        doc = _transport_doc()
        edit(doc)
        result = runner.invoke(main, [command, "-i", _write(tmp_path, "doc.json", doc)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: {field}: " in result.output and "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["solve-transport", "verify-duality"])
    def test_straddle_between_asset_widths_exits_one(self, runner, tmp_path, command):
        """x_2 has two assets and x_1 one: the norm would broadcast."""
        doc = {**_transport_doc(),
               "payoff": {"kind": "named", "name": "straddle", "params": {"n": 1, "m": 2}}}
        doc["axes"][1]["points"] = [[0.0, 1.0], [1.0, 0.0]]
        result = runner.invoke(main, [command, "-i", _write(tmp_path, "doc.json", doc)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "error: $.payoff.params.m: must be " in result.output

    @pytest.mark.parametrize("command", ["solve-mot", "check-arbitrage", "verify-duality"])
    def test_market_coefficients_that_overflow_exit_one(self, runner, tmp_path, command):
        """(1 + eps) S_0 - S_1 overflows at a point of 1.7e308 and eps 0.1."""
        doc = {**_spot_mismatch_doc(), "payoff": {"kind": "dense", "table": [0.0, 0.0]}}
        doc["axes"][0]["points"] = [[1.7e308], [0.0]]
        doc["market"] = {"s0": [1.0], "epsilons": [0.1]}
        result = runner.invoke(main, [command, "-i", _write(tmp_path, "doc.json", doc)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "error: $.market: " in result.output and "Traceback" not in result.output


class TestSolveMot:
    def test_straddle_market(self, runner, tmp_path):
        path = _write(tmp_path, "mot.json", _straddle_market_doc())
        result = runner.invoke(main, ["solve-mot", "-i", path])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["values"]["primal_value"] == pytest.approx(1.0, abs=1e-8)
        assert doc["values"]["dual_value"] == pytest.approx(1.0, abs=1e-8)
        assert doc["optimizers"]["legs"]

    @pytest.mark.parametrize("block, value, field", [
        ("market", {"s0": [1.0], "epsilon": [0.5]}, "$.market.epsilon"),
        ("payoff", {"kind": "named", "name": "straddle", "params": {"n": 1, "k": 2}},
         "$.payoff.params")])
    def test_unknown_nested_field_exits_one(self, runner, tmp_path, block, value, field):
        path = _write(tmp_path, "mot.json", {**_straddle_market_doc(), block: value})
        result = runner.invoke(main, ["solve-mot", "-i", path])
        assert result.exit_code == 1
        assert f"error: {field}:" in result.output

    @pytest.mark.parametrize("name, params, field", [
        ("straddle", {"n": 0, "m": 2}, "n"),
        ("straddle", {"n": 2 ** 70, "m": 2}, "n"),
        ("straddle", {"n": [1], "m": 2}, "n"),
        ("straddle", {"n": "NaN", "m": 2}, "n"),
        ("straddle", {"n": 1.5, "m": 2}, "n"),
        ("straddle", {"n": True, "m": 2}, "n"),
        ("straddle", {"n": 1, "m": 3}, "m"),
        ("forward", {"n": 3}, "n"),
        ("forward", {"n": 1, "asset": 5}, "asset"),
        ("cylinder_liminf", {"depth": 9}, "depth"),
        ("basket_call", {"weights": [1.0], "strike": 1.0}, "weights"),
        ("basket_call", {"weights": [1.0, [1.0, 2.0]], "strike": 1.0}, "weights"),
        ("basket_call", {"weights": [1.0, 1.0], "strike": "1"}, "strike"),
        ("basket_call", {"weights": [1.0, 1.0], "strike": [1.0]}, "strike")])
    def test_named_params_that_miss_the_instance_exit_one(self, runner, tmp_path, name,
                                                          params, field):
        """Checked at parse time against the two-axis, one-asset grid."""
        doc = {**_straddle_market_doc(),
               "payoff": {"kind": "named", "name": name, "params": params}}
        result = runner.invoke(main, ["solve-mot", "-i", _write(tmp_path, "mot.json", doc)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: $.payoff.params.{field}: must be " in result.output

    def test_infeasible_market_exits_two(self, runner, tmp_path):
        doc = {
            "version": 1,
            "axes": [{"index": 1, "points": [[0.0], [2.0]]}],
            "constraints": [{"kind": "exact", "weights": [0.5, 0.5]}],
            "market": {"s0": [0.9], "epsilons": [0.0]},
            "payoff": {"kind": "dense", "table": [0.0, 0.0]},
        }
        path = _write(tmp_path, "bad-market.json", doc)
        result = runner.invoke(main, ["solve-mot", "-i", path])
        assert result.exit_code == 2
        payload = json.loads(result.output)
        assert payload["status"] in ("infeasible", "arbitrage")


class TestCheckArbitrage:
    def test_spot_mismatch_exits_two(self, runner, tmp_path):
        doc = _straddle_market_doc(s0=0.9, with_payoff=False)
        doc["axes"] = [{"index": 1, "points": [[0.0], [2.0]]}]
        doc["constraints"] = [{"kind": "exact", "weights": [0.5, 0.5]}]
        path = _write(tmp_path, "arb.json", doc)
        result = runner.invoke(main, ["check-arbitrage", "-i", path])
        assert result.exit_code == 2
        payload = json.loads(result.output)
        assert payload["values"]["verdict"] != "no_arbitrage"
        assert payload["values"]["ftap_equivalent"] is True
        assert payload["optimizers"]["witness"]["cost"] <= 1e-9

    def test_arbitrage_free_market_exits_zero(self, runner, tmp_path):
        path = _write(tmp_path, "ok.json", _straddle_market_doc(with_payoff=False))
        result = runner.invoke(main, ["check-arbitrage", "-i", path])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["values"]["verdict"] == "no_arbitrage"


class TestNumericalFailure:
    @pytest.mark.parametrize("seed", [13, 41])
    def test_unanswered_lp_exits_three(self, runner, tmp_path, seed):
        """An `LpError` is a result document stating the failure, not a traceback."""
        path = _write(tmp_path, "doc.json", _rescaled_arbitrage_doc(seed))
        result = runner.invoke(main, ["check-arbitrage", "-i", path])
        assert result.exit_code == 3 and isinstance(result.exception, SystemExit)
        payload = json.loads(result.output)
        assert (payload["command"], payload["status"]) == ("check-arbitrage",
                                                           "numerical_failure")
        assert payload["values"] == {"detail": "phase 1 terminated unbounded"}

    @pytest.mark.parametrize("command", ["solve-mot", "verify-duality"])
    @pytest.mark.parametrize("table, status, code", [
        ([0.5, 1.0, 1.7e308], "ok", 0),
        pytest.param([9e307, 0.0, -9e307], "numerical_failure", 3,
                     marks=PHASE_ONE_SUM_OVERFLOW)])
    def test_overflowing_read_off_falls_back(self, runner, tmp_path, command, table, status,
                                             code):
        """Read-off legs that overflow are not certified: the superhedge LP
        answers, or its `LpError` does, instead of a traceback."""
        path = _write(tmp_path, "doc.json", _dense_overflow_doc(table))
        result = runner.invoke(main, [command, "-i", path])
        assert result.exit_code == code, result.output
        assert json.loads(result.stdout)["status"] == status


class TestTableFormat:
    @pytest.mark.parametrize("command, doc, code", [
        ("solve-transport", _transport_doc(), 0),
        ("solve-mot", _straddle_market_doc(), 0),
        ("solve-mot", {**_spot_mismatch_doc(), "payoff": {"kind": "dense", "table": [0.0, 0.0]}},
         2),
        ("check-arbitrage", _spot_mismatch_doc(), 2),
        ("check-arbitrage", _rescaled_arbitrage_doc(13), 3),
        ("verify-duality", _straddle_market_doc(), 0),
        ("bl-ingest", {"strikes": [0.0, 1.0, 2.0], "prices": [1.0, 0.2, 0.5]}, 2)],
        ids=["solve-transport", "solve-mot", "solve-mot-arbitrage", "check-arbitrage",
             "check-arbitrage-failure", "verify-duality", "bl-ingest-arbitrage"])
    def test_table_keeps_the_exit_code_and_lists_the_keys(self, runner, tmp_path, command,
                                                          doc, code):
        path = _write(tmp_path, "doc.json", doc)
        argv = ([command, "--calls", path, "--maturity", "1"] if command == "bl-ingest"
                else [command, "-i", path])
        plain = runner.invoke(main, argv)
        table = runner.invoke(main, argv + ["--format", "table"])
        assert plain.exit_code == table.exit_code == code, table.output
        payload = json.loads(plain.stdout)
        keys = [line.split()[0] for line in table.stdout.splitlines()]
        rule = next(k for k, key in enumerate(keys) if set(key) == {"-"})
        assert keys[:rule] == list(payload["values"])
        assert keys[rule + 1:] == list(payload["residuals"])


def _places(node):
    """(container, key) of every field and entry of a JSON value, nested ones too."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield node, key
        yield from _places(value)


class TestMutationSweep:
    COMMANDS = ("solve-transport", "solve-mot", "check-arbitrage", "verify-duality")
    SUBSTITUTES = (0.0, -1.0, 0.5, 3.0, 1e-300, 1e308, -1.7e308, 2 ** 70, True, "x", None,
                   [], {})

    @classmethod
    def _mutated(cls, rng, doc):
        """A copy of `doc` with its prices times 10^k half the time, then up to
        two fields or entries scaled by 10^k, replaced or dropped."""
        doc = copy.deepcopy(doc)
        if rng.integers(2):
            factor = 10.0 ** int(rng.integers(-9, 10))
            for axis in doc["axes"]:
                axis["points"] = (np.asarray(axis["points"]) * factor).tolist()
            if "market" in doc:
                doc["market"]["s0"] = [s * factor for s in doc["market"]["s0"]]
        for _ in range(rng.integers(3)):
            places = list(_places(doc))
            node, key = places[rng.integers(len(places))]
            number = isinstance(node[key], (int, float)) and not isinstance(node[key], bool)
            if number and rng.integers(2):
                node[key] = node[key] * 10.0 ** int(rng.integers(-9, 10))
            elif rng.integers(4):
                node[key] = cls.SUBSTITUTES[rng.integers(len(cls.SUBSTITUTES))]
            else:
                del node[key]
        return doc

    @PHASE_ONE_SUM_OVERFLOW
    def test_no_document_ends_in_a_traceback(self, runner, tmp_path):
        """Every mutated fixture document, and each overflowing or rescaled one,
        ends in a result document or an error line: exit 0 to 3."""
        rng = np.random.default_rng(0)
        fixtures = [_straddle_market_doc(), _transport_doc(), _spot_mismatch_doc(),
                    _mixed_market_doc()]
        docs = [_straddle_overflow_doc(), _basket_overflow_doc(),
                _rescaled_arbitrage_doc(13), _rescaled_arbitrage_doc(41),
                _dense_overflow_doc([0.5, 1.0, 1.7e308]), _dense_overflow_doc([9e307, 0.0, -9e307])]
        docs += [self._mutated(rng, fixtures[k % 4]) for k in range(300)]
        path = tmp_path / "doc.json"
        codes = Counter()
        for doc in docs:
            path.write_text(json.dumps(doc))
            for command in self.COMMANDS:
                result = runner.invoke(main, [command, "-i", str(path)])
                assert result.exception is None or isinstance(result.exception, SystemExit), (
                    command, json.dumps(doc), repr(result.exception))
                codes[result.exit_code] += 1
        assert set(codes) == {0, 1, 2, 3}, codes


def test_benchmark_tracer_installs():
    """perfbench/spans.py wraps named motkit functions at every binding: a
    name it wraps that is gone fails here, not only in a traced benchmark run."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up there
    try:
        spec.loader.exec_module(spans)
        installation = spans.Installation(spans.Tracer())
        try:
            installation.check_complete()
        finally:
            installation.remove()
    finally:
        del sys.modules[spec.name]
    wrapped = {f"{module.split('.')[-1]}.{name}" for module, name in spans.FUNCTIONS}
    assert wrapped | {name for *_, name in spans.METHODS} == set(installation.bindings)


class TestVerifyDualityMarket:
    def test_market_document_uses_superhedging_report(self, runner, tmp_path):
        path = _write(tmp_path, "mot.json", _straddle_market_doc(epsilons=0.05))
        result = runner.invoke(main, ["verify-duality", "-i", path])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["values"]["gap_within_tol"] is True


class TestBlIngest:
    def test_recovery_roundtrip(self, runner, tmp_path):
        calls = tmp_path / "calls.json"
        calls.write_text(json.dumps({"strikes": [0.0, 1.0, 2.0],
                                     "prices": [1.0, 0.25, 0.0]}))
        out = tmp_path / "measure.json"
        result = runner.invoke(main, ["bl-ingest", "--calls", str(calls),
                                      "--maturity", "2", "-o", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["values"]["weights"] == pytest.approx([0.25, 0.5, 0.25])
        assert payload["residuals"]["max_repricing_error"] <= 1e-9

    def test_arbitrage_quotes_exit_two(self, runner, tmp_path):
        calls = tmp_path / "calls.json"
        calls.write_text(json.dumps({"strikes": [0.0, 1.0, 2.0],
                                     "prices": [1.0, 0.2, 0.5]}))
        result = runner.invoke(main, ["bl-ingest", "--calls", str(calls),
                                      "--maturity", "1"])
        assert result.exit_code == 2
        payload = json.loads(result.output)
        assert payload["status"] == "static_arbitrage"

    @pytest.mark.parametrize("quotes, field", [
        ({"strikes": {"a": 1}, "prices": [1.0]}, "$.strikes"),
        ({"strikes": [0.0, 1.0], "prices": [1.0, "0.5"]}, "$.prices"),
        ({"strikes": [0.0, 1.0], "prices": [True, False]}, "$.prices"),
        ({"strikes": [[0.0, 1.0], [2.0]], "prices": [1.0, 0.5]}, "$.strikes"),
        ({"strikes": [0.0, 1.0]}, "$")])
    def test_malformed_quotes_are_input_errors(self, runner, tmp_path, quotes, field):
        calls = _write(tmp_path, "calls.json", quotes)
        result = runner.invoke(main, ["bl-ingest", "--calls", calls, "--maturity", "1"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: {field}: " in result.output and "Traceback" not in result.output

    def test_unreadable_file_is_input_error(self, runner, tmp_path):
        result = runner.invoke(main, ["bl-ingest", "--calls",
                                      str(tmp_path / "missing.json"),
                                      "--maturity", "1"])
        assert result.exit_code == 1


class TestOutputFile:
    def test_atomic_write_to_path(self, runner, tmp_path):
        path = _write(tmp_path, "transport.json", _transport_doc())
        out = tmp_path / "result.json"
        result = runner.invoke(main, ["solve-transport", "-i", path, "-o", str(out)])
        assert result.exit_code == 0
        assert json.loads(out.read_text())["status"] == "ok"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".motkit-")]
        assert not leftovers

    def test_unwritable_result_is_input_error(self, runner, tmp_path):
        path = _write(tmp_path, "transport.json", _transport_doc())
        out = tmp_path / "missing" / "result.json"
        result = runner.invoke(main, ["solve-transport", "-i", path, "-o", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out}: " in result.output

    def test_unwritable_dump_exits_before_the_solve(self, runner, tmp_path, lp_calls):
        path = _write(tmp_path, "transport.json", _transport_doc())
        dump, out = tmp_path / "missing" / "x.mps", tmp_path / "result.json"
        result = runner.invoke(main, ["solve-transport", "-i", path, "--dump-lp", str(dump),
                                      "-o", str(out)])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert f"error: cannot write {dump}: " in result.output
        # nothing is built, solved or written
        assert (lp_calls["solve"], lp_calls["builders"]) == (0, 0) and not out.exists()
