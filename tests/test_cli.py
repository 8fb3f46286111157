"""CLI surface: exit codes, result documents, determinism, MPS dumps."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import motkit
from motkit import lp as lp_module
from motkit.cli import main
from motkit.model import Payoff


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts solve() calls at every motkit binding of it, LpBuilder
    constructions and payoff expansions; "rows_max" is the most rows of
    any LP solved."""
    counts = Counter()
    originals = {"solve": lp_module.solve, "builders": lp_module.LpBuilder.__init__,
                 "expansions": Payoff.table_for}

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
                if value is originals["solve"]:
                    monkeypatch.setattr(module, attr, counting("solve"))
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


class TestSolveCounts:
    # check-arbitrage also builds superhedge(0) and superhedge(1), whose
    # certificates it checks against their own LPs without solving them
    BUILDERS = {"check-arbitrage": 3}

    @pytest.mark.parametrize("command, solves, expansions", [
        ("solve-mot", 1, 1), ("check-arbitrage", 1, 0), ("verify-duality", 1, 1)])
    def test_each_lp_solved_once(self, runner, tmp_path, lp_calls, command, solves,
                                 expansions):
        path = _write(tmp_path, "mot.json", _straddle_market_doc())
        result = runner.invoke(main, [command, "-i", path])
        assert result.exit_code == 0, result.output
        assert lp_calls["solve"] == solves
        assert lp_calls["builders"] == self.BUILDERS.get(command, solves)
        assert lp_calls["expansions"] == expansions

    @pytest.mark.parametrize("command", ["solve-transport", "verify-duality"])
    def test_transport_duality_is_one_solve(self, runner, tmp_path, lp_calls, command):
        path = _write(tmp_path, "transport.json", _transport_doc())
        result = runner.invoke(main, [command, "-i", path])
        assert result.exit_code == 0, result.output
        assert lp_calls["solve"] == lp_calls["builders"] == lp_calls["expansions"] == 1

    def test_infeasible_primal_still_solves_the_superhedge_for_its_status(
            self, runner, tmp_path, lp_calls):
        path = _write(tmp_path, "arb.json", {**_spot_mismatch_doc(),
                                             "payoff": {"kind": "dense", "table": [0.0, 0.0]}})
        result = runner.invoke(main, ["solve-mot", "-i", path])
        assert result.exit_code == 2
        assert json.loads(result.output)["values"] == {"primal_status": "infeasible",
                                                       "dual_status": "unbounded"}
        assert lp_calls["solve"] == lp_calls["builders"] == 2

    def test_uniform_arbitrage_takes_two_solves(self, runner, tmp_path, lp_calls):
        path = _write(tmp_path, "arb.json", _spot_mismatch_doc())
        result = runner.invoke(main, ["check-arbitrage", "-i", path])
        assert result.exit_code == 2
        assert json.loads(result.output)["values"]["verdict"] == "uniform"
        assert (lp_calls["solve"], lp_calls["builders"]) == (2, 3)

    def test_counterexample_solves_only_short_lps(self, runner, lp_calls):
        # per depth n <= 6: the primals of the payoffs 1 and x_n, 2n rows each
        result = runner.invoke(main, ["counterexample", "--depth", "6"])
        assert result.exit_code == 0, result.output
        assert lp_calls["solve"] == lp_calls["builders"] == 12
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
        ("solve-mot", True, "mot", 2, 2), ("check-arbitrage", True, "superhedge", 1, 3),
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


class TestPayloadDigests:
    # sha256 of the result document outside `meta`, as written when the
    # counterexample solved the tall 2^N-row LP and check-arbitrage solved
    # superhedge(0), superhedge(1) and the zero-payoff MOT primal
    DIGESTS = {
        "counterexample": "954ba34d4142b0703c3b36ce512d50a0573cdce9790045fb64bde2e268f9c0a9",
        "straddle": "8950f4b111851ecb600ae8ea9bfbce6f0182f1c5bde27e2f2447a84a2ee336ce",
        "spot-mismatch": "33ef47789e0e4e562fd848f703425fcb10d8c9047c41a586c41439a680594067",
    }

    @pytest.mark.parametrize("name, doc, code", [
        ("counterexample", None, 0),
        ("straddle", _straddle_market_doc(with_payoff=False), 0),
        ("spot-mismatch", _spot_mismatch_doc(), 2)])
    def test_payload_is_pinned(self, runner, tmp_path, name, doc, code):
        argv = (["counterexample", "--depth", "10"] if doc is None
                else ["check-arbitrage", "-i", _write(tmp_path, "doc.json", doc)])
        result = runner.invoke(main, argv)
        assert result.exit_code == code, result.output
        digest = hashlib.sha256(_payload_without_meta(result.output).encode()).hexdigest()
        assert digest == self.DIGESTS[name]


class TestPivotRuleScope:
    @pytest.mark.parametrize("command, doc, code", [
        ("solve-transport", _transport_doc(), 0),
        ("check-arbitrage", _spot_mismatch_doc(), 2)])
    def test_document_rule_ends_with_its_command(self, runner, tmp_path, monkeypatch,
                                                 command, doc, code):
        rules = []
        run_simplex = lp_module._run_simplex

        def recording(tableau, basis, allowed, pivot_rule, *rest):
            rules.append(pivot_rule)
            return run_simplex(tableau, basis, allowed, pivot_rule, *rest)

        monkeypatch.setattr(lp_module, "_run_simplex", recording)
        path = _write(tmp_path, "bland.json", {**doc, "options": {"pivot_rule": "bland"}})
        result = runner.invoke(main, [command, "-i", path])
        assert result.exit_code == code, result.output
        assert rules and set(rules) == {"bland"}
        rules.clear()
        lp = lp_module.LinearProgram("min", np.array([1.0]), np.array([0.0]),
                                     np.array([np.inf]), np.array([[1.0]]), (">=",),
                                     np.array([2.0]))
        assert lp_module.solve(lp).value == pytest.approx(2.0)
        assert rules and set(rules) == {"dantzig"}


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


class TestSolveMot:
    def test_straddle_market(self, runner, tmp_path):
        path = _write(tmp_path, "mot.json", _straddle_market_doc())
        result = runner.invoke(main, ["solve-mot", "-i", path])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["values"]["primal_value"] == pytest.approx(1.0, abs=1e-8)
        assert doc["values"]["dual_value"] == pytest.approx(1.0, abs=1e-8)
        assert doc["optimizers"]["legs"]

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
