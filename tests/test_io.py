"""Document round-trips, schema rejection paths, and call-curve recovery."""

import json

import numpy as np
import pytest

from motkit.calls import CallQuoteCurve, StaticArbitrageError, marginal_from_calls
from motkit.documents import (
    DocumentError,
    InstanceDocument,
    parse_instance,
    serialize_instance,
)

from generators import dyadic_probability, random_exact_instance, random_hull_instance


def _minimal_doc():
    return {
        "version": 1,
        "axes": [{"index": 1, "points": [[0.0], [1.0]]}],
        "constraints": [{"kind": "exact", "weights": [0.5, 0.5]}],
    }


class TestParsing:
    def test_minimal_one_axis_document(self):
        doc = parse_instance(json.dumps(_minimal_doc()))
        assert doc.instance.horizon == 1
        assert doc.instance.axes[0].npoints == 2
        assert doc.market is None and doc.payoff is None
        assert doc.tol == 1e-9

    def test_probability_invariant_rejection(self):
        raw = _minimal_doc()
        raw["constraints"][0]["weights"] = [0.5, 0.499999]
        with pytest.raises(DocumentError, match="probability invariant"):
            parse_instance(json.dumps(raw))

    def test_nan_rejected(self):
        text = json.dumps(_minimal_doc()).replace("0.5, 0.5", "NaN, 1.0")
        with pytest.raises(DocumentError, match="non-finite"):
            parse_instance(text)

    def test_unknown_fields_rejected(self):
        raw = _minimal_doc()
        raw["surprise"] = 1
        with pytest.raises(DocumentError, match="unknown fields"):
            parse_instance(json.dumps(raw))

    def test_error_paths_name_the_field(self):
        raw = _minimal_doc()
        raw["constraints"][0]["kind"] = "mystery"
        with pytest.raises(DocumentError) as err:
            parse_instance(json.dumps(raw))
        assert err.value.path == "$.constraints[0].kind"

    def test_market_block_validation(self):
        raw = _minimal_doc()
        raw["market"] = {"s0": [1.0], "epsilons": [0.0], "horizon": 2}
        with pytest.raises(DocumentError, match="horizon"):
            parse_instance(json.dumps(raw))
        raw["market"] = {"s0": [1.0, 2.0]}
        with pytest.raises(DocumentError, match="s0"):
            parse_instance(json.dumps(raw))
        raw["market"] = {"s0": [1.0], "epsilons": [0.01]}
        doc = parse_instance(json.dumps(raw))
        assert doc.market is not None
        assert doc.market.epsilons[0] == 0.01

    def test_dense_payoff_length_check(self):
        raw = _minimal_doc()
        raw["payoff"] = {"kind": "dense", "table": [1.0, 2.0, 3.0]}
        with pytest.raises(DocumentError, match="entries"):
            parse_instance(json.dumps(raw))

    @pytest.mark.parametrize("block, field", [
        ("axis", "$.axes[0].weights"),
        ("constraint", "$.constraints[0].points"),
        ("payoff-dense", "$.payoff.legs"),
        ("payoff-separable", "$.payoff.table"),
        ("payoff-named", "$.payoff.table"),
        ("market", "$.market.epsilon"),
        ("options", "$.options.pivot")])
    def test_nested_unknown_fields_rejected(self, block, field):
        raw = _minimal_doc()
        if block == "axis":
            raw["axes"][0]["weights"] = [0.5, 0.5]
        elif block == "constraint":
            raw["constraints"][0]["points"] = [[0.0], [1.0]]
        elif block.startswith("payoff"):
            kind = block.split("-")[1]
            raw["payoff"] = {"dense": {"kind": "dense", "table": [1.0, 0.0], "legs": [[1.0]]},
                             "separable": {"kind": "separable", "legs": [[1.0, 0.0]],
                                           "table": [1.0, 0.0]},
                             "named": {"kind": "named", "name": "forward",
                                       "params": {"n": 1}, "table": [1.0, 0.0]}}[kind]
        elif block == "market":
            # a misspelt "epsilons" must not leave the market frictionless
            raw["market"] = {"s0": [1.0], "epsilon": [0.5]}
        else:
            raw["options"] = {"tol": 1e-9, "pivot": "bland"}
        with pytest.raises(DocumentError, match="unknown fields") as err:
            parse_instance(json.dumps(raw))
        assert err.value.path == field

    @pytest.mark.parametrize("params", [{"n": 1, "k": 2}, {"n": 1}, {"instance": None}])
    def test_named_payoff_params_must_fit_the_generator(self, params):
        raw = _minimal_doc()
        raw["axes"].append({"index": 2, "points": [[0.0], [2.0]]})
        raw["constraints"].append({"kind": "exact", "weights": [0.5, 0.5]})
        raw["payoff"] = {"kind": "named", "name": "straddle", "params": params}
        with pytest.raises(DocumentError) as err:
            parse_instance(json.dumps(raw))
        assert err.value.path == "$.payoff.params"
        raw["payoff"]["params"] = {"n": 1, "m": 2}
        doc = parse_instance(json.dumps(raw))
        assert doc.payoff.table_for(doc.instance).tolist() == [0.0, 2.0, 1.0, 1.0]

    @pytest.mark.parametrize("edit, field", [
        (lambda raw: raw["axes"][0].update(points=[[0.0, 1.0], [2.0]]), "$.axes[0].points"),
        (lambda raw: raw["axes"][0].update(points=[[0.0], [10 ** 400]]), "$.axes[0].points"),
        (lambda raw: raw["axes"][0].update(points="[0, 1]"), "$.axes[0].points"),
        (lambda raw: raw["axes"][0].update(index=True), "$.axes[0].index"),
        (lambda raw: raw["constraints"][0].update(weights=[{"a": 1}, 0.5]),
         "$.constraints[0].weights"),
        (lambda raw: raw["constraints"][0].update(weights=[True, False]),
         "$.constraints[0].weights"),
        (lambda raw: raw.update(options={"tol": True}), "$.options.tol"),
        (lambda raw: raw.update(options={"tol": [1e-9]}), "$.options.tol"),
        (lambda raw: raw.update(market={"s0": [[1.0], [2.0, 3.0]]}), "$.market.s0"),
        (lambda raw: raw.update(market={"s0": [1.0], "horizon": True}), "$.market.horizon"),
        (lambda raw: raw.update(payoff={"kind": "dense", "table": [1.0, None]}),
         "$.payoff.table"),
        (lambda raw: raw.update(version=True), "$.version")])
    def test_malformed_numbers_name_the_field(self, edit, field):
        # ragged or non-numeric arrays and JSON booleans are not numbers
        raw = _minimal_doc()
        edit(raw)
        with pytest.raises(DocumentError) as err:
            parse_instance(json.dumps(raw))
        assert err.value.path == field

    def test_named_payoff_requires_known_generator(self):
        raw = _minimal_doc()
        raw["payoff"] = {"kind": "named", "name": "mystery"}
        with pytest.raises(DocumentError, match="unknown generator"):
            parse_instance(json.dumps(raw))


class TestRoundTrip:
    def test_fifty_random_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            if trial % 2 == 0:
                instance = random_exact_instance(rng, int(rng.integers(1, 4)),
                                                 max_points=4)
            else:
                instance = random_hull_instance(rng, int(rng.integers(1, 3)),
                                                max_points=4)
            doc = InstanceDocument(instance=instance, market=None, payoff=None, tol=1e-9)
            text = serialize_instance(doc)
            again = parse_instance(text)
            assert serialize_instance(again) == text

    def test_round_trip_with_market_payoff_and_options(self):
        import numpy as _np
        from motkit.documents import parse_instance as _parse
        raw = {
            "version": 1,
            "label": "blocks",
            "axes": [{"index": 1, "points": [[1.0]]},
                     {"index": 2, "points": [[0.0], [2.0]]}],
            "constraints": [{"kind": "exact", "weights": [1.0]},
                            {"kind": "convex_hull",
                             "weights": [[0.5, 0.5], [0.25, 0.75]]}],
            "market": {"s0": [1.0], "epsilons": [0.01]},
            "payoff": {"kind": "named", "name": "straddle",
                       "params": {"n": 1, "m": 2}},
            "options": {"tol": 1e-8},
        }
        doc = _parse(json.dumps(raw))
        assert doc.market is not None and doc.payoff is not None
        assert doc.tol == 1e-8
        text = serialize_instance(doc)
        assert "pivot_rule" not in text
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert _np.array_equal(again.market.epsilons, doc.market.epsilons)
        assert again.payoff.name == "straddle"

    def test_numbers_preserved_to_full_precision(self):
        raw = _minimal_doc()
        raw["constraints"][0]["weights"] = [1.0 / 3.0, 2.0 / 3.0]
        # adjust to an exactly-representable probability pair
        w0 = 1.0 / 3.0
        raw["constraints"][0]["weights"] = [w0, 1.0 - w0]
        doc = parse_instance(json.dumps(raw))
        text = serialize_instance(doc)
        again = parse_instance(text)
        assert again.instance.constraints[0].measures[0].weights[0] == w0


def _curve_from_measure(points, weights, maturity=1):
    strikes = np.asarray(points, dtype=float)
    prices = np.array([float(weights @ np.maximum(strikes - k, 0.0))
                       for k in strikes])
    return CallQuoteCurve(maturity=maturity, strikes=strikes, prices=prices)


class TestCallRecovery:
    def test_worked_three_strike_example(self):
        curve = CallQuoteCurve(1, np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.25, 0.0]))
        measure = marginal_from_calls(curve)
        assert np.allclose(measure.axis.points.ravel(), [0.0, 1.0, 2.0])
        assert np.allclose(measure.weights, [0.25, 0.5, 0.25], atol=1e-12)
        assert measure.barycenter()[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_quote_degenerate_curve(self):
        curve = CallQuoteCurve(2, np.array([0.0]), np.array([1.75]))
        measure = marginal_from_calls(curve)
        assert measure.axis.points.ravel().tolist() == [1.75]
        assert measure.weights.tolist() == [1.0]

    def test_convexity_violation_rejected(self):
        with pytest.raises(StaticArbitrageError) as err:
            CallQuoteCurve(1, np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.2, 0.5]))
        assert len(err.value.strikes) >= 2

    def test_increasing_prices_rejected(self):
        with pytest.raises(StaticArbitrageError):
            CallQuoteCurve(1, np.array([0.0, 1.0]), np.array([0.5, 0.8]))

    def test_steep_slope_rejected(self):
        with pytest.raises(StaticArbitrageError, match="steeper"):
            CallQuoteCurve(1, np.array([0.0, 1.0]), np.array([2.0, 0.5]))

    def test_fifty_random_curves_reprice(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            npts = int(rng.integers(2, 8))
            support = np.concatenate([[0.0], np.sort(rng.choice(
                np.arange(1, 33), size=npts - 1, replace=False))]) / 4.0
            weights = dyadic_probability(rng, npts)
            curve = _curve_from_measure(support, weights)
            measure = marginal_from_calls(curve)
            assert np.allclose(measure.weights, weights, atol=1e-10)
            repriced = [float(measure.weights @ np.maximum(
                measure.axis.points.ravel() - k, 0.0)) for k in curve.strikes]
            assert np.allclose(repriced, curve.prices, atol=1e-9)
            assert measure.barycenter()[0] == pytest.approx(float(curve.prices[0]),
                                                            abs=1e-9)

    def test_zero_strike_absent_mass_goes_to_first_strike(self):
        # measure delta_1 quoted at strikes 1 and 2 only
        curve = CallQuoteCurve(1, np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        measure = marginal_from_calls(curve)
        assert np.allclose(measure.axis.points.ravel(), [0.0, 1.0, 2.0])
        assert np.allclose(measure.weights, [0.0, 1.0, 0.0])
