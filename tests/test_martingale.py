"""Superhedging duality, FTAP equivalence, frictions, arbitrage detection."""

import dataclasses

import numpy as np
import pytest

from motkit import martingale
from motkit.lp import solve
from motkit.martingale import (
    ArbitrageError,
    Market,
    _build_superhedge,
    _mot_primal_builder,
    classify_arbitrage,
    feasibility_residual,
    frictionless_limit_check,
    ftap_check,
    primal_mot,
    superhedge_dual,
    superhedging_duality_report,
)
from motkit.model import (
    Coupling,
    DiscreteAxis,
    DiscreteMeasure,
    Instance,
    MarginalConstraint,
    Payoff,
)
from motkit.transport import dual_transport

from generators import (
    arbitrage_free_market,
    binomial_market,
    random_market,
    random_payoff_table,
)
from oracles import (
    loop_mot_primal_matrix,
    loop_superhedge_path_rows,
    strategy_residuals,
    three_lp_ftap,
    two_lp_superhedging,
)
from test_acceptance import _ftap_corpus

GAP_TOL = 1e-7


def _market(axis_specs, s0, epsilons):
    """axis_specs: list of (points, weights) with d = 1 points."""
    axes = []
    cons = []
    for t, (pts, wts) in enumerate(axis_specs):
        ax = DiscreteAxis(t + 1, np.asarray(pts, dtype=float))
        axes.append(ax)
        cons.append(MarginalConstraint.exact(
            DiscreteMeasure(ax, np.asarray(wts, dtype=float))))
    inst = Instance(tuple(axes), tuple(cons))
    return Market(inst, np.atleast_1d(np.asarray(s0, dtype=float)),
                  np.atleast_1d(np.asarray(epsilons, dtype=float)))


def straddle_market(epsilons=0.0):
    return _market([([1.0], [1.0]), ([0.0, 2.0], [0.5, 0.5])], [1.0], [epsilons])


class TestSuperhedgeDual:
    def test_straddle_priced_by_unique_coupling(self):
        market = straddle_market()
        payoff = Payoff.named("straddle", n=1, m=2)
        res = superhedge_dual(market, payoff)
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-9)
        outcome = res.strategy.outcome(market)
        table = payoff.table_for(market.instance)
        assert float((outcome - table).min()) >= -1e-8
        assert res.strategy.cost(market) == pytest.approx(res.value, abs=1e-9)

    def test_constant_payoff_cash_replication(self):
        market = straddle_market()
        res = superhedge_dual(market, Payoff.constant(3.25, market.instance))
        assert res.value == pytest.approx(3.25, abs=1e-9)

    def test_large_costs_reduce_to_static_only(self):
        market = straddle_market(epsilons=0.5)
        table = market.instance.coordinate_values(1)[:, 0] - 1.0  # x2 - 1
        payoff = Payoff.dense(table)
        with_dynamics = superhedge_dual(market, payoff)
        static_only = dual_transport(market.instance, payoff)
        assert with_dynamics.status == "optimal"
        assert with_dynamics.value == pytest.approx(static_only.value, abs=1e-8)


class TestPrimalMot:
    def test_straddle_unique_martingale_coupling(self):
        market = straddle_market()
        payoff = Payoff.named("straddle", n=1, m=2)
        res = primal_mot(market, payoff)
        assert res.status == "optimal"
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(res.coupling.weights, [0.5, 0.5], atol=1e-9)

    def test_barycenter_obstruction(self):
        market = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.0])
        res = primal_mot(market, Payoff.constant(0.0, market.instance))
        assert res.status == "infeasible"

    def test_wide_band_restores_feasibility(self):
        market = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.2])
        res = primal_mot(market, Payoff.constant(0.0, market.instance))
        assert res.status == "optimal"
        assert feasibility_residual(market, res.coupling) <= 1e-8


class TestClassifyArbitrage:
    def test_arbitrage_free_market(self):
        verdict = classify_arbitrage(straddle_market())
        assert verdict.kind == "no_arbitrage"
        assert verdict.uniform_value == pytest.approx(0.0, abs=1e-9)
        assert verdict.strict_value > 1e-9

    def test_spot_mismatch_detected_with_witness(self):
        market = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.0])
        verdict = classify_arbitrage(market)
        assert verdict.arbitrage_exists
        strategy = verdict.strategy
        assert strategy is not None
        outcome = strategy.outcome(market)
        cost = strategy.cost(market)
        if verdict.kind == "uniform":
            assert cost < -1e-9
            assert float(outcome.min()) >= -1e-9
        else:
            assert cost <= 1e-9
            assert float(outcome.min()) > 0.0
        # consistent with the empty martingale set
        assert primal_mot(market, Payoff.constant(0.0, market.instance)
                          ).status == "infeasible"

    def test_reversed_convex_order_not_arbitrage_free(self):
        market = _market([([0.0, 2.0], [0.5, 0.5]), ([1.0], [1.0])], [1.0], [0.0])
        verdict = classify_arbitrage(market)
        assert verdict.arbitrage_exists
        assert primal_mot(market, Payoff.constant(0.0, market.instance)
                          ).status == "infeasible"


class TestFtap:
    def test_constructed_markets_are_arbitrage_free(self):
        rng = np.random.default_rng(0)
        for _ in range(8):
            market = arbitrage_free_market(rng, horizon=2, d=1)
            report = ftap_check(market)
            assert report.equivalent
            assert report.no_uniform and report.no_model_independent
            assert report.martingale_set_nonempty

    def test_three_conditions_agree_on_random_markets(self):
        rng = np.random.default_rng(1)
        seen = {True: 0, False: 0}
        for trial in range(40):
            eps = [0.0, 0.01, 0.1][trial % 3]
            if trial % 2 == 0:
                market = arbitrage_free_market(rng, horizon=2, d=1, epsilons=[eps])
            else:
                market = random_market(rng, horizon=2, d=1, epsilons=[eps])
            report = ftap_check(market)
            assert report.equivalent, (
                f"FTAP disagreement: mia-free {report.no_model_independent}, "
                f"ua-free {report.no_uniform}, "
                f"nonempty {report.martingale_set_nonempty}")
            seen[report.martingale_set_nonempty] += 1
        assert min(seen.values()) >= 5, seen

    def test_wide_bands_make_product_measure_consistent(self):
        market = _market([([0.5, 2.0], [0.5, 0.5]), ([0.5, 1.0, 2.0], [0.25, 0.5, 0.25])],
                         [1.0], [3.0])
        product = Coupling.product(market.instance)
        assert feasibility_residual(market, product) <= 1e-9
        report = ftap_check(market)
        assert report.equivalent
        assert report.martingale_set_nonempty


class TestTripletAssembly:
    def test_matrices_equal_path_by_path_assembly(self):
        rng = np.random.default_rng(8)
        for trial in range(12):
            d = 2 if trial % 3 == 0 else 1
            market = binomial_market(rng, horizon=2 if d == 2 else 1 + trial % 4, d=d,
                                     epsilons=[[0.05, 0.0], [0.1], [0.0]][trial % 3],
                                     hull_prob=0.5 if trial % 2 else 0.0)
            table = random_payoff_table(rng, market.instance)
            for forced in (False, True):
                builder, m_var, g_vars, columns = _build_superhedge(market, table, forced)
                lp = builder.build()
                expected = loop_superhedge_path_rows(market, lp.n_variables, m_var, g_vars,
                                                     columns)
                assert np.array_equal(lp.a[-market.instance.n_paths:], expected)
            lp = _mot_primal_builder(market, table)[0].build()
            assert np.array_equal(lp.a, loop_mot_primal_matrix(market, lp.n_variables))
            assert np.array_equal(lp.objective[: market.instance.n_paths], table)


class TestSharedSolves:
    """ftap_check and classify_arbitrage agree with fresh solves of each LP,
    one public call apiece."""

    def test_reports_equal_fresh_solves(self):
        rng = np.random.default_rng(5)
        for trial in range(12):
            eps = [0.0, 0.01, 0.1][trial % 3]
            d = 2 if trial % 4 == 0 else 1
            if trial % 2 == 0:
                market = arbitrage_free_market(rng, horizon=2, d=d, epsilons=np.full(d, eps),
                                               hull_prob=0.4 if trial % 6 == 0 else 0.0)
            else:
                market = random_market(rng, horizon=2, d=d, epsilons=np.full(d, eps))
            zero = Payoff.constant(0.0, market.instance)
            ua = superhedge_dual(market, zero)
            mia = superhedge_dual(market, Payoff.constant(1.0, market.instance))
            feas = primal_mot(market, zero)
            ftap = ftap_check(market)
            verdict = ftap.verdict
            assert (ftap.uniform_value, ftap.strict_value) == (ua.value, mia.value)
            assert ftap.martingale_set_nonempty == (feas.status == "optimal")
            if feas.coupling is not None:
                assert np.array_equal(ftap.coupling.weights, feas.coupling.weights)
            alone = classify_arbitrage(market)
            assert (verdict.kind, verdict.uniform_value, verdict.strict_value) == (
                alone.kind, alone.uniform_value, alone.strict_value)


def _strategy_tables(s) -> list:
    return [s.m, *s.g] + [t for leg in s.legs for t in (*leg.h, *(leg.u or ()))]


def _same_strategy(a, b) -> bool:
    """Both None, or the same maturities and bit-equal tables."""
    if a is None or b is None:
        return a is b
    return ([leg.maturity for leg in a.legs] == [leg.maturity for leg in b.legs]
            and all(np.array_equal(x, y)
                    for x, y in zip(_strategy_tables(a), _strategy_tables(b), strict=True)))


class TestFtapRoute:
    """ftap_check solves the zero-payoff MOT primal, and superhedge(0) only
    when that is infeasible; the three-LP route is the oracle."""

    @staticmethod
    def _markets():
        rng = np.random.default_rng(31)
        frictional = []
        for trial in range(12):
            eps = [[0.05, 0.1], [0.01, 0.0], [0.1, 0.1]][trial % 3]
            frictional.append(binomial_market(rng, horizon=2, d=2, epsilons=eps,
                                              hull_prob=0.4 if trial % 4 == 0 else 0.0)
                              if trial % 2 == 0 else
                              random_market(rng, horizon=2, d=2, epsilons=eps))
        return _ftap_corpus() + frictional

    @staticmethod
    def _counting(monkeypatch, perturb=lambda lp, sol: sol):
        senses = []

        def counted(lp, **kwargs):
            senses.append(lp.sense)
            return perturb(lp, solve(lp, **kwargs))

        monkeypatch.setattr(martingale, "solve", counted)
        return senses

    def test_equals_three_lp_route(self, monkeypatch):
        senses = self._counting(monkeypatch)
        seen = set()
        for market in self._markets():
            expected = three_lp_ftap(market)
            senses.clear()
            report = ftap_check(market)
            seen.add(report.verdict.kind)
            # arbitrage-free: the MOT primal alone; else also superhedge(0)
            assert senses == (["max"] if report.martingale_set_nonempty else ["max", "min"])
            for field in ("no_model_independent", "no_uniform", "martingale_set_nonempty",
                          "equivalent", "uniform_value", "strict_value"):
                assert getattr(report, field) == getattr(expected, field), field
            assert report.equivalent
            if expected.coupling is None:
                assert report.coupling is None
            else:
                assert np.array_equal(report.coupling.weights, expected.coupling.weights)
            got, want = report.verdict, expected.verdict
            assert (got.kind, got.uniform_value, got.strict_value) == (
                want.kind, want.uniform_value, want.strict_value)
            assert _same_strategy(got.strategy, want.strategy)
        assert seen == {"no_arbitrage", "uniform"}

    def test_failed_coupling_certificate_solves_both_superhedges(self, monkeypatch):
        def shifted(lp, sol):
            if lp.sense == "max":
                x = sol.x.copy()
                x[0] += 0.5  # the coupling's mass is off: not a dual point
                sol = dataclasses.replace(sol, x=x)
            return sol

        market = arbitrage_free_market(np.random.default_rng(3), horizon=2, d=1,
                                       epsilons=[0.05])
        expected = three_lp_ftap(market)
        senses = self._counting(monkeypatch, shifted)
        report = ftap_check(market)
        assert senses == ["max", "min", "min"]
        assert (report.uniform_value, report.strict_value, report.verdict.kind) == (
            expected.uniform_value, expected.strict_value, "no_arbitrage")
        assert report.equivalent and report.no_uniform and report.no_model_independent

    def test_failed_ray_certificate_solves_superhedge_one(self, monkeypatch):
        def reversed_ray(lp, sol):
            return sol if sol.ray is None else dataclasses.replace(sol, ray=-sol.ray)

        market = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.0])
        senses = self._counting(monkeypatch, reversed_ray)
        report = ftap_check(market)
        assert senses == ["max", "min", "min"]
        assert report.verdict.kind == "uniform"
        assert report.strict_value == -np.inf
        assert report.equivalent and not report.no_model_independent


class TestOneLpDuality:
    """superhedging_duality_report solves only the MOT primal and reads the
    superhedge off its multipliers; the two-LP route is the oracle."""

    @staticmethod
    def _markets():
        rng = np.random.default_rng(21)
        for trial in range(15):
            d = 2 if trial % 5 == 0 else 1
            eps = [0.0, 0.02, 0.1][trial % 3]
            if trial % 3 == 2:
                market = arbitrage_free_market(rng, horizon=2, d=d, epsilons=np.full(d, eps),
                                               hull_prob=0.5)
            else:
                market = binomial_market(rng, horizon=2 if d == 2 else 2 + trial % 2, d=d,
                                         epsilons=np.full(d, eps),
                                         hull_prob=0.5 if trial % 2 else 0.0)
            yield market, random_payoff_table(rng, market.instance)

    def test_matches_two_lp_route(self, monkeypatch):
        senses = []
        monkeypatch.setattr(martingale, "solve",
                            lambda lp, **kw: senses.append(lp.sense) or solve(lp, **kw))
        hulls = frictional = 0
        for market, table in self._markets():
            hulls += any(not con.is_exact for con in market.instance.constraints)
            frictional += bool(np.any(market.epsilons > 0))
            payoff = Payoff.dense(table)
            senses.clear()
            report = superhedging_duality_report(market, payoff)
            assert senses == ["max"]  # the multipliers passed: no superhedge LP
            primal, dual = two_lp_superhedging(market, payoff)
            assert report.primal_value == primal.value
            assert np.array_equal(report.coupling.weights, primal.coupling.weights)
            assert abs(report.dual_value - dual.value) <= GAP_TOL * max(1.0, abs(dual.value))
            for value, strategy in ((report.dual_value, report.dual),
                                    (dual.value, dual.strategy)):
                superrep, identity = strategy_residuals(market, table, value, strategy)
                assert superrep >= -1e-8 and identity <= 1e-8
        assert hulls and frictional

    @pytest.mark.parametrize("epsilons", [[0.0], [0.05]])
    def test_perturbed_multiplier_falls_back_to_superhedge_lp(self, monkeypatch, epsilons):
        market = binomial_market(np.random.default_rng(9), horizon=2, epsilons=epsilons)
        table = random_payoff_table(np.random.default_rng(10), market.instance)
        payoff = Payoff.dense(table)
        primal, dual = two_lp_superhedging(market, payoff)
        senses = []

        def perturbed(lp, **kwargs):
            sol = solve(lp, **kwargs)
            senses.append(lp.sense)
            if lp.sense == "max":
                duals = sol.duals.copy()
                # the first marginal row of axis 2: its leg falls short on its paths
                duals[market.instance.shape[0]] -= 0.5
                sol = dataclasses.replace(sol, duals=duals)
            return sol

        monkeypatch.setattr(martingale, "solve", perturbed)
        report = superhedging_duality_report(market, payoff)
        assert senses == ["max", "min"]
        assert report.primal_value == primal.value
        assert report.dual_value == dual.value
        assert report.dual.m == dual.strategy.m
        assert all(np.array_equal(a, b) for a, b in zip(report.dual.g, dual.strategy.g))
        assert report.residuals["superreplication_min"] == float(
            (dual.strategy.outcome(market) - table).min())

    def test_infeasible_primal_reports_both_statuses(self):
        market = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.0])
        with pytest.raises(ArbitrageError) as info:
            superhedging_duality_report(market, Payoff.constant(0.0, market.instance))
        assert (info.value.primal_status, info.value.dual_status) == ("infeasible",
                                                                      "unbounded")


class TestSuperhedgingDuality:
    def test_straddle_both_sides_one(self):
        report = superhedging_duality_report(straddle_market(),
                                             Payoff.named("straddle", n=1, m=2))
        assert report.primal_value == pytest.approx(1.0, abs=1e-8)
        assert report.dual_value == pytest.approx(1.0, abs=1e-8)
        assert report.gap <= GAP_TOL

    def test_zero_payoff_normalization(self):
        market = straddle_market()
        report = superhedging_duality_report(market, Payoff.constant(0.0, market.instance))
        assert report.primal_value == pytest.approx(0.0, abs=1e-9)
        assert report.dual_value == pytest.approx(0.0, abs=1e-9)

    def test_zero_gap_on_random_arbitrage_free_markets(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            eps = [0.0, 0.01, 0.1][trial % 3]
            d = 2 if trial % 4 == 0 else 1
            market = arbitrage_free_market(rng, horizon=2, d=d,
                                           epsilons=np.full(d, eps),
                                           hull_prob=0.4 if trial % 5 == 0 else 0.0)
            payoff = Payoff.dense(random_payoff_table(rng, market.instance))
            report = superhedging_duality_report(market, payoff)
            scale = max(1.0, abs(report.dual_value))
            assert report.gap <= GAP_TOL * scale, (
                f"trial {trial}: gap {report.gap} at eps {eps}")
            assert report.residuals["superreplication_min"] >= -1e-8
            assert report.residuals["coupling_feasibility"] <= 1e-7

    def test_arbitrage_market_rejected(self):
        market = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.0])
        with pytest.raises(ValueError, match="arbitrage"):
            superhedging_duality_report(market, Payoff.constant(0.0, market.instance))


class TestWeakDuality:
    def test_coupling_expectation_below_strategy_cost(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            eps = [0.0, 0.1][trial % 2]
            market = arbitrage_free_market(rng, horizon=2, d=1, epsilons=[eps])
            f = Payoff.dense(random_payoff_table(rng, market.instance))
            f_other = Payoff.dense(random_payoff_table(rng, market.instance))
            strategy = superhedge_dual(market, f).strategy
            other = primal_mot(market, f_other)
            assert other.status == "optimal"
            lhs = float(f.table_for(market.instance) @ other.coupling.weights)
            assert lhs <= strategy.cost(market) + 1e-8


class TestFrictionlessReduction:
    def test_no_trade_columns_without_costs(self):
        market = straddle_market()
        builder, _, _, columns = _build_superhedge(
            market, np.zeros(market.instance.n_paths))
        assert not columns.trade_vars
        assert columns.h_vars

    def test_forced_trade_machinery_matches_position_machinery(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            d = 2 if trial % 3 == 0 else 1
            market = arbitrage_free_market(rng, horizon=2, d=d)
            payoff = Payoff.dense(random_payoff_table(rng, market.instance))
            plain = superhedge_dual(market, payoff)
            forced = superhedge_dual(market, payoff, force_frictional=True)
            assert plain.status == forced.status == "optimal"
            assert forced.value == pytest.approx(plain.value, abs=1e-10)

    def test_builder_is_deterministic_across_equal_markets(self):
        market = straddle_market()
        table = np.zeros(market.instance.n_paths)
        lp1 = _build_superhedge(market, table)[0].build()
        lp2 = _build_superhedge(market.with_epsilons(np.zeros(1)), table)[0].build()
        assert np.array_equal(lp1.a, lp2.a)
        assert np.array_equal(lp1.objective, lp2.objective)
        assert lp1.relations == lp2.relations
        assert np.array_equal(lp1.rhs, lp2.rhs)


class TestFrictionlessLimit:
    def test_straddle_values_fall_to_one(self):
        market = straddle_market()
        report = frictionless_limit_check(market, Payoff.named("straddle", n=1, m=2),
                                          [0.1, 0.01, 0.001, 0.0])
        assert report.monotone
        assert report.converged
        assert report.values[-1] == pytest.approx(1.0, abs=1e-9)
        assert report.values[0] >= report.values[-1] - 1e-12

    def test_static_replicable_payoff_constant_sequence(self):
        market = straddle_market()
        payoff = Payoff.separable([np.array([0.5]), np.array([0.25, 0.75])])
        report = frictionless_limit_check(market, payoff, [0.1, 0.01, 0.0])
        assert report.monotone
        assert max(report.values) - min(report.values) <= 1e-9

    def test_random_markets_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            market = arbitrage_free_market(rng, horizon=2, d=1)
            payoff = Payoff.dense(random_payoff_table(rng, market.instance))
            report = frictionless_limit_check(market, payoff, [0.2, 0.05, 0.01, 0.0])
            assert report.monotone
            assert report.converged


class TestStrategyStructure:
    def test_tables_are_indexed_by_prefixes(self):
        rng = np.random.default_rng(6)
        market = arbitrage_free_market(rng, horizon=3, d=1, epsilons=[0.05])
        payoff = Payoff.dense(random_payoff_table(rng, market.instance))
        res = superhedge_dual(market, payoff)
        instance = market.instance
        for leg in res.strategy.legs:
            assert 1 <= leg.maturity <= market.horizon
            assert len(leg.h) == leg.maturity
            for n, table in enumerate(leg.h, start=1):
                assert table.shape == (instance.n_prefixes(n - 1), market.d)
            assert leg.u is not None
            for u_tab, h_tab in zip(leg.u, leg.h):
                assert u_tab.shape == h_tab.shape
                assert np.all(u_tab >= -1e-12)

    def test_turnover_dominates_position_changes(self):
        from motkit.martingale import _ancestor_prefix
        rng = np.random.default_rng(7)
        market = arbitrage_free_market(rng, horizon=3, d=1, epsilons=[0.05])
        payoff = Payoff.dense(random_payoff_table(rng, market.instance))
        res = superhedge_dual(market, payoff)
        instance = market.instance
        for leg in res.strategy.legs:
            for n in range(1, leg.maturity + 1):
                if n == 1:
                    prev_rows = np.zeros((instance.n_prefixes(0), market.d))
                else:
                    anc = _ancestor_prefix(instance, n - 1, n - 2)
                    prev_rows = leg.h[n - 2][anc]
                delta = leg.h[n - 1] - prev_rows
                assert np.all(leg.u[n - 1] >= np.abs(delta) - 1e-8)

    def test_outcome_depends_only_on_prefix(self):
        rng = np.random.default_rng(8)
        market = arbitrage_free_market(rng, horizon=2, d=1, epsilons=[0.05])
        payoff = Payoff.dense(random_payoff_table(rng, market.instance))
        res = superhedge_dual(market, payoff)
        instance = market.instance
        gains = res.strategy.dynamic_gains(market)
        # paths sharing the level-1 prefix use the same h_2 row: the gains
        # difference equals the position times the price move difference
        pid = instance.prefix_ids(1)
        s = market.price_paths()
        for p in range(instance.n_prefixes(1)):
            members = np.flatnonzero(pid == p)
            if members.size < 2:
                continue
            i, j = members[:2]
            move_diff = (s[2][i] - s[2][j])
            table_rows = [leg.h[1][p] for leg in res.strategy.legs
                          if leg.maturity >= 2]
            expected = sum(float(row @ move_diff) for row in table_rows)
            assert gains[i] - gains[j] == pytest.approx(expected, abs=1e-9)


class TestEarlyMaturityArbitrage:
    def test_band_violated_only_at_maturity_one(self):
        """Detection must range over every valuation date.

        With s0 = 1 and eps = 0.1, nu1 on {0.5, 1.8} (barycenter 1.15)
        breaks the date-1 ask band, while nu2 on {0.4, 1.7} admits a
        kernel satisfying every date-2 band (conditional means 0.46 and
        1.64, unconditional 1.05).  Trades valued only at the horizon
        cannot monetize the mispricing; a date-1 forward can.
        """
        ax1 = DiscreteAxis(1, np.array([[0.5], [1.8]]))
        ax2 = DiscreteAxis(2, np.array([[0.4], [1.7]]))
        inst = Instance(
            (ax1, ax2),
            (MarginalConstraint.exact(DiscreteMeasure(ax1, np.array([0.5, 0.5]))),
             MarginalConstraint.exact(DiscreteMeasure(ax2, np.array([0.5, 0.5])))))
        market = Market(inst, np.array([1.0]), np.array([0.1]))

        # the date-2 bands alone are satisfiable: exhibit the kernel
        a_low = (1.7 - 0.46) / 1.3
        a_high = (1.7 - 1.64) / 1.3
        w = np.array([0.5 * a_low, 0.5 * (1 - a_low),
                      0.5 * a_high, 0.5 * (1 - a_high)])
        s2 = np.array([0.4, 1.7, 0.4, 1.7])
        s1 = np.array([0.5, 0.5, 1.8, 1.8])
        for state, lo in ((0.5, a_low), (1.8, a_high)):
            mean = 0.4 * lo + 1.7 * (1 - lo)
            assert (1 - 0.1) * state - 1e-12 <= mean <= (1 + 0.1) * state + 1e-12
        assert abs(w @ s2 - 1.05) < 1e-12
        assert np.allclose([w[(s1 == x)].sum() for x in (0.5, 1.8)], 0.5)

        verdict = classify_arbitrage(market)
        assert verdict.arbitrage_exists
        strategy = verdict.strategy
        assert strategy is not None
        # the witness trades toward the early valuation date
        early = [leg for leg in strategy.legs
                 if leg.maturity == 1 and any(np.any(h != 0.0) for h in leg.h)]
        assert early, "expected a maturity-1 dynamic leg in the witness"
        assert float(strategy.outcome(market).min()) >= -1e-9

        ftap = ftap_check(market)
        assert ftap.equivalent
        assert not ftap.martingale_set_nonempty
        assert primal_mot(market, Payoff.constant(0.0, inst)).status == "infeasible"


class TestLargerMarket:
    def test_two_assets_three_periods_mixed_frictions(self):
        from generators import binomial_market
        rng = np.random.default_rng(10)
        market = binomial_market(rng, horizon=3, d=2, epsilons=[0.1, 0.0])
        payoff = Payoff.dense(random_payoff_table(rng, market.instance))
        report = superhedging_duality_report(market, payoff)
        assert report.gap <= GAP_TOL * max(1.0, abs(report.dual_value))
        assert report.residuals["superreplication_min"] >= -1e-8
        assert report.residuals["coupling_feasibility"] <= 1e-7
        ftap = ftap_check(market)
        assert ftap.equivalent and ftap.martingale_set_nonempty


class TestDualValueMapProperties:
    def test_translation_and_monotonicity(self):
        rng = np.random.default_rng(9)
        market = arbitrage_free_market(rng, horizon=2, d=1, epsilons=[0.05])
        f = random_payoff_table(rng, market.instance)
        bump = np.abs(random_payoff_table(rng, market.instance))
        phi = lambda t: superhedge_dual(market, Payoff.dense(t)).value
        base = phi(f)
        assert phi(f + 0.75) == pytest.approx(base + 0.75, abs=1e-8)
        assert phi(f + bump) >= base - 1e-8
        # positive homogeneity holds exactly on the conic strategy space
        assert phi(2.0 * f) == pytest.approx(2.0 * base, abs=1e-8)
