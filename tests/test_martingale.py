"""Superhedging duality, FTAP equivalence, frictions, arbitrage detection."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motkit import lp as lp_module
from motkit import transport
from motkit.assembly import DualSide, _ancestor_prefix, primal_lp, superhedge_lp
from motkit.bernoulli import bernoulli_instance
from motkit.lp import LpNumericalError, solve
from motkit.martingale import (
    ArbitrageError,
    Market,
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
from motkit.transport import (dual_transport, duality_report, marginal_separation,
                              verify_representation)

from generators import (
    arbitrage_free_market,
    binomial_market,
    random_hull_instance,
    random_market,
    random_payoff_table,
    rescaled_market,
)
from oracles import (
    loop_mot_primal_matrix,
    loop_superhedge_lp,
    strategy_residuals,
    tall_dual_transport,
    tall_superhedge,
    three_lp_ftap,
    two_lp_superhedging,
)
from test_acceptance import (
    FRICTIONLESS_TOL,
    FTAP_GAP_RTOL,
    TRANSPORT_GAP_RTOL,
    _ftap_corpus,
)

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
        outcome = res.outcome()
        table = payoff.table_for(market.instance)
        assert float((outcome - table).min()) >= -1e-8
        assert res.cost() == pytest.approx(res.value, abs=1e-9)

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
        assert feasibility_residual(market, res.coupling, [np.array([1.0])]) <= 1e-8


class TestFeasibilityResidual:
    @given(st.integers(0, 10_000), st.sampled_from([[0.0], [0.05], [0.0, 0.1]]),
           st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_is_the_worst_of_mass_marginals_and_the_primal_pricing_rows(self, seed, eps,
                                                                        share):
        """At a primal point with mass moved between two paths, the residual is
        the largest of the mass error, `marginal_separation` and the violation
        of the MOT primal's own pricing rows."""
        rng = np.random.default_rng(seed)
        market = binomial_market(rng, 4 - len(eps), d=len(eps), epsilons=eps, hull_prob=0.3)
        primal, sol = transport.solve_primal(
            market.instance, random_payoff_table(rng, market.instance), market)
        x = sol.x.copy()
        src = primal.paths[rng.choice(np.flatnonzero(x[primal.paths] > 0))]
        dst = primal.paths[rng.integers(primal.paths.size)]
        moved = share * x[src]
        x[src] -= moved
        x[dst] += moved
        lp, trading = primal.lp, primal.trading
        rows = np.concatenate([*trading.h_vars.values(),
                               *(np.r_[asks, bids] for asks, bids in trading.trade_vars.values())])
        gap = lp.a[rows] @ x - lp.rhs[rows]
        violation = np.where(lp.relation_codes[rows] == 0, np.abs(gap), gap).max()
        coupling, mixtures = primal.coupling(x), primal.mixtures(x)
        expected = max(abs(coupling.total_mass - 1.0), violation,
                       marginal_separation(market.instance, coupling, mixtures))
        value = feasibility_residual(market, coupling, mixtures)
        assert abs(value - expected) <= 1e-14 * max(1.0, value)


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
        outcome = strategy.outcome()
        cost = strategy.cost()
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
        assert feasibility_residual(market, product, [np.array([1.0])] * 2) <= 1e-9
        report = ftap_check(market)
        assert report.equivalent
        assert report.martingale_set_nonempty


def _builders(monkeypatch):
    """The sense of every LpBuilder constructed, in order."""
    senses, init = [], lp_module.LpBuilder.__init__
    monkeypatch.setattr(lp_module.LpBuilder, "__init__",
                        lambda self, sense: senses.append(sense) or init(self, sense))
    return senses


def _assert_same_bits(got, want):
    """Two LPs equal field for field, bit for bit."""
    assert (got.sense, got.relations) == (want.sense, want.relations)
    for field in ("a", "objective", "lower", "upper", "rhs"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), field


class TestTripletAssembly:
    """The superhedge LP, transposed from the primal, equals the loop
    reference laid out from the market path by path and vertex by vertex."""

    @staticmethod
    def _assert_loop_layout(instance, table, market=None, forced=False):
        primal = primal_lp(instance, table, market, forced)
        tall, order, sources = superhedge_lp(primal)
        lp, legs, epigraph, positions, trades = loop_superhedge_lp(instance, table, market,
                                                                   forced)
        _assert_same_bits(tall, lp)
        # the ids of the loop layout, taken from the maps onto the primal
        column = np.empty_like(order)
        column[order] = np.arange(1, order.size + 1)
        row = np.empty_like(sources)
        row[sources] = np.arange(sources.size)
        assert [column[ids].tolist() for ids in primal.marginal_rows] == legs
        assert [None if lams is None else row[lams].tolist()
                for lams in primal.lambdas] == epigraph
        if market is None:
            assert primal.trading is None
            return
        assert {key: column[ids].tolist()
                for key, ids in primal.trading.h_vars.items()} == positions
        assert {key: (column[buys].tolist(), column[sells].tolist())
                for key, (buys, sells) in primal.trading.trade_vars.items()} == trades

    def test_matrices_equal_path_by_path_assembly(self):
        rng = np.random.default_rng(8)
        hulls = 0
        for trial in range(12):
            d = 2 if trial % 3 == 0 else 1
            market = binomial_market(rng, horizon=2 if d == 2 else 1 + trial % 4, d=d,
                                     epsilons=[[0.05, 0.0], [0.1], [0.0]][trial % 3],
                                     hull_prob=0.5 if trial % 2 else 0.0)
            table = random_payoff_table(rng, market.instance)
            hulls += any(not con.is_exact for con in market.instance.constraints)
            for forced in (False, True):
                self._assert_loop_layout(market.instance, table, market, forced)
            self._assert_loop_layout(market.instance, table)
            lp = primal_lp(market.instance, table, market).lp
            assert np.array_equal(lp.a, loop_mot_primal_matrix(market, lp.n_variables))
            assert np.array_equal(lp.objective[: market.instance.n_paths], table)
        assert hulls

    def test_transport_lps_equal_path_by_path_assembly(self):
        rng = np.random.default_rng(12)
        for trial in range(8):
            instance = random_hull_instance(rng, n_axes=1 + trial % 3)
            self._assert_loop_layout(instance, random_payoff_table(rng, instance))
        for depth in range(1, 11):
            instance = bernoulli_instance(depth)
            self._assert_loop_layout(instance, np.ones(instance.n_paths))


class TestSharedSolves:
    """ftap_check and classify_arbitrage agree with fresh solves of each LP."""

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
            ua = tall_superhedge(market, zero)
            mia = tall_superhedge(market, Payoff.constant(1.0, market.instance))
            feas = primal_mot(market, zero)
            ftap = ftap_check(market)
            verdict = ftap.verdict
            assert (verdict.uniform_value, verdict.strict_value) == (ua.value, mia.value)
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

        monkeypatch.setattr(transport, "solve", counted)
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
                          "equivalent"):
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

    @staticmethod
    def _mass_off(market, x):
        x[0] += 0.5  # the coupling's mass is off

    @staticmethod
    def _martingale_off(market, x):
        """Move mass delta onto paths (a, u), (b, d) and off (a, d), (b, u):
        the mass and both marginals stay, the martingale row of prefix a
        moves by delta (S(u) - S(d))."""
        grid = x[: market.instance.n_paths].reshape(market.instance.shape)
        support = np.argwhere(grid > 0)
        a, d = support[0]
        b, u = next((i, j) for i, j in support if i != a and j != d)
        delta = min(grid[a, d], grid[b, u]) / 2
        rows, cols = grid.sum(axis=1), grid.sum(axis=0)
        grid[[a, b], [u, d]] += delta
        grid[[a, b], [d, u]] -= delta
        assert np.allclose(grid.sum(axis=1), rows) and np.allclose(grid.sum(axis=0), cols)
        coupling = Coupling(market.instance, grid.ravel().copy())
        exact = [np.array([1.0])] * len(market.instance.axes)
        assert feasibility_residual(market, coupling, exact) > 1e-6

    def test_failed_coupling_certificate_solves_superhedge_zero(self, monkeypatch):
        cases = [(arbitrage_free_market(np.random.default_rng(3), horizon=2, d=1,
                                        epsilons=eps), perturb)
                 for eps, perturb in (([0.05], self._mass_off), ([0.0], self._martingale_off))]
        expected = [three_lp_ftap(market) for market, _ in cases]
        for (market, perturb), want in zip(cases, expected):
            def perturbed(lp, sol):
                if lp.sense == "max":  # the point is no longer a coupling
                    x = sol.x.copy()
                    perturb(market, x)
                    sol = dataclasses.replace(sol, x=x)
                return sol

            senses = self._counting(monkeypatch, perturbed)
            report = ftap_check(market)
            # superhedge(0) only: superhedge(1) is superhedge(0) + 1
            assert senses == ["max", "min"]
            for field in ("no_model_independent", "no_uniform", "martingale_set_nonempty",
                          "equivalent"):
                assert getattr(report, field) == getattr(want, field), field
            got = report.verdict
            assert (got.uniform_value, got.strict_value, got.kind) == (
                want.verdict.uniform_value, want.verdict.strict_value, "no_arbitrage")
            assert report.equivalent and report.no_uniform and report.no_model_independent

    @pytest.mark.parametrize("seed, epsilons", [(1, [0.05]), (5, [0.0])])
    def test_unforced_fallback_answers(self, monkeypatch, seed, epsilons):
        """At prices a million times smaller the zero-payoff primal's point
        fails `primal_residual` with nothing forcing it, and superhedge(0)
        answers: the market is arbitrage-free, as at x1."""
        market = rescaled_market(binomial_market(np.random.default_rng(seed), 3, d=1,
                                                 epsilons=epsilons), 1e-6)
        senses = self._counting(monkeypatch)
        report = ftap_check(market)
        assert senses == ["max", "min"]
        assert report.verdict.kind == "no_arbitrage" and report.equivalent

    def test_failed_ray_certificate_raises(self, monkeypatch):
        def reversed_ray(lp, sol):
            return sol if sol.ray is None else dataclasses.replace(sol, ray=-sol.ray)

        market = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.0])
        senses = self._counting(monkeypatch, reversed_ray)
        # a ray that fails `check_unbounded_ray` is never handed out as a witness
        with pytest.raises(LpNumericalError):
            ftap_check(market)
        assert senses == ["max", "min"]
        with pytest.raises(LpNumericalError):
            superhedge_dual(market, Payoff.constant(0.0, market.instance))

    def test_hull_axis_arbitrage_is_one_ray(self, monkeypatch):
        # the spot 3 is above every grid point: selling the asset forward is free money
        axis = DiscreteAxis(1, np.array([[0.0], [2.0]]))
        hull = MarginalConstraint.convex_hull(
            [DiscreteMeasure(axis, np.array(w)) for w in ([0.5, 0.5], [0.25, 0.75])])
        market = Market(Instance((axis,), (hull,)), np.array([3.0]), np.array([0.0]))
        expected = three_lp_ftap(market)
        senses, built = self._counting(monkeypatch), _builders(monkeypatch)
        report = ftap_check(market)
        # the superhedge LP solved for the ray is the primal's transpose
        assert senses == ["max", "min"] and built == ["max"]
        assert report.verdict.kind == "uniform"
        assert report.verdict.strict_value == -np.inf
        for field in ("no_model_independent", "no_uniform", "martingale_set_nonempty",
                      "equivalent"):
            assert getattr(report, field) == getattr(expected, field), field


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
        monkeypatch.setattr(transport, "solve",
                            lambda lp, **kw: senses.append(lp.sense) or solve(lp, **kw))
        hulls = frictional = 0
        for market, table in self._markets():
            hulls += any(not con.is_exact for con in market.instance.constraints)
            frictional += bool(np.any(market.epsilons > 0))
            payoff = Payoff.dense(table)
            senses.clear()
            report = superhedging_duality_report(market, payoff)
            # the multipliers passed: no superhedge LP; the coupling's
            # feasibility residual checks the primal's own mixtures, no LP
            assert senses == ["max"]
            primal, dual = two_lp_superhedging(market, payoff)
            assert report.primal_value == primal.value
            assert np.array_equal(report.coupling.weights, primal.coupling.weights)
            assert abs(report.dual_value - dual.value) <= GAP_TOL * max(1.0, abs(dual.value))
            for value, strategy in ((report.dual_value, report.dual),
                                    (dual.value, dual)):
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

        monkeypatch.setattr(transport, "solve", perturbed)
        report = superhedging_duality_report(market, payoff)
        assert senses == ["max", "min"]
        assert report.primal_value == primal.value
        assert report.dual_value == dual.value
        assert report.dual.m == dual.m
        assert all(np.array_equal(a, b) for a, b in zip(report.dual.g, dual.g))
        assert report.residuals["superreplication_min"] == float(
            (dual.outcome() - table).min())

    def test_unforced_fallback_answers(self, monkeypatch):
        """At prices a million times smaller the read-off fails `certified`
        with nothing forcing it, and the superhedge LP answers.  The primal's
        point at this scale breaks its own rows, so only the dual side, which
        is unit-free, is compared with the market at x1."""
        market = binomial_market(np.random.default_rng(21), 3, d=1, epsilons=[0.0])
        table = random_payoff_table(np.random.default_rng(0), market.instance)
        expected = superhedging_duality_report(market, Payoff.dense(table)).dual_value
        small = rescaled_market(market, 1e-6)
        senses = []
        monkeypatch.setattr(transport, "solve",
                            lambda lp, **kw: senses.append(lp.sense) or solve(lp, **kw))
        report = superhedging_duality_report(small, Payoff.dense(table))
        assert senses == ["max", "min"]
        assert abs(report.dual_value - expected) <= GAP_TOL * max(1.0, abs(expected))
        superrep, identity = strategy_residuals(small, table, report.dual_value, report.dual)
        assert superrep >= -1e-8 and identity <= 1e-8

    def test_infeasible_primal_reports_both_statuses(self):
        market = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.0])
        with pytest.raises(ArbitrageError) as info:
            superhedging_duality_report(market, Payoff.constant(0.0, market.instance))
        assert (info.value.primal_status, info.value.dual_status) == ("infeasible",
                                                                      "unbounded")

    @pytest.mark.parametrize("seed", [13, 41])
    def test_rescaled_arbitrage_is_answered_by_the_primal_alone(self, monkeypatch, seed):
        """At prices a million times larger the superhedge LP's phase 1 ends
        unbounded; the primal's checked infeasibility answers in one solve."""
        market = rescaled_market(random_market(np.random.default_rng(seed), 2, d=1,
                                               epsilons=[0.05]), 1e6)
        senses = []
        monkeypatch.setattr(transport, "solve",
                            lambda lp, **kw: senses.append(lp.sense) or solve(lp, **kw))
        with pytest.raises(ArbitrageError) as info:
            superhedging_duality_report(market, Payoff.constant(0.0, market.instance))
        assert (info.value.primal_status, info.value.dual_status) == ("infeasible",
                                                                      "unbounded")
        assert senses == ["max"]

    def test_raises_exactly_when_the_tall_lp_is_unbounded(self):
        """The superhedge LP solved on its own is the oracle of the status
        that an infeasible primal implies."""
        outcomes = set()
        for s in range(40):
            eps = [0.05 * (s % 4 // 2)]
            if s % 2:
                market = random_market(np.random.default_rng(s), 2, d=1, epsilons=eps)
            else:
                base = arbitrage_free_market(np.random.default_rng(1000 + s), 2, d=1,
                                             epsilons=eps, hull_prob=0.5)
                market = Market(base.instance, base.s0 * [1.0, 1.7, 0.6][s // 2 % 3],
                                base.epsilons)
            payoff = Payoff.dense(random_payoff_table(np.random.default_rng(s),
                                                      market.instance))
            try:
                superhedging_duality_report(market, payoff)
                status = "optimal"
            except ArbitrageError:
                status = "unbounded"
            assert tall_superhedge(market, payoff).status == status, s
            outcomes.add(status)
        assert outcomes == {"optimal", "unbounded"}


class TestOneLpEntryPoints:
    """The public duality entry points solve one LP per duality question,
    the short primal, and read the other side off its multipliers; the
    tall LPs are the oracle of their values."""

    @staticmethod
    def _counting(monkeypatch):
        senses = []

        def counted(lp, **kwargs):
            senses.append(lp.sense)
            return solve(lp, **kwargs)

        monkeypatch.setattr(transport, "solve", counted)
        return senses

    @staticmethod
    def _within(got, want, rtol):
        return abs(got - want) <= rtol * max(1.0, abs(want))

    @staticmethod
    def _markets():
        rng = np.random.default_rng(41)
        hull = binomial_market(rng, horizon=2, hull_prob=1.0)
        assert any(not con.is_exact for con in hull.instance.constraints)
        return hull, binomial_market(rng, horizon=2, d=2, epsilons=[0.05, 0.0])

    def test_arbitrage_free_markets_cost_one_solve_per_question(self, monkeypatch):
        rng = np.random.default_rng(42)
        senses = self._counting(monkeypatch)
        for market in self._markets():
            table = random_payoff_table(rng, market.instance)
            payoff = Payoff.dense(table)
            values = []
            for forced in (False, True):
                senses.clear()
                res = superhedge_dual(market, payoff, force_frictional=forced)
                assert senses == ["max"]
                tall = tall_superhedge(market, payoff, force_frictional=forced)
                assert res.status == tall.status == "optimal"
                assert self._within(res.value, tall.value, FTAP_GAP_RTOL)
                superrep, identity = strategy_residuals(market, table, res.value, res)
                assert superrep >= -1e-8 and identity <= 1e-8
                values.append(res.value)
            assert abs(values[0] - values[1]) <= FRICTIONLESS_TOL
            senses.clear()
            dual = dual_transport(market.instance, payoff)
            assert senses == ["max"]
            assert self._within(dual.value, tall_dual_transport(market.instance, payoff).value,
                                TRANSPORT_GAP_RTOL)
            senses.clear()
            verdict = classify_arbitrage(market)
            assert senses == ["max"]
            ua = tall_superhedge(market, Payoff.constant(0.0, market.instance))
            assert verdict.kind == "no_arbitrage" and ua.status == "optimal"
            assert self._within(verdict.uniform_value, ua.value, FTAP_GAP_RTOL)
            senses.clear()
            report = verify_representation(market.instance, [payoff, Payoff.dense(-table)])
            assert senses == ["max", "max"]
            assert report.max_gap <= TRANSPORT_GAP_RTOL * max(1.0, *map(abs, report.dual_values))
            # one solve per eps, and one for eps 0 unless the schedule ends there
            for schedule, solves in (([0.1, 0.0], 2), ([0.1, 0.01], 3)):
                senses.clear()
                frictionless_limit_check(market, payoff, schedule)
                assert senses == ["max"] * solves

    def test_arbitrage_market_returns_an_improving_ray(self, monkeypatch):
        senses, built = self._counting(monkeypatch), _builders(monkeypatch)
        for market in self._markets():
            # a spot above every grid point: selling the underlying forward wins
            top = max(float(ax.points.max()) for ax in market.instance.axes)
            shifted = Market(market.instance, np.full(market.d, 2.0 * top + 1.0),
                             market.epsilons)
            senses.clear()
            built.clear()
            res = superhedge_dual(shifted, Payoff.constant(0.0, shifted.instance))
            # the infeasible primal, then the superhedge LP for its ray,
            # transposed from that primal with no builder of its own
            assert senses == ["max", "min"] and built == ["max"]
            assert res.status == "unbounded" and res.value == -np.inf
            assert res.cost() < 0.0
            assert float(res.outcome().min()) >= -1e-9

    def test_every_entry_point_hands_out_its_bound_dual_side(self):
        """Each strategy is the `DualSide` read off the LP, bound to the grid
        and market it came from; its own cost() and outcome() give `hedge`'s
        residuals bit for bit, and a ray's cover the zero payoff at a
        negative cost."""
        def bound(side, instance, market):
            assert isinstance(side, DualSide)
            assert side.instance is instance and side.market is market
            return side

        def valued(side, table):
            return float((side.outcome() - table).min()), abs(side.value - side.cost())

        rng = np.random.default_rng(43)
        for market in self._markets():
            instance = market.instance
            table = random_payoff_table(rng, instance)
            payoff = Payoff.dense(table)
            for on in (market, None):
                residuals = transport.hedge(*transport.solve_primal(instance, table, on), table)[1]
                if on is None:
                    sides = [dual_transport(instance, payoff)]
                    report = duality_report(instance, payoff)
                    identity = report.residuals["dual_price_identity"]
                else:
                    sides = [superhedge_dual(market, payoff)]
                    report = superhedging_duality_report(market, payoff)
                    identity = report.residuals["strategy_cost_identity"]
                assert (report.residuals["superreplication_min"], identity) == residuals
                for side in sides + [report.dual]:
                    assert valued(bound(side, instance, on), table) == residuals
        spot_mismatch = _market([([0.0, 2.0], [0.5, 0.5])], [0.9], [0.0])
        zero = Payoff.constant(0.0, spot_mismatch.instance)
        for ray in (superhedge_dual(spot_mismatch, zero),
                    ftap_check(spot_mismatch).verdict.strategy):
            bound(ray, spot_mismatch.instance, spot_mismatch)
            assert ray.status == "unbounded" and ray.cost() < 0.0
            assert float(ray.outcome().min()) >= -1e-9


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
            strategy = superhedge_dual(market, f)
            other = primal_mot(market, f_other)
            assert other.status == "optimal"
            lhs = float(f.table_for(market.instance) @ other.coupling.weights)
            assert lhs <= strategy.cost() + 1e-8


class TestFrictionlessReduction:
    def test_no_trade_columns_without_costs(self):
        market = straddle_market()
        trading = primal_lp(market.instance, np.zeros(market.instance.n_paths), market).trading
        assert not trading.trade_vars
        assert trading.h_vars

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
        lp1 = superhedge_lp(primal_lp(market.instance, table, market))[0]
        lp2 = superhedge_lp(primal_lp(market.instance, table,
                                      market.with_epsilons(np.zeros(1))))[0]
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
        for leg in res.legs:
            assert 1 <= leg.maturity <= market.horizon
            assert len(leg.h) == leg.maturity
            for n, table in enumerate(leg.h, start=1):
                assert table.shape == (instance.n_prefixes(n - 1), market.d)
            assert leg.u is not None
            for u_tab, h_tab in zip(leg.u, leg.h):
                assert u_tab.shape == h_tab.shape
                assert np.all(u_tab >= -1e-12)

    def test_turnover_dominates_position_changes(self):
        rng = np.random.default_rng(7)
        market = arbitrage_free_market(rng, horizon=3, d=1, epsilons=[0.05])
        payoff = Payoff.dense(random_payoff_table(rng, market.instance))
        res = superhedge_dual(market, payoff)
        instance = market.instance
        for leg in res.legs:
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
        gains = res.dynamic_gains()
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
            table_rows = [leg.h[1][p] for leg in res.legs
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
        assert float(strategy.outcome().min()) >= -1e-9

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
