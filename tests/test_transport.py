"""Transport duality: primal/dual agreement, conjugate membership, properties."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motkit import transport
from motkit.lp import LpError, phase_one, solve
from motkit.model import (
    VALUE_TOL,
    Coupling,
    DiscreteAxis,
    DiscreteMeasure,
    Instance,
    MarginalConstraint,
    Payoff,
    evaluate_expectation,
    marginal_of,
)
from motkit.transport import (
    ConstantWitness,
    SeparatingWitness,
    conjugate_membership,
    dual_transport,
    duality_report,
    functional_properties_check,
    marginal_separation,
    primal_transport,
    verify_representation,
)

from generators import (
    feasible_coupling,
    random_exact_instance,
    random_hull_instance,
    random_payoff_table,
)
from oracles import (
    dual_equivalent_split,
    transport_dual_residuals,
    transport_vertex_values,
    two_lp_transport,
)

GAP_TOL = 1e-7


def _two_axis_instance(points1, weights1, points2, weights2):
    ax1 = DiscreteAxis(1, np.asarray(points1, dtype=float))
    ax2 = DiscreteAxis(2, np.asarray(points2, dtype=float))
    return Instance(
        (ax1, ax2),
        (MarginalConstraint.exact(DiscreteMeasure(ax1, np.asarray(weights1, dtype=float))),
         MarginalConstraint.exact(DiscreteMeasure(ax2, np.asarray(weights2, dtype=float)))))


def _diag_instance():
    return _two_axis_instance([0.0, 1.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5])


class TestPrimalTransport:
    def test_diagonal_indicator(self):
        inst = _diag_instance()
        f = Payoff.dense([1.0, 0.0, 0.0, 1.0])
        value, coupling = primal_transport(inst, f)
        assert value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(coupling.weights, [0.5, 0.0, 0.0, 0.5], atol=1e-9)

    def test_constant_payoff(self):
        inst = _diag_instance()
        value, _ = primal_transport(inst, Payoff.constant(2.5, inst))
        assert value == pytest.approx(2.5, abs=1e-9)

    def test_monge_cost_against_vertex_enumeration(self):
        inst = _two_axis_instance(np.arange(3.0), [0.25, 0.5, 0.25],
                                  np.arange(3.0), [0.5, 0.0, 0.5])
        xs = np.arange(3.0)
        cost = -np.abs(xs[:, None] - xs[None, :])
        value, coupling = primal_transport(inst, Payoff.dense(cost.ravel()))
        oracle_values = transport_vertex_values([0.25, 0.5, 0.25], [0.5, 0.0, 0.5], cost)
        assert value == pytest.approx(max(oracle_values), abs=GAP_TOL)
        # the attaining coupling is feasible and achieves the value
        assert evaluate_expectation(coupling, Payoff.dense(cost.ravel())) == pytest.approx(
            value, abs=1e-9)


class TestDualTransport:
    def test_constant_cash_only(self):
        inst = _diag_instance()
        sol = dual_transport(inst, Payoff.constant(1.5, inst))
        assert sol.value == pytest.approx(1.5, abs=1e-9)
        assert sol.m == pytest.approx(1.5, abs=1e-8)
        assert all(np.allclose(g, 0.0, atol=1e-9) for g in sol.g)

    def test_separable_replication(self):
        inst = _diag_instance()
        legs = [np.array([0.25, 1.0]), np.array([0.5, 0.0])]
        f = Payoff.separable(legs)
        sol = dual_transport(inst, f)
        expected = 0.5 * (0.25 + 1.0) + 0.5 * (0.5 + 0.0)
        assert sol.value == pytest.approx(expected, abs=1e-9)

    def test_diagonal_indicator_matches_primal(self):
        inst = _diag_instance()
        f = Payoff.dense([1.0, 0.0, 0.0, 1.0])
        primal, _ = primal_transport(inst, f)
        dual = dual_transport(inst, f)
        assert dual.value == pytest.approx(primal, abs=1e-8)
        assert dual.value == pytest.approx(1.0, abs=1e-8)

    def test_dual_solution_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            inst = random_hull_instance(rng, 2, max_points=4)
            f = Payoff.dense(random_payoff_table(rng, inst))
            sol = dual_transport(inst, f)
            assert all(np.all(g >= -1e-9) for g in sol.g)
            table = f.table_for(inst)
            idx = inst.point_indices()
            cover = sol.m + sum(sol.g[pos][idx[pos]] for pos in range(inst.horizon))
            assert float((cover - table).min()) >= -1e-8
            from motkit.model import sublinear_price
            priced = sol.m + sum(sublinear_price(con, sol.g[pos])
                                 for pos, con in enumerate(inst.constraints))
            assert sol.value == pytest.approx(priced, abs=1e-9)
            for lam in sol.mixtures:
                assert np.all(lam >= -1e-9)
                assert lam.sum() == pytest.approx(1.0, abs=1e-7)


class TestSplitForm:
    def test_short_static_position(self):
        inst = _diag_instance()
        legs = [np.array([0.5, 1.0]), np.array([0.25, 0.75])]
        f_table = -Payoff.separable(legs).table_for(inst)
        value = dual_equivalent_split(inst, Payoff.dense(f_table))
        expected = -(0.5 * 1.5 + 0.5 * 1.0)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_split_equals_standard_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            inst = random_exact_instance(rng, 2, max_points=4)
            f = Payoff.dense(random_payoff_table(rng, inst))
            standard = dual_transport(inst, f).value
            split = dual_equivalent_split(inst, f)
            assert split == pytest.approx(standard, abs=1e-8)

    def test_rejects_hull_constraints(self):
        rng = np.random.default_rng(2)
        inst = random_hull_instance(rng, 2, max_points=3)
        with pytest.raises(ValueError):
            dual_equivalent_split(inst, Payoff.constant(0.0, inst))


class TestConjugateMembership:
    def test_product_measure_is_member(self):
        inst = _diag_instance()
        result = conjugate_membership(inst, Coupling.product(inst))
        assert result.is_zero

    def test_scaled_mass_gives_constant_witness(self):
        inst = _diag_instance()
        doubled = Coupling(inst, 2.0 * Coupling.product(inst).weights)
        result = conjugate_membership(inst, doubled)
        assert result.value == np.inf
        assert isinstance(result.witness, ConstantWitness)
        assert result.witness.direction == 1.0

    def test_wrong_marginal_gives_separating_witness(self):
        inst = _diag_instance()
        # first marginal (0.9, 0.1) instead of (0.5, 0.5)
        w = np.outer([0.9, 0.1], [0.5, 0.5]).ravel()
        result = conjugate_membership(inst, Coupling(inst, w))
        assert result.value == np.inf
        assert isinstance(result.witness, SeparatingWitness)
        wit = result.witness
        assert wit.axis_index == 1
        mu_1 = marginal_of(Coupling(inst, w), 1).weights
        from motkit.model import sublinear_price
        con = inst.constraints[0]
        assert wit.values @ mu_1 > sublinear_price(con, wit.values)
        # supported exactly where mu exceeds nu
        assert np.all(wit.values[mu_1 <= con.measures[0].weights] == 0.0)

    def test_hull_membership_by_mixture(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_hull_instance(rng, 2, max_points=4)
            w = feasible_coupling(rng, inst)
            result = conjugate_membership(inst, Coupling(inst, w))
            assert result.is_zero


def _separation_lp_value(instance, coupling):
    """The largest separation LP value over the coupling's marginals."""
    return max(transport._separation_value(con, marginal_of(coupling, ax.index).weights)[0]
               for ax, con in zip(instance.axes, instance.constraints))


class TestMarginalSeparation:
    """The mixture residual sum_p (mu_n - lambda_n @ V_n)^+ against the
    separation LP it replaced in the reports."""

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bounds_the_separation_lp_for_any_mixture(self, seed, in_hull):
        rng = np.random.default_rng(seed)
        inst = random_hull_instance(rng, 1 + seed % 3, max_points=4)
        w = feasible_coupling(rng, inst) if in_hull else rng.uniform(0.0, 1.0, inst.n_paths)
        coupling = Coupling(inst, w / w.sum())
        mixtures = [rng.dirichlet(np.ones(len(con.measures))) for con in inst.constraints]
        assert (marginal_separation(inst, coupling, mixtures)
                >= _separation_lp_value(inst, coupling) - 1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_small_report_residual_means_conjugate_zero(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_hull_instance(rng, 1 + seed % 3, max_points=4)
        report = duality_report(inst, Payoff.dense(random_payoff_table(rng, inst)))
        residual = report.residuals["marginal_separation"]
        assert residual >= _separation_lp_value(inst, report.coupling) - 1e-12
        if residual <= VALUE_TOL:
            assert conjugate_membership(inst, report.coupling).is_zero


class TestRepresentation:
    def test_basis_payoffs_on_two_by_two(self):
        inst = _diag_instance()
        payoffs = []
        for z in range(4):
            table = np.zeros(4)
            table[z] = 1.0
            payoffs.append(Payoff.dense(table))
        report = verify_representation(inst, payoffs)
        assert report.max_gap <= 1e-8

    def test_constants_have_zero_gap(self):
        inst = _diag_instance()
        report = verify_representation(inst, [Payoff.constant(c, inst)
                                              for c in (-1.0, 0.0, 2.0)])
        assert report.max_gap <= 1e-9

    def test_random_instances_random_payoffs(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            inst = random_exact_instance(rng, 3, max_points=3)
            payoffs = [Payoff.dense(random_payoff_table(rng, inst)) for _ in range(5)]
            report = verify_representation(inst, payoffs)
            worst = max(worst, report.max_gap)
        assert worst <= GAP_TOL

    def test_one_phase_one_and_the_cold_bits(self, monkeypatch):
        """All payoffs of one instance from one phase 1, each value the bits
        of its own cold solve."""
        rng = np.random.default_rng(6)
        inst = random_hull_instance(rng, 2, max_points=3)
        payoffs = [Payoff.dense(random_payoff_table(rng, inst)) for _ in range(4)]
        starts = []
        monkeypatch.setattr(transport, "phase_one",
                            lambda lp, **kw: starts.append(lp) or phase_one(lp, **kw))
        report = verify_representation(inst, payoffs)
        assert len(starts) == 1
        monkeypatch.undo()
        for payoff, primal, dual in zip(payoffs, report.primal_values, report.dual_values):
            assert primal == primal_transport(inst, payoff)[0]
            assert dual == dual_transport(inst, payoff).value


class TestFunctionalProperties:
    def test_translation_and_homogeneity_examples(self):
        inst = _diag_instance()
        f = np.array([0.3, -0.2, 0.9, 0.1])
        phi = lambda t: dual_transport(inst, Payoff.dense(t)).value
        assert phi(f + 1.0) == pytest.approx(phi(f) + 1.0, abs=1e-9)
        assert phi(2.0 * f) == pytest.approx(2.0 * phi(f), abs=1e-9)

    def test_property_sweep(self):
        rng = np.random.default_rng(5)
        inst = random_hull_instance(rng, 2, max_points=3)
        report = functional_properties_check(inst, trials=20, seed=7)
        assert report.worst <= 1e-8, report


class TestWeakDualityBound:
    def test_feasible_couplings_stay_below_dual(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            exact = rng.random() < 0.5
            inst = (random_exact_instance(rng, 2, max_points=4) if exact
                    else random_hull_instance(rng, 2, max_points=4))
            f = Payoff.dense(random_payoff_table(rng, inst))
            dual_value = dual_transport(inst, f).value
            for _ in range(10):
                mu = Coupling(inst, feasible_coupling(rng, inst))
                membership = conjugate_membership(inst, mu)
                assert membership.is_zero
                assert evaluate_expectation(mu, f) <= dual_value + 1e-8


class TestNegativeCoordinates:
    def test_transport_allows_any_real_grid(self):
        # transport-only instances may use negative coordinates
        inst = _two_axis_instance([-2.0, 1.0], [0.5, 0.5], [-1.0, 0.0, 3.0],
                                  [0.25, 0.5, 0.25])
        assert not inst.nonnegative
        rng = np.random.default_rng(7)
        f = Payoff.dense(rng.uniform(-1, 1, size=inst.n_paths))
        primal, _ = primal_transport(inst, f)
        dual = dual_transport(inst, f)
        assert abs(primal - dual.value) <= 1e-8

    def test_market_requires_nonnegative_grids(self):
        from motkit.martingale import Market
        inst = _two_axis_instance([-2.0, 2.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            Market(instance=inst, s0=np.array([1.0]), epsilons=np.array([0.0]))


class TestDualityReport:
    def test_report_fields_and_residuals(self):
        inst = _diag_instance()
        f = Payoff.dense([1.0, 0.0, 0.0, 1.0])
        report = duality_report(inst, f)
        assert report.gap <= 1e-8
        assert report.residuals["superreplication_min"] >= -1e-8
        assert report.residuals["marginal_separation"] <= 1e-8
        assert report.residuals["dual_price_identity"] <= 1e-9
        assert report.residuals["coupling_mass_error"] <= 1e-9

    def test_matches_two_lp_route(self, monkeypatch):
        senses = []
        monkeypatch.setattr(transport, "solve",
                            lambda lp, **kw: senses.append(lp.sense) or solve(lp, **kw))
        rng = np.random.default_rng(17)
        for trial in range(40):
            make = random_hull_instance if trial % 2 else random_exact_instance
            inst = make(rng, 2 + trial % 2, max_points=4)
            table = random_payoff_table(rng, inst)
            senses.clear()
            report = duality_report(inst, Payoff.dense(table))
            assert "min" not in senses  # the multipliers passed: no dual LP
            value, coupling, dual = two_lp_transport(inst, Payoff.dense(table))
            assert report.primal_value == value
            assert np.array_equal(report.coupling.weights, coupling.weights)
            assert abs(report.dual_value - dual.value) <= GAP_TOL * max(1.0, abs(dual.value))
            for sol in (report.dual, dual):
                superrep, identity = transport_dual_residuals(inst, table, sol)
                assert superrep >= -1e-8 and identity <= 1e-8
                assert all(np.all(lam >= 0) and lam.sum() == pytest.approx(1.0)
                           for lam in sol.mixtures)

    def test_perturbed_multiplier_falls_back_to_dual_lp(self, monkeypatch):
        inst = random_exact_instance(np.random.default_rng(6), 2, max_points=4)
        f = Payoff.dense(random_payoff_table(np.random.default_rng(7), inst))
        value, coupling, dual = two_lp_transport(inst, f)
        senses = []

        def perturbed(lp, **kwargs):
            sol = solve(lp, **kwargs)
            senses.append(lp.sense)
            if lp.sense == "max":
                duals = sol.duals.copy()
                duals[0] -= 0.5  # the first point of axis 1 is left uncovered
                sol = dataclasses.replace(sol, duals=duals)
            return sol

        monkeypatch.setattr(transport, "solve", perturbed)
        report = duality_report(inst, f)
        assert senses == ["max", "min"]
        assert (report.primal_value, report.dual_value) == (value, dual.value)
        assert np.array_equal(report.coupling.weights, coupling.weights)
        assert report.dual.m == dual.m
        assert all(np.array_equal(a, b) for a, b in zip(report.dual.g, dual.g))

    def test_unbounded_fallback_beside_an_optimal_primal_raises(self, monkeypatch):
        """Weak duality rules it out, so `hedge` raises rather than report it."""
        inst = random_exact_instance(np.random.default_rng(6), 2, max_points=4)
        table = random_payoff_table(np.random.default_rng(7), inst)
        primal, sol = transport.solve_primal(inst, table)
        side = transport.hedge(primal, sol, table)[0]
        monkeypatch.setattr(transport, "certified", lambda *args: False)
        monkeypatch.setattr(transport, "solve_superhedge",
                            lambda primal: dataclasses.replace(side, status="unbounded"))
        with pytest.raises(LpError, match="unbounded beside an optimal primal"):
            transport.hedge(primal, sol, table)
