"""Duality-gap reproduction on the Bernoulli product space."""

import dataclasses
import itertools

import numpy as np
import pytest
from click.testing import CliRunner

from motkit import bernoulli, transport
from motkit.bernoulli import (
    bernoulli_instance,
    gap_report,
    liminf_primal_value,
    tail_forced_dual_bound,
    two_point_measure,
    window_min_expectations,
)
from motkit.lp import solve
from motkit.cli import main
from motkit.model import Coupling, DiscreteAxis, Payoff, marginal_of
from motkit.transport import conjugate_membership, dual_transport, primal_transport

from oracles import tall_tail_forced_dual_bound


@pytest.fixture
def senses(monkeypatch):
    """The sense of every LP the transport module solves, in order."""
    seen = []
    monkeypatch.setattr(transport, "solve",
                        lambda lp, **kw: seen.append(lp.sense) or solve(lp, **kw))
    return seen


class TestInstanceConstruction:
    def test_single_coin(self):
        inst = bernoulli_instance(1)
        assert inst.horizon == 1
        assert inst.n_paths == 2
        nu = inst.constraints[0].measures[0]
        assert np.allclose(nu.weights, [0.5, 0.5])

    def test_depth_three_grid(self):
        inst = bernoulli_instance(3)
        assert inst.n_paths == 8
        for con in inst.constraints:
            assert np.allclose(con.measures[0].weights, [0.5, 0.5])

    @pytest.mark.parametrize("depth", [0, 20])
    def test_depth_outside_the_table_cap_is_refused(self, depth):
        with pytest.raises(ValueError, match=r"depth must be 1\.\.19 .*cap 1000000"):
            bernoulli_instance(depth)

    def test_deepest_depth_within_the_cap(self):
        assert bernoulli_instance(19).n_paths == 2 ** 19

    def test_product_measure_is_member(self):
        for depth in (1, 2, 5):
            inst = bernoulli_instance(depth)
            result = conjugate_membership(inst, Coupling.product(inst))
            assert result.is_zero


class TestTailForcedDual:
    def test_depth_one_by_hand(self):
        # min m + (g(0)+g(1))/2 s.t. m+g(0) >= 1, m+g(1) >= 1: optimum (1, 0)
        value, m, legs = tail_forced_dual_bound(1)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_depth_four(self):
        value, _, _ = tail_forced_dual_bound(4)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_certificate_reprices_to_value(self):
        for depth in (1, 2, 3, 5):
            value, m, legs = tail_forced_dual_bound(depth)
            repriced = m + sum(0.5 * (g[0] + g[1]) for g in legs)
            assert repriced == pytest.approx(value, abs=1e-10)
            # the certificate really covers every prefix
            inst = bernoulli_instance(depth)
            idx = inst.point_indices()
            cover = m + sum(legs[n][idx[n]] for n in range(depth))
            assert float(cover.min()) >= 1.0 - 1e-9

    def test_axis_permutation_invariance(self):
        base, _, _ = tail_forced_dual_bound(4)
        # the construction is symmetric across axes; value is permutation-stable
        for _ in range(3):
            again, _, _ = tail_forced_dual_bound(4)
            assert again == base


class TestShortSide:
    """The tail-forced bound is read off the short transport primal of the
    constant payoff 1; the tall LP itself is the oracle."""

    @pytest.mark.parametrize("depth", range(1, 11))
    def test_equals_tall_lp_and_certifies(self, senses, depth):
        """Also: both helpers read `gap_report`, whose two primals share one
        phase 1, and return the bits of each primal solved on its own."""
        value, m, legs = tail_forced_dual_bound(depth)
        # gap_report's two primals; the multipliers passed: no tall LP
        assert senses == ["max", "max"]
        instance = bernoulli_instance(depth)
        ones, last = np.ones(instance.n_paths), instance.coordinate_values(depth - 1)[:, 0]
        alone = transport.hedge(*transport.solve_primal(instance, ones), ones)[0]
        bound = transport.solve_primal(instance, last)[1].value
        bits = lambda *values: [np.asarray(v).tobytes() for v in values]
        assert bits(value, m, *legs) == bits(alone.value, alone.m, *alone.g)
        assert bits(*liminf_primal_value(depth)) == bits(0.5, bound)
        assert value == tall_tail_forced_dual_bound(depth)[0]
        assert all(np.all(g >= 0.0) for g in legs)
        idx = instance.point_indices()
        cover = m + sum(legs[n][idx[n]] for n in range(depth))
        assert float(cover.min()) >= 1.0 - 1e-9
        repriced = m + sum(0.5 * (g[0] + g[1]) for g in legs)
        assert repriced == pytest.approx(value, abs=1e-10)

    def test_shifted_multiplier_falls_back_to_tall_lp(self, monkeypatch):
        seen = []

        def shifted(lp, **kwargs):
            sol = solve(lp, **kwargs)
            seen.append(lp.sense)
            if lp.sense == "max":
                duals = sol.duals.copy()
                duals[0] -= 0.5  # the point 0 of the first coin is left uncovered
                sol = dataclasses.replace(sol, duals=duals)
            return sol

        monkeypatch.setattr(transport, "solve", shifted)
        value, m, legs = tail_forced_dual_bound(4)
        assert seen == ["max", "max", "min"]
        assert (value, m) == tall_tail_forced_dual_bound(4)[:2] == (1.0, 1.0)

    @pytest.mark.parametrize("depth", (12, 14))
    def test_gap_persists_deeper(self, senses, depth):
        report = gap_report(depth)
        assert senses == ["max", "max"]
        assert report.dual_value == pytest.approx(1.0, abs=1e-9)
        assert report.primal_upper_bound == pytest.approx(0.5, abs=1e-9)
        assert report.gap == pytest.approx(0.5, abs=1e-9)


class TestLiminfPrimal:
    def test_depth_two_values(self):
        candidate, upper = liminf_primal_value(2)
        assert candidate == pytest.approx(0.5, abs=0.0)
        assert upper == pytest.approx(0.5, abs=1e-9)

    def test_two_point_measure_marginals(self):
        for depth in (1, 3, 6):
            mu = two_point_measure(depth)
            for ax in mu.instance.axes:
                assert np.allclose(marginal_of(mu, ax.index).weights, [0.5, 0.5],
                                   atol=1e-15)
            assert conjugate_membership(mu.instance, mu).is_zero

    def test_product_measure_window_expectations_fall_to_zero(self):
        values = window_min_expectations(8, start=1)
        assert np.allclose(values, 0.5 ** np.arange(1, 9), atol=1e-12)
        assert np.all(np.diff(values) < 0)
        # exhaustive enumeration cross-check at depth 4
        total = 0.0
        for path in itertools.product((0.0, 1.0), repeat=4):
            total += min(path) / 16.0
        assert values[3] == pytest.approx(total, abs=1e-15)

    def test_window_expectations_with_later_start(self):
        values = window_min_expectations(6, start=3)
        assert np.allclose(values, 0.5 ** np.arange(1, 5), atol=1e-12)
        with pytest.raises(ValueError):
            window_min_expectations(3, start=4)


class TestGapReport:
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_gap_is_half_at_every_depth(self, depth):
        report = gap_report(depth)
        assert report.dual_value == pytest.approx(1.0, abs=1e-9)
        assert report.dual_upper_bound == 1.0
        assert report.primal_candidate_value == pytest.approx(0.5, abs=1e-12)
        assert report.primal_upper_bound == pytest.approx(0.5, abs=1e-9)
        assert report.gap == pytest.approx(0.5, abs=1e-9)

    def test_depth_stability(self):
        values = [gap_report(n).dual_value for n in range(1, 9)]
        assert max(values) - min(values) <= 1e-10

    def test_report_invariants_enforced(self):
        report = gap_report(3)
        assert report.primal_candidate_value <= report.primal_upper_bound + 1e-12
        assert report.attaining_measure.total_mass == pytest.approx(1.0, abs=0.0)


class TestSharedInstance:
    def test_counterexample_builds_one_instance_with_fresh_reports(self, monkeypatch):
        """`counterexample --depth 6` builds the six axes of one instance,
        not 1 + 2 + ... + 6, and each depth's report from it has the bits of
        `gap_report(n)` on a fresh `bernoulli_instance(n)`."""
        axes, reports = [], []
        post_init, report = DiscreteAxis.__post_init__, bernoulli.gap_report
        with monkeypatch.context() as patch:
            patch.setattr(DiscreteAxis, "__post_init__",
                          lambda ax: axes.append(ax.index) or post_init(ax))
            patch.setattr(bernoulli, "gap_report",
                          lambda *args: reports.append(report(*args)) or reports[-1])
            result = CliRunner().invoke(main, ["counterexample", "--depth", "6"])
        assert result.exit_code == 0, result.output
        assert axes == [1, 2, 3, 4, 5, 6]
        assert [r.depth for r in reports] == [1, 2, 3, 4, 5, 6]

        def bits(value):
            arr = np.asarray(value)
            return arr.dtype, arr.shape, arr.tobytes()

        for shared in reports:
            fresh = gap_report(shared.depth)
            for name in ("dual_value", "primal_upper_bound", "certificate_m"):
                assert bits(getattr(shared, name)) == bits(getattr(fresh, name)), name
            assert len(shared.certificate_legs) == len(fresh.certificate_legs) == shared.depth
            for mine, theirs in zip(shared.certificate_legs, fresh.certificate_legs):
                assert bits(mine) == bits(theirs)
            assert bits(shared.attaining_measure.weights) == bits(fresh.attaining_measure.weights)

    def test_depth_beyond_the_instance_raises(self):
        instance = bernoulli_instance(3)
        for depth in (0, -1, 4):
            with pytest.raises(ValueError, match="horizon"):
                gap_report(depth, instance)
        assert gap_report(2, instance).depth == 2


class TestZeroGapWithoutTailForcing:
    @pytest.mark.parametrize("depth", (1, 2, 3, 4, 6))
    def test_cylinder_payoff_has_no_gap(self, depth):
        inst = bernoulli_instance(depth)
        payoff = Payoff.named("cylinder_liminf", depth=depth)
        primal, _ = primal_transport(inst, payoff)
        dual = dual_transport(inst, payoff)
        assert abs(primal - dual.value) <= 1e-8
        assert primal == pytest.approx(0.5, abs=1e-9)
        # while the tail-forced bound stays at 1
        forced, _, _ = tail_forced_dual_bound(depth)
        assert forced == pytest.approx(1.0, abs=1e-9)
