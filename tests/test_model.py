"""Core-type behavior: marginals, expectations, prices, tightness, convex order."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motkit.model import (
    Coupling,
    DiscreteAxis,
    DiscreteMeasure,
    Instance,
    MarginalConstraint,
    Payoff,
    check_convex_order,
    evaluate_expectation,
    marginal_of,
    sublinear_price,
    tightness_certificate,
)

from generators import dyadic_probability, random_exact_instance
from oracles import translation_check


def _axis(index, values):
    return DiscreteAxis(index=index, points=np.asarray(values, dtype=float))


def _uniform_instance(shape):
    axes = []
    cons = []
    for t, npts in enumerate(shape):
        ax = _axis(t + 1, np.arange(npts, dtype=float))
        axes.append(ax)
        cons.append(MarginalConstraint.exact(
            DiscreteMeasure(ax, np.full(npts, 1.0 / npts))))
    return Instance(tuple(axes), tuple(cons))


class TestInvariants:
    def test_axis_rejects_duplicates(self):
        with pytest.raises(ValueError):
            _axis(1, [0.0, 0.0])

    def test_measure_rejects_negative_weights(self):
        ax = _axis(1, [0.0, 1.0])
        with pytest.raises(ValueError):
            DiscreteMeasure(ax, np.array([0.5, -0.1]))

    def test_constraint_requires_probabilities(self):
        ax = _axis(1, [0.0, 1.0])
        with pytest.raises(ValueError):
            MarginalConstraint.exact(DiscreteMeasure(ax, np.array([0.5, 0.4])))

    def test_instance_requires_aligned_constraints(self):
        ax1, ax2 = _axis(1, [0.0, 1.0]), _axis(2, [0.0, 1.0])
        nu = DiscreteMeasure(ax1, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Instance((ax2,), (MarginalConstraint.exact(nu),))


class TestIndexCache:
    def test_index_arrays_are_computed_once_and_read_only(self, monkeypatch):
        inst = _uniform_instance((2, 3, 2))
        for get in (inst.point_indices, lambda: inst.prefix_ids(2)):
            first = get()
            assert get() is first
            with pytest.raises(ValueError):
                first[0] = 1
        assert inst.n_paths == 12
        assert np.array_equal(inst.point_indices(),
                              np.array(np.unravel_index(np.arange(12), (2, 3, 2))))
        assert np.array_equal(inst.prefix_ids(2), np.arange(12) // 2)
        assert inst.coordinate_values(1).ravel().tolist() == [0, 0, 1, 1, 2, 2] * 2
        assert [inst.n_prefixes(level) for level in range(4)] == [1, 2, 6, 12]
        monkeypatch.setattr(np, "prod", lambda *args, **kw: pytest.fail("recomputed"))
        assert [inst.n_prefixes(level) for level in range(4)] == [1, 2, 6, 12]


class TestMarginalOf:
    def test_product_of_fair_coins(self):
        inst = _uniform_instance((2, 2))
        coupling = Coupling.product(inst)
        nu = marginal_of(coupling, 1)
        assert np.allclose(nu.weights, [0.5, 0.5], atol=1e-15)

    def test_comonotone_two_point_coupling(self):
        inst = _uniform_instance((2, 2))
        w = np.zeros(4)
        w[0] = 0.5  # (0, 0)
        w[3] = 0.5  # (1, 1)
        nu = marginal_of(Coupling(inst, w), 2)
        assert np.allclose(nu.weights, [0.5, 0.5], atol=1e-15)

    def test_against_brute_force_summation(self):
        rng = np.random.default_rng(0)
        inst = _uniform_instance((3, 4))
        w = rng.random(12)
        coupling = Coupling(inst, w)
        tensor = w.reshape(3, 4)
        for n, expected in ((1, tensor.sum(axis=1)), (2, tensor.sum(axis=0))):
            by_loop = np.zeros_like(expected)
            for i, j in itertools.product(range(3), range(4)):
                by_loop[i if n == 1 else j] += tensor[i, j]
            got = marginal_of(coupling, n).weights
            assert np.allclose(got, by_loop, atol=1e-12)
            assert np.allclose(got, expected, atol=1e-12)

    def test_mass_conservation(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            inst = random_exact_instance(rng, int(rng.integers(1, 4)), max_points=4)
            coupling = Coupling(inst, rng.random(inst.n_paths))
            for ax in inst.axes:
                assert marginal_of(coupling, ax.index).total_mass == pytest.approx(
                    coupling.total_mass, abs=1e-12)

    def test_index_out_of_range(self):
        inst = _uniform_instance((2, 2))
        with pytest.raises(IndexError):
            marginal_of(Coupling.product(inst), 3)


class TestEvaluateExpectation:
    def test_constant_payoff_normalization(self):
        inst = _uniform_instance((2, 3))
        coupling = Coupling.product(inst)
        assert evaluate_expectation(coupling, Payoff.constant(1.0, inst)) == pytest.approx(1.0)

    def test_indicator_on_support(self):
        inst = _uniform_instance((2, 2))
        w = np.zeros(4)
        w[0] = w[3] = 0.5
        table = np.array([1.0, 0.0, 0.0, 1.0])  # 1{x=y}
        assert evaluate_expectation(Coupling(inst, w), Payoff.dense(table)) == pytest.approx(1.0)

    def test_separable_matches_dense_oracle(self):
        inst = _uniform_instance((2, 2))
        coupling = Coupling.product(inst)
        legs = [np.array([0.0, 1.0]), np.array([0.0, 1.0])]
        separable = Payoff.separable(legs)
        dense = Payoff.dense(separable.table_for(inst))
        fast = evaluate_expectation(coupling, separable)
        slow = evaluate_expectation(coupling, dense)
        assert fast == pytest.approx(1.0, abs=1e-12)
        assert fast == pytest.approx(slow, abs=1e-12)

    def test_linearity_in_table_and_weights(self):
        rng = np.random.default_rng(2)
        inst = _uniform_instance((3, 3))
        for _ in range(20):
            f1, f2 = rng.random(9), rng.random(9)
            a, b = rng.random(2)
            w1, w2 = rng.random(9), rng.random(9)
            lhs = evaluate_expectation(Coupling(inst, w1), Payoff.dense(a * f1 + b * f2))
            rhs = (a * evaluate_expectation(Coupling(inst, w1), Payoff.dense(f1))
                   + b * evaluate_expectation(Coupling(inst, w1), Payoff.dense(f2)))
            assert lhs == pytest.approx(rhs, abs=1e-10)
            lhs = evaluate_expectation(Coupling(inst, a * w1 + b * w2), Payoff.dense(f1))
            rhs = (a * evaluate_expectation(Coupling(inst, w1), Payoff.dense(f1))
                   + b * evaluate_expectation(Coupling(inst, w2), Payoff.dense(f1)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_shape_mismatch(self):
        inst = _uniform_instance((2, 2))
        with pytest.raises(ValueError):
            evaluate_expectation(Coupling.product(inst), Payoff.dense(np.ones(5)))


class TestSublinearPrice:
    def test_exact_expectation(self):
        ax = _axis(1, [0.0, 1.0])
        con = MarginalConstraint.exact(DiscreteMeasure(ax, np.array([0.5, 0.5])))
        assert sublinear_price(con, np.array([0.0, 2.0])) == pytest.approx(1.0)

    def test_vertex_maximum(self):
        ax = _axis(1, [0.0, 1.0])
        v1 = DiscreteMeasure(ax, np.array([1.0, 0.0]))
        v2 = DiscreteMeasure(ax, np.array([0.0, 1.0]))
        con = MarginalConstraint.convex_hull((v1, v2))
        assert sublinear_price(con, np.array([3.0, 5.0])) == pytest.approx(5.0)

    def test_against_simplex_grid_oracle(self):
        rng = np.random.default_rng(3)
        ax = _axis(1, np.arange(4.0))
        vertices = tuple(DiscreteMeasure(ax, dyadic_probability(rng, 4))
                         for _ in range(3))
        con = MarginalConstraint.convex_hull(vertices)
        g = rng.uniform(-2, 2, size=4)
        vmat = con.vertex_matrix
        grid_best = -np.inf
        steps = 100
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                lam = np.array([i, j, steps - i - j]) / steps
                grid_best = max(grid_best, float((lam @ vmat) @ g))
        assert sublinear_price(con, g) == pytest.approx(grid_best, abs=1e-9)

    def test_length_mismatch(self):
        ax = _axis(1, [0.0, 1.0])
        con = MarginalConstraint.exact(DiscreteMeasure(ax, np.array([0.5, 0.5])))
        with pytest.raises(ValueError):
            sublinear_price(con, np.array([1.0, 2.0, 3.0]))

    def test_nonfinite_values_rejected(self):
        ax = _axis(1, [0.0, 1.0])
        con = MarginalConstraint.exact(DiscreteMeasure(ax, np.array([0.5, 0.5])))
        with pytest.raises(ValueError, match="finite"):
            sublinear_price(con, np.array([1.0, np.inf]))


@st.composite
def hull_constraints(draw):
    npts = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    ax = _axis(1, np.arange(float(npts)))
    measures = []
    for _ in range(k):
        raw = np.array(draw(st.lists(st.integers(1, 9), min_size=npts, max_size=npts)),
                       dtype=float)
        measures.append(DiscreteMeasure(ax, raw / raw.sum()))
    return MarginalConstraint.convex_hull(tuple(measures))


class TestPriceProperties:
    @given(hull_constraints(), st.integers(-40, 40), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity_and_translation(self, con, seed, lam_scaled):
        rng = np.random.default_rng(abs(seed))
        g = rng.uniform(0.0, 2.0, size=con.axis.npoints)
        lam = lam_scaled / 10.0
        assert sublinear_price(con, lam * g) == pytest.approx(
            lam * sublinear_price(con, g), abs=1e-9)
        assert translation_check(con, g, 1.0)
        assert translation_check(con, g, 0.0)

    @given(hull_constraints(), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_subadditive(self, con, seed):
        rng = np.random.default_rng(seed)
        n = con.axis.npoints
        g1 = rng.uniform(-1.0, 1.0, size=n)
        g2 = rng.uniform(-1.0, 1.0, size=n)
        assert sublinear_price(con, g1) <= sublinear_price(con, g1 + np.abs(g2)) + 1e-9
        assert (sublinear_price(con, g1 + g2)
                <= sublinear_price(con, g1) + sublinear_price(con, g2) + 1e-9)

    def test_translation_property_on_random_constraints(self):
        rng = np.random.default_rng(4)
        ax = _axis(1, np.arange(5.0))
        for _ in range(100):
            k = int(rng.integers(1, 4))
            con = MarginalConstraint.convex_hull(tuple(
                DiscreteMeasure(ax, dyadic_probability(rng, 5)) for _ in range(k)))
            g = rng.uniform(0.0, 3.0, size=5)
            c = float(rng.uniform(0.0, 2.0))
            assert translation_check(con, g, c)


def _exhaustive_min_certificate(con, m, eps):
    npts = con.axis.npoints
    best = None
    for size in range(npts + 1):
        for keep in itertools.combinations(range(npts), size):
            indicator = np.full(npts, m)
            indicator[list(keep)] = 0.0
            if sublinear_price(con, indicator) <= eps:
                return size
    return best


class TestTightnessCertificate:
    def test_empty_set_suffices_at_loose_eps(self):
        ax = _axis(1, [0.0, 1.0])
        con = MarginalConstraint.exact(DiscreteMeasure(ax, np.array([0.5, 0.5])))
        cert = tightness_certificate(con, m=1.0, eps=1.0)
        assert cert.size == 0

    def test_two_point_boundary_case(self):
        ax = _axis(1, [0.0, 1.0])
        con = MarginalConstraint.exact(DiscreteMeasure(ax, np.array([0.5, 0.5])))
        cert = tightness_certificate(con, m=1.0, eps=0.4)
        assert cert.size == 2  # one point leaves price 0.5 > 0.4
        assert _exhaustive_min_certificate(con, 1.0, 0.4) == 2

    def test_truncated_geometric_matches_exhaustive(self):
        raw = 0.5 ** np.arange(1, 13)
        weights = raw / raw.sum()
        ax = _axis(1, np.arange(12.0))
        con = MarginalConstraint.exact(DiscreteMeasure(ax, weights))
        cert = tightness_certificate(con, m=2.0, eps=0.01)
        assert cert.size == _exhaustive_min_certificate(con, 2.0, 0.01)

    def test_certificate_feeds_back_into_price(self):
        rng = np.random.default_rng(5)
        ax = _axis(1, np.arange(6.0))
        for _ in range(50):
            k = int(rng.integers(1, 4))
            con = MarginalConstraint.convex_hull(tuple(
                DiscreteMeasure(ax, dyadic_probability(rng, 6)) for _ in range(k)))
            m = float(rng.uniform(0.5, 3.0))
            eps = float(rng.uniform(0.05, 1.0))
            cert = tightness_certificate(con, m, eps)
            indicator = np.full(6, m)
            indicator[cert] = 0.0
            assert sublinear_price(con, indicator) <= eps

    def test_rejects_nonpositive_parameters(self):
        ax = _axis(1, [0.0, 1.0])
        con = MarginalConstraint.exact(DiscreteMeasure(ax, np.array([0.5, 0.5])))
        with pytest.raises(ValueError):
            tightness_certificate(con, 0.0, 0.5)


class TestConvexOrder:
    def _instance(self, nu1_points, nu1_weights, nu2_points, nu2_weights):
        ax1 = _axis(1, nu1_points)
        ax2 = _axis(2, nu2_points)
        return Instance(
            (ax1, ax2),
            (MarginalConstraint.exact(DiscreteMeasure(ax1, np.asarray(nu1_weights))),
             MarginalConstraint.exact(DiscreteMeasure(ax2, np.asarray(nu2_weights)))))

    def test_mean_preserving_spread_passes(self):
        inst = self._instance([1.0], [1.0], [0.0, 2.0], [0.5, 0.5])
        report = check_convex_order(inst, 1.0)
        assert report.passed
        assert report.barycenters_match

    def test_reversed_spread_fails(self):
        inst = self._instance([0.0, 2.0], [0.5, 0.5], [1.0], [1.0])
        report = check_convex_order(inst, 1.0)
        assert not report.passed
        assert report.failing_strikes  # call prices decrease somewhere

    def test_rejects_multidimensional_axes(self):
        ax1 = DiscreteAxis(1, np.array([[1.0, 1.0]]))
        ax2 = DiscreteAxis(2, np.array([[0.0, 0.0], [2.0, 2.0]]))
        inst = Instance(
            (ax1, ax2),
            (MarginalConstraint.exact(DiscreteMeasure(ax1, np.array([1.0]))),
             MarginalConstraint.exact(DiscreteMeasure(ax2, np.array([0.5, 0.5])))))
        with pytest.raises(ValueError):
            check_convex_order(inst, [1.0, 1.0])

    def test_agrees_with_martingale_lp_feasibility(self):
        from motkit.martingale import Market, primal_mot
        from generators import arbitrage_free_market, random_market
        rng = np.random.default_rng(6)
        outcomes = {True: 0, False: 0}
        for trial in range(50):
            if trial % 3 == 0:
                market = arbitrage_free_market(rng, horizon=2, d=1)
            elif trial % 3 == 1:
                market = random_market(rng, horizon=2, d=1)
            else:
                # equal barycenters but reversed spread order
                good = arbitrage_free_market(rng, horizon=2, d=1)
                a1, a2 = good.instance.axes
                c1, c2 = good.instance.constraints
                swapped_axes = (DiscreteAxis(1, a2.points), DiscreteAxis(2, a1.points))
                swapped_cons = (
                    MarginalConstraint.exact(
                        DiscreteMeasure(swapped_axes[0], c2.measures[0].weights)),
                    MarginalConstraint.exact(
                        DiscreteMeasure(swapped_axes[1], c1.measures[0].weights)))
                market = Market(Instance(swapped_axes, swapped_cons),
                                good.s0, good.epsilons)
            s0 = float(market.s0[0])
            report = check_convex_order(market.instance, s0)
            feasible = primal_mot(market, Payoff.constant(0.0, market.instance)
                                  ).status == "optimal"
            assert report.passed == feasible, (
                f"trial {trial}: convex-order report {report.passed} "
                f"but LP feasibility {feasible}")
            outcomes[feasible] += 1
        assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


class TestPayoffs:
    def test_named_straddle_expansion(self):
        inst = _uniform_instance((2, 2))
        table = Payoff.named("straddle", n=1, m=2).table_for(inst)
        # |x2 - x1| on {0,1}^2, row-major with axis 1 slowest
        assert np.allclose(table, [0.0, 1.0, 1.0, 0.0])

    def test_named_cylinder_liminf(self):
        inst = _uniform_instance((2, 2, 2))
        table = Payoff.named("cylinder_liminf", depth=3).table_for(inst)
        # equals x3 on binary grids (window starting at k = depth)
        x3 = inst.coordinate_values(2)[:, 0]
        assert np.allclose(table, x3)

    @staticmethod
    def _two_asset_instance():
        axes = (_axis(1, [[0.0, 1.0], [2.0, 3.0]]), _axis(2, [[1.0, 0.0], [0.0, 2.0]]))
        return Instance(axes, tuple(MarginalConstraint.exact(
            DiscreteMeasure(ax, np.full(2, 0.5))) for ax in axes))

    def test_named_basket_call_with_weight_vectors(self):
        inst = self._two_asset_instance()
        table = Payoff.named("basket_call", weights=[[1.0, 2.0], [3.0, -1.0]],
                             strike=2.0).table_for(inst)
        # <w1, x1> is 2 or 8, <w2, x2> is 3 or -2: (sum - 2)^+ row-major
        assert np.array_equal(table, [3.0, 0.0, 9.0, 4.0])

    def test_named_basket_call_with_scalar_weights(self):
        inst = _uniform_instance((2, 3))
        table = Payoff.named("basket_call", weights=[2.0, -1.0], strike=0.5).table_for(inst)
        # (2 x1 - x2 - 0.5)^+ on {0,1} x {0,1,2}
        assert np.array_equal(table, [0.0, 0.0, 0.0, 1.5, 0.5, 0.0])

    def test_named_forward_reads_one_asset(self):
        inst = self._two_asset_instance()
        assert np.array_equal(Payoff.named("forward", n=2, asset=2).table_for(inst),
                              [0.0, 2.0, 0.0, 2.0])
        assert np.array_equal(Payoff.named("forward", n=1, asset=2).table_for(inst),
                              [1.0, 1.0, 3.0, 3.0])

    def test_unknown_generator_rejected(self):
        inst = _uniform_instance((2,))
        with pytest.raises(ValueError):
            Payoff.named("nope").table_for(inst)

    @pytest.mark.parametrize("name, params, message", [
        ("straddle", {"n": 1, "m": 2, "k": 3}, "straddle: got an unexpected keyword argument 'k'"),
        ("straddle", {"n": 1}, "straddle: missing a required argument: 'm'"),
        ("forward", {"instance": None}, "forward: multiple values for argument 'instance'"),
        ("nope", {}, "unknown payoff generator 'nope'"),
    ])
    def test_named_params_checked_at_construction(self, name, params, message):
        """No instance is needed: the error comes from Payoff.named itself."""
        with pytest.raises(ValueError, match=message):
            Payoff.named(name, **params)

    def test_expansion_applies_the_document_rules(self):
        """A library payoff that misses the instance fails as a document would."""
        inst = _uniform_instance((2, 2))
        with pytest.raises(ValueError, match="straddle: m must be an integer naming an axis"):
            Payoff.named("straddle", n=1, m=3).table_for(inst)
        narrow, wide = _axis(1, [0.0, 1.0]), _axis(2, [[0.0, 1.0], [1.0, 0.0]])
        mixed = Instance((narrow, wide), tuple(MarginalConstraint.exact(
            DiscreteMeasure(ax, np.full(2, 0.5))) for ax in (narrow, wide)))
        with pytest.raises(ValueError, match="straddle: m must be .* of n's asset width"):
            Payoff.named("straddle", n=1, m=2).table_for(mixed)

    def test_dense_cap_enforced(self):
        shape = (101,) * 3
        axes = tuple(_axis(t + 1, np.arange(101.0)) for t in range(3))
        cons = tuple(MarginalConstraint.exact(
            DiscreteMeasure(ax, np.full(101, 1.0 / 101))) for ax in axes)
        inst = Instance(axes, cons)
        with pytest.raises(ValueError, match="cap"):
            Payoff.constant(0.0, inst)
