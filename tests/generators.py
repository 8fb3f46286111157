"""Seeded random problem generators shared across test modules.

All numeric data are dyadic rationals (k / 2^s), so float64 arithmetic on
them is exact and float -> Fraction conversion in the oracles is lossless.
"""

from __future__ import annotations

import numpy as np

from motkit.lp import LinearProgram
from motkit.model import (
    DiscreteAxis,
    DiscreteMeasure,
    Instance,
    MarginalConstraint,
)
from motkit.martingale import Market

RELATION_CHOICES = ("<=", "=", ">=")


def dyadic(rng: np.random.Generator, low: float, high: float, size=None, scale: int = 16):
    """Uniform dyadic rational(s) k/scale inside [low, high]."""
    lo = int(np.ceil(low * scale))
    hi = int(np.floor(high * scale))
    k = rng.integers(lo, hi + 1, size=size)
    return k / scale if size is not None else float(k) / scale


def random_tiny_lp(rng: np.random.Generator, max_vars: int = 5, max_rows: int = 4,
                   min_vars: int = 2, allow_upper: bool = True) -> LinearProgram:
    """Random small LP with finite lower bounds (oracle precondition).

    Wider problems (up to 8 variables) should disable upper bounds to keep
    the enumeration oracle's subset count small.
    """
    n = int(rng.integers(min_vars, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    a = dyadic(rng, -2, 2, size=(m, n), scale=4)
    c = dyadic(rng, -2, 2, size=n, scale=4)
    b = dyadic(rng, -3, 3, size=m, scale=4)
    relations = tuple(RELATION_CHOICES[i] for i in rng.integers(0, 3, size=m))
    lower = dyadic(rng, -2, 1, size=n, scale=4)
    if allow_upper:
        upper = np.where(rng.random(n) < 0.35,
                         lower + dyadic(rng, 0.25, 3, size=n, scale=4), np.inf)
    else:
        upper = np.full(n, np.inf)
    sense = "min" if rng.random() < 0.5 else "max"
    return LinearProgram(sense=sense, objective=c, lower=lower, upper=upper,
                         a=a, relations=relations, rhs=b)


def dyadic_probability(rng: np.random.Generator, npoints: int, denom: int = 64) -> np.ndarray:
    """Strictly positive probability vector with denominator `denom`."""
    while True:
        cuts = np.sort(rng.integers(1, denom, size=npoints - 1)) if npoints > 1 else np.array([], dtype=int)
        parts = np.diff(np.concatenate([[0], cuts, [denom]]))
        if np.all(parts > 0):
            return parts / denom


def random_axis(rng: np.random.Generator, index: int, npoints: int, d: int = 1,
                low: float = 0.0, high: float = 4.0) -> DiscreteAxis:
    while True:
        pts = dyadic(rng, low, high, size=(npoints, d), scale=8)
        if len({tuple(p) for p in pts}) == npoints:
            return DiscreteAxis(index=index, points=pts)


def random_exact_instance(rng: np.random.Generator, n_axes: int, max_points: int = 6,
                          d: int = 1) -> Instance:
    axes = []
    constraints = []
    for t in range(n_axes):
        npts = int(rng.integers(2, max_points + 1))
        ax = random_axis(rng, t + 1, npts, d=d)
        axes.append(ax)
        nu = DiscreteMeasure(ax, dyadic_probability(rng, npts))
        constraints.append(MarginalConstraint.exact(nu))
    return Instance(tuple(axes), tuple(constraints), label="random-exact")


def random_hull_instance(rng: np.random.Generator, n_axes: int, max_points: int = 6,
                         max_vertices: int = 3) -> Instance:
    axes = []
    constraints = []
    for t in range(n_axes):
        npts = int(rng.integers(2, max_points + 1))
        ax = random_axis(rng, t + 1, npts)
        axes.append(ax)
        k = int(rng.integers(1, max_vertices + 1))
        measures = tuple(DiscreteMeasure(ax, dyadic_probability(rng, npts)) for _ in range(k))
        constraints.append(MarginalConstraint.convex_hull(measures))
    return Instance(tuple(axes), tuple(constraints), label="random-hull")


def random_payoff_table(rng: np.random.Generator, instance: Instance) -> np.ndarray:
    return dyadic(rng, -1, 1, size=instance.n_paths, scale=32)


def _spread_measure(rng: np.random.Generator, support: np.ndarray, weights: np.ndarray,
                    max_new: float) -> tuple[np.ndarray, np.ndarray]:
    """One mean-preserving spread step: split every atom into two."""
    new_pts = []
    new_wts = []
    for x, w in zip(support, weights):
        a = dyadic(rng, 0.125, max_new, scale=16)
        # mass splits p to x+a, (1-p) to x-b with  p*a = (1-p)*b  (mean kept)
        p = dyadic(rng, 0.25, 0.75, scale=8)
        b = p * a / (1.0 - p)
        if x - b < 0:
            a, b = b, a
            p = 1.0 - p
        new_pts.extend([x + a, x - b])
        new_wts.extend([w * p, w * (1.0 - p)])
    pts = np.array(new_pts)
    wts = np.array(new_wts)
    # merge duplicate support points
    uniq, inv = np.unique(np.round(pts, 12), return_inverse=True)
    merged = np.zeros_like(uniq)
    np.add.at(merged, inv, wts)
    return uniq, merged


def convex_order_chain(rng: np.random.Generator, s0: float, horizon: int):
    """Marginals nu_1 <=cx ... <=cx nu_T with common barycenter s0 > 0."""
    support = np.array([s0])
    weights = np.array([1.0])
    chain = []
    for _ in range(horizon):
        support, weights = _spread_measure(rng, support, weights, max_new=s0 / 4)
        chain.append((support.copy(), weights.copy()))
    return chain


def arbitrage_free_market(rng: np.random.Generator, horizon: int, d: int = 1,
                          epsilons=None, hull_prob: float = 0.0) -> Market:
    """Market with a guaranteed martingale coupling (mean-preserving spreads).

    For d = 2 the axes are product grids of per-asset chains, so the product
    of the per-asset couplings is a martingale with these marginals.
    """
    s0 = np.array([1.0 + dyadic(rng, 0.0, 1.0, scale=4) for _ in range(d)])
    per_asset = [convex_order_chain(rng, s0[i], horizon) for i in range(d)]
    axes = []
    constraints = []
    for t in range(horizon):
        supports = [per_asset[i][t][0] for i in range(d)]
        wts = [per_asset[i][t][1] for i in range(d)]
        if d == 1:
            pts = supports[0].reshape(-1, 1)
            weights = wts[0]
        else:
            grid = np.array(np.meshgrid(*supports, indexing="ij"))
            pts = grid.reshape(d, -1).T
            # outer product of per-asset weights, C order matches the grid
            weights = wts[0]
            for i in range(1, d):
                weights = np.outer(weights, wts[i]).ravel()
        ax = DiscreteAxis(index=t + 1, points=pts)
        axes.append(ax)
        nu = DiscreteMeasure(ax, weights)
        if rng.random() < hull_prob:
            extra = tuple(DiscreteMeasure(ax, dyadic_probability(rng, ax.npoints))
                          for _ in range(int(rng.integers(1, 3))))
            constraints.append(MarginalConstraint.convex_hull((nu,) + extra))
        else:
            constraints.append(MarginalConstraint.exact(nu))
    instance = Instance(tuple(axes), tuple(constraints), label="convex-order-market")
    if epsilons is None:
        epsilons = np.zeros(d)
    return Market(instance=instance, s0=s0, epsilons=np.asarray(epsilons, dtype=float))


def binomial_market(rng: np.random.Generator, horizon: int, d: int = 1,
                    epsilons=None, hull_prob: float = 0.0) -> Market:
    """Arbitrage-free market from recombining symmetric random walks.

    Axis t supports t+1 points per asset (grid product across assets), the
    t-step binomial weights are dyadic, and the walk is a martingale, so a
    martingale coupling exists by construction.
    """
    from math import comb

    s0 = np.array([1.0 + dyadic(rng, 0.0, 1.0, scale=4) for _ in range(d)])
    steps = [dyadic(rng, s0[i] / 8, s0[i] / (horizon + 1), scale=32) for i in range(d)]
    axes = []
    constraints = []
    for t in range(1, horizon + 1):
        supports = [s0[i] + steps[i] * np.arange(-t, t + 1, 2) for i in range(d)]
        wts = [np.array([comb(t, k) for k in range(t + 1)], dtype=float) / 2 ** t
               for _ in range(d)]
        if d == 1:
            pts = supports[0].reshape(-1, 1)
            weights = wts[0]
        else:
            grid = np.array(np.meshgrid(*supports, indexing="ij"))
            pts = grid.reshape(d, -1).T
            weights = wts[0]
            for i in range(1, d):
                weights = np.outer(weights, wts[i]).ravel()
        ax = DiscreteAxis(index=t, points=pts)
        axes.append(ax)
        nu = DiscreteMeasure(ax, weights)
        if rng.random() < hull_prob:
            extra = tuple(DiscreteMeasure(ax, dyadic_probability(rng, ax.npoints))
                          for _ in range(int(rng.integers(1, 3))))
            constraints.append(MarginalConstraint.convex_hull((nu,) + extra))
        else:
            constraints.append(MarginalConstraint.exact(nu))
    instance = Instance(tuple(axes), tuple(constraints), label="binomial-market")
    if epsilons is None:
        epsilons = np.zeros(d)
    return Market(instance=instance, s0=s0, epsilons=np.asarray(epsilons, dtype=float))


def random_market(rng: np.random.Generator, horizon: int, d: int = 1,
                  epsilons=None, max_points: int = 3) -> Market:
    """Fully random market; may or may not admit arbitrage."""
    instance = random_exact_instance(rng, horizon, max_points=max_points, d=d)
    s0 = np.array([dyadic(rng, 0.5, 2.0, scale=8) for _ in range(d)])
    if epsilons is None:
        epsilons = np.zeros(d)
    return Market(instance=instance, s0=s0, epsilons=np.asarray(epsilons, dtype=float))


def feasible_coupling_with_targets(rng: np.random.Generator, instance: Instance,
                                   iterations: int = 400):
    """Random coupling with marginals in the constraint sets, by iterative
    proportional fitting of a positive tensor toward per-axis targets.

    Returns (weights, targets); the targets are exactly-dyadic vectors the
    marginals match to IPF precision (~1e-15 on desk-scale grids).
    """
    targets = []
    for con in instance.constraints:
        if con.is_exact:
            targets.append(con.measures[0].weights)
        else:
            lam = dyadic_probability(rng, len(con.measures))
            targets.append(lam @ con.vertex_matrix)
    w = rng.uniform(0.5, 1.5, size=instance.n_paths)
    indices = instance.point_indices()
    axis_count = instance.horizon
    for _ in range(iterations):
        for pos in range(axis_count):
            tensor = w.reshape(instance.shape)
            others = tuple(k for k in range(axis_count) if k != pos)
            current = tensor.sum(axis=others) if others else tensor
            factor = targets[pos] / np.maximum(current, 1e-300)
            w = w * factor[indices[pos]]
    return w, targets


def feasible_coupling(rng: np.random.Generator, instance: Instance,
                      iterations: int = 400) -> np.ndarray:
    return feasible_coupling_with_targets(rng, instance, iterations)[0]


def product_coupling_weights(marginals) -> np.ndarray:
    """Outer product of per-axis weight vectors, row-major."""
    w = np.array([1.0])
    for nu in marginals:
        w = np.outer(w, np.asarray(nu, dtype=float)).ravel()
    return w


def rescaled_market(market: Market, factor: float) -> Market:
    """The market with every axis point and the spot prices times `factor`."""
    axes, constraints = [], []
    for axis, constraint in zip(market.instance.axes, market.instance.constraints):
        axis = DiscreteAxis(axis.index, axis.points * factor)
        axes.append(axis)
        constraints.append(MarginalConstraint(constraint.kind, tuple(
            DiscreteMeasure(axis, mu.weights) for mu in constraint.measures)))
    return Market(Instance(tuple(axes), tuple(constraints)), market.s0 * factor,
                  market.epsilons)
