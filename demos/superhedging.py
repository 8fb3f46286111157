"""Semi-static superhedging with and without transaction costs.

The market: one asset, two periods.  Today the price is 1; tomorrow it is
pinned at 1; the day after it is 0 or 2 with equal probability.  The only
martingale coupling splits evenly, so the straddle |S2 - S1| has a unique
model-free price of 1.  Proportional costs widen the bid-ask consistency
bands and raise the superhedging cost; the cost falls back to 1 as the
friction vanishes.

Run:  python3 demos/superhedging.py
"""

import numpy as np

from motkit import (
    DiscreteAxis,
    DiscreteMeasure,
    Instance,
    MarginalConstraint,
    Market,
    Payoff,
    frictionless_limit_check,
    primal_mot,
    superhedge_dual,
    superhedging_duality_report,
)

ax1 = DiscreteAxis(index=1, points=np.array([[1.0]]))
ax2 = DiscreteAxis(index=2, points=np.array([[0.0], [2.0]]))
instance = Instance(
    axes=(ax1, ax2),
    constraints=(
        MarginalConstraint.exact(DiscreteMeasure(ax1, np.array([1.0]))),
        MarginalConstraint.exact(DiscreteMeasure(ax2, np.array([0.5, 0.5]))),
    ),
    label="pinned then split",
)
market = Market(instance=instance, s0=np.array([1.0]), epsilons=np.array([0.0]))
straddle = Payoff.named("straddle", n=1, m=2)

# --- frictionless: primal and dual meet at the unique coupling's price -----

primal = primal_mot(market, straddle)
print("martingale primal value:", primal.value)
print("coupling over paths (1,0) and (1,2):", np.round(primal.coupling.weights, 6))

dual = superhedge_dual(market, straddle)
print("superhedging cost:", dual.value)
print("strategy cash:", round(dual.m, 6))
for leg in dual.legs:
    print(f"  dynamic leg maturing at {leg.maturity}: positions",
          [(np.round(h, 6) + 0.0).tolist() for h in leg.h])  # + 0.0: no "-0.0"
outcome = dual.outcome()
table = straddle.table_for(instance)
print("worst shortfall of the hedge:", float((outcome - table).min()))

report = superhedging_duality_report(market, straddle)
print("duality gap:", report.gap)

# --- proportional costs bite when the hedge must actually trade ------------
#
# A forward-start call (S2 - S1)^+ on a two-step random walk needs dynamic
# rebalancing, so its superhedging cost moves with the friction level.

bx1 = DiscreteAxis(index=1, points=np.array([[0.75], [1.25]]))
bx2 = DiscreteAxis(index=2, points=np.array([[0.5], [1.0], [1.5]]))
walk = Instance(
    axes=(bx1, bx2),
    constraints=(
        MarginalConstraint.exact(DiscreteMeasure(bx1, np.array([0.5, 0.5]))),
        MarginalConstraint.exact(DiscreteMeasure(bx2, np.array([0.25, 0.5, 0.25]))),
    ),
    label="recombining walk",
)
walk_market = Market(instance=walk, s0=np.array([1.0]), epsilons=np.array([0.0]))
x1 = walk.coordinate_values(0)[:, 0]
x2 = walk.coordinate_values(1)[:, 0]
forward_start = Payoff.dense(np.maximum(x2 - x1, 0.0))

print("\nforward-start call on the walk market:")
for eps in (0.1, 0.02, 0.0):
    costly = walk_market.with_epsilons(np.array([eps]))
    value = superhedge_dual(costly, forward_start).value
    band = primal_mot(costly, forward_start).value
    print(f"eps = {eps:<5}: superhedge {value:.6f}   band-primal {band:.6f}")

# --- the frictionless limit, certified monotone -----------------------------

limit = frictionless_limit_check(walk_market, forward_start, [0.1, 0.01, 0.001, 0.0])
print("cost schedule:", limit.epsilons)
print("values:       ", tuple(round(float(v), 9) for v in limit.values))
print("monotone:", limit.monotone, " converged to frictionless:", limit.converged)
