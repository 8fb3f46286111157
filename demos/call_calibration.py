"""From call quotes to model-free option bounds.

Call prices quoted at all strikes of a grid pin down the marginal by
second differences in strike.  Recovering the marginals at two maturities
and feeding them to the martingale-transport machinery brackets the price
of a path-dependent payoff without choosing a model.

Run:  python3 demos/call_calibration.py
"""

import numpy as np

from motkit import (
    CallQuoteCurve,
    Instance,
    MarginalConstraint,
    Market,
    Payoff,
    marginal_from_calls,
    superhedge_dual,
    superhedging_duality_report,
)

# Quotes at two maturities (discounted, strike 0 included).
quotes_1 = CallQuoteCurve(
    maturity=1,
    strikes=np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
    prices=np.array([1.0, 0.53125, 0.125, 0.03125, 0.0]),
)
quotes_2 = CallQuoteCurve(
    maturity=2,
    strikes=np.array([0.0, 0.5, 1.0, 1.5, 2.0]),
    prices=np.array([1.0, 0.5625, 0.25, 0.0625, 0.0]),
)

nu1 = marginal_from_calls(quotes_1)
nu2 = marginal_from_calls(quotes_2)
print("maturity 1 marginal:",
      {float(x): float(w) for x, w in zip(nu1.axis.points.ravel(), nu1.weights)})
print("maturity 2 marginal:",
      {float(x): float(w) for x, w in zip(nu2.axis.points.ravel(), nu2.weights)})
print("barycenters:", float(nu1.barycenter()[0]), float(nu2.barycenter()[0]))

instance = Instance(
    axes=(nu1.axis, nu2.axis),
    constraints=(MarginalConstraint.exact(nu1), MarginalConstraint.exact(nu2)),
    label="calibrated from calls",
)
market = Market(instance=instance, s0=np.array([1.0]), epsilons=np.array([0.0]))

# Model-free bounds for a forward-start straddle |S2 - S1|: one MOT primal
# solve gives the best consistent model price and, off its multipliers, the
# superhedging price.
payoff = Payoff.named("straddle", n=1, m=2)
report = superhedging_duality_report(market, payoff)
upper = report.dual_value
print("\nforward-start straddle |S2 - S1|:")
print("superhedging (upper) price:", round(upper, 6))
print("best consistent model price:", round(report.primal_value, 6))

# The lower bound comes from the subhedging side: superhedge the negative.
lower = -superhedge_dual(market, Payoff.dense(-payoff.table_for(instance))).value
print("subhedging (lower) price:", round(lower, 6))
print("any martingale model consistent with the quotes prices the straddle "
      f"inside [{lower:.6f}, {upper:.6f}]")
