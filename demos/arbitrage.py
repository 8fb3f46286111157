"""Model-independent arbitrage detection and the three-way equivalence.

Three markets:

* a consistent one (spot matches the forward implied by the marginal),
* a mispriced spot, where a forward trade plus a static put locks in a
  riskless profit,
* marginals in reversed convex order, where no martingale can connect the
  dates.

For each, three conditions must agree, each resting on its own checked
certificate: no uniform arbitrage, no model-independent arbitrage, and
non-emptiness of the consistent coupling set.

Run:  python3 demos/arbitrage.py
"""

import numpy as np

from motkit import (
    DiscreteAxis,
    DiscreteMeasure,
    Instance,
    MarginalConstraint,
    Market,
    check_convex_order,
    ftap_check,
)


def make_market(axis_specs, s0):
    axes = []
    cons = []
    for t, (pts, wts) in enumerate(axis_specs):
        ax = DiscreteAxis(index=t + 1, points=np.asarray(pts, dtype=float))
        axes.append(ax)
        cons.append(MarginalConstraint.exact(
            DiscreteMeasure(ax, np.asarray(wts, dtype=float))))
    instance = Instance(tuple(axes), tuple(cons))
    return Market(instance=instance, s0=np.array([s0]), epsilons=np.array([0.0]))


def describe(name, market):
    print(f"--- {name} ---")
    ftap = ftap_check(market)
    verdict = ftap.verdict
    print("verdict:", verdict.kind)
    if verdict.strategy is not None:
        cost = verdict.strategy.cost()
        worst = float(verdict.strategy.outcome().min())
        print(f"witness: cost {cost:.6f}, worst-path outcome {worst:.6f}")
    print("no uniform:", ftap.no_uniform,
          "| no model-independent:", ftap.no_model_independent,
          "| couplings exist:", ftap.martingale_set_nonempty,
          "| agree:", ftap.equivalent)
    print()


consistent = make_market([([1.0], [1.0]), ([0.0, 2.0], [0.5, 0.5])], s0=1.0)
describe("consistent market", consistent)

mispriced = make_market([([0.0, 2.0], [0.5, 0.5])], s0=0.9)
describe("spot 0.9 vs forward 1.0", mispriced)

reversed_order = make_market([([0.0, 2.0], [0.5, 0.5]), ([1.0], [1.0])], s0=1.0)
describe("reversed convex order", reversed_order)

# The cheap necessary-condition diagnostic agrees with the LP verdicts.
diag = check_convex_order(reversed_order.instance, 1.0)
print("convex-order diagnostic on the reversed market: passed =", diag.passed)
print("first failing strikes:", diag.failing_strikes[:2])
