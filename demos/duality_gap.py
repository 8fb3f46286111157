"""A duality gap that only exists in the limit.

On the infinite product of fair coins, the payoff liminf_n x_n costs 1 to
superreplicate (the unmodeled tail can always be all ones) yet no coupling
values it above 1/2.  Every finite truncation reproduces both numbers
exactly, while the truncated payoff itself shows no gap at any finite
depth: the gap is a pure limit phenomenon.

Run:  python3 demos/duality_gap.py
"""

from motkit import gap_report, tail_forced_dual_bound
from motkit.bernoulli import bernoulli_instance, window_min_expectations
from motkit.model import Payoff
from motkit.transport import duality_report

print(f"{'depth':>5}  {'dual':>8}  {'primal':>8}  {'gap':>8}  "
      f"{'cylinder primal':>16}  {'cylinder dual':>14}")
for depth in range(1, 13):
    report = gap_report(depth)
    # one primal solve; the dual is read off its multipliers
    cyl = duality_report(bernoulli_instance(depth),
                         Payoff.named("cylinder_liminf", depth=depth))
    print(f"{depth:>5}  {report.dual_value:>8.4f}  "
          f"{report.primal_candidate_value:>8.4f}  {report.gap:>8.4f}  "
          f"{cyl.primal_value:>16.4f}  {cyl.dual_value:>14.4f}")

print("\nThe tail-forced certificate at depth 4:")
value, m, legs = tail_forced_dual_bound(4)
print("value:", value, " cash:", m, " legs:", [g.tolist() for g in legs])

print("\nWhy the product measure pays nothing: the expected running minimum")
print("of a window of fair coins halves with every extra flip,")
values = window_min_expectations(8)
print("E[min over first j flips] for j = 1..8:",
      [round(float(v), 6) for v in values])
print("so the liminf integrates to 0 against the product measure, while the")
print("two-point measure (all ones + all zeros)/2 achieves 1/2.")
