"""The Bernoulli-product duality gap, reproduced at finite depth.

On the infinite product of fair coin flips with every marginal fixed at
(1/2, 1/2), the payoff f = liminf_n x_n has superreplication value 1 but
no coupling prices it above 1/2.  Both sides reduce to exact finite
computations:

* the dual side is forced by setting the unmodeled tail to all-ones, which
  costs nothing extra and pins the depth-N superreplication LP at exactly 1;
  its value and its certificate are read off the short transport primal of
  the constant payoff 1 (2N rows, one column per path);
* the primal side is the two-point measure (all-ones + all-zeros)/2, which
  evaluates to 1/2, together with the depth-N LP bound max E[x_N] = 1/2.

One instance serves every depth, depth n being its first n axes; `gap_report`
solves a depth's two primals from one phase 1, and the helpers read its report.

The gap 1/2 persists at every depth; the cylinder payoff (without tail
forcing) shows zero gap at each finite depth, isolating the gap as a pure
limit phenomenon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (MAX_TABLE_ENTRIES, Coupling, DiscreteAxis, DiscreteMeasure, Instance,
                    MarginalConstraint)
from .transport import hedge, solve_primals

__all__ = [
    "BernoulliGapReport",
    "bernoulli_instance",
    "tail_forced_dual_bound",
    "liminf_primal_value",
    "gap_report",
    "two_point_measure",
    "window_min_expectations",
]

DUAL_TOL = 1e-9
_CANDIDATE = 0.5 * 1.0 + 0.5 * 0.0  # <f, mu*>: f = liminf is 1 on ones, 0 on zeros


def bernoulli_instance(depth: int) -> Instance:
    """depth axes {0, 1}, each with the exact fair-coin marginal."""
    if not 1 <= depth < MAX_TABLE_ENTRIES.bit_length():  # 2^depth paths within the cap
        raise ValueError(f"depth must be 1..{MAX_TABLE_ENTRIES.bit_length() - 1} "
                         f"(2^depth paths, dense table cap {MAX_TABLE_ENTRIES})")
    axes = []
    constraints = []
    for n in range(1, depth + 1):
        ax = DiscreteAxis(index=n, points=np.array([[0.0], [1.0]]))
        axes.append(ax)
        constraints.append(MarginalConstraint.exact(
            DiscreteMeasure(ax, np.array([0.5, 0.5]))))
    return Instance(tuple(axes), tuple(constraints), label=f"bernoulli-{depth}")


def _prefix(instance: Instance, depth: int) -> Instance:
    if not 1 <= depth <= instance.horizon:
        raise ValueError("need 1 <= depth <= the instance's horizon")
    return Instance(instance.axes[:depth], instance.constraints[:depth], f"bernoulli-{depth}")


def two_point_measure(depth: int) -> Coupling:
    """(delta_all_ones + delta_all_zeros) / 2 truncated to the given depth."""
    return _two_point(bernoulli_instance(depth))


def _two_point(instance: Instance) -> Coupling:
    w = np.zeros(instance.n_paths)
    w[0] = 0.5            # all-zeros path (row-major, axis 1 slowest)
    w[-1] = 0.5           # all-ones path
    return Coupling(instance, w)


def tail_forced_dual_bound(depth: int) -> tuple[float, float, tuple[np.ndarray, ...]]:
    """Value of the depth-N superreplication LP with the tail set to all-ones.

    Any cash-plus-legs position (m, g) that dominates the liminf payoff
    must in particular cover the paths that end in ones forever, which
    forces m + sum_{n<=N} g_n(y_n) >= 1 on every depth-N prefix.  The LP

        min  m + sum_n (g_n(0) + g_n(1)) / 2
        s.t. m + sum_n g_n(y_n) >= 1  for all y in {0,1}^N,  g >= 0

    has value exactly 1 for every depth.  Only its LP dual, the transport
    primal of the constant payoff 1, is solved; the value is b'y and (m, g)
    are read off its multipliers, kept once their residuals pass (else the
    LP above is solved).  Returns `gap_report(depth)`'s value, m and legs.
    """
    report = gap_report(depth)
    return report.dual_value, report.certificate_m, report.certificate_legs


def liminf_primal_value(depth: int) -> tuple[float, float]:
    """(candidate value, LP upper bound) for the primal: `gap_report(depth)`'s.

    The candidate is <f, mu*> = 1/2 for the explicit two-point measure;
    the bound is the LP value of max E[x_N] over feasible couplings, which
    realizes the liminf bound <f, mu> <= liminf_n E[x_n] = 1/2.
    """
    report = gap_report(depth)
    return report.primal_candidate_value, report.primal_upper_bound


def window_min_expectations(depth: int) -> np.ndarray:
    """E[min_{1<=n<=j} x_n] under the product measure for j = 1..depth.

    Computed by exhaustive path enumeration; the values 2^-j fall
    monotonically to 0, which is why the liminf integrates to 0 against the
    product measure.
    """
    out, full = [], bernoulli_instance(depth)
    for j in range(1, depth + 1):
        instance = _prefix(full, j)
        coords = np.stack([instance.coordinate_values(p)[:, 0] for p in range(j)])
        out.append(float(coords.min(axis=0) @ Coupling.product(instance).weights))
    return np.array(out)


@dataclass(frozen=True, eq=False)
class BernoulliGapReport:
    """Dual and primal values at one truncation depth.

    dual_value is the tail-forced LP lower bound; dual_upper_bound = 1 is
    the cost of the trivial cover (m, g) = (1, 0), so the superreplication
    value is exactly 1.  primal_candidate_value is attained by the
    two-point measure; primal_upper_bound is the depth-N LP bound.
    """

    depth: int
    dual_value: float
    dual_upper_bound: float
    primal_candidate_value: float
    primal_upper_bound: float
    gap: float
    certificate_m: float
    certificate_legs: tuple[np.ndarray, ...]
    attaining_measure: Coupling

    def __post_init__(self):
        if not self.dual_value >= 1.0 - DUAL_TOL:
            raise ValueError(f"dual bound lost: {self.dual_value}")
        if not self.primal_candidate_value <= self.primal_upper_bound + 1e-12:
            raise ValueError("primal candidate exceeds its upper bound")


def gap_report(depth: int, instance: Instance | None = None) -> BernoulliGapReport:
    """The gap row of the first `depth` axes of `instance` (default: a new one)."""
    instance = bernoulli_instance(depth) if instance is None else _prefix(instance, depth)
    ones, last = np.ones(instance.n_paths), instance.coordinate_values(depth - 1)[:, 0]
    unit, bound = solve_primals(instance, [ones, last])
    side = hedge(*unit, ones)[0]
    return BernoulliGapReport(
        depth=depth,
        dual_value=side.value,
        dual_upper_bound=1.0,
        primal_candidate_value=_CANDIDATE,
        primal_upper_bound=bound[1].value,
        gap=side.value - _CANDIDATE,
        certificate_m=side.m,
        certificate_legs=side.g,
        attaining_measure=_two_point(instance),
    )
