"""Semi-static superhedging, martingale-constrained primals, bid-ask
transaction costs, and arbitrage classification on finite price grids.

Strategy space
--------------
A semi-static strategy holds cash m, nonnegative static option legs g_n
priced at the (sub)linear marginal price, and dynamic positions in the
underlying.  Frictionless assets trade through one adapted position table
per period (gains sum h_n . (S_n - S_{n-1})).  Assets with proportional
costs eps_i trade through nonnegative buy/sell forward trades per
(maturity N, period n <= N, prefix): a buy pays off  S_N - (1+eps) S_{n-1}
and a sell  (1-eps) S_{n-1} - S_N.  Ranging over all maturities N <= T
matches the bid-ask consistency bands "for all N and n <= N" on the primal
side, which a single terminal-maturity position table cannot reproduce;
strategies are reported as per-maturity position/turnover tables.

The coupling side constrains, per asset, either per-prefix martingale
equalities (eps_i = 0) or the full family of bid-ask bands
(1-eps) S_n <= E[S_N | F_n] <= (1+eps) S_n for all N <= T, n < N: the
`Market.pricing_blocks` that the MOT primal's rows and `feasibility_residual` read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DualSide, DynamicLeg
from .lp import RESIDUAL_TOL, primal_residual
from .model import VALUE_TOL, Coupling, Instance, Payoff
from .transport import (DualityReport, hedge, marginal_separation, solve_primal,
                        solve_superhedge)

__all__ = [
    "Market",
    "DynamicLeg",
    "ArbitrageError",
    "MotPrimalResult",
    "ArbitrageVerdict",
    "FtapReport",
    "FrictionlessLimitReport",
    "superhedge_dual",
    "primal_mot",
    "classify_arbitrage",
    "ftap_check",
    "superhedging_duality_report",
    "frictionless_limit_check",
    "feasibility_residual",
]

ARBITRAGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Market:
    """Price grids plus spot, per-asset proportional costs and horizon."""

    instance: Instance
    s0: np.ndarray
    epsilons: np.ndarray

    def __post_init__(self):
        d = self.instance.axes[0].d
        if any(ax.d != d for ax in self.instance.axes):
            raise ValueError("all axes must share the asset dimension")
        if not self.instance.nonnegative:
            raise ValueError("market grids must have nonnegative coordinates")
        s0 = np.atleast_1d(np.asarray(self.s0, dtype=float))
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.ndim == 0:
            eps = np.full(d, float(eps))
        if s0.shape != (d,) or eps.shape != (d,):
            raise ValueError("s0 and epsilons must have one entry per asset")
        if np.any(s0 < 0) or np.any(eps < 0):
            raise ValueError("s0 and epsilons must be nonnegative")
        # bounds every pricing-row coefficient, (1 +- eps) S_n - S_N and S_{n+1} - S_n
        top = float(np.max([s0.max()] + [ax.points.max() for ax in self.instance.axes]))
        if not np.isfinite((2.0 + float(eps.max())) * top):
            raise ValueError("(2 + max eps) * max|S| over the grid points and s0 must be finite")
        s0.setflags(write=False)
        eps.setflags(write=False)
        object.__setattr__(self, "s0", s0)
        object.__setattr__(self, "epsilons", eps)

    @property
    def d(self) -> int:
        return self.instance.axes[0].d

    @property
    def horizon(self) -> int:
        return self.instance.horizon

    def with_epsilons(self, epsilons) -> "Market":
        return Market(self.instance, self.s0, np.asarray(epsilons, dtype=float))

    def price_paths(self) -> list[np.ndarray]:
        """S_n along every path for n = 0..T; each entry is (n_paths, d)."""
        return ([np.broadcast_to(self.s0, (self.instance.n_paths, self.d))]
                + [self.instance.coordinate_values(pos) for pos in range(self.horizon)])

    def pricing_blocks(self, force_frictional: bool = False):
        """Blocks (a, N, n, ask, bid) in the MOT primal's row order, per prefix of
        length n: E[ask | F_n] <= 0 and E[bid | F_n] <= 0, ask = S_N - (1+eps_a) S_n and
        bid = (1-eps_a) S_n - S_N along every path.  An eps_a = 0 asset (unless forced)
        has one-step blocks only, bid None: the martingale equality E[ask | F_n] = 0."""
        s = self.price_paths()
        for a, e in enumerate(self.epsilons):
            one_step = e == 0.0 and not force_frictional
            for mat in range(1, self.horizon + 1):
                for n in range(mat - 1 if one_step else 0, mat):
                    bid = None if one_step else (1.0 - e) * s[n][:, a] - s[mat][:, a]
                    yield a, mat, n, s[mat][:, a] - (1.0 + e) * s[n][:, a], bid


def superhedge_dual(market: Market, payoff: Payoff,
                    force_frictional: bool = False) -> DualSide:
    """Cheapest semi-static superhedge of the payoff as a `DualSide` on
    `market`: "optimal", the strategy read off the MOT primal (see
    `transport.hedge`), or "unbounded" at value -inf under a uniform
    arbitrage, the improving ray that `solve_superhedge` checked."""
    table = payoff.table_for(market.instance)
    primal, sol = solve_primal(market.instance, table, market, force_frictional)
    return hedge(primal, sol, table)[0] if sol.status == "optimal" else solve_superhedge(primal)


@dataclass(frozen=True, eq=False)
class MotPrimalResult:
    status: str  # "optimal" | "infeasible"
    value: float
    coupling: Coupling | None


def primal_mot(market: Market, payoff: Payoff) -> MotPrimalResult:
    """Maximize <f, mu> over marginal-feasible couplings that price the
    underlying consistently (martingale when eps = 0, bid-ask bands else)."""
    primal, sol = solve_primal(market.instance, payoff.table_for(market.instance), market)
    if sol.status == "optimal":
        return MotPrimalResult("optimal", sol.value, primal.coupling(sol.x))
    return MotPrimalResult("infeasible", float("nan"), None)


def feasibility_residual(market: Market, coupling: Coupling, mixtures) -> float:
    """Worst of the coupling's mass error, its `marginal_separation` from the
    axes' `mixtures` ([1.0] if exact) and its violation of the market's
    `pricing_blocks`: per prefix, |E[ask]| of a martingale block, else the
    larger of E[ask] and E[bid] above 0."""
    instance, w = market.instance, coupling.weights
    worst = max(abs(coupling.total_mass - 1.0), marginal_separation(instance, coupling, mixtures))
    for _, _, n, ask, bid in market.pricing_blocks():
        # the paths of a prefix are contiguous: one sum per prefix
        sums = [(w * c).reshape(instance.n_prefixes(n), -1).sum(axis=1) for c in (ask, bid)
                if c is not None]
        worst = max(worst, float(np.abs(sums[0]).max() if bid is None else np.max(sums)))
    return float(worst)


@dataclass(frozen=True, eq=False)
class ArbitrageVerdict:
    """Classification with a validated witness strategy where applicable.

    kind "uniform": the witness is the `DualSide` that `solve_superhedge`
    returned for superhedge(0), most often "unbounded", an improving ray that
    passed `check_unbounded_ray` (cost < 0, outcome >= 0 on every path).
    A model-independent arbitrage (cost <= 0, outcome >= 1 pointwise) would
    put superhedge(1) at or below 0; since superhedge(c) = c + superhedge(0)
    (the cash is a free column with cost 1 in every superhedge row), it
    exists exactly when a uniform one does and gets no kind of its own.
    strict_value, superhedge(1), is uniform_value + 1 (-inf under arbitrage).
    """

    kind: str  # "no_arbitrage" | "uniform"
    strategy: DualSide | None
    uniform_value: float
    strict_value: float

    @property
    def arbitrage_exists(self) -> bool:
        return self.kind != "no_arbitrage"


def classify_arbitrage(market: Market) -> ArbitrageVerdict:
    """Uniform arbitrage (cost < 0, outcome >= 0): the verdict of `ftap_check`."""
    return ftap_check(market).verdict


@dataclass(frozen=True, eq=False)
class FtapReport:
    """The three no-arbitrage conditions, whether they agree, a coupling if
    there is one, and the verdict, which holds the superhedge values."""

    no_model_independent: bool
    no_uniform: bool
    martingale_set_nonempty: bool
    equivalent: bool
    coupling: Coupling | None
    verdict: ArbitrageVerdict


def ftap_check(market: Market) -> FtapReport:
    """Evaluate the three no-arbitrage conditions and flag any disagreement.

    The zero-payoff MOT primal's status is the martingale-set flag.  A point
    of it that passes `primal_residual` on that LP is a coupling, so
    superhedge(0) >= 0 by weak duality and cash 0 attains it with no further
    LP.  Otherwise superhedge(0) is the `DualSide` of `solve_superhedge`, whose
    ray passed `check_unbounded_ray`; its value (-inf if unbounded) gives the
    verdict.  superhedge(1) = superhedge(0) + 1 (see `ArbitrageVerdict`)."""
    instance = market.instance
    zero = Payoff.constant(0.0, instance).table
    primal, sol = solve_primal(instance, zero, market)
    nonempty = sol.status == "optimal"
    checked = nonempty and primal_residual(primal.lp, sol.x) <= RESIDUAL_TOL
    ua = None if checked else solve_superhedge(primal)
    value = 0.0 if ua is None else ua.value
    verdict = (ArbitrageVerdict("uniform", ua, value, -np.inf) if value < -ARBITRAGE_TOL
               else ArbitrageVerdict("no_arbitrage", None, value, value + 1.0))
    no_uniform, no_mia = verdict.kind != "uniform", value + 1.0 > ARBITRAGE_TOL
    return FtapReport(no_model_independent=no_mia, no_uniform=no_uniform,
                      martingale_set_nonempty=nonempty,
                      equivalent=(no_mia == no_uniform == nonempty),
                      coupling=primal.coupling(sol.x) if nonempty else None, verdict=verdict)


class ArbitrageError(ValueError):
    """An infeasible MOT primal: the superhedge LP is unbounded, with no LP solved.  The
    cash column makes it feasible, and phase 1 says "infeasible" only with Farkas rows w
    that pass `check_farkas_certificate`; -w, each axis's marginal rows shifted by their
    minimum into the cash (a hull axis's lambda-sum row too), is an improving ray of it."""

    primal_status, dual_status = "infeasible", "unbounded"

    def __init__(self):
        super().__init__("superhedging duality needs an arbitrage-free market "
                         f"(primal {self.primal_status}, dual {self.dual_status})")


def superhedging_duality_report(market: Market, payoff: Payoff) -> DualityReport:
    """Primal martingale value vs superhedging cost, from one MOT primal
    solve (see `transport.hedge`); ArbitrageError if that primal is infeasible."""
    table = payoff.table_for(market.instance)
    primal, sol = solve_primal(market.instance, table, market)
    if sol.status != "optimal":
        raise ArbitrageError()
    side, (superrep, identity) = hedge(primal, sol, table)
    coupling = primal.coupling(sol.x)
    residuals = {"superreplication_min": superrep, "strategy_cost_identity": identity,
                 "coupling_feasibility": feasibility_residual(market, coupling,
                                                              primal.mixtures(sol.x))}
    return DualityReport(primal_value=sol.value, dual_value=side.value,
                         gap=abs(sol.value - side.value), coupling=coupling,
                         dual=side, residuals=residuals)


@dataclass(frozen=True, eq=False)
class FrictionlessLimitReport:
    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    frictionless_value: float
    monotone: bool
    converged: bool


def frictionless_limit_check(market: Market, payoff: Payoff,
                             eps_sequence) -> FrictionlessLimitReport:
    """Superhedge values along a decreasing cost schedule; they must fall
    monotonically (within 1e-9) to the frictionless value.  One superhedge
    per eps, and one for eps 0 unless the schedule ends there."""
    eps_sequence = [float(e) for e in eps_sequence]
    if any(b > a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps_sequence must be nonincreasing")
    values = []
    schedule = eps_sequence if eps_sequence[-1:] == [0.0] else eps_sequence + [0.0]
    for e in schedule:
        res = superhedge_dual(market.with_epsilons(np.full(market.d, e)), payoff)
        if res.status != "optimal":
            raise ValueError(f"market with eps={e} admits a uniform arbitrage")
        values.append(res.value)
    base, values = values[-1], values[:len(eps_sequence)]
    monotone = all(b <= a + VALUE_TOL for a, b in zip(values, values[1:]))
    converged = (values[-1] if values else base) >= base - VALUE_TOL
    return FrictionlessLimitReport(tuple(eps_sequence), tuple(values),
                                   base, monotone, converged)
