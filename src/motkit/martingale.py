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
(1-eps) S_n <= E[S_N | F_n] <= (1+eps) S_n for all N <= T, n < N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DynamicLeg, certified, primal_lp, superhedge_lp
from .lp import (RESIDUAL_TOL, LpError, LpSolution, check_unbounded_ray, primal_residual,
                 solve)
from .model import (
    VALUE_TOL,
    Coupling,
    Instance,
    Payoff,
    sublinear_price,
)
from .transport import DualityReport, marginal_separation

__all__ = [
    "Market",
    "DynamicLeg",
    "SemiStaticStrategy",
    "SuperhedgeResult",
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
        for ax in self.instance.axes:
            if ax.d != d:
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
        n_paths = self.instance.n_paths
        out = [np.broadcast_to(self.s0, (n_paths, self.d))]
        for pos in range(self.horizon):
            out.append(self.instance.coordinate_values(pos))
        return out


@dataclass(frozen=True, eq=False)
class SemiStaticStrategy:
    m: float
    g: tuple[np.ndarray, ...]
    legs: tuple[DynamicLeg, ...]

    def cost(self, market: Market) -> float:
        total = self.m
        for pos, constraint in enumerate(market.instance.constraints):
            total += sublinear_price(constraint, self.g[pos])
        return float(total)

    def dynamic_gains(self, market: Market) -> np.ndarray:
        """Trading gains net of friction along every path."""
        instance = market.instance
        s = market.price_paths()
        eps = market.epsilons
        total = np.zeros(instance.n_paths)
        for leg in self.legs:
            for n in range(1, leg.maturity + 1):
                pid = instance.prefix_ids(n - 1)
                h_n = leg.h[n - 1][pid]  # (n_paths, d)
                total += np.einsum("pd,pd->p", h_n, s[n] - s[n - 1])
                if leg.u is not None:
                    u_n = leg.u[n - 1][pid]
                    total -= np.einsum("pd,pd->p", u_n * eps, s[n - 1])
        return total

    def outcome(self, market: Market) -> np.ndarray:
        """m + static legs + dynamic gains along every path."""
        instance = market.instance
        indices = instance.point_indices()
        static = np.full(instance.n_paths, self.m)
        for pos in range(instance.horizon):
            static = static + self.g[pos][indices[pos]]
        return static + self.dynamic_gains(market)


@dataclass(frozen=True, eq=False)
class SuperhedgeResult:
    status: str  # "optimal" | "unbounded"
    value: float
    strategy: SemiStaticStrategy | None
    ray: SemiStaticStrategy | None = None


def superhedge_dual(market: Market, payoff: Payoff,
                    force_frictional: bool = False) -> SuperhedgeResult:
    """Cheapest semi-static superhedge of the payoff, read off the MOT
    primal as in `superhedging_duality_report`.

    Unbounded means a uniform arbitrage exists; the improving ray is
    returned as a strategy-space direction.
    """
    return _hedge(market, payoff.table_for(market.instance), force_frictional)[1]


def _superhedge_result(sol: LpSolution, sh) -> SuperhedgeResult:
    """A solve of the superhedge LP `sh`, its point or ray read as a strategy."""
    strategy = lambda x: SemiStaticStrategy(*sh.position(x), sh.trading.extract_legs(x))
    if sol.status == "optimal":
        return SuperhedgeResult("optimal", sol.value, strategy(sol.x))
    if sol.status == "unbounded":
        return SuperhedgeResult("unbounded", -np.inf, None, ray=strategy(sol.ray))
    raise LpError(f"superhedge LP unexpectedly {sol.status}")  # pragma: no cover


@dataclass(frozen=True, eq=False)
class MotPrimalResult:
    status: str  # "optimal" | "infeasible"
    value: float
    coupling: Coupling | None


def primal_mot(market: Market, payoff: Payoff) -> MotPrimalResult:
    """Maximize <f, mu> over marginal-feasible couplings that price the
    underlying consistently (martingale when eps = 0, bid-ask bands else)."""
    return _primal_mot(market, payoff.table_for(market.instance))[0]


def _primal_mot(market: Market, table: np.ndarray, force_frictional: bool = False):
    """The MOT primal's result, layout and solution."""
    primal = primal_lp(market.instance, table, market, force_frictional)
    sol = solve(primal.lp)
    if sol.status == "optimal":
        result = MotPrimalResult("optimal", sol.value, primal.coupling(sol.x))
    elif sol.status == "infeasible":
        result = MotPrimalResult("infeasible", float("nan"), None)
    else:  # pragma: no cover
        raise LpError(f"martingale primal unexpectedly {sol.status}")
    return result, primal, sol


def feasibility_residual(market: Market, coupling: Coupling) -> float:
    """Direct evaluation of every pricing-consistency constraint at the
    coupling: marginal separation plus worst band/martingale violation."""
    instance = market.instance
    worst = max(abs(coupling.total_mass - 1.0), marginal_separation(instance, coupling))
    s = market.price_paths()
    w = coupling.weights
    for a in range(market.d):
        e = market.epsilons[a]
        for mat in range(1, market.horizon + 1):
            for n in range(mat):
                if e == 0.0 and mat != n + 1:
                    continue  # one-step equalities imply the rest
                up = w * (s[mat][:, a] - (1.0 + e) * s[n][:, a])
                dn = w * ((1.0 - e) * s[n][:, a] - s[mat][:, a])
                # the paths of a prefix are contiguous: one row per prefix
                rows = (instance.n_prefixes(n), -1)
                up, dn = up.reshape(rows).sum(axis=1), dn.reshape(rows).sum(axis=1)
                worst = max(worst, float(np.abs(up).max() if e == 0.0
                                         else max(up.max(), dn.max())))
    return float(worst)


@dataclass(frozen=True, eq=False)
class ArbitrageVerdict:
    """Classification with a validated witness strategy where applicable.

    kind "uniform": witness cost < -1e-9, outcome >= -1e-9 on every path.
    A model-independent arbitrage (cost <= 0, outcome >= 1 pointwise) would
    put superhedge(1) at or below 0; since superhedge(c) = c + superhedge(0)
    (the cash is a free column with cost 1 in every superhedge row), it
    exists exactly when a uniform one does and gets no kind of its own.
    strict_value, superhedge(1), is uniform_value + 1 (-inf under arbitrage).
    """

    kind: str  # "no_arbitrage" | "uniform"
    strategy: SemiStaticStrategy | None
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
    no_model_independent: bool
    no_uniform: bool
    martingale_set_nonempty: bool
    equivalent: bool
    uniform_value: float
    strict_value: float
    coupling: Coupling | None
    verdict: ArbitrageVerdict


def ftap_check(market: Market) -> FtapReport:
    """Evaluate the three no-arbitrage conditions and flag any disagreement.

    The zero-payoff martingale primal is solved first; its status is the
    martingale-set flag.  When its point passes `primal_residual` against
    that LP's own rows and bounds, it is a coupling of mass 1 that meets
    every marginal and pricing row, so superhedge(c) >= c by weak duality;
    the cash position c costs c and superreplicates c on every path (cash
    has coefficient 1 in every path row), so superhedge(0) = 0 and
    superhedge(1) = 1 with no further LP.  Otherwise superhedge(0) is
    solved, and its improving ray, once `check_unbounded_ray` passes
    against that LP, also leaves superhedge(1) unbounded: the two differ
    only in the rhs, and the cash position 1 is feasible.  A certificate
    that fails its check makes superhedge(1) be solved too."""
    instance = market.instance
    zero = Payoff.constant(0.0, instance).table
    feas, primal, sol = _primal_mot(market, zero)
    if feas.status == "optimal" and primal_residual(primal.lp, sol.x) <= RESIDUAL_TOL:
        ua, strict_value = SuperhedgeResult("optimal", 0.0, None), 1.0
    else:
        sh = superhedge_lp(instance, zero, market)
        raw = solve(sh.lp)
        ua = _superhedge_result(raw, sh)
        if ua.status == "unbounded" and check_unbounded_ray(sh.lp, raw.ray) <= RESIDUAL_TOL:
            strict_value = -np.inf
        else:
            one = superhedge_lp(instance, Payoff.constant(1.0, instance).table, market)
            strict_value = _superhedge_result(solve(one.lp), one).value
    if ua.status == "unbounded" or ua.value < -ARBITRAGE_TOL:
        verdict = ArbitrageVerdict("uniform", ua.ray or ua.strategy, ua.value, -np.inf)
    else:
        verdict = ArbitrageVerdict("no_arbitrage", None, ua.value, ua.value + 1.0)
    no_uniform = verdict.kind != "uniform"
    no_mia = strict_value > ARBITRAGE_TOL
    nonempty = feas.status == "optimal"
    return FtapReport(no_model_independent=no_mia, no_uniform=no_uniform,
                      martingale_set_nonempty=nonempty,
                      equivalent=(no_mia == no_uniform == nonempty),
                      uniform_value=ua.value, strict_value=strict_value,
                      coupling=feas.coupling, verdict=verdict)


class ArbitrageError(ValueError):
    """No superhedging duality: the MOT primal is infeasible."""

    def __init__(self, primal_status: str, dual_status: str):
        super().__init__("superhedging duality needs an arbitrage-free market "
                         f"(primal {primal_status}, dual {dual_status})")
        self.primal_status, self.dual_status = primal_status, dual_status


def _strategy_residuals(market: Market, table: np.ndarray, dual: SuperhedgeResult):
    """superreplication_min and strategy_cost_identity of an optimal superhedge."""
    return (float((dual.strategy.outcome(market) - table).min()),
            abs(dual.strategy.cost(market) - dual.value))


def _hedge(market: Market, table: np.ndarray, force_frictional: bool = False):
    """The MOT primal's result, the superhedge, and the superhedge's
    (superreplication_min, strategy_cost_identity), None unless it is
    optimal.  Only the primal is solved: the superhedge is read off its
    multipliers and kept once `certified` passes, else the superhedge LP
    is solved, as it is for the status of an infeasible primal."""
    primal, layout, sol = _primal_mot(market, table, force_frictional)
    if primal.status == "optimal":
        legs = layout.trading.extract_legs(sol.duals)
        dual = SuperhedgeResult("optimal", float(sol.duals @ layout.lp.rhs),
                                SemiStaticStrategy(*layout.static_side(sol)[:2], legs))
        residuals = _strategy_residuals(market, table, dual)
        if certified(primal.value, dual.value, *residuals):
            return primal, dual, residuals
    sh = superhedge_lp(market.instance, table, market, force_frictional)
    dual = _superhedge_result(solve(sh.lp), sh)
    return primal, dual, (_strategy_residuals(market, table, dual)
                          if dual.status == "optimal" else None)


def superhedging_duality_report(market: Market, payoff: Payoff) -> DualityReport:
    """Primal martingale value vs superhedging cost, from one MOT primal
    solve (see `_hedge`); requires no arbitrage."""
    table = payoff.table_for(market.instance)
    primal, dual, dual_residuals = _hedge(market, table)
    if primal.status != "optimal" or dual.status != "optimal":
        raise ArbitrageError(primal.status, dual.status)
    superrep, identity = dual_residuals
    residuals = {
        "superreplication_min": superrep,
        "strategy_cost_identity": identity,
        "coupling_feasibility": feasibility_residual(market, primal.coupling),
    }
    return DualityReport(primal_value=primal.value, dual_value=dual.value,
                         gap=abs(primal.value - dual.value),
                         coupling=primal.coupling, dual=dual.strategy,
                         residuals=residuals)


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
