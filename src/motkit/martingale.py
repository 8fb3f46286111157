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

from .lp import LpBuilder, LpError, solve
from .model import (
    VALUE_TOL,
    Coupling,
    Instance,
    Payoff,
    sublinear_price,
)
from .transport import (
    DualityReport,
    _add_marginal_rows,
    _add_path_variables,
    _add_static_leg_columns,
    _certified,
    _marginal_separation,
    _static_side,
    _superreplication_rows,
)

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
class DynamicLeg:
    """Adapted positions (and turnover bounds) valued at one maturity.

    h[n-1] has shape (#prefixes of length n-1, d); u matches h and is
    present only when some asset carries transaction costs.
    """

    maturity: int
    h: tuple[np.ndarray, ...]
    u: tuple[np.ndarray, ...] | None = None


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


@dataclass(frozen=True, eq=False)
class _StrategyColumns:
    """Ids of a strategy's dynamic-trading terms: columns of the superhedge
    LP, or the MOT primal rows whose multipliers they are.  ``h_vars[(a, n)]``
    are the positions over period n per prefix of length n - 1 (frictionless
    assets), ``trade_vars[(a, N, n)]`` the (buy, sell) trades opened at n - 1
    and closed at N (frictional assets, ask and bid rows in the primal)."""

    market: Market
    h_vars: dict
    trade_vars: dict

    @classmethod
    def allocate(cls, builder: LpBuilder, market: Market,
                 force_frictional: bool = False) -> "_StrategyColumns":
        """The superhedge LP's columns.  ``force_frictional`` routes zero-cost
        assets through the per-maturity trades too; the LP value is unchanged
        (a maturity-N trade telescopes into one-step positions when trading
        is free), which is exactly the frictionless-reduction check."""
        instance = market.instance
        t_horizon = market.horizon
        h_vars, trade_vars = {}, {}
        for a in range(market.d):
            if market.epsilons[a] == 0.0 and not force_frictional:
                for n in range(1, t_horizon + 1):
                    h_vars[(a, n)] = builder.add_variables(
                        instance.n_prefixes(n - 1), lower=-np.inf)
            else:
                for mat in range(1, t_horizon + 1):
                    for n in range(1, mat + 1):
                        count = instance.n_prefixes(n - 1)
                        trade_vars[(a, mat, n)] = (builder.add_variables(count),
                                                   builder.add_variables(count))
        return cls(market, h_vars, trade_vars)

    def path_coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dynamic-outcome terms of the superhedge rows as (path, column,
        value) triplets: each column block holds one term for every path."""
        instance = self.market.instance
        s, eps = self.market.price_paths(), self.market.epsilons
        cols, vals = [], []
        for (a, n), ids in self.h_vars.items():
            cols.append(ids[instance.prefix_ids(n - 1)])
            vals.append(s[n][:, a] - s[n - 1][:, a])
        for (a, mat, n), (buys, sells) in self.trade_vars.items():
            prefix = instance.prefix_ids(n - 1)
            cols += [buys[prefix], sells[prefix]]
            vals += [s[mat][:, a] - (1.0 + eps[a]) * s[n - 1][:, a],
                     (1.0 - eps[a]) * s[n - 1][:, a] - s[mat][:, a]]
        paths = np.tile(np.arange(instance.n_paths), len(cols))
        return paths, np.concatenate(cols), np.concatenate(vals)

    def extract_legs(self, x: np.ndarray) -> tuple[DynamicLeg, ...]:
        market = self.market
        instance = market.instance
        t_horizon = market.horizon
        has_trades = bool(self.trade_vars)
        with_u = bool(np.any(market.epsilons > 0.0))
        maturities = range(1, t_horizon + 1) if has_trades else [t_horizon]
        legs = []
        for mat in maturities:
            h = [np.zeros((instance.n_prefixes(n - 1), market.d))
                 for n in range(1, mat + 1)]
            u = [np.zeros_like(tab) for tab in h] if with_u else None
            empty = True
            for (a, n), ids in self.h_vars.items():
                if mat == t_horizon:
                    h[n - 1][:, a] = x[ids]
                    empty = empty and not np.any(x[ids])
            for (a, m2, n), (buys, sells) in self.trade_vars.items():
                if m2 != mat:
                    continue
                delta = x[buys] - x[sells]
                turnover = x[buys] + x[sells]
                # positions accumulate the trades along ancestor prefixes
                for k in range(n, mat + 1):
                    ancestors = _ancestor_prefix(instance, k - 1, n - 1)
                    h[k - 1][:, a] += delta[ancestors]
                if u is not None:
                    u[n - 1][:, a] += turnover
                empty = empty and not np.any(turnover) and not np.any(delta)
            if mat == t_horizon or not empty:
                legs.append(DynamicLeg(mat, tuple(h), tuple(u) if u else None))
        return tuple(legs)


def _ancestor_prefix(instance: Instance, level: int, ancestor_level: int) -> np.ndarray:
    """Map prefix ids at `level` to their ancestor ids at `ancestor_level`."""
    stride = int(np.prod(instance.shape[ancestor_level:level], initial=1))
    return np.arange(instance.n_prefixes(level)) // stride


def _build_superhedge(market: Market, table: np.ndarray,
                      force_frictional: bool = False):
    builder = LpBuilder("min")
    m_var, g_vars, _ = _add_static_leg_columns(builder, market.instance)
    columns = _StrategyColumns.allocate(builder, market, force_frictional)
    _superreplication_rows(builder, market.instance, table, m_var, g_vars,
                           extra=columns.path_coefficients())
    return builder, m_var, g_vars, columns


def _strategy_from_vector(x: np.ndarray, m_var, g_vars, columns) -> SemiStaticStrategy:
    g = tuple(x[ids] for ids in g_vars)
    return SemiStaticStrategy(m=float(x[m_var]), g=g, legs=columns.extract_legs(x))


def superhedge_dual(market: Market, payoff: Payoff,
                    force_frictional: bool = False) -> SuperhedgeResult:
    """Cheapest semi-static superhedge of the payoff.

    Unbounded means a uniform arbitrage exists; the improving ray is
    returned as a strategy-space direction.
    """
    return _superhedge(market, payoff.table_for(market.instance), force_frictional)


def _superhedge(market: Market, table: np.ndarray,
                force_frictional: bool = False) -> SuperhedgeResult:
    builder, m_var, g_vars, columns = _build_superhedge(
        market, table, force_frictional=force_frictional)
    sol = solve(builder.build())
    if sol.status == "optimal":
        strategy = _strategy_from_vector(sol.x, m_var, g_vars, columns)
        return SuperhedgeResult("optimal", sol.value, strategy)
    if sol.status == "unbounded":
        ray = _strategy_from_vector(np.asarray(sol.ray), m_var, g_vars, columns)
        return SuperhedgeResult("unbounded", -np.inf, None, ray=ray)
    raise LpError(f"superhedge LP unexpectedly {sol.status}")  # pragma: no cover


@dataclass(frozen=True, eq=False)
class MotPrimalResult:
    status: str  # "optimal" | "infeasible"
    value: float
    coupling: Coupling | None


def _mot_primal_builder(market: Market, table: np.ndarray):
    """The MOT primal, its marginal blocks and its pricing rows' catalog."""
    instance = market.instance
    builder = LpBuilder("max")
    path_vars = _add_path_variables(builder, instance, table)
    marginals = _add_marginal_rows(builder, instance, path_vars)
    s = market.price_paths()
    t_horizon = market.horizon
    h_rows, trade_rows = {}, {}
    for a in range(market.d):
        e = market.epsilons[a]
        if e == 0.0:
            # one martingale row per prefix of every length n < T
            for n in range(t_horizon):
                h_rows[(a, n + 1)] = builder.add_rows(
                    instance.prefix_ids(n), path_vars, s[n + 1][:, a] - s[n][:, a],
                    "=", np.zeros(instance.n_prefixes(n)))
        else:
            for mat in range(1, t_horizon + 1):
                for n in range(mat):
                    # the ask row (2p) and the bid row (2p + 1) of every prefix p
                    pid = instance.prefix_ids(n)
                    rows = builder.add_rows(
                        np.concatenate([2 * pid, 2 * pid + 1]),
                        np.concatenate([path_vars, path_vars]),
                        np.concatenate([s[mat][:, a] - (1.0 + e) * s[n][:, a],
                                        (1.0 - e) * s[n][:, a] - s[mat][:, a]]),
                        "<=", np.zeros(2 * instance.n_prefixes(n)))
                    trade_rows[(a, mat, n + 1)] = (rows[0::2], rows[1::2])
    return builder, marginals, _StrategyColumns(market, h_rows, trade_rows)


def primal_mot(market: Market, payoff: Payoff) -> MotPrimalResult:
    """Maximize <f, mu> over marginal-feasible couplings that price the
    underlying consistently (martingale when eps = 0, bid-ask bands else)."""
    return _primal_mot(market, payoff.table_for(market.instance))[0]


def _primal_mot(market: Market, table: np.ndarray):
    """The MOT primal's result, LP, solution and _mot_primal_builder blocks."""
    builder, marginals, columns = _mot_primal_builder(market, table)
    lp = builder.build()
    sol = solve(lp)
    if sol.status == "optimal":
        result = MotPrimalResult("optimal", sol.value,
                                 Coupling(market.instance, sol.x[: market.instance.n_paths]))
    elif sol.status == "infeasible":
        result = MotPrimalResult("infeasible", float("nan"), None)
    else:  # pragma: no cover
        raise LpError(f"martingale primal unexpectedly {sol.status}")
    return result, lp, sol, marginals, columns


def feasibility_residual(market: Market, coupling: Coupling) -> float:
    """Direct evaluation of every pricing-consistency constraint at the
    coupling: marginal separation plus worst band/martingale violation."""
    instance = market.instance
    worst = max(abs(coupling.total_mass - 1.0), _marginal_separation(instance, coupling))
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
    kind "model_independent": witness cost <= 1e-9, outcome >= 1 - 1e-9
    pointwise (the scalable surrogate for strict positivity).
    """

    kind: str  # "no_arbitrage" | "uniform" | "model_independent"
    strategy: SemiStaticStrategy | None
    uniform_value: float
    strict_value: float

    @property
    def arbitrage_exists(self) -> bool:
        return self.kind != "no_arbitrage"


def _constant_table(market: Market, value: float) -> np.ndarray:
    return Payoff.constant(value, market.instance).table


def _witness(result: SuperhedgeResult) -> SemiStaticStrategy | None:
    return result.ray if result.status == "unbounded" else result.strategy


def _verdict(ua: SuperhedgeResult, strict) -> ArbitrageVerdict:
    """The verdict from superhedge(0) and superhedge(1); `strict()` gives
    the latter and is called only when there is no uniform arbitrage."""
    if ua.status == "unbounded" or ua.value < -ARBITRAGE_TOL:
        return ArbitrageVerdict("uniform", _witness(ua), ua.value, -np.inf)
    mia = strict()
    if mia.status == "unbounded" or mia.value <= ARBITRAGE_TOL:
        return ArbitrageVerdict("model_independent", _witness(mia), ua.value, mia.value)
    return ArbitrageVerdict("no_arbitrage", None, ua.value, mia.value)


def classify_arbitrage(market: Market) -> ArbitrageVerdict:
    """Uniform arbitrage first (cost < 0, outcome >= 0), then the
    model-independent surrogate (cost <= 0, outcome >= 1)."""
    return _verdict(_superhedge(market, _constant_table(market, 0.0)),
                    lambda: _superhedge(market, _constant_table(market, 1.0)))


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
    """Evaluate the three no-arbitrage conditions independently and flag
    any disagreement (each is checked by its own LP: superhedge(0),
    superhedge(1) and the zero-payoff martingale primal).  The report
    carries the verdict of classify_arbitrage, read off the same solves."""
    zero = _constant_table(market, 0.0)
    ua = _superhedge(market, zero)
    mia = _superhedge(market, _constant_table(market, 1.0))
    feas = _primal_mot(market, zero)[0]
    verdict = _verdict(ua, lambda: mia)
    no_uniform = verdict.kind != "uniform"
    no_mia = mia.status == "optimal" and mia.value > ARBITRAGE_TOL
    nonempty = feas.status == "optimal"
    return FtapReport(
        no_model_independent=no_mia,
        no_uniform=no_uniform,
        martingale_set_nonempty=nonempty,
        equivalent=(no_mia == no_uniform == nonempty),
        uniform_value=ua.value,
        strict_value=mia.value,
        coupling=feas.coupling,
        verdict=verdict,
    )


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


def superhedging_duality_report(market: Market, payoff: Payoff) -> DualityReport:
    """Primal martingale value vs superhedging cost; requires no arbitrage.
    Only the MOT primal is solved; the superhedge is read off its multipliers
    and kept once its residuals pass, else (or for the status of an
    infeasible primal) the superhedge LP is solved."""
    table = payoff.table_for(market.instance)
    primal, lp, sol, marginals, columns = _primal_mot(market, table)
    if primal.status != "optimal":
        raise ArbitrageError(primal.status, _superhedge(market, table).status)
    legs = columns.extract_legs(sol.duals)
    dual = SuperhedgeResult("optimal", float(sol.duals @ lp.rhs),
                            SemiStaticStrategy(*_static_side(sol, marginals)[:2], legs))
    superrep, identity = _strategy_residuals(market, table, dual)
    if not _certified(primal.value, dual.value, superrep, identity):
        dual = _superhedge(market, table)
        if dual.status != "optimal":  # pragma: no cover - the LP dual of an optimal primal
            raise ArbitrageError(primal.status, dual.status)
        superrep, identity = _strategy_residuals(market, table, dual)
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
    monotonically (within 1e-9) to the frictionless value."""
    eps_sequence = [float(e) for e in eps_sequence]
    if any(b > a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise ValueError("eps_sequence must be nonincreasing")
    values = []
    for e in eps_sequence:
        res = superhedge_dual(market.with_epsilons(np.full(market.d, e)), payoff)
        if res.status != "optimal":
            raise ValueError(f"market with eps={e} admits a uniform arbitrage")
        values.append(res.value)
    base = superhedge_dual(market.with_epsilons(np.zeros(market.d)), payoff)
    if base.status != "optimal":
        raise ValueError("frictionless market admits a uniform arbitrage")
    monotone = all(b <= a + VALUE_TOL for a, b in zip(values, values[1:]))
    tail = values[-1] if values else base.value
    converged = (abs(tail - base.value) <= VALUE_TOL if eps_sequence and eps_sequence[-1] == 0.0
                 else tail >= base.value - VALUE_TOL)
    return FrictionlessLimitReport(tuple(eps_sequence), tuple(values),
                                   base.value, monotone, converged)
