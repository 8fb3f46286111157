"""Layout of every duality LP: which row and which column is which.

The transport LPs are the market LPs with no market.  The primal holds one
column per path and the marginal rows on them; a market adds pricing rows
per prefix from its `Market.pricing_blocks` (martingale equalities, or ask
and bid bands under costs), which alone write their coefficients.
The superhedge LP is the primal's LP dual plus one free cash column: each
primal row becomes a column (a static leg, a hull axis's price, a trading
position) and each primal column a row (a path's superreplication row, a
hull vertex's epigraph row), so it is laid out by index arithmetic on the
primal and never assembled twice.  The primal's rows are the only ids of a
dual side: `superhedge_lp` maps its point back onto them, `PrimalLp.side`
reads the primal's multipliers and that point alike, and a side's mixtures
come from a primal point only.  Nothing here solves an LP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .lp import RESIDUAL_TOL, LinearProgram, LpBuilder
from .model import Coupling, Instance, sublinear_price

__all__ = ["DynamicLeg", "DualSide", "TradingCatalog", "PrimalLp", "primal_lp",
           "superhedge_lp", "certified"]


@dataclass(frozen=True, eq=False)
class DynamicLeg:
    """Adapted positions (and turnover bounds) valued at one maturity.

    h[n-1] has shape (#prefixes of length n-1, d); u matches h and is
    present only when some asset carries transaction costs.
    """

    maturity: int
    h: tuple[np.ndarray, ...]
    u: tuple[np.ndarray, ...] | None = None

    def gains(self, market, total: np.ndarray) -> np.ndarray:
        """Trading gains net of friction along every path of the market,
        added in place onto `total` (a running sum over legs)."""
        instance, s = market.instance, market.price_paths()
        for n in range(1, self.maturity + 1):
            pid = instance.prefix_ids(n - 1)
            total += np.einsum("pd,pd->p", self.h[n - 1][pid], s[n] - s[n - 1])
            if self.u is not None:
                total -= np.einsum("pd,pd->p", self.u[n - 1][pid] * market.epsilons, s[n - 1])
        return total


@dataclass(frozen=True, eq=False)
class DualSide:
    """Cash m, static legs g >= 0, hull mixtures and (with a market) dynamic legs:
    "optimal" at cost `value`, or "unbounded", a checked ray with no mixtures.
    It is the strategy every entry point hands out, bound to the instance and
    market (None for transport) it was read from, and valued only here."""

    status: str
    value: float
    m: float
    g: tuple[np.ndarray, ...]
    mixtures: tuple[np.ndarray, ...] | None
    legs: tuple[DynamicLeg, ...]
    instance: Instance
    market: object | None  # a motkit.martingale.Market

    def cost(self) -> float:
        """m plus the (sub)linear price of every static leg."""
        constraints = self.instance.constraints
        return float(sum((sublinear_price(con, g) for con, g in zip(constraints, self.g)), self.m))

    def dynamic_gains(self) -> np.ndarray:
        """Trading gains net of friction along every path."""
        return reduce(lambda total, leg: leg.gains(self.market, total), self.legs,
                      np.zeros(self.instance.n_paths))

    def outcome(self) -> np.ndarray:
        """m + static legs + dynamic gains along every path."""
        static = sum((g[idx] for g, idx in zip(self.g, self.instance.point_indices())),
                     np.full(self.instance.n_paths, self.m))
        return static + self.dynamic_gains()


def _ancestor_prefix(instance: Instance, level: int, ancestor_level: int) -> np.ndarray:
    """Map prefix ids at `level` to their ancestor ids at `ancestor_level`."""
    stride = int(np.prod(instance.shape[ancestor_level:level], initial=1))
    return np.arange(instance.n_prefixes(level)) // stride


@dataclass(frozen=True, eq=False)
class TradingCatalog:
    """Ids of a strategy's dynamic-trading terms: the MOT primal's pricing
    rows, whose multipliers are the terms.  ``h_vars[(a, n)]`` are the
    positions over period n per prefix of length n - 1 (frictionless assets,
    martingale rows), ``trade_vars[(a, N, n)]`` the (buy, sell) trades opened
    at n - 1 and closed at N (frictional assets, ask and bid rows)."""

    market: object  # a motkit.martingale.Market
    h_vars: dict
    trade_vars: dict

    @classmethod
    def pricing_rows(cls, builder: LpBuilder, market, path_vars: np.ndarray,
                     force_frictional: bool = False) -> "TradingCatalog":
        """Per prefix of each of the market's `pricing_blocks`, an "=" row (bid
        None) or an ask and a bid "<=" row on the path columns.  ``force_frictional``
        gives zero-cost assets ask and bid rows (at eps 0) in place of the
        martingale rows; the LP value is unchanged (a maturity-N trade
        telescopes into one-step positions when trading is free), which is
        exactly the frictionless-reduction check."""
        instance = market.instance
        h_rows, trade_rows = {}, {}
        for a, mat, n, ask, bid in market.pricing_blocks(force_frictional):
            pid, zeros = instance.prefix_ids(n), np.zeros(instance.n_prefixes(n))
            if bid is None:
                h_rows[(a, mat)] = builder.add_rows(pid, path_vars, ask, "=", zeros)
                continue
            # the ask row (2p) and the bid row (2p + 1) of every prefix p
            rows = builder.add_rows(np.concatenate([2 * pid, 2 * pid + 1]),
                                    np.concatenate([path_vars, path_vars]),
                                    np.concatenate([ask, bid]), "<=", np.r_[zeros, zeros])
            trade_rows[(a, mat, n + 1)] = (rows[0::2], rows[1::2])
        return cls(market, h_rows, trade_rows)

    def extract_legs(self, x: np.ndarray) -> tuple[DynamicLeg, ...]:
        """The legs at the multipliers x of the primal's rows."""
        market = self.market
        instance = market.instance
        t_horizon = market.horizon
        with_u = bool(np.any(market.epsilons > 0.0))
        maturities = range(1, t_horizon + 1) if self.trade_vars else [t_horizon]
        legs = []
        for mat in maturities:
            h = [np.zeros((instance.n_prefixes(n - 1), market.d))
                 for n in range(1, mat + 1)]
            u = [np.zeros_like(tab) for tab in h] if with_u else None
            empty = True
            for (a, n), ids in self.h_vars.items() if mat == t_horizon else ():
                h[n - 1][:, a] = x[ids]
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


@dataclass(frozen=True, eq=False)
class PrimalLp:
    """max <f, mu>: one column per path, then per axis its marginal rows
    (a hull axis first adds one lambda column per vertex and, after the
    rows, the row `lambda_rows` summing them to 1), then the market's
    pricing rows."""

    instance: Instance
    lp: LinearProgram
    paths: np.ndarray
    marginal_rows: tuple[np.ndarray, ...]
    lambdas: tuple[np.ndarray | None, ...]
    lambda_rows: tuple[int | None, ...]
    trading: TradingCatalog | None

    def coupling(self, x: np.ndarray) -> Coupling:
        return Coupling(self.instance, x[self.paths])

    def mixtures(self, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per axis its vertices' mixture lambda_n: the lambda entries of x (a value
        per primal column) clipped at 0 and normalised; [1.0] on an exact axis."""
        lams = [np.array([1.0]) if ids is None else np.maximum(x[ids], 0.0)
                for ids in self.lambdas]
        return tuple(lam / lam.sum() if lam.sum() > 0 else lam for lam in lams)

    def with_payoff(self, table: np.ndarray) -> "PrimalLp":
        """The primal of another payoff: these rows and ids, the same arrays."""
        objective = np.zeros(self.lp.n_variables)
        objective[self.paths] = table
        return replace(self, lp=self.lp.with_objective(objective))

    def side(self, status: str, value: float, cash: float, rows: np.ndarray,
             x: np.ndarray | None) -> DualSide:
        """The dual side with cash `cash` and multiplier rows[i] on primal row
        i: the legs g_n from the marginal rows, dynamic legs from the pricing
        rows, and the `mixtures` of the primal point `x` (None if there is
        none: a ray, or the superhedge LP's solution)."""
        legs = () if self.trading is None else self.trading.extract_legs(rows)
        mixtures = None if x is None else self.mixtures(x)
        market = None if self.trading is None else self.trading.market
        return DualSide(status, value, cash, tuple(rows[ids] for ids in self.marginal_rows),
                        mixtures, legs, self.instance, market)


def primal_lp(instance: Instance, table: np.ndarray, market=None,
              force_frictional: bool = False) -> PrimalLp:
    """The transport primal of the payoff `table`, or the MOT primal of `market`
    (``force_frictional`` as in `TradingCatalog.pricing_rows`)."""
    builder = LpBuilder("max")
    paths = builder.add_variables(instance.n_paths, objective=table)
    indices = instance.point_indices()
    ones = np.ones(indices.shape[1])
    marginal_rows, lambdas, lambda_rows = [], [], []
    for pos, constraint in enumerate(instance.constraints):
        if constraint.is_exact:
            marginal_rows.append(builder.add_rows(indices[pos], paths, ones, "=",
                                                  constraint.measures[0].weights))
            lambdas.append(None)
            lambda_rows.append(None)
            continue
        npts, k = instance.axes[pos].npoints, len(constraint.measures)
        lams = builder.add_variables(k)
        # row j: sum of the paths through point j - sum_k lambda_k nu_k(j) = 0
        marginal_rows.append(builder.add_rows(
            np.concatenate([indices[pos], np.repeat(np.arange(npts), k)]),
            np.concatenate([paths, np.tile(lams, npts)]),
            np.concatenate([ones, -constraint.vertex_matrix.T.ravel()]), "=", np.zeros(npts)))
        lambda_rows.append(int(builder.add_rows(np.zeros(k), lams, np.ones(k), "=", 1.0)[0]))
        lambdas.append(lams)
    trading = None if market is None else TradingCatalog.pricing_rows(builder, market, paths,
                                                                      force_frictional)
    return PrimalLp(instance, builder.build(), paths, tuple(marginal_rows), tuple(lambdas),
                    tuple(lambda_rows), trading)


def superhedge_lp(primal: PrimalLp) -> tuple[LinearProgram, np.ndarray, np.ndarray]:
    """The LP dual of `primal` plus a free cash column 0 in every path row,
    and its maps onto the primal: column 1 + k is primal row ``order[k]``,
    row i is primal column ``sources[i]``.  Each primal row is a column
    priced at its rhs: free on "=", >= 0 on "<=", and the legs (the marginal
    rows) >= 0.  Each primal column is a ">=" row on its objective: the
    lambdas' epigraph rows, then the paths' superreplication rows."""
    lp, n_paths = primal.lp, primal.paths.size
    # the primal rows in column order: a hull axis's lambda row (its price t)
    # before its marginal rows, the ask rows of a trade block before its bids
    order = np.arange(lp.n_rows)
    for rows, lam_row in zip(primal.marginal_rows, primal.lambda_rows):
        if lam_row is not None:
            order[rows[0]: lam_row + 1] = np.r_[lam_row, rows]
    for asks, bids in (primal.trading.trade_vars.values() if primal.trading else ()):
        order[asks[0]: bids[-1] + 1] = np.r_[asks, bids]
    sources = np.r_[n_paths: lp.n_variables, primal.paths]
    a = np.zeros((lp.n_variables, lp.n_rows + 1))
    a[lp.n_variables - n_paths:, 0] = 1.0
    a[:, 1:] = lp.a[np.ix_(order, sources)].T
    lower = np.where(lp.relation_codes == 0, -np.inf, 0.0)
    lower[np.concatenate(primal.marginal_rows)] = 0.0
    dual = LinearProgram("min", np.r_[1.0, lp.rhs[order]], np.r_[-np.inf, lower[order]],
                         np.full(lp.n_rows + 1, np.inf), a, (">=",) * lp.n_variables,
                         lp.objective[sources])
    return dual, order, sources


def certified(value: float, dual_value: float, superreplication_min: float,
              cost_identity: float) -> bool:
    """Do a dual side's superreplication, cost identity and gap pass at RESIDUAL_TOL?"""
    tol = RESIDUAL_TOL * max(1.0, abs(value))
    return superreplication_min >= -tol and max(cost_identity, abs(value - dual_value)) <= tol
