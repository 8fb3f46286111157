"""Layout of every duality LP: which row and which column is which.

The transport LPs are the market LPs with no market.  The primal holds one
column per path and the marginal rows on them; a market adds one pricing
row per prefix (martingale equalities, or ask and bid bands under costs).
The superhedge LP holds cash, static legs and one superreplication row per
path; a market adds one trading column per pricing row of the primal.
Each builder returns the LP with the ids of its blocks, and solutions are
read through those ids only.  Nothing here solves an LP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import RESIDUAL_TOL, LinearProgram, LpBuilder
from .model import Coupling, Instance

__all__ = ["DynamicLeg", "TradingCatalog", "PrimalLp", "SuperhedgeLp",
           "primal_lp", "superhedge_lp", "epigraph_rows", "certified"]


@dataclass(frozen=True, eq=False)
class DynamicLeg:
    """Adapted positions (and turnover bounds) valued at one maturity.

    h[n-1] has shape (#prefixes of length n-1, d); u matches h and is
    present only when some asset carries transaction costs.
    """

    maturity: int
    h: tuple[np.ndarray, ...]
    u: tuple[np.ndarray, ...] | None = None

    def gains(self, market, total: np.ndarray | None = None) -> np.ndarray:
        """Trading gains net of friction along every path of the market,
        added in place onto `total` (a running sum over legs) when given."""
        instance, s = market.instance, market.price_paths()
        total = np.zeros(instance.n_paths) if total is None else total
        for n in range(1, self.maturity + 1):
            pid = instance.prefix_ids(n - 1)
            total += np.einsum("pd,pd->p", self.h[n - 1][pid], s[n] - s[n - 1])
            if self.u is not None:
                total -= np.einsum("pd,pd->p", self.u[n - 1][pid] * market.epsilons, s[n - 1])
        return total


def _ancestor_prefix(instance: Instance, level: int, ancestor_level: int) -> np.ndarray:
    """Map prefix ids at `level` to their ancestor ids at `ancestor_level`."""
    stride = int(np.prod(instance.shape[ancestor_level:level], initial=1))
    return np.arange(instance.n_prefixes(level)) // stride


@dataclass(frozen=True, eq=False)
class TradingCatalog:
    """Ids of a strategy's dynamic-trading terms: columns of the superhedge
    LP, or the MOT primal rows whose multipliers they are.  ``h_vars[(a, n)]``
    are the positions over period n per prefix of length n - 1 (frictionless
    assets), ``trade_vars[(a, N, n)]`` the (buy, sell) trades opened at n - 1
    and closed at N (frictional assets, ask and bid rows in the primal)."""

    market: object  # a motkit.martingale.Market
    h_vars: dict
    trade_vars: dict

    @classmethod
    def allocate(cls, builder: LpBuilder, market,
                 force_frictional: bool = False) -> "TradingCatalog":
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

    @classmethod
    def pricing_rows(cls, builder: LpBuilder, market, path_vars: np.ndarray,
                     force_frictional: bool = False) -> "TradingCatalog":
        """The MOT primal's pricing rows on the path columns, the twin of
        `allocate`: ``force_frictional`` gives zero-cost assets ask and bid
        rows (at eps 0) in place of the martingale rows."""
        instance = market.instance
        s = market.price_paths()
        h_rows, trade_rows = {}, {}
        for a in range(market.d):
            e = market.epsilons[a]
            if e == 0.0 and not force_frictional:
                # one martingale row per prefix of every length n < T
                for n in range(market.horizon):
                    h_rows[(a, n + 1)] = builder.add_rows(
                        instance.prefix_ids(n), path_vars, s[n + 1][:, a] - s[n][:, a],
                        "=", np.zeros(instance.n_prefixes(n)))
                continue
            for mat in range(1, market.horizon + 1):
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
        return cls(market, h_rows, trade_rows)

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
        """The legs at the superhedge point x, or at the primal multipliers x."""
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


def _mixtures(values: np.ndarray, blocks) -> tuple[np.ndarray, ...]:
    """Per axis the hull mixture weights from the (nearly) nonnegative
    `values` of its block; 1 on exact axes, whose block is None."""
    out = []
    for ids in blocks:
        lam = np.array([1.0]) if ids is None else np.maximum(values[ids], 0.0)
        total = lam.sum()
        out.append(lam / total if total > 0 else lam)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class PrimalLp:
    """max <f, mu>: one column per path, then per axis its marginal rows
    (a hull axis first adds one lambda column per vertex and, after the
    rows, one row summing them to 1), then the market's pricing rows."""

    instance: Instance
    lp: LinearProgram
    paths: np.ndarray
    marginal_rows: tuple[np.ndarray, ...]
    lambdas: tuple[np.ndarray | None, ...]
    trading: TradingCatalog | None

    def coupling(self, x: np.ndarray) -> Coupling:
        return Coupling(self.instance, x[self.paths])

    def static_side(self, sol):
        """Cash m, legs g_n >= 0 and hull mixtures read off an optimal primal:
        the multipliers of axis n's marginal rows are a free leg whose minimum
        moves into the cash (the marginals are probabilities), lambda the mixture."""
        free = [sol.duals[rows] for rows in self.marginal_rows]
        return (float(sum(g.min() for g in free)), tuple(g - g.min() for g in free),
                _mixtures(sol.x, self.lambdas))


@dataclass(frozen=True, eq=False)
class SuperhedgeLp:
    """min cost: the cash column, then per axis its legs g_n >= 0 (a hull
    axis first adds its price column t and, after the legs, one epigraph row
    t >= <g_n, nu> per vertex nu), then the trading columns, then one
    superreplication row per path."""

    lp: LinearProgram
    cash: int
    legs: tuple[np.ndarray, ...]
    epigraph_rows: tuple[np.ndarray | None, ...]
    path_rows: np.ndarray
    trading: TradingCatalog | None

    def position(self, x: np.ndarray) -> tuple[float, tuple[np.ndarray, ...]]:
        """Cash and static legs at the point x."""
        return float(x[self.cash]), tuple(x[ids] for ids in self.legs)

    def mixtures(self, duals: np.ndarray) -> tuple[np.ndarray, ...]:
        """Hull mixture weights: the multipliers of the epigraph rows."""
        return _mixtures(duals, self.epigraph_rows)


def primal_lp(instance: Instance, table: np.ndarray, market=None,
              force_frictional: bool = False) -> PrimalLp:
    """The transport primal of the payoff `table`, or the MOT primal of `market`
    (``force_frictional`` as in `TradingCatalog.pricing_rows`)."""
    builder = LpBuilder("max")
    paths = builder.add_variables(instance.n_paths, objective=table)
    indices = instance.point_indices()
    ones = np.ones(indices.shape[1])
    marginal_rows, lambdas = [], []
    for pos, constraint in enumerate(instance.constraints):
        if constraint.is_exact:
            marginal_rows.append(builder.add_rows(indices[pos], paths, ones, "=",
                                                  constraint.measures[0].weights))
            lambdas.append(None)
            continue
        npts, k = instance.axes[pos].npoints, len(constraint.measures)
        lams = builder.add_variables(k)
        # row j: sum of the paths through point j - sum_k lambda_k nu_k(j) = 0
        marginal_rows.append(builder.add_rows(
            np.concatenate([indices[pos], np.repeat(np.arange(npts), k)]),
            np.concatenate([paths, np.tile(lams, npts)]),
            np.concatenate([ones, -constraint.vertex_matrix.T.ravel()]), "=", np.zeros(npts)))
        builder.add_rows(np.zeros(k), lams, np.ones(k), "=", 1.0)
        lambdas.append(lams)
    trading = None if market is None else TradingCatalog.pricing_rows(builder, market, paths,
                                                                      force_frictional)
    return PrimalLp(instance, builder.build(), paths, tuple(marginal_rows), tuple(lambdas),
                    trading)


def superhedge_lp(instance: Instance, table: np.ndarray, market=None,
                  force_frictional: bool = False) -> SuperhedgeLp:
    """The transport dual of the payoff `table` (cash plus static legs priced
    at the sublinear price), or the superhedge LP of `market`, which adds its
    trading columns to every superreplication row."""
    builder = LpBuilder("min")
    cash = builder.add_variable(lower=-np.inf, objective=1.0)
    legs, epigraph = [], []
    for pos, constraint in enumerate(instance.constraints):
        npts = instance.axes[pos].npoints
        if constraint.is_exact:
            legs.append(builder.add_variables(npts, objective=constraint.measures[0].weights))
            epigraph.append(None)
            continue
        t_var = builder.add_variable(lower=-np.inf, objective=1.0)
        legs.append(builder.add_variables(npts))
        epigraph.append(epigraph_rows(builder, t_var, legs[-1], constraint.vertex_matrix))
    trading = None if market is None else TradingCatalog.allocate(builder, market,
                                                                  force_frictional)
    # one row per path: m + sum_n g_n(x_n) + trading gains >= f(x)
    indices = instance.point_indices()
    n_paths = indices.shape[1]
    terms = (np.tile(np.arange(n_paths), instance.horizon + 1),
             np.concatenate([np.full(n_paths, cash)]
                            + [legs[pos][indices[pos]] for pos in range(instance.horizon)]),
             np.ones(n_paths * (instance.horizon + 1)))
    if trading is not None:
        terms = tuple(np.concatenate(pair) for pair in zip(terms, trading.path_coefficients()))
    path_rows = builder.add_rows(*terms, ">=", table)
    return SuperhedgeLp(builder.build(), cash, tuple(legs), tuple(epigraph), path_rows, trading)


def epigraph_rows(builder: LpBuilder, t_var: int, g_vars, vertices: np.ndarray) -> np.ndarray:
    """Rows t >= <g, nu>, one per vertex nu (a row of `vertices`): t >= price(g)."""
    k, npts = vertices.shape
    return builder.add_rows(np.concatenate([np.arange(k), np.repeat(np.arange(k), npts)]),
                            np.concatenate([np.full(k, t_var), np.tile(g_vars, k)]),
                            np.concatenate([np.ones(k), -vertices.ravel()]), ">=", np.zeros(k))


def certified(value: float, dual_value: float, superreplication_min: float,
              cost_identity: float) -> bool:
    """Do a dual side's superreplication, cost identity and gap pass at RESIDUAL_TOL?"""
    tol = RESIDUAL_TOL * max(1.0, abs(value))
    return superreplication_min >= -tol and max(cost_identity, abs(value - dual_value)) <= tol
