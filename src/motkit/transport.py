"""Multi-marginal transport duality on finite product grids.

Primal: maximize <f, mu> over couplings whose n-th marginal equals nu_n
(Exact) or lies in a convex hull of finitely many measures (ConvexHull).
Dual: minimize m + sum_n price_n(g_n) over cash m and nonnegative per-axis
legs g_n with m + sum_n g_n(x_n) >= f pointwise.  Both are LPs; the zero
gap between them is checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import RESIDUAL_TOL, LpBuilder, LpError, solve
from .model import (
    VALUE_TOL,
    Coupling,
    Instance,
    MarginalConstraint,
    Payoff,
    marginal_of,
    sublinear_price,
)

__all__ = [
    "TransportDualSolution",
    "DualityReport",
    "ConjugateValue",
    "ConstantWitness",
    "SeparatingWitness",
    "primal_transport",
    "dual_transport",
    "conjugate_membership",
    "verify_representation",
    "functional_properties_check",
    "duality_report",
]


@dataclass(frozen=True)
class TransportDualSolution:
    """Optimal (m, g) with per-axis mixture weights on hull vertices."""

    value: float
    m: float
    g: tuple[np.ndarray, ...]
    mixtures: tuple[np.ndarray, ...]


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Primal/dual values, the attained optimizers, and residuals.

    ``dual`` is a TransportDualSolution for transport instances and a
    SemiStaticStrategy for martingale markets.
    """

    primal_value: float
    dual_value: float
    gap: float
    coupling: Coupling
    dual: object
    residuals: dict


# ---------------------------------------------------------------------------
# LP assembly helpers (also used by the martingale module)
# ---------------------------------------------------------------------------

def _add_path_variables(builder: LpBuilder, instance: Instance,
                        objective: np.ndarray) -> np.ndarray:
    return builder.add_variables(instance.n_paths, objective=objective)


def _add_marginal_rows(builder: LpBuilder, instance: Instance,
                       path_vars: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Marginal constraints on the coupling, one row per axis point; hull
    marginals get mixture variables lambda over the vertices.  Returns per
    axis the ids of its rows and of its lambdas (None on exact axes)."""
    indices = instance.point_indices()
    ones = np.ones(indices.shape[1])
    marginals = []
    for pos, constraint in enumerate(instance.constraints):
        if constraint.is_exact:
            marginals.append((builder.add_rows(indices[pos], path_vars, ones, "=",
                                               constraint.measures[0].weights), None))
            continue
        npts, k = instance.axes[pos].npoints, len(constraint.measures)
        lams = builder.add_variables(k)
        # row j: sum of the paths through point j - sum_k lambda_k nu_k(j) = 0
        rows = builder.add_rows(np.concatenate([indices[pos], np.repeat(np.arange(npts), k)]),
                                np.concatenate([path_vars, np.tile(lams, npts)]),
                                np.concatenate([ones, -constraint.vertex_matrix.T.ravel()]),
                                "=", np.zeros(npts))
        builder.add_row([(lam, 1.0) for lam in lams], "=", 1.0)
        marginals.append((rows, lams))
    return marginals


def _mixture(lam: np.ndarray) -> np.ndarray:
    """Hull mixture weights from (nearly) nonnegative lambda values."""
    lam = np.maximum(lam, 0.0)
    total = lam.sum()
    return lam / total if total > 0 else lam


def _static_side(sol, marginals):
    """Cash m, legs g_n >= 0 and hull mixtures read off an optimal primal:
    the multipliers of axis n's marginal rows are a free leg whose minimum
    moves into the cash (the marginals are probabilities), lambda the mixture."""
    free = [sol.duals[rows] for rows, _ in marginals]
    return (float(sum(g.min() for g in free)), tuple(g - g.min() for g in free),
            tuple(np.array([1.0]) if lams is None else _mixture(sol.x[lams])
                  for _, lams in marginals))


def _certified(value: float, dual_value: float, superreplication_min: float,
               cost_identity: float) -> bool:
    """Do a dual side's superreplication, cost identity and gap pass at RESIDUAL_TOL?"""
    tol = RESIDUAL_TOL * max(1.0, abs(value))
    return superreplication_min >= -tol and max(cost_identity, abs(value - dual_value)) <= tol


def _add_static_leg_columns(builder: LpBuilder, instance: Instance):
    """Cash m plus per-axis legs g_n >= 0 priced at the sublinear price.

    Returns (m_var, g_vars, epigraph_rows) where g_vars[pos] holds the ids
    of the legs on axis pos, and epigraph_rows[pos] the epigraph row ids for
    hull axes (None for exact axes); their duals are the hull mixture
    weights.
    """
    m_var = builder.add_variable(lower=-np.inf, objective=1.0)
    g_vars: list[np.ndarray] = []
    epigraph_rows: list[list[int] | None] = []
    for pos, constraint in enumerate(instance.constraints):
        npts = instance.axes[pos].npoints
        if constraint.is_exact:
            g_vars.append(builder.add_variables(npts, objective=constraint.measures[0].weights))
            epigraph_rows.append(None)
        else:
            t_var = builder.add_variable(lower=-np.inf, objective=1.0)
            g_vars.append(builder.add_variables(npts))
            epigraph_rows.append([
                builder.add_row([(t_var, 1.0), *zip(g_vars[-1], -nu.weights)], ">=", 0.0)
                for nu in constraint.measures])
    return m_var, g_vars, epigraph_rows


def _superreplication_rows(builder: LpBuilder, instance: Instance, table: np.ndarray,
                           m_var: int, g_vars: list[np.ndarray], extra=None) -> None:
    """One row per path: m + sum_n g_n(x_n) + extra >= f(x), where `extra`
    is None or the (path, column, value) triplets of further terms."""
    indices = instance.point_indices()
    n_paths = indices.shape[1]
    rows = np.tile(np.arange(n_paths), instance.horizon + 1)
    cols = np.concatenate([np.full(n_paths, m_var)] + [g_vars[pos][indices[pos]]
                                                       for pos in range(instance.horizon)])
    vals = np.ones(cols.size)
    if extra is not None:
        rows, cols, vals = (np.concatenate(pair) for pair in zip((rows, cols, vals), extra))
    builder.add_rows(rows, cols, vals, ">=", table)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _primal_builder(instance: Instance, table: np.ndarray):
    builder = LpBuilder("max")
    path_vars = _add_path_variables(builder, instance, table)
    return builder, _add_marginal_rows(builder, instance, path_vars)


def _primal_transport(instance: Instance, table: np.ndarray):
    """Value, coupling, and the LP, its solution and its marginal blocks."""
    builder, marginals = _primal_builder(instance, table)
    lp = builder.build()
    sol = solve(lp)
    if sol.status != "optimal":
        raise LpError(f"transport primal unexpectedly {sol.status}")
    return sol.value, Coupling(instance, sol.x[: instance.n_paths]), lp, sol, marginals


def primal_transport(instance: Instance, payoff: Payoff) -> tuple[float, Coupling]:
    """Maximize <f, mu> over the feasible couplings; returns an attaining one."""
    return _primal_transport(instance, payoff.table_for(instance))[:2]


def _dual_transport(instance: Instance, table: np.ndarray) -> TransportDualSolution:
    builder = LpBuilder("min")
    m_var, g_vars, epigraph_rows = _add_static_leg_columns(builder, instance)
    _superreplication_rows(builder, instance, table, m_var, g_vars)
    sol = solve(builder.build())
    if sol.status != "optimal":
        raise LpError(f"transport dual unexpectedly {sol.status}")
    mixtures = tuple(np.array([1.0]) if rows is None else _mixture(sol.duals[rows])
                     for rows in epigraph_rows)
    return TransportDualSolution(value=sol.value, m=float(sol.x[m_var]),
                                 g=tuple(sol.x[ids] for ids in g_vars), mixtures=mixtures)


def dual_transport(instance: Instance, payoff: Payoff) -> TransportDualSolution:
    """Cheapest cash-plus-static superreplication of the payoff."""
    return _dual_transport(instance, payoff.table_for(instance))


@dataclass(frozen=True)
class ConstantWitness:
    """Cash direction blowing up the conjugate when mass differs from 1."""

    direction: float


@dataclass(frozen=True)
class SeparatingWitness:
    """Per-axis leg g >= 0 with <g, mu_n> strictly above the price of g."""

    axis_index: int
    values: np.ndarray


@dataclass(frozen=True)
class ConjugateValue:
    value: float
    witness: ConstantWitness | SeparatingWitness | None = None

    @property
    def is_zero(self) -> bool:
        return self.value == 0.0


def _marginal_separation(instance: Instance, coupling: Coupling) -> float:
    """Worst separation value of the coupling's marginals (0 when all fit)."""
    return max([0.0] + [_separation_value(con, marginal_of(coupling, ax.index).weights)[0]
                        for ax, con in zip(instance.axes, instance.constraints)])


def _separation_value(constraint: MarginalConstraint, mu_weights: np.ndarray):
    """max over g in [0,1]^P of <g, mu_n> - price(g), with a maximizing g.

    Closed form for Exact constraints; a small box LP for hulls.
    """
    if constraint.is_exact:
        nu = constraint.measures[0].weights
        g = (mu_weights > nu).astype(float)
        return float(np.maximum(mu_weights - nu, 0.0).sum()), g
    builder = LpBuilder("max")
    g_vars = builder.add_variables(constraint.axis.npoints, lower=0.0, upper=1.0,
                                   objective=mu_weights)
    t_var = builder.add_variable(lower=-np.inf, objective=-1.0)
    for nu in constraint.measures:
        builder.add_row([(t_var, 1.0), *zip(g_vars, -nu.weights)], ">=", 0.0)
    sol = solve(builder.build())
    if sol.status != "optimal":
        raise LpError(f"separation LP unexpectedly {sol.status}")
    return sol.value, sol.x[g_vars]


def conjugate_membership(instance: Instance, mu: Coupling,
                         tol: float = VALUE_TOL) -> ConjugateValue:
    """Conjugate of the dual functional at mu: 0 on the feasible measure
    set, +infinity off it, with a direction witnessing the blow-up."""
    if mu.instance is not instance and mu.instance.shape != instance.shape:
        raise ValueError("coupling does not match the instance grid")
    mass = mu.total_mass
    if abs(mass - 1.0) > 1e-12:
        return ConjugateValue(np.inf, ConstantWitness(1.0 if mass > 1.0 else -1.0))
    for pos, constraint in enumerate(instance.constraints):
        mu_n = marginal_of(mu, instance.axes[pos].index).weights
        value, g = _separation_value(constraint, mu_n)
        if value > tol:
            # defensive: the witness must verify against the raw definitions
            margin = float(g @ mu_n) - sublinear_price(constraint, g)
            if margin <= 0:  # pragma: no cover - separation value was positive
                raise LpError("separating witness failed validation")
            return ConjugateValue(np.inf, SeparatingWitness(instance.axes[pos].index, g))
    return ConjugateValue(0.0)


@dataclass(frozen=True)
class RepresentationReport:
    primal_values: tuple[float, ...]
    dual_values: tuple[float, ...]
    gaps: tuple[float, ...]
    max_gap: float


def verify_representation(instance: Instance, payoffs) -> RepresentationReport:
    """Check dual(f) = primal(f) for each payoff (the finite-instance form
    of the conjugate max-representation)."""
    primals, duals, gaps = [], [], []
    for payoff in payoffs:
        p, _ = primal_transport(instance, payoff)
        d = dual_transport(instance, payoff).value
        primals.append(p)
        duals.append(d)
        gaps.append(abs(p - d))
    return RepresentationReport(tuple(primals), tuple(duals), tuple(gaps),
                                max(gaps) if gaps else 0.0)


@dataclass(frozen=True)
class FunctionalPropertiesReport:
    monotonicity: float
    homogeneity: float
    subadditivity: float
    translation: float

    @property
    def worst(self) -> float:
        return max(self.monotonicity, self.homogeneity,
                   self.subadditivity, self.translation)


def functional_properties_check(instance: Instance, trials: int,
                                seed: int = 0) -> FunctionalPropertiesReport:
    """Empirical monotonicity / sublinearity / translation checks of the
    dual value map on random payoff pairs; returns worst violations."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    phi = lambda table: dual_transport(instance, Payoff.dense(table)).value
    mono = hom = sub = trans = 0.0
    for _ in range(trials):
        f = rng.uniform(-1.0, 1.0, size=instance.n_paths)
        f2 = rng.uniform(-1.0, 1.0, size=instance.n_paths)
        lam = float(rng.uniform(0.0, 3.0))
        c = float(rng.uniform(-2.0, 2.0))
        phi_f = phi(f)
        mono = max(mono, phi_f - phi(f + np.abs(f2)))
        hom = max(hom, abs(phi(lam * f) - lam * phi_f))
        sub = max(sub, phi(f + f2) - phi_f - phi(f2))
        trans = max(trans, abs(phi(f + c) - (phi_f + c)))
    return FunctionalPropertiesReport(mono, hom, sub, trans)


def _dual_residuals(instance: Instance, table: np.ndarray, dual: TransportDualSolution):
    """superreplication_min and dual_price_identity of a dual solution."""
    indices = instance.point_indices()
    static = dual.m + sum(dual.g[pos][indices[pos]] for pos in range(instance.horizon))
    cost = dual.m + sum(sublinear_price(con, g) for con, g in zip(instance.constraints, dual.g))
    return float((static - table).min()), abs(dual.value - cost)


def duality_report(instance: Instance, payoff: Payoff) -> DualityReport:
    """Primal and dual values side by side with certificate residuals.  Only
    the primal is solved; the dual is read off its multipliers and kept once
    its residuals pass, else the dual LP is solved."""
    table = payoff.table_for(instance)
    primal_value, coupling, lp, sol, marginals = _primal_transport(instance, table)
    dual = TransportDualSolution(float(sol.duals @ lp.rhs), *_static_side(sol, marginals))
    superrep, price_identity = _dual_residuals(instance, table, dual)
    if not _certified(primal_value, dual.value, superrep, price_identity):
        dual = _dual_transport(instance, table)
        superrep, price_identity = _dual_residuals(instance, table, dual)
    residuals = {
        "superreplication_min": superrep,
        "marginal_separation": _marginal_separation(instance, coupling),
        "dual_price_identity": price_identity,
        "coupling_mass_error": abs(coupling.total_mass - 1.0),
    }
    return DualityReport(primal_value=primal_value, dual_value=dual.value,
                         gap=abs(primal_value - dual.value), coupling=coupling,
                         dual=dual, residuals=residuals)
