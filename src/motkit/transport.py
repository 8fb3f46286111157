"""Multi-marginal transport duality on finite product grids.

Primal: maximize <f, mu> over couplings whose n-th marginal equals nu_n
(Exact) or lies in a convex hull of finitely many measures (ConvexHull).
Dual: minimize m + sum_n price_n(g_n) over cash m and nonnegative per-axis
legs g_n with m + sum_n g_n(x_n) >= f pointwise; given a market, the
martingale pair.  Only the primal is solved (one column per path, fewer rows
than the dual has paths): `hedge` reads the dual off its optimal multipliers,
kept once `certified` passes, else solved by `solve_superhedge` onto the
primal's rows and columns; `PrimalLp.side` reads both.  An infeasible primal
proves the dual unbounded (`martingale.ArbitrageError`).  Payoffs on one
instance share the rows: `solve_primals` takes one assembly and one phase 1.
Its point also holds each hull axis's mixture, the witness of membership:
`marginal_separation` checks the marginals against it in closed form, as
anyone can from a payload's `coupling` and `mixtures`, with no further LP.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .assembly import DualSide, PrimalLp, certified, primal_lp, superhedge_lp
from .lp import (RESIDUAL_TOL, LpBuilder, LpError, LpNumericalError, check_unbounded_ray,
                 phase_one, solve)
from .model import (
    PROB_TOL,
    VALUE_TOL,
    Coupling,
    Instance,
    MarginalConstraint,
    Payoff,
    marginal_of,
    sublinear_price,
)

__all__ = [
    "DualityReport",
    "ConjugateValue",
    "ConstantWitness",
    "SeparatingWitness",
    "solve_primal",
    "solve_primals",
    "solve_superhedge",
    "hedge",
    "primal_transport",
    "dual_transport",
    "conjugate_membership",
    "verify_representation",
    "functional_properties_check",
    "duality_report",
    "marginal_separation",
]


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Primal/dual values, the attained optimizers, and residuals.

    ``dual`` is the optimal `assembly.DualSide` that `hedge` read, bound to
    the instance and (for martingale markets) the market.
    """

    primal_value: float
    dual_value: float
    gap: float
    coupling: Coupling
    dual: DualSide
    residuals: dict


# ---------------------------------------------------------------------------
# the duality route: transport with no market, martingale transport with one
# ---------------------------------------------------------------------------

def solve_primals(instance: Instance, tables, market=None, force_frictional: bool = False):
    """The primal LP of each payoff table and its solution (optimal, or
    infeasible under arbitrage), from one assembly and one phase 1."""
    if not tables:
        return []
    first = primal_lp(instance, tables[0], market, force_frictional)
    start = phase_one(first.lp)
    pairs = []
    for primal in [first] + [first.with_payoff(table) for table in tables[1:]]:
        sol = solve(primal.lp, start=start)
        if sol.status != "optimal" and (market is None or sol.status != "infeasible"):
            raise LpError(f"primal LP unexpectedly {sol.status}")  # pragma: no cover
        pairs.append((primal, sol))
    return pairs


def solve_primal(instance: Instance, table: np.ndarray, market=None,
                 force_frictional: bool = False):
    """The primal LP and its solution: `solve_primals` of one table."""
    return solve_primals(instance, [table], market, force_frictional)[0]


def solve_superhedge(primal: PrimalLp) -> DualSide:
    """Solve the superhedge LP, the LP dual of `primal` plus cash: its optimal
    point, or its improving ray once `check_unbounded_ray` passes against
    that LP (LpNumericalError if not), read onto the primal's rows and its
    duals onto the primal's columns."""
    lp, order, sources = superhedge_lp(primal)
    sol = solve(lp)
    if sol.status == "optimal":
        point, columns = sol.x, np.empty(primal.lp.n_variables)
        columns[sources] = sol.duals
    elif sol.status != "unbounded" or not check_unbounded_ray(lp, sol.ray) <= RESIDUAL_TOL:
        raise LpNumericalError(f"superhedge LP {sol.status} with no checked improving ray")
    else:
        point, columns = sol.ray, None
    rows = np.empty(primal.lp.n_rows)
    rows[order] = point[1:]
    return primal.side(sol.status, sol.value, float(point[0]), rows, columns)


def _residuals(table: np.ndarray, side: DualSide):
    """superreplication_min and the cost identity of an optimal side."""
    return float((side.outcome() - table).min()), abs(side.value - side.cost())


def hedge(primal: PrimalLp, sol, table: np.ndarray):
    """The dual side of the optimal primal `sol` of `table`, with `sol`'s
    mixtures, and its residuals (superreplication_min, cost identity) from
    its own `outcome()` and `cost()`: read off the multipliers and kept once
    its cash and static legs are finite and `certified` passes, else
    `solve_superhedge`, which weak duality leaves optimal (LpError if not)."""
    # the marginals are probabilities: each axis's free multipliers move
    # their minimum into the cash, leaving legs g_n >= 0
    rows = sol.duals.copy()
    floors = [rows[ids].min() for ids in primal.marginal_rows]
    with np.errstate(over="ignore"):  # a shift that overflows is not certified
        for ids, floor in zip(primal.marginal_rows, floors):
            rows[ids] -= floor
    side = primal.side("optimal", float(sol.duals @ primal.lp.rhs), float(sum(floors)),
                       rows, sol.x)
    if np.isfinite([side.m, *np.concatenate(side.g)]).all():
        residuals = _residuals(table, side)
        if certified(sol.value, side.value, *residuals):
            return side, residuals
    side = replace(solve_superhedge(primal), mixtures=primal.mixtures(sol.x))
    if side.status != "optimal":
        raise LpError(f"superhedge LP {side.status} beside an optimal primal")
    return side, _residuals(table, side)


def primal_transport(instance: Instance, payoff: Payoff) -> tuple[float, Coupling]:
    """Maximize <f, mu> over the feasible couplings; returns an attaining one."""
    primal, sol = solve_primal(instance, payoff.table_for(instance))
    return sol.value, primal.coupling(sol.x)


def dual_transport(instance: Instance, payoff: Payoff) -> DualSide:
    """Cheapest cash-plus-static superreplication of the payoff (see `hedge`)."""
    table = payoff.table_for(instance)
    return hedge(*solve_primal(instance, table), table)[0]


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


def marginal_separation(instance: Instance, coupling: Coupling, mixtures) -> float:
    """max over axes n of sum_p (mu_n - lambda_n @ V_n)^+, the coupling's marginal
    mass above the mixture lambda_n ([1.0] if exact) of the vertex weights V_n
    (`vertex_matrix`); for lambda_n in the simplex, at least `conjugate_membership`'s
    separation value.  A payload's `coupling` and `mixtures` recompute it."""
    excess = (marginal_of(coupling, ax.index).weights - lam @ con.vertex_matrix
              for ax, con, lam in zip(instance.axes, instance.constraints, mixtures))
    return max([0.0] + [float(np.maximum(e, 0.0).sum()) for e in excess])


def _separation_value(constraint: MarginalConstraint, mu_weights: np.ndarray):
    """max over g in [0,1]^P of <g, mu_n> - price(g), with a maximizing g:
    closed form for Exact constraints, a small box LP for hulls, whose
    measure mu_n comes with no mixture to check it against."""
    if constraint.is_exact:
        nu = constraint.measures[0].weights
        g = (mu_weights > nu).astype(float)
        return float(np.maximum(mu_weights - nu, 0.0).sum()), g
    builder = LpBuilder("max")
    g_vars = builder.add_variables(constraint.axis.npoints, lower=0.0, upper=1.0,
                                   objective=mu_weights)
    t_var = builder.add_variable(lower=-np.inf, objective=-1.0)
    # t - <g, nu> >= 0 for every vertex nu: t >= price(g)
    k, npts = constraint.vertex_matrix.shape
    builder.add_rows(np.repeat(np.arange(k), npts + 1), np.tile(np.r_[t_var, g_vars], k),
                     np.c_[np.ones(k), -constraint.vertex_matrix].ravel(), ">=", np.zeros(k))
    sol = solve(builder.build())
    if sol.status != "optimal":
        raise LpError(f"separation LP unexpectedly {sol.status}")
    return sol.value, sol.x[g_vars]


def conjugate_membership(instance: Instance, mu: Coupling) -> ConjugateValue:
    """Conjugate of the dual functional at mu: 0 on the feasible measure
    set, +infinity off it, with a direction witnessing the blow-up.  Mass is
    tested at PROB_TOL and each marginal's separation value at VALUE_TOL."""
    if mu.instance is not instance and mu.instance.shape != instance.shape:
        raise ValueError("coupling does not match the instance grid")
    mass = mu.total_mass
    if abs(mass - 1.0) > PROB_TOL:
        return ConjugateValue(np.inf, ConstantWitness(1.0 if mass > 1.0 else -1.0))
    for pos, constraint in enumerate(instance.constraints):
        mu_n = marginal_of(mu, instance.axes[pos].index).weights
        value, g = _separation_value(constraint, mu_n)
        if value > VALUE_TOL:
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
    of the conjugate max-representation), one primal phase 2 per payoff."""
    tables = [payoff.table_for(instance) for payoff in payoffs]
    pairs = solve_primals(instance, tables)
    primals = tuple(sol.value for _, sol in pairs)
    duals = tuple(hedge(primal, sol, table)[0].value
                  for table, (primal, sol) in zip(tables, pairs))
    gaps = tuple(abs(p - d) for p, d in zip(primals, duals))
    return RepresentationReport(primals, duals, gaps, max(gaps, default=0.0))


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
    dual value map on random payoff pairs; returns worst violations.  The
    6 * trials tables share one phase 1 (`verify_representation`)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    draws = [(*rng.uniform(-1.0, 1.0, size=(2, instance.n_paths)), float(rng.uniform(0.0, 3.0)),
              float(rng.uniform(-2.0, 2.0))) for _ in range(trials)]
    tables = [t for f, f2, lam, c in draws for t in (f, f + np.abs(f2), lam * f, f + f2, f2, f + c)]
    phis = iter(verify_representation(instance, map(Payoff.dense, tables)).dual_values)
    mono = hom = sub = trans = 0.0
    for _, _, lam, c in draws:
        phi_f, phi_up, phi_lam, phi_sum, phi_f2, phi_c = (next(phis) for _ in range(6))
        mono = max(mono, phi_f - phi_up)
        hom = max(hom, abs(phi_lam - lam * phi_f))
        sub = max(sub, phi_sum - phi_f - phi_f2)
        trans = max(trans, abs(phi_c - (phi_f + c)))
    return FunctionalPropertiesReport(mono, hom, sub, trans)


def duality_report(instance: Instance, payoff: Payoff) -> DualityReport:
    """Primal and dual values side by side with certificate residuals, from
    one primal solve (see `hedge`), whose mixtures check the marginals."""
    table = payoff.table_for(instance)
    primal, sol = solve_primal(instance, table)
    dual, (superrep, price_identity) = hedge(primal, sol, table)
    coupling = primal.coupling(sol.x)
    residuals = {
        "superreplication_min": superrep,
        "marginal_separation": marginal_separation(instance, coupling, primal.mixtures(sol.x)),
        "dual_price_identity": price_identity,
        "coupling_mass_error": abs(coupling.total_mass - 1.0),
    }
    return DualityReport(primal_value=sol.value, dual_value=dual.value,
                         gap=abs(sol.value - dual.value), coupling=coupling,
                         dual=dual, residuals=residuals)
