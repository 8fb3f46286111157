"""Multi-marginal transport duality on finite product grids.

Primal: maximize <f, mu> over couplings whose n-th marginal equals nu_n
(Exact) or lies in a convex hull of finitely many measures (ConvexHull).
Dual: minimize m + sum_n price_n(g_n) over cash m and nonnegative per-axis
legs g_n with m + sum_n g_n(x_n) >= f pointwise.  Both are LPs, but every
entry point solves only the primal (one column per path, fewer rows than
the dual has paths): the dual is read off its multipliers and kept once its
residuals and the zero gap pass `certified`, else the dual LP is solved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import certified, primal_lp, superhedge_lp
from .lp import LpBuilder, LpError, solve
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
    "marginal_separation",
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
# operations
# ---------------------------------------------------------------------------

def _primal_transport(instance: Instance, table: np.ndarray):
    """Value, coupling, and the primal's layout and solution."""
    primal = primal_lp(instance, table)
    sol = solve(primal.lp)
    if sol.status != "optimal":
        raise LpError(f"transport primal unexpectedly {sol.status}")
    return sol.value, primal.coupling(sol.x), primal, sol


def primal_transport(instance: Instance, payoff: Payoff) -> tuple[float, Coupling]:
    """Maximize <f, mu> over the feasible couplings; returns an attaining one."""
    return _primal_transport(instance, payoff.table_for(instance))[:2]


def _dual_residuals(instance: Instance, table: np.ndarray, dual: TransportDualSolution):
    """superreplication_min and dual_price_identity of a dual solution."""
    indices = instance.point_indices()
    static = dual.m + sum(dual.g[pos][indices[pos]] for pos in range(instance.horizon))
    cost = dual.m + sum(sublinear_price(con, g) for con, g in zip(instance.constraints, dual.g))
    return float((static - table).min()), abs(dual.value - cost)


def _transport_duality(instance: Instance, table: np.ndarray):
    """Primal value, coupling, dual solution and the dual's residuals
    (superreplication_min, dual_price_identity).  Only the primal is solved:
    the dual is read off its multipliers and kept once `certified` passes,
    else the dual LP is solved."""
    value, coupling, primal, sol = _primal_transport(instance, table)
    dual = TransportDualSolution(float(sol.duals @ primal.lp.rhs), *primal.static_side(sol))
    residuals = _dual_residuals(instance, table, dual)
    if not certified(value, dual.value, *residuals):
        tall = superhedge_lp(instance, table)
        sol = solve(tall.lp)
        if sol.status != "optimal":
            raise LpError(f"transport dual unexpectedly {sol.status}")
        dual = TransportDualSolution(sol.value, *tall.position(sol.x), tall.mixtures(sol.duals))
        residuals = _dual_residuals(instance, table, dual)
    return value, coupling, dual, residuals


def dual_transport(instance: Instance, payoff: Payoff) -> TransportDualSolution:
    """Cheapest cash-plus-static superreplication of the payoff, read off
    the primal as in `duality_report`."""
    return _transport_duality(instance, payoff.table_for(instance))[2]


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


def marginal_separation(instance: Instance, coupling: Coupling) -> float:
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
    of the conjugate max-representation), one primal solve per payoff."""
    sides = [_transport_duality(instance, payoff.table_for(instance)) for payoff in payoffs]
    primals = tuple(side[0] for side in sides)
    duals = tuple(side[2].value for side in sides)
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


def duality_report(instance: Instance, payoff: Payoff) -> DualityReport:
    """Primal and dual values side by side with certificate residuals, from
    one primal solve (see `_transport_duality`)."""
    primal_value, coupling, dual, (superrep, price_identity) = _transport_duality(
        instance, payoff.table_for(instance))
    residuals = {
        "superreplication_min": superrep,
        "marginal_separation": marginal_separation(instance, coupling),
        "dual_price_identity": price_identity,
        "coupling_mass_error": abs(coupling.total_mass - 1.0),
    }
    return DualityReport(primal_value=primal_value, dual_value=dual.value,
                         gap=abs(primal_value - dual.value), coupling=coupling,
                         dual=dual, residuals=residuals)
