"""Finite-grid transport and martingale-transport dualities.

Builds and solves the coupling (primal) and subreplication/superhedging
(dual) linear programs over finite product grids, detects uniform (and
so model-independent) arbitrage with and without proportional
transaction costs, recovers marginals from call quotes, and reproduces the
Bernoulli-product duality gap numerically.
"""

from .model import (
    PROB_TOL,
    VALUE_TOL,
    Coupling,
    ConvexOrderReport,
    DiscreteAxis,
    DiscreteMeasure,
    Instance,
    MarginalConstraint,
    Payoff,
    check_convex_order,
    evaluate_expectation,
    marginal_of,
    sublinear_price,
    tightness_certificate,
)
from .lp import (
    LinearProgram,
    LpBuilder,
    LpError,
    LpNumericalError,
    LpSolution,
    check_certificates,
    solve,
    write_mps,
)
from .transport import (
    ConjugateValue,
    DualityReport,
    TransportDualSolution,
    conjugate_membership,
    dual_transport,
    duality_report,
    functional_properties_check,
    primal_transport,
    verify_representation,
)
from .martingale import (
    ArbitrageError,
    ArbitrageVerdict,
    FtapReport,
    Market,
    MotPrimalResult,
    SemiStaticStrategy,
    SuperhedgeResult,
    classify_arbitrage,
    feasibility_residual,
    frictionless_limit_check,
    ftap_check,
    primal_mot,
    superhedge_dual,
    superhedging_duality_report,
)
from .bernoulli import (
    BernoulliGapReport,
    bernoulli_instance,
    gap_report,
    liminf_primal_value,
    tail_forced_dual_bound,
)
from .calls import CallQuoteCurve, StaticArbitrageError, marginal_from_calls

__version__ = "0.1.0"
