"""Exact-arithmetic oracles used only by the test suite.

Everything here is deliberately independent of the production solver:
Fractions instead of floats, enumeration instead of pivoting.  Keep these
slow-and-sure; they are the second route of every dual-route check.  The
tall LPs at the end, one row per path, are built with the production
assembly and solved with the production solver.  `tall_superhedge` and
`tall_dual_transport` are the oracle of the duality entry points, which
solve only the short primal and read the dual side off its multipliers;
the two-LP duality routes and the three-LP FTAP route built on them are
the oracle of the reports and of `ftap_check`, as the tall Bernoulli LP is
of the counterexample.  The loop assembly and the variable-by-variable
standard form are the references their index-array versions must match
bit for bit, the row-by-row certificate checkers those of the array
checkers, and the unfused simplex loop (np.outer update, a full overflow
check after every pivot) that of the fused one.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from motkit.assembly import superhedge_lp
from motkit.lp import (
    PIVOT_TOL,
    RESIDUAL_TOL,
    CertificateReport,
    FarkasCertificate,
    LinearProgram,
    LpBuilder,
    LpError,
    LpNumericalError,
    LpSolution,
    solve,
)
from motkit.bernoulli import bernoulli_instance
from motkit.martingale import (
    ARBITRAGE_TOL,
    ArbitrageVerdict,
    FtapReport,
    SemiStaticStrategy,
    SuperhedgeResult,
    primal_mot,
)
from motkit.model import VALUE_TOL, Payoff, sublinear_price
from motkit.transport import TransportDualSolution, primal_transport


def _solve_exact(matrix, rhs):
    """Gaussian elimination over Fractions; returns None when singular."""
    n = len(rhs)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1, 1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def _extended_rows(lp: LinearProgram):
    """All constraints as (coeffs, relation, rhs) over Fractions, bounds included."""
    rows = []
    for i in range(lp.n_rows):
        coeffs = [Fraction(v) for v in lp.a[i]]
        rows.append((coeffs, lp.relations[i], Fraction(lp.rhs[i])))
    n = lp.n_variables
    for j in range(n):
        if np.isfinite(lp.lower[j]):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            rows.append((e, ">=", Fraction(lp.lower[j])))
        if np.isfinite(lp.upper[j]):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            rows.append((e, "<=", Fraction(lp.upper[j])))
    return rows


def _feasible(rows, x) -> bool:
    for coeffs, rel, rhs in rows:
        act = sum(c * v for c, v in zip(coeffs, x))
        if rel == "<=" and act > rhs:
            return False
        if rel == ">=" and act < rhs:
            return False
        if rel == "=" and act != rhs:
            return False
    return True


def enumerate_feasible_vertices(lp: LinearProgram):
    """All basic feasible points of an LP whose variables are bounded below.

    Candidate vertices are exact solutions of n-subsets of tight rows that
    always include the equality rows.  Requires a pointed feasible region,
    which finite lower bounds on every variable guarantee.
    """
    assert np.all(np.isfinite(lp.lower)), "oracle precondition: finite lower bounds"
    n = lp.n_variables
    rows = _extended_rows(lp)
    seen = set()
    vertices = []
    for tight in itertools.combinations(range(len(rows)), n):
        matrix = [rows[k][0] for k in tight]
        rhs = [rows[k][2] for k in tight]
        x = _solve_exact(matrix, rhs)
        if x is None:
            continue
        key = tuple(x)
        if key in seen:
            continue
        seen.add(key)
        if _feasible(rows, x):
            vertices.append(x)
    return vertices


def _recession_directions(lp: LinearProgram):
    """Extreme directions of the recession cone, via vertices of its slice.

    With all variables bounded below, recession directions are >= 0, so the
    slice {sum r_j = 1} is a polytope whose vertices carry the rays.
    """
    n = lp.n_variables
    homogeneous = []
    for i in range(lp.n_rows):
        homogeneous.append(([Fraction(v) for v in lp.a[i]], lp.relations[i], Fraction(0)))
    for j in range(n):
        e = [Fraction(0)] * n
        e[j] = Fraction(1)
        homogeneous.append((e, ">=", Fraction(0)))
        if np.isfinite(lp.upper[j]):
            homogeneous.append((e, "<=", Fraction(0)))
    slice_row = ([Fraction(1)] * n, "=", Fraction(1))
    rows = homogeneous + [slice_row]
    rays = []
    seen = set()
    for tight in itertools.combinations(range(len(rows)), n):
        matrix = [rows[k][0] for k in tight]
        rhs = [rows[k][2] for k in tight]
        r = _solve_exact(matrix, rhs)
        if r is None:
            continue
        key = tuple(r)
        if key in seen:
            continue
        seen.add(key)
        if _feasible(rows, r):
            rays.append(r)
    return rays


def solve_by_vertex_enumeration(lp: LinearProgram):
    """Exact status and optimal value for a tiny LP with finite lower bounds.

    Returns (status, value) with value None unless status == "optimal".
    """
    vertices = enumerate_feasible_vertices(lp)
    if not vertices:
        return "infeasible", None
    c = [Fraction(v) for v in lp.objective]
    best = None
    for x in vertices:
        val = sum(ci * xi for ci, xi in zip(c, x))
        if best is None:
            best = val
        elif lp.sense == "min":
            best = min(best, val)
        else:
            best = max(best, val)
    for r in _recession_directions(lp):
        drift = sum(ci * ri for ci, ri in zip(c, r))
        if (lp.sense == "min" and drift < 0) or (lp.sense == "max" and drift > 0):
            return "unbounded", None
    return "optimal", float(best)


# ---------------------------------------------------------------------------
# transport polytope vertices (two marginals) via spanning trees
# ---------------------------------------------------------------------------

def transport_vertex_values(nu1, nu2, cost) -> list[float]:
    """Objective values <cost, mu> over all vertices of the transport polytope.

    Vertices of {mu >= 0 : row sums nu1, column sums nu2} are supported on
    spanning trees of the complete bipartite graph; masses on a tree follow
    by peeling leaves, all in exact arithmetic.
    """
    m1, m2 = len(nu1), len(nu2)
    nu1 = [Fraction(float(v)) for v in nu1]
    nu2 = [Fraction(float(v)) for v in nu2]
    edges = [(i, j) for i in range(m1) for j in range(m2)]
    n_nodes = m1 + m2
    values = []
    seen_supports = set()
    for tree in itertools.combinations(edges, n_nodes - 1):
        adj = {k: [] for k in range(n_nodes)}
        for i, j in tree:
            adj[i].append((m1 + j, (i, j)))
            adj[m1 + j].append((i, (i, j)))
        # connectivity check (acyclic follows from edge count + connectivity)
        stack, seen = [0], {0}
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n_nodes:
            continue
        supply = {k: (nu1[k] if k < m1 else nu2[k - m1]) for k in range(n_nodes)}
        degree = {k: len(adj[k]) for k in range(n_nodes)}
        mass = {}
        leaves = [k for k in range(n_nodes) if degree[k] == 1]
        removed = set()
        while leaves:
            u = leaves.pop()
            if u in removed:
                continue
            nbrs = [(v, e) for v, e in adj[u] if e not in mass]
            if not nbrs:
                removed.add(u)
                continue
            v, e = nbrs[0]
            mass[e] = supply[u]
            supply[v] -= supply[u]
            supply[u] = Fraction(0)
            removed.add(u)
            degree[v] -= 1
            if degree[v] == 1 and v not in removed:
                leaves.append(v)
        if any(w < 0 for w in mass.values()):
            continue
        support = tuple(sorted(e for e, w in mass.items() if w > 0))
        if support in seen_supports:
            continue
        seen_supports.add(support)
        val = sum(Fraction(float(cost[i][j])) * w for (i, j), w in mass.items())
        values.append(float(val))
    return values


def hull_membership_exact(vertices, target) -> bool:
    """Is target a convex combination of the given probability vectors?

    Exact feasibility of {lambda >= 0, V lambda = target, sum lambda = 1}
    by enumerating candidate tight sets; handles affinely dependent
    vertices (e.g. three vertices on a two-point axis).
    """
    k = len(vertices)
    p = len(target)
    rows = []
    for j in range(p):
        rows.append(([Fraction(float(vertices[i][j])) for i in range(k)],
                     "=", Fraction(float(target[j]))))
    rows.append(([Fraction(1)] * k, "=", Fraction(1)))
    for i in range(k):
        e = [Fraction(0)] * k
        e[i] = Fraction(1)
        rows.append((e, ">=", Fraction(0)))
    for tight in itertools.combinations(range(len(rows)), k):
        matrix = [rows[r][0] for r in tight]
        rhs = [rows[r][2] for r in tight]
        lam = _solve_exact(matrix, rhs)
        if lam is None:
            continue
        if _feasible(rows, lam):
            return True
    return False


# ---------------------------------------------------------------------------
# path-by-path LP assembly: the reference the triplet assembly must match
# ---------------------------------------------------------------------------

def loop_superhedge_path_rows(market, n_variables, m_var, g_vars, columns) -> np.ndarray:
    """The superreplication rows of the superhedge LP, one path at a time,
    in the column order of the built LP (its epigraph rows come first)."""
    inst = market.instance
    idx = inst.point_indices()
    s = market.price_paths()
    a = np.zeros((inst.n_paths, n_variables))
    for i in range(inst.n_paths):
        a[i, m_var] = 1.0
        for pos in range(inst.horizon):
            a[i, g_vars[pos][idx[pos, i]]] = 1.0
        for (k, n), ids in columns.h_vars.items():
            a[i, ids[inst.prefix_ids(n - 1)[i]]] = s[n][i, k] - s[n - 1][i, k]
        for (k, mat, n), (buys, sells) in columns.trade_vars.items():
            e = market.epsilons[k]
            p = inst.prefix_ids(n - 1)[i]
            a[i, buys[p]] = s[mat][i, k] - (1.0 + e) * s[n - 1][i, k]
            a[i, sells[p]] = (1.0 - e) * s[n - 1][i, k] - s[mat][i, k]
    return a


def loop_mot_primal_matrix(market, n_variables) -> np.ndarray:
    """Constraint matrix of the martingale primal, one row at a time: the
    marginal rows of each axis (hull axes add lambda columns after the
    paths and a simplex row), then per asset the martingale rows, or the
    ask and bid rows of every prefix."""
    inst = market.instance
    idx = inst.point_indices()
    s = market.price_paths()
    rows = []

    def row(cols, values):
        r = np.zeros(n_variables)
        r[cols] = values
        rows.append(r)

    next_col = inst.n_paths
    for pos, con in enumerate(inst.constraints):
        lams = [] if con.is_exact else list(range(next_col, next_col + len(con.measures)))
        next_col += len(lams)
        for j in range(inst.axes[pos].npoints):
            members = list(np.flatnonzero(idx[pos] == j))
            weights = [-nu.weights[j] for nu in con.measures] if lams else []
            row(members + lams, [1.0] * len(members) + weights)
        if lams:
            row(lams, 1.0)
    for k in range(market.d):
        e = market.epsilons[k]
        steps = ([(n + 1, n) for n in range(inst.horizon)] if e == 0.0 else
                 [(mat, n) for mat in range(1, inst.horizon + 1) for n in range(mat)])
        for mat, n in steps:
            pid = inst.prefix_ids(n)
            for p in range(inst.n_prefixes(n)):
                members = np.flatnonzero(pid == p)
                if e == 0.0:
                    row(members, s[mat][members, k] - s[n][members, k])
                else:
                    row(members, s[mat][members, k] - (1.0 + e) * s[n][members, k])
                    row(members, (1.0 - e) * s[n][members, k] - s[mat][members, k])
    return np.array(rows)


# ---------------------------------------------------------------------------
# variable-by-variable standard form: the reference of lp._Standardizer
# ---------------------------------------------------------------------------

class LoopStandardizer:
    """Rewrites an LP as  min c'z, A z = b, z >= 0, b >= 0  and remembers
    how to map points, rays and duals back to the original space."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        n = lp.n_variables
        sign = -1.0 if lp.sense == "max" else 1.0
        c_orig = sign * lp.objective

        # var j -> (kind, columns); kind in {"shift", "mirror", "split"}
        self.var_map: list[tuple[str, tuple[int, ...]]] = []
        self.offsets = np.zeros(n)
        cols_c: list[float] = []
        cols_a: list[np.ndarray] = []  # column snippets over original rows
        bound_rows: list[tuple[int, float]] = []  # (z column, range upper-lower)

        for j in range(n):
            lo, up = lp.lower[j], lp.upper[j]
            col = lp.a[:, j]
            if np.isfinite(lo):
                z = len(cols_c)
                self.var_map.append(("shift", (z,)))
                self.offsets[j] = lo
                cols_c.append(c_orig[j])
                cols_a.append(col)
                if np.isfinite(up):
                    bound_rows.append((z, up - lo))
            elif np.isfinite(up):
                z = len(cols_c)
                self.var_map.append(("mirror", (z,)))
                self.offsets[j] = up
                cols_c.append(-c_orig[j])
                cols_a.append(-col)
            else:
                zp = len(cols_c)
                cols_c.append(c_orig[j])
                cols_a.append(col)
                zm = len(cols_c)
                cols_c.append(-c_orig[j])
                cols_a.append(-col)
                self.var_map.append(("split", (zp, zm)))

        m_orig = lp.n_rows
        m_bound = len(bound_rows)
        n_struct = len(cols_c)

        body = np.empty((m_orig + m_bound, n_struct))
        if n_struct:
            body[:m_orig] = np.column_stack(cols_a) if cols_a else np.zeros((m_orig, 0))
        body[m_orig:] = 0.0
        rhs = np.concatenate([lp.rhs - lp.a @ self.offsets,
                              np.array([r for _, r in bound_rows], dtype=float)])
        relations = list(lp.relations) + ["<="] * m_bound
        for k, (z, _) in enumerate(bound_rows):
            body[m_orig + k, z] = 1.0

        # slacks
        slack_cols = []
        for i, rel in enumerate(relations):
            if rel == "<=":
                slack_cols.append((i, 1.0))
            elif rel == ">=":
                slack_cols.append((i, -1.0))
        n_slack = len(slack_cols)
        a_std = np.zeros((m_orig + m_bound, n_struct + n_slack))
        a_std[:, :n_struct] = body
        for k, (i, s) in enumerate(slack_cols):
            a_std[i, n_struct + k] = s

        # nonnegative rhs
        self.sigma = np.where(rhs < 0, -1.0, 1.0)
        a_std *= self.sigma[:, None]
        rhs = rhs * self.sigma

        self.m_orig = m_orig
        self.m_bound = m_bound
        self.bound_rows = bound_rows
        self.n_struct = n_struct
        self.c_std = np.concatenate([np.array(cols_c), np.zeros(n_slack)])
        self.a_std = a_std
        self.b_std = rhs
        self.obj_sign = sign

    def x_from_z(self, z: np.ndarray) -> np.ndarray:
        x = np.empty(self.lp.n_variables)
        for j, (kind, cols) in enumerate(self.var_map):
            if kind == "shift":
                x[j] = self.offsets[j] + z[cols[0]]
            elif kind == "mirror":
                x[j] = self.offsets[j] - z[cols[0]]
            else:
                x[j] = z[cols[0]] - z[cols[1]]
        return x

    def ray_from_z(self, dz: np.ndarray) -> np.ndarray:
        r = np.empty(self.lp.n_variables)
        for j, (kind, cols) in enumerate(self.var_map):
            if kind == "shift":
                r[j] = dz[cols[0]]
            elif kind == "mirror":
                r[j] = -dz[cols[0]]
            else:
                r[j] = dz[cols[0]] - dz[cols[1]]
        return r

    def duals_from_std(self, y_std: np.ndarray) -> np.ndarray:
        # undo row negation, then undo the sense flip
        y = (self.sigma * y_std)[: self.m_orig]
        return self.obj_sign * y

    def farkas_from_std(self, y_std: np.ndarray) -> FarkasCertificate:
        yhat = self.sigma * y_std
        n = self.lp.n_variables
        p = np.zeros(n)
        q = np.zeros(n)
        w = yhat[: self.m_orig]
        # fold bound-row multipliers and column slacks into bound multipliers
        qbound = {z: yhat[self.m_orig + k] for k, (z, _) in enumerate(self.bound_rows)}
        for j, (kind, cols) in enumerate(self.var_map):
            a_col = self.lp.a[:, j]
            if kind == "shift":
                qb = qbound.get(cols[0], 0.0)
                q[j] = min(qb, 0.0)
                p[j] = max(-(w @ a_col + q[j]), 0.0)
            elif kind == "mirror":
                q[j] = min(-(w @ a_col), 0.0)
        scale = np.abs(w).sum() + np.abs(p).sum() + np.abs(q).sum()
        if scale > 0:
            w, p, q = w / scale, p / scale, q / scale
        return FarkasCertificate(w, p, q)


def loop_basis_duals(a: np.ndarray, c: np.ndarray, basis_cols: np.ndarray) -> np.ndarray:
    """Solve B'y = c_B for the final basis (artificial columns are unit
    vectors with zero cost)."""
    m = a.shape[0]
    n = a.shape[1]
    bmat = np.empty((m, m))
    cb = np.empty(m)
    for k, j in enumerate(basis_cols):
        if j < n:
            bmat[:, k] = a[:, j]
            cb[k] = c[j]
        else:
            bmat[:, k] = 0.0
            bmat[j - n, k] = 1.0
            cb[k] = 0.0
    try:
        return np.linalg.solve(bmat.T, cb)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - basis is nonsingular
        raise LpNumericalError("singular basis during dual recovery") from exc


# ---------------------------------------------------------------------------
# the simplex loop as it was before it was fused: the reference of
# lp._run_simplex and lp._pivot
# ---------------------------------------------------------------------------

def loop_pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    piv_row = tableau[row] / tableau[row, col]
    colvals = tableau[:, col].copy()
    tableau -= np.outer(colvals, piv_row)
    tableau[row] = piv_row
    basis[row] = col


def _choose_entering(costrow: np.ndarray, allowed: np.ndarray, bland: bool) -> int | None:
    reduced = np.where(allowed, costrow, np.inf)
    if bland:
        neg = np.flatnonzero(reduced < -PIVOT_TOL)
        return int(neg[0]) if neg.size else None
    j = int(np.argmin(reduced))
    return j if reduced[j] < -PIVOT_TOL else None


def _choose_leaving(tableau: np.ndarray, basis: np.ndarray, col: int, bland: bool) -> int | None:
    m = tableau.shape[0] - 1
    colvals = tableau[:m, col]
    rhs = tableau[:m, -1]
    eligible = colvals > PIVOT_TOL
    if not eligible.any():
        return None
    ratios = np.where(eligible, rhs / np.where(eligible, colvals, 1.0), np.inf)
    best = ratios.min()
    ties = np.flatnonzero(ratios <= best + 1e-12)
    if bland or ties.size == 1:
        # smallest basic-variable index among ties (Bland)
        return int(ties[np.argmin(basis[ties])])
    # deterministic Dantzig tie break: largest pivot element, then lowest basis id
    piv = colvals[ties]
    strongest = ties[piv >= piv.max() - 1e-12]
    return int(strongest[np.argmin(basis[strongest])])


def loop_run_simplex(tableau: np.ndarray, basis: np.ndarray, allowed: np.ndarray,
                     pivot_rule: str, iteration_budget: list[int],
                     bland_after: int) -> tuple[str, int | None]:
    """Iterate to optimality, checking the whole tableau after every pivot.

    Returns ("optimal", None) or ("unbounded", entering_column).
    """
    while True:
        bland = pivot_rule == "bland" or iteration_budget[0] >= bland_after
        col = _choose_entering(tableau[-1, :-1], allowed, bland)
        if col is None:
            return "optimal", None
        row = _choose_leaving(tableau, basis, col, bland)
        if row is None:
            return "unbounded", col
        loop_pivot(tableau, basis, row, col)
        iteration_budget[0] += 1
        if iteration_budget[0] >= iteration_budget[1]:
            raise LpNumericalError("simplex iteration limit exceeded")
        if not np.isfinite(tableau).all():
            raise LpNumericalError("tableau overflow during pivoting")


# ---------------------------------------------------------------------------
# the certificate checkers row by row, as before they became array expressions
# ---------------------------------------------------------------------------

def _row_activities(lp: LinearProgram, x: np.ndarray) -> np.ndarray:
    return lp.a @ x if lp.n_rows else np.zeros(0)


def loop_primal_residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of rows and bounds at x (absolute)."""
    act = _row_activities(lp, x)
    worst = 0.0
    for i, rel in enumerate(lp.relations):
        gap = act[i] - lp.rhs[i]
        if rel == "<=":
            worst = max(worst, gap)
        elif rel == ">=":
            worst = max(worst, -gap)
        else:
            worst = max(worst, abs(gap))
    lo_viol = np.where(np.isfinite(lp.lower), lp.lower - x, -np.inf)
    up_viol = np.where(np.isfinite(lp.upper), x - lp.upper, -np.inf)
    worst = max(worst, float(lo_viol.max(initial=0.0)), float(up_viol.max(initial=0.0)))
    return float(max(worst, 0.0))


def loop_check_certificates(lp: LinearProgram, sol: LpSolution,
                       tol: float = RESIDUAL_TOL) -> CertificateReport:
    """Recompute all four optimality residuals from scratch."""
    if sol.status != "optimal":
        raise ValueError("check_certificates expects an Optimal solution")
    x, y = sol.x, sol.duals
    sgn = 1.0 if lp.sense == "min" else -1.0

    p_res = loop_primal_residual(lp, x)

    z = lp.objective - (lp.a.T @ y if lp.n_rows else 0.0)
    d_res = 0.0
    comp = 0.0
    act = _row_activities(lp, x)
    for i, rel in enumerate(lp.relations):
        yi = sgn * y[i]  # in min convention after sign normalization
        if rel == ">=":
            d_res = max(d_res, -yi)
        elif rel == "<=":
            d_res = max(d_res, yi)
        comp = max(comp, abs(y[i] * (act[i] - lp.rhs[i])))
    zs = sgn * z
    for j in range(lp.n_variables):
        at_lo = np.isfinite(lp.lower[j]) and x[j] <= lp.lower[j] + 1e-7
        at_up = np.isfinite(lp.upper[j]) and x[j] >= lp.upper[j] - 1e-7
        if at_lo and at_up:
            continue
        if at_lo:
            d_res = max(d_res, -zs[j])
        elif at_up:
            d_res = max(d_res, zs[j])
        else:
            d_res = max(d_res, abs(zs[j]))

    dual_obj = float(y @ lp.rhs) if lp.n_rows else 0.0
    for j in range(lp.n_variables):
        if zs[j] > tol and np.isfinite(lp.lower[j]):
            dual_obj += z[j] * lp.lower[j]
        elif zs[j] < -tol and np.isfinite(lp.upper[j]):
            dual_obj += z[j] * lp.upper[j]
    gap = abs(sol.value - dual_obj) / max(1.0, abs(sol.value))
    return CertificateReport(p_res, float(max(d_res, 0.0)), comp, gap)


def loop_check_farkas_certificate(lp: LinearProgram, cert: FarkasCertificate,
                             tol: float = RESIDUAL_TOL) -> float:
    """Residual of an infeasibility certificate; <= tol means valid.

    Returns max(sign violations, |aggregated row|_inf, tol - margin) so a
    valid, strictly separating certificate scores 0.
    """
    w, p, q = cert.row_multipliers, cert.lower_multipliers, cert.upper_multipliers
    worst = 0.0
    for i, rel in enumerate(lp.relations):
        if rel == ">=":
            worst = max(worst, -w[i])
        elif rel == "<=":
            worst = max(worst, w[i])
    worst = max(worst, float((-p).max(initial=0.0)), float(q.max(initial=0.0)))
    # multipliers on infinite bounds must vanish
    worst = max(worst, float(np.abs(np.where(np.isfinite(lp.lower), 0.0, p)).max(initial=0.0)))
    worst = max(worst, float(np.abs(np.where(np.isfinite(lp.upper), 0.0, q)).max(initial=0.0)))
    agg = (lp.a.T @ w if lp.n_rows else 0.0) + p + q
    worst = max(worst, float(np.abs(agg).max(initial=0.0)))
    margin = float(w @ lp.rhs)
    lo_mask = np.isfinite(lp.lower)
    up_mask = np.isfinite(lp.upper)
    margin += float((p[lo_mask] * lp.lower[lo_mask]).sum())
    margin += float((q[up_mask] * lp.upper[up_mask]).sum())
    worst = max(worst, tol - margin)
    return float(max(worst, 0.0))


def loop_check_unbounded_ray(lp: LinearProgram, ray: np.ndarray,
                        tol: float = RESIDUAL_TOL) -> float:
    """Residual of an improving feasible ray; <= tol means valid."""
    worst = 0.0
    act = lp.a @ ray if lp.n_rows else np.zeros(0)
    for i, rel in enumerate(lp.relations):
        if rel == "<=":
            worst = max(worst, act[i])
        elif rel == ">=":
            worst = max(worst, -act[i])
        else:
            worst = max(worst, abs(act[i]))
    worst = max(worst, float(np.where(np.isfinite(lp.lower), -ray, -np.inf).max(initial=0.0)))
    worst = max(worst, float(np.where(np.isfinite(lp.upper), ray, -np.inf).max(initial=0.0)))
    drift = float(lp.objective @ ray)
    improving = -drift if lp.sense == "min" else drift
    worst = max(worst, tol - improving)
    return float(max(worst, 0.0))


# ---------------------------------------------------------------------------
# the duality reports by two LP solves, and test-only views of the dual
# ---------------------------------------------------------------------------

def two_lp_transport(instance, payoff):
    """(primal value, coupling, dual solution) of the transport duality, each
    side from its own LP."""
    value, coupling = primal_transport(instance, payoff)
    return value, coupling, tall_dual_transport(instance, payoff)


def two_lp_superhedging(market, payoff):
    """(MOT primal result, superhedge result), each from its own LP."""
    return primal_mot(market, payoff), tall_superhedge(market, payoff)


def transport_dual_residuals(instance, table, dual):
    """(superreplication_min, dual_price_identity) recomputed from the raw
    definitions; the legs must be nonnegative."""
    assert all(np.all(g >= 0.0) for g in dual.g)
    idx = instance.point_indices()
    cover = dual.m + sum(dual.g[pos][idx[pos]] for pos in range(instance.horizon))
    priced = dual.m + sum(sublinear_price(con, dual.g[pos])
                          for pos, con in enumerate(instance.constraints))
    return float((cover - table).min()), abs(dual.value - priced)


def strategy_residuals(market, table, value, strategy):
    """(superreplication_min, strategy_cost_identity) of a superhedge,
    recomputed from the raw definitions; the legs must be nonnegative."""
    assert all(np.all(g >= 0.0) for g in strategy.g)
    return (float((strategy.outcome(market) - table).min()),
            abs(strategy.cost(market) - value))


def dual_equivalent_split(instance, payoff) -> float:
    """Signed-leg variant g1 - g2 (both >= 0) of the transport dual; same
    value.  Exact constraints only; the cash position is absorbed by the legs.
    """
    if any(not con.is_exact for con in instance.constraints):
        raise ValueError("split form is defined for Exact constraints")
    table = payoff.table_for(instance)
    builder = LpBuilder("min")
    indices = instance.point_indices()
    cols, vals = [], []
    for pos, constraint in enumerate(instance.constraints):
        nu = constraint.measures[0].weights
        g1 = builder.add_variables(nu.size, objective=nu)
        g2 = builder.add_variables(nu.size, objective=-nu)
        cols += [g1[indices[pos]], g2[indices[pos]]]
        vals += [np.ones(instance.n_paths), -np.ones(instance.n_paths)]
    builder.add_rows(np.tile(np.arange(instance.n_paths), len(cols)), np.concatenate(cols),
                     np.concatenate(vals), ">=", table)
    sol = solve(builder.build())
    if sol.status != "optimal":
        raise LpError(f"split dual unexpectedly {sol.status}")
    return sol.value


def translation_check(constraint, values, shift: float) -> bool:
    """Does price(values + shift) equal price(values) + shift (within 1e-9)?"""
    values = np.asarray(values, dtype=float)
    lhs = sublinear_price(constraint, values + shift)
    rhs = sublinear_price(constraint, values) + shift
    return abs(lhs - rhs) <= VALUE_TOL


# ---------------------------------------------------------------------------
# the LPs that cheaper routes replaced, kept as the reference of those routes
# ---------------------------------------------------------------------------

def tall_tail_forced_dual_bound(depth: int):
    """The Bernoulli tail-forced superreplication LP itself, 2^N rows by
    2N + 1 columns: (value, certificate m, certificate legs)."""
    instance = bernoulli_instance(depth)
    tall = superhedge_lp(instance, np.ones(instance.n_paths))
    sol = solve(tall.lp)
    if sol.status != "optimal":
        raise LpError(f"tail-forced dual LP unexpectedly {sol.status}")
    return (sol.value, *tall.position(sol.x))


def tall_superhedge(market, payoff, force_frictional=False) -> SuperhedgeResult:
    """The cheapest superhedge from the superhedge LP itself, one row per path;
    unbounded with the improving ray as a strategy under arbitrage."""
    sh = superhedge_lp(market.instance, payoff.table_for(market.instance), market,
                       force_frictional)
    sol = solve(sh.lp)
    strategy = lambda x: SemiStaticStrategy(*sh.position(x), sh.trading.extract_legs(x))
    if sol.status == "optimal":
        return SuperhedgeResult("optimal", sol.value, strategy(sol.x))
    if sol.status == "unbounded":
        return SuperhedgeResult("unbounded", -np.inf, None, ray=strategy(sol.ray))
    raise LpError(f"superhedge LP unexpectedly {sol.status}")


def tall_dual_transport(instance, payoff) -> TransportDualSolution:
    """The transport dual from its own LP, one row per path."""
    dual = superhedge_lp(instance, payoff.table_for(instance))
    sol = solve(dual.lp)
    if sol.status != "optimal":
        raise LpError(f"transport dual unexpectedly {sol.status}")
    return TransportDualSolution(sol.value, *dual.position(sol.x), dual.mixtures(sol.duals))


def three_lp_ftap(market) -> FtapReport:
    """The FTAP report from three separate solves, superhedge(0),
    superhedge(1) and the zero-payoff MOT primal, with a verdict that tests
    the model-independent surrogate (cost <= 0, outcome >= 1) on its own."""
    zero, one = (Payoff.constant(cash, market.instance) for cash in (0.0, 1.0))
    ua, mia = tall_superhedge(market, zero), tall_superhedge(market, one)
    feas = primal_mot(market, zero)
    if ua.status == "unbounded" or ua.value < -ARBITRAGE_TOL:
        witness = ua.ray if ua.status == "unbounded" else ua.strategy
        verdict = ArbitrageVerdict("uniform", witness, ua.value, -np.inf)
    elif mia.status == "unbounded" or mia.value <= ARBITRAGE_TOL:
        witness = mia.ray if mia.status == "unbounded" else mia.strategy
        verdict = ArbitrageVerdict("model_independent", witness, ua.value, mia.value)
    else:
        verdict = ArbitrageVerdict("no_arbitrage", None, ua.value, mia.value)
    no_uniform = verdict.kind != "uniform"
    no_mia = mia.status == "optimal" and mia.value > ARBITRAGE_TOL
    nonempty = feas.status == "optimal"
    return FtapReport(no_model_independent=no_mia, no_uniform=no_uniform,
                      martingale_set_nonempty=nonempty,
                      equivalent=(no_mia == no_uniform == nonempty),
                      uniform_value=ua.value, strict_value=mia.value,
                      coupling=feas.coupling, verdict=verdict)
